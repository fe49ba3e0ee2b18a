//! Hot-path accounting shared by both engines' worker contexts.
//!
//! Everything a worker counts per item, per message or per delivered slice
//! is a plain `u64` field here, bumped in place; the named report counters
//! are built from it once, when the worker exits ([`Tally::fold_into`]).  A
//! string-keyed [`Counters`] lookup per event would cost more than most of
//! the events it counts.  Slab claims are not tallied at all: the worker's
//! arena counts them (and its misses) itself, and the fold reads them there.

use metrics::Counters;
use shmem::ArenaStats;

/// Per-worker runtime tallies (the report's counter of the same name is the
/// sum over workers).
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Aggregated messages handed to the delivery plane.
    pub(crate) wire_messages: u64,
    /// Modelled bytes of those messages.
    pub(crate) wire_bytes: u64,
    /// Items those messages carried.
    pub(crate) wire_items: u64,
    /// Of `wire_messages`, those a flush emitted rather than a full buffer.
    pub(crate) wire_messages_flush: u64,
    /// Envelopes diverted to the node leader's uplink (node tier).
    pub(crate) wire_node_msgs: u64,
    /// Receive-side grouping passes run — one per process-addressed slab
    /// not grouped at its source, the simulator's rule.
    pub(crate) grouping_passes: u64,
    /// Items those passes grouped.
    pub(crate) grouped_items: u64,
    /// Envelopes a group receiver forwarded to a peer: pre-grouped slices
    /// and peer-addressed singles.
    pub(crate) local_forwards: u64,
    /// Local-bypass batches shipped.
    pub(crate) local_batches: u64,
    /// Items that took the local bypass.
    pub(crate) local_deliveries: u64,
}

impl Tally {
    /// Add every tally to `counters` under its report name.  A name is added
    /// only if it was recorded, as per-event `Counters::add` calls would
    /// have: every recording site adds a positive amount, so "recorded" is
    /// "non-zero" — except the companions recorded alongside an event count
    /// (`wire_items` with `wire_messages`, `grouped_items` with
    /// `grouping_passes`), which follow their event count.  The one gap is
    /// a message model of zero bytes (header and item size both 0), whose
    /// `wire_bytes` reads as absent rather than as 0.
    ///
    /// With the claim statistics of the worker's own arena, those are added
    /// too, zero or not: `arena_claim_misses == 0` across a run is the proof
    /// that the steady state never fell back to singles (gated by
    /// `benchmark/run.sh --check` and the engines' tests).
    pub(crate) fn fold_into(&self, counters: &mut Counters, arena: Option<ArenaStats>) {
        if self.wire_messages > 0 {
            counters.add("wire_messages", self.wire_messages);
            counters.add("wire_items", self.wire_items);
        }
        if self.grouping_passes > 0 {
            counters.add("grouping_passes", self.grouping_passes);
            counters.add("grouped_items", self.grouped_items);
        }
        for (name, value) in [
            ("wire_bytes", self.wire_bytes),
            ("wire_messages_flush", self.wire_messages_flush),
            ("wire_node_msgs", self.wire_node_msgs),
            ("local_forwards", self.local_forwards),
            ("local_batches", self.local_batches),
            ("local_deliveries", self.local_deliveries),
        ] {
            if value > 0 {
                counters.add(name, value);
            }
        }
        if let Some(stats) = arena {
            counters.add("arena_claims", stats.claims);
            counters.add("arena_claim_misses", stats.misses);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_adds_recorded_names_only() {
        let mut counters = Counters::new();
        Tally::default().fold_into(&mut counters, None);
        assert!(counters.is_empty());

        let tally = Tally {
            wire_messages: 3,
            wire_items: 40,
            wire_bytes: 700,
            local_deliveries: 5,
            ..Tally::default()
        };
        counters.add("app", 1);
        tally.fold_into(&mut counters, None);
        tally.fold_into(&mut counters, None);
        assert_eq!(
            counters.to_string(),
            "app=1 local_deliveries=10 wire_bytes=1400 wire_items=80 wire_messages=6"
        );
    }
}
