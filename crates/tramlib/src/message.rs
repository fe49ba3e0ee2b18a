//! Aggregated messages emitted by the aggregator towards the transport.

use crate::item::Item;
use net_model::{ProcId, WorkerId};

/// Where an aggregated message is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageDest {
    /// Directly to one destination worker (WW, NoAgg).
    Worker(WorkerId),
    /// To a destination process; the receiving side distributes items to its
    /// workers (WPs, WsP, PP).
    Process(ProcId),
}

/// Why a message was emitted.  Used by the statistics and by the figures that
/// distinguish "sends dominated by flush costs" (Fig. 9/11 discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmitReason {
    /// The buffer reached its capacity `g`.
    BufferFull,
    /// The application called flush explicitly.
    ExplicitFlush,
    /// The owning worker went idle and the policy flushes on idle.
    IdleFlush,
    /// The buffer's oldest item exceeded the configured timeout.
    TimeoutFlush,
    /// The scheme does not aggregate (every item is its own message).
    Unaggregated,
}

impl EmitReason {
    /// True for the reasons that indicate a partially filled buffer was sent.
    pub fn is_flush(self) -> bool {
        matches!(
            self,
            EmitReason::ExplicitFlush | EmitReason::IdleFlush | EmitReason::TimeoutFlush
        )
    }
}

/// An aggregated message ready to be handed to the transport.
#[derive(Debug, Clone)]
pub struct OutboundMessage<T> {
    /// Destination (worker or process) of the message.
    pub dest: MessageDest,
    /// The items packed into the message, in insertion order (or grouped by
    /// destination worker when `grouped_at_source` is set).
    pub items: Vec<Item<T>>,
    /// Wire size of the message in bytes (envelope + items), already resized to
    /// the actual item count as the paper's flush optimization requires.
    pub bytes: u64,
    /// Why the message was emitted.
    pub reason: EmitReason,
    /// True if the source already grouped `items` by destination worker (WsP),
    /// so the destination can skip the grouping pass.
    pub grouped_at_source: bool,
}

/// An aggregated message whose items live in a [`shmem::SegArena`] slab
/// instead of a heap vector: the shared-memory counterpart of
/// [`OutboundMessage`].  The items were buffered privately and copied into
/// the slab once, when the message shipped ([`shmem::SegArena::fill`]);
/// after that only this 32-byte descriptor moves, and every consumer
/// borrows the items in place.
#[derive(Debug, Clone, Copy)]
pub struct SlabSealed {
    /// Destination (worker or process) of the message.
    pub dest: MessageDest,
    /// The sealed slab in the emitting worker's arena.
    pub handle: shmem::SlabHandle,
    /// Wire size of the message in bytes (envelope + items), resized to the
    /// actual item count like [`OutboundMessage::bytes`].
    pub bytes: u64,
    /// Why the message was emitted.
    pub reason: EmitReason,
    /// True if the source already grouped the slab by destination worker
    /// (WsP), so the destination only splits contiguous runs.
    pub grouped_at_source: bool,
}

impl SlabSealed {
    /// Number of items carried.
    pub fn item_count(&self) -> usize {
        self.handle.len as usize
    }
}

/// A message emitted by [`crate::Aggregator::insert_slab_at`]: copied into a
/// slab, or — when the arena was dry — still the vector-backed
/// [`OutboundMessage`].
#[derive(Debug)]
pub enum EmittedMessage<T> {
    /// Items travel as a borrowed slab (the steady state).
    Slab(SlabSealed),
    /// Items travel in a heap vector (the arena was dry).
    Vec(OutboundMessage<T>),
}

impl<T> OutboundMessage<T> {
    /// Number of items carried.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Number of distinct destination workers among the items.
    ///
    /// Allocation-free when the message was grouped at the source (the items
    /// are already sorted by destination worker, so distinct workers are run
    /// boundaries); unsorted messages pay a scratch sort, which is why the
    /// per-message destination histogram is opt-in
    /// ([`crate::TramConfig::detailed_dest_stats`]).
    pub fn distinct_dest_workers(&self) -> usize {
        if self.grouped_at_source {
            distinct_sorted_dest_workers(&self.items)
        } else {
            let mut dests: Vec<u32> = self.items.iter().map(|i| i.dest.0).collect();
            dests.sort_unstable();
            dests.dedup();
            dests.len()
        }
    }
}

/// Count distinct destination workers in a slice already sorted by destination
/// worker id, without allocating.
fn distinct_sorted_dest_workers<T>(items: &[Item<T>]) -> usize {
    debug_assert!(
        items.windows(2).all(|w| w[0].dest.0 <= w[1].dest.0),
        "items must be sorted by destination worker"
    );
    let mut distinct = 0;
    let mut prev: Option<u32> = None;
    for item in items {
        if prev != Some(item.dest.0) {
            distinct += 1;
            prev = Some(item.dest.0);
        }
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_reason_flush_classification() {
        assert!(EmitReason::ExplicitFlush.is_flush());
        assert!(EmitReason::IdleFlush.is_flush());
        assert!(EmitReason::TimeoutFlush.is_flush());
        assert!(!EmitReason::BufferFull.is_flush());
        assert!(!EmitReason::Unaggregated.is_flush());
    }

    #[test]
    fn distinct_dest_workers_counts_unique() {
        let msg = OutboundMessage {
            dest: MessageDest::Process(ProcId(1)),
            items: vec![
                Item::new(WorkerId(4), 1u32, 0),
                Item::new(WorkerId(5), 2, 0),
                Item::new(WorkerId(4), 3, 0),
            ],
            bytes: 100,
            reason: EmitReason::BufferFull,
            grouped_at_source: false,
        };
        assert_eq!(msg.item_count(), 3);
        assert_eq!(msg.distinct_dest_workers(), 2);
    }

    #[test]
    fn distinct_dest_workers_sorted_path_counts_runs() {
        // Grouped at source: the items are sorted, so the count is taken from
        // run boundaries without allocating.
        let msg = OutboundMessage {
            dest: MessageDest::Process(ProcId(1)),
            items: vec![
                Item::new(WorkerId(4), 1u32, 0),
                Item::new(WorkerId(4), 2, 0),
                Item::new(WorkerId(5), 3, 0),
                Item::new(WorkerId(7), 4, 0),
            ],
            bytes: 100,
            reason: EmitReason::BufferFull,
            grouped_at_source: true,
        };
        assert_eq!(msg.distinct_dest_workers(), 3);
        assert_eq!(distinct_sorted_dest_workers::<u32>(&[]), 0);
    }
}
