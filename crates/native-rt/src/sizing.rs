//! Queue and buffer sizing, written once for both native engines.
//!
//! The threaded engine ([`crate::run_threaded`]) and the process engine
//! ([`crate::run_process`]) build the same resources from the same rules:
//! per-pair delivery rings, per-worker slab arenas, an inbox budget per
//! scheduling quantum and a stash limit that pauses generation; the threaded
//! engine's node tier adds one arena per node leader and sizes its
//! worker↔leader rings like the mesh.  None of them is a user option; every
//! size follows from the scheme and the topology.  `docs/DESIGN.md` §6
//! tabulates them with the node tier's fixed sizes.

use tramlib::{Scheme, TramConfig};

/// Max envelopes drained from one source ring per scheduling quantum, so a
/// single hot source cannot starve the others.  Also a term of the arena
/// sizing: a consumer can hold this many popped envelopes (slabs among them)
/// mid-processing.
pub(crate) const INBOX_BUDGET: usize = 128;

/// Generation backpressure: once this many envelopes sit in a worker's
/// overflow stash, the worker stops calling `on_idle` (generating new work)
/// until the stash drains below the limit again.  Draining inboxes, flushing
/// and retrying the stash continue untouched — only *new* production pauses,
/// so the mesh stays deadlock-free while a burst can no longer run
/// arbitrarily far ahead of descheduled consumers (which is what used to
/// grow stashes without bound and dry out the slab arena).
pub(crate) const STASH_THROTTLE: usize = 128;

/// Whether `scheme` ships its messages as slabs of per-worker arenas: every
/// scheme that aggregates.  Each message — an aggregator buffer, a drained
/// PP claim buffer, a local-bypass batch — is filled privately and copied
/// into one slab when it ships.  NoAgg ships inline singles, as does every
/// arena-miss fallback.
pub(crate) fn uses_arena(scheme: Scheme) -> bool {
    scheme != Scheme::NoAgg
}

/// The per-pair delivery ring capacity (in envelopes) for `scheme` on
/// `workers` worker PEs — also the depth of every uplink and downlink
/// between a worker and its node leader.
///
/// Arena rings are shallow: every envelope is a whole sealed buffer (`g`
/// items), so a few dozen slots per pair already buffer tens of thousands of
/// items — and every occupied slot pins one slab of the sender's bounded
/// arena, so ring depth directly sets the arena headroom a sender needs to
/// stay zero-miss.  About 2048 slots per sender, clamped to `[8, 128]` per
/// pair.
///
/// NoAgg ships one envelope per item (that is the scheme), so its rings hold
/// `2 × max(64, 4096 / workers)` per pair — total ring memory stays flat as
/// the cluster grows, and a sender can outrun a descheduled consumer by
/// thousands of envelopes, but not unboundedly so: ring slots are the
/// working set, and a mesh bigger than the cache turns every push into a
/// miss.  The overflow stash (sender-local, contiguous, cache-warm) absorbs
/// what the rings cannot.
pub(crate) fn ring_capacity(scheme: Scheme, workers: usize) -> usize {
    #[cfg(test)]
    if let Some(capacity) = test_ring::get() {
        return capacity;
    }
    let workers = workers.max(1);
    if uses_arena(scheme) {
        (2048 / workers).clamp(8, 128)
    } else {
        (4096 / workers).max(64) * 2
    }
}

/// The per-worker arena size (in slabs) for `tram` on `workers` worker PEs.
///
/// Budget the demand sources rather than guess at steady-state behaviour.  A
/// sender's slabs in flight live in (a) one slab per destination slot —
/// headroom only, since a slab is claimed when its message ships and no
/// destination holds one while its items are buffered — (b) the slots of its outgoing rings (`workers × ring_capacity`),
/// (c) envelopes a consumer has popped but not yet finished (bounded per
/// quantum by [`INBOX_BUDGET`]), and (d) the sender-side stash, whose growth
/// [`STASH_THROTTLE`] caps (handler-generated sends can overshoot it, which
/// the multiplier absorbs).  On the node tier a worker's cross-node messages
/// take slabs too, on its uplink (a ring as deep as a mesh ring) and its wire
/// stash; (b) already covers the uplink, because the worker's mesh rows
/// toward workers on other nodes are never used — that traffic leaves
/// through the uplink — and (d) covers the wire stash, which the same
/// throttle caps.  The bound is deliberately generous — arena
/// memory is cheap next to rings — and when a pathological schedule still
/// runs the arena dry, messages fall back to inline singles: a throughput
/// dip recorded in the `arena_claim_misses` counter, never a stall or a
/// loss.
pub(crate) fn arena_slabs(tram: &TramConfig, workers: usize) -> usize {
    let dests = match tram.scheme {
        Scheme::WW => workers,
        _ => tram.topology.total_procs() as usize,
    };
    dests + workers * ring_capacity(tram.scheme, workers) + INBOX_BUDGET + 4 * STASH_THROTTLE
}

/// The arena size (in slabs of `buffer_items` items) of one node leader on
/// the node tier, or `None` under NoAgg, whose downlinks carry inline
/// singles.
///
/// A leader copies what it received for a local worker into slabs of its own
/// arena and ships them on that worker's downlink.  Each of those slabs sits
/// in the downlink (a ring of [`ring_capacity`] slots) or among the
/// envelopes the worker has popped and not yet finished (at most
/// [`INBOX_BUDGET`]), so `local workers × (ring depth + INBOX_BUDGET)` slabs
/// never run dry.  Were the arena dry anyway, the items would wait in the
/// leader's queue for a release — backpressure, never singles.
pub(crate) fn leader_arena_slabs(tram: &TramConfig) -> Option<usize> {
    let topo = tram.topology;
    let depth = ring_capacity(tram.scheme, topo.total_workers() as usize);
    uses_arena(tram.scheme).then(|| topo.workers_per_node() as usize * (depth + INBOX_BUDGET))
}

/// A per-thread ring-capacity override for tests that need constant
/// backpressure (capacity 1 overflows almost every push into the stash).
/// Both engines resolve their sizes on the calling thread before spawning
/// or forking workers, so the override reaches exactly the run it wraps.
#[cfg(test)]
pub(crate) mod test_ring {
    use std::cell::Cell;

    thread_local! {
        static CAPACITY: Cell<Option<usize>> = const { Cell::new(None) };
    }

    pub(super) fn get() -> Option<usize> {
        CAPACITY.with(Cell::get)
    }

    /// Run `f` with every ring `capacity` envelopes deep.
    pub(crate) fn with_capacity<R>(capacity: usize, f: impl FnOnce() -> R) -> R {
        let previous = CAPACITY.with(|c| c.replace(Some(capacity)));
        let result = f();
        CAPACITY.with(|c| c.set(previous));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::Topology;

    #[test]
    fn ring_depth_scales_down_with_workers() {
        // (scheme, workers, ring depth): arena rings keep ~2048 slots per
        // sender clamped to [8, 128] per pair; NoAgg's inline rings keep
        // twice 4096 with a 64 floor.  Both engines call this rule.
        let table = [
            (Scheme::WW, 2, 128),
            (Scheme::WPs, 8, 128),
            (Scheme::WsP, 64, 32),
            (Scheme::WW, 1024, 8),
            (Scheme::PP, 2, 128),
            (Scheme::PP, 8, 128),
            (Scheme::PP, 16, 128),
            (Scheme::PP, 64, 32),
            (Scheme::PP, 1024, 8),
            (Scheme::NoAgg, 2, 4096),
            (Scheme::NoAgg, 8, 1024),
            (Scheme::NoAgg, 1024, 128),
        ];
        for (scheme, workers, depth) in table {
            assert_eq!(
                ring_capacity(scheme, workers),
                depth,
                "{scheme} × {workers}"
            );
        }
    }

    #[test]
    fn benchmark_cells_resolve_the_same_sizes() {
        // Every (scheme, cluster) the repo benchmark runs, with the ring
        // depth, worker-arena and leader-arena slab counts its recorded
        // baselines were measured on — changing one moves those baselines:
        // two workers in one process (threaded and forked cells alike) and
        // two single-worker nodes (the wire cells, whose leaders have an
        // arena each).
        let one_proc = Topology::smp(1, 1, 2);
        let two_nodes = Topology::smp(2, 1, 1);
        let cells = [
            (Scheme::WPs, one_proc, 128, Some(897), None),
            (Scheme::WW, one_proc, 128, Some(898), None),
            (Scheme::WsP, one_proc, 128, Some(897), None),
            (Scheme::WPs, two_nodes, 128, Some(898), Some(256)),
            (Scheme::PP, one_proc, 128, Some(897), None),
            (Scheme::NoAgg, one_proc, 4096, None, None),
        ];
        for (scheme, topo, depth, slabs, leader) in cells {
            let workers = topo.total_workers() as usize;
            assert_eq!(ring_capacity(scheme, workers), depth, "{scheme}");
            assert_eq!(uses_arena(scheme), slabs.is_some(), "{scheme}");
            let tram = TramConfig::new(scheme, topo);
            if let Some(slabs) = slabs {
                assert_eq!(arena_slabs(&tram, workers), slabs, "{scheme}");
            }
            if topo.nodes() > 1 {
                assert_eq!(leader_arena_slabs(&tram), leader, "{scheme}");
            }
        }
        // NoAgg's leaders ship singles and keep no arena.
        let noagg = TramConfig::new(Scheme::NoAgg, two_nodes);
        assert_eq!(leader_arena_slabs(&noagg), None);
    }
}
