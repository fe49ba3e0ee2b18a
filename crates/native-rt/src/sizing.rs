//! Queue and buffer sizing, written once for both native engines.
//!
//! The threaded engine ([`crate::run_threaded`]) and the process engine
//! ([`crate::run_process`]) build the same resources from the same rules:
//! per-pair delivery rings, per-worker slab arenas, an inbox budget per
//! scheduling quantum and a stash limit that pauses generation.  None of
//! them is a user option; every size follows from the scheme and the worker
//! count.  `docs/DESIGN.md` §6 tabulates them with the node tier's fixed
//! sizes.

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

/// Whether `scheme` seals its messages into per-worker slab arenas: the
/// schemes whose aggregation runs in a worker-owned aggregator.  PP
/// (process-shared claim buffers) and NoAgg (inline single items) use the
/// heap-vector path, as does every arena-miss fallback.
pub(crate) fn uses_arena(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::WW | Scheme::WPs | Scheme::WsP)
}

/// The per-pair delivery ring capacity (in envelopes) for `scheme` on
/// `workers` worker PEs.
///
/// Arena rings are shallow: every envelope is a whole sealed buffer (`g`
/// items), so a few dozen slots per pair already buffer tens of thousands of
/// items — and every occupied slot pins one slab of the sender's bounded
/// arena, so ring depth directly sets the arena headroom a sender needs to
/// stay zero-miss.  About 2048 slots per sender, clamped to `[8, 128]` per
/// pair.
///
/// Vector rings (PP) hold `max(64, 4096 / workers)` per pair, so total ring
/// memory stays flat as the cluster grows.  NoAgg ships one envelope per item
/// (that is the scheme), so its rings are twice as deep — a sender can
/// outrun a descheduled consumer by thousands of envelopes — but not
/// unboundedly so: ring slots are the working set, and a mesh bigger than
/// the cache turns every push into a miss.  The overflow stash (sender-local,
/// contiguous, cache-warm) absorbs what the rings cannot.
pub(crate) fn ring_capacity(scheme: Scheme, workers: usize) -> usize {
    #[cfg(test)]
    if let Some(capacity) = test_ring::get() {
        return capacity;
    }
    let workers = workers.max(1);
    if uses_arena(scheme) {
        return (2048 / workers).clamp(8, 128);
    }
    let base = (4096 / workers).max(64);
    if scheme == Scheme::NoAgg {
        base * 2
    } else {
        base
    }
}

/// The per-worker arena size (in slabs) for `tram` on `workers` worker PEs.
///
/// Budget the demand sources rather than guess at steady-state behaviour.  A
/// sender's slabs in flight live in (a) one mid-fill slab per destination
/// slot, (b) the slots of its outgoing rings (`workers × ring_capacity`),
/// (c) envelopes a consumer has popped but not yet finished (bounded per
/// quantum by [`INBOX_BUDGET`]), and (d) the sender-side stash, whose growth
/// [`STASH_THROTTLE`] caps (handler-generated sends can overshoot it, which
/// the multiplier absorbs).  The bound is deliberately generous — arena
/// memory is cheap next to rings — and when a pathological schedule still
/// runs the arena dry, inserts fall back to pooled heap vectors: a
/// throughput dip recorded in the `arena_claim_misses` counter, never a
/// stall or a loss.
pub(crate) fn arena_slabs(tram: &TramConfig, workers: usize) -> usize {
    let dests = match tram.scheme {
        Scheme::WW => workers,
        _ => tram.topology.total_procs() as usize,
    };
    dests + workers * ring_capacity(tram.scheme, workers) + INBOX_BUDGET + 4 * STASH_THROTTLE
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
        // sender clamped to [8, 128] per pair; vector rings keep 4096 with a
        // 64 floor; NoAgg's are twice as deep.  Both engines call this rule.
        let table = [
            (Scheme::WW, 2, 128),
            (Scheme::WPs, 8, 128),
            (Scheme::WsP, 64, 32),
            (Scheme::WW, 1024, 8),
            (Scheme::PP, 2, 2048),
            (Scheme::PP, 8, 512),
            (Scheme::PP, 16, 256),
            (Scheme::PP, 64, 64),
            (Scheme::PP, 1024, 64),
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
        // depth and slab count its recorded baselines were measured on —
        // changing one moves those baselines: two workers in one process
        // (threaded and forked cells alike) and two single-worker nodes
        // (the wire cells).
        let one_proc = Topology::smp(1, 1, 2);
        let two_nodes = Topology::smp(2, 1, 1);
        let cells = [
            (Scheme::WPs, one_proc, 128, Some(897)),
            (Scheme::WW, one_proc, 128, Some(898)),
            (Scheme::WsP, one_proc, 128, Some(897)),
            (Scheme::WPs, two_nodes, 128, Some(898)),
            (Scheme::PP, one_proc, 2048, None),
            (Scheme::NoAgg, one_proc, 4096, None),
        ];
        for (scheme, topo, depth, slabs) in cells {
            let workers = topo.total_workers() as usize;
            assert_eq!(ring_capacity(scheme, workers), depth, "{scheme}");
            assert_eq!(uses_arena(scheme), slabs.is_some(), "{scheme}");
            if let Some(slabs) = slabs {
                let tram = TramConfig::new(scheme, topo);
                assert_eq!(arena_slabs(&tram, workers), slabs, "{scheme}");
            }
        }
    }
}
