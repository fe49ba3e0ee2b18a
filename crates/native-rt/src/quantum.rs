//! The self-clocked flush: when a *partial* aggregation buffer ships, decided
//! from what a worker's scheduling loop can observe instead of from a timer
//! or from the application's word.
//!
//! A **scheduling quantum** is one iteration of a worker loop (`mesh_loop`,
//! the process engine's `child_loop`).  A quantum is **quiet** when it popped
//! no envelope, moved no stash and the application sent nothing — whatever
//! `on_idle` returned: an open-loop app reports work for as long as its
//! schedule is live, precisely so that it is not put to sleep, and is quiet
//! almost all of the time.  On a quiet quantum, under
//! [`tramlib::FlushPolicy::on_idle`], each non-empty per-destination buffer
//! ships iff its lane is drained ([`lane_drained`]); otherwise it keeps
//! filling until it is full, times out, or the consumer catches up.
//!
//! Both engines run this one rule: their loops report each quantum to a
//! [`QuietTracker`], their contexts implement [`SelfClocked`].

/// What the self-clocked flush needs from an engine's worker context.
pub(crate) trait SelfClocked {
    /// Monotone count of items the application has handed to `send`.
    fn items_sent(&self) -> u64;

    /// A quiet quantum under `FlushPolicy::on_idle`: ship every non-empty
    /// aggregation buffer whose lane toward its receiver is drained.  `first`
    /// marks the first quiet quantum after a non-quiet one — the only one on
    /// which process-shared (PP) buffers may start a flush, so an idle worker
    /// does not keep seal-flushing the buffers its siblings are filling.
    fn flush_quiet(&mut self, first: bool);
}

/// Nagle's rule on one SPSC lane: ship a partial buffer at once when nothing
/// of ours is still `unconsumed` in the ring toward its receiver and nothing
/// is `stashed` behind that ring; otherwise the consumer is behind and the
/// buffer may as well keep aggregating until it catches up.
pub(crate) fn lane_drained(unconsumed: usize, stashed: usize) -> bool {
    unconsumed == 0 && stashed == 0
}

/// Per-loop memory of the quiet rule: the send count at the last quantum
/// boundary and whether the last quantum was quiet.
pub(crate) struct QuietTracker {
    /// `FlushPolicy::on_idle`; without it a quantum end costs this one branch.
    enabled: bool,
    sent_mark: u64,
    was_quiet: bool,
}

impl QuietTracker {
    pub(crate) fn new(on_idle: bool) -> Self {
        Self {
            enabled: on_idle,
            sent_mark: 0,
            // The quantum before the first one did not exist, so a quiet
            // first quantum is a first quiet quantum.
            was_quiet: false,
        }
    }

    /// Close one quantum: `moved` says whether the loop popped an envelope or
    /// moved a stash in it.  Runs the flush if the quantum was quiet.
    pub(crate) fn end_quantum(&mut self, ctx: &mut impl SelfClocked, moved: bool) {
        if !self.enabled {
            return;
        }
        let sent = ctx.items_sent();
        let quiet = !moved && sent == self.sent_mark;
        self.sent_mark = sent;
        if quiet {
            ctx.flush_quiet(!self.was_quiet);
        }
        self.was_quiet = quiet;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Probe {
        sent: u64,
        flushes: Vec<bool>,
    }

    impl SelfClocked for Probe {
        fn items_sent(&self) -> u64 {
            self.sent
        }
        fn flush_quiet(&mut self, first: bool) {
            self.flushes.push(first);
        }
    }

    #[test]
    fn a_quantum_that_moved_or_sent_is_not_quiet() {
        let mut probe = Probe::default();
        let mut tracker = QuietTracker::new(true);
        tracker.end_quantum(&mut probe, true);
        probe.sent += 3;
        tracker.end_quantum(&mut probe, false);
        assert!(probe.flushes.is_empty());
        // Nothing popped, nothing sent: quiet, and the first such quantum.
        tracker.end_quantum(&mut probe, false);
        tracker.end_quantum(&mut probe, false);
        assert_eq!(probe.flushes, [true, false]);
        // Activity re-arms the edge.
        probe.sent += 1;
        tracker.end_quantum(&mut probe, false);
        tracker.end_quantum(&mut probe, false);
        assert_eq!(probe.flushes, [true, false, true]);
    }

    #[test]
    fn without_the_on_idle_policy_nothing_ever_flushes() {
        let mut probe = Probe::default();
        let mut tracker = QuietTracker::new(false);
        tracker.end_quantum(&mut probe, false);
        tracker.end_quantum(&mut probe, false);
        assert!(probe.flushes.is_empty());
    }

    #[test]
    fn a_lane_is_drained_only_with_an_empty_ring_and_an_empty_stash() {
        assert!(lane_drained(0, 0));
        assert!(!lane_drained(1, 0));
        assert!(!lane_drained(0, 1));
    }
}
