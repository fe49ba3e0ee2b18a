//! The run monitor: the one place that decides how a native run ended, on
//! both native engines.  DESIGN §9.6 describes the view, the verdicts, the
//! settle window and the abort-reason precedence.
//!
//! An engine builds a [`Monitor`] before it spawns or forks anything (so
//! every worker inherits the graceful-signal mask), releases the start
//! barrier and [`Monitor::watch`]es a [`RunView`] of its workers until a
//! [`Verdict`].  Then it stops, joins or reaps, settles what only it can
//! settle, and hands its [`Books`] to [`Monitor::report`].
//!
//! `leaked_slabs` differs by engine: the process engine drains every ring
//! after reaping its children, so a slab still in flight then has no
//! consumer left and counts as leaked; a threaded watchdog abort can leave
//! envelopes in its rings, whose slabs are in flight but not lost.

use std::any::Any;
use std::time::{Duration, Instant};

use metrics::{Counters, LatencyRecorder, LatencySummary, QuantileSketch};
use runtime_api::{
    ArenaAudit, Backend, NodeDiag, ProcessExit, ResolvedRunSpec, RunDiagnostics, RunOutcome,
    RunReport,
};
use shmem::SlabAudit;
use tramlib::TramStats;

use crate::signals::SignalGuard;

/// Consecutive stable polls (~5 ms at one poll per 200 µs) that settle a
/// run with dead workers.
const DEATH_SETTLE_POLLS: u32 = 25;

/// How a gone worker left the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gone {
    /// A contained panic: the worker keeps draining its rings and keeps
    /// exact books, so it counts as done.
    Quarantined,
    /// A reaped process: its books close only in the engine's post-mortem.
    Dead,
}

/// What the monitor reads of a running engine.  A trait so that the tests
/// can drive the monitor through a fake.
pub(crate) trait RunView {
    /// The engine's own per-poll duties, run first in every poll.
    fn tick(&mut self) {}
    /// Worker `w`'s latest `local_done` (monotonic by contract).
    fn done(&self, w: usize) -> bool;
    /// Worker `w`'s progress heartbeat, bumped once per quantum.
    fn heartbeat(&self, w: usize) -> u64;
    /// Whether worker `w` left the run, and how.
    fn gone(&self, w: usize) -> Option<Gone>;
    /// The sent, delivered and dropped sums, read in that order (every
    /// drop ledger counts, the node tier's included).
    fn ledger(&self) -> (u64, u64, u64);
    /// Envelopes sitting in delivery rings.
    fn ring_occupancy(&self) -> u64;
    /// Ask every worker to stop generating, flush and report done.
    fn quiesce(&self);
}

/// How the wait for the end of a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Every worker done, conservation exact, nobody gone.
    Quiescent,
    /// The books settled, but a worker was quarantined or died.
    Settled,
    /// The wall-clock watchdog expired first.
    Watchdog,
}

/// What an engine hands the monitor after teardown: its merged results and
/// the facts only it knows.
#[derive(Default)]
pub(crate) struct Books {
    pub(crate) backend: Backend,
    pub(crate) counters: Counters,
    pub(crate) latency: Option<LatencySummary>,
    pub(crate) item_latency: LatencyRecorder,
    pub(crate) tram: TramStats,
    pub(crate) delivery_batch_len: QuantileSketch,
    pub(crate) sent: u64,
    pub(crate) delivered: u64,
    pub(crate) dropped: u64,
    /// Injected worker faults that fired (wire faults are counted from
    /// `node_reports`).
    pub(crate) faults_fired: u64,
    /// One audit per slab arena, in worker order, then one per node leader
    /// on the threaded node tier.
    pub(crate) arenas: Vec<SlabAudit>,
    /// Abort reasons of lost workers, the first one first.
    pub(crate) losses: Vec<String>,
    /// Abort reasons of threads that died outside containment.
    pub(crate) teardown_failures: Vec<String>,
    /// The abort reason of a cut inter-node link.
    pub(crate) wire_cut: Option<String>,
    pub(crate) panicked_workers: Vec<u32>,
    pub(crate) process_exits: Vec<ProcessExit>,
    pub(crate) workers_done: u32,
    pub(crate) stashed_envelopes: u64,
    pub(crate) inflight_ring_envelopes: u64,
    pub(crate) node_reports: Vec<NodeDiag>,
}

/// The watcher of one run; see the module docs.
pub(crate) struct Monitor {
    workers: usize,
    max_wall: Duration,
    /// A busy worker whose heartbeat stood still for longer is stalled.
    grace: Duration,
    signals: Option<SignalGuard>,
    start: Instant,
    run_time: Duration,
    interrupted: Option<i32>,
    last_beats: Vec<u64>,
    last_progress: Vec<Instant>,
    stalled: Vec<bool>,
    stable_polls: u32,
    last_snapshot: ((u64, u64, u64), u64),
}

impl Monitor {
    /// A monitor for `run`.  With graceful signals on it blocks SIGINT and
    /// SIGTERM now, so build it before the engine spawns or forks: every
    /// worker inherits the mask, and a ^C reaches the monitor, not a worker.
    pub(crate) fn new(run: &ResolvedRunSpec) -> Self {
        let signals = run.graceful_signals.then(SignalGuard::install).flatten();
        Self::with(run.cluster.total_workers() as usize, run.max_wall, signals)
    }

    fn with(workers: usize, max_wall: Duration, signals: Option<SignalGuard>) -> Self {
        let now = Instant::now();
        Self {
            workers,
            max_wall,
            grace: (max_wall / 8).clamp(Duration::from_millis(50), Duration::from_secs(2)),
            signals,
            start: now,
            run_time: Duration::ZERO,
            interrupted: None,
            last_beats: vec![0; workers],
            last_progress: vec![now; workers],
            stalled: vec![false; workers],
            stable_polls: 0,
            last_snapshot: ((u64::MAX, 0, 0), 0),
        }
    }

    /// Poll until a verdict, one poll every 200 µs (the period sets how
    /// late quiescence is noticed).  The run, its watchdog and its stall
    /// clocks start at `start`: the release of the start barrier.
    pub(crate) fn watch(&mut self, view: &mut impl RunView, start: Instant) -> Verdict {
        self.start = start;
        self.last_progress.fill(start);
        loop {
            let signal = match (&mut self.signals, self.interrupted) {
                (Some(guard), None) => guard.pending(),
                _ => None,
            };
            if let Some(verdict) = self.step(view, Instant::now(), signal) {
                self.run_time = self.start.elapsed();
                return verdict;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One poll at `now`: the engine's `tick`; one quiesce request for the
    /// first pending signal; the end of the run once the books settle; the
    /// watchdog past `max_wall`; the stall scan of the live workers.
    pub(crate) fn step(
        &mut self,
        view: &mut impl RunView,
        now: Instant,
        pending_signal: Option<i32>,
    ) -> Option<Verdict> {
        view.tick();
        if let (None, Some(signo)) = (self.interrupted, pending_signal) {
            self.interrupted = Some(signo);
            view.quiesce();
        }
        if let Some(verdict) = self.settled(view) {
            return Some(verdict);
        }
        if now > self.start + self.max_wall {
            return Some(Verdict::Watchdog);
        }
        for w in (0..self.workers).filter(|&w| view.gone(w) != Some(Gone::Dead)) {
            let beats = view.heartbeat(w);
            if beats != self.last_beats[w] {
                self.last_beats[w] = beats;
                self.last_progress[w] = now;
            } else if !view.done(w) && now.duration_since(self.last_progress[w]) > self.grace {
                self.stalled[w] = true;
            }
        }
        None
    }

    /// `Some` once every worker is done or gone and the books settled:
    /// exactly with nobody dead, or by standing still for
    /// [`DEATH_SETTLE_POLLS`] polls once a worker died, since a corpse's
    /// books balance only in the engine's post-mortem.
    fn settled(&mut self, view: &impl RunView) -> Option<Verdict> {
        let (mut quarantined, mut dead) = (false, false);
        for w in 0..self.workers {
            match view.gone(w) {
                Some(Gone::Quarantined) => quarantined = true,
                Some(Gone::Dead) => dead = true,
                None if !view.done(w) => {
                    self.stable_polls = 0;
                    return None;
                }
                None => {}
            }
        }
        let ledger = view.ledger();
        if !dead {
            // The double-read: an item counted delivered or dropped was
            // counted sent before, so a second sent read that still matches
            // leaves no item in between.
            let (sent, delivered, dropped) = ledger;
            let exact = view.ledger().0 == sent && delivered + dropped == sent;
            return exact.then_some(if quarantined {
                Verdict::Settled
            } else {
                Verdict::Quiescent
            });
        }
        let snapshot = (ledger, view.ring_occupancy());
        if snapshot != self.last_snapshot {
            self.stable_polls = 0;
            self.last_snapshot = snapshot;
            return None;
        }
        self.stable_polls += 1;
        (self.stable_polls >= DEATH_SETTLE_POLLS).then_some(Verdict::Settled)
    }

    /// The run's report: `books` plus the shared counters and the outcome.
    /// Only a `Quiescent` run with no lost worker, no teardown failure and
    /// no cut wire completes (`Clean`, or `Degraded` if a fault fired or a
    /// signal interrupted it); an abort's reason is the first lost worker,
    /// then the first teardown failure, then the wire cut, then the
    /// watchdog.  Restores the signal mask.
    pub(crate) fn report(self, verdict: Verdict, mut books: Books) -> RunReport {
        let arena_audits: Vec<ArenaAudit> = (0..)
            .zip(&books.arenas)
            .map(|(worker, audit)| ArenaAudit {
                worker,
                slabs: audit.slabs,
                free: audit.free,
                in_flight: audit.in_flight,
                leaked: audit.leaked,
                double_released: audit.double_released,
            })
            .collect();
        let in_flight_leaks = books.backend == Backend::Process;
        let leaked_slabs: u32 = arena_audits
            .iter()
            .map(|a| a.leaked + if in_flight_leaks { a.in_flight } else { 0 })
            .sum();
        let wire_faults: u64 = books.node_reports.iter().map(|d| d.wire_faults_fired).sum();
        let faults_injected = books.faults_fired + wire_faults;
        let counters = &mut books.counters;
        counters.add("leaked_slabs", u64::from(leaked_slabs));
        counters.add("faults_injected", faults_injected);
        counters.add("items_dropped", books.dropped);
        if let Some(signo) = self.interrupted {
            counters.add("interrupted", 1);
            counters.add("interrupted_signal", signo as u64);
        }

        let mut reasons = books
            .losses
            .into_iter()
            .chain(books.teardown_failures)
            .chain(books.wire_cut)
            .peekable();
        let outcome = if verdict == Verdict::Quiescent && reasons.peek().is_none() {
            if faults_injected == 0 && self.interrupted.is_none() {
                RunOutcome::Clean
            } else {
                RunOutcome::Degraded {
                    faults_injected: faults_injected as u32,
                }
            }
        } else {
            RunOutcome::Aborted {
                reason: reasons.next().unwrap_or_else(|| {
                    format!(
                        "watchdog: not quiescent within {:.3}s",
                        self.max_wall.as_secs_f64()
                    )
                }),
                diagnostics: RunDiagnostics {
                    panicked_workers: books.panicked_workers,
                    stalled_workers: (0..self.workers as u32)
                        .filter(|&w| self.stalled[w as usize])
                        .collect(),
                    workers_done: books.workers_done,
                    total_workers: self.workers as u32,
                    items_sent: books.sent,
                    items_delivered: books.delivered,
                    items_dropped: books.dropped,
                    stashed_envelopes: books.stashed_envelopes,
                    inflight_ring_envelopes: books.inflight_ring_envelopes,
                    arena_audits,
                    process_exits: books.process_exits,
                    node_reports: books.node_reports.clone(),
                },
            }
        };
        RunReport {
            backend: books.backend,
            total_time_ns: self.run_time.as_nanos() as u64,
            latency: books.latency,
            item_latency: books.item_latency,
            counters: books.counters,
            tram: books.tram,
            delivery_batch_len: books.delivery_batch_len,
            events_executed: 0,
            items_sent: books.sent,
            items_delivered: books.delivered,
            outcome,
            node_reports: books.node_reports,
        }
    }
}

/// Best-effort extraction of a panic payload's message (the `&str`/`String`
/// payloads `panic!` produces; anything else renders as a placeholder).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    /// A scripted engine: the monitor reads exactly what a test wrote.
    struct Fake {
        done: Vec<bool>,
        beats: Vec<u64>,
        gone: Vec<Option<Gone>>,
        sent: Cell<u64>,
        /// Every read of the sent sum sees one more item: a send racing the
        /// monitor's double-read.
        sending: bool,
        delivered: u64,
        dropped: u64,
        rings: u64,
        ticks: u32,
        quiesced: Cell<u32>,
    }

    impl Fake {
        fn new(workers: usize) -> Self {
            Self {
                done: vec![false; workers],
                beats: vec![0; workers],
                gone: vec![None; workers],
                sent: Cell::new(0),
                sending: false,
                delivered: 0,
                dropped: 0,
                rings: 0,
                ticks: 0,
                quiesced: Cell::new(0),
            }
        }

        /// Every worker done, `sent` items sent and all delivered.
        fn finished(workers: usize, sent: u64) -> Self {
            let mut fake = Self::new(workers);
            fake.done.fill(true);
            fake.sent.set(sent);
            fake.delivered = sent;
            fake
        }
    }

    impl RunView for Fake {
        fn tick(&mut self) {
            self.ticks += 1;
        }
        fn done(&self, w: usize) -> bool {
            self.done[w]
        }
        fn heartbeat(&self, w: usize) -> u64 {
            self.beats[w]
        }
        fn gone(&self, w: usize) -> Option<Gone> {
            self.gone[w]
        }
        fn ledger(&self) -> (u64, u64, u64) {
            let sent = self.sent.get();
            if self.sending {
                self.sent.set(sent + 1);
            }
            (sent, self.delivered, self.dropped)
        }
        fn ring_occupancy(&self) -> u64 {
            self.rings
        }
        fn quiesce(&self) {
            self.quiesced.set(self.quiesced.get() + 1);
        }
    }

    /// The watchdog limit of every test: an 8 s run has a 1 s stall grace.
    const MAX_WALL: Duration = Duration::from_secs(8);
    const GRACE: Duration = Duration::from_secs(1);

    /// A monitor over `workers` workers and the hand clock's zero, the
    /// instant it was built.
    fn monitor(workers: usize) -> (Monitor, Instant) {
        let monitor = Monitor::with(workers, MAX_WALL, None);
        let t0 = monitor.start;
        (monitor, t0)
    }

    /// Books of a healthy threaded run of `sent` items.
    fn books(sent: u64) -> Books {
        Books {
            sent,
            delivered: sent,
            workers_done: 2,
            ..Books::default()
        }
    }

    fn reason(report: &RunReport) -> &str {
        match &report.outcome {
            RunOutcome::Aborted { reason, .. } => reason,
            other => panic!("expected an abort, got {other:?}"),
        }
    }

    #[test]
    fn exact_conservation_ends_the_run_and_a_moving_sent_sum_does_not() {
        let (mut m, t0) = monitor(2);
        let mut fake = Fake::finished(2, 10);
        fake.delivered = 7;
        fake.dropped = 2;
        assert_eq!(m.step(&mut fake, t0, None), None, "one item unaccounted");
        fake.dropped = 3;
        fake.sending = true;
        assert_eq!(
            m.step(&mut fake, t0, None),
            None,
            "the sent sum moved between the two reads"
        );
        fake.sending = false;
        fake.sent.set(10);
        fake.done[1] = false;
        assert_eq!(m.step(&mut fake, t0, None), None, "worker 1 is not done");
        fake.done[1] = true;
        assert_eq!(m.step(&mut fake, t0, None), Some(Verdict::Quiescent));
        assert_eq!(fake.ticks, 4, "the engine's duties run every poll");
    }

    #[test]
    fn a_quarantined_worker_counts_as_done_and_ends_settled() {
        let (mut m, t0) = monitor(3);
        let mut fake = Fake::finished(3, 12);
        fake.done[2] = false;
        assert_eq!(m.step(&mut fake, t0, None), None);
        fake.gone[2] = Some(Gone::Quarantined);
        fake.delivered = 9;
        fake.dropped = 3;
        assert_eq!(m.step(&mut fake, t0, None), Some(Verdict::Settled));
    }

    #[test]
    fn a_dead_worker_settles_after_a_window_that_a_moving_snapshot_resets() {
        let (mut m, t0) = monitor(2);
        // The corpse's items are not charged until the post-mortem: the
        // books do not balance, so only stillness can end the run.
        let mut fake = Fake::finished(2, 10);
        fake.delivered = 6;
        fake.done[1] = false;
        fake.gone[1] = Some(Gone::Dead);
        // The first poll takes the snapshot; DEATH_SETTLE_POLLS more must
        // find it unchanged.
        for poll in 0..DEATH_SETTLE_POLLS {
            assert_eq!(m.step(&mut fake, t0, None), None, "poll {poll}");
        }
        fake.rings = 1;
        for poll in 0..DEATH_SETTLE_POLLS {
            assert_eq!(
                m.step(&mut fake, t0, None),
                None,
                "poll {poll} after the move"
            );
        }
        assert_eq!(m.step(&mut fake, t0, None), Some(Verdict::Settled));

        // A survivor that is not done keeps the window shut and resets it.
        let (mut m, t0) = monitor(3);
        let mut fake = Fake::finished(3, 10);
        fake.gone[1] = Some(Gone::Dead);
        for _ in 0..DEATH_SETTLE_POLLS {
            assert_eq!(m.step(&mut fake, t0, None), None);
        }
        fake.done[2] = false;
        assert_eq!(m.step(&mut fake, t0, None), None);
        // The snapshot itself did not move: the window restarts from it.
        fake.done[2] = true;
        for _ in 1..DEATH_SETTLE_POLLS {
            assert_eq!(m.step(&mut fake, t0, None), None);
        }
        assert_eq!(
            m.step(&mut fake, t0, None),
            Some(Verdict::Settled),
            "balanced books wait out the window too once a worker died"
        );
    }

    #[test]
    fn the_watchdog_fires_strictly_after_its_deadline() {
        let (mut m, t0) = monitor(1);
        let mut fake = Fake::new(1);
        assert_eq!(m.step(&mut fake, t0 + MAX_WALL, None), None);
        let late = t0 + MAX_WALL + Duration::from_nanos(1);
        assert_eq!(m.step(&mut fake, late, None), Some(Verdict::Watchdog));
        let report = m.report(Verdict::Watchdog, books(0));
        assert_eq!(reason(&report), "watchdog: not quiescent within 8.000s");
    }

    #[test]
    fn a_frozen_heartbeat_marks_a_busy_worker_stalled_but_not_a_done_one() {
        // Worker 0 is busy and frozen, 1 is done and frozen, 2 is busy and
        // beating, 3 is dead and frozen.
        let (mut m, t0) = monitor(4);
        let mut fake = Fake::new(4);
        fake.done[1] = true;
        fake.gone[3] = Some(Gone::Dead);
        fake.beats[2] = 1;
        assert_eq!(m.step(&mut fake, t0 + GRACE, None), None);
        assert_eq!(m.stalled, [false; 4], "a stall needs more than the grace");
        fake.beats[2] = 2;
        assert_eq!(
            m.step(&mut fake, t0 + GRACE + Duration::from_millis(1), None),
            None
        );
        assert_eq!(m.stalled, [true, false, false, false]);
        let report = m.report(Verdict::Watchdog, books(0));
        let diagnostics = report.outcome.diagnostics().expect("an abort");
        assert_eq!(diagnostics.stalled_workers, vec![0]);
        assert_eq!(diagnostics.total_workers, 4);
    }

    #[test]
    fn a_pending_signal_quiesces_exactly_once_and_is_recorded() {
        let (mut m, t0) = monitor(2);
        let mut fake = Fake::new(2);
        assert_eq!(m.step(&mut fake, t0, Some(2)), None);
        assert_eq!(fake.quiesced.get(), 1);
        assert_eq!(m.step(&mut fake, t0, Some(15)), None);
        assert_eq!(m.step(&mut fake, t0, None), None);
        assert_eq!(fake.quiesced.get(), 1, "one quiesce request per run");
        let mut fake = Fake::finished(2, 5);
        assert_eq!(m.step(&mut fake, t0, None), Some(Verdict::Quiescent));
        let report = m.report(Verdict::Quiescent, books(5));
        assert_eq!(report.outcome, RunOutcome::Degraded { faults_injected: 0 });
        assert_eq!(report.counter("interrupted"), 1);
        assert_eq!(report.counter("interrupted_signal"), 2, "the first signal");
    }

    #[test]
    fn clean_degraded_and_the_abort_reason_precedence() {
        let report = |verdict, books| monitor(2).0.report(verdict, books);
        let clean = report(Verdict::Quiescent, books(5));
        assert_eq!(clean.outcome, RunOutcome::Clean);
        assert_eq!(clean.counter("faults_injected"), 0);

        let mut faulted = books(5);
        faulted.faults_fired = 1;
        faulted.node_reports = vec![NodeDiag {
            wire_faults_fired: 2,
            ..NodeDiag::default()
        }];
        let degraded = report(Verdict::Quiescent, faulted);
        assert_eq!(
            degraded.outcome,
            RunOutcome::Degraded { faults_injected: 3 }
        );
        assert_eq!(degraded.counter("faults_injected"), 3);

        // The first of `causes` present is the reason, whatever the verdict:
        // a loss, a teardown failure, a wire cut, then the watchdog.
        let causes = [
            "worker 1 panicked: a",
            "node 0 leader thread died: b",
            "wire disconnect: node 1 link cut",
            "watchdog: not quiescent within 8.000s",
        ];
        let aborting = |first: usize| {
            let mut books = books(5);
            if first == 0 {
                books.losses = vec![causes[0].into(), "worker 3 panicked: c".into()];
            }
            if first <= 1 {
                books.teardown_failures = vec![causes[1].into()];
            }
            if first <= 2 {
                books.wire_cut = Some(causes[2].into());
            }
            books
        };
        for verdict in [Verdict::Quiescent, Verdict::Settled, Verdict::Watchdog] {
            for (first, cause) in causes.iter().enumerate() {
                if verdict == Verdict::Quiescent && first == 3 {
                    continue;
                }
                assert_eq!(
                    reason(&report(verdict, aborting(first))),
                    *cause,
                    "{verdict:?}"
                );
            }
        }
        // A settled run always names its loss; without one it reads as the
        // watchdog's.
        assert_eq!(
            reason(&report(Verdict::Settled, books(5))),
            "watchdog: not quiescent within 8.000s"
        );
    }

    #[test]
    fn leaked_slabs_count_in_flight_slabs_only_after_a_post_mortem_drain() {
        let audit = SlabAudit {
            slabs: 8,
            free: 5,
            in_flight: 2,
            leaked: 1,
            double_released: 0,
        };
        for (backend, leaked) in [(Backend::Native, 1), (Backend::Process, 3)] {
            let mut books = books(0);
            books.backend = backend;
            books.arenas = vec![SlabAudit::default(), audit];
            let report = monitor(2).0.report(Verdict::Watchdog, books);
            assert_eq!(report.counter("leaked_slabs"), leaked, "{backend:?}");
            let audits = &report.outcome.diagnostics().expect("an abort").arena_audits;
            assert_eq!(audits[1].worker, 1);
            assert_eq!(
                (audits[1].free, audits[1].in_flight, audits[1].leaked),
                (5, 2, 1)
            );
        }
    }
}
