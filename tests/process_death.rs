//! Crash-robustness of the multi-process backend under *real* process death.
//!
//! Everything the threaded fault suite proves with caught panics is proven
//! here the hard way: workers are forked OS processes, a `kill` fault is a
//! real `SIGKILL` from the supervisor, and the dead worker releases nothing
//! on its way out.  The invariants under test:
//!
//! * a killed run terminates (no wedged survivors) and reports `Aborted`
//!   with a reason naming the victim and its signal;
//! * item conservation holds exactly after settlement:
//!   `sent == delivered + dropped`;
//! * every slab the dead worker held is reclaimed (`leaked_slabs == 0`);
//! * SIGINT/SIGTERM with `graceful_signals` quiesces into `Degraded`
//!   instead of killing the run, on both native backends;
//! * orphaned segment markers from dead supervisors are swept at startup,
//!   and unrecognisable markers make startup refuse rather than guess.
//!
//! `harness = false`: fork without exec needs a single-threaded parent, so
//! the cases run sequentially from `main` (see tests/common/mod.rs).

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use smp_aggregation::prelude::*;

fn seg_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smp-aggr-death-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create private segment dir");
    // Safe: this suite is single-threaded whenever no run is in flight.
    std::env::set_var(shmem::segment::MARKER_DIR_ENV, &dir);
    dir
}

/// 1 node x 2 processes x 4 workers: big enough for cross-process traffic
/// under every scheme, small enough to fork cheaply.
fn cluster() -> ClusterSpec {
    ClusterSpec::smp(1, 2, 4)
}

fn killed_run(scheme: Scheme, victim: u32, at_items: u64, seed: u64) -> RunReport {
    RunSpec::for_app(
        HistogramConfig::new(cluster(), scheme)
            .with_updates(20_000)
            .with_seed(seed),
    )
    .backend(Backend::Process)
    .buffer(64)
    .faults(FaultPlan::seeded(seed).kill_at_items(victim, at_items))
    .max_wall(Duration::from_secs(30))
    .run()
}

fn assert_conserved_and_reclaimed(report: &RunReport, label: &str) {
    assert_eq!(
        report.items_sent,
        report.items_delivered + report.counter("items_dropped"),
        "{label}: conservation violated after settlement"
    );
    assert_eq!(
        report.counter("leaked_slabs"),
        0,
        "{label}: dead worker leaked slab storage"
    );
}

fn sigkill_aborts_with_victims_signal(scheme: Scheme) {
    let victim = 3u32;
    let report = killed_run(scheme, victim, 1_000, 11);
    let RunOutcome::Aborted {
        reason,
        diagnostics,
    } = &report.outcome
    else {
        panic!(
            "{scheme}: SIGKILL mid-run must abort, got {}",
            report.outcome.signature()
        );
    };
    assert!(
        reason.contains("killed by signal 9 (SIGKILL)"),
        "{scheme}: abort reason must name the victim's signal, got: {reason}"
    );
    assert!(
        reason.contains(&format!("worker {victim}")),
        "{scheme}: abort reason must name the victim, got: {reason}"
    );
    let exit = diagnostics
        .process_exits
        .first()
        .expect("an abnormal exit must be recorded");
    assert_eq!(exit.worker, victim);
    assert!(exit.pid > 0, "{scheme}: exit must carry the real pid");
    assert_eq!(report.counter("fault_kill"), 1, "{scheme}");
    assert!(report.counter("faults_injected") >= 1, "{scheme}");
    assert!(
        report.counter("items_dropped") > 0,
        "{scheme}: traffic addressed to the corpse must be charged as drops"
    );
    assert_conserved_and_reclaimed(&report, scheme.label());
    assert_eq!(
        diagnostics.leaked_slabs(),
        0,
        "{scheme}: post-settlement audit must balance"
    );
}

fn sigkill_ww_aborts_and_reclaims() {
    sigkill_aborts_with_victims_signal(Scheme::WW);
}

fn sigkill_pp_aborts_and_reclaims() {
    sigkill_aborts_with_victims_signal(Scheme::PP);
}

fn sigkill_with_bypass_staging_settles_exactly() {
    // One process, default config: every item a worker sends sits in its
    // private local-bypass staging buffers until the quantum ends and then
    // rides a slab of its arena.  A SIGKILL strands both; settlement must
    // still close the ledger and take every slab back.  (The bypass moves
    // tens of millions of items a second: the run must be long enough for
    // the supervisor's kill to land inside it.)
    let dir = seg_dir("bypass");
    let report = RunSpec::for_app(
        HistogramConfig::new(ClusterSpec::smp(1, 1, 4), Scheme::WPs)
            .with_updates(1_000_000)
            .with_seed(13),
    )
    .backend(Backend::Process)
    .buffer(64)
    .faults(FaultPlan::seeded(13).kill_at_items(2, 1_000))
    .max_wall(Duration::from_secs(30))
    .run();
    assert!(
        matches!(report.outcome, RunOutcome::Aborted { .. }),
        "kill must abort, got {}",
        report.outcome.signature()
    );
    assert!(
        report.counter("local_batches") > 0,
        "the bypass must have shipped batches before the kill"
    );
    assert_eq!(report.counter("wire_items"), 0, "all traffic is local");
    assert!(report.counter("items_dropped") > 0);
    assert_conserved_and_reclaimed(&report, "bypass/WPs");
    let sweep = shmem::segment::scan_orphans(&dir).expect("scan the run's marker dir");
    assert_eq!(
        sweep,
        shmem::segment::OrphanSweep::default(),
        "an aborted run must leave no segment marker behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
    seg_dir("default");
}

fn randomized_sigkill_stress_conserves_across_schemes() {
    // Sweep victim, trigger point and scheme; whatever the dead worker held
    // (private buffers, sealed slabs in flight, claim-buffer slots, the PP
    // drain lock itself), the books must balance and the arenas come back.
    for seed in 1..=5u64 {
        let scheme = Scheme::ALL[(seed as usize) % Scheme::ALL.len()];
        let victim = (seed * 3 + 1) as u32 % cluster().total_workers();
        let at_items = 200 + seed * 311;
        let report = killed_run(scheme, victim, at_items, seed);
        assert!(
            matches!(report.outcome, RunOutcome::Aborted { .. }),
            "{scheme}/seed {seed}: kill must abort, got {}",
            report.outcome.signature()
        );
        assert_conserved_and_reclaimed(&report, &format!("{scheme}/seed {seed}"));
    }
}

fn panic_fault_crosses_the_process_boundary() {
    // A child panic becomes exit code 101 plus a serialized message in the
    // result region; the supervisor must surface both in the abort reason.
    let report = RunSpec::for_app(
        HistogramConfig::new(cluster(), Scheme::WPs)
            .with_updates(20_000)
            .with_seed(5),
    )
    .backend(Backend::Process)
    .buffer(64)
    .faults(FaultPlan::seeded(5).panic_at_items(2, 1_000))
    .max_wall(Duration::from_secs(30))
    .run();
    let RunOutcome::Aborted { reason, .. } = &report.outcome else {
        panic!("child panic must abort, got {}", report.outcome.signature());
    };
    assert!(
        reason.contains("exited with code 101") && reason.contains("injected fault"),
        "abort reason must carry the child's panic message, got: {reason}"
    );
    assert_conserved_and_reclaimed(&report, "panic/WPs");
}

/// A load with no natural end: each worker keeps generating round-robin
/// traffic until the run is quiesced from outside.  `on_idle` stops being
/// called once quiesce is requested, so a delivered signal is the only exit.
struct Firehose {
    sent: u64,
}

impl WorkerApp for Firehose {
    fn on_item(&mut self, _item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        ctx.counter("firehose_received", 1);
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        let total = u64::from(ctx.total_workers());
        for _ in 0..64 {
            let dest = WorkerId(((u64::from(ctx.my_id().0) + 1 + self.sent) % total) as u32);
            ctx.send(dest, Payload::new(self.sent, 1));
            self.sent += 1;
        }
        ctx.flush();
        true
    }

    fn local_done(&self) -> bool {
        false
    }
}

/// Deliver `signal` to this (supervisor) process in ~300ms, from a grandchild
/// shell so no extra thread exists in the test process while backends fork.
fn send_signal_soon(signal: &str) -> std::process::Child {
    std::process::Command::new("sh")
        .arg("-c")
        .arg(format!(
            "sleep 0.3; kill -{signal} {} 2>/dev/null",
            std::process::id()
        ))
        .spawn()
        .expect("spawn signal sender")
}

fn assert_interrupted(report: &RunReport, signal: u64, label: &str) {
    assert!(
        matches!(report.outcome, RunOutcome::Degraded { .. }),
        "{label}: a signalled quiesce must degrade, not abort; got {}",
        report.outcome.signature()
    );
    assert_eq!(report.counter("interrupted"), 1, "{label}");
    assert_eq!(report.counter("interrupted_signal"), signal, "{label}");
    assert!(
        report.items_delivered > 0,
        "{label}: the run must have made progress before the signal"
    );
    assert_eq!(
        report.items_sent,
        report.items_delivered + report.counter("items_dropped"),
        "{label}: quiesce must drain to exact conservation"
    );
}

fn sigint_quiesces_process_backend_to_degraded() {
    let tram = TramConfig::new(Scheme::WW, cluster().topology()).with_buffer_items(64);
    let config = ProcessBackendConfig::new(tram)
        .with_seed(3)
        .with_graceful_signals(true)
        .with_max_wall(Duration::from_secs(30));
    let mut killer = send_signal_soon("INT");
    let report = run_process(config, |_| Box::new(Firehose { sent: 0 }));
    let _ = killer.wait();
    assert_interrupted(&report, 2, "process/SIGINT");
}

fn sigterm_quiesces_threaded_backend_to_degraded() {
    let tram = TramConfig::new(Scheme::WW, cluster().topology()).with_buffer_items(64);
    let config = NativeBackendConfig::new(tram)
        .with_seed(3)
        .with_graceful_signals(true)
        .with_max_wall(Duration::from_secs(30));
    let mut killer = send_signal_soon("TERM");
    let report = run_threaded(config, |_| Box::new(Firehose { sent: 0 }));
    let _ = killer.wait();
    assert_interrupted(&report, 15, "threaded/SIGTERM");
}

fn small_process_run(seed: u64) -> RunReport {
    RunSpec::for_app(
        HistogramConfig::new(cluster(), Scheme::WW)
            .with_updates(500)
            .with_seed(seed),
    )
    .backend(Backend::Process)
    .buffer(32)
    .max_wall(Duration::from_secs(30))
    .run()
}

fn orphan_marker_from_dead_supervisor_is_reclaimed() {
    let dir = seg_dir("orphan");
    // Manufacture a dead pid that provably existed: a reaped child's.
    let mut probe = std::process::Command::new("true")
        .spawn()
        .expect("spawn pid probe");
    let dead_pid = probe.id();
    probe.wait().expect("reap pid probe");
    // Leak a marker on purpose, exactly as a SIGKILLed supervisor would.
    let marker = dir.join(format!("{}{dead_pid}-7", shmem::segment::MARKER_PREFIX));
    std::fs::write(
        &marker,
        format!(
            "magic=SMPAGGR1\nversion={}\ngeneration=7\npid={dead_pid}\n",
            shmem::segment::SEGMENT_VERSION
        ),
    )
    .expect("plant orphan marker");

    let report = small_process_run(1);
    assert!(
        report.clean(),
        "run over a dead orphan must proceed cleanly"
    );
    assert_eq!(
        report.counter("orphan_segments_reclaimed"),
        1,
        "startup sweep must reclaim the dead supervisor's marker"
    );
    assert!(!marker.exists(), "reclaimed marker must be unlinked");
    // Our own run's marker must be gone too (RAII removal on clean exit).
    let leftovers = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(leftovers, 0, "a clean run must leave no segment droppings");
    let _ = std::fs::remove_dir_all(&dir);
}

fn live_marker_is_left_alone() {
    let dir = seg_dir("live");
    // A marker owned by *this* (alive) process models a concurrent run.
    let marker = dir.join(format!(
        "{}{}-9",
        shmem::segment::MARKER_PREFIX,
        std::process::id()
    ));
    std::fs::write(
        &marker,
        format!(
            "magic=SMPAGGR1\nversion={}\ngeneration=9\npid={}\n",
            shmem::segment::SEGMENT_VERSION,
            std::process::id()
        ),
    )
    .expect("plant live marker");
    let report = small_process_run(2);
    assert!(report.clean());
    assert_eq!(report.counter("orphan_segments_reclaimed"), 0);
    assert!(marker.exists(), "a live run's marker must not be touched");
    let _ = std::fs::remove_dir_all(&dir);
}

fn malformed_marker_refuses_to_start() {
    let dir = seg_dir("malformed");
    let marker = dir.join(format!("{}999999-1", shmem::segment::MARKER_PREFIX));
    std::fs::write(&marker, "this is not a marker\n").expect("plant garbage marker");
    // The refusal panic is the expected result; keep its backtrace out of
    // the suite's output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| small_process_run(3)));
    std::panic::set_hook(prev_hook);
    let msg = common::panic_text(outcome.expect_err("startup must refuse over garbage markers"));
    assert!(
        msg.contains("refusing to start") && msg.contains("remove it manually"),
        "refusal must tell the operator what to do, got: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    seg_dir("default");
    common::run(&[
        (
            "sigkill_ww_aborts_and_reclaims",
            sigkill_ww_aborts_and_reclaims,
        ),
        (
            "sigkill_pp_aborts_and_reclaims",
            sigkill_pp_aborts_and_reclaims,
        ),
        (
            "sigkill_with_bypass_staging_settles_exactly",
            sigkill_with_bypass_staging_settles_exactly,
        ),
        (
            "randomized_sigkill_stress_conserves_across_schemes",
            randomized_sigkill_stress_conserves_across_schemes,
        ),
        (
            "panic_fault_crosses_the_process_boundary",
            panic_fault_crosses_the_process_boundary,
        ),
        (
            "sigint_quiesces_process_backend_to_degraded",
            sigint_quiesces_process_backend_to_degraded,
        ),
        (
            "sigterm_quiesces_threaded_backend_to_degraded",
            sigterm_quiesces_threaded_backend_to_degraded,
        ),
        (
            "orphan_marker_from_dead_supervisor_is_reclaimed",
            orphan_marker_from_dead_supervisor_is_reclaimed,
        ),
        ("live_marker_is_left_alone", live_marker_is_left_alone),
        (
            "malformed_marker_refuses_to_start",
            malformed_marker_refuses_to_start,
        ),
    ]);
}
