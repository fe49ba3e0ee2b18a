//! Quiescence stress for the threaded delivery mesh.
//!
//! The scenario the sent/delivered-sum protocol must survive: workers go
//! **idle** (their generators finished, they start napping with backoff) and
//! are **re-woken** by late-arriving batches — items that sat in a peer's
//! aggregation buffer until an idle flush pushed them out, possibly several
//! relay hops deep.  A quiescence bug shows up as a run that terminates with
//! items stranded (lost) or double-delivered (duplicated), or as a hang that
//! the watchdog converts into `clean = false`.
//!
//! Each relay chain is deterministic, so every run has an exactly known
//! send/delivery total; the suite repeats the scenario across ≥100 runs and
//! seeds to shake out scheduling interleavings.

use std::time::Duration;

use native_rt::run_threaded;
use net_model::WorkerId;
use runtime_api::{
    AppDefaults, AppFactory, AppSpec, Backend, ClusterSpec, FaultPlan, Payload, ResolvedRunSpec,
    RunCtx, RunOutcome, RunReport, RunSpec, WorkerApp,
};
use tramlib::{FlushPolicy, Scheme};

/// Each worker seeds `seeds` relay chains of `hops` forwards each.  A
/// delivered item with hops left is forwarded to a deterministic
/// pseudo-random destination; the chain dies at zero.  Between hops every
/// worker is idle — the runtime's idle flush is what keeps chains moving
/// (buffers are bigger than the traffic, so nothing ever fills a buffer).
struct Relay {
    seeds: u64,
    hops: u64,
    seeded: bool,
}

impl WorkerApp for Relay {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        ctx.counter("relay_delivered", 1);
        let hops_left = item.a;
        if hops_left > 0 {
            let total = ctx.total_workers() as u64;
            let dest = WorkerId(ctx.rng().below(total) as u32);
            ctx.counter("relay_forwarded", 1);
            ctx.send(dest, Payload::new(hops_left - 1, item.b));
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.seeded {
            return false;
        }
        self.seeded = true;
        let total = ctx.total_workers() as u64;
        for chain in 0..self.seeds {
            let dest = WorkerId(ctx.rng().below(total) as u32);
            ctx.send(dest, Payload::new(self.hops, chain));
        }
        true
    }

    fn local_done(&self) -> bool {
        self.seeded
    }
}

/// Every worker a [`Relay`] of 2 chains × 12 hops, on 8 workers in 2
/// processes.
struct Relays;

impl AppSpec for Relays {
    fn name(&self) -> &'static str {
        "relay"
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults {
            buffer_items: 64,
            // The whole point: items sit in buffers until an *idle* flush
            // moves them, so every hop exercises the idle → re-wake
            // transition.
            flush_policy: FlushPolicy::ON_IDLE,
            cluster: ClusterSpec::smp(1, 2, 4),
            ..AppDefaults::default()
        }
    }

    fn factory(&self, _run: &ResolvedRunSpec) -> AppFactory {
        Box::new(|_| {
            Box::new(Relay {
                seeds: 2,
                hops: 12,
                seeded: false,
            })
        })
    }
}

/// The relay under `scheme` and `seed` on the threaded backend.
fn relay(scheme: Scheme, seed: u64) -> RunSpec {
    RunSpec::for_app(Relays)
        .backend(Backend::Native)
        .scheme(scheme)
        .seed(seed)
        .max_wall(Duration::from_secs(30))
}

/// Resolve `spec` and run it on the threaded backend.
fn run(spec: RunSpec) -> RunReport {
    let run = spec.resolve().expect("a valid relay spec");
    run_threaded(&run, spec.app().factory(&run))
}

fn assert_exact_conservation(scheme: Scheme, seed: u64, report: &RunReport) {
    let workers = 8u64;
    let seeds = 2u64;
    let hops = 12u64;
    // Every chain is seeded once and forwarded exactly `hops` times, so the
    // totals are closed-form — any loss or duplication breaks the equality.
    let expected = workers * seeds * (1 + hops);
    assert!(
        report.clean(),
        "{scheme}/seed {seed}: run did not terminate cleanly"
    );
    assert_eq!(
        report.items_sent, expected,
        "{scheme}/seed {seed}: wrong send total"
    );
    assert_eq!(
        report.items_delivered, expected,
        "{scheme}/seed {seed}: items lost or duplicated"
    );
    assert_eq!(
        report.counter("relay_delivered"),
        expected,
        "{scheme}/seed {seed}: handler executions diverge from deliveries"
    );
    assert_eq!(
        report.counter("relay_forwarded"),
        workers * seeds * hops,
        "{scheme}/seed {seed}: wrong forward count"
    );
}

/// ≥100 runs of the idle/re-wake relay across schemes with distinct
/// interleavings (the per-run seed changes every chain's routing).
#[test]
fn relay_chains_survive_idle_and_rewake_across_100_runs() {
    let mut runs = 0;
    for scheme in [Scheme::WW, Scheme::WPs, Scheme::WsP, Scheme::PP] {
        for round in 0..30u64 {
            let seed = 0xD15C_0000 + round * 131 + scheme as u64;
            let report = run(relay(scheme, seed));
            assert_exact_conservation(scheme, seed, &report);
            runs += 1;
        }
    }
    assert!(
        runs >= 100,
        "stress must cover at least 100 runs, got {runs}"
    );
}

/// The relay with an injected mid-run stall: one worker freezes for 30 ms
/// while chains route through it, then resumes.  A stall delays but never
/// loses items, so the closed-form totals must still be reached exactly —
/// the run ends `Degraded`, not `Aborted`.
#[test]
fn relay_chains_survive_an_injected_stall() {
    for scheme in [Scheme::WW, Scheme::PP] {
        for round in 0..5u64 {
            let seed = 0x57A1_1000 + round * 17 + scheme as u64;
            let report =
                run(relay(scheme, seed)
                    .faults(FaultPlan::seeded(seed).stall_at_items(3, 2, 30_000)));
            assert_eq!(
                report.outcome,
                RunOutcome::Degraded { faults_injected: 1 },
                "{scheme}/seed {seed}: a stall must degrade, not abort"
            );
            assert_exact_conservation(scheme, seed, &report);
        }
    }
}

/// The relay with an injected worker panic: the victim is quarantined, the
/// other seven workers drain every chain that does not route through the
/// corpse, and the run ends `Aborted` with exact conservation
/// (`sent == delivered + dropped`) and zero leaked slab slots.
#[test]
fn relay_chains_quarantine_a_panicked_worker() {
    for round in 0..5u64 {
        let seed = 0xDEAD_2000 + round * 23;
        let report =
            run(relay(Scheme::WW, seed).faults(FaultPlan::seeded(seed).panic_at_items(5, 2)));
        let RunOutcome::Aborted {
            reason,
            diagnostics,
        } = &report.outcome
        else {
            panic!("seed {seed}: a panic must abort, got {:?}", report.outcome);
        };
        assert!(
            reason.contains("worker 5 panicked"),
            "seed {seed}: {reason}"
        );
        assert_eq!(diagnostics.panicked_workers, vec![5], "seed {seed}");
        assert_eq!(
            diagnostics.items_delivered + diagnostics.items_dropped,
            diagnostics.items_sent,
            "seed {seed}: conservation must hold under quarantine: {}",
            diagnostics.render()
        );
        assert_eq!(
            diagnostics.leaked_slabs(),
            0,
            "seed {seed}: quarantine leaked slab slots: {}",
            diagnostics.render()
        );
        assert_eq!(diagnostics.unaccounted_slabs(), 0, "seed {seed}");
    }
}
