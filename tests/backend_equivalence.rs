//! Cross-backend equivalence: the execution backend must never change *what*
//! an application computes — only where it runs and what the times mean.
//!
//! A deterministic histogram workload (all randomness drawn from the per-worker
//! `StreamRng`, which both backends seed identically) is run on the
//! discrete-event simulator and on the native threaded backend for every
//! aggregation scheme; item totals, checksums and conservation counts must be
//! bit-identical.  This is the acceptance gate for the shared `runtime-api`
//! contract: one app, one scheme enum, two interchangeable backends — and,
//! since the [`RunSpec`] redesign, one entry point: every run here goes
//! through `RunSpec::for_app(..).backend(..).run()`, so the suite also pins
//! the spec → backend-config resolution itself.
//!
//! Both backends run with vector pooling enabled (it is always on: the
//! simulator's `PooledReceiver` + aggregator recycling, the native backend's
//! batch-return rings and batched local bypass), so this suite also proves
//! the zero-allocation hot paths change *performance only*, never results.
//!
//! Since the multi-process backend joined the matrix this suite runs as a
//! `harness = false` binary: `Backend::Process` forks without exec'ing, so
//! the runs must happen on a process whose only thread is the caller —
//! libtest's per-test threads would make fork unsafe.  `common::run` keeps
//! the libtest-style pass/fail output.

mod common;

use smp_aggregation::prelude::*;

fn main() {
    // Process-mode runs write segment markers; point them at a private
    // directory so concurrent builds/tools on the same host never interact.
    // set_var is safe here: main has not spawned anything yet.
    let dir = std::env::temp_dir().join(format!("smp-aggr-equiv-{}", std::process::id()));
    std::env::set_var(shmem::segment::MARKER_DIR_ENV, &dir);
    common::run(&[
        (
            "native_backend_matches_simulator_for_every_scheme",
            native_backend_matches_simulator_for_every_scheme,
        ),
        (
            "process_backend_matches_simulator_for_every_scheme",
            process_backend_matches_simulator_for_every_scheme,
        ),
        (
            "forced_simd_kernel_matches_scalar_and_simulator",
            forced_simd_kernel_matches_scalar_and_simulator,
        ),
        (
            "native_results_are_deterministic_per_seed_and_differ_across_seeds",
            native_results_are_deterministic_per_seed_and_differ_across_seeds,
        ),
        (
            "open_loop_service_conserves_and_is_deterministic_per_seed",
            open_loop_service_conserves_and_is_deterministic_per_seed,
        ),
        (
            "run_app_dispatches_every_backend",
            run_app_dispatches_every_backend,
        ),
        (
            "node_tier_wire_matches_the_in_process_cluster",
            node_tier_wire_matches_the_in_process_cluster,
        ),
        (
            "default_bypass_matches_on_a_one_process_cluster",
            default_bypass_matches_on_a_one_process_cluster,
        ),
        (
            "hot_worker_ping_pong_finishes_on_every_engine",
            hot_worker_ping_pong_finishes_on_every_engine,
        ),
        (
            "runtime_counters_agree_with_the_aggregator_on_every_engine",
            runtime_counters_agree_with_the_aggregator_on_every_engine,
        ),
        (
            "per_destination_order_holds_on_both_native_engines",
            per_destination_order_holds_on_both_native_engines,
        ),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The backend-independent observable result of a histogram run: everything
/// that must depend only on (cluster, seed, updates), never on the execution
/// backend or the aggregation scheme.
#[derive(Debug, PartialEq, Eq)]
struct HistogramResult {
    applied: u64,
    sent_checksum: u64,
    applied_checksum: u64,
    table_total: u64,
    table_max_bucket: u64,
    items_sent: u64,
    items_delivered: u64,
}

fn histogram_spec(scheme: Scheme, seed: u64) -> RunSpec {
    RunSpec::for_app(
        HistogramConfig::new(ClusterSpec::small_smp(1), scheme)
            .with_updates(1_000)
            .with_buffer(32)
            .with_seed(seed),
    )
}

fn collect(backend: Backend, report: RunReport, scheme: Scheme) -> HistogramResult {
    assert_eq!(report.backend, backend);
    assert!(
        report.clean(),
        "{backend}/{scheme}: run did not finish cleanly"
    );
    assert_eq!(
        report.items_sent, report.items_delivered,
        "{backend}/{scheme}: item conservation violated"
    );
    HistogramResult {
        applied: report.counter("histo_applied"),
        sent_checksum: report.counter("histo_sent_checksum"),
        applied_checksum: report.counter("histo_applied_checksum"),
        table_total: report.counter("histo_table_total"),
        table_max_bucket: report.counter("histo_table_max_bucket"),
        items_sent: report.items_sent,
        items_delivered: report.items_delivered,
    }
}

fn run(backend: Backend, scheme: Scheme, seed: u64) -> HistogramResult {
    let report = histogram_spec(scheme, seed).backend(backend).run();
    collect(backend, report, scheme)
}

fn native_backend_matches_simulator_for_every_scheme() {
    for scheme in Scheme::ALL {
        let sim = run(Backend::Sim, scheme, 42);
        let native = run(Backend::Native, scheme, 42);
        assert_eq!(
            native, sim,
            "{scheme}: native backend diverged from the simulator on identical traffic"
        );
        assert!(sim.applied > 0, "{scheme}: empty run proves nothing");
        assert_eq!(
            sim.sent_checksum, sim.applied_checksum,
            "{scheme}: reference run must conserve its own checksum"
        );
    }
}

fn process_backend_matches_simulator_for_every_scheme() {
    // Same acceptance gate, third backend: real forked worker processes over
    // a shared memfd segment must compute bit-identical application results.
    for scheme in Scheme::ALL {
        let sim = run(Backend::Sim, scheme, 42);
        let process = run(Backend::Process, scheme, 42);
        assert_eq!(
            process, sim,
            "{scheme}: process backend diverged from the simulator on identical traffic"
        );
    }
}

fn forced_simd_kernel_matches_scalar_and_simulator() {
    // The kernel tier is a pure implementation detail of the slice handlers:
    // forcing `--kernel simd` (or scalar) must leave every cross-backend
    // total bit-identical.  `KernelMode::Simd` always resolves on the suite's
    // supported targets — x86-64 has the SSE2 baseline, aarch64 has NEON.
    let run_kernel = |backend: Backend, kernel: KernelMode| {
        let report = histogram_spec(Scheme::WPs, 42)
            .kernel(kernel)
            .backend(backend)
            .run();
        collect(backend, report, Scheme::WPs)
    };
    let sim_scalar = run_kernel(Backend::Sim, KernelMode::Scalar);
    let sim_simd = run_kernel(Backend::Sim, KernelMode::Simd);
    let native_scalar = run_kernel(Backend::Native, KernelMode::Scalar);
    let native_simd = run_kernel(Backend::Native, KernelMode::Simd);
    assert_eq!(sim_simd, sim_scalar, "sim: SIMD tier changed the results");
    assert_eq!(
        native_simd, native_scalar,
        "native: SIMD tier changed the results"
    );
    assert_eq!(
        native_simd, sim_scalar,
        "forced-SIMD native run diverged from the scalar simulator run"
    );
}

fn native_results_are_deterministic_per_seed_and_differ_across_seeds() {
    let a = run(Backend::Native, Scheme::WPs, 7);
    let b = run(Backend::Native, Scheme::WPs, 7);
    assert_eq!(
        a, b,
        "same seed must reproduce identical totals on real threads"
    );
    let c = run(Backend::Native, Scheme::WPs, 8);
    assert_ne!(
        a.sent_checksum, c.sent_checksum,
        "different seeds should generate different traffic"
    );
}

fn open_loop_service_conserves_and_is_deterministic_per_seed() {
    // The open-loop load layer on the native backend: wall-clock timings
    // vary run to run, but the seeded arrival schedule (keys and gaps) — and
    // with it every conservation total — must not.
    let spec = |seed: u64| {
        RunSpec::for_app(ServiceConfig::new(ClusterSpec::smp(1, 2, 2), Scheme::WPs).with_seed(seed))
            .backend(Backend::Native)
            .load(open_loop(150_000.0).requests(1_500))
            .slo(SloPolicy::p99_ms(250))
    };
    let expected = 1_500 * 4;
    let totals = |report: &RunReport| {
        assert!(report.clean(), "open-loop run did not finish cleanly");
        for counter in ["svc_requests_served", "svc_responses", "svc_table_total"] {
            assert_eq!(report.counter(counter), expected, "{counter}");
        }
        (
            report.counter("svc_requests_sent"),
            report.counter("svc_table_total"),
            report.items_sent,
        )
    };
    let a = spec(5).run();
    let b = spec(5).run();
    assert_eq!(totals(&a), totals(&b), "same seed, same traffic");

    let latency = a.latency.expect("service latency is always recorded");
    assert_eq!(latency.count, expected);
    let slo = latency
        .slo
        .expect("spec SLO must be stamped on the summary");
    assert_eq!(slo.p99_target_ns, 250_000_000);
}

fn node_tier_wire_matches_the_in_process_cluster() {
    // The node-leader tier joins the equivalence gate: routing cross-node
    // traffic through per-node leaders and a wire (here the deterministic
    // simulated transport; `tests/node_tier.rs` covers the socket ones) must
    // leave every application total bit-identical to the same cluster run
    // entirely in-process.
    let spec = |scheme| {
        RunSpec::for_app(
            HistogramConfig::new(ClusterSpec::smp(2, 2, 2), scheme)
                .with_updates(1_000)
                .with_buffer(32)
                .with_seed(42),
        )
        .backend(Backend::Native)
    };
    for scheme in [Scheme::WW, Scheme::PP] {
        let in_process = collect(Backend::Native, spec(scheme).run(), scheme);
        let wired_report = spec(scheme).transport(TransportKind::Sim).run();
        let shipped: u64 = wired_report
            .node_reports
            .iter()
            .map(|d| d.items_shipped)
            .sum();
        let wired = collect(Backend::Native, wired_report, scheme);
        assert!(shipped > 0, "{scheme}: no traffic crossed the wire");
        assert_eq!(
            wired, in_process,
            "{scheme}: the node tier changed what the application computed"
        );
    }
}

fn default_bypass_matches_on_a_one_process_cluster() {
    // 1 process x 4 workers with the default config: every item takes the
    // local bypass, so this pins the staging buffers of both native engines
    // (threaded batches, process-mode slabs) against the simulator.
    let run = |backend: Backend| {
        let report = histogram_spec(Scheme::WPs, 42)
            .cluster(ClusterSpec::smp(1, 1, 4))
            .backend(backend)
            .run();
        if backend != Backend::Sim {
            assert_eq!(
                report.counter("local_deliveries"),
                report.items_sent,
                "{backend}: every item must take the bypass"
            );
            assert_eq!(report.counter("wire_items"), 0, "{backend}");
        }
        collect(backend, report, Scheme::WPs)
    };
    let sim = run(Backend::Sim);
    assert!(sim.applied > 0, "empty run proves nothing");
    assert_eq!(run(Backend::Native), sim, "threaded bypass diverged");
    assert_eq!(run(Backend::Process), sim, "process bypass diverged");
}

/// Two workers bat `balls` items back and forth for `HOPS` hops each while
/// `on_idle` keeps reporting work: the workers are never idle, and there are
/// never enough items in flight to fill any batch or buffer.  Only a runtime
/// that ships its staging buffers at the end of every quantum, and its
/// partial aggregation buffers on a quiet one, lets a ball move.
struct PingPong {
    peer: WorkerId,
    serve: bool,
    balls: u64,
    received: u64,
}

const BALLS: u64 = 4;
const HOPS: u64 = 1_000;

impl WorkerApp for PingPong {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        self.received += 1;
        if item.a > 0 {
            ctx.send(self.peer, Payload::new(item.a - 1, item.b));
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.serve {
            self.serve = false;
            for ball in 0..self.balls {
                ctx.send(self.peer, Payload::new(HOPS - 1, ball));
            }
        }
        true
    }

    fn local_done(&self) -> bool {
        // Hops alternate between the two workers, starting at the peer.
        self.received == self.balls * HOPS / 2
    }

    fn on_finalize(&mut self, counters: &mut smp_aggregation::metrics::Counters) {
        counters.add("pong_received", self.received);
    }
}

fn hot_worker_ping_pong_finishes_on_every_engine() {
    use smp_aggregation::apps::common::run_app_native;
    use std::time::Duration;

    let watchdog = Duration::from_secs(30);
    let app_with = |balls: u64| {
        move |me: WorkerId| -> Box<dyn WorkerApp> {
            Box::new(PingPong {
                peer: WorkerId(1 - me.0),
                serve: me.0 == 0,
                balls,
                received: 0,
            })
        }
    };
    let make_app = app_with(BALLS);
    let check_balls = |label: &str, report: &RunReport, balls: u64| {
        assert!(
            report.clean(),
            "{label}: a hot ping-pong must finish, got {}",
            report.outcome.signature()
        );
        assert_eq!(report.counter("pong_received"), balls * HOPS, "{label}");
        assert!(
            report.total_time_ns < watchdog.as_nanos() as u64 / 3,
            "{label}: {} ms is the watchdog's doing, not the runtime's",
            report.total_time_ns / 1_000_000
        );
    };
    let check = |label: &str, report: RunReport| check_balls(label, &report, BALLS);

    // Same process, default config: every hop rides the local bypass.
    let local = sim_config(
        ClusterSpec::smp(1, 1, 2),
        Scheme::WPs,
        64,
        16,
        FlushPolicy::EXPLICIT_ONLY,
        7,
    );
    let report = run_app_native(local, |native| native.with_max_wall(watchdog), make_app);
    check("threaded", report);
    let report = run_process(
        ProcessBackendConfig::from_common(local.common).with_max_wall(watchdog),
        make_app,
    );
    assert!(
        report.counter("local_batches") > 0,
        "process: no bypass batches"
    );
    check("process", report);

    // 2 nodes x 1 worker over the simulated wire: every hop crosses the
    // uplink staging buffer (NoAgg, so nothing else holds an item back).
    let wired = sim_config(
        ClusterSpec::smp(2, 1, 1),
        Scheme::NoAgg,
        64,
        16,
        FlushPolicy::EXPLICIT_ONLY,
        7,
    );
    let over_the_wire = |sim, balls: u64| {
        run_app_native(
            sim,
            |native| {
                native
                    .with_transport(Some(TransportKind::Sim))
                    .with_max_wall(watchdog)
            },
            app_with(balls),
        )
    };
    let wire_case = |label: &str| {
        let report = over_the_wire(wired, BALLS);
        let shipped: u64 = report.node_reports.iter().map(|d| d.items_shipped).sum();
        assert_eq!(shipped, BALLS * HOPS, "{label}: every hop crosses the wire");
        check(label, report);
    };
    wire_case("wire/sim");

    // Aggregated, bypass off, a window of one: every hop sits alone in a WPs
    // buffer that never fills, its timeout (10 s) is a third of the watchdog,
    // and `on_idle` never says "idle".  Only the quiet-quantum flush moves
    // the ball — one idle-flush message per hop, no timeout-flush message.
    let policy = FlushPolicy {
        on_idle: true,
        ..FlushPolicy::with_timeout(10_000_000_000)
    };
    let aggregated = |cluster: ClusterSpec| {
        let mut sim = sim_config(cluster, Scheme::WPs, 64, 16, policy, 7);
        sim.common.tram = sim.common.tram.with_local_bypass(false);
        sim
    };
    let check_quiet = |label: &str, report: RunReport| {
        check_balls(label, &report, 1);
        let tram = report.tram.counters();
        assert_eq!(tram.get("messages_idle_flush"), HOPS, "{label}");
        assert_eq!(tram.get("messages_timeout_flush"), 0, "{label}");
    };
    let one_proc = aggregated(ClusterSpec::smp(1, 1, 2));
    let report = run_app_native(
        one_proc,
        |native| native.with_max_wall(watchdog),
        app_with(1),
    );
    check_quiet("aggregated/mesh", report);
    let report = run_process(
        ProcessBackendConfig::from_common(one_proc.common).with_max_wall(watchdog),
        app_with(1),
    );
    assert_eq!(report.counter("wire_messages"), HOPS, "aggregated/process");
    check_balls("aggregated/process", &report, 1);
    let aggregated_wire_case = |label: &str| {
        check_quiet(
            label,
            over_the_wire(aggregated(ClusterSpec::smp(2, 1, 1)), 1),
        );
    };
    aggregated_wire_case("aggregated/wire/sim");

    // Both wire cases again with the run's four threads (two hot workers,
    // two leaders) sharing one CPU: a worker helping its leader only ever
    // `try_lock`s, so it can neither wait on a preempted holder nor keep the
    // leader thread from its turn.
    let pinned = common::on_one_cpu(|| {
        wire_case("wire/sim/one cpu");
        aggregated_wire_case("aggregated/wire/sim/one cpu");
    });
    if !pinned {
        println!("hot ping-pong on one CPU skipped: cannot pin here");
    }
}

fn run_app_dispatches_every_backend() {
    // The generic dispatch entry point used by inline (non-AppSpec) apps: a
    // minimal echo app must conserve items on every backend.
    use std::str::FromStr;

    struct Echo {
        sent: bool,
    }
    impl WorkerApp for Echo {
        fn on_item(&mut self, _item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
            ctx.counter("echo_received", 1);
        }
        fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
            if self.sent {
                return false;
            }
            self.sent = true;
            let total = ctx.total_workers();
            let dest = WorkerId((ctx.my_id().0 + 1) % total);
            ctx.send(dest, Payload::new(1, 2));
            ctx.flush();
            true
        }
        fn local_done(&self) -> bool {
            self.sent
        }
    }

    for name in ["sim", "native", "process"] {
        let backend = Backend::from_str(name).unwrap();
        let sim = sim_config(
            ClusterSpec::small_smp(1),
            Scheme::WW,
            8,
            16,
            FlushPolicy::EXPLICIT_ONLY,
            3,
        );
        let report = run_app(backend, sim, |_| Box::new(Echo { sent: false }));
        assert!(report.clean(), "{backend}: not clean");
        assert_eq!(report.items_sent, 8, "{backend}");
        assert_eq!(report.counter("echo_received"), 8, "{backend}");
    }
}

fn runtime_counters_agree_with_the_aggregator_on_every_engine() {
    // The runtime's own tallies (`wire_*`, `grouped_items`, …) are counted in
    // plain fields and folded into the report once per worker; they must
    // still describe the traffic the aggregator says it emitted, and the
    // report must name exactly the counters listed here — a fold that adds a
    // name nobody recorded, or drops one, fails.
    let names = |report: &RunReport| -> Vec<&'static str> {
        report.counters.iter().map(|(name, _)| name).collect()
    };
    const HISTOGRAM: [&str; 5] = [
        "histo_applied",
        "histo_applied_checksum",
        "histo_sent_checksum",
        "histo_table_max_bucket",
        "histo_table_total",
    ];
    // What the threaded engine names on this run, besides the app's own.
    const THREADED: [&str; 19] = [
        "agg_pool_hits",
        "agg_pool_misses",
        "arena_claim_misses",
        "arena_claims",
        "batch_pool_hits",
        "batch_pool_misses",
        "cross_socket_msgs",
        "faults_injected",
        "grouped_items",
        "grouping_passes",
        "items_dropped",
        "leaked_slabs",
        "local_batches",
        "local_deliveries",
        "local_forwards",
        "wire_bytes",
        "wire_items",
        "wire_messages",
        "wire_messages_flush",
    ];
    const PROCESS: [&str; 12] = [
        "arena_claims",
        "faults_injected",
        "grouped_items",
        "grouping_passes",
        "items_dropped",
        "leaked_slabs",
        "local_batches",
        "local_deliveries",
        "orphan_segments_reclaimed",
        "slabs_reclaimed",
        "wire_items",
        "wire_messages",
    ];
    let expect = |runtime: &[&'static str]| -> Vec<&'static str> {
        let mut all: Vec<&'static str> = HISTOGRAM.iter().chain(runtime).copied().collect();
        all.sort_unstable();
        all
    };
    // Every process-addressed (WPs) message is grouped once by its receiver
    // — unless it crossed to another node, where it travels as raw items.
    let check_threaded = |label: &str, report: &RunReport| {
        assert!(report.clean(), "{label}");
        let shipped: u64 = report.node_reports.iter().map(|d| d.items_shipped).sum();
        let tram = &report.tram;
        assert!(tram.messages_sent() > 0, "{label}: no aggregated traffic");
        assert_eq!(report.counter("wire_items"), tram.items_sent(), "{label}");
        assert_eq!(
            report.counter("wire_messages"),
            tram.messages_sent(),
            "{label}"
        );
        assert_eq!(
            report.counter("grouped_items"),
            tram.items_sent() - shipped,
            "{label}"
        );
    };

    let mesh = histogram_spec(Scheme::WPs, 42)
        .backend(Backend::Native)
        .run();
    check_threaded("mesh", &mesh);
    assert_eq!(names(&mesh), expect(&THREADED), "mesh");

    let wired = RunSpec::for_app(
        HistogramConfig::new(ClusterSpec::smp(2, 2, 2), Scheme::WPs)
            .with_updates(1_000)
            .with_buffer(32)
            .with_seed(42),
    )
    .backend(Backend::Native)
    .transport(TransportKind::Sim)
    .run();
    check_threaded("wire/sim", &wired);
    assert!(wired.node_reports.iter().any(|d| d.items_shipped > 0));
    let mut wire_names = THREADED.to_vec();
    wire_names.push("wire_node_msgs");
    assert_eq!(names(&wired), expect(&wire_names), "wire/sim");

    // The process engine keeps no aggregator statistics (`report.tram` is
    // empty there); its wire traffic is every item that did not take the
    // bypass, each slab it claimed carried one wire message or one bypass
    // batch, and each wire message was grouped by its receiver.
    let process = histogram_spec(Scheme::WPs, 42)
        .backend(Backend::Process)
        .run();
    assert!(process.clean(), "process");
    assert_eq!(process.tram.messages_sent(), 0, "process");
    let wire_items = process.counter("wire_items");
    assert!(wire_items > 0, "process: no aggregated traffic");
    assert_eq!(
        wire_items,
        process.items_sent - process.counter("local_deliveries"),
        "process"
    );
    assert_eq!(process.counter("arena_claim_misses"), 0, "process");
    assert_eq!(
        process.counter("wire_messages") + process.counter("local_batches"),
        process.counter("arena_claims"),
        "process"
    );
    assert_eq!(process.counter("grouped_items"), wire_items, "process");
    assert_eq!(names(&process), expect(&PROCESS), "process");
}

/// Each worker sends its items to random workers, tagging each with its
/// source worker and a per-destination sequence number; a receiver counts
/// every arrival that is older than one it already saw from that source.
struct SequencedSender {
    remaining: u64,
    next_seq: Vec<u64>,
    /// Per source worker: one past the highest sequence number seen.
    seen: Vec<u64>,
    inversions: u64,
    received: u64,
}

impl WorkerApp for SequencedSender {
    fn on_item(&mut self, item: Payload, _created: u64, _ctx: &mut dyn RunCtx) {
        let src = item.a as usize;
        self.received += 1;
        if item.b < self.seen[src] {
            self.inversions += 1;
        } else {
            self.seen[src] = item.b + 1;
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let me = u64::from(ctx.my_id().0);
        let workers = u64::from(ctx.total_workers());
        for _ in 0..self.remaining.min(64) {
            let dest = ctx.rng().below(workers) as usize;
            ctx.send(WorkerId(dest as u32), Payload::new(me, self.next_seq[dest]));
            self.next_seq[dest] += 1;
            self.remaining -= 1;
        }
        if self.remaining == 0 {
            ctx.flush();
        }
        true
    }

    fn local_done(&self) -> bool {
        self.remaining == 0
    }

    fn on_finalize(&mut self, counters: &mut smp_aggregation::metrics::Counters) {
        counters.add("order_inversions", self.inversions);
        counters.add("order_received", self.received);
    }
}

fn per_destination_order_holds_on_both_native_engines() {
    // Items from one source to one destination arrive in the order they were
    // sent on every engine: the grouping pass of WPs (destination) and WsP
    // (source) is stable.  PP is left out: two sealers of one shared buffer
    // may legally overtake each other.  Bypass off, so every item of the
    // one-process cluster takes its scheme's aggregation path.
    const ITEMS: u64 = 20_000;
    const WORKERS: usize = 2;
    let mut broken = Vec::new();
    for scheme in [Scheme::NoAgg, Scheme::WW, Scheme::WPs, Scheme::WsP] {
        let mut sim = sim_config(
            ClusterSpec::smp(1, 1, WORKERS as u32),
            scheme,
            256,
            16,
            FlushPolicy::EXPLICIT_ONLY,
            11,
        );
        sim.common.tram = sim.common.tram.with_local_bypass(false);
        for backend in [Backend::Native, Backend::Process] {
            let report = run_app(backend, sim, |_| {
                Box::new(SequencedSender {
                    remaining: ITEMS,
                    next_seq: vec![0; WORKERS],
                    seen: vec![0; WORKERS],
                    inversions: 0,
                    received: 0,
                })
            });
            assert!(report.clean(), "{backend}/{scheme}: not clean");
            assert_eq!(
                report.counter("order_received"),
                ITEMS * WORKERS as u64,
                "{backend}/{scheme}"
            );
            let inversions = report.counter("order_inversions");
            if inversions > 0 {
                broken.push(format!("{backend}/{scheme}: {inversions} inversions"));
            }
        }
    }
    assert!(broken.is_empty(), "per-destination order lost: {broken:?}");
}
