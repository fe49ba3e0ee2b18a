//! The full threaded backend: real applications on real threads.
//!
//! One OS thread per worker PE.  An N×N mesh of bounded SPSC rings connects
//! every pair of workers directly; each ring has exactly one producer (the
//! source worker) and one consumer (the destination worker), so the hot path
//! is lock-free end to end:
//!
//! ```text
//! send ─┬─ same process (bypass on) ──▶ per-quantum staging batch ───┐
//!       │                                                            │
//!       └─ remote ──insert──▶ Aggregator (WW/WPs/WsP/NoAgg, private) │
//!                             SegClaim (PP, shared, lock-free)       │
//!                                    │ message ready                 │
//!                                    ▼                               │
//!               ship: one copy into a slab of the sender's arena ◀───┘
//!               (inline singles under NoAgg or when the arena is dry)
//!                                    │ Copy envelope
//!                  ┌─────────────────┴──────────┐ receiver on another
//!                  ▼                            ▼ node (node tier)
//!      mesh[src][dst] SPSC ring       uplink[src] SPSC ring
//!                  │                            │ the leader reads the slab in
//!                  │                            │ place, releases it, frames
//!                  │                            │ per node ══ wire ══▶ remote
//!                  │                            │ leader: one slab of its own
//!                  │                            ▼ arena per buffer_items
//!                  │                  downlink[dst] SPSC ring
//!                  ▼                            │
//!      destination worker ◀─────────────────────┘
//!      the grouping pass runs HERE (crate::envelope, shared with the
//!      process engine); the last consumer of a slab frees it into its
//!      owner's arena
//! ```
//!
//! `send` decides the local bypass before tramlib, for every scheme: a
//! same-process item is staged for its destination worker, and only remote
//! items reach the aggregator or the PP claim buffers.  Every ring — mesh,
//! uplink and downlink alike — carries the one `Envelope` of both native
//! engines: an inline item or the descriptor of a slab in some worker's (or
//! node leader's) arena.  A process-addressed slab
//! (WPs/WsP/PP) is routed to the destination worker chosen by
//! [`net_model::Topology::group_receiver`] — the same rule the simulator
//! uses — which groups it in place and forwards peer workers' ranges as
//! slice descriptors over its own mesh rows.  The consumer that finishes a
//! slab last releases it straight into its owner's arena (a lock-free
//! free-list push, safe from any thread), as the process engine does.  A
//! full mesh ring never blocks the sender: after one failed push the
//! envelope parks in a per-destination stash that is retried every loop
//! iteration — backpressure without the deadlock a blocking N×N
//! mesh invites (two workers pushing to each other's full rings would
//! otherwise both stop draining).
//!
//! **Termination.**  Every `send` increments the sending worker's padded
//! `items_sent` slot and every completed `on_item` handler batch increments
//! the delivering worker's `items_delivered` slot — per-worker counters, so
//! the hot path never bounces a shared cache line.  An item that is buffered,
//! stashed, in flight, or queued keeps the sent sum ahead of the delivered
//! sum.  The main thread watches those sums, the
//! [`runtime_api::WorkerApp::local_done`] flags and the per-quantum
//! heartbeats through the run monitor (`monitor.rs`, shared with the process
//! engine), which decides when the run is quiescent, when the watchdog turns
//! it into an [`runtime_api::RunOutcome::Aborted`] report instead of a hang,
//! and what the report says.
//!
//! **Failure containment.**  Each worker loop runs inside a `catch_unwind`
//! boundary.  A panicking worker is *quarantined*, not propagated: it records
//! its panic, abandons its unshipped production (counted into a per-worker
//! `items_dropped` ledger), and keeps draining its rings — honouring slab
//! refcounts and freeing the slabs it finishes last, without delivering —
//! so its peers never wedge behind a dead consumer.  The monitor counts a
//! quarantined worker as done, so the run settles on exact books and ends
//! `Aborted` with structured diagnostics.  Deterministic fault injection
//! ([`runtime_api::FaultPlan`]) exercises exactly these paths; see the
//! `faults` module.

mod ctx;
mod faults;
mod mesh;
mod node;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crossbeam_utils::CachePadded;
use metrics::{Counters, LatencyRecorder, LatencySummary};
use net_model::{Topology, WorkerId};
use runtime_api::{
    Backend, FaultPlan, NodeDiag, Payload, ResolvedRunSpec, RunReport, TransportKind, WorkerApp,
};
use shmem::{ClaimBuffer, SlabArena, SpscRing};
use tramlib::{Item, Scheme, TramConfig, TramStats};
use transport::Transport;

use crate::envelope::Envelope;
use crate::monitor::{panic_message, Books, Gone, Monitor, RunView};
use crate::sizing;

pub(crate) use ctx::NativeWorkerCtx;
pub use node::ACK_DELAY;

/// The delivery plane: per-pair envelope rings, flattened
/// `src * workers + dst`.
pub(crate) struct MeshPlane {
    workers: usize,
    /// `inbox[src * workers + dst]`: envelopes from worker `src` to worker
    /// `dst`.  Producer `src`, consumer `dst`.
    inbox: Vec<SpscRing<Envelope>>,
}

impl MeshPlane {
    fn new(workers: usize, capacity: usize) -> Self {
        let pairs = workers * workers;
        Self {
            workers,
            inbox: (0..pairs).map(|_| SpscRing::new(capacity)).collect(),
        }
    }

    /// The envelope ring from worker `src` to worker `dst`.
    pub(crate) fn ring(&self, src: usize, dst: usize) -> &SpscRing<Envelope> {
        &self.inbox[src * self.workers + dst]
    }
}

/// State shared by every thread of one run.
pub(crate) struct Shared {
    pub(crate) tram: TramConfig,
    pub(crate) topo: Topology,
    pub(crate) seed: u64,
    /// Wall-clock origin; `now_ns` values are offsets from it.
    pub(crate) epoch: Instant,
    /// Start barrier: workers spin on this after setup so the measured run
    /// window excludes OS thread creation (which scales with worker count).
    pub(crate) go: AtomicBool,
    pub(crate) stop: AtomicBool,
    /// Graceful-shutdown request (a delivered SIGINT/SIGTERM): workers stop
    /// generating new work, flush everything buffered once, and report done;
    /// delivery keeps running until the drained run reaches quiescence.
    pub(crate) quiesce: AtomicBool,
    /// Per-worker sent counters (padded: each worker writes only its own).
    pub(crate) items_sent: Vec<CachePadded<AtomicU64>>,
    /// Per-worker delivered counters (padded, owner-written).
    pub(crate) items_delivered: Vec<CachePadded<AtomicU64>>,
    /// Latest `local_done` observation per worker (monotonic by contract).
    pub(crate) workers_done: Vec<AtomicBool>,
    /// Per-worker dropped-item counters (padded, owner-written): items a
    /// quarantined worker abandoned or discarded.  Published with the same
    /// strictly-after-the-work discipline as `items_delivered`, so the
    /// monitor's conservation check `sent == delivered + dropped` inherits
    /// the double-read argument.
    pub(crate) items_dropped: Vec<CachePadded<AtomicU64>>,
    /// Per-worker progress heartbeats (padded, owner-written): bumped once
    /// per scheduling quantum.  A frozen heartbeat on a not-done worker past
    /// the grace period marks a soft stall in the diagnostics.
    pub(crate) heartbeats: Vec<CachePadded<AtomicU64>>,
    /// Per-worker stash-occupancy gauge (envelopes parked in the mesh
    /// overflow stash), read only for abort diagnostics.
    pub(crate) stash_depth: Vec<CachePadded<AtomicU64>>,
    /// Set when the corresponding worker's loop panicked and was quarantined.
    pub(crate) panicked: Vec<AtomicBool>,
    /// Panic messages by worker id, recorded under quarantine entry.
    pub(crate) panic_notes: Mutex<Vec<(u32, String)>>,
    /// Injected faults that have fired so far (all workers).
    pub(crate) faults_fired: AtomicU64,
    /// The run's fault plan (`None` on healthy runs).
    pub(crate) faults: Option<FaultPlan>,
    /// PP only: `pp[src_proc][dst_proc]` shared claim buffers.
    pub(crate) pp: Vec<Vec<ClaimBuffer<Item<Payload>>>>,
    /// Every scheme but NoAgg: one arena per worker, indexed by worker id,
    /// then, on the node tier, one per node leader (index `workers + node`),
    /// which fills the node's downlinks.  Every thread can borrow slices
    /// from every arena.  A worker's arena is claimed by that worker alone,
    /// a leader's by whoever holds the node's leader lock; a slab's last
    /// consumer, on whichever thread, releases it.
    pub(crate) arenas: Vec<SlabArena<Item<Payload>>>,
    /// Pin worker threads to cores (`--pin`).
    pub(crate) pin_workers: bool,
    /// NUMA node each worker's thread is expected to land on, derived from
    /// the pinning layout (`worker w → allowed_cpus[w % allowed]`).  All
    /// zeros when pinning is off or the host has a single node —
    /// cross-socket accounting then reads 0.
    pub(crate) worker_node: Vec<u16>,
    /// Whether workers should mbind their arenas and prefer same-node stash
    /// drains (false whenever `worker_node` is uniformly zero).
    pub(crate) numa_aware: bool,
    /// The worker↔worker delivery plane.
    pub(crate) plane: MeshPlane,
    /// The node tier's data plane: worker↔leader rings, per-link control
    /// blocks and the per-node drop ledgers.  `None` unless the run spans
    /// multiple nodes over a real transport.
    pub(crate) node_plane: Option<node::NodePlane>,
}

impl Shared {
    /// The state of a run of `run`, with the node tier's data plane when
    /// `node_tier` (the run spans nodes over a real transport).
    fn new(run: &ResolvedRunSpec, node_tier: bool) -> Self {
        let tram = run.tram();
        let topo = tram.topology;
        let workers = topo.total_workers() as usize;
        let scheme = tram.scheme;
        let depth = sizing::ring_capacity(scheme, workers);
        let plane = MeshPlane::new(workers, depth);
        let pp = if scheme == Scheme::PP {
            (0..topo.total_procs())
                .map(|_| {
                    (0..topo.total_procs())
                        .map(|_| ClaimBuffer::new(tram.buffer_items))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut arenas = Vec::new();
        if sizing::uses_arena(scheme) {
            let slabs = sizing::arena_slabs(&tram, workers);
            arenas.extend((0..workers).map(|_| SlabArena::new(slabs, tram.buffer_items)));
        }
        // The node tier's leaders fill their downlinks from arenas of their
        // own, indexed after the workers'.
        if let Some(slabs) = sizing::leader_arena_slabs(&tram).filter(|_| node_tier) {
            arenas.extend((0..topo.nodes()).map(|_| SlabArena::new(slabs, tram.buffer_items)));
        }
        // Predict each pinned worker's NUMA node from the pinning layout (the
        // same `allowed[w % allowed.len()]` rule `pin_current_thread` applies).
        // Unpinned runs get no prediction: the scheduler may move threads
        // between nodes mid-run, so claiming a placement would be a lie.
        let worker_node: Vec<u16> = if run.pin_workers {
            let numa = crate::numa::NumaTopology::detect();
            let allowed = crate::affinity::allowed_cpus();
            if numa.nodes() > 1 && !allowed.is_empty() {
                (0..workers)
                    .map(|w| numa.node_of_cpu(allowed[w % allowed.len()]))
                    .collect()
            } else {
                vec![0; workers]
            }
        } else {
            vec![0; workers]
        };
        let pads = || {
            (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect()
        };
        let flags = || (0..workers).map(|_| AtomicBool::new(false)).collect();
        Self {
            tram,
            topo,
            seed: run.seed,
            epoch: Instant::now(),
            go: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            items_sent: pads(),
            items_delivered: pads(),
            workers_done: flags(),
            items_dropped: pads(),
            heartbeats: pads(),
            stash_depth: pads(),
            panicked: flags(),
            panic_notes: Mutex::new(Vec::new()),
            faults_fired: AtomicU64::new(0),
            faults: run.faults,
            pp,
            arenas,
            pin_workers: run.pin_workers,
            // Single-node placement needs no binding and no drain-order bias.
            numa_aware: worker_node.iter().any(|&n| n != 0),
            worker_node,
            plane,
            node_plane: node_tier.then(|| node::NodePlane::new(topo.nodes(), workers, depth)),
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a worker panic: the flag unblocks the monitor's done scan, the
    /// note becomes the abort reason.  Called from the worker's unwind path,
    /// so it must not panic itself (a poisoned mutex is recovered, not
    /// propagated).
    pub(crate) fn record_panic(&self, worker: u32, message: String) {
        let mut notes = match self.panic_notes.lock() {
            Ok(notes) => notes,
            Err(poisoned) => poisoned.into_inner(),
        };
        notes.push((worker, message));
        drop(notes);
        self.panicked[worker as usize].store(true, Ordering::Release);
    }
}

/// Everything a worker thread hands back when it exits.
pub(crate) struct WorkerOutput {
    /// The application instance — `None` when this worker panicked (a
    /// quarantined app's state is untrusted, so it is never finalized).
    pub(crate) app: Option<Box<dyn WorkerApp>>,
    pub(crate) counters: Counters,
    pub(crate) latency: LatencyRecorder,
    pub(crate) app_latency: LatencyRecorder,
    pub(crate) tram: TramStats,
    /// Distribution of delivered-batch sizes (items per handler call).
    pub(crate) batch_len: metrics::QuantileSketch,
}

/// Sum of per-worker counters (Acquire loads).
fn sum(counters: &[CachePadded<AtomicU64>]) -> u64 {
    counters.iter().map(|c| c.load(Ordering::Acquire)).sum()
}

/// The threaded engine's view is its shared state: it has no per-poll
/// duties, and a panicked worker is quarantined, never dead.
impl RunView for &Shared {
    fn done(&self, w: usize) -> bool {
        self.workers_done[w].load(Ordering::Acquire)
    }

    fn heartbeat(&self, w: usize) -> u64 {
        self.heartbeats[w].load(Ordering::Relaxed)
    }

    fn gone(&self, w: usize) -> Option<Gone> {
        self.panicked[w]
            .load(Ordering::Acquire)
            .then_some(Gone::Quarantined)
    }

    /// The workers' drop ledgers plus the node tier's are the full
    /// right-hand side of the cross-node conservation invariant.
    fn ledger(&self) -> (u64, u64, u64) {
        let nodes = self.node_plane.as_ref().map_or(0, |p| p.dropped_sum());
        (
            sum(&self.items_sent),
            sum(&self.items_delivered),
            sum(&self.items_dropped) + nodes,
        )
    }

    fn ring_occupancy(&self) -> u64 {
        self.plane.inbox.iter().map(|r| r.len() as u64).sum()
    }

    fn quiesce(&self) {
        self.quiesce.store(true, Ordering::Release);
    }
}

/// The node tier's wire, one endpoint per node.  Empty unless the topology
/// spans nodes AND a transport was asked for; otherwise multi-node
/// topologies run entirely in-process.
fn node_transports(run: &ResolvedRunSpec) -> Vec<Box<dyn Transport>> {
    let nodes = run.tram().topology.nodes();
    // Mesh construction failures are configuration/environment errors
    // caught before any worker spawns — panicking here is a clean refusal,
    // not a mid-run crash.
    fn boxed<T: Transport + 'static>(mesh: Vec<T>) -> Vec<Box<dyn Transport>> {
        mesh.into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect()
    }
    match run.transport.filter(|_| nodes > 1) {
        None => Vec::new(),
        Some(TransportKind::Tcp) => boxed(
            transport::TcpTransport::loopback_mesh(nodes, run.seed)
                .expect("failed to build the loopback TCP mesh"),
        ),
        #[cfg(unix)]
        Some(TransportKind::Uds) => boxed(
            transport::UdsTransport::pair_mesh(nodes)
                .expect("failed to build the unix-domain socket mesh"),
        ),
        #[cfg(not(unix))]
        Some(TransportKind::Uds) => {
            unreachable!("resolve rejects the uds transport on non-unix hosts")
        }
        Some(TransportKind::Sim) => boxed(transport::SimTransport::mesh(
            nodes,
            net_model::AlphaBeta::loopback(),
        )),
    }
}

/// Run `make_app` (one application instance per worker PE, in worker-id order)
/// on the native threaded backend and return the unified report.
///
/// Times in the report are wall-clock nanoseconds on the host machine; item
/// and counter totals are identical to a simulator run of the same
/// deterministic workload.
///
/// `run` must be a [`Backend::Native`] spec: [`runtime_api::RunSpec::resolve`]
/// checked its options against this backend.
pub fn run_threaded(
    run: &ResolvedRunSpec,
    mut make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    assert_eq!(
        run.backend,
        Backend::Native,
        "run_threaded runs native specs"
    );
    let transports = node_transports(run);
    let shared = Shared::new(run, !transports.is_empty());
    let apps: Vec<Box<dyn WorkerApp>> = shared.topo.all_workers().map(&mut make_app).collect();
    let mut monitor = Monitor::new(run);
    let mut outputs: Vec<WorkerOutput> = Vec::with_capacity(apps.len());
    let mut teardown_failures: Vec<String> = Vec::new();
    let mut node_reports: Vec<NodeDiag> = Vec::new();
    let verdict = std::thread::scope(|scope| {
        let mut shared = &shared;
        // Node leaders spawn alongside the workers and exit on the same
        // `stop` flag; they never gate the start barrier because they move
        // no traffic until workers feed their uplinks.
        let leader_handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(n, t)| scope.spawn(move || node::leader_main(shared, n as u32, t)))
            .collect();
        let handles: Vec<_> = shared
            .topo
            .all_workers()
            .zip(apps)
            .map(|(w, app)| scope.spawn(move || mesh::worker_main(shared, w, app)))
            .collect();

        // Release the start barrier only once every thread exists: the
        // measured window is pure run time, not OS thread creation (whose
        // cost scales with the worker count and would bias cluster sweeps).
        let start = Instant::now();
        shared.go.store(true, Ordering::Release);
        let verdict = monitor.watch(&mut shared, start);
        shared.stop.store(true, Ordering::Release);
        // A leader standing down for its workers sleeps on a park, not a nap.
        if let Some(plane) = &shared.node_plane {
            plane.unpark_leaders();
        }
        // Joins must not unwind: the containment boundary already converts
        // worker panics into quarantines, so a join failure here means a
        // panic *outside* that boundary (setup/teardown) — fold it into the
        // abort reason instead of poisoning the caller.
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(output) => outputs.push(output),
                Err(payload) => teardown_failures.push(format!(
                    "worker {w} thread died outside containment: {}",
                    panic_message(payload.as_ref())
                )),
            }
        }
        for (n, handle) in leader_handles.into_iter().enumerate() {
            match handle.join() {
                Ok(diag) => node_reports.push(diag),
                Err(payload) => teardown_failures.push(format!(
                    "node {n} leader thread died: {}",
                    panic_message(payload.as_ref())
                )),
            }
        }
        verdict
    });

    let mut books = Books::default();
    let mut app_latency = LatencyRecorder::new();
    let mut finished_apps = Vec::with_capacity(outputs.len());
    for output in outputs {
        books.counters.merge(&output.counters);
        books.item_latency.merge(&output.latency);
        app_latency.merge(&output.app_latency);
        books.tram.merge(&output.tram);
        books.delivery_batch_len.merge(&output.batch_len);
        finished_apps.extend(output.app);
    }
    for mut app in finished_apps {
        app.on_finalize(&mut books.counters);
    }
    let mut panic_notes = shared
        .panic_notes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    panic_notes.sort();
    let view = &shared;
    let (sent, delivered, dropped) = view.ledger();
    monitor.report(
        verdict,
        Books {
            backend: Backend::Native,
            latency: LatencySummary::from_recorder(&app_latency),
            sent,
            delivered,
            dropped,
            faults_fired: shared.faults_fired.load(Ordering::Relaxed),
            arenas: shared.arenas.iter().map(|arena| arena.audit()).collect(),
            losses: panic_notes
                .iter()
                .map(|(w, msg)| format!("worker {w} panicked: {msg}"))
                .collect(),
            teardown_failures,
            wire_cut: node::wire_cut_reason(&node_reports, shared.faults.as_ref()),
            panicked_workers: panic_notes.iter().map(|(w, _)| *w).collect(),
            workers_done: shared
                .workers_done
                .iter()
                .filter(|flag| flag.load(Ordering::Acquire))
                .count() as u32,
            stashed_envelopes: shared
                .stash_depth
                .iter()
                .map(|g| g.load(Ordering::Relaxed))
                .sum(),
            inflight_ring_envelopes: view.ring_occupancy(),
            node_reports,
            ..books
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_api::{AppDefaults, AppFactory, AppSpec, ClusterSpec, RunCtx, RunOutcome, RunSpec};
    use std::time::Duration;

    /// Ad-hoc `WorkerApp` closures as an [`AppSpec`]: the defaults a test
    /// sets, and a factory cloned into every run.
    struct TestApp<F> {
        defaults: AppDefaults,
        make: F,
    }

    impl<F> AppSpec for TestApp<F>
    where
        F: FnMut(WorkerId) -> Box<dyn WorkerApp> + Clone + 'static,
    {
        fn name(&self) -> &'static str {
            "threaded-test"
        }

        fn defaults(&self) -> AppDefaults {
            self.defaults
        }

        fn factory(&self, _run: &ResolvedRunSpec) -> AppFactory {
            Box::new(self.make.clone())
        }
    }

    /// A threaded spec: `make` on `cluster` under `scheme`, with
    /// `buffer`-item buffers.
    pub(super) fn spec<F>(scheme: Scheme, cluster: ClusterSpec, buffer: usize, make: F) -> RunSpec
    where
        F: FnMut(WorkerId) -> Box<dyn WorkerApp> + Clone + 'static,
    {
        let defaults = AppDefaults {
            scheme,
            buffer_items: buffer,
            cluster,
            ..AppDefaults::default()
        };
        RunSpec::for_app(TestApp { defaults, make }).backend(Backend::Native)
    }

    /// Resolve `spec` and run it on this engine.
    fn run_spec(spec: RunSpec) -> RunReport {
        let run = spec.resolve().expect("a valid test spec");
        run_threaded(&run, spec.app().factory(&run))
    }

    /// Every worker sends `updates` items to deterministic pseudo-random
    /// destinations, then flushes; received items bump counters.
    struct RandomUpdates {
        me: WorkerId,
        remaining: u64,
        chunk: u64,
        flushed: bool,
    }

    impl WorkerApp for RandomUpdates {
        fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
            ctx.counter("app_received", 1);
            ctx.counter("app_received_checksum", item.a);
        }

        fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
            if self.remaining == 0 {
                return false;
            }
            let n = self.chunk.min(self.remaining);
            let total = ctx.total_workers() as u64;
            for _ in 0..n {
                let value = ctx.rng().below(1_000);
                let dest = WorkerId(ctx.rng().below(total) as u32);
                ctx.counter("app_sent_checksum", value);
                ctx.send(dest, Payload::new(value, self.me.0 as u64));
            }
            self.remaining -= n;
            if self.remaining == 0 && !self.flushed {
                ctx.flush();
                self.flushed = true;
            }
            true
        }

        fn local_done(&self) -> bool {
            self.remaining == 0
        }
    }

    /// Every worker a `RandomUpdates` sending `updates` items.
    fn updates(updates: u64) -> impl FnMut(WorkerId) -> Box<dyn WorkerApp> + Clone {
        move |me| {
            Box::new(RandomUpdates {
                me,
                remaining: updates,
                chunk: 64,
                flushed: false,
            })
        }
    }

    /// 8 workers in 2 processes, 32-item buffers.
    fn churn(scheme: Scheme, updates_per_worker: u64) -> RunSpec {
        spec(
            scheme,
            ClusterSpec::smp(1, 2, 4),
            32,
            updates(updates_per_worker),
        )
    }

    fn run(scheme: Scheme, updates: u64, seed: u64) -> RunReport {
        run_spec(churn(scheme, updates).seed(seed))
    }

    /// Every worker sends `chunk` items to pseudo-random destinations per
    /// idle call and flushes after each chunk, `remaining` items in all.
    struct FlushEveryChunk {
        remaining: u64,
        chunk: u64,
    }

    impl WorkerApp for FlushEveryChunk {
        fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
            ctx.counter("app_received", 1);
            ctx.counter("app_received_checksum", item.a);
        }

        fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
            if self.remaining == 0 {
                return false;
            }
            let total = ctx.total_workers() as u64;
            for _ in 0..self.chunk.min(self.remaining) {
                let value = ctx.rng().below(1_000);
                let dest = WorkerId(ctx.rng().below(total) as u32);
                ctx.counter("app_sent_checksum", value);
                ctx.send(dest, Payload::new(value, 0));
            }
            self.remaining -= self.chunk.min(self.remaining);
            ctx.flush();
            true
        }

        fn local_done(&self) -> bool {
            self.remaining == 0
        }
    }

    #[test]
    fn pp_flushes_racing_full_buffer_seals_conserve_items() {
        // Two workers per process share each claim buffer; a 7-item chunk
        // against 8-slot buffers means one sibling's explicit flush keeps
        // meeting the other's full-buffer seal at the drain lock.  Arena
        // misses are not asserted: a flush per 7 sends outruns the arena
        // sizing on every scheme (a dry arena ships singles, still
        // conserved).
        let per_worker = 20_000;
        let make = move |_: WorkerId| -> Box<dyn WorkerApp> {
            Box::new(FlushEveryChunk {
                remaining: per_worker,
                chunk: 7,
            })
        };
        let report = run_spec(spec(Scheme::PP, ClusterSpec::smp(1, 2, 2), 8, make).seed(3));
        let expected = per_worker * 4;
        assert!(report.clean(), "{}", report.summary());
        assert_eq!(report.items_sent, expected);
        assert_eq!(report.items_delivered, expected, "items lost or duplicated");
        assert_eq!(report.counter("app_received"), expected);
        assert_eq!(
            report.counter("app_sent_checksum"),
            report.counter("app_received_checksum")
        );
        assert!(report.tram.messages_full() > 0, "no full-buffer seal");
        assert!(report.tram.messages_flushed() > 0, "no flush drain");
    }

    #[test]
    fn all_items_delivered_every_scheme() {
        for scheme in Scheme::ALL {
            let report = run(scheme, 500, 7);
            let expected = 500 * 8;
            assert!(report.clean(), "{scheme}: run did not finish cleanly");
            assert_eq!(report.backend, Backend::Native);
            assert_eq!(report.items_sent, expected, "{scheme}: wrong send count");
            assert_eq!(
                report.items_delivered, expected,
                "{scheme}: items lost or duplicated"
            );
            assert_eq!(report.counter("app_received"), expected, "{scheme}");
            assert_eq!(
                report.counter("app_sent_checksum"),
                report.counter("app_received_checksum"),
                "{scheme}: checksum mismatch"
            );
            assert!(report.total_time_ns > 0);
            assert!(report.item_latency.count() > 0);
            if scheme != Scheme::NoAgg {
                // The steady state: every message of the aggregating
                // schemes was a slab, none fell back to singles.
                assert!(report.counter("arena_claims") > 0, "{scheme}");
                assert_eq!(
                    report.counter("arena_claim_misses"),
                    0,
                    "{scheme}: the arena ran dry"
                );
            }
        }
    }

    #[test]
    fn totals_are_deterministic_per_seed() {
        let a = run(Scheme::WPs, 300, 42);
        let b = run(Scheme::WPs, 300, 42);
        assert_eq!(
            a.counter("app_sent_checksum"),
            b.counter("app_sent_checksum")
        );
        assert_eq!(a.items_sent, b.items_sent);
        let c = run(Scheme::WPs, 300, 43);
        assert_ne!(
            a.counter("app_sent_checksum"),
            c.counter("app_sent_checksum"),
            "different seeds should generate different traffic"
        );
    }

    #[test]
    fn aggregation_reduces_wire_messages() {
        let none = run(Scheme::NoAgg, 400, 3);
        let agg = run(Scheme::WPs, 400, 3);
        assert!(
            agg.counter("wire_messages") < none.counter("wire_messages"),
            "aggregation should cut message count: agg={} none={}",
            agg.counter("wire_messages"),
            none.counter("wire_messages")
        );
    }

    #[test]
    fn local_bypass_skips_the_wire() {
        let report = run(Scheme::WPs, 300, 9);
        assert!(report.counter("local_deliveries") > 0);
        // With 2 processes roughly half the traffic is process-local.
        assert!(report.counter("wire_items") < report.items_sent);
    }

    #[test]
    fn local_bypass_ships_batches_not_items() {
        // The quantum rule: what a chunked generator sends to one local
        // destination within a quantum leaves as one batch...
        let report = run(Scheme::WPs, 500, 21);
        assert!(report.clean());
        let items = report.counter("local_deliveries");
        let batches = report.counter("local_batches");
        assert!(batches > 0, "local traffic must ride in batches");
        assert!(
            batches < items,
            "batching must coalesce local sends: {batches} batches for {items} items"
        );
        // ...and no batch grows past the run's own buffer size: one process,
        // so every item is local, 32 sends per destination per quantum into
        // 8-item buffers.
        let report = run_spec(spec(
            Scheme::WPs,
            ClusterSpec::smp(1, 1, 2),
            8,
            updates(640),
        ));
        assert!(report.clean());
        assert_eq!(report.counter("local_deliveries"), 1280);
        assert!(
            report.delivery_batch_len.max() <= 8.0,
            "a {}-item batch outgrew the 8-item buffer",
            report.delivery_batch_len.max()
        );
        assert!(report.counter("local_batches") < 1280, "per-item shipping");
    }

    #[test]
    fn grouping_recycles_on_every_store() {
        // A steady stream of process-addressed messages must recycle its
        // slabs, whichever path filled them — PP copies drained claim
        // buffers into them, WPs copies each full aggregator buffer into
        // one as it ships: claims keep succeeding
        // (zero misses) because each slab's last consumer frees it into its
        // owner's arena.
        for scheme in [Scheme::PP, Scheme::WPs] {
            let report = run(scheme, 2_000, 5);
            assert!(report.clean(), "{scheme}");
            let claims = report.counter("arena_claims");
            assert!(claims > 0, "{scheme}: the arena must claim slabs");
            assert_eq!(
                report.counter("arena_claim_misses"),
                0,
                "{scheme}: slab recycling must keep the arena from running dry ({claims} claims)"
            );
            assert!(
                report.counter("wire_items") > 0,
                "{scheme}: the sweep must actually cross the wire"
            );
        }
    }

    #[test]
    fn pp_uses_shared_claim_buffers() {
        let report = run(Scheme::PP, 500, 11);
        assert!(report.clean());
        // The PP path records its stats manually; inserts must show up.
        assert!(report.tram.items_inserted() > 0);
        assert!(
            report.counter("grouping_passes") > 0,
            "PP groups at the destination"
        );
    }

    #[test]
    fn watchdog_reports_unclean_instead_of_hanging() {
        // An app that strands items in a buffer it never flushes (and a policy
        // that never flushes them either) must terminate via the watchdog.
        struct Strander {
            sent: bool,
        }
        impl WorkerApp for Strander {
            fn on_item(&mut self, _item: Payload, _created: u64, _ctx: &mut dyn RunCtx) {}
            fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
                if self.sent {
                    return false;
                }
                self.sent = true;
                let dest = WorkerId((ctx.my_id().0 + 4) % 8);
                ctx.send(dest, Payload::new(1, 2));
                true
            }
            fn local_done(&self) -> bool {
                self.sent
            }
        }
        let report = run_spec(
            spec(Scheme::WW, ClusterSpec::smp(1, 2, 4), 1024, |_| {
                Box::new(Strander { sent: false })
            })
            .max_wall(Duration::from_millis(150)),
        );
        assert!(
            !report.clean(),
            "stranded items must be reported, not hidden"
        );
        let RunOutcome::Aborted {
            reason,
            diagnostics,
        } = &report.outcome
        else {
            panic!("stranding must abort, got {:?}", report.outcome);
        };
        assert!(reason.contains("watchdog"), "{reason}");
        assert_eq!(diagnostics.total_workers, 8);
        assert!(diagnostics.panicked_workers.is_empty(), "nobody panicked");
        assert!(report.items_delivered < report.items_sent);
    }

    #[test]
    fn injected_panic_quarantines_and_aborts() {
        // A worker panicking mid-run must be contained: the other seven
        // drain, the run ends `Aborted` in bounded time with exact item
        // conservation (sent == delivered + dropped), zero leaked slab
        // slots, and the same outcome signature on every run of the seed.
        let run_once = || {
            run_spec(
                churn(Scheme::WW, 2_000)
                    .seed(7)
                    .max_wall(Duration::from_secs(20))
                    .faults(FaultPlan::seeded(7).panic_at_items(2, 1_000)),
            )
        };
        let a = run_once();
        let RunOutcome::Aborted {
            reason,
            diagnostics,
        } = &a.outcome
        else {
            panic!("expected an aborted outcome, got {:?}", a.outcome);
        };
        assert!(reason.contains("worker 2 panicked"), "{reason}");
        assert_eq!(diagnostics.panicked_workers, vec![2]);
        assert_eq!(
            diagnostics.items_delivered + diagnostics.items_dropped,
            diagnostics.items_sent,
            "conservation must hold on aborted runs: {}",
            diagnostics.render()
        );
        assert_eq!(
            diagnostics.leaked_slabs(),
            0,
            "quarantine must not leak slab slots: {}",
            diagnostics.render()
        );
        assert_eq!(diagnostics.unaccounted_slabs(), 0);
        assert_eq!(a.counter("fault_panic"), 1);
        let b = run_once();
        assert_eq!(
            a.outcome.signature(),
            b.outcome.signature(),
            "one seed must reproduce one outcome"
        );
    }

    #[test]
    fn injected_stall_and_ring_burst_degrade_deterministically() {
        // Stalls and ring bursts delay but never lose items: the run still
        // reaches quiescence with exact totals, reported `Degraded`.
        let run_once = || {
            let plan = FaultPlan::from_specs(
                11,
                [
                    runtime_api::FaultSpec {
                        worker: 1,
                        kind: runtime_api::FaultKind::Stall { micros: 20_000 },
                        trigger: runtime_api::FaultTrigger::Items(500),
                    },
                    runtime_api::FaultSpec {
                        worker: 3,
                        kind: runtime_api::FaultKind::RingBurst { quanta: 500 },
                        trigger: runtime_api::FaultTrigger::Items(500),
                    },
                ],
            );
            run_spec(
                churn(Scheme::WW, 1_000)
                    .seed(11)
                    .max_wall(Duration::from_secs(20))
                    .faults(plan),
            )
        };
        let a = run_once();
        assert_eq!(
            a.outcome,
            RunOutcome::Degraded { faults_injected: 2 },
            "got {:?}",
            a.outcome
        );
        assert!(a.clean(), "degraded runs still conserve items");
        assert_eq!(a.items_sent, 1_000 * 8);
        assert_eq!(a.items_delivered, 1_000 * 8);
        assert_eq!(a.counter("fault_stall"), 1);
        assert_eq!(a.counter("fault_ring_burst"), 1);
        assert_eq!(a.counter("items_dropped"), 0);
        let b = run_once();
        assert_eq!(a.outcome.signature(), b.outcome.signature());
        assert_eq!(
            a.counter("app_sent_checksum"),
            b.counter("app_sent_checksum")
        );
    }

    #[test]
    fn arena_dry_fault_forces_single_fallback_without_leaks() {
        // Exhausting the slab arena must degrade to inline singles (visible
        // as claim misses), never stall, lose items, or leak the slabs the
        // fault held — and the fallback must count as exactly the messages
        // the slabs would have been: worker-addressed under WW,
        // process-addressed (grouped at the destination under WPs, at the
        // source under WsP) otherwise.
        for scheme in [Scheme::WW, Scheme::WPs, Scheme::WsP] {
            let run_once = |faults: FaultPlan| {
                run_spec(
                    churn(scheme, 2_000)
                        .seed(13)
                        .max_wall(Duration::from_secs(20))
                        .faults(faults),
                )
            };
            let plan = FaultPlan::from_specs(
                13,
                [runtime_api::FaultSpec {
                    worker: 0,
                    kind: runtime_api::FaultKind::ArenaDry { micros: 20_000 },
                    trigger: runtime_api::FaultTrigger::Items(200),
                }],
            );
            let report = run_once(plan);
            let healthy = run_once(FaultPlan::default());
            assert!(healthy.clean(), "{scheme}");
            assert_eq!(
                report.outcome,
                RunOutcome::Degraded { faults_injected: 1 },
                "{scheme}"
            );
            assert_eq!(report.items_delivered, 2_000 * 8, "{scheme}");
            assert_eq!(report.counter("fault_arena_dry"), 1, "{scheme}");
            assert!(
                report.counter("arena_claim_misses") > 0,
                "{scheme}: a dry arena must fall back to singles"
            );
            assert_eq!(
                report.counter("leaked_slabs"),
                0,
                "{scheme}: held slabs must be released when the fault expires"
            );
            for counter in [
                "app_received_checksum",
                "wire_items",
                "wire_messages",
                "wire_bytes",
            ] {
                assert_eq!(
                    report.counter(counter),
                    healthy.counter(counter),
                    "{scheme}: {counter} diverged from the fault-free run"
                );
            }
            assert_eq!(report.items_delivered, healthy.items_delivered, "{scheme}");
        }
    }

    #[test]
    fn tiny_mesh_rings_still_deliver_everything() {
        // Force constant backpressure: rings of capacity 1 make almost every
        // push overflow into the stash, exercising the retry path end to end.
        let tiny = spec(Scheme::WW, ClusterSpec::smp(1, 2, 2), 4, updates(2_000)).seed(3);
        let report = sizing::test_ring::with_capacity(1, || run_spec(tiny));
        assert!(report.clean(), "stash path must drain under backpressure");
        assert_eq!(report.items_sent, 2_000 * 4);
        assert_eq!(report.items_delivered, 2_000 * 4);
    }

    /// Each worker seeds `seeds` relay chains of `hops` forwards each; a
    /// delivered item with hops left is forwarded to a pseudo-random worker.
    struct Relay {
        seeds: u64,
        hops: u64,
        seeded: bool,
    }

    impl WorkerApp for Relay {
        fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
            ctx.counter("relay_delivered", 1);
            if item.a > 0 {
                let total = ctx.total_workers() as u64;
                let dest = WorkerId(ctx.rng().below(total) as u32);
                ctx.counter("relay_forwarded", 1);
                ctx.send(dest, Payload::new(item.a - 1, item.b));
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

    #[test]
    fn relay_chains_survive_constant_backpressure() {
        // Idle-flushed relay chains on rings small enough that forwards
        // regularly overflow into the stash: late-arriving batches and
        // backpressure retries at once.  Every chain is seeded once and
        // forwarded exactly `hops` times, so the totals are closed-form.
        let (workers, seeds, hops) = (8u64, 2u64, 12u64);
        let expected = workers * seeds * (1 + hops);
        for round in 0..10u64 {
            let relay = move |_| -> Box<dyn WorkerApp> {
                Box::new(Relay {
                    seeds,
                    hops,
                    seeded: false,
                })
            };
            let defaults = AppDefaults {
                scheme: Scheme::WPs,
                buffer_items: 64,
                flush_policy: tramlib::FlushPolicy::ON_IDLE,
                cluster: ClusterSpec::smp(1, 2, 4),
                ..AppDefaults::default()
            };
            let relays = RunSpec::for_app(TestApp {
                defaults,
                make: relay,
            })
            .backend(Backend::Native)
            .seed(0xBACC_0000 + round)
            .max_wall(Duration::from_secs(30));
            let report = sizing::test_ring::with_capacity(1, || run_spec(relays));
            assert!(
                report.clean(),
                "round {round}: run did not terminate cleanly"
            );
            assert_eq!(
                report.items_sent, expected,
                "round {round}: wrong send total"
            );
            assert_eq!(
                report.items_delivered, expected,
                "round {round}: items lost or duplicated"
            );
            assert_eq!(
                report.counter("relay_delivered"),
                expected,
                "round {round}: handler executions diverge from deliveries"
            );
            assert_eq!(
                report.counter("relay_forwarded"),
                workers * seeds * hops,
                "round {round}: wrong forward count"
            );
        }
    }

    #[test]
    fn resolved_arena_covers_every_ring_slot() {
        let tram = TramConfig::new(Scheme::WW, Topology::smp(1, 4, 4));
        let workers = 16;
        // One slab per destination + every outgoing ring slot + stash slack:
        // a sender whose rings are all full still cannot run the arena dry.
        let ring = sizing::ring_capacity(Scheme::WW, workers);
        assert_eq!(
            sizing::arena_slabs(&tram, workers),
            workers + workers * ring + sizing::INBOX_BUDGET + 4 * sizing::STASH_THROTTLE
        );
        // PP ships its drained claim buffers as slabs; only NoAgg never
        // builds an arena.
        assert!(sizing::uses_arena(Scheme::PP));
        assert!(!sizing::uses_arena(Scheme::NoAgg));
    }
}
