//! The full threaded backend: real applications on real threads.
//!
//! One OS thread per worker PE.  An N×N mesh of bounded SPSC rings connects
//! every pair of workers directly; each ring has exactly one producer (the
//! source worker) and one consumer (the destination worker), so the hot path
//! is lock-free end to end:
//!
//! ```text
//! worker thread ──insert──▶ Aggregator (WW/WPs/WsP/NoAgg, private)
//!                           ClaimBuffer (PP, shared, lock-free)
//!        │                                         │ sealed/flushed message
//!        │ local bypass: item batches              ▼
//!        └─────────▶ mesh[src][dst] SPSC ring ──▶ destination worker:
//!                                                  grouping pass runs HERE
//!        spent vectors ◀── returns[src][dst] ◀──  (per-worker PooledReceiver)
//! ```
//!
//! A process-addressed message (WPs/WsP/PP) is routed to the destination
//! worker chosen by [`net_model::Topology::group_receiver`] — the same rule
//! the simulator uses — which runs the receive-side grouping pass locally and
//! forwards peer workers' slices as pre-grouped batches over its own mesh
//! rows.  Spent vectors ride per-pair return rings back to the worker that
//! filled them, so every pool (aggregator, receiver, local-bypass spares)
//! stays hot without a central broker.  A full mesh ring never blocks the
//! sender: after one failed push the envelope parks in a per-destination
//! stash that is retried every loop iteration — backpressure without the
//! deadlock a blocking N×N mesh invites (two workers pushing to each other's
//! full rings would otherwise both stop draining).
//!
//! **Termination.**  Every `send` increments the sending worker's padded
//! `items_sent` slot and every completed `on_item` handler batch increments
//! the delivering worker's `items_delivered` slot — per-worker counters, so
//! the hot path never bounces a shared cache line.  An item that is buffered,
//! stashed, in flight, or queued keeps the `items_sent` sum ahead of the
//! `items_delivered` sum, so once every worker reports
//! [`runtime_api::WorkerApp::local_done`] (monotonic by contract) and the two
//! sums agree across a double-read of the sent sum, no handler is running and
//! none can ever run again — the run is quiescent.  (Each item's sent
//! increment happens-before its delivered increment through the ring's
//! release/acquire hand-off, so an item counted in the delivered sum is
//! always visible in the following sent read.)  A watchdog wall-clock limit
//! turns an application that strands items in unflushed buffers into an
//! [`runtime_api::RunOutcome::Aborted`] report instead of a hang, mirroring
//! the simulator's aborted runs.
//!
//! **Failure containment.**  Each worker loop runs inside a `catch_unwind`
//! boundary.  A panicking worker is *quarantined*, not propagated: it records
//! its panic, abandons its unshipped production (counted into a per-worker
//! `items_dropped` ledger), and keeps draining its rings — honouring slab
//! refcounts and return-ring protocol without delivering — so its peers never
//! wedge behind a dead consumer.  The monitor treats panicked workers as done
//! and closes the run once `sent == delivered + dropped` holds across a
//! double-read, ending it `Aborted` with structured diagnostics (per-worker
//! heartbeat stalls, ring/stash occupancy, and a slab-arena reclamation
//! audit).  Deterministic fault injection ([`runtime_api::FaultPlan`])
//! exercises exactly these paths; see the `faults` module.

mod ctx;
mod faults;
mod mesh;
mod node;

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use metrics::LatencySummary;
use metrics::{Counters, LatencyRecorder};
use net_model::{Topology, WorkerId};
use runtime_api::{
    ArenaAudit, Backend, FaultKind, FaultPlan, NodeDiag, Payload, ResolvedRunSpec, RunDiagnostics,
    RunOutcome, RunReport, TransportKind, WorkerApp,
};
use shmem::{ClaimBuffer, SlabArena, SlabHandle, SlabRange, SpscRing};
use tramlib::{Item, OutboundMessage, Scheme, SlabSealed, TramConfig, TramStats};
use transport::Transport;

use crate::sizing;

pub(crate) use ctx::NativeWorkerCtx;

/// A vector of items, all addressed to the same worker, ready for its handler.
pub(crate) type Batch = Vec<Item<Payload>>;

/// One unit of worker↔worker traffic on the delivery mesh.
#[derive(Debug)]
pub(crate) enum Envelope {
    /// An aggregated message exactly as the source emitted it;
    /// process-addressed envelopes get the grouping pass at the receiving
    /// worker.
    Message(OutboundMessage<Payload>),
    /// A zero-copy aggregated message: the items sit in the emitting worker's
    /// slab arena and only this descriptor rides the ring.  The ring's `src`
    /// identifies the owning arena.
    Slab(SlabSealed),
    /// A pre-grouped per-worker index range of a process-addressed slab,
    /// forwarded by the worker that ran the grouping pass.  `owner` is the
    /// worker whose arena holds the slab (not necessarily the forwarder).
    SlabSlice { owner: u32, range: SlabRange },
    /// A worker-addressed raw item batch: local-bypass traffic and the
    /// grouped slices a receiving worker forwards to its process peers.
    Batch(Batch),
    /// A single-item worker-addressed message (NoAgg), carried inline: no
    /// heap vector rides the mesh, so the per-item scheme pays neither an
    /// allocation nor a return-ring round trip per message.  The wire
    /// counters were already recorded at emit time — this is a transport
    /// compression, not a semantic change.
    Single(Item<Payload>),
}

/// One unit of traffic on a per-pair return ring: a spent heap vector going
/// home to the pool that filled it, or a spent slab handle going home to the
/// arena that owns it.
#[derive(Debug)]
pub(crate) enum Spent {
    Batch(Batch),
    Slab(SlabHandle),
}

/// How many spare batch vectors a worker keeps for its own staging buffers
/// (local-bypass and wire batches) before handing further returns to the
/// aggregator pool (or dropping them); a node leader keeps as many emptied
/// uplink vectors for its downlink batches.
pub(crate) const SPARE_BATCHES: usize = 32;

/// The delivery plane: per-pair envelope rings and per-pair batch-return
/// rings, both flattened `src * workers + dst`.
pub(crate) struct MeshPlane {
    workers: usize,
    /// `inbox[src * workers + dst]`: envelopes from worker `src` to worker
    /// `dst`.  Producer `src`, consumer `dst`.
    inbox: Vec<SpscRing<Envelope>>,
    /// `returns[src * workers + dst]`: spent storage (heap vectors and slab
    /// handles alike) flowing back from the worker that consumed it (`dst`)
    /// to the worker that filled it (`src`).  Producer `dst`, consumer `src`.
    returns: Vec<SpscRing<Spent>>,
}

impl MeshPlane {
    fn new(workers: usize, capacity: usize) -> Self {
        let pairs = workers * workers;
        Self {
            workers,
            inbox: (0..pairs).map(|_| SpscRing::new(capacity)).collect(),
            returns: (0..pairs).map(|_| SpscRing::new(capacity)).collect(),
        }
    }

    /// The envelope ring from worker `src` to worker `dst`.
    pub(crate) fn ring(&self, src: usize, dst: usize) -> &SpscRing<Envelope> {
        &self.inbox[src * self.workers + dst]
    }

    /// The spent-storage return ring of the `src → dst` pair (`dst` produces,
    /// `src` consumes).
    pub(crate) fn return_ring(&self, src: usize, dst: usize) -> &SpscRing<Spent> {
        &self.returns[src * self.workers + dst]
    }

    /// Envelopes currently sitting in delivery rings — a racy gauge, read
    /// only for abort diagnostics (never for termination decisions).
    fn inflight_envelopes(&self) -> u64 {
        self.inbox.iter().map(|r| r.len() as u64).sum()
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
    /// Slab-arena store only: one arena per worker, indexed by worker id.
    /// Every thread can borrow slices from every arena; claims and releases
    /// stay with the owning worker.
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
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sum of the per-worker sent counters (Acquire loads).
    fn sent_sum(&self) -> u64 {
        self.items_sent
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }

    /// Sum of the per-worker delivered counters (Acquire loads).
    fn delivered_sum(&self) -> u64 {
        self.items_delivered
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }

    /// Sum of the per-worker dropped counters plus the node tier's drop
    /// ledgers (Acquire loads) — the full right-hand side of the
    /// cross-node conservation invariant.
    fn dropped_sum(&self) -> u64 {
        let workers: u64 = self
            .items_dropped
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum();
        workers + self.node_plane.as_ref().map_or(0, |p| p.dropped_sum())
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
    let tram = run.tram();
    let topo = tram.topology;
    let workers = topo.total_workers() as usize;
    let scheme = tram.scheme;
    let plane = MeshPlane::new(workers, sizing::ring_capacity(scheme, workers));
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
    let arenas = if sizing::uses_arena(scheme) {
        let slabs = sizing::arena_slabs(&tram, workers);
        (0..workers)
            .map(|_| SlabArena::new(slabs, tram.buffer_items))
            .collect()
    } else {
        Vec::new()
    };
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
    // Single-node placement needs no binding and no drain-order bias.
    let numa_aware = worker_node.iter().any(|&n| n != 0);
    // The node-leader tier exists only when the topology actually spans
    // nodes AND a transport was asked for; otherwise multi-node topologies
    // keep running entirely in-process, exactly as before.
    let node_transport = run.transport.filter(|_| topo.nodes() > 1);
    let transports: Vec<Box<dyn Transport>> = match node_transport {
        None => Vec::new(),
        // Mesh construction failures are configuration/environment errors
        // caught before any worker spawns — panicking here is a clean
        // refusal, not a mid-run crash.
        Some(TransportKind::Tcp) => transport::TcpTransport::loopback_mesh(topo.nodes(), run.seed)
            .expect("failed to build the loopback TCP mesh")
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        Some(TransportKind::Uds) => {
            #[cfg(unix)]
            {
                transport::UdsTransport::pair_mesh(topo.nodes())
                    .expect("failed to build the unix-domain socket mesh")
                    .into_iter()
                    .map(|t| Box::new(t) as Box<dyn Transport>)
                    .collect()
            }
            #[cfg(not(unix))]
            {
                unreachable!("resolve rejects the uds transport on non-unix hosts")
            }
        }
        Some(TransportKind::Sim) => {
            transport::SimTransport::mesh(topo.nodes(), net_model::AlphaBeta::loopback())
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect()
        }
    };
    let node_plane = node_transport.map(|_| node::NodePlane::new(topo.nodes(), workers));
    let shared = Shared {
        tram,
        topo,
        seed: run.seed,
        epoch: Instant::now(),
        go: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        quiesce: AtomicBool::new(false),
        items_sent: (0..workers)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
        items_delivered: (0..workers)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
        workers_done: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        items_dropped: (0..workers)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
        heartbeats: (0..workers)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
        stash_depth: (0..workers)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect(),
        panicked: (0..workers).map(|_| AtomicBool::new(false)).collect(),
        panic_notes: Mutex::new(Vec::new()),
        faults_fired: AtomicU64::new(0),
        faults: run.faults,
        pp,
        arenas,
        pin_workers: run.pin_workers,
        worker_node,
        numa_aware,
        plane,
        node_plane,
    };
    let apps: Vec<Box<dyn WorkerApp>> = topo.all_workers().map(&mut make_app).collect();

    /// How the monitor's wait for quiescence ended.
    enum Verdict {
        /// Every worker done, conservation holds, nobody panicked.
        Quiescent,
        /// Conservation settled, but at least one worker was quarantined.
        Panicked,
        /// The wall-clock watchdog expired first.
        Watchdog,
    }

    let mut outputs: Vec<WorkerOutput> = Vec::with_capacity(workers);
    let mut verdict = Verdict::Watchdog;
    let mut stalled_ever = vec![false; workers];
    let mut join_failures: Vec<String> = Vec::new();
    let mut total_time_ns = 0;
    // Installed before the workers spawn so every thread inherits the
    // blocked mask — a SIGINT must reach the signalfd, not kill a worker.
    // The guard restores the previous mask when `run_threaded` returns.
    let mut signals = if run.graceful_signals {
        crate::signals::SignalGuard::install()
    } else {
        None
    };
    let mut interrupted_by: Option<i32> = None;
    let mut node_reports: Vec<NodeDiag> = Vec::new();
    std::thread::scope(|scope| {
        let shared = &shared;
        // Node leaders spawn alongside the workers and exit on the same
        // `stop` flag; they never gate the start barrier because they move
        // no traffic until workers feed their uplinks.
        let leader_handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(n, t)| scope.spawn(move || node::leader_main(shared, n as u32, t)))
            .collect();
        let handles: Vec<_> = topo
            .all_workers()
            .zip(apps)
            .map(|(w, app)| scope.spawn(move || mesh::worker_main(shared, w, app)))
            .collect();

        // Release the start barrier only once every thread exists: the
        // measured window is pure run time, not OS thread creation (whose
        // cost scales with the worker count and would bias cluster sweeps).
        let start = Instant::now();
        shared.go.store(true, Ordering::Release);

        // Quiescence monitor — the control plane: watch the per-worker done
        // flags and the sent/delivered counter sums (see the module docs for
        // why the double-read of the sent sum around the delivered sum is
        // sufficient), enforce the watchdog, and signal stop.
        //
        // Escalation ladder: (1) per-worker heartbeat scan marks soft stalls
        // (frozen beat past the grace period) for the diagnostics; (2) a
        // quarantined worker counts as done and its drops enter the
        // conservation ledger, so a panicked run still ends in bounded time
        // once the survivors drain; (3) the wall-clock watchdog is the hard
        // backstop that turns anything else into an `Aborted` report.
        let deadline = start + run.max_wall;
        let grace = (run.max_wall / 8).clamp(Duration::from_millis(50), Duration::from_secs(2));
        let mut last_beats = vec![0u64; workers];
        let mut last_progress = vec![start; workers];
        verdict = loop {
            let any_panicked = shared
                .panicked
                .iter()
                .any(|flag| flag.load(Ordering::Acquire));
            let all_done = shared.workers_done.iter().enumerate().all(|(w, flag)| {
                flag.load(Ordering::Acquire) || shared.panicked[w].load(Ordering::Acquire)
            });
            if all_done {
                let sent_before = shared.sent_sum();
                let delivered = shared.delivered_sum();
                let dropped = shared.dropped_sum();
                let sent_after = shared.sent_sum();
                if sent_before == sent_after && delivered + dropped == sent_before {
                    break if any_panicked {
                        Verdict::Panicked
                    } else {
                        Verdict::Quiescent
                    };
                }
            }
            let now = Instant::now();
            if now > deadline {
                break Verdict::Watchdog;
            }
            // A delivered SIGINT/SIGTERM turns into a quiesce request: every
            // worker stops generating, flushes once and reports done, so the
            // run drains to a conservation-exact `Degraded` report instead of
            // dying mid-flight.
            if interrupted_by.is_none() {
                if let Some(signo) = signals.as_mut().and_then(|g| g.pending()) {
                    interrupted_by = Some(signo);
                    shared.quiesce.store(true, Ordering::Release);
                }
            }
            for w in 0..workers {
                let beats = shared.heartbeats[w].load(Ordering::Relaxed);
                if beats != last_beats[w] {
                    last_beats[w] = beats;
                    last_progress[w] = now;
                } else if !shared.workers_done[w].load(Ordering::Acquire)
                    && now.duration_since(last_progress[w]) > grace
                {
                    stalled_ever[w] = true;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        // The run ends at the quiescence instant; thread teardown (workers
        // notice `stop` within one idle nap) is not part of the run.
        total_time_ns = start.elapsed().as_nanos() as u64;
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
                Err(payload) => join_failures.push(format!(
                    "worker {w} thread died outside containment: {}",
                    panic_message(payload.as_ref())
                )),
            }
        }
        for (n, handle) in leader_handles.into_iter().enumerate() {
            match handle.join() {
                Ok(diag) => node_reports.push(diag),
                Err(payload) => join_failures.push(format!(
                    "node {n} leader thread died: {}",
                    panic_message(payload.as_ref())
                )),
            }
        }
    });

    let mut counters = Counters::new();
    let mut latency = LatencyRecorder::new();
    let mut app_latency = LatencyRecorder::new();
    let mut tram = TramStats::new();
    let mut delivery_batch_len = metrics::QuantileSketch::default();
    let mut finished_apps = Vec::with_capacity(outputs.len());
    for output in outputs {
        counters.merge(&output.counters);
        latency.merge(&output.latency);
        app_latency.merge(&output.app_latency);
        tram.merge(&output.tram);
        delivery_batch_len.merge(&output.batch_len);
        if let Some(app) = output.app {
            finished_apps.push(app);
        }
    }
    for mut app in finished_apps {
        app.on_finalize(&mut counters);
    }

    // Post-join reclamation sweep: spent slab handles still riding the
    // return rings when `stop` landed go home to their arenas before the
    // audit charges them as leaks.  Safe — every worker has joined, so this
    // thread is the rings' only remaining accessor.
    if !shared.arenas.is_empty() {
        for src in 0..workers {
            for dst in 0..workers {
                while let Some(spent) = shared.plane.return_ring(src, dst).pop() {
                    if let Spent::Slab(handle) = spent {
                        shared.arenas[src].release(handle.slab);
                    }
                }
            }
        }
    }

    // Reclamation audit: with every thread joined the arenas are externally
    // quiescent, so the books must balance — every slab free, in flight
    // (impossible after a full drain on a clean run), or leaked.  Always
    // computed: a clean run asserting `leaked_slabs == 0` is the audit's
    // regression test, and a dirty run needs the tally for its diagnostics.
    let arena_audits: Vec<ArenaAudit> = shared
        .arenas
        .iter()
        .enumerate()
        .map(|(w, arena)| {
            let audit = arena.audit();
            ArenaAudit {
                worker: w as u32,
                slabs: audit.slabs,
                free: audit.free,
                in_flight: audit.in_flight,
                leaked: audit.leaked,
                double_released: audit.double_released,
            }
        })
        .collect();
    let leaked_slabs: u32 = arena_audits.iter().map(|a| a.leaked).sum();
    let wire_faults_fired: u64 = node_reports.iter().map(|d| d.wire_faults_fired).sum();
    let faults_injected = shared.faults_fired.load(Ordering::Relaxed) + wire_faults_fired;
    let items_dropped = shared.dropped_sum();
    counters.add("leaked_slabs", leaked_slabs as u64);
    counters.add("faults_injected", faults_injected);
    counters.add("items_dropped", items_dropped);
    if let Some(signo) = interrupted_by {
        counters.add("interrupted", 1);
        counters.add("interrupted_signal", signo as u64);
    }
    drop(signals);

    let items_sent = shared.sent_sum();
    let items_delivered = shared.delivered_sum();
    // A cut inter-node link means traffic was adopted into the drop ledger:
    // the run *settled* (conservation holds) but did not complete, so it
    // aborts with exact books.  The reason is derived from the fault plan
    // (plan order), not from which leader noticed first — identical across
    // runs of the same seed even though cut propagation is racy.
    let any_link_cut = node_reports.iter().any(|d| d.links.iter().any(|l| !l.up));
    let wire_cut_reason = if any_link_cut {
        let planned = |kind_is: fn(&FaultKind) -> bool| {
            shared
                .faults
                .as_ref()
                .and_then(|plan| plan.iter().find(|s| kind_is(&s.kind)).map(|s| s.worker))
        };
        Some(
            if let Some(node) = planned(|k| matches!(k, FaultKind::NetPartition)) {
                format!("wire partition: node {node} isolated")
            } else if let Some(node) = planned(|k| matches!(k, FaultKind::NetDisconnect)) {
                format!("wire disconnect: node {node} link cut")
            } else {
                // No planned cut (a real peer death or exhausted retransmit
                // budget): prefer the initiating side's concrete cause over
                // the other side's generic "peer cut" echo, then first in
                // node/peer order.
                let cuts: Vec<(u32, u32, Option<String>)> = node_reports
                    .iter()
                    .flat_map(|d| {
                        d.links
                            .iter()
                            .filter(|l| !l.up)
                            .map(move |l| (d.node, l.peer, l.cause.clone()))
                    })
                    .collect();
                cuts.iter()
                    .find(|(_, _, c)| c.as_deref().is_some_and(|c| c != "peer cut"))
                    .or_else(|| cuts.first())
                    .map(|(node, peer, cause)| {
                        format!(
                            "wire failure: node {node} link to node {peer} cut ({})",
                            cause.clone().unwrap_or_else(|| "unknown".to_string())
                        )
                    })
                    .unwrap_or_else(|| "wire failure: link cut".to_string())
            },
        )
    } else {
        None
    };
    let outcome = match verdict {
        Verdict::Quiescent if join_failures.is_empty() && wire_cut_reason.is_none() => {
            if faults_injected == 0 && interrupted_by.is_none() {
                RunOutcome::Clean
            } else {
                RunOutcome::Degraded {
                    faults_injected: faults_injected as u32,
                }
            }
        }
        _ => {
            let mut panic_notes = match shared.panic_notes.lock() {
                Ok(notes) => notes.clone(),
                Err(poisoned) => poisoned.into_inner().clone(),
            };
            panic_notes.sort();
            let diagnostics = RunDiagnostics {
                process_exits: Vec::new(),
                panicked_workers: panic_notes.iter().map(|(w, _)| *w).collect(),
                stalled_workers: stalled_ever
                    .iter()
                    .enumerate()
                    .filter_map(|(w, &stalled)| stalled.then_some(w as u32))
                    .collect(),
                workers_done: shared
                    .workers_done
                    .iter()
                    .filter(|flag| flag.load(Ordering::Acquire))
                    .count() as u32,
                total_workers: workers as u32,
                items_sent,
                items_delivered,
                items_dropped,
                stashed_envelopes: shared
                    .stash_depth
                    .iter()
                    .map(|g| g.load(Ordering::Relaxed))
                    .sum(),
                inflight_ring_envelopes: shared.plane.inflight_envelopes(),
                arena_audits: arena_audits.clone(),
                node_reports: node_reports.clone(),
            };
            // Reason selection is deterministic per seed: the first panic in
            // worker order beats join failures beats wire cuts beats the
            // watchdog.
            let reason = if let Some((w, msg)) = panic_notes.first() {
                format!("worker {w} panicked: {msg}")
            } else if let Some(failure) = join_failures.first() {
                failure.clone()
            } else if let Some(cut) = wire_cut_reason {
                cut
            } else {
                format!(
                    "watchdog: not quiescent within {:.3}s",
                    run.max_wall.as_secs_f64()
                )
            };
            RunOutcome::Aborted {
                reason,
                diagnostics,
            }
        }
    };
    RunReport {
        backend: Backend::Native,
        total_time_ns,
        latency: LatencySummary::from_recorder(&app_latency),
        item_latency: latency,
        counters,
        tram,
        delivery_batch_len,
        events_executed: 0,
        items_sent,
        items_delivered,
        outcome,
        node_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_api::{AppDefaults, AppFactory, AppSpec, ClusterSpec, RunCtx, RunSpec};

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
    fn spec<F>(scheme: Scheme, cluster: ClusterSpec, buffer: usize, make: F) -> RunSpec
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
            if matches!(scheme, Scheme::WW | Scheme::WPs | Scheme::WsP) {
                // The zero-copy steady state: every buffer of the slab-arena
                // schemes was a slab, none fell back to a heap vector.
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
        // message storage, whatever that storage is: PP's heap vectors
        // reuse grouping vectors; the slab arena recycles slabs (claims
        // keep succeeding — zero misses — because consumed slabs come home
        // over the return rings).
        let report = run(Scheme::PP, 2_000, 5);
        assert!(report.clean());
        let hits = report.counter("batch_pool_hits");
        let misses = report.counter("batch_pool_misses");
        assert!(
            hits > 0,
            "grouping must reuse vectors (hits={hits} misses={misses})"
        );
        let report = run(Scheme::WPs, 2_000, 5);
        assert!(report.clean());
        let claims = report.counter("arena_claims");
        assert!(claims > 0, "arena store must claim slabs");
        assert_eq!(
            report.counter("arena_claim_misses"),
            0,
            "slab recycling must keep the arena from running dry ({claims} claims)"
        );
        assert!(
            report.counter("wire_items") > 0,
            "the sweep must actually cross the wire"
        );
    }

    #[test]
    fn mesh_returns_message_vectors_to_their_origin() {
        // The per-pair return rings feed the sending aggregators: a steady
        // WW workload must show aggregator pool hits (vectors coming home),
        // not just receiver-side reuse.
        let report = run(Scheme::WW, 3_000, 15);
        assert!(report.clean());
        assert!(
            report.counter("agg_pool_hits") > 0,
            "sealed-buffer vectors must come back over the return rings"
        );
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
    fn arena_dry_fault_forces_vec_fallback_without_leaks() {
        // Exhausting the slab arena must degrade to pooled heap vectors
        // (visible as claim misses), never stall, lose items, or leak the
        // slabs the fault held — and the heap-vector messages must carry
        // exactly what the slabs would have: worker-addressed under WW,
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
                "{scheme}: a dry arena must fall back to heap vectors"
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
        // PP and NoAgg never build arenas at all.
        assert!(!sizing::uses_arena(Scheme::PP));
        assert!(!sizing::uses_arena(Scheme::NoAgg));
    }
}
