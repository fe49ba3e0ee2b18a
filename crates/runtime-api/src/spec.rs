//! The unified run specification: one front door for every backend.
//!
//! The backends each have their own config struct (`SimConfig`,
//! `NativeBackendConfig`); this module describes a run once, for all of
//! them, with a single builder:
//!
//! ```ignore
//! let report = RunSpec::for_app(Histogram::new().updates(100_000))
//!     .backend(Backend::Native)
//!     .scheme(Scheme::WPs)
//!     .cluster(ClusterSpec::small_smp(1))
//!     .run();
//! ```
//!
//! The pieces:
//!
//! * [`CommonConfig`] — the fields both backend configs share (TramLib setup
//!   and seed), embedded by `SimConfig` and `NativeBackendConfig` so they
//!   can never drift;
//! * [`ClusterSpec`] — the cluster shape in the paper's terms;
//! * [`AppSpec`] — how an application plugs into the builder (its defaults
//!   and its per-worker [`WorkerApp`] factory);
//! * [`LoadShape`] / [`open_loop`] — closed-loop (as fast as the runtime
//!   allows) vs. open-loop (requests arrive on a wall-clock schedule whether
//!   or not the runtime keeps up);
//! * [`SloPolicy`] — an optional p99 target stamped onto the report's
//!   latency summary;
//! * [`RunSpec`] — the builder itself.  It is pure data; the terminal
//!   `run()` lives in the `apps` crate (`apps::common::run_spec` and the
//!   `RunSpecExt` extension trait), which is the one place that links both
//!   backends.
//! * [`CommonArgs`] — the one `--backend/--seed/--buffer/--pin` CLI parser
//!   shared by the examples and the bench binaries.

use std::time::Duration;

use net_model::{Topology, WorkerId};
use tramlib::{FlushPolicy, Scheme, TramConfig};

use crate::app::WorkerApp;
use crate::backend::Backend;
use crate::faults::{FaultPlan, FaultSpec};

/// The default experiment seed shared by both backends.
pub const DEFAULT_SEED: u64 = 0x5eed_1234;

/// Which wire the node-leader tier ships cross-node batches over.
///
/// Only consulted when the cluster has more than one node and the backend is
/// the native runtime; single-node runs never start leaders regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Real TCP over loopback with ephemeral ports (Nagle disabled).
    Tcp,
    /// Unix-domain socket pairs (no filesystem paths, Unix only).
    Uds,
    /// The `net-model` α–β-costed in-memory mesh: deterministic multi-node
    /// sweeps without sockets.
    Sim,
}

impl TransportKind {
    /// Canonical lowercase label, matching the `--transport` CLI values.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
            TransportKind::Sim => "sim",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tcp" => Ok(TransportKind::Tcp),
            "uds" => Ok(TransportKind::Uds),
            "sim" => Ok(TransportKind::Sim),
            other => Err(format!("unknown transport '{other}' (tcp|uds|sim)")),
        }
    }
}

/// The configuration fields shared by both execution backends: the TramLib
/// setup (scheme, topology, buffer geometry, flush policy) and the experiment
/// seed every worker derives its RNG stream from.
///
/// `SimConfig` and `NativeBackendConfig` both embed a `CommonConfig`, so a
/// workload described once runs identically on either backend — there is no
/// second copy of these fields to fall out of sync.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommonConfig {
    /// TramLib configuration (scheme, topology, buffer size, flush policy...).
    pub tram: TramConfig,
    /// Experiment seed; every worker derives its own deterministic RNG stream
    /// from `(seed, worker id)` on both backends.
    pub seed: u64,
}

impl CommonConfig {
    /// Wrap a TramLib configuration with the default seed.
    pub fn new(tram: TramConfig) -> Self {
        Self {
            tram,
            seed: DEFAULT_SEED,
        }
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A cluster shape in the paper's terms: physical nodes, processes per node
/// and worker PEs per process, or the non-SMP equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of physical nodes.
    pub nodes: u32,
    /// Processes per node (ignored in non-SMP mode).
    pub procs_per_node: u32,
    /// Worker PEs per process (ignored in non-SMP mode).
    pub workers_per_proc: u32,
    /// SMP mode (dedicated comm thread per process) or non-SMP
    /// ("MPI-everywhere": one single-worker process per core).
    pub smp: bool,
}

impl ClusterSpec {
    /// The paper's default SMP configuration on Delta: 8 processes per node,
    /// 8 worker PEs per process (64 workers per node).
    pub fn paper_smp(nodes: u32) -> Self {
        Self {
            nodes,
            procs_per_node: 8,
            workers_per_proc: 8,
            smp: true,
        }
    }

    /// A scaled-down SMP configuration used by tests and CI-sized benches:
    /// 2 processes per node, 4 workers per process.
    pub fn small_smp(nodes: u32) -> Self {
        Self {
            nodes,
            procs_per_node: 2,
            workers_per_proc: 4,
            smp: true,
        }
    }

    /// SMP with an explicit split of the node's workers into processes.
    pub fn smp(nodes: u32, procs_per_node: u32, workers_per_proc: u32) -> Self {
        Self {
            nodes,
            procs_per_node,
            workers_per_proc,
            smp: true,
        }
    }

    /// Non-SMP mode with the given number of worker cores per node.
    pub fn non_smp(nodes: u32, workers_per_node: u32) -> Self {
        Self {
            nodes,
            procs_per_node: workers_per_node,
            workers_per_proc: 1,
            smp: false,
        }
    }

    /// Worker PEs per node.
    pub fn workers_per_node(&self) -> u32 {
        self.procs_per_node * self.workers_per_proc
    }

    /// Total worker PEs.
    pub fn total_workers(&self) -> u32 {
        self.nodes * self.workers_per_node()
    }

    /// Build the [`Topology`].
    pub fn topology(&self) -> Topology {
        if self.smp {
            Topology::smp(self.nodes, self.procs_per_node, self.workers_per_proc)
        } else {
            Topology::non_smp(self.nodes, self.workers_per_node())
        }
    }
}

/// Which implementation of the app-side slice kernels consumes delivered
/// items.
///
/// The `kernels` crate ships vectorized (`std::arch`) and scalar versions of
/// every slice consumer, pinned bit-identical to each other; this knob picks
/// between them.  Dispatch is resolved once per run, never per slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Pick the widest SIMD tier the CPU supports at startup, falling back
    /// to scalar (the default).
    #[default]
    Auto,
    /// Force the SIMD path; panics at startup if the CPU has no supported
    /// SIMD tier.  Used by the equivalence suite to pin SIMD == scalar.
    Simd,
    /// Force the scalar reference path.  The A/B baseline for the kernel
    /// speedup bench series.
    Scalar,
}

impl KernelMode {
    /// Stable label used in bench series columns and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            KernelMode::Auto => "auto",
            KernelMode::Simd => "simd",
            KernelMode::Scalar => "scalar",
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(KernelMode::Auto),
            "simd" => Ok(KernelMode::Simd),
            "scalar" => Ok(KernelMode::Scalar),
            other => Err(format!("unknown kernel mode '{other}' (auto|simd|scalar)")),
        }
    }
}

/// Which message store backs the native backend's aggregation hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MessageStore {
    /// Zero-copy slab arenas (the default): items are written once into
    /// per-worker shared arenas and borrowed in place by consumers; only
    /// handles move.
    #[default]
    SlabArena,
    /// Pooled heap vectors, kept as the A/B baseline.
    VecPool,
}

/// The arrival process of an open-loop load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Exponentially distributed inter-arrival gaps (memoryless clients).
    Poisson,
    /// A fixed inter-arrival gap of `1/rate`.
    FixedRate,
}

/// An open-loop load: requests arrive on a schedule drawn ahead of time from
/// the worker's seeded RNG, independent of how fast the runtime serves them.
/// Falling behind shows up as *latency* (measured from the scheduled arrival
/// time), exactly as it would for a real service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoad {
    /// Offered load per client shard, in requests per second.
    pub rate_per_worker: f64,
    /// Requests each client shard issues before it stops.
    pub requests_per_worker: u64,
    /// The arrival process.
    pub arrival: ArrivalProcess,
}

impl OpenLoad {
    /// Set the number of requests each client shard issues.
    pub fn requests(mut self, requests_per_worker: u64) -> Self {
        self.requests_per_worker = requests_per_worker;
        self
    }

    /// Use fixed-rate (deterministic) inter-arrival gaps.
    pub fn fixed_rate(mut self) -> Self {
        self.arrival = ArrivalProcess::FixedRate;
        self
    }

    /// Use Poisson (exponential-gap) arrivals — the default.
    pub fn poisson(mut self) -> Self {
        self.arrival = ArrivalProcess::Poisson;
        self
    }
}

/// How load is offered to the application.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LoadShape {
    /// Closed loop: the application generates work as fast as the runtime
    /// lets it (every existing proxy app; also the capacity-calibration mode
    /// of the service app).
    #[default]
    Closed,
    /// Open loop: requests arrive on a wall-clock schedule (native backend
    /// only — the simulator has no timer events to pace arrivals with).
    Open(OpenLoad),
}

/// Start describing an open-loop load at `rate_per_worker` requests/s per
/// client shard, with Poisson arrivals and 10 000 requests per shard.
pub fn open_loop(rate_per_worker: f64) -> OpenLoad {
    assert!(
        rate_per_worker > 0.0,
        "open-loop load needs a positive arrival rate"
    );
    OpenLoad {
        rate_per_worker,
        requests_per_worker: 10_000,
        arrival: ArrivalProcess::Poisson,
    }
}

impl From<OpenLoad> for LoadShape {
    fn from(load: OpenLoad) -> Self {
        LoadShape::Open(load)
    }
}

/// A latency service-level objective: the report's latency summary gets a
/// met/missed verdict against this target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// The p99 latency target in nanoseconds.
    pub p99_target_ns: u64,
}

impl SloPolicy {
    /// A p99 target in milliseconds.
    pub fn p99_ms(ms: u64) -> Self {
        Self {
            p99_target_ns: ms * 1_000_000,
        }
    }

    /// A p99 target in microseconds.
    pub fn p99_us(us: u64) -> Self {
        Self {
            p99_target_ns: us * 1_000,
        }
    }
}

/// An application's defaults, applied wherever the [`RunSpec`] builder was
/// not given an explicit value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppDefaults {
    /// Default aggregation scheme.
    pub scheme: Scheme,
    /// Default buffer capacity `g` in items.
    pub buffer_items: usize,
    /// Default per-item wire size in bytes.
    pub item_bytes: u32,
    /// Default flush policy.
    pub flush_policy: FlushPolicy,
    /// Default experiment seed (apps traditionally bake a recognisable one).
    pub seed: u64,
    /// Default cluster shape.
    pub cluster: ClusterSpec,
}

impl Default for AppDefaults {
    fn default() -> Self {
        Self {
            scheme: Scheme::WPs,
            buffer_items: 1024,
            item_bytes: 16,
            flush_policy: FlushPolicy::EXPLICIT_ONLY,
            seed: DEFAULT_SEED,
            cluster: ClusterSpec::small_smp(1),
        }
    }
}

/// The per-worker application factory an [`AppSpec`] hands the runner: called
/// once per worker PE, in worker-id order.
pub type AppFactory = Box<dyn FnMut(WorkerId) -> Box<dyn WorkerApp>>;

/// How an application plugs into the [`RunSpec`] builder: a name, its
/// capability matrix, its defaults, and a factory building one [`WorkerApp`]
/// per worker for a fully resolved run.
///
/// `factory` is invoked once per run (not per worker), so expensive shared
/// state — a graph partition, an `Arc` of read-only input — is built a single
/// time and captured by the returned closure.
pub trait AppSpec {
    /// Short stable name ("histogram", "service", ...).
    fn name(&self) -> &'static str;

    /// Whether the app runs on the native threaded backend.
    fn native_capable(&self) -> bool {
        true
    }

    /// Whether the app runs on the discrete-event simulator.  Apps that rely
    /// on wall-clock pacing or timeout flushing (the open-loop service) are
    /// native-only.
    fn sim_capable(&self) -> bool {
        true
    }

    /// The defaults applied where the builder was not given explicit values.
    fn defaults(&self) -> AppDefaults;

    /// Build the per-worker app factory for one resolved run.
    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory;
}

/// A [`RunSpec`] with every default applied: what the backends (and the
/// [`AppSpec::factory`]) actually consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolvedRunSpec {
    /// Backend to execute on.
    pub backend: Backend,
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// Aggregation scheme.
    pub scheme: Scheme,
    /// Buffer capacity `g` in items.
    pub buffer_items: usize,
    /// Per-item wire size in bytes.
    pub item_bytes: u32,
    /// Flush policy.
    pub flush_policy: FlushPolicy,
    /// Experiment seed.
    pub seed: u64,
    /// Local (same-process) bypass override; `None` keeps the TramLib
    /// default (enabled).
    pub local_bypass: Option<bool>,
    /// Offered load shape.
    pub load: LoadShape,
    /// Optional p99 SLO stamped onto the report's latency summary.
    pub slo: Option<SloPolicy>,
    /// Native backend: message store.
    pub message_store: MessageStore,
    /// Native backend: pin worker threads to cores.
    pub pin_workers: bool,
    /// Which slice-kernel implementation the apps consume items with.
    pub kernel: KernelMode,
    /// Native backend: watchdog override (`None` = the backend default,
    /// widened automatically for open-loop runs whose duration is known).
    pub max_wall: Option<Duration>,
    /// Native backend: deterministic fault-injection plan (`None` = healthy
    /// run, the fault machinery compiles down to one skipped branch per
    /// scheduling quantum).
    pub faults: Option<FaultPlan>,
    /// Native backend: wire the node-leader tier over this transport when the
    /// cluster spans more than one node (`None` = in-process mesh only, the
    /// pre-node-tier behaviour).
    pub transport: Option<TransportKind>,
    /// Simulator: event-budget override.
    pub event_budget: Option<u64>,
}

impl ResolvedRunSpec {
    /// The [`TramConfig`] this run describes.
    pub fn tram(&self) -> TramConfig {
        let mut tram = TramConfig::new(self.scheme, self.cluster.topology())
            .with_buffer_items(self.buffer_items)
            .with_item_bytes(self.item_bytes)
            .with_flush_policy(self.flush_policy);
        if let Some(bypass) = self.local_bypass {
            tram = tram.with_local_bypass(bypass);
        }
        tram
    }

    /// The [`CommonConfig`] this run describes (TramLib setup + seed).
    pub fn common(&self) -> CommonConfig {
        CommonConfig::new(self.tram()).with_seed(self.seed)
    }
}

/// The unified run builder: `RunSpec::for_app(app).backend(..).scheme(..)
/// .workers(..).load(open_loop(rate)).run()`.
///
/// `RunSpec` itself is pure data (this crate knows neither backend); the
/// terminal `run()` is provided by `apps::common::RunSpecExt`, and
/// `apps::common::run_spec` is the underlying free function.
pub struct RunSpec {
    app: Box<dyn AppSpec>,
    backend: Backend,
    cluster: Option<ClusterSpec>,
    scheme: Option<Scheme>,
    buffer_items: Option<usize>,
    item_bytes: Option<u32>,
    flush_policy: Option<FlushPolicy>,
    seed: Option<u64>,
    local_bypass: Option<bool>,
    load: LoadShape,
    slo: Option<SloPolicy>,
    message_store: MessageStore,
    pin_workers: bool,
    kernel: KernelMode,
    max_wall: Option<Duration>,
    faults: Option<FaultPlan>,
    transport: Option<TransportKind>,
    nodes_override: Option<u32>,
    event_budget: Option<u64>,
}

impl RunSpec {
    /// Start a spec for one application.
    pub fn for_app(app: impl AppSpec + 'static) -> Self {
        Self {
            app: Box::new(app),
            backend: Backend::Sim,
            cluster: None,
            scheme: None,
            buffer_items: None,
            item_bytes: None,
            flush_policy: None,
            seed: None,
            local_bypass: None,
            load: LoadShape::Closed,
            slo: None,
            message_store: MessageStore::default(),
            pin_workers: false,
            kernel: KernelMode::default(),
            max_wall: None,
            faults: None,
            transport: None,
            nodes_override: None,
            event_budget: None,
        }
    }

    /// Execution backend (default: the simulator).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Aggregation scheme (default: the app's).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Cluster shape (default: the app's).
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Convenience: a single SMP node with `n` workers, split into two
    /// processes when `n` is even (so the process-level schemes stay
    /// meaningful).  Use [`RunSpec::cluster`] for full control.
    pub fn workers(mut self, n: u32) -> Self {
        assert!(n > 0, "a run needs at least one worker");
        self.cluster = Some(if n % 2 == 0 {
            ClusterSpec::smp(1, 2, n / 2)
        } else {
            ClusterSpec::smp(1, 1, n)
        });
        self
    }

    /// Buffer capacity `g` in items (default: the app's).
    pub fn buffer(mut self, items: usize) -> Self {
        self.buffer_items = Some(items);
        self
    }

    /// Per-item wire size in bytes (default: the app's).
    pub fn item_bytes(mut self, bytes: u32) -> Self {
        self.item_bytes = Some(bytes);
        self
    }

    /// Flush policy (default: the app's).
    pub fn flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.flush_policy = Some(policy);
        self
    }

    /// Experiment seed (default: the app's).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Enable or disable the same-process local bypass (default: enabled).
    pub fn local_bypass(mut self, enabled: bool) -> Self {
        self.local_bypass = Some(enabled);
        self
    }

    /// Offered load shape (default: closed loop).  Accepts the result of
    /// [`open_loop`] directly.
    pub fn load(mut self, load: impl Into<LoadShape>) -> Self {
        self.load = load.into();
        self
    }

    /// Attach a p99 SLO; the report's latency summary gets a verdict.
    pub fn slo(mut self, slo: SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Native backend: message store (default: slab arenas).
    pub fn message_store(mut self, store: MessageStore) -> Self {
        self.message_store = store;
        self
    }

    /// Native backend: pin worker threads to cores (default: off).
    pub fn pin_workers(mut self, pin: bool) -> Self {
        self.pin_workers = pin;
        self
    }

    /// Slice-kernel implementation (default: auto-detect the widest SIMD
    /// tier at startup).
    pub fn kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Native backend: watchdog override.
    pub fn max_wall(mut self, max_wall: Duration) -> Self {
        self.max_wall = Some(max_wall);
        self
    }

    /// Native backend: inject a deterministic [`FaultPlan`].  Empty plans are
    /// treated as no plan, so `--fault`-less CLIs stay on the healthy path.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then_some(plan);
        self
    }

    /// Native backend: ship cross-node traffic through the node-leader tier
    /// over this transport.  Meaningless (and ignored at runtime) unless the
    /// cluster spans more than one node.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = Some(kind);
        self
    }

    /// Override the node count while keeping the rest of the cluster shape
    /// (the app's default or whatever [`RunSpec::cluster`] set).  This is how
    /// `--nodes N` scales a single-node spec out to a leader mesh.
    pub fn nodes(mut self, nodes: u32) -> Self {
        assert!(nodes > 0, "a run needs at least one node");
        self.nodes_override = Some(nodes);
        self
    }

    /// Simulator: event-budget override.
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.event_budget = Some(budget);
        self
    }

    /// The application this spec runs.
    pub fn app(&self) -> &dyn AppSpec {
        self.app.as_ref()
    }

    /// Apply the app's defaults to every unset field.
    pub fn resolve(&self) -> ResolvedRunSpec {
        let defaults = self.app.defaults();
        let mut cluster = self.cluster.unwrap_or(defaults.cluster);
        if let Some(nodes) = self.nodes_override {
            cluster.nodes = nodes;
        }
        ResolvedRunSpec {
            backend: self.backend,
            cluster,
            scheme: self.scheme.unwrap_or(defaults.scheme),
            buffer_items: self.buffer_items.unwrap_or(defaults.buffer_items),
            item_bytes: self.item_bytes.unwrap_or(defaults.item_bytes),
            flush_policy: self.flush_policy.unwrap_or(defaults.flush_policy),
            seed: self.seed.unwrap_or(defaults.seed),
            local_bypass: self.local_bypass,
            load: self.load,
            slo: self.slo,
            message_store: self.message_store,
            pin_workers: self.pin_workers,
            kernel: self.kernel,
            max_wall: self.max_wall,
            faults: self.faults,
            transport: self.transport,
            event_budget: self.event_budget,
        }
    }
}

/// The one CLI parser shared by the examples and the bench binaries, so both
/// backends' flag handling cannot drift: `--backend sim|native|process`,
/// `--seed N`,
/// `--buffer N`, `--pin`, `--kernel auto|simd|scalar`, `--watchdog-secs S`,
/// repeatable `--fault worker=<w>,<kind>@item=<n>` (or
/// `node=<n>,<kind>@send=<k>` for wire faults), `--transport tcp|uds|sim`,
/// `--nodes N`, plus generic `flag`/`value_of` accessors for binary-specific
/// switches.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// `--backend sim|native|process` (default: the simulator).
    pub backend: Backend,
    /// `--seed N`, if given.
    pub seed: Option<u64>,
    /// `--buffer N` (items), if given.
    pub buffer_items: Option<usize>,
    /// `--pin`: pin native worker threads to cores.
    pub pin: bool,
    /// `--kernel auto|simd|scalar`, if given.
    pub kernel: Option<KernelMode>,
    /// `--watchdog-secs S` (fractional seconds), if given: native watchdog
    /// limit.
    pub watchdog_secs: Option<f64>,
    /// Every `--fault <spec>` occurrence, in order (see [`FaultSpec::parse`]).
    pub faults: Vec<FaultSpec>,
    /// `--transport tcp|uds|sim`, if given: node-leader wire selection.
    pub transport: Option<TransportKind>,
    /// `--nodes N`, if given: override the cluster's node count.
    pub nodes: Option<u32>,
    args: Vec<String>,
}

impl CommonArgs {
    /// Parse the process arguments.
    pub fn from_env() -> Self {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Parse an explicit argument vector (testable entry point).
    ///
    /// # Panics
    /// Panics with a usage message on a malformed value, mirroring what a
    /// small CLI should do.
    pub fn from_args(args: Vec<String>) -> Self {
        let value_after = |flag: &str| -> Option<&str> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
        };
        let backend = value_after("--backend")
            .map(|v| v.parse().expect("--backend takes sim|native|process"))
            .unwrap_or(Backend::Sim);
        let seed = value_after("--seed").map(|v| v.parse().expect("--seed takes an integer"));
        let buffer_items =
            value_after("--buffer").map(|v| v.parse().expect("--buffer takes an item count"));
        let pin = args.iter().any(|a| a == "--pin");
        let kernel =
            value_after("--kernel").map(|v| v.parse().expect("--kernel takes auto|simd|scalar"));
        let watchdog_secs = value_after("--watchdog-secs").map(|v| {
            let secs: f64 = v.parse().expect("--watchdog-secs takes seconds");
            assert!(
                secs > 0.0 && secs.is_finite(),
                "--watchdog-secs takes a positive duration"
            );
            secs
        });
        let faults: Vec<FaultSpec> = args
            .iter()
            .enumerate()
            .filter(|(_, a)| a.as_str() == "--fault")
            .map(|(i, _)| {
                let spec = args
                    .get(i + 1)
                    .expect("--fault takes 'worker=<w>,<kind>@item=<n>'");
                FaultSpec::parse(spec).unwrap_or_else(|e| panic!("{e}"))
            })
            .collect();
        assert!(
            faults.len() <= crate::faults::MAX_FAULTS,
            "at most {} --fault specs per run",
            crate::faults::MAX_FAULTS
        );
        let transport =
            value_after("--transport").map(|v| v.parse().unwrap_or_else(|e: String| panic!("{e}")));
        let nodes = value_after("--nodes").map(|v| {
            let n: u32 = v.parse().expect("--nodes takes a node count");
            assert!(n > 0, "--nodes takes a positive node count");
            n
        });
        Self {
            backend,
            seed,
            buffer_items,
            pin,
            kernel,
            watchdog_secs,
            faults,
            transport,
            nodes,
            args,
        }
    }

    /// Is a bare flag present?
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following a `--flag value` pair, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Apply the parsed switches to a [`RunSpec`].
    pub fn apply(&self, mut spec: RunSpec) -> RunSpec {
        spec = spec.backend(self.backend).pin_workers(self.pin);
        if let Some(seed) = self.seed {
            spec = spec.seed(seed);
        }
        if let Some(buffer) = self.buffer_items {
            spec = spec.buffer(buffer);
        }
        if let Some(kernel) = self.kernel {
            spec = spec.kernel(kernel);
        }
        if let Some(secs) = self.watchdog_secs {
            spec = spec.max_wall(Duration::from_secs_f64(secs));
        }
        if !self.faults.is_empty() {
            let seed = self.seed.unwrap_or(DEFAULT_SEED);
            spec = spec.faults(FaultPlan::from_specs(seed, self.faults.iter().copied()));
        }
        if let Some(kind) = self.transport {
            spec = spec.transport(kind);
        }
        if let Some(nodes) = self.nodes {
            spec = spec.nodes(nodes);
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_8x8() {
        let c = ClusterSpec::paper_smp(4);
        assert_eq!(c.workers_per_node(), 64);
        assert_eq!(c.total_workers(), 256);
        assert!(c.topology().is_smp());
    }

    #[test]
    fn non_smp_spec() {
        let c = ClusterSpec::non_smp(2, 64);
        assert_eq!(c.total_workers(), 128);
        assert!(!c.topology().is_smp());
        assert_eq!(c.topology().workers_per_proc(), 1);
    }

    struct Dummy;
    impl AppSpec for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn defaults(&self) -> AppDefaults {
            AppDefaults {
                buffer_items: 256,
                seed: 77,
                ..AppDefaults::default()
            }
        }
        fn factory(&self, _run: &ResolvedRunSpec) -> AppFactory {
            unreachable!("resolution tests never build workers")
        }
    }

    #[test]
    fn resolve_applies_app_defaults_and_overrides() {
        let spec = RunSpec::for_app(Dummy)
            .backend(Backend::Native)
            .scheme(Scheme::PP)
            .workers(8)
            .seed(5);
        let run = spec.resolve();
        assert_eq!(run.backend, Backend::Native);
        assert_eq!(run.scheme, Scheme::PP);
        assert_eq!(run.cluster, ClusterSpec::smp(1, 2, 4));
        assert_eq!(run.buffer_items, 256, "app default survives");
        assert_eq!(run.seed, 5, "builder override wins");
        assert_eq!(run.tram().buffer_items, 256);
        assert_eq!(run.common().seed, 5);

        let odd = RunSpec::for_app(Dummy).workers(3).resolve();
        assert_eq!(odd.cluster, ClusterSpec::smp(1, 1, 3));
        assert_eq!(odd.seed, 77, "app default seed");
    }

    #[test]
    fn open_loop_builder() {
        let load = open_loop(5_000.0).requests(1_000).fixed_rate();
        assert_eq!(load.arrival, ArrivalProcess::FixedRate);
        assert_eq!(load.requests_per_worker, 1_000);
        match LoadShape::from(load) {
            LoadShape::Open(l) => assert!((l.rate_per_worker - 5_000.0).abs() < 1e-9),
            LoadShape::Closed => panic!("conversion lost the load"),
        }
        assert_eq!(LoadShape::default(), LoadShape::Closed);
    }

    #[test]
    fn slo_constructors() {
        assert_eq!(SloPolicy::p99_ms(2).p99_target_ns, 2_000_000);
        assert_eq!(SloPolicy::p99_us(250).p99_target_ns, 250_000);
    }

    #[test]
    fn common_args_parse_and_apply() {
        let args = CommonArgs::from_args(
            [
                "--backend",
                "native",
                "--seed",
                "9",
                "--buffer",
                "64",
                "--pin",
                "--kernel",
                "scalar",
                "--fast",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        assert_eq!(args.backend, Backend::Native);
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.buffer_items, Some(64));
        assert!(args.pin && args.flag("--fast"));
        assert_eq!(args.value_of("--seed"), Some("9"));
        assert_eq!(args.kernel, Some(KernelMode::Scalar));

        let run = args.apply(RunSpec::for_app(Dummy)).resolve();
        assert_eq!(run.backend, Backend::Native);
        assert_eq!(run.seed, 9);
        assert_eq!(run.buffer_items, 64);
        assert!(run.pin_workers);
        assert_eq!(run.kernel, KernelMode::Scalar);

        let defaults = CommonArgs::from_args(Vec::new());
        assert_eq!(defaults.backend, Backend::Sim);
        assert!(!defaults.pin);
        assert_eq!(defaults.kernel, None);
        assert_eq!(defaults.watchdog_secs, None);
        assert!(defaults.faults.is_empty());
        let resolved = defaults.apply(RunSpec::for_app(Dummy)).resolve();
        assert_eq!(resolved.kernel, KernelMode::Auto);
        assert_eq!(resolved.max_wall, None);
        assert_eq!(resolved.faults, None);
    }

    #[test]
    fn common_args_faults_and_watchdog() {
        let args = CommonArgs::from_args(
            [
                "--backend",
                "native",
                "--watchdog-secs",
                "0.25",
                "--fault",
                "worker=2,panic@item=100",
                "--fault",
                "worker=0,stall:500@flush=1",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        assert_eq!(args.watchdog_secs, Some(0.25));
        assert_eq!(args.faults.len(), 2);
        assert_eq!(args.faults[0].worker, 2);

        let run = args.apply(RunSpec::for_app(Dummy)).resolve();
        assert_eq!(run.max_wall, Some(Duration::from_millis(250)));
        let plan = run.faults.expect("fault plan applied");
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.seed, DEFAULT_SEED, "plan seed follows the run seed");
        assert_eq!(plan.for_worker(0).count(), 1);
    }

    #[test]
    fn transport_kind_round_trips_through_labels() {
        for kind in [TransportKind::Tcp, TransportKind::Uds, TransportKind::Sim] {
            assert_eq!(kind.label().parse::<TransportKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert!("carrier-pigeon".parse::<TransportKind>().is_err());
    }

    #[test]
    fn common_args_transport_and_nodes() {
        let args = CommonArgs::from_args(
            ["--backend", "native", "--transport", "tcp", "--nodes", "2"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(args.transport, Some(TransportKind::Tcp));
        assert_eq!(args.nodes, Some(2));

        let run = args.apply(RunSpec::for_app(Dummy)).resolve();
        assert_eq!(run.transport, Some(TransportKind::Tcp));
        assert_eq!(run.cluster.nodes, 2, "--nodes overrides the app default");

        let defaults = CommonArgs::from_args(Vec::new());
        assert_eq!(defaults.transport, None);
        assert_eq!(defaults.nodes, None);
        let resolved = defaults.apply(RunSpec::for_app(Dummy)).resolve();
        assert_eq!(resolved.transport, None);
    }

    #[test]
    fn nodes_override_keeps_intra_node_shape() {
        let run = RunSpec::for_app(Dummy)
            .cluster(ClusterSpec::smp(1, 2, 4))
            .nodes(3)
            .resolve();
        assert_eq!(run.cluster, ClusterSpec::smp(3, 2, 4));
        assert_eq!(run.cluster.total_workers(), 24);
    }

    #[test]
    fn empty_fault_plan_is_no_plan() {
        let run = RunSpec::for_app(Dummy)
            .faults(FaultPlan::seeded(3))
            .resolve();
        assert_eq!(run.faults, None);
        let run = RunSpec::for_app(Dummy)
            .faults(FaultPlan::seeded(3).panic_at_items(1, 10))
            .resolve();
        assert_eq!(run.faults.map(|p| p.len()), Some(1));
    }

    #[test]
    fn kernel_mode_round_trips_through_labels() {
        for mode in [KernelMode::Auto, KernelMode::Simd, KernelMode::Scalar] {
            assert_eq!(mode.label().parse::<KernelMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.label());
        }
        assert!("avx9000".parse::<KernelMode>().is_err());
        assert_eq!(KernelMode::default(), KernelMode::Auto);
    }
}
