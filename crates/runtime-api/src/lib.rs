//! # runtime-api — the backend-agnostic application contract
//!
//! The paper's proxy applications (histogram, index-gather, PingAck, SSSP,
//! PHOLD) describe *what* a worker PE does — generate items, react to
//! delivered items, flush — not *where* it runs.  This crate captures that
//! contract so one application implementation can execute on two
//! interchangeable backends:
//!
//! * **`smp-sim`** — the deterministic discrete-event cluster simulator, which
//!   charges modelled costs and advances simulated time;
//! * **`native-rt`** — the threaded backend, which runs one OS thread per
//!   worker PE on the host machine, inserts into real [`tramlib`] aggregators
//!   and [`shmem`](../shmem/index.html) claim buffers, and measures wall-clock
//!   time.
//!
//! The three pieces of the contract (see `docs/DESIGN.md` for the full
//! architecture):
//!
//! * [`WorkerApp`] — the per-worker application lifecycle
//!   (`on_start`/`on_item`/`on_idle`/`on_finalize`);
//! * [`RunCtx`] — the send/flush context handed to every callback; each
//!   backend provides its own implementation;
//! * [`RunReport`] — the unified run result, tagged with the [`Backend`] that
//!   produced it.
//!
//! Applications written against these types run unchanged on every backend;
//! a [`RunSpec`] describes one run, [`RunSpec::resolve`] validates it, and
//! the `apps` crate's `run_spec` dispatches the result on its [`Backend`].

pub mod app;
pub mod backend;
pub mod faults;
pub mod payload;
pub mod report;
pub mod spec;

pub use app::{RunCtx, WorkerApp};
pub use backend::{Backend, ParseBackendError};
pub use faults::{FaultKind, FaultPlan, FaultSpec, FaultTrigger, MAX_FAULTS};
pub use payload::Payload;
pub use report::{
    ArenaAudit, LinkReport, NodeDiag, ProcessExit, RunDiagnostics, RunOutcome, RunReport,
};
pub use spec::{
    open_loop, AppDefaults, AppFactory, AppSpec, ArrivalProcess, ClusterSpec, CommonArgs,
    KernelMode, LoadShape, OpenLoad, ResolvedRunSpec, RunSpec, SloPolicy, SpecError, TransportKind,
    DEFAULT_MAX_WALL, DEFAULT_SEED, MAX_PROCESS_WORKERS,
};
// Re-exported so applications can implement `WorkerApp::on_item_slice`
// without naming `tramlib` directly.
pub use tramlib::Item;
