//! # native-rt — the native threaded execution backend
//!
//! The discrete-event simulator (`smp-sim`) reproduces the paper's
//! cluster-scale figures under a cost model; this crate executes the *same
//! applications* on real shared memory.  [`run_threaded`] runs one OS thread
//! per worker PE of the configured topology:
//!
//! * workers running the **WW / WPs / WsP / NoAgg** schemes own real
//!   [`tramlib::Aggregator`]s and insert into private per-destination buffers;
//! * under **PP** all workers of a process insert into shared
//!   [`shmem::ClaimBuffer`]s with atomic slot claiming — one buffer per
//!   destination process, exactly the contended path §III-C of the paper
//!   analyses;
//! * delivery runs over a direct **worker↔worker mesh** of bounded
//!   [`shmem::SpscRing`]s: sealed/flushed messages go straight to the
//!   destination worker, which runs the receive-side grouping pass
//!   ([`tramlib::PooledReceiver`]) locally — no thread touches traffic it
//!   does not own, and the only central component is the quiescence monitor
//!   (watchdog + sent/delivered counter sums);
//! * same-process items bypass aggregation and travel worker-to-worker in
//!   batches, mirroring the simulator's local-bypass path.
//!
//! Applications implement the backend-agnostic
//! [`runtime_api::WorkerApp`] trait and run unchanged on either backend; the
//! returned [`runtime_api::RunReport`] carries wall-clock times instead of
//! simulated ones, with identical item totals for deterministic workloads
//! (checked by `tests/backend_equivalence.rs`).  See `docs/DESIGN.md` for the
//! full architecture and the insertion-path diagrams.

pub mod affinity;
pub mod numa;
pub mod process;
pub(crate) mod quantum;
pub mod signals;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys;
pub(crate) mod tally;
pub mod threaded;

pub use affinity::{allowed_cpus, available_cpus, pin_current_thread};
pub use numa::NumaTopology;
pub use process::{run_process, ProcessBackendConfig};
pub use signals::SignalGuard;
pub use threaded::{run_threaded, MessageStore, NativeBackendConfig};
