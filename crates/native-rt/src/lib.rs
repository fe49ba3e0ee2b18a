//! # native-rt — the native execution backends
//!
//! The discrete-event simulator (`smp-sim`) reproduces the paper's
//! cluster-scale figures under a cost model; this crate executes the *same
//! applications* on real shared memory, one OS thread ([`run_threaded`]) or
//! one forked process ([`run_process`]) per worker PE of the topology:
//!
//! * workers running the **WW / WPs / WsP** schemes own real
//!   [`tramlib::Aggregator`]s and insert into private per-destination buffers
//!   (**NoAgg** ships every item as its own message);
//! * under **PP** all workers of a process insert into shared
//!   [`shmem::SegClaim`]s with atomic slot claiming and per-slot stamps —
//!   one buffer per destination process, exactly the contended path §III-C
//!   of the paper analyses;
//! * delivery runs over a direct **worker↔worker mesh** of bounded
//!   [`shmem::SegRing`]s: sealed/flushed messages go straight to the
//!   destination worker, which runs the receive-side grouping pass
//!   ([`tramlib::group::group_in_place`]) locally — no thread touches
//!   traffic it does not own, and the only central component is the run
//!   monitor both engines share (`monitor`: watchdog, counter sums,
//!   outcome);
//! * same-process items bypass aggregation and travel worker-to-worker in
//!   per-quantum batches copied into slabs, mirroring the simulator's
//!   local-bypass path;
//! * every ring carries one `Copy` envelope type on both engines — an
//!   inline item or a slab descriptor, never a heap vector — and both
//!   engines stage, stash, count and ship it through one send side (`send`)
//!   and receive, group, forward and drop it through one path (`envelope`);
//! * both engines run the same `shmem` views, each primitive with one
//!   protocol: the threaded engine owns them on the heap
//!   ([`shmem::SpscRing`], [`shmem::SlabArena`], [`shmem::ClaimBuffer`]),
//!   the process engine lays them out in one shared segment.
//!
//! Applications implement the backend-agnostic
//! [`runtime_api::WorkerApp`] trait and run unchanged on either backend; the
//! returned [`runtime_api::RunReport`] carries wall-clock times instead of
//! simulated ones, with identical item totals for deterministic workloads
//! (checked by `tests/backend_equivalence.rs`).  See `docs/DESIGN.md` for the
//! full architecture and the insertion-path diagrams.

pub mod affinity;
pub(crate) mod envelope;
pub(crate) mod monitor;
pub mod numa;
pub mod process;
pub(crate) mod quantum;
pub(crate) mod send;
pub mod signals;
pub(crate) mod sizing;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys;
pub(crate) mod tally;
pub mod threaded;

pub use affinity::{allowed_cpus, available_cpus, pin_current_thread};
pub use numa::NumaTopology;
pub use process::run_process;
pub use signals::SignalGuard;
pub use threaded::run_threaded;
