//! # Multi-process shared-memory backend
//!
//! The threaded backend ([`crate::run_threaded`]) shares one address space,
//! so a "crashed worker" is really a caught panic — memory stays coherent
//! and cleanup is cooperative.  This backend removes that safety net: every
//! worker PE is a **forked OS process**, all communication rides a single
//! `memfd`-backed `MAP_SHARED` segment, and a dead worker is a process the
//! kernel reaped — it releases nothing, unwinds nothing, and says nothing.
//!
//! What the paper's aggregation schemes need from the host then has to be
//! rebuilt on crash-robust terms:
//!
//! * **Transport** — a W×W mesh of [`shmem::SegRing`]s carrying the `Copy`
//!   envelopes both native engines share: inline singles, or descriptors of
//!   slabs sealed into per-worker [`shmem::SegArena`]s (every scheme but
//!   NoAgg) with refcounted multi-consumer release; PP inserts contend on
//!   shared [`shmem::SegClaim`] buffers, one per destination process, and a
//!   drained buffer is copied into one slab of the drainer's arena.
//! * **Death detection** — the supervisor reaps with `wait4`, publishes a
//!   `dead_mask` survivors consult before shipping or spinning, adopts the
//!   corpse's inboxes, and settles the global books: every eagerly-counted
//!   `sent` item ends up `delivered` or `dropped`, and every slab the dead
//!   held is force-released back to its arena (`leaked_slabs == 0`).
//! * **Orphan hygiene** — each run writes a pid-stamped marker file next to
//!   its segment namespace; startup sweeps markers whose owner is dead and
//!   refuses to run over markers it cannot interpret.
//!
//! Faults: [`runtime_api::FaultKind::Kill`] is a real `SIGKILL` fired by
//! the supervisor (the victim gets no say); `Panic`/`Stall` fire in-child;
//! `RunSpec::resolve` refuses every other kind for this backend.  With
//! `graceful_signals`, SIGINT/SIGTERM quiesce the run into a `Degraded`
//! report instead of killing it.
//!
//! The backend is Linux-only (memfd + fork + pidfd); on other platforms
//! [`run_process`] panics with a clear message.  Callers must be
//! single-threaded at the call (fork-without-exec rule) — the process-mode
//! integration tests are `harness = false` binaries for this reason.

use net_model::WorkerId;
use runtime_api::{ResolvedRunSpec, RunReport, WorkerApp};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod layout;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod supervisor;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod worker;

/// Run `make_app` on one forked process per worker PE of `run`'s cluster,
/// communicating through a shared `memfd` segment.
///
/// `run` must be a [`runtime_api::Backend::Process`] spec:
/// [`runtime_api::RunSpec::resolve`] checked its options against this
/// backend.  The calling thread must be the process's only running thread
/// (the backend forks without exec'ing).  Panics on unsupported platforms
/// and on startup-hygiene failures (unreadable orphan markers).
pub fn run_process(
    run: &ResolvedRunSpec,
    make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        supervisor::run(run, make_app)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = (run, make_app);
        panic!("the process backend requires linux on x86_64/aarch64");
    }
}
