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
//! * **Transport** — a W×W mesh of [`shmem::SegRing`]s carrying fixed-size
//!   [`worker::WireEnvelope`]s: inline singles, or descriptors of slabs
//!   sealed into per-worker [`shmem::SegArena`]s (WW/WPs/WsP) with
//!   refcounted multi-consumer release; PP inserts contend on shared
//!   [`shmem::SegClaim`] buffers, one per destination process.
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
//! the supervisor (the victim gets no say); `Panic`/`Stall` fire in-child.
//! With `graceful_signals`, SIGINT/SIGTERM quiesce the run into a
//! `Degraded` report instead of killing it.
//!
//! The backend is Linux-only (memfd + fork + pidfd); on other platforms
//! [`run_process`] panics with a clear message.  Callers must be
//! single-threaded at the call (fork-without-exec rule) — the process-mode
//! integration tests are `harness = false` binaries for this reason.

use std::time::Duration;

use net_model::WorkerId;
use runtime_api::{CommonConfig, FaultPlan, RunReport, WorkerApp};
use tramlib::{Scheme, TramConfig};

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

/// Envelopes popped from one inbox ring per scheduling quantum; also a term
/// of the auto-sized arena budget, hence defined platform-independently.
pub(crate) const INBOX_BUDGET: usize = 128;

/// Configuration for the multi-process backend ([`run_process`]).
///
/// Mirrors `NativeBackendConfig` where the backends overlap (TramLib setup,
/// seed, faults, wall-clock watchdog).
#[derive(Debug, Clone, Copy)]
pub struct ProcessBackendConfig {
    /// TramLib setup and seed shared with the other backends.
    pub common: CommonConfig,
    /// Wall-clock watchdog: the run aborts if not quiescent within this.
    pub max_wall: Duration,
    /// Injected faults (`kill` / `panic` / `stall` in process mode).
    pub faults: Option<FaultPlan>,
    /// Treat delivered SIGINT/SIGTERM as a quiesce request (drain, then
    /// report `Degraded`) instead of dying with default disposition.
    pub graceful_signals: bool,
}

impl ProcessBackendConfig {
    pub fn new(tram: TramConfig) -> Self {
        Self::from_common(CommonConfig::new(tram))
    }

    pub fn from_common(common: CommonConfig) -> Self {
        Self {
            common,
            max_wall: Duration::from_secs(60),
            faults: None,
            graceful_signals: false,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.common.seed = seed;
        self
    }

    pub fn with_max_wall(mut self, max_wall: Duration) -> Self {
        self.max_wall = max_wall;
        self
    }

    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults.filter(|plan| !plan.is_empty());
        self
    }

    pub fn with_graceful_signals(mut self, graceful: bool) -> Self {
        self.graceful_signals = graceful;
        self
    }

    /// Whether the configured scheme seals slabs into per-worker arenas.
    pub(crate) fn uses_arena(&self) -> bool {
        matches!(
            self.common.tram.scheme,
            Scheme::WW | Scheme::WPs | Scheme::WsP
        )
    }

    /// Per-ring capacity (envelopes), the threaded backend's auto-sizing
    /// rule: slab descriptors are small and amortized, singles need deeper
    /// rings.
    pub(crate) fn resolved_ring_capacity(&self, workers: usize) -> usize {
        if self.uses_arena() {
            (2048 / workers.max(1)).clamp(8, 128)
        } else {
            (4096 / workers.max(1)).max(64)
        }
    }

    /// Per-arena slab count: the worst-case outstanding budget — one open
    /// buffer per destination, every ring slot full of slab descriptors, one
    /// inbox batch in flight, plus stash headroom.
    pub(crate) fn resolved_arena_slabs(&self, workers: usize) -> usize {
        let topo = self.common.tram.topology;
        let dests = if self.common.tram.scheme == Scheme::WW {
            workers
        } else {
            topo.total_procs() as usize
        };
        dests
            + workers * self.resolved_ring_capacity(workers)
            + INBOX_BUDGET
            + 4 * crate::threaded::STASH_THROTTLE
    }
}

/// Run `make_app` on one forked process per worker PE of the configured
/// topology, communicating through a shared `memfd` segment.
///
/// The calling thread must be the process's only running thread (the
/// backend forks without exec'ing).  Panics on unsupported platforms and on
/// startup-hygiene failures (unreadable orphan markers).
pub fn run_process(
    config: ProcessBackendConfig,
    make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        supervisor::run(config, make_app)
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = (config, make_app);
        panic!("the process backend requires linux on x86_64/aarch64");
    }
}
