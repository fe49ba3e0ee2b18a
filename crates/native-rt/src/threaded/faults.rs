//! Runtime state of the injected faults targeting one worker thread.
//!
//! [`runtime_api::FaultPlan`] is the pure-data description; this module is
//! the execution half the native backend compiles it into.  Each worker with
//! at least one fault carries an [`ActiveFaults`] and polls it once per
//! scheduling quantum; workers with none carry `None` and pay a single
//! `Option` branch per quantum — fault injection is free when absent.
//!
//! Trigger points are monotone per-worker quantities (own items sent, own
//! flush-triggered emissions), so a fault fires at the same point in the
//! worker's deterministic workload on every run of the same seed.  What the
//! *cluster* looks like at that instant still depends on thread scheduling;
//! the chaos suite therefore asserts deterministic *outcome classes*
//! ([`runtime_api::RunOutcome::signature`]), not identical timelines.

use std::sync::atomic::Ordering;
use std::time::Duration;

use runtime_api::{FaultKind, FaultPlan, FaultTrigger, Payload};
use shmem::SlabArena;
use tramlib::Item;

use super::NativeWorkerCtx;

/// One compiled fault: the spec plus a fired latch (every fault is one-shot).
struct ActiveFault {
    kind: FaultKind,
    trigger: FaultTrigger,
    fired: bool,
}

/// All faults targeting one worker, plus the state of the slow-burn kinds
/// (an arena-dry hold in progress, a ring-burst window still open).
pub(crate) struct ActiveFaults {
    faults: Vec<ActiveFault>,
    /// Scheduling quanta left in the current ring-burst window: while
    /// positive, the worker skips draining its inbox rings.
    burst_quanta: u32,
    /// Slabs claimed and held by an arena-dry fault, released at
    /// `release_at_ns`.
    held: Vec<u32>,
    release_at_ns: u64,
}

impl ActiveFaults {
    /// Compile the subset of `plan` targeting worker `me`; `None` when no
    /// fault does (the common case — the per-quantum poll then costs one
    /// `Option` branch).
    pub(crate) fn compile(plan: &FaultPlan, me: u32) -> Option<Self> {
        let faults: Vec<ActiveFault> = plan
            .for_worker(me)
            .map(|spec| ActiveFault {
                kind: spec.kind,
                trigger: spec.trigger,
                fired: false,
            })
            .collect();
        (!faults.is_empty()).then_some(Self {
            faults,
            burst_quanta: 0,
            held: Vec::new(),
            release_at_ns: 0,
        })
    }

    /// Should this quantum skip draining the delivery rings?  (An open
    /// ring-burst window; decremented by [`ActiveFaults::poll`].)
    pub(crate) fn skip_inbox(&self) -> bool {
        self.burst_quanta > 0
    }

    /// Check triggers and execute due faults.  Called once per scheduling
    /// quantum from inside the worker's `catch_unwind` boundary — a `Panic`
    /// fault unwinds from here straight into the quarantine path.
    pub(crate) fn poll(&mut self, ctx: &mut NativeWorkerCtx<'_>) {
        // Progress the slow-burn state first: an expired arena-dry hold is
        // released even on quanta where no new fault fires.
        if !self.held.is_empty() && ctx.now_cache >= self.release_at_ns {
            if let Some(arena) = ctx.arena {
                for slab in self.held.drain(..) {
                    arena.release(slab);
                }
            }
        }
        if self.burst_quanta > 0 {
            self.burst_quanta -= 1;
        }
        for i in 0..self.faults.len() {
            if self.faults[i].fired {
                continue;
            }
            let due = match self.faults[i].trigger {
                FaultTrigger::Items(n) => ctx.local_sent >= n,
                FaultTrigger::Flushes(n) => ctx.flush_emits >= n,
                // Wire faults are node-scoped: `FaultPlan::for_worker` filters
                // them out, so a worker never compiles one in.
                FaultTrigger::Sends(_) => {
                    unreachable!("wire faults never target a worker")
                }
            };
            if !due {
                continue;
            }
            self.faults[i].fired = true;
            ctx.shared.faults_fired.fetch_add(1, Ordering::Relaxed);
            match self.faults[i].kind {
                FaultKind::Panic => {
                    ctx.counters.incr("fault_panic");
                    panic!("injected fault: worker {} panic", ctx.me.0);
                }
                FaultKind::Kill => {
                    // On threads there is no SIGKILL to deliver without taking
                    // the whole process down, so the kill maps to the closest
                    // thread-level event: an unwind into quarantine.  The
                    // process backend delivers the real signal instead.
                    ctx.counters.incr("fault_kill");
                    panic!(
                        "injected fault: worker {} killed \
                         (SIGKILL maps to a quarantine panic on the threaded backend)",
                        ctx.me.0
                    );
                }
                FaultKind::Stall { micros } => {
                    ctx.counters.incr("fault_stall");
                    // The heartbeat freezes for the whole sleep — exactly the
                    // signature the monitor's soft-stall scan watches for.
                    std::thread::sleep(Duration::from_micros(micros as u64));
                }
                FaultKind::ArenaDry { micros } => {
                    ctx.counters.incr("fault_arena_dry");
                    if let Some(arena) = ctx.arena {
                        // Claim every free slab and sit on them: subsequent
                        // inserts miss and fall back to pooled heap vectors
                        // (`arena_claim_misses`), never stall or lose items.
                        while let Some(slab) = arena.try_claim() {
                            self.held.push(slab);
                        }
                        self.release_at_ns = ctx.now_cache + micros as u64 * 1_000;
                    }
                }
                FaultKind::RingBurst { quanta } => {
                    ctx.counters.incr("fault_ring_burst");
                    self.burst_quanta = self.burst_quanta.max(quanta);
                }
                FaultKind::NetDrop
                | FaultKind::NetDelay { .. }
                | FaultKind::NetDuplicate
                | FaultKind::NetDisconnect
                | FaultKind::NetPartition => {
                    // Node-scoped wire faults execute in the leader's
                    // `WireFaultInjector`, never on a worker thread.
                    unreachable!("wire faults never target a worker")
                }
            }
        }
    }

    /// Release anything the fault machinery still holds (an arena-dry hold
    /// interrupted by run end or a panic) so the teardown audit never charges
    /// injected faults with a leak.
    pub(crate) fn disarm(&mut self, arena: Option<&SlabArena<Item<Payload>>>) {
        if let Some(arena) = arena {
            for slab in self.held.drain(..) {
                arena.release(slab);
            }
        }
        self.held.clear();
    }
}
