//! The child side of the multi-process backend: one forked process per
//! worker PE, communicating exclusively through the shared segment.
//!
//! The parent builds every segment view ([`SegRing`]/[`SegArena`]/
//! [`SegClaim`] are descriptors over shared offsets) into one [`World`]
//! before forking; children inherit the `MAP_SHARED` mapping at the same
//! address, so the views work unchanged on both sides.
//!
//! The dataflow per scheme is the threaded engine's (`docs/DESIGN.md` §1),
//! over `rings[src][dst]`, one SPSC ring of [`Envelope`]s per pair.  What
//! this engine keeps for itself is its loop, its aggregation buffers — WW
//! and WPs/WsP buffer privately, one `Vec` per destination worker or
//! process — and [`ProcCtx`]'s two [`EnvelopeCtx`] duties: delivery
//! (publish the count after the handler) and the push (ring, stash, or a
//! counted drop toward a dead peer).  Everything else is written once for
//! both engines: staging the local bypass, the stash, counting and shipping
//! a wire message and the shared PP claim buffers in [`crate::send`],
//! delivering, grouping and forwarding in [`crate::envelope`].  Partial
//! buffers ship on an explicit flush and, under `FlushPolicy::on_idle`, on a
//! quiet quantum into a drained lane ([`crate::quantum`]); this engine polls
//! no timeout.
//!
//! Every delivery failure path funnels through [`Envelope::discard`], which
//! charges the dropped items *and* returns slab storage to the owning arena
//! — the bookkeeping the crash-cleanup audit verifies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use metrics::Counters;
use net_model::{ProcId, Topology, WorkerId};
use runtime_api::{FaultKind, FaultPlan, FaultTrigger, Payload, RunCtx, WorkerApp};
use shmem::{SegArena, SegClaim, SegRing};
use sim_core::StreamRng;
use tramlib::group::group_in_place;
use tramlib::{EmitReason, Item, MessageDest, Scheme, TramConfig};

use super::layout::{self, RunCtl, WorkerStatus};
use crate::envelope::{handle_inbox, Envelope, EnvelopeCtx};
use crate::quantum::{self, QuietTracker, SelfClocked};
use crate::send::{self, WorkerIo};
use crate::sizing::{INBOX_BUDGET, STASH_THROTTLE};
use crate::sys;

/// Everything a worker process needs, built by the parent pre-fork and
/// inherited through the shared mapping.  All pointers target the segment.
pub(super) struct World {
    pub(super) tram: TramConfig,
    pub(super) topo: Topology,
    pub(super) seed: u64,
    pub(super) workers: usize,
    pub(super) procs: usize,
    pub(super) epoch: Instant,
    pub(super) faults: Option<FaultPlan>,
    pub(super) ctl: *const RunCtl,
    pub(super) status: *const WorkerStatus,
    pub(super) results: *mut u8,
    /// `rings[src * workers + dst]`: envelopes from `src` to `dst`.
    pub(super) rings: Vec<SegRing<Envelope>>,
    /// One arena per worker (empty unless the scheme seals slabs).
    pub(super) arenas: Vec<SegArena<Item<Payload>>>,
    /// `claims[src_proc * procs + dst_proc]` (empty unless PP).
    pub(super) claims: Vec<SegClaim<Item<Payload>>>,
}

impl World {
    pub(super) fn ctl(&self) -> &RunCtl {
        // SAFETY: the segment outlives the run on both sides of the fork.
        unsafe { &*self.ctl }
    }

    pub(super) fn status(&self, w: usize) -> &WorkerStatus {
        debug_assert!(w < self.workers);
        // SAFETY: `w` indexes the worker-status array reserved in the layout.
        unsafe { &*self.status.add(w) }
    }

    pub(super) fn ring(&self, src: usize, dst: usize) -> &SegRing<Envelope> {
        &self.rings[src * self.workers + dst]
    }

    pub(super) fn claim(&self, src_proc: usize, dst_proc: usize) -> &SegClaim<Item<Payload>> {
        &self.claims[src_proc * self.procs + dst_proc]
    }

    pub(super) fn result_region(&self, w: usize) -> *mut u8 {
        // SAFETY: `w` indexes the result array reserved in the layout.
        unsafe { self.results.add(w * layout::RESULT_REGION_BYTES) }
    }

    pub(super) fn dead_mask(&self) -> u64 {
        self.ctl().dead_mask.load(Ordering::Acquire)
    }
}

/// The process backend's [`RunCtx`]: one per child, owning the private half
/// of the dataflow (aggregation buffers, the send state of [`crate::send`],
/// RNG, counters).
pub(super) struct ProcCtx<'w> {
    world: &'w World,
    pub(super) me: WorkerId,
    my_proc: ProcId,
    scheme: Scheme,
    /// Aggregation buffer capacity (`g`).
    g: usize,
    rng: StreamRng,
    /// Application counters and the rare-path counts; the per-event runtime
    /// counts live in `io.tally`, folded in before the result is written.
    pub(super) counters: Counters,
    /// The aggregation buffers, one per destination: per worker under WW,
    /// per process under WPs/WsP ([`ProcCtx::slot_dest`]); none otherwise.
    bufs: Vec<Vec<Item<Payload>>>,
    /// Tallies, grouping scratch, local-bypass lanes, the per-destination
    /// stash and the PP drain scratch ([`crate::send`]).
    io: WorkerIo,
    /// PP only: a quiet-quantum flush of the process-shared claim buffers is
    /// due (set on the first quiet quantum after a non-quiet one, cleared
    /// once no buffer had to be held back).
    pp_flush_due: bool,
    /// Local mirror of the shared `sent` counter (fault-trigger clock).
    pub(super) local_sent: u64,
    /// Cached dead mask, refreshed once per quantum.
    dead: u64,
    /// Workers sharing this worker's process, excluding itself: the writers
    /// whose death permits skipping unstamped claim slots.
    sibling_mask: u64,
}

impl<'w> ProcCtx<'w> {
    pub(super) fn new(world: &'w World, me: WorkerId) -> Self {
        let my_proc = world.topo.proc_of_worker(me);
        let scheme = world.tram.scheme;
        let mut sibling_mask = 0u64;
        for w in world.topo.all_workers() {
            if world.topo.proc_of_worker(w) == my_proc && w != me {
                sibling_mask |= 1 << w.0;
            }
        }
        Self {
            world,
            me,
            my_proc,
            scheme,
            g: world.tram.buffer_items.max(1),
            rng: StreamRng::new(world.seed, u64::from(me.0)),
            counters: Counters::new(),
            bufs: match scheme {
                Scheme::WW => vec![Vec::new(); world.workers],
                Scheme::WPs | Scheme::WsP => vec![Vec::new(); world.procs],
                Scheme::NoAgg | Scheme::PP => Vec::new(),
            },
            io: WorkerIo::new(world.tram),
            pp_flush_due: false,
            local_sent: 0,
            dead: 0,
            sibling_mask,
        }
    }

    fn status(&self) -> &WorkerStatus {
        self.world.status(self.me.0 as usize)
    }

    pub(super) fn refresh_dead(&mut self) {
        self.dead = self.world.dead_mask();
    }

    fn is_dead(&self, w: usize) -> bool {
        self.dead >> w & 1 == 1
    }

    /// Retry stashed envelopes, batched (one tail publication per
    /// destination); envelopes whose destination has died since are
    /// dropped.  Returns whether anything moved.
    pub(super) fn flush_stash(&mut self) -> bool {
        if self.io.stash.is_empty() {
            return false;
        }
        let (world, me, dead) = (self.world, self.me.idx(), self.dead);
        let stash = &mut self.io.stash;
        let mut dropped = 0;
        for dst in (0..world.workers).filter(|&dst| dead >> dst & 1 == 1) {
            dropped += stash.discard_lane(dst, |owner| &world.arenas[owner]);
        }
        let moved = stash.retry(0..world.workers, |dst| world.ring(me, dst));
        self.count_dropped(dropped);
        dropped > 0 || moved > 0
    }

    /// Where the buffer of `slot` is addressed: a worker (WW) or a process
    /// (WPs/WsP).
    fn slot_dest(&self, slot: usize) -> MessageDest {
        match self.scheme {
            Scheme::WW => MessageDest::Worker(WorkerId(slot as u32)),
            _ => MessageDest::Process(ProcId(slot as u32)),
        }
    }

    /// Ship the buffer of `slot` as one message (WsP groups it first).
    fn emit(&mut self, slot: usize, reason: EmitReason) {
        let mut buf = std::mem::take(&mut self.bufs[slot]);
        let grouped = self.scheme == Scheme::WsP;
        if grouped {
            let wpp = self.world.topo.workers_per_proc() as usize;
            group_in_place(&mut buf, wpp, &mut self.io.group_scratch);
        }
        send::ship_message(self, self.slot_dest(slot), grouped, reason, &buf);
        buf.clear();
        self.bufs[slot] = buf;
    }

    /// The process engine's gate of the self-clocked flush
    /// ([`quantum::lane_drained`]): is everything this worker shipped toward
    /// `dest`'s receiver consumed?  A dead receiver holds nothing back —
    /// shipping to it is a counted drop.
    fn lane_drained(&self, dest: MessageDest) -> bool {
        let dst = send::receiver_of(self, dest).idx();
        let ring = self.world.ring(self.me.idx(), dst);
        self.is_dead(dst) || quantum::lane_drained(ring.len(), self.io.stash.lane_len(dst))
    }

    /// Ship every non-empty aggregation buffer — private or the shared PP
    /// claim buffer — whose destination `release` lets go, as `reason`.
    /// Returns whether a buffer was held back.
    fn flush_buffers(
        &mut self,
        reason: EmitReason,
        release: impl Fn(&Self, MessageDest) -> bool,
    ) -> bool {
        let mut held = self.scheme == Scheme::PP && send::pp_flush_where(self, reason, &release);
        for slot in 0..self.bufs.len() {
            if self.bufs[slot].is_empty() {
                continue;
            }
            if release(self, self.slot_dest(slot)) {
                self.emit(slot, reason);
            } else {
                held = true;
            }
        }
        held
    }

    /// Are all private buffers empty?  Gates the done flag: nothing this
    /// worker still owns may be in flight when it reports done.
    pub(super) fn buffers_empty(&self) -> bool {
        self.io.is_empty() && self.bufs.iter().all(Vec::is_empty)
    }

    /// Panic path: abandon all unshipped production, counting every item
    /// dropped and returning stashed slabs to the arena.
    fn abandon_production(&mut self) -> u64 {
        let world = self.world;
        let dropped: usize = self.bufs.iter_mut().map(|buf| buf.drain(..).count()).sum();
        dropped as u64 + self.io.abandon(|owner| &world.arenas[owner])
    }
}

impl RunCtx for ProcCtx<'_> {
    fn my_id(&self) -> WorkerId {
        self.me
    }

    fn topology(&self) -> Topology {
        self.world.topo
    }

    fn now_ns(&self) -> u64 {
        self.world.epoch.elapsed().as_nanos() as u64
    }

    fn rng(&mut self) -> &mut StreamRng {
        &mut self.rng
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    fn send(&mut self, dest: WorkerId, payload: Payload) {
        // Eager count: published before the item lands anywhere, so a kill
        // between here and delivery leaves `sent >= delivered + dropped` —
        // the settlement residual, never a phantom delivery.
        self.status().sent.fetch_add(1, Ordering::Release);
        self.local_sent += 1;
        // Each arm builds its own item, so the hot arm writes it straight
        // into its buffer.  Built once for every arm, the item lived on the
        // stack, and its copy into the buffer stalled store forwarding: about
        // 10 % of `hist_process`'s throughput.
        let dst_proc = self.world.topo.proc_of_worker(dest);
        if self.world.tram.local_bypass && dst_proc == self.my_proc {
            // Same logical process: skip aggregation, and do not count the
            // envelope as wire traffic (it crosses an OS-process boundary
            // here, but not a *modelled* one — matching the threaded
            // backend's accounting).
            send::stage_local(self, Item::new(dest, payload, 0));
            return;
        }
        let slot = match self.scheme {
            Scheme::NoAgg => {
                let (to, item) = (MessageDest::Worker(dest), Item::new(dest, payload, 0));
                send::ship_message(self, to, false, EmitReason::Unaggregated, &[item]);
                return;
            }
            Scheme::PP => return send::pp_insert(self, Item::new(dest, payload, 0)),
            Scheme::WW => dest.idx(),
            Scheme::WPs | Scheme::WsP => dst_proc.idx(),
        };
        self.bufs[slot].push(Item::new(dest, payload, 0));
        if self.bufs[slot].len() >= self.g {
            self.emit(slot, EmitReason::BufferFull);
        }
    }

    fn flush(&mut self) {
        // An explicit flush means "everything I sent is on its way": the
        // local-bypass batches too.
        send::flush_local(self);
        self.flush_buffers(EmitReason::ExplicitFlush, |_, _| true);
    }

    fn flush_on_idle(&mut self) {
        if self.world.tram.flush_policy.on_idle {
            self.flush_buffers(EmitReason::IdleFlush, |_, _| true);
        }
    }
}

impl SelfClocked for ProcCtx<'_> {
    fn items_sent(&self) -> u64 {
        self.local_sent
    }

    fn flush_quiet(&mut self, first: bool) {
        if self.scheme != Scheme::PP {
            self.flush_buffers(EmitReason::IdleFlush, Self::lane_drained);
        } else if first || self.pp_flush_due {
            // Edge-triggered: the shared claim buffers are drained once per
            // burst of activity of *this* worker, retried only while the
            // gate holds one back.
            self.pp_flush_due = self.flush_buffers(EmitReason::IdleFlush, Self::lane_drained);
        }
    }
}

impl<'w> EnvelopeCtx<'w> for ProcCtx<'w> {
    fn arena(&self, owner: u32) -> &'w SegArena<Item<Payload>> {
        &self.world.arenas[owner as usize]
    }

    fn own_arena(&self) -> Option<&'w SegArena<Item<Payload>>> {
        self.world.arenas.get(self.me.idx())
    }

    /// Dead destinations drop (with slab bookkeeping), full rings overflow
    /// into the per-destination stash.  Envelopes behind stashed ones stash
    /// too, preserving order.
    fn push(&mut self, dst: WorkerId, env: Envelope) {
        let dst = dst.idx();
        if self.is_dead(dst) {
            let dropped = env.discard(|owner| &self.world.arenas[owner]);
            self.count_dropped(dropped);
            return;
        }
        let ring = self.world.ring(self.me.idx(), dst);
        self.io.stash.push(dst, ring, env);
    }

    /// Hand the batch to the application and publish the count — strictly
    /// after the handler, so handler-generated sends are always counted
    /// first.
    fn deliver(&mut self, app: &mut dyn WorkerApp, items: &[Item<Payload>]) {
        app.on_item_slice(items, self);
        self.status()
            .delivered
            .fetch_add(items.len() as u64, Ordering::Release);
    }

    fn io(&mut self) -> &mut WorkerIo {
        &mut self.io
    }

    fn claim(&self, dst: ProcId) -> &'w SegClaim<Item<Payload>> {
        self.world.claim(self.my_proc.idx(), dst.idx())
    }

    /// The run is stopping, or a sibling died — possibly between claiming
    /// a slot and stamping it.  Both read fresh from the segment.
    fn claim_stalled(&self) -> bool {
        self.world.ctl().stop.load(Ordering::Acquire) != 0
            || self.world.dead_mask() & self.sibling_mask != 0
    }

    fn count_dropped(&mut self, items: u64) {
        if items > 0 {
            self.status().dropped.fetch_add(items, Ordering::Release);
        }
    }
}

/// The child-side subset of a fault plan: `Panic` and `Stall` fire inside
/// the worker loop; `Kill` is supervisor-fired (a real SIGKILL cannot be
/// self-scheduled deterministically — the victim must not cooperate).
struct ChildFault {
    kind: FaultKind,
    trigger: FaultTrigger,
    fired: bool,
}

struct ChildFaults {
    faults: Vec<ChildFault>,
}

impl ChildFaults {
    fn compile(plan: Option<&FaultPlan>, me: u32) -> Option<Self> {
        let faults: Vec<ChildFault> = plan?
            .for_worker(me)
            .filter(|f| matches!(f.kind, FaultKind::Panic | FaultKind::Stall { .. }))
            .map(|f| ChildFault {
                kind: f.kind,
                trigger: f.trigger,
                fired: false,
            })
            .collect();
        (!faults.is_empty()).then_some(Self { faults })
    }

    fn poll(&mut self, ctx: &mut ProcCtx<'_>) {
        for fault in &mut self.faults {
            if fault.fired {
                continue;
            }
            let reached = match fault.trigger {
                FaultTrigger::Items(n) => ctx.local_sent >= n,
                FaultTrigger::Flushes(n) => ctx.io.tally.wire_messages_flush >= n,
                // `compile` keeps only Panic/Stall worker faults; wire faults
                // are node-scoped and never reach a child process.
                FaultTrigger::Sends(_) => unreachable!("wire faults never target a worker"),
            };
            if !reached {
                continue;
            }
            fault.fired = true;
            ctx.world.ctl().faults_fired.fetch_add(1, Ordering::Relaxed);
            match fault.kind {
                FaultKind::Stall { micros } => {
                    ctx.counters.incr("fault_stall");
                    std::thread::sleep(Duration::from_micros(u64::from(micros)));
                }
                FaultKind::Panic => {
                    ctx.counters.incr("fault_panic");
                    panic!("injected fault: worker {} panicked", ctx.me.0);
                }
                _ => {}
            }
        }
    }
}

/// The healthy scheduling loop of one worker process: drain inboxes,
/// generate work, honour quiesce, ship partial buffers on quiet quanta, back
/// off when idle.
fn child_loop(world: &World, app: &mut dyn WorkerApp, ctx: &mut ProcCtx<'_>) {
    let me = ctx.me.0 as usize;
    let ctl = world.ctl();
    let mut faults = ChildFaults::compile(world.faults.as_ref(), ctx.me.0);
    let mut inbox: Vec<Envelope> = Vec::with_capacity(INBOX_BUDGET);
    let diagonal = world.ring(me, me);
    let mut beats = 0u64;
    let mut idle_rounds = 0u32;
    let mut quiet = QuietTracker::new(world.tram.flush_policy.on_idle);
    let mut quiesced = false;
    loop {
        if ctl.stop.load(Ordering::Acquire) != 0 {
            break;
        }
        beats += 1;
        ctx.status().heartbeat.store(beats, Ordering::Relaxed);
        ctx.refresh_dead();
        if let Some(faults) = faults.as_mut() {
            faults.poll(ctx);
        }
        let mut did_work = ctx.flush_stash();
        for src in 0..world.workers {
            world.ring(src, me).pop_into(&mut inbox, INBOX_BUDGET);
            did_work |= handle_inbox(app, ctx, &mut inbox);
        }
        // A graceful-shutdown request: stop generating, one final flush,
        // count as done (the same protocol as the threaded backend).
        let quiescing = ctl.quiesce.load(Ordering::Acquire) != 0;
        if quiescing && !quiesced {
            ctx.flush();
            quiesced = true;
            did_work = true;
        }
        let throttled = ctx.io.stash.len() >= STASH_THROTTLE;
        // What the quantum moved, before the app has its say: `on_idle`'s
        // return value decides napping below, never flushing.
        let moved = did_work;
        if !did_work && !quiescing && !throttled && !app.local_done() {
            did_work = app.on_idle(ctx);
        }
        // The self-clocked flush (`crate::quantum`): on a quiet quantum a
        // partial buffer ships if its lane is drained.
        quiet.end_quantum(ctx, moved);
        // Quantum end, busy or idle: no local-bypass batch outlives the
        // iteration that filled it.
        send::flush_local(ctx);
        // This worker is the group receiver of its own process-addressed
        // messages to its own process (and the target of its own bypass
        // batches): one more budgeted pop of its diagonal ring hands what
        // this quantum shipped to itself on now, not a loop turn later.
        diagonal.pop_into(&mut inbox, INBOX_BUDGET);
        did_work |= handle_inbox(app, ctx, &mut inbox);
        let done = (app.local_done() || quiesced) && ctx.buffers_empty();
        let status = ctx.status();
        status
            .stash
            .store(ctx.io.stash.len() as u64, Ordering::Relaxed);
        // The clock of the supervisor's `Kill` faults on flushes.
        let flushes = ctx.io.tally.wire_messages_flush;
        status.flush_emits.store(flushes, Ordering::Relaxed);
        status.done.store(u32::from(done), Ordering::Release);
        if did_work {
            idle_rounds = 0;
            continue;
        }
        idle_rounds += 1;
        if idle_rounds < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Entry point of a forked worker process.  Never returns: the only exits
/// are `exit_group(0)` (stop honoured, counters serialized) and
/// `exit_group(101)` (panic quarantined, message serialized).
pub(super) fn child_main(world: &World, me: WorkerId, mut app: Box<dyn WorkerApp>) -> ! {
    // Silence the default hook: the panic message travels through the
    // result region (via catch_unwind), not the inherited stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let mut ctx = ProcCtx::new(world, me);
    while world.ctl().go.load(Ordering::Acquire) == 0 {
        std::hint::spin_loop();
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        app.on_start(&mut ctx);
        child_loop(world, app.as_mut(), &mut ctx);
    }));
    // Before `on_finalize` and on every exit path: the serialized counters
    // (and what the app sees at finalize) include the runtime tallies.
    let arena = world.arenas.get(me.idx()).map(SegArena::stats);
    ctx.io.tally.fold_into(&mut ctx.counters, arena);
    let region = world.result_region(me.0 as usize);
    let code = match result {
        Ok(()) => {
            match catch_unwind(AssertUnwindSafe(|| app.on_finalize(&mut ctx.counters))) {
                Ok(()) => {
                    // SAFETY: this child owns its region exclusively.
                    unsafe { layout::write_result(region, &ctx.counters, None) };
                    0
                }
                Err(payload) => {
                    let message = crate::monitor::panic_message(payload.as_ref());
                    // SAFETY: as above.
                    unsafe { layout::write_result(region, &ctx.counters, Some(&message)) };
                    101
                }
            }
        }
        Err(payload) => {
            let message = crate::monitor::panic_message(payload.as_ref());
            let dropped = ctx.abandon_production();
            ctx.count_dropped(dropped);
            // SAFETY: as above.
            unsafe { layout::write_result(region, &ctx.counters, Some(&message)) };
            101
        }
    };
    // exit_group, never libc exit: no atexit handlers, no destructors — the
    // parent owns every shared resource.
    sys::exit_group(code)
}
