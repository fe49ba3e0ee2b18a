//! The child side of the multi-process backend: one forked process per
//! worker PE, communicating exclusively through the shared segment.
//!
//! The parent builds every segment view ([`SegRing`]/[`SegArena`]/
//! [`SegClaim`] are descriptors over shared offsets) into one [`World`]
//! before forking; children inherit the `MAP_SHARED` mapping at the same
//! address, so the views work unchanged on both sides.
//!
//! Dataflow per scheme (`rings[src][dst]` is an SPSC ring of the
//! [`Envelope`]s both native engines share):
//!
//! * **NoAgg** — one [`Envelope::Single`] per item, straight to the
//!   destination worker.
//! * **WW** — per-destination-worker buffers; a full buffer is written into
//!   a slab of the sender's arena and shipped as one worker-addressed
//!   [`Envelope::Slab`].
//! * **WPs** — per-destination-process buffers shipped ungrouped, as a
//!   process-addressed slab, to the sender's group receiver in the
//!   destination process (its rank-mate there, itself at home), which
//!   groups the slab in place with tramlib's stable kernel (it is the sole
//!   consumer at that point), delivers its own range and forwards peer
//!   ranges as [`Envelope::Slice`] descriptors after bumping the slab's
//!   consumer refcount.
//! * **WsP** — the source groups before sealing (`grouped_at_source`); the
//!   receiver's pass finds the slab grouped and moves nothing.
//! * **PP** — workers of a process insert into shared [`SegClaim`] buffers,
//!   one per destination process.  Drains (buffer-full `MustDrain` and
//!   explicit flushes alike) serialize through the buffer's drain lock and
//!   copy the collected items into one slab of the drainer's arena, shipped
//!   to the drainer's group receiver exactly as WPs ships.
//!
//! **Local bypass** (same-process traffic, `local_bypass` on) skips all of
//! the above: items stage in per-destination-worker buffers that never
//! outlive the scheduling quantum that filled them — at quantum end, or at
//! `g`, each is copied into a slab and shipped as one worker-addressed
//! descriptor.  NoAgg, which has no arena, ships local singles.
//!
//! A dry arena degrades a slab to singles bound for the same receiver; a
//! group receiver forwards a single addressed to a peer, so the fallback
//! never overtakes slabs shipped before it.
//!
//! **Partial aggregation buffers** ship on an explicit flush and, under
//! `FlushPolicy::on_idle`, on a quiet quantum into a drained lane — the rule
//! of [`crate::quantum`], shared with the threaded engine.  This engine
//! polls no timeout.
//!
//! What a child does with an inbound envelope — deliver, group, forward — is
//! [`crate::envelope`]'s, the one receive path of both native engines:
//! [`ProcCtx`] implements its [`EnvelopeCtx`], supplying delivery (publish
//! the count after the handler) and the push (ring, stash, or a counted drop
//! toward a dead peer).  Every delivery failure path funnels through
//! [`Envelope::discard`], which charges the dropped items *and* returns slab
//! storage to the owning arena — the bookkeeping the crash-cleanup audit
//! verifies.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use metrics::Counters;
use net_model::{ProcId, Topology, WorkerId};
use runtime_api::{FaultKind, FaultPlan, FaultTrigger, Payload, RunCtx, WorkerApp};
use shmem::{SegArena, SegClaim, SegClaimInsert, SegRing};
use sim_core::StreamRng;
use tramlib::group::{group_in_place, GroupScratch};
use tramlib::{Item, MessageDest, Scheme, TramConfig};

use super::layout::{self, RunCtl, WorkerStatus};
use crate::envelope::{self, handle_inbox, Envelope, EnvelopeCtx};
use crate::quantum::{self, QuietTracker, SelfClocked};
use crate::sizing::{INBOX_BUDGET, STASH_THROTTLE};
use crate::sys;
use crate::tally::Tally;

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
/// of the dataflow (aggregation buffers, overflow stash, RNG, counters).
pub(super) struct ProcCtx<'w> {
    world: &'w World,
    pub(super) me: WorkerId,
    my_proc: ProcId,
    scheme: Scheme,
    /// Aggregation buffer capacity (`g`).
    g: usize,
    rng: StreamRng,
    /// Application counters and the rare-path counts; the per-event runtime
    /// counts live in `tally`, folded in before the result is written.
    pub(super) counters: Counters,
    tally: Tally,
    /// WW: per-destination-worker buffers.
    bufs_worker: Vec<Vec<Item<Payload>>>,
    /// WPs/WsP: per-destination-process buffers.
    bufs_proc: Vec<Vec<Item<Payload>>>,
    /// Local-bypass staging, per destination worker (empty without the
    /// bypass or without an arena to seal into).  Unlike the aggregation
    /// buffers above these are plumbing, not the scheme: they never outlive
    /// the quantum that filled them ([`ProcCtx::flush_local`]).
    bufs_local: Vec<Vec<Item<Payload>>>,
    /// Per-destination overflow stash, retried every quantum (ring-full
    /// backpressure without blocking).
    stash: Vec<VecDeque<Envelope>>,
    pub(super) stash_len: usize,
    /// Reusable PP drain buffer.
    drain_buf: Vec<Item<Payload>>,
    /// Scratch of the grouping pass (WsP at the source, the group receiver
    /// at the destination), holding the last slab's per-worker ranges.
    group_scratch: GroupScratch<Payload>,
    /// Flush-triggered messages emitted — buffers shipped by an explicit or
    /// quiet-quantum flush, not by filling up (fault-trigger clock; the
    /// threaded engine counts the same thing).
    pub(super) flush_emits: u64,
    /// PP only: a quiet-quantum flush of the process-shared claim buffers is
    /// due (set on the first quiet quantum after a non-quiet one, cleared
    /// once no buffer had to be held back).
    pp_flush_due: bool,
    /// Local mirror of the shared `sent` counter (fault-trigger clock).
    pub(super) local_sent: u64,
    /// Cached dead mask, refreshed once per quantum (and on PP spins).
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
            tally: Tally::default(),
            bufs_worker: if scheme == Scheme::WW {
                (0..world.workers).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            bufs_proc: if matches!(scheme, Scheme::WPs | Scheme::WsP) {
                (0..world.procs).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            bufs_local: if world.tram.local_bypass && !world.arenas.is_empty() {
                (0..world.workers).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            stash: (0..world.workers).map(|_| VecDeque::new()).collect(),
            stash_len: 0,
            drain_buf: Vec::new(),
            group_scratch: GroupScratch::default(),
            flush_emits: 0,
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

    fn sibling_dead(&self) -> bool {
        self.dead & self.sibling_mask != 0
    }

    fn add_dropped(&mut self, n: u64) {
        if n > 0 {
            self.status().dropped.fetch_add(n, Ordering::Release);
        }
    }

    /// Retry stashed envelopes, batched (one tail publication per
    /// destination); envelopes whose destination has died since are
    /// dropped.  Returns whether anything moved.
    pub(super) fn flush_stash(&mut self) -> bool {
        if self.stash_len == 0 {
            return false;
        }
        let me = self.me.0 as usize;
        let mut moved = false;
        for dst in 0..self.world.workers {
            if self.stash[dst].is_empty() {
                continue;
            }
            if self.is_dead(dst) {
                while let Some(env) = self.stash[dst].pop_front() {
                    self.stash_len -= 1;
                    let dropped = env.discard(|owner| &self.world.arenas[owner]);
                    self.add_dropped(dropped);
                }
                moved = true;
                continue;
            }
            let pushed = self.world.ring(me, dst).push_from(&mut self.stash[dst]);
            self.stash_len -= pushed;
            moved |= pushed > 0;
        }
        moved
    }

    /// Ship `items` to worker `dst` as one wire message for `dest` — it
    /// crosses a modelled process boundary — by the shared fill-or-singles
    /// rule ([`envelope::ship`]).
    fn ship_wire(
        &mut self,
        dst: WorkerId,
        dest: MessageDest,
        grouped_at_source: bool,
        items: &[Item<Payload>],
    ) {
        self.tally.wire_items += items.len() as u64;
        self.tally.wire_messages += 1;
        envelope::ship(self, dst, dest, grouped_at_source, items);
    }

    fn emit_worker(&mut self, dst: usize) {
        let mut buf = std::mem::take(&mut self.bufs_worker[dst]);
        if !buf.is_empty() {
            let to = WorkerId(dst as u32);
            self.ship_wire(to, MessageDest::Worker(to), false, &buf);
            buf.clear();
        }
        self.bufs_worker[dst] = buf;
    }

    /// Ship the local-bypass batch staged for worker `dst`; it is not wire
    /// traffic.
    fn emit_local(&mut self, dst: usize) {
        let mut buf = std::mem::take(&mut self.bufs_local[dst]);
        if !buf.is_empty() {
            self.tally.local_batches += 1;
            self.tally.local_deliveries += buf.len() as u64;
            let to = WorkerId(dst as u32);
            envelope::ship(self, to, MessageDest::Worker(to), false, &buf);
            buf.clear();
        }
        self.bufs_local[dst] = buf;
    }

    /// Quantum end: ship every non-empty local-bypass batch.  Runs once per
    /// loop iteration, busy or idle, so a same-process item waits for the
    /// rest of its own quantum and nothing else.
    pub(super) fn flush_local(&mut self) {
        for dst in 0..self.bufs_local.len() {
            self.emit_local(dst);
        }
    }

    fn emit_proc(&mut self, dst_proc: usize) {
        let mut buf = std::mem::take(&mut self.bufs_proc[dst_proc]);
        if !buf.is_empty() {
            let grouped = self.scheme == Scheme::WsP;
            if grouped {
                let wpp = self.world.topo.workers_per_proc() as usize;
                group_in_place(&mut buf, wpp, &mut self.group_scratch);
            }
            self.ship_to_proc(dst_proc, grouped, &buf);
            buf.clear();
        }
        self.bufs_proc[dst_proc] = buf;
    }

    /// Ship `items` as one process-addressed wire message to this worker's
    /// group receiver in process `dst_proc`.
    fn ship_to_proc(&mut self, dst_proc: usize, grouped_at_source: bool, items: &[Item<Payload>]) {
        let dst_proc = ProcId(dst_proc as u32);
        let receiver = self.world.topo.group_receiver(self.me, dst_proc);
        let dest = MessageDest::Process(dst_proc);
        self.ship_wire(receiver, dest, grouped_at_source, items);
    }

    /// PP insert with the shared claim buffer's full protocol: `Stored` is
    /// the hot path, `MustDrain` takes the drain lock, `Retry` backs off —
    /// and bails (dropping the item) once the run is stopping or a sibling
    /// writer died holding the buffer wedged.
    fn pp_insert(&mut self, item: Item<Payload>) {
        let dst_proc = self.world.topo.proc_of_worker(item.dest).0 as usize;
        let claim = self.world.claim(self.my_proc.0 as usize, dst_proc);
        let mut spins = 0u32;
        loop {
            match claim.insert(item) {
                SegClaimInsert::Stored => return,
                SegClaimInsert::MustDrain => {
                    self.drain_claim(dst_proc);
                    return;
                }
                SegClaimInsert::Retry => {
                    if self.world.ctl().stop.load(Ordering::Acquire) != 0 || self.sibling_dead() {
                        self.add_dropped(1);
                        return;
                    }
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                    if spins % 1024 == 0 {
                        // A long-wedged buffer usually means its drainer
                        // died: pick up the dead mask without waiting for
                        // the next quantum.
                        self.refresh_dead();
                    }
                }
            }
        }
    }

    /// Take the drain lock and seal-flush the claim buffer toward process
    /// `dst_proc`, shipping the collected items as one slab to its group
    /// receiver.  Losing the lock race is fine: the holder's swap covers
    /// every slot claimed before it, including ours.  Returns whether this
    /// call shipped anything.
    fn drain_claim(&mut self, dst_proc: usize) -> bool {
        let claim = self.world.claim(self.my_proc.0 as usize, dst_proc);
        if !claim.try_begin_drain(self.me.0) {
            return false;
        }
        let mut out = std::mem::take(&mut self.drain_buf);
        out.clear();
        let ctl = self.world.ctl();
        let sibling_mask = self.sibling_mask;
        let (_drained, skipped) = claim.seal_flush(&mut out, || {
            ctl.stop.load(Ordering::Acquire) != 0
                || ctl.dead_mask.load(Ordering::Acquire) & sibling_mask != 0
        });
        // A skipped slot is a sibling's claim it died before stamping; its
        // send was already counted, so charge the drop here.
        self.add_dropped(skipped);
        self.counters.incr("pp_seal_flushes");
        let shipped = !out.is_empty();
        if shipped {
            self.ship_to_proc(dst_proc, false, &out);
        }
        self.drain_buf = out;
        shipped
    }

    /// The process engine's gate of the self-clocked flush
    /// ([`quantum::lane_drained`]): is everything this worker shipped toward
    /// worker `dst` consumed?  A dead destination holds nothing back —
    /// shipping to it is a counted drop.
    fn lane_drained(&self, dst: usize) -> bool {
        self.is_dead(dst)
            || quantum::lane_drained(
                self.world.ring(self.me.0 as usize, dst).len(),
                self.stash[dst].len(),
            )
    }

    /// Ship every non-empty aggregation buffer — with `gated`, only those
    /// whose lane toward their receiver is drained.  Counts one flush-
    /// triggered message per buffer shipped; returns whether a buffer was
    /// held back.
    fn flush_buffers(&mut self, gated: bool) -> bool {
        let before = self.flush_emits;
        let mut held = false;
        match self.scheme {
            Scheme::NoAgg => {}
            Scheme::WW => {
                for dst in 0..self.world.workers {
                    if self.bufs_worker[dst].is_empty() {
                        continue;
                    }
                    if gated && !self.lane_drained(dst) {
                        held = true;
                        continue;
                    }
                    self.emit_worker(dst);
                    self.flush_emits += 1;
                }
            }
            Scheme::WPs | Scheme::WsP | Scheme::PP => {
                // Every process-addressed buffer — private or the shared PP
                // claim buffer — ships to its group receiver.
                let pp = self.scheme == Scheme::PP;
                let src_proc = self.my_proc.0 as usize;
                for dst_proc in 0..self.world.procs {
                    let empty = if pp {
                        self.world.claim(src_proc, dst_proc).claim_count() == 0
                    } else {
                        self.bufs_proc[dst_proc].is_empty()
                    };
                    if empty {
                        continue;
                    }
                    let receiver = self
                        .world
                        .topo
                        .group_receiver(self.me, ProcId(dst_proc as u32));
                    if gated && !self.lane_drained(receiver.0 as usize) {
                        held = true;
                        continue;
                    }
                    let shipped = if pp {
                        self.drain_claim(dst_proc)
                    } else {
                        self.emit_proc(dst_proc);
                        true
                    };
                    self.flush_emits += u64::from(shipped);
                }
            }
        }
        if self.flush_emits != before {
            self.status()
                .flush_emits
                .store(self.flush_emits, Ordering::Relaxed);
        }
        held
    }

    /// Are all private buffers empty?  Gates the done flag: nothing this
    /// worker still owns may be in flight when it reports done.
    pub(super) fn buffers_empty(&self) -> bool {
        self.stash_len == 0
            && self.bufs_worker.iter().all(Vec::is_empty)
            && self.bufs_proc.iter().all(Vec::is_empty)
            && self.bufs_local.iter().all(Vec::is_empty)
    }

    /// Panic path: abandon all unshipped production, counting every item
    /// dropped and returning stashed slabs to the arena.
    fn abandon_production(&mut self) -> u64 {
        let mut dropped = 0u64;
        for buf in &mut self.bufs_worker {
            dropped += buf.len() as u64;
            buf.clear();
        }
        for buf in self.bufs_proc.iter_mut().chain(&mut self.bufs_local) {
            dropped += buf.len() as u64;
            buf.clear();
        }
        for dst in 0..self.world.workers {
            while let Some(env) = self.stash[dst].pop_front() {
                self.stash_len -= 1;
                dropped += env.discard(|owner| &self.world.arenas[owner]);
            }
        }
        dropped
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
        let item = Item::new(dest, payload, 0);
        let dst_proc = self.world.topo.proc_of_worker(dest);
        if self.world.tram.local_bypass && dst_proc == self.my_proc {
            // Same logical process: skip aggregation, and do not count the
            // envelope as wire traffic (it crosses an OS-process boundary
            // here, but not a *modelled* one — matching the threaded
            // backend's accounting).
            let dst = dest.0 as usize;
            if self.bufs_local.is_empty() {
                // No arena to copy a batch into (NoAgg): singles.
                self.tally.local_deliveries += 1;
                self.push(dest, Envelope::Single(item));
                return;
            }
            self.bufs_local[dst].push(item);
            if self.bufs_local[dst].len() >= self.g {
                self.emit_local(dst);
            }
            return;
        }
        match self.scheme {
            Scheme::NoAgg => {
                self.ship_wire(dest, MessageDest::Worker(dest), false, &[item]);
            }
            Scheme::WW => {
                let dst = dest.0 as usize;
                self.bufs_worker[dst].push(item);
                if self.bufs_worker[dst].len() >= self.g {
                    self.emit_worker(dst);
                }
            }
            Scheme::WPs | Scheme::WsP => {
                let dst = dst_proc.0 as usize;
                self.bufs_proc[dst].push(item);
                if self.bufs_proc[dst].len() >= self.g {
                    self.emit_proc(dst);
                }
            }
            Scheme::PP => self.pp_insert(item),
        }
    }

    fn flush(&mut self) {
        // An explicit flush means "everything I sent is on its way": the
        // local-bypass batches too.
        self.flush_local();
        self.flush_buffers(false);
    }

    fn flush_on_idle(&mut self) {
        if self.world.tram.flush_policy.on_idle {
            self.flush_buffers(false);
        }
    }
}

impl SelfClocked for ProcCtx<'_> {
    fn items_sent(&self) -> u64 {
        self.local_sent
    }

    fn flush_quiet(&mut self, first: bool) {
        if self.scheme != Scheme::PP {
            self.flush_buffers(true);
        } else if first || self.pp_flush_due {
            // Edge-triggered: the shared claim buffers are drained once per
            // burst of activity of *this* worker, retried only while the
            // gate holds one back.
            self.pp_flush_due = self.flush_buffers(true);
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
            self.add_dropped(dropped);
            return;
        }
        if self.stash[dst].is_empty() {
            if let Err(env) = self.world.ring(self.me.idx(), dst).push(env) {
                self.stash[dst].push_back(env);
                self.stash_len += 1;
            }
        } else {
            self.stash[dst].push_back(env);
            self.stash_len += 1;
        }
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

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }

    fn group_scratch(&mut self) -> &mut GroupScratch<Payload> {
        &mut self.group_scratch
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
                FaultTrigger::Flushes(n) => ctx.flush_emits >= n,
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
        let throttled = ctx.stash_len >= STASH_THROTTLE;
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
        ctx.flush_local();
        // This worker is the group receiver of its own process-addressed
        // messages to its own process (and the target of its own bypass
        // batches): one more budgeted pop of its diagonal ring hands what
        // this quantum shipped to itself on now, not a loop turn later.
        diagonal.pop_into(&mut inbox, INBOX_BUDGET);
        did_work |= handle_inbox(app, ctx, &mut inbox);
        let done = (app.local_done() || quiesced) && ctx.buffers_empty();
        ctx.status()
            .stash
            .store(ctx.stash_len as u64, Ordering::Relaxed);
        ctx.status().done.store(u32::from(done), Ordering::Release);
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
    ctx.tally.fold_into(&mut ctx.counters, arena);
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
            ctx.add_dropped(dropped);
            // SAFETY: as above.
            unsafe { layout::write_result(region, &ctx.counters, Some(&message)) };
            101
        }
    };
    // exit_group, never libc exit: no atexit handlers, no destructors — the
    // parent owns every shared resource.
    sys::exit_group(code)
}
