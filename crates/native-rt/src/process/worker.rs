//! The child side of the multi-process backend: one forked process per
//! worker PE, communicating exclusively through the shared segment.
//!
//! The parent builds every segment view ([`SegRing`]/[`SegArena`]/
//! [`SegClaim`] are `Copy` descriptors over shared offsets) into one
//! [`World`] before forking; children inherit the `MAP_SHARED` mapping at
//! the same address, so the views work unchanged on both sides.
//!
//! Dataflow per scheme (`rings[src][dst]` is an SPSC envelope ring):
//!
//! * **NoAgg** — one [`TAG_SINGLE`] envelope per item, straight to the
//!   destination worker.
//! * **WW** — per-destination-worker buffers; a full buffer is written into
//!   a slab of the sender's arena and shipped as one [`TAG_SLAB_WORKER`]
//!   descriptor.
//! * **WPs** — per-destination-process buffers shipped ungrouped
//!   ([`TAG_SLAB_PROC`]) to the destination's group receiver, which groups
//!   the slab in place with tramlib's stable kernel (it is the sole consumer
//!   at that point), delivers its own range and forwards peer ranges as
//!   [`TAG_SLAB_SLICE`] descriptors after bumping the slab's consumer
//!   refcount.
//! * **WsP** — the source groups before sealing ([`TAG_SLAB_PROC_GROUPED`]);
//!   the receiver's pass finds the slab grouped and moves nothing.
//! * **PP** — workers of a process insert into shared [`SegClaim`] buffers,
//!   one per destination process.  Drains (buffer-full `MustDrain` and
//!   explicit flushes alike) serialize through the buffer's drain lock and
//!   re-ship the collected items as singles.
//!
//! **Local bypass** (same-process traffic, `local_bypass` on) skips all of
//! the above: items stage in per-destination-worker buffers that never
//! outlive the scheduling quantum that filled them — at quantum end, or at
//! `g`, each is sealed into a slab and shipped as one [`TAG_SLAB_WORKER`]
//! descriptor.  Schemes without an arena (NoAgg, PP) ship singles.
//!
//! **Partial aggregation buffers** ship on an explicit flush and, under
//! `FlushPolicy::on_idle`, on a quiet quantum into a drained lane — the rule
//! of [`crate::quantum`], shared with the threaded engine.  This engine
//! polls no timeout.
//!
//! Every delivery failure path funnels through [`drop_envelope`], which
//! charges the dropped items *and* returns slab storage to the owning arena
//! — the bookkeeping the crash-cleanup audit verifies.

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
use tramlib::{Item, Scheme, TramConfig};

use super::layout::{self, RunCtl, WorkerStatus};
use crate::quantum::{self, QuietTracker, SelfClocked};
use crate::sys;
use crate::tally::Tally;
use crate::threaded::STASH_THROTTLE;

use super::INBOX_BUDGET;

/// A single item, carried inline.
pub(super) const TAG_SINGLE: u32 = 0;
/// A whole sealed slab addressed to one worker (WW).
pub(super) const TAG_SLAB_WORKER: u32 = 1;
/// An ungrouped process-addressed slab (WPs): the receiver groups it.
pub(super) const TAG_SLAB_PROC: u32 = 2;
/// A source-grouped process-addressed slab (WsP).
pub(super) const TAG_SLAB_PROC_GROUPED: u32 = 3;
/// A pre-grouped per-worker index range of a slab, forwarded by the group
/// receiver; `owner` is the arena-owning worker, not the forwarder.
pub(super) const TAG_SLAB_SLICE: u32 = 4;

/// One unit of inter-process traffic.  Fixed-size and `Copy` so it can ride
/// a [`SegRing`]; slab variants carry a descriptor, singles carry the item.
#[repr(C)]
#[derive(Clone, Copy)]
pub(super) struct WireEnvelope {
    pub(super) tag: u32,
    /// Worker whose arena owns the slab (slab tags only).
    pub(super) owner: u32,
    pub(super) slab: u32,
    pub(super) start: u32,
    pub(super) len: u32,
    /// Slab generation at seal time (diagnostic cross-check).
    pub(super) generation: u32,
    pub(super) item: Item<Payload>,
}

impl WireEnvelope {
    fn single(item: Item<Payload>) -> Self {
        Self {
            tag: TAG_SINGLE,
            owner: 0,
            slab: 0,
            start: 0,
            len: 1,
            generation: 0,
            item,
        }
    }

    fn slab(tag: u32, owner: u32, slab: u32, start: u32, len: u32, generation: u32) -> Self {
        Self {
            tag,
            owner,
            slab,
            start,
            len,
            generation,
            item: Item::new(WorkerId(0), Payload::new(0, 0), 0),
        }
    }
}

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
    pub(super) rings: Vec<SegRing<WireEnvelope>>,
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

    pub(super) fn ring(&self, src: usize, dst: usize) -> &SegRing<WireEnvelope> {
        &self.rings[src * self.workers + dst]
    }

    pub(super) fn claim(&self, src_proc: usize, dst_proc: usize) -> SegClaim<Item<Payload>> {
        self.claims[src_proc * self.procs + dst_proc]
    }

    pub(super) fn result_region(&self, w: usize) -> *mut u8 {
        // SAFETY: `w` indexes the result array reserved in the layout.
        unsafe { self.results.add(w * layout::RESULT_REGION_BYTES) }
    }

    pub(super) fn dead_mask(&self) -> u64 {
        self.ctl().dead_mask.load(Ordering::Acquire)
    }
}

/// Account one undeliverable envelope (its consumer is dead or the run is
/// settling): returns the item count to charge dropped, after giving any
/// slab storage back to the owning arena.  Shared by children (dead-peer
/// drops) and the supervisor (victim-inbox and settlement drains).
pub(super) fn drop_envelope(world: &World, env: &WireEnvelope) -> u64 {
    match env.tag {
        TAG_SINGLE => 1,
        TAG_SLAB_WORKER | TAG_SLAB_PROC | TAG_SLAB_PROC_GROUPED | TAG_SLAB_SLICE => {
            let arena = world.arenas[env.owner as usize];
            if arena.finish_consumer(env.slab) {
                arena.release(env.slab);
            }
            u64::from(env.len)
        }
        _ => 0,
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
    stash: Vec<VecDeque<WireEnvelope>>,
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

    /// Ship one envelope to `dst`: dead destinations drop (with slab
    /// bookkeeping), full rings overflow into the per-destination stash.
    /// Envelopes behind stashed ones stash too, preserving order.
    fn push_env(&mut self, dst: usize, env: WireEnvelope) {
        if self.is_dead(dst) {
            let dropped = drop_envelope(self.world, &env);
            self.add_dropped(dropped);
            return;
        }
        if self.stash[dst].is_empty() {
            if let Err(env) = self.world.ring(self.me.0 as usize, dst).push(env) {
                self.stash[dst].push_back(env);
                self.stash_len += 1;
            }
        } else {
            self.stash[dst].push_back(env);
            self.stash_len += 1;
        }
    }

    /// Retry stashed envelopes; envelopes whose destination has died since
    /// are dropped.  Returns whether anything moved.
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
                    let dropped = drop_envelope(self.world, &env);
                    self.add_dropped(dropped);
                }
                moved = true;
                continue;
            }
            while let Some(&env) = self.stash[dst].front() {
                if self.world.ring(me, dst).push(env).is_err() {
                    break;
                }
                self.stash[dst].pop_front();
                self.stash_len -= 1;
                moved = true;
            }
        }
        moved
    }

    fn ship_single(&mut self, item: Item<Payload>) {
        self.tally.wire_messages += 1;
        self.tally.wire_items += 1;
        let dst = item.dest.0 as usize;
        self.push_env(dst, WireEnvelope::single(item));
    }

    /// Seal `buf` into a slab of this worker's arena and ship the descriptor
    /// to `dst`; a dry arena degrades to singles (a throughput dip recorded
    /// in `arena_claim_misses`, never a loss).  Returns the number of
    /// envelopes shipped; whether they count as wire messages is the
    /// caller's call (local-bypass batches do not).
    fn ship_slab(&mut self, dst: usize, tag: u32, buf: &mut Vec<Item<Payload>>) -> u64 {
        let me = self.me.0 as usize;
        let arena = self.world.arenas[me];
        let envelopes = if let Some(slab) = arena.try_claim() {
            self.tally.arena_claims += 1;
            for (i, item) in buf.iter().enumerate() {
                // SAFETY: `try_claim` granted exclusive ownership of `slab`;
                // `buf.len() <= g` = the slab capacity.
                unsafe { arena.write(slab, i, *item) };
            }
            let handle = arena.seal(slab, buf.len() as u32);
            self.push_env(
                dst,
                WireEnvelope::slab(
                    tag,
                    me as u32,
                    handle.slab,
                    0,
                    handle.len,
                    handle.generation,
                ),
            );
            1
        } else {
            self.counters.incr("arena_claim_misses");
            for &item in buf.iter() {
                self.push_env(item.dest.0 as usize, WireEnvelope::single(item));
            }
            buf.len() as u64
        };
        buf.clear();
        envelopes
    }

    /// [`ProcCtx::ship_slab`] for aggregated traffic, which crosses a
    /// modelled process boundary and is accounted as wire messages.
    fn ship_wire_slab(&mut self, dst: usize, tag: u32, buf: &mut Vec<Item<Payload>>) {
        self.tally.wire_items += buf.len() as u64;
        let envelopes = self.ship_slab(dst, tag, buf);
        self.tally.wire_messages += envelopes;
    }

    fn emit_worker(&mut self, dst: usize) {
        let mut buf = std::mem::take(&mut self.bufs_worker[dst]);
        if !buf.is_empty() {
            self.ship_wire_slab(dst, TAG_SLAB_WORKER, &mut buf);
        }
        self.bufs_worker[dst] = buf;
    }

    /// Ship the local-bypass batch staged for worker `dst`.
    fn emit_local(&mut self, dst: usize) {
        let mut buf = std::mem::take(&mut self.bufs_local[dst]);
        if !buf.is_empty() {
            self.tally.local_batches += 1;
            self.tally.local_deliveries += buf.len() as u64;
            self.ship_slab(dst, TAG_SLAB_WORKER, &mut buf);
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
            let tag = if self.scheme == Scheme::WsP {
                let wpp = self.world.topo.workers_per_proc() as usize;
                group_in_place(&mut buf, wpp, &mut self.group_scratch);
                TAG_SLAB_PROC_GROUPED
            } else {
                TAG_SLAB_PROC
            };
            let receiver = self
                .world
                .topo
                .group_receiver(self.my_proc, ProcId(dst_proc as u32));
            self.ship_wire_slab(receiver.0 as usize, tag, &mut buf);
        }
        self.bufs_proc[dst_proc] = buf;
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
                    self.drain_claim(claim);
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

    /// Take the drain lock and seal-flush `claim`, re-shipping the collected
    /// items as singles.  Losing the lock race is fine: the holder's swap
    /// covers every slot claimed before it, including ours.  Returns whether
    /// this call shipped anything.
    fn drain_claim(&mut self, claim: SegClaim<Item<Payload>>) -> bool {
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
        for item in out.drain(..) {
            self.ship_single(item);
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
            Scheme::WPs | Scheme::WsP => {
                for dst_proc in 0..self.world.procs {
                    if self.bufs_proc[dst_proc].is_empty() {
                        continue;
                    }
                    let receiver = self
                        .world
                        .topo
                        .group_receiver(self.my_proc, ProcId(dst_proc as u32));
                    if gated && !self.lane_drained(receiver.0 as usize) {
                        held = true;
                        continue;
                    }
                    self.emit_proc(dst_proc);
                    self.flush_emits += 1;
                }
            }
            Scheme::PP => {
                let topo = self.world.topo;
                let src_proc = self.my_proc.0 as usize;
                for dst_proc in 0..self.world.procs {
                    let claim = self.world.claim(src_proc, dst_proc);
                    if claim.claim_count() == 0 {
                        continue;
                    }
                    // A drained claim buffer re-ships as singles: its lanes
                    // are the rings toward every worker of the destination.
                    if gated
                        && !topo
                            .workers_of(ProcId(dst_proc as u32))
                            .all(|w| self.lane_drained(w.0 as usize))
                    {
                        held = true;
                        continue;
                    }
                    if self.drain_claim(claim) {
                        self.flush_emits += 1;
                    }
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
                dropped += drop_envelope(self.world, &env);
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
                // No arena to seal a batch into (NoAgg, PP): singles.
                self.tally.local_deliveries += 1;
                self.push_env(dst, WireEnvelope::single(item));
                return;
            }
            self.bufs_local[dst].push(item);
            if self.bufs_local[dst].len() >= self.g {
                self.emit_local(dst);
            }
            return;
        }
        match self.scheme {
            Scheme::NoAgg => self.ship_single(item),
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

/// Deliver a batch to the application and publish the count — strictly after
/// the handler, so handler-generated sends are always counted first.
fn deliver(app: &mut dyn WorkerApp, ctx: &mut ProcCtx<'_>, items: &[Item<Payload>]) {
    if items.is_empty() {
        return;
    }
    app.on_item_slice(items, ctx);
    ctx.status()
        .delivered
        .fetch_add(items.len() as u64, Ordering::Release);
}

/// Receive-side grouping pass for a process-addressed slab: group it in
/// place (a no-op on a source-grouped WsP slab), forward peer ranges
/// (consumer refcount bumped first), deliver the own range, drop this
/// consumer's reference.
fn group_and_forward(app: &mut dyn WorkerApp, ctx: &mut ProcCtx<'_>, env: WireEnvelope) {
    let me = ctx.me;
    let arena = ctx.world.arenas[env.owner as usize];
    let wpp = ctx.world.topo.workers_per_proc() as usize;
    // Out of `ctx` while its ranges are read, so `push_env` can borrow it.
    let mut scratch = std::mem::take(&mut ctx.group_scratch);
    let ranges = {
        // SAFETY: outstanding == 1 here — this worker is the slab's sole
        // consumer until `add_consumers` below — so the mutable view is
        // exclusive.
        let items = unsafe { arena.slice_mut(env.slab, 0, env.len) };
        group_in_place(items, wpp, &mut scratch)
    };
    ctx.tally.grouping_passes += 1;
    ctx.tally.grouped_items += u64::from(env.len);
    let forwards = ranges.iter().filter(|&&(dest, _, _)| dest != me).count() as u32;
    if forwards > 0 {
        // Before any forward leaves: a fast peer must never drive the
        // refcount to zero while ranges are still being pushed.
        arena.add_consumers(env.slab, forwards);
    }
    for &(dest, slice_start, slice_len) in ranges {
        if dest == me {
            continue;
        }
        ctx.push_env(
            dest.0 as usize,
            WireEnvelope::slab(
                TAG_SLAB_SLICE,
                env.owner,
                env.slab,
                slice_start,
                slice_len,
                env.generation,
            ),
        );
    }
    if let Some(&(_, slice_start, slice_len)) = ranges.iter().find(|&&(dest, _, _)| dest == me) {
        // SAFETY: same sealed slab; the range came from the grouping pass.
        let mine = unsafe { arena.slice(env.slab, slice_start, slice_len) };
        deliver(app, ctx, mine);
    }
    ctx.group_scratch = scratch;
    if arena.finish_consumer(env.slab) {
        arena.release(env.slab);
    }
}

/// Dispatch one inbound envelope.
fn handle_envelope(app: &mut dyn WorkerApp, ctx: &mut ProcCtx<'_>, env: WireEnvelope) {
    match env.tag {
        TAG_SINGLE => {
            let item = env.item;
            deliver(app, ctx, &[item]);
        }
        TAG_SLAB_WORKER | TAG_SLAB_SLICE => {
            let arena = ctx.world.arenas[env.owner as usize];
            // SAFETY: sealed slab; this worker holds a consumer reference.
            let items = unsafe { arena.slice(env.slab, env.start, env.len) };
            deliver(app, ctx, items);
            if arena.finish_consumer(env.slab) {
                arena.release(env.slab);
            }
        }
        TAG_SLAB_PROC | TAG_SLAB_PROC_GROUPED => group_and_forward(app, ctx, env),
        _ => {}
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
    let mut inbox: Vec<WireEnvelope> = Vec::with_capacity(INBOX_BUDGET);
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
            let popped = world.ring(src, me).pop_into(&mut inbox, INBOX_BUDGET);
            if popped == 0 {
                continue;
            }
            for env in inbox.drain(..) {
                handle_envelope(app, ctx, env);
            }
            did_work = true;
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
    ctx.tally.fold_into(&mut ctx.counters);
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
                    let message = crate::threaded::panic_message(payload.as_ref());
                    // SAFETY: as above.
                    unsafe { layout::write_result(region, &ctx.counters, Some(&message)) };
                    101
                }
            }
        }
        Err(payload) => {
            let message = crate::threaded::panic_message(payload.as_ref());
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
