//! The send side of both native engines, written once: the local-bypass
//! lanes, the per-destination stash, the one ship-and-count rule of a wire
//! message and the process-shared (PP) claim buffers.
//!
//! Like the receive side ([`crate::envelope`]), every function here is
//! generic over [`EnvelopeCtx`] and statically dispatched.  What stays per
//! engine is which ring an envelope takes ([`EnvelopeCtx::push`]) and when
//! it is published, the engine's own aggregation buffers, and the policies
//! around the [`Stash`]: drain order, retry backoff and deferred pushes on
//! the threaded engine, the drop toward a dead destination on the process
//! engine.
//!
//! Publish rule (threaded engine): an item's sent count is published before
//! the envelope carrying it becomes visible to a consumer — at the direct
//! ring or uplink push and at the stash retry — never at a ship site.

use std::collections::VecDeque;

use net_model::{ProcId, WorkerId};
use runtime_api::Payload;
use shmem::{SegArena, SegClaimInsert, SegRing};
use tramlib::group::GroupScratch;
use tramlib::{EmitReason, Item, MessageDest, TramConfig};

use crate::envelope::{self, Envelope, EnvelopeCtx};
use crate::sizing::{self, INBOX_BUDGET};
use crate::tally::Tally;

/// Per-destination FIFOs of envelopes a full ring turned away.  An envelope
/// for a destination with envelopes stashed goes behind them, so per-pair
/// order holds; a sender therefore never blocks, which keeps the all-pairs
/// mesh deadlock-free.
pub(crate) struct Stash {
    lanes: Vec<VecDeque<Envelope>>,
    /// Envelopes stashed over all lanes (cheap emptiness check).
    len: usize,
}

impl Stash {
    pub(crate) fn new(lanes: usize) -> Self {
        let lanes = vec![VecDeque::new(); lanes];
        Self { lanes, len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Envelopes stashed toward `dst`.
    pub(crate) fn lane_len(&self, dst: usize) -> usize {
        self.lanes[dst].len()
    }

    /// Push `env` onto `ring`, the ring toward `dst` — or stash it, behind a
    /// full ring or behind envelopes already stashed for `dst`.
    #[inline]
    pub(crate) fn push(&mut self, dst: usize, ring: &SegRing<Envelope>, env: Envelope) {
        if !(self.lanes[dst].is_empty() && ring.push(env).is_ok()) {
            self.defer(dst, env);
        }
    }

    /// Stash `env` for `dst` without trying its ring: the next
    /// [`Stash::retry`] pushes it with the rest of its lane.
    #[inline]
    pub(crate) fn defer(&mut self, dst: usize, env: Envelope) {
        self.lanes[dst].push_back(env);
        self.len += 1;
    }

    /// Move stashed envelopes onto their rings, lane by lane in `order`, one
    /// batched push (one tail publication) per lane.  Returns how many moved.
    pub(crate) fn retry<'r>(
        &mut self,
        order: impl IntoIterator<Item = usize>,
        ring_of: impl Fn(usize) -> &'r SegRing<Envelope>,
    ) -> usize {
        let mut moved = 0;
        for dst in order {
            if !self.lanes[dst].is_empty() {
                moved += ring_of(dst).push_from(&mut self.lanes[dst]);
            }
        }
        self.len -= moved;
        moved
    }

    /// Drop every envelope stashed toward `dst` ([`Envelope::discard`]: each
    /// slab goes home).  Returns the items dropped.
    pub(crate) fn discard_lane<'a>(
        &mut self,
        dst: usize,
        arena_of: impl Fn(usize) -> &'a SegArena<Item<Payload>>,
    ) -> u64 {
        self.len -= self.lanes[dst].len();
        self.lanes[dst]
            .drain(..)
            .map(|env| env.discard(&arena_of))
            .sum()
    }
}

/// Pop and drop everything on `ring`, whose consumer will never deliver it
/// (it panicked, died, or the run has settled), in batches through
/// `scratch`.  Returns the items dropped: non-zero iff anything was popped.
pub(crate) fn discard_ring<'a>(
    ring: &SegRing<Envelope>,
    scratch: &mut Vec<Envelope>,
    arena_of: impl Fn(usize) -> &'a SegArena<Item<Payload>>,
) -> u64 {
    let mut dropped = 0;
    while ring.pop_into(scratch, INBOX_BUDGET) > 0 {
        for env in scratch.drain(..) {
            dropped += env.discard(&arena_of);
        }
    }
    dropped
}

/// What both engines' shared paths keep per worker between calls: the
/// hot-path tallies, the grouping pass's scratch, and the send side's
/// local-bypass lanes, stash and PP drain scratch.
pub(crate) struct WorkerIo {
    tram: TramConfig,
    pub(crate) tally: Tally,
    /// The grouping pass's reused scratch (the receive side's, and a WsP
    /// source's).
    pub(crate) group_scratch: GroupScratch<Payload>,
    /// Local-bypass staging per destination worker; empty without the
    /// bypass or without an arena to copy a batch into (NoAgg ships local
    /// singles).  A lane never outlives the scheduling quantum that filled
    /// it: it ships at `g` items or at quantum end ([`flush_local`]).
    lanes: Vec<Vec<Item<Payload>>>,
    /// Envelopes the mesh (or segment) rings turned away.
    pub(crate) stash: Stash,
    /// PP: the reused vector a sealed claim buffer is read into.
    pp_drained: Vec<Item<Payload>>,
}

impl WorkerIo {
    /// One worker's state.  Same-process items stage in lanes when the
    /// bypass is on and the scheme has an arena to copy a batch into.
    pub(crate) fn new(tram: TramConfig) -> Self {
        let workers = tram.topology.total_workers() as usize;
        let lanes = tram.local_bypass && sizing::uses_arena(tram.scheme);
        Self {
            tram,
            tally: Tally::default(),
            group_scratch: GroupScratch::default(),
            lanes: vec![Vec::new(); if lanes { workers } else { 0 }],
            stash: Stash::new(workers),
            pp_drained: Vec::new(),
        }
    }

    /// Nothing staged and nothing stashed.
    pub(crate) fn is_empty(&self) -> bool {
        self.stash.is_empty() && self.lanes.iter().all(Vec::is_empty)
    }

    /// Drop everything staged or stashed (a panicked worker's unshipped
    /// production; every item was already counted sent).  Returns the items
    /// dropped.
    pub(crate) fn abandon<'a>(
        &mut self,
        arena_of: impl Fn(usize) -> &'a SegArena<Item<Payload>>,
    ) -> u64 {
        let mut dropped = 0;
        for dst in 0..self.stash.lanes.len() {
            dropped += self.stash.discard_lane(dst, &arena_of);
        }
        for lane in &mut self.lanes {
            dropped += lane.drain(..).count() as u64;
        }
        dropped
    }
}

/// The worker a message for `dest` ships to: the destination worker, or
/// for a process-addressed message its group receiver — the worker of that
/// process with the sender's local rank, the simulator's rule.
pub(crate) fn receiver_of<'w>(ctx: &impl EnvelopeCtx<'w>, dest: MessageDest) -> WorkerId {
    match dest {
        MessageDest::Worker(w) => w,
        MessageDest::Process(p) => ctx.topology().group_receiver(ctx.my_id(), p),
    }
}

/// The one ship-and-count rule of a wire message: route `items` (a message
/// for `dest`, emitted for `reason`) to its receiver, count it in the tally
/// the way the simulator's routing layer does (and in the engine's
/// [`EnvelopeCtx::tram_stats`]), and ship it by the fill-or-singles rule
/// ([`envelope::ship`]).
pub(crate) fn ship_message<'w>(
    ctx: &mut impl EnvelopeCtx<'w>,
    dest: MessageDest,
    grouped_at_source: bool,
    reason: EmitReason,
    items: &[Item<Payload>],
) {
    let target = receiver_of(ctx, dest);
    let bytes = ctx.io().tram.message_bytes(items.len());
    if let Some(stats) = ctx.tram_stats() {
        stats.record_message(items.len(), bytes, reason);
    }
    let tally = &mut ctx.io().tally;
    tally.wire_messages += 1;
    tally.wire_items += items.len() as u64;
    tally.wire_bytes += bytes;
    tally.wire_messages_flush += u64::from(reason.is_flush());
    envelope::ship(ctx, target, dest, grouped_at_source, items);
}

/// Stage one same-process item for its destination worker; its lane ships
/// when it reaches `g` items, or at quantum end.  Without lanes (NoAgg) the
/// item ships at once, inline.  It is not wire traffic.
#[inline]
pub(crate) fn stage_local<'w>(ctx: &mut impl EnvelopeCtx<'w>, item: Item<Payload>) {
    let dst = item.dest.idx();
    let out = ctx.io();
    let g = out.tram.buffer_items;
    let Some(lane) = out.lanes.get_mut(dst) else {
        ctx.io().tally.local_deliveries += 1;
        ctx.push(item.dest, Envelope::Single(item));
        return;
    };
    lane.push(item);
    if lane.len() >= g {
        ship_lane(ctx, dst);
    }
}

/// Quantum end (and every explicit flush): ship every non-empty lane.  With
/// nothing staged this is one length check per destination worker, none at
/// all without lanes.
pub(crate) fn flush_local<'w>(ctx: &mut impl EnvelopeCtx<'w>) {
    for dst in 0..ctx.io().lanes.len() {
        if !ctx.io().lanes[dst].is_empty() {
            ship_lane(ctx, dst);
        }
    }
}

/// Ship the non-empty lane toward worker `dst` as one worker-addressed
/// batch.
fn ship_lane<'w>(ctx: &mut impl EnvelopeCtx<'w>, dst: usize) {
    let mut batch = std::mem::take(&mut ctx.io().lanes[dst]);
    let tally = &mut ctx.io().tally;
    tally.local_batches += 1;
    tally.local_deliveries += batch.len() as u64;
    let to = WorkerId(dst as u32);
    envelope::ship(ctx, to, MessageDest::Worker(to), false, &batch);
    batch.clear();
    ctx.io().lanes[dst] = batch;
}

/// PP insert: claim a slot in this process's shared buffer toward the
/// item's process, draining the buffer if this worker claimed its last
/// slot.  A `Retry` means another worker is mid-drain; on an oversubscribed
/// host it needs our CPU to finish, so the wait escalates from spinning to
/// yielding — and gives up, dropping the item counted, once the claim can no
/// longer drain ([`EnvelopeCtx::claim_stalled`]).
pub(crate) fn pp_insert<'w>(ctx: &mut impl EnvelopeCtx<'w>, item: Item<Payload>) {
    let dst = ctx.topology().proc_of_worker(item.dest);
    let claim = ctx.claim(dst);
    let mut spins = 0u32;
    loop {
        match claim.insert(item) {
            SegClaimInsert::Stored => return,
            SegClaimInsert::MustDrain => return pp_drain(ctx, dst, EmitReason::BufferFull),
            SegClaimInsert::Retry if ctx.claim_stalled() => return ctx.count_dropped(1),
            SegClaimInsert::Retry => {
                if spins < 32 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                spins = spins.saturating_add(1);
            }
        }
    }
}

/// Take the drain lock of the shared buffer toward process `dst` and ship
/// what it holds as one process-addressed message to the group receiver,
/// which groups it as it groups WPs.  Losing the lock is fine: the holder's
/// seal covers every slot claimed before it, ours included.
fn pp_drain<'w>(ctx: &mut impl EnvelopeCtx<'w>, dst: ProcId, reason: EmitReason) {
    let claim = ctx.claim(dst);
    if !claim.try_begin_drain(ctx.my_id().0) {
        return;
    }
    let mut items = std::mem::take(&mut ctx.io().pp_drained);
    let (_, skipped) = claim.seal_flush(&mut items, || ctx.claim_stalled());
    if skipped > 0 {
        // A sibling's claim it died before stamping: its send was counted.
        ctx.count_dropped(skipped);
    }
    if !items.is_empty() {
        ship_message(ctx, MessageDest::Process(dst), false, reason, &items);
    }
    items.clear();
    ctx.io().pp_drained = items;
}

/// Seal-flush every non-empty shared PP buffer of this worker's process
/// whose destination `release` lets go; empty buffers stay unsealed.
/// Returns whether a non-empty buffer was held back.
pub(crate) fn pp_flush_where<'w, C: EnvelopeCtx<'w>>(
    ctx: &mut C,
    reason: EmitReason,
    release: impl Fn(&C, MessageDest) -> bool,
) -> bool {
    let mut held = false;
    for dst in ctx.topology().all_procs() {
        if ctx.claim(dst).claim_count() == 0 {
            continue;
        }
        if release(ctx, MessageDest::Process(dst)) {
            pp_drain(ctx, dst, reason);
        } else {
            held = true;
        }
    }
    held
}

#[cfg(test)]
mod tests {
    use net_model::Topology;
    use runtime_api::{RunCtx, WorkerApp};
    use shmem::{SegClaim, SlabArena, SpscRing};
    use sim_core::StreamRng;
    use tramlib::Scheme;

    use super::*;

    fn item(dest: u32, n: u64) -> Item<Payload> {
        Item::new(WorkerId(dest), Payload::new(n, 0), 0)
    }

    fn single(n: u64) -> Envelope {
        Envelope::Single(item(1, n))
    }

    /// The payload word of a popped single.
    fn word(env: Option<Envelope>) -> u64 {
        match env {
            Some(Envelope::Single(item)) => item.data.a,
            other => panic!("expected a single, got {other:?}"),
        }
    }

    #[test]
    fn an_envelope_pushed_behind_a_stashed_one_stays_behind_it() {
        let ring = SpscRing::new(1);
        let mut stash = Stash::new(2);
        stash.push(1, &ring, single(0));
        stash.push(1, &ring, single(1));
        assert_eq!((ring.len(), stash.len()), (1, 1), "a full ring stashes");
        assert_eq!(word(ring.pop()), 0);
        // The ring has room again, but envelope 1 is still stashed ahead.
        stash.push(1, &ring, single(2));
        assert_eq!((ring.len(), stash.lane_len(1)), (0, 2));
        for expected in [1, 2] {
            assert_eq!(stash.retry([0, 1], |_| &*ring), 1);
            assert_eq!(word(ring.pop()), expected);
        }
        assert!(stash.is_empty());
    }

    #[test]
    fn one_retry_moves_a_full_rings_worth_in_order() {
        let ring = SpscRing::new(4);
        let cap = ring.capacity() as u64;
        let mut stash = Stash::new(1);
        for n in 0..2 * cap {
            stash.defer(0, single(n));
        }
        assert_eq!(ring.len(), 0, "a deferred push leaves the ring alone");
        assert_eq!(stash.retry([0], |_| &*ring), cap as usize);
        assert_eq!(stash.len() as u64, cap);
        for n in 0..cap {
            assert_eq!(word(ring.pop()), n);
        }
        assert_eq!(stash.retry([0], |_| &*ring), cap as usize);
        assert_eq!(word(ring.pop()), cap);
    }

    #[test]
    fn discard_all_returns_every_slab_and_counts_the_items() {
        let arena = SlabArena::new(4, 8);
        let full = SpscRing::new(1);
        full.push(single(0)).unwrap();
        let tram = TramConfig::new(Scheme::WW, Topology::smp(1, 1, 2)).with_local_bypass(true);
        let mut io = WorkerIo::new(tram);
        for (dst, len) in [(0, 5), (1, 8), (1, 3)] {
            let items: Vec<_> = (0..len).map(|n| item(dst as u32, n)).collect();
            let handle = arena.fill(&items).expect("a free slab");
            let dest = MessageDest::Worker(WorkerId(dst as u32));
            let slab = Envelope::Slab {
                owner: 0,
                handle,
                dest,
                grouped_at_source: false,
            };
            io.stash.push(dst, &full, slab);
        }
        io.stash.push(1, &full, single(9));
        io.lanes[1].push(item(1, 7));
        assert_eq!(arena.audit().free, 1);
        assert_eq!(io.abandon(|_| &*arena), 5 + 8 + 3 + 1 + 1);
        assert!(io.is_empty());
        let audit = arena.audit();
        assert_eq!((audit.free, audit.slabs), (4, 4), "{audit:?}");
    }

    /// Worker 0 of a one-process, two-worker run, shipping onto a heap ring
    /// per destination; every other duty is unreachable.
    struct Sender<'w> {
        arena: &'w SlabArena<Item<Payload>>,
        rings: &'w [SpscRing<Envelope>],
        io: WorkerIo,
        rng: StreamRng,
    }

    impl RunCtx for Sender<'_> {
        fn my_id(&self) -> WorkerId {
            WorkerId(0)
        }
        fn topology(&self) -> Topology {
            Topology::smp(1, 1, 2)
        }
        fn now_ns(&self) -> u64 {
            0
        }
        fn rng(&mut self) -> &mut StreamRng {
            &mut self.rng
        }
        fn counter(&mut self, _name: &'static str, _delta: u64) {}
        fn send(&mut self, _dest: WorkerId, _payload: Payload) {
            unreachable!()
        }
        fn flush(&mut self) {}
        fn flush_on_idle(&mut self) {}
    }

    impl<'w> EnvelopeCtx<'w> for Sender<'w> {
        fn arena(&self, _owner: u32) -> &'w SegArena<Item<Payload>> {
            self.arena
        }
        fn own_arena(&self) -> Option<&'w SegArena<Item<Payload>>> {
            Some(self.arena)
        }
        fn push(&mut self, dst: WorkerId, env: Envelope) {
            self.io.stash.push(dst.idx(), &self.rings[dst.idx()], env);
        }
        fn deliver(&mut self, _app: &mut dyn WorkerApp, _items: &[Item<Payload>]) {
            unreachable!()
        }
        fn io(&mut self) -> &mut WorkerIo {
            &mut self.io
        }
        fn claim(&self, _dst: ProcId) -> &'w SegClaim<Item<Payload>> {
            unreachable!()
        }
        fn count_dropped(&mut self, _items: u64) {
            unreachable!()
        }
    }

    #[test]
    fn a_lane_ships_at_g_and_at_quantum_end_and_not_in_between() {
        let arena = SlabArena::new(4, 4);
        let rings = [SpscRing::new(8), SpscRing::new(8)];
        let tram = TramConfig::new(Scheme::WPs, Topology::smp(1, 1, 2)).with_buffer_items(4);
        let mut ctx = Sender {
            arena: &arena,
            rings: &rings,
            io: WorkerIo::new(tram.with_local_bypass(true)),
            rng: StreamRng::new(1, 0),
        };
        let batch_len = |env: Option<Envelope>| match env {
            Some(Envelope::Slab { handle, dest, .. }) => {
                assert_eq!(dest, MessageDest::Worker(WorkerId(1)));
                arena.finish_consumer(handle.slab);
                arena.release(handle.slab);
                handle.len
            }
            other => panic!("expected a slab, got {other:?}"),
        };
        for n in 0..3 {
            stage_local(&mut ctx, item(1, n));
        }
        assert_eq!(rings[1].len(), 0, "below g nothing ships");
        stage_local(&mut ctx, item(1, 3));
        assert_eq!(batch_len(rings[1].pop()), 4, "the g-th item ships the lane");
        stage_local(&mut ctx, item(1, 4));
        stage_local(&mut ctx, item(1, 5));
        assert_eq!(rings[1].len(), 0);
        flush_local(&mut ctx);
        assert_eq!(batch_len(rings[1].pop()), 2, "quantum end ships the rest");
        flush_local(&mut ctx);
        assert_eq!(rings[1].len(), 0, "an empty lane ships nothing");
        assert_eq!(
            (ctx.io.tally.local_batches, ctx.io.tally.local_deliveries),
            (2, 6)
        );
        assert_eq!(
            ctx.io.tally.wire_messages, 0,
            "the bypass is not wire traffic"
        );
    }

    #[test]
    fn a_wire_message_is_counted_once_and_routed_to_its_group_receiver() {
        let arena = SlabArena::new(4, 4);
        let rings = [SpscRing::new(8), SpscRing::new(8)];
        let tram = TramConfig::new(Scheme::WPs, Topology::smp(1, 1, 2)).with_buffer_items(4);
        let mut ctx = Sender {
            arena: &arena,
            rings: &rings,
            io: WorkerIo::new(tram.with_local_bypass(false)),
            rng: StreamRng::new(1, 0),
        };
        let items = [item(1, 0), item(0, 1), item(1, 2)];
        let dest = MessageDest::Process(ProcId(0));
        ship_message(&mut ctx, dest, false, EmitReason::ExplicitFlush, &items);
        // The sender is its own group receiver at home: its diagonal ring.
        assert!(matches!(rings[0].pop(), Some(Envelope::Slab { handle, .. }) if handle.len == 3));
        let tally = &ctx.io.tally;
        assert_eq!((tally.wire_messages, tally.wire_items), (1, 3));
        assert_eq!(tally.wire_bytes, tram.message_bytes(3));
        assert_eq!(tally.wire_messages_flush, 1);
    }
}
