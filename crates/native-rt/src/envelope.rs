//! The one message vocabulary of both native engines, and the one code path
//! that ships, receives, groups, forwards and drops it.
//!
//! Every unit of traffic on a delivery ring — the threaded engine's
//! [`shmem::SpscRing`] mesh and node-tier uplinks and downlinks, and the
//! process engine's [`shmem::SegRing`] mesh alike — is an [`Envelope`]:
//! either one item carried inline, or a descriptor of items that already sit
//! in a slab of some worker's (or node leader's) arena.
//! Nothing on a ring owns heap memory, so an envelope is `Copy`, fits a
//! shared-memory ring slot, and needs no return path of its own; only the
//! slab a descriptor names goes home, as a bare [`SlabHandle`], once its
//! last consumer is done.
//!
//! Both engines' worker contexts implement [`EnvelopeCtx`], and the code
//! that acts on an envelope is written once over it, statically dispatched
//! ([`ship`], [`handle_envelope`], [`Envelope::discard`]).  What stays per
//! engine is how a delivered slice is handed to the application and
//! published ([`EnvelopeCtx::deliver`]) and which ring an envelope takes
//! ([`EnvelopeCtx::push`]: mesh, uplink, or a counted drop toward a dead
//! peer).  Both engines count the receive side the simulator's way: a
//! grouping pass counts only when the slab was not grouped at source, and
//! every forwarded [`Envelope::Slice`] or peer-addressed
//! [`Envelope::Single`] counts one `local_forwards`.

use net_model::WorkerId;
use runtime_api::{Payload, RunCtx, WorkerApp};
use shmem::{SegArena, SlabHandle, SlabRange};
use tramlib::group::{group_in_place, GroupScratch};
use tramlib::{Item, MessageDest};

use crate::tally::Tally;

/// One unit of worker↔worker traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Envelope {
    /// One item, inline: NoAgg's messages, the local bypass without an
    /// arena, and the arena-miss fallback of every aggregated message.  A
    /// single whose `dest` is not the receiving worker is forwarded there —
    /// the arena-miss fallback of a process-addressed message travels to its
    /// group receiver first, behind the slabs it must not overtake.
    Single(Item<Payload>),
    /// A sealed slab of worker `owner`'s arena, addressed as the aggregation
    /// buffer that filled it was: to one worker (WW, local bypass) or to a
    /// process (WPs, WsP, PP), whose group receiver groups it in place.  On
    /// a downlink, `owner` is past the last worker — the node leader's arena
    /// — and the slab is addressed to the receiving worker.
    Slab {
        owner: u32,
        handle: SlabHandle,
        dest: MessageDest,
        /// The source already grouped the slab by destination worker (WsP):
        /// the receiver's pass finds the runs and moves nothing.
        grouped_at_source: bool,
    },
    /// One worker's pre-grouped range of a process-addressed slab, forwarded
    /// by the group receiver.  `owner` is the worker whose arena holds the
    /// slab, not the forwarder.
    Slice { owner: u32, range: SlabRange },
}

impl Envelope {
    /// The arena owner and item range a slab descriptor names; `None` for an
    /// inline single.
    pub(crate) fn slab_range(&self) -> Option<(usize, SlabRange)> {
        match *self {
            Envelope::Single(_) => None,
            Envelope::Slab { owner, handle, .. } => Some((owner as usize, handle.range())),
            Envelope::Slice { owner, range } => Some((owner as usize, range)),
        }
    }

    /// Drop an undeliverable envelope — its consumer panicked or died, or
    /// the run is settling — and return the number of items to charge
    /// dropped.  A slab descriptor still finishes this consumer's reference,
    /// exactly as delivery would, so the last consumer frees the slab into
    /// `arena_of(owner)` and a dead consumer never strands a peer's slab.
    /// The one drop rule: the threaded quarantine, the process children and
    /// the process supervisor's inbox drains all call it.
    pub(crate) fn discard<'a>(
        self,
        arena_of: impl FnOnce(usize) -> &'a SegArena<Item<Payload>>,
    ) -> u64 {
        match self.slab_range() {
            Some((owner, range)) => {
                finish(arena_of(owner), range.slab);
                u64::from(range.len)
            }
            None => 1,
        }
    }
}

/// What the shared envelope code needs of a worker context.  Implemented by
/// both engines' contexts; every function here is generic over it, so each
/// engine gets its own monomorphised copy and no call is dynamic.
pub(crate) trait EnvelopeCtx<'w>: RunCtx + Sized {
    /// The arena of worker `owner` (or, past the last worker, a node
    /// leader's): where a slab descriptor's items live.
    fn arena(&self, owner: u32) -> &'w SegArena<Item<Payload>>;
    /// This worker's own arena, which outbound messages are copied into;
    /// `None` when the scheme ships inline singles only (NoAgg).
    fn own_arena(&self) -> Option<&'w SegArena<Item<Payload>>>;
    /// Hand `env` to the ring toward worker `dst`, stashing it behind a full
    /// ring (or dropping it, counted, toward a dead worker).
    fn push(&mut self, dst: WorkerId, env: Envelope);
    /// Run `items` (all addressed to this worker, never empty) through the
    /// application and count them delivered.
    fn deliver(&mut self, app: &mut dyn WorkerApp, items: &[Item<Payload>]);
    /// The worker's hot-path tallies.
    fn tally(&mut self) -> &mut Tally;
    /// The grouping pass's reused scratch.
    fn group_scratch(&mut self) -> &mut GroupScratch<Payload>;
}

/// The fill-or-singles rule of every outbound message: copy `items` into one
/// slab of this worker's arena and push its descriptor — a message for
/// `dest` — toward worker `target`.  Without an arena, or when it is dry,
/// the items go to the same `target` as inline singles: a dry arena is a
/// throughput dip recorded in `arena_claim_misses`, never a loss or a
/// reordering (a group receiver forwards a single addressed to a peer).
pub(crate) fn ship<'w>(
    ctx: &mut impl EnvelopeCtx<'w>,
    target: WorkerId,
    dest: MessageDest,
    grouped_at_source: bool,
    items: &[Item<Payload>],
) {
    let Some(handle) = ctx.own_arena().and_then(|arena| arena.fill(items)) else {
        for &item in items {
            ctx.push(target, Envelope::Single(item));
        }
        return;
    };
    let envelope = Envelope::Slab {
        owner: ctx.my_id().0,
        handle,
        dest,
        grouped_at_source,
    };
    ctx.push(target, envelope);
}

/// Act on one envelope popped from an inbox ring: deliver what is addressed
/// to this worker, group a process-addressed slab, forward what belongs to a
/// peer.  Inlined, with its helpers, into each engine's drain loop, its one
/// caller there: an outlined call per envelope cost the threaded `hist_g16`
/// a few percent of its throughput.
#[inline]
pub(crate) fn handle_envelope<'w>(
    app: &mut dyn WorkerApp,
    ctx: &mut impl EnvelopeCtx<'w>,
    envelope: Envelope,
) {
    match envelope {
        // A single addressed to a peer is an arena-miss fallback of a
        // process-addressed message that reached its group receiver: forward
        // it, behind whatever this receiver forwarded before.
        Envelope::Single(item) if item.dest != ctx.my_id() => {
            ctx.tally().local_forwards += 1;
            ctx.push(item.dest, envelope);
        }
        Envelope::Single(item) => ctx.deliver(app, &[item]),
        Envelope::Slab {
            owner,
            handle,
            dest: MessageDest::Process(p),
            grouped_at_source,
        } => {
            debug_assert_eq!(
                p,
                ctx.topology().proc_of_worker(ctx.my_id()),
                "slab routed to wrong process"
            );
            group_and_forward(app, ctx, owner, handle, grouped_at_source);
        }
        // WW and the local bypass: the slab already names its final worker.
        Envelope::Slab { owner, handle, .. } => deliver_range(app, ctx, owner, handle.range()),
        // A pre-grouped index range of a peer's slab, forwarded by the
        // worker that ran the grouping pass.
        Envelope::Slice { owner, range } => deliver_range(app, ctx, owner, range),
    }
}

/// Deliver `range` of a sealed slab of worker `owner`'s arena — borrowed in
/// place, zero moves — then drop this consumer's reference.
#[inline]
fn deliver_range<'w>(
    app: &mut dyn WorkerApp,
    ctx: &mut impl EnvelopeCtx<'w>,
    owner: u32,
    range: SlabRange,
) {
    consume_range(ctx.arena(owner), range, |items| ctx.deliver(app, items));
}

/// The receive-side grouping pass for a process-addressed slab of worker
/// `owner`'s arena: group it *in place* (this worker is its sole consumer
/// until it forwards; a source-grouped WsP slab is only scanned), then, in
/// worker order as the simulator does, deliver this worker's own range and
/// forward the peers' ranges as borrowed sub-slices of the same slab — the
/// items never move out.
#[inline]
fn group_and_forward<'w>(
    app: &mut dyn WorkerApp,
    ctx: &mut impl EnvelopeCtx<'w>,
    owner: u32,
    handle: SlabHandle,
    grouped_at_source: bool,
) {
    let me = ctx.my_id();
    let arena = ctx.arena(owner);
    debug_assert_eq!(arena.generation(handle.slab), handle.generation);
    let wpp = ctx.topology().workers_per_proc() as usize;
    // Out of `ctx` while its ranges are read, so `push` can borrow it.
    let mut scratch = std::mem::take(ctx.group_scratch());
    let ranges = {
        // SAFETY: sole consumer of the sealed slab (outstanding == 1 until
        // `add_consumers` below), all `len` slots written before seal.
        let items = unsafe { arena.slice_mut(handle.slab, 0, handle.len) };
        group_in_place(items, wpp, &mut scratch)
    };
    if !grouped_at_source {
        let tally = ctx.tally();
        tally.grouping_passes += 1;
        tally.grouped_items += u64::from(handle.len);
    }
    // Register every forwarded consumer *before* any range ships: a
    // forwarded peer may finish before we do, and our own reference may be
    // finished before the last range ships.
    let forwards = ranges.iter().filter(|&&(w, _, _)| w != me).count();
    arena.add_consumers(handle.slab, forwards as u32);
    ctx.tally().local_forwards += forwards as u64;
    let mut delivered = false;
    for &(w, start, len) in ranges {
        let range = SlabRange {
            start,
            len,
            ..handle.range()
        };
        if w == me {
            consume_range(arena, range, |items| ctx.deliver(app, items));
            delivered = true;
        } else {
            ctx.push(w, Envelope::Slice { owner, range });
        }
    }
    *ctx.group_scratch() = scratch;
    if !delivered {
        finish(arena, handle.slab);
    }
}

/// Hand `read` the items of `range`, borrowed in place from a sealed slab of
/// `arena`, then finish this consumer's reference — the last consumer
/// releases the slab into `arena`.  Every consumer of a popped slab
/// descriptor that does not group it in place reads it through here: a worker
/// delivering a worker-addressed slab, a forwarded range or its own range of
/// a slab it grouped, and a node leader reading an uplink slab.
///
/// The caller must hold the consumer reference `range` stands for: it popped
/// the descriptor off a ring (or grouped the slab) and has not finished it
/// (debug builds check the slab's generation).
#[inline]
pub(crate) fn consume_range(
    arena: &SegArena<Item<Payload>>,
    range: SlabRange,
    read: impl FnOnce(&[Item<Payload>]),
) {
    debug_assert_eq!(arena.generation(range.slab), range.generation);
    // SAFETY: the caller holds a consumer reference to `range` of a sealed
    // slab (rule 3), and the borrow ends before that reference is finished
    // below.
    read(unsafe { arena.slice(range.slab, range.start, range.len) });
    finish(arena, range.slab);
}

/// Finish one consumer reference to `slab`; the last one releases it.
fn finish(arena: &SegArena<Item<Payload>>, slab: u32) {
    if arena.finish_consumer(slab) {
        arena.release(slab);
    }
}
