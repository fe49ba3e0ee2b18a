//! The one message vocabulary of both native engines.
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

use runtime_api::Payload;
use shmem::{SegArena, SlabHandle, SlabRange};
use tramlib::{Item, MessageDest};

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

    /// Number of items carried.
    pub(crate) fn item_count(&self) -> u64 {
        self.slab_range()
            .map_or(1, |(_, range)| u64::from(range.len))
    }
}

/// Hand `read` the items of `range`, borrowed in place from a sealed slab of
/// `arena`, then finish this consumer's reference — the last consumer
/// releases the slab into `arena`.  Every consumer of a popped slab
/// descriptor that does not group it in place reads it through here: a worker
/// delivering a worker-addressed slab or a forwarded range, and a node
/// leader reading an uplink slab.
///
/// The caller must hold the consumer reference `range` stands for: it popped
/// the descriptor off a ring and has not finished it (debug builds check the
/// slab's generation).
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
    if arena.finish_consumer(range.slab) {
        arena.release(range.slab);
    }
}
