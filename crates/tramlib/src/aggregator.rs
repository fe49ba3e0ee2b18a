//! The aggregator: per-worker (WW, WPs, WsP) or per-process (PP) buffering of
//! items and emission of aggregated messages.

use crate::buffer::ItemBuffer;
use crate::config::TramConfig;
use crate::error::TramError;
use crate::group::GroupScratch;
use crate::item::Item;
use crate::message::{EmitReason, EmittedMessage, MessageDest, OutboundMessage, SlabSealed};
use crate::pool::{PoolStats, VecPool};
use crate::scheme::Scheme;
use crate::stats::TramStats;
use net_model::{ProcId, WorkerId};
use shmem::SlabArena;

/// Who owns this aggregator: a worker PE (WW, WPs, WsP, NoAgg) or a whole
/// process (PP — the buffer is shared by all workers of the process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A single worker PE owns the buffers.
    Worker(WorkerId),
    /// The whole process owns the buffers (PP); workers insert with atomics.
    Process(ProcId),
}

impl Owner {
    /// The process this owner belongs to.
    pub fn proc(&self, topology: &net_model::Topology) -> ProcId {
        match self {
            Owner::Worker(w) => topology.proc_of_worker(*w),
            Owner::Process(p) => *p,
        }
    }
}

/// Result of inserting one item.
#[derive(Debug, Clone)]
pub struct InsertOutcome<T> {
    /// If the item's destination is in the same process and the local bypass is
    /// enabled, the item is returned here for immediate local delivery instead
    /// of being buffered.
    pub local_delivery: Option<Item<T>>,
    /// A message that became ready because the insertion filled a buffer (or,
    /// for [`Scheme::NoAgg`], the message carrying just this item).
    pub message: Option<OutboundMessage<T>>,
}

impl<T> InsertOutcome<T> {
    fn buffered() -> Self {
        Self {
            local_delivery: None,
            message: None,
        }
    }
}

/// Result of inserting one item on the zero-copy slab path
/// ([`Aggregator::insert_slab_at`]).
#[derive(Debug)]
pub struct SlabInsertOutcome<T> {
    /// Same-process destination with the local bypass enabled: the item comes
    /// straight back for immediate local delivery.
    pub local_delivery: Option<Item<T>>,
    /// A message that became ready: a sealed slab in the steady state, a
    /// heap-vector fallback when the arena was dry (or under NoAgg).
    pub message: Option<EmittedMessage<T>>,
}

impl<T> SlabInsertOutcome<T> {
    fn buffered() -> Self {
        Self {
            local_delivery: None,
            message: None,
        }
    }
}

/// A TramLib aggregation endpoint.
///
/// One aggregator exists per source worker for the worker-level schemes and per
/// source process for PP.  The aggregator is not thread-safe by itself — the
/// discrete-event simulator is single-threaded, and the native runtime wraps
/// PP aggregators in the dedicated shared-memory structures from `shmem`.
#[derive(Debug, Clone)]
pub struct Aggregator<T> {
    config: TramConfig,
    owner: Owner,
    /// Destination buffers, indexed by destination worker (WW) or destination
    /// process (WPs/WsP/PP).  Allocated lazily.
    buffers: Vec<Option<ItemBuffer<T>>>,
    /// Buffer slot per destination worker, precomputed so the per-item hot
    /// path is one table load instead of a `proc_of_worker` division.
    /// Empty under NoAgg (no buffering).
    slot_of: Box<[u32]>,
    /// Per destination worker: does an item to it bypass aggregation?  All
    /// false when the local bypass is disabled.
    local_to_owner: Box<[bool]>,
    /// Free list of spent item vectors: each drained buffer ships its vector
    /// away inside the message, and refills from here instead of allocating.
    /// Substrates feed it by calling [`Aggregator::recycle`] with vectors they
    /// have finished delivering.
    pool: VecPool<Item<T>>,
    /// Slab path only: the active `(slab id, items written)` per destination
    /// slot.  A slot never has an active slab *and* a non-empty fallback
    /// vector buffer: the vector path is entered only when the arena is dry
    /// and left only by emitting the vector, so per-destination item order is
    /// preserved either way.
    slabs: Vec<Option<(u32, u32)>>,
    /// Slab path only: insertion timestamp of each slot's oldest slab item
    /// (for timeout flushing; the fallback vector buffers track their own).
    slab_oldest: Vec<u64>,
    /// Reusable scratch for the in-place WsP source grouping of sealed slabs.
    group_scratch: GroupScratch,
    stats: TramStats,
}

impl<T: Clone> Aggregator<T> {
    /// Create an aggregator for `owner` under `config`.
    ///
    /// This is a thin panicking wrapper over [`Aggregator::try_new`]; use the
    /// fallible constructor when the scheme/owner pairing comes from user
    /// input rather than from the substrate's own wiring.
    ///
    /// # Panics
    /// Panics if a PP config is given a worker owner or vice versa, or if the
    /// owner is out of range for the topology.
    pub fn new(config: TramConfig, owner: Owner) -> Self {
        match Self::try_new(config, owner) {
            Ok(agg) => agg,
            Err(err) => panic!("{err}"),
        }
    }

    /// Create an aggregator for `owner` under `config`, or report why the
    /// pairing is invalid as a [`TramError`].
    pub fn try_new(config: TramConfig, owner: Owner) -> Result<Self, TramError> {
        let topo = config.topology;
        let owner_is_process = matches!(owner, Owner::Process(_));
        if owner_is_process != (config.scheme == Scheme::PP) {
            return Err(TramError::SchemeOwnerMismatch {
                scheme: config.scheme,
                owner,
            });
        }
        match owner {
            Owner::Worker(w) if w.0 >= topo.total_workers() => {
                return Err(TramError::OwnerOutOfRange {
                    owner,
                    limit: topo.total_workers(),
                });
            }
            Owner::Process(p) if p.0 >= topo.total_procs() => {
                return Err(TramError::OwnerOutOfRange {
                    owner,
                    limit: topo.total_procs(),
                });
            }
            _ => {}
        }
        let slots = match config.scheme {
            Scheme::NoAgg => 0,
            Scheme::WW => topo.total_workers() as usize,
            Scheme::WPs | Scheme::WsP | Scheme::PP => topo.total_procs() as usize,
        };
        let slot_of: Box<[u32]> = match config.scheme {
            Scheme::NoAgg => Box::from([]),
            Scheme::WW => (0..topo.total_workers()).collect(),
            Scheme::WPs | Scheme::WsP | Scheme::PP => topo
                .all_workers()
                .map(|w| topo.proc_of_worker(w).0)
                .collect(),
        };
        let owner_proc = owner.proc(&topo);
        let local_to_owner: Box<[bool]> = topo
            .all_workers()
            .map(|w| config.local_bypass && topo.proc_of_worker(w) == owner_proc)
            .collect();
        Ok(Self {
            config,
            owner,
            buffers: (0..slots).map(|_| None).collect(),
            slot_of,
            local_to_owner,
            pool: VecPool::default(),
            slabs: (0..slots).map(|_| None).collect(),
            slab_oldest: vec![0; slots],
            group_scratch: GroupScratch::default(),
            stats: TramStats::new(),
        })
    }

    /// The configuration this aggregator was built with.
    pub fn config(&self) -> &TramConfig {
        &self.config
    }

    /// The owner of this aggregator.
    pub fn owner(&self) -> Owner {
        self.owner
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &TramStats {
        &self.stats
    }

    /// Return a spent item vector (from a message this aggregator emitted, or
    /// any vector of the right item type) so a future drain can reuse its
    /// capacity instead of allocating.
    pub fn recycle(&mut self, items: Vec<Item<T>>) {
        self.pool.put(items);
    }

    /// Reuse statistics of the internal vector pool (see
    /// [`crate::VecPool`]): after warm-up on a steady workload, the hit rate
    /// should be non-zero — the steady state allocates nothing per message.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Take an (empty) vector from the pool, or a fresh one if the pool is
    /// dry.  Substrates use this to share the aggregator's recycled capacity
    /// with sibling per-item paths (the native runtime's local-bypass
    /// batches), keeping one circulation of vectors per worker.
    pub fn take_pooled(&mut self) -> Vec<Item<T>> {
        self.pool.take()
    }

    /// Total number of items currently sitting in buffers (heap vectors and
    /// active slabs alike).
    pub fn buffered_items(&self) -> usize {
        let in_vecs: usize = self.buffers.iter().flatten().map(|b| b.len()).sum();
        let in_slabs: usize = self
            .slabs
            .iter()
            .flatten()
            .map(|(_, len)| *len as usize)
            .sum();
        in_vecs + in_slabs
    }

    /// Number of destination buffers that currently hold at least one item.
    pub fn non_empty_buffers(&self) -> usize {
        self.buffers
            .iter()
            .flatten()
            .filter(|b| !b.is_empty())
            .count()
    }

    /// The buffer slot index an item for `dest` belongs to, or `None` when the
    /// scheme does not buffer (NoAgg).
    fn slot_for(&self, dest: WorkerId) -> Option<usize> {
        self.slot_of.get(dest.idx()).map(|slot| *slot as usize)
    }

    /// The message destination for a buffer slot.
    fn dest_for_slot(&self, slot: usize) -> MessageDest {
        match self.config.scheme {
            Scheme::NoAgg => unreachable!("NoAgg has no buffers"),
            Scheme::WW => MessageDest::Worker(WorkerId(slot as u32)),
            Scheme::WPs | Scheme::WsP | Scheme::PP => MessageDest::Process(ProcId(slot as u32)),
        }
    }

    /// Whether an item destined to `dest` should bypass aggregation because the
    /// destination worker lives in the owner's process (and the bypass is on).
    pub fn is_local(&self, dest: WorkerId) -> bool {
        self.local_to_owner[dest.idx()]
    }

    /// WsP source-side grouping: stable-sort items by destination worker.
    ///
    /// All destinations lie in one process's contiguous worker-id range, so
    /// this is an `O(g + t)` bucket distribution (one pooled bucket per
    /// worker rank) rather than a comparison sort — the same complexity the
    /// paper charges for the grouping pass, and several times cheaper per
    /// item on the native hot path.
    fn group_at_source(&mut self, items: &mut Vec<Item<T>>) {
        let wpp = self.config.topology.workers_per_proc() as usize;
        if items.len() < 2 || wpp < 2 {
            return;
        }
        let base = (items[0].dest.idx() / wpp) * wpp;
        let mut buckets: Vec<Vec<Item<T>>> = (0..wpp).map(|_| self.pool.take()).collect();
        for item in items.drain(..) {
            let rank = item.dest.idx() - base;
            debug_assert!(rank < wpp, "item crosses its destination process");
            buckets[rank].push(item);
        }
        for mut bucket in buckets {
            items.append(&mut bucket);
            self.pool.put(bucket);
        }
    }

    /// Build an outbound message from drained items.
    fn make_message(
        &mut self,
        dest: MessageDest,
        mut items: Vec<Item<T>>,
        reason: EmitReason,
    ) -> OutboundMessage<T> {
        let grouped_at_source = self.config.scheme.groups_at_source();
        if grouped_at_source {
            self.group_at_source(&mut items);
        }
        let bytes = self.config.message_bytes(items.len());
        self.stats.record_message(items.len(), bytes, reason);
        let message = OutboundMessage {
            dest,
            items,
            bytes,
            reason,
            grouped_at_source,
        };
        if self.config.detailed_dest_stats {
            self.stats
                .record_dest_spread(message.distinct_dest_workers());
        }
        message
    }

    /// Drain buffer `slot`, installing recycled storage from the pool so the
    /// next fill cycle of that destination does not allocate.
    fn drain_slot(&mut self, slot: usize) -> Vec<Item<T>> {
        let replacement = self.pool.take();
        self.buffers[slot]
            .as_mut()
            .expect("drained slot has a buffer")
            .drain_with(replacement)
    }

    /// Insert one item created at `now_ns`.
    ///
    /// Returns an [`InsertOutcome`]: the item may come straight back for local
    /// delivery (same-process destination with the bypass enabled), it may be
    /// buffered silently, or it may complete a buffer and produce a message.
    pub fn insert(&mut self, item: Item<T>) -> InsertOutcome<T> {
        let now_ns = item.created_at_ns;
        self.insert_at(item, now_ns)
    }

    /// Insert one item, using `now_ns` as the insertion time for timeout
    /// accounting (usually the same as the item's creation time).
    pub fn insert_at(&mut self, item: Item<T>, now_ns: u64) -> InsertOutcome<T> {
        if self.is_local(item.dest) {
            self.stats.record_local_bypass();
            return InsertOutcome {
                local_delivery: Some(item),
                message: None,
            };
        }
        self.stats.record_insert();

        let Some(slot) = self.slot_for(item.dest) else {
            return InsertOutcome {
                local_delivery: None,
                message: Some(self.emit_single(item)),
            };
        };

        match self.push_vec_slot(slot, item, now_ns) {
            Some(msg) => InsertOutcome {
                local_delivery: None,
                message: Some(msg),
            },
            None => InsertOutcome::buffered(),
        }
    }

    /// NoAgg: the item is its own message.  The single-item vector comes from
    /// the pool, so a substrate that returns delivered vectors (per-pair
    /// return rings on the native mesh, the simulator's recycling) makes even
    /// the unaggregated scheme allocation-free in steady state.
    fn emit_single(&mut self, item: Item<T>) -> OutboundMessage<T> {
        let dest = MessageDest::Worker(item.dest);
        let mut items = self.pool.take();
        items.push(item);
        self.make_message(dest, items, EmitReason::Unaggregated)
    }

    /// Push one item into slot `slot`'s heap-vector buffer, returning the
    /// drained message if the push filled it.  Shared by the vector path and
    /// the slab path's arena-miss fallback.
    fn push_vec_slot(
        &mut self,
        slot: usize,
        item: Item<T>,
        now_ns: u64,
    ) -> Option<OutboundMessage<T>> {
        let capacity = self.config.buffer_items;
        let full = self.buffers[slot]
            .get_or_insert_with(|| ItemBuffer::new(capacity))
            .push(item, now_ns);
        if full {
            let items = self.drain_slot(slot);
            let dest = self.dest_for_slot(slot);
            Some(self.make_message(dest, items, EmitReason::BufferFull))
        } else {
            None
        }
    }

    /// Drain every non-empty buffer whose destination `release` lets go,
    /// handing one (resized) message per destination to `sink`.  `reason`
    /// records why (explicit, idle).  A held buffer is not touched: it keeps
    /// its items, their order and its oldest-insert stamp.  `cx` is the
    /// caller's state, threaded through so the gate can read what the sink
    /// mutates.
    fn drain_where<C>(
        &mut self,
        reason: EmitReason,
        cx: &mut C,
        release: impl Fn(&C, MessageDest) -> bool,
        mut sink: impl FnMut(&mut C, OutboundMessage<T>),
    ) {
        for slot in 0..self.buffers.len() {
            match self.buffers[slot].as_ref() {
                Some(buffer) if !buffer.is_empty() => {}
                _ => continue,
            }
            let dest = self.dest_for_slot(slot);
            if !release(cx, dest) {
                continue;
            }
            let items = self.drain_slot(slot);
            sink(cx, self.make_message(dest, items, reason));
        }
    }

    /// Explicit application flush: drain all partially-filled buffers.
    ///
    /// This is the call the histogram benchmark issues once at the end of its
    /// update loop, and that flush-dominated configurations (Fig. 9 at 32+
    /// nodes for WW, Fig. 11) suffer from.
    pub fn flush(&mut self) -> Vec<OutboundMessage<T>> {
        let mut out = Vec::new();
        self.flush_each(|m| out.push(m));
        out
    }

    /// [`Aggregator::flush`] without the intermediate message vector: each
    /// drained message goes straight to `sink` (the native runtime's
    /// flush-to-ring fast path).
    pub fn flush_each(&mut self, mut sink: impl FnMut(OutboundMessage<T>)) {
        self.stats.record_flush_call();
        self.drain_where(
            EmitReason::ExplicitFlush,
            &mut sink,
            |_, _| true,
            |sink, m| sink(m),
        );
    }

    /// Idle flush: called by the runtime when the owning worker has no work.
    /// Only drains if the flush policy enables flushing on idle.
    pub fn flush_on_idle(&mut self) -> Vec<OutboundMessage<T>> {
        let mut out = Vec::new();
        self.flush_on_idle_where(&mut out, |_, _| true, |out, m| out.push(m));
        out
    }

    /// Idle flush behind a per-destination gate, with messages handed
    /// straight to `sink`: a non-empty buffer ships
    /// (as [`EmitReason::IdleFlush`]) only if `release` lets its destination
    /// go; a held buffer keeps filling — same items, same order, same
    /// oldest-insert stamp — until it is full, times out, or a later call
    /// releases it.  The native runtime's gate is Nagle's rule on the ring
    /// toward the destination's receiver: release when nothing this worker
    /// shipped there is still unconsumed.  Only drains if the flush policy
    /// enables flushing on idle.  `cx` is handed to both callbacks, so the
    /// gate can read the state the sink mutates.
    pub fn flush_on_idle_where<C>(
        &mut self,
        cx: &mut C,
        release: impl Fn(&C, MessageDest) -> bool,
        sink: impl FnMut(&mut C, OutboundMessage<T>),
    ) {
        if self.config.flush_policy.on_idle {
            self.drain_where(EmitReason::IdleFlush, cx, release, sink);
        }
    }

    /// Timeout poll: drain buffers whose oldest item is older than the
    /// configured timeout at time `now_ns`.
    pub fn poll_timeout(&mut self, now_ns: u64) -> Vec<OutboundMessage<T>> {
        let mut out = Vec::new();
        self.poll_timeout_each(now_ns, |m| out.push(m));
        out
    }

    /// [`Aggregator::poll_timeout`] with messages handed straight to `sink`.
    pub fn poll_timeout_each(&mut self, now_ns: u64, mut sink: impl FnMut(OutboundMessage<T>)) {
        let Some(timeout) = self.config.flush_policy.timeout_ns else {
            return;
        };
        for slot in 0..self.buffers.len() {
            match self.buffers[slot].as_ref() {
                Some(buffer) if !buffer.is_empty() && buffer.oldest_age_ns(now_ns) >= timeout => {}
                _ => continue,
            }
            let items = self.drain_slot(slot);
            let dest = self.dest_for_slot(slot);
            sink(self.make_message(dest, items, EmitReason::TimeoutFlush));
        }
    }

    /// The earliest deadline at which [`Self::poll_timeout`] would flush
    /// something, if a timeout policy is configured and any buffer is
    /// non-empty.  Substrates use this to schedule their next timeout poll.
    pub fn next_timeout_deadline(&self) -> Option<u64> {
        let timeout = self.config.flush_policy.timeout_ns?;
        let in_vecs = self
            .buffers
            .iter()
            .flatten()
            .filter_map(|b| b.oldest_insert_ns());
        let in_slabs = self
            .slabs
            .iter()
            .zip(&self.slab_oldest)
            .filter(|(slab, _)| slab.is_some())
            .map(|(_, oldest)| *oldest);
        in_vecs
            .chain(in_slabs)
            .min()
            .map(|oldest| oldest.saturating_add(timeout))
    }
}

/// The zero-copy slab path.
///
/// In slab mode the aggregator claims one slab per destination from the
/// owning worker's shared [`SlabArena`] and writes every inserted item
/// **directly into its slab slot** — there is no intermediate buffer, and the
/// item never moves again: the sealed slab ships as a 32-byte
/// [`SlabSealed`] descriptor and is borrowed in place by its consumers.
/// When the arena is dry (every slab out with slow consumers), the slot
/// falls back to the pooled heap-vector path until that vector is emitted —
/// the fallback shows up in the arena's miss counter, which reads 0 in a
/// correctly sized steady state.
///
/// Requires `T: Copy`: slabs are shared plain-old-data stores and must not
/// carry drop obligations across threads.
impl<T: Copy> Aggregator<T> {
    /// Insert one item on the slab path, using `now_ns` for timeout
    /// accounting.  The item lands in (in priority order) the local-bypass
    /// return, its destination's active slab, or the slot's fallback vector.
    pub fn insert_slab_at(
        &mut self,
        arena: &SlabArena<Item<T>>,
        item: Item<T>,
        now_ns: u64,
    ) -> SlabInsertOutcome<T> {
        if self.is_local(item.dest) {
            self.stats.record_local_bypass();
            return SlabInsertOutcome {
                local_delivery: Some(item),
                message: None,
            };
        }
        self.stats.record_insert();

        let Some(slot) = self.slot_for(item.dest) else {
            // NoAgg never buffers: single-item messages stay on the pooled
            // vector path (the native mesh ships them inline anyway).
            return SlabInsertOutcome {
                local_delivery: None,
                message: Some(EmittedMessage::Vec(self.emit_single(item))),
            };
        };

        // Soundness gate for the unchecked slab writes below: every write
        // index is `< buffer_items`, so slabs at least that big make the
        // whole fill phase in-bounds.  Checked here — outside the per-item
        // fast path only in the sense that it is one branch — so a caller
        // pairing a mis-sized arena with this config gets a panic, never UB.
        assert!(
            arena.slab_capacity() >= self.config.buffer_items,
            "arena slabs ({}) smaller than the configured buffer ({})",
            arena.slab_capacity(),
            self.config.buffer_items
        );
        let capacity = self.config.buffer_items as u32;
        if let Some((slab, len)) = self.slabs[slot] {
            // SAFETY: this aggregator claimed `slab` (rule: claim → seal is
            // owner-exclusive) and `len < capacity` because a full slab is
            // sealed immediately below.
            unsafe { arena.write(slab, len as usize, item) };
            let len = len + 1;
            if len == capacity {
                self.slabs[slot] = None;
                let msg = self.seal_slab(arena, slot, slab, len, EmitReason::BufferFull);
                return SlabInsertOutcome {
                    local_delivery: None,
                    message: Some(msg),
                };
            }
            self.slabs[slot] = Some((slab, len));
            return SlabInsertOutcome::buffered();
        }

        // No active slab.  If the slot is mid-fallback (items already in its
        // vector buffer), stay on the vector path until that message leaves —
        // mixing the two stores would reorder the destination's items.
        let vec_pending = self.buffers[slot].as_ref().is_some_and(|b| !b.is_empty());
        if !vec_pending {
            if let Some(slab) = arena.try_claim() {
                // SAFETY: freshly claimed, slot 0 is in range.
                unsafe { arena.write(slab, 0, item) };
                self.slab_oldest[slot] = now_ns;
                if capacity == 1 {
                    let msg = self.seal_slab(arena, slot, slab, 1, EmitReason::BufferFull);
                    return SlabInsertOutcome {
                        local_delivery: None,
                        message: Some(msg),
                    };
                }
                self.slabs[slot] = Some((slab, 1));
                return SlabInsertOutcome::buffered();
            }
        }
        // Arena dry (or finishing an earlier fallback): pooled heap vector.
        match self.push_vec_slot(slot, item, now_ns) {
            Some(msg) => SlabInsertOutcome {
                local_delivery: None,
                message: Some(EmittedMessage::Vec(msg)),
            },
            None => SlabInsertOutcome::buffered(),
        }
    }

    /// Seal a slot's active slab into an outbound descriptor: WsP grouping
    /// runs here, in place, before the handle ships (the sealer is still the
    /// slab's sole consumer).
    fn seal_slab(
        &mut self,
        arena: &SlabArena<Item<T>>,
        slot: usize,
        slab: u32,
        len: u32,
        reason: EmitReason,
    ) -> EmittedMessage<T> {
        let grouped_at_source = self.config.scheme.groups_at_source();
        let handle = arena.seal(slab, len);
        if grouped_at_source && len > 1 {
            let wpp = self.config.topology.workers_per_proc() as usize;
            // SAFETY: sealed above with `outstanding == 1`, and the handle
            // has not shipped yet, so this thread is the sole consumer; all
            // `len` slots were written by the fill phase.
            let items = unsafe { arena.slice_mut(slab, 0, len) };
            crate::group::group_in_place(items, wpp, &mut self.group_scratch);
        }
        let bytes = self.config.message_bytes(len as usize);
        self.stats.record_message(len as usize, bytes, reason);
        if self.config.detailed_dest_stats {
            // SAFETY: as above — sealed, unshipped, fully written.
            let items = unsafe { arena.slice(slab, 0, len) };
            let distinct = if grouped_at_source {
                crate::message::distinct_sorted_dest_workers(items)
            } else {
                let mut dests: Vec<u32> = items.iter().map(|i| i.dest.0).collect();
                dests.sort_unstable();
                dests.dedup();
                dests.len()
            };
            self.stats.record_dest_spread(distinct);
        }
        EmittedMessage::Slab(SlabSealed {
            dest: self.dest_for_slot(slot),
            handle,
            bytes,
            reason,
            grouped_at_source,
        })
    }

    /// Drain every non-empty slot (active slab or fallback vector — never
    /// both) whose destination `release` lets go, handing one resized message
    /// per destination to `sink`.  The slab-path twin of
    /// [`Aggregator::drain_where`]: a held slot keeps its slab, fill level
    /// and oldest-insert stamp.
    fn drain_slab_where<C>(
        &mut self,
        arena: &SlabArena<Item<T>>,
        reason: EmitReason,
        cx: &mut C,
        release: impl Fn(&C, MessageDest) -> bool,
        mut sink: impl FnMut(&mut C, EmittedMessage<T>),
    ) {
        for slot in 0..self.slabs.len() {
            let vec_pending = self.buffers[slot].as_ref().is_some_and(|b| !b.is_empty());
            if self.slabs[slot].is_none() && !vec_pending {
                continue;
            }
            let dest = self.dest_for_slot(slot);
            if !release(cx, dest) {
                continue;
            }
            if let Some((slab, len)) = self.slabs[slot].take() {
                sink(cx, self.seal_slab(arena, slot, slab, len, reason));
            }
            if vec_pending {
                let items = self.drain_slot(slot);
                sink(
                    cx,
                    EmittedMessage::Vec(self.make_message(dest, items, reason)),
                );
            }
        }
    }

    /// Explicit application flush on the slab path: drain every
    /// partially-filled slab and fallback buffer straight to `sink`.
    pub fn flush_slab_each(
        &mut self,
        arena: &SlabArena<Item<T>>,
        mut sink: impl FnMut(EmittedMessage<T>),
    ) {
        self.stats.record_flush_call();
        self.drain_slab_where(
            arena,
            EmitReason::ExplicitFlush,
            &mut sink,
            |_, _| true,
            |sink, m| sink(m),
        );
    }

    /// [`Aggregator::flush_on_idle_where`] on the slab path: a released slot
    /// seals its slab as an `IdleFlush` message, a held slot keeps its slab.
    pub fn flush_on_idle_slab_where<C>(
        &mut self,
        arena: &SlabArena<Item<T>>,
        cx: &mut C,
        release: impl Fn(&C, MessageDest) -> bool,
        sink: impl FnMut(&mut C, EmittedMessage<T>),
    ) {
        if self.config.flush_policy.on_idle {
            self.drain_slab_where(arena, EmitReason::IdleFlush, cx, release, sink);
        }
    }

    /// Timeout poll on the slab path: drain slots whose oldest item is older
    /// than the configured timeout at `now_ns`.
    pub fn poll_timeout_slab_each(
        &mut self,
        arena: &SlabArena<Item<T>>,
        now_ns: u64,
        mut sink: impl FnMut(EmittedMessage<T>),
    ) {
        let Some(timeout) = self.config.flush_policy.timeout_ns else {
            return;
        };
        for slot in 0..self.slabs.len() {
            if let Some((slab, len)) = self.slabs[slot] {
                if now_ns.saturating_sub(self.slab_oldest[slot]) >= timeout {
                    self.slabs[slot] = None;
                    sink(self.seal_slab(arena, slot, slab, len, EmitReason::TimeoutFlush));
                }
            }
            match self.buffers[slot].as_ref() {
                Some(buffer) if !buffer.is_empty() && buffer.oldest_age_ns(now_ns) >= timeout => {}
                _ => continue,
            }
            let items = self.drain_slot(slot);
            let dest = self.dest_for_slot(slot);
            sink(EmittedMessage::Vec(self.make_message(
                dest,
                items,
                EmitReason::TimeoutFlush,
            )));
        }
    }

    /// Quarantine teardown: abandon every buffered item instead of emitting
    /// it, releasing active slabs straight back to `arena`.
    ///
    /// This is the aggregator half of worker-panic containment: the owner's
    /// application is gone, so its partially-filled buffers can never be
    /// sealed or delivered — but the slabs they sit in belong to the arena
    /// and must come home or they count as leaked in the reclamation audit.
    /// Active slabs are claimed-unsealed (`outstanding == 0`), so releasing
    /// them directly is rule-4-legal: the owner is the sole referent.
    ///
    /// Returns the number of items abandoned (the caller accounts them as
    /// dropped — they were already counted sent).
    pub fn abandon(&mut self, arena: Option<&SlabArena<Item<T>>>) -> u64 {
        let mut dropped = 0u64;
        for slot in 0..self.buffers.len() {
            if let Some(buffer) = self.buffers[slot].as_mut() {
                dropped += buffer.len() as u64;
                let items = buffer.drain_with(Vec::new());
                self.pool.put(items);
            }
        }
        for slot in 0..self.slabs.len() {
            if let Some((slab, len)) = self.slabs[slot].take() {
                dropped += len as u64;
                let arena = arena.expect("an aggregator with active slabs needs its arena");
                arena.release(slab);
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::EmittedMessage;
    use net_model::Topology;

    /// 2 nodes x 2 procs x 2 workers = 8 workers, 4 procs.
    fn topo() -> Topology {
        Topology::smp(2, 2, 2)
    }

    fn config(scheme: Scheme) -> TramConfig {
        TramConfig::new(scheme, topo())
            .with_buffer_items(3)
            .with_item_bytes(8)
            .with_header_bytes(16)
    }

    fn item(dest: u32, v: u32) -> Item<u32> {
        Item::new(WorkerId(dest), v, 0)
    }

    #[test]
    fn ww_buffers_per_destination_worker() {
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        // Items to two different remote workers accumulate in separate buffers.
        assert!(agg.insert(item(4, 1)).message.is_none());
        assert!(agg.insert(item(5, 2)).message.is_none());
        assert!(agg.insert(item(4, 3)).message.is_none());
        assert_eq!(agg.buffered_items(), 3);
        assert_eq!(agg.non_empty_buffers(), 2);
        // Third item to worker 4 fills that buffer.
        let msg = agg.insert(item(4, 4)).message.expect("buffer full");
        assert_eq!(msg.dest, MessageDest::Worker(WorkerId(4)));
        assert_eq!(msg.item_count(), 3);
        assert_eq!(msg.reason, EmitReason::BufferFull);
        assert!(!msg.grouped_at_source);
        assert_eq!(msg.bytes, 16 + 3 * 8);
    }

    #[test]
    fn wps_buffers_per_destination_process() {
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        // Workers 4 and 5 are both in process 2: they share a buffer.
        assert!(agg.insert(item(4, 1)).message.is_none());
        assert!(agg.insert(item(5, 2)).message.is_none());
        let msg = agg.insert(item(4, 3)).message.expect("buffer full");
        assert_eq!(msg.dest, MessageDest::Process(ProcId(2)));
        assert_eq!(msg.item_count(), 3);
        assert!(!msg.grouped_at_source, "WPs groups at the destination");
    }

    #[test]
    fn wsp_groups_items_at_source() {
        let mut agg = Aggregator::new(config(Scheme::WsP), Owner::Worker(WorkerId(0)));
        agg.insert(item(5, 1));
        agg.insert(item(4, 2));
        let msg = agg.insert(item(5, 3)).message.expect("buffer full");
        assert!(msg.grouped_at_source);
        // Items are sorted by destination worker id.
        let dests: Vec<u32> = msg.items.iter().map(|i| i.dest.0).collect();
        assert_eq!(dests, vec![4, 5, 5]);
    }

    #[test]
    fn pp_owned_by_process() {
        let mut agg = Aggregator::new(config(Scheme::PP), Owner::Process(ProcId(0)));
        agg.insert(item(4, 1));
        agg.insert(item(6, 2)); // worker 6 is in process 3 -> different buffer
        assert_eq!(agg.non_empty_buffers(), 2);
        agg.insert(item(5, 3));
        let msg = agg.insert(item(4, 4)).message.expect("proc-2 buffer full");
        assert_eq!(msg.dest, MessageDest::Process(ProcId(2)));
        assert_eq!(msg.item_count(), 3);
    }

    #[test]
    #[should_panic(expected = "owned by the process")]
    fn pp_with_worker_owner_panics() {
        let _ = Aggregator::<u32>::new(config(Scheme::PP), Owner::Worker(WorkerId(0)));
    }

    #[test]
    #[should_panic(expected = "owned by a worker")]
    fn ww_with_process_owner_panics() {
        let _ = Aggregator::<u32>::new(config(Scheme::WW), Owner::Process(ProcId(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        let _ = Aggregator::<u32>::new(config(Scheme::WW), Owner::Worker(WorkerId(999)));
    }

    #[test]
    fn try_new_reports_invalid_pairings_without_panicking() {
        use crate::error::TramError;

        let err = Aggregator::<u32>::try_new(config(Scheme::PP), Owner::Worker(WorkerId(0)))
            .expect_err("PP + worker owner");
        assert!(matches!(
            err,
            TramError::SchemeOwnerMismatch {
                scheme: Scheme::PP,
                ..
            }
        ));

        let err = Aggregator::<u32>::try_new(config(Scheme::WW), Owner::Process(ProcId(0)))
            .expect_err("WW + process owner");
        assert!(matches!(
            err,
            TramError::SchemeOwnerMismatch {
                scheme: Scheme::WW,
                ..
            }
        ));

        let err = Aggregator::<u32>::try_new(config(Scheme::WW), Owner::Worker(WorkerId(999)))
            .expect_err("worker out of range");
        assert!(matches!(err, TramError::OwnerOutOfRange { limit: 8, .. }));

        let err = Aggregator::<u32>::try_new(config(Scheme::PP), Owner::Process(ProcId(99)))
            .expect_err("process out of range");
        assert!(matches!(err, TramError::OwnerOutOfRange { limit: 4, .. }));

        // Every valid pairing still constructs.
        assert!(
            Aggregator::<u32>::try_new(config(Scheme::WsP), Owner::Worker(WorkerId(7))).is_ok()
        );
        assert!(Aggregator::<u32>::try_new(config(Scheme::PP), Owner::Process(ProcId(3))).is_ok());
    }

    #[test]
    fn local_bypass_returns_item_immediately() {
        // Worker 0 and worker 1 are in the same process (proc 0).
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        let out = agg.insert(item(1, 7));
        let local = out.local_delivery.expect("same-process item bypasses");
        assert_eq!(local.data, 7);
        assert!(out.message.is_none());
        assert_eq!(agg.stats().items_local_bypass(), 1);
        assert_eq!(agg.stats().items_inserted(), 0);
        assert_eq!(agg.buffered_items(), 0);
    }

    #[test]
    fn local_bypass_can_be_disabled() {
        let cfg = config(Scheme::WPs).with_local_bypass(false);
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        let out = agg.insert(item(1, 7));
        assert!(out.local_delivery.is_none());
        assert_eq!(agg.buffered_items(), 1);
    }

    #[test]
    fn noagg_emits_every_item() {
        let mut agg = Aggregator::new(config(Scheme::NoAgg), Owner::Worker(WorkerId(0)));
        let out = agg.insert(item(4, 9));
        let msg = out.message.expect("NoAgg emits immediately");
        assert_eq!(msg.reason, EmitReason::Unaggregated);
        assert_eq!(msg.dest, MessageDest::Worker(WorkerId(4)));
        assert_eq!(msg.item_count(), 1);
        assert!(agg.flush().is_empty(), "nothing buffered under NoAgg");
    }

    #[test]
    fn explicit_flush_resizes_messages() {
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1)); // proc 2
        agg.insert(item(6, 2)); // proc 3
        let msgs = agg.flush();
        assert_eq!(msgs.len(), 2);
        for m in &msgs {
            assert_eq!(m.reason, EmitReason::ExplicitFlush);
            assert_eq!(m.item_count(), 1);
            // Resized: envelope + 1 item, not envelope + full buffer.
            assert_eq!(m.bytes, 16 + 8);
        }
        assert_eq!(agg.buffered_items(), 0);
        assert_eq!(agg.stats().flush_calls(), 1);
        assert_eq!(agg.stats().messages_flushed(), 2);
    }

    #[test]
    fn idle_flush_respects_policy() {
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1));
        assert!(
            agg.flush_on_idle().is_empty(),
            "idle flush disabled by default"
        );

        let cfg = config(Scheme::WPs).with_flush_policy(crate::FlushPolicy::ON_IDLE);
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1));
        let msgs = agg.flush_on_idle();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].reason, EmitReason::IdleFlush);
    }

    /// On-idle flushing with a 1 µs timeout as the backstop.
    fn idle_policy() -> crate::FlushPolicy {
        crate::FlushPolicy {
            on_idle: true,
            ..crate::FlushPolicy::with_timeout(1_000)
        }
    }

    #[test]
    fn gated_idle_flush_holds_one_destination_and_releases_the_other() {
        let cfg = config(Scheme::WPs).with_flush_policy(idle_policy());
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        agg.insert_at(Item::new(WorkerId(4), 1u32, 100), 100); // proc 2
        agg.insert_at(Item::new(WorkerId(6), 2, 200), 200); // proc 3
        agg.insert_at(Item::new(WorkerId(5), 3, 300), 300); // proc 2
        let proc3 = MessageDest::Process(ProcId(3));
        // The gate reads the caller's state; the sink writes it.
        let mut cx = (proc3, Vec::new());
        agg.flush_on_idle_where(&mut cx, |cx, dest| dest == cx.0, |cx, m| cx.1.push(m));
        let released = cx.1;
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].dest, proc3);
        assert_eq!(released[0].reason, EmitReason::IdleFlush);
        assert_eq!(released[0].items[0].data, 2);
        // The held buffer is untouched: items, oldest-insert stamp, order.
        assert_eq!(agg.buffered_items(), 2);
        assert_eq!(agg.next_timeout_deadline(), Some(1_100));
        let full = agg
            .insert_at(Item::new(WorkerId(4), 4, 400), 400)
            .message
            .expect("the held buffer fills");
        assert_eq!(full.reason, EmitReason::BufferFull);
        let data: Vec<u32> = full.items.iter().map(|i| i.data).collect();
        assert_eq!(data, vec![1, 3, 4]);
        assert_eq!(agg.stats().counters().get("messages_idle_flush"), 1);

        // Without the policy the gate is never consulted.
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1));
        agg.flush_on_idle_where(
            &mut (),
            |(), _| panic!("gate consulted"),
            |(), _| panic!("emitted"),
        );
        assert_eq!(agg.buffered_items(), 1);
    }

    #[test]
    fn timeout_flush_only_past_deadline() {
        let cfg = config(Scheme::WPs).with_flush_policy(crate::FlushPolicy::with_timeout(1_000));
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        agg.insert_at(Item::new(WorkerId(4), 1u32, 100), 100);
        assert_eq!(agg.next_timeout_deadline(), Some(1_100));
        assert!(agg.poll_timeout(500).is_empty());
        let msgs = agg.poll_timeout(1_200);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].reason, EmitReason::TimeoutFlush);
        assert_eq!(agg.next_timeout_deadline(), None);
    }

    #[test]
    fn stats_track_full_vs_flush_messages() {
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        for i in 0..3 {
            agg.insert(item(4, i));
        }
        agg.insert(item(5, 99));
        agg.flush();
        let stats = agg.stats();
        assert_eq!(stats.messages_full(), 1);
        assert_eq!(stats.messages_flushed(), 1);
        assert_eq!(stats.items_inserted(), 4);
        assert_eq!(stats.items_sent(), 4);
    }

    #[test]
    fn pool_hit_rate_positive_after_warmup_on_steady_workload() {
        // Steady workload: fill the same destination buffer over and over,
        // returning each message's vector as the substrate would once the
        // items are delivered.  After the first (cold) drain every refill must
        // come from the pool.
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        for round in 0..50u32 {
            for i in 0..3 {
                let out = agg.insert(item(4, round * 3 + i));
                if let Some(msg) = out.message {
                    agg.recycle(msg.items);
                }
            }
        }
        let stats = agg.pool_stats();
        assert!(
            stats.hit_rate() > 0.0,
            "steady state must reuse message vectors: {stats:?}"
        );
        assert_eq!(stats.misses, 1, "only the cold first drain allocates");
        assert_eq!(stats.hits, 49, "every later drain reuses a vector");
    }

    #[test]
    fn dest_spread_recorded_only_when_enabled() {
        // Default: the per-message destination histogram is off — no samples.
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1));
        agg.insert(item(5, 2));
        agg.insert(item(4, 3));
        assert_eq!(agg.stats().dest_spread().count(), 0);

        // Opt-in: every emitted message records its distinct-worker count.
        let cfg = config(Scheme::WPs).with_detailed_dest_stats(true);
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1));
        agg.insert(item(5, 2));
        let msg = agg.insert(item(4, 3)).message.expect("buffer full");
        assert_eq!(msg.item_count(), 3);
        assert_eq!(agg.stats().dest_spread().count(), 1);
        assert!((agg.stats().dest_spread().mean() - 2.0).abs() < 1e-12);
    }

    fn slab_arena(capacity: usize) -> SlabArena<Item<u32>> {
        SlabArena::new(8, capacity)
    }

    /// Drain a slab message's items for assertions, releasing the slab.
    fn read_slab(arena: &SlabArena<Item<u32>>, msg: &EmittedMessage<u32>) -> Vec<(u32, u32)> {
        match msg {
            EmittedMessage::Slab(sealed) => {
                // SAFETY: test is the sole consumer of the just-sealed slab.
                let items = unsafe { arena.slice(sealed.handle.slab, 0, sealed.handle.len) };
                let out = items.iter().map(|i| (i.dest.0, i.data)).collect();
                assert!(arena.finish_consumer(sealed.handle.slab));
                arena.release(sealed.handle.slab);
                out
            }
            EmittedMessage::Vec(m) => m.items.iter().map(|i| (i.dest.0, i.data)).collect(),
        }
    }

    #[test]
    fn slab_path_seals_at_capacity_without_moving_items() {
        let arena = slab_arena(3);
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        assert!(agg.insert_slab_at(&arena, item(4, 1), 0).message.is_none());
        assert!(agg.insert_slab_at(&arena, item(5, 2), 0).message.is_none());
        assert!(agg.insert_slab_at(&arena, item(4, 3), 0).message.is_none());
        assert_eq!(agg.buffered_items(), 3);
        let out = agg.insert_slab_at(&arena, item(4, 4), 0);
        let msg = out.message.expect("third item to worker 4 seals its slab");
        assert!(
            matches!(msg, EmittedMessage::Slab(_)),
            "steady state ships slabs"
        );
        assert_eq!(msg.dest(), MessageDest::Worker(WorkerId(4)));
        assert_eq!(read_slab(&arena, &msg), vec![(4, 1), (4, 3), (4, 4)]);
        assert_eq!(agg.stats().messages_full(), 1);
        assert_eq!(arena.stats().misses, 0);
    }

    #[test]
    fn slab_path_falls_back_to_vectors_when_arena_dry() {
        // A 1-slab arena: the second destination cannot claim and must use
        // the pooled vector path; no item may be lost either way.
        let arena: SlabArena<Item<u32>> = SlabArena::new(1, 3);
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        agg.insert_slab_at(&arena, item(4, 1), 0);
        agg.insert_slab_at(&arena, item(5, 2), 0); // arena dry -> vector
        assert_eq!(arena.stats().misses, 1);
        let full = agg.insert_slab_at(&arena, item(5, 3), 0);
        assert!(full.message.is_none());
        let msg = agg
            .insert_slab_at(&arena, item(5, 4), 0)
            .message
            .expect("vector buffer fills at capacity 3");
        assert!(
            matches!(msg, EmittedMessage::Vec(_)),
            "fallback ships vectors"
        );
        assert_eq!(read_slab(&arena, &msg), vec![(5, 2), (5, 3), (5, 4)]);
        // The slab destination still seals through the arena.
        agg.insert_slab_at(&arena, item(4, 5), 0);
        let msg = agg
            .insert_slab_at(&arena, item(4, 6), 0)
            .message
            .expect("slab seals");
        assert!(matches!(msg, EmittedMessage::Slab(_)));
        assert_eq!(read_slab(&arena, &msg), vec![(4, 1), (4, 5), (4, 6)]);
    }

    #[test]
    fn slab_flush_drains_slabs_and_fallback_vectors() {
        let arena: SlabArena<Item<u32>> = SlabArena::new(1, 3);
        let cfg = config(Scheme::WPs);
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        agg.insert_slab_at(&arena, item(4, 1), 0); // proc 2 -> slab
        agg.insert_slab_at(&arena, item(6, 2), 0); // proc 3 -> arena dry -> vector
        let mut flushed = Vec::new();
        agg.flush_slab_each(&arena, |m| flushed.push(read_slab(&arena, &m)));
        assert_eq!(flushed, vec![vec![(4, 1)], vec![(6, 2)]]);
        assert_eq!(agg.buffered_items(), 0);
        assert_eq!(agg.stats().flush_calls(), 1);
        assert_eq!(agg.stats().messages_flushed(), 2);
    }

    #[test]
    fn slab_path_groups_wsp_in_place_at_the_source() {
        let arena = slab_arena(3);
        let mut agg = Aggregator::new(config(Scheme::WsP), Owner::Worker(WorkerId(0)));
        agg.insert_slab_at(&arena, item(5, 1), 0);
        agg.insert_slab_at(&arena, item(4, 2), 0);
        let msg = agg
            .insert_slab_at(&arena, item(5, 3), 0)
            .message
            .expect("slab seals");
        match &msg {
            EmittedMessage::Slab(sealed) => assert!(sealed.grouped_at_source),
            EmittedMessage::Vec(_) => panic!("expected a slab"),
        }
        // Items sorted by destination worker, per-worker order preserved.
        assert_eq!(read_slab(&arena, &msg), vec![(4, 2), (5, 1), (5, 3)]);
    }

    #[test]
    fn slab_path_honours_local_bypass_and_noagg() {
        let arena = slab_arena(3);
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        let out = agg.insert_slab_at(&arena, item(1, 7), 0);
        assert_eq!(out.local_delivery.expect("same-process bypass").data, 7);

        let mut agg = Aggregator::new(config(Scheme::NoAgg), Owner::Worker(WorkerId(0)));
        let out = agg.insert_slab_at(&arena, item(4, 9), 0);
        let msg = out.message.expect("NoAgg emits immediately");
        assert!(
            matches!(msg, EmittedMessage::Vec(_)),
            "NoAgg stays on vectors"
        );
        assert_eq!(msg.item_count(), 1);
    }

    #[test]
    #[should_panic(expected = "smaller than the configured buffer")]
    fn slab_path_rejects_undersized_arenas() {
        // The unchecked slab writes are bounded by the config's buffer size;
        // pairing the aggregator with an arena of smaller slabs must panic
        // (in all builds), never write out of bounds.
        let arena: SlabArena<Item<u32>> = SlabArena::new(4, 2);
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        let _ = agg.insert_slab_at(&arena, item(4, 1), 0);
    }

    #[test]
    fn slab_timeout_flush_drains_stale_slabs() {
        let arena = slab_arena(8);
        let cfg = config(Scheme::WPs).with_flush_policy(crate::FlushPolicy::with_timeout(1_000));
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        agg.insert_slab_at(&arena, item(4, 1), 100);
        assert_eq!(agg.next_timeout_deadline(), Some(1_100));
        let mut early = 0;
        agg.poll_timeout_slab_each(&arena, 500, |_| early += 1);
        assert_eq!(early, 0);
        let mut msgs = Vec::new();
        agg.poll_timeout_slab_each(&arena, 1_200, |m| msgs.push(read_slab(&arena, &m)));
        assert_eq!(msgs, vec![vec![(4, 1)]]);
        assert_eq!(agg.next_timeout_deadline(), None);
    }

    #[test]
    fn slab_steady_state_recycles_without_a_single_miss() {
        // The zero-copy invariant: with consumers releasing promptly, a
        // steady workload never exhausts the arena — `misses == 0` and every
        // item is written exactly once, into its slab.
        let arena = slab_arena(3);
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        let mut delivered = 0usize;
        for round in 0..200u32 {
            let out = agg.insert_slab_at(&arena, item(4, round), 0);
            if let Some(msg) = out.message {
                delivered += read_slab(&arena, &msg).len();
            }
        }
        let mut flushed = Vec::new();
        agg.flush_slab_each(&arena, |m| flushed.push(read_slab(&arena, &m).len()));
        assert_eq!(delivered + flushed.iter().sum::<usize>(), 200);
        let stats = arena.stats();
        assert_eq!(
            stats.misses, 0,
            "steady state must never fall back: {stats:?}"
        );
        assert!(stats.claims >= 66);
    }

    #[test]
    fn gated_idle_flush_on_the_slab_path_keeps_a_held_slab_filling() {
        let arena = slab_arena(3);
        let cfg = config(Scheme::WPs).with_flush_policy(idle_policy());
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        agg.insert_slab_at(&arena, item(4, 1), 100); // proc 2
        agg.insert_slab_at(&arena, item(6, 2), 200); // proc 3
        agg.insert_slab_at(&arena, item(5, 3), 300); // proc 2
        assert_eq!(arena.free_slabs(), 6);
        let proc3 = MessageDest::Process(ProcId(3));
        let mut released = Vec::new();
        agg.flush_on_idle_slab_where(
            &arena,
            &mut released,
            |_, dest| dest == proc3,
            |out, m| out.push(m),
        );
        assert_eq!(released.len(), 1);
        match &released[0] {
            EmittedMessage::Slab(sealed) => {
                assert_eq!(sealed.dest, proc3);
                assert_eq!(sealed.reason, EmitReason::IdleFlush);
            }
            EmittedMessage::Vec(_) => panic!("expected a slab"),
        }
        assert_eq!(read_slab(&arena, &released[0]), vec![(6, 2)]);
        // The held slot keeps its slab, fill level and oldest-insert stamp,
        // and fills up in insertion order.
        assert_eq!(arena.free_slabs(), 7);
        assert_eq!(agg.buffered_items(), 2);
        assert_eq!(agg.next_timeout_deadline(), Some(1_100));
        let full = agg
            .insert_slab_at(&arena, item(4, 4), 400)
            .message
            .expect("the held slab fills");
        assert_eq!(read_slab(&arena, &full), vec![(4, 1), (5, 3), (4, 4)]);
        assert_eq!(agg.stats().counters().get("messages_idle_flush"), 1);
        assert_eq!(agg.stats().messages_full(), 1);
        assert_eq!(arena.stats().misses, 0);
    }

    #[test]
    fn slab_steady_state_stays_miss_free_under_gated_idle_flushes() {
        // A gate that opens on every other poll, polled after every insert:
        // slabs leave half-filled or full, and every one comes home before
        // the arena could run dry.
        let arena = slab_arena(3);
        let cfg = config(Scheme::WPs).with_flush_policy(idle_policy());
        let mut agg = Aggregator::new(cfg, Owner::Worker(WorkerId(0)));
        let mut delivered = Vec::new();
        for round in 0..200u32 {
            if let Some(msg) = agg.insert_slab_at(&arena, item(4, round), 0).message {
                delivered.extend(read_slab(&arena, &msg));
            }
            agg.flush_on_idle_slab_where(
                &arena,
                &mut delivered,
                |_, _| round % 2 == 1,
                |out, msg| out.extend(read_slab(&arena, &msg)),
            );
        }
        agg.flush_slab_each(&arena, |msg| delivered.extend(read_slab(&arena, &msg)));
        // Per-destination order survives every mix of held and released.
        let data: Vec<u32> = delivered.iter().map(|&(_, v)| v).collect();
        assert_eq!(data, (0..200).collect::<Vec<u32>>());
        assert_eq!(arena.stats().misses, 0);
        assert_eq!(arena.free_slabs(), 8);
    }

    #[test]
    fn abandon_releases_active_slabs_and_drops_buffered_items() {
        let arena = slab_arena(4);
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        // Two items into worker 4's active slab, one into worker 5's.
        assert!(agg.insert_slab_at(&arena, item(4, 1), 0).message.is_none());
        assert!(agg.insert_slab_at(&arena, item(4, 2), 0).message.is_none());
        assert!(agg.insert_slab_at(&arena, item(5, 3), 0).message.is_none());
        assert_eq!(agg.buffered_items(), 3);
        assert_eq!(arena.free_slabs(), 6);

        let dropped = agg.abandon(Some(&arena));
        assert_eq!(dropped, 3);
        assert_eq!(agg.buffered_items(), 0);
        assert_eq!(arena.free_slabs(), 8, "active slabs came home");
        let audit = arena.audit();
        assert_eq!((audit.leaked, audit.in_flight), (0, 0));

        // Vector path: no arena involved.
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1));
        agg.insert(item(6, 2));
        assert_eq!(agg.abandon(None), 2);
        assert_eq!(agg.buffered_items(), 0);
        assert_eq!(agg.abandon(None), 0, "idempotent once empty");
    }

    #[test]
    fn insert_accounting_conserves_items() {
        // Every inserted item either bypasses locally, is buffered, or is sent.
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        let mut local = 0usize;
        let mut sent = 0usize;
        for i in 0..100u32 {
            let dest = i % 8;
            let out = agg.insert(item(dest, i));
            if out.local_delivery.is_some() {
                local += 1;
            }
            if let Some(m) = out.message {
                sent += m.item_count();
            }
        }
        for m in agg.flush() {
            sent += m.item_count();
        }
        assert_eq!(local + sent, 100);
        assert_eq!(agg.buffered_items(), 0);
    }
}
