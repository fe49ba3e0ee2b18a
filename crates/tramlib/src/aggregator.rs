//! The aggregator: per-worker (WW, WPs, WsP) or per-process (PP) buffering of
//! items and emission of aggregated messages.

use crate::buffer::ItemBuffer;
use crate::config::TramConfig;
use crate::error::TramError;
use crate::group::{group_in_place, GroupScratch};
use crate::item::Item;
use crate::message::{EmitReason, EmittedMessage, MessageDest, OutboundMessage, SlabSealed};
use crate::pool::{PoolStats, VecPool};
use crate::scheme::Scheme;
use crate::stats::TramStats;
use net_model::{ProcId, WorkerId};
use shmem::SegArena;

/// Who owns this aggregator: a worker PE (WW, WPs, WsP, NoAgg) or a whole
/// process (PP — the buffer is shared by all workers of the process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A single worker PE owns the buffers.
    Worker(WorkerId),
    /// The whole process owns the buffers (PP); workers insert with atomics.
    Process(ProcId),
}

/// Result of inserting one item.  The aggregator buffers every item it is
/// given: whether a same-process item bypasses aggregation is the caller's
/// decision, made before it inserts.
#[derive(Debug, Clone)]
pub struct InsertOutcome<T> {
    /// A message that became ready because the insertion filled a buffer (or,
    /// for [`Scheme::NoAgg`], the message carrying just this item).
    pub message: Option<OutboundMessage<T>>,
}

/// Result of [`Aggregator::insert_slab_at`].
#[derive(Debug)]
pub struct SlabInsertOutcome<T> {
    /// A message that became ready: copied into a slab, or left as a heap
    /// vector when the arena was dry.
    pub message: Option<EmittedMessage<T>>,
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
    /// One buffer per destination slot: destination worker (WW) or
    /// destination process (WPs/WsP/PP).  Each is created empty and
    /// allocates its storage on its first push.
    buffers: Box<[ItemBuffer<T>]>,
    /// Buffer slot per destination worker, precomputed so the per-item hot
    /// path is one table load instead of a `proc_of_worker` division.
    /// Empty under NoAgg (no buffering).
    slot_of: Box<[u32]>,
    /// Free list of spent item vectors: each drained buffer ships its vector
    /// away inside the message, and refills from here instead of allocating.
    /// Substrates feed it by calling [`Aggregator::recycle`] with vectors they
    /// have finished delivering.
    pool: VecPool<Item<T>>,
    /// Reusable scratch for WsP's source-side grouping pass.
    group_scratch: GroupScratch<T>,
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
        Ok(Self {
            config,
            owner,
            buffers: (0..slots)
                .map(|_| ItemBuffer::new(config.buffer_items))
                .collect(),
            slot_of,
            pool: VecPool::default(),
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

    /// Total number of items currently sitting in buffers.
    pub fn buffered_items(&self) -> usize {
        self.buffers.iter().map(ItemBuffer::len).sum()
    }

    /// Number of destination buffers that currently hold at least one item.
    pub fn non_empty_buffers(&self) -> usize {
        self.buffers.iter().filter(|b| !b.is_empty()).count()
    }

    /// The message destination for a buffer slot.
    fn dest_for_slot(&self, slot: usize) -> MessageDest {
        match self.config.scheme {
            Scheme::NoAgg => unreachable!("NoAgg has no buffers"),
            Scheme::WW => MessageDest::Worker(WorkerId(slot as u32)),
            Scheme::WPs | Scheme::WsP | Scheme::PP => MessageDest::Process(ProcId(slot as u32)),
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
            let wpp = self.config.topology.workers_per_proc() as usize;
            group_in_place(&mut items, wpp, &mut self.group_scratch);
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
        self.buffers[slot].drain_with(replacement)
    }

    /// Insert one item created at `now_ns`.
    ///
    /// Returns an [`InsertOutcome`]: the item is buffered silently, or it
    /// completes a buffer and produces a message.
    pub fn insert(&mut self, item: Item<T>) -> InsertOutcome<T> {
        let now_ns = item.created_at_ns;
        self.insert_at(item, now_ns)
    }

    /// Insert one item, using `now_ns` as the insertion time for timeout
    /// accounting (usually the same as the item's creation time).
    ///
    /// The per-item path is one slot-table load, one buffer push and the
    /// full check; draining a full buffer into a message is out of line
    /// (`emit_full`).
    #[inline]
    pub fn insert_at(&mut self, item: Item<T>, now_ns: u64) -> InsertOutcome<T> {
        self.stats.record_insert();
        let Some(&slot) = self.slot_of.get(item.dest.idx()) else {
            return InsertOutcome {
                message: Some(self.emit_single(item)),
            };
        };
        let slot = slot as usize;
        let message = self.buffers[slot]
            .push(item, now_ns)
            .then(|| self.emit_full(slot));
        InsertOutcome { message }
    }

    /// The buffer of `slot` just filled: drain it into a
    /// [`EmitReason::BufferFull`] message.  Once per `g` inserts, so kept
    /// out of the insert path.
    #[cold]
    #[inline(never)]
    fn emit_full(&mut self, slot: usize) -> OutboundMessage<T> {
        let items = self.drain_slot(slot);
        let dest = self.dest_for_slot(slot);
        self.make_message(dest, items, EmitReason::BufferFull)
    }

    /// NoAgg: the item is its own message.  The single-item vector comes from
    /// the pool, so a substrate that returns spent vectors (the native
    /// engines recycle it at emit time, the simulator after delivery) makes
    /// even the unaggregated scheme allocation-free in steady state.  Out of
    /// line, like [`Self::emit_full`], so the inlined insert stays small.
    #[inline(never)]
    fn emit_single(&mut self, item: Item<T>) -> OutboundMessage<T> {
        let dest = MessageDest::Worker(item.dest);
        let mut items = self.pool.take();
        items.push(item);
        self.make_message(dest, items, EmitReason::Unaggregated)
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
            if self.buffers[slot].is_empty() {
                continue;
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
            let buffer = &self.buffers[slot];
            if buffer.is_empty() || buffer.oldest_age_ns(now_ns) < timeout {
                continue;
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
        self.buffers
            .iter()
            .filter_map(ItemBuffer::oldest_insert_ns)
            .min()
            .map(|oldest| oldest.saturating_add(timeout))
    }

    /// Quarantine teardown: abandon every buffered item instead of emitting
    /// it.  This is the aggregator half of worker-panic containment: the
    /// owner's application is gone, so its partially-filled buffers can never
    /// be delivered.
    ///
    /// Returns the number of items abandoned (the caller accounts them as
    /// dropped — they were already counted sent).
    pub fn abandon(&mut self) -> u64 {
        let mut dropped = 0u64;
        for buffer in self.buffers.iter_mut().filter(|b| !b.is_empty()) {
            dropped += buffer.len() as u64;
            self.pool.put(buffer.drain_with(Vec::new()));
        }
        dropped
    }
}

/// The vector path with the slab copy attached: one call from an item to a
/// shippable slab, for callers that want one.  The engines do the same two
/// steps themselves — [`Aggregator::insert_at`], then [`SegArena::fill`] on
/// the emitted message.
impl<T: Copy> Aggregator<T> {
    /// [`Aggregator::insert_at`], then copy a ready message into one slab of
    /// `arena`.  A dry arena returns the message as [`EmittedMessage::Vec`].
    pub fn insert_slab_at(
        &mut self,
        arena: &SegArena<Item<T>>,
        item: Item<T>,
        now_ns: u64,
    ) -> SlabInsertOutcome<T> {
        let Some(message) = self.insert_at(item, now_ns).message else {
            return SlabInsertOutcome { message: None };
        };
        let Some(handle) = arena.fill(&message.items) else {
            return SlabInsertOutcome {
                message: Some(EmittedMessage::Vec(message)),
            };
        };
        let sealed = SlabSealed {
            dest: message.dest,
            handle,
            bytes: message.bytes,
            reason: message.reason,
            grouped_at_source: message.grouped_at_source,
        };
        self.recycle(message.items);
        SlabInsertOutcome {
            message: Some(EmittedMessage::Slab(sealed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::Topology;
    use shmem::SlabArena;

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
    fn same_process_items_are_buffered_like_any_other() {
        // Worker 0 and worker 1 are in the same process (proc 0), and the
        // bypass is on: deciding it is the caller's job, so the item buffers.
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        assert!(agg.config().local_bypass);
        assert!(agg.insert(item(1, 7)).message.is_none());
        assert_eq!(agg.stats().items_inserted(), 1);
        assert_eq!(agg.stats().items_local_bypass(), 0);
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

    #[test]
    fn slab_path_groups_wsp_in_place_at_the_source() {
        // A full WsP buffer ships as one slab, grouped at the source.
        let arena: SlabArena<Item<u32>> = SlabArena::new(1, 3);
        let mut agg = Aggregator::new(config(Scheme::WsP), Owner::Worker(WorkerId(0)));
        assert!(agg.insert_slab_at(&arena, item(5, 1), 0).message.is_none());
        assert!(agg.insert_slab_at(&arena, item(4, 2), 0).message.is_none());
        let msg = agg.insert_slab_at(&arena, item(5, 3), 0).message;
        let Some(EmittedMessage::Slab(sealed)) = msg else {
            panic!("a full buffer ships as a slab: {msg:?}");
        };
        assert!(sealed.grouped_at_source);
        assert_eq!(sealed.dest, MessageDest::Process(ProcId(2)));
        assert_eq!(sealed.reason, EmitReason::BufferFull);
        assert_eq!(sealed.item_count(), 3);
        // SAFETY: the test is the sole consumer of the just-sealed slab.
        let items = unsafe { arena.slice(sealed.handle.slab, 0, sealed.handle.len) };
        let got: Vec<(u32, u32)> = items.iter().map(|i| (i.dest.0, i.data)).collect();
        // Sorted by destination worker, per-worker order preserved.
        assert_eq!(got, vec![(4, 2), (5, 1), (5, 3)]);
        assert_eq!(agg.buffered_items(), 0);
        assert_eq!(arena.stats().misses, 0);
        assert!(arena.finish_consumer(sealed.handle.slab));
        arena.release(sealed.handle.slab);
    }

    #[test]
    fn slab_path_falls_back_to_vectors_when_arena_dry() {
        // A 1-slab arena: while the first message's slab is out, the next
        // full buffer cannot be filled and ships as its vector; no item may
        // be lost either way, and the slab path resumes once it is released.
        let arena: SlabArena<Item<u32>> = SlabArena::new(1, 3);
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        for v in 1..3 {
            assert!(agg.insert_slab_at(&arena, item(4, v), 0).message.is_none());
        }
        let msg = agg.insert_slab_at(&arena, item(4, 3), 0).message;
        let Some(EmittedMessage::Slab(held)) = msg else {
            panic!("a full buffer ships as a slab: {msg:?}");
        };
        for v in 4..6 {
            assert!(agg.insert_slab_at(&arena, item(5, v), 0).message.is_none());
        }
        let msg = agg.insert_slab_at(&arena, item(5, 6), 0).message;
        let Some(EmittedMessage::Vec(vec)) = msg else {
            panic!("a dry arena returns the vector: {msg:?}");
        };
        assert_eq!(vec.dest, MessageDest::Worker(WorkerId(5)));
        assert_eq!(
            vec.items.iter().map(|i| i.data).collect::<Vec<_>>(),
            [4, 5, 6]
        );
        assert_eq!(arena.stats().misses, 1);
        assert_eq!(agg.buffered_items(), 0);

        assert!(arena.finish_consumer(held.handle.slab));
        arena.release(held.handle.slab);
        for v in 7..9 {
            assert!(agg.insert_slab_at(&arena, item(4, v), 0).message.is_none());
        }
        let msg = agg.insert_slab_at(&arena, item(4, 9), 0).message;
        let Some(EmittedMessage::Slab(sealed)) = msg else {
            panic!("a released slab is claimed again: {msg:?}");
        };
        // SAFETY: the test is the sole consumer of the just-sealed slab.
        let items = unsafe { arena.slice(sealed.handle.slab, 0, sealed.handle.len) };
        assert_eq!(items.iter().map(|i| i.data).collect::<Vec<_>>(), [7, 8, 9]);
        assert_eq!(arena.stats().misses, 1);
        assert!(arena.finish_consumer(sealed.handle.slab));
        arena.release(sealed.handle.slab);
    }

    #[test]
    #[should_panic(expected = "overflow a 2-item slab")]
    fn slab_path_rejects_undersized_arenas() {
        // A message larger than a slab must panic (in all builds), never
        // write out of bounds.
        let arena: SlabArena<Item<u32>> = SlabArena::new(4, 2);
        let mut agg = Aggregator::new(config(Scheme::WW), Owner::Worker(WorkerId(0)));
        for v in 0..3 {
            let _ = agg.insert_slab_at(&arena, item(4, v), 0);
        }
    }

    #[test]
    fn slab_steady_state_recycles_without_a_single_miss() {
        // With consumers releasing promptly, a steady workload never runs
        // the arena dry: every message ships as a slab.
        let arena: SlabArena<Item<u32>> = SlabArena::new(2, 3);
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        let mut delivered = 0;
        for round in 0..200u32 {
            match agg.insert_slab_at(&arena, item(4, round), 0).message {
                Some(EmittedMessage::Slab(sealed)) => {
                    delivered += sealed.item_count();
                    assert!(arena.finish_consumer(sealed.handle.slab));
                    arena.release(sealed.handle.slab);
                }
                Some(EmittedMessage::Vec(m)) => panic!("fell back to a vector: {m:?}"),
                None => {}
            }
        }
        assert_eq!(delivered, 198);
        assert_eq!(agg.buffered_items(), 2);
        let stats = arena.stats();
        assert_eq!((stats.claims, stats.misses), (66, 0));
        assert_eq!(arena.free_slabs(), 2);
    }

    #[test]
    fn abandon_drops_buffered_items() {
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        agg.insert(item(4, 1));
        agg.insert(item(6, 2));
        assert_eq!(agg.abandon(), 2);
        assert_eq!(agg.buffered_items(), 0);
        assert_eq!(agg.abandon(), 0, "idempotent once empty");
    }

    #[test]
    fn insert_accounting_conserves_items() {
        // Every inserted item is either buffered or sent.
        let mut agg = Aggregator::new(config(Scheme::WPs), Owner::Worker(WorkerId(0)));
        let mut sent = 0usize;
        for i in 0..100u32 {
            let dest = i % 8;
            if let Some(m) = agg.insert(item(dest, i)).message {
                sent += m.item_count();
            }
            assert_eq!(sent + agg.buffered_items(), i as usize + 1);
        }
        for m in agg.flush() {
            sent += m.item_count();
        }
        assert_eq!(sent, 100);
        assert_eq!(agg.buffered_items(), 0);
    }
}
