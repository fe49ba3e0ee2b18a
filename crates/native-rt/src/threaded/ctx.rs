//! The native backend's per-worker [`RunCtx`] implementation.
//!
//! The context owns everything a worker thread touches per item — aggregator,
//! RNG, counters, local-bypass batches, the mesh overflow stash — and routes
//! emitted messages onto the per-pair SPSC rings of the delivery mesh.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use metrics::{Counters, LatencyRecorder, QuantileSketch};
use net_model::{ProcId, WorkerId};
use runtime_api::{Payload, RunCtx, WorkerApp};
use shmem::{ClaimResult, SlabArena, SlabHandle};
use sim_core::StreamRng;
use tramlib::{
    AdaptiveTimeout, Aggregator, EmitReason, EmittedMessage, Item, MessageDest, OutboundMessage,
    Owner, Scheme, SlabSealed, TramStats,
};

use super::{Batch, Envelope, Shared, Spent, SPARE_BATCHES};
use crate::quantum::{self, SelfClocked};
use crate::tally::Tally;

/// Upper bound, in consecutive *idle* loop iterations, of the stash retry
/// backoff (see [`NativeWorkerCtx::flush_stash_backoff`]).  The mesh loop
/// resets the skip on every iteration that did other work — a busy
/// iteration spans a whole inbox quantum, so skipping across them would
/// starve consumers of stashed envelopes — which leaves the backoff
/// spanning only idle yield/nap spins.  Those are microseconds even at the
/// nap cap, so 32 keeps worst-case retry latency well under a scheduling
/// quantum while cutting an idle spinner's failed ring probes ~30×.
pub(crate) const STASH_BACKOFF_MAX: u32 = 32;

/// The native backend's [`RunCtx`] implementation, one per worker thread.
pub(crate) struct NativeWorkerCtx<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) me: WorkerId,
    pub(crate) my_proc: ProcId,
    /// Worker-owned aggregator (None under PP, where the process-shared claim
    /// buffers take its place).
    pub(crate) aggregator: Option<Aggregator<Payload>>,
    pub(crate) rng: StreamRng,
    /// Application counters (`RunCtx::counter`) and the once-per-run
    /// exports; the runtime's own per-event counts live in `tally`.
    pub(crate) counters: Counters,
    pub(crate) tally: Tally,
    pub(crate) latency: LatencyRecorder,
    /// Application-level latency samples (`RunCtx::record_app_latency`);
    /// merged across workers into the report's structured latency summary.
    pub(crate) app_latency: LatencyRecorder,
    /// TramLib statistics for the PP path, which bypasses the `Aggregator`
    /// type (the claim buffers do the buffering).
    pub(crate) pp_stats: TramStats,
    /// Whether the flush policy has a timeout at all (lets the per-iteration
    /// timeout poll exit without reading the clock when it does not).
    pub(crate) has_timeout: bool,
    /// PP only: wall-clock stamp of the oldest insert this worker has made
    /// into the shared claim buffers since the last flush it observed.  The
    /// claim buffers keep no per-item timestamps, so the timeout poll works
    /// from this sender-side watermark instead.
    pub(crate) pp_oldest_ns: Option<u64>,
    /// PP only: this worker's adaptive-timeout controller (worker-owned
    /// aggregators embed their own inside `tramlib`).
    pub(crate) pp_adaptive: Option<AdaptiveTimeout>,
    /// PP only: a quiet-quantum flush of the process-shared buffers is due.
    /// Set on the first quiet quantum after a non-quiet one, cleared once no
    /// buffer had to be held back (see [`SelfClocked::flush_quiet`]).
    pub(crate) pp_flush_due: bool,
    /// Per-destination-worker local-bypass staging batches (same-process
    /// traffic), indexed by destination worker.  A staging buffer never
    /// outlives the scheduling quantum that filled it: every non-empty
    /// batch ships at the end of each loop iteration, busy or idle
    /// ([`NativeWorkerCtx::flush_local`]), and inside a quantum only when it
    /// reaches the run's own `buffer_items`.
    pub(crate) local_out: Vec<Batch>,
    /// Spare batch vectors recycled from delivered local and downlink
    /// batches; the staging buffers (local and wire) draw from them.
    pub(crate) spare_batches: Vec<Batch>,
    /// Cached wall-clock offset, refreshed once per delivered batch / loop
    /// iteration instead of per item: at millions of items per second the
    /// two per-item clock reads (creation stamp + latency span) would
    /// otherwise dominate the handler itself.
    pub(crate) now_cache: u64,
    /// Sends not yet published to this worker's shared `items_sent` slot.
    /// Flushed by [`NativeWorkerCtx::publish_sent`] *before* anything leaves
    /// the worker (message emit, local-batch ship) and once per scheduling
    /// loop, so the quiescence invariant — an item's sent increment
    /// happens-before its delivered increment — still holds while the hot
    /// path pays one atomic per batch instead of one per item.  PP sends
    /// bypass this accumulator: an item inserted into a process-shared claim
    /// buffer can be sealed and emitted by a *sibling* worker before this
    /// worker publishes, so it must be counted at insert time.
    pub(crate) pending_sent: u64,
    /// Every item this worker has handed to `send`, published or not: the
    /// worker's own monotone send clock (quiet-quantum detection, the
    /// `item=<n>` fault trigger).
    pub(crate) local_sent: u64,
    /// Delivered items not yet published to the shared counter; published
    /// once per scheduling loop, strictly after [`NativeWorkerCtx::
    /// publish_sent`], so a delivered item's handler-generated sends are
    /// always counted first (sent sum ≥ delivered sum at every observable
    /// instant).
    pub(crate) pending_delivered: u64,
    /// Items this worker dropped in quarantine (it panicked, or envelopes
    /// addressed to it arrived after it panicked); published to the shared
    /// per-worker dropped counter so the monitor's conservation check —
    /// `sent == delivered + dropped` — can settle on an aborted run.
    pub(crate) pending_dropped: u64,
    /// Per-destination overflow stash for envelopes whose ring was full.
    /// Retried every loop iteration; a sender therefore never blocks, which
    /// is what makes the all-pairs mesh deadlock-free.
    pub(crate) stash: Vec<VecDeque<Envelope>>,
    /// Total envelopes currently stashed (cheap emptiness check).
    pub(crate) stash_len: usize,
    /// Current stash-retry backoff interval, in consecutive idle loop
    /// iterations (0 = retry every iteration).  Doubles on each fully
    /// failed retry up to [`STASH_BACKOFF_MAX`]; resets to 0 the moment any
    /// envelope moves, and the mesh loop clears the pending skip whenever
    /// an iteration did other work.
    pub(crate) stash_backoff: u32,
    /// Iterations left before the next stash retry.
    pub(crate) stash_skip: u32,
    /// Flush-triggered messages this worker has emitted (explicit, idle and
    /// timeout flushes — not buffer-full seals).  The `flush=<n>` fault
    /// trigger reads this.
    pub(crate) flush_emits: u64,
    /// NoAgg only: route every envelope through the stash and publish
    /// rings once per loop via the batched [`shmem::SpscRing::push_from`].
    /// NoAgg ships one envelope per item; pushing each individually would pay
    /// a cold ring-slot write and a tail publication per item.
    pub(crate) defer_pushes: bool,
    /// Slab store only: this worker's shared arena (claims and releases are
    /// ours alone; consumers only borrow and decrement).
    pub(crate) arena: Option<&'a SlabArena<Item<Payload>>>,
    /// Spent slab handles whose return ring to the owner was full; retried
    /// every loop iteration (a handle must never be dropped — the owner's
    /// arena would leak the slab for the rest of the run).
    pub(crate) pending_returns: Vec<(u32, SlabHandle)>,
    /// This worker's predicted NUMA node (0 on unpinned/single-node runs).
    pub(crate) my_node: u16,
    /// Mesh envelopes pushed towards a worker on a different NUMA node.
    /// Exported as the `cross_socket_msgs` counter; 0 by construction when
    /// placement is unknown or single-node.
    pub(crate) cross_socket_msgs: u64,
    /// Stash drain order: destination worker indices, same-node ones first
    /// (identity order on non-NUMA runs).  Draining own-socket rings first
    /// keeps the cheap traffic moving while cross-socket consumers lag.
    pub(crate) drain_order: Vec<u32>,
    /// This worker's *cluster* node (`Topology::node_of_worker`) — distinct
    /// from `my_node`, which is the NUMA node of the host thread.
    pub(crate) my_cluster_node: u32,
    /// Node tier only: items bound for workers on other cluster nodes,
    /// staged here and shipped to the local leader's uplink under the same
    /// quantum rule as `local_out`.  Every item in it was already counted
    /// sent (publish-before-ship).
    pub(crate) wire_out: Batch,
    /// Node tier only: wire batches whose uplink ring was full, retried by
    /// [`NativeWorkerCtx::flush_wire_stash`] every loop iteration.
    pub(crate) wire_stash: VecDeque<Batch>,
    /// Delivered-batch sizes (items per handler call), counted per length:
    /// `batch_lens[n]` is how many n-item slices were delivered.  Folded into
    /// the report's sketch at exit ([`NativeWorkerCtx::take_batch_len`]) —
    /// a sketch update per slice would cost a logarithm per delivery.  The
    /// distribution is the per-scheme evidence for throughput ceilings
    /// (NoAgg delivers single items; aggregated schemes whole buffers).
    pub(crate) batch_lens: Vec<u64>,
}

impl<'a> NativeWorkerCtx<'a> {
    /// Build the context for worker `me`.
    pub(crate) fn new(shared: &'a Shared, me: WorkerId) -> Self {
        let my_proc = shared.topo.proc_of_worker(me);
        let workers = shared.topo.total_workers();
        let aggregator = if shared.tram.scheme == Scheme::PP {
            None
        } else {
            Some(Aggregator::new(shared.tram, Owner::Worker(me)))
        };
        Self {
            shared,
            me,
            my_proc,
            aggregator,
            rng: StreamRng::new(shared.seed, me.0 as u64),
            counters: Counters::new(),
            tally: Tally::default(),
            latency: LatencyRecorder::new(),
            app_latency: LatencyRecorder::new(),
            pp_stats: TramStats::new(),
            has_timeout: shared.tram.flush_policy.timeout_ns.is_some(),
            pp_oldest_ns: None,
            pp_adaptive: if shared.tram.scheme == Scheme::PP {
                shared.tram.flush_policy.adaptive.map(AdaptiveTimeout::new)
            } else {
                None
            },
            pp_flush_due: false,
            // No lanes without the bypass: the per-quantum flush then has
            // nothing to walk.
            local_out: if shared.tram.local_bypass {
                (0..workers).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            spare_batches: Vec::new(),
            now_cache: 0,
            pending_sent: 0,
            local_sent: 0,
            pending_delivered: 0,
            pending_dropped: 0,
            stash: (0..workers).map(|_| VecDeque::new()).collect(),
            stash_len: 0,
            stash_backoff: 0,
            stash_skip: 0,
            flush_emits: 0,
            defer_pushes: shared.tram.scheme == Scheme::NoAgg,
            arena: shared.arenas.get(me.idx()),
            pending_returns: Vec::new(),
            my_node: shared.worker_node.get(me.idx()).copied().unwrap_or(0),
            cross_socket_msgs: 0,
            drain_order: {
                let my_node = shared.worker_node.get(me.idx()).copied().unwrap_or(0);
                let mut order: Vec<u32> = (0..workers).collect();
                if shared.numa_aware {
                    // Stable sort: same-node destinations first, index order
                    // preserved within each group.
                    order.sort_by_key(|&d| shared.worker_node[d as usize] != my_node);
                }
                order
            },
            my_cluster_node: shared.topo.node_of_worker(me).0,
            wire_out: Vec::new(),
            wire_stash: VecDeque::new(),
            batch_lens: Vec::new(),
        }
    }

    /// Publish accumulated sends to this worker's shared sent counter.  Must
    /// run before any envelope leaves the worker and once per loop iteration
    /// (before the done flag is stored) — see the field docs.
    pub(crate) fn publish_sent(&mut self) {
        if self.pending_sent > 0 {
            self.shared.items_sent[self.me.idx()].fetch_add(self.pending_sent, Ordering::Relaxed);
            self.pending_sent = 0;
        }
    }

    /// Publish accumulated deliveries.  Call once per scheduling loop,
    /// strictly after [`NativeWorkerCtx::publish_sent`] (see the
    /// `pending_delivered` docs), and once before the worker exits.
    pub(crate) fn publish_delivered(&mut self) {
        if self.pending_delivered > 0 {
            self.shared.items_delivered[self.me.idx()]
                .fetch_add(self.pending_delivered, Ordering::AcqRel);
            self.pending_delivered = 0;
        }
    }

    /// Publish accumulated quarantine drops.  Like
    /// [`NativeWorkerCtx::publish_delivered`], strictly after the work they
    /// account for: a dropped item's sent increment was published before its
    /// envelope shipped, so dropped (like delivered) never overtakes sent.
    pub(crate) fn publish_dropped(&mut self) {
        if self.pending_dropped > 0 {
            self.shared.items_dropped[self.me.idx()]
                .fetch_add(self.pending_dropped, Ordering::AcqRel);
            self.pending_dropped = 0;
        }
    }

    /// Re-read the wall clock into the per-item timestamp cache.
    pub(crate) fn refresh_now(&mut self) {
        self.now_cache = self.shared.now_ns();
    }

    /// The worker a message for `dest` is shipped to.  Same spread rule as
    /// the simulator: the (src proc, dst proc) pair pins the worker that
    /// runs the grouping pass of a process-addressed message.
    fn receiver_of(&self, dest: MessageDest) -> WorkerId {
        match dest {
            MessageDest::Worker(w) => w,
            MessageDest::Process(p) => self.shared.topo.group_receiver(self.my_proc, p),
        }
    }

    /// The mesh gate of the self-clocked flush ([`quantum::lane_drained`]):
    /// is everything this worker shipped toward `dest`'s receiver consumed?
    ///
    /// For a receiver on another cluster node the lane is the uplink, and
    /// its consumer is the node leader: a poller that naps between polls,
    /// takes everything queued when it wakes and re-aggregates per node.
    /// Batches still queued there say where the leader is in its nap, not
    /// that it is behind, and a buffer held back for them misses the next
    /// poll — so only a *full* uplink (batches stashed behind it) holds.
    fn lane_drained(&self, dest: MessageDest) -> bool {
        let target = self.receiver_of(dest);
        if self.shared.node_plane.is_some()
            && self.shared.topo.node_of_worker(target).0 != self.my_cluster_node
        {
            return self.wire_stash.is_empty();
        }
        let ring = self.shared.plane.ring(self.me.idx(), target.idx());
        quantum::lane_drained(ring.len(), self.stash[target.idx()].len())
    }

    /// Hand an aggregated message to the delivery plane, recording the wire
    /// counters the simulator records in its routing layer.
    pub(crate) fn emit(&mut self, message: OutboundMessage<Payload>) {
        self.publish_sent();
        self.count_wire(message.items.len(), message.bytes, message.reason);
        let target = self.receiver_of(message.dest);
        // Single-item worker-addressed messages (NoAgg) ride inline; their
        // vector is recycled here, where it came from.
        if message.items.len() == 1 && matches!(message.dest, MessageDest::Worker(_)) {
            let mut items = message.items;
            let item = items.pop().expect("one item");
            if let Some(agg) = self.aggregator.as_mut() {
                agg.recycle(items);
            }
            self.push_mesh(target, Envelope::Single(item));
        } else {
            self.push_mesh(target, Envelope::Message(message));
        }
    }

    /// Hand a zero-copy slab message to the mesh, recording the same wire
    /// counters as [`NativeWorkerCtx::emit`] — a slab is a transport detail,
    /// not a different kind of message.
    pub(crate) fn emit_slab(&mut self, sealed: SlabSealed) {
        self.publish_sent();
        self.count_wire(sealed.handle.len as usize, sealed.bytes, sealed.reason);
        let target = self.receiver_of(sealed.dest);
        self.push_mesh(target, Envelope::Slab(sealed));
    }

    /// The wire counters of one emitted message (the ones the simulator
    /// records in its routing layer), plus the `flush=<n>` fault clock.
    fn count_wire(&mut self, items: usize, bytes: u64, reason: EmitReason) {
        self.tally.wire_messages += 1;
        self.tally.wire_bytes += bytes;
        self.tally.wire_items += items as u64;
        if reason.is_flush() {
            self.tally.wire_messages_flush += 1;
            self.flush_emits += 1;
        }
    }

    /// Route a slab-path emission: sealed slabs to [`NativeWorkerCtx::
    /// emit_slab`], arena-miss fallbacks (and NoAgg singles) to the vector
    /// path's [`NativeWorkerCtx::emit`].
    pub(crate) fn emit_any(&mut self, message: EmittedMessage<Payload>) {
        match message {
            EmittedMessage::Slab(sealed) => self.emit_slab(sealed),
            EmittedMessage::Vec(message) => self.emit(message),
        }
    }

    /// Push one envelope onto this worker's mesh row, stashing it if the ring
    /// is full (or if earlier envelopes for the same destination are already
    /// stashed — per-pair FIFO order is preserved).
    pub(crate) fn push_mesh(&mut self, dst: WorkerId, envelope: Envelope) {
        // Node tier: traffic for a worker on another cluster node leaves
        // through the local leader's uplink, not the in-process mesh.
        if self.shared.node_plane.is_some()
            && self.shared.topo.node_of_worker(dst).0 != self.my_cluster_node
        {
            self.push_wire(envelope);
            return;
        }
        let d = dst.idx();
        if self.shared.worker_node[d] != self.my_node {
            self.cross_socket_msgs += 1;
        }
        if !self.defer_pushes && self.stash[d].is_empty() {
            if let Err(rejected) = self.shared.plane.ring(self.me.idx(), d).push(envelope) {
                self.stash[d].push_back(rejected);
                self.stash_len += 1;
            }
        } else {
            self.stash[d].push_back(envelope);
            self.stash_len += 1;
        }
    }

    /// Materialize an outbound cross-node envelope into raw items on the
    /// wire buffer.  Every carried item was already counted sent, and each
    /// names its final destination worker, so the remote leader's regroup
    /// (and the remote worker's delivery) is exact — no grouping state
    /// crosses the node boundary, only payloads.
    fn push_wire(&mut self, envelope: Envelope) {
        self.tally.wire_node_msgs += 1;
        match envelope {
            Envelope::Single(item) => self.wire_out.push(item),
            Envelope::Batch(mut items) => {
                self.wire_out.append(&mut items);
                self.retain_spare(items);
            }
            Envelope::Message(message) => {
                let mut items = message.items;
                self.wire_out.append(&mut items);
                self.reclaim(items);
            }
            // Sealed slabs are copied out of this worker's own arena — the
            // zero-copy discipline is an intra-node optimization; the node
            // boundary is a real copy either way (it becomes wire bytes).
            Envelope::Slab(sealed) => {
                let owner = self.me.idx();
                let arena = &self.shared.arenas[owner];
                let handle = sealed.handle;
                debug_assert_eq!(arena.generation(handle.slab), handle.generation);
                // SAFETY: we still hold the live handle of the just-sealed
                // slab; no consumer has seen it.
                let items = unsafe { arena.slice(handle.slab, 0, handle.len) };
                self.wire_out.extend_from_slice(items);
                if arena.finish_consumer(handle.slab) {
                    arena.release(handle.slab);
                }
            }
            // Grouping-pass forwards stay within one process (= one node),
            // so a cross-node slice is unreachable by construction; handle
            // it anyway so a topology bug degrades into a copy, not UB.
            Envelope::SlabSlice { owner, range } => {
                debug_assert!(false, "slab slice crossed a node boundary");
                let arena = &self.shared.arenas[owner as usize];
                // SAFETY: live forwarded range of a sealed slab.
                let items = unsafe { arena.slice(range.slab, range.start, range.len) };
                self.wire_out.extend_from_slice(items);
                if arena.finish_consumer(range.slab) {
                    self.return_slab(
                        owner as usize,
                        SlabHandle {
                            slab: range.slab,
                            len: range.len,
                            generation: range.generation,
                        },
                    );
                }
            }
        }
        if self.wire_out.len() >= self.shared.tram.buffer_items {
            self.ship_wire();
        }
    }

    /// Push the pending wire batch onto this worker's uplink ring (stashing
    /// it when the ring is full — the leader may be mid-drain).  The next
    /// wire batch fills a recycled vector: downlink deliveries refill
    /// `spare_batches`, so symmetric cross-node traffic allocates nothing
    /// here however small the per-quantum batches get.
    pub(crate) fn ship_wire(&mut self) {
        if self.wire_out.is_empty() {
            return;
        }
        self.publish_sent();
        let spare = self.spare_batches.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut self.wire_out, spare);
        let plane = self
            .shared
            .node_plane
            .as_ref()
            .expect("wire ship without a node plane");
        if self.wire_stash.is_empty() {
            if let Err(rejected) = plane.uplink[self.me.idx()].push(batch) {
                self.wire_stash.push_back(rejected);
            }
        } else {
            // Preserve per-worker FIFO towards the leader.
            self.wire_stash.push_back(batch);
        }
    }

    /// Retry stashed wire batches.  Returns true if any batch moved.
    pub(crate) fn flush_wire_stash(&mut self) -> bool {
        if self.wire_stash.is_empty() {
            return false;
        }
        let plane = self
            .shared
            .node_plane
            .as_ref()
            .expect("wire stash without a node plane");
        let moved = plane.uplink[self.me.idx()].push_from(&mut self.wire_stash);
        moved > 0
    }

    /// Move stashed envelopes onto their rings (batched: one tail publication
    /// per destination).  Returns true if any envelope moved.  Publishes
    /// pending sends first: an envelope must never become visible to its
    /// consumer before the sends it carries are counted.
    pub(crate) fn flush_stash(&mut self) -> bool {
        if self.stash_len == 0 {
            return false;
        }
        self.publish_sent();
        let mesh = &self.shared.plane;
        let me = self.me.idx();
        let mut moved = 0;
        // Same-node destinations first (identity order on non-NUMA runs):
        // own-socket consumers drain their rings fastest, so retrying them
        // first frees stash space at local-interconnect latency instead of
        // waiting behind cross-socket laggards.
        for i in 0..self.drain_order.len() {
            let dst = self.drain_order[i] as usize;
            if self.stash[dst].is_empty() {
                continue;
            }
            moved += mesh.ring(me, dst).push_from(&mut self.stash[dst]);
        }
        self.stash_len -= moved;
        moved > 0
    }

    /// [`NativeWorkerCtx::flush_stash`] under bounded exponential backoff:
    /// when a retry moves nothing (every target ring still full), the next
    /// retries are skipped for a doubling number of iterations — 1, 2, 4, …
    /// up to [`STASH_BACKOFF_MAX`] — so an idle worker spinning against a
    /// saturated mesh (e.g. a ring-burst window) is not hammered with N
    /// failed ring probes per spin.  Any successful move resets the
    /// backoff, and the mesh loop clears the pending skip after any
    /// iteration that did other work, so the skip never spans busy
    /// quanta; correctness never depends on retry timing (stashed items
    /// keep the sent sum ahead of the delivered sum, so the monitor waits
    /// for them regardless).
    pub(crate) fn flush_stash_backoff(&mut self) -> bool {
        if self.stash_len == 0 {
            self.stash_backoff = 0;
            self.stash_skip = 0;
            return false;
        }
        if self.stash_skip > 0 {
            self.stash_skip -= 1;
            return false;
        }
        if self.flush_stash() {
            self.stash_backoff = 0;
            true
        } else {
            self.stash_backoff = (self.stash_backoff * 2).clamp(1, STASH_BACKOFF_MAX);
            self.stash_skip = self.stash_backoff;
            false
        }
    }

    /// Stage one same-process item for its destination worker.  Items ride in
    /// per-destination batches (one plane operation per batch, not per item);
    /// [`NativeWorkerCtx::flush_local`] ships every batch at the end of the
    /// quantum, so an item waits for the rest of its own quantum and nothing
    /// else.
    pub(crate) fn deliver_local(&mut self, item: Item<Payload>) {
        let dest = item.dest.idx();
        let batch = &mut self.local_out[dest];
        if batch.capacity() == 0 {
            if let Some(spare) = self.spare_batches.pop() {
                *batch = spare;
            } else if let Some(agg) = self.aggregator.as_mut() {
                *batch = agg.take_pooled();
            }
        }
        batch.push(item);
        if batch.len() >= self.shared.tram.buffer_items {
            self.ship_local(dest);
        }
    }

    /// Ship the pending local batch for destination worker index `dest`.
    fn ship_local(&mut self, dest: usize) {
        if self.local_out[dest].is_empty() {
            return;
        }
        self.publish_sent();
        let batch = std::mem::take(&mut self.local_out[dest]);
        self.tally.local_batches += 1;
        self.tally.local_deliveries += batch.len() as u64;
        self.push_mesh(WorkerId(dest as u32), Envelope::Batch(batch));
    }

    /// Quantum end: ship every non-empty staging buffer — the local-bypass
    /// batches and, on the node tier, the wire batch.  Runs once per loop
    /// iteration whether or not the iteration did work: a worker whose
    /// `on_idle` never returns `false` is never idle, and its peers must not
    /// wait on it for that.  With nothing staged this is one length check
    /// per destination worker (none at all with the bypass off).
    pub(crate) fn flush_local(&mut self) {
        for dest in 0..self.local_out.len() {
            self.ship_local(dest);
        }
        self.ship_wire();
    }

    /// Keep a delivered batch's vector for future local-bypass batches.
    pub(crate) fn retain_spare(&mut self, mut batch: Batch) {
        if self.spare_batches.len() < SPARE_BATCHES && batch.capacity() > 0 {
            batch.clear();
            self.spare_batches.push(batch);
        }
    }

    /// Take back a spent vector that came home over a return ring.  The
    /// aggregator's pool gets it (it ships a vector away with every sealed
    /// buffer, and the local-bypass path draws from the same pool); under PP
    /// there is no aggregator, so the vector joins the local spares.
    pub(crate) fn reclaim(&mut self, batch: Batch) {
        if batch.capacity() == 0 {
            return;
        }
        match self.aggregator.as_mut() {
            Some(agg) => agg.recycle(batch),
            None => self.retain_spare(batch),
        }
    }

    /// Send a spent vector back to the worker that filled it.  Falls back to
    /// local reuse when the return ring is full or the vector was this
    /// worker's own.  Single-item vectors (NoAgg's per-item messages) are
    /// simply dropped: a 32-byte allocation on the sender is cheaper than a
    /// cold return-ring round trip per item.  Anything larger goes home —
    /// even tiny configured buffers rely on the return path for their
    /// allocation-free steady state.
    pub(crate) fn return_spent(&mut self, src: usize, batch: Batch) {
        if batch.capacity() < 2 {
            return;
        }
        if src == self.me.idx() {
            self.reclaim(batch);
            return;
        }
        if let Err(Spent::Batch(batch)) = self
            .shared
            .plane
            .return_ring(src, self.me.idx())
            .push(Spent::Batch(batch))
        {
            self.reclaim(batch);
        }
    }

    /// Send a spent slab handle home to the worker whose arena owns it.
    /// Called by whichever consumer's [`shmem::SlabArena::finish_consumer`]
    /// was the last; a full return ring parks the handle for retry (it can
    /// never be dropped — the owner would leak the slab until run end).
    pub(crate) fn return_slab(&mut self, owner: usize, handle: SlabHandle) {
        if owner == self.me.idx() {
            // Our own slab came straight back (local forward of a range, or
            // a self-addressed message): release without touching a ring.
            self.shared.arenas[owner].release(handle.slab);
            return;
        }
        if self
            .shared
            .plane
            .return_ring(owner, self.me.idx())
            .push(Spent::Slab(handle))
            .is_err()
        {
            self.pending_returns.push((owner as u32, handle));
        }
    }

    /// Retry parked slab returns.  Returns true if any handle moved.
    pub(crate) fn flush_pending_returns(&mut self) -> bool {
        if self.pending_returns.is_empty() {
            return false;
        }
        let mesh = &self.shared.plane;
        let me = self.me.idx();
        let before = self.pending_returns.len();
        self.pending_returns.retain(|&(owner, handle)| {
            mesh.return_ring(owner as usize, me)
                .push(Spent::Slab(handle))
                .is_err()
        });
        self.pending_returns.len() < before
    }

    /// Take back one unit of spent storage that came home over a return
    /// ring: vectors feed the pools, slab handles reopen their arena slab.
    pub(crate) fn reclaim_spent(&mut self, spent: Spent) {
        match spent {
            Spent::Batch(batch) => self.reclaim(batch),
            Spent::Slab(handle) => {
                self.shared.arenas[self.me.idx()].release(handle.slab);
            }
        }
    }

    /// Teardown-only: hand every parked slab handle straight back to its
    /// owner's arena.  A handle reaches `pending_returns` only after this
    /// worker's `finish_consumer` was the last (outstanding already 0), and
    /// `release` is a lock-free free-list push that is safe from any thread —
    /// so once the worker loop has ended (quiescent or aborted), releasing
    /// directly beats leaving the slab to read as in-flight in the audit.
    pub(crate) fn drain_pending_returns_direct(&mut self) {
        for (owner, handle) in self.pending_returns.drain(..) {
            self.shared.arenas[owner as usize].release(handle.slab);
        }
    }

    /// Quarantine path: account one undeliverable envelope and recycle its
    /// storage.  The slab refcount dance and the return rings keep flowing
    /// exactly as on delivery — only the handler call is skipped — so a
    /// panicked consumer never strands a peer's slab or vector.  Returns the
    /// number of items dropped.
    pub(crate) fn drop_envelope(&mut self, src: usize, envelope: Envelope) -> u64 {
        match envelope {
            Envelope::Batch(batch) => {
                let n = batch.len() as u64;
                let mut batch = batch;
                batch.clear();
                self.return_spent(src, batch);
                n
            }
            Envelope::Single(_) => 1,
            Envelope::Message(message) => {
                let n = message.items.len() as u64;
                let mut items = message.items;
                items.clear();
                self.return_spent(src, items);
                n
            }
            // Slab envelopes always ride their owner's ring, so `src` is the
            // owning arena; a stash-drained slab is this worker's own.
            Envelope::Slab(sealed) => {
                let handle = sealed.handle;
                if self.shared.arenas[src].finish_consumer(handle.slab) {
                    self.return_slab(src, handle);
                }
                handle.len as u64
            }
            Envelope::SlabSlice { owner, range } => {
                if self.shared.arenas[owner as usize].finish_consumer(range.slab) {
                    self.return_slab(
                        owner as usize,
                        SlabHandle {
                            slab: range.slab,
                            len: range.len,
                            generation: range.generation,
                        },
                    );
                }
                range.len as u64
            }
        }
    }

    /// Quarantine entry: drop everything this worker produced but had not
    /// shipped — aggregator buffers and mid-fill slabs, local-bypass
    /// batches, stashed envelopes.  Every dropped item was already counted
    /// sent (publish-before-ship), so counting it dropped keeps the
    /// conservation ledger exact.  Returns the number of items dropped.
    pub(crate) fn abandon_production(&mut self) -> u64 {
        let mut dropped = 0u64;
        if let Some(mut agg) = self.aggregator.take() {
            dropped += agg.abandon(self.arena);
            self.aggregator = Some(agg);
        }
        for dest in 0..self.local_out.len() {
            let batch = std::mem::take(&mut self.local_out[dest]);
            dropped += batch.len() as u64;
            self.retain_spare(batch);
        }
        let me = self.me.idx();
        for lane in 0..self.stash.len() {
            while let Some(envelope) = self.stash[lane].pop_front() {
                self.stash_len -= 1;
                dropped += self.drop_envelope(me, envelope);
            }
        }
        // Unshipped cross-node traffic: the wire buffer and its stash hold
        // raw already-counted-sent items, so dropping them is pure ledger.
        dropped += self.wire_out.len() as u64;
        self.wire_out.clear();
        while let Some(batch) = self.wire_stash.pop_front() {
            dropped += batch.len() as u64;
            self.retain_spare(batch);
        }
        dropped
    }

    /// PP insertion: claim a slot in the shared buffer towards the item's
    /// destination process, forwarding the sealed contents if this worker
    /// claimed the last slot.
    fn send_pp(&mut self, item: Item<Payload>) {
        let shared = self.shared;
        let dst_proc = shared.topo.proc_of_worker(item.dest);
        if shared.tram.local_bypass && dst_proc == self.my_proc {
            self.pp_stats.record_local_bypass();
            self.deliver_local(item);
            return;
        }
        self.pp_stats.record_insert();
        if self.has_timeout && self.pp_oldest_ns.is_none() {
            self.pp_oldest_ns = Some(self.now_cache);
        }
        let buffer = &shared.pp[self.my_proc.idx()][dst_proc.idx()];
        let mut pending = item;
        let mut attempts = 0u32;
        loop {
            match buffer.insert(pending) {
                ClaimResult::Stored => break,
                ClaimResult::Sealed(items) => {
                    self.emit_pp(dst_proc, items, EmitReason::BufferFull);
                    break;
                }
                ClaimResult::Retry(value) => {
                    pending = value;
                    // A Retry means another worker is mid-drain of the sealed
                    // buffer; on an oversubscribed host it needs our CPU to
                    // finish, so escalate from spinning to yielding.
                    if attempts < 32 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                    attempts = attempts.saturating_add(1);
                }
            }
        }
    }

    /// Wrap drained PP items into an outbound process-addressed message.
    fn emit_pp(&mut self, dst_proc: ProcId, items: Vec<Item<Payload>>, reason: EmitReason) {
        if items.is_empty() {
            return;
        }
        let bytes = self.shared.tram.message_bytes(items.len());
        self.pp_stats.record_message(items.len(), bytes, reason);
        if let Some(adaptive) = &mut self.pp_adaptive {
            adaptive.observe(reason, items.len(), self.shared.tram.buffer_items);
        }
        self.emit(OutboundMessage {
            dest: MessageDest::Process(dst_proc),
            items,
            bytes,
            reason,
            grouped_at_source: false,
        });
    }

    /// Seal-flush every shared PP buffer of this worker's process.
    fn flush_pp(&mut self, reason: EmitReason) {
        let shared = self.shared;
        for dst in 0..shared.pp[self.my_proc.idx()].len() {
            let items = shared.pp[self.my_proc.idx()][dst].seal_flush();
            self.emit_pp(ProcId(dst as u32), items, reason);
        }
        self.pp_oldest_ns = None;
    }

    /// Idle-flush the shared PP buffers whose destination `release` lets go;
    /// empty buffers are left unsealed.  Returns whether any non-empty buffer
    /// was held back.
    fn flush_pp_where(&mut self, release: impl Fn(&Self, MessageDest) -> bool) -> bool {
        let shared = self.shared;
        let mut held = false;
        for dst in 0..shared.pp[self.my_proc.idx()].len() {
            let buffer = &shared.pp[self.my_proc.idx()][dst];
            if buffer.claim_count() == 0 {
                continue;
            }
            let dst_proc = ProcId(dst as u32);
            if release(self, MessageDest::Process(dst_proc)) {
                self.emit_pp(dst_proc, buffer.seal_flush(), EmitReason::IdleFlush);
            } else {
                held = true;
            }
        }
        if !held {
            self.pp_oldest_ns = None;
        }
        held
    }

    /// The idle flush, behind a per-destination gate: under
    /// `FlushPolicy::on_idle`, ship every non-empty aggregation buffer whose
    /// destination `release` lets go.  Returns whether a PP buffer was held
    /// back (worker-owned buffers need no such memory: they are retried on
    /// every quiet quantum).
    fn flush_idle_where(&mut self, release: impl Fn(&Self, MessageDest) -> bool) -> bool {
        if self.shared.tram.scheme == Scheme::PP {
            return self.shared.tram.flush_policy.on_idle && self.flush_pp_where(release);
        }
        if let Some(mut agg) = self.aggregator.take() {
            match self.arena {
                Some(arena) => {
                    agg.flush_on_idle_slab_where(arena, self, release, Self::emit_any);
                }
                None => agg.flush_on_idle_where(self, release, Self::emit),
            }
            self.aggregator = Some(agg);
        }
        false
    }

    /// Emit messages whose buffer timeout has expired.  Worker-owned
    /// aggregators track per-buffer ages themselves; for PP — whose shared
    /// claim buffers keep no per-item timestamps — the poll works from this
    /// worker's sender-side watermark: once the oldest of its un-flushed
    /// inserts exceeds the timeout, it seal-flushes the process's buffers.
    pub(crate) fn poll_timeout(&mut self) {
        if !self.has_timeout {
            return;
        }
        let now = self.shared.now_ns();
        if let Some(mut agg) = self.aggregator.take() {
            match self.arena {
                Some(arena) => {
                    agg.poll_timeout_slab_each(arena, now, |message| self.emit_any(message));
                }
                None => agg.poll_timeout_each(now, |message| self.emit(message)),
            }
            self.aggregator = Some(agg);
            return;
        }
        if let Some(oldest) = self.pp_oldest_ns {
            let timeout = match &self.pp_adaptive {
                Some(adaptive) => Some(adaptive.timeout_ns()),
                None => self.shared.tram.flush_policy.timeout_ns,
            };
            if let Some(timeout) = timeout {
                if now.saturating_sub(oldest) >= timeout {
                    self.flush_pp(EmitReason::TimeoutFlush);
                }
            }
        }
    }

    /// Fold the runtime tallies, the aggregator's pool reuse statistics and
    /// the arena's claim statistics into this worker's counters before the
    /// thread exits.
    pub(crate) fn export_counters(&mut self) {
        self.tally.fold_into(&mut self.counters);
        if let Some(agg) = &self.aggregator {
            let pool = agg.pool_stats();
            self.counters.add("agg_pool_hits", pool.hits);
            self.counters.add("agg_pool_misses", pool.misses);
            if let Some(timeout) = agg.effective_timeout_ns() {
                self.counters.max("flush_timeout_final_ns", timeout);
                self.counters
                    .add("adaptive_timeout_adjustments", agg.adaptive_adjustments());
            }
        }
        if let Some(adaptive) = &self.pp_adaptive {
            self.counters
                .max("flush_timeout_final_ns", adaptive.timeout_ns());
            self.counters
                .add("adaptive_timeout_adjustments", adaptive.adjustments());
        }
        if let Some(arena) = self.arena {
            let stats = arena.stats();
            self.counters.add("arena_claims", stats.claims);
            // Zero across a run = the zero-copy steady state never fell back
            // to heap vectors; asserted by the throughput suite.
            self.counters.add("arena_claim_misses", stats.misses);
        }
        // 0 whenever placement is unknown (unpinned) or single-node — the
        // counter is the numerator of the cross-socket penalty sweep.
        self.counters
            .add("cross_socket_msgs", self.cross_socket_msgs);
    }

    /// Count one delivered slice of `len` items (`len > 0`).
    pub(crate) fn count_batch(&mut self, len: usize) {
        if len >= self.batch_lens.len() {
            self.batch_lens.resize(len + 1, 0);
        }
        self.batch_lens[len] += 1;
    }

    /// Fold the per-length delivery counts into the run report's
    /// batch-length sketch (the sketch a `record` per slice would build).
    pub(crate) fn take_batch_len(&mut self) -> QuantileSketch {
        let mut sketch = QuantileSketch::default();
        sketch.record_counts(&std::mem::take(&mut self.batch_lens));
        sketch
    }
}

impl RunCtx for NativeWorkerCtx<'_> {
    fn my_id(&self) -> WorkerId {
        self.me
    }

    fn topology(&self) -> net_model::Topology {
        self.shared.topo
    }

    /// Wall-clock nanoseconds since the run started (cached: refreshed once
    /// per delivered batch / scheduling quantum, not per call).
    fn now_ns(&self) -> u64 {
        self.now_cache
    }

    fn rng(&mut self) -> &mut StreamRng {
        &mut self.rng
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        self.counters.add(name, delta);
    }

    /// Record an application-level latency sample into this worker's
    /// recorder; merged into the report's structured latency summary.
    fn record_app_latency(&mut self, ns: u64) {
        self.app_latency.record(ns);
    }

    fn send(&mut self, dest: WorkerId, payload: Payload) {
        let created = self.now_cache;
        let item = Item::new(dest, payload, created);
        self.local_sent += 1;
        if self.shared.tram.scheme == Scheme::PP {
            // Counted eagerly: a sibling worker may seal and emit this item
            // before our next publish (see the `pending_sent` docs).
            self.shared.items_sent[self.me.idx()].fetch_add(1, Ordering::Relaxed);
            self.send_pp(item);
            return;
        }
        self.pending_sent += 1;
        if let Some(arena) = self.arena {
            // Zero-copy path: the item is written straight into its
            // destination's slab slot; nothing else happens until a slab
            // seals.
            let agg = self.aggregator.as_mut().expect("worker aggregator");
            let outcome = agg.insert_slab_at(arena, item, created);
            if let Some(local) = outcome.local_delivery {
                self.deliver_local(local);
            }
            if let Some(message) = outcome.message {
                self.emit_any(message);
            }
            return;
        }
        let agg = self.aggregator.as_mut().expect("worker aggregator");
        let outcome = agg.insert_at(item, created);
        if let Some(local) = outcome.local_delivery {
            self.deliver_local(local);
        }
        if let Some(message) = outcome.message {
            self.emit(message);
        }
    }

    fn flush(&mut self) {
        // An explicit flush means "everything I sent is on its way": ship the
        // pending local-bypass batches too.
        self.flush_local();
        if self.shared.tram.scheme == Scheme::PP {
            self.pp_stats.record_flush_call();
            self.flush_pp(EmitReason::ExplicitFlush);
            return;
        }
        if let Some(mut agg) = self.aggregator.take() {
            match self.arena {
                Some(arena) => agg.flush_slab_each(arena, |message| self.emit_any(message)),
                None => agg.flush_each(|message| self.emit(message)),
            }
            self.aggregator = Some(agg);
        }
    }

    fn flush_on_idle(&mut self) {
        self.flush_idle_where(|_, _| true);
    }
}

impl SelfClocked for NativeWorkerCtx<'_> {
    fn items_sent(&self) -> u64 {
        self.local_sent
    }

    fn flush_quiet(&mut self, first: bool) {
        if self.shared.tram.scheme != Scheme::PP {
            self.flush_idle_where(Self::lane_drained);
        } else if first || self.pp_flush_due {
            // Edge-triggered: the shared buffers are flushed once per burst
            // of activity of *this* worker, retried only while the gate
            // holds one back.
            self.pp_flush_due = self.flush_idle_where(Self::lane_drained);
        }
    }
}

/// Run one borrowed slice of delivered items through the application's
/// slice-based handler.  The items are read **in place** — from a slab in
/// some worker's arena, or from a pooled batch vector — and never moved.
/// The delivered counter is bumped once per slice, strictly after the
/// handlers: any sends the handlers made are already counted by then, so
/// `sent sum == delivered sum` still implies global quiescence.
///
/// Latency is **sampled once per slice** (its first item, which is the
/// oldest of the cohort: buffers fill in FIFO order): a per-item log-bucket
/// sketch update costs more than the delivery itself at mesh throughput, and
/// the native backend's latency numbers are a distribution summary, not a
/// per-item trace.
pub(crate) fn deliver_slice(
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    items: &[Item<Payload>],
) {
    let count = items.len() as u64;
    if count > 1 {
        // One clock read per real batch keeps handler-visible timestamps
        // honest across long drain bursts; single-item batches (NoAgg) stay
        // on the per-quantum cache — a clock read per item is exactly the
        // cost the inline envelope avoids.
        ctx.refresh_now();
    }
    if let Some(first) = items.first() {
        ctx.latency.record_span(first.created_at_ns, ctx.now_cache);
    }
    if count > 0 {
        ctx.count_batch(items.len());
    }
    debug_assert!(
        items.iter().all(|i| i.dest == ctx.me),
        "items delivered to wrong worker"
    );
    app.on_item_slice(items, ctx);
    ctx.pending_delivered += count;
}

/// [`deliver_slice`] over an owned batch vector, leaving the (emptied)
/// vector in place so its allocation can be recycled.
pub(crate) fn deliver_batch(
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    batch: &mut Batch,
) {
    deliver_slice(app, ctx, batch);
    batch.clear();
}
