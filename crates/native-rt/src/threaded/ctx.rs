//! The native backend's per-worker [`RunCtx`] implementation.
//!
//! The context owns everything a worker thread touches per item — aggregator,
//! RNG, counters, local-bypass staging, the mesh overflow stash — and routes
//! emitted messages onto the per-pair SPSC rings of the delivery mesh, as
//! slab descriptors or inline singles.  Every message is buffered privately
//! and copied into one slab of this worker's arena when it ships
//! ([`crate::envelope::ship`]); on the node tier, the envelope of a
//! message whose receiver is on another cluster node goes up the worker's
//! uplink to its node leader instead of onto the mesh.  What this context
//! does with an inbound envelope is [`crate::envelope`]'s, shared with the
//! process engine: the context supplies delivery ([`EnvelopeCtx::deliver`])
//! and the ring choice ([`EnvelopeCtx::push`]).
//!
//! `send` decides the local bypass once, before tramlib, for every scheme: a
//! same-process item is staged for its destination worker and only remote
//! items reach the aggregator (or, under PP, the shared claim buffers) — the
//! rule the process engine follows.  Whichever consumer finishes a slab last
//! releases it straight into its owner's arena.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;

use metrics::{Counters, LatencyRecorder, QuantileSketch};
use net_model::{ProcId, WorkerId};
use runtime_api::{Payload, RunCtx, WorkerApp};
use shmem::{SegArena, SegClaim, SegClaimInsert};
use sim_core::StreamRng;
use tramlib::group::GroupScratch;
use tramlib::{
    Aggregator, EmitReason, Item, MessageDest, OutboundMessage, Owner, Scheme, TramStats,
};

use super::Shared;
use crate::envelope::{self, Envelope, EnvelopeCtx};
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
    /// PP only: the reused vector a drained shared claim buffer is read
    /// into before it ships as one slab.
    pub(crate) pp_drained: Vec<Item<Payload>>,
    /// PP only: a quiet-quantum flush of the process-shared buffers is due.
    /// Set on the first quiet quantum after a non-quiet one, cleared once no
    /// buffer had to be held back (see [`SelfClocked::flush_quiet`]).
    pub(crate) pp_flush_due: bool,
    /// Worker ids that take the local bypass: this worker's process, or
    /// nothing when the bypass is off — one range test per `send`.
    pub(crate) local_workers: Range<u32>,
    /// Per-destination-worker local-bypass staging batches (same-process
    /// traffic), indexed by destination worker; empty without the bypass or
    /// without an arena (NoAgg ships local singles).  A staging buffer never
    /// outlives the scheduling quantum that filled it: every non-empty
    /// batch is copied into a slab and ships at the end of each loop
    /// iteration, busy or idle ([`NativeWorkerCtx::flush_local`]), and
    /// inside a quantum only when it reaches the run's own `buffer_items`.
    pub(crate) local_out: Vec<Vec<Item<Payload>>>,
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
    /// rings once per loop via the batched [`shmem::SegRing::push_from`].
    /// NoAgg ships one envelope per item; pushing each individually would pay
    /// a cold ring-slot write and a tail publication per item.
    pub(crate) defer_pushes: bool,
    /// Every scheme but NoAgg: this worker's shared arena.  Claims are ours
    /// alone; consumers borrow and decrement, and the last one releases.
    pub(crate) arena: Option<&'a SegArena<Item<Payload>>>,
    /// Vectors of messages shipped while a flush has the aggregator out,
    /// returned to its pool when the flush ends.
    pub(crate) spent: Vec<Vec<Item<Payload>>>,
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
    /// Node tier only: envelopes for workers on other cluster nodes whose
    /// uplink ring was full (or had earlier envelopes stashed ahead of
    /// them), retried by [`NativeWorkerCtx::flush_wire_stash`] every loop
    /// iteration — FIFO toward the leader, as the mesh stash is per pair.
    pub(crate) wire_stash: VecDeque<Envelope>,
    /// Delivered-batch sizes (items per handler call), counted per length:
    /// `batch_lens[n]` is how many n-item slices were delivered.  Folded into
    /// the report's sketch at exit ([`NativeWorkerCtx::take_batch_len`]) —
    /// a sketch update per slice would cost a logarithm per delivery.  The
    /// distribution is the per-scheme evidence for throughput ceilings
    /// (NoAgg delivers single items; aggregated schemes whole buffers).
    pub(crate) batch_lens: Vec<u64>,
    /// The receive-side grouping pass's reused scratch.
    group_scratch: GroupScratch<Payload>,
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
            pp_drained: Vec::new(),
            pp_flush_due: false,
            local_workers: if shared.tram.local_bypass {
                let first = shared.topo.first_worker_of(my_proc).0;
                first..first + shared.topo.workers_per_proc()
            } else {
                0..0
            },
            // No lanes without the bypass or without an arena to copy
            // into: the per-quantum flush then has nothing to walk.
            local_out: if shared.tram.local_bypass && !shared.arenas.is_empty() {
                (0..workers).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
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
            arena: shared.arenas.get(me.idx()).map(|arena| &**arena),
            spent: Vec::new(),
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
            wire_stash: VecDeque::new(),
            batch_lens: Vec::new(),
            group_scratch: GroupScratch::default(),
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
    /// Envelopes still queued there say where the leader is in its nap, not
    /// that it is behind, and a buffer held back for them misses the next
    /// poll — so only a *full* uplink (envelopes stashed behind it) holds.
    fn lane_drained(&self, dest: MessageDest) -> bool {
        let target = self.receiver_of(dest);
        if self.on_other_node(target) {
            return self.wire_stash.is_empty();
        }
        let ring = self.shared.plane.ring(self.me.idx(), target.idx());
        quantum::lane_drained(ring.len(), self.stash[target.idx()].len())
    }

    /// Ship one of the aggregator's messages, recording the wire counters
    /// the simulator records in its routing layer.  The vector goes back to
    /// the aggregator's pool — straight away, or, while a flush has the
    /// aggregator out, through `spent` once the flush is over.
    pub(crate) fn emit(&mut self, message: OutboundMessage<Payload>) {
        self.publish_sent();
        self.count_wire(message.items.len(), message.bytes, message.reason);
        let target = self.receiver_of(message.dest);
        self.ship_slab(
            target,
            message.dest,
            message.grouped_at_source,
            &message.items,
        );
        match self.aggregator.as_mut() {
            Some(agg) => agg.recycle(message.items),
            None => self.spent.push(message.items),
        }
    }

    /// Run one flush of the worker's aggregator with `self` as the sink's
    /// state, then hand the vectors the flush shipped back to its pool.
    fn drain_aggregator(&mut self, flush: impl FnOnce(&mut Aggregator<Payload>, &mut Self)) {
        if let Some(mut agg) = self.aggregator.take() {
            flush(&mut agg, self);
            for items in self.spent.drain(..) {
                agg.recycle(items);
            }
            self.aggregator = Some(agg);
        }
    }

    /// Ship `items` to `target` as one message for `dest` — aggregator
    /// messages, PP drains and local-bypass batches alike — by the shared
    /// fill-or-singles rule ([`envelope::ship`]).
    ///
    /// On the node tier a message whose `target` lives on another cluster
    /// node follows the same rule, but its envelopes go up this worker's
    /// uplink to the node leader, which reads the slab in place and frees
    /// it.  Every item was already counted sent, and each names its final
    /// destination worker, so the remote leader's per-worker queues (and the
    /// remote worker's delivery) are exact — no grouping state crosses the
    /// node boundary, only payloads.
    fn ship_slab(
        &mut self,
        target: WorkerId,
        dest: MessageDest,
        grouped_at_source: bool,
        items: &[Item<Payload>],
    ) {
        if self.on_other_node(target) {
            self.tally.wire_node_msgs += 1;
        }
        envelope::ship(self, target, dest, grouped_at_source, items);
    }

    /// Whether worker `w` lives on another cluster node of a node-tier run
    /// (never on a single-node run): its traffic leaves through the uplink.
    fn on_other_node(&self, w: WorkerId) -> bool {
        self.shared.node_plane.is_some()
            && self.shared.topo.node_of_worker(w).0 != self.my_cluster_node
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

    /// Push one envelope onto this worker's mesh row, stashing it if the ring
    /// is full (or if earlier envelopes for the same destination are already
    /// stashed — per-pair FIFO order is preserved).  `dst` is always on this
    /// worker's cluster node: cross-node messages leave through the uplink
    /// ([`EnvelopeCtx::push`]), and every envelope forwarded or staged here
    /// stays inside its destination's process.
    pub(crate) fn push_mesh(&mut self, dst: WorkerId, envelope: Envelope) {
        debug_assert!(!self.on_other_node(dst), "cross-node envelope on the mesh");
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

    /// Push one envelope up this worker's uplink to the node leader —
    /// stashed when that ring is full (nobody has pumped the node yet) or
    /// when earlier envelopes are already stashed: FIFO toward the leader.
    fn push_uplink(&mut self, envelope: Envelope) {
        let plane = self
            .shared
            .node_plane
            .as_ref()
            .expect("uplink push without a node plane");
        if !self.wire_stash.is_empty() {
            self.wire_stash.push_back(envelope);
        } else if let Err(rejected) = plane.uplink[self.me.idx()].push(envelope) {
            self.wire_stash.push_back(rejected);
        }
    }

    /// Retry stashed uplink envelopes.  Returns true if any moved.
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
    /// per-destination batches, each copied into one slab when it ships (one
    /// plane operation per batch, not per item);
    /// [`NativeWorkerCtx::flush_local`] ships every batch at the end of the
    /// quantum, so an item waits for the rest of its own quantum and nothing
    /// else.  Without an arena (NoAgg) the item ships at once, inline.
    #[inline]
    fn stage_local(&mut self, item: Item<Payload>) {
        let dest = item.dest.idx();
        let Some(lane) = self.local_out.get_mut(dest) else {
            self.publish_sent();
            self.tally.local_deliveries += 1;
            self.push_mesh(item.dest, Envelope::Single(item));
            return;
        };
        lane.push(item);
        if lane.len() >= self.shared.tram.buffer_items {
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
        let to = WorkerId(dest as u32);
        self.ship_slab(to, MessageDest::Worker(to), false, &batch);
        self.local_out[dest] = batch;
        self.local_out[dest].clear();
    }

    /// Quantum end: ship every non-empty local-bypass batch.  Runs once per
    /// loop iteration whether or not the iteration did work: a worker whose
    /// `on_idle` never returns `false` is never idle, and its peers must not
    /// wait on it for that.  With nothing staged this is one length check
    /// per destination worker (none at all with the bypass off).
    pub(crate) fn flush_local(&mut self) {
        for dest in 0..self.local_out.len() {
            self.ship_local(dest);
        }
    }

    /// Quarantine entry: drop everything this worker produced but had not
    /// shipped — aggregator buffers, local-bypass batches, envelopes stashed
    /// for the mesh or the uplink.  Unshipped items hold no slab: a slab is
    /// claimed only when its message ships, and a stashed one is finished
    /// like any other envelope.  Every dropped item was already counted
    /// sent (publish-before-ship), so counting it dropped keeps the
    /// conservation ledger exact.  Returns the number of items dropped.
    pub(crate) fn abandon_production(&mut self) -> u64 {
        let arenas = &self.shared.arenas;
        let mut dropped = 0u64;
        if let Some(agg) = self.aggregator.as_mut() {
            dropped += agg.abandon();
        }
        for batch in &mut self.local_out {
            dropped += batch.len() as u64;
            batch.clear();
        }
        for lane in 0..self.stash.len() {
            while let Some(envelope) = self.stash[lane].pop_front() {
                self.stash_len -= 1;
                dropped += envelope.discard(|owner| &arenas[owner]);
            }
        }
        while let Some(envelope) = self.wire_stash.pop_front() {
            dropped += envelope.discard(|owner| &arenas[owner]);
        }
        dropped
    }

    /// PP insertion: claim a slot in the shared buffer towards the item's
    /// destination process, draining it if this worker claimed the last
    /// slot.  `send` has already taken same-process items down the bypass.
    fn send_pp(&mut self, item: Item<Payload>) {
        let shared = self.shared;
        let dst_proc = shared.topo.proc_of_worker(item.dest);
        self.pp_stats.record_insert();
        if self.has_timeout && self.pp_oldest_ns.is_none() {
            self.pp_oldest_ns = Some(self.now_cache);
        }
        let claim: &SegClaim<Item<Payload>> = &shared.pp[self.my_proc.idx()][dst_proc.idx()];
        let mut attempts = 0u32;
        loop {
            match claim.insert(item) {
                SegClaimInsert::Stored => break,
                SegClaimInsert::MustDrain => {
                    self.drain_pp(dst_proc, EmitReason::BufferFull);
                    break;
                }
                SegClaimInsert::Retry => {
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

    /// Take the drain lock of the shared buffer towards `dst_proc` and ship
    /// what it holds as one process-addressed slab to the destination's
    /// group receiver, which groups it as it groups WPs.  Losing the lock is
    /// fine: the holder's seal covers every slot claimed before it, ours
    /// included.
    fn drain_pp(&mut self, dst_proc: ProcId, reason: EmitReason) {
        let shared = self.shared;
        let claim: &SegClaim<Item<Payload>> = &shared.pp[self.my_proc.idx()][dst_proc.idx()];
        if !claim.try_begin_drain(self.me.0) {
            return;
        }
        let mut items = std::mem::take(&mut self.pp_drained);
        claim.seal_flush(&mut items, || false);
        if !items.is_empty() {
            let bytes = shared.tram.message_bytes(items.len());
            self.pp_stats.record_message(items.len(), bytes, reason);
            self.count_wire(items.len(), bytes, reason);
            let dest = MessageDest::Process(dst_proc);
            self.ship_slab(self.receiver_of(dest), dest, false, &items);
        }
        items.clear();
        self.pp_drained = items;
    }

    /// Seal-flush every non-empty shared PP buffer of this worker's process
    /// whose destination `release` lets go; empty buffers are left unsealed.
    /// Returns whether any non-empty buffer was held back.
    fn flush_pp_where(
        &mut self,
        reason: EmitReason,
        release: impl Fn(&Self, MessageDest) -> bool,
    ) -> bool {
        let shared = self.shared;
        let mut held = false;
        for (dst, claim) in shared.pp[self.my_proc.idx()].iter().enumerate() {
            if claim.claim_count() == 0 {
                continue;
            }
            let dst_proc = ProcId(dst as u32);
            if release(self, MessageDest::Process(dst_proc)) {
                self.drain_pp(dst_proc, reason);
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
            return self.shared.tram.flush_policy.on_idle
                && self.flush_pp_where(EmitReason::IdleFlush, release);
        }
        self.drain_aggregator(|agg, cx| agg.flush_on_idle_where(cx, release, Self::emit));
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
        if self.aggregator.is_some() {
            self.drain_aggregator(|agg, cx| agg.poll_timeout_each(now, |m| cx.emit(m)));
            return;
        }
        if let (Some(oldest), Some(timeout)) =
            (self.pp_oldest_ns, self.shared.tram.flush_policy.timeout_ns)
        {
            if now.saturating_sub(oldest) >= timeout {
                self.flush_pp_where(EmitReason::TimeoutFlush, |_, _| true);
            }
        }
    }

    /// Fold the runtime tallies, the aggregator's pool reuse statistics and
    /// the arena's claim statistics into this worker's counters before the
    /// thread exits.
    pub(crate) fn export_counters(&mut self) {
        self.tally
            .fold_into(&mut self.counters, self.arena.map(SegArena::stats));
        if let Some(agg) = &self.aggregator {
            let pool = agg.pool_stats();
            self.counters.add("agg_pool_hits", pool.hits);
            self.counters.add("agg_pool_misses", pool.misses);
        }
        // 0 whenever placement is unknown (unpinned) or single-node.
        self.counters
            .add("cross_socket_msgs", self.cross_socket_msgs);
    }

    /// Count one delivered slice of `len` items (`len > 0`).
    fn count_batch(&mut self, len: usize) {
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
        if self.local_workers.contains(&dest.0) {
            // Shared memory, not aggregation: every scheme stages a
            // same-process item for its worker.  Staged items publish
            // before they ship, so the batched count is safe under PP too.
            self.pending_sent += 1;
            self.stage_local(item);
            return;
        }
        if self.shared.tram.scheme == Scheme::PP {
            // Counted eagerly: a sibling worker may seal and emit this item
            // before our next publish (see the `pending_sent` docs).
            self.shared.items_sent[self.me.idx()].fetch_add(1, Ordering::Relaxed);
            self.send_pp(item);
            return;
        }
        self.pending_sent += 1;
        let agg = self.aggregator.as_mut().expect("worker aggregator");
        if let Some(message) = agg.insert_at(item, created).message {
            self.emit(message);
        }
    }

    fn flush(&mut self) {
        // An explicit flush means "everything I sent is on its way": ship the
        // pending local-bypass batches too.
        self.flush_local();
        if self.shared.tram.scheme == Scheme::PP {
            self.pp_stats.record_flush_call();
            self.flush_pp_where(EmitReason::ExplicitFlush, |_, _| true);
            return;
        }
        self.drain_aggregator(|agg, cx| agg.flush_each(|m| cx.emit(m)));
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

impl<'a> EnvelopeCtx<'a> for NativeWorkerCtx<'a> {
    fn arena(&self, owner: u32) -> &'a SegArena<Item<Payload>> {
        &self.shared.arenas[owner as usize]
    }

    fn own_arena(&self) -> Option<&'a SegArena<Item<Payload>>> {
        self.arena
    }

    /// The mesh row, or on the node tier the uplink for a `dst` on another
    /// cluster node.
    #[inline]
    fn push(&mut self, dst: WorkerId, envelope: Envelope) {
        if self.on_other_node(dst) {
            self.push_uplink(envelope);
        } else {
            self.push_mesh(dst, envelope);
        }
    }

    /// Run one borrowed slice of delivered items through the application's
    /// slice-based handler.  The items are read **in place** — from a slab
    /// in some worker's or node leader's arena — and never moved.  The
    /// delivered counter is bumped once per slice, strictly after the
    /// handlers: any sends the handlers made are already counted by then, so
    /// `sent sum == delivered sum` still implies global quiescence.
    ///
    /// Latency is **sampled once per slice** (its first item, which is the
    /// oldest of the cohort: buffers fill in FIFO order): a per-item
    /// log-bucket sketch update costs more than the delivery itself at mesh
    /// throughput, and the native backend's latency numbers are a
    /// distribution summary, not a per-item trace.
    #[inline]
    fn deliver(&mut self, app: &mut dyn WorkerApp, items: &[Item<Payload>]) {
        if items.len() > 1 {
            // One clock read per real batch keeps handler-visible timestamps
            // honest across long drain bursts; single-item batches (NoAgg)
            // stay on the per-quantum cache — a clock read per item is
            // exactly the cost the inline envelope avoids.
            self.refresh_now();
        }
        self.latency
            .record_span(items[0].created_at_ns, self.now_cache);
        self.count_batch(items.len());
        debug_assert!(
            items.iter().all(|i| i.dest == self.me),
            "items delivered to wrong worker"
        );
        app.on_item_slice(items, self);
        self.pending_delivered += items.len() as u64;
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }

    fn group_scratch(&mut self) -> &mut GroupScratch<Payload> {
        &mut self.group_scratch
    }
}
