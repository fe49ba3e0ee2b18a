//! The native backend's per-worker [`RunCtx`] implementation.
//!
//! The context owns everything a worker thread touches per item — aggregator,
//! RNG, counters, the [`WorkerIo`] of [`crate::send`].  `send` decides the
//! local bypass before tramlib, for every scheme, as the process engine does;
//! how an item is then staged, buffered, counted and shipped, and what
//! happens to an inbound envelope, is written once for both engines
//! ([`crate::send`], [`crate::envelope`]).  This context supplies the ring
//! choice — the mesh row, or on the node tier the uplink to the node leader
//! — and the publish rule ([`EnvelopeCtx::push`]), delivery
//! ([`EnvelopeCtx::deliver`]), its aggregator and the stash policies: NUMA
//! drain order, retry backoff and NoAgg's deferred pushes.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use metrics::{Counters, LatencyRecorder, QuantileSketch};
use net_model::{ProcId, WorkerId};
use runtime_api::{Payload, RunCtx, WorkerApp};
use shmem::{SegArena, SegClaim};
use sim_core::StreamRng;
use tramlib::{
    Aggregator, EmitReason, Item, MessageDest, OutboundMessage, Owner, Scheme, TramStats,
};

use super::Shared;
use crate::envelope::{Envelope, EnvelopeCtx};
use crate::quantum::{self, SelfClocked};
use crate::send::{self, Stash, WorkerIo};

/// Upper bound, in consecutive *idle* loop iterations, of the stash retry
/// backoff ([`NativeWorkerCtx::flush_stash_backoff`]).  Idle spins are
/// microseconds even at the nap cap, so 32 keeps worst-case retry latency
/// well under a scheduling quantum while cutting an idle spinner's failed
/// ring probes ~30×.
pub(crate) const STASH_BACKOFF_MAX: u32 = 32;

/// The native backend's [`RunCtx`] implementation, one per worker thread.
pub(crate) struct NativeWorkerCtx<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) me: WorkerId,
    pub(crate) my_proc: ProcId,
    /// Worker-owned aggregator (None under PP, where the process-shared claim
    /// buffers take its place, and under NoAgg, which ships singles).
    pub(crate) aggregator: Option<Aggregator<Payload>>,
    pub(crate) rng: StreamRng,
    /// Application counters (`RunCtx::counter`) and the once-per-run
    /// exports; the runtime's own per-event counts live in `io.tally`.
    pub(crate) counters: Counters,
    pub(crate) latency: LatencyRecorder,
    /// Application-level latency samples (`RunCtx::record_app_latency`);
    /// merged across workers into the report's structured latency summary.
    pub(crate) app_latency: LatencyRecorder,
    /// TramLib statistics of the schemes without an `Aggregator`: PP (the
    /// claim buffers do the buffering) and NoAgg.
    pub(crate) tram_stats: TramStats,
    /// Whether the flush policy has a timeout at all (lets the per-iteration
    /// timeout poll exit without reading the clock when it does not).
    pub(crate) has_timeout: bool,
    /// PP only: wall-clock stamp of the oldest insert this worker has made
    /// into the shared claim buffers since the last flush it observed.  The
    /// claim buffers keep no per-item timestamps, so the timeout poll works
    /// from this sender-side watermark instead.
    pub(crate) pp_oldest_ns: Option<u64>,
    /// PP only: a quiet-quantum flush of the process-shared buffers is due.
    /// Set on the first quiet quantum after a non-quiet one, cleared once no
    /// buffer had to be held back (see [`SelfClocked::flush_quiet`]).
    pub(crate) pp_flush_due: bool,
    /// Worker ids that take the local bypass: this worker's process, or
    /// nothing when the bypass is off — one range test per `send`.
    pub(crate) local_workers: Range<u32>,
    /// Tallies, grouping scratch, local-bypass lanes, the mesh stash and the
    /// PP drain scratch ([`crate::send`]).
    pub(crate) io: WorkerIo,
    /// Cached wall-clock offset, refreshed once per delivered batch / loop
    /// iteration instead of per item: at millions of items per second the
    /// two per-item clock reads (creation stamp + latency span) would
    /// otherwise dominate the handler itself.
    pub(crate) now_cache: u64,
    /// Sends not yet published to this worker's shared `items_sent` slot,
    /// by the publish rule of [`crate::send`]: before an envelope becomes
    /// visible to a consumer, and once per scheduling loop.  An item's sent
    /// increment thus happens-before its delivered increment, at one atomic
    /// per envelope, not per item.  PP sends bypass this accumulator: a
    /// sibling may seal and ship a claimed item before this worker
    /// publishes, so it is counted at insert time.
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
    /// Current mesh stash-retry backoff interval, in consecutive idle loop
    /// iterations (0 = retry every iteration).
    pub(crate) stash_backoff: u32,
    /// Iterations left before the next stash retry.
    pub(crate) stash_skip: u32,
    /// NoAgg only: route every mesh envelope through the stash and publish
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
    /// Node tier only: the uplink's stash, one lane — FIFO toward the
    /// leader, retried by [`NativeWorkerCtx::flush_wire_stash`] every loop
    /// iteration.
    pub(crate) wire_stash: Stash,
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
        let my_node = shared.worker_node.get(me.idx()).copied().unwrap_or(0);
        let aggregator = matches!(shared.tram.scheme, Scheme::WW | Scheme::WPs | Scheme::WsP)
            .then(|| Aggregator::new(shared.tram, Owner::Worker(me)));
        Self {
            shared,
            me,
            my_proc,
            aggregator,
            rng: StreamRng::new(shared.seed, me.0 as u64),
            counters: Counters::new(),
            latency: LatencyRecorder::new(),
            app_latency: LatencyRecorder::new(),
            tram_stats: TramStats::new(),
            has_timeout: shared.tram.flush_policy.timeout_ns.is_some(),
            pp_oldest_ns: None,
            pp_flush_due: false,
            local_workers: if shared.tram.local_bypass {
                let first = shared.topo.first_worker_of(my_proc).0;
                first..first + shared.topo.workers_per_proc()
            } else {
                0..0
            },
            io: WorkerIo::new(shared.tram),
            now_cache: 0,
            pending_sent: 0,
            local_sent: 0,
            pending_delivered: 0,
            pending_dropped: 0,
            stash_backoff: 0,
            stash_skip: 0,
            defer_pushes: shared.tram.scheme == Scheme::NoAgg,
            arena: shared.arenas.get(me.idx()).map(|arena| &**arena),
            spent: Vec::new(),
            my_node,
            cross_socket_msgs: 0,
            drain_order: {
                let mut order: Vec<u32> = (0..workers).collect();
                if shared.numa_aware {
                    // Stable sort: same-node destinations first, index order
                    // preserved within each group.
                    order.sort_by_key(|&d| shared.worker_node[d as usize] != my_node);
                }
                order
            },
            my_cluster_node: shared.topo.node_of_worker(me).0,
            wire_stash: Stash::new(1),
            batch_lens: Vec::new(),
        }
    }

    /// Publish accumulated sends to this worker's shared sent counter.  Must
    /// run before any envelope becomes visible to a consumer and once per
    /// loop iteration (before the done flag is stored) — see the field docs.
    #[inline]
    pub(crate) fn publish_sent(&mut self) {
        let slot = &self.shared.items_sent[self.me.idx()];
        publish(&mut self.pending_sent, slot, Ordering::Relaxed);
    }

    /// Publish accumulated deliveries.  Call once per scheduling loop,
    /// strictly after [`NativeWorkerCtx::publish_sent`] (see the
    /// `pending_delivered` docs), and once before the worker exits.
    pub(crate) fn publish_delivered(&mut self) {
        let slot = &self.shared.items_delivered[self.me.idx()];
        publish(&mut self.pending_delivered, slot, Ordering::AcqRel);
    }

    /// Publish accumulated quarantine drops.  Like
    /// [`NativeWorkerCtx::publish_delivered`], strictly after the work they
    /// account for: a dropped item's sent increment was published before its
    /// envelope shipped, so dropped (like delivered) never overtakes sent.
    pub(crate) fn publish_dropped(&mut self) {
        let slot = &self.shared.items_dropped[self.me.idx()];
        publish(&mut self.pending_dropped, slot, Ordering::AcqRel);
    }

    /// Re-read the wall clock into the per-item timestamp cache.
    pub(crate) fn refresh_now(&mut self) {
        self.now_cache = self.shared.now_ns();
    }

    /// The mesh gate of the self-clocked flush ([`quantum::lane_drained`]):
    /// is everything this worker shipped toward `dest`'s receiver consumed?
    ///
    /// For a receiver on another cluster node the lane is the uplink, and
    /// its consumer is the node leader: a poller that naps between polls,
    /// takes what is queued (up to `INBOX_BUDGET` envelopes) when it wakes
    /// and re-aggregates per node.
    /// Envelopes still queued there say where the leader is in its nap, not
    /// that it is behind, and a buffer held back for them misses the next
    /// poll — so only a *full* uplink (envelopes stashed behind it) holds.
    fn lane_drained(&self, dest: MessageDest) -> bool {
        let target = send::receiver_of(self, dest);
        if self.on_other_node(target) {
            return self.wire_stash.is_empty();
        }
        let ring = self.shared.plane.ring(self.me.idx(), target.idx());
        quantum::lane_drained(ring.len(), self.io.stash.lane_len(target.idx()))
    }

    /// Ship one of the aggregator's messages by the shared rule
    /// ([`send::ship_message`]), then hand its vector back to the
    /// aggregator's pool — straight away, or, while a flush has the
    /// aggregator out, through `spent` once the flush is over.
    pub(crate) fn ship_aggregated(&mut self, message: OutboundMessage<Payload>) {
        let m = &message;
        send::ship_message(self, m.dest, m.grouped_at_source, m.reason, &m.items);
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

    /// Whether worker `w` lives on another cluster node of a node-tier run
    /// (never on a single-node run): its traffic leaves through the uplink.
    fn on_other_node(&self, w: WorkerId) -> bool {
        self.shared.node_plane.is_some()
            && self.shared.topo.node_of_worker(w).0 != self.my_cluster_node
    }

    /// Push one envelope onto this worker's mesh row, stashing it if the ring
    /// is full (or if earlier envelopes for the same destination are already
    /// stashed — per-pair FIFO order is preserved).  `dst` is always on this
    /// worker's cluster node: cross-node messages leave through the uplink
    /// ([`EnvelopeCtx::push`]), and every envelope forwarded or staged here
    /// stays inside its destination's process.
    #[inline]
    pub(crate) fn push_mesh(&mut self, dst: WorkerId, envelope: Envelope) {
        debug_assert!(!self.on_other_node(dst), "cross-node envelope on the mesh");
        let d = dst.idx();
        if self.shared.worker_node[d] != self.my_node {
            self.cross_socket_msgs += 1;
        }
        if self.defer_pushes {
            self.io.stash.defer(d, envelope);
        } else {
            self.publish_sent();
            let ring = self.shared.plane.ring(self.me.idx(), d);
            self.io.stash.push(d, ring, envelope);
        }
    }

    /// This worker's uplink to its node leader.
    fn uplink(&self) -> &'a shmem::SegRing<Envelope> {
        let plane = self.shared.node_plane.as_ref();
        &plane.expect("uplink push without a node plane").uplink[self.me.idx()]
    }

    /// Retry stashed uplink envelopes.  Returns true if any moved.
    pub(crate) fn flush_wire_stash(&mut self) -> bool {
        if self.wire_stash.is_empty() {
            return false;
        }
        self.publish_sent();
        let uplink = self.uplink();
        self.wire_stash.retry([0], |_| uplink) > 0
    }

    /// Move stashed envelopes onto their rings (batched: one tail publication
    /// per destination).  Returns true if any envelope moved.  Publishes
    /// pending sends first: an envelope must never become visible to its
    /// consumer before the sends it carries are counted.
    pub(crate) fn flush_stash(&mut self) -> bool {
        if self.io.stash.is_empty() {
            return false;
        }
        self.publish_sent();
        let (mesh, me) = (&self.shared.plane, self.me.idx());
        // Same-node destinations first (identity order on non-NUMA runs):
        // own-socket consumers drain their rings fastest, so retrying them
        // first frees stash space at local-interconnect latency instead of
        // waiting behind cross-socket laggards.
        let order = self.drain_order.iter().map(|&d| d as usize);
        self.io.stash.retry(order, |d| mesh.ring(me, d)) > 0
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
        if self.io.stash.is_empty() {
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

    /// Quarantine entry: drop everything this worker produced but had not
    /// shipped — aggregator buffers, local-bypass batches, envelopes stashed
    /// for the mesh or the uplink.  Unshipped items hold no slab: a slab is
    /// claimed only when its message ships, and a stashed one is finished
    /// like any other envelope.  Every dropped item was already counted
    /// sent, so counting it dropped keeps the conservation ledger exact.
    /// Returns the number of items dropped.
    pub(crate) fn abandon_production(&mut self) -> u64 {
        let arenas = &self.shared.arenas;
        let buffered = self.aggregator.as_mut().map_or(0, Aggregator::abandon);
        buffered
            + self.io.abandon(|owner| &arenas[owner])
            + self.wire_stash.discard_lane(0, |owner| &arenas[owner])
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
        self.drain_aggregator(|agg, cx| {
            agg.flush_on_idle_where(cx, release, Self::ship_aggregated)
        });
        false
    }

    /// [`send::pp_flush_where`], clearing the timeout watermark once no
    /// buffer was held back.
    fn flush_pp_where(
        &mut self,
        reason: EmitReason,
        release: impl Fn(&Self, MessageDest) -> bool,
    ) -> bool {
        let held = send::pp_flush_where(self, reason, release);
        if !held {
            self.pp_oldest_ns = None;
        }
        held
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
        self.drain_aggregator(|agg, cx| agg.poll_timeout_each(now, |m| cx.ship_aggregated(m)));
        // Only PP sets the watermark.
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
        let arena = self.arena.map(SegArena::stats);
        self.io.tally.fold_into(&mut self.counters, arena);
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

/// Move a pending count into its shared per-worker slot.
#[inline]
fn publish(pending: &mut u64, slot: &AtomicU64, order: Ordering) {
    if *pending > 0 {
        slot.fetch_add(std::mem::take(pending), order);
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
            send::stage_local(self, item);
            return;
        }
        if let Some(agg) = self.aggregator.as_mut() {
            self.pending_sent += 1;
            if let Some(message) = agg.insert_at(item, created).message {
                self.ship_aggregated(message);
            }
            return;
        }
        self.tram_stats.record_insert();
        if self.shared.tram.scheme == Scheme::NoAgg {
            // The item is its own message, an inline single on the deferred
            // push (published with the stash retry).
            self.pending_sent += 1;
            let dest = MessageDest::Worker(dest);
            send::ship_message(self, dest, false, EmitReason::Unaggregated, &[item]);
            return;
        }
        // PP, counted eagerly: a sibling worker may seal and emit this item
        // before our next publish (see the `pending_sent` docs).
        self.shared.items_sent[self.me.idx()].fetch_add(1, Ordering::Relaxed);
        if self.has_timeout && self.pp_oldest_ns.is_none() {
            self.pp_oldest_ns = Some(self.now_cache);
        }
        send::pp_insert(self, item);
    }

    fn flush(&mut self) {
        // An explicit flush means "everything I sent is on its way": ship the
        // pending local-bypass batches too.
        send::flush_local(self);
        if self.aggregator.is_some() {
            self.drain_aggregator(|agg, cx| agg.flush_each(|m| cx.ship_aggregated(m)));
            return;
        }
        self.tram_stats.record_flush_call();
        if self.shared.tram.scheme == Scheme::PP {
            self.flush_pp_where(EmitReason::ExplicitFlush, |_, _| true);
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

impl<'a> EnvelopeCtx<'a> for NativeWorkerCtx<'a> {
    fn arena(&self, owner: u32) -> &'a SegArena<Item<Payload>> {
        &self.shared.arenas[owner as usize]
    }

    fn own_arena(&self) -> Option<&'a SegArena<Item<Payload>>> {
        self.arena
    }

    /// The mesh row, or on the node tier the uplink (FIFO toward the
    /// leader) for a `dst` on another cluster node.
    #[inline]
    fn push(&mut self, dst: WorkerId, envelope: Envelope) {
        if self.on_other_node(dst) {
            self.publish_sent();
            self.io.tally.wire_node_msgs += 1;
            let uplink = self.uplink();
            self.wire_stash.push(0, uplink, envelope);
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

    fn io(&mut self) -> &mut WorkerIo {
        &mut self.io
    }

    fn claim(&self, dst: ProcId) -> &'a SegClaim<Item<Payload>> {
        &self.shared.pp[self.my_proc.idx()][dst.idx()]
    }

    fn count_dropped(&mut self, items: u64) {
        self.pending_dropped += items;
    }

    /// NoAgg and PP (by scheme: a flush takes the aggregator out).
    fn tram_stats(&mut self) -> Option<&mut TramStats> {
        let own = matches!(self.shared.tram.scheme, Scheme::NoAgg | Scheme::PP);
        own.then_some(&mut self.tram_stats)
    }
}
