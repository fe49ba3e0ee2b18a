//! The worker loop over the delivery mesh: direct worker↔worker SPSC rings,
//! no central thread on the data path.
//!
//! Each worker drains its column of the N×N envelope grid (one bounded SPSC
//! ring per source worker), runs the receive-side grouping pass *locally*
//! with its own [`PooledReceiver`], delivers its items inline and forwards
//! process peers' slices as pre-grouped batches over its own row.  Spent
//! vectors travel back over the per-pair return rings to whichever worker
//! filled them, keeping every pool warm.
//!
//! Progress / deadlock freedom: a push onto a full ring never blocks — the
//! envelope goes to the sender's per-destination stash and is retried at the
//! top of every loop iteration, so every worker keeps draining its inboxes no
//! matter how congested its own output rows are.  (A blocking push would let
//! two workers wedge on each other's full rings, each unable to drain.)
//! Items parked in a stash keep the sent sum ahead of the delivered sum, so
//! the quiescence monitor cannot declare the run finished around them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;

use net_model::WorkerId;
use runtime_api::{Payload, RunCtx, WorkerApp};
use shmem::SlabRange;
use tramlib::{MessageDest, PooledReceiver, SlabSealed};

use super::ctx::{deliver_batch, deliver_slice};
use super::faults::ActiveFaults;
use super::{Envelope, NativeWorkerCtx, Shared, WorkerOutput};
use crate::quantum::QuietTracker;

/// Max envelopes drained from one source ring per loop iteration, so a
/// single hot source cannot starve the others.
/// Also a term of the arena sizing: a consumer can hold this many popped
/// envelopes (slabs among them) mid-processing.
pub(crate) const INBOX_BUDGET: usize = 128;

/// Idle backoff: yield the CPU for the first rounds (on an oversubscribed
/// host the producers need it to make work for us), then nap with doubling
/// duration up to the cap, so persistently idle workers stop costing the
/// scheduler anything while busy workers finish the run.
const IDLE_YIELDS: u32 = 2;
const IDLE_NAP: Duration = Duration::from_micros(50);
// Capped at 400µs: the quiescence monitor polls at 200µs, so longer naps
// only lengthen the end-of-run tail in which late batches wait on sleeping
// consumers.
const IDLE_NAP_MAX_DOUBLINGS: u32 = 3;

/// One worker PE on the mesh: retry stashed pushes, reclaim returned
/// vectors, drain inbox rings, generate work, ship partial buffers on quiet
/// quanta, back off.
///
/// The scheduling loop (and the application code it calls) runs inside a
/// `catch_unwind` boundary: a panic — injected by a `FaultPlan` or genuine —
/// quarantines this worker instead of poisoning the whole run.  The
/// quarantined worker's application state is gone, but its side of the data
/// plane keeps moving (see [`quarantine`]) so the survivors can drain and
/// the monitor can settle the conservation ledger.
pub(crate) fn worker_main(
    shared: &Shared,
    me: WorkerId,
    mut app: Box<dyn WorkerApp>,
) -> WorkerOutput {
    let mut ctx = NativeWorkerCtx::new(shared, me);
    let mut receiver: PooledReceiver<Payload> = PooledReceiver::new(shared.tram);
    if shared.pin_workers {
        // Pin before the barrier so placement never counts as run time.
        crate::affinity::pin_current_thread(me.idx());
    }
    if shared.numa_aware {
        // Bind this worker's arena backing store to its own node before the
        // run starts: the arenas were allocated on the main thread, so
        // without the move every slab read/write from the other socket pays
        // a remote-memory hop.  `MPOL_MF_MOVE` migrates the already-touched
        // pages, so this is first-touch-equivalent regardless of what the
        // allocator did.  Failure is harmless (placement stays as-is).
        if let Some(arena) = shared.arenas.get(me.idx()) {
            let (ptr, bytes) = arena.backing_region();
            crate::numa::bind_region_to_node(ptr, bytes, shared.worker_node[me.idx()]);
        }
    }
    // Wait out the start barrier: setup cost must not skew the measured run.
    while !shared.go.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    ctx.refresh_now();
    let mut faults = shared
        .faults
        .as_ref()
        .and_then(|plan| ActiveFaults::compile(plan, me.0));

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        app.on_start(&mut ctx);
        mesh_loop(
            shared,
            me,
            app.as_mut(),
            &mut ctx,
            &mut receiver,
            &mut faults,
        );
    }));
    let panicked = match outcome {
        Ok(()) => false,
        Err(payload) => {
            shared.record_panic(me.0, super::panic_message(payload.as_ref()));
            quarantine(shared, me, &mut ctx);
            true
        }
    };
    if let Some(faults) = faults.as_mut() {
        faults.disarm(ctx.arena);
    }

    // The final (possibly abort-interrupted) iteration may hold unpublished
    // counts; the run report reads the sums after every thread joins.
    ctx.publish_sent();
    ctx.publish_delivered();
    ctx.publish_dropped();
    ctx.drain_pending_returns_direct();
    ctx.export_counters();
    let pool = receiver.pool_stats();
    ctx.counters.add("batch_pool_hits", pool.hits);
    ctx.counters.add("batch_pool_misses", pool.misses);
    let batch_len = ctx.take_batch_len();
    let mut tram = ctx.pp_stats;
    if let Some(agg) = &ctx.aggregator {
        tram.merge(agg.stats());
    }
    WorkerOutput {
        // A quarantined worker's application state is untrustworthy:
        // `on_finalize` is skipped for it (the monitor reports the panic).
        app: (!panicked).then_some(app),
        counters: ctx.counters,
        latency: ctx.latency,
        app_latency: ctx.app_latency,
        tram,
        batch_len,
    }
}

/// The healthy scheduling loop of one mesh worker.  Runs inside the
/// `catch_unwind` boundary of [`worker_main`]; an unwind from anywhere in
/// here (application handlers included) lands in [`quarantine`].
fn mesh_loop(
    shared: &Shared,
    me: WorkerId,
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    receiver: &mut PooledReceiver<Payload>,
    faults: &mut Option<ActiveFaults>,
) {
    let workers = shared.topo.total_workers() as usize;
    let mesh = &shared.plane;
    let me_i = me.idx();
    let mut idle_rounds = 0u32;
    let mut quiet = QuietTracker::new(shared.tram.flush_policy.on_idle);
    let mut iteration = 0u32;
    let mut beats = 0u64;
    let mut done_stored = false;
    let mut quiesced = false;
    // Reused drain buffer: one batched head publication per source ring.
    let mut inbox: Vec<Envelope> = Vec::with_capacity(INBOX_BUDGET);
    // Node tier: while this loop runs and is not napping, the worker counts
    // as awake for its node's leader and pumps it on unmoved quanta.  The
    // handle drops with the loop — `stop`, or an unwind into quarantine.
    let helper = shared
        .node_plane
        .as_ref()
        .map(|plane| plane.helper(shared.topo.node_of_worker(me).0));
    loop {
        // Checked every iteration (not just on the idle path) so the watchdog
        // can abort even a worker whose on_idle never stops returning true.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        iteration = iteration.wrapping_add(1);
        // Progress heartbeat + stash gauge: one relaxed store each, read by
        // the monitor's soft-stall scan at its 200µs poll granularity.
        beats += 1;
        shared.heartbeats[me_i].store(beats, Ordering::Relaxed);
        shared.stash_depth[me_i].store(ctx.stash_len as u64, Ordering::Relaxed);
        ctx.refresh_now();
        // One `Option` branch on a fault-free run; on a faulted one this is
        // where panics, stalls, arena holds and ring bursts begin.
        if let Some(faults) = faults.as_mut() {
            faults.poll(ctx);
        }
        let mut did_work = ctx.flush_stash_backoff();
        // Wire batches parked on a full uplink ring (leader mid-drain) are
        // retried like the mesh stash: a sender never blocks on its leader.
        did_work |= ctx.flush_wire_stash();
        // A slab handle parked on a full return ring must be retried until
        // it lands (dropping one would leak the owner's slab for the run).
        did_work |= ctx.flush_pending_returns();
        // Reclaim spent storage our consumers sent back (vectors feed the
        // pools, slab handles reopen arena slabs).  On the vector store,
        // returns only feed pools, so probing all N rings every iteration
        // buys nothing — every 8th iteration (and every idle one) keeps the
        // recycling at 1/8th of the probe cost, which itself scales with the
        // worker count.  On the slab store the returns ARE the arena's
        // capacity: drain them every iteration so a burst of sealed slabs
        // never dries the arena into the heap-vector fallback.
        if ctx.arena.is_some() || iteration % 8 == 0 || idle_rounds > 0 {
            for dst in 0..workers {
                while let Some(spent) = mesh.return_ring(me_i, dst).pop() {
                    ctx.reclaim_spent(spent);
                }
            }
        }
        // A ring-burst fault closes the inbox for its window: senders back up
        // into their stashes, exercising the backpressure path end to end.
        if !faults.as_ref().is_some_and(ActiveFaults::skip_inbox) {
            for src in 0..workers {
                // One budgeted drain per source per iteration — a hot source
                // gets the next helping only after every other ring (and the
                // stash retry at the loop top) has had its turn.
                if mesh.ring(src, me_i).pop_into(&mut inbox, INBOX_BUDGET) > 0 {
                    for envelope in inbox.drain(..) {
                        handle_envelope(app, ctx, receiver, src, envelope);
                    }
                    did_work = true;
                }
            }
        }
        // Node tier: deliver cross-node traffic the leader regrouped for us.
        // The downlink carries worker-addressed raw batches — by the time an
        // item crosses the wire every grouping decision is already made, so
        // delivery here is the plain batch path.
        if let Some(plane) = &shared.node_plane {
            while let Some(mut batch) = plane.downlink[me_i].pop() {
                deliver_batch(app, ctx, &mut batch);
                ctx.retain_spare(batch);
                did_work = true;
            }
        }
        // A graceful-shutdown request (delivered SIGINT/SIGTERM): stop
        // generating, push everything buffered out exactly once — the same
        // final flush a finished worker performs — and count as done below,
        // so the monitor settles the drained run instead of waiting on load
        // that will never finish.  Delivery, stash retries and returns keep
        // running untouched.
        let quiescing = shared.quiesce.load(Ordering::Acquire);
        if quiescing && !quiesced {
            ctx.flush();
            quiesced = true;
            did_work = true;
        }
        // Generate new work only while the outbound stash is under the
        // throttle: a producer that keeps generating against full rings
        // grows its stash without bound (and dries its slab arena); pausing
        // generation — while still draining, flushing and retrying — is the
        // backpressure that keeps in-flight storage bounded.
        let throttled =
            ctx.stash_len >= super::STASH_THROTTLE || ctx.wire_stash.len() >= super::STASH_THROTTLE;
        // What the quantum moved, before the app has its say: `on_idle`'s
        // return value decides napping below, never flushing.
        let moved = did_work;
        if !did_work && !quiescing && !app.local_done() && !throttled {
            did_work = app.on_idle(ctx);
        }
        // Publish batched sends before reporting done (the monitor must see
        // every send that precedes a true done flag), and batched deliveries
        // strictly after the sends (a delivered item's handler-generated
        // sends must always be counted first).  The done flag is monotonic,
        // so one store suffices.
        ctx.publish_sent();
        if !done_stored && (app.local_done() || quiesced) {
            shared.workers_done[me_i].store(true, Ordering::Release);
            done_stored = true;
        }
        ctx.publish_delivered();
        // Poll buffer timeouts on every iteration (cheap no-op without a
        // timeout policy): a worker kept busy by incoming requests must still
        // age out its partially-filled response buffers.
        ctx.poll_timeout();
        // The self-clocked flush (`crate::quantum`): on a quiet quantum a
        // partial buffer ships if its lane is drained.
        quiet.end_quantum(ctx, moved);
        // Quantum end, busy or idle: no staging buffer (local-bypass batch,
        // wire batch) outlives the iteration that filled it.  Last, so that
        // cross-node messages the timeout poll and the quiet flush just
        // emitted leave with this quantum too, not after the nap.
        ctx.flush_local();
        // Node tier: a quantum that moved nothing inbound has time to pump
        // the node's wire itself, so what it just shipped leaves now and
        // what is waiting on the socket is in the downlink next quantum —
        // neither waits for the leader thread to wake.
        if !moved {
            if let Some(helper) = &helper {
                did_work |= helper.help(shared);
            }
        }
        if did_work {
            // A busy iteration spans a whole inbox quantum, so a stash-retry
            // skip counted across busy iterations would starve consumers of
            // stashed envelopes for milliseconds.  Reset it: probes on a busy
            // iteration are amortized by the quantum's work, and the backoff
            // only needs to throttle the microsecond-scale idle spins below.
            ctx.stash_skip = 0;
            idle_rounds = 0;
            continue;
        }
        idle_rounds += 1;
        if throttled || idle_rounds <= IDLE_YIELDS {
            // Throttled is not idle: the stash is waiting on consumers, who
            // need this CPU — yield, but never escalate into naps that would
            // leave the producer asleep after its rings drain.
            std::thread::yield_now();
        } else {
            let doublings = (idle_rounds - IDLE_YIELDS - 1).min(IDLE_NAP_MAX_DOUBLINGS);
            let nap = IDLE_NAP * (1 << doublings);
            match &helper {
                Some(helper) => helper.nap(nap),
                None => std::thread::sleep(nap),
            }
        }
    }
}

/// Failure containment for a panicked mesh worker.
///
/// The application state is gone, but simply exiting the thread would wedge
/// the run: peers' slabs would never get their refcount decrements, spent
/// storage would stop coming home, full rings towards this worker would back
/// senders' stashes up forever.  So the quarantined worker stays on the data
/// plane — draining rings, maintaining slab refcounts, returning spent
/// storage — and merely skips delivery, counting every undeliverable item
/// into the shared dropped ledger.  Once `sent == delivered + dropped` and
/// all survivors are done, the monitor ends the run `Aborted`.
fn quarantine(shared: &Shared, me: WorkerId, ctx: &mut NativeWorkerCtx<'_>) {
    let workers = shared.topo.total_workers() as usize;
    let mesh = &shared.plane;
    let me_i = me.idx();
    // Drop unshipped production (all of it already counted sent), then push
    // out the process-shared PP buffers: items this worker inserted there
    // must reach their group receiver, and no sibling is guaranteed to
    // flush again after our last insert.  For worker-private schemes the
    // flush is a no-op (the aggregator was just abandoned).
    ctx.pending_dropped += ctx.abandon_production();
    ctx.flush();
    // The PP flush above may have emitted cross-node messages into the wire
    // buffer (the group receiver can live on another node); ship them — a
    // quarantined worker forwards, it only stops delivering.
    ctx.ship_wire();
    ctx.publish_sent();
    ctx.publish_dropped();
    let mut beats = shared.heartbeats[me_i].load(Ordering::Relaxed);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        // Keep the heartbeat alive: quarantined is contained, not stalled.
        beats += 1;
        shared.heartbeats[me_i].store(beats, Ordering::Relaxed);
        shared.stash_depth[me_i].store(ctx.stash_len as u64, Ordering::Relaxed);
        ctx.refresh_now();
        let mut did_work = ctx.flush_stash();
        did_work |= ctx.flush_wire_stash();
        did_work |= ctx.flush_pending_returns();
        for dst in 0..workers {
            while let Some(spent) = mesh.return_ring(me_i, dst).pop() {
                ctx.reclaim_spent(spent);
                did_work = true;
            }
        }
        for src in 0..workers {
            while let Some(envelope) = mesh.ring(src, me_i).pop() {
                ctx.pending_dropped += ctx.drop_envelope(src, envelope);
                did_work = true;
            }
        }
        // Cross-node traffic the leader regrouped for this (now dead)
        // worker: undeliverable, so it joins the dropped ledger like any
        // other inbound envelope.
        if let Some(plane) = &shared.node_plane {
            while let Some(batch) = plane.downlink[me_i].pop() {
                ctx.pending_dropped += batch.len() as u64;
                ctx.retain_spare(batch);
                did_work = true;
            }
        }
        // Publish strictly after the drops they account for (the monitor's
        // conservation check reads dropped like delivered).
        ctx.publish_dropped();
        if !did_work {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Process one envelope popped from the ring of source worker `src`.
fn handle_envelope(
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    receiver: &mut PooledReceiver<Payload>,
    src: usize,
    envelope: Envelope,
) {
    match envelope {
        // A worker-addressed raw batch: local-bypass traffic or a slice a
        // peer already grouped for us.  Straight to the handler.
        Envelope::Batch(mut batch) => {
            deliver_batch(app, ctx, &mut batch);
            ctx.return_spent(src, batch);
        }
        // A zero-copy slab message: borrow the items straight out of the
        // owning worker's arena (`src` — slab envelopes always arrive on
        // their owner's ring) and return only the handle.
        Envelope::Slab(sealed) => handle_slab(app, ctx, receiver, src, sealed),
        // A pre-grouped index range of a peer's slab, forwarded by the
        // worker that ran the grouping pass.  Deliver the borrowed
        // sub-slice; the last consumer sends the handle home.
        Envelope::SlabSlice { owner, range } => {
            let shared = ctx.shared;
            let arena = &shared.arenas[owner as usize];
            debug_assert_eq!(arena.generation(range.slab), range.generation);
            // SAFETY: this worker holds the live forwarded range of a sealed
            // slab; the owner cannot reuse it until every consumer finished.
            let items = unsafe { arena.slice(range.slab, range.start, range.len) };
            deliver_slice(app, ctx, items);
            if arena.finish_consumer(range.slab) {
                ctx.return_slab(
                    owner as usize,
                    shmem::SlabHandle {
                        slab: range.slab,
                        len: range.len,
                        generation: range.generation,
                    },
                );
            }
        }
        // An inline single-item message (NoAgg): nothing to group, nothing
        // to return.
        Envelope::Single(item) => {
            debug_assert_eq!(item.dest, ctx.me, "item delivered to wrong worker");
            ctx.latency.record_span(item.created_at_ns, ctx.now_cache);
            app.on_item(item.data, item.created_at_ns, ctx);
            ctx.pending_delivered += 1;
            ctx.count_batch(1);
        }
        Envelope::Message(message) => handle_vec_message(app, ctx, receiver, src, message),
    }
}

/// Process one zero-copy slab envelope from the arena of worker `owner`.
fn handle_slab(
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    receiver: &mut PooledReceiver<Payload>,
    owner: usize,
    sealed: SlabSealed,
) {
    let shared = ctx.shared;
    let arena = &shared.arenas[owner];
    let handle = sealed.handle;
    debug_assert_eq!(arena.generation(handle.slab), handle.generation);
    match sealed.dest {
        // WW: the slab already names its final worker — deliver the whole
        // borrowed slice, zero moves anywhere.
        MessageDest::Worker(_) => {
            // SAFETY: we hold the live handle of a sealed slab (its sole
            // consumers until `finish_consumer` below).
            let items = unsafe { arena.slice(handle.slab, 0, handle.len) };
            deliver_slice(app, ctx, items);
            if arena.finish_consumer(handle.slab) {
                ctx.return_slab(owner, handle);
            }
        }
        // WPs / WsP / PP: this worker owns the grouping pass.  Group the
        // slab *in place* (we are its sole consumer until we forward),
        // deliver our own index range, and forward the peers' ranges as
        // borrowed sub-slices of the same slab — the items never move out.
        MessageDest::Process(p) => {
            debug_assert_eq!(p, ctx.my_proc, "slab routed to wrong process");
            {
                // SAFETY: sole consumer of the sealed slab (no range has
                // been forwarded yet), all `len` slots written before seal.
                let items = unsafe { arena.slice_mut(handle.slab, 0, handle.len) };
                let outcome = receiver.group_ranges(items, sealed.grouped_at_source);
                if outcome.grouping_performed {
                    ctx.tally.grouping_passes += 1;
                    ctx.tally.grouped_items += outcome.item_count as u64;
                }
            }
            let ranges = receiver.take_ranges();
            let me = ctx.me;
            // Register every forwarded consumer *before* any range ships:
            // a forwarded peer may finish before we do.
            let forwards = ranges.iter().filter(|&&(w, _, _)| w != me).count() as u32;
            arena.add_consumers(handle.slab, forwards);
            for &(w, start, len) in &ranges {
                if w == me {
                    // SAFETY: our own range of the sealed slab, stable until
                    // the slab's last consumer finishes.
                    let slice = unsafe { arena.slice(handle.slab, start, len) };
                    deliver_slice(app, ctx, slice);
                } else {
                    ctx.tally.local_forwards += 1;
                    ctx.push_mesh(
                        w,
                        Envelope::SlabSlice {
                            owner: owner as u32,
                            range: SlabRange {
                                slab: handle.slab,
                                start,
                                len,
                                generation: handle.generation,
                            },
                        },
                    );
                }
            }
            receiver.put_ranges(ranges);
            if arena.finish_consumer(handle.slab) {
                ctx.return_slab(owner, handle);
            }
        }
    }
}

/// Process one heap-vector message (the VecPool store, and every arena-miss
/// fallback): the PR 4 delivery path, unchanged.
fn handle_vec_message(
    app: &mut dyn WorkerApp,
    ctx: &mut NativeWorkerCtx<'_>,
    receiver: &mut PooledReceiver<Payload>,
    src: usize,
    message: tramlib::OutboundMessage<Payload>,
) {
    match message.dest {
        // WW / NoAgg: the message already names its final worker.
        MessageDest::Worker(_) => {
            let mut items = message.items;
            deliver_batch(app, ctx, &mut items);
            ctx.return_spent(src, items);
        }
        // WPs / WsP / PP: this worker owns the grouping pass for this
        // source process.  Deliver its own slice inline, forward the
        // peers' slices pre-grouped; the spent message vector goes home
        // to the worker that filled it.
        MessageDest::Process(p) => {
            debug_assert_eq!(p, ctx.my_proc, "message routed to wrong process");
            let mut items = message.items;
            let me = ctx.me;
            let outcome =
                receiver.drain_grouped(&mut items, message.grouped_at_source, |w, mut bucket| {
                    if w == me {
                        deliver_batch(app, ctx, &mut bucket);
                        // Back into the receiver pool for the next pass.
                        Some(bucket)
                    } else {
                        ctx.tally.local_forwards += 1;
                        ctx.push_mesh(w, Envelope::Batch(bucket));
                        None
                    }
                });
            if outcome.grouping_performed {
                ctx.tally.grouping_passes += 1;
                ctx.tally.grouped_items += outcome.item_count as u64;
            }
            ctx.return_spent(src, items);
        }
    }
}
