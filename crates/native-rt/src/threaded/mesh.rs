//! The worker loop over the delivery mesh: direct worker↔worker SPSC rings,
//! no central thread on the data path.
//!
//! Each worker drains its column of the N×N envelope grid (one bounded SPSC
//! ring per source worker, plus its downlink from the node leader on the
//! node tier) and hands every envelope to [`crate::envelope`], the receive
//! path both native engines share: it runs the grouping pass *locally*,
//! delivers this worker's items inline and forwards process peers' ranges as
//! slice descriptors over its own row.  The last consumer of a slab releases
//! it straight into the arena of the worker that owns it — a lock-free
//! free-list push, safe from any thread.
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
use runtime_api::{RunCtx, WorkerApp};
use shmem::SpscRing;

use super::faults::ActiveFaults;
use super::{NativeWorkerCtx, Shared, WorkerOutput};
use crate::envelope::{handle_envelope, Envelope};
use crate::quantum::QuietTracker;
use crate::sizing::{INBOX_BUDGET, STASH_THROTTLE};

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

/// One worker PE on the mesh: retry stashed pushes, drain inbox rings,
/// generate work, ship partial buffers on quiet quanta, back off.
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
        mesh_loop(shared, me, app.as_mut(), &mut ctx, &mut faults);
    }));
    let panicked = match outcome {
        Ok(()) => false,
        Err(payload) => {
            shared.record_panic(me.0, crate::monitor::panic_message(payload.as_ref()));
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
    ctx.export_counters();
    let batch_len = ctx.take_batch_len();
    let mut tram = ctx.pp_stats;
    if let Some(agg) = &ctx.aggregator {
        tram.merge(agg.stats());
    }
    // `send` decides the bypass before tramlib, so the engine's tally is
    // the bypass count.
    tram.record_local_bypass_items(ctx.tally.local_deliveries);
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
    faults: &mut Option<ActiveFaults>,
) {
    let me_i = me.idx();
    let mut idle_rounds = 0u32;
    let mut quiet = QuietTracker::new(shared.tram.flush_policy.on_idle);
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
        // Envelopes parked on a full uplink ring (nobody pumped the node yet)
        // are retried like the mesh stash: a sender never blocks on its
        // leader.
        did_work |= ctx.flush_wire_stash();
        // A ring-burst fault closes the inbox for its window: senders back up
        // into their stashes, exercising the backpressure path end to end.
        if !faults.as_ref().is_some_and(ActiveFaults::skip_inbox) {
            for ring in inbox_rings(shared, me_i) {
                // One budgeted drain per source per iteration — a hot source
                // gets the next helping only after every other ring (and the
                // stash retry at the loop top) has had its turn.
                if ring.pop_into(&mut inbox, INBOX_BUDGET) > 0 {
                    for envelope in inbox.drain(..) {
                        handle_envelope(app, ctx, envelope);
                    }
                    did_work = true;
                }
            }
        }
        // A graceful-shutdown request (delivered SIGINT/SIGTERM): stop
        // generating, push everything buffered out exactly once — the same
        // final flush a finished worker performs — and count as done below,
        // so the monitor settles the drained run instead of waiting on load
        // that will never finish.  Delivery and stash retries keep running
        // untouched.
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
        let throttled = ctx.stash_len >= STASH_THROTTLE || ctx.wire_stash.len() >= STASH_THROTTLE;
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
        // Quantum end, busy or idle: no local-bypass batch outlives the
        // iteration that filled it.
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
/// the run: peers' slabs would never get their refcount decrements or be
/// freed, full rings towards this worker would back senders' stashes up
/// forever.  So the quarantined worker stays on the data plane — draining
/// rings, maintaining slab refcounts, freeing the slabs it finishes last —
/// and merely skips delivery, counting every undeliverable item into the
/// shared dropped ledger.  Once `sent == delivered + dropped` and all
/// survivors are done, the monitor ends the run `Aborted`.
fn quarantine(shared: &Shared, me: WorkerId, ctx: &mut NativeWorkerCtx<'_>) {
    let me_i = me.idx();
    // Drop unshipped production (all of it already counted sent), then push
    // out the process-shared PP buffers: items this worker inserted there
    // must reach their group receiver, and no sibling is guaranteed to
    // flush again after our last insert.  For worker-private schemes the
    // flush is a no-op (the aggregator was just abandoned).
    ctx.pending_dropped += ctx.abandon_production();
    ctx.flush();
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
        for ring in inbox_rings(shared, me_i) {
            while let Some(envelope) = ring.pop() {
                ctx.pending_dropped += envelope.discard(|owner| &shared.arenas[owner]);
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

/// Every ring worker `me` consumes: its mesh column, one ring per source
/// worker, then on the node tier its downlink from the node's leader, which
/// carries worker-addressed slabs of the leader's arena (NoAgg: singles).
fn inbox_rings(shared: &Shared, me: usize) -> impl Iterator<Item = &SpscRing<Envelope>> {
    let workers = shared.topo.total_workers() as usize;
    let downlink = shared.node_plane.as_ref().map(|plane| &plane.downlink[me]);
    (0..workers)
        .map(move |src| shared.plane.ring(src, me))
        .chain(downlink)
}
