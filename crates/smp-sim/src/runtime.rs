//! The simulation driver: worker wake events and the top-level run loop.

use net_model::WorkerId;
use runtime_api::{Backend, ResolvedRunSpec, RunCtx, RunReport, WorkerApp};
use sim_core::{EventCtx, SimTime, Simulation, StopReason};

use crate::app::WorkerCtx;
use crate::cluster::{Cluster, DeliveryBatch};
use crate::config::EVENT_BUDGET;

/// Execute one wake quantum of `worker`: process one delivered batch, or
/// generate the next chunk of work, then (if appropriate) idle-flush and
/// reschedule.
pub fn wake_worker(cluster: &mut Cluster, ev: &mut EventCtx<Cluster>, worker: WorkerId) {
    let idx = worker.idx();
    cluster.workers[idx].wake_scheduled = false;
    let start_ns = ev.now().as_nanos().max(cluster.workers[idx].busy_until_ns);

    // Take the application out so that the context can borrow the cluster.
    let mut app = cluster.workers[idx]
        .app
        .take()
        .expect("worker application present");
    let batch = cluster.workers[idx].inbox.pop_front();

    let mut ctx = WorkerCtx {
        cluster,
        ev,
        worker,
        quantum_start_ns: start_ns,
        charged_ns: 0,
        _marker: std::marker::PhantomData,
    };

    if let Some(batch) = batch {
        process_batch(&mut *app, &mut ctx, batch);
    }

    // Whenever nothing (more) is queued for delivery, give the application a
    // chance to generate its next chunk of work.
    let mut generated = false;
    if ctx.cluster.workers[idx].inbox.is_empty() && !app.local_done() {
        generated = app.on_idle(&mut ctx);
    }

    // Idle flush: when this worker has nothing delivered and nothing more to
    // generate right now, push out whatever is sitting in its buffers (only if
    // the flush policy allows it).
    let inbox_empty = ctx.cluster.workers[idx].inbox.is_empty();
    if inbox_empty && (app.local_done() || !generated) {
        ctx.flush_on_idle();
    }

    let charged = ctx.charged_ns;
    let has_inbox = !ctx.cluster.workers[idx].inbox.is_empty();
    cluster.workers[idx].app = Some(app);
    cluster.workers[idx].busy_until_ns = start_ns + charged;

    // Keep running if there is delivered work waiting or the app said it has
    // more to generate.
    let more_local = {
        let app_ref = cluster.workers[idx].app.as_ref().expect("app returned");
        !app_ref.local_done() && generated
    };
    if has_inbox || more_local {
        let at = cluster.workers[idx].busy_until_ns;
        cluster.ensure_wake(ev, worker, at);
    }
}

/// Process one delivered batch on `worker`: charge the receive overhead and the
/// grouping pass (if the message was process-addressed and not pre-grouped),
/// execute the handler for items destined to this worker, and forward grouped
/// slices to the other workers of the process.
fn process_batch(app: &mut dyn WorkerApp, ctx: &mut WorkerCtx<'_, '_>, batch: DeliveryBatch) {
    let costs = ctx.cluster.config.costs;
    ctx.charged_ns += batch.recv_overhead_ns;

    let reason = batch.message.reason;
    let plan = ctx.cluster.receiver.process_owned(batch.message);
    if plan.grouping_performed {
        ctx.charged_ns += costs
            .worker
            .grouping_ns(plan.item_count as u64, plan.worker_count as u64)
            .round() as u64;
        ctx.cluster.counters.add("grouping_passes", 1);
        ctx.cluster
            .counters
            .add("grouped_items", plan.item_count as u64);
    }

    let my_id = ctx.worker;
    let handler_ns = costs.worker.item_handler_ns.round() as u64;
    let local_deliver_ns = costs.worker.local_deliver_ns.round() as u64;

    for (dest, mut items) in plan.per_worker {
        if dest == my_id {
            // Items for this worker: charge the handler cost and record the
            // delivery latency per item (the same per-item cost sequence the
            // per-item delivery path charged), then run the handlers through
            // the slice-based entry point — one borrowed batch, no item
            // moves.
            for item in items.iter() {
                ctx.charged_ns += handler_ns;
                let now = ctx.now_ns();
                ctx.cluster.items_delivered += 1;
                ctx.cluster.latency.record_span(item.created_at_ns, now);
            }
            app.on_item_slice(&items, ctx);
            items.clear();
            // The spent batch refills an aggregation buffer on this worker's
            // next drain (or the receiver's next grouping pass).
            ctx.cluster.recycle_items(my_id, items);
        } else {
            // Items for a peer worker in this process: pay a local delivery and
            // hand them over as a pre-grouped worker-addressed batch.
            ctx.charged_ns += local_deliver_ns;
            let at = ctx.now_ns();
            let message = tramlib::OutboundMessage {
                dest: tramlib::MessageDest::Worker(dest),
                items,
                bytes: 0,
                reason,
                grouped_at_source: true,
            };
            ctx.cluster.deliver_local(ctx.ev, dest, message, at);
        }
    }
}

/// Build a cluster from `run` and one application instance per worker, run
/// it to completion (event queue drained) and return the report.
///
/// `run` must be a [`Backend::Sim`] spec: [`runtime_api::RunSpec::resolve`]
/// checked its options against this backend.  `make_app` is called once per
/// worker in worker-id order.
pub fn run_cluster(
    run: &ResolvedRunSpec,
    mut make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    assert_eq!(
        run.backend,
        Backend::Sim,
        "run_cluster runs simulator specs"
    );
    let cluster = Cluster::new(run, &mut make_app);
    let topo = cluster.tram.topology;
    let mut sim = Simulation::new(cluster);
    sim.set_event_budget(EVENT_BUDGET);

    // Start every worker: call on_start, then schedule its first wake.
    for w in topo.all_workers() {
        sim.schedule_at(SimTime::ZERO, move |cluster: &mut Cluster, ev| {
            let mut app = cluster.workers[w.idx()].app.take().expect("app");
            let mut ctx = WorkerCtx {
                cluster,
                ev,
                worker: w,
                quantum_start_ns: 0,
                charged_ns: 0,
                _marker: std::marker::PhantomData,
            };
            app.on_start(&mut ctx);
            let charged = ctx.charged_ns;
            cluster.workers[w.idx()].app = Some(app);
            cluster.workers[w.idx()].busy_until_ns = charged;
            cluster.ensure_wake(ev, w, charged);
        });
    }

    let stop = sim.run();
    let finished = stop == StopReason::QueueEmpty;
    let total_time_ns = sim.now().as_nanos();
    let events_executed = sim.events_executed();
    let mut cluster = sim.into_state();

    // Give every application a chance to publish its final state (distances,
    // PDES statistics, checksums) into the counters.
    for idx in 0..cluster.workers.len() {
        if let Some(mut app) = cluster.workers[idx].app.take() {
            app.on_finalize(&mut cluster.counters);
            cluster.workers[idx].app = Some(app);
        }
    }

    crate::report::from_cluster(cluster, total_time_ns, events_executed, finished)
}
