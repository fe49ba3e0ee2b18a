//! The simulator's implementation of the application contract.
//!
//! The [`WorkerApp`](runtime_api::WorkerApp) trait and the [`RunCtx`] context applications are written
//! against live in the `runtime-api` crate (they are backend-agnostic);
//! this module provides [`WorkerCtx`], the simulator's [`RunCtx`]
//! implementation.  All interaction with the simulated cluster happens through
//! it: sending items charges the modelled insertion cost (including the PP
//! atomic/contention cost), flushing routes emitted messages through the comm
//! thread and the α–β network, `charge` advances the worker's busy time, and
//! `now_ns` reports simulated time.

use net_model::{Topology, WorkerId};
use runtime_api::{Payload, RunCtx};
use sim_core::{EventCtx, StreamRng};
use tramlib::Scheme;

use crate::cluster::Cluster;

/// The simulator's runtime context handed to application callbacks.
///
/// A `WorkerCtx` is scoped to one execution quantum of one worker: application
/// CPU time charged through it accumulates into the worker's busy time, and
/// `now_ns` advances accordingly so that items generated later in a quantum
/// carry later creation timestamps.
pub struct WorkerCtx<'a, 'b> {
    pub(crate) cluster: &'a mut Cluster,
    pub(crate) ev: &'a mut EventCtx<Cluster>,
    pub(crate) worker: WorkerId,
    pub(crate) quantum_start_ns: u64,
    pub(crate) charged_ns: u64,
    /// Marker for the borrow of the event context lifetime (the EventCtx type
    /// itself is not lifetime-parameterised).
    pub(crate) _marker: std::marker::PhantomData<&'b ()>,
}

impl WorkerCtx<'_, '_> {
    fn flush_with(
        &mut self,
        op: impl Fn(&mut tramlib::Aggregator<Payload>) -> Vec<tramlib::OutboundMessage<Payload>>,
    ) {
        let scheme = self.cluster.tram.scheme;
        let topo = self.cluster.tram.topology;
        let src_proc = topo.proc_of_worker(self.worker);
        let messages = if scheme == Scheme::PP {
            let agg = self.cluster.procs[src_proc.idx()]
                .shared_aggregator
                .as_mut()
                .expect("PP process aggregator");
            op(agg)
        } else if let Some(agg) = self.cluster.workers[self.worker.idx()].aggregator.as_mut() {
            op(agg)
        } else {
            Vec::new()
        };
        for message in messages {
            let emit = self.now_ns();
            let cpu = self
                .cluster
                .route_outbound(self.ev, src_proc, emit, message);
            self.charged_ns += cpu;
        }
    }
}

impl RunCtx for WorkerCtx<'_, '_> {
    /// The worker this context belongs to.
    fn my_id(&self) -> WorkerId {
        self.worker
    }

    /// The cluster topology.
    fn topology(&self) -> Topology {
        self.cluster.tram.topology
    }

    /// Current simulated time for this worker, in nanoseconds: the quantum
    /// start plus all CPU time charged so far in the quantum.
    fn now_ns(&self) -> u64 {
        self.quantum_start_ns + self.charged_ns
    }

    /// Charge `ns` of application CPU time to this worker.
    fn charge(&mut self, ns: u64) {
        self.charged_ns += ns;
    }

    /// Charge the standard item-generation cost from the cost model.
    fn charge_item_generation(&mut self) {
        self.charged_ns += self.cluster.config.costs.worker.item_generate_ns.round() as u64;
    }

    /// Deterministic RNG stream of this worker.
    fn rng(&mut self) -> &mut StreamRng {
        &mut self.cluster.workers[self.worker.idx()].rng
    }

    /// Add `delta` to a named application counter in the run report.
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.cluster.counters.add(name, delta);
    }

    /// Record an application-level latency sample into the cluster-wide
    /// recorder; the run report summarises it as `RunReport::latency`.
    fn record_app_latency(&mut self, ns: u64) {
        self.cluster.app_latency.record(ns);
    }

    /// Send one item to `dest` through TramLib.  This charges the insertion
    /// cost (including the PP atomic/contention cost), and — when the insertion
    /// fills a buffer — the message-initiation cost and the comm-thread/network
    /// path of the emitted message.
    fn send(&mut self, dest: WorkerId, payload: Payload) {
        let created = self.now_ns();
        self.cluster.items_sent += 1;
        let item = tramlib::Item::new(dest, payload, created);
        let scheme = self.cluster.tram.scheme;
        let costs = self.cluster.config.costs;
        let topo = self.cluster.tram.topology;
        let src_proc = topo.proc_of_worker(self.worker);

        // Charge the insertion cost and perform the insertion.
        let outcome = if scheme == Scheme::PP {
            let contenders = topo.workers_per_proc().saturating_sub(1);
            self.charged_ns += costs.worker.shared_insert_ns(contenders).round() as u64;
            let agg = self.cluster.procs[src_proc.idx()]
                .shared_aggregator
                .as_mut()
                .expect("PP process aggregator");
            agg.insert_at(item, created)
        } else {
            self.charged_ns += costs.worker.buffer_insert_ns.round() as u64;
            let agg = self.cluster.workers[self.worker.idx()]
                .aggregator
                .as_mut()
                .expect("worker aggregator");
            agg.insert_at(item, created)
        };

        if let Some(local) = outcome.local_delivery {
            // Same-process destination: deliver through shared memory.
            self.charged_ns += costs.worker.local_deliver_ns.round() as u64;
            let at = self.now_ns();
            let dest = local.dest;
            let message = tramlib::OutboundMessage {
                dest: tramlib::MessageDest::Worker(dest),
                items: vec![local],
                bytes: 0,
                reason: tramlib::EmitReason::Unaggregated,
                grouped_at_source: true,
            };
            self.cluster.deliver_local(self.ev, dest, message, at);
        }
        if let Some(message) = outcome.message {
            let emit = self.now_ns();
            let cpu = self
                .cluster
                .route_outbound(self.ev, src_proc, emit, message);
            self.charged_ns += cpu;
        }
    }

    /// Explicitly flush this worker's aggregation buffers (for PP, the shared
    /// process-level buffers).  This is the call the benchmarks issue at the
    /// end of their update loops.
    fn flush(&mut self) {
        self.flush_with(|agg| agg.flush());
    }

    /// Idle flush: only flushes if the configured [`tramlib::FlushPolicy`]
    /// enables flushing on idle.
    fn flush_on_idle(&mut self) {
        self.flush_with(|agg| agg.flush_on_idle());
    }
}
