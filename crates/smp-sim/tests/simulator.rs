//! Integration tests of the SMP cluster simulator with a small synthetic
//! all-to-all application, covering conservation of items, determinism,
//! scheme behaviour and SMP vs non-SMP execution.

use net_model::WorkerId;
use runtime_api::{AppDefaults, AppFactory, AppSpec, ClusterSpec, ResolvedRunSpec, RunSpec};
use smp_sim::{run_cluster, Payload, RunCtx, RunReport, WorkerApp};
use tramlib::Scheme;

/// Every worker sends `updates` items to uniformly random destination workers,
/// then flushes.  Received items bump a counter.
struct RandomUpdates {
    me: WorkerId,
    remaining: u64,
    chunk: u64,
    received: u64,
    flushed: bool,
}

impl RandomUpdates {
    fn new(me: WorkerId, updates: u64) -> Self {
        Self {
            me,
            remaining: updates,
            chunk: 64,
            received: 0,
            flushed: false,
        }
    }
}

impl WorkerApp for RandomUpdates {
    fn on_item(&mut self, _item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        self.received += 1;
        ctx.counter("app_received", 1);
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.remaining == 0 {
            if !self.flushed {
                ctx.flush();
                self.flushed = true;
            }
            return false;
        }
        let n = self.chunk.min(self.remaining);
        let total = ctx.total_workers();
        for _ in 0..n {
            ctx.charge_item_generation();
            let dest = WorkerId(ctx.rng().below(total as u64) as u32);
            ctx.send(dest, Payload::new(self.me.0 as u64, 1));
        }
        self.remaining -= n;
        if self.remaining == 0 && !self.flushed {
            ctx.flush();
            self.flushed = true;
        }
        true
    }

    fn local_done(&self) -> bool {
        self.remaining == 0
    }
}

/// `RandomUpdates` of this many items on every worker, as an [`AppSpec`].
struct Updates(u64);

impl AppSpec for Updates {
    fn name(&self) -> &'static str {
        "random-updates"
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults::default()
    }

    fn factory(&self, _run: &ResolvedRunSpec) -> AppFactory {
        let updates = self.0;
        Box::new(move |w| Box::new(RandomUpdates::new(w, updates)))
    }
}

fn run(scheme: Scheme, topo: ClusterSpec, updates: u64, buffer: usize, seed: u64) -> RunReport {
    let spec = RunSpec::for_app(Updates(updates))
        .scheme(scheme)
        .cluster(topo)
        .buffer(buffer)
        .seed(seed);
    let run = spec.resolve().expect("a valid simulator spec");
    run_cluster(&run, spec.app().factory(&run))
}

#[test]
fn all_items_delivered_every_scheme() {
    let topo = ClusterSpec::smp(2, 2, 4); // 16 workers
    let updates = 500;
    for scheme in Scheme::ALL {
        let report = run(scheme, topo, updates, 32, 7);
        let expected = updates * topo.total_workers() as u64;
        assert!(report.clean(), "{scheme}: run did not finish cleanly");
        assert_eq!(
            report.items_sent, expected,
            "{scheme}: wrong number of items sent"
        );
        assert_eq!(
            report.items_delivered, expected,
            "{scheme}: items lost or duplicated"
        );
        assert_eq!(report.counter("app_received"), expected);
        assert!(report.total_time_ns > 0);
        assert!(report.item_latency.count() > 0);
    }
}

#[test]
fn runs_are_deterministic() {
    let topo = ClusterSpec::smp(2, 2, 2);
    let a = run(Scheme::WPs, topo, 300, 16, 42);
    let b = run(Scheme::WPs, topo, 300, 16, 42);
    assert_eq!(a.total_time_ns, b.total_time_ns);
    assert_eq!(a.counter("wire_messages"), b.counter("wire_messages"));
    assert_eq!(a.events_executed, b.events_executed);
    assert_eq!(a.item_latency.count(), b.item_latency.count());
    assert!((a.item_latency.mean() - b.item_latency.mean()).abs() < 1e-9);

    let c = run(Scheme::WPs, topo, 300, 16, 43);
    assert_ne!(
        a.total_time_ns, c.total_time_ns,
        "different seeds should give different traffic patterns"
    );
}

#[test]
fn aggregation_reduces_wire_messages() {
    let topo = ClusterSpec::smp(2, 2, 4);
    let none = run(Scheme::NoAgg, topo, 400, 64, 3);
    let agg = run(Scheme::WPs, topo, 400, 64, 3);
    assert!(
        agg.counter("wire_messages") * 10 < none.counter("wire_messages"),
        "aggregation should cut message count by >10x: agg={} none={}",
        agg.counter("wire_messages"),
        none.counter("wire_messages")
    );
    assert!(
        agg.total_time_ns < none.total_time_ns,
        "for fine-grained all-to-all, aggregation should reduce total time"
    );
}

#[test]
fn ww_sends_more_flush_messages_than_wps() {
    // Few updates spread over many destinations: WW has one buffer per
    // destination worker, so its final flush produces far more messages.
    let topo = ClusterSpec::smp(2, 2, 8); // 32 workers, 4 procs
    let ww = run(Scheme::WW, topo, 300, 256, 11);
    let wps = run(Scheme::WPs, topo, 300, 256, 11);
    assert!(
        ww.counter("wire_messages") > wps.counter("wire_messages"),
        "WW={} should exceed WPs={}",
        ww.counter("wire_messages"),
        wps.counter("wire_messages")
    );
    assert!(ww.tram.messages_flushed() > wps.tram.messages_flushed());
}

#[test]
fn pp_latency_below_wps_below_ww() {
    // Streaming pattern with big buffers relative to the per-destination rate:
    // the faster a buffer fills, the lower the item latency.  PP (whole process
    // shares the buffer) < WPs (per-worker, per-dest-process) < WW (per-worker,
    // per-dest-worker).
    let topo = ClusterSpec::smp(2, 2, 4);
    let ww = run(Scheme::WW, topo, 2_000, 64, 5);
    let wps = run(Scheme::WPs, topo, 2_000, 64, 5);
    let pp = run(Scheme::PP, topo, 2_000, 64, 5);
    let (lw, lp, lpp) = (
        ww.item_latency.mean(),
        wps.item_latency.mean(),
        pp.item_latency.mean(),
    );
    assert!(
        lpp < lp && lp < lw,
        "expected PP < WPs < WW item latency, got PP={lpp} WPs={lp} WW={lw}"
    );
}

#[test]
fn smp_single_process_slower_than_non_smp() {
    // The §III-A comm-thread bottleneck: 16 workers behind ONE comm thread are
    // slower than 16 single-worker processes driving the NIC themselves.
    let workers_per_node = 16;
    let updates = 1_000;
    let smp1 = {
        let topo = ClusterSpec::smp(2, 1, workers_per_node);
        run(Scheme::WW, topo, updates, 8, 9)
    };
    let non_smp = {
        let topo = ClusterSpec::non_smp(2, workers_per_node);
        run(Scheme::WW, topo, updates, 8, 9)
    };
    assert!(
        smp1.total_time_ns > non_smp.total_time_ns,
        "single-process SMP ({}) should be slower than non-SMP ({})",
        smp1.total_time_ns,
        non_smp.total_time_ns
    );

    // More processes per node (more comm threads) closes the gap.
    let smp4 = {
        let topo = ClusterSpec::smp(2, 4, workers_per_node / 4);
        run(Scheme::WW, topo, updates, 8, 9)
    };
    assert!(
        smp4.total_time_ns < smp1.total_time_ns,
        "4 processes/node ({}) should beat 1 process/node ({})",
        smp4.total_time_ns,
        smp1.total_time_ns
    );
}

#[test]
fn bigger_buffers_fewer_messages() {
    let topo = ClusterSpec::smp(2, 2, 4);
    let small = run(Scheme::WPs, topo, 2_000, 16, 21);
    let large = run(Scheme::WPs, topo, 2_000, 256, 21);
    assert!(large.counter("wire_messages") < small.counter("wire_messages"));
    // Larger buffers increase item latency (items wait longer for the buffer
    // to fill).
    assert!(large.item_latency.mean() > small.item_latency.mean());
}

#[test]
fn report_summary_contains_key_fields() {
    let topo = ClusterSpec::smp(2, 1, 2);
    let report = run(Scheme::WPs, topo, 100, 16, 1);
    let s = report.summary();
    assert!(s.contains("time="));
    assert!(s.contains("wire_msgs="));
    assert!(report.total_time_secs() > 0.0);
}
