//! The traced, per-layer pass over one workload.
//!
//! Four parts, all reported under the per-layer names of `catalog`:
//!
//! 1. every layer's public functions in isolation ([`crate::layers`]);
//! 2. the workload's saturate cell, traced and untraced reps alternating:
//!    span self times, report counters, and what tracing itself costs;
//! 3. the workload's paced cell, traced: tails, generator lag, flush reasons
//!    and (on the node tier) wire counters;
//! 4. fixed probe cells that are the same for every workload: the schemes
//!    and paths that are not workloads of their own, run-set-up cost per
//!    backend, and the wire saturation diagnostic.
//!
//! Nothing measured here feeds an end-to-end metric.

use std::path::{Path, PathBuf};

use smp_aggregation::runtime_api::{RunOutcome, TransportKind};
use smp_aggregation::tramlib::Scheme;

use crate::layers::LayerResults;
use crate::measure::Plan;
use crate::stats::{median, median_or_zero, ratio};
use crate::trace::SpanTotals;
use crate::workloads::{
    hist, mix, paced, process, run_cell, threaded, wire, Cell, Rep, Scale, TraceOutput, Workload,
};

/// Traced and untraced reps of the saturate cell (each), and traced reps of
/// the paced cell, at `--seconds 10`.
const SATURATE_PAIRS: usize = 15;
const PACED_REPS: usize = 10;
/// Reps of every fixed probe cell.
const PROBE_REPS: usize = 5;
/// Reps of the wire saturation diagnostic.
const SAT_REPS: usize = 5;

pub struct TracedPass {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub trace_file: Option<PathBuf>,
    pub trace_events: usize,
}

struct Pass {
    out: TracedPass,
    scale: Scale,
    seed: u64,
    salt: u64,
}

impl Pass {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out
            .metrics
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// One rep of `cell`, counted and gated like every other rep.
    fn rep(&mut self, cell: &Cell, traced: bool) -> (Rep, Option<TraceOutput>) {
        self.salt += 1;
        let (rep, trace) = run_cell(
            cell,
            mix(self.seed, 0x7ace_0000 + self.salt),
            self.scale,
            traced,
        );
        self.out.attempted += rep.attempted;
        self.out.failed += rep.failed;
        self.out.failures.extend(rep.failures.iter().cloned());
        (rep, trace)
    }

    /// Median `items_per_s` of `reps` untraced reps of `cell`.
    fn rate(&mut self, cell: &Cell, reps: usize) -> f64 {
        let rates: Vec<f64> = (0..reps)
            .map(|_| self.rep(cell, false).0.items_per_s)
            .collect();
        median(&rates)
    }
}

fn reps_for(plan: Plan, at_ten_seconds: usize) -> usize {
    if plan.single_rep {
        1
    } else {
        ((at_ten_seconds as f64 * plan.seconds / 10.0).round() as usize).max(1)
    }
}

/// `isolated` is [`layers::run`]'s result: the same for every workload, so a
/// pass over all of them takes it once.
pub fn traced_pass(
    workload: &Workload,
    seed: u64,
    plan: Plan,
    out_dir: &Path,
    isolated: &LayerResults,
) -> TracedPass {
    let mut pass = Pass {
        out: TracedPass {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            trace_file: None,
            trace_events: 0,
        },
        scale: plan.scale,
        seed,
        salt: 0,
    };

    pass.out.failures.extend(isolated.failures.iter().cloned());
    let layer = |name: &str| {
        isolated
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    pass.out.metrics.extend(isolated.metrics.iter().copied());

    saturate_part(&mut pass, workload, plan, out_dir, &layer);
    paced_part(&mut pass, workload, plan);
    probe_part(&mut pass, plan);
    pass.out
}

fn saturate_part(
    pass: &mut Pass,
    workload: &Workload,
    plan: Plan,
    out_dir: &Path,
    layer: &dyn Fn(&str) -> f64,
) {
    let cell = &workload.saturate;
    let workers = f64::from(cell.path.cluster.total_workers());
    pass.rep(cell, false); // warm-up
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut spans = SpanTotals::default();
    let (mut run_ns, mut items, mut wire_items, mut wire_messages) = (0u64, 0u64, 0u64, 0u64);
    let (mut grouping_passes, mut local, mut sent, mut claim_misses) = (0u64, 0u64, 0u64, 0u64);
    let mut batch_p50 = Vec::new();
    for pair in 0..reps_for(plan, SATURATE_PAIRS) {
        untraced.push(pass.rep(cell, false).0.items_per_s);
        let (rep, trace) = pass.rep(cell, true);
        traced.push(rep.items_per_s);
        let t = SpanTotals::from_report(&rep.report);
        spans.add(&t);
        let c = |name| rep.report.counter(name);
        run_ns += rep.report.total_time_ns;
        items += rep.report.items_delivered;
        wire_items += c("wire_items");
        wire_messages += c("wire_messages");
        grouping_passes += c("grouping_passes");
        local += c("local_deliveries");
        sent += rep.report.items_sent;
        claim_misses += c("arena_claim_misses");
        if rep.report.delivery_batch_len.count() > 0 {
            batch_p50.push(rep.report.delivery_batch_len.median());
        }
        if pair == 0 {
            if let Some(trace) = trace {
                let workers = cell.path.cluster.total_workers() as usize;
                let file = out_dir.join(format!("trace_{}.json", workload.name));
                let written = std::fs::create_dir_all(out_dir).and_then(|()| {
                    std::fs::write(&file, trace.trace.chrome_json(workers, trace.run_span))
                });
                match written {
                    Ok(()) => {
                        pass.out.trace_events = trace.trace.event_count(workers);
                        pass.out.trace_file = Some(file);
                    }
                    Err(e) => pass
                        .out
                        .failures
                        .push(format!("cannot write {}: {e}", file.display())),
                }
            }
        }
    }

    let per = ratio;
    // Histogram workers generate in `on_idle`; echo workers also generate
    // there, and their handler's sends are replies.
    let gen_ns = per(spans.idle_self_ns(), spans.idle_sends);
    let apply_ns = per(spans.slice_self_ns(), spans.slice_items);
    let send_ns = spans.send_ns();
    let items_per_msg = per(wire_items as f64, wire_messages);
    pass.put("apps.gen_ns", gen_ns);
    pass.put("apps.apply_ns", apply_ns);
    pass.put("native_rt.send_ns", send_ns);
    pass.put(
        "native_rt.runtime_share",
        1.0 - spans.callback_busy_ns() as f64 / (run_ns as f64 * workers).max(1.0),
    );
    pass.put("native_rt.items_per_msg", items_per_msg);
    pass.put(
        "tramlib.fill_ratio",
        items_per_msg / cell.path.buffer as f64,
    );
    pass.put("native_rt.delivery_batch_p50", median_or_zero(&batch_p50));
    pass.put(
        "native_rt.grouping_passes_per_msg",
        per(grouping_passes as f64, wire_messages),
    );
    pass.put("native_rt.local_share", per(local as f64, sent));
    pass.put("shmem.arena_claim_misses", claim_misses as f64);

    // Where the nanoseconds go: the measured wall cost of one item on one
    // worker, minus every stage this benchmark can put a number on.  Stages
    // the app callbacks cover are taken from the trace (generate, send —
    // which contains the insert — and apply — which contains the kernel);
    // the per-message stages outside any callback are taken from the
    // isolated timings, spread over the items a message carried.
    let wall_per_item = per(run_ns as f64 * workers, items);
    let replies_per_item = per(spans.slice_sends as f64, spans.slice_items);
    let per_message = if wire_messages == 0 {
        0.0
    } else {
        (layer("shmem.ring_hop_ns") + layer("shmem.slab_cycle_ns")) / items_per_msg
            + per(grouping_passes as f64, wire_messages) * layer("tramlib.group_ns")
    };
    let generated_share = per(spans.idle_sends as f64, items);
    let attributed =
        generated_share * (gen_ns + send_ns) + apply_ns + replies_per_item * send_ns + per_message;
    pass.put("native_rt.unattributed_ns", wall_per_item - attributed);
    pass.put(
        "native_rt.trace_overhead_share",
        1.0 - median(&traced) / median(&untraced),
    );
}

fn paced_part(pass: &mut Pass, workload: &Workload, plan: Plan) {
    let cell = &workload.paced;
    pass.rep(cell, false); // warm-up
    let (mut p90, mut p99, mut lag_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut timeout_msgs, mut msgs) = (0u64, 0u64);
    let (mut frames, mut shipped, mut retransmits, mut dups, mut hb_misses) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for _ in 0..reps_for(plan, PACED_REPS) {
        let (rep, _) = pass.rep(cell, true);
        if let Some(latency) = rep.latency {
            p90.push(latency.p90_us);
            p99.push(latency.p99_us);
        }
        lag_ms.push(rep.report.counter("echo_max_lag_ns") as f64 / 1e6);
        let tram = rep.report.tram.counters();
        timeout_msgs += tram.get("messages_timeout_flush");
        msgs += rep.report.tram.messages_sent();
        for node in &rep.report.node_reports {
            frames += node.frames_sent;
            shipped += node.items_shipped;
            retransmits += node.retransmits;
            dups += node.duplicates_rejected;
            hb_misses += node.heartbeat_misses;
        }
    }
    let per = |total: u64, count: u64| ratio(total as f64, count);
    pass.put("native_rt.p90_us", median_or_zero(&p90));
    pass.put("native_rt.p99_us", median_or_zero(&p99));
    pass.put("native_rt.sched_lag_ms", median(&lag_ms));
    pass.put("tramlib.timeout_flush_share", per(timeout_msgs, msgs));
    pass.put("transport.items_per_frame", per(shipped, frames));
    pass.put("transport.retransmit_share", per(retransmits, frames));
    pass.put("transport.dup_share", per(dups, frames));
    pass.put("transport.hb_misses", hb_misses as f64);
}

fn probe_part(pass: &mut Pass, plan: Plan) {
    let reps = reps_for(plan, PROBE_REPS);

    // The schemes that are not workloads of their own, on hist_g512's path.
    for (name, scheme, updates) in [
        ("native_rt.items_per_s.WW", Scheme::WW, 1_500_000),
        ("native_rt.items_per_s.WsP", Scheme::WsP, 1_500_000),
        // Both workers insert into one shared claim buffer.  Its rate moves
        // by 40 % with the host's state (which cores the two vCPUs sit on),
        // too much to carry a bound as a workload.
        ("native_rt.items_per_s.PP", Scheme::PP, 350_000),
        // One envelope per item: the ceiling per-message costs impose.
        ("native_rt.noagg_items_per_s", Scheme::NoAgg, 300_000),
    ] {
        let cell = hist(threaded(scheme, 512, Some(false)), updates);
        let rate = pass.rate(&cell, reps);
        pass.put(name, rate);
    }
    // Default config on forked workers: the bypass ships one envelope per
    // item.  Too unsteady between runs (14 %) to be a workload.
    let cell = hist(process(512, None), 400_000);
    let rate = pass.rate(&cell, reps);
    pass.put("native_rt.local_proc_items_per_s", rate);

    // What one `run()` costs before and after the traffic, per backend:
    // wall time of a run that moves two items.
    for (name, cell) in [
        (
            "native_rt.run_overhead_ms.threaded",
            hist(threaded(Scheme::WPs, 512, Some(false)), 1),
        ),
        (
            "native_rt.run_overhead_ms.process",
            hist(process(512, Some(false)), 1),
        ),
        (
            "native_rt.run_overhead_ms.tcp",
            hist(wire(TransportKind::Tcp), 1),
        ),
    ] {
        let walls: Vec<f64> = (0..reps_for(plan, 7))
            .map(|_| {
                let rep = pass.rep(&cell, false).0;
                rep.setup_s * 1e3 + rep.report.total_time_ns as f64 / 1e6
            })
            .collect();
        pass.put(name, median(&walls));
    }

    // Paced echo at 500 K req/s/worker: PP below its knee (its backlog grows
    // without bound at 2 M), and over the wire, where TCP minus the in-memory
    // wire at the same rate isolates frame encode/decode and sockets from
    // the leaders' re-aggregation.
    for (name, path) in [
        (
            "native_rt.p50_us.PP_r500k",
            threaded(Scheme::PP, 256, Some(false)),
        ),
        ("transport.p50_us.tcp_r500k", wire(TransportKind::Tcp)),
        ("transport.p50_us.sim_r500k", wire(TransportKind::Sim)),
    ] {
        let cell = paced(path, 500_000);
        let p50s: Vec<f64> = (0..reps)
            .filter_map(|_| pass.rep(&cell, false).0.latency.map(|l| l.p50_us))
            .collect();
        pass.put(name, median_or_zero(&p50s));
    }

    // Saturating the leaders: a closed-loop histogram across two nodes over
    // TCP.  Not repeatable on a 2-core host (retransmit storms, spurious
    // link cuts), which is why it is a diagnostic outside the failure
    // accounting and not a workload: an unclean rep is counted here, not
    // failed.
    let cell = hist(wire(TransportKind::Tcp), 1_000_000);
    let (mut clean, mut rates, mut retransmits, mut frames) = (0usize, Vec::new(), 0u64, 0u64);
    let sat_reps = reps_for(plan, SAT_REPS);
    for _ in 0..sat_reps {
        pass.salt += 1;
        let (rep, _) = run_cell(
            &cell,
            mix(pass.seed, 0x5a70_0000 + pass.salt),
            pass.scale,
            false,
        );
        if rep.report.outcome == RunOutcome::Clean && rep.failures.is_empty() {
            clean += 1;
            rates.push(rep.items_per_s);
        }
        for node in &rep.report.node_reports {
            retransmits += node.retransmits;
            frames += node.frames_sent;
        }
    }
    pass.put("transport.sat_clean_share", clean as f64 / sat_reps as f64);
    pass.put("transport.sat_items_per_s", median_or_zero(&rates));
    pass.put(
        "transport.sat_retransmit_share",
        ratio(retransmits as f64, frames),
    );
}
