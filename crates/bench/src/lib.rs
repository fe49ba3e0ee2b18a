//! Figure regeneration for every figure in the paper's evaluation.
//!
//! Each `figNN` function reruns the corresponding experiment on the simulated
//! cluster and returns a [`metrics::Series`] whose columns mirror the lines of
//! the paper's figure.  The `figures` binary writes them as CSV under
//! `target/figures/` and prints aligned text tables; the Criterion benches in
//! `benches/` wrap the same runs at [`Effort::Smoke`] size so `cargo bench`
//! exercises every experiment quickly.
//!
//! **Scaling.**  The paper's runs use up to 64 physical nodes × 64 worker PEs
//! and 1M–8M operations per PE.  Simulating every item on one host at that
//! scale is infeasible, so each effort level scales the per-PE operation count
//! and the buffer size by the same factor (keeping the ratios that determine
//! which scheme wins), and shrinks the node from 64 to 16 workers except where
//! the figure is specifically about the within-node split.  The `figNN`
//! functions below record the exact scaled parameters next to the paper's
//! originals; `docs/DESIGN.md` §4 names the ablations.

pub mod chaos;
pub mod loadgen;
pub mod regression;
pub mod throughput;

use apps::histogram::{run_histogram, HistogramConfig};
use apps::index_gather::{run_index_gather, IndexGatherConfig};
use apps::phold::{run_phold, PholdBenchConfig};
use apps::pingack::{run_pingack, PingAckConfig};
use apps::sssp::{run_sssp, SsspConfig};
use apps::ClusterSpec;
use metrics::Series;
use std::sync::Arc;
use tramlib::Scheme;

/// How big a run to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Tiny runs for `cargo bench` / CI smoke checks (seconds in total).
    Smoke,
    /// The scaled-down-but-faithful runs used to regenerate the figures
    /// (a few minutes in total).
    Paper,
}

impl Effort {
    fn pick<T>(self, smoke: T, paper: T) -> T {
        match self {
            Effort::Smoke => smoke,
            Effort::Paper => paper,
        }
    }

    /// The name used in emitted JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            Effort::Smoke => "smoke",
            Effort::Paper => "paper",
        }
    }
}

/// Assemble a combined benchmark document (`BENCH_*.json`) from named series:
/// `{"suite": .., "effort": .., "series": {name: series, ..}}`.
pub fn suite_json(suite: &str, effort: Effort, series: &[(&str, &metrics::Series)]) -> String {
    let mut out = format!(
        "{{\"suite\":\"{suite}\",\"effort\":\"{}\",\"series\":{{",
        effort.name()
    );
    for (i, (name, s)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
        out.push_str(&s.to_json());
    }
    out.push_str("}}");
    out
}

/// The SMP node shape used by the figure runs: the paper's 8×8 node scaled to
/// 4 processes × 4 workers (16 worker PEs per node).
fn node(nodes: u32) -> ClusterSpec {
    ClusterSpec::smp(nodes, 4, 4)
}

/// Figure 1: ping-pong RTT/2 vs message size between two nodes.
pub fn fig01_pingpong() -> Series {
    apps::pingpong::fig1_series(&net_model::presets::delta_like())
}

/// Figure 3: PingAck total time, SMP (1–32 processes per node) vs non-SMP.
pub fn fig03_pingack(effort: Effort) -> Series {
    let workers_per_node = effort.pick(16, 64);
    let total_messages = effort.pick(8_000, 64_000);
    let proc_counts: Vec<u32> = match effort {
        Effort::Smoke => vec![1, 2, 4],
        Effort::Paper => vec![1, 2, 4, 8, 16],
    };
    let mut series = Series::new(
        "Fig. 3: PingAck on 2 nodes - SMP process counts vs non-SMP",
        "configuration",
    );
    let mut labels: Vec<String> = vec!["non-SMP".to_string()];
    labels.extend(proc_counts.iter().map(|p| format!("SMP {p} proc/node")));
    series.set_x_values(labels);

    let mut values = Vec::new();
    let mut non_smp_cfg = PingAckConfig::new(1, false).with_total_messages(total_messages);
    non_smp_cfg.workers_per_node = workers_per_node;
    non_smp_cfg.messages_per_worker = total_messages / workers_per_node;
    values.push(run_pingack(non_smp_cfg).total_time_secs());
    for &procs in &proc_counts {
        let mut cfg = PingAckConfig::new(procs, true);
        cfg.workers_per_node = workers_per_node;
        cfg.messages_per_worker = total_messages / workers_per_node;
        values.push(run_pingack(cfg).total_time_secs());
    }
    series.add_column("total_time_s", values);
    series
}

/// Shared histogram sweep used by Figures 8, 9 and 11.
fn histogram_time(
    cluster: ClusterSpec,
    scheme: Scheme,
    updates: u64,
    buffer: usize,
    seed: u64,
) -> f64 {
    let cfg = HistogramConfig::new(cluster, scheme)
        .with_updates(updates)
        .with_buffer(buffer)
        .with_seed(seed);
    run_histogram(cfg).total_time_secs()
}

/// Figure 8: histogram (1M updates/PE, scaled) — WPs with different processes
/// per node vs non-SMP, 2–16 nodes.
pub fn fig08_histogram_ppn(effort: Effort) -> Series {
    let workers_per_node = effort.pick(16, 64);
    let updates = effort.pick(2_000, 8_000);
    let buffer = effort.pick(64, 64);
    let nodes: Vec<u32> = effort.pick(vec![2, 4], vec![2, 4, 8]);
    // Paper sweeps ppn (workers per process) 32/16/8/4 inside a 64-worker node;
    // scaled node uses proportional splits.
    let ppn_values: Vec<u32> = effort.pick(vec![8, 4, 2], vec![32, 16, 8, 4]);

    let mut series = Series::new(
        "Fig. 8: Histogram 1M updates/PE (scaled) - WPs workers-per-process sweep vs non-SMP",
        "nodes",
    );
    series.set_x_values(nodes.iter().map(|n| format!("{n}nodes")));
    for &ppn in &ppn_values {
        let mut column = Vec::new();
        for &n in &nodes {
            let cluster = ClusterSpec::smp(n, workers_per_node / ppn, ppn);
            column.push(histogram_time(cluster, Scheme::WPs, updates, buffer, 11));
        }
        series.add_column(format!("WPs (ppn {ppn})"), column);
    }
    let mut non_smp = Vec::new();
    for &n in &nodes {
        let cluster = ClusterSpec::non_smp(n, workers_per_node);
        non_smp.push(histogram_time(cluster, Scheme::WW, updates, buffer, 11));
    }
    series.add_column("non-SMP", non_smp);
    series
}

/// Figure 9: histogram (1M updates/PE, scaled) — all schemes, 2–64 nodes.
pub fn fig09_histogram_schemes(effort: Effort) -> Series {
    let updates = effort.pick(2_000, 8_000);
    let buffer = effort.pick(64, 64);
    let nodes: Vec<u32> = effort.pick(vec![2, 4], vec![2, 4, 8, 16, 32, 64]);
    let mut series = Series::new(
        "Fig. 9: Histogram 1M updates/PE (scaled) - schemes vs node count",
        "nodes",
    );
    series.set_x_values(nodes.iter().map(|n| format!("{n}nodes")));
    for scheme in [Scheme::WW, Scheme::WPs, Scheme::PP, Scheme::WsP] {
        let column = nodes
            .iter()
            .map(|&n| histogram_time(node(n), scheme, updates, buffer, 13))
            .collect();
        series.add_column(scheme.label(), column);
    }
    let non_smp = nodes
        .iter()
        .map(|&n| histogram_time(ClusterSpec::non_smp(n, 16), Scheme::WW, updates, buffer, 13))
        .collect();
    series.add_column("non-SMP", non_smp);
    series
}

/// Figure 10: histogram — varying buffer size at a fixed node count.
pub fn fig10_buffer_size(effort: Effort) -> Series {
    let nodes = effort.pick(2, 8);
    let updates = effort.pick(2_000, 8_000);
    // Paper sweeps 512..4096 with 1M updates; scaled sweep keeps the same
    // updates-to-buffer ratios.
    let buffers: Vec<usize> = effort.pick(vec![16, 32, 64], vec![32, 64, 128, 256]);
    let mut series = Series::new(
        "Fig. 10: Histogram 1M updates/PE (scaled) - buffer size sweep",
        "buffer_items",
    );
    series.set_x_values(buffers.iter().map(|b| format!("{b}-buffer")));
    for scheme in [Scheme::WW, Scheme::WPs, Scheme::PP] {
        let column = buffers
            .iter()
            .map(|&b| histogram_time(node(nodes), scheme, updates, b, 17))
            .collect();
        series.add_column(scheme.label(), column);
    }
    series
}

/// Figure 11: histogram with few updates per PE (flush-dominated regime).
pub fn fig11_histogram_small(effort: Effort) -> Series {
    let updates = effort.pick(500, 2_000);
    let nodes: Vec<u32> = effort.pick(vec![2, 4], vec![2, 4, 8, 16]);
    let mut series = Series::new(
        "Fig. 11: Histogram 128K updates/PE (scaled) - flush-dominated regime",
        "nodes",
    );
    series.set_x_values(nodes.iter().map(|n| format!("{n}nodes")));
    // Paper: WW uses a 512 buffer, the rest 1024 (tuned per scheme); scaled.
    for (scheme, buffer) in [
        (Scheme::WW, effort.pick(16usize, 32)),
        (Scheme::WPs, effort.pick(32, 64)),
        (Scheme::PP, effort.pick(32, 64)),
        (Scheme::WsP, effort.pick(32, 64)),
    ] {
        let column = nodes
            .iter()
            .map(|&n| histogram_time(node(n), scheme, updates, buffer, 19))
            .collect();
        series.add_column(format!("{} ({buffer} buffer)", scheme.label()), column);
    }
    series
}

fn ig_run(nodes: u32, scheme: Scheme, requests: u64, buffer: usize) -> smp_sim::RunReport {
    run_index_gather(
        IndexGatherConfig::new(node(nodes), scheme)
            .with_requests(requests)
            .with_buffer(buffer)
            .with_seed(23),
    )
}

/// Figure 12: index-gather request→response latency per scheme.
pub fn fig12_ig_latency(effort: Effort) -> Series {
    let requests = effort.pick(1_000, 8_000);
    let buffer = effort.pick(64, 64);
    let nodes: Vec<u32> = effort.pick(vec![2, 4], vec![2, 4, 8, 16]);
    let mut series = Series::new(
        "Fig. 12: Index-gather 8M requests/PE (scaled) - mean round-trip latency",
        "nodes",
    );
    series.set_x_values(nodes.iter().map(|n| format!("{n}nodes")));
    for scheme in Scheme::HEADLINE {
        let column = nodes
            .iter()
            .map(|&n| ig_run(n, scheme, requests, buffer).mean_app_latency_ns() / 1e9)
            .collect();
        series.add_column(scheme.label(), column);
    }
    series
}

/// Figure 13: index-gather total time per scheme.
pub fn fig13_ig_time(effort: Effort) -> Series {
    let requests = effort.pick(1_000, 8_000);
    let buffer = effort.pick(64, 64);
    let nodes: Vec<u32> = effort.pick(vec![2, 4], vec![2, 4, 8, 16]);
    let mut series = Series::new(
        "Fig. 13: Index-gather 8M requests/PE (scaled) - total time",
        "nodes",
    );
    series.set_x_values(nodes.iter().map(|n| format!("{n}nodes")));
    for scheme in Scheme::HEADLINE {
        let column = nodes
            .iter()
            .map(|&n| ig_run(n, scheme, requests, buffer).total_time_secs())
            .collect();
        series.add_column(scheme.label(), column);
    }
    series
}

fn sssp_reports(
    clusters: &[ClusterSpec],
    schemes: &[Scheme],
    vertices: u32,
    degree: u32,
    buffer: usize,
) -> Vec<Vec<smp_sim::RunReport>> {
    let graph = Arc::new(graph::generate::uniform(vertices, degree, 101));
    schemes
        .iter()
        .map(|&scheme| {
            clusters
                .iter()
                .map(|&cluster| {
                    run_sssp(SsspConfig::new(cluster, scheme, graph.clone()).with_buffer(buffer))
                })
                .collect()
        })
        .collect()
}

/// The y-value of Figs. 15 and 17: wasted updates per reached vertex.
///
/// The denominator is fixed by the graph and the source, so the value moves
/// only with the number of stale updates — what a scheme's item latency
/// changes.  Wasted updates per *relaxation* does not: every relaxation
/// sends one update per out-edge, and every update that arrives either
/// relaxes or is wasted, so that ratio is the relaxed vertices' mean
/// out-degree minus one (≈ 7 at degree 8) for every scheme.
pub fn wasted_per_reached(report: &smp_sim::RunReport) -> f64 {
    report.counter("sssp_wasted_updates") as f64 / report.counter("sssp_reached").max(1) as f64
}

/// The runs behind Figs. 14 and 15: the process counts of the x-axis and one
/// report per (scheme, process count).
fn fig14_15_runs(effort: Effort, schemes: &[Scheme]) -> (Vec<u32>, Vec<Vec<smp_sim::RunReport>>) {
    let vertices = effort.pick(20_000, 120_000);
    let degree = 8;
    let buffer = effort.pick(64, 128);
    // Paper x-axis: 8 / 16 / 32 processes.
    let proc_counts: Vec<u32> = effort.pick(vec![4, 8], vec![8, 16, 32]);
    let clusters: Vec<ClusterSpec> = proc_counts
        .iter()
        .map(|&p| ClusterSpec::smp((p / 4).max(1), 4.min(p), 4))
        .collect();
    let reports = sssp_reports(&clusters, schemes, vertices, degree, buffer);
    (proc_counts, reports)
}

/// Figures 14 & 15: SSSP on a small graph — time and normalized wasted updates
/// ([`wasted_per_reached`]) as the number of processes grows.
pub fn fig14_15_sssp_small(effort: Effort) -> (Series, Series) {
    let schemes = [Scheme::WW, Scheme::WPs, Scheme::PP];
    let (proc_counts, reports) = fig14_15_runs(effort, &schemes);

    let mut time = Series::new("Fig. 14: SSSP small graph - total time", "processes");
    let mut wasted = Series::new(
        "Fig. 15: SSSP small graph - wasted updates (normalized)",
        "processes",
    );
    let labels: Vec<String> = proc_counts.iter().map(|p| p.to_string()).collect();
    time.set_x_values(labels.clone());
    wasted.set_x_values(labels);
    for (si, scheme) in schemes.iter().enumerate() {
        time.add_column(
            scheme.label(),
            reports[si].iter().map(|r| r.total_time_secs()).collect(),
        );
        wasted.add_column(
            scheme.label(),
            reports[si].iter().map(wasted_per_reached).collect(),
        );
    }
    (time, wasted)
}

/// Figures 16 & 17: SSSP on a large graph — time and wasted updates
/// ([`wasted_per_reached`]), 1–8 nodes.
pub fn fig16_17_sssp_large(effort: Effort) -> (Series, Series) {
    let vertices = effort.pick(40_000, 250_000);
    let degree = 8;
    let buffer = effort.pick(128, 256);
    let nodes: Vec<u32> = effort.pick(vec![1, 2], vec![1, 2, 4, 8]);
    let clusters: Vec<ClusterSpec> = nodes.iter().map(|&n| node(n)).collect();
    let schemes = [Scheme::WW, Scheme::WPs];
    let reports = sssp_reports(&clusters, &schemes, vertices, degree, buffer);

    let mut time = Series::new("Fig. 16: SSSP large graph - total time", "nodes");
    let mut wasted = Series::new(
        "Fig. 17: SSSP large graph - wasted updates (normalized)",
        "nodes",
    );
    let labels: Vec<String> = nodes.iter().map(|n| format!("{n}node")).collect();
    time.set_x_values(labels.clone());
    wasted.set_x_values(labels);
    for (si, scheme) in schemes.iter().enumerate() {
        time.add_column(
            scheme.label(),
            reports[si].iter().map(|r| r.total_time_secs()).collect(),
        );
        wasted.add_column(
            scheme.label(),
            reports[si].iter().map(wasted_per_reached).collect(),
        );
    }
    (time, wasted)
}

/// Figure 18: PHOLD wasted (out-of-order) events per scheme, 2 and 4 processes
/// with wide (paper: 32-worker) processes.
pub fn fig18_phold(effort: Effort) -> Series {
    let workers_per_proc = effort.pick(8, 16);
    let proc_counts: Vec<u32> = vec![2, 4];
    let mut series = Series::new(
        "Fig. 18: PHOLD synthetic - wasted (out-of-order) events",
        "processes",
    );
    series.set_x_values(proc_counts.iter().map(|p| format!("{p}procs")));
    for scheme in Scheme::HEADLINE {
        let column = proc_counts
            .iter()
            .map(|&p| {
                let cluster = ClusterSpec::smp(1.max(p / 2), 2.min(p), workers_per_proc);
                let phold = pdes::PholdConfig {
                    total_lps: cluster.total_workers() as u64 * 8,
                    initial_events_per_lp: effort.pick(8, 32),
                    hops_per_event: effort.pick(4, 16),
                    ..pdes::PholdConfig::default()
                };
                let report = run_phold(
                    PholdBenchConfig::new(cluster, scheme)
                        .with_buffer(effort.pick(64, 256))
                        .with_phold(phold),
                );
                report.counter("phold_ooo_events") as f64 / 1e6
            })
            .collect();
        series.add_column(scheme.label(), column);
    }
    series
}

/// Ablation A1 (§III-A): PingAck total time as the work per received message
/// grows — past the break-even the comm thread stops being the bottleneck.
pub fn ablation_commthread(effort: Effort) -> Series {
    let work_values: Vec<u64> = vec![0, 100, 500, 2_000, 8_000];
    let mut series = Series::new(
        "Ablation A1: PingAck vs work per message (comm-thread break-even)",
        "work_ns_per_msg",
    );
    series.set_x_values(work_values.iter().map(|w| w.to_string()));
    for (label, procs) in [("SMP 1 proc/node", 1u32), ("SMP 4 proc/node", 4)] {
        let column = work_values
            .iter()
            .map(|&work| {
                let mut cfg = PingAckConfig::new(procs, true).with_work_per_message(work);
                cfg.workers_per_node = effort.pick(8, 16);
                cfg.messages_per_worker = effort.pick(200, 1_000);
                run_pingack(cfg).total_time_secs()
            })
            .collect();
        series.add_column(label, column);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_has_paper_shape() {
        let s = fig01_pingpong();
        assert!(s.len() >= 10);
    }

    #[test]
    fn fig03_smoke_shows_comm_thread_bottleneck() {
        let s = fig03_pingack(Effort::Smoke);
        let col = s.column("total_time_s").unwrap();
        // x-axis: [non-SMP, SMP 1, SMP 2, SMP 4]; SMP-1 is the worst and more
        // processes improve it.
        assert!(col[1] > col[0], "SMP 1 proc should be slower than non-SMP");
        assert!(col[3] < col[1], "more processes should improve SMP");
    }

    #[test]
    fn fig09_smoke_has_all_schemes() {
        // The WW-vs-WPs crossover only appears at larger node counts than the
        // smoke sweep reaches (the paper sees it at 32+ nodes); the smoke test
        // just checks the sweep runs for every scheme and produces sane values.
        let s = fig09_histogram_schemes(Effort::Smoke);
        for scheme in ["WW", "WPs", "PP", "WsP", "non-SMP"] {
            let col = s
                .column(scheme)
                .unwrap_or_else(|| panic!("missing {scheme}"));
            assert!(
                col.iter().all(|&v| v > 0.0),
                "{scheme} has non-positive time"
            );
        }
    }

    #[test]
    fn fig12_smoke_latency_ordering() {
        let s = fig12_ig_latency(Effort::Smoke);
        let ww = s.column("WW").unwrap();
        let pp = s.column("PP").unwrap();
        for (w, p) in ww.iter().zip(pp.iter()) {
            assert!(p <= w, "PP latency {p} should not exceed WW {w}");
        }
    }

    #[test]
    fn fig14_15_smoke_consistency() {
        let (time, wasted) = fig14_15_sssp_small(Effort::Smoke);
        assert_eq!(time.len(), wasted.len());
        assert!(time.column("WW").unwrap().iter().all(|&t| t > 0.0));
        assert!(wasted.column("PP").unwrap().iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn fig15_metric_separates_schemes_whose_latency_differs() {
        // Fig. 15's smoke runs, plus NoAgg: the plotted schemes' latencies
        // sit within 2x of each other at this size, NoAgg's do not.  Wherever
        // two schemes' item latencies are more than 2x apart, the plotted
        // waste must tell them apart; the per-relaxation ratio it replaced
        // reads ≈ 7 for every one of them.
        let schemes = [Scheme::WW, Scheme::WPs, Scheme::PP, Scheme::NoAgg];
        let (proc_counts, reports) = fig14_15_runs(Effort::Smoke, &schemes);
        let per_relaxation = |r: &smp_sim::RunReport| {
            r.counter("sssp_wasted_updates") as f64 / r.counter("sssp_relaxations") as f64
        };
        let apart = |a: f64, b: f64, share: f64| (a - b).abs() > share * a.max(b);
        let mut pairs = 0;
        for x in 0..proc_counts.len() {
            for a in 0..schemes.len() {
                for b in a + 1..schemes.len() {
                    let (ra, rb) = (&reports[a][x], &reports[b][x]);
                    let (la, lb) = (ra.item_latency.mean(), rb.item_latency.mean());
                    if !apart(la, lb, 0.5) {
                        continue;
                    }
                    pairs += 1;
                    let label = format!(
                        "{} vs {} at {} procs",
                        schemes[a], schemes[b], proc_counts[x]
                    );
                    let (wa, wb) = (wasted_per_reached(ra), wasted_per_reached(rb));
                    assert!(
                        apart(wa, wb, 0.05),
                        "{label}: latency {la:.0} vs {lb:.0} ns, waste {wa:.3} vs {wb:.3}"
                    );
                    assert!(
                        !apart(per_relaxation(ra), per_relaxation(rb), 0.01),
                        "{label}"
                    );
                }
            }
        }
        assert!(
            pairs > 0,
            "no scheme pair is 2x apart in latency: the test proves nothing"
        );
    }

    #[test]
    fn fig18_smoke_runs() {
        let s = fig18_phold(Effort::Smoke);
        assert_eq!(s.len(), 2);
        assert!(s.column("WW").unwrap().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn ablations_run() {
        let a1 = ablation_commthread(Effort::Smoke);
        assert_eq!(a1.len(), 5);
    }
}
