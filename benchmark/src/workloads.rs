//! The workload table, and how one cell of it is run and checked.
//!
//! A **workload** is one path through the system (backend × scheme × buffer ×
//! bypass × wire).  Every workload has two **cells**, because the paper judges
//! an aggregation scheme on two things:
//!
//! * `saturate` — a closed loop that offers as much as the runtime takes;
//!   gives `items_per_s`;
//! * `paced` — `echo` on an open-loop Poisson schedule at a fixed rate;
//!   gives `p50_us`, measured from each request's scheduled arrival.
//!
//! Item counts are constants of this file and never scaled at run time
//! (`--check` divides them by a fixed 50); `--seconds` decides how many reps
//! of a cell are run, not how big a rep is.

use std::sync::Arc;
use std::time::Instant;

use smp_aggregation::apps::common::RunSpecExt;
use smp_aggregation::apps::histogram::HistogramConfig;
use smp_aggregation::runtime_api::{
    AppSpec, Backend, ClusterSpec, RunOutcome, RunReport, RunSpec, TransportKind,
};
use smp_aggregation::shmem;
use smp_aggregation::tramlib::Scheme;

use crate::echo::{EchoLoad, EchoSpec};
use crate::sink::Sink;
use crate::stats;
use crate::trace::{Event, Trace, Traced};

/// The cluster of every single-node workload: one process of two workers
/// (`nproc` is 2 on the reference host), so every item is same-process.
pub const ONE_PROC: ClusterSpec = ClusterSpec {
    nodes: 1,
    procs_per_node: 1,
    workers_per_proc: 2,
    smp: true,
};

/// The smallest node tier: two nodes of one single-worker process each, plus
/// one leader thread per node — four threads on two cores.
pub const TWO_NODES: ClusterSpec = ClusterSpec {
    nodes: 2,
    procs_per_node: 1,
    workers_per_proc: 1,
    smp: true,
};

/// Where a cell runs.
#[derive(Debug, Clone, Copy)]
pub struct Path {
    pub backend: Backend,
    pub cluster: ClusterSpec,
    pub scheme: Scheme,
    pub buffer: usize,
    /// `None` keeps the default (same-process bypass on).
    pub bypass: Option<bool>,
    pub transport: Option<TransportKind>,
}

/// What a cell offers.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// `apps::histogram`, closed loop, one-way.
    Histogram { updates_per_worker: u64 },
    /// [`crate::echo`], two-way.
    Echo {
        requests_per_worker: u64,
        load: EchoLoad,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub path: Path,
    pub traffic: Traffic,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub saturate: Cell,
    pub paced: Cell,
}

pub(crate) const fn threaded(scheme: Scheme, buffer: usize, bypass: Option<bool>) -> Path {
    Path {
        backend: Backend::Native,
        cluster: ONE_PROC,
        scheme,
        buffer,
        bypass,
        transport: None,
    }
}

pub(crate) const fn process(buffer: usize, bypass: Option<bool>) -> Path {
    Path {
        backend: Backend::Process,
        ..threaded(Scheme::WPs, buffer, bypass)
    }
}

pub(crate) const fn wire(kind: TransportKind) -> Path {
    Path {
        backend: Backend::Native,
        cluster: TWO_NODES,
        scheme: Scheme::WPs,
        buffer: 256,
        bypass: None,
        transport: Some(kind),
    }
}

pub(crate) const fn hist(path: Path, updates_per_worker: u64) -> Cell {
    Cell {
        path,
        traffic: Traffic::Histogram { updates_per_worker },
    }
}

/// Schedule length of every paced rep.  Reps are short on purpose: on a
/// shared 2-core host a rep is either disturbed by a neighbour or not, and
/// the median of ~50 reps of 0.1 s sits on the undisturbed level where the
/// median of 5 reps of 1 s does not (spread between runs 1-2 % against 3-7 %).
const PACED_MS: u64 = 100;

/// `PACED_MS` of Poisson schedule at `rate` requests/s per worker.
pub(crate) const fn paced(path: Path, rate: u64) -> Cell {
    Cell {
        path,
        traffic: Traffic::Echo {
            requests_per_worker: rate * PACED_MS / 1000,
            load: EchoLoad::Open {
                rate_per_worker: rate as f64,
            },
        },
    }
}

pub(crate) const fn closed(path: Path, requests_per_worker: u64, window: u64) -> Cell {
    Cell {
        path,
        traffic: Traffic::Echo {
            requests_per_worker,
            load: EchoLoad::Closed { window },
        },
    }
}

/// Every workload, in the order `BENCHMARK.json` lists them.  The README
/// has the long form of each `why`.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "hist_g512",
        why: "threaded WPs, 512-item buffers: per-item stages (generate, insert, group, kernel apply) set the rate; paced at 4 M req/s/worker buffers fill before the timeout, so latency follows pipeline speed",
        saturate: hist(threaded(Scheme::WPs, 512, Some(false)), 1_500_000),
        paced: paced(threaded(Scheme::WPs, 256, Some(false)), 4_000_000),
    },
    Workload {
        name: "hist_g16",
        why: "threaded WPs, 16-item buffers: 32x the messages, so per-message stages (slab claim/seal/release, ring hop, grouping set-up) set the rate and, paced at 1 M req/s/worker, the latency",
        saturate: hist(threaded(Scheme::WPs, 16, Some(false)), 600_000),
        paced: paced(threaded(Scheme::WPs, 16, Some(false)), 1_000_000),
    },
    Workload {
        name: "hist_process",
        why: "hist_g512's traffic on forked workers: the second engine, Seg* primitives, fork + memfd set-up; an Aggregator change must not move it today, an engine merge must hold it",
        saturate: hist(process(512, Some(false)), 1_500_000),
        paced: paced(process(256, Some(false)), 2_000_000),
    },
    Workload {
        name: "hist_local",
        why: "threaded, default config: every item takes the same-process bypass batches and skips tramlib, so aggregator work predicts no change here",
        saturate: hist(threaded(Scheme::WPs, 512, None), 1_500_000),
        paced: paced(threaded(Scheme::WPs, 256, None), 1_000_000),
    },
    Workload {
        name: "svc_open",
        why: "echo, threaded WPs: two-way traffic with sends from inside the delivery handler; paced at 50 K req/s/worker buffers hold ~12 of 256 items, so latency is flush timeout, polling and idle naps",
        saturate: closed(threaded(Scheme::WPs, 256, Some(false)), 500_000, u64::MAX),
        paced: paced(threaded(Scheme::WPs, 256, Some(false)), 50_000),
    },
    Workload {
        name: "svc_wire",
        why: "echo over the node tier on loopback TCP: 2 nodes x 1 worker + 2 leaders (4 threads on 2 cores), every item crosses the wire; closed loop windowed because saturating the leaders is not repeatable",
        saturate: closed(wire(TransportKind::Tcp), 200_000, 2_048),
        paced: paced(wire(TransportKind::Tcp), 100_000),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Size divisor: 1 for measurement, 50 for `--check`, 4 for warm-up reps.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub u64);

/// One rep's measurements.  `failures` lists every gate the rep broke.
pub struct Rep {
    pub report: RunReport,
    /// Items delivered per second of `total_time_ns`.
    pub items_per_s: f64,
    /// Wall time of `run()` minus `total_time_ns`: spawn/fork, segment and
    /// mesh set-up, join, audits.
    pub setup_s: f64,
    /// Exact latency percentiles of the merged echo samples, in µs.
    pub latency: Option<Latency>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub top: Option<(&'static str, f64)>,
}

fn latency_of(mut samples: Vec<u32>) -> Option<Latency> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let at = |q| f64::from(stats::percentile_sorted(&samples, q)) / 1e3;
    Some(Latency {
        samples: samples.len(),
        p50_us: at(0.5),
        p90_us: at(0.9),
        p99_us: at(0.99),
        top: stats::highest_supported_percentile(samples.len()).map(|(label, q)| (label, at(q))),
    })
}

/// SplitMix64 step: derives per-rep seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `RunSpec` for `app` on `path`, inside the tracing decorator if the rep
/// is traced.
fn spec_for(
    path: &Path,
    app: impl AppSpec + 'static,
    trace: Option<&Arc<Trace>>,
    seed: u64,
) -> RunSpec {
    let spec = match trace {
        Some(trace) => RunSpec::for_app(Traced {
            inner: app,
            trace: Arc::clone(trace),
        }),
        None => RunSpec::for_app(app),
    };
    let mut spec = spec
        .backend(path.backend)
        .cluster(path.cluster)
        .scheme(path.scheme)
        .buffer(path.buffer)
        .seed(seed);
    if let Some(bypass) = path.bypass {
        spec = spec.local_bypass(bypass);
    }
    if let Some(kind) = path.transport {
        spec = spec.transport(kind);
    }
    spec
}

/// A traced rep's extra output.
pub struct TraceOutput {
    pub trace: Arc<Trace>,
    pub run_span: Event,
}

/// Run one rep of `cell` and check it against every gate.
pub fn run_cell(cell: &Cell, seed: u64, scale: Scale, traced: bool) -> (Rep, Option<TraceOutput>) {
    let workers = cell.path.cluster.total_workers() as usize;
    let trace = traced.then(|| Trace::new(workers));
    let mut samples: Option<Arc<Sink<u32>>> = None;
    let spec = match cell.traffic {
        Traffic::Histogram { updates_per_worker } => {
            let app = HistogramConfig::new(cell.path.cluster, cell.path.scheme)
                .with_updates((updates_per_worker / scale.0).max(1));
            spec_for(&cell.path, app, trace.as_ref(), seed)
        }
        Traffic::Echo {
            requests_per_worker,
            load,
        } => {
            let requests_per_worker = (requests_per_worker / scale.0).max(1);
            let sink = Arc::new(Sink::new(workers, requests_per_worker as usize));
            samples = Some(Arc::clone(&sink));
            let app = EchoSpec {
                requests_per_worker,
                load,
                samples: sink,
            };
            spec_for(&cell.path, app, trace.as_ref(), seed)
        }
    };

    let started = Instant::now();
    let (report, run_span) = match &trace {
        Some(trace) => {
            let (report, span) = trace.run_span(|| spec.run());
            (report, Some(span))
        }
        None => (spec.run(), None),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let run_s = report.total_time_ns as f64 / 1e9;

    let merged: Vec<u32> = samples
        .iter()
        .flat_map(|sink| (0..workers).flat_map(|w| sink.values(w).iter().copied()))
        .collect();
    let failures = gate(
        cell,
        &report,
        samples.is_some().then_some(merged.len() as u64),
    );
    let attempted = report.items_sent;
    let failed = if report.outcome == RunOutcome::Clean {
        attempted.saturating_sub(report.items_delivered)
    } else {
        attempted
    };
    let rep = Rep {
        items_per_s: report.items_delivered as f64 / run_s.max(1e-9),
        setup_s: (wall_s - run_s).max(0.0),
        latency: latency_of(merged),
        attempted,
        failed,
        failures,
        report,
    };
    let output = trace
        .zip(run_span)
        .map(|(trace, run_span)| TraceOutput { trace, run_span });
    (rep, output)
}

/// The correctness gate applied to every rep.  `echo_samples` is the number
/// of latency samples read back from the sink (echo cells only).
fn gate(cell: &Cell, report: &RunReport, echo_samples: Option<u64>) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let c = |name| report.counter(name);
    check(
        report.outcome == RunOutcome::Clean,
        format!("outcome is {}, not clean", report.outcome.signature()),
    );
    check(
        report.items_sent == report.items_delivered,
        format!(
            "items_sent {} != items_delivered {}",
            report.items_sent, report.items_delivered
        ),
    );
    check(
        c("arena_claim_misses") == 0,
        format!("arena_claim_misses = {}", c("arena_claim_misses")),
    );
    check(
        c("leaked_slabs") == 0,
        format!("leaked_slabs = {}", c("leaked_slabs")),
    );
    match cell.traffic {
        Traffic::Histogram { .. } => {
            check(
                c("histo_applied") == report.items_sent
                    && c("histo_table_total") == report.items_sent,
                format!(
                    "histo_applied {} / histo_table_total {} != items_sent {}",
                    c("histo_applied"),
                    c("histo_table_total"),
                    report.items_sent
                ),
            );
            check(
                c("histo_sent_checksum") == c("histo_applied_checksum"),
                "histogram sent and applied checksums differ".to_string(),
            );
        }
        Traffic::Echo { .. } => {
            let requests = c("echo_requests");
            check(
                requests > 0
                    && c("echo_served") == requests
                    && c("echo_responses") == requests
                    && echo_samples == Some(requests),
                format!(
                    "echo requests {requests} / served {} / responses {} / samples {:?} differ",
                    c("echo_served"),
                    c("echo_responses"),
                    echo_samples
                ),
            );
            check(
                c("echo_sent_checksum") == c("echo_returned_checksum"),
                "echo sent and returned checksums differ".to_string(),
            );
        }
    }
    if cell.path.backend == Backend::Process {
        match shmem::scan_orphans(&shmem::marker_dir()) {
            Ok(sweep) => check(
                sweep.reclaimed == 0 && sweep.active == 0,
                format!(
                    "scan_orphans found {} orphaned and {} live segment markers",
                    sweep.reclaimed, sweep.active
                ),
            ),
            Err(why) => check(false, format!("scan_orphans: {why}")),
        }
    }
    failures
}

/// The histogram totals two backends must agree on for one scheme and seed.
const HISTO_TOTALS: [&str; 5] = [
    "histo_applied",
    "histo_sent_checksum",
    "histo_applied_checksum",
    "histo_table_total",
    "histo_table_max_bucket",
];

/// Gate: the process backend and the threaded backend, given the same
/// histogram cell and seed, agree on every `histo_*` total.
pub fn cross_backend_gate(
    process_cell: &Cell,
    process_rep: &Rep,
    seed: u64,
    scale: Scale,
) -> Vec<String> {
    let mut threaded_cell = *process_cell;
    threaded_cell.path.backend = Backend::Native;
    let (threaded_rep, _) = run_cell(&threaded_cell, seed, scale, false);
    let mut failures = threaded_rep.failures;
    failures.extend(histo_divergence(
        &threaded_rep.report,
        &process_rep.report,
        seed,
    ));
    failures
}

fn histo_divergence(threaded: &RunReport, process: &RunReport, seed: u64) -> Vec<String> {
    HISTO_TOTALS
        .iter()
        .filter(|name| threaded.counter(name) != process.counter(name))
        .map(|name| {
            format!(
                "{name}: threaded {} != process {} (seed {seed})",
                threaded.counter(name),
                process.counter(name)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_aggregation::metrics::{Counters, LatencyRecorder, QuantileSketch};
    use smp_aggregation::runtime_api::RunDiagnostics;
    use smp_aggregation::tramlib::TramStats;

    /// A clean histogram report of 100 items, with `edit` applied.
    fn histogram_report(edit: impl FnOnce(&mut RunReport, &mut Counters)) -> RunReport {
        let mut counters = Counters::new();
        counters.add("histo_applied", 100);
        counters.add("histo_table_total", 100);
        counters.add("histo_sent_checksum", 7);
        counters.add("histo_applied_checksum", 7);
        let mut report = RunReport {
            backend: Backend::Native,
            total_time_ns: 1_000,
            item_latency: LatencyRecorder::new(),
            latency: None,
            counters: Counters::new(),
            tram: TramStats::new(),
            delivery_batch_len: QuantileSketch::default(),
            events_executed: 0,
            items_sent: 100,
            items_delivered: 100,
            outcome: RunOutcome::Clean,
            node_reports: Vec::new(),
        };
        edit(&mut report, &mut counters);
        report.counters = counters;
        report
    }

    fn broken(edit: impl FnOnce(&mut RunReport, &mut Counters)) -> Vec<String> {
        gate(&WORKLOADS[0].saturate, &histogram_report(edit), None)
    }

    #[test]
    fn a_clean_rep_passes_every_gate() {
        assert_eq!(broken(|_, _| {}), Vec::<String>::new());
    }

    #[test]
    fn a_lost_item_a_leaked_slab_or_an_arena_miss_fails_the_rep() {
        assert!(broken(|r, _| r.items_delivered = 99)[0].contains("items_delivered"));
        assert!(broken(|_, c| c.add("leaked_slabs", 1))[0].contains("leaked_slabs"));
        assert!(broken(|_, c| c.add("arena_claim_misses", 1))[0].contains("arena_claim_misses"));
        assert!(broken(|_, c| c.add("histo_applied", 1))[0].contains("histo_applied"));
        assert!(broken(|_, c| c.add("histo_sent_checksum", 1))[0].contains("checksums"));
        let aborted = RunOutcome::Aborted {
            reason: "watchdog".to_string(),
            diagnostics: RunDiagnostics::default(),
        };
        assert!(broken(|r, _| r.outcome = aborted)[0].contains("not clean"));
        let degraded = RunOutcome::Degraded { faults_injected: 1 };
        assert!(broken(|r, _| r.outcome = degraded)[0].contains("not clean"));
    }

    #[test]
    fn echo_counts_must_all_agree() {
        let echo = |samples: u64, edit: &dyn Fn(&mut Counters)| {
            let report = histogram_report(|_, c| {
                for name in ["echo_requests", "echo_served", "echo_responses"] {
                    c.add(name, 50);
                }
                edit(c);
            });
            gate(&WORKLOADS[0].paced, &report, Some(samples))
        };
        assert!(echo(50, &|_| {}).is_empty());
        assert!(echo(49, &|_| {})[0].contains("samples"));
        assert!(echo(50, &|c| c.add("echo_served", 1))[0].contains("served"));
        assert!(echo(50, &|c| c.add("echo_returned_checksum", 3))[0].contains("checksums"));
    }

    #[test]
    fn threaded_and_process_totals_must_match() {
        let threaded = histogram_report(|_, _| {});
        assert!(histo_divergence(&threaded, &histogram_report(|_, _| {}), 5).is_empty());
        let process = histogram_report(|_, c| c.add("histo_table_total", 1));
        let failures = histo_divergence(&threaded, &process, 5);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("histo_table_total") && failures[0].contains("seed 5"));
    }

    #[test]
    fn per_rep_seeds_differ_and_repeat() {
        assert_eq!(mix(31, 1), mix(31, 1));
        assert_ne!(mix(31, 1), mix(31, 2));
        assert_ne!(mix(31, 1), mix(32, 1));
    }
}
