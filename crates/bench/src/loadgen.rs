//! The latency suite (open-loop load generator): service latency vs offered
//! load, per aggregation scheme, on the native backend.
//!
//! The repo benchmark (`benchmark/`) answers "how fast can the pipeline go"
//! and what its paced median latency is; this suite answers the question the
//! paper's latency-sensitive setting poses across the whole load range: **what does a request's service latency look like while
//! the pipeline is loaded below saturation, and how much offered load can
//! each scheme sustain before blowing a p99 SLO?**  The workload is the
//! keyed service app (`apps::service`): every worker issues requests on a
//! seeded wall-clock arrival schedule (open loop — arrivals do not wait for
//! the runtime), responses route back to the issuer, and latency is measured
//! from the *scheduled* arrival, so falling behind the schedule is paid as
//! latency rather than hidden by back-pressure.
//!
//! The sweep, per scheme:
//!
//! 1. **Calibrate** the scheme's capacity with a saturating closed-loop run
//!    (requests/sec per worker with every arrival due immediately).
//! 2. **Sweep** offered load at fixed fractions of that capacity
//!    (25/50/75/100%), recording p50/p99/p999 service latency — the
//!    latency-vs-offered-load curves.
//! 3. Derive the **max sustained load under SLO**: the highest swept offered
//!    load (requests/sec, whole cluster) whose p99 met the target.  This
//!    scalar is the series the CI regression gate checks — normalized across
//!    schemes, so it is hardware-independent.
//!
//! Calibrating per scheme is what makes the fractions comparable: 50% means
//! "half of what *this* scheme can do", so the curves expose each scheme's
//! latency behaviour at equal relative pressure instead of drowning the slow
//! schemes in overload.
//!
//! Everything here runs on one node of the host machine; on a small CI
//! runner the absolute numbers are dominated by time-slicing, which is why
//! the SLO itself, the derived scalar's load grid, and the gate tolerance
//! are all deliberately coarse.

use crate::Effort;
use apps::common::run_spec;
use apps::service::ServiceConfig;
use apps::ClusterSpec;
use metrics::{LatencySummary, Series};
use runtime_api::{open_loop, Backend, RunReport, RunSpec, SloPolicy};
use tramlib::Scheme;

/// Offered-load fractions of calibrated capacity the sweep measures.
/// The labels are the stable x-axis the regression gate matches on.
const FRACTIONS: [(f64, &str); 4] = [(0.25, "25%"), (0.50, "50%"), (0.75, "75%"), (1.00, "100%")];

/// The cluster each effort level loads: small on purpose — this suite
/// measures latency, and piling more spinning workers onto a small host
/// measures the OS scheduler instead.
fn cluster(effort: Effort) -> ClusterSpec {
    effort.pick(ClusterSpec::smp(1, 1, 2), ClusterSpec::smp(1, 2, 2))
}

/// The p99 SLO the verdicts are judged against.  Coarse by design: on a
/// shared/oversubscribed host, tail latency at *any* load includes scheduler
/// preemption on the order of milliseconds, and the verdicts need to be
/// about queueing (which explodes at saturation and blows any target) rather
/// than about which runner the CI job landed on.
fn slo(_effort: Effort) -> SloPolicy {
    SloPolicy::p99_ms(50)
}

/// Seconds of offered schedule per measured point.
fn duration_secs(effort: Effort) -> f64 {
    effort.pick(0.25, 1.0)
}

/// Conservation + SLO-shape gate on one service run; returns the service
/// latency summary.  Request/response totals must agree on every side of the
/// exchange — the latency numbers of a run that lost items are meaningless.
fn service_summary(context: &str, report: &RunReport) -> LatencySummary {
    assert!(report.clean(), "{context}: run did not finish cleanly");
    let sent = report.counter("svc_requests_sent");
    for counter in ["svc_requests_served", "svc_responses", "svc_table_total"] {
        assert_eq!(
            report.counter(counter),
            sent,
            "{context}: request/response conservation violated ({counter})"
        );
    }
    let latency = report
        .latency
        .unwrap_or_else(|| panic!("{context}: no service latency recorded"));
    assert_eq!(latency.count, sent, "{context}: latency sample count");
    latency
}

/// Saturating closed-loop calibration: the scheme's capacity in requests/sec
/// per worker under the app's default (production) flush policy.  Best of
/// two runs — on a time-sliced host a single run can lose a big slice to
/// unlucky preemption, and an *under*-estimated capacity would silently
/// shift every "fraction of capacity" point of the sweep.
fn calibrate_capacity(effort: Effort, scheme: Scheme) -> f64 {
    let requests = effort.pick(15_000, 60_000);
    let config = ServiceConfig::new(cluster(effort), scheme).with_requests(requests);
    (0..2)
        .map(|_| {
            let report = run_spec(RunSpec::for_app(config).backend(Backend::Native));
            service_summary(&format!("calibrate/{scheme}"), &report);
            requests as f64 / report.total_time_secs().max(1e-9)
        })
        .fold(0.0, f64::max)
}

/// One open-loop measurement: offered `rate` requests/sec per worker for the
/// effort's duration, under the app's default flush policy.  Returns the
/// summary with the smallest p99 of `reps` runs: on a time-sliced host a
/// single scheduler stall during a point blows that run's p99 regardless of
/// the system under test, so the best rep is the one that measured the
/// runtime instead of the OS.
fn open_loop_point(
    effort: Effort,
    scheme: Scheme,
    rate: f64,
    context: &str,
    reps: u32,
) -> LatencySummary {
    let requests = ((rate * duration_secs(effort)) as u64).clamp(500, 2_000_000);
    let config = ServiceConfig::new(cluster(effort), scheme);
    let run_once = || {
        let spec = RunSpec::for_app(config)
            .backend(Backend::Native)
            .load(open_loop(rate).requests(requests))
            .slo(slo(effort));
        service_summary(context, &run_spec(spec))
    };
    (1..reps.max(1))
        .map(|_| run_once())
        .fold(run_once(), |best, next| {
            if next.p99_ns < best.p99_ns {
                next
            } else {
                best
            }
        })
}

/// Everything the latency suite produces.
pub struct LatencySuite {
    /// Median service latency (ms) vs offered-load fraction, per scheme.
    pub p50: Series,
    /// p99 service latency (ms) vs offered-load fraction, per scheme.
    pub p99: Series,
    /// p999 service latency (ms) vs offered-load fraction, per scheme.
    pub p999: Series,
    /// Max swept offered load (requests/sec, whole cluster) whose p99 met
    /// the SLO, per scheme.  **The regression-gated series** (higher is
    /// better, normalized across schemes by the gate).
    pub slo_max_load: Series,
}

/// Run the full latency suite: calibrate, sweep, and derive the SLO scalar.
pub fn latency_suite(effort: Effort) -> LatencySuite {
    let workers = cluster(effort).total_workers() as f64;
    let slo_target_ns = slo(effort).p99_target_ns as f64;

    let percentile_series = |which: &str| {
        let mut s = Series::new(
            format!(
                "Latency: service {which} (ms) vs offered load (fraction of per-scheme capacity)"
            ),
            "offered load",
        );
        s.set_x_values(FRACTIONS.iter().map(|(_, label)| (*label).to_string()));
        s
    };
    let mut p50 = percentile_series("p50");
    let mut p99 = percentile_series("p99");
    let mut p999 = percentile_series("p999");
    let mut slo_max_load = Series::new(
        "Latency: max sustained offered load under the p99 SLO (requests/sec, whole cluster)",
        "derived",
    );
    slo_max_load.set_x_values(["max under SLO".to_string()]);

    // Warm-up: one throwaway closed run so cold-start artifacts (thread
    // stacks, allocator, page cache) do not land on the first scheme.
    let warm = ServiceConfig::new(cluster(effort), Scheme::WW).with_requests(2_000);
    let report = run_spec(RunSpec::for_app(warm).backend(Backend::Native));
    assert!(report.clean(), "warmup run failed");

    for scheme in Scheme::ALL {
        let capacity = calibrate_capacity(effort, scheme);
        let (mut c50, mut c99, mut c999) = (Vec::new(), Vec::new(), Vec::new());
        let mut max_under_slo = 0.0f64;
        for (fraction, label) in FRACTIONS {
            let rate = fraction * capacity;
            let summary =
                open_loop_point(effort, scheme, rate, &format!("sweep/{scheme}/{label}"), 2);
            c50.push(summary.p50_ns / 1e6);
            c99.push(summary.p99_ns / 1e6);
            c999.push(summary.p999_ns / 1e6);
            if summary.p99_ns <= slo_target_ns {
                max_under_slo = max_under_slo.max(rate * workers);
            }
        }
        p50.add_column(scheme.label(), c50);
        p99.add_column(scheme.label(), c99);
        p999.add_column(scheme.label(), c999);
        slo_max_load.add_column(scheme.label(), vec![max_under_slo]);
    }

    LatencySuite {
        p50,
        p99,
        p999,
        slo_max_load,
    }
}

/// Assemble the combined `BENCH_latency.json` document from named series.
pub fn latency_json(effort: Effort, series: &[(&str, &Series)]) -> String {
    crate::suite_json("latency", effort, series)
}

/// Write the combined document to `path`, creating parent directories.
pub fn write_latency_json(
    path: &std::path::Path,
    effort: Effort,
    series: &[(&str, &Series)],
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, latency_json(effort, series))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_open_loop_point_conserves_and_summarises() {
        // A single cheap point through the whole plumbing: conservation
        // gates, latency summary, SLO stamp.
        let summary = open_loop_point(Effort::Smoke, Scheme::WPs, 100_000.0, "test-point", 1);
        assert!(summary.count >= 500 * 2);
        assert!(summary.p99_ns >= summary.p50_ns);
        assert!(summary.slo.is_some(), "sweep points carry the SLO verdict");
    }

    #[test]
    fn json_document_is_well_formed() {
        let mut s = Series::new("t", "x");
        s.set_x_values(["a".to_string()]);
        s.add_column("WW", vec![1.0]);
        let json = latency_json(Effort::Smoke, &[("slo_max_load", &s)]);
        let parsed = crate::regression::json::parse(&json).expect("parse");
        assert_eq!(
            parsed.get("suite").and_then(|v| v.as_str()),
            Some("latency")
        );
        assert!(parsed
            .get("series")
            .and_then(|s| s.get("slo_max_load"))
            .is_some());
    }
}
