//! The latency suite: open-loop service latency vs offered load per scheme
//! and the max-sustained-load-under-SLO scalar, emitted as one
//! machine-readable `BENCH_latency.json`.
//!
//! ```text
//! cargo run --release -p bench --bin latency                # full sweep
//! cargo run --release -p bench --bin latency -- --fast      # CI smoke sizes
//! cargo run --release -p bench --bin latency -- --out p     # custom path
//! cargo run --release -p bench --bin latency -- \
//!     --fast --check BENCH_latency.json                     # regression gate
//! ```
//!
//! Every run doubles as a conservation check (request/response totals must
//! agree on every side of the exchange).
//!
//! `--check` compares the fresh `slo_max_load` scalars against the
//! smoke-baseline series embedded in the committed document, normalized
//! across schemes (see `bench::regression`), so the comparison is
//! hardware-independent.
//! Latency percentiles themselves are *not* gated: they are lower-is-better
//! and scheduler-noise-bound on shared runners — the SLO scalar is the
//! stable summary of the same information.

use bench::loadgen::{latency_suite, write_latency_json, LatencySuite};
use bench::regression::{regression_gate, tolerance_from_env_or, TOLERANCE_ENV};
use bench::Effort;
use std::path::PathBuf;

// Fatal CLI errors belong on stderr so piped stdout output stays clean.
#[allow(clippy::print_stderr)]
fn die(path: &std::path::Path, e: std::io::Error) -> ! {
    eprintln!("latency: cannot write {}: {e}", path.display());
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let effort = if args.iter().any(|a| a == "--fast") {
        Effort::Smoke
    } else {
        Effort::Paper
    };
    let out: PathBuf = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_latency.json"));
    let check: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check takes a path").into());

    println!("# smp-aggregation latency suite (effort: {effort:?})\n");

    let suite = latency_suite(effort);
    for series in [&suite.p50, &suite.p99, &suite.p999, &suite.slo_max_load] {
        println!("{}\n", series.to_text());
    }

    let mut series: Vec<(&str, &metrics::Series)> = vec![
        ("latency_p50", &suite.p50),
        ("latency_p99", &suite.p99),
        ("latency_p999", &suite.p999),
        ("slo_max_load", &suite.slo_max_load),
    ];

    // Full runs also embed the smoke-sized baselines the CI regression gate
    // compares against.
    let smoke: Option<LatencySuite> = if effort == Effort::Paper {
        Some(latency_suite(Effort::Smoke))
    } else {
        None
    };
    if let Some(smoke) = &smoke {
        series.push(("latency_p99_smoke", &smoke.p99));
        series.push(("slo_max_load_smoke", &smoke.slo_max_load));
    }

    write_latency_json(&out, effort, &series).unwrap_or_else(|e| die(&out, e));
    println!("request/response conservation held on every run");
    println!("-> {}", out.display());

    if let Some(committed_path) = check {
        let committed = std::fs::read_to_string(&committed_path)
            .unwrap_or_else(|e| panic!("--check: cannot read {}: {e}", committed_path.display()));
        // The gated scalar moves in whole offered-load steps (25% of
        // capacity), hence the wide default; BENCH_REGRESSION_TOLERANCE
        // still overrides.
        let tolerance = tolerance_from_env_or(0.45);
        println!(
            "\n# regression gate vs {} (tolerance {:.0}%, env {TOLERANCE_ENV})",
            committed_path.display(),
            tolerance * 100.0
        );
        let fresh: Vec<(&str, &metrics::Series)> = vec![("slo_max_load", &suite.slo_max_load)];
        let outcome = regression_gate(&committed, &fresh, tolerance)
            .unwrap_or_else(|e| panic!("--check: {e}"));
        for line in &outcome.details {
            println!("  {line}");
        }
        assert!(
            outcome.series_checked == fresh.len() && outcome.checks > 0,
            "regression gate covered {}/{} series ({} comparisons) — the committed \
             document lacks smoke baselines with matching sweep labels",
            outcome.series_checked,
            fresh.len(),
            outcome.checks,
        );
        if !outcome.passed() {
            println!("\nREGRESSION GATE FAILED:");
            for failure in &outcome.failures {
                println!("  {failure}");
            }
            std::process::exit(1);
        }
        println!("regression gate passed ({} comparisons)", outcome.checks);
    }
}
