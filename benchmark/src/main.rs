//! The repo's benchmark: one layered, noise-bounded measurement of every
//! path (threaded, process, wire), plus a traced per-layer pass.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one pass; the last stdout line is the result object
//! benchmark [--seed <n>] [--seconds <s>]
//!     every workload, both passes, every metric by name
//! benchmark --check
//!     every workload at 1/50 size, one rep, all gates on (under 15 s)
//! benchmark --aa [--runs <n>] [--seconds <s>]
//!     two series of <n> runs per workload on this build: spreads and
//!     median shifts of every end-to-end metric against its bound
//! benchmark --print-benchmark-json
//! ```
//!
//! See `README.md` here for the glossary and `BENCHMARK.json` at the repo
//! root for the machine-readable contract.

mod catalog;
mod echo;
mod layers;
mod measure;
mod sink;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{unit_of, END_TO_END, RUN_SECONDS};
use measure::{end_to_end, fmt, render_line, EndToEnd, Plan};
use stats::{median, median_or_zero};
use traced::{traced_pass, TracedPass};
use workloads::{Workload, WORKLOADS};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 31;

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg(args, flag) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} takes a number, got {v:?}"))),
        None => default,
    }
}

fn usage(why: &str) -> ! {
    eprintln!("benchmark: {why}");
    eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> | --check | --aa [--runs <n>] | --print-benchmark-json");
    eprintln!(
        "workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

/// Trace files and the process backend's segment markers go here (inside the
/// checkout: `run.sh` points it at `benchmark/out`).
fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn host_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!(
        "host: available_parallelism {cores} (numbers below are labelled for the 2-core reference host), loadavg {}",
        load.trim()
    )
}

/// The result object the contract asks for, as one line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    s.push_str("}}");
    s
}

fn report_failures(failures: &[String]) {
    for failure in failures {
        eprintln!("GATE FAILED: {failure}");
    }
}

/// Print the end-to-end pass; returns the result line and whether it passed.
fn show_end_to_end(workload: &Workload, e2e: &EndToEnd) -> (String, bool) {
    for (name, unit, values) in e2e.metrics() {
        println!("{}", render_line(workload.name, name, unit, values));
    }
    println!(
        "{}",
        render_line(workload.name, "(tail) p90_us", "us", &e2e.p90_us)
    );
    println!(
        "{}",
        render_line(workload.name, "(tail) p99_us", "us", &e2e.p99_us)
    );
    if let Some(latency) = e2e.last_latency {
        let top = latency.top.map_or_else(
            || "none".to_string(),
            |(label, us)| format!("{label} = {} us", fmt(us)),
        );
        println!(
            "{:<16} last paced rep: {} samples, exact p50 {} us, highest supported percentile {top}",
            workload.name,
            latency.samples,
            fmt(latency.p50_us)
        );
    }
    println!(
        "{:<16} attempted {} failed {} measured {:.1} s",
        workload.name, e2e.attempted, e2e.failed, e2e.measured_s
    );
    report_failures(&e2e.failures);
    let correct = e2e.failures.is_empty() && e2e.failed == 0;
    let metrics: Vec<(&str, f64)> = e2e
        .metrics()
        .iter()
        .map(|(name, _, values)| (*name, median_or_zero(values)))
        .collect();
    (
        result_line(correct, e2e.attempted, e2e.failed, &metrics),
        correct,
    )
}

fn show_traced(workload: &Workload, pass: &TracedPass) -> (String, bool) {
    for (name, value) in &pass.metrics {
        println!(
            "{:<16} {name:<38} {:>14} {:<6} (2 cores)",
            workload.name,
            fmt(*value),
            unit_of(name)
        );
    }
    if let Some(file) = &pass.trace_file {
        println!(
            "{:<16} trace: {} events in {}",
            workload.name,
            pass.trace_events,
            file.display()
        );
    }
    report_failures(&pass.failures);
    let correct = pass.failures.is_empty() && pass.failed == 0;
    let metrics: Vec<(&str, f64)> = pass.metrics.clone();
    (
        result_line(correct, pass.attempted, pass.failed, &metrics),
        correct,
    )
}

/// `--workload`: one pass over one workload, result object last.
fn contract_mode(args: &[String], name: &str) -> ExitCode {
    let workload = workloads::find(name).unwrap_or_else(|| usage(&format!("no workload {name:?}")));
    let seed = parsed(args, "--seed", DEFAULT_SEED);
    let plan = Plan::measure(parsed(args, "--seconds", f64::from(RUN_SECONDS)));
    println!("{}", host_line());
    let (line, correct) = match parsed(args, "--trace", 0u8) {
        0 => show_end_to_end(workload, &end_to_end(workload, seed, plan)),
        1 => show_traced(
            workload,
            &traced_pass(workload, seed, plan, &out_dir(), &layers::run(seed)),
        ),
        other => usage(&format!("--trace takes 0 or 1, got {other}")),
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Both passes over every workload: the one command that prints every metric.
fn suite_mode(seed: u64, plan: Plan) -> ExitCode {
    println!("{}", host_line());
    let isolated = layers::run(seed);
    let mut all_correct = true;
    for workload in &WORKLOADS {
        println!("== {} — {}", workload.name, workload.why);
        let (line, correct) = show_end_to_end(workload, &end_to_end(workload, seed, plan));
        println!("{line}");
        all_correct &= correct;
        let traced = traced_pass(workload, seed, plan, &out_dir(), &isolated);
        let (line, correct) = show_traced(workload, &traced);
        println!("{line}");
        all_correct &= correct;
    }
    println!(
        "{}",
        if all_correct {
            "ALL GATES PASSED"
        } else {
            "GATES FAILED"
        }
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One value per run of a series: the median of that run's reps of a metric.
fn run_medians(series: &[EndToEnd], pick: impl Fn(&EndToEnd) -> &[f64]) -> Vec<f64> {
    series.iter().map(|e| median(pick(e))).collect()
}

/// `--aa`: what the driver does to accept the benchmark, on one build.  Two
/// series of `runs` runs per workload, a different seed per run; per
/// end-to-end metric the spread of each series (IQR / median) and the shift
/// of the second median against the first, held against the metric's bound.
fn aa_mode(args: &[String]) -> ExitCode {
    let runs: u64 = parsed(args, "--runs", 10);
    let plan = Plan::measure(parsed(args, "--seconds", f64::from(RUN_SECONDS)));
    let seed = parsed(args, "--seed", DEFAULT_SEED);
    println!("{}", host_line());
    println!(
        "A/A: 2 series x {runs} runs x {} s per workload; spread = IQR / median; shift = how much worse the second median is",
        plan.seconds
    );
    println!(
        "| workload | metric | median A | median B | shift | spread A | spread B | tail p90 A/B agree | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_within = true;
    for workload in &WORKLOADS {
        let mut series: [Vec<EndToEnd>; 2] = [Vec::new(), Vec::new()];
        for (s, out) in series.iter_mut().enumerate() {
            for run in 0..runs {
                let e2e = end_to_end(workload, seed + 100 * s as u64 + run, plan);
                report_failures(&e2e.failures);
                all_within &= e2e.failures.is_empty() && e2e.failed == 0;
                out.push(e2e);
            }
        }
        // A tail that two series agree on within 10 % is a candidate for
        // promotion to an end-to-end metric.
        let agree = |pick: fn(&EndToEnd) -> &[f64]| {
            let a = median(&run_medians(&series[0], pick));
            let b = median(&run_medians(&series[1], pick));
            if (a - b).abs() <= 0.10 * a {
                "yes"
            } else {
                "no"
            }
        };
        let tails = format!("p90 {} p99 {}", agree(|e| &e.p90_us), agree(|e| &e.p99_us));
        for (i, metric) in END_TO_END.iter().enumerate() {
            let a = run_medians(&series[0], |e| e.metrics()[i].2);
            let b = run_medians(&series[1], |e| e.metrics()[i].2);
            let (ma, mb) = (median(&a), median(&b));
            let shift = if metric.better == "higher" {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (stats::spread(&a), stats::spread(&b));
            // `setup_s` answers for its shift only, as in the driver.
            let spread_ok = metric.name == "setup_s" || sa.max(sb) <= metric.bound;
            let within = spread_ok && shift <= metric.bound;
            all_within &= within;
            println!(
                "| {} | {} | {} | {} | {:+.1}% | {:.1}% | {:.1}% | {} | {:.0}% | {} |",
                workload.name,
                metric.name,
                fmt(ma),
                fmt(mb),
                100.0 * shift,
                100.0 * sa,
                100.0 * sb,
                if metric.name == "p50_us" {
                    tails.as_str()
                } else {
                    ""
                },
                100.0 * metric.bound,
                if !within {
                    "BEYOND BOUND"
                } else if sa.max(sb) * 3.0 <= metric.bound || metric.name == "setup_s" {
                    "ok"
                } else {
                    "ok (spread above a third of the bound)"
                }
            );
        }
    }
    if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    if flag("--print-benchmark-json") {
        print!("{}", catalog::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if flag("--aa") {
        return aa_mode(&args);
    }
    if flag("--check") {
        return suite_mode(parsed(&args, "--seed", DEFAULT_SEED), Plan::check());
    }
    match arg(&args, "--workload") {
        Some(name) => contract_mode(&args, name),
        None => suite_mode(
            parsed(&args, "--seed", DEFAULT_SEED),
            Plan::measure(parsed(&args, "--seconds", f64::from(RUN_SECONDS))),
        ),
    }
}
