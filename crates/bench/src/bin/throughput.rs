//! The throughput sweep: items/sec per scheme on the native backend, emitted
//! as one machine-readable `BENCH_throughput.json`.
//!
//! ```text
//! cargo run --release -p bench --bin throughput              # full sweep
//! cargo run --release -p bench --bin throughput -- --fast    # CI smoke sizes
//! cargo run --release -p bench --bin throughput -- --pin     # pin worker threads
//! cargo run --release -p bench --bin throughput -- --out p   # custom path
//! cargo run --release -p bench --bin throughput -- \
//!     --kernel scalar                                        # force a kernel tier
//! cargo run --release -p bench --bin throughput -- \
//!     --fast --check BENCH_throughput.json                   # regression gate
//! ```
//!
//! Every effort level measures the zero-copy slab-arena mesh (the default
//! configuration) and the VecPool-store mesh (the arena-vs-pool A/B), so the
//! regression gate covers both message stores.  `--pin` pins each worker thread to
//! `worker_index % cpus` — see `docs/DESIGN.md` §5 for when that matters.
//!
//! Every application run doubles as a conservation check (clean termination,
//! `items_sent == items_delivered`); a violation panics, so a zero exit code
//! means both "numbers emitted" and "no item lost".
//!
//! `--check` compares the fresh (smoke) results against the smoke-baseline
//! series embedded in the committed document and exits non-zero if any
//! scheme's **normalized** throughput (relative to the best scheme of the
//! same run — hardware-independent) regressed more than the tolerance
//! (default 30%, override via `BENCH_REGRESSION_TOLERANCE`).  Full runs
//! embed those smoke baselines automatically so the gate always has
//! something to compare against.

use bench::regression::{regression_gate, tolerance_from_env, TOLERANCE_ENV};
use bench::throughput::{
    cross_socket_penalty, kernel_apply_comparison, throughput_histogram_on,
    throughput_index_gather, write_throughput_json, Tune,
};
use bench::Effort;
use runtime_api::KernelMode;
use std::path::PathBuf;

// Fatal CLI errors belong on stderr so piped stdout output stays clean.
#[allow(clippy::print_stderr)]
fn die(path: &std::path::Path, e: std::io::Error) -> ! {
    eprintln!("throughput: cannot write {}: {e}", path.display());
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
        .unwrap_or_else(|| PathBuf::from("BENCH_throughput.json"));
    let check: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check takes a path").into());
    let pin = args.iter().any(|a| a == "--pin");
    let kernel: KernelMode = args
        .iter()
        .position(|a| a == "--kernel")
        .map(|i| {
            args.get(i + 1)
                .expect("--kernel takes auto|simd|scalar")
                .parse()
                .unwrap_or_else(|e| panic!("--kernel: {e}"))
        })
        .unwrap_or(KernelMode::Auto);

    println!(
        "# smp-aggregation throughput suite (effort: {effort:?}, pin: {pin}, kernel: {kernel})\n"
    );

    // Both message stores (the zero-copy arena-vs-pool A/B) at every effort
    // level: the CI smoke gate must cover every delivery configuration a
    // regression could hide in.
    let tune = |t: Tune| t.with_pin(pin).with_kernel(kernel);
    let histogram = throughput_histogram_on(effort, tune(Tune::mesh_arena()));
    println!("{}\n", histogram.to_text());
    let histogram_vecpool = throughput_histogram_on(effort, tune(Tune::mesh_vecpool()));
    println!("{}\n", histogram_vecpool.to_text());
    let index_gather = throughput_index_gather(effort, tune(Tune::mesh_arena()));
    println!("{}\n", index_gather.to_text());
    // The kernel A/B is a direct microbench over every tier, so `--kernel`
    // does not narrow it; each timed repetition re-checks its tier against
    // the scalar reference and panics on any total mismatch.
    let kernel_apply = kernel_apply_comparison(effort);
    println!("{}\n", kernel_apply.to_text());
    let cross_socket = cross_socket_penalty(effort);
    println!("{}\n", cross_socket.to_text());

    let mut series: Vec<(&str, &metrics::Series)> = vec![
        ("histogram_native", &histogram),
        ("histogram_native_vecpool", &histogram_vecpool),
        ("index_gather_native", &index_gather),
        ("kernel_apply", &kernel_apply),
        ("cross_socket_penalty", &cross_socket),
    ];

    // Full runs also record the smoke-sized baselines the CI regression gate
    // compares against.
    let mut extra = Vec::new();
    if effort == Effort::Paper {
        extra.push((
            "histogram_native_smoke",
            throughput_histogram_on(Effort::Smoke, tune(Tune::mesh_arena())),
        ));
        extra.push((
            "histogram_native_vecpool_smoke",
            throughput_histogram_on(Effort::Smoke, tune(Tune::mesh_vecpool())),
        ));
        extra.push((
            "index_gather_native_smoke",
            throughput_index_gather(Effort::Smoke, tune(Tune::mesh_arena())),
        ));
        extra.push(("kernel_apply_smoke", kernel_apply_comparison(Effort::Smoke)));
    }
    for (name, s) in &extra {
        series.push((name, s));
    }

    write_throughput_json(&out, effort, &series).unwrap_or_else(|e| die(&out, e));
    println!("item conservation held on every run (arena miss counters: 0)");
    println!("-> {}", out.display());

    if let Some(committed_path) = check {
        let committed = std::fs::read_to_string(&committed_path)
            .unwrap_or_else(|e| panic!("--check: cannot read {}: {e}", committed_path.display()));
        let tolerance = tolerance_from_env();
        println!(
            "\n# regression gate vs {} (tolerance {:.0}%, env {TOLERANCE_ENV})",
            committed_path.display(),
            tolerance * 100.0
        );
        // kernel_apply is deliberately NOT gated: the scalar/SIMD ratio swings
        // 2-3x run-to-run on shared hosts (the scalar reference is the most
        // frequency-sensitive column), so a normalized-ratio gate on it would
        // be pure flake.  Its correctness teeth are the in-loop asserts — every
        // rep re-checks table totals and checksum against the scalar reference
        // and panics on any mismatch.
        let fresh: Vec<(&str, &metrics::Series)> = vec![
            ("histogram_native", &histogram),
            ("histogram_native_vecpool", &histogram_vecpool),
            ("index_gather_native", &index_gather),
        ];
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
