//! Regenerate every figure of the paper as CSV + JSON + text tables.
//!
//! ```text
//! cargo run --release -p bench --bin figures            # all figures, Paper effort
//! cargo run --release -p bench --bin figures -- --quick # all figures, Smoke effort
//! cargo run --release -p bench --bin figures -- --fig 9 # a single figure
//! ```
//!
//! CSVs are written to `target/figures/figNN_*.csv`, with a machine-readable
//! `BENCH_figNN_*.json` twin per figure so perf trajectories can be tracked
//! across commits without parsing CSV.

use bench::Effort;
use metrics::Series;
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    PathBuf::from("target").join("figures")
}

// Fatal CLI errors belong on stderr so `figures > fig.csv` pipelines stay clean.
#[allow(clippy::print_stderr)]
fn die(path: &std::path::Path, e: std::io::Error) -> ! {
    eprintln!("figures: cannot write {}: {e}", path.display());
    std::process::exit(1)
}

fn emit(name: &str, series: &Series) {
    let csv_path = out_dir().join(format!("{name}.csv"));
    series
        .write_csv(&csv_path)
        .unwrap_or_else(|e| die(&csv_path, e));
    let json_path = out_dir().join(format!("BENCH_{name}.json"));
    series
        .write_json(&json_path)
        .unwrap_or_else(|e| die(&json_path, e));
    println!(
        "{}\n  -> {}\n  -> {}\n",
        series.to_text(),
        csv_path.display(),
        json_path.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let effort = if args.iter().any(|a| a == "--quick") {
        Effort::Smoke
    } else {
        Effort::Paper
    };
    let only: Option<u32> = args
        .iter()
        .position(|a| a == "--fig")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let wants = |fig: u32| only.is_none() || only == Some(fig);

    println!("# smp-aggregation figure harness (effort: {effort:?})\n");

    if wants(1) {
        emit("fig01_pingpong", &bench::fig01_pingpong());
    }
    if wants(3) {
        emit("fig03_pingack", &bench::fig03_pingack(effort));
    }
    if wants(8) {
        emit("fig08_histogram_ppn", &bench::fig08_histogram_ppn(effort));
    }
    if wants(9) {
        emit(
            "fig09_histogram_schemes",
            &bench::fig09_histogram_schemes(effort),
        );
    }
    if wants(10) {
        emit("fig10_buffer_size", &bench::fig10_buffer_size(effort));
    }
    if wants(11) {
        emit(
            "fig11_histogram_small",
            &bench::fig11_histogram_small(effort),
        );
    }
    if wants(12) {
        emit("fig12_ig_latency", &bench::fig12_ig_latency(effort));
    }
    if wants(13) {
        emit("fig13_ig_time", &bench::fig13_ig_time(effort));
    }
    if wants(14) || wants(15) {
        let (time, wasted) = bench::fig14_15_sssp_small(effort);
        if wants(14) {
            emit("fig14_sssp_small_time", &time);
        }
        if wants(15) {
            emit("fig15_sssp_small_wasted", &wasted);
        }
    }
    if wants(16) || wants(17) {
        let (time, wasted) = bench::fig16_17_sssp_large(effort);
        if wants(16) {
            emit("fig16_sssp_large_time", &time);
        }
        if wants(17) {
            emit("fig17_sssp_large_wasted", &wasted);
        }
    }
    if wants(18) {
        emit("fig18_phold", &bench::fig18_phold(effort));
    }
    if wants(101) || only.is_none() {
        emit(
            "ablation_a1_commthread",
            &bench::ablation_commthread(effort),
        );
    }

    println!("done; CSVs under {}", out_dir().display());
}
