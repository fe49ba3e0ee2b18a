//! The untraced, end-to-end pass over one workload.
//!
//! Each cell gets one discarded warm-up rep (quarter size) and then timed
//! reps until its share of `--seconds` is spent; a metric is the median of its
//! timed reps.  Warm-up and set-up are outside the measured seconds.

use std::time::Instant;

use smp_aggregation::runtime_api::Backend;

use crate::stats::{self, Summary};
use crate::workloads::{
    cross_backend_gate, mix, run_cell, Cell, Latency, Scale, Traffic, Workload,
};

/// Fewest timed reps of a cell, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The saturate cell's share of `--seconds`; the paced cell gets the rest.
/// Between identical runs `items_per_s` spreads 2-15 % and `p50_us` under
/// 4 %, so the noisier metric gets more of the reps.
const SATURATE_SHARE: f64 = 0.65;

/// What the end-to-end pass found for one workload.
pub struct EndToEnd {
    pub items_per_s: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Latency of the last paced rep, for the sample count and top percentile.
    pub last_latency: Option<Latency>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub measured_s: f64,
}

impl EndToEnd {
    /// `(name, unit, rep values)` of every end-to-end metric, in
    /// `BENCHMARK.json` order.
    pub fn metrics(&self) -> [(&'static str, &'static str, &[f64]); 3] {
        [
            ("items_per_s", "1/s", &self.items_per_s),
            ("p50_us", "us", &self.p50_us),
            ("setup_s", "s", &self.setup_s),
        ]
    }
}

/// How a pass is sized: `--check` runs one rep of everything at 1/50 size.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: f64,
    pub scale: Scale,
    pub single_rep: bool,
}

impl Plan {
    pub fn measure(seconds: f64) -> Self {
        Plan {
            seconds,
            scale: Scale(1),
            single_rep: false,
        }
    }

    pub fn check() -> Self {
        Plan {
            seconds: 0.0,
            scale: Scale(50),
            single_rep: true,
        }
    }
}

pub fn end_to_end(workload: &Workload, seed: u64, plan: Plan) -> EndToEnd {
    let mut out = EndToEnd {
        items_per_s: Vec::new(),
        p50_us: Vec::new(),
        p90_us: Vec::new(),
        p99_us: Vec::new(),
        setup_s: Vec::new(),
        last_latency: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        measured_s: 0.0,
    };
    for (phase, cell) in [&workload.saturate, &workload.paced]
        .into_iter()
        .enumerate()
    {
        let phase = phase as u64;
        warm_up(cell, mix(seed, phase << 32), plan, &mut out.failures);
        let budget_s = plan.seconds
            * if phase == 0 {
                SATURATE_SHARE
            } else {
                1.0 - SATURATE_SHARE
            };
        let started = Instant::now();
        let mut reps = 0usize;
        loop {
            let rep_seed = mix(seed, (phase << 32) + 1 + reps as u64);
            let (rep, _) = run_cell(cell, rep_seed, plan.scale, false);
            reps += 1;
            out.attempted += rep.attempted;
            out.failed += rep.failed;
            out.setup_s.push(rep.setup_s);
            out.failures.extend(
                rep.failures
                    .iter()
                    .map(|f| format!("{}: {f}", workload.name)),
            );
            if phase == 0 {
                out.items_per_s.push(rep.items_per_s);
            } else if let Some(latency) = rep.latency {
                out.p50_us.push(latency.p50_us);
                out.p90_us.push(latency.p90_us);
                out.p99_us.push(latency.p99_us);
                out.last_latency = Some(latency);
            }
            // Stop when another rep would overshoot the budget by more than
            // it undershoots now.
            let spent_s = started.elapsed().as_secs_f64();
            let next_s = spent_s / reps as f64;
            if plan.single_rep || (reps >= MIN_REPS && spent_s + next_s / 2.0 > budget_s) {
                out.measured_s += spent_s;
                break;
            }
        }
    }
    out
}

/// The discarded rep that fills caches, faults in stacks and warms the
/// allocator — and, for a histogram cell on forked workers, the rep the
/// threaded backend is compared against.
fn warm_up(cell: &Cell, seed: u64, plan: Plan, failures: &mut Vec<String>) {
    let scale = Scale(plan.scale.0 * 4);
    let (rep, _) = run_cell(cell, seed, scale, false);
    failures.extend(rep.failures.iter().map(|f| format!("warm-up: {f}")));
    if cell.path.backend == Backend::Process && matches!(cell.traffic, Traffic::Histogram { .. }) {
        failures.extend(cross_backend_gate(cell, &rep, seed, scale));
    }
}

/// One line of the human-readable table.
pub fn render_line(workload: &str, name: &str, unit: &str, values: &[f64]) -> String {
    let s = Summary::of(values);
    format!(
        "{workload:<16} {name:<34} {:>14} {unit:<6} q1 {:>12} q3 {:>12} min {:>12} max {:>12} reps {:>2} spread {:>5.1}%  (2 cores)",
        fmt(s.median),
        fmt(s.q1),
        fmt(s.q3),
        fmt(s.min),
        fmt(s.max),
        s.reps,
        100.0 * stats::spread(values),
    )
}

/// Six significant digits, no exponent for the magnitudes that occur here.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.digits$}")
}
