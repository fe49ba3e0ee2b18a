//! The throughput suite: items/sec per aggregation scheme on the native
//! threaded backend.
//!
//! Unlike the figure harness (which reruns the paper's *simulated* cluster
//! experiments), this suite measures real wall-clock throughput of the
//! insert→flush→deliver pipeline on the host machine, and is the regression
//! trail for the lock-free / zero-allocation hot-path work: every run emits a
//! machine-readable `BENCH_throughput.json` so numbers can be compared across
//! commits.
//!
//! Every application run is also a conservation check: a run that is not
//! clean, or that delivers a different number of items than it sent, panics —
//! the CI bench-smoke step relies on this to turn silent item loss into a red
//! build.

use crate::Effort;
use apps::common::run_spec_native_tuned;
use apps::histogram::HistogramConfig;
use apps::index_gather::IndexGatherConfig;
use apps::ClusterSpec;
use metrics::Series;
use native_rt::MessageStore;
use net_model::WorkerId;
use runtime_api::{Backend, Item, KernelMode, Payload, RunReport, RunSpec};
use std::io;
use std::path::Path;
use std::time::Instant;
use tramlib::Scheme;

/// The (single-node) process × worker splits each effort level sweeps.
fn cluster_sweep(effort: Effort) -> Vec<ClusterSpec> {
    match effort {
        Effort::Smoke => vec![ClusterSpec::smp(1, 1, 2), ClusterSpec::smp(1, 2, 2)],
        Effort::Paper => vec![
            ClusterSpec::smp(1, 1, 4),
            ClusterSpec::smp(1, 2, 4),
            ClusterSpec::smp(1, 4, 4),
            ClusterSpec::smp(1, 8, 8),
        ],
    }
}

fn cluster_label(cluster: &ClusterSpec) -> String {
    format!(
        "{}p x {}w",
        cluster.nodes * cluster.procs_per_node,
        cluster.workers_per_proc
    )
}

/// Items delivered per wall-clock second, with the conservation gate applied
/// — and, on slab-arena runs, the zero-copy gate: an arena that claimed
/// slabs must never have missed (a miss means some message fell back to a
/// heap vector, i.e. the steady state was not allocation-free).
fn items_per_sec(context: &str, report: &RunReport) -> f64 {
    assert!(report.clean(), "{context}: run did not finish cleanly");
    assert_eq!(
        report.items_sent, report.items_delivered,
        "{context}: item conservation violated"
    );
    if report.counter("arena_claims") > 0 {
        assert_eq!(
            report.counter("arena_claim_misses"),
            0,
            "{context}: slab arena ran dry ({} claims) — zero-copy steady state violated",
            report.counter("arena_claims"),
        );
    }
    let secs = report.total_time_ns as f64 / 1e9;
    report.items_delivered as f64 / secs.max(1e-9)
}

/// Best sustained rate over `reps` repetitions of one measured run.  Every
/// repetition still passes the conservation gate; the max filters scheduler
/// noise (on an oversubscribed host a single run can lose 10%+ to unlucky
/// preemption), which is the standard read of "sustained throughput".
fn best_rate(context: &str, reps: u32, mut run: impl FnMut() -> RunReport) -> f64 {
    (0..reps.max(1))
        .map(|_| items_per_sec(context, &run()))
        .fold(0.0, f64::max)
}

/// One tiny throwaway run so first-measurement artifacts (cold page cache,
/// lazily faulted thread stacks, allocator warm-up) do not land on whichever
/// scheme happens to run first.
fn warmup(tune: Tune) {
    let config = HistogramConfig::new(ClusterSpec::smp(1, 2, 2), Scheme::WW)
        .with_updates(5_000)
        .with_buffer(64)
        .with_seed(1);
    let report = run_spec_native_tuned(tune.spec(RunSpec::for_app(config)), |native| native);
    assert!(report.clean(), "warmup run failed");
}

/// Backend tuning of one measured series: message store, core pinning
/// (`--pin`) and slice-kernel tier (`--kernel`).
#[derive(Debug, Clone, Copy)]
pub struct Tune {
    /// Message store (slab arena vs pooled vectors — the zero-copy A/B).
    pub store: MessageStore,
    /// Pin worker threads to cores.
    pub pin: bool,
    /// Slice-kernel tier the apps consume items with.
    pub kernel: KernelMode,
}

impl Tune {
    /// The default measured configuration: mesh + slab arenas, no pinning,
    /// auto-detected kernels.
    pub fn mesh_arena() -> Self {
        Tune {
            store: MessageStore::SlabArena,
            pin: false,
            kernel: KernelMode::Auto,
        }
    }

    /// The A/B baseline: mesh + pooled heap vectors.
    pub fn mesh_vecpool() -> Self {
        Tune {
            store: MessageStore::VecPool,
            ..Tune::mesh_arena()
        }
    }

    /// Enable core pinning.
    pub fn with_pin(mut self, pin: bool) -> Self {
        self.pin = pin;
        self
    }

    /// Force a slice-kernel tier (`--kernel scalar` is the A/B baseline for
    /// the SIMD speedup record).
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Apply this tuning to a [`RunSpec`] (native backend implied).
    pub fn spec(&self, spec: RunSpec) -> RunSpec {
        spec.backend(Backend::Native)
            .message_store(self.store)
            .pin_workers(self.pin)
            .kernel(self.kernel)
    }
}

/// Suite-wide measurement spec.  The sweep measures the delivery *pipeline*
/// (aggregate → route → group → deliver): the local bypass short-circuits
/// that pipeline entirely, and its share of the traffic varies with the
/// cluster shape (100% of it at one process, 1/N at N processes), so leaving
/// it on would make the sweep compare different code-path mixes instead of
/// the same pipeline at different scales.  Only the measurement disables the
/// bypass — the backend default (bypass on) is untouched.  The watchdog is
/// generous: it is for hangs, not for slow runs on a loaded host.
fn pipeline_spec(spec: RunSpec, tune: Tune) -> RunSpec {
    tune.spec(spec)
        .local_bypass(false)
        .max_wall(std::time::Duration::from_secs(240))
}

/// Histogram items/sec on the native backend: all five schemes × the worker
/// sweep, on the given tuning (store × pinning × kernel tier).
///
/// Paper-effort runs use 150K updates per worker: on a fast delivery path a
/// smaller run finishes in a few milliseconds, which scheduling noise and
/// quiescence-detection latency would dominate.
pub fn throughput_histogram_on(effort: Effort, tune: Tune) -> Series {
    // Smoke runs back the CI regression gate: they must be big enough that
    // per-scheme throughput *ratios* are stable run-to-run on a noisy
    // runner, which 1K-update runs are not.
    let updates = effort.pick(10_000, 150_000);
    let buffer = effort.pick(64, 512);
    let clusters = cluster_sweep(effort);
    let mut series = Series::new(
        match tune.store {
            MessageStore::SlabArena => {
                "Throughput: histogram on the native backend, slab-arena store (items/sec)"
            }
            MessageStore::VecPool => {
                "Throughput: histogram on the native backend, VecPool store A/B (items/sec)"
            }
        },
        "cluster",
    );
    series.set_x_values(clusters.iter().map(cluster_label));
    warmup(tune);
    // Smoke runs take the best of three: they back the CI regression gate,
    // and at smoke sizes a single unlucky scheduling quantum can halve one
    // scheme's rate.
    let reps = effort.pick(3, 2);
    for scheme in Scheme::ALL {
        let column = clusters
            .iter()
            .map(|&cluster| {
                best_rate(
                    &format!("histogram/{scheme}/{}", cluster_label(&cluster)),
                    reps,
                    || {
                        let config = HistogramConfig::new(cluster, scheme)
                            .with_updates(updates)
                            .with_buffer(buffer)
                            .with_seed(31);
                        run_spec_native_tuned(
                            pipeline_spec(RunSpec::for_app(config), tune),
                            |native| native,
                        )
                    },
                )
            })
            .collect();
        series.add_column(scheme.label(), column);
    }
    series
}

/// Histogram items/sec on the default tuning (mesh + slab arenas).
pub fn throughput_histogram(effort: Effort) -> Series {
    throughput_histogram_on(effort, Tune::mesh_arena())
}

/// Index-gather items/sec (requests + responses) on the native backend.
pub fn throughput_index_gather(effort: Effort, tune: Tune) -> Series {
    let requests = effort.pick(5_000, 60_000);
    let buffer = effort.pick(64, 512);
    let clusters = cluster_sweep(effort);
    let mut series = Series::new(
        "Throughput: index-gather on the native backend (items/sec)",
        "cluster",
    );
    series.set_x_values(clusters.iter().map(cluster_label));
    warmup(tune);
    // Best of three at smoke size for the same gate-stability reason as the
    // histogram sweep.
    let reps = effort.pick(3, 2);
    for scheme in Scheme::ALL {
        let column = clusters
            .iter()
            .map(|&cluster| {
                best_rate(
                    &format!("index_gather/{scheme}/{}", cluster_label(&cluster)),
                    reps,
                    || {
                        let config = IndexGatherConfig::new(cluster, scheme)
                            .with_requests(requests)
                            .with_buffer(buffer)
                            .with_seed(37);
                        run_spec_native_tuned(
                            pipeline_spec(RunSpec::for_app(config), tune),
                            |native| native,
                        )
                    },
                )
            })
            .collect();
        series.add_column(scheme.label(), column);
    }
    series
}

/// Synthetic delivered slice for the kernel microbench: `len` items whose
/// buckets stride over `table_len` pseudo-randomly (a fixed multiplicative
/// hash, so the series is reproducible).  This is exactly the shape the
/// histogram app consumes after delivery — a borrowed `&[Item<Payload>]`
/// with every bucket in range, the safety contract of the SIMD tiers.
fn kernel_slice(len: usize, table_len: usize) -> Vec<Item<Payload>> {
    (0..len as u64)
        .map(|i| {
            let bucket = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % table_len as u64;
            Item::new(WorkerId(0), Payload::new(bucket, i), i)
        })
        .collect()
}

/// Kernel A/B: `histogram_apply` items/sec for every kernel tier on this
/// machine (scalar first), over a delivered-slice-length sweep.  This is the
/// scalar-vs-SIMD speedup record for the vectorized app kernels, and it
/// carries its own teeth: each timed repetition folds thousands of kernel
/// applications into one table and one checksum, which must match the scalar
/// reference exactly — a tier whose totals drift fails the bench run itself,
/// not just the proptest equivalence suite.  CI runs this at smoke effort
/// under both `--kernel scalar` and `--kernel auto`, and the normalized
/// regression gate watches the scalar-to-SIMD ratio for collapses.
pub fn kernel_apply_comparison(effort: Effort) -> Series {
    // An 8KB table stays L1-resident next to the slice, so the sweep
    // measures the kernels (bounds checks, dependency chains, unrolling)
    // rather than cache misses the tiers share equally.
    let table_len = 1024usize;
    // Slice lengths span the buffer sizes delivery actually hands the apps
    // (the suite's buffers are 64 at smoke and 512 at paper effort).  A
    // 4096-item slice would spill L1 and measure L2 streaming instead of
    // the kernels; the apps never see one — grouped deliveries arrive as
    // per-worker sub-slices of one sealed buffer.
    let lens = [64usize, 128, 256, 512];
    // Long measurements and many repetitions: at gigaitems/sec a short
    // timed loop is at the mercy of frequency scaling and scheduler noise,
    // and this sweep backs a normalized regression gate.
    let items_per_measurement = effort.pick(4_000_000u64, 32_000_000);
    let reps = effort.pick(5, 7);
    let mut series = Series::new(
        "Kernel A/B: histogram apply per tier, slice-length sweep (items/sec)",
        "slice_items",
    );
    series.set_x_values(lens.iter().map(|l| format!("{l}items")));
    let scalar = kernels::resolve(KernelMode::Scalar);
    for tier in kernels::tiers() {
        let column = lens
            .iter()
            .map(|&len| {
                let slice = kernel_slice(len, table_len);
                let mut want_table = vec![0u64; table_len];
                // SAFETY: `kernel_slice` draws buckets modulo `table_len`.
                let want_sum = unsafe { scalar.histogram_apply(&slice, &mut want_table) };
                let iters = (items_per_measurement / len as u64).max(1);
                let mut best = 0.0f64;
                for _ in 0..reps {
                    let mut table = vec![0u64; table_len];
                    let mut sum = 0u64;
                    let start = Instant::now();
                    for _ in 0..iters {
                        let slice = std::hint::black_box(&slice[..]);
                        // SAFETY: same slice, same modulo-`table_len` buckets.
                        sum = sum.wrapping_add(unsafe { tier.histogram_apply(slice, &mut table) });
                    }
                    let elapsed = start.elapsed().as_secs_f64();
                    assert_eq!(
                        sum,
                        want_sum.wrapping_mul(iters),
                        "{}: checksum diverged from the scalar reference",
                        tier.label
                    );
                    assert!(
                        table
                            .iter()
                            .zip(&want_table)
                            .all(|(got, want)| *got == want * iters),
                        "{}: table totals diverged from the scalar reference",
                        tier.label
                    );
                    best = best.max((iters * len as u64) as f64 / elapsed.max(1e-9));
                }
                best
            })
            .collect();
        series.add_column(tier.label, column);
    }
    series
}

/// The cross-socket penalty sweep: pinned WPs histogram runs with
/// socket-local arena placement (`numa_aware`, the backend default) against
/// the same runs with placement deliberately disabled — the A/B knob the
/// NUMA layer exists for.  The `cross_socket_msg_share` column records what
/// fraction of mesh messages crossed sockets on the numa-aware runs.  On a
/// single-node host every worker predicts node 0, placement is a no-op and
/// the two rate columns coincide (a flat line is the expected CI shape); the
/// sweep only separates on multi-socket hardware.
pub fn cross_socket_penalty(effort: Effort) -> Series {
    let tune = Tune::mesh_arena().with_pin(true);
    let updates = effort.pick(10_000, 60_000);
    let buffer = effort.pick(64, 512);
    let clusters = cluster_sweep(effort);
    let mut series = Series::new(
        "NUMA: pinned WPs histogram - socket-local vs numa-blind placement (items/sec)",
        "cluster",
    );
    series.set_x_values(clusters.iter().map(cluster_label));
    warmup(tune);
    let reps = effort.pick(3, 2);
    let mut cross_share = Vec::new();
    for (label, numa_aware) in [("numa-local", true), ("numa-blind", false)] {
        let mut rates = Vec::new();
        for &cluster in &clusters {
            let context = format!("cross_socket/{label}/{}", cluster_label(&cluster));
            let mut best = 0.0f64;
            let mut share = 0.0f64;
            for _ in 0..reps.max(1) {
                let config = HistogramConfig::new(cluster, Scheme::WPs)
                    .with_updates(updates)
                    .with_buffer(buffer)
                    .with_seed(41);
                let report = run_spec_native_tuned(
                    pipeline_spec(RunSpec::for_app(config), tune),
                    |native| native.with_numa_aware(numa_aware),
                );
                let rate = items_per_sec(&context, &report);
                if rate > best {
                    best = rate;
                    share = report.counter("cross_socket_msgs") as f64
                        / report.counter("wire_messages").max(1) as f64;
                }
            }
            rates.push(best);
            if numa_aware {
                cross_share.push(share);
            }
        }
        series.add_column(label, rates);
    }
    series.add_column("cross_socket_msg_share", cross_share);
    series
}

/// Assemble the combined `BENCH_throughput.json` document from named series.
pub fn throughput_json(effort: Effort, series: &[(&str, &Series)]) -> String {
    crate::suite_json("throughput", effort, series)
}

/// Write the combined document to `path`, creating parent directories.
pub fn write_throughput_json(
    path: &Path,
    effort: Effort,
    series: &[(&str, &Series)],
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, throughput_json(effort, series))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Manual perf probe (not part of the suite): repeat one configuration to
    /// gauge run-to-run variance on the host.
    /// `cargo test --release -p bench perf_probe -- --ignored --nocapture`
    #[test]
    #[ignore = "manual perf probe, run with --ignored"]
    fn perf_probe_histogram() {
        for (label, tune) in [
            ("arena", Tune::mesh_arena()),
            ("vecpool", Tune::mesh_vecpool()),
        ] {
            for scheme in [Scheme::WW, Scheme::WPs, Scheme::WsP, Scheme::NoAgg] {
                for (procs, workers) in [(1u32, 4u32), (2, 4), (4, 4)] {
                    for _ in 0..2 {
                        let config =
                            HistogramConfig::new(ClusterSpec::smp(1, procs, workers), scheme)
                                .with_updates(150_000)
                                .with_buffer(512)
                                .with_seed(31);
                        let report = run_spec_native_tuned(
                            pipeline_spec(RunSpec::for_app(config), tune),
                            |native| native,
                        );
                        let rate = items_per_sec("probe", &report);
                        println!(
                            "{label:7} {scheme} {procs}p x {workers}w: {:.2}M items/s",
                            rate / 1e6
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn smoke_sweep_runs_every_scheme_on_both_apps() {
        for series in [
            throughput_histogram(Effort::Smoke),
            throughput_index_gather(Effort::Smoke, Tune::mesh_arena()),
        ] {
            for scheme in Scheme::ALL {
                let col = series
                    .column(scheme.label())
                    .unwrap_or_else(|| panic!("missing {scheme}"));
                assert!(
                    col.iter().all(|&v| v > 0.0),
                    "{scheme}: non-positive throughput"
                );
            }
        }
    }

    #[test]
    fn kernel_comparison_covers_every_tier_with_positive_rates() {
        let s = kernel_apply_comparison(Effort::Smoke);
        println!("{}", s.to_text());
        for tier in kernels::tiers() {
            let col = s
                .column(tier.label)
                .unwrap_or_else(|| panic!("missing {} column", tier.label));
            assert!(
                col.iter().all(|&v| v > 0.0),
                "{}: non-positive rate",
                tier.label
            );
        }
    }

    #[test]
    fn cross_socket_sweep_conserves_and_reports_a_share() {
        let s = cross_socket_penalty(Effort::Smoke);
        for column in ["numa-local", "numa-blind"] {
            let col = s
                .column(column)
                .unwrap_or_else(|| panic!("missing {column}"));
            assert!(col.iter().all(|&v| v > 0.0), "{column}: non-positive rate");
        }
        let share = s.column("cross_socket_msg_share").expect("share column");
        assert!(
            share.iter().all(|&v| (0.0..=1.0).contains(&v)),
            "share must be a fraction of mesh messages"
        );
    }

    #[test]
    fn json_document_contains_every_series() {
        let mut a = Series::new("a", "threads");
        a.set_x_values(["1thr"]);
        a.add_column("first", vec![1.0]);
        let mut b = Series::new("b", "threads");
        b.set_x_values(["1thr"]);
        b.add_column("second", vec![2.0]);
        let json = throughput_json(Effort::Smoke, &[("series_a", &a), ("series_b", &b)]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        for name in ["\"series_a\"", "\"series_b\"", "\"first\"", "\"second\""] {
            assert!(json.contains(name), "{name} missing");
        }
    }
}
