//! The Bale histogram proxy (Figures 8–11).
//!
//! A histogram table is distributed across all worker PEs.  Every PE issues a
//! fixed number of updates to uniformly random global buckets; an update is one
//! item addressed to the PE that owns the bucket.  Each PE calls TramLib's
//! flush once it has issued all its updates.  There is no dependent
//! communication, so the benchmark isolates *overhead* (total time), which is
//! exactly how the paper uses it.

use net_model::WorkerId;
use runtime_api::{
    AppDefaults, AppFactory, AppSpec, Item, Payload, ResolvedRunSpec, RunCtx, RunReport, RunSpec,
    WorkerApp,
};
use tramlib::{FlushPolicy, Scheme};

use crate::common::{run_spec, ClusterSpec};

/// The histogram app runs on both execution backends.
pub const NATIVE_CAPABLE: bool = true;

/// Histogram benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct HistogramConfig {
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// Aggregation scheme.
    pub scheme: Scheme,
    /// Updates issued per worker PE (the paper uses 1M and 128K).
    pub updates_per_worker: u64,
    /// Histogram buckets owned by each worker PE.
    pub table_size_per_worker: u64,
    /// TramLib buffer size `g`.
    pub buffer_items: usize,
    /// Experiment seed.
    pub seed: u64,
    /// How many updates a worker generates per execution quantum.
    pub chunk: u64,
}

/// A histogram configuration that violates the kernel bucket-range
/// invariant (see [`HistogramConfig::try_with_table_size`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramConfigError {
    /// `table_size_per_worker` is zero: no bucket could ever be in range.
    EmptyTable,
    /// `table_size_per_worker` exceeds `u32::MAX` buckets, past the point
    /// where per-worker tables are meaningful (and where a `u64` bucket id
    /// would survive narrowing on every supported target).
    TableTooLarge,
}

impl std::fmt::Display for HistogramConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyTable => write!(f, "table_size_per_worker must be at least 1"),
            Self::TableTooLarge => {
                write!(f, "table_size_per_worker must be at most {}", u32::MAX)
            }
        }
    }
}

impl std::error::Error for HistogramConfigError {}

impl HistogramConfig {
    /// Paper-like defaults for a given cluster and scheme: 1M updates per PE,
    /// buffer of 1024 items, 4K buckets per PE.
    pub fn new(cluster: ClusterSpec, scheme: Scheme) -> Self {
        Self {
            cluster,
            scheme,
            updates_per_worker: 1_000_000,
            table_size_per_worker: 4096,
            buffer_items: 1024,
            seed: HISTOGRAM_SEED,
            chunk: 256,
        }
    }

    /// Set the buckets owned by each worker, validating the bucket-range
    /// invariant at configuration time: every update is sent to bucket
    /// `global % table_size`, and the per-worker table is allocated with
    /// exactly `table_size` slots — so a table size in `1..=u32::MAX`
    /// guarantees every delivered bucket indexes in range.  That invariant
    /// is what lets the slice kernels use unchecked indexing in the apply
    /// hot loop.
    pub fn try_with_table_size(mut self, table_size: u64) -> Result<Self, HistogramConfigError> {
        Self::check_table_size(table_size)?;
        self.table_size_per_worker = table_size;
        Ok(self)
    }

    /// The config-time half of the kernel bucket-range contract; re-checked
    /// by the factory because `table_size_per_worker` is a public field.
    fn check_table_size(table_size: u64) -> Result<(), HistogramConfigError> {
        if table_size == 0 {
            return Err(HistogramConfigError::EmptyTable);
        }
        if table_size > u32::MAX as u64 {
            return Err(HistogramConfigError::TableTooLarge);
        }
        Ok(())
    }

    /// Set the updates issued per worker.
    pub fn with_updates(mut self, updates: u64) -> Self {
        self.updates_per_worker = updates;
        self
    }

    /// Set the TramLib buffer size.
    pub fn with_buffer(mut self, buffer_items: usize) -> Self {
        self.buffer_items = buffer_items;
        self
    }

    /// Set the experiment seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Default experiment seed ("HISTOGRA" in ASCII).
const HISTOGRAM_SEED: u64 = 0x4849_5354_4f47_5241;

struct HistogramApp {
    me: WorkerId,
    remaining: u64,
    chunk: u64,
    table_size_per_worker: u64,
    local_table: Vec<u64>,
    flushed: bool,
    /// Slice kernel tier, resolved once per run from the spec's
    /// [`runtime_api::KernelMode`].
    kernel: &'static kernels::Kernels,
}

impl WorkerApp for HistogramApp {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        let bucket = item.a as usize;
        debug_assert!(bucket < self.local_table.len());
        self.local_table[bucket] += 1;
        ctx.counter("histo_applied", 1);
        ctx.counter("histo_applied_checksum", item.a);
    }

    /// Batched delivery: identical counter totals to the per-item path, but
    /// the table updates run through the resolved slice kernel (SIMD or
    /// scalar, pinned bit-identical) and the two counters are bumped once
    /// per batch instead of once per item.
    fn on_item_slice(&mut self, items: &[Item<Payload>], ctx: &mut dyn RunCtx) {
        // SAFETY: every bucket in flight is `global % table_size_per_worker`
        // (see `on_idle`) and `local_table` is allocated with exactly
        // `table_size_per_worker` slots, validated in `1..=u32::MAX` by
        // `check_table_size` at factory time — so every `item.data.a`
        // indexes in range.
        let checksum = unsafe { self.kernel.histogram_apply(items, &mut self.local_table) };
        ctx.counter("histo_applied", items.len() as u64);
        ctx.counter("histo_applied_checksum", checksum);
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let n = self.chunk.min(self.remaining);
        let workers = ctx.total_workers() as u64;
        let global_buckets = workers * self.table_size_per_worker;
        // The sent checksum accumulates locally and lands as one counter add
        // per chunk — same total as a per-item add, fewer counter lookups.
        let mut checksum = 0u64;
        for _ in 0..n {
            ctx.charge_item_generation();
            let global = ctx.rng().below(global_buckets);
            let dest = WorkerId((global / self.table_size_per_worker) as u32);
            let local_bucket = global % self.table_size_per_worker;
            checksum += local_bucket;
            ctx.send(dest, Payload::new(local_bucket, 0));
        }
        ctx.counter("histo_sent_checksum", checksum);
        self.remaining -= n;
        if self.remaining == 0 && !self.flushed {
            // The paper's histogram calls flush once, after all updates.
            ctx.flush();
            self.flushed = true;
        }
        true
    }

    fn local_done(&self) -> bool {
        self.remaining == 0
    }

    fn on_finalize(&mut self, counters: &mut metrics::Counters) {
        counters.add("histo_table_total", self.local_table.iter().sum());
        counters.max(
            "histo_table_max_bucket",
            self.local_table.iter().copied().max().unwrap_or(0),
        );
        let _ = self.me;
    }
}

/// [`HistogramConfig`] plugs into the [`RunSpec`] builder directly:
/// `RunSpec::for_app(config).backend(..).run()`.  The config's cluster,
/// scheme, buffer and seed become the defaults; builder calls override them.
impl AppSpec for HistogramConfig {
    fn name(&self) -> &'static str {
        "histogram"
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults {
            scheme: self.scheme,
            buffer_items: self.buffer_items,
            item_bytes: 16,
            flush_policy: FlushPolicy::EXPLICIT_ONLY,
            seed: self.seed,
            cluster: self.cluster,
        }
    }

    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let config = *self;
        // `table_size_per_worker` is a public field, so the invariant the
        // unchecked kernel indexing relies on is re-validated here, where
        // the table is actually allocated.
        Self::check_table_size(config.table_size_per_worker)
            .expect("invalid histogram config: bucket-range invariant violated");
        let kernel = kernels::resolve(run.kernel);
        Box::new(move |me: WorkerId| -> Box<dyn WorkerApp> {
            Box::new(HistogramApp {
                me,
                remaining: config.updates_per_worker,
                chunk: config.chunk,
                table_size_per_worker: config.table_size_per_worker,
                local_table: vec![0; config.table_size_per_worker as usize],
                flushed: false,
                kernel,
            })
        })
    }
}

/// Run the histogram benchmark on the simulator and return the run report.
///
/// Useful counters in the report: `histo_applied` (updates applied),
/// `histo_sent_checksum` / `histo_applied_checksum` (conservation check),
/// `wire_messages`, `wire_bytes`, and the TramLib statistics.
pub fn run_histogram(config: HistogramConfig) -> RunReport {
    run_spec(RunSpec::for_app(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_api::Backend;

    fn quick(scheme: Scheme) -> RunReport {
        let cfg = HistogramConfig::new(ClusterSpec::small_smp(2), scheme)
            .with_updates(2_000)
            .with_buffer(64)
            .with_seed(3);
        run_histogram(cfg)
    }

    #[test]
    fn all_updates_applied_and_conserved() {
        for scheme in [Scheme::WW, Scheme::WPs, Scheme::PP, Scheme::WsP] {
            let report = quick(scheme);
            let expected = 2_000 * 16; // updates * workers
            assert!(report.clean(), "{scheme}: not clean");
            assert_eq!(report.counter("histo_applied"), expected, "{scheme}");
            assert_eq!(report.counter("histo_table_total"), expected, "{scheme}");
            assert_eq!(
                report.counter("histo_sent_checksum"),
                report.counter("histo_applied_checksum"),
                "{scheme}: checksum mismatch"
            );
        }
    }

    #[test]
    fn wps_beats_noagg_on_time() {
        let agg = quick(Scheme::WPs);
        let none = quick(Scheme::NoAgg);
        assert!(agg.total_time_ns < none.total_time_ns);
    }

    #[test]
    fn ww_needs_more_messages_for_short_streams() {
        // 2k updates over 16 destinations with buffer 64: WW flushes many
        // partially-filled per-worker buffers, WPs far fewer.
        let ww = quick(Scheme::WW);
        let wps = quick(Scheme::WPs);
        assert!(ww.counter("wire_messages") > wps.counter("wire_messages"));
    }

    #[test]
    fn native_backend_matches_sim_totals() {
        let cfg = HistogramConfig::new(ClusterSpec::small_smp(1), Scheme::WPs)
            .with_updates(1_000)
            .with_buffer(32)
            .with_seed(3);
        let sim = run_spec(RunSpec::for_app(cfg));
        let native = run_spec(RunSpec::for_app(cfg).backend(Backend::Native));
        assert!(native.clean(), "native run must finish cleanly");
        assert_eq!(native.backend, Backend::Native);
        for counter in [
            "histo_applied",
            "histo_sent_checksum",
            "histo_applied_checksum",
            "histo_table_total",
        ] {
            assert_eq!(
                native.counter(counter),
                sim.counter(counter),
                "{counter} diverged between backends"
            );
        }
        assert_eq!(native.items_sent, sim.items_sent);
        assert_eq!(native.items_delivered, sim.items_delivered);
    }

    #[test]
    fn table_size_validation() {
        let cfg = HistogramConfig::new(ClusterSpec::small_smp(1), Scheme::WPs);
        assert_eq!(
            cfg.try_with_table_size(0).unwrap_err(),
            HistogramConfigError::EmptyTable
        );
        assert_eq!(
            cfg.try_with_table_size(1 << 33).unwrap_err(),
            HistogramConfigError::TableTooLarge
        );
        let ok = cfg.try_with_table_size(128).expect("valid size");
        assert_eq!(ok.table_size_per_worker, 128);
        assert!(HistogramConfigError::EmptyTable
            .to_string()
            .contains("at least 1"));
    }

    #[test]
    fn forced_kernel_modes_match() {
        // The same seeded run under every forced kernel mode must produce
        // identical totals — the app-level view of the bit-identity pin.
        let cfg = HistogramConfig::new(ClusterSpec::small_smp(1), Scheme::WPs)
            .with_updates(500)
            .with_buffer(32)
            .with_seed(11);
        let totals = |mode: runtime_api::KernelMode| {
            let report = run_spec(RunSpec::for_app(cfg).kernel(mode));
            assert!(report.clean());
            (
                report.counter("histo_applied"),
                report.counter("histo_applied_checksum"),
                report.counter("histo_table_total"),
                report.counter("histo_table_max_bucket"),
            )
        };
        use runtime_api::KernelMode;
        let auto = totals(KernelMode::Auto);
        assert_eq!(totals(KernelMode::Scalar), auto);
        assert_eq!(totals(KernelMode::Simd), auto);
    }

    #[test]
    fn config_builders() {
        let cfg = HistogramConfig::new(ClusterSpec::small_smp(2), Scheme::PP)
            .with_updates(10)
            .with_buffer(8)
            .with_seed(1);
        assert_eq!(cfg.updates_per_worker, 10);
        assert_eq!(cfg.buffer_items, 8);
        assert_eq!(cfg.seed, 1);
    }
}
