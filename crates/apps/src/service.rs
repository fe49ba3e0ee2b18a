//! The open-loop keyed service: latency under offered load.
//!
//! Every worker PE plays two roles at once.  As a **client shard** it issues
//! keyed requests on a wall-clock arrival schedule drawn ahead of time from
//! its seeded RNG — requests arrive whether or not the runtime keeps up, which
//! is what makes the load *open-loop*.  As a **server shard** it owns a slice
//! of a distributed key table; a request bumps the key's counter and a
//! response is sent back to the issuing shard.  The issuer measures service
//! latency from the request's *scheduled arrival time* to the response — so a
//! runtime that falls behind the schedule pays the backlog as latency, exactly
//! as a real latency-sensitive service would.
//!
//! Requests and responses flow through the normal aggregation path, which is
//! the point: the measured latency includes the buffering delay that
//! closed-loop workloads hide.
//!
//! The app is native-only: the simulator has no timer events to pace
//! wall-clock arrivals (or age out partially-filled buffers) with.  Under a
//! closed [`LoadShape`] every arrival is due immediately: the saturating
//! mode.

use net_model::WorkerId;
use runtime_api::{
    AppDefaults, AppFactory, AppSpec, ArrivalProcess, LoadShape, OpenLoad, Payload,
    ResolvedRunSpec, RunCtx, RunReport, RunSpec, WorkerApp,
};
use tramlib::{FlushPolicy, Scheme};

use crate::common::{run_spec, ClusterSpec};

/// The service app is the one workload that *requires* the native backend.
pub const NATIVE_CAPABLE: bool = true;

/// Default experiment seed ("SERVICE!" in ASCII).
const SERVICE_SEED: u64 = 0x5345_5256_4943_4521;

/// Hard cap on requests injected per `on_idle` call, so a shard that fell
/// behind its schedule still interleaves catch-up injection with serving the
/// requests already in its inbox.
const MAX_BURST: u64 = 256;

/// Service benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// Aggregation scheme.
    pub scheme: Scheme,
    /// Requests each client shard issues in closed-loop (calibration) mode;
    /// an open-loop [`LoadShape`] carries its own request count.
    pub requests_per_worker: u64,
    /// Keys owned by each server shard.
    pub table_size_per_worker: u64,
    /// TramLib buffer size `g`.
    pub buffer_items: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl ServiceConfig {
    /// Defaults for a given cluster and scheme: 10 000 requests per shard,
    /// 4K keys per shard, buffer of 256 items.
    pub fn new(cluster: ClusterSpec, scheme: Scheme) -> Self {
        Self {
            cluster,
            scheme,
            requests_per_worker: 10_000,
            table_size_per_worker: 4096,
            buffer_items: 256,
            seed: SERVICE_SEED,
        }
    }

    /// Set the closed-loop request count per shard.
    pub fn with_requests(mut self, requests: u64) -> Self {
        self.requests_per_worker = requests;
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

/// Payload word `a`: the kind bit, the key's local index on the owning shard,
/// and the issuing worker id.  Word `b` carries the scheduled arrival time of
/// the request, echoed back verbatim in the response.
const KIND_RESPONSE: u64 = 1 << 63;

struct ServiceApp {
    me: WorkerId,
    /// Requests this client shard still has to issue.
    remaining: u64,
    /// The open-loop schedule, or `None` for saturating closed-loop mode.
    open: Option<OpenLoad>,
    /// Scheduled arrival of the next request (open-loop only), in ns since
    /// run start.
    next_arrival_ns: u64,
    table_size_per_worker: u64,
    /// This server shard's slice of the key table.
    table: Vec<u64>,
    responses_received: u64,
    flushed: bool,
}

impl ServiceApp {
    /// Draw the next inter-arrival gap in nanoseconds.  Gaps come out of the
    /// worker's seeded RNG in issue order, so the full (key, gap) sequence —
    /// and with it every conservation total — is deterministic per seed no
    /// matter how the wall clock behaves.
    fn draw_gap_ns(&self, open: &OpenLoad, ctx: &mut dyn RunCtx) -> u64 {
        let mean_ns = 1e9 / open.rate_per_worker;
        match open.arrival {
            ArrivalProcess::Poisson => ctx.rng().exponential(mean_ns).round() as u64,
            ArrivalProcess::FixedRate => mean_ns.round() as u64,
        }
    }
}

impl WorkerApp for ServiceApp {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        if item.a & KIND_RESPONSE == 0 {
            // A request: bump the key, answer the issuer with the scheduled
            // arrival time echoed back.
            let issuer = WorkerId((item.a & 0xFFFF_FFFF) as u32);
            let key = (item.a >> 32) & 0x7FFF_FFFF;
            self.table[(key % self.table_size_per_worker) as usize] += 1;
            ctx.counter("svc_requests_served", 1);
            ctx.send(issuer, Payload::new(KIND_RESPONSE | key, item.b));
        } else {
            // A response to one of our requests: item.b is the scheduled
            // arrival time, so now - b is the full service latency including
            // any time the request spent behind schedule.
            self.responses_received += 1;
            ctx.counter("svc_responses", 1);
            ctx.record_app_latency(ctx.now_ns().saturating_sub(item.b));
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let now = ctx.now_ns();
        let workers = ctx.total_workers() as u64;
        let global_keys = workers * self.table_size_per_worker;
        let mut injected = 0u64;
        while self.remaining > 0 && injected < MAX_BURST {
            let scheduled = match &self.open {
                Some(_) if self.next_arrival_ns > now => break,
                Some(_) => self.next_arrival_ns,
                None => now,
            };
            ctx.charge_item_generation();
            let global = ctx.rng().below(global_keys);
            let dest = WorkerId((global / self.table_size_per_worker) as u32);
            let key = global % self.table_size_per_worker;
            let a = (key << 32) | self.me.0 as u64;
            ctx.send(dest, Payload::new(a, scheduled));
            ctx.counter("svc_requests_sent", 1);
            self.remaining -= 1;
            if let Some(open) = self.open {
                self.next_arrival_ns += self.draw_gap_ns(&open, ctx);
            }
            injected += 1;
        }
        if self.remaining == 0 && !self.flushed {
            // The last scheduled request must not wait out a buffer timeout.
            ctx.flush();
            self.flushed = true;
        }
        // Stay hot while the schedule is live: returning `false` would let
        // the worker escalate into naps far coarser than the arrival gaps.
        true
    }

    fn local_done(&self) -> bool {
        self.remaining == 0
    }

    fn on_finalize(&mut self, counters: &mut metrics::Counters) {
        counters.add("svc_responses_final", self.responses_received);
        counters.add("svc_table_total", self.table.iter().sum());
        let _ = self.me;
    }
}

/// [`ServiceConfig`] plugs into the [`RunSpec`] builder directly; this is the
/// one app whose factory consumes the spec's [`LoadShape`].
impl AppSpec for ServiceConfig {
    fn name(&self) -> &'static str {
        "service"
    }

    fn sim_capable(&self) -> bool {
        false
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults {
            scheme: self.scheme,
            buffer_items: self.buffer_items,
            item_bytes: 16,
            // A latency-sensitive service cannot wait for buffers to fill:
            // drain on idle, and age partial buffers out after 100µs as a
            // fixed backstop (docs/DESIGN.md §7.4).
            flush_policy: FlushPolicy {
                on_idle: true,
                ..FlushPolicy::with_timeout(100_000)
            },
            seed: self.seed,
            cluster: self.cluster,
        }
    }

    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let config = *self;
        let (open, requests) = match run.load {
            LoadShape::Open(open) => (Some(open), open.requests_per_worker),
            LoadShape::Closed => (None, config.requests_per_worker),
        };
        Box::new(move |me: WorkerId| -> Box<dyn WorkerApp> {
            Box::new(ServiceApp {
                me,
                remaining: requests,
                open,
                next_arrival_ns: 0,
                table_size_per_worker: config.table_size_per_worker,
                table: vec![0; config.table_size_per_worker as usize],
                responses_received: 0,
                flushed: false,
            })
        })
    }
}

/// Run the service benchmark on the native backend (closed-loop unless the
/// spec's load says otherwise); see [`ServiceConfig`] and [`crate::common::run_spec`].
///
/// Conservation counters: `svc_requests_sent` == `svc_requests_served` ==
/// `svc_responses` == `svc_table_total`; `RunReport::latency` holds the
/// service-latency summary.
pub fn run_service(config: ServiceConfig) -> RunReport {
    run_spec(RunSpec::for_app(config).backend(runtime_api::Backend::Native))
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_api::{open_loop, Backend, SloPolicy};

    fn base() -> ServiceConfig {
        ServiceConfig::new(ClusterSpec::small_smp(1), Scheme::WPs)
            .with_requests(2_000)
            .with_buffer(64)
            .with_seed(11)
    }

    fn assert_conserved(report: &RunReport, expected: u64) {
        assert!(report.clean(), "run did not finish cleanly");
        assert_eq!(report.counter("svc_requests_sent"), expected);
        assert_eq!(report.counter("svc_requests_served"), expected);
        assert_eq!(report.counter("svc_responses"), expected);
        assert_eq!(report.counter("svc_table_total"), expected);
    }

    #[test]
    fn closed_loop_conserves_and_measures() {
        let report = run_service(base());
        assert_conserved(&report, 2_000 * 8);
        let latency = report.latency.expect("service records latency");
        assert_eq!(latency.count, 2_000 * 8);
        assert!(latency.p99_ns >= latency.p50_ns);
    }

    #[test]
    fn open_loop_conserves_and_stamps_slo() {
        let report = run_spec(
            RunSpec::for_app(base())
                .backend(Backend::Native)
                .load(open_loop(200_000.0).requests(1_000))
                .slo(SloPolicy::p99_ms(50)),
        );
        assert_conserved(&report, 1_000 * 8);
        let latency = report.latency.expect("service records latency");
        assert_eq!(latency.count, 1_000 * 8);
        let slo = latency.slo.expect("SLO verdict stamped");
        assert_eq!(slo.p99_target_ns, 50_000_000);
    }

    #[test]
    fn open_loop_traffic_is_deterministic_per_seed() {
        let run = |seed| {
            run_spec(
                RunSpec::for_app(base().with_seed(seed))
                    .backend(Backend::Native)
                    .load(open_loop(500_000.0).requests(500)),
            )
        };
        let a = run(7);
        let b = run(7);
        // Wall-clock timings differ, but the drawn (key, gap) sequences — and
        // with them every conservation total — must not.
        assert_eq!(
            a.counter("svc_requests_sent"),
            b.counter("svc_requests_sent")
        );
        assert_eq!(a.counter("svc_table_total"), b.counter("svc_table_total"));
        assert_eq!(a.items_sent, b.items_sent);
        let c = run(8);
        assert_eq!(
            a.counter("svc_requests_sent"),
            c.counter("svc_requests_sent")
        );
    }

    #[test]
    fn fixed_rate_arrivals_also_complete() {
        let report = run_spec(
            RunSpec::for_app(base())
                .backend(Backend::Native)
                .scheme(Scheme::PP)
                .load(open_loop(300_000.0).requests(500).fixed_rate()),
        );
        assert_conserved(&report, 500 * 8);
    }

    #[test]
    fn sim_backend_is_rejected() {
        let err = RunSpec::for_app(base()).resolve().unwrap_err();
        assert_eq!(
            err.rule(),
            "app-backend",
            "service must refuse the simulator"
        );
    }
}
