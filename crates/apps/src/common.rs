//! Shared helpers for configuring benchmark runs and dispatching them to an
//! execution backend.
//!
//! The front door is [`run_spec`] (and the [`RunSpecExt::run`] method it
//! backs): a [`RunSpec`] built in `runtime-api` is resolved against the
//! application's defaults, turned into the matching backend configuration and
//! executed.  This module is the one place that links both backends, which is
//! why the terminal `run()` lives here rather than on the builder itself.

use std::time::Duration;

use native_rt::{NativeBackendConfig, ProcessBackendConfig};
use net_model::WorkerId;
use runtime_api::{Backend, LoadShape, ResolvedRunSpec, RunReport, RunSpec, WorkerApp};
use smp_sim::SimConfig;
use tramlib::{FlushPolicy, Scheme, TramConfig};

pub use runtime_api::ClusterSpec;

/// Build a [`SimConfig`] for a benchmark run.
pub fn sim_config(
    cluster: ClusterSpec,
    scheme: Scheme,
    buffer_items: usize,
    item_bytes: u32,
    flush_policy: FlushPolicy,
    seed: u64,
) -> SimConfig {
    let topo = cluster.topology();
    let tram = TramConfig::new(scheme, topo)
        .with_buffer_items(buffer_items)
        .with_item_bytes(item_bytes)
        .with_flush_policy(flush_policy);
    SimConfig::new(topo, tram).with_seed(seed)
}

/// Run one application (one [`WorkerApp`] instance per worker PE, in worker-id
/// order) on the chosen execution backend.
///
/// The [`SimConfig`] fully describes the run for both backends: the simulator
/// uses all of it, the native threaded backend uses the embedded
/// [`runtime_api::CommonConfig`] (TramLib setup + seed) — its "cost model" is
/// the host machine itself.
pub fn run_app(
    backend: Backend,
    sim: SimConfig,
    make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    match backend {
        Backend::Sim => smp_sim::run_cluster(sim, make_app),
        Backend::Native => run_app_native(sim, |native| native, make_app),
        Backend::Process => {
            native_rt::run_process(ProcessBackendConfig::from_common(sim.common), make_app)
        }
    }
}

/// Run one application on the native backend with backend-specific tuning
/// applied on top of the [`SimConfig`]-derived defaults (watchdog,
/// transport, signals...), for workloads that have no
/// [`runtime_api::AppSpec`].
pub fn run_app_native(
    sim: SimConfig,
    tune: impl FnOnce(NativeBackendConfig) -> NativeBackendConfig,
    make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    let native = tune(NativeBackendConfig::from_common(sim.common));
    native_rt::run_threaded(native, make_app)
}

/// Execute a fully described [`RunSpec`]: resolve the application's defaults,
/// build the backend configuration, run, and stamp the SLO verdict (if any)
/// onto the report's latency summary.
///
/// # Panics
/// Panics if the spec asks for a backend the application cannot run on, or
/// for an open-loop load on the simulator (which has no timer events to pace
/// wall-clock arrivals with).
pub fn run_spec(spec: RunSpec) -> RunReport {
    let run = spec.resolve();
    let app = spec.app();
    match run.backend {
        Backend::Sim => assert!(
            app.sim_capable(),
            "app '{}' does not run on the simulator",
            app.name()
        ),
        // Process mode runs the same `WorkerApp` implementations the
        // threaded backend does, so native capability covers both.
        Backend::Native | Backend::Process => assert!(
            app.native_capable(),
            "app '{}' does not run on the native backends",
            app.name()
        ),
    }
    if matches!(run.load, LoadShape::Open(_)) {
        assert!(
            run.backend == Backend::Native,
            "open-loop load needs the native threaded backend: it is the only \
             one with wall-clock arrival pacing"
        );
    }
    if run.faults.is_some() {
        assert!(
            matches!(run.backend, Backend::Native | Backend::Process),
            "fault injection needs a native backend: the simulator has no \
             workers to crash, stall, or quarantine"
        );
    }
    if run.transport.is_some() {
        assert!(
            run.backend == Backend::Native,
            "an inter-node transport needs the native threaded backend: it \
             is the only one with node-leader threads to drive the wire"
        );
    }
    if run.pin_workers {
        assert!(
            run.backend == Backend::Native,
            "core pinning needs the native threaded backend: it is the only \
             one with worker threads to pin"
        );
    }

    let mut make_app = app.factory(&run);
    let mut report = match run.backend {
        Backend::Sim => {
            let sim = SimConfig::from_common(run.cluster.topology(), run.common());
            smp_sim::run_cluster(sim, make_app.as_mut())
        }
        Backend::Native => native_rt::run_threaded(native_config(&run), make_app.as_mut()),
        Backend::Process => {
            let mut process =
                ProcessBackendConfig::from_common(run.common()).with_faults(run.faults);
            if let Some(max_wall) = run.max_wall {
                process = process.with_max_wall(max_wall);
            }
            native_rt::run_process(process, make_app.as_mut())
        }
    };
    if let Some(slo) = run.slo {
        report.latency = report
            .latency
            .map(|summary| summary.with_slo_target(slo.p99_target_ns));
    }
    report
}

/// The threaded backend's configuration for a resolved spec: every native
/// knob the spec carries, plus the watchdog — the spec's `max_wall`, or for
/// an open-loop run the default widened past the arrival schedule.
fn native_config(run: &ResolvedRunSpec) -> NativeBackendConfig {
    let native = NativeBackendConfig::from_common(run.common())
        .with_pin_workers(run.pin_workers)
        .with_faults(run.faults)
        .with_transport(run.transport);
    match (run.max_wall, run.load) {
        (Some(max_wall), _) => native.with_max_wall(max_wall),
        (None, LoadShape::Open(load)) => {
            // An open-loop run has a known minimum duration (the arrival
            // schedule itself); widen the watchdog well past it so slow
            // machines abort, not healthy runs.
            let secs = load.requests_per_worker as f64 / load.rate_per_worker;
            native.with_max_wall(Duration::from_secs_f64(60.0 + 4.0 * secs.max(0.0)))
        }
        (None, LoadShape::Closed) => native,
    }
}

/// The terminal `run()` for [`RunSpec`], provided here because this crate is
/// the one place that links both backends.
pub trait RunSpecExt {
    /// Execute the spec; see [`run_spec`].
    fn run(self) -> RunReport;
}

impl RunSpecExt for RunSpec {
    fn run(self) -> RunReport {
        run_spec(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_api::{AppDefaults, AppFactory, AppSpec, Payload, RunCtx, RunOutcome};

    #[test]
    fn sim_config_carries_parameters() {
        let c = ClusterSpec::small_smp(2);
        let cfg = sim_config(c, Scheme::WPs, 128, 8, FlushPolicy::ON_IDLE, 7);
        assert_eq!(cfg.common.tram.buffer_items, 128);
        assert_eq!(cfg.common.tram.item_bytes, 8);
        assert_eq!(cfg.common.seed, 7);
        assert!(cfg.common.tram.flush_policy.on_idle);
    }

    /// Every worker sends one item into a 1024-item buffer it never flushes,
    /// under a policy that never flushes it either: only the watchdog ends
    /// the run.
    struct Strander;

    impl AppSpec for Strander {
        fn name(&self) -> &'static str {
            "strander"
        }

        fn defaults(&self) -> AppDefaults {
            AppDefaults {
                scheme: Scheme::WW,
                cluster: ClusterSpec::small_smp(1),
                ..AppDefaults::default()
            }
        }

        fn factory(&self, _run: &ResolvedRunSpec) -> AppFactory {
            struct Worker {
                sent: bool,
            }
            impl WorkerApp for Worker {
                fn on_item(&mut self, _item: Payload, _created: u64, _ctx: &mut dyn RunCtx) {}
                fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
                    if self.sent {
                        return false;
                    }
                    self.sent = true;
                    let dest = WorkerId((ctx.my_id().0 + 4) % 8);
                    ctx.send(dest, Payload::new(1, 2));
                    true
                }
                fn local_done(&self) -> bool {
                    self.sent
                }
            }
            Box::new(|_| Box::new(Worker { sent: false }))
        }
    }

    #[test]
    fn tuned_native_runs_honour_the_spec_watchdog() {
        let started = std::time::Instant::now();
        let report = run_spec(
            RunSpec::for_app(Strander)
                .backend(Backend::Native)
                .max_wall(Duration::from_millis(150)),
        );
        let RunOutcome::Aborted { reason, .. } = &report.outcome else {
            panic!("stranding must abort, got {:?}", report.outcome);
        };
        assert!(reason.contains("watchdog"), "{reason}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the 150 ms spec watchdog was ignored: {:?}",
            started.elapsed()
        );
    }

    #[test]
    #[should_panic(expected = "core pinning needs the native threaded backend")]
    fn pinning_off_the_threaded_backend_is_rejected() {
        run_spec(
            RunSpec::for_app(Strander)
                .backend(Backend::Sim)
                .pin_workers(true),
        );
    }
}
