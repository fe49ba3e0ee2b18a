//! Shared helpers for configuring benchmark runs and dispatching them to an
//! execution backend.
//!
//! The front door is [`run_spec`] (and the [`RunSpecExt::run`] method it
//! backs): a [`RunSpec`] built in `runtime-api` is resolved against the
//! application's defaults and validated, and the result is handed to the
//! engine its backend names.  This module is the one place that links every
//! backend, which is why the terminal `run()` lives here rather than on the
//! builder itself.

use runtime_api::{Backend, RunReport, RunSpec};

pub use runtime_api::ClusterSpec;

/// Execute a fully described [`RunSpec`]: resolve and validate it, run it on
/// its backend, and stamp the SLO verdict (if any) onto the report's latency
/// summary.
///
/// # Panics
/// Panics with the [`runtime_api::SpecError`] if the spec breaks a
/// backend/option rule (see [`RunSpec::resolve`]).
pub fn run_spec(spec: RunSpec) -> RunReport {
    let run = spec.resolve().unwrap_or_else(|err| panic!("{err}"));
    let mut make_app = spec.app().factory(&run);
    let mut report = match run.backend {
        Backend::Sim => smp_sim::run_cluster(&run, make_app.as_mut()),
        Backend::Native => native_rt::run_threaded(&run, make_app.as_mut()),
        Backend::Process => native_rt::run_process(&run, make_app.as_mut()),
    };
    if let Some(slo) = run.slo {
        report.latency = report
            .latency
            .map(|summary| summary.with_slo_target(slo.p99_target_ns));
    }
    report
}

/// The terminal `run()` for [`RunSpec`], provided here because this crate is
/// the one place that links every backend.
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
    use std::time::Duration;

    use net_model::WorkerId;
    use runtime_api::{
        AppDefaults, AppFactory, AppSpec, Payload, ResolvedRunSpec, RunCtx, RunOutcome, WorkerApp,
    };
    use tramlib::Scheme;

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
}
