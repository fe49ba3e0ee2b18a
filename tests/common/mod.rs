//! Helpers shared by the integration suites: a minimal sequential test
//! runner for `harness = false` binaries, a one-CPU harness, and the adaptor
//! that runs ad-hoc `WorkerApp` closures through `RunSpec`.
//!
//! The multi-process backend forks without exec'ing, which requires the
//! forking thread to be the process's *only* thread — libtest runs every
//! `#[test]` on its own spawned thread, so any suite that exercises
//! `Backend::Process` runs as a plain binary instead and drives its cases
//! from `main` through this runner.  Output mimics libtest's so log-scraping
//! tooling keeps counting passes the same way.

use std::panic::{catch_unwind, AssertUnwindSafe};

use smp_aggregation::net_model::WorkerId;
use smp_aggregation::runtime_api::{
    AppDefaults, AppFactory, AppSpec, ResolvedRunSpec, RunSpec, WorkerApp,
};

/// Run `tests` sequentially on the calling thread; honours an optional
/// substring filter from argv (flags are ignored) and exits non-zero if any
/// case fails.
#[allow(dead_code)] // only the `harness = false` suites drive their own cases
pub(crate) fn run(tests: &[(&str, fn())]) {
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let selected: Vec<_> = tests
        .iter()
        .filter(|(name, _)| filter.as_deref().map_or(true, |f| name.contains(f)))
        .collect();
    let selected_len = selected.len();
    println!("\nrunning {selected_len} tests");
    let mut failed: Vec<&str> = Vec::new();
    for (name, test) in selected {
        match catch_unwind(AssertUnwindSafe(test)) {
            Ok(()) => println!("test {name} ... ok"),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                println!("test {name} ... FAILED\n---- {name} ----\n{msg}\n");
                failed.push(name);
            }
        }
    }
    let outcome = if failed.is_empty() { "ok" } else { "FAILED" };
    println!(
        "\ntest result: {outcome}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out\n",
        selected_len - failed.len(),
        failed.len(),
        tests.len() - selected_len,
    );
    if !failed.is_empty() {
        std::process::exit(101);
    }
}

/// Extract the panic message from a `catch_unwind` payload (used by cases
/// that assert on expected panics).
#[allow(dead_code)] // not every suite asserts on expected panics
pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run `case` with every thread it spawns confined to one CPU — what
/// `taskset -c 0` does to a whole process, for one case: the mask is set on
/// a thread of its own, and the threads a run spawns from it inherit it.
/// Returns `false`, having run nothing, where the kernel refuses the mask.
#[allow(dead_code)] // not every suite has a one-CPU case
pub(crate) fn on_one_cpu(case: impl FnOnce() + Send) -> bool {
    std::thread::scope(|scope| {
        let pinned = scope.spawn(|| {
            let pinned = smp_aggregation::native_rt::pin_current_thread(0);
            if pinned {
                case();
            }
            pinned
        });
        match pinned.join() {
            Ok(pinned) => pinned,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Ad-hoc `WorkerApp` closures as an [`AppSpec`], so they run through
/// `RunSpec` like every app: the defaults a test sets (cluster, scheme,
/// buffer, flush policy, seed), and a factory cloned into every run.
struct AdHoc<F> {
    defaults: AppDefaults,
    make: F,
}

impl<F> AppSpec for AdHoc<F>
where
    F: FnMut(WorkerId) -> Box<dyn WorkerApp> + Clone + 'static,
{
    fn name(&self) -> &'static str {
        "ad-hoc"
    }

    fn defaults(&self) -> AppDefaults {
        self.defaults
    }

    fn factory(&self, _run: &ResolvedRunSpec) -> AppFactory {
        Box::new(self.make.clone())
    }
}

/// A spec running `make` (one app per worker) under `defaults`.
#[allow(dead_code)] // not every suite drives ad-hoc apps
pub(crate) fn ad_hoc<F>(defaults: AppDefaults, make: F) -> RunSpec
where
    F: FnMut(WorkerId) -> Box<dyn WorkerApp> + Clone + 'static,
{
    RunSpec::for_app(AdHoc { defaults, make })
}
