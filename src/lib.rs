//! # smp-aggregation
//!
//! A Rust reproduction of **"Shared Memory-Aware Latency-Sensitive Message
//! Aggregation for Fine-Grained Communication"** (Chandrasekar & Kale,
//! SC 2024 / arXiv:2411.03533).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`tramlib`] — the aggregation library itself (schemes WW, WPs, WsP, PP,
//!   buffers, flush policies incl. the adaptive timeout, the §III-C
//!   analytical formulas);
//! * [`runtime_api`] — the backend-agnostic application contract
//!   (`WorkerApp`, `RunCtx`, `Backend`, the unified `RunReport`) and the
//!   [`runtime_api::RunSpec`] builder every run goes through;
//! * [`smp_sim`] — the discrete-event SMP cluster simulator (worker PEs,
//!   per-process communication threads, α–β network) that stands in for the
//!   Delta supercomputer;
//! * [`native_rt`] — the native threaded backend: the same applications on one
//!   OS thread per worker PE, with real aggregators and [`shmem`] buffers;
//! * [`apps`] — the paper's proxy applications (histogram, index-gather,
//!   SSSP, PHOLD, PingAck, ping-pong) plus the open-loop keyed service, each
//!   an [`runtime_api::AppSpec`] pluggable into the `RunSpec` builder;
//! * [`net_model`], [`sim_core`], [`metrics`], [`graph`], [`pdes`] — the
//!   supporting substrates.
//!
//! ## Quickstart
//!
//! One entry point runs everything: build a [`runtime_api::RunSpec`] for an
//! application config, override whatever the sweep varies, pick a backend,
//! and `run()`:
//!
//! ```
//! use smp_aggregation::prelude::*;
//!
//! // 2 nodes x 2 processes x 4 workers, WPs scheme, on the simulator.
//! let config = HistogramConfig::new(ClusterSpec::small_smp(2), Scheme::WPs)
//!     .with_updates(2_000);
//! let report = RunSpec::for_app(config)
//!     .backend(Backend::Sim)
//!     .buffer(64)
//!     .run();
//! assert!(report.clean());
//! println!("histogram took {:.3} ms of simulated time", report.total_time_ns as f64 / 1e6);
//! ```
//!
//! The same spec runs on real threads with `.backend(Backend::Native)`, and
//! an open-loop latency run adds `.load(open_loop(rate))` plus an SLO:
//!
//! ```no_run
//! use smp_aggregation::prelude::*;
//!
//! let report = RunSpec::for_app(ServiceConfig::new(ClusterSpec::smp(1, 2, 2), Scheme::WPs))
//!     .backend(Backend::Native)
//!     .load(open_loop(100_000.0).requests(50_000))
//!     .slo(SloPolicy::p99_ms(2))
//!     .run();
//! if let Some(latency) = report.latency {
//!     println!("{}", latency.render());
//! }
//! ```

pub use apps;
pub use graph;
pub use kernels;
pub use metrics;
pub use native_rt;
pub use net_model;
pub use pdes;
pub use runtime_api;
pub use shmem;
pub use sim_core;
pub use smp_sim;
pub use tramlib;
pub use transport;

/// The most commonly used types and functions, in one import.
pub mod prelude {
    pub use apps::common::{run_app, run_spec, sim_config, RunSpecExt};
    pub use apps::histogram::{run_histogram, HistogramConfig};
    pub use apps::index_gather::{run_index_gather, IndexGatherConfig};
    pub use apps::phold::{run_phold, PholdBenchConfig};
    pub use apps::pingack::{run_pingack, PingAckConfig};
    pub use apps::service::{run_service, ServiceConfig};
    pub use apps::sssp::{run_sssp, SsspConfig};
    pub use apps::ClusterSpec;
    pub use metrics::LatencySummary;
    pub use native_rt::{run_process, run_threaded, NativeBackendConfig, ProcessBackendConfig};
    pub use net_model::{NodeId, ProcId, Topology, WorkerId};
    pub use runtime_api::{
        open_loop, AppSpec, Backend, CommonArgs, CommonConfig, FaultKind, FaultPlan, KernelMode,
        Payload, RunCtx, RunOutcome, RunReport, RunSpec, SloPolicy, TransportKind, WorkerApp,
    };
    pub use smp_sim::{run_cluster, SimConfig, WorkerCtx};
    pub use tramlib::{Aggregator, FlushPolicy, Item, Owner, Scheme, TramConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_work_together() {
        let topo = Topology::smp(2, 2, 2);
        let tram = TramConfig::new(Scheme::WPs, topo).with_buffer_items(8);
        let mut agg = Aggregator::<u64>::new(tram, Owner::Worker(WorkerId(0)));
        let out = agg.insert(Item::new(WorkerId(5), 42, 0));
        assert!(out.message.is_none());
        assert_eq!(agg.buffered_items(), 1);
    }

    #[test]
    fn prelude_spec_path_runs() {
        let config = HistogramConfig::new(ClusterSpec::smp(1, 1, 2), Scheme::WW).with_updates(50);
        let report = RunSpec::for_app(config).backend(Backend::Sim).run();
        assert!(report.clean());
    }
}
