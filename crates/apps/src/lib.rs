//! Benchmark applications over the shared runtime contract.
//!
//! Each module re-implements one of the paper's proxy applications against the
//! backend-agnostic [`runtime_api::WorkerApp`] trait.  Every app's `Config`
//! struct implements [`runtime_api::AppSpec`], so the front door for all of
//! them is the [`runtime_api::RunSpec`] builder plus the terminal
//! [`common::RunSpecExt::run`] provided here:
//!
//! ```ignore
//! let report = RunSpec::for_app(HistogramConfig::new(cluster, scheme))
//!     .backend(Backend::Native)
//!     .run();
//! ```
//!
//! The per-app `run_*` free functions remain as thin conveniences over the
//! same path.
//!
//! | Module | Paper benchmark | Figures | Backends |
//! |--------|-----------------|---------|----------|
//! | [`pingpong`] | ping-pong RTT/2 vs message size | Fig. 1 | — (analytic) |
//! | [`pingack`]  | PingAck SMP vs non-SMP (comm-thread bottleneck) | Fig. 3 | both |
//! | [`histogram`] | Bale histogram (overhead in isolation) | Figs. 8–11 | both |
//! | [`index_gather`] | Bale index-gather (latency in isolation) | Figs. 12–13 | both |
//! | [`sssp`] | speculative single-source shortest path | Figs. 14–17 | sim-only |
//! | [`phold`] | synthetic PHOLD over an optimistic PDES engine | Fig. 18 | sim-only |
//! | [`service`] | open-loop keyed service (latency under offered load) | — | native-only |

pub mod common;
pub mod histogram;
pub mod index_gather;
pub mod phold;
pub mod pingack;
pub mod pingpong;
pub mod service;
pub mod sssp;

pub use common::{run_spec, ClusterSpec, RunSpecExt};
pub use runtime_api::{open_loop, AppSpec, Backend, RunSpec, SloPolicy};
