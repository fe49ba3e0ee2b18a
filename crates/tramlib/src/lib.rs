//! # TramLib — SMP-aware, latency-sensitive message aggregation
//!
//! This crate is the Rust re-implementation of the paper's core contribution:
//! a message-aggregation library for runtimes that operate in **SMP mode**
//! (several worker PEs per OS process, one dedicated communication thread per
//! process).  Applications hand the library fine-grained *items* addressed to a
//! destination worker; the library coalesces them into *messages* according to
//! one of four schemes and hands the messages to the transport when a buffer
//! fills, a timeout fires, the worker goes idle, or the application asks for a
//! flush.
//!
//! ## Aggregation schemes (§III-B of the paper)
//!
//! | Scheme | Source buffer granularity | Grouping by destination worker |
//! |--------|---------------------------|--------------------------------|
//! | [`Scheme::WW`]  | one buffer per destination **worker**  | not needed |
//! | [`Scheme::WPs`] | one buffer per destination **process** | at the **destination** |
//! | [`Scheme::WsP`] | one buffer per destination **process** | at the **source** |
//! | [`Scheme::PP`]  | one **shared** buffer per destination process, per source **process** (atomics) | at the destination |
//! | [`Scheme::NoAgg`] | none — every item is its own message | — |
//!
//! The library itself is execution-substrate agnostic: the discrete-event
//! cluster simulator (`smp-sim`) and the native threaded runtime
//! (`native-rt`) both drive the same [`Aggregator`] type.  The aggregator
//! reports *what* must happen (a message is ready, it needs grouping at the
//! destination, an item can bypass aggregation because the destination is
//! process-local); the substrate decides *what it costs*.
//!
//! ## Quick example
//!
//! ```
//! use tramlib::{Aggregator, Owner, Scheme, TramConfig};
//! use net_model::Topology;
//!
//! // 2 nodes x 2 processes x 4 workers.
//! let topo = Topology::smp(2, 2, 4);
//! let config = TramConfig::new(Scheme::WPs, topo).with_buffer_items(4);
//! let mut agg = Aggregator::<u64>::new(config, Owner::Worker(net_model::WorkerId(0)));
//!
//! // Insert items destined to worker 9 (process 2, on the other node).
//! for i in 0..3 {
//!     let out = agg.insert(tramlib::Item::new(net_model::WorkerId(9), i, 0));
//!     assert!(out.message.is_none());       // buffer not full yet
//! }
//! let out = agg.insert(tramlib::Item::new(net_model::WorkerId(9), 3, 0));
//! let msg = out.message.expect("4th item fills the buffer");
//! assert_eq!(msg.items.len(), 4);
//! ```

pub mod aggregator;
pub mod analysis;
pub mod buffer;
pub mod config;
pub mod error;
pub mod group;
pub mod item;
pub mod message;
pub mod pool;
pub mod receiver;
pub mod scheme;
pub mod stats;

pub use aggregator::{Aggregator, InsertOutcome, Owner, SlabInsertOutcome};
pub use buffer::ItemBuffer;
pub use config::{FlushPolicy, TramConfig};
pub use error::TramError;
pub use item::Item;
pub use message::{EmitReason, EmittedMessage, MessageDest, OutboundMessage, SlabSealed};
pub use pool::{PoolStats, VecPool};
pub use receiver::{DeliveryPlan, GroupingOutcome, PooledReceiver};
pub use scheme::Scheme;
pub use stats::TramStats;
