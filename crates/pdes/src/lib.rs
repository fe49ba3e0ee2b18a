//! Optimistic parallel discrete event simulation (PDES) substrate.
//!
//! The paper's final proxy is a synthetic PHOLD benchmark driven by "a
//! place-holder simulation engine": instead of performing real rollbacks, the
//! engine *counts out-of-order messages received*, because every out-of-order
//! receive is work an optimistic (Time Warp style) engine would have to roll
//! back (Fig. 18).  Message latency directly drives that count: the longer an
//! event item sits in an aggregation buffer, the more likely the destination
//! logical process has already advanced past the event's timestamp.
//!
//! This crate provides:
//!
//! * [`OptimisticLp`] — the paper's placeholder engine: tracks local virtual
//!   time and counts out-of-order receives (plus how late they were);
//! * [`RollbackLp`] — an extension beyond the paper: a real Time-Warp-style
//!   engine that keeps processed events and counts how many must be undone per
//!   straggler, for the ablation benchmark;
//! * [`PholdConfig`] / [`PholdConfig::next_event`] — the PHOLD workload: exponential
//!   inter-event times with a fixed lookahead, uniformly random destination
//!   logical processes.

pub mod lp;
pub mod phold;

pub use lp::{OptimisticLp, Receive, RollbackLp};
pub use phold::PholdConfig;
