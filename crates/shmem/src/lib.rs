//! Native shared-memory aggregation primitives.
//!
//! The discrete-event simulator models the *cost* of the PP scheme's atomics;
//! this crate implements the real thing, so that the within-process half of the
//! paper can be exercised with actual threads on the host machine:
//!
//! * [`ClaimBuffer`] — the PP insertion path: a fixed, lock-free array of
//!   slots shared by all workers of a process, filled with an atomic claim
//!   counter (fetch-add) and published with a commit counter so exactly one
//!   inserter wins the right to hand the full buffer to the comm thread.  No
//!   mutex anywhere on the insert path.
//! * [`SpscRing`] — the WW insertion path: a bounded single-producer
//!   single-consumer ring buffer, one per (source worker, destination) pair,
//!   with no atomic read-modify-write on the hot path.
//! * [`SlabArena`] — the shared message store: per-worker arenas of
//!   fixed-capacity slabs with generation-counted claim/release.  A message
//!   is filled privately and copied once into a slab when it ships
//!   ([`SlabArena::fill`]); only 16-byte handles move after that.
//! * [`PaddedCounter`] — a cache-line padded relaxed counter for statistics
//!   that must not introduce false sharing.
//!
//! The `segment` module and the `Seg*` twins of the three data-path
//! primitives extend all of this across **process** boundaries: a
//! [`Segment`] is one `memfd_create` + `mmap(MAP_SHARED)` mapping forked
//! workers inherit, and [`SegRing`], [`SegArena`] and [`SegClaim`] are
//! offset-based views with `#[repr(C)]` in-segment control blocks, hardened
//! against writers that die mid-protocol (per-slot sequence stamps, MPMC
//! release, supervisor-side forced reclamation).  `native-rt`'s process
//! backend is built out of them.
//!
//! All types are `Send + Sync` where appropriate and are stress-tested with
//! real threads in this crate's test-suite; the `native-rt` crate builds its
//! threaded execution backend out of them, and `bench` measures the WW vs PP
//! insertion contention on real hardware (the A2 ablation in
//! `docs/DESIGN.md`, which also has the insertion-path diagrams these
//! primitives implement).

pub mod claim;
pub mod counter;
pub mod ring;
pub mod seg_claim;
pub mod seg_ring;
pub mod seg_slab;
pub mod segment;
pub mod slab;

pub use claim::{ClaimBuffer, ClaimResult};
pub use counter::PaddedCounter;
pub use ring::SpscRing;
pub use seg_claim::{SegClaim, SegClaimInsert};
pub use seg_ring::SegRing;
pub use seg_slab::SegArena;
pub use segment::{
    marker_dir, scan_orphans, MarkerGuard, OrphanSweep, SegHeader, Segment, SegmentLayout,
};
pub use slab::{ArenaStats, SlabArena, SlabAudit, SlabHandle, SlabRange};
