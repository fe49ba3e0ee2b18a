//! Native shared-memory aggregation primitives.
//!
//! The discrete-event simulator models the *cost* of the PP scheme's atomics;
//! this crate implements the real thing, so that the within-process half of the
//! paper can be exercised with actual threads and processes on the host:
//!
//! * [`SegClaim`] — the PP insertion path: a fixed, lock-free array of
//!   slots shared by all workers of a process, claimed with one `fetch_add`
//!   and published with a per-slot stamp; a drain lock in the claim word
//!   lets exactly one drainer seal and read it.  No mutex anywhere on the
//!   insert path.
//! * [`SegRing`] — the delivery mesh: a bounded single-producer
//!   single-consumer ring, one per (source worker, destination) pair, with
//!   no atomic read-modify-write on the hot path.
//! * [`SegArena`] — the shared message store: per-worker arenas of
//!   fixed-capacity slabs with generation-counted claim/release.  A message
//!   is filled privately and copied once into a slab when it ships
//!   ([`SegArena::fill`]); only 16-byte handles move after that.
//! * [`PaddedCounter`] — a cache-line padded relaxed counter for statistics
//!   that must not introduce false sharing.
//!
//! Each data-path primitive is written once, as a *view*: a `#[repr(C)]`
//! control block with explicit padding and its slots, laid out in a region
//! at a fixed address.  The process engine lays them out in one
//! [`Segment`] — a `memfd_create` + `mmap(MAP_SHARED)` mapping forked
//! workers inherit — and hardens them against writers that die
//! mid-protocol (per-slot stamps, MPMC release, supervisor-side forced
//! reclamation).  The threaded engine uses the heap owners [`SpscRing`],
//! [`SlabArena`] and [`ClaimBuffer`]: each allocates its view's region on
//! the heap, derefs to the view and frees the region on drop.
//!
//! All types are `Send + Sync` where appropriate and are stress-tested with
//! real threads in this crate's test-suite; `native-rt` builds both of its
//! engines out of them, and the benchmark times each one on its own
//! (`docs/DESIGN.md` has the insertion-path diagrams these primitives
//! implement).

pub mod claim;
pub mod counter;
pub mod ring;
pub mod segment;
pub mod slab;

// Cases over the ring and arena views laid out in a shared-memory
// `Segment`, the placement the process engine uses; each primitive's own
// test module drives its heap owner.
#[cfg(test)]
mod seg_ring {
    mod tests;
}
#[cfg(test)]
mod seg_slab {
    mod tests;
}

pub use claim::{ClaimBuffer, ClaimResult, SegClaim, SegClaimInsert};
pub use counter::PaddedCounter;
pub use ring::{SegRing, SpscRing};
pub use segment::{
    marker_dir, scan_orphans, MarkerGuard, OrphanSweep, SegHeader, Segment, SegmentLayout,
};
pub use slab::{ArenaStats, SegArena, SlabArena, SlabAudit, SlabHandle, SlabRange};
