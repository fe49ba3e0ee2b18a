//! The slab arena: the shared message store of the native delivery meshes.
//!
//! A [`SegArena`] is one region divided into fixed-capacity *slabs*, laid
//! out behind a `#[repr(C)]` control block and a per-slab metadata array —
//! in a [`Segment`](crate::segment::Segment) on the process engine, in a
//! heap region owned by a [`SlabArena`] on the threaded one.  Each worker
//! owns one arena.  A worker buffers a message's items in private memory
//! and, when the message ships, [`SegArena::fill`] claims a slab, copies the
//! items into it once and seals it.  What ships over the delivery mesh is
//! then a 16-byte [`SlabHandle`] — the items never move again: the receiving
//! worker borrows them as a slice straight out of the owner's arena, and the
//! last consumer puts the spent slab back on the owner's free list itself.
//!
//! # Lifecycle of one slab
//!
//! ```text
//! claim ─▶ fill (owner copies slots 0..len) ─▶ seal (outstanding = 1)
//!   ▲                                            │ handle ships on a ring
//!   │                                            ▼
//! release (last consumer) ◀─ finish ◀─ borrow (&[T] at the consumer(s))
//! ```
//!
//! A sealed slab may be *split*: the receiving worker of a process-addressed
//! slab delivers its own index range and forwards the other per-worker ranges
//! to its process peers as [`SlabRange`]s.  The per-slab `outstanding`
//! consumer count tracks the split; the consumer whose
//! [`SegArena::finish_consumer`] drops it to zero releases the slab.
//!
//! # Ownership and safety rules
//!
//! The arena only stores `Copy` plain old data (no drops, no leaks, no
//! double-frees by construction).  Exclusive access to slab contents is a
//! *protocol* property, enforced by the callers and checked by generation
//! counters in debug builds:
//!
//! 1. Between `try_claim` and `seal`, the claiming (owner) thread is the only
//!    one touching the slab's slots.
//! 2. `seal` ends all writes.  Its release store of `outstanding`, and the
//!    handle's journey over an SPSC ring (release on push, acquire on pop),
//!    publish them — the latter also to another *process*.
//! 3. After `seal`, a thread may read (or, while it is the *sole* consumer,
//!    reorder in place — the destination grouping pass) only the range it
//!    received via a handle, and only until it calls `finish_consumer` for
//!    that range.
//! 4. `release` reopens the slab for the next claim.  It is called once,
//!    by whichever thread's `finish_consumer` dropped `outstanding` to zero
//!    (the owner's or a consumer's, in any process: the free list is a
//!    lock-free Treiber stack with an ABA tag, safe from any thread), so
//!    reuse cannot race a straggling reader — and a slab whose owner *died*
//!    still completes its lifecycle.
//!
//! After a worker dies mid-fill, its claimed-but-unsealed slabs are off the
//! free list with `outstanding == 0` — what [`SegArena::audit`] calls
//! leaked.  The supervisor reclaims them at settlement with
//! [`SegArena::force_release_leaked`] (quiescence required), so the post-run
//! audit balances with zero leaks.
//!
//! Every `unsafe` block below states which of these rules it relies on;
//! `docs/DESIGN.md` §6 has the full memory-layout discussion.

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::segment::HeapRegion;

/// A sealed slab on its way through the delivery substrate: the slab index in
/// its owner's arena, the number of valid items, and the generation at seal
/// time (debug-checked against use-after-release).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabHandle {
    /// Slab index within the owning arena.
    pub slab: u32,
    /// Number of initialised items (a prefix of the slab).
    pub len: u32,
    /// Arena generation of the slab at seal time.
    pub generation: u32,
}

/// A sub-range of a sealed slab, forwarded to one consumer (the pre-grouped
/// per-worker split of a process-addressed slab).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabRange {
    /// Slab index within the owning arena.
    pub slab: u32,
    /// First item of the range.
    pub start: u32,
    /// Number of items in the range.
    pub len: u32,
    /// Arena generation of the slab at seal time.
    pub generation: u32,
}

impl SlabHandle {
    /// The full range of this handle.
    pub fn range(&self) -> SlabRange {
        SlabRange {
            slab: self.slab,
            start: 0,
            len: self.len,
            generation: self.generation,
        }
    }
}

/// Reuse statistics of one arena.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Successful slab claims.
    pub claims: u64,
    /// Claims that found the free list dry (the caller shipped the items as
    /// singles instead).  Zero across a whole run is the steady-state proof
    /// that the arena is big enough.
    pub misses: u64,
    /// Slabs released back to the free list.
    pub releases: u64,
}

/// Result of [`SegArena::audit`]: every slab classified into exactly one of
/// free / in-flight / leaked, plus a corruption flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabAudit {
    /// Total slabs in the arena.
    pub slabs: u32,
    /// Slabs on the free list.
    pub free: u32,
    /// Slabs with a positive `outstanding` refcount.
    pub in_flight: u32,
    /// Slabs neither free nor referenced.
    pub leaked: u32,
    /// Free-list corruption: slabs encountered twice on the walk.
    pub double_released: u32,
}

impl SlabAudit {
    /// Slots the audit could not classify; zero when the books balance.
    pub fn unaccounted(&self) -> u32 {
        self.slabs
            .saturating_sub(self.free + self.in_flight + self.leaked)
            + self.double_released
    }
}

const FREE_NIL: u32 = u32::MAX;

/// In-region control block (explicit padding; identical layout everywhere).
/// Claims and misses come from the owner, releases from whichever thread
/// finished a slab last — all relaxed, and all on the line after the
/// free-list head, so a tally never invalidates the line every consumer
/// reads the geometry from.
#[repr(C, align(64))]
struct ArenaCtl {
    /// Treiber free-list head: upper 32 bits ABA tag, lower 32 slab index.
    free_head: AtomicU64,
    _pad0: [u8; 56],
    claims: AtomicU64,
    misses: AtomicU64,
    releases: AtomicU64,
    _pad1: [u8; 40],
    slab_count: u64,
    slab_capacity: u64,
    _pad2: [u8; 48],
}

/// Per-slab bookkeeping.
#[repr(C)]
struct SlabMeta {
    /// Bumped on every release; lets debug builds catch use-after-release.
    generation: AtomicU32,
    /// Consumers still holding a range of this sealed slab.
    outstanding: AtomicU32,
    /// Next-pointer of the lock-free free list (`FREE_NIL` = end).
    next_free: AtomicU32,
    _pad: u32,
}

/// View over a slab arena laid out in a region at a fixed address.  See the
/// module docs for the protocol.
pub struct SegArena<T> {
    ctl: *mut ArenaCtl,
    meta: *mut SlabMeta,
    /// Slab `s` owns slots `s * slab_capacity .. (s + 1) * slab_capacity`.
    slots: *mut T,
    slab_count: usize,
    slab_capacity: usize,
    _marker: PhantomData<T>,
}

// SAFETY: access to slots follows the claim/seal/release protocol of the
// module docs; every cross-thread (and cross-process) hand-off rides a
// release/acquire edge (the rings carrying handles, the `outstanding` AcqRel
// counter, the free-list CAS).  `T: Copy` keeps the slots free of drop
// obligations.
unsafe impl<T: Copy + Send> Send for SegArena<T> {}
unsafe impl<T: Copy + Send> Sync for SegArena<T> {}

impl<T: Copy> SegArena<T> {
    /// Required alignment of the reserved region.
    pub const ALIGN: usize = 64;

    /// Bytes this arena needs in its region.
    pub fn bytes_for(slab_count: usize, slab_capacity: usize) -> usize {
        assert!(slab_count > 0, "arena needs at least one slab");
        assert!(slab_capacity > 0, "slab capacity must be positive");
        assert!(slab_count < FREE_NIL as usize, "slab count out of range");
        Self::slots_offset(slab_count) + slab_count * slab_capacity * std::mem::size_of::<T>()
    }

    /// Slots start at the first cache line after the metadata.
    fn slots_offset(slab_count: usize) -> usize {
        let meta_end =
            std::mem::size_of::<ArenaCtl>() + slab_count * std::mem::size_of::<SlabMeta>();
        meta_end.div_ceil(64) * 64
    }

    fn view(base: *mut u8, slab_count: usize, slab_capacity: usize) -> Self {
        assert!(std::mem::align_of::<T>() <= Self::ALIGN);
        assert_eq!(base as usize % Self::ALIGN, 0, "region misaligned");
        Self {
            ctl: base.cast::<ArenaCtl>(),
            // SAFETY (of the adds): offsets are within the region sized by
            // `bytes_for` with the same parameters.
            meta: unsafe { base.add(std::mem::size_of::<ArenaCtl>()) }.cast::<SlabMeta>(),
            slots: unsafe { base.add(Self::slots_offset(slab_count)) }.cast::<T>(),
            slab_count,
            slab_capacity,
            _marker: PhantomData,
        }
    }

    /// Initialise an arena in its region, every slab free.
    ///
    /// # Safety
    /// `base` must point at `bytes_for(slab_count, slab_capacity)` writable
    /// bytes reserved for this arena, exclusively held during init, and
    /// alive for as long as the view is used.
    pub unsafe fn init(base: *mut u8, slab_count: usize, slab_capacity: usize) -> Self {
        let arena = Self::view(base, slab_count, slab_capacity);
        // SAFETY: exclusive access during init per the function contract;
        // `bytes_for` sized the region for the control block and
        // `slab_count` metadata entries.
        unsafe {
            arena.ctl.write(ArenaCtl {
                free_head: AtomicU64::new(0), // tag 0, slab 0
                _pad0: [0; 56],
                claims: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                releases: AtomicU64::new(0),
                _pad1: [0; 40],
                slab_count: slab_count as u64,
                slab_capacity: slab_capacity as u64,
                _pad2: [0; 48],
            });
            for s in 0..slab_count {
                // Chain every slab into the initial free list.
                let next = if s + 1 < slab_count {
                    (s + 1) as u32
                } else {
                    FREE_NIL
                };
                arena.meta.add(s).write(SlabMeta {
                    generation: AtomicU32::new(0),
                    outstanding: AtomicU32::new(0),
                    next_free: AtomicU32::new(next),
                    _pad: 0,
                });
            }
        }
        arena
    }

    /// Attach to an arena another process initialised at the same offset.
    ///
    /// # Safety
    /// `base` must point at a region a cooperating process passed to
    /// [`SegArena::init`] with the same geometry and element type `T`, and
    /// the region must outlive every use of the view.
    pub unsafe fn attach(base: *mut u8, slab_count: usize, slab_capacity: usize) -> Self {
        let arena = Self::view(base, slab_count, slab_capacity);
        let ctl = arena.ctl();
        assert_eq!(
            ctl.slab_count, slab_count as u64,
            "arena slab count mismatch"
        );
        assert_eq!(
            ctl.slab_capacity, slab_capacity as u64,
            "arena slab capacity mismatch"
        );
        arena
    }

    fn ctl(&self) -> &ArenaCtl {
        // SAFETY: constructed over a live region that outlives every view.
        unsafe { &*self.ctl }
    }

    fn meta(&self, slab: u32) -> &SlabMeta {
        assert!((slab as usize) < self.slab_count, "slab index out of range");
        // SAFETY: index checked; the metadata array outlives every view.
        unsafe { &*self.meta.add(slab as usize) }
    }

    /// Number of slabs.
    pub fn slab_count(&self) -> usize {
        self.slab_count
    }

    /// Items per slab.
    pub fn slab_capacity(&self) -> usize {
        self.slab_capacity
    }

    /// The arena's slots as a raw byte range, for NUMA placement (the slabs
    /// are a layout *inside* one region, so one `mbind` covers every slab).
    /// The pointer is only meant for page-granular memory-policy syscalls —
    /// reading or writing through it outside the claim/seal protocol is not
    /// allowed.
    pub fn backing_region(&self) -> (*const u8, usize) {
        (
            self.slots.cast_const().cast::<u8>(),
            self.slab_count * self.slab_capacity * std::mem::size_of::<T>(),
        )
    }

    /// Claim/miss/release statistics so far.
    pub fn stats(&self) -> ArenaStats {
        let ctl = self.ctl();
        ArenaStats {
            claims: ctl.claims.load(Ordering::Relaxed),
            misses: ctl.misses.load(Ordering::Relaxed),
            releases: ctl.releases.load(Ordering::Relaxed),
        }
    }

    /// Current generation of `slab`.
    pub fn generation(&self, slab: u32) -> u32 {
        self.meta(slab).generation.load(Ordering::Relaxed)
    }

    /// Pop a free slab, or record a miss and return `None` (the caller falls
    /// back to shipping items singly — the arena never blocks, never grows).
    pub fn try_claim(&self) -> Option<u32> {
        let ctl = self.ctl();
        let mut head = ctl.free_head.load(Ordering::Acquire);
        loop {
            let slab = (head & 0xFFFF_FFFF) as u32;
            if slab == FREE_NIL {
                ctl.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let next = self.meta(slab).next_free.load(Ordering::Relaxed);
            let tag = head >> 32;
            let new_head = ((tag.wrapping_add(1)) << 32) | next as u64;
            match ctl.free_head.compare_exchange_weak(
                head,
                new_head,
                // AcqRel: acquire pairs with the releasing push so the claimer
                // observes the released slab's final state; release publishes
                // the pop to other claimants.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    ctl.claims.fetch_add(1, Ordering::Relaxed);
                    debug_assert_eq!(
                        self.meta(slab).outstanding.load(Ordering::Relaxed),
                        0,
                        "claimed slab still has consumers"
                    );
                    return Some(slab);
                }
                Err(actual) => head = actual,
            }
        }
    }

    /// Write `value` into slot `index` of a claimed, unsealed slab.
    ///
    /// # Safety
    /// The caller must be the thread that claimed `slab` (rule 1: claim →
    /// seal gives it exclusive slot access), `index` must be within the slab
    /// capacity, and the slab must not have been sealed yet.
    #[inline]
    pub unsafe fn write(&self, slab: u32, index: usize, value: T) {
        debug_assert!(index < self.slab_capacity, "slab slot out of range");
        debug_assert!((slab as usize) < self.slab_count);
        // SAFETY: exclusive access per the function contract; in bounds per
        // the contract (callers seal at capacity).
        unsafe {
            self.slots
                .add(slab as usize * self.slab_capacity + index)
                .write(value);
        }
    }

    /// Claim a slab, copy `items` into it and seal it: the one way the
    /// engines write a message into the arena.  Returns the handle to ship,
    /// or `None` — counted as a miss — when the arena is dry.
    ///
    /// # Panics
    /// Panics if `items` is longer than a slab.
    pub fn fill(&self, items: &[T]) -> Option<SlabHandle> {
        assert!(
            items.len() <= self.slab_capacity,
            "{} items overflow a {}-item slab",
            items.len(),
            self.slab_capacity
        );
        let slab = self.try_claim()?;
        // SAFETY: rule 1 — `try_claim` made this thread the slab's only user
        // until the seal below; the assert keeps the copy inside the slab,
        // and `items` (private memory) cannot overlap the arena's slots.
        unsafe {
            let dst = self.slots.add(slab as usize * self.slab_capacity);
            std::ptr::copy_nonoverlapping(items.as_ptr(), dst, items.len());
        }
        Some(self.seal(slab, items.len() as u32))
    }

    /// Seal a claimed slab with `len` written items: ends the fill phase and
    /// registers one consumer.  The returned handle is what ships.
    pub fn seal(&self, slab: u32, len: u32) -> SlabHandle {
        debug_assert!(len as usize <= self.slab_capacity);
        let meta = self.meta(slab);
        debug_assert_eq!(
            meta.outstanding.load(Ordering::Relaxed),
            0,
            "sealing a slab that still has consumers"
        );
        // Release: the handle may reach another *process* through memory the
        // compiler knows nothing about, so the slot writes and this count are
        // published here rather than relying solely on the ring's release
        // edge.
        meta.outstanding.store(1, Ordering::Release);
        SlabHandle {
            slab,
            len,
            generation: meta.generation.load(Ordering::Relaxed),
        }
    }

    /// Borrow `len` items of `slab` starting at `start`.
    ///
    /// # Safety
    /// The caller must hold a live handle/range covering `start..start+len`
    /// of a sealed slab (rule 3), and must not use the slice after calling
    /// [`SegArena::finish_consumer`] for that range.  Every slot in the
    /// range must have been written before the seal.
    #[inline]
    pub unsafe fn slice(&self, slab: u32, start: u32, len: u32) -> &[T] {
        debug_assert!(start as usize + len as usize <= self.slab_capacity);
        let base = slab as usize * self.slab_capacity + start as usize;
        // SAFETY: initialised, stable range per the function contract.
        unsafe { std::slice::from_raw_parts(self.slots.add(base).cast_const(), len as usize) }
    }

    /// Borrow `len` items of `slab` starting at `start`, mutably — the
    /// destination grouping pass reorders a process-addressed slab in place
    /// before splitting it into per-worker ranges.
    ///
    /// # Safety
    /// As for [`SegArena::slice`], plus: the caller must be the *sole*
    /// consumer of the whole slab (`outstanding == 1`, before any ranges are
    /// forwarded), so no other thread can observe the reordering.
    #[expect(
        clippy::mut_from_ref,
        reason = "exclusive access is the function's safety contract"
    )]
    #[inline]
    pub unsafe fn slice_mut(&self, slab: u32, start: u32, len: u32) -> &mut [T] {
        debug_assert!(start as usize + len as usize <= self.slab_capacity);
        debug_assert_eq!(
            self.meta(slab).outstanding.load(Ordering::Relaxed),
            1,
            "in-place reordering requires the sole consumer"
        );
        let base = slab as usize * self.slab_capacity + start as usize;
        // SAFETY: initialised range + exclusive access per the contract.
        unsafe { std::slice::from_raw_parts_mut(self.slots.add(base), len as usize) }
    }

    /// Register `extra` additional consumers of a sealed slab *before*
    /// forwarding their ranges (the add must be visible before any forwarded
    /// consumer can finish).
    pub fn add_consumers(&self, slab: u32, extra: u32) {
        if extra == 0 {
            return;
        }
        // Relaxed would do for the counter itself (the forwarding ring
        // push/pop orders it against the new consumer), but AcqRel keeps the
        // protocol uniform with `finish_consumer`.
        let prev = self
            .meta(slab)
            .outstanding
            .fetch_add(extra, Ordering::AcqRel);
        debug_assert!(prev >= 1, "adding consumers to an unsealed slab");
    }

    /// A consumer is done with its range.  Returns `true` for the last
    /// consumer, which must [`SegArena::release`] the slab.
    pub fn finish_consumer(&self, slab: u32) -> bool {
        // AcqRel: the release half orders this consumer's reads before the
        // decrement; the acquire half makes every earlier consumer's reads
        // visible to the last consumer (and, transitively through its
        // free-list push, to the next claim).
        let prev = self.meta(slab).outstanding.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "finish without a matching consumer");
        prev == 1
    }

    /// Reopen a finished slab: bump the generation and push it back on the
    /// free list.  Called once, after `outstanding` hit zero, by the thread
    /// whose `finish_consumer` got there (rule 4); the supervisor calls it
    /// for slabs of dead workers.
    pub fn release(&self, slab: u32) {
        let meta = self.meta(slab);
        debug_assert_eq!(
            meta.outstanding.load(Ordering::Relaxed),
            0,
            "releasing a slab that still has consumers"
        );
        meta.generation.fetch_add(1, Ordering::Relaxed);
        let ctl = self.ctl();
        ctl.releases.fetch_add(1, Ordering::Relaxed);
        let mut head = ctl.free_head.load(Ordering::Acquire);
        loop {
            meta.next_free
                .store((head & 0xFFFF_FFFF) as u32, Ordering::Relaxed);
            let tag = head >> 32;
            let new_head = ((tag.wrapping_add(1)) << 32) | slab as u64;
            match ctl.free_head.compare_exchange_weak(
                head,
                new_head,
                // Release publishes the generation bump (and, transitively,
                // the consumers' finished reads) to the next claimant.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Mark the slabs on the free list; stops at a cycle (a slab pushed
    /// twice) and returns how many it met twice (0 or 1).  O(n) and
    /// unsynchronized: a quiescent arena only.
    fn walk_free_list(&self, on_free: &mut [bool]) -> u32 {
        let mut cur = (self.ctl().free_head.load(Ordering::Acquire) & 0xFFFF_FFFF) as u32;
        while cur != FREE_NIL {
            if on_free[cur as usize] {
                return 1;
            }
            on_free[cur as usize] = true;
            cur = self.meta(cur).next_free.load(Ordering::Relaxed);
        }
        0
    }

    /// Number of slabs currently on the free list (O(n) walk; debugging and
    /// tests only — the hot path never needs it).
    pub fn free_slabs(&self) -> usize {
        let mut on_free = vec![false; self.slab_count];
        self.walk_free_list(&mut on_free);
        on_free.iter().filter(|free| **free).count()
    }

    /// Reclamation audit: classify every slab as free, in flight, or leaked,
    /// and flag free-list corruption.
    ///
    /// Walks the free list (marking each slab, counting a repeat as
    /// `double_released`), then classifies every off-list slab by its
    /// `outstanding` refcount: positive means a consumer still holds it
    /// (in flight), zero means the owner lost it without releasing (leaked).
    /// `free + in_flight + leaked == slabs` whenever the books balance — the
    /// invariant a non-clean teardown and a dead worker's settlement must
    /// reconcile.
    ///
    /// The walk is O(n) and unsynchronized; call it only on a quiescent
    /// arena (after every worker has stopped).
    pub fn audit(&self) -> SlabAudit {
        let mut on_free = vec![false; self.slab_count];
        let mut audit = SlabAudit {
            slabs: self.slab_count as u32,
            double_released: self.walk_free_list(&mut on_free),
            ..SlabAudit::default()
        };
        for (s, free) in on_free.iter().enumerate() {
            if *free {
                audit.free += 1;
            } else if self.meta(s as u32).outstanding.load(Ordering::Relaxed) > 0 {
                audit.in_flight += 1;
            } else {
                audit.leaked += 1;
            }
        }
        audit
    }

    /// Supervisor-side settlement: put every off-list slab back on the free
    /// list, regardless of its `outstanding` count, and return how many were
    /// reclaimed — a killed worker's claimed-but-unsealed slabs (audit class
    /// *leaked*) and stranded in-flight slabs both come home here.
    ///
    /// Call only on a **quiescent** arena (all workers stopped or dead, every
    /// ring drained): the walk is unsynchronized and a live consumer would
    /// race the forced release.
    pub fn force_release_leaked(&self) -> u32 {
        let mut on_free = vec![false; self.slab_count];
        // A corrupt list: reclaim what the walk can see.
        self.walk_free_list(&mut on_free);
        let mut reclaimed = 0;
        for (s, free) in on_free.iter().enumerate() {
            if *free {
                continue;
            }
            self.meta(s as u32).outstanding.store(0, Ordering::Relaxed);
            self.release(s as u32);
            reclaimed += 1;
        }
        reclaimed
    }
}

impl<T: Copy> std::fmt::Debug for SegArena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegArena")
            .field("slab_count", &self.slab_count)
            .field("slab_capacity", &self.slab_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// A [`SegArena`] in a heap region of its own: the threaded engine's
/// per-worker arenas.  Derefs to the arena; dropping it frees the region.
pub struct SlabArena<T> {
    arena: SegArena<T>,
    _region: HeapRegion,
}

impl<T: Copy> SlabArena<T> {
    /// Create an arena of `slab_count` slabs of `slab_capacity` items each,
    /// all initially free.
    pub fn new(slab_count: usize, slab_capacity: usize) -> Self {
        let region = HeapRegion::new(
            SegArena::<T>::bytes_for(slab_count, slab_capacity),
            SegArena::<T>::ALIGN,
        );
        // SAFETY: a fresh region of the arena's size and alignment, owned
        // next to the view for the arena's whole life.
        let arena = unsafe { SegArena::init(region.base(), slab_count, slab_capacity) };
        Self {
            arena,
            _region: region,
        }
    }
}

impl<T> Deref for SlabArena<T> {
    type Target = SegArena<T>;

    fn deref(&self) -> &SegArena<T> {
        &self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_fill_seal_borrow_release_round_trip() {
        let arena: SlabArena<u64> = SlabArena::new(2, 4);
        let slab = arena.try_claim().expect("fresh arena has free slabs");
        for i in 0..4 {
            // SAFETY: claimed above, unsealed, index < capacity.
            unsafe { arena.write(slab, i, 100 + i as u64) };
        }
        let handle = arena.seal(slab, 4);
        assert_eq!(handle.len, 4);
        // SAFETY: live handle over a sealed slab.
        let items = unsafe { arena.slice(handle.slab, 0, handle.len) };
        assert_eq!(items, &[100, 101, 102, 103]);
        assert!(arena.finish_consumer(handle.slab), "sole consumer is last");
        arena.release(handle.slab);
        assert_eq!(arena.generation(handle.slab), handle.generation + 1);
        let stats = arena.stats();
        assert_eq!((stats.claims, stats.misses, stats.releases), (1, 0, 1));
    }

    #[test]
    fn fill_copies_in_order_and_seals() {
        let arena: SlabArena<u32> = SlabArena::new(1, 4);
        // Cycle the slab once so the handle must carry a later generation.
        let first = arena.fill(&[9]).expect("fresh arena has a free slab");
        assert!(arena.finish_consumer(first.slab));
        arena.release(first.slab);

        let handle = arena.fill(&[7, 8, 9]).expect("released slab is free again");
        assert_eq!(handle.len, 3);
        assert_eq!(handle.generation, arena.generation(handle.slab));
        assert_eq!(handle.generation, first.generation + 1);
        // SAFETY: live handle over a sealed slab.
        let items = unsafe { arena.slice(handle.slab, 0, handle.len) };
        assert_eq!(items, &[7, 8, 9]);

        assert_eq!(arena.fill(&[1]), None, "arena is dry");
        assert_eq!(arena.stats().misses, 1);
        assert!(arena.finish_consumer(handle.slab));
        arena.release(handle.slab);
    }

    #[test]
    #[should_panic(expected = "overflow a 2-item slab")]
    fn fill_rejects_more_items_than_a_slab_holds() {
        let arena: SlabArena<u32> = SlabArena::new(1, 2);
        let _ = arena.fill(&[1, 2, 3]);
    }

    #[test]
    fn dry_arena_reports_miss_and_recovers() {
        let arena: SlabArena<u32> = SlabArena::new(1, 2);
        let slab = arena.try_claim().expect("one free slab");
        assert_eq!(arena.try_claim(), None, "arena is dry");
        assert_eq!(arena.stats().misses, 1);
        let handle = arena.seal(slab, 0);
        assert!(arena.finish_consumer(handle.slab));
        arena.release(handle.slab);
        assert!(arena.try_claim().is_some(), "released slab claimable again");
    }

    #[test]
    fn split_consumers_release_exactly_once() {
        let arena: SlabArena<u32> = SlabArena::new(1, 8);
        let handle = arena.fill(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        let slab = handle.slab;
        // Receiver splits into 3 ranges: itself + two forwarded peers.
        arena.add_consumers(slab, 2);
        assert!(!arena.finish_consumer(slab));
        assert!(!arena.finish_consumer(slab));
        assert!(arena.finish_consumer(slab), "third consumer is last");
        arena.release(slab);
        assert_eq!(arena.generation(slab), handle.generation + 1);
    }

    #[test]
    fn free_slab_accounting() {
        let arena: SlabArena<u8> = SlabArena::new(5, 1);
        assert_eq!(arena.free_slabs(), 5);
        let a = arena.try_claim().unwrap();
        let b = arena.try_claim().unwrap();
        assert_eq!(arena.free_slabs(), 3);
        for s in [a, b] {
            let h = arena.seal(s, 0);
            assert!(arena.finish_consumer(h.slab));
            arena.release(h.slab);
        }
        assert_eq!(arena.free_slabs(), 5);
    }

    #[test]
    fn audit_classifies_free_in_flight_and_leaked() {
        let arena: SlabArena<u32> = SlabArena::new(4, 2);
        assert_eq!(
            arena.audit(),
            SlabAudit {
                slabs: 4,
                free: 4,
                ..SlabAudit::default()
            }
        );

        // One slab sealed and shipped (outstanding = 1): in flight.
        let shipped = arena.try_claim().unwrap();
        arena.seal(shipped, 0);
        // One slab claimed but never sealed and its owner gone: leaked.
        let _lost = arena.try_claim().unwrap();

        let audit = arena.audit();
        assert_eq!(audit.free, 2);
        assert_eq!(audit.in_flight, 1);
        assert_eq!(audit.leaked, 1);
        assert_eq!(audit.unaccounted(), 0, "books balance");
        assert_eq!(audit.double_released, 0);

        // The consumer finishes and the slab comes home: in flight → free.
        assert!(arena.finish_consumer(shipped));
        arena.release(shipped);
        let audit = arena.audit();
        assert_eq!((audit.free, audit.in_flight, audit.leaked), (3, 0, 1));
    }

    #[test]
    fn audit_flags_double_release_cycle() {
        let arena: SlabArena<u32> = SlabArena::new(2, 1);
        let slab = arena.try_claim().unwrap();
        // Protocol violation on purpose: push the same slab twice.  The
        // free list now contains a cycle through `slab`.
        arena.release(slab);
        arena.release(slab);
        let audit = arena.audit();
        assert!(audit.double_released > 0, "corruption detected: {audit:?}");
        assert!(audit.unaccounted() > 0);
    }

    #[test]
    fn backing_region_covers_every_slot() {
        let arena: SlabArena<u64> = SlabArena::new(3, 4);
        let (ptr, bytes) = arena.backing_region();
        assert!(!ptr.is_null());
        assert_eq!(bytes, 3 * 4 * std::mem::size_of::<u64>());
    }

    #[test]
    #[should_panic(expected = "at least one slab")]
    fn zero_slabs_rejected() {
        let _: SlabArena<u8> = SlabArena::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: SlabArena<u8> = SlabArena::new(4, 0);
    }
}
