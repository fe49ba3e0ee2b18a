//! The slab arena: the shared message store of the native delivery mesh.
//!
//! A [`SlabArena`] is one contiguous backing store divided into fixed-capacity
//! *slabs*.  Each worker owns one arena.  A worker buffers a message's items
//! in private memory and, when the message ships, [`SlabArena::fill`] claims
//! a slab, copies the items into it once and seals it.  What ships over the
//! delivery mesh is then a 16-byte [`SlabHandle`] — the items never move
//! again: the receiving worker borrows them as a slice straight out of the
//! owner's backing store, and the last consumer puts the spent slab back on
//! the owner's free list itself.
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
//! [`SlabArena::finish_consumer`] drops it to zero releases the slab.
//!
//! # Ownership and safety rules
//!
//! The arena itself only stores `Copy` plain-old-data (no drops, no leaks, no
//! double-frees by construction).  Exclusive access to slab contents is a
//! *protocol* property, enforced by the callers and checked by generation
//! counters in debug builds:
//!
//! 1. Between `try_claim` and `seal`, the claiming (owner) thread is the only
//!    one touching the slab's slots.
//! 2. `seal` ends all writes.  The handle's journey over an SPSC ring
//!    publishes them (release on push, acquire on pop).
//! 3. After `seal`, a thread may read (or, while it is the *sole* consumer,
//!    reorder in place — the destination grouping pass) only the range it
//!    received via a handle, and only until it calls `finish_consumer` for
//!    that range.
//! 4. `release` reopens the slab for the next claim.  It is called once,
//!    by whichever thread's `finish_consumer` dropped `outstanding` to zero
//!    (the owner's or a consumer's: the free list is a lock-free stack safe
//!    from any thread), so reuse cannot race a straggling reader.
//!
//! Every `unsafe` block below states which of these rules it relies on;
//! `docs/DESIGN.md` §6 has the full memory-layout discussion.

use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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

/// Per-slab bookkeeping.
struct SlabMeta {
    /// Bumped on every release; lets debug builds catch use-after-release.
    generation: AtomicU32,
    /// Consumers still holding a range of this sealed slab.
    outstanding: AtomicU32,
    /// Next-pointer of the lock-free free list (`FREE_NIL` = end).
    next_free: AtomicU32,
}

const FREE_NIL: u32 = u32::MAX;

/// The free-list head and the tallies behind [`SlabArena::stats`].  Claims
/// and misses come from the owner, releases from whichever thread finished
/// a slab last — all relaxed, and all beside the head that every claim and
/// release writes anyway, so counting costs no second cache line.
#[derive(Default)]
struct FreeList {
    /// Head of the Treiber free list: upper 32 bits are an ABA tag, lower 32
    /// the slab index (or `FREE_NIL`).
    head: AtomicU64,
    claims: AtomicU64,
    misses: AtomicU64,
    releases: AtomicU64,
}

/// A fixed arena of fixed-capacity slabs with generation-counted
/// claim/release.  See the module docs for the protocol.
pub struct SlabArena<T> {
    /// Contiguous backing store: slab `s` owns slots
    /// `s * slab_capacity .. (s + 1) * slab_capacity`.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    slab_capacity: usize,
    meta: Box<[SlabMeta]>,
    /// On a line of its own: every consumer reads `slots` and `meta`, and a
    /// head or counter write beside them would invalidate that line on
    /// every claim and release.
    free: CachePadded<FreeList>,
}

// SAFETY: the arena hands out access to its slots under the claim/seal/
// release protocol documented above; all cross-thread hand-offs go through
// release/acquire edges (the rings carrying handles, plus the `outstanding`
// AcqRel counter).  `T: Copy` keeps the slots free of drop obligations, so
// the only requirement is that `T` may move between threads.
unsafe impl<T: Copy + Send> Send for SlabArena<T> {}
unsafe impl<T: Copy + Send> Sync for SlabArena<T> {}

impl<T: Copy> SlabArena<T> {
    /// Create an arena of `slab_count` slabs of `slab_capacity` items each,
    /// all initially free.
    pub fn new(slab_count: usize, slab_capacity: usize) -> Self {
        assert!(slab_count > 0, "arena needs at least one slab");
        assert!(slab_capacity > 0, "slab capacity must be positive");
        assert!(slab_count < FREE_NIL as usize, "slab count out of range");
        let slots = (0..slab_count * slab_capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let meta: Box<[SlabMeta]> = (0..slab_count)
            .map(|s| SlabMeta {
                generation: AtomicU32::new(0),
                outstanding: AtomicU32::new(0),
                // Chain every slab into the initial free list.
                next_free: AtomicU32::new(if s + 1 < slab_count {
                    (s + 1) as u32
                } else {
                    FREE_NIL
                }),
            })
            .collect();
        Self {
            slots,
            slab_capacity,
            meta,
            free: CachePadded::new(FreeList::default()), // tag 0, slab 0
        }
    }

    /// Number of slabs.
    pub fn slab_count(&self) -> usize {
        self.meta.len()
    }

    /// Items per slab.
    pub fn slab_capacity(&self) -> usize {
        self.slab_capacity
    }

    /// The arena's contiguous backing store as a raw byte range, for NUMA
    /// placement of the whole allocation (the slabs are a layout *inside*
    /// one allocation, so one `mbind` covers every slab).  The pointer is
    /// only meant for page-granular memory-policy syscalls — reading or
    /// writing through it outside the claim/seal protocol is not allowed.
    pub fn backing_region(&self) -> (*const u8, usize) {
        (
            self.slots.as_ptr().cast::<u8>(),
            std::mem::size_of_val::<[UnsafeCell<MaybeUninit<T>>]>(&self.slots),
        )
    }

    /// Claim/miss/release statistics so far.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            claims: self.free.claims.load(Ordering::Relaxed),
            misses: self.free.misses.load(Ordering::Relaxed),
            releases: self.free.releases.load(Ordering::Relaxed),
        }
    }

    /// Current generation of `slab`.
    pub fn generation(&self, slab: u32) -> u32 {
        self.meta[slab as usize].generation.load(Ordering::Relaxed)
    }

    /// Pop a free slab, or record a miss and return `None` (the caller falls
    /// back to heap storage — the arena never blocks and never grows).
    pub fn try_claim(&self) -> Option<u32> {
        let mut head = self.free.head.load(Ordering::Acquire);
        loop {
            let slab = (head & 0xFFFF_FFFF) as u32;
            if slab == FREE_NIL {
                self.free.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let next = self.meta[slab as usize].next_free.load(Ordering::Relaxed);
            let tag = head >> 32;
            let new_head = ((tag.wrapping_add(1)) << 32) | next as u64;
            match self.free.head.compare_exchange_weak(
                head,
                new_head,
                // AcqRel: the acquire half pairs with the releasing push so
                // the claimer observes the released slab's final state; the
                // release half publishes the pop to other claimants.
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.free.claims.fetch_add(1, Ordering::Relaxed);
                    debug_assert_eq!(
                        self.meta[slab as usize].outstanding.load(Ordering::Relaxed),
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
        let base = slab as usize * self.slab_capacity;
        // SAFETY: exclusive access per the function contract; the slot index
        // is in bounds per the debug assertion above (callers never pass
        // `index >= slab_capacity` — they seal at capacity).
        unsafe {
            (*self.slots.get_unchecked(base + index).get()).write(value);
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
        let base = slab as usize * self.slab_capacity;
        // SAFETY: rule 1 — `try_claim` made this thread the slab's only user
        // until the seal below; the assert keeps the copy inside the slab,
        // and `items` (caller memory) cannot overlap the arena's slots.
        unsafe {
            let dst = UnsafeCell::raw_get(self.slots.as_ptr().add(base)).cast::<T>();
            std::ptr::copy_nonoverlapping(items.as_ptr(), dst, items.len());
        }
        Some(self.seal(slab, items.len() as u32))
    }

    /// Seal a claimed slab with `len` written items: ends the fill phase and
    /// registers one consumer.  The returned handle is what ships.
    pub fn seal(&self, slab: u32, len: u32) -> SlabHandle {
        debug_assert!(len as usize <= self.slab_capacity);
        let meta = &self.meta[slab as usize];
        debug_assert_eq!(
            meta.outstanding.load(Ordering::Relaxed),
            0,
            "sealing a slab that still has consumers"
        );
        // Relaxed is enough: the handle (and therefore this count) only
        // becomes visible to consumers through a ring push, whose release
        // edge also publishes this store.
        meta.outstanding.store(1, Ordering::Relaxed);
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
    /// [`SlabArena::finish_consumer`] for that range.  Every slot in the
    /// range must have been written before the seal.
    #[inline]
    pub unsafe fn slice(&self, slab: u32, start: u32, len: u32) -> &[T] {
        let base = slab as usize * self.slab_capacity + start as usize;
        debug_assert!(start as usize + len as usize <= self.slab_capacity);
        // SAFETY: the range is initialised and stable per the function
        // contract; `UnsafeCell<MaybeUninit<T>>` has the layout of `T` for
        // the initialised prefix, so the cast is valid for reads.
        unsafe {
            std::slice::from_raw_parts(self.slots.as_ptr().add(base).cast::<T>(), len as usize)
        }
    }

    /// Borrow `len` items of `slab` starting at `start`, mutably — the
    /// destination grouping pass reorders a process-addressed slab in place
    /// before splitting it into per-worker ranges.
    ///
    /// # Safety
    /// As for [`SlabArena::slice`], plus: the caller must be the *sole*
    /// consumer of the whole slab (`outstanding == 1`, before any ranges are
    /// forwarded), so no other thread can observe the reordering.
    #[expect(
        clippy::mut_from_ref,
        reason = "exclusive access is the function's safety contract"
    )]
    #[inline]
    pub unsafe fn slice_mut(&self, slab: u32, start: u32, len: u32) -> &mut [T] {
        let base = slab as usize * self.slab_capacity + start as usize;
        debug_assert!(start as usize + len as usize <= self.slab_capacity);
        debug_assert_eq!(
            self.meta[slab as usize].outstanding.load(Ordering::Relaxed),
            1,
            "in-place reordering requires the sole consumer"
        );
        // SAFETY: initialised range + exclusive access per the contract.
        unsafe {
            std::slice::from_raw_parts_mut(
                (self.slots.as_ptr().add(base) as *mut UnsafeCell<MaybeUninit<T>>).cast::<T>(),
                len as usize,
            )
        }
    }

    /// Register `extra` additional consumers of a sealed slab *before*
    /// forwarding their ranges (the add must be visible before any forwarded
    /// consumer can finish).
    pub fn add_consumers(&self, slab: u32, extra: u32) {
        if extra == 0 {
            return;
        }
        let prev = self.meta[slab as usize]
            .outstanding
            // Relaxed suffices for the counter itself (the forwarding ring
            // push/pop orders it against the new consumer), but AcqRel keeps
            // the protocol uniform with `finish_consumer`.
            .fetch_add(extra, Ordering::AcqRel);
        debug_assert!(prev >= 1, "adding consumers to an unsealed slab");
    }

    /// A consumer is done with its range.  Returns `true` for the last
    /// consumer, which must [`SlabArena::release`] the slab.
    pub fn finish_consumer(&self, slab: u32) -> bool {
        // AcqRel: the release half orders this consumer's reads before the
        // decrement; the acquire half makes every earlier consumer's reads
        // visible to the last consumer (and, transitively through its
        // free-list push, to the next claim).
        let prev = self.meta[slab as usize]
            .outstanding
            .fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "finish without a matching consumer");
        prev == 1
    }

    /// Reopen a finished slab: bump the generation and push it back on the
    /// free list.  Called once, after `outstanding` hit zero, by the thread
    /// whose `finish_consumer` got there (rule 4).
    pub fn release(&self, slab: u32) {
        let meta = &self.meta[slab as usize];
        debug_assert_eq!(
            meta.outstanding.load(Ordering::Relaxed),
            0,
            "releasing a slab that still has consumers"
        );
        meta.generation.fetch_add(1, Ordering::Relaxed);
        self.free.releases.fetch_add(1, Ordering::Relaxed);
        let mut head = self.free.head.load(Ordering::Acquire);
        loop {
            meta.next_free
                .store((head & 0xFFFF_FFFF) as u32, Ordering::Relaxed);
            let tag = head >> 32;
            let new_head = ((tag.wrapping_add(1)) << 32) | slab as u64;
            match self.free.head.compare_exchange_weak(
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

    /// Number of slabs currently on the free list (O(n) walk; debugging and
    /// tests only — the hot path never needs it).
    pub fn free_slabs(&self) -> usize {
        let mut n = 0;
        let mut cur = (self.free.head.load(Ordering::Acquire) & 0xFFFF_FFFF) as u32;
        while cur != FREE_NIL && n <= self.meta.len() {
            n += 1;
            cur = self.meta[cur as usize].next_free.load(Ordering::Relaxed);
        }
        n
    }

    /// Reclamation audit: classify every slab as free, in flight, or leaked,
    /// and flag free-list corruption.
    ///
    /// Walks the free list (marking each slab, counting repeats as
    /// `double_released`), then classifies every off-list slab by its
    /// `outstanding` refcount: positive means a consumer still holds it
    /// (in flight), zero means the owner lost it without releasing (leaked).
    /// `free + in_flight + leaked == slabs` whenever the books balance — the
    /// invariant a non-clean teardown (and, later, multi-process segment
    /// detach) must reconcile.
    ///
    /// The walk is O(n) and unsynchronized; call it only on a quiescent
    /// arena (after every worker thread has stopped).
    pub fn audit(&self) -> SlabAudit {
        let n = self.meta.len();
        let mut on_free = vec![false; n];
        let mut audit = SlabAudit {
            slabs: n as u32,
            ..SlabAudit::default()
        };
        let mut cur = (self.free.head.load(Ordering::Acquire) & 0xFFFF_FFFF) as u32;
        let mut hops = 0;
        while cur != FREE_NIL && hops <= n {
            if on_free[cur as usize] {
                // A cycle: some slab was pushed twice.  Counted once; the
                // walk must stop or it would spin forever.
                audit.double_released += 1;
                break;
            }
            on_free[cur as usize] = true;
            audit.free += 1;
            cur = self.meta[cur as usize].next_free.load(Ordering::Relaxed);
            hops += 1;
        }
        for (s, free) in on_free.iter().enumerate() {
            if *free {
                continue;
            }
            if self.meta[s].outstanding.load(Ordering::Relaxed) > 0 {
                audit.in_flight += 1;
            } else {
                audit.leaked += 1;
            }
        }
        audit
    }
}

/// Result of [`SlabArena::audit`]: every slab classified into exactly one of
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

impl<T: Copy> std::fmt::Debug for SlabArena<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabArena")
            .field("slab_count", &self.slab_count())
            .field("slab_capacity", &self.slab_capacity)
            .field("stats", &self.stats())
            .finish()
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
