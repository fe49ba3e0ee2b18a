//! [`SlabArena`]'s cross-process twin: the zero-copy message store laid out
//! inside a shared [`Segment`](crate::segment::Segment).
//!
//! Same protocol and handle types as [`SlabArena`] (claim → fill → seal →
//! borrow → finish → release, generation-counted, Treiber free list with an
//! ABA tag), but the control block, per-slab metadata, and slots live at an
//! offset every attached process computes identically, and a [`SegArena`] is
//! a `Copy` *view*.  Two deliberate differences from the in-process arena:
//!
//! * **any process may release.**  The in-process mesh ships spent handles
//!   home on per-pair return rings so only the owner touches the free list;
//!   the Treiber push was MPMC-safe all along, and across processes the
//!   return trip buys nothing (the free list is in the same shared segment),
//!   so the last consumer pushes the slab straight back.  This also means a
//!   slab whose owner *died* can still complete its lifecycle.
//! * **[`SegArena::force_release_leaked`]** exists for the supervisor: after
//!   a worker dies mid-fill, its claimed-but-unsealed slabs are off the free
//!   list with `outstanding == 0` — exactly what [`SlabArena::audit`] calls
//!   leaked.  The supervisor reclaims them at settlement (quiescence
//!   required) so the post-run audit balances with zero leaks.
//!
//! [`SlabArena`]: crate::slab::SlabArena
//! [`SlabArena::audit`]: crate::slab::SlabArena::audit

use crate::slab::{ArenaStats, SlabAudit, SlabHandle};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

const FREE_NIL: u32 = u32::MAX;

/// In-segment control block (explicit padding; identical layout everywhere).
#[repr(C, align(64))]
struct SegArenaCtl {
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

/// Per-slab bookkeeping, in-segment (mirror of the in-process `SlabMeta`).
#[repr(C)]
struct SegSlabMeta {
    generation: AtomicU32,
    outstanding: AtomicU32,
    next_free: AtomicU32,
    _pad: u32,
}

/// View over a slab arena stored in a shared segment.
pub struct SegArena<T> {
    ctl: *mut SegArenaCtl,
    meta: *mut SegSlabMeta,
    slots: *mut T,
    slab_count: usize,
    slab_capacity: usize,
    _marker: PhantomData<T>,
}

impl<T> Clone for SegArena<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SegArena<T> {}

// SAFETY: access to slots follows the claim/seal/release protocol documented
// on `SlabArena`; all cross-process hand-offs ride release/acquire edges (the
// rings carrying handles, the `outstanding` AcqRel counter, the free-list
// CAS).  `T: Copy` keeps the slots free of drop obligations.
unsafe impl<T: Copy + Send> Send for SegArena<T> {}
unsafe impl<T: Copy + Send> Sync for SegArena<T> {}

impl<T: Copy> SegArena<T> {
    /// Required alignment of the reserved region.
    pub const ALIGN: usize = 64;

    /// Bytes this arena needs inside a segment.
    pub fn bytes_for(slab_count: usize, slab_capacity: usize) -> usize {
        assert!(slab_count > 0, "arena needs at least one slab");
        assert!(slab_capacity > 0, "slab capacity must be positive");
        assert!(slab_count < FREE_NIL as usize, "slab count out of range");
        let meta_end =
            std::mem::size_of::<SegArenaCtl>() + slab_count * std::mem::size_of::<SegSlabMeta>();
        // Slots start at the next cache line after the metadata.
        let slots_off = meta_end.div_ceil(64) * 64;
        slots_off + slab_count * slab_capacity * std::mem::size_of::<T>()
    }

    fn view(base: *mut u8, slab_count: usize, slab_capacity: usize) -> Self {
        assert!(std::mem::align_of::<T>() <= Self::ALIGN);
        assert_eq!(base as usize % Self::ALIGN, 0, "region misaligned");
        let meta_off = std::mem::size_of::<SegArenaCtl>();
        let meta_end = meta_off + slab_count * std::mem::size_of::<SegSlabMeta>();
        let slots_off = meta_end.div_ceil(64) * 64;
        Self {
            ctl: base.cast::<SegArenaCtl>(),
            // SAFETY (of the adds): offsets are within the region sized by
            // `bytes_for` with the same parameters.
            meta: unsafe { base.add(meta_off) }.cast::<SegSlabMeta>(),
            slots: unsafe { base.add(slots_off) }.cast::<T>(),
            slab_count,
            slab_capacity,
            _marker: PhantomData,
        }
    }

    /// Initialise an arena in zeroed segment memory, all slabs free.
    ///
    /// # Safety
    /// `base` must point at `bytes_for(slab_count, slab_capacity)` writable
    /// bytes reserved for this arena, exclusively held during init.
    pub unsafe fn init(base: *mut u8, slab_count: usize, slab_capacity: usize) -> Self {
        let arena = Self::view(base, slab_count, slab_capacity);
        // SAFETY: exclusive access during init per the function contract.
        unsafe {
            (*arena.ctl).free_head = AtomicU64::new(0); // tag 0, slab 0
            (*arena.ctl).claims = AtomicU64::new(0);
            (*arena.ctl).misses = AtomicU64::new(0);
            (*arena.ctl).releases = AtomicU64::new(0);
            (*arena.ctl).slab_count = slab_count as u64;
            (*arena.ctl).slab_capacity = slab_capacity as u64;
            for s in 0..slab_count {
                let meta = arena.meta.add(s);
                (*meta).generation = AtomicU32::new(0);
                (*meta).outstanding = AtomicU32::new(0);
                // Chain every slab into the initial free list.
                (*meta).next_free = AtomicU32::new(if s + 1 < slab_count {
                    (s + 1) as u32
                } else {
                    FREE_NIL
                });
            }
        }
        arena
    }

    /// Attach to an arena another process initialised at the same offset.
    ///
    /// # Safety
    /// `base` must point at a region a cooperating process passed to
    /// [`SegArena::init`] with the same geometry and element type `T`.
    pub unsafe fn attach(base: *mut u8, slab_count: usize, slab_capacity: usize) -> Self {
        let arena = Self::view(base, slab_count, slab_capacity);
        // SAFETY: init ran before any attach per the function contract.
        let (n, cap) = unsafe { ((*arena.ctl).slab_count, (*arena.ctl).slab_capacity) };
        assert_eq!(n, slab_count as u64, "arena slab count mismatch");
        assert_eq!(cap, slab_capacity as u64, "arena slab capacity mismatch");
        arena
    }

    fn ctl(&self) -> &SegArenaCtl {
        // SAFETY: constructed over a live region that outlives every view.
        unsafe { &*self.ctl }
    }

    fn meta(&self, slab: u32) -> &SegSlabMeta {
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
    /// The caller must be the process/thread that claimed `slab` (exclusive
    /// slot access until seal), `index` must be within the slab capacity, and
    /// the slab must not have been sealed yet.
    #[inline]
    pub unsafe fn write(&self, slab: u32, index: usize, value: T) {
        debug_assert!(index < self.slab_capacity, "slab slot out of range");
        debug_assert!((slab as usize) < self.slab_count);
        // SAFETY: exclusive access per the function contract; in bounds per
        // the assertions above.
        unsafe {
            self.slots
                .add(slab as usize * self.slab_capacity + index)
                .write(value);
        }
    }

    /// Seal a claimed slab with `len` written items; registers one consumer.
    pub fn seal(&self, slab: u32, len: u32) -> SlabHandle {
        debug_assert!(len as usize <= self.slab_capacity);
        let meta = self.meta(slab);
        debug_assert_eq!(
            meta.outstanding.load(Ordering::Relaxed),
            0,
            "sealing a slab that still has consumers"
        );
        // Release (not Relaxed as in-process): the handle may reach another
        // *process* through memory the compiler knows nothing about, so the
        // slot writes and this count are published here rather than relying
        // solely on the ring's release edge.
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
    /// of a sealed slab, every slot in the range written before the seal, and
    /// must not use the slice after `finish_consumer` for that range.
    #[inline]
    pub unsafe fn slice(&self, slab: u32, start: u32, len: u32) -> &[T] {
        debug_assert!(start as usize + len as usize <= self.slab_capacity);
        let base = slab as usize * self.slab_capacity + start as usize;
        // SAFETY: initialised, stable range per the function contract.
        unsafe { std::slice::from_raw_parts(self.slots.add(base).cast_const(), len as usize) }
    }

    /// Borrow mutably for the in-place destination-grouping pass.
    ///
    /// # Safety
    /// As for [`SegArena::slice`], plus the caller must be the *sole*
    /// consumer of the whole slab (`outstanding == 1`, before any ranges are
    /// forwarded).
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
    /// forwarding their ranges.
    pub fn add_consumers(&self, slab: u32, extra: u32) {
        if extra == 0 {
            return;
        }
        let prev = self
            .meta(slab)
            .outstanding
            .fetch_add(extra, Ordering::AcqRel);
        debug_assert!(prev >= 1, "adding consumers to an unsealed slab");
    }

    /// A consumer is done with its range.  Returns `true` for the last
    /// consumer, which must [`SegArena::release`] the slab (directly — no
    /// return trip to the owner in the multi-process protocol).
    pub fn finish_consumer(&self, slab: u32) -> bool {
        let prev = self.meta(slab).outstanding.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "finish without a matching consumer");
        prev == 1
    }

    /// Reopen a slab: bump the generation and push it on the free list.  Any
    /// process may call this once `outstanding` hit zero (the Treiber push is
    /// MPMC-safe); the supervisor calls it for slabs of dead workers.
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
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Number of slabs currently on the free list (O(n); tests/teardown only).
    pub fn free_slabs(&self) -> usize {
        let mut n = 0;
        let mut cur = (self.ctl().free_head.load(Ordering::Acquire) & 0xFFFF_FFFF) as u32;
        while cur != FREE_NIL && n <= self.slab_count {
            n += 1;
            cur = self.meta(cur).next_free.load(Ordering::Relaxed);
        }
        n
    }

    /// Reclamation audit; same classification as [`SlabArena::audit`]
    /// (quiescent arena only).
    ///
    /// [`SlabArena::audit`]: crate::slab::SlabArena::audit
    pub fn audit(&self) -> SlabAudit {
        let n = self.slab_count;
        let mut on_free = vec![false; n];
        let mut audit = SlabAudit {
            slabs: n as u32,
            ..SlabAudit::default()
        };
        let mut cur = (self.ctl().free_head.load(Ordering::Acquire) & 0xFFFF_FFFF) as u32;
        let mut hops = 0;
        while cur != FREE_NIL && hops <= n {
            if on_free[cur as usize] {
                audit.double_released += 1;
                break;
            }
            on_free[cur as usize] = true;
            audit.free += 1;
            cur = self.meta(cur).next_free.load(Ordering::Relaxed);
            hops += 1;
        }
        for (s, free) in on_free.iter().enumerate() {
            if *free {
                continue;
            }
            if self.meta(s as u32).outstanding.load(Ordering::Relaxed) > 0 {
                audit.in_flight += 1;
            } else {
                audit.leaked += 1;
            }
        }
        audit
    }

    /// Supervisor-side settlement: put every off-list slab back on the free
    /// list, regardless of its `outstanding` count, and return how many were
    /// reclaimed.  This is the death-reclaim counterpart of the in-process
    /// quarantine's handle-drain — a killed worker's claimed-but-unsealed
    /// slabs (audit class *leaked*) and stranded in-flight slabs both come
    /// home here.
    ///
    /// Call only on a **quiescent** arena (all workers stopped or dead, every
    /// ring drained): the walk is unsynchronized and a live consumer would
    /// race the forced release.
    pub fn force_release_leaked(&self) -> u32 {
        let n = self.slab_count;
        let mut on_free = vec![false; n];
        let mut cur = (self.ctl().free_head.load(Ordering::Acquire) & 0xFFFF_FFFF) as u32;
        let mut hops = 0;
        while cur != FREE_NIL && hops <= n {
            if on_free[cur as usize] {
                break; // corrupt list; reclaim what the audit can see
            }
            on_free[cur as usize] = true;
            cur = self.meta(cur).next_free.load(Ordering::Relaxed);
            hops += 1;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegHeader, Segment, SegmentLayout};
    use std::sync::Arc;

    fn arena_segment(slabs: usize, cap: usize) -> (Arc<Segment>, SegArena<u64>) {
        let mut layout = SegmentLayout::new();
        let off = layout.reserve(
            SegArena::<u64>::bytes_for(slabs, cap),
            SegArena::<u64>::ALIGN,
        );
        let seg = Segment::create(layout.total(), SegHeader::new(1, std::process::id()))
            .expect("create segment");
        // SAFETY: fresh region reserved for this arena.
        let arena = unsafe { SegArena::init(seg.at(off), slabs, cap) };
        (Arc::new(seg), arena)
    }

    #[test]
    fn claim_fill_seal_borrow_release_round_trip() {
        let (_seg, arena) = arena_segment(2, 4);
        let slab = arena.try_claim().expect("fresh arena has free slabs");
        for i in 0..4 {
            // SAFETY: claimed above, unsealed, index < capacity.
            unsafe { arena.write(slab, i, 100 + i as u64) };
        }
        let handle = arena.seal(slab, 4);
        // SAFETY: live handle over a sealed slab.
        let items = unsafe { arena.slice(handle.slab, 0, handle.len) };
        assert_eq!(items, &[100, 101, 102, 103]);
        assert!(arena.finish_consumer(handle.slab));
        arena.release(handle.slab);
        assert_eq!(arena.generation(handle.slab), handle.generation + 1);
        let stats = arena.stats();
        assert_eq!((stats.claims, stats.misses, stats.releases), (1, 0, 1));
    }

    #[test]
    fn dry_arena_misses_and_recovers() {
        let (_seg, arena) = arena_segment(1, 2);
        let slab = arena.try_claim().expect("one free slab");
        assert_eq!(arena.try_claim(), None, "arena is dry");
        assert_eq!(arena.stats().misses, 1);
        let handle = arena.seal(slab, 0);
        assert!(arena.finish_consumer(handle.slab));
        arena.release(handle.slab);
        assert!(arena.try_claim().is_some());
    }

    #[test]
    fn split_consumers_and_free_accounting() {
        let (_seg, arena) = arena_segment(3, 8);
        let slab = arena.try_claim().unwrap();
        for i in 0..8 {
            // SAFETY: claimed, unsealed, in range.
            unsafe { arena.write(slab, i, i as u64) };
        }
        arena.seal(slab, 8);
        arena.add_consumers(slab, 2);
        assert!(!arena.finish_consumer(slab));
        assert!(!arena.finish_consumer(slab));
        assert!(arena.finish_consumer(slab), "third consumer is last");
        arena.release(slab);
        assert_eq!(arena.free_slabs(), 3);
    }

    #[test]
    fn force_release_reclaims_leaked_and_in_flight_slabs() {
        let (_seg, arena) = arena_segment(4, 2);
        // A dead worker's wake: one claimed-never-sealed (leaked), one sealed
        // and stranded in flight.
        let _lost = arena.try_claim().unwrap();
        let stranded = arena.try_claim().unwrap();
        arena.seal(stranded, 1);
        let before = arena.audit();
        assert_eq!((before.free, before.in_flight, before.leaked), (2, 1, 1));
        assert_eq!(arena.force_release_leaked(), 2);
        let after = arena.audit();
        assert_eq!(
            (
                after.free,
                after.in_flight,
                after.leaked,
                after.unaccounted()
            ),
            (4, 0, 0, 0),
            "settlement must balance the books: {after:?}"
        );
        assert_eq!(arena.free_slabs(), 4);
    }

    #[test]
    fn concurrent_claim_release_across_threads_conserves_slabs() {
        // Hammer the free list from several threads (the multi-process
        // protocol releases from non-owners, so the list must be MPMC-safe).
        let (seg, arena) = arena_segment(8, 1);
        let rounds = 20_000;
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let seg = seg.clone();
                std::thread::spawn(move || {
                    let _hold = seg;
                    let mut claimed = 0u64;
                    for _ in 0..rounds {
                        if let Some(slab) = arena.try_claim() {
                            claimed += 1;
                            // SAFETY: claimed, unsealed, slot 0 < capacity 1.
                            unsafe { arena.write(slab, 0, slab as u64) };
                            let h = arena.seal(slab, 1);
                            assert!(arena.finish_consumer(h.slab));
                            arena.release(h.slab);
                        }
                    }
                    claimed
                })
            })
            .collect();
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0);
        assert_eq!(arena.free_slabs(), 8, "every slab back on the free list");
        let audit = arena.audit();
        assert_eq!((audit.leaked, audit.double_released), (0, 0));
    }

    #[test]
    fn attach_checks_geometry() {
        let (seg, _arena) = arena_segment(2, 4);
        let mut layout = SegmentLayout::new();
        let off = layout.reserve(SegArena::<u64>::bytes_for(2, 4), SegArena::<u64>::ALIGN);
        // SAFETY: attaching to the region init'd by `arena_segment` with the
        // same geometry.
        let view: SegArena<u64> = unsafe { SegArena::attach(seg.at(off), 2, 4) };
        assert_eq!(view.slab_count(), 2);
        assert_eq!(view.slab_capacity(), 4);
    }
}
