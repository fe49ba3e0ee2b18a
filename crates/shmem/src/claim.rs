//! The PP scheme's shared aggregation buffer: atomic slot claiming with
//! per-slot stamps.
//!
//! All workers of a process insert into one buffer per destination process.
//! [`SegClaim`] is that buffer, laid out behind a `#[repr(C)]` control block
//! in a region at a fixed address — a [`Segment`](crate::segment::Segment)
//! offset on the process engine, a heap region owned by a [`ClaimBuffer`] on
//! the threaded one.  The hot path is one `fetch_add`, one plain slot write
//! and one release store: no mutex, no second read-modify-write.
//!
//! # Protocol
//!
//! * **Insert.**  A writer claims slot `c` with a `fetch_add` on the claim
//!   cursor, writes its value, then stamps `seq[c]` with `generation + 1`.
//!   `c >= capacity` means full or sealed: [`SegClaimInsert::Retry`].  The
//!   writer of the last slot gets [`SegClaimInsert::MustDrain`].
//! * **Drain lock.**  Bit 63 of the claim word.  [`SegClaim::try_begin_drain`]
//!   sets it; whoever sets it drains, and a loser walks away.  That is safe
//!   because the lock and the cursor share one word: a loser sees the bit
//!   *after* its own claim in that word's modification order, so the holder
//!   has not reopened since, and its seal cannot have come before the claim
//!   (the claim would have got `Retry`) — the holder's seal covers it.
//! * **Seal and collect.**  [`SegClaim::seal_flush`] swaps the cursor to
//!   `capacity` (keeping the lock bit), so later inserters get `Retry`; then
//!   it waits per slot for the stamp of the current generation and reads
//!   the value.
//! * **Reopen.**  Bump the generation (every stale stamp is now inert, so
//!   stamps never need resetting), clear the drainer record, and store 0 to
//!   the claim word: one store reopens the cursor and releases the lock.
//!
//! `docs/DESIGN.md` §3 tabulates the memory orderings.
//!
//! # Writers that die
//!
//! A writer SIGKILLed between claim and stamp leaves its slot unstamped
//! forever.  Once the caller says dead workers exist (`allow_skip`), the
//! drain *skips* such a slot after a bounded wait and reports it, so the
//! item is charged to the dropped ledger (safe: the writer's `items_sent`
//! was published before the claim, so `sent == delivered + dropped` still
//! balances).  A drainer that dies leaves its worker id in the drainer
//! record and the lock set; the supervisor empties every buffer at
//! settlement.
//!
//! Two residual hazards are accepted, both confined to runs **already
//! degraded by a death** (skips only happen when `allow_skip` is true):
//! a merely-stalled writer can be skipped (its item counted dropped — a
//! spurious drop, never a double count), and a skipped-then-resumed writer
//! racing the *next* generation's owner of the same slot can tear that one
//! value.  Conservation holds in both cases because accounting is by slot.

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::segment::HeapRegion;

/// How long to wait on one unstamped slot before consulting `allow_skip`:
/// spin a little, then yield, then (if skipping is allowed) give up on the
/// slot.  A live writer stamps within a few instructions of its claim, so
/// reaching the cutoff with a live writer requires heavy oversubscription —
/// and then the yields hand it the CPU it needs.
const SLOT_SPIN: u32 = 128;
const SLOT_WAIT_CUTOFF: u32 = 4096;

/// The drain lock: the top bit of the claim word.  The cursor never gets
/// near it (that would take 2^63 claims without a reopen).
const DRAIN_LOCK: u64 = 1 << 63;

/// In-region control block (explicit padding; identical layout everywhere).
#[repr(C, align(64))]
struct ClaimCtl {
    /// Claim cursor, `>= capacity` when full or sealed, plus [`DRAIN_LOCK`].
    claim: AtomicU64,
    _pad0: [u8; 56],
    /// Fill generation; slot stamps of the current fill are `generation + 1`.
    generation: AtomicU64,
    /// Worker id + 1 of the drain lock's holder (0 = none).
    drainer: AtomicU32,
    _pad1: [u8; 44],
    capacity: u64,
    _pad2: [u8; 56],
}

/// Outcome of one [`SegClaim::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegClaimInsert {
    /// Value stored; someone else will drain.
    Stored,
    /// Value stored into the **last** slot: the caller drains — it takes
    /// the drain lock and seal-flushes, or walks away if the lock is held.
    MustDrain,
    /// Buffer full (a drain is in progress).  The caller still holds the
    /// value (`T: Copy`) and retries after backing off.
    Retry,
}

/// View over a claim buffer laid out in a region at a fixed address.
pub struct SegClaim<T> {
    ctl: *mut ClaimCtl,
    seq: *mut AtomicU64,
    values: *mut T,
    capacity: usize,
    _marker: PhantomData<T>,
}

// SAFETY: slots are handed off writer → drainer through the per-slot
// release/acquire stamp; the claim fetch_add gives each writer an exclusive
// slot, the drain lock a single drainer.  `T: Copy` keeps slots free of drop
// obligations.
unsafe impl<T: Copy + Send> Send for SegClaim<T> {}
unsafe impl<T: Copy + Send> Sync for SegClaim<T> {}

impl<T: Copy> SegClaim<T> {
    /// Required alignment of the reserved region.
    pub const ALIGN: usize = 64;

    /// Bytes this buffer needs in its region.
    pub fn bytes_for(capacity: usize) -> usize {
        assert!(capacity > 0, "capacity must be positive");
        Self::values_offset(capacity) + capacity * std::mem::size_of::<T>()
    }

    /// Values start at the first cache line after the stamps.
    fn values_offset(capacity: usize) -> usize {
        let seq_end = std::mem::size_of::<ClaimCtl>() + capacity * std::mem::size_of::<AtomicU64>();
        seq_end.div_ceil(64) * 64
    }

    fn view(base: *mut u8, capacity: usize) -> Self {
        assert!(std::mem::align_of::<T>() <= Self::ALIGN);
        assert_eq!(base as usize % Self::ALIGN, 0, "region misaligned");
        Self {
            ctl: base.cast::<ClaimCtl>(),
            // SAFETY (of the adds): within the region sized by `bytes_for`.
            seq: unsafe { base.add(std::mem::size_of::<ClaimCtl>()) }.cast::<AtomicU64>(),
            values: unsafe { base.add(Self::values_offset(capacity)) }.cast::<T>(),
            capacity,
            _marker: PhantomData,
        }
    }

    /// Initialise an empty buffer in its region.
    ///
    /// # Safety
    /// `base` must point at `bytes_for(capacity)` writable bytes reserved for
    /// this buffer, exclusively held during init, and alive for as long as
    /// the view is used.
    pub unsafe fn init(base: *mut u8, capacity: usize) -> Self {
        let buf = Self::view(base, capacity);
        // SAFETY: exclusive access during init per the function contract;
        // `bytes_for` sized the region for the block and `capacity` stamps.
        unsafe {
            buf.ctl.write(ClaimCtl {
                claim: AtomicU64::new(0),
                _pad0: [0; 56],
                generation: AtomicU64::new(0),
                drainer: AtomicU32::new(0),
                _pad1: [0; 44],
                capacity: capacity as u64,
                _pad2: [0; 56],
            });
            for i in 0..capacity {
                buf.seq.add(i).write(AtomicU64::new(0));
            }
        }
        buf
    }

    /// Attach to a buffer another process initialised at the same offset.
    ///
    /// # Safety
    /// `base` must point at a region a cooperating process passed to
    /// [`SegClaim::init`] with the same `capacity` and element type `T`, and
    /// the region must outlive every use of the view.
    pub unsafe fn attach(base: *mut u8, capacity: usize) -> Self {
        let buf = Self::view(base, capacity);
        assert_eq!(
            buf.ctl().capacity,
            capacity as u64,
            "claim buffer capacity mismatch"
        );
        buf
    }

    fn ctl(&self) -> &ClaimCtl {
        // SAFETY: constructed over a live region that outlives every view.
        unsafe { &*self.ctl }
    }

    fn seq(&self, slot: usize) -> &AtomicU64 {
        debug_assert!(slot < self.capacity);
        // SAFETY: slot in bounds (callers index below `capacity`).
        unsafe { &*self.seq.add(slot) }
    }

    /// Capacity in items (`g`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Claim cursor (racy snapshot): 0 means nothing is buffered,
    /// `>= capacity` full or sealed.  Lets a caller skip the seal of an
    /// empty buffer, which would turn concurrent inserters away for nothing.
    pub fn claim_count(&self) -> u64 {
        self.ctl().claim.load(Ordering::Acquire) & !DRAIN_LOCK
    }

    /// Worker id + 1 of the drain lock's holder, 0 if none.
    pub fn drainer(&self) -> u32 {
        self.ctl().drainer.load(Ordering::Acquire)
    }

    /// Insert one value.  See [`SegClaimInsert`] for the caller's duties.
    pub fn insert(&self, value: T) -> SegClaimInsert {
        let ctl = self.ctl();
        // AcqRel: the acquire half reads the reopen's release store of the
        // claim word (directly or through later claims), so the generation
        // load below sees the bump that preceded it.
        let c = ctl.claim.fetch_add(1, Ordering::AcqRel) & !DRAIN_LOCK;
        if c >= self.capacity as u64 {
            // Full: a drain is (or will be) in progress.  The overshoot is
            // harmless — reopen stores 0.
            return SegClaimInsert::Retry;
        }
        // Load the generation AFTER winning the slot: the generation cannot
        // advance past us now, because the drain waits for this very slot's
        // stamp before reopening (a skip requires allow_skip, i.e. a death).
        let generation = ctl.generation.load(Ordering::Acquire);
        // SAFETY: the fetch_add handed us exclusive ownership of slot `c`
        // for this generation; in bounds per the check above.
        unsafe { self.values.add(c as usize).write(value) };
        // The stamp publishes the value to the drainer (release → acquire).
        self.seq(c as usize)
            .store(generation + 1, Ordering::Release);
        if c == self.capacity as u64 - 1 {
            SegClaimInsert::MustDrain
        } else {
            SegClaimInsert::Stored
        }
    }

    /// Try to take the drain lock as worker `me`.  Concurrent drain intents
    /// (a `MustDrain` winner racing a peer's flush) serialize here — two
    /// overlapping collects would read every slot twice.  A loser walks
    /// away: the holder's seal covers every slot claimed before the loser
    /// looked (see the module docs).  The lock is released by the drain's
    /// reopen; a holder that dies mid-drain leaves its worker id behind.
    pub fn try_begin_drain(&self, me: u32) -> bool {
        let ctl = self.ctl();
        // Test before the read-modify-write: a held lock costs a loser one
        // load, not a write to the line every inserter claims from.
        if ctl.claim.load(Ordering::Relaxed) & DRAIN_LOCK != 0
            || ctl.claim.fetch_or(DRAIN_LOCK, Ordering::AcqRel) & DRAIN_LOCK != 0
        {
            return false;
        }
        ctl.drainer.store(me + 1, Ordering::Release);
        true
    }

    /// Take the drain lock as worker `me` without asking — for a sole
    /// inserter draining its own full buffer with [`SegClaim::drain_full`].
    pub fn begin_drain(&self, me: u32) {
        let ctl = self.ctl();
        ctl.claim.fetch_or(DRAIN_LOCK, Ordering::AcqRel);
        ctl.drainer.store(me + 1, Ordering::Release);
    }

    /// Drain a **full** buffer (every slot claimed): append the `capacity`
    /// values to `out`, skipping slots whose writer never stamped if
    /// `allow_skip` returns true (only when a worker is known dead).  Returns
    /// the number of skipped slots — the caller charges each to the dropped
    /// ledger.  Reopens the buffer before returning.
    ///
    /// Only for a drainer that knows the current generation is full and
    /// its own: after losing the lock, the holder's reopen would leave this
    /// call waiting for a refill.
    pub fn drain_full(&self, out: &mut Vec<T>, allow_skip: impl Fn() -> bool) -> u64 {
        self.collect(self.capacity, out, allow_skip)
    }

    /// Seal whatever is claimed, drain it into `out`, reopen.  Returns
    /// `(drained, skipped)`.  Call with the drain lock held — or, at
    /// settlement, as the segment's sole accessor.
    pub fn seal_flush(&self, out: &mut Vec<T>, allow_skip: impl Fn() -> bool) -> (u64, u64) {
        // Swap rather than load: parks the cursor at `capacity` so any
        // straggling inserter lands in Retry instead of a slot we already
        // passed over; the lock bit stays set until the reopen.
        let claimed = self
            .ctl()
            .claim
            .swap(DRAIN_LOCK | self.capacity as u64, Ordering::AcqRel)
            & !DRAIN_LOCK;
        let count = (claimed as usize).min(self.capacity);
        let skipped = self.collect(count, out, allow_skip);
        (count as u64 - skipped, skipped)
    }

    /// Wait for and read slots `0..count`, then reopen.  Returns skips.
    fn collect(&self, count: usize, out: &mut Vec<T>, allow_skip: impl Fn() -> bool) -> u64 {
        let ctl = self.ctl();
        let expected = ctl.generation.load(Ordering::Acquire) + 1;
        let mut skipped = 0u64;
        out.reserve(count);
        for slot in 0..count {
            let mut waited = 0u32;
            loop {
                if self.seq(slot).load(Ordering::Acquire) == expected {
                    // SAFETY: the writer's release stamp published its write
                    // of this slot; the claim fetch_add made it exclusive.
                    out.push(unsafe { self.values.add(slot).read() });
                    break;
                }
                if waited >= SLOT_WAIT_CUTOFF && allow_skip() {
                    // Writer presumed dead between claim and stamp: the item
                    // is gone, but its send was already published, so one
                    // dropped-item charge keeps the ledger balanced.
                    skipped += 1;
                    break;
                }
                if waited < SLOT_SPIN {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
                waited = waited.saturating_add(1);
            }
        }
        self.reopen();
        skipped
    }

    /// Bump the generation (inert-ing every stale stamp), clear the drainer
    /// record, and store an empty, unlocked claim word.
    fn reopen(&self) {
        let ctl = self.ctl();
        ctl.generation.fetch_add(1, Ordering::AcqRel);
        ctl.drainer.store(0, Ordering::Release);
        // The release store orders the generation bump and the slot reads
        // before the cursor reset: an inserter that wins a fresh slot (its
        // AcqRel fetch_add reads this store) sees the new generation for its
        // stamp and cannot overwrite a value before it was read.
        ctl.claim.store(0, Ordering::Release);
    }
}

/// Outcome of [`ClaimBuffer::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum ClaimResult<T> {
    /// The item was stored; the buffer is not full yet, or a drain already
    /// under way will take it.
    Stored,
    /// The item was stored into the last slot and this inserter drained the
    /// full buffer: it now owns the contents and must forward them.
    Sealed(Vec<T>),
    /// The buffer is sealed (another thread is draining it); the item was
    /// not stored and should be retried.
    Retry(T),
}

/// A [`SegClaim`] in a heap region of its own: the threaded engine's PP
/// buffers.  Derefs to the buffer; dropping it frees the region.
///
/// [`ClaimBuffer::insert`] and [`ClaimBuffer::seal_flush`] are the
/// one-call forms of the protocol, draining into a fresh `Vec` under drain
/// id 0 (in one process the drainer record is informational).  A caller
/// that reuses its drain vector calls the view's methods.
pub struct ClaimBuffer<T> {
    claim: SegClaim<T>,
    _region: HeapRegion,
}

impl<T: Copy> ClaimBuffer<T> {
    /// Create a buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        let region = HeapRegion::new(SegClaim::<T>::bytes_for(capacity), SegClaim::<T>::ALIGN);
        // SAFETY: a fresh region of the buffer's size and alignment, owned
        // next to the view for the buffer's whole life.
        let claim = unsafe { SegClaim::init(region.base(), capacity) };
        Self {
            claim,
            _region: region,
        }
    }

    /// Insert `item`; a `MustDrain` drains the full buffer into
    /// [`ClaimResult::Sealed`] unless a drain already holds the lock.
    pub fn insert(&self, item: T) -> ClaimResult<T> {
        match self.claim.insert(item) {
            SegClaimInsert::Stored => ClaimResult::Stored,
            SegClaimInsert::Retry => ClaimResult::Retry(item),
            SegClaimInsert::MustDrain => match self.drain() {
                Some(items) => ClaimResult::Sealed(items),
                None => ClaimResult::Stored,
            },
        }
    }

    /// Take the drain lock and drain whatever is claimed; empty if the
    /// buffer held nothing or another drain holds the lock (that drain
    /// covers everything claimed before this call).
    pub fn seal_flush(&self) -> Vec<T> {
        self.drain().unwrap_or_default()
    }

    fn drain(&self) -> Option<Vec<T>> {
        if !self.claim.try_begin_drain(0) {
            return None;
        }
        let mut items = Vec::new();
        self.claim.seal_flush(&mut items, || false);
        Some(items)
    }
}

impl<T> Deref for ClaimBuffer<T> {
    type Target = SegClaim<T>;

    fn deref(&self) -> &SegClaim<T> {
        &self.claim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegHeader, Segment, SegmentLayout};
    use std::sync::{Arc, Mutex};

    /// Insert `value` through the one-call form until it is stored, adding
    /// the contents of a seal to `batches`.
    fn insert_until_stored(buffer: &ClaimBuffer<u64>, value: u64, batches: &Mutex<Vec<Vec<u64>>>) {
        loop {
            match buffer.insert(value) {
                ClaimResult::Stored => return,
                ClaimResult::Sealed(items) => {
                    batches.lock().unwrap().push(items);
                    return;
                }
                ClaimResult::Retry(_) => std::thread::yield_now(),
            }
        }
    }

    /// `threads` inserters of `per_thread` distinct values each, racing a
    /// flusher that seal-flushes `flushes` times; every value must come out
    /// exactly once.  Returns the number of non-empty drains.
    fn race_inserters_and_flusher(
        capacity: usize,
        threads: u64,
        per_thread: u64,
        flushes: usize,
    ) -> usize {
        let buffer = Arc::new(ClaimBuffer::new(capacity));
        let batches = Arc::new(Mutex::new(Vec::new()));
        let inserters: Vec<_> = (0..threads)
            .map(|t| {
                let buffer = buffer.clone();
                let batches = batches.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        insert_until_stored(&buffer, t * per_thread + i, &batches);
                    }
                })
            })
            .collect();
        // A concurrent flusher playing the native runtime's flushes.
        let flusher = {
            let buffer = buffer.clone();
            let batches = batches.clone();
            std::thread::spawn(move || {
                for _ in 0..flushes {
                    let items = buffer.seal_flush();
                    if !items.is_empty() {
                        batches.lock().unwrap().push(items);
                    }
                    std::thread::yield_now();
                }
            })
        };
        for h in inserters {
            h.join().unwrap();
        }
        flusher.join().unwrap();

        let mut batches = std::mem::take(&mut *batches.lock().unwrap());
        batches.push(buffer.seal_flush());
        let mut all: Vec<u64> = batches.iter().flatten().copied().collect();
        assert_eq!(all.len() as u64, threads * per_thread, "items conserved");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, threads * per_thread, "every value unique");
        batches.iter().filter(|b| !b.is_empty()).count()
    }

    #[test]
    fn fills_and_seals_exactly_at_capacity() {
        let buffer = ClaimBuffer::new(4);
        assert_eq!(buffer.insert(1), ClaimResult::Stored);
        assert_eq!(buffer.insert(2), ClaimResult::Stored);
        assert_eq!(buffer.insert(3), ClaimResult::Stored);
        match buffer.insert(4) {
            ClaimResult::Sealed(items) => assert_eq!(items, vec![1, 2, 3, 4]),
            other => panic!("expected sealed buffer, got {other:?}"),
        }
        // The buffer is reusable after sealing.
        assert_eq!(buffer.insert(5), ClaimResult::Stored);
        assert_eq!(buffer.seal_flush(), vec![5]);
    }

    #[test]
    fn flush_returns_partial_contents() {
        let buffer = ClaimBuffer::new(8);
        buffer.insert(10);
        buffer.insert(20);
        assert_eq!(buffer.seal_flush(), vec![10, 20]);
        assert_eq!(buffer.seal_flush(), Vec::<i32>::new());
    }

    #[test]
    fn seal_flush_returns_partial_contents_and_reopens() {
        let buffer = ClaimBuffer::new(8);
        buffer.insert(10);
        buffer.insert(20);
        assert_eq!(buffer.seal_flush(), vec![10, 20]);
        // Reopened: inserts land in a fresh generation.
        assert_eq!(buffer.insert(30), ClaimResult::Stored);
        assert_eq!(buffer.seal_flush(), vec![30]);
        assert_eq!(buffer.seal_flush(), Vec::<i32>::new());
    }

    #[test]
    fn concurrent_inserters_never_lose_items() {
        race_inserters_and_flusher(64, 8, 10_000, 0);
    }

    /// 8 inserters race a dedicated flusher across well over 1000
    /// generations; every item must come out exactly once.
    #[test]
    fn eight_inserters_race_seal_flush_across_thousand_generations() {
        let drains = race_inserters_and_flusher(16, 8, 10_000, 4_000);
        assert!(drains >= 1_000, "expected >= 1000 drains, saw {drains}");
    }

    #[test]
    fn seal_flush_races_with_inserters_without_losing_items() {
        race_inserters_and_flusher(32, 4, 20_000, 2_000);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: ClaimBuffer<u32> = ClaimBuffer::new(0);
    }

    #[test]
    fn must_drain_that_loses_the_lock_walks_away() {
        // Worker 1 holds the drain lock (a flush about to seal) when worker
        // 0 claims the last slot: worker 0 must return at once, and worker
        // 1's seal must carry both items exactly once.
        let buffer = ClaimBuffer::new(2);
        assert_eq!(buffer.insert(7), ClaimResult::Stored);
        assert!(buffer.try_begin_drain(1));
        assert_eq!(buffer.drainer(), 2);
        assert_eq!(buffer.insert(8), ClaimResult::Stored, "loser walks away");
        assert!(!buffer.try_begin_drain(0), "the lock is still held");
        let view: &SegClaim<u64> = &buffer;
        let mut out = Vec::new();
        assert_eq!(view.seal_flush(&mut out, || false), (2, 0));
        assert_eq!(out, vec![7, 8]);
        assert_eq!(buffer.drainer(), 0, "reopen releases the lock");
        assert_eq!(buffer.seal_flush(), Vec::<u64>::new(), "nothing twice");
    }

    #[test]
    fn fill_drain_reopen_round_trip() {
        let buffer = ClaimBuffer::new(4);
        let buf: &SegClaim<u64> = &buffer;
        assert_eq!(buf.insert(10), SegClaimInsert::Stored);
        assert_eq!(buf.insert(11), SegClaimInsert::Stored);
        assert_eq!(buf.insert(12), SegClaimInsert::Stored);
        assert_eq!(buf.insert(13), SegClaimInsert::MustDrain);
        assert_eq!(buf.insert(99), SegClaimInsert::Retry, "full buffer rejects");
        buf.begin_drain(2);
        assert_eq!(buf.drainer(), 3);
        let mut out = Vec::new();
        let skipped = buf.drain_full(&mut out, || false);
        assert_eq!(skipped, 0);
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!(buf.drainer(), 0, "reopen clears the drainer");
        // Next generation works identically; stale stamps are inert.
        assert_eq!(buf.insert(20), SegClaimInsert::Stored);
        let (drained, skipped) = buf.seal_flush(&mut out, || false);
        assert_eq!((drained, skipped), (1, 0));
        assert_eq!(out.last(), Some(&20));
    }

    #[test]
    fn seal_flush_of_empty_buffer_is_a_no_op() {
        let buffer = ClaimBuffer::new(4);
        let buf: &SegClaim<u64> = &buffer;
        let mut out = Vec::new();
        assert_eq!(buf.seal_flush(&mut out, || false), (0, 0));
        assert!(out.is_empty());
        // Buffer stays usable.
        assert_eq!(buf.insert(1), SegClaimInsert::Stored);
    }

    #[test]
    fn unstamped_slot_is_skipped_and_charged_when_allowed() {
        // Simulate a writer killed between claim and stamp: bump the claim
        // cursor by hand (the "writer" never writes or stamps), then fill the
        // rest normally.
        let buffer = ClaimBuffer::new(3);
        let buf: &SegClaim<u64> = &buffer;
        assert_eq!(buf.insert(1), SegClaimInsert::Stored);
        let dead_slot = buf.ctl().claim.fetch_add(1, Ordering::AcqRel);
        assert_eq!(dead_slot, 1);
        assert_eq!(buf.insert(3), SegClaimInsert::MustDrain);
        let mut out = Vec::new();
        let skipped = buf.drain_full(&mut out, || true);
        assert_eq!(skipped, 1, "the dead writer's slot is charged");
        assert_eq!(out, vec![1, 3], "live slots drain in order");
        // The buffer reopened and the stale generation cannot satisfy the
        // next drain: a full clean round trip still works.
        for i in 0..2 {
            assert_eq!(buf.insert(i), SegClaimInsert::Stored);
        }
        assert_eq!(buf.insert(9), SegClaimInsert::MustDrain);
        out.clear();
        assert_eq!(buf.drain_full(&mut out, || false), 0);
        assert_eq!(out, vec![0, 1, 9]);
    }

    #[test]
    fn concurrent_inserters_conserve_every_item() {
        // 4 threads × 10k inserts through a tiny buffer, every drain taken
        // through the lock into a reused vector, as the engines do.  Every
        // inserted value must come out exactly once.
        let buffer = Arc::new(ClaimBuffer::new(8));
        let per_thread = 10_000u64;
        let threads = 4u64;
        let collected = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let buffer = buffer.clone();
                let collected = collected.clone();
                std::thread::spawn(move || {
                    let buf: &SegClaim<u64> = &buffer;
                    let mut scratch = Vec::new();
                    for i in 0..per_thread {
                        let value = t * per_thread + i;
                        loop {
                            match buf.insert(value) {
                                SegClaimInsert::Stored => break,
                                SegClaimInsert::MustDrain => {
                                    if buf.try_begin_drain(t as u32) {
                                        scratch.clear();
                                        let (_, skipped) = buf.seal_flush(&mut scratch, || false);
                                        assert_eq!(skipped, 0);
                                        collected.lock().unwrap().extend_from_slice(&scratch);
                                    }
                                    break;
                                }
                                SegClaimInsert::Retry => std::thread::yield_now(),
                            }
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let mut all = collected.lock().unwrap().clone();
        all.extend(buffer.seal_flush());
        assert_eq!(all.len() as u64, threads * per_thread);
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len() as u64,
            threads * per_thread,
            "every value exactly once"
        );
    }

    #[test]
    #[should_panic(expected = "claim buffer capacity mismatch")]
    fn attach_rejects_a_capacity_mismatch() {
        let mut layout = SegmentLayout::new();
        let off = layout.reserve(SegClaim::<u64>::bytes_for(4), SegClaim::<u64>::ALIGN);
        let seg = Segment::create(layout.total(), SegHeader::new(1, std::process::id()))
            .expect("create segment");
        // SAFETY: fresh region reserved for this buffer.
        let buf: SegClaim<u64> = unsafe { SegClaim::init(seg.at(off), 4) };
        buf.insert(1);
        // SAFETY: attaching to the region init'd above, same geometry.
        let view: SegClaim<u64> = unsafe { SegClaim::attach(seg.at(off), 4) };
        assert_eq!(view.claim_count(), 1);
        // SAFETY: the same region; the capacity differs on purpose and attach
        // must refuse it before touching a slot.
        let _wrong: SegClaim<u64> = unsafe { SegClaim::attach(seg.at(off), 8) };
    }
}
