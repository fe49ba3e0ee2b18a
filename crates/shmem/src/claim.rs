//! The PP scheme's shared aggregation buffer: atomic slot claiming.
//!
//! All worker threads of a process insert into one buffer per destination
//! process.  Insertion is a `fetch_add` on the claim counter; the winner of the
//! last slot seals the buffer and becomes responsible for handing it to the
//! communication thread.  A commit counter (incremented after the slot write)
//! lets the sealer wait until every claimed slot is actually populated before
//! the buffer is read — the standard two-counter MPSC publication protocol.
//!
//! The hot path is genuinely lock-free: slots live in a fixed
//! `Box<[UnsafeCell<MaybeUninit<T>>]>` and an insert is one `fetch_add`, one
//! plain slot write, and one `fetch_add` — no mutex anywhere.  The
//! memory-ordering contract is documented on each atomic and summarised in
//! `docs/DESIGN.md` §3.

use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// Outcome of an insertion attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum ClaimResult<T> {
    /// The item was stored; the buffer is not full yet.
    Stored,
    /// The item was stored and this inserter claimed the last slot: it now owns
    /// the full, sealed buffer contents and must forward them.
    Sealed(Vec<T>),
    /// The buffer is currently sealed (another thread is draining it); the item
    /// was not stored and should be retried.
    Retry(T),
}

/// A shared, bounded aggregation buffer with atomic slot claiming.
///
/// # Protocol
///
/// * `claim` hands out slot indices with `fetch_add`; values `>= capacity`
///   mean "sealed" and make inserters retry.
/// * A writer stores its item into its claimed slot, then bumps `committed`.
///   The commit `fetch_add` is the *release* of the slot write.
/// * The drainer (the claimer of the last slot, or a `seal_flush` caller that
///   swapped `claim` into the sealed range) spin-waits until `committed`
///   catches up with the number of claimed slots, *acquires* it, reads the
///   slots out, and reopens the buffer by resetting `committed` and finally
///   `claim` — the release store of `claim = 0` publishes the slot reads, so
///   the next generation's writers cannot overwrite a slot before it was
///   drained.
pub struct ClaimBuffer<T> {
    /// Fixed slot array; a slot is initialised iff its index was claimed *and*
    /// the corresponding commit happened in the current generation.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    /// Next slot to claim; values `>= capacity` mean "buffer sealed".
    claim: CachePadded<AtomicU64>,
    /// Number of slots whose write has completed.
    committed: CachePadded<AtomicU64>,
    /// Generation counter: bumped every time the buffer is reopened.
    generation: CachePadded<AtomicU64>,
}

// SAFETY: the buffer transfers ownership of `T` values from the inserting
// threads to the single drainer of each generation; every slot access is
// ordered by the claim/commit counters as described in the protocol above, so
// the only requirement on `T` is that it may move between threads.
unsafe impl<T: Send> Send for ClaimBuffer<T> {}
unsafe impl<T: Send> Sync for ClaimBuffer<T> {}

impl<T> ClaimBuffer<T> {
    /// Create a buffer with `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            capacity,
            claim: CachePadded::new(AtomicU64::new(0)),
            committed: CachePadded::new(AtomicU64::new(0)),
            generation: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Capacity in items (`g`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raw claim cursor (racy snapshot): 0 means nothing is buffered,
    /// `>= capacity` means sealed.  Lets a caller skip the seal of an empty
    /// buffer, which would turn concurrent inserters away for nothing.
    pub fn claim_count(&self) -> u64 {
        self.claim.load(Ordering::Acquire)
    }

    /// How many times the buffer has been sealed and reopened.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Try to insert `item`.  Lock-free: one `fetch_add` to claim a slot, a
    /// plain write into the slot, one `fetch_add` to publish it.
    pub fn insert(&self, item: T) -> ClaimResult<T> {
        // AcqRel: the Acquire half synchronises with the reopening drainer's
        // release store of `claim = 0`, so the slot write below cannot be
        // reordered before the previous generation's slot read.
        let slot = self.claim.fetch_add(1, Ordering::AcqRel);
        if slot >= self.capacity as u64 {
            // Buffer is sealed (being drained); undo nothing — the claim
            // counter is reset on reopen — and ask the caller to retry.
            return ClaimResult::Retry(item);
        }
        // SAFETY: `slot < capacity` was claimed exclusively by this thread's
        // `fetch_add`, and the reopen protocol guarantees the previous
        // generation's value was already moved out of the slot.
        unsafe { (*self.slots[slot as usize].get()).write(item) };
        // AcqRel: the Release half publishes the slot write to the drainer
        // that acquires `committed` below / in `seal_flush`.
        self.committed.fetch_add(1, Ordering::AcqRel);
        if slot as usize == self.capacity - 1 {
            // We claimed the last slot: wait for all other writers to commit,
            // then take the contents.
            self.wait_committed(self.capacity as u64);
            // SAFETY: all `capacity` slots are claimed and committed, and the
            // buffer is sealed (`claim >= capacity`), so this thread is the
            // only one reading the slots.
            let items = unsafe { self.take_slots(self.capacity) };
            self.reopen();
            return ClaimResult::Sealed(items);
        }
        ClaimResult::Stored
    }

    /// Seal the buffer against concurrent inserters and drain whatever has
    /// been claimed so far.
    ///
    /// Safe to call while other threads are inserting: the claim counter is
    /// atomically swapped to the sealed range, so in-flight inserters either
    /// claimed a slot before the seal (this call waits for their commit and
    /// takes their item) or observe the sealed state and retry after the
    /// buffer reopens.  Returns an empty
    /// vector if the buffer was already sealed (the sealer owns its contents)
    /// or held no items.
    ///
    /// This is the explicit-flush path of the native threaded runtime's PP
    /// scheme, where one worker's end-of-phase flush may race with its process
    /// peers' insertions (see `docs/DESIGN.md`).
    pub fn seal_flush(&self) -> Vec<T> {
        // AcqRel: the Release half orders nothing of consequence (we wrote no
        // slots), the Acquire half pairs with the previous reopen.
        let claimed = self.claim.swap(self.capacity as u64, Ordering::AcqRel);
        if claimed >= self.capacity as u64 {
            // Already sealed: either the winner of the last slot is draining a
            // full buffer, or another flush is in progress.  Either way that
            // thread owns the contents; nothing for us to take.
            return Vec::new();
        }
        if claimed == 0 {
            // Nothing was claimed; reopen immediately.
            self.reopen();
            return Vec::new();
        }
        // Wait until every claimed slot has actually been written.
        self.wait_committed(claimed);
        // SAFETY: `claim` is in the sealed range so no new slots are handed
        // out, and all `claimed` slots are committed: this thread is the only
        // one touching the slots.
        let out = unsafe { self.take_slots(claimed as usize) };
        self.reopen();
        out
    }

    /// Spin until `committed` reaches `target`, yielding after a short burst
    /// so a single-core host can schedule the writer we are waiting for.
    fn wait_committed(&self, target: u64) {
        let mut spins = 0u32;
        // Acquire: pairs with the writers' commit `fetch_add`s so the slot
        // writes they published are visible to the drain that follows.
        while self.committed.load(Ordering::Acquire) < target {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Move the first `n` slots out into a vector.
    ///
    /// # Safety
    /// The buffer must be sealed (`claim >= capacity`), all `n` slots must be
    /// committed in the current generation, and the caller must be the only
    /// drainer (guaranteed by the seal protocol: sealing is a single atomic
    /// swap / final-slot claim, so exactly one thread wins it per generation).
    unsafe fn take_slots(&self, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        for slot in self.slots.iter().take(n) {
            // SAFETY: see the function contract; each slot is initialised and
            // will not be read again before the next generation writes it.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        out
    }

    /// Reopen the buffer for the next generation.  Must only be called by the
    /// thread that just drained the sealed buffer.
    fn reopen(&self) {
        // Order matters: `committed` must be zeroed before `claim` reopens,
        // and the final release store of `claim = 0` publishes the slot reads
        // of `take_slots` to the next generation's writers (their claim
        // `fetch_add` acquires it).
        self.committed.store(0, Ordering::Release);
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.claim.store(0, Ordering::Release);
    }
}

impl<T> Drop for ClaimBuffer<T> {
    fn drop(&mut self) {
        // Exclusive access: every writer has finished (no outstanding borrows),
        // so all claimed slots are committed and form a prefix of the array.
        let resident = (*self.claim.get_mut()).min(self.capacity as u64) as usize;
        debug_assert_eq!(*self.committed.get_mut() as usize, resident);
        for slot in self.slots.iter_mut().take(resident) {
            // SAFETY: the first `resident` slots are initialised and never
            // read again.
            unsafe { slot.get_mut().assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

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
        assert_eq!(buffer.generation(), 1);
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
    fn drops_leftover_items() {
        // No leaks / double drops when committed items remain at drop time.
        let buffer = ClaimBuffer::new(4);
        buffer.insert(String::from("a"));
        buffer.insert(String::from("b"));
        drop(buffer);
        // And none when the buffer was drained or never used.
        let buffer: ClaimBuffer<String> = ClaimBuffer::new(4);
        drop(buffer);
    }

    #[test]
    fn concurrent_inserters_never_lose_items() {
        let capacity = 64;
        let buffer: Arc<ClaimBuffer<u64>> = Arc::new(ClaimBuffer::new(capacity));
        let sealed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let threads = 8;
        let per_thread = 10_000u64;

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let buffer = buffer.clone();
                let sealed = sealed.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let mut value = t * per_thread + i;
                        loop {
                            match buffer.insert(value) {
                                ClaimResult::Stored => break,
                                ClaimResult::Sealed(items) => {
                                    sealed.lock().unwrap().extend(items);
                                    break;
                                }
                                ClaimResult::Retry(v) => {
                                    value = v;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Collect leftovers.
        let mut all = sealed.lock().unwrap().clone();
        all.extend(buffer.seal_flush());
        assert_eq!(
            all.len() as u64,
            threads * per_thread,
            "no item lost or duplicated"
        );
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, threads * per_thread, "every value unique");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: ClaimBuffer<u32> = ClaimBuffer::new(0);
    }

    #[test]
    fn seal_flush_returns_partial_contents_and_reopens() {
        let buffer = ClaimBuffer::new(8);
        buffer.insert(10);
        buffer.insert(20);
        assert_eq!(buffer.seal_flush(), vec![10, 20]);
        assert_eq!(buffer.generation(), 1);
        // Reopened: inserts land in a fresh generation.
        assert_eq!(buffer.insert(30), ClaimResult::Stored);
        assert_eq!(buffer.seal_flush(), vec![30]);
        assert_eq!(buffer.seal_flush(), Vec::<i32>::new());
    }

    /// The satellite stress test for the lock-free rewrite: 8 inserters race a
    /// dedicated `seal_flush` caller across well over 1000 generations; every
    /// item must come out exactly once.
    #[test]
    fn eight_inserters_race_seal_flush_across_thousand_generations() {
        let capacity = 16; // small capacity => many generations
        let buffer: Arc<ClaimBuffer<u64>> = Arc::new(ClaimBuffer::new(capacity));
        let collected: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let threads = 8u64;
        let per_thread = 10_000u64;

        let inserters: Vec<_> = (0..threads)
            .map(|t| {
                let buffer = buffer.clone();
                let collected = collected.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let mut value = t * per_thread + i;
                        loop {
                            match buffer.insert(value) {
                                ClaimResult::Stored => break,
                                ClaimResult::Sealed(items) => {
                                    collected.lock().unwrap().extend(items);
                                    break;
                                }
                                ClaimResult::Retry(v) => {
                                    value = v;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        // A concurrent flusher playing the native runtime's end-of-phase flush.
        let flusher = {
            let buffer = buffer.clone();
            let collected = collected.clone();
            std::thread::spawn(move || {
                for _ in 0..4_000 {
                    let items = buffer.seal_flush();
                    collected.lock().unwrap().extend(items);
                    std::thread::yield_now();
                }
            })
        };
        for h in inserters {
            h.join().unwrap();
        }
        flusher.join().unwrap();

        let mut all = collected.lock().unwrap().clone();
        all.extend(buffer.seal_flush());
        assert_eq!(all.len() as u64, threads * per_thread, "items conserved");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, threads * per_thread, "every value unique");
        assert!(
            buffer.generation() >= 1_000,
            "expected >= 1000 generations, saw {}",
            buffer.generation()
        );
    }

    #[test]
    fn seal_flush_races_with_inserters_without_losing_items() {
        let capacity = 32;
        let buffer: Arc<ClaimBuffer<u64>> = Arc::new(ClaimBuffer::new(capacity));
        let collected: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let threads = 4;
        let per_thread = 20_000u64;

        let inserters: Vec<_> = (0..threads)
            .map(|t| {
                let buffer = buffer.clone();
                let collected = collected.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let mut value = t * per_thread + i;
                        loop {
                            match buffer.insert(value) {
                                ClaimResult::Stored => break,
                                ClaimResult::Sealed(items) => {
                                    collected.lock().unwrap().extend(items);
                                    break;
                                }
                                ClaimResult::Retry(v) => {
                                    value = v;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        // A concurrent flusher playing the native runtime's end-of-phase flush.
        let flusher = {
            let buffer = buffer.clone();
            let collected = collected.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let items = buffer.seal_flush();
                    collected.lock().unwrap().extend(items);
                    std::hint::spin_loop();
                }
            })
        };
        for h in inserters {
            h.join().unwrap();
        }
        flusher.join().unwrap();

        let mut all = collected.lock().unwrap().clone();
        all.extend(buffer.seal_flush());
        assert_eq!(all.len() as u64, threads * per_thread, "items conserved");
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u64, threads * per_thread, "every value unique");
    }
}
