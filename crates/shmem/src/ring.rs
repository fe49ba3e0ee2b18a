//! Bounded single-producer single-consumer ring buffer.
//!
//! The native runtime's delivery mesh is built out of these: one ring per
//! (source worker, destination worker) pair, so every ring has exactly one
//! producer and one consumer by construction and the acquire/release
//! head/tail counters are all the synchronisation the data path needs.
//! Batched variants ([`SpscRing::push_from`], [`SpscRing::pop_into`]) move
//! bursts with a single counter publication; [`SpscRing::push_wait`] adds a
//! spin → yield → park blocking push for single-direction links (an
//! all-pairs mesh must never block a push — see `native-rt`).

use crossbeam_utils::CachePadded;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Backpressure escalation for [`SpscRing::push_wait`]: how many failed
/// attempts to burn spinning before starting to yield the CPU, and how many
/// yields before parking the thread for [`PARK_INTERVAL`] per attempt.
///
/// The schedule matters most on oversubscribed hosts (more runtime threads
/// than cores): a full ring means the consumer needs CPU time to drain it, so
/// a producer that keeps spinning is actively delaying its own unblocking.
const SPIN_ATTEMPTS: u32 = 64;
const YIELD_ATTEMPTS: u32 = 64;
const PARK_INTERVAL: Duration = Duration::from_micros(50);

/// A bounded SPSC ring buffer of `T`.
///
/// Exactly one thread may call [`SpscRing::push`] and exactly one thread may
/// call [`SpscRing::pop`] at any time; this is enforced by convention (the
/// native runtime gives each ring one producer worker and one consumer), and
/// checked by the stress tests.
pub struct SpscRing<T> {
    buffer: Box<[UnsafeCell<MaybeUninit<T>>]>,
    capacity: usize,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
}

// SAFETY: the ring transfers ownership of `T` values from the single producer
// to the single consumer; synchronisation is provided by the acquire/release
// head/tail counters.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Create a ring that can hold up to `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let buffer = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            buffer,
            capacity,
            head: CachePadded::new(AtomicU64::new(0)),
            tail: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        (tail - head) as usize
    }

    /// True if the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the ring is full.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Push one item.  Returns `Err(item)` if the ring is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if (tail - head) as usize >= self.capacity {
            return Err(item);
        }
        let slot = &self.buffer[(tail as usize) % self.capacity];
        // SAFETY: only the single producer writes this slot, and the consumer
        // will not read it until the tail is published below.
        unsafe { (*slot.get()).write(item) };
        self.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Push one item, waiting (spin → yield → park escalation) while the ring
    /// is full.  Blocks until the consumer makes room; for a cancellable wait
    /// use [`SpscRing::push_wait_or`].
    pub fn push_wait(&self, item: T) {
        // `|| false` never cancels, so the push always lands.
        if self.push_wait_or(item, || false).is_err() {
            unreachable!("push_wait cannot be cancelled");
        }
    }

    /// Push one item, waiting while the ring is full, unless `cancel` turns
    /// true.  Returns `Err(item)` only if the wait was cancelled.
    ///
    /// The wait escalates: busy-spin for the first attempts (the consumer may
    /// be mid-drain on another core), then yield the CPU (on oversubscribed
    /// hosts the consumer needs our core to make progress), then park in
    /// `PARK_INTERVAL` naps so a stalled consumer does not burn a core.
    pub fn push_wait_or(&self, item: T, cancel: impl Fn() -> bool) -> Result<(), T> {
        let mut pending = item;
        let mut attempts = 0u32;
        loop {
            match self.push(pending) {
                Ok(()) => return Ok(()),
                Err(rejected) => {
                    if cancel() {
                        return Err(rejected);
                    }
                    pending = rejected;
                    if attempts < SPIN_ATTEMPTS {
                        std::hint::spin_loop();
                    } else if attempts < SPIN_ATTEMPTS + YIELD_ATTEMPTS {
                        std::thread::yield_now();
                    } else {
                        std::thread::park_timeout(PARK_INTERVAL);
                    }
                    attempts = attempts.saturating_add(1);
                }
            }
        }
    }

    /// Batched push: move items from the front of `src` into the ring until
    /// the ring is full or `src` is empty, publishing the tail **once**.
    /// Returns how many items were moved; FIFO order is preserved.
    pub fn push_from(&self, src: &mut VecDeque<T>) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let room = self.capacity - (tail - head) as usize;
        let count = room.min(src.len());
        for i in 0..count {
            let item = src.pop_front().expect("counted items present");
            let slot = &self.buffer[((tail + i as u64) as usize) % self.capacity];
            // SAFETY: slots `tail..tail+count` are unclaimed (only the single
            // producer writes them) and invisible to the consumer until the
            // single tail store below.
            unsafe { (*slot.get()).write(item) };
        }
        if count > 0 {
            self.tail.store(tail + count as u64, Ordering::Release);
        }
        count
    }

    /// Pop one item, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.buffer[(head as usize) % self.capacity];
        // SAFETY: the producer published this slot before advancing the tail,
        // and only the single consumer reads it before advancing the head.
        let item = unsafe { (*slot.get()).assume_init_read() };
        self.head.store(head + 1, Ordering::Release);
        Some(item)
    }

    /// Batched pop: move up to `max` queued items into `out`, publishing the
    /// head **once**.  Returns how many items were moved.
    pub fn pop_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let count = ((tail - head) as usize).min(max);
        out.reserve(count);
        for i in 0..count {
            let slot = &self.buffer[((head + i as u64) as usize) % self.capacity];
            // SAFETY: the producer published slots `head..tail` before its
            // tail store; they become reusable only after the single head
            // store below.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        if count > 0 {
            self.head.store(head + count as u64, Ordering::Release);
        }
        count
    }

    /// Drain up to `max` items into a vector.
    pub fn drain(&self, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_into(&mut out, max);
        out
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drop any items still queued.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let ring = SpscRing::new(4);
        assert!(ring.is_empty());
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert!(ring.is_full());
        assert_eq!(ring.push(99), Err(99));
        assert_eq!(ring.len(), 4);
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn drain_respects_limit() {
        let ring = SpscRing::new(8);
        for i in 0..6 {
            ring.push(i).unwrap();
        }
        let first = ring.drain(4);
        assert_eq!(first, vec![0, 1, 2, 3]);
        let rest = ring.drain(100);
        assert_eq!(rest, vec![4, 5]);
    }

    #[test]
    fn wraps_around() {
        let ring = SpscRing::new(3);
        for round in 0..10u64 {
            ring.push(round * 2).unwrap();
            ring.push(round * 2 + 1).unwrap();
            assert_eq!(ring.pop(), Some(round * 2));
            assert_eq!(ring.pop(), Some(round * 2 + 1));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn producer_consumer_threads_preserve_order_and_count() {
        let ring = Arc::new(SpscRing::new(128));
        let producer_ring = ring.clone();
        let total = 100_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..total {
                let mut value = i;
                loop {
                    match producer_ring.push(value) {
                        Ok(()) => break,
                        Err(v) => {
                            value = v;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            while expected < total {
                if let Some(v) = ring.pop() {
                    assert_eq!(v, expected, "items must arrive in order");
                    expected += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
            expected
        });
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), total);
    }

    #[test]
    fn push_from_and_pop_into_preserve_order_across_wraparound() {
        let ring = SpscRing::new(4);
        let mut pending: VecDeque<u64> = (0..10).collect();
        let mut seen = Vec::new();
        // Repeatedly part-fill and part-drain a tiny ring so head and tail
        // wrap several times within one batched call sequence.
        while seen.len() < 10 {
            let pushed = ring.push_from(&mut pending);
            assert!(pushed <= 4);
            let popped = ring.pop_into(&mut seen, 3);
            assert!(pushed > 0 || popped > 0, "no progress");
        }
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        assert!(ring.is_empty() && pending.is_empty());
    }

    #[test]
    fn push_from_stops_at_capacity() {
        let ring = SpscRing::new(3);
        ring.push(0u64).unwrap();
        let mut src: VecDeque<u64> = (1..10).collect();
        assert_eq!(ring.push_from(&mut src), 2, "only the free slots fill");
        assert!(ring.is_full());
        assert_eq!(ring.push_from(&mut src), 0, "full ring accepts nothing");
        assert_eq!(src.len(), 7);
        assert_eq!(ring.drain(10), vec![0, 1, 2]);
    }

    #[test]
    fn push_wait_blocks_on_full_ring_until_consumer_drains() {
        // Fill a tiny ring, then push_wait 10k more items while a consumer
        // drains concurrently: every item must arrive exactly once, in order,
        // across thousands of wraparounds of the full ring.
        let ring = Arc::new(SpscRing::new(2));
        ring.push(0u64).unwrap();
        ring.push(1u64).unwrap();
        assert!(ring.is_full());
        let total = 10_000u64;
        let producer_ring = ring.clone();
        let producer = std::thread::spawn(move || {
            for i in 2..total {
                producer_ring.push_wait(i);
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            while expected < total {
                if let Some(v) = ring.pop() {
                    assert_eq!(v, expected, "push_wait must preserve FIFO");
                    expected += 1;
                }
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    #[test]
    fn push_wait_or_cancels_and_returns_the_item() {
        let ring: SpscRing<u64> = SpscRing::new(1);
        ring.push(7).unwrap();
        // Cancel after a few failed attempts; the rejected item comes back.
        let attempts = std::cell::Cell::new(0u32);
        let result = ring.push_wait_or(8, || {
            attempts.set(attempts.get() + 1);
            attempts.get() > 5
        });
        assert_eq!(result, Err(8));
        assert_eq!(ring.pop(), Some(7), "queued item undisturbed");
    }

    #[test]
    fn concurrent_batched_push_pop_conserves_items() {
        // Batched producer vs batched consumer over a ring small enough to be
        // full most of the time: counts and order must survive.
        let ring = Arc::new(SpscRing::new(8));
        let total = 50_000u64;
        let producer_ring = ring.clone();
        let producer = std::thread::spawn(move || {
            let mut pending: VecDeque<u64> = VecDeque::new();
            let mut next = 0u64;
            while next < total || !pending.is_empty() {
                while pending.len() < 16 && next < total {
                    pending.push_back(next);
                    next += 1;
                }
                if producer_ring.push_from(&mut pending) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while (seen.len() as u64) < total {
                if ring.pop_into(&mut seen, 32) == 0 {
                    std::thread::yield_now();
                }
            }
            seen
        });
        producer.join().unwrap();
        let seen = consumer.join().unwrap();
        assert_eq!(seen.len() as u64, total);
        assert!(
            seen.windows(2).all(|w| w[0] + 1 == w[1]),
            "batched transfer must preserve FIFO order"
        );
    }

    #[test]
    fn drops_leftover_items() {
        // Ensure no leaks / double drops when items remain at drop time.
        let ring = SpscRing::new(4);
        ring.push(String::from("a")).unwrap();
        ring.push(String::from("b")).unwrap();
        drop(ring);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: SpscRing<u32> = SpscRing::new(0);
    }
}
