//! Bounded single-producer single-consumer ring.
//!
//! [`SegRing`] is the ring: a `#[repr(C)]` control block with head and tail
//! on cache lines of their own, followed by the slots, all laid out in one
//! region — a [`Segment`](crate::segment::Segment) offset on the process
//! engine, a heap allocation owned by an [`SpscRing`] on the threaded one.
//! The native delivery meshes give every ring exactly one producer and one
//! consumer (one ring per source/destination worker pair), so the
//! acquire/release head/tail counters are all the synchronisation the data
//! path needs.  Batched variants ([`SegRing::push_from`],
//! [`SegRing::pop_into`]) move bursts with a single counter publication.
//!
//! Items move through the slots by value, so a heap ring carries any `T`
//! (the node tier's uplinks carry `Vec` batches) and [`SpscRing`] drops what
//! is left unread.  A ring in shared segment memory ([`SegRing::init`],
//! [`SegRing::attach`]) takes `Copy` plain old data only: its bytes must
//! mean the same in every process — no pointers, no drop glue.
//!
//! Crash safety: a producer killed between its slot write and its tail store
//! never publishes the item, so the consumer cannot observe a torn entry.
//! A dead consumer's ring stays valid; the supervisor (which shares the
//! mapping) drains it on the victim's behalf under the same protocol.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::segment::HeapRegion;

/// In-region control block.  Head and tail sit on their own cache lines via
/// explicit padding (layout must be identical in every attaching process, so
/// no `CachePadded`).
#[repr(C, align(64))]
struct RingCtl {
    head: AtomicU64,
    _pad0: [u8; 56],
    tail: AtomicU64,
    _pad1: [u8; 56],
    /// Capacity stamped at init; attach() cross-checks it.
    capacity: u64,
    _pad2: [u8; 56],
}

/// View over an SPSC ring laid out in a region at a fixed address.
///
/// Exactly one thread may push and exactly one thread may pop at any time;
/// the users enforce this by construction (one producer worker and one
/// consumer per ring), and the stress tests check it.
pub struct SegRing<T> {
    ctl: *mut RingCtl,
    slots: *mut T,
    capacity: usize,
    _marker: PhantomData<T>,
}

// SAFETY: the ring moves `T` values from its single producer to its single
// consumer; the acquire/release head/tail counters order every hand-off.
unsafe impl<T: Send> Send for SegRing<T> {}
unsafe impl<T: Send> Sync for SegRing<T> {}

impl<T> SegRing<T> {
    /// Required alignment of the reserved region.
    pub const ALIGN: usize = 64;

    /// Bytes this ring needs in its region (reserve with [`SegRing::ALIGN`]).
    pub fn bytes_for(capacity: usize) -> usize {
        assert!(capacity > 0, "capacity must be positive");
        std::mem::size_of::<RingCtl>() + capacity * std::mem::size_of::<T>()
    }

    fn view(base: *mut u8, capacity: usize) -> Self {
        assert!(std::mem::align_of::<T>() <= Self::ALIGN);
        assert_eq!(base as usize % Self::ALIGN, 0, "region misaligned");
        Self {
            ctl: base.cast::<RingCtl>(),
            // SAFETY (of the add): within the region sized by `bytes_for`.
            slots: unsafe { base.add(std::mem::size_of::<RingCtl>()) }.cast::<T>(),
            capacity,
            _marker: PhantomData,
        }
    }

    /// Lay an empty ring out at `base`, for any `T`.
    ///
    /// # Safety
    /// `base` must point at `bytes_for(capacity)` writable bytes reserved
    /// for this ring, held exclusively until this returns, and alive for as
    /// long as the view is used.
    unsafe fn init_region(base: *mut u8, capacity: usize) -> Self {
        let ring = Self::view(base, capacity);
        // SAFETY: exclusive access during init per the function contract.
        unsafe {
            ring.ctl.write(RingCtl {
                head: AtomicU64::new(0),
                _pad0: [0; 56],
                tail: AtomicU64::new(0),
                _pad1: [0; 56],
                capacity: capacity as u64,
                _pad2: [0; 56],
            });
        }
        ring
    }

    fn ctl(&self) -> &RingCtl {
        // SAFETY: the view was constructed over a live, initialised region
        // that outlives it (the `init`/`attach` contract, or the owner).
        unsafe { &*self.ctl }
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        let tail = self.ctl().tail.load(Ordering::Acquire);
        let head = self.ctl().head.load(Ordering::Acquire);
        // The consumer may have passed the tail read above.
        tail.saturating_sub(head) as usize
    }

    /// True if the ring holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push one item.  Returns `Err(item)` if the ring is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        let ctl = self.ctl();
        let tail = ctl.tail.load(Ordering::Relaxed);
        let head = ctl.head.load(Ordering::Acquire);
        if (tail - head) as usize >= self.capacity {
            return Err(item);
        }
        // SAFETY: only the single producer writes this slot, and the consumer
        // will not read it until the tail is published below; the index is
        // `tail % capacity`, in bounds.
        unsafe { self.slots.add((tail as usize) % self.capacity).write(item) };
        ctl.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Batched push: move items from the front of `src` into the ring until
    /// the ring is full or `src` is empty, publishing the tail **once**.
    /// Returns how many items were moved; FIFO order is preserved.
    pub fn push_from(&self, src: &mut VecDeque<T>) -> usize {
        let ctl = self.ctl();
        let tail = ctl.tail.load(Ordering::Relaxed);
        let head = ctl.head.load(Ordering::Acquire);
        let room = self.capacity - (tail - head) as usize;
        let count = room.min(src.len());
        for (i, item) in src.drain(..count).enumerate() {
            let slot = ((tail + i as u64) as usize) % self.capacity;
            // SAFETY: slots `tail..tail+count` are free (only the single
            // producer writes them) and invisible to the consumer until the
            // single tail store below.
            unsafe { self.slots.add(slot).write(item) };
        }
        if count > 0 {
            ctl.tail.store(tail + count as u64, Ordering::Release);
        }
        count
    }

    /// Pop one item, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let ctl = self.ctl();
        let head = ctl.head.load(Ordering::Relaxed);
        let tail = ctl.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: the producer published this slot before advancing the
        // tail, and only the single consumer moves it out before advancing
        // the head.
        let item = unsafe { self.slots.add((head as usize) % self.capacity).read() };
        ctl.head.store(head + 1, Ordering::Release);
        Some(item)
    }

    /// Batched pop: move up to `max` queued items into `out`, publishing the
    /// head **once**.  Returns how many items were moved.
    pub fn pop_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let ctl = self.ctl();
        let head = ctl.head.load(Ordering::Relaxed);
        let tail = ctl.tail.load(Ordering::Acquire);
        let count = ((tail - head) as usize).min(max);
        out.reserve(count);
        for i in 0..count {
            let slot = ((head + i as u64) as usize) % self.capacity;
            // SAFETY: the producer published slots `head..tail` before its
            // tail store; they become reusable only after the single head
            // store below.
            out.push(unsafe { self.slots.add(slot).read() });
        }
        if count > 0 {
            ctl.head.store(head + count as u64, Ordering::Release);
        }
        count
    }
}

impl<T: Copy> SegRing<T> {
    /// Initialise a ring in shared segment memory.  Creator-side, once.
    ///
    /// # Safety
    /// `base` must point at `bytes_for(capacity)` writable bytes reserved for
    /// this ring, no other process may touch the region before this returns,
    /// and the region must outlive every use of the view.
    pub unsafe fn init(base: *mut u8, capacity: usize) -> Self {
        // SAFETY: forwarded contract.
        unsafe { Self::init_region(base, capacity) }
    }

    /// Attach to a ring another process initialised at the same offset.
    ///
    /// # Safety
    /// `base` must point at a region a cooperating process passed to
    /// [`SegRing::init`] with the same `capacity` and element type `T`, and
    /// the region must outlive every use of the view.
    pub unsafe fn attach(base: *mut u8, capacity: usize) -> Self {
        let ring = Self::view(base, capacity);
        assert_eq!(
            ring.ctl().capacity,
            capacity as u64,
            "ring capacity mismatch"
        );
        ring
    }
}

/// A [`SegRing`] in a heap region of its own: the threaded engine's mesh
/// and node-tier rings.  Derefs to the ring; dropping it drops every unread
/// item and frees the region.
pub struct SpscRing<T> {
    ring: SegRing<T>,
    _region: HeapRegion,
}

impl<T> SpscRing<T> {
    /// Create a ring that can hold up to `capacity` items.
    pub fn new(capacity: usize) -> Self {
        let region = HeapRegion::new(SegRing::<T>::bytes_for(capacity), SegRing::<T>::ALIGN);
        // SAFETY: a fresh region of the ring's size and alignment, owned
        // next to the view for the ring's whole life.
        let ring = unsafe { SegRing::init_region(region.base(), capacity) };
        Self {
            ring,
            _region: region,
        }
    }
}

impl<T> Deref for SpscRing<T> {
    type Target = SegRing<T>;

    fn deref(&self) -> &SegRing<T> {
        &self.ring
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        while self.ring.pop().is_some() {}
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
        assert_eq!(ring.push(99), Err(99), "full ring rejects");
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
        let mut out = Vec::new();
        assert_eq!(ring.pop_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(ring.pop_into(&mut out, 100), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
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
                while let Err(v) = producer_ring.push(value) {
                    value = v;
                    std::hint::spin_loop();
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
        assert_eq!(ring.len(), ring.capacity());
        assert_eq!(ring.push_from(&mut src), 0, "full ring accepts nothing");
        assert_eq!(src.len(), 7);
        let mut out = Vec::new();
        ring.pop_into(&mut out, 10);
        assert_eq!(out, vec![0, 1, 2]);
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
    fn dropping_the_ring_drops_every_unread_vec() {
        // Each queued Vec holds one clone of `token`: the strong count is
        // 1 + the number of Vecs still alive.
        let token = Arc::new(0u64);
        let ring: SpscRing<Vec<Arc<u64>>> = SpscRing::new(8);
        for _ in 0..5 {
            ring.push(vec![Arc::clone(&token)]).unwrap();
        }
        let read = ring.pop().expect("one queued batch");
        drop(read);
        assert_eq!(Arc::strong_count(&token), 5, "four unread, one read");
        drop(ring);
        assert_eq!(Arc::strong_count(&token), 1, "every unread Vec dropped");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: SpscRing<u32> = SpscRing::new(0);
    }
}
