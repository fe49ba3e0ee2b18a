//! A single per-destination aggregation buffer.

use crate::item::Item;

/// A bounded buffer of items headed to one destination (worker or process).
///
/// The buffer tracks when its oldest currently-buffered item was inserted so
/// that timeout-based flushing ([`crate::FlushPolicy::timeout_ns`]) can decide
/// whether the buffer has gone stale.
#[derive(Debug, Clone)]
pub struct ItemBuffer<T> {
    items: Vec<Item<T>>,
    capacity: usize,
    /// Insertion timestamp of the oldest item currently in the buffer;
    /// meaningless while the buffer is empty.
    oldest_insert_ns: u64,
}

impl<T> ItemBuffer<T> {
    /// Create an empty buffer with capacity for `capacity` items.  Nothing
    /// is allocated until the first push.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        Self {
            // Real TramLib allocates the buffer eagerly; we allocate lazily on
            // first insert to keep simulated memory footprint reasonable, but
            // reserve the full capacity then so no reallocation happens later.
            items: Vec::new(),
            capacity,
            oldest_insert_ns: 0,
        }
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if the buffer has reached capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Capacity in items (`g`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fill fraction in `[0, 1]`.
    pub fn fill_fraction(&self) -> f64 {
        self.items.len() as f64 / self.capacity as f64
    }

    /// Timestamp at which the oldest currently-buffered item was inserted.
    pub fn oldest_insert_ns(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.oldest_insert_ns)
    }

    /// Age of the oldest buffered item at time `now_ns` (0 if empty).
    pub fn oldest_age_ns(&self, now_ns: u64) -> u64 {
        self.oldest_insert_ns()
            .map_or(0, |t| now_ns.saturating_sub(t))
    }

    /// Push an item inserted at `now_ns`.  Returns `true` if the buffer is full
    /// after the insertion (i.e. it should be emitted as a message).
    ///
    /// # Panics
    /// Panics if the buffer is already full — callers must drain full buffers
    /// before inserting more.
    #[inline]
    pub fn push(&mut self, item: Item<T>, now_ns: u64) -> bool {
        assert!(!self.is_full(), "pushing into a full aggregation buffer");
        if self.items.is_empty() {
            // No-op when recycled storage already carries enough capacity.
            self.items.reserve_exact(self.capacity);
            self.oldest_insert_ns = now_ns;
        }
        self.items.push(item);
        self.is_full()
    }

    /// Take all buffered items, leaving the buffer empty.
    pub fn drain(&mut self) -> Vec<Item<T>> {
        self.drain_with(Vec::new())
    }

    /// Take all buffered items, installing `replacement` (typically a recycled
    /// vector from a [`crate::VecPool`]) as the new empty storage so the next
    /// fill cycle does not have to allocate.
    pub fn drain_with(&mut self, replacement: Vec<Item<T>>) -> Vec<Item<T>> {
        debug_assert!(replacement.is_empty(), "replacement storage must be empty");
        std::mem::replace(&mut self.items, replacement)
    }

    /// Peek at the buffered items without draining.
    pub fn items(&self) -> &[Item<T>] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::WorkerId;

    fn item(v: u32) -> Item<u32> {
        Item::new(WorkerId(0), v, 100)
    }

    #[test]
    fn push_until_full() {
        let mut b = ItemBuffer::new(3);
        assert!(b.is_empty());
        assert!(!b.push(item(1), 10));
        assert!(!b.push(item(2), 20));
        assert!(b.push(item(3), 30), "third push fills the buffer");
        assert!(b.is_full());
        assert_eq!(b.len(), 3);
        assert!((b.fill_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "full aggregation buffer")]
    fn pushing_into_full_buffer_panics() {
        let mut b = ItemBuffer::new(1);
        b.push(item(1), 0);
        b.push(item(2), 0);
    }

    #[test]
    fn drain_resets_state() {
        let mut b = ItemBuffer::new(2);
        b.push(item(1), 5);
        b.push(item(2), 6);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert!(b.is_empty());
        assert!(!b.is_full());
        assert_eq!(b.oldest_insert_ns(), None);
        assert_eq!(b.oldest_age_ns(100), 0);
        // Buffer is reusable after draining.
        assert!(!b.push(item(3), 7));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn oldest_age_tracks_first_insert_of_current_batch() {
        let mut b = ItemBuffer::new(4);
        b.push(item(1), 100);
        b.push(item(2), 250);
        assert_eq!(b.oldest_insert_ns(), Some(100));
        assert_eq!(b.oldest_age_ns(400), 300);
        b.drain();
        b.push(item(3), 1_000);
        assert_eq!(b.oldest_insert_ns(), Some(1_000));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: ItemBuffer<u32> = ItemBuffer::new(0);
    }

    #[test]
    fn drain_with_reuses_replacement_capacity() {
        let mut b = ItemBuffer::new(4);
        b.push(item(1), 0);
        let recycled = Vec::with_capacity(32);
        let drained = b.drain_with(recycled);
        assert_eq!(drained.len(), 1);
        assert!(b.is_empty());
        // The replacement's capacity is already sufficient, so the next fill
        // cycle does not reserve again.
        b.push(item(2), 1);
        assert!(b.items().len() == 1);
    }

    #[test]
    fn items_peek_does_not_drain() {
        let mut b = ItemBuffer::new(2);
        b.push(item(7), 0);
        assert_eq!(b.items().len(), 1);
        assert_eq!(b.items()[0].data, 7);
        assert_eq!(b.len(), 1);
    }
}
