//! Application items.
//!
//! Following the paper's terminology (§I), an *item* is the short unit of data
//! the application wishes to send to another worker; a *message* is what the
//! aggregation library actually hands to the transport (many items packed
//! together).  An item records its creation timestamp so the destination can
//! compute the end-to-end item latency that Figures 12, 14–18 are about.

use net_model::WorkerId;

/// One application item: a payload of type `T` destined to a worker.
///
/// `Item<T>` is `Copy` whenever the payload is: the native engines' slabs
/// store items as plain-old-data in shared arenas, where drop obligations
/// would be unsound to track across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item<T> {
    /// The destination worker (PE) this item must be delivered to.
    pub dest: WorkerId,
    /// Application payload.
    pub data: T,
    /// Simulated (or wall-clock) time at which the application created the
    /// item, in nanoseconds.  Used for latency accounting.
    pub created_at_ns: u64,
}

impl<T> Item<T> {
    /// Create an item destined to `dest` carrying `data`, created at
    /// `created_at_ns`.
    pub fn new(dest: WorkerId, data: T, created_at_ns: u64) -> Self {
        Self {
            dest,
            data,
            created_at_ns,
        }
    }

    /// Latency of this item if it were delivered at `now_ns`.
    pub fn latency_at(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.created_at_ns)
    }

    /// Map the payload, keeping destination and timestamp.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Item<U> {
        Item {
            dest: self.dest,
            data: f(self.data),
            created_at_ns: self.created_at_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_latency() {
        let item = Item::new(WorkerId(3), 42u64, 1_000);
        assert_eq!(item.dest, WorkerId(3));
        assert_eq!(item.data, 42);
        assert_eq!(item.latency_at(1_500), 500);
        assert_eq!(item.latency_at(500), 0, "latency saturates at zero");
    }

    #[test]
    fn map_preserves_metadata() {
        let item = Item::new(WorkerId(7), 5u32, 99);
        let mapped = item.map(|v| v as u64 * 2);
        assert_eq!(mapped.dest, WorkerId(7));
        assert_eq!(mapped.created_at_ns, 99);
        assert_eq!(mapped.data, 10u64);
    }
}
