//! Named counter registry.
//!
//! Benchmarks count things: items sent, messages sent, bytes on the wire, flush
//! calls, wasted updates, out-of-order events.  [`Counters`] is a tiny map from
//! `&'static str` names to `u64` values that supports merging across
//! PEs/processes and pretty printing.
//!
//! The registry sits on per-item hot paths (applications bump several counters
//! per delivered item at millions of items per second), so the storage is a
//! small vector searched linearly with **pointer-first** comparison: counter
//! names are `&'static str` literals, so a repeat caller almost always matches
//! on the pointer without touching the string bytes.  Hits bubble one slot
//! towards the front, so the hottest counters settle at the start of the scan.
//! Name-ordered iteration (printing, serialization) sorts on demand — that
//! path runs once per report, not per item.

/// Registry of named `u64` counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
    /// Names recorded through [`Counters::max`].  [`Counters::merge`] combines
    /// these with `max` instead of `+` so that merging per-PE registries gives
    /// the same result as every PE writing into one shared registry — the
    /// multi-process backend merges per-child snapshots and must stay
    /// bit-identical to the threaded backend's sequential finalize.
    max_keys: Vec<&'static str>,
}

impl Counters {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of `name`: a pointer-equality pass over every entry first
    /// (`&'static str` literals from the same call site share an address),
    /// and only on a miss a byte comparison pass — so entries the scan passes
    /// on the way to a repeat caller's slot cost an address compare, not a
    /// `memcmp` against a same-length name.
    fn find(&self, name: &str) -> Option<usize> {
        let ptr = name as *const str;
        self.entries
            .iter()
            .position(|(n, _)| std::ptr::eq(*n as *const str, ptr))
            .or_else(|| self.entries.iter().position(|(n, _)| *n == name))
    }

    /// Mutable slot for `name`, creating it at the back if absent; hits swap
    /// one position towards the front (gradual move-to-front).
    fn slot(&mut self, name: &'static str) -> &mut u64 {
        match self.find(name) {
            Some(i) => {
                let i = if i > 0 {
                    self.entries.swap(i, i - 1);
                    i - 1
                } else {
                    i
                };
                &mut self.entries[i].1
            }
            None => {
                self.entries.push((name, 0));
                &mut self.entries.last_mut().expect("just pushed").1
            }
        }
    }

    /// Add `delta` to counter `name`, creating it if necessary.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.slot(name) += delta;
    }

    /// Increment counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Set counter `name` to `value`, overwriting any previous value.
    pub fn set(&mut self, name: &'static str, value: u64) {
        *self.slot(name) = value;
    }

    /// Read counter `name`, 0 if absent.
    pub fn get(&self, name: &str) -> u64 {
        self.find(name).map_or(0, |i| self.entries[i].1)
    }

    /// Record the maximum of the current value and `value`.  Marks `name` as
    /// a max-combined counter for [`Counters::merge`].
    pub fn max(&mut self, name: &'static str, value: u64) {
        if !self.is_max_key(name) {
            self.max_keys.push(name);
        }
        let slot = self.slot(name);
        if value > *slot {
            *slot = value;
        }
    }

    /// True if `name` was recorded through [`Counters::max`] and merges by
    /// maximum rather than by sum.
    pub fn is_max_key(&self, name: &str) -> bool {
        self.max_keys
            .iter()
            .any(|n| std::ptr::eq(*n as *const str, name as *const str) || *n == name)
    }

    /// Merge another registry: counters sum, except names either side recorded
    /// through [`Counters::max`], which combine by maximum.
    pub fn merge(&mut self, other: &Counters) {
        for (name, value) in &other.entries {
            if other.is_max_key(name) || self.is_max_key(name) {
                self.max(name, *value);
            } else {
                self.add(name, *value);
            }
        }
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|(name, _)| *name);
        sorted.into_iter()
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no counters exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl PartialEq for Counters {
    fn eq(&self, other: &Self) -> bool {
        // Scan order is an access-pattern artifact; equality is by content.
        self.iter().eq(other.iter())
    }
}

impl Eq for Counters {}

impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, value) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_incr() {
        let mut c = Counters::new();
        assert_eq!(c.get("messages"), 0);
        c.add("messages", 5);
        c.incr("messages");
        assert_eq!(c.get("messages"), 6);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn set_overwrites() {
        let mut c = Counters::new();
        c.add("x", 10);
        c.set("x", 3);
        assert_eq!(c.get("x"), 3);
    }

    #[test]
    fn max_keeps_largest() {
        let mut c = Counters::new();
        c.max("peak", 5);
        c.max("peak", 3);
        c.max("peak", 9);
        assert_eq!(c.get("peak"), 9);
    }

    #[test]
    fn merge_sums() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        a.add("items", 10);
        a.add("msgs", 2);
        b.add("items", 5);
        b.add("bytes", 100);
        a.merge(&b);
        assert_eq!(a.get("items"), 15);
        assert_eq!(a.get("msgs"), 2);
        assert_eq!(a.get("bytes"), 100);
    }

    #[test]
    fn merge_takes_max_for_max_recorded_keys() {
        // Two PEs record a peak of 7 and 9; the merged registry must report 9
        // (what a shared registry would hold), not 16.
        let mut a = Counters::new();
        let mut b = Counters::new();
        a.max("peak", 7);
        a.add("items", 3);
        b.max("peak", 9);
        b.add("items", 4);
        a.merge(&b);
        assert_eq!(a.get("peak"), 9);
        assert_eq!(a.get("items"), 7);
        assert!(a.is_max_key("peak"));
        assert!(!a.is_max_key("items"));

        // Merging into a registry that never saw the key still max-combines.
        let mut fresh = Counters::new();
        fresh.merge(&a);
        fresh.merge(&b);
        assert_eq!(fresh.get("peak"), 9);
    }

    #[test]
    fn display_is_sorted_and_complete() {
        let mut c = Counters::new();
        c.add("zeta", 1);
        c.add("alpha", 2);
        assert_eq!(c.to_string(), "alpha=2 zeta=1");
    }

    #[test]
    fn iter_in_order_regardless_of_access_pattern() {
        let mut c = Counters::new();
        c.add("b", 2);
        c.add("a", 1);
        // Hammer one counter so move-to-front reorders the internal scan.
        for _ in 0..10 {
            c.incr("b");
        }
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn equality_ignores_access_order() {
        let mut a = Counters::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Counters::new();
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a, b);
        b.incr("y");
        assert_ne!(a, b);
    }

    #[test]
    fn dynamic_names_fall_back_to_byte_comparison() {
        // The pointer fast path must not miss a name built at runtime
        // (different address, same bytes).
        let mut c = Counters::new();
        c.add("runtime_name", 2);
        let dynamic = String::from("runtime_name");
        assert_eq!(c.get(&dynamic), 2);
    }

    #[test]
    fn equal_bytes_at_distinct_addresses_share_one_entry() {
        // Two `&'static str` with the same bytes at different addresses miss
        // the pointer pass and must still meet in the byte pass.
        let a: &'static str = Box::leak(String::from("twin").into_boxed_str());
        let b: &'static str = Box::leak(String::from("twin").into_boxed_str());
        assert!(!std::ptr::eq(a, b));
        let mut c = Counters::new();
        c.add("other", 1);
        c.add(a, 2);
        c.add(b, 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(a), 5);
        assert_eq!(c.get(b), 5);
    }

    #[test]
    fn hits_move_one_slot_towards_the_front() {
        let mut c = Counters::new();
        c.add("a", 1);
        c.add("b", 1);
        c.add("c", 1);
        c.incr("c");
        let order: Vec<_> = c.entries.iter().map(|(n, _)| *n).collect();
        assert_eq!(order, ["a", "c", "b"]);
        c.incr("c");
        c.incr("c");
        assert_eq!(c.entries[0], ("c", 4));
    }
}
