//! Destination-side processing of aggregated messages.
//!
//! When a process-addressed message (WPs, WsP, PP) arrives, the receiving side
//! must distribute its items to the destination workers of that process.  For
//! WPs and PP the items arrive unsorted, so the receiver performs the grouping
//! pass whose `O(g + t)` cost §III-C analyses; for WsP the source already
//! grouped them, and the same pass finds them grouped and moves nothing.
//!
//! All destination processing goes through the [`PooledReceiver`] and its one
//! stable grouping kernel ([`crate::group::group_in_place`]): no item is moved
//! when the payload is already grouped, otherwise every item takes two
//! sequential copies through the receiver's scratch:
//!
//! * [`PooledReceiver::group_ranges`] is the zero-copy endpoint: it groups a
//!   borrowed slab slice **in place** and reports per-worker *index ranges*,
//!   so not a single item leaves the slab — consumers borrow `&[Item]`
//!   sub-slices straight from the owner's arena;
//! * [`PooledReceiver::drain_grouped`] groups a borrowed vector the same way
//!   and splits its ranges into pooled batches handed to a sink, leaving the
//!   capacity with the caller;
//! * [`PooledReceiver::process_owned`] does the same for an owned message and
//!   returns the batches as a [`DeliveryPlan`].
//!
//! Every spent vector — the incoming message's and the delivered per-worker
//! batches the substrate hands back — recycles through a [`VecPool`], so the
//! steady-state grouping pass allocates nothing on any of the three paths.

use crate::config::TramConfig;
use crate::group::{group_in_place, GroupScratch};
use crate::item::Item;
use crate::message::{MessageDest, OutboundMessage};
use crate::pool::{PoolStats, VecPool};
use net_model::WorkerId;

/// What the destination must do with one incoming message.
#[derive(Debug, Clone)]
pub struct DeliveryPlan<T> {
    /// Items grouped per destination worker, in worker order.
    pub per_worker: Vec<(WorkerId, Vec<Item<T>>)>,
    /// Whether a grouping pass was required at the destination (WPs/PP process
    /// messages that were not grouped at the source).
    pub grouping_performed: bool,
    /// Number of items in the message (the `g` of the `O(g + t)` grouping
    /// cost).
    pub item_count: usize,
    /// Number of distinct destination workers touched (the `t` of `O(g + t)`),
    /// equal to `per_worker.len()`.
    pub worker_count: usize,
    /// Number of local (within destination process) deliveries required.  For a
    /// worker-addressed message this is zero: the message already arrived at
    /// its final worker.
    pub local_deliveries: usize,
}

/// Cost summary of one grouping pass: the [`DeliveryPlan`] accounting fields
/// without the per-worker storage (that went to the sink, or stayed in the
/// slab).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupingOutcome {
    /// Whether a grouping pass was required (the payload was not grouped at
    /// the source).
    pub grouping_performed: bool,
    /// Number of items drained (the `g` of the `O(g + t)` grouping cost).
    pub item_count: usize,
    /// Number of distinct destination workers touched (the `t`).
    pub worker_count: usize,
}

/// A destination-side processor that owns (or borrows) the payloads it
/// processes and recycles every vector through an internal free list.
#[derive(Debug, Clone)]
pub struct PooledReceiver<T> {
    config: TramConfig,
    pool: VecPool<Item<T>>,
    /// The grouping kernel's scratch, holding the `(worker, start, len)`
    /// ranges of the last grouped payload.
    group_scratch: GroupScratch<T>,
}

impl<T: Clone> PooledReceiver<T> {
    /// Create a pooled receiver for the given configuration.
    pub fn new(config: TramConfig) -> Self {
        Self {
            config,
            pool: VecPool::default(),
            group_scratch: GroupScratch::default(),
        }
    }

    /// The configuration this receiver uses.
    pub fn config(&self) -> &TramConfig {
        &self.config
    }

    /// Return a spent per-worker batch so a future grouping pass can reuse
    /// its capacity.
    pub fn recycle(&mut self, items: Vec<Item<T>>) {
        self.pool.put(items);
    }

    /// Reuse statistics of the internal vector pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The zero-copy grouping endpoint: group a borrowed slab slice by
    /// destination worker **in place** and record the per-worker index
    /// ranges, retrievable with [`PooledReceiver::take_ranges`].
    ///
    /// Not a single item leaves the slice: an ungrouped payload (WPs/PP) is
    /// stably reordered within the slab it already lives in (the `O(g + t)`
    /// grouping cost — a counting pass, then a scatter through the scratch
    /// and a copy back), and a grouped one (WsP) is only counted.  Consumers
    /// then borrow `&items[start..start + len]` sub-slices directly.
    ///
    /// `grouped_at_source` is the payload's flag; it only sets the reported
    /// [`GroupingOutcome::grouping_performed`].
    ///
    /// The caller must hold exclusive access to the slice (for slabs: be the
    /// sole consumer, *before* forwarding any range).
    pub fn group_ranges(
        &mut self,
        items: &mut [Item<T>],
        grouped_at_source: bool,
    ) -> GroupingOutcome {
        let wpp = self.config.topology.workers_per_proc() as usize;
        let worker_count = group_in_place(items, wpp, &mut self.group_scratch).len();
        GroupingOutcome {
            grouping_performed: !grouped_at_source,
            item_count: items.len(),
            worker_count,
        }
    }

    /// Move the range table of the last [`PooledReceiver::group_ranges`] call
    /// out (so the caller can iterate it while using the receiver's pool);
    /// hand it back with [`PooledReceiver::put_ranges`] to keep the capacity.
    pub fn take_ranges(&mut self) -> Vec<(WorkerId, u32, u32)> {
        std::mem::take(&mut self.group_scratch.ranges)
    }

    /// Return a range table taken with [`PooledReceiver::take_ranges`].
    pub fn put_ranges(&mut self, ranges: Vec<(WorkerId, u32, u32)>) {
        self.group_scratch.ranges = ranges;
    }

    /// Drain a **borrowed** process-addressed payload, grouping its items by
    /// destination worker and handing each per-worker batch to `sink` in
    /// worker-id order (same grouping, same ordering as
    /// [`PooledReceiver::group_ranges`]).
    ///
    /// `items` is left empty but keeps its capacity: the caller still owns
    /// the vector and can send it back to the worker that filled it (the
    /// native mesh's per-pair batch-return rings), so *both* sides of a
    /// delivery stay allocation-free.  The sink may return a spent vector —
    /// typically the batch it just delivered locally — to feed this
    /// receiver's pool for the next grouping pass.
    ///
    /// `grouped_at_source` is the payload's [`OutboundMessage`] flag; it only
    /// affects the reported [`GroupingOutcome::grouping_performed`] (WsP runs
    /// are split, not re-grouped, and must not be charged a grouping pass).
    pub fn drain_grouped(
        &mut self,
        items: &mut Vec<Item<T>>,
        grouped_at_source: bool,
        mut sink: impl FnMut(WorkerId, Vec<Item<T>>) -> Option<Vec<Item<T>>>,
    ) -> GroupingOutcome {
        let outcome = self.group_ranges(items, grouped_at_source);
        for &(dest, start, len) in &self.group_scratch.ranges {
            let mut bucket = self.pool.take();
            bucket.extend_from_slice(&items[start as usize..(start + len) as usize]);
            if let Some(spent) = sink(dest, bucket) {
                self.pool.put(spent);
            }
        }
        items.clear();
        outcome
    }

    /// Turn an incoming message into a delivery plan, consuming the message:
    /// a worker-addressed message is handed over as is, a process-addressed
    /// one is split into pooled per-worker batches by
    /// [`PooledReceiver::drain_grouped`].
    ///
    /// # Panics
    /// Panics (in debug builds) if a process-addressed message contains an
    /// item whose destination worker does not belong to that process.
    pub fn process_owned(&mut self, message: OutboundMessage<T>) -> DeliveryPlan<T> {
        let item_count = message.items.len();
        match message.dest {
            MessageDest::Worker(w) => {
                // WW / NoAgg: the message already arrived at its worker; hand
                // its vector over untouched.
                debug_assert!(message.items.iter().all(|i| i.dest == w));
                DeliveryPlan {
                    per_worker: vec![(w, message.items)],
                    grouping_performed: false,
                    item_count,
                    worker_count: 1,
                    local_deliveries: 0,
                }
            }
            MessageDest::Process(p) => {
                debug_assert!(
                    message
                        .items
                        .iter()
                        .all(|i| self.config.topology.proc_of_worker(i.dest) == p),
                    "process-addressed message contains foreign items"
                );
                let mut items = message.items;
                let mut per_worker = Vec::new();
                let outcome = self.drain_grouped(&mut items, message.grouped_at_source, |w, b| {
                    per_worker.push((w, b));
                    None
                });
                self.pool.put(items);
                DeliveryPlan {
                    per_worker,
                    grouping_performed: outcome.grouping_performed,
                    item_count,
                    worker_count: outcome.worker_count,
                    local_deliveries: outcome.worker_count,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{Aggregator, Owner};
    use crate::scheme::Scheme;
    use net_model::{ProcId, Topology};

    fn topo() -> Topology {
        Topology::smp(2, 2, 2)
    }

    fn config(scheme: Scheme) -> TramConfig {
        TramConfig::new(scheme, topo()).with_buffer_items(4)
    }

    #[test]
    fn worker_addressed_message_needs_no_grouping() {
        let cfg = config(Scheme::WW);
        let mut agg = Aggregator::new(cfg, Owner::Worker(net_model::WorkerId(0)));
        for i in 0..4u32 {
            agg.insert(Item::new(WorkerId(6), i, 0));
        }
        let msgs = agg.flush();
        // Buffer filled exactly at 4 items, so insert returned it; flush is empty.
        assert!(msgs.is_empty());
        let mut agg = Aggregator::new(cfg, Owner::Worker(net_model::WorkerId(0)));
        for i in 0..3u32 {
            agg.insert(Item::new(WorkerId(6), i, 0));
        }
        let msg = agg.flush().remove(0);
        let plan = PooledReceiver::new(cfg).process_owned(msg);
        assert!(!plan.grouping_performed);
        assert_eq!(plan.worker_count, 1);
        assert_eq!(plan.local_deliveries, 0);
        assert_eq!(plan.item_count, 3);
        assert_eq!(plan.per_worker[0].0, WorkerId(6));
    }

    #[test]
    fn wps_message_grouped_at_destination() {
        let cfg = config(Scheme::WPs);
        let mut agg = Aggregator::new(cfg, Owner::Worker(net_model::WorkerId(0)));
        // Workers 4 and 5 belong to process 2.
        agg.insert(Item::new(WorkerId(5), 1u32, 0));
        agg.insert(Item::new(WorkerId(4), 2, 0));
        agg.insert(Item::new(WorkerId(5), 3, 0));
        let msg = agg.flush().remove(0);
        assert_eq!(msg.dest, MessageDest::Process(ProcId(2)));
        let plan = PooledReceiver::new(cfg).process_owned(msg);
        assert!(plan.grouping_performed, "WPs groups at the destination");
        assert_eq!(plan.worker_count, 2);
        assert_eq!(plan.local_deliveries, 2);
        // Items for worker 5 preserved in insertion order.
        let w5 = plan
            .per_worker
            .iter()
            .find(|(w, _)| *w == WorkerId(5))
            .unwrap();
        let values: Vec<u32> = w5.1.iter().map(|i| i.data).collect();
        assert_eq!(values, vec![1, 3]);
    }

    #[test]
    fn wsp_message_skips_destination_grouping() {
        let cfg = config(Scheme::WsP);
        let mut agg = Aggregator::new(cfg, Owner::Worker(net_model::WorkerId(0)));
        agg.insert(Item::new(WorkerId(5), 1u32, 0));
        agg.insert(Item::new(WorkerId(4), 2, 0));
        let msg = agg.flush().remove(0);
        assert!(msg.grouped_at_source);
        let plan = PooledReceiver::new(cfg).process_owned(msg);
        assert!(
            !plan.grouping_performed,
            "WsP already grouped at the source"
        );
        assert_eq!(plan.worker_count, 2);
        assert_eq!(plan.item_count, 2);
    }

    #[test]
    fn pp_message_grouped_at_destination() {
        let cfg = config(Scheme::PP);
        let mut agg = Aggregator::new(cfg, Owner::Process(ProcId(0)));
        agg.insert(Item::new(WorkerId(4), 1u32, 0));
        agg.insert(Item::new(WorkerId(5), 2, 0));
        let msg = agg.flush().remove(0);
        let plan = PooledReceiver::new(cfg).process_owned(msg);
        assert!(plan.grouping_performed);
        assert_eq!(plan.local_deliveries, 2);
    }

    #[test]
    fn pooled_receiver_reuses_vectors_across_messages() {
        let cfg = config(Scheme::WPs);
        let mut pooled: PooledReceiver<u32> = PooledReceiver::new(cfg);
        for round in 0..20u32 {
            let mut agg = Aggregator::new(cfg, Owner::Worker(net_model::WorkerId(0)));
            agg.insert(Item::new(WorkerId(4), round, 0));
            agg.insert(Item::new(WorkerId(5), round, 0));
            let msg = agg.flush().remove(0);
            let plan = pooled.process_owned(msg);
            // The substrate delivers the batches, then hands the vectors back.
            for (_, items) in plan.per_worker {
                pooled.recycle(items);
            }
        }
        let stats = pooled.pool_stats();
        assert!(
            stats.hit_rate() > 0.5,
            "warmed-up grouping must reuse vectors: {stats:?}"
        );
    }

    #[test]
    fn drain_grouped_matches_process_owned_and_keeps_the_borrowed_vec() {
        let cfg = config(Scheme::WPs);
        let make_msg = || {
            let mut agg = Aggregator::new(cfg, Owner::Worker(net_model::WorkerId(0)));
            agg.insert(Item::new(WorkerId(5), 1u32, 0));
            agg.insert(Item::new(WorkerId(4), 2, 0));
            agg.insert(Item::new(WorkerId(5), 3, 0));
            agg.flush().remove(0)
        };

        let reference = PooledReceiver::new(cfg).process_owned(make_msg());
        let mut pooled: PooledReceiver<u32> = PooledReceiver::new(cfg);
        let msg = make_msg();
        let mut items = msg.items;
        let capacity = items.capacity();
        let mut seen: Vec<(u32, Vec<u32>)> = Vec::new();
        let outcome = pooled.drain_grouped(&mut items, msg.grouped_at_source, |w, bucket| {
            seen.push((w.0, bucket.iter().map(|i| i.data).collect()));
            Some(bucket)
        });

        assert_eq!(outcome.grouping_performed, reference.grouping_performed);
        assert_eq!(outcome.item_count, reference.item_count);
        assert_eq!(outcome.worker_count, reference.worker_count);
        let flat: Vec<(u32, Vec<u32>)> = reference
            .per_worker
            .iter()
            .map(|(w, items)| (w.0, items.iter().map(|i| i.data).collect()))
            .collect();
        assert_eq!(seen, flat, "buckets must match the owned path, in order");
        assert!(items.is_empty(), "borrowed vector drained");
        assert_eq!(
            items.capacity(),
            capacity,
            "capacity stays with the caller for the return path"
        );
    }

    #[test]
    fn drain_grouped_reuses_sink_returned_vectors() {
        let cfg = config(Scheme::WPs);
        let mut pooled: PooledReceiver<u32> = PooledReceiver::new(cfg);
        let mut items = Vec::new();
        for round in 0..20u32 {
            items.push(Item::new(WorkerId(4), round, 0));
            items.push(Item::new(WorkerId(5), round, 0));
            pooled.drain_grouped(&mut items, false, |_, bucket| Some(bucket));
        }
        assert!(
            pooled.pool_stats().hit_rate() > 0.5,
            "warmed-up borrowed drain must reuse vectors: {:?}",
            pooled.pool_stats()
        );
    }

    #[test]
    fn drain_grouped_respects_grouped_at_source_flag() {
        let cfg = config(Scheme::WsP);
        let mut pooled: PooledReceiver<u32> = PooledReceiver::new(cfg);
        let mut items = vec![
            Item::new(WorkerId(4), 1u32, 0),
            Item::new(WorkerId(5), 2, 0),
        ];
        let outcome = pooled.drain_grouped(&mut items, true, |_, b| Some(b));
        assert!(!outcome.grouping_performed, "WsP splits, never re-groups");
        assert_eq!(outcome.worker_count, 2);
    }

    #[test]
    fn group_ranges_matches_drain_grouped_without_moving_items() {
        let cfg = config(Scheme::WPs);
        let mut pooled: PooledReceiver<u32> = PooledReceiver::new(cfg);
        let mut items = vec![
            Item::new(WorkerId(5), 1u32, 0),
            Item::new(WorkerId(4), 2, 0),
            Item::new(WorkerId(5), 3, 0),
            Item::new(WorkerId(4), 4, 0),
        ];
        let mut reference_items = items.clone();
        let mut reference: Vec<(u32, Vec<u32>)> = Vec::new();
        pooled.drain_grouped(&mut reference_items, false, |w, b| {
            reference.push((w.0, b.iter().map(|i| i.data).collect()));
            Some(b)
        });

        let outcome = pooled.group_ranges(&mut items, false);
        assert!(outcome.grouping_performed);
        assert_eq!(outcome.item_count, 4);
        assert_eq!(outcome.worker_count, 2);
        let ranges = pooled.take_ranges();
        let flat: Vec<(u32, Vec<u32>)> = ranges
            .iter()
            .map(|&(w, start, len)| {
                let slice = &items[start as usize..(start + len) as usize];
                (w.0, slice.iter().map(|i| i.data).collect())
            })
            .collect();
        assert_eq!(flat, reference, "in-place ranges must match the vec path");
        pooled.put_ranges(ranges);

        // Grouped-at-source payloads are only counted, never moved.
        let mut sorted = items.clone();
        let before = sorted.clone();
        let outcome = pooled.group_ranges(&mut sorted, true);
        assert!(!outcome.grouping_performed);
        assert_eq!(sorted, before, "WsP split must not reorder the slab");
        assert_eq!(pooled.take_ranges().len(), 2);
    }

    #[test]
    fn grouping_preserves_all_items() {
        let cfg = config(Scheme::WPs);
        let mut pooled: PooledReceiver<u32> = PooledReceiver::new(cfg);
        let mut items: Vec<Item<u32>> = (0..50)
            .map(|i| Item::new(WorkerId(4 + (i % 2)), i, 0))
            .collect();
        let mut total = 0usize;
        let mut workers: Vec<u32> = Vec::new();
        pooled.drain_grouped(&mut items, false, |w, b| {
            total += b.len();
            workers.push(w.0);
            Some(b)
        });
        assert_eq!(total, 50);
        assert_eq!(workers, vec![4, 5], "groups sorted by worker id");
    }
}
