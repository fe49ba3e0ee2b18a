//! Stable grouping of items by destination worker: the one `O(g + t)` pass
//! every process-level scheme pays per message — WsP at the source, WPs and
//! PP at the destination (§III-C).
//!
//! The zero-copy slab path cannot move items into per-worker heap buckets
//! (an item is written once, into its slab slot, and stays there), so the
//! pass reorders the slice it is given so that each destination worker owns
//! one contiguous index range, and reports those `(worker, start, len)`
//! ranges; only ranges, not items, are handed around afterwards.  The same
//! kernel serves the heap-vector paths, which then split the ranges into
//! pooled batches, and the simulator and both native engines, so all three
//! backends deliver one message's items in the same order.
//!
//! The kernel is a counting sort over the `t` worker ranks of the
//! destination process:
//!
//! 1. one counting pass over the `g` items, which also notices a slice that
//!    is already grouped (every WsP arrival, every one-destination echo
//!    slab) — such a slice is not moved at all;
//! 2. a prefix sum over the `t` counts, which yields the ranges;
//! 3. otherwise, one scatter into a reused scratch vector and one sequential
//!    copy back.
//!
//! Equal ranks keep their relative order, so per-destination insertion
//! order survives.  The scratch is reused across calls, so a warmed-up pass
//! allocates nothing.

use crate::item::Item;
use net_model::WorkerId;

/// Interleaved sub-counters per rank in the counting pass.
const LANES: usize = 4;

/// Reusable scratch storage for [`group_in_place`], and the range table of
/// the last slice it grouped.
#[derive(Debug, Clone)]
pub struct GroupScratch<T> {
    /// `LANES` rows of per-rank counts; the first row then holds the
    /// running scatter offsets.
    counts: Vec<u32>,
    /// Scatter target; only its first `len` slots of a pass are meaningful.
    items: Vec<Item<T>>,
    /// `(worker, start, len)` of every destination worker of the last
    /// grouped slice, in worker order.
    pub(crate) ranges: Vec<(WorkerId, u32, u32)>,
}

impl<T> Default for GroupScratch<T> {
    fn default() -> Self {
        Self {
            counts: Vec::new(),
            items: Vec::new(),
            ranges: Vec::new(),
        }
    }
}

/// Stably reorder `items` so they are grouped by destination worker, in
/// ascending worker order, preserving per-worker insertion order; returns the
/// per-worker `(worker, start, len)` ranges (also kept in `scratch`).
///
/// An already grouped slice is left untouched.  All destinations must lie in
/// one process's contiguous worker-id range of width `wpp` (the only shape
/// process-addressed messages can have); an item outside it panics.
pub fn group_in_place<'s, T: Clone>(
    items: &mut [Item<T>],
    wpp: usize,
    scratch: &'s mut GroupScratch<T>,
) -> &'s [(WorkerId, u32, u32)] {
    scratch.ranges.clear();
    let Some(first) = items.first() else {
        return &scratch.ranges;
    };
    let wpp = wpp.max(1);
    let base = first.dest.idx() / wpp * wpp;

    // Counting pass, noting whether the ranks already never decrease.  Item
    // `i` counts in lane `i % LANES`: a run of one rank (a grouped slice is
    // one long run) would otherwise serialise on a single counter.
    let counts = &mut scratch.counts;
    counts.clear();
    counts.resize(LANES * wpp, 0);
    let mut lanes = counts.chunks_exact_mut(wpp);
    let mut lanes: [&mut [u32]; LANES] =
        std::array::from_fn(|_| lanes.next().expect("LANES * wpp counters"));
    let mut grouped = true;
    let mut prev = 0;
    let mut chunks = items.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, item) in lanes.iter_mut().zip(chunk) {
            let rank = item.dest.idx().wrapping_sub(base);
            lane[rank] += 1;
            grouped &= rank >= prev;
            prev = rank;
        }
    }
    for item in chunks.remainder() {
        let rank = item.dest.idx().wrapping_sub(base);
        lanes[0][rank] += 1;
        grouped &= rank >= prev;
        prev = rank;
    }
    // Prefix sum: each non-empty rank's range, and counts[r] becomes rank
    // r's scatter offset.
    let mut start = 0u32;
    for rank in 0..wpp {
        let len = (0..LANES).map(|lane| counts[lane * wpp + rank]).sum();
        if len > 0 {
            scratch
                .ranges
                .push((WorkerId((base + rank) as u32), start, len));
        }
        counts[rank] = start;
        start += len;
    }
    if grouped {
        return &scratch.ranges;
    }
    // Scatter into the scratch, then copy back: two sequential passes, no
    // data-dependent branch.
    let n = items.len();
    let out = &mut scratch.items;
    if out.len() < n {
        out.resize(n, items[0].clone());
    }
    let offsets = &mut counts[..wpp];
    for item in items.iter() {
        let at = &mut offsets[item.dest.idx() - base];
        out[*at as usize] = item.clone();
        *at += 1;
    }
    items.clone_from_slice(&out[..n]);
    &scratch.ranges
}

/// Scan a grouped slice for its runs of one destination worker, appending
/// `(worker, start, len)` to `runs` — what [`group_in_place`] returns, found
/// by looking at the items instead of the counts.
pub fn scan_runs<T>(items: &[Item<T>], runs: &mut Vec<(WorkerId, u32, u32)>) {
    let mut start = 0usize;
    while start < items.len() {
        let dest = items[start].dest;
        let mut end = start + 1;
        while end < items.len() && items[end].dest == dest {
            end += 1;
        }
        runs.push((dest, start as u32, (end - start) as u32));
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_model::WorkerId;

    fn item(dest: u32, v: u32) -> Item<u32> {
        Item::new(WorkerId(dest), v, 0)
    }

    /// Reference implementation: stable bucket grouping via allocation.
    fn reference(items: &[Item<u32>], wpp: usize) -> Vec<Item<u32>> {
        let base = (items[0].dest.idx() / wpp) * wpp;
        let mut buckets: Vec<Vec<Item<u32>>> = (0..wpp).map(|_| Vec::new()).collect();
        for item in items {
            buckets[item.dest.idx() - base].push(*item);
        }
        buckets.into_iter().flatten().collect()
    }

    #[test]
    fn matches_stable_bucket_reference() {
        let mut rng = 0x1234_5678_u64;
        for len in [0usize, 1, 2, 3, 7, 64, 257] {
            for wpp in [1usize, 2, 4, 8] {
                let mut items: Vec<Item<u32>> = (0..len)
                    .map(|i| {
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        item(8 + (rng >> 33) as u32 % wpp as u32, i as u32)
                    })
                    .collect();
                let expect = if items.is_empty() {
                    Vec::new()
                } else {
                    reference(&items, wpp)
                };
                let mut scratch = GroupScratch::default();
                group_in_place(&mut items, wpp, &mut scratch);
                assert_eq!(items, expect, "len={len} wpp={wpp}");
            }
        }
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        let mut scratch = GroupScratch::default();
        let mut a = vec![item(9, 1), item(8, 2), item(9, 3)];
        group_in_place(&mut a, 2, &mut scratch);
        let dests: Vec<u32> = a.iter().map(|i| i.dest.0).collect();
        assert_eq!(dests, vec![8, 9, 9]);
        let values: Vec<u32> = a.iter().map(|i| i.data).collect();
        assert_eq!(values, vec![2, 1, 3], "per-worker insertion order kept");

        // Second call with different width reuses the same scratch.
        let mut b = vec![item(7, 1), item(4, 2), item(5, 3), item(4, 4)];
        group_in_place(&mut b, 4, &mut scratch);
        let dests: Vec<u32> = b.iter().map(|i| i.dest.0).collect();
        assert_eq!(dests, vec![4, 4, 5, 7]);
    }

    #[test]
    fn run_scan_finds_boundaries() {
        let items = vec![item(4, 1), item(4, 2), item(5, 3), item(7, 4)];
        let mut runs = Vec::new();
        scan_runs(&items, &mut runs);
        assert_eq!(
            runs,
            vec![
                (WorkerId(4), 0, 2),
                (WorkerId(5), 2, 1),
                (WorkerId(7), 3, 1)
            ]
        );
        runs.clear();
        scan_runs::<u32>(&[], &mut runs);
        assert!(runs.is_empty());
    }
}
