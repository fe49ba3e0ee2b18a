//! Property-based tests for the TramLib aggregation core.
//!
//! The central invariant of any aggregation library is *exactly-once delivery*:
//! every item the application inserts must come out exactly once, addressed to
//! its original destination worker, regardless of scheme, buffer size, flush
//! pattern or topology.  The second family of properties checks the §III-C
//! analytical bounds against measured message counts.

use net_model::{ProcId, Topology, WorkerId};
use proptest::prelude::*;
use tramlib::group::{group_in_place, scan_runs, GroupScratch};
use tramlib::{analysis, Aggregator, Item, MessageDest, Owner, PooledReceiver, Scheme, TramConfig};

/// A compact description of a randomly generated scenario.
#[derive(Debug, Clone)]
struct Scenario {
    nodes: u32,
    procs_per_node: u32,
    workers_per_proc: u32,
    buffer_items: usize,
    scheme_idx: usize,
    local_bypass: bool,
    /// (source worker selector, destination worker selector, payload)
    sends: Vec<(u32, u32, u32)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        1u32..3,
        1u32..4,
        1u32..5,
        1usize..16,
        0usize..Scheme::ALL.len(),
        any::<bool>(),
        prop::collection::vec((0u32..1000, 0u32..1000, any::<u32>()), 1..300),
    )
        .prop_map(
            |(
                nodes,
                procs_per_node,
                workers_per_proc,
                buffer_items,
                scheme_idx,
                local_bypass,
                sends,
            )| {
                Scenario {
                    nodes,
                    procs_per_node,
                    workers_per_proc,
                    buffer_items,
                    scheme_idx,
                    local_bypass,
                    sends,
                }
            },
        )
}

/// Run a scenario through per-owner aggregators and return
/// `(delivered (dest, payload) pairs, total messages, per-owner sent item counts)`.
fn run_scenario(s: &Scenario) -> (Vec<(u32, u32)>, u64, Vec<u64>) {
    let topo = Topology::smp(s.nodes, s.procs_per_node, s.workers_per_proc);
    let scheme = Scheme::ALL[s.scheme_idx];
    let config = TramConfig::new(scheme, topo)
        .with_buffer_items(s.buffer_items)
        .with_local_bypass(s.local_bypass);
    let mut receiver = PooledReceiver::new(config);

    // One aggregator per worker, or per process for PP.
    let mut worker_aggs: Vec<Aggregator<u32>> = if scheme == Scheme::PP {
        Vec::new()
    } else {
        topo.all_workers()
            .map(|w| Aggregator::new(config, Owner::Worker(w)))
            .collect()
    };
    let mut proc_aggs: Vec<Aggregator<u32>> = if scheme == Scheme::PP {
        topo.all_procs()
            .map(|p| Aggregator::new(config, Owner::Process(p)))
            .collect()
    } else {
        Vec::new()
    };

    let mut delivered: Vec<(u32, u32)> = Vec::new();
    let mut messages = 0u64;

    fn handle_outcome(
        receiver: &mut PooledReceiver<u32>,
        outcome: tramlib::InsertOutcome<u32>,
        delivered: &mut Vec<(u32, u32)>,
        messages: &mut u64,
    ) {
        if let Some(item) = outcome.local_delivery {
            delivered.push((item.dest.0, item.data));
        }
        if let Some(msg) = outcome.message {
            *messages += 1;
            let plan = receiver.process_owned(msg);
            for (w, items) in plan.per_worker {
                for item in items {
                    assert_eq!(item.dest, w, "delivery plan must respect item destinations");
                    delivered.push((w.0, item.data));
                }
            }
        }
    }

    for &(src_sel, dst_sel, payload) in &s.sends {
        let src = WorkerId(src_sel % topo.total_workers());
        let dst = WorkerId(dst_sel % topo.total_workers());
        let item = Item::new(dst, payload, 0);
        let outcome = if scheme == Scheme::PP {
            let p = topo.proc_of_worker(src);
            proc_aggs[p.idx()].insert(item)
        } else {
            worker_aggs[src.idx()].insert(item)
        };
        handle_outcome(&mut receiver, outcome, &mut delivered, &mut messages);
    }

    // Final flush, as the benchmarks do at the end of their update loops.
    let mut sent_per_owner = Vec::new();
    let all_aggs: Vec<&mut Aggregator<u32>> = if scheme == Scheme::PP {
        proc_aggs.iter_mut().collect()
    } else {
        worker_aggs.iter_mut().collect()
    };
    for agg in all_aggs {
        for msg in agg.flush() {
            messages += 1;
            let plan = receiver.process_owned(msg);
            for (w, items) in plan.per_worker {
                for item in items {
                    delivered.push((w.0, item.data));
                }
            }
        }
        assert_eq!(agg.buffered_items(), 0, "flush must drain every buffer");
        sent_per_owner.push(agg.stats().messages_sent());
    }

    (delivered, messages, sent_per_owner)
}

/// A grouping input: `len` items for the workers of process `proc` (each
/// `wpp` wide), random (`shape` 0), already grouped (1) or all for one
/// worker (2); each item's payload is its input position.
fn grouping_input(len: usize, wpp: usize, proc: usize, shape: u32, seed: u64) -> Vec<Item<u32>> {
    let mut rng = seed | 1;
    let mut rank = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize % wpp
    };
    let mut ranks: Vec<usize> = match shape {
        0 | 1 => (0..len).map(|_| rank()).collect(),
        _ => vec![rank(); len],
    };
    if shape == 1 {
        ranks.sort_unstable();
    }
    ranks
        .into_iter()
        .enumerate()
        .map(|(i, r)| Item::new(WorkerId((proc * wpp + r) as u32), i as u32, i as u64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The grouping kernel is the stable bucket distribution, its ranges are
    /// the grouped output's runs, and a grouped input does not move.
    #[test]
    fn grouping_kernel_is_stable_bucketing(
        len in 0usize..1025,
        wpp in 1usize..65,
        proc in 0usize..4,
        shape in 0u32..3,
        seed in any::<u64>(),
    ) {
        let input = grouping_input(len, wpp, proc, shape, seed);
        let mut buckets: Vec<Vec<Item<u32>>> = vec![Vec::new(); wpp];
        for item in &input {
            buckets[item.dest.idx() - proc * wpp].push(*item);
        }
        let reference: Vec<Item<u32>> = buckets.into_iter().flatten().collect();

        let mut items = input.clone();
        let mut scratch = GroupScratch::default();
        let ranges = group_in_place(&mut items, wpp, &mut scratch).to_vec();
        prop_assert_eq!(&items, &reference);
        let mut runs = Vec::new();
        scan_runs(&items, &mut runs);
        prop_assert_eq!(&ranges, &runs);
        prop_assert_eq!(ranges.iter().map(|&(_, _, n)| n as usize).sum::<usize>(), len);
        if shape != 0 {
            prop_assert_eq!(&items, &input, "a grouped input must not move");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every inserted item is delivered exactly once to its destination worker,
    /// for every scheme and any interleaving of destinations.
    #[test]
    fn exactly_once_delivery(s in scenario_strategy()) {
        let topo = Topology::smp(s.nodes, s.procs_per_node, s.workers_per_proc);
        let (delivered, _, _) = run_scenario(&s);

        // Build the multiset of expected (dest, payload) pairs.
        let mut expected: Vec<(u32, u32)> = s
            .sends
            .iter()
            .map(|&(_, dst_sel, payload)| (dst_sel % topo.total_workers(), payload))
            .collect();
        let mut got = delivered;
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expected, got);
    }

    /// The measured number of messages per source owner never exceeds the
    /// §III-C upper bound for the number of items that owner actually sent
    /// remotely, and never goes below the lower bound.
    #[test]
    fn message_count_within_analytical_bounds(s in scenario_strategy()) {
        let topo = Topology::smp(s.nodes, s.procs_per_node, s.workers_per_proc);
        let scheme = Scheme::ALL[s.scheme_idx];
        let config = TramConfig::new(scheme, topo)
            .with_buffer_items(s.buffer_items)
            .with_local_bypass(s.local_bypass);

        // Re-run, tracking per-owner inserted (non-bypassed) item counts.
        let mut receiver = PooledReceiver::new(config);
        let owners: Vec<Owner> = if scheme == Scheme::PP {
            topo.all_procs().map(Owner::Process).collect()
        } else {
            topo.all_workers().map(Owner::Worker).collect()
        };
        let mut aggs: Vec<Aggregator<u32>> = owners
            .iter()
            .map(|&o| Aggregator::new(config, o))
            .collect();

        for &(src_sel, dst_sel, payload) in &s.sends {
            let src = WorkerId(src_sel % topo.total_workers());
            let dst = WorkerId(dst_sel % topo.total_workers());
            let idx = if scheme == Scheme::PP {
                topo.proc_of_worker(src).idx()
            } else {
                src.idx()
            };
            let out = aggs[idx].insert(Item::new(dst, payload, 0));
            if let Some(msg) = out.message {
                let _ = receiver.process_owned(msg);
            }
        }
        for agg in aggs.iter_mut() {
            let _ = agg.flush();
        }

        for agg in &aggs {
            let z = agg.stats().items_inserted();
            let measured = agg.stats().messages_sent();
            let bounds = analysis::message_count_bounds(
                scheme,
                z,
                s.buffer_items as u64,
                topo.total_procs() as u64,
                topo.workers_per_proc() as u64,
            );
            prop_assert!(measured >= bounds.lower,
                "scheme {scheme}: measured {measured} < lower bound {}", bounds.lower);
            prop_assert!(measured <= bounds.upper,
                "scheme {scheme}: measured {measured} > upper bound {}", bounds.upper);
        }
    }

    /// Process-addressed messages only ever carry items for workers of that
    /// process, and worker-addressed messages only items for that worker.
    #[test]
    fn messages_respect_destination_scope(s in scenario_strategy()) {
        let topo = Topology::smp(s.nodes, s.procs_per_node, s.workers_per_proc);
        let scheme = Scheme::ALL[s.scheme_idx];
        let config = TramConfig::new(scheme, topo)
            .with_buffer_items(s.buffer_items)
            .with_local_bypass(s.local_bypass);

        let mut aggs: Vec<Aggregator<u32>> = if scheme == Scheme::PP {
            topo.all_procs().map(|p| Aggregator::new(config, Owner::Process(p))).collect()
        } else {
            topo.all_workers().map(|w| Aggregator::new(config, Owner::Worker(w))).collect()
        };

        let check = |msg: &tramlib::OutboundMessage<u32>| {
            match msg.dest {
                MessageDest::Worker(w) => {
                    prop_assert!(msg.items.iter().all(|i| i.dest == w));
                    Ok(())
                }
                MessageDest::Process(p) => {
                    prop_assert!(msg.items.iter().all(|i| topo.proc_of_worker(i.dest) == p));
                    Ok(())
                }
            }
        };

        for &(src_sel, dst_sel, payload) in &s.sends {
            let src = WorkerId(src_sel % topo.total_workers());
            let dst = WorkerId(dst_sel % topo.total_workers());
            let idx = if scheme == Scheme::PP {
                topo.proc_of_worker(src).idx()
            } else {
                src.idx()
            };
            let out = aggs[idx].insert(Item::new(dst, payload, 0));
            if let Some(msg) = &out.message {
                check(msg)?;
            }
        }
        for agg in aggs.iter_mut() {
            for msg in agg.flush() {
                check(&msg)?;
            }
        }
    }

    /// Memory-overhead formula ordering: WW >= WPs = WsP >= PP per process, for
    /// any topology and buffer size.
    #[test]
    fn memory_overhead_ordering(g in 1u64..8192, m in 1u64..64, n in 1u64..256, t in 1u64..64) {
        let ww = analysis::memory_overhead(Scheme::WW, g, m, n, t);
        let wps = analysis::memory_overhead(Scheme::WPs, g, m, n, t);
        let wsp = analysis::memory_overhead(Scheme::WsP, g, m, n, t);
        let pp = analysis::memory_overhead(Scheme::PP, g, m, n, t);
        prop_assert!(ww.per_process >= wps.per_process);
        prop_assert_eq!(wps.per_process, wsp.per_process);
        prop_assert!(wps.per_process >= pp.per_process);
        prop_assert_eq!(ww.per_worker, wps.per_worker * t);
    }

    /// Aggregated send cost is never worse than unaggregated for g >= 1, and
    /// strictly better once g > 1 and alpha > 0.
    #[test]
    fn aggregation_never_hurts_send_cost(z in 1u64..1_000_000, b in 1u64..64, g in 2u64..8192) {
        let link = net_model::AlphaBeta::new(2_000.0, 0.1);
        let c = analysis::send_cost(&link, z, b, g);
        prop_assert!(c.aggregated_ns <= c.unaggregated_ns + 1e-6);
    }
}

/// Deterministic regression: a PP aggregator shared by a whole process still
/// respects exactly-once delivery when every worker of the process interleaves
/// insertions (this is the single-threaded model of what the atomics do).
#[test]
fn pp_interleaved_workers_exactly_once() {
    let topo = Topology::smp(2, 2, 4);
    let config = TramConfig::new(Scheme::PP, topo).with_buffer_items(7);
    let mut receiver = PooledReceiver::new(config);
    let mut agg = Aggregator::new(config, Owner::Process(ProcId(0)));

    let mut delivered = 0usize;
    let mut local = 0usize;
    let total = 10_000u32;
    for i in 0..total {
        // Round-robin "source worker" (only affects interleaving, not addressing).
        let dest = WorkerId(i % topo.total_workers());
        let out = agg.insert(Item::new(dest, i, 0));
        if out.local_delivery.is_some() {
            local += 1;
        }
        if let Some(msg) = out.message {
            delivered += receiver.process_owned(msg).item_count;
        }
    }
    for msg in agg.flush() {
        delivered += receiver.process_owned(msg).item_count;
    }
    assert_eq!(delivered + local, total as usize);
}
