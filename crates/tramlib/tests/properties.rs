//! Property-based tests for the TramLib aggregation core.
//!
//! The central invariant of any aggregation library is *exactly-once delivery*:
//! every item the application inserts must come out exactly once, addressed to
//! its original destination worker, regardless of scheme, buffer size, flush
//! pattern or topology.  The second family of properties checks the §III-C
//! analytical bounds against measured message counts.  The third pins the
//! emission sequence itself — every message's destination, items, reason and
//! size, in order — against a naive reference model: the simulator's
//! bit-identity rests on that sequence.

use net_model::{ProcId, Topology, WorkerId};
use proptest::prelude::*;
use tramlib::group::{group_in_place, scan_runs, GroupScratch};
use tramlib::{
    analysis, Aggregator, EmitReason, FlushPolicy, Item, MessageDest, OutboundMessage, Owner,
    PooledReceiver, Scheme, TramConfig,
};

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

/// Whether an item from `src` to `dst` takes the same-process bypass: the
/// engines decide this before the aggregator, and so does every test here.
fn bypasses(s: &Scenario, topo: &Topology, src: WorkerId, dst: WorkerId) -> bool {
    s.local_bypass && topo.proc_of_worker(src) == topo.proc_of_worker(dst)
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
        if bypasses(s, &topo, src, dst) {
            delivered.push((dst.0, payload));
            continue;
        }
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
            if bypasses(&s, &topo, src, dst) {
                continue;
            }
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
            if bypasses(&s, &topo, src, dst) {
                continue;
            }
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
    let total = 10_000u32;
    for i in 0..total {
        // Round-robin "source worker" (only affects interleaving, not addressing).
        let dest = WorkerId(i % topo.total_workers());
        let out = agg.insert(Item::new(dest, i, 0));
        if let Some(msg) = out.message {
            delivered += receiver.process_owned(msg).item_count;
        }
    }
    for msg in agg.flush() {
        delivered += receiver.process_owned(msg).item_count;
    }
    assert_eq!(delivered, total as usize);
}

/// One step of an aggregator's life, applied at a clock that only moves
/// forward.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `insert_at` an item for worker selector `dest`, `dt` after the
    /// previous step.
    Insert { dest: u32, payload: u32, dt: u64 },
    /// `flush_each`.
    Flush,
    /// `flush_on_idle_where`, releasing destination slot `i` iff bit
    /// `i % 32` of `gate` is set.
    Idle { gate: u32 },
    /// `poll_timeout_each`, `dt` after the previous step.
    Poll { dt: u64 },
    /// `abandon`.
    Abandon,
}

/// Mostly inserts, with every other operation mixed in.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..16, any::<u32>(), any::<u32>(), 0u64..40).prop_map(|(kind, a, b, dt)| match kind {
        0..=9 => Op::Insert {
            dest: a,
            payload: b,
            dt,
        },
        10 => Op::Flush,
        11 | 12 => Op::Idle { gate: a },
        13 | 14 => Op::Poll { dt: dt * 4 },
        _ => Op::Abandon,
    })
}

/// What the model emits: `OutboundMessage` without the pooled vector.
#[derive(Debug, Clone, PartialEq)]
struct Emitted {
    dest: MessageDest,
    items: Vec<Item<u32>>,
    reason: EmitReason,
    bytes: u64,
    grouped_at_source: bool,
}

impl Emitted {
    fn of(message: &OutboundMessage<u32>) -> Self {
        Emitted {
            dest: message.dest,
            items: message.items.clone(),
            reason: message.reason,
            bytes: message.bytes,
            grouped_at_source: message.grouped_at_source,
        }
    }
}

/// The aggregator's tallies as one comparable value: inserts, messages,
/// items and bytes sent, messages per reason (full, explicit, idle,
/// timeout, unaggregated), flush calls.
type Tallies = [u64; 10];

fn tallies(agg: &Aggregator<u32>) -> Tallies {
    let stats = agg.stats();
    let named = stats.counters();
    [
        stats.items_inserted(),
        stats.messages_sent(),
        stats.items_sent(),
        stats.bytes_sent(),
        stats.messages_full(),
        named.get("messages_explicit_flush"),
        named.get("messages_idle_flush"),
        named.get("messages_timeout_flush"),
        named.get("messages_unaggregated"),
        stats.flush_calls(),
    ]
}

/// The naive aggregator: one `Vec` and one oldest-insert stamp per
/// destination slot, scanned in slot order by every flush.
struct Model {
    config: TramConfig,
    slots: Vec<(Vec<Item<u32>>, u64)>,
    tallies: Tallies,
}

impl Model {
    fn new(config: TramConfig) -> Self {
        let topo = config.topology;
        let slots = match config.scheme {
            Scheme::NoAgg => 0,
            Scheme::WW => topo.total_workers(),
            _ => topo.total_procs(),
        };
        Model {
            config,
            slots: vec![(Vec::new(), 0); slots as usize],
            tallies: [0; 10],
        }
    }

    fn dest_of(&self, slot: usize) -> MessageDest {
        match self.config.scheme {
            Scheme::WW => MessageDest::Worker(WorkerId(slot as u32)),
            _ => MessageDest::Process(ProcId(slot as u32)),
        }
    }

    /// Build (and tally) one message; WsP sorts by destination worker,
    /// stably, at the source.
    fn message(
        &mut self,
        dest: MessageDest,
        mut items: Vec<Item<u32>>,
        reason: EmitReason,
    ) -> Emitted {
        let grouped_at_source = self.config.scheme == Scheme::WsP;
        if grouped_at_source {
            items.sort_by_key(|item| item.dest);
        }
        let bytes = self.config.message_bytes(items.len());
        let by_reason = match reason {
            EmitReason::BufferFull => 4,
            EmitReason::ExplicitFlush => 5,
            EmitReason::IdleFlush => 6,
            EmitReason::TimeoutFlush => 7,
            EmitReason::Unaggregated => 8,
        };
        self.tallies[1] += 1;
        self.tallies[2] += items.len() as u64;
        self.tallies[3] += bytes;
        self.tallies[by_reason] += 1;
        Emitted {
            dest,
            items,
            reason,
            bytes,
            grouped_at_source,
        }
    }

    fn insert(&mut self, item: Item<u32>, now: u64) -> Option<Emitted> {
        self.tallies[0] += 1;
        let topo = self.config.topology;
        let slot = match self.config.scheme {
            Scheme::NoAgg => {
                return Some(self.message(
                    MessageDest::Worker(item.dest),
                    vec![item],
                    EmitReason::Unaggregated,
                ))
            }
            Scheme::WW => item.dest.idx(),
            _ => topo.proc_of_worker(item.dest).idx(),
        };
        let (items, oldest) = &mut self.slots[slot];
        if items.is_empty() {
            *oldest = now;
        }
        items.push(item);
        (items.len() == self.config.buffer_items).then(|| self.drain(slot, EmitReason::BufferFull))
    }

    fn drain(&mut self, slot: usize, reason: EmitReason) -> Emitted {
        let items = std::mem::take(&mut self.slots[slot].0);
        self.message(self.dest_of(slot), items, reason)
    }

    /// Drain, in slot order, every non-empty slot `due` lets go.
    fn drain_where(
        &mut self,
        reason: EmitReason,
        due: impl Fn(&Self, usize) -> bool,
    ) -> Vec<Emitted> {
        (0..self.slots.len())
            .filter(|&slot| !self.slots[slot].0.is_empty() && due(self, slot))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|slot| self.drain(slot, reason))
            .collect()
    }

    fn buffered(&self) -> usize {
        self.slots.iter().map(|(items, _)| items.len()).sum()
    }

    fn next_deadline(&self) -> Option<u64> {
        let timeout = self.config.flush_policy.timeout_ns?;
        self.slots
            .iter()
            .filter(|(items, _)| !items.is_empty())
            .map(|&(_, oldest)| oldest + timeout)
            .min()
    }
}

/// The release decision of an `Op::Idle` gate for a message destination.
fn gate_releases(gate: u32, dest: MessageDest) -> bool {
    let slot = match dest {
        MessageDest::Worker(w) => w.0,
        MessageDest::Process(p) => p.0,
    };
    gate >> (slot % 32) & 1 == 1
}

/// Apply `ops` to an aggregator and to the model side by side, comparing
/// every emission and the observable state after each step.
fn check_against_model(config: TramConfig, owner: Owner, ops: &[Op]) -> TestCaseResult {
    let mut agg = Aggregator::new(config, owner);
    let mut model = Model::new(config);
    let workers = config.topology.total_workers();
    let mut now = 0u64;
    for (step, &op) in ops.iter().enumerate() {
        let mut got = Vec::new();
        let mut sink = |message: OutboundMessage<u32>| got.push(message);
        let (expected, abandoned) = match op {
            Op::Insert { dest, payload, dt } => {
                now += dt;
                let item = Item::new(WorkerId(dest % workers), payload, now);
                if let Some(message) = agg.insert_at(item, now).message {
                    sink(message);
                }
                (model.insert(item, now).into_iter().collect(), None)
            }
            Op::Flush => {
                agg.flush_each(&mut sink);
                model.tallies[9] += 1;
                (
                    model.drain_where(EmitReason::ExplicitFlush, |_, _| true),
                    None,
                )
            }
            Op::Idle { gate } => {
                agg.flush_on_idle_where(
                    &mut sink,
                    |_, dest| gate_releases(gate, dest),
                    |sink, message| sink(message),
                );
                let expected = if config.flush_policy.on_idle {
                    model.drain_where(EmitReason::IdleFlush, |model, slot| {
                        gate_releases(gate, model.dest_of(slot))
                    })
                } else {
                    Vec::new()
                };
                (expected, None)
            }
            Op::Poll { dt } => {
                now += dt;
                agg.poll_timeout_each(now, &mut sink);
                let expected = match config.flush_policy.timeout_ns {
                    Some(timeout) => model.drain_where(EmitReason::TimeoutFlush, |model, slot| {
                        now - model.slots[slot].1 >= timeout
                    }),
                    None => Vec::new(),
                };
                (expected, None)
            }
            Op::Abandon => {
                let buffered = model.buffered() as u64;
                for (items, _) in &mut model.slots {
                    items.clear();
                }
                (Vec::new(), Some((agg.abandon(), buffered)))
            }
        };
        let emitted: Vec<Emitted> = got.iter().map(Emitted::of).collect();
        prop_assert_eq!(
            &emitted,
            &expected,
            "step {step} ({op:?}): emissions differ"
        );
        if let Some((dropped, buffered)) = abandoned {
            prop_assert_eq!(dropped, buffered, "step {step}: abandoned item count");
        }
        for message in got {
            agg.recycle(message.items);
        }
        prop_assert_eq!(
            agg.buffered_items(),
            model.buffered(),
            "step {step} ({op:?}): buffered items"
        );
        prop_assert_eq!(
            agg.next_timeout_deadline(),
            model.next_deadline(),
            "step {step} ({op:?}): next timeout deadline"
        );
        prop_assert_eq!(tallies(&agg), model.tallies, "step {step} ({op:?}): stats");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The aggregator emits exactly what a per-slot `Vec` model emits, in the
    /// same order, for every scheme and `g` in {1, 3, 16}, and agrees with
    /// it on buffered items, the next timeout deadline and every tally after
    /// each step.
    #[test]
    fn emissions_match_the_reference_model(
        shape in (1u32..4, 1u32..5, any::<u32>()),
        policy in (any::<bool>(), 0u64..3, 1u64..300),
        sizes in (1u32..32, 0u32..64),
        ops in prop::collection::vec(op_strategy(), 0..160),
    ) {
        let (procs, wpp, owner_sel) = shape;
        let topo = Topology::smp(1, procs, wpp);
        let flush_policy = FlushPolicy {
            on_idle: policy.0,
            // A third of the cases run without a timeout.
            timeout_ns: (policy.1 != 0).then_some(policy.2),
        };
        for scheme in Scheme::ALL {
            for g in [1, 3, 16] {
                let config = TramConfig::new(scheme, topo)
                    .with_buffer_items(g)
                    .with_item_bytes(sizes.0)
                    .with_header_bytes(sizes.1)
                    .with_flush_policy(flush_policy);
                let owner = if scheme == Scheme::PP {
                    Owner::Process(ProcId(owner_sel % procs))
                } else {
                    Owner::Worker(WorkerId(owner_sel % topo.total_workers()))
                };
                check_against_model(config, owner, &ops)?;
            }
        }
    }
}
