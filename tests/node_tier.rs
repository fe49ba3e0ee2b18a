//! The node-leader tier, end to end: multi-node runs over a real wire must
//! change *where* items travel, never *what* the application computes — and
//! when the wire misbehaves, the run must settle with exact books instead of
//! wedging.
//!
//! Four layers of acceptance:
//!
//! 1. **Equivalence** — a 2-node cluster over loopback TCP, Unix-domain
//!    sockets and the deterministic simulated transport computes bit-identical
//!    application results to the same cluster run entirely in-process, for
//!    every scheme — also with every thread of the run sharing one CPU.
//! 2. **Recoverable faults** — seeded `drop`/`delay`/`duplicate` wire faults
//!    end `Degraded` with zero items lost: retransmission and receive-side
//!    dedup absorb them completely.
//! 3. **Cuts** — `disconnect`/`partition` mid-run end `Aborted` with the
//!    conservation ledger exact (`sent == delivered + dropped`), zero leaked
//!    slabs, per-node diagnostics attached, and a deterministic outcome
//!    signature per seed (asserted by running every fault class twice).
//! 4. **Who pumps** — hot workers pump their own node's wire; workers that
//!    cannot (parked in a handler) are carried by the leader thread alone;
//!    and however often they pump, a link carries at most one standalone
//!    ack per `ACK_DELAY`.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smp_aggregation::native_rt::threaded::ACK_DELAY;
use smp_aggregation::prelude::*;
use smp_aggregation::runtime_api::AppDefaults;

/// Backend-independent observable result of a histogram run.
#[derive(Debug, PartialEq, Eq)]
struct Totals {
    applied: u64,
    sent_checksum: u64,
    applied_checksum: u64,
    table_total: u64,
    items_sent: u64,
    items_delivered: u64,
}

fn totals(report: &RunReport) -> Totals {
    Totals {
        applied: report.counter("histo_applied"),
        sent_checksum: report.counter("histo_sent_checksum"),
        applied_checksum: report.counter("histo_applied_checksum"),
        table_total: report.counter("histo_table_total"),
        items_sent: report.items_sent,
        items_delivered: report.items_delivered,
    }
}

/// A 2-node × 2-proc × 2-worker histogram spec (8 workers, cross-node
/// traffic from every scheme).
fn spec(scheme: Scheme, seed: u64) -> RunSpec {
    RunSpec::for_app(
        HistogramConfig::new(ClusterSpec::smp(2, 2, 2), scheme)
            .with_updates(600)
            .with_buffer(32)
            .with_seed(seed),
    )
    .backend(Backend::Native)
}

/// Every scheme over every transport against the same cluster run entirely
/// in-process.
fn wire_runs_match_in_process() {
    let transports = [TransportKind::Sim, TransportKind::Tcp, TransportKind::Uds];
    for scheme in Scheme::ALL {
        let reference = spec(scheme, 42).run();
        assert!(
            reference.clean(),
            "{scheme}: in-process reference run not clean"
        );
        let reference = totals(&reference);
        for transport in transports {
            if transport == TransportKind::Uds && !cfg!(unix) {
                continue;
            }
            let report = spec(scheme, 42).transport(transport).run();
            assert!(
                report.clean(),
                "{scheme}/{transport}: wire run not clean: {}",
                report.outcome.signature()
            );
            assert_eq!(
                report.node_reports.len(),
                2,
                "{scheme}/{transport}: per-node diagnostics missing"
            );
            let shipped: u64 = report.node_reports.iter().map(|d| d.items_shipped).sum();
            let received: u64 = report.node_reports.iter().map(|d| d.items_received).sum();
            assert!(shipped > 0, "{scheme}/{transport}: no cross-node traffic");
            assert_eq!(
                shipped, received,
                "{scheme}/{transport}: wire lost or duplicated items"
            );
            assert_eq!(
                totals(&report),
                reference,
                "{scheme}/{transport}: wire run diverged from the in-process run"
            );
        }
    }
}

#[test]
fn two_node_wire_runs_match_in_process_for_every_scheme() {
    wire_runs_match_in_process();
}

#[test]
fn two_node_wire_runs_match_in_process_on_one_cpu() {
    // 8 workers and 2 leaders on one core: a helping worker only ever
    // `try_lock`s its leader, so it can neither wait on a preempted holder
    // nor keep the leader thread from its turn.
    if !common::on_one_cpu(wire_runs_match_in_process) {
        println!("skipped: cannot pin to one CPU here");
    }
}

#[test]
fn sim_transport_charges_modeled_wire_time() {
    let report = spec(Scheme::WW, 42).transport(TransportKind::Sim).run();
    assert!(report.clean());
    let modeled: u64 = report.node_reports.iter().map(|d| d.modeled_wire_ns).sum();
    assert!(modeled > 0, "simulated transport must charge α–β wire time");
}

#[test]
fn recoverable_wire_faults_lose_nothing() {
    let reference = totals(&spec(Scheme::WPs, 7).run());
    for kind in [
        FaultKind::NetDrop,
        FaultKind::NetDelay { micros: 2_000 },
        FaultKind::NetDuplicate,
    ] {
        // Armed at the *first* batch send: frame sealing is timing-dependent
        // (a fast drain can collapse a burst into one big frame), so only
        // send #1 is guaranteed to happen — later indices would make the
        // fault itself race the run length.
        let plan = FaultPlan::seeded(7).net_at_sends(0, kind, 1);
        let report = spec(Scheme::WPs, 7)
            .transport(TransportKind::Tcp)
            .faults(plan)
            .run();
        let label = kind.label();
        assert_eq!(
            report.outcome.signature(),
            "degraded(1)",
            "{label}: a recovered wire fault must degrade, not abort or pass clean"
        );
        assert_eq!(
            report.counter("items_dropped"),
            0,
            "{label}: retransmit + dedup must recover every item"
        );
        assert_eq!(
            totals(&report),
            reference,
            "{label}: recovered run diverged from the fault-free run"
        );
        if kind == FaultKind::NetDuplicate {
            let rejected: u64 = report
                .node_reports
                .iter()
                .map(|d| d.duplicates_rejected)
                .sum();
            assert!(rejected > 0, "duplicate fault never hit the replay guard");
        }
    }
}

#[test]
fn wire_cuts_settle_with_exact_books() {
    for kind in [FaultKind::NetDisconnect, FaultKind::NetPartition] {
        let label = kind.label();
        let plan = FaultPlan::seeded(11).net_at_sends(0, kind, 1);
        let report = spec(Scheme::WW, 11)
            .transport(TransportKind::Tcp)
            .faults(plan)
            .run();
        let signature = report.outcome.signature();
        assert!(
            signature.starts_with("aborted: wire"),
            "{label}: expected a wire abort, got `{signature}`"
        );
        // The whole point of settlement: the ledger balances even though a
        // link died mid-run.
        assert_eq!(
            report.items_sent,
            report.items_delivered + report.counter("items_dropped"),
            "{label}: conservation violated after a cut"
        );
        assert!(
            report.counter("items_dropped") > 0,
            "{label}: a mid-run cut should strand some items into the ledger"
        );
        assert_eq!(
            report.counter("leaked_slabs"),
            0,
            "{label}: cut links must not leak arena slabs"
        );
        let diagnostics = report
            .outcome
            .diagnostics()
            .expect("aborted outcome carries diagnostics");
        assert_eq!(
            diagnostics.node_reports.len(),
            2,
            "{label}: abort diagnostics missing per-node transport state"
        );
        assert!(
            diagnostics
                .node_reports
                .iter()
                .any(|d| d.links.iter().any(|l| !l.up)),
            "{label}: no link recorded as cut"
        );
    }
}

#[test]
fn every_wire_fault_class_is_deterministic_per_seed() {
    // Two runs of every fault class on the same seed must produce the same
    // outcome signature AND the same drop ledger — the acceptance bar for
    // seeded wire chaos.
    for kind in [
        FaultKind::NetDrop,
        FaultKind::NetDelay { micros: 1_000 },
        FaultKind::NetDuplicate,
        FaultKind::NetDisconnect,
        FaultKind::NetPartition,
    ] {
        let label = kind.label();
        let run = || {
            let plan = FaultPlan::seeded(3).net_at_sends(1, kind, 1);
            let report = spec(Scheme::PP, 3)
                .transport(TransportKind::Tcp)
                .faults(plan)
                .run();
            assert_eq!(
                report.counter("leaked_slabs"),
                0,
                "{label}: leaked slabs under wire chaos"
            );
            assert_eq!(
                report.items_sent,
                report.items_delivered + report.counter("items_dropped"),
                "{label}: conservation violated"
            );
            (
                report.outcome.signature(),
                report.counter("items_dropped") > 0,
            )
        };
        let first = run();
        let second = run();
        assert_eq!(
            first, second,
            "{label}: same seed must reproduce the same outcome"
        );
    }
}

#[test]
fn backoff_schedules_are_deterministic_per_seed() {
    // The retry schedule itself (not just the outcome) is a pure function
    // of the seed: same seed → identical delay sequence, different link →
    // different jitter stream.
    use smp_aggregation::transport::Backoff;
    let collect = |seed: u64| -> Vec<u64> {
        let mut b = Backoff::send_default(seed);
        std::iter::from_fn(|| b.next_delay()).collect()
    };
    assert_eq!(collect(42), collect(42), "same seed, same schedule");
    assert_ne!(
        collect(42),
        collect(43),
        "different seeds should jitter apart"
    );
    let schedule = collect(42);
    assert!(!schedule.is_empty());
}

/// Worker 0 (node 0) sends `REQUESTS` requests to worker 1 (node 1), which
/// echoes each one back.
struct Echo {
    me: WorkerId,
    to_send: u64,
    served: u64,
    responses: u64,
    checksum: u64,
    /// Requests worker 1 has served so far, as worker 0 can see them.
    served_seen: Arc<AtomicU64>,
    /// Worker 0 issues everything from inside one handler call and stays in
    /// it until worker 1 has served the lot.
    held: bool,
}

const REQUESTS: u64 = 640;
const RESPONSE: u64 = 1 << 63;

impl Echo {
    fn request(&mut self, ctx: &mut dyn RunCtx) {
        self.to_send -= 1;
        ctx.send(WorkerId(1), Payload::new(self.to_send * 7 + 1, 0));
    }
}

fn spin_for(pause: Duration) {
    let until = Instant::now() + pause;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

impl WorkerApp for Echo {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        if item.a & RESPONSE == 0 {
            self.served += 1;
            self.served_seen.fetch_add(1, Ordering::Release);
            ctx.send(WorkerId(0), Payload::new(item.a | RESPONSE, 0));
        } else {
            self.responses += 1;
            self.checksum += item.a & !RESPONSE;
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.me.0 == 0 && self.held && self.to_send > 0 {
            // A worker parked in a long handler: it ships a wire batch every
            // `buffer_items` sends and never reaches the end of a quantum,
            // so nobody on this node can pump but the leader thread.
            while self.to_send > 0 {
                self.request(ctx);
                if self.to_send % 16 == 0 {
                    spin_for(Duration::from_micros(200));
                }
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while self.served_seen.load(Ordering::Acquire) < REQUESTS {
                assert!(
                    Instant::now() < deadline,
                    "requests stuck behind a worker that cannot pump"
                );
                std::hint::spin_loop();
            }
        } else if self.me.0 == 0 {
            // A window of four: the run is a few hundred round trips long.
            while self.to_send > 0 && REQUESTS - self.to_send - self.responses < 4 {
                self.request(ctx);
            }
        }
        // Hot: never tell the runtime there is nothing to do.
        true
    }

    fn local_done(&self) -> bool {
        if self.me.0 == 0 {
            self.responses == REQUESTS
        } else {
            self.served == REQUESTS
        }
    }

    fn on_finalize(&mut self, counters: &mut smp_aggregation::metrics::Counters) {
        counters.add("echo_served", self.served);
        counters.add("echo_responses", self.responses);
        counters.add("echo_checksum", self.checksum);
    }
}

#[test]
fn hot_workers_pump_and_the_leader_thread_alone_suffices() {
    let run = |held: bool| {
        let served_seen = Arc::new(AtomicU64::new(0));
        // NoAgg, explicit flush only: nothing but the uplink staging buffer
        // (16 items) and the wire tier sits between a send and its delivery.
        let defaults = AppDefaults {
            cluster: ClusterSpec::smp(2, 1, 1),
            scheme: Scheme::NoAgg,
            buffer_items: 16,
            seed: 5,
            ..AppDefaults::default()
        };
        let echo = move |me: WorkerId| -> Box<dyn WorkerApp> {
            Box::new(Echo {
                me,
                to_send: if me.0 == 0 { REQUESTS } else { 0 },
                served: 0,
                responses: 0,
                checksum: 0,
                served_seen: Arc::clone(&served_seen),
                held,
            })
        };
        let started = Instant::now();
        let report = common::ad_hoc(defaults, echo)
            .backend(Backend::Native)
            .transport(TransportKind::Tcp)
            .max_wall(Duration::from_secs(30))
            .run();
        let wall = started.elapsed();
        assert_eq!(
            report.outcome.signature(),
            "clean",
            "held={held}: {}",
            report.summary()
        );
        let app_totals = (
            report.counter("echo_served"),
            report.counter("echo_responses"),
            report.counter("echo_checksum"),
            report.items_sent,
            report.items_delivered,
        );
        (app_totals, report.node_reports, wall)
    };

    let (hot_totals, hot_nodes, wall) = run(false);
    assert_eq!(hot_totals.0, REQUESTS);
    assert_eq!(hot_totals.1, REQUESTS);
    let by_worker: u64 = hot_nodes.iter().map(|d| d.pumps_by_worker).sum();
    let by_leader: u64 = hot_nodes.iter().map(|d| d.pumps_by_leader).sum();
    assert!(
        by_worker > by_leader,
        "hot workers should do most of the pumping: {by_worker} by workers, {by_leader} by leaders"
    );
    // The ack clock: at most one standalone ack per link per ACK_DELAY over
    // the whole run, plus one per rejected replay — on any schedule.
    let peers = hot_nodes.len() as u64 - 1;
    let ticks = (wall.as_nanos() / ACK_DELAY.as_nanos()) as u64 + 1;
    for d in &hot_nodes {
        assert!(
            d.acks_sent <= peers * ticks + d.duplicates_rejected,
            "node {}: {} acks in {wall:?} ({ticks} ack delays, {} replays)",
            d.node,
            d.acks_sent,
            d.duplicates_rejected
        );
    }

    // Worker 0 sits in one handler call until worker 1 has served every
    // request: node 0's wire is pumped by its leader thread or not at all.
    let (held_totals, held_nodes, _) = run(true);
    assert_eq!(
        held_totals, hot_totals,
        "who pumps must not change the result"
    );
    // (Had it not been, the handler's deadline would have aborted the run.)
    assert!(held_nodes[0].pumps_by_leader > 0);
    assert_eq!(held_nodes[0].items_shipped, REQUESTS);
}
