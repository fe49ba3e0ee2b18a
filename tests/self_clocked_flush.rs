//! The self-clocked flush and its gate, end to end.
//!
//! A partial aggregation buffer ships on a quiet quantum iff the lane toward
//! its receiver is drained (`native_rt`'s `quantum` module).  Two cases pin
//! the two halves of that sentence:
//!
//! * a **hot receiver** — several lightly paced producers, one receiver whose
//!   handler is slow: the lanes toward it are rarely drained, so the
//!   producers keep aggregating although every one of their quanta after a
//!   send is quiet.  Without the gate each item would ship alone;
//! * a **symmetric low load** — two workers pace items at each other and
//!   consume them at once: lanes are drained, so buffers ship on the first
//!   quiet quantum and the flush timeout is a backstop that rarely fires.
//!
//! In both, `on_idle` reports work for as long as the schedule is live, so
//! neither engine ever takes the app's word for "idle".
//!
//! `harness = false` (see `common::run`): the hot-receiver case also runs on
//! the forked-process engine.

mod common;

use std::time::{Duration, Instant};

use smp_aggregation::prelude::*;
use smp_aggregation::runtime_api::AppDefaults;

fn main() {
    let dir = std::env::temp_dir().join(format!("smp-aggr-quiet-{}", std::process::id()));
    std::env::set_var(shmem::segment::MARKER_DIR_ENV, &dir);
    common::run(&[
        (
            "a_hot_receiver_keeps_its_producers_aggregating",
            a_hot_receiver_keeps_its_producers_aggregating,
        ),
        (
            "at_low_load_buffers_ship_on_quiet_quanta_not_on_the_timeout",
            at_low_load_buffers_ship_on_quiet_quanta_not_on_the_timeout,
        ),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `remaining` items to `peer`, at most one per `on_idle` call and one
/// per `gap_ns` of wall clock, and spends `handler_ns` on every item it
/// receives.  Never calls `flush`, never reports idle while sending.
struct Paced {
    peer: Option<WorkerId>,
    remaining: u64,
    gap_ns: u64,
    next_due_ns: u64,
    handler_ns: u64,
    received: u64,
}

impl WorkerApp for Paced {
    fn on_item(&mut self, _item: Payload, _created: u64, _ctx: &mut dyn RunCtx) {
        self.received += 1;
        let until = Instant::now() + Duration::from_nanos(self.handler_ns);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        let Some(peer) = self.peer else {
            return false;
        };
        if self.remaining > 0 && ctx.now_ns() >= self.next_due_ns {
            ctx.send(peer, Payload::new(self.remaining, 0));
            self.remaining -= 1;
            self.next_due_ns = ctx.now_ns() + self.gap_ns;
        }
        self.remaining > 0
    }

    fn local_done(&self) -> bool {
        self.remaining == 0
    }

    fn on_finalize(&mut self, counters: &mut smp_aggregation::metrics::Counters) {
        counters.add("paced_received", self.received);
    }
}

/// `make_app` as WW over one process with the bypass off, so every buffer
/// has exactly one receiver and every item is aggregated; flush on idle,
/// `timeout_ns` as the backstop.
fn paced<F>(workers: u32, buffer: usize, timeout_ns: u64, make_app: F) -> RunSpec
where
    F: FnMut(WorkerId) -> Box<dyn WorkerApp> + Clone + 'static,
{
    let defaults = AppDefaults {
        cluster: ClusterSpec::smp(1, 1, workers),
        scheme: Scheme::WW,
        buffer_items: buffer,
        flush_policy: FlushPolicy {
            on_idle: true,
            ..FlushPolicy::with_timeout(timeout_ns)
        },
        seed: 11,
        ..AppDefaults::default()
    };
    common::ad_hoc(defaults, make_app)
        .local_bypass(false)
        .max_wall(WATCHDOG)
}

const WATCHDOG: Duration = Duration::from_secs(30);

fn a_hot_receiver_keeps_its_producers_aggregating() {
    const PRODUCERS: u32 = 3;
    const PER_PRODUCER: u64 = 600;
    // Each producer alone offers the receiver twice what it can take, so the
    // receiver is behind however the producers share the CPUs.  The
    // producers never nap (their `on_idle` reports work), so on two cores
    // the receiver holds one and the three producers take turns on the
    // other.  With a 20 µs handler one producer at a time offered only 2/3
    // of the receiver's rate: the receiver kept up, every lane read drained
    // and items shipped alone, correctly.  The process case then read 1.0
    // items per message in about half of its runs.  At 60 µs, 200 runs on
    // two cores read 33–55 on both engines (median 51 mesh, 38 process);
    // 50 runs pinned to one core read 50–51.
    let make_app = |me: WorkerId| -> Box<dyn WorkerApp> {
        Box::new(Paced {
            peer: (me.0 > 0).then_some(WorkerId(0)),
            remaining: if me.0 > 0 { PER_PRODUCER } else { 0 },
            gap_ns: 30_000,
            next_due_ns: 0,
            handler_ns: if me.0 == 0 { 60_000 } else { 0 },
            received: 0,
        })
    };
    // A timeout the run cannot reach: whatever ships, ships full or quiet.
    let spec = || paced(PRODUCERS + 1, 64, 20_000_000_000, make_app);
    let check = |label: &str, report: &RunReport| {
        assert!(
            report.clean(),
            "{label}: got {}",
            report.outcome.signature()
        );
        let total = u64::from(PRODUCERS) * PER_PRODUCER;
        assert_eq!(report.counter("paced_received"), total, "{label}");
        assert_eq!(report.counter("wire_items"), total, "{label}");
        let per_message = total as f64 / report.counter("wire_messages") as f64;
        println!("{label}: {per_message:.1} items per message toward the hot receiver");
        assert!(
            per_message >= 8.0,
            "{label}: {per_message:.1} items per message toward a receiver that is behind \
             ({} messages) — the gate is not holding partial buffers back",
            report.counter("wire_messages")
        );
    };

    let report = spec().backend(Backend::Native).run();
    check("mesh", &report);
    assert_eq!(
        report.tram.counters().get("messages_timeout_flush"),
        0,
        "mesh: nothing may have waited out the 20 s timeout"
    );
    let report = spec().backend(Backend::Process).run();
    check("process", &report);
}

fn at_low_load_buffers_ship_on_quiet_quanta_not_on_the_timeout() {
    const PER_WORKER: u64 = 2_000;
    let make_app = |me: WorkerId| -> Box<dyn WorkerApp> {
        Box::new(Paced {
            peer: Some(WorkerId(1 - me.0)),
            remaining: PER_WORKER,
            gap_ns: 20_000,
            next_due_ns: 0,
            handler_ns: 0,
            received: 0,
        })
    };
    let report = paced(2, 64, 1_000_000, make_app)
        .backend(Backend::Native)
        .run();
    assert!(report.clean(), "got {}", report.outcome.signature());
    assert_eq!(report.counter("paced_received"), 2 * PER_WORKER);
    let tram = report.tram.counters();
    let (idle, timeout) = (
        tram.get("messages_idle_flush"),
        tram.get("messages_timeout_flush"),
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("{idle} idle-flush and {timeout} timeout-flush messages on {cores} cores");
    if cores < 2 {
        // On one core a worker's peer is descheduled for whole time slices,
        // its lane stays undrained and the timeout does the shipping.
        println!("skipping the idle-vs-timeout comparison on {cores} core");
        return;
    }
    assert!(
        idle > timeout,
        "{idle} idle-flush messages against {timeout} timeout-flush messages ({cores} cores): \
         at low load the quiet quantum must ship before the timeout does"
    );
}
