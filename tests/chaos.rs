//! The chaos matrix: deterministic fault injection over every engine's
//! containment machinery.
//!
//! Every cell is {fault class} × {scheme}: a deterministic churn workload
//! with one injected fault, run **twice with the same seed**.  The suite
//! asserts the failure-model contract rather than any timing property:
//!
//! - **Determinism** — both runs of a seed produce the same
//!   [`RunOutcome::signature`] (outcome class + abort reason).
//! - **Conservation** — soft faults (stall, arena-dry, ring-burst, a dropped
//!   frame) delay but never lose items: the run ends `Degraded` with the
//!   closed-form totals.  A dead worker or a cut link ends `Aborted` with the
//!   full ledger balanced: `sent == delivered + dropped`.
//! - **Reclamation** — `leaked_slabs == 0` on every run, aborted ones too:
//!   quarantine and settlement must hand every slab slot back, and process
//!   runs that lost a worker leave no segment marker behind.
//!
//! Three matrices, one per engine: forked worker processes (where `kill` is
//! a real `SIGKILL` and abort reasons carry the victim's pid, so determinism
//! is asserted on the pid-masked signature), threads, and a 2-node cluster
//! over loopback TCP.
//!
//! `harness = false`: the process matrix forks without exec, which needs a
//! single-threaded parent, so the cases run sequentially from `main` (see
//! tests/common/mod.rs).

mod common;

use std::time::Duration;

use runtime_api::{AppDefaults, FaultSpec, FaultTrigger};
use smp_aggregation::prelude::*;

/// Items each of the 8 workers sends: enough churn that every fault lands
/// mid-traffic, few enough that the whole matrix takes seconds.
const UPDATES: u64 = 400;

/// Base experiment seed; each cell derives its own from it.
const SEED: u64 = 0xC4A0_5000;

/// The schemes every matrix covers: private per-worker buffers and the
/// process-shared claim buffers.
const SCHEMES: [Scheme; 2] = [Scheme::WW, Scheme::PP];

/// The worker fault classes — one per worker-scoped [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// A worker panics mid-run and must be quarantined.
    Panic,
    /// A worker freezes for a fixed window, then resumes.
    Stall,
    /// A worker's slab arena is drained dry for a fixed window.
    ArenaDry,
    /// A worker stops draining its delivery rings for a burst of quanta.
    RingBurst,
    /// The worker is killed outright: a real `SIGKILL` on the process
    /// backend, the closest thread-level mapping (a quarantine unwind) on
    /// the threaded one.
    Kill,
}

impl FaultClass {
    /// Every class, in matrix order.
    const ALL: [FaultClass; 5] = [
        FaultClass::Panic,
        FaultClass::Stall,
        FaultClass::ArenaDry,
        FaultClass::RingBurst,
        FaultClass::Kill,
    ];

    /// The classes the multi-process backend injects (soft in-child faults
    /// that need arena/ring handles don't cross the process boundary).
    const PROCESS: [FaultClass; 3] = [FaultClass::Kill, FaultClass::Panic, FaultClass::Stall];

    /// The concrete fault spec this class injects: each class targets a
    /// different worker so cross-class interference patterns stay distinct.
    fn spec(self) -> FaultSpec {
        let (worker, kind, at) = match self {
            FaultClass::Panic => (2, FaultKind::Panic, UPDATES / 2),
            FaultClass::Stall => (1, FaultKind::Stall { micros: 20_000 }, UPDATES / 2),
            FaultClass::ArenaDry => (0, FaultKind::ArenaDry { micros: 20_000 }, UPDATES / 4),
            FaultClass::RingBurst => (3, FaultKind::RingBurst { quanta: 1_000 }, UPDATES / 2),
            FaultClass::Kill => (4, FaultKind::Kill, UPDATES / 2),
        };
        FaultSpec {
            worker,
            kind,
            trigger: FaultTrigger::Items(at),
        }
    }

    /// A dead worker aborts the run; every other class only degrades it.
    fn is_fatal(self) -> bool {
        matches!(self, FaultClass::Panic | FaultClass::Kill)
    }
}

/// The wire fault classes: one recoverable (retransmit + dedup must make it
/// lossless) and both cut classes (settlement must make the books exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireClass {
    /// The first batch frame vanishes on the wire; retransmission recovers.
    Drop,
    /// One link is severed mid-run; the sender settles its in-flight items.
    Disconnect,
    /// A whole node is isolated (NIC unplugged); peers detect via heartbeat.
    Partition,
}

impl WireClass {
    const ALL: [WireClass; 3] = [WireClass::Drop, WireClass::Disconnect, WireClass::Partition];

    fn kind(self) -> FaultKind {
        match self {
            WireClass::Drop => FaultKind::NetDrop,
            WireClass::Disconnect => FaultKind::NetDisconnect,
            WireClass::Partition => FaultKind::NetPartition,
        }
    }
}

/// The deterministic churn workload: every worker sends `UPDATES` items to
/// pseudo-random destinations, then flushes, so the totals are closed-form:
/// `8 × UPDATES`.
struct Churn {
    me: WorkerId,
    remaining: u64,
    flushed: bool,
}

impl WorkerApp for Churn {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        ctx.counter("churn_received", 1);
        ctx.counter("churn_checksum", item.a);
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let n = self.remaining.min(64);
        let total = ctx.total_workers() as u64;
        for _ in 0..n {
            let value = ctx.rng().below(1_000);
            let dest = WorkerId(ctx.rng().below(total) as u32);
            ctx.send(dest, Payload::new(value, self.me.0 as u64));
        }
        self.remaining -= n;
        if self.remaining == 0 && !self.flushed {
            ctx.flush();
            self.flushed = true;
        }
        true
    }

    fn local_done(&self) -> bool {
        self.remaining == 0
    }
}

fn churn(me: WorkerId) -> Box<dyn WorkerApp> {
    Box::new(Churn {
        me,
        remaining: UPDATES,
        flushed: false,
    })
}

/// The churn workload under `scheme` on `cluster` (8 workers either way:
/// 1 node × 2 processes × 4, or 2 nodes × 2 × 2), seeded and watched.
fn churn_spec(scheme: Scheme, cluster: ClusterSpec, seed: u64) -> RunSpec {
    let defaults = AppDefaults {
        cluster,
        scheme,
        buffer_items: 32,
        ..AppDefaults::default()
    };
    common::ad_hoc(defaults, churn)
        .seed(seed)
        .max_wall(Duration::from_secs(30))
}

/// Each cell's seed: distinct per matrix, fault class and scheme.
fn cell_seed(matrix: u64, fault: u64, scheme: Scheme) -> u64 {
    SEED.wrapping_add(matrix)
        .wrapping_add(fault * 101)
        .wrapping_add(scheme as u64 * 7)
}

/// `signature()` with every `pid NNN` masked: process-mode abort reasons
/// carry the victim's real pid, which must not break same-seed
/// reproducibility checks.
fn masked_signature(outcome: &RunOutcome) -> String {
    let sig = outcome.signature();
    let mut out = String::with_capacity(sig.len());
    let mut rest = sig.as_str();
    while let Some(at) = rest.find("pid ") {
        let (head, tail) = rest.split_at(at + 4);
        out.push_str(head);
        out.push('N');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Every run: `sent == delivered + dropped`, and every slab slot back.
fn assert_books_balance(report: &RunReport, cell: &str) {
    assert_eq!(
        report.items_delivered + report.counter("items_dropped"),
        report.items_sent,
        "{cell}: conservation ledger broken"
    );
    assert_eq!(
        report.counter("leaked_slabs"),
        0,
        "{cell}: leaked slab slots"
    );
}

/// A soft fault: the run degrades, and loses and drops nothing.
fn assert_degraded_without_loss(report: &RunReport, cell: &str) {
    assert_eq!(
        report.outcome,
        RunOutcome::Degraded { faults_injected: 1 },
        "{cell}: a soft fault must degrade, not abort"
    );
    assert_eq!(report.items_delivered, 8 * UPDATES, "{cell}: lost items");
    assert_eq!(report.counter("items_dropped"), 0, "{cell}: dropped items");
}

fn threaded_cell(scheme: Scheme, fault: FaultClass) {
    let seed = cell_seed(0, fault as u64, scheme);
    let run = || {
        churn_spec(scheme, ClusterSpec::smp(1, 2, 4), seed)
            .backend(Backend::Native)
            .faults(FaultPlan::from_specs(seed, [fault.spec()]))
            .run()
    };
    let (first, second) = (run(), run());
    let cell = format!("threaded/{scheme}/{fault:?}");
    assert_eq!(
        first.outcome.signature(),
        second.outcome.signature(),
        "{cell}: one seed must reproduce one outcome"
    );
    assert_books_balance(&first, &cell);
    if !fault.is_fatal() {
        assert_degraded_without_loss(&first, &cell);
        return;
    }
    let RunOutcome::Aborted {
        reason,
        diagnostics,
    } = &first.outcome
    else {
        panic!("{cell}: a dead worker must abort, got {:?}", first.outcome);
    };
    let verb = if fault == FaultClass::Panic {
        "panicked"
    } else {
        "killed"
    };
    assert!(reason.contains(verb), "{cell}: {reason}");
    assert_eq!(
        diagnostics.items_delivered + diagnostics.items_dropped,
        diagnostics.items_sent,
        "{cell}: conservation ledger broken: {}",
        diagnostics.render()
    );
    assert_eq!(
        diagnostics.leaked_slabs(),
        0,
        "{cell}: quarantine leaked slab slots: {}",
        diagnostics.render()
    );
    assert_eq!(diagnostics.unaccounted_slabs(), 0, "{cell}");
}

fn process_cell(scheme: Scheme, fault: FaultClass) {
    let seed = cell_seed(0x9000, fault as u64, scheme);
    let run = || {
        churn_spec(scheme, ClusterSpec::smp(1, 2, 4), seed)
            .backend(Backend::Process)
            .faults(FaultPlan::from_specs(seed, [fault.spec()]))
            .run()
    };
    let (first, second) = (run(), run());
    let cell = format!("process/{scheme}/{fault:?}");
    assert_eq!(
        masked_signature(&first.outcome),
        masked_signature(&second.outcome),
        "{cell}: one seed must reproduce one outcome (pids masked)"
    );
    assert_books_balance(&first, &cell);
    if !fault.is_fatal() {
        assert_degraded_without_loss(&first, &cell);
        return;
    }
    let RunOutcome::Aborted { reason, .. } = &first.outcome else {
        panic!("{cell}: a dead process must abort, got {:?}", first.outcome);
    };
    let mark = if fault == FaultClass::Kill {
        "killed by signal 9 (SIGKILL)"
    } else {
        "exited with code 101"
    };
    assert!(
        reason.contains(mark),
        "{cell}: abort reason must name the death, got: {reason}"
    );
}

fn wire_cell(scheme: Scheme, fault: WireClass) {
    let seed = cell_seed(0x7000, fault as u64, scheme);
    // Armed at the first batch send from node 0's leader: frame sealing is
    // timing-dependent, so only send #1 is guaranteed to happen.
    let run = || {
        churn_spec(scheme, ClusterSpec::smp(2, 2, 2), seed)
            .backend(Backend::Native)
            .transport(TransportKind::Tcp)
            .faults(FaultPlan::seeded(seed).net_at_sends(0, fault.kind(), 1))
            .run()
    };
    let (first, second) = (run(), run());
    let cell = format!("wire/{scheme}/{fault:?}");
    assert_eq!(
        first.outcome.signature(),
        second.outcome.signature(),
        "{cell}: one seed must reproduce one outcome"
    );
    assert_books_balance(&first, &cell);
    if fault == WireClass::Drop {
        assert_degraded_without_loss(&first, &cell);
        return;
    }
    let RunOutcome::Aborted { reason, .. } = &first.outcome else {
        panic!("{cell}: a cut link must abort, got {:?}", first.outcome);
    };
    assert!(
        reason.starts_with("wire"),
        "{cell}: abort must name the wire, got: {reason}"
    );
    assert!(
        first.counter("items_dropped") > 0,
        "{cell}: a cut must strand items in the ledger"
    );
}

fn process_matrix_holds_the_failure_contract() {
    let dir = std::env::temp_dir().join(format!("smp-aggr-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create private segment dir");
    // Safe: no run is in flight, so this process is single-threaded.
    std::env::set_var(shmem::segment::MARKER_DIR_ENV, &dir);
    for scheme in SCHEMES {
        for fault in FaultClass::PROCESS {
            process_cell(scheme, fault);
        }
    }
    let sweep = shmem::segment::scan_orphans(&dir).expect("scan the matrix's marker dir");
    assert_eq!(
        sweep,
        shmem::segment::OrphanSweep::default(),
        "runs that lost a worker must leave no segment marker behind"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn threaded_matrix_holds_the_failure_contract() {
    for scheme in SCHEMES {
        for fault in FaultClass::ALL {
            threaded_cell(scheme, fault);
        }
    }
}

fn wire_matrix_holds_the_failure_contract() {
    for scheme in SCHEMES {
        for fault in WireClass::ALL {
            wire_cell(scheme, fault);
        }
    }
}

fn main() {
    // Injected panics are the suite's whole point; keep their default-hook
    // backtraces out of the output.  Everything else (including the suite's
    // own contract assertions) still reports normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    // The process matrix first, while nothing has spawned a thread yet.
    common::run(&[
        (
            "process_matrix_holds_the_failure_contract",
            process_matrix_holds_the_failure_contract,
        ),
        (
            "threaded_matrix_holds_the_failure_contract",
            threaded_matrix_holds_the_failure_contract,
        ),
        (
            "wire_matrix_holds_the_failure_contract",
            wire_matrix_holds_the_failure_contract,
        ),
    ]);
}
