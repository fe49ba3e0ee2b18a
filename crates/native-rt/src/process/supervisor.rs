//! The parent side of the multi-process backend: fork the workers, watch
//! them run, watch them die, and settle the books either way.
//!
//! The supervisor's obligations, in run order:
//!
//! 1. **Segment hygiene** — sweep [`shmem::scan_orphans`] before creating
//!    anything (reclaiming markers whose owner pid is dead, refusing on
//!    malformed ones), then drop this run's own [`MarkerGuard`].
//! 2. **Build the world pre-fork** — one memfd segment holding the control
//!    block, per-worker status lines, result regions, the W×W envelope
//!    rings, the slab arenas and the PP claim buffers; plus every
//!    application instance.  Children inherit all of it through `fork` at
//!    identical addresses, so no serialization crosses the boundary.
//! 3. **Detect real death** — reap continuously with `wait4(WNOHANG)`; a
//!    worker that dies mid-run is published in the shared `dead_mask` (so
//!    survivors stop shipping to the corpse), its inboxes are adopted and
//!    drained here (charging the drops), and its exit status is recorded.
//! 4. **Fire `Kill` faults** — a real `SIGKILL`, sent from here when the
//!    victim's progress counters cross the trigger (the victim cannot
//!    cooperate in its own un-announced death; that is the point).
//! 5. **Terminate** — a fully-alive run ends on the exact conservation
//!    check `sent == delivered + dropped` across a double-read of `sent`;
//!    a run with deaths ends once the survivors are done and the totals
//!    have been stable for a full settlement window; the wall-clock
//!    watchdog backstops both.
//! 6. **Settle** — with every child reaped the supervisor is the segment's
//!    sole accessor: drain what is left on the rings (charging drops),
//!    discard what is left in the claim buffers (its accountable remainder
//!    is covered by the residual, see below), force-release every slab the
//!    dead left behind, and charge the global residual
//!    `sent - delivered - dropped` to the first dead worker's ledger.
//!
//! The residual-vs-discard split in step 6 exists because a PP drainer that
//! dies *mid-collect* leaves its buffer's slot stamps intact: re-shipping
//! the buffer's contents here could double-count items the dead worker
//! already forwarded.  Discarding the contents and charging exactly the
//! eager-send residual is the only accounting that is provably neither
//! lossy nor double-counting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use metrics::{Counters, LatencyRecorder};
use net_model::WorkerId;
use runtime_api::{
    ArenaAudit, Backend, FaultKind, FaultTrigger, Payload, ProcessExit, ResolvedRunSpec,
    RunDiagnostics, RunOutcome, RunReport, WorkerApp, MAX_PROCESS_WORKERS,
};
use shmem::{
    marker_dir, scan_orphans, MarkerGuard, SegArena, SegClaim, SegHeader, SegRing, Segment,
    SegmentLayout,
};
use tramlib::{Item, Scheme, TramStats};

use super::layout::{self, RunCtl, WorkerStatus};
use super::worker::{self, World};
use crate::envelope::Envelope;
use crate::sizing::{self, INBOX_BUDGET};
use crate::sys;

/// Monotone per-supervisor run counter, folded with the pid into the segment
/// generation so concurrent runs (and re-runs in one process) never collide.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 20) | (n & 0xf_ffff)
}

/// Consecutive stable monitor polls (at ~200µs each) required to declare a
/// run with dead workers settled: survivors done, totals and ring occupancy
/// unchanged throughout the window.
const DEATH_SETTLE_POLLS: u32 = 25;

/// How long reaped-but-alive survivors get to honour `stop` before the
/// supervisor escalates to `SIGKILL`.
const REAP_DEADLINE: Duration = Duration::from_secs(10);

/// `wait4` status → human-readable exit description; the panic message (if
/// the child managed to serialize one) rides along.
fn describe_exit(status: i32, result: Option<&layout::WorkerResult>) -> String {
    if let Some(sig) = sys::term_signal(status) {
        return format!("killed by signal {sig} ({})", sys::signal_name(sig));
    }
    let code = sys::exit_code(status).unwrap_or(-1);
    match result {
        Some(r) if r.panicked && !r.panic_msg.is_empty() => {
            format!("exited with code {code}: {}", r.panic_msg)
        }
        _ => format!("exited with code {code}"),
    }
}

/// One supervisor-fired `Kill` fault: victim, trigger, state.
struct KillFault {
    worker: usize,
    trigger: FaultTrigger,
    fired: bool,
}

/// Run `make_app` on the multi-process backend.
///
/// The caller must be effectively single-threaded: `fork` without `exec`
/// duplicates only the calling thread, and any lock another thread holds at
/// the fork instant stays locked forever in every child.  The process-mode
/// integration tests run as `harness = false` binaries for exactly this
/// reason.
pub(super) fn run(
    run: &ResolvedRunSpec,
    mut make_app: impl FnMut(WorkerId) -> Box<dyn WorkerApp>,
) -> RunReport {
    assert_eq!(
        run.backend,
        Backend::Process,
        "run_process runs process specs"
    );
    let tram = run.tram();
    let topo = tram.topology;
    let workers = topo.total_workers() as usize;
    let procs = topo.total_procs() as usize;
    let scheme = tram.scheme;
    assert!(
        workers <= MAX_PROCESS_WORKERS as usize,
        "the process backend tracks worker death in a 64-bit mask ({workers} workers requested)"
    );
    let faults = run.faults;

    // Segment hygiene before anything is created: reclaim what dead runs
    // left, refuse on droppings we do not understand, then mark this run.
    let dir = marker_dir();
    let _ = std::fs::create_dir_all(&dir);
    let sweep = scan_orphans(&dir).unwrap_or_else(|why| panic!("{why}"));
    let generation = next_generation();
    let marker = MarkerGuard::create(&dir, generation)
        .unwrap_or_else(|e| panic!("cannot write segment marker in {}: {e}", dir.display()));

    // ---- Shared-segment layout ------------------------------------------
    let g = tram.buffer_items.max(1);
    let ring_capacity = sizing::ring_capacity(scheme, workers);
    let uses_arena = sizing::uses_arena(scheme);
    let arena_slabs = sizing::arena_slabs(&tram, workers);
    let claim_capacity = g;
    let mut plan = SegmentLayout::new();
    let ctl_off = plan.reserve(
        std::mem::size_of::<RunCtl>(),
        std::mem::align_of::<RunCtl>(),
    );
    let status_off = plan.reserve(
        std::mem::size_of::<WorkerStatus>() * workers,
        std::mem::align_of::<WorkerStatus>(),
    );
    let results_off = plan.reserve(layout::RESULT_REGION_BYTES * workers, 64);
    let ring_offs: Vec<usize> = (0..workers * workers)
        .map(|_| {
            plan.reserve(
                SegRing::<Envelope>::bytes_for(ring_capacity),
                SegRing::<Envelope>::ALIGN,
            )
        })
        .collect();
    let arena_offs: Vec<usize> = if uses_arena {
        (0..workers)
            .map(|_| {
                plan.reserve(
                    SegArena::<Item<Payload>>::bytes_for(arena_slabs, g),
                    SegArena::<Item<Payload>>::ALIGN,
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let claim_offs: Vec<usize> = if scheme == Scheme::PP {
        (0..procs * procs)
            .map(|_| {
                plan.reserve(
                    SegClaim::<Item<Payload>>::bytes_for(claim_capacity),
                    SegClaim::<Item<Payload>>::ALIGN,
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let segment = Segment::create(plan.total(), SegHeader::new(generation, std::process::id()))
        .unwrap_or_else(|e| panic!("cannot create the shared segment: {e}"));
    assert!(
        segment.is_shared(),
        "the process backend needs a MAP_SHARED segment; this host fell back to heap memory"
    );

    // ---- In-segment initialization (memfd pages start zeroed) -----------
    // SAFETY: every offset was reserved above with the type's size and
    // alignment; the segment is freshly mapped and exclusively owned here.
    unsafe {
        (segment.at(ctl_off) as *mut RunCtl).write(RunCtl::new());
        let statuses = segment.at(status_off) as *mut WorkerStatus;
        for w in 0..workers {
            statuses.add(w).write(WorkerStatus::new());
        }
    }
    // SAFETY: as above — reserved, aligned, exclusively owned until fork.
    let rings: Vec<SegRing<Envelope>> = ring_offs
        .iter()
        .map(|&off| unsafe { SegRing::init(segment.at(off), ring_capacity) })
        .collect();
    // SAFETY: as above.
    let arenas: Vec<SegArena<Item<Payload>>> = arena_offs
        .iter()
        .map(|&off| unsafe { SegArena::init(segment.at(off), arena_slabs, g) })
        .collect();
    // SAFETY: as above.
    let claims: Vec<SegClaim<Item<Payload>>> = claim_offs
        .iter()
        .map(|&off| unsafe { SegClaim::init(segment.at(off), claim_capacity) })
        .collect();
    let world = World {
        tram,
        topo,
        seed: run.seed,
        workers,
        procs,
        epoch: Instant::now(),
        faults,
        ctl: segment.at(ctl_off) as *const RunCtl,
        status: segment.at(status_off) as *const WorkerStatus,
        results: segment.at(results_off),
        rings,
        arenas,
        claims,
    };

    // Applications are built pre-fork so every child inherits its instance
    // by memory image — `WorkerApp` never needs to be serializable.
    let mut apps: Vec<Option<Box<dyn WorkerApp>>> =
        topo.all_workers().map(|w| Some(make_app(w))).collect();

    // Installed before forking so children inherit the blocked mask: a ^C
    // must land on the supervisor's signalfd, never kill a worker directly.
    let mut signals = if run.graceful_signals {
        crate::signals::SignalGuard::install()
    } else {
        None
    };

    // ---- Fork ------------------------------------------------------------
    let mut pids = vec![0i32; workers];
    let mut pidfds: Vec<Option<i32>> = vec![None; workers];
    for w in 0..workers {
        match sys::fork() {
            Ok(0) => {
                // Child: runs its worker loop and leaves only via
                // exit_group — no unwinding into the parent's main, no
                // destructors (the parent owns every shared resource).
                let app = apps[w].take().expect("apps are built pre-fork");
                worker::child_main(&world, WorkerId(w as u32), app);
            }
            Ok(pid) => {
                pids[w] = pid;
                // Held as the liveness handle; best-effort (reaping works
                // without it), closed at reap time.
                pidfds[w] = sys::pidfd_open(pid).ok();
            }
            Err(e) => {
                for &pid in &pids[..w] {
                    let _ = sys::kill(pid, sys::SIGKILL);
                }
                for &pid in &pids[..w] {
                    let _ = sys::wait4(pid, 0);
                }
                panic!("fork failed for worker {w}: {e}");
            }
        }
    }
    drop(apps);

    // ---- Monitor ---------------------------------------------------------
    let ctl = world.ctl();
    let start = Instant::now();
    ctl.go.store(1, Ordering::Release);

    let mut kills: Vec<KillFault> = faults
        .iter()
        .flat_map(|plan| plan.iter())
        .filter(|f| f.kind == FaultKind::Kill)
        .map(|f| KillFault {
            worker: f.worker as usize,
            trigger: f.trigger,
            fired: false,
        })
        .collect();
    let mut kill_count = 0u64;

    let deadline = start + run.max_wall;
    let grace = (run.max_wall / 8).clamp(Duration::from_millis(50), Duration::from_secs(2));
    let mut alive = vec![true; workers];
    let mut exits: Vec<ProcessExit> = Vec::new();
    let mut stalled_ever = vec![false; workers];
    let mut last_beats = vec![0u64; workers];
    let mut last_progress = vec![start; workers];
    let mut interrupted_by: Option<i32> = None;
    let mut stable_polls = 0u32;
    let mut last_snapshot = (u64::MAX, 0u64, 0u64, 0u64);
    let mut drain_buf: Vec<Envelope> = Vec::with_capacity(INBOX_BUDGET);

    let sum = |field: fn(&WorkerStatus) -> &AtomicU64| -> u64 {
        (0..workers)
            .map(|w| field(world.status(w)).load(Ordering::Acquire))
            .sum()
    };
    let ring_occupancy = || -> u64 { world.rings.iter().map(|r| r.len() as u64).sum() };

    /// How the wait for quiescence ended.
    enum Verdict {
        /// Everyone alive and done, conservation exact.
        Quiescent,
        /// At least one worker died; survivors done and totals settled.
        Died,
        /// The wall-clock watchdog expired first.
        Watchdog,
    }

    let verdict = loop {
        // Reap every child that changed state; unknown pids (none expected —
        // the supervisor spawns nothing else) are skipped.
        while let Ok(Some((pid, status))) = sys::wait4(-1, sys::WNOHANG) {
            let Some(w) = pids.iter().position(|&p| p == pid) else {
                continue;
            };
            if !alive[w] {
                continue;
            }
            alive[w] = false;
            if let Some(fd) = pidfds[w].take() {
                sys::close(fd);
            }
            // Publish the death before draining: survivors must stop
            // shipping to (and spinning on) the corpse.
            ctl.dead_mask.fetch_or(1 << w, Ordering::AcqRel);
            // SAFETY: the child has been reaped; its result region (written,
            // if at all, strictly before its exit) is stable.
            let result = unsafe { layout::read_result(world.result_region(w)) };
            exits.push(ProcessExit {
                worker: w as u32,
                pid: pid as u32,
                description: describe_exit(status, result.as_ref()),
            });
        }

        // Fire pending Kill faults whose victim crossed the trigger.
        for kill in &mut kills {
            if kill.fired || !alive[kill.worker] {
                continue;
            }
            let reached = match kill.trigger {
                FaultTrigger::Items(n) => {
                    world.status(kill.worker).sent.load(Ordering::Acquire) >= n
                }
                FaultTrigger::Flushes(n) => {
                    world
                        .status(kill.worker)
                        .flush_emits
                        .load(Ordering::Relaxed)
                        >= n
                }
                // Wire faults are node-scoped and filtered out by
                // `for_worker`; a Kill fault can never carry one.
                FaultTrigger::Sends(_) => unreachable!("wire faults never target a worker"),
            };
            if reached {
                kill.fired = true;
                kill_count += 1;
                ctl.faults_fired.fetch_add(1, Ordering::Relaxed);
                let _ = sys::kill(pids[kill.worker], sys::SIGKILL);
            }
        }

        // A delivered SIGINT/SIGTERM becomes a quiesce request, exactly as
        // on the threaded backend: stop the load, drain, report Degraded.
        if interrupted_by.is_none() {
            if let Some(signo) = signals.as_mut().and_then(|guard| guard.pending()) {
                interrupted_by = Some(signo);
                ctl.quiesce.store(1, Ordering::Release);
            }
        }

        // Adopt dead workers' inboxes: their SPSC consumer seats are vacant
        // (the consumer is reaped), so the supervisor drains them here —
        // otherwise senders' rings towards a corpse fill and back survivors'
        // stashes up forever.  Drops are charged to the dead destination.
        let dead_mask = ctl.dead_mask.load(Ordering::Acquire);
        if dead_mask != 0 {
            for (dst, _) in alive.iter().enumerate().filter(|(_, live)| !**live) {
                for src in 0..workers {
                    loop {
                        let n = world.ring(src, dst).pop_into(&mut drain_buf, INBOX_BUDGET);
                        if n == 0 {
                            break;
                        }
                        let mut dropped = 0u64;
                        for env in drain_buf.drain(..) {
                            dropped += worker::drop_envelope(&world, &env);
                        }
                        if dropped > 0 {
                            world
                                .status(dst)
                                .dropped
                                .fetch_add(dropped, Ordering::Release);
                        }
                    }
                }
            }
        }

        // Termination.
        let all_settled =
            (0..workers).all(|w| !alive[w] || world.status(w).done.load(Ordering::Acquire) != 0);
        if all_settled {
            if dead_mask == 0 {
                let sent_before = sum(|s| &s.sent);
                let delivered = sum(|s| &s.delivered);
                let dropped = sum(|s| &s.dropped);
                let sent_after = sum(|s| &s.sent);
                if sent_before == sent_after && delivered + dropped == sent_before {
                    break Verdict::Quiescent;
                }
            } else {
                // With deaths, exact conservation only holds after the
                // post-mortem settlement below; here we wait for the
                // survivors' totals to stop moving.
                let snapshot = (
                    sum(|s| &s.sent),
                    sum(|s| &s.delivered),
                    sum(|s| &s.dropped),
                    ring_occupancy(),
                );
                if snapshot == last_snapshot {
                    stable_polls += 1;
                    if stable_polls >= DEATH_SETTLE_POLLS {
                        break Verdict::Died;
                    }
                } else {
                    stable_polls = 0;
                    last_snapshot = snapshot;
                }
            }
        } else {
            stable_polls = 0;
        }

        let now = Instant::now();
        if now > deadline {
            break Verdict::Watchdog;
        }
        for w in 0..workers {
            if !alive[w] {
                continue;
            }
            let beats = world.status(w).heartbeat.load(Ordering::Relaxed);
            if beats != last_beats[w] {
                last_beats[w] = beats;
                last_progress[w] = now;
            } else if world.status(w).done.load(Ordering::Acquire) == 0
                && now.duration_since(last_progress[w]) > grace
            {
                stalled_ever[w] = true;
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    };

    // The run ends at the verdict instant; child teardown is not run time.
    let total_time_ns = start.elapsed().as_nanos() as u64;
    ctl.stop.store(1, Ordering::Release);

    // Reap the survivors: every child honours `stop` within one idle nap;
    // the SIGKILL escalation is a backstop for a wedged child (which would
    // otherwise hold the run's memfd open forever).
    let reap_deadline = Instant::now() + REAP_DEADLINE;
    for w in 0..workers {
        while alive[w] {
            match sys::wait4(pids[w], sys::WNOHANG) {
                Ok(Some((_, status))) => {
                    alive[w] = false;
                    // A post-stop abnormal exit (e.g. a panic inside
                    // on_finalize) is still an abnormal exit.
                    if sys::term_signal(status).is_some() || sys::exit_code(status) != Some(0) {
                        // SAFETY: child reaped, region stable.
                        let result = unsafe { layout::read_result(world.result_region(w)) };
                        exits.push(ProcessExit {
                            worker: w as u32,
                            pid: pids[w] as u32,
                            description: describe_exit(status, result.as_ref()),
                        });
                    }
                }
                Ok(None) => {
                    if Instant::now() > reap_deadline {
                        let _ = sys::kill(pids[w], sys::SIGKILL);
                        let status = sys::wait4(pids[w], 0)
                            .ok()
                            .flatten()
                            .map_or(-1, |(_, status)| status);
                        alive[w] = false;
                        exits.push(ProcessExit {
                            worker: w as u32,
                            pid: pids[w] as u32,
                            description: format!(
                                "ignored stop for {}s, {}",
                                REAP_DEADLINE.as_secs(),
                                describe_exit(status, None)
                            ),
                        });
                    } else {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                Err(_) => {
                    alive[w] = false;
                }
            }
        }
        if let Some(fd) = pidfds[w].take() {
            sys::close(fd);
        }
    }

    // ---- Post-mortem settlement ------------------------------------------
    // Every child is reaped: this thread is the segment's sole accessor.
    // (1) Drain every ring, charging the envelopes as drops — anything still
    // riding a ring after all exits was never going to be delivered.
    for dst in 0..workers {
        for src in 0..workers {
            loop {
                let n = world.ring(src, dst).pop_into(&mut drain_buf, INBOX_BUDGET);
                if n == 0 {
                    break;
                }
                let mut dropped = 0u64;
                for env in drain_buf.drain(..) {
                    dropped += worker::drop_envelope(&world, &env);
                }
                if dropped > 0 {
                    world
                        .status(dst)
                        .dropped
                        .fetch_add(dropped, Ordering::Release);
                }
            }
        }
    }
    // (2) Empty the PP claim buffers WITHOUT charging their contents: a
    // drainer that died mid-collect left the slot stamps intact, so these
    // items may already be counted (re-shipped as singles before the
    // death).  The residual in (3) charges exactly the unaccounted rest.
    let mut discard: Vec<Item<Payload>> = Vec::new();
    for claim in &world.claims {
        let _ = claim.seal_flush(&mut discard, || true);
        discard.clear();
    }
    // (3) Charge the eager-send residual.  Every `send` bumped `sent`
    // before the item landed anywhere, so `sent >= delivered + dropped`
    // and the difference is precisely the items that vanished with the
    // dead (in private buffers, claim slots, or mid-protocol).
    let sent_total = sum(|s| &s.sent);
    let delivered_total = sum(|s| &s.delivered);
    let residual = sent_total.saturating_sub(delivered_total + sum(|s| &s.dropped));
    if residual > 0 {
        let victim = exits.first().map_or(0, |e| e.worker as usize);
        world
            .status(victim)
            .dropped
            .fetch_add(residual, Ordering::Release);
    }
    let dropped_total = sum(|s| &s.dropped);
    // (4) Reclaim the arenas: slabs the dead held (positive refcount with
    // no consumer left, or off-list with none) go back to the free lists,
    // then the books must balance exactly.
    let mut slabs_reclaimed = 0u64;
    for arena in &world.arenas {
        let before = arena.audit();
        if before.in_flight > 0 || before.leaked > 0 {
            slabs_reclaimed += u64::from(arena.force_release_leaked());
        }
    }
    let arena_audits: Vec<ArenaAudit> = world
        .arenas
        .iter()
        .enumerate()
        .map(|(w, arena)| {
            let audit = arena.audit();
            ArenaAudit {
                worker: w as u32,
                slabs: audit.slabs,
                free: audit.free,
                in_flight: audit.in_flight,
                leaked: audit.leaked,
                double_released: audit.double_released,
            }
        })
        .collect();
    let leaked_slabs: u32 = arena_audits.iter().map(|a| a.leaked + a.in_flight).sum();

    // ---- Merge child results ---------------------------------------------
    let mut counters = Counters::new();
    let mut panicked_workers: Vec<u32> = Vec::new();
    let mut workers_done = 0u32;
    let mut stash_total = 0u64;
    for w in 0..workers {
        if world.status(w).done.load(Ordering::Acquire) != 0 {
            workers_done += 1;
        }
        stash_total += world.status(w).stash.load(Ordering::Relaxed);
        // SAFETY: all children reaped; regions are stable.
        let Some(result) = (unsafe { layout::read_result(world.result_region(w)) }) else {
            continue;
        };
        if result.panicked {
            panicked_workers.push(w as u32);
        }
        for (name, value, is_max) in result.counters {
            // Counters keys are &'static str; child counter names cross the
            // process boundary as bytes.  Interning by leak is bounded by
            // the (small, repeating) set of counter names per process.
            let name: &'static str = Box::leak(name.into_boxed_str());
            if is_max {
                counters.max(name, value);
            } else {
                counters.add(name, value);
            }
        }
    }
    let faults_injected = ctl.faults_fired.load(Ordering::Relaxed);
    counters.add("orphan_segments_reclaimed", u64::from(sweep.reclaimed));
    counters.add("slabs_reclaimed", slabs_reclaimed);
    counters.add("leaked_slabs", u64::from(leaked_slabs));
    counters.add("faults_injected", faults_injected);
    counters.add("items_dropped", dropped_total);
    if kill_count > 0 {
        counters.add("fault_kill", kill_count);
    }
    if let Some(signo) = interrupted_by {
        counters.add("interrupted", 1);
        counters.add("interrupted_signal", signo as u64);
    }
    drop(signals);

    // ---- Outcome ----------------------------------------------------------
    let outcome = match verdict {
        Verdict::Quiescent if exits.is_empty() => {
            if faults_injected == 0 && interrupted_by.is_none() {
                RunOutcome::Clean
            } else {
                RunOutcome::Degraded {
                    faults_injected: faults_injected as u32,
                }
            }
        }
        _ => {
            let diagnostics = RunDiagnostics {
                panicked_workers,
                stalled_workers: stalled_ever
                    .iter()
                    .enumerate()
                    .filter_map(|(w, &stalled)| stalled.then_some(w as u32))
                    .collect(),
                workers_done,
                total_workers: workers as u32,
                items_sent: sent_total,
                items_delivered: delivered_total,
                items_dropped: dropped_total,
                stashed_envelopes: stash_total,
                inflight_ring_envelopes: ring_occupancy(),
                arena_audits,
                process_exits: exits.clone(),
                node_reports: Vec::new(),
            };
            // Reason selection mirrors the threaded backend: the first
            // abnormal exit (deterministic per seed for injected kills)
            // beats the watchdog message.
            let reason = exits.first().map_or_else(
                || {
                    format!(
                        "watchdog: not quiescent within {:.3}s",
                        run.max_wall.as_secs_f64()
                    )
                },
                ProcessExit::to_string,
            );
            RunOutcome::Aborted {
                reason,
                diagnostics,
            }
        }
    };

    drop(marker);
    RunReport {
        backend: Backend::Process,
        total_time_ns,
        item_latency: LatencyRecorder::new(),
        latency: None,
        counters,
        tram: TramStats::new(),
        delivery_batch_len: metrics::QuantileSketch::default(),
        events_executed: 0,
        items_sent: sent_total,
        items_delivered: delivered_total,
        outcome,
        node_reports: Vec::new(),
    }
}
