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
//! 3. **Watch** through the run monitor (`monitor.rs`), which decides when
//!    and how the run ended.  Each poll's `tick` is the supervisor's: reap
//!    with `wait4(WNOHANG)`, publishing each death in the shared
//!    `dead_mask` (so survivors stop shipping to the corpse); fire `Kill`
//!    faults, a real `SIGKILL` the victim gets no say in; and adopt dead
//!    workers' inboxes, draining them here and charging the drops.
//! 4. **Reap** — raise `stop` and reap every survivor, escalating to
//!    `SIGKILL` for one that ignores it.
//! 5. **Settle** — with every child reaped the supervisor is the segment's
//!    sole accessor: drain what is left on the rings (charging drops),
//!    discard what is left in the claim buffers (its accountable remainder
//!    is covered by the residual, see below), charge the global residual
//!    `sent - delivered - dropped` to the first dead worker's ledger, and
//!    force-release every slab the dead left behind.
//!
//! The residual-vs-discard split in step 5 exists because a PP drainer that
//! dies *mid-collect* leaves its buffer's slot stamps intact: re-shipping
//! the buffer's contents here could double-count items the dead worker
//! already forwarded.  Discarding the contents and charging exactly the
//! eager-send residual is the only accounting that is provably neither
//! lossy nor double-counting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use net_model::WorkerId;
use runtime_api::{
    Backend, FaultKind, FaultSpec, FaultTrigger, Payload, ProcessExit, ResolvedRunSpec, RunReport,
    WorkerApp, MAX_PROCESS_WORKERS,
};
use shmem::{
    marker_dir, scan_orphans, MarkerGuard, SegArena, SegClaim, SegHeader, SegRing, Segment,
    SegmentLayout,
};
use tramlib::{Item, Scheme};

use super::layout::{self, RunCtl, WorkerStatus};
use super::worker::{self, World};
use crate::envelope::Envelope;
use crate::monitor::{Books, Gone, Monitor, RunView};
use crate::sizing::{self, INBOX_BUDGET};
use crate::sys;

/// Monotone per-supervisor run counter, folded with the pid into the segment
/// generation so concurrent runs (and re-runs in one process) never collide.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    (u64::from(std::process::id()) << 20) | (n & 0xf_ffff)
}

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

/// The forked workers, and what only their parent can do about them:
/// reap them, kill them, adopt a corpse's inboxes and settle its books.
struct Children<'w> {
    world: &'w World,
    pids: Vec<i32>,
    /// Liveness handles; best-effort (reaping works without them), closed
    /// at reap time.
    pidfds: Vec<Option<i32>>,
    alive: Vec<bool>,
    /// Abnormal exits in the order they were reaped.
    exits: Vec<ProcessExit>,
    /// `Kill` faults still to fire.
    kills: Vec<FaultSpec>,
    kills_fired: u64,
    drain_buf: Vec<Envelope>,
}

impl Children<'_> {
    /// Record worker `w`'s exit, reading the result region it wrote (if at
    /// all) strictly before it exited.
    fn record_exit(&mut self, w: usize, status: i32) {
        // SAFETY: the child has been reaped; its result region is stable.
        let result = unsafe { layout::read_result(self.world.result_region(w)) };
        self.exits.push(ProcessExit {
            worker: w as u32,
            pid: self.pids[w] as u32,
            description: describe_exit(status, result.as_ref()),
        });
    }

    /// Reap every child that changed state; unknown pids (none expected —
    /// the supervisor spawns nothing else) are skipped.
    fn reap(&mut self) {
        while let Ok(Some((pid, status))) = sys::wait4(-1, sys::WNOHANG) {
            let live = self.pids.iter().position(|&p| p == pid);
            let Some(w) = live.filter(|&w| self.alive[w]) else {
                continue;
            };
            self.alive[w] = false;
            if let Some(fd) = self.pidfds[w].take() {
                sys::close(fd);
            }
            // Publish the death before draining: survivors must stop
            // shipping to (and spinning on) the corpse.
            self.world
                .ctl()
                .dead_mask
                .fetch_or(1 << w, Ordering::AcqRel);
            self.record_exit(w, status);
        }
    }

    /// Fire the `Kill` faults whose live victim crossed the trigger.
    fn fire_kills(&mut self) {
        let (world, pids, alive) = (self.world, &self.pids, &self.alive);
        let pending = self.kills.len();
        self.kills.retain(|kill| {
            let victim = kill.worker as usize;
            let status = world.status(victim);
            let reached = alive[victim]
                && match kill.trigger {
                    FaultTrigger::Items(n) => status.sent.load(Ordering::Acquire) >= n,
                    FaultTrigger::Flushes(n) => status.flush_emits.load(Ordering::Relaxed) >= n,
                    // Wire faults are node-scoped and filtered out by
                    // `for_worker`; a Kill fault can never carry one.
                    FaultTrigger::Sends(_) => unreachable!("wire faults never target a worker"),
                };
            if reached {
                world.ctl().faults_fired.fetch_add(1, Ordering::Relaxed);
                let _ = sys::kill(pids[victim], sys::SIGKILL);
            }
            !reached
        });
        self.kills_fired += (pending - self.kills.len()) as u64;
    }

    /// Pop everything on worker `dst`'s inbox rings, charging the dropped
    /// items to `dst` and honouring the slab-return protocol.  Only for a
    /// `dst` whose consumer seat is vacant: the worker is reaped.
    fn drain_inbox(&mut self, dst: usize) {
        let world = self.world;
        for src in 0..world.workers {
            while world
                .ring(src, dst)
                .pop_into(&mut self.drain_buf, INBOX_BUDGET)
                > 0
            {
                let dropped: u64 = self
                    .drain_buf
                    .drain(..)
                    .map(|env| env.discard(|owner| &world.arenas[owner]))
                    .sum();
                if dropped > 0 {
                    world
                        .status(dst)
                        .dropped
                        .fetch_add(dropped, Ordering::Release);
                }
            }
        }
    }

    /// Reap the survivors after `stop`: every child honours it within one
    /// idle nap; the SIGKILL escalation is a backstop for a wedged child
    /// (which would otherwise hold the run's memfd open forever).
    fn reap_all(&mut self) {
        let reap_deadline = Instant::now() + REAP_DEADLINE;
        for w in 0..self.world.workers {
            while self.alive[w] {
                match sys::wait4(self.pids[w], sys::WNOHANG) {
                    Ok(Some((_, status))) => {
                        self.alive[w] = false;
                        // A post-stop abnormal exit (e.g. a panic inside
                        // on_finalize) is still an abnormal exit.
                        if sys::term_signal(status).is_some() || sys::exit_code(status) != Some(0) {
                            self.record_exit(w, status);
                        }
                    }
                    Ok(None) if Instant::now() > reap_deadline => {
                        let _ = sys::kill(self.pids[w], sys::SIGKILL);
                        let status = sys::wait4(self.pids[w], 0)
                            .ok()
                            .flatten()
                            .map_or(-1, |(_, status)| status);
                        self.alive[w] = false;
                        self.exits.push(ProcessExit {
                            worker: w as u32,
                            pid: self.pids[w] as u32,
                            description: format!(
                                "ignored stop for {}s, {}",
                                REAP_DEADLINE.as_secs(),
                                describe_exit(status, None)
                            ),
                        });
                    }
                    Ok(None) => std::thread::sleep(Duration::from_micros(200)),
                    Err(_) => self.alive[w] = false,
                }
            }
            if let Some(fd) = self.pidfds[w].take() {
                sys::close(fd);
            }
        }
    }

    /// The post-mortem settlement, once every child is reaped and this
    /// thread is the segment's sole accessor.  Returns the slabs it
    /// force-released.
    fn settle(&mut self) -> u64 {
        let world = self.world;
        // (1) Drain every ring, charging drops: nothing on a ring now will
        // ever be delivered.
        for dst in 0..world.workers {
            self.drain_inbox(dst);
        }
        // (2) Empty the PP claim buffers WITHOUT charging their contents
        // (see the module docs); the residual in (3) charges exactly the
        // unaccounted rest.
        let mut discard: Vec<Item<Payload>> = Vec::new();
        for claim in &world.claims {
            let _ = claim.seal_flush(&mut discard, || true);
            discard.clear();
        }
        // (3) Charge the eager-send residual.  Every `send` bumped `sent`
        // before the item landed anywhere, so `sent >= delivered + dropped`
        // and the difference is precisely the items that vanished with the
        // dead (in private buffers, claim slots, or mid-protocol).
        let (sent, delivered, dropped) = self.ledger();
        let residual = sent.saturating_sub(delivered + dropped);
        if residual > 0 {
            let victim = self.exits.first().map_or(0, |e| e.worker as usize);
            world
                .status(victim)
                .dropped
                .fetch_add(residual, Ordering::Release);
        }
        // (4) Reclaim the arenas: slabs the dead held (positive refcount
        // with no consumer left, or off-list with none) go back to the free
        // lists, so the audit the report takes must balance exactly.
        let mut slabs_reclaimed = 0u64;
        for arena in &world.arenas {
            let before = arena.audit();
            if before.in_flight > 0 || before.leaked > 0 {
                slabs_reclaimed += u64::from(arena.force_release_leaked());
            }
        }
        slabs_reclaimed
    }
}

/// While the run lasts: reaping, `Kill` faults and the adoption of dead
/// workers' inboxes are the supervisor's per-poll duties.
impl RunView for Children<'_> {
    fn tick(&mut self) {
        self.reap();
        self.fire_kills();
        // Adopt dead workers' inboxes: their SPSC consumer seats are vacant,
        // so the supervisor drains them here — otherwise senders' rings
        // towards a corpse fill and back survivors' stashes up forever.
        for dst in 0..self.world.workers {
            if !self.alive[dst] {
                self.drain_inbox(dst);
            }
        }
    }

    fn done(&self, w: usize) -> bool {
        self.world.status(w).done.load(Ordering::Acquire) != 0
    }

    fn heartbeat(&self, w: usize) -> u64 {
        self.world.status(w).heartbeat.load(Ordering::Relaxed)
    }

    fn gone(&self, w: usize) -> Option<Gone> {
        (!self.alive[w]).then_some(Gone::Dead)
    }

    fn ledger(&self) -> (u64, u64, u64) {
        let sum = |field: fn(&WorkerStatus) -> &AtomicU64| -> u64 {
            (0..self.world.workers)
                .map(|w| field(self.world.status(w)).load(Ordering::Acquire))
                .sum()
        };
        (sum(|s| &s.sent), sum(|s| &s.delivered), sum(|s| &s.dropped))
    }

    fn ring_occupancy(&self) -> u64 {
        self.world.rings.iter().map(|r| r.len() as u64).sum()
    }

    fn quiesce(&self) {
        self.world.ctl().quiesce.store(1, Ordering::Release);
    }
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
    let mut reserve_each = |n: usize, bytes: usize, align: usize| -> Vec<usize> {
        (0..n).map(|_| plan.reserve(bytes, align)).collect()
    };
    let ring_offs = reserve_each(
        workers * workers,
        SegRing::<Envelope>::bytes_for(ring_capacity),
        SegRing::<Envelope>::ALIGN,
    );
    let arena_offs = reserve_each(
        if uses_arena { workers } else { 0 },
        SegArena::<Item<Payload>>::bytes_for(arena_slabs, g),
        SegArena::<Item<Payload>>::ALIGN,
    );
    let claim_offs = reserve_each(
        if scheme == Scheme::PP {
            procs * procs
        } else {
            0
        },
        SegClaim::<Item<Payload>>::bytes_for(g),
        SegClaim::<Item<Payload>>::ALIGN,
    );
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
        .map(|&off| unsafe { SegClaim::init(segment.at(off), g) })
        .collect();
    let world = World {
        tram,
        topo,
        seed: run.seed,
        workers,
        procs,
        epoch: Instant::now(),
        faults: run.faults,
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

    // Before forking, so that children inherit the graceful-signal mask.
    let mut monitor = Monitor::new(run);

    // ---- Fork ------------------------------------------------------------
    let mut children = Children {
        world: &world,
        pids: vec![0; workers],
        pidfds: vec![None; workers],
        alive: vec![true; workers],
        exits: Vec::new(),
        kills: run
            .faults
            .iter()
            .flat_map(|plan| plan.iter())
            .filter(|f| f.kind == FaultKind::Kill)
            .copied()
            .collect(),
        kills_fired: 0,
        drain_buf: Vec::with_capacity(INBOX_BUDGET),
    };
    for (w, app) in apps.iter_mut().enumerate() {
        match sys::fork() {
            Ok(0) => {
                // Child: runs its worker loop and leaves only via
                // exit_group — no unwinding into the parent's main, no
                // destructors (the parent owns every shared resource).
                let app = app.take().expect("apps are built pre-fork");
                worker::child_main(&world, WorkerId(w as u32), app);
            }
            Ok(pid) => {
                children.pids[w] = pid;
                children.pidfds[w] = sys::pidfd_open(pid).ok();
            }
            Err(e) => {
                for &pid in &children.pids[..w] {
                    let _ = sys::kill(pid, sys::SIGKILL);
                }
                for &pid in &children.pids[..w] {
                    let _ = sys::wait4(pid, 0);
                }
                panic!("fork failed for worker {w}: {e}");
            }
        }
    }
    drop(apps);

    let ctl = world.ctl();
    let start = Instant::now();
    ctl.go.store(1, Ordering::Release);
    let verdict = monitor.watch(&mut children, start);
    ctl.stop.store(1, Ordering::Release);
    children.reap_all();
    let slabs_reclaimed = children.settle();

    // ---- Merge child results ---------------------------------------------
    let mut books = Books {
        backend: Backend::Process,
        ..Books::default()
    };
    for w in 0..workers {
        books.workers_done += u32::from(children.done(w));
        books.stashed_envelopes += world.status(w).stash.load(Ordering::Relaxed);
        // SAFETY: all children reaped; regions are stable.
        let Some(result) = (unsafe { layout::read_result(world.result_region(w)) }) else {
            continue;
        };
        if result.panicked {
            books.panicked_workers.push(w as u32);
        }
        for (name, value, is_max) in result.counters {
            // Counters keys are &'static str; child counter names cross the
            // process boundary as bytes.  Interning by leak is bounded by
            // the (small, repeating) set of counter names per process.
            let name: &'static str = Box::leak(name.into_boxed_str());
            if is_max {
                books.counters.max(name, value);
            } else {
                books.counters.add(name, value);
            }
        }
    }
    let counters = &mut books.counters;
    counters.add("orphan_segments_reclaimed", u64::from(sweep.reclaimed));
    counters.add("slabs_reclaimed", slabs_reclaimed);
    if children.kills_fired > 0 {
        counters.add("fault_kill", children.kills_fired);
    }
    let (sent, delivered, dropped) = children.ledger();
    let report = monitor.report(
        verdict,
        Books {
            sent,
            delivered,
            dropped,
            faults_fired: ctl.faults_fired.load(Ordering::Relaxed),
            arenas: world.arenas.iter().map(SegArena::audit).collect(),
            losses: children.exits.iter().map(ProcessExit::to_string).collect(),
            process_exits: children.exits.clone(),
            inflight_ring_envelopes: children.ring_occupancy(),
            ..books
        },
    );
    drop(marker);
    report
}
