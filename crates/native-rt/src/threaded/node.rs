//! The node-leader tier: cross-node re-aggregation over a pluggable wire.
//!
//! When a run spans more than one cluster node and a transport is
//! configured, each node gains one *leader* thread alongside its workers.
//! Workers keep the intra-node mesh exactly as before; a message whose
//! receiving worker lives on another node ships by the same fill rule as
//! any other — one slab of the sender's arena, or inline singles under NoAgg
//! or from a dry arena — but its envelope goes up a per-worker SPSC uplink
//! to the local leader instead of onto the mesh.  The leader reads each slab
//! in place, hands it back to its owner's arena, re-aggregates the items per
//! destination *node* — the same economics as the WsP grouping pass, one
//! tier up — seals them into framed batches, and ships them over the
//! [`transport::Transport`] wire.  The receiving leader dedups redelivery,
//! queues the items per destination worker, and feeds its workers over
//! per-worker SPSC downlinks: one slab of the node's own *leader arena*
//! (`Shared::arenas[workers + node]`) of at most `buffer_items` items per
//! envelope, while the downlink has room and the arena a free slab —
//! otherwise the items wait in the queue (NoAgg: no arena, inline singles).
//! Uplinks and downlinks carry the mesh's `Envelope`s, so a worker drains
//! its downlink as one more source ring and the last consumer of a leader
//! slab releases it like any other.
//!
//! Failure is the design center, not an afterthought:
//!
//! * every `Batch` frame carries a per-link sequence number and stays in a
//!   resend buffer until the peer's cumulative ack retires it; acks are
//!   delayed — a receiver sends each peer at most one per [`ACK_DELAY`],
//!   covering everything it accepted meanwhile — and a replay is re-acked
//!   at once;
//! * retransmission runs on [`transport::Backoff`] — bounded exponential
//!   with seeded jitter, so the retry schedule is a pure function of the
//!   run seed — and an exhausted budget cuts the link;
//! * [`transport::FailureDetector`] heartbeats turn a silent peer into a
//!   cut link in bounded time;
//! * wire faults ([`transport::WireFaultInjector`], armed from the run's
//!   `FaultPlan`) fire at exact batch-send counts: drop/delay/duplicate
//!   recover through retransmit + dedup, disconnect/partition kill links.
//!
//! **Settlement.**  A cut link must not wedge the run: the conservation
//! invariant `sent == delivered + dropped` extends across nodes by having
//! the *sending* side adopt in-flight traffic into the drop ledger.  Each
//! directed link tracks `items_accepted` (bumped by the receiver for every
//! dedup-accepted frame, before any of those items can be delivered).  On a
//! cut, the receiver first acknowledges it has stopped accepting
//! (`cut_seen`), then the sender charges `items framed − items accepted`
//! plus everything still staged into the node drop ledger — items the
//! receiver accepted will be delivered by its workers, every other item is
//! accounted dropped, and the two sets cannot overlap.  Post-cut uplink
//! traffic toward the dead peer goes straight to the ledger.  The monitor's
//! quiescence check reads the node ledger alongside the per-worker ones,
//! so a partitioned run settles instead of hanging.
//!
//! **Who pumps.**  One iteration of the leader's work — drain the uplinks,
//! seal and send frames, drain the wire, retransmit, heartbeat, feed the
//! downlinks — is [`Leader::pump`], and the leader's state sits in the
//! [`NodePlane`] behind a per-node mutex so that more than one thread can run
//! it.  Whoever holds that mutex is the leader arena's one claimer and the
//! uplinks' and downlinks' one consumer and producer; the mutex orders
//! successive holders.  A mesh worker that ends a quantum having moved
//! nothing inbound pumps its own node once ([`Helper::help`]: `try_lock`,
//! never blocks), so what the quantum just shipped leaves with it instead of
//! waiting for a napping thread to wake.  The leader thread runs the same
//! pump on a 20 µs nap and is the backstop: it alone covers workers that are
//! asleep, stuck in handlers, saturated by intra-node traffic or
//! quarantined, and it stands down (parks) only while some local worker is
//! awake *and* pumping.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use net_model::WorkerId;
use runtime_api::{FaultKind, FaultPlan, FaultTrigger, LinkReport, NodeDiag, Payload};
use shmem::SpscRing;
use tramlib::{Item, MessageDest};
use transport::{
    Backoff, FailureDetector, Frame, FrameKind, HeartbeatConfig, ReplayGuard, SendVerdict,
    Transport, WireFault, WireFaultInjector, WireFaultKind, SEND_RETRY_BASE_NS,
};

use super::Shared;
use crate::envelope::{consume_range, Envelope};
use crate::sizing::INBOX_BUDGET;

/// Max items per outbound batch frame — far below the protocol's
/// `MAX_ITEMS_PER_FRAME`, chosen so one frame stays well under the loopback
/// socket buffer and a retransmit never resends megabytes.
const FRAME_ITEMS: usize = 4096;

/// Frames drained from the wire per leader iteration, so one chatty peer
/// cannot starve the uplink drain or the retransmit timers.
const RECV_BUDGET: usize = 256;

/// How long a settling sender waits for the receiving side to acknowledge a
/// cut (`cut_seen`) before charging in-flight items anyway.  The receiver
/// polls its cut flags every pump (microseconds), so this only bounds the
/// pathological case of a peer leader that is itself dead.
const CUT_SEEN_DEADLINE: Duration = Duration::from_millis(50);

/// The per-link ack clock: a leader sends each peer at most one standalone
/// cumulative `Ack` per this interval, and the first one owed after a quiet
/// spell at once.  A standalone ack costs a frame — a `write()` on a socket —
/// whatever it carries, and with a pump per worker quantum a busy link
/// accepts a batch every few microseconds; one ack per pump made acks almost
/// half the frames on the wire.  Derived from the retransmit schedule, not
/// tuned: the first retransmit of a frame waits at least half of
/// [`SEND_RETRY_BASE_NS`], and this stays 10× below that, so a delayed ack
/// never shows up as a loss.  1 ms; `docs/DESIGN.md` §11 has the sweep.
pub const ACK_DELAY: Duration = Duration::from_nanos(SEND_RETRY_BASE_NS / 20);

/// The leader thread's nap after a pump that found nothing to do.
const LEADER_NAP: Duration = Duration::from_micros(20);

/// How long the leader thread parks per stand-down before it looks again.
/// Nothing waits on this while workers pump (they run the whole pump,
/// heartbeats and retransmits included) and the last worker to nap unparks
/// the leader at once; it only bounds how long a node whose workers stopped
/// helping *without* napping goes unpumped, once per such transition.
const STAND_DOWN: Duration = Duration::from_millis(1);

/// Control block of one *directed* inter-node link.
#[derive(Default)]
pub(crate) struct LinkCtl {
    /// The link is dead: the receiver must stop accepting and the sender
    /// must settle.  Set by either side's leader, observed by both.
    cut: AtomicBool,
    /// Receiver-side acknowledgement that the cut has been observed and no
    /// further frame will be accepted; unblocks the sender's settlement.
    cut_seen: AtomicBool,
    /// Items the receiving leader has dedup-accepted on this link.  Final
    /// once `cut_seen` is set.
    items_accepted: AtomicU64,
}

/// One node's leader state and the hand-off signals around it.
struct LeaderPost {
    /// `None` until the leader thread has opened the links, and again once
    /// it has taken the state back for teardown: helping is only possible in
    /// between.
    leader: Mutex<Option<Leader>>,
    /// Mesh workers of this node inside their scheduling loop and not in an
    /// idle nap.  Only a hint for the leader thread's choice of sleep — it
    /// publishes no data, and `unpark` carries the wake-up — so `Relaxed`.
    awake: AtomicU32,
    /// The leader thread, for `unpark`.
    thread: OnceLock<Thread>,
}

impl LeaderPost {
    fn lock(&self) -> MutexGuard<'_, Option<Leader>> {
        // A poisoned post means a thread panicked mid-pump.  Every frame and
        // item the pump had taken is still in one of the leader's queues, so
        // recover the state rather than cascading the panic through the
        // leader thread (as `SimTransport::lock` does for its links).
        self.leader.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn unpark(&self) {
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }
}

/// The node tier's data plane, shared by workers and leaders.
pub(crate) struct NodePlane {
    nodes: u32,
    /// `uplink[w]`: envelopes of worker `w`'s cross-node messages, to its
    /// node's leader.  Producer: worker `w`; consumer: whoever holds its
    /// node's leader lock.
    pub(crate) uplink: Vec<SpscRing<Envelope>>,
    /// `downlink[w]`: worker-addressed envelopes from `w`'s node leader to
    /// `w`.  Producer: whoever holds the node's leader lock; consumer:
    /// worker `w`.
    pub(crate) downlink: Vec<SpscRing<Envelope>>,
    /// Directed link control blocks, indexed `src * nodes + dst`.
    links: Vec<LinkCtl>,
    /// Per-node drop ledgers (leader-owned writes); the monitor's
    /// conservation sum reads them alongside the per-worker ledgers.
    node_dropped: Vec<CachePadded<AtomicU64>>,
    /// Per-node leader state, indexed by node.
    posts: Vec<CachePadded<LeaderPost>>,
}

impl NodePlane {
    /// The plane of `nodes` nodes and `workers` workers, with uplinks and
    /// downlinks `ring_capacity` envelopes deep.
    pub(crate) fn new(nodes: u32, workers: usize, ring_capacity: usize) -> Self {
        let n = nodes as usize;
        let rings = || (0..workers).map(|_| SpscRing::new(ring_capacity)).collect();
        NodePlane {
            nodes,
            uplink: rings(),
            downlink: rings(),
            links: (0..n * n).map(|_| LinkCtl::default()).collect(),
            node_dropped: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            posts: (0..n)
                .map(|_| {
                    CachePadded::new(LeaderPost {
                        leader: Mutex::new(None),
                        awake: AtomicU32::new(0),
                        thread: OnceLock::new(),
                    })
                })
                .collect(),
        }
    }

    /// Register a mesh worker of `node` as awake; the handle is how it pumps
    /// its leader and naps.
    pub(crate) fn helper(&self, node: u32) -> Helper<'_> {
        let post = &self.posts[node as usize];
        post.awake.fetch_add(1, Ordering::Relaxed);
        Helper { post }
    }

    /// Wake every parked leader thread: the monitor calls this after raising
    /// `stop`, so teardown never waits out a stand-down.
    pub(crate) fn unpark_leaders(&self) {
        for post in &self.posts {
            post.unpark();
        }
    }

    /// The control block of the directed link `src → dst`.
    pub(crate) fn link(&self, src: u32, dst: u32) -> &LinkCtl {
        &self.links[(src * self.nodes + dst) as usize]
    }

    /// Whether the directed link `src → dst` has been cut — workers use
    /// this to divert post-cut cross-node traffic straight to the ledger.
    pub(crate) fn link_cut(&self, src: u32, dst: u32) -> bool {
        self.link(src, dst).cut.load(Ordering::Acquire)
    }

    /// Charge `n` items to `node`'s share of the drop ledger.
    pub(crate) fn charge_dropped(&self, node: u32, n: u64) {
        if n > 0 {
            self.node_dropped[node as usize].fetch_add(n, Ordering::AcqRel);
        }
    }

    /// Sum of the per-node drop ledgers (Acquire loads).
    pub(crate) fn dropped_sum(&self) -> u64 {
        self.node_dropped
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }
}

/// An awake mesh worker's handle on its node's leader.  Dropping it (loop
/// exit, or the unwind into quarantine) takes the worker off the awake count.
pub(crate) struct Helper<'a> {
    post: &'a LeaderPost,
}

impl Helper<'_> {
    /// Pump the node's leader once unless somebody else is pumping it right
    /// now.  Never blocks.  Returns whether the pump moved anything.
    pub(crate) fn help(&self, shared: &Shared) -> bool {
        let mut slot = match self.post.leader.try_lock() {
            Ok(slot) => slot,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        let Some(leader) = slot.as_mut() else {
            return false;
        };
        leader.diag.pumps_by_worker += 1;
        leader.pump(shared, Instant::now())
    }

    /// An idle nap.  The worker is off the awake count for its duration.
    pub(crate) fn nap(&self, nap: Duration) {
        self.leave();
        std::thread::sleep(nap);
        self.post.awake.fetch_add(1, Ordering::Relaxed);
    }

    /// The last worker to leave hands the node back to the leader thread.
    fn leave(&self) {
        if self.post.awake.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.post.unpark();
        }
    }
}

impl Drop for Helper<'_> {
    fn drop(&mut self) {
        self.leave();
    }
}

/// What a pump borrows for its duration: the leader's state lives inside the
/// plane, so it cannot hold these itself.
#[derive(Clone, Copy)]
struct Cx<'a> {
    shared: &'a Shared,
    plane: &'a NodePlane,
}

impl<'a> Cx<'a> {
    fn of(shared: &'a Shared) -> Self {
        Cx {
            shared,
            plane: shared
                .node_plane
                .as_ref()
                .expect("leader without a node plane"),
        }
    }
}

/// Per-peer connection state inside one leader.
struct PeerState {
    /// Next `Batch` sequence to assign (1-based; 0 is reserved).
    next_seq: u64,
    /// Unacked first-transmission frames by sequence (the resend buffer).
    unacked: BTreeMap<u64, Frame>,
    /// Unique items framed toward this peer (first transmissions only).
    framed_items: u64,
    /// Items staged toward this peer, not yet framed.
    staging: Vec<transport::WireItem>,
    /// Retransmission schedule; reset on ack progress.
    backoff: Backoff,
    /// When the oldest unacked frame times out (None = nothing in flight).
    rto_at: Option<Instant>,
    /// Inbound accept-once sequence filter (and cumulative-ack source).
    replay: ReplayGuard,
    /// An accepted batch awaits its cumulative ack, which the ack clock
    /// sends at most once per [`ACK_DELAY`] ([`Leader::pump_acks`]).
    ack_due: bool,
    /// When this leader last sent the peer a standalone ack (None = never):
    /// the ack clock's reference point.
    acked_at: Option<Instant>,
    /// Outbound cut observed, ledger not settled yet: settle once the
    /// receiver acknowledges the cut, or at this deadline.
    settle_by: Option<Instant>,
    /// The sending side has settled this link's ledger after a cut.
    settled: bool,
    /// The peer announced a graceful shutdown (`Bye`): socket errors from it
    /// are expected teardown, not a link failure.
    bye: bool,
    /// Why the link died, first cause wins (None while up).
    cut_cause: Option<String>,
}

impl PeerState {
    fn new(seed: u64, node: u32, peer: u32) -> Self {
        PeerState {
            next_seq: 1,
            unacked: BTreeMap::new(),
            framed_items: 0,
            staging: Vec::new(),
            // Per-link jitter stream: peers that fail together still retry
            // apart, and the whole schedule stays a function of the seed.
            backoff: Backoff::send_default(seed ^ (((node as u64) << 32) | peer as u64)),
            rto_at: None,
            replay: ReplayGuard::new(),
            ack_due: false,
            acked_at: None,
            settle_by: None,
            settled: false,
            bye: false,
            cut_cause: None,
        }
    }
}

/// One node's wire state.  Whoever holds the node's [`LeaderPost`] lock runs
/// it: the leader thread, or a local worker helping.
struct Leader {
    node: u32,
    nodes: u32,
    session: u64,
    transport: Box<dyn Transport>,
    injector: WireFaultInjector,
    detector: FailureDetector,
    hb: HeartbeatConfig,
    peers: Vec<Option<PeerState>>,
    /// Global worker indices living on this node.
    my_workers: Vec<usize>,
    /// Per-worker FIFOs (indexed by global worker id, filled only for this
    /// node's workers) of accepted items waiting for downlink room and a
    /// free slab of the leader arena.
    pending_down: Vec<VecDeque<Item<Payload>>>,
    /// This leader's index in `Shared::arenas` (`workers + node`); the arena
    /// exists under every scheme but NoAgg.
    arena_owner: u32,
    /// Reused batch of one uplink's envelopes, popped at most
    /// [`INBOX_BUDGET`] at a time ([`Leader::drain_uplinks`]).
    uplink_batch: Vec<Envelope>,
    /// Frames held by a delay fault: (release deadline, destination, frame).
    delayed: Vec<(Instant, u32, Frame)>,
    /// When the previous pump ran — a large gap means every thread that
    /// pumps this node was descheduled (oversubscribed host), and any peer
    /// silence measured across it is our starvation, not theirs.
    last_iter: Instant,
    next_heartbeat: Instant,
    diag: NodeDiag,
}

/// Compile the run's net faults targeting `node` into wire-fault arms.
fn compile_wire_faults(shared: &Shared, node: u32) -> Vec<WireFault> {
    let Some(plan) = shared.faults.as_ref() else {
        return Vec::new();
    };
    plan.for_node(node)
        .map(|spec| {
            let at_send = match spec.trigger {
                FaultTrigger::Sends(k) => k,
                // The `--fault` grammar only builds net faults with send
                // triggers; anything else is a construction bug.
                other => unreachable!("net fault with non-send trigger {other:?}"),
            };
            let kind = match spec.kind {
                FaultKind::NetDrop => WireFaultKind::Drop,
                FaultKind::NetDelay { micros } => WireFaultKind::Delay {
                    micros: micros as u64,
                },
                FaultKind::NetDuplicate => WireFaultKind::Duplicate,
                FaultKind::NetDisconnect => WireFaultKind::Disconnect,
                FaultKind::NetPartition => WireFaultKind::Partition,
                other => unreachable!("worker fault {other:?} routed to a leader"),
            };
            WireFault { kind, at_send }
        })
        .collect()
}

/// Run one node's leader thread until the monitor raises `stop`: build the
/// node's wire state, open the links, post the state where local workers can
/// pump it too, and keep pumping it as the backstop.  Returns the node's
/// transport diagnostics for the run report.
pub(crate) fn leader_main(shared: &Shared, node: u32, transport: Box<dyn Transport>) -> NodeDiag {
    let cx = Cx::of(shared);
    let post = &cx.plane.posts[node as usize];
    post.thread
        .set(std::thread::current())
        .expect("one leader thread per node");
    let mut leader = Leader::new(cx, node, transport);
    // Open every link so peers' detectors hear us before any data flows.
    for peer in leader.others() {
        let hello = Frame::control(FrameKind::Hello, leader.session, node, peer, 0);
        leader.wire_send(cx, peer, &hello);
    }
    *post.lock() = Some(leader);

    let mut standdowns = 0u64;
    let mut helped_seen = 0u64;
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        let (did_work, helped) = {
            let mut slot = post.lock();
            let leader = slot.as_mut().expect("posted above, taken only below");
            leader.diag.pumps_by_leader += 1;
            (
                leader.pump(shared, Instant::now()),
                leader.diag.pumps_by_worker,
            )
        };
        if stopping {
            break;
        }
        match leader_next(
            did_work,
            helped,
            helped_seen,
            post.awake.load(Ordering::Relaxed),
        ) {
            LeaderNext::Pump => continue,
            LeaderNext::StandDown => {
                standdowns += 1;
                std::thread::park_timeout(STAND_DOWN);
            }
            LeaderNext::Nap => std::thread::sleep(LEADER_NAP),
        }
        helped_seen = helped;
    }
    let mut leader = post.lock().take().expect("posted above, taken only here");
    leader.diag.leader_standdowns = standdowns;
    leader.finish(cx)
}

/// What the leader thread does after one pump.
#[derive(Debug, PartialEq, Eq)]
enum LeaderNext {
    /// The pump moved something: pump again at once.
    Pump,
    /// Park for up to [`STAND_DOWN`]: a worker carries the wire.
    StandDown,
    /// Sleep for [`LEADER_NAP`].
    Nap,
}

/// The leader thread's stand-down rule, from the pump's `did_work`, the
/// node's count of worker pumps now (`helped`) and when the thread last
/// looked (`helped_seen`), and how many local workers are `awake`.  Stand
/// down only while a local worker is awake *and* has pumped since the last
/// look.  Awake workers that do not help (handlers, intra-node saturation)
/// keep the nap cadence; the last one to nap, and the monitor raising
/// `stop`, unpark the thread.
fn leader_next(did_work: bool, helped: u64, helped_seen: u64, awake: u32) -> LeaderNext {
    if did_work {
        LeaderNext::Pump
    } else if helped != helped_seen && awake > 0 {
        LeaderNext::StandDown
    } else {
        LeaderNext::Nap
    }
}

/// The abort reason of a run whose node tier cut a link, from the leaders'
/// final reports; `None` while every link stayed up.  The run settled on
/// exact books but did not complete.  The reason comes from the fault plan
/// (plan order), not from which leader noticed first, so it is identical
/// across runs of one seed even though cut propagation is racy.
pub(crate) fn wire_cut_reason(reports: &[NodeDiag], faults: Option<&FaultPlan>) -> Option<String> {
    let cuts = || {
        reports
            .iter()
            .flat_map(|d| d.links.iter().filter(|l| !l.up).map(move |l| (d.node, l)))
    };
    cuts().next()?;
    let planned = |kind: FaultKind| {
        faults.and_then(|plan| plan.iter().find(|s| s.kind == kind).map(|s| s.worker))
    };
    // No planned cut (a real peer death or exhausted retransmit budget):
    // prefer the initiating side's concrete cause over the other side's
    // generic "peer cut" echo, each first in node/peer order.
    let cause = |concrete: bool| {
        cuts().find_map(|(node, l)| {
            let cause = l.cause.as_deref()?;
            (!concrete || cause != "peer cut").then_some((node, l.peer, cause))
        })
    };
    Some(if let Some(node) = planned(FaultKind::NetPartition) {
        format!("wire partition: node {node} isolated")
    } else if let Some(node) = planned(FaultKind::NetDisconnect) {
        format!("wire disconnect: node {node} link cut")
    } else if let Some((node, peer, cause)) = cause(true).or_else(|| cause(false)) {
        format!("wire failure: node {node} link to node {peer} cut ({cause})")
    } else {
        // Leaders name a cause for every cut link they report.
        "wire failure: link cut".to_string()
    })
}

impl Leader {
    fn new(cx: Cx<'_>, node: u32, transport: Box<dyn Transport>) -> Self {
        let shared = cx.shared;
        let nodes = cx.plane.nodes;
        let topo = &shared.topo;
        let workers_total = topo.total_workers() as usize;
        let hb = HeartbeatConfig::default();
        let now = Instant::now();
        let mut detector = FailureDetector::new(hb, nodes as usize, now);
        // Our own slot never heartbeats; keep the detector from "discovering" it.
        detector.mark_dead(node as usize);
        Leader {
            node,
            nodes,
            session: shared.seed,
            injector: WireFaultInjector::new(compile_wire_faults(shared, node)),
            detector,
            hb,
            peers: (0..nodes)
                .map(|p| (p != node).then(|| PeerState::new(shared.seed, node, p)))
                .collect(),
            my_workers: (0..workers_total)
                .filter(|&w| topo.node_of_worker(WorkerId(w as u32)).0 == node)
                .collect(),
            pending_down: (0..workers_total).map(|_| VecDeque::new()).collect(),
            arena_owner: workers_total as u32 + node,
            uplink_batch: Vec::with_capacity(INBOX_BUDGET),
            delayed: Vec::new(),
            last_iter: now,
            next_heartbeat: now + hb.interval,
            diag: NodeDiag {
                node,
                transport: transport.label().to_string(),
                ..NodeDiag::default()
            },
            transport,
        }
    }

    /// Every node but this one.  Owns its bounds, so a loop over it can
    /// still borrow `self` mutably.
    fn others(&self) -> impl Iterator<Item = u32> {
        let node = self.node;
        (0..self.nodes).filter(move |&p| p != node)
    }

    /// Put a frame on the wire unless this node is partitioned (an isolated
    /// node's NIC is unplugged: nothing leaves, heartbeats included).  A
    /// transport error cuts the link.  Returns whether the frame was sent.
    fn wire_send(&mut self, cx: Cx<'_>, dst: u32, frame: &Frame) -> bool {
        if self.injector.partitioned() || cx.plane.link_cut(self.node, dst) {
            return false;
        }
        match self.transport.send(dst, frame) {
            Ok(()) => {
                self.diag.frames_sent += 1;
                true
            }
            Err(e) => {
                let peer = e.peer();
                if self.expected_teardown(cx, peer) {
                    self.transport.close_peer(peer);
                } else {
                    self.cut_link(cx, peer, "peer closed");
                }
                false
            }
        }
    }

    /// Whether a socket error from `peer` is normal teardown — the run is
    /// stopping (peers drop their sockets as they exit) or the peer said
    /// `Bye` — rather than a mid-run link failure.  `stop` is read from the
    /// shared flag at the moment of the error: a peer that observed `stop`
    /// first can drop its socket while we are mid-pump, and that close must
    /// not be misread as a link failure.
    fn expected_teardown(&self, cx: Cx<'_>, peer: u32) -> bool {
        cx.shared.stop.load(Ordering::Acquire)
            || self
                .peers
                .get(peer as usize)
                .and_then(Option::as_ref)
                .is_some_and(|s| s.bye)
    }

    /// Sever both directions of the link to `peer`: record the cause, mark
    /// the peer dead, close the socket.  Settlement happens on the next
    /// poll of the cut flags (the sending direction charges the ledger).
    fn cut_link(&mut self, cx: Cx<'_>, peer: u32, cause: &str) {
        if peer == self.node || peer >= self.nodes {
            return;
        }
        cx.plane
            .link(self.node, peer)
            .cut
            .store(true, Ordering::Release);
        cx.plane
            .link(peer, self.node)
            .cut
            .store(true, Ordering::Release);
        if let Some(state) = self.peers[peer as usize].as_mut() {
            if state.cut_cause.is_none() {
                state.cut_cause = Some(cause.to_string());
            }
        }
        self.detector.mark_dead(peer as usize);
        self.transport.close_peer(peer);
    }

    /// Sender-side settlement of a cut link: once the receiver has stopped
    /// accepting (or [`CUT_SEEN_DEADLINE`] after the cut was first seen
    /// here), charge everything it did not accept.  Until then the pump
    /// carries on — a cut blocks neither heartbeats, receives nor a helping
    /// worker — and every later pump asks again.  See the module docs for
    /// why the accounting is exact.
    fn settle_sender(&mut self, cx: Cx<'_>, peer: u32, now: Instant) {
        let state = self.peers[peer as usize]
            .as_mut()
            .expect("settling a link to self");
        let out = cx.plane.link(self.node, peer);
        let by = *state.settle_by.get_or_insert(now + CUT_SEEN_DEADLINE);
        if !out.cut_seen.load(Ordering::Acquire) && now < by {
            return;
        }
        state.settled = true;
        let accepted = out.items_accepted.load(Ordering::Acquire);
        let in_flight = state.framed_items.saturating_sub(accepted);
        let staged = state.staging.len() as u64;
        state.staging.clear();
        state.staging.shrink_to_fit();
        state.unacked.clear();
        state.rto_at = None;
        let lost = in_flight + staged;
        cx.plane.charge_dropped(self.node, lost);
        self.diag.items_dropped += lost;
    }

    /// Observe the shared cut flags: acknowledge inbound cuts (receiver
    /// side) and settle outbound ones (sender side).  Either leader may
    /// have initiated the cut; both sides converge here.
    fn poll_cuts(&mut self, cx: Cx<'_>, now: Instant) {
        for peer in self.others() {
            let inbound = cx.plane.link(peer, self.node);
            if inbound.cut.load(Ordering::Acquire) && !inbound.cut_seen.load(Ordering::Acquire) {
                // From here on the recv path refuses this link's frames, so
                // `items_accepted` is final for the sender to read.
                inbound.cut_seen.store(true, Ordering::Release);
                if let Some(state) = self.peers[peer as usize].as_mut() {
                    if state.cut_cause.is_none() {
                        state.cut_cause = Some("peer cut".to_string());
                    }
                }
                self.detector.mark_dead(peer as usize);
            }
            let outbound_cut = cx.plane.link_cut(self.node, peer);
            let unsettled = self.peers[peer as usize]
                .as_ref()
                .is_some_and(|s| !s.settled);
            if outbound_cut && unsettled {
                self.settle_sender(cx, peer, now);
            }
        }
    }

    /// Drain local workers' uplinks into the per-peer staging: one batched
    /// pop of at most [`INBOX_BUDGET`] envelopes per uplink per pump, the
    /// mesh's own budget.  A worker that keeps its uplink busy therefore
    /// cannot hold the leader here or grow the staging without bound: what
    /// the budget leaves queued fills the uplink, and the worker's
    /// `wire_stash` throttle pushes back on its application.  The leader is
    /// a slab's one consumer: it reads the items in place, then finishes the
    /// slab, which goes straight back to the sending worker's arena.
    fn drain_uplinks(&mut self, cx: Cx<'_>) -> bool {
        let mut did_work = false;
        let mut batch = std::mem::take(&mut self.uplink_batch);
        for wi in 0..self.my_workers.len() {
            let w = self.my_workers[wi];
            if cx.plane.uplink[w].pop_into(&mut batch, INBOX_BUDGET) == 0 {
                continue;
            }
            did_work = true;
            for envelope in batch.drain(..) {
                if let Envelope::Single(item) = envelope {
                    self.stage(cx, &[item]);
                } else if let Some((owner, range)) = envelope.slab_range() {
                    let arena = &cx.shared.arenas[owner];
                    consume_range(arena, range, |items| self.stage(cx, items));
                }
            }
        }
        self.uplink_batch = batch;
        did_work
    }

    /// Stage uplink items per destination node; post-cut traffic goes
    /// straight to the ledger.
    fn stage(&mut self, cx: Cx<'_>, items: &[Item<Payload>]) {
        for item in items {
            let dst_node = cx.shared.topo.node_of_worker(item.dest).0;
            debug_assert_ne!(dst_node, self.node, "intra-node item on the uplink");
            if cx.plane.link_cut(self.node, dst_node) {
                cx.plane.charge_dropped(self.node, 1);
                self.diag.items_dropped += 1;
                continue;
            }
            let state = self.peers[dst_node as usize]
                .as_mut()
                .expect("uplink item addressed to own node");
            state.staging.push(transport::WireItem {
                dest: item.dest.0 as u64,
                a: item.data.a,
                b: item.data.b,
                created_at_ns: item.created_at_ns,
            });
        }
    }

    /// Seal staged items into frames and send them (first transmission:
    /// through the fault injector, into the resend buffer).  One flush cuts
    /// every frame of a peer's staging in order, copying each item once,
    /// and leaves the staging empty with its capacity kept for the next.
    fn flush_staging(&mut self, cx: Cx<'_>) -> bool {
        let mut did_work = false;
        for peer in self.others() {
            if cx.plane.link_cut(self.node, peer) {
                continue;
            }
            let Some(state) = self.peers[peer as usize].as_mut() else {
                continue;
            };
            let mut staged = std::mem::take(&mut state.staging);
            for chunk in staged.chunks(FRAME_ITEMS) {
                let state = self.peers[peer as usize].as_mut().expect("peer state");
                let seq = state.next_seq;
                state.next_seq += 1;
                state.framed_items += chunk.len() as u64;
                self.diag.items_shipped += chunk.len() as u64;
                let frame = Frame {
                    kind: FrameKind::Batch,
                    session: self.session,
                    src: self.node,
                    dst: peer,
                    seq,
                    items: chunk.to_vec(),
                };
                did_work = true;
                self.send_first_time(cx, peer, &frame);
                // Into the resend buffer only now, by move: the wire took
                // the frame by reference, so the fast path copies no items.
                self.peers[peer as usize]
                    .as_mut()
                    .expect("peer state")
                    .unacked
                    .insert(seq, frame);
                self.arm_rto(cx, peer);
            }
            staged.clear();
            self.peers[peer as usize]
                .as_mut()
                .expect("peer state")
                .staging = staged;
        }
        did_work
    }

    /// First transmission of a batch frame: ask the injector for a verdict
    /// (the caller files the frame in the resend buffer and arms the
    /// retransmit timer).  Retransmits bypass the injector (a dropped frame
    /// must not be dropped forever) — except under partition, which
    /// [`Leader::wire_send`] latches for *all* traffic.
    fn send_first_time(&mut self, cx: Cx<'_>, peer: u32, frame: &Frame) {
        let verdict = self.injector.on_batch_send();
        if !matches!(verdict, SendVerdict::Deliver) {
            self.diag.wire_faults_fired = self.injector.fired();
        }
        match verdict {
            SendVerdict::Deliver => {
                self.wire_send(cx, peer, frame);
            }
            // The frame stays in the resend buffer; the ack timeout
            // retransmits it.
            SendVerdict::Drop => {}
            // The one verdict that needs a second owner of the items.
            SendVerdict::Delay { micros } => {
                let at = Instant::now() + Duration::from_micros(micros);
                self.delayed.push((at, peer, frame.clone()));
            }
            SendVerdict::Duplicate => {
                self.wire_send(cx, peer, frame);
                self.wire_send(cx, peer, frame);
            }
            SendVerdict::Disconnect => {
                self.cut_link(cx, peer, "disconnect fault");
            }
            SendVerdict::Partition => {
                // The injector latched: every subsequent send and receive is
                // discarded.  Peers find out via heartbeat timeout; our own
                // links cut the same way, so record the honest cause now.
                for p in self.others() {
                    self.cut_link(cx, p, "partition fault");
                }
            }
        }
    }

    /// Ensure a retransmit deadline is armed while frames are in flight.
    fn arm_rto(&mut self, cx: Cx<'_>, peer: u32) {
        let now = Instant::now();
        let alive = self
            .detector
            .heard_within(peer as usize, now, self.hb.timeout);
        if let Some(state) = self.peers[peer as usize].as_mut() {
            if state.rto_at.is_none() && !state.unacked.is_empty() {
                match state.backoff.next_delay() {
                    Some(delay_ns) => {
                        state.rto_at = Some(now + Duration::from_nanos(delay_ns));
                    }
                    // Exhausted budget but the peer is demonstrably alive
                    // (its frames keep arriving): the acks are slow, not the
                    // link dead — restart the schedule and keep retrying.
                    // Silence is left to the heartbeat detector to judge.
                    None if alive => {
                        state.backoff.reset();
                        if let Some(delay_ns) = state.backoff.next_delay() {
                            state.rto_at = Some(now + Duration::from_nanos(delay_ns));
                        }
                    }
                    None => self.cut_link(cx, peer, "retransmit budget exhausted"),
                }
            }
        }
    }

    /// Release delay-faulted frames whose hold expired.
    fn pump_delayed(&mut self, cx: Cx<'_>, now: Instant) -> bool {
        let mut did_work = false;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, dst, frame) = self.delayed.swap_remove(i);
                self.wire_send(cx, dst, &frame);
                did_work = true;
            } else {
                i += 1;
            }
        }
        did_work
    }

    /// Drain the wire (bounded) and process each frame.  Accepted batches
    /// are acknowledged by the ack clock ([`Leader::pump_acks`]), not here.
    fn pump_recv(&mut self, cx: Cx<'_>, now: Instant) -> bool {
        let mut did_work = false;
        for _ in 0..RECV_BUDGET {
            match self.transport.try_recv() {
                Ok(Some(frame)) => {
                    did_work = true;
                    // A partitioned node's inbound traffic vanishes too; the
                    // socket is still drained so peers' bounded writes never
                    // wedge while they wait out their heartbeat timeout.
                    if self.injector.partitioned() {
                        continue;
                    }
                    self.handle_frame(cx, frame, now);
                }
                Ok(None) => break,
                Err(e) => {
                    let peer = e.peer();
                    if self.expected_teardown(cx, peer) {
                        self.transport.close_peer(peer);
                    } else if !cx.plane.link_cut(self.node, peer) {
                        let cause = match e {
                            transport::TransportError::Corrupt(..) => "corrupt stream",
                            _ => "peer closed",
                        };
                        self.cut_link(cx, peer, cause);
                    }
                    break;
                }
            }
        }
        did_work
    }

    /// The per-link ack clock, run on every pump: send each peer that is
    /// owed an ack one cumulative `Ack`, unless one went to it less than
    /// [`ACK_DELAY`] ago.  Batches accepted inside that window ride on the
    /// next ack; after a quiet spell the first owed ack goes out at once.
    fn pump_acks(&mut self, cx: Cx<'_>, now: Instant) {
        for peer in self.others() {
            let state = self.peers[peer as usize].as_ref().expect("peer state");
            if state.ack_due && !state.acked_at.is_some_and(|at| now < at + ACK_DELAY) {
                self.send_ack(cx, peer, now);
            }
        }
    }

    /// Acknowledge everything accepted from `peer` so far (the contiguous
    /// prefix) and restart the link's ack clock.
    fn send_ack(&mut self, cx: Cx<'_>, peer: u32, now: Instant) {
        let state = self.peers[peer as usize].as_mut().expect("peer state");
        state.ack_due = false;
        state.acked_at = Some(now);
        let upto = state.replay.contiguous();
        let ack = Frame::control(FrameKind::Ack, self.session, self.node, peer, upto);
        if self.wire_send(cx, peer, &ack) {
            self.diag.acks_sent += 1;
        }
    }

    fn handle_frame(&mut self, cx: Cx<'_>, frame: Frame, now: Instant) {
        let src = frame.src;
        if src == self.node || src >= self.nodes || frame.session != self.session {
            // Stale incarnation or malformed addressing: not our traffic.
            return;
        }
        self.diag.frames_received += 1;
        self.detector.heard(src as usize, now);
        match frame.kind {
            FrameKind::Hello => {
                let ack = Frame::control(FrameKind::HelloAck, self.session, self.node, src, 0);
                self.wire_send(cx, src, &ack);
            }
            // Any frame is liveness; these carry nothing else.
            FrameKind::HelloAck | FrameKind::Heartbeat => {}
            FrameKind::Bye => {
                // Graceful goodbye: no more traffic from this peer, and its
                // socket closing shortly is teardown, not failure.  Marking
                // it dead stops heartbeats without cutting the link.
                if let Some(state) = self.peers[src as usize].as_mut() {
                    state.bye = true;
                }
                self.detector.mark_dead(src as usize);
            }
            FrameKind::Ack => self.handle_ack(cx, src, frame.seq),
            FrameKind::Batch => self.handle_batch(cx, src, frame, now),
        }
    }

    /// Retire resend-buffer frames up to the peer's cumulative ack.
    fn handle_ack(&mut self, cx: Cx<'_>, peer: u32, ack: u64) {
        let Some(state) = self.peers[peer as usize].as_mut() else {
            return;
        };
        let before = state.unacked.len();
        state.unacked = state.unacked.split_off(&(ack + 1));
        if state.unacked.len() < before {
            // Progress: the link is alive, restart the backoff schedule.
            state.backoff.reset();
            state.rto_at = None;
        }
        self.arm_rto(cx, peer);
    }

    /// Accept (or reject as replay) one inbound batch and queue its items
    /// per destination worker for the downlinks.  An accepted batch is
    /// owed an ack, which the ack clock sends cumulatively with every other
    /// batch accepted from that peer within [`ACK_DELAY`]; a replay is
    /// re-acked at once, since its sender is retransmitting for want of
    /// exactly that ack.
    fn handle_batch(&mut self, cx: Cx<'_>, src: u32, frame: Frame, now: Instant) {
        let inbound = cx.plane.link(src, self.node);
        if inbound.cut.load(Ordering::Acquire) {
            // Cut link: the sender settles these items into its ledger, so
            // accepting any here would double-account them.
            return;
        }
        let state = self.peers[src as usize]
            .as_mut()
            .expect("batch from own node");
        if !state.replay.accept(frame.seq) {
            self.diag.duplicates_rejected += 1;
            self.send_ack(cx, src, now);
            return;
        }
        state.ack_due = true;
        inbound
            .items_accepted
            .fetch_add(frame.items.len() as u64, Ordering::AcqRel);
        self.diag.items_received += frame.items.len() as u64;
        // Queue per destination worker — the node tier's grouping pass.
        for wire in &frame.items {
            let dest = WorkerId(wire.dest as u32);
            debug_assert_eq!(
                cx.shared.topo.node_of_worker(dest).0,
                self.node,
                "frame item routed to the wrong node"
            );
            self.pending_down[dest.idx()].push_back(Item::new(
                dest,
                Payload::new(wire.a, wire.b),
                wire.created_at_ns,
            ));
        }
    }

    /// Retransmit unacked frames whose ack timeout expired; an exhausted
    /// backoff budget declares the link dead.
    fn pump_retransmits(&mut self, cx: Cx<'_>, now: Instant) {
        for peer in self.others() {
            if cx.plane.link_cut(self.node, peer) {
                continue;
            }
            let state = self.peers[peer as usize].as_mut().expect("peer state");
            if !state.rto_at.is_some_and(|at| now >= at) {
                continue;
            }
            state.rto_at = None;
            if state.unacked.is_empty() {
                continue;
            }
            let next = state.backoff.next_delay();
            // Lend the resend buffer out for the sends (they borrow `self`)
            // instead of cloning every frame in it.
            let unacked = std::mem::take(&mut state.unacked);
            self.diag.retransmits += unacked.len() as u64;
            for frame in unacked.values() {
                self.wire_send(cx, peer, frame);
            }
            let alive = self
                .detector
                .heard_within(peer as usize, now, self.hb.timeout);
            let state = self.peers[peer as usize].as_mut().expect("peer state");
            state.unacked = unacked;
            match next {
                Some(delay_ns) => state.rto_at = Some(now + Duration::from_nanos(delay_ns)),
                // Same liveness gate as `arm_rto`: a peer whose frames keep
                // arriving is alive, so slow acks restart the schedule; only
                // silence (judged by the heartbeat detector) cuts the link.
                None if alive => {
                    state.backoff.reset();
                    if let Some(delay_ns) = state.backoff.next_delay() {
                        state.rto_at = Some(now + Duration::from_nanos(delay_ns));
                    }
                }
                None => self.cut_link(cx, peer, "retransmit budget exhausted"),
            }
        }
    }

    /// Ship queued items down to local workers, front first: while a
    /// worker's downlink has room, one slab of the leader arena holding up
    /// to `buffer_items` of its items (NoAgg: one inline single).  A full
    /// downlink or a dry arena leaves the items queued, in order, for a
    /// later pump — backpressure, never a fallback to singles.
    fn pump_downlinks(&mut self, cx: Cx<'_>) -> bool {
        let arena = cx.shared.arenas.get(self.arena_owner as usize);
        let grain = cx.shared.tram.buffer_items;
        let mut did_work = false;
        for &w in &self.my_workers {
            let queue = &mut self.pending_down[w];
            let ring = &cx.plane.downlink[w];
            while !queue.is_empty() && ring.len() < ring.capacity() {
                let envelope = match arena {
                    None => Envelope::Single(queue.pop_front().expect("a queued item")),
                    Some(arena) => {
                        let take = queue.len().min(grain);
                        if queue.as_slices().0.len() < take {
                            queue.make_contiguous();
                        }
                        let Some(handle) = arena.fill(&queue.as_slices().0[..take]) else {
                            break;
                        };
                        queue.drain(..take);
                        Envelope::Slab {
                            owner: self.arena_owner,
                            handle,
                            dest: MessageDest::Worker(WorkerId(w as u32)),
                            grouped_at_source: false,
                        }
                    }
                };
                // The lock holder is the downlink's one producer, so the
                // room seen above cannot shrink.
                ring.push(envelope).expect("downlink room checked");
                did_work = true;
            }
        }
        did_work
    }

    /// One iteration of the node's wire work; see the module docs for who
    /// calls it when.  Returns whether anything moved (items, frames or
    /// batches — timers and heartbeats do not count).
    fn pump(&mut self, shared: &Shared, now: Instant) -> bool {
        let cx = Cx::of(shared);
        if now.duration_since(self.last_iter) >= self.hb.timeout / 4 {
            // Nobody pumped for a sizable slice of the failure window:
            // forgive the silence we could not have observed rather than
            // false-positive a healthy peer dead.
            self.detector.pardon(now);
        }
        self.last_iter = now;
        self.poll_cuts(cx, now);
        let mut did_work = self.drain_uplinks(cx);
        did_work |= self.flush_staging(cx);
        did_work |= self.pump_delayed(cx, now);
        did_work |= self.pump_recv(cx, now);
        self.pump_acks(cx, now);
        self.pump_retransmits(cx, now);
        if now >= self.next_heartbeat {
            for peer in self.others() {
                if !self.detector.is_dead(peer as usize) {
                    let beat =
                        Frame::control(FrameKind::Heartbeat, self.session, self.node, peer, 0);
                    self.wire_send(cx, peer, &beat);
                }
            }
            self.next_heartbeat = now + self.hb.interval;
        }
        for peer in self.detector.scan(now) {
            self.cut_link(cx, peer as u32, "heartbeat timeout");
        }
        did_work |= self.pump_downlinks(cx);
        did_work
    }

    /// Graceful teardown, on the leader thread with the state taken back
    /// from the post: say goodbye, drain, report.
    fn finish(mut self, cx: Cx<'_>) -> NodeDiag {
        // Tell live peers no more batches will follow, then give parked
        // outbox bytes a bounded chance to reach the wire — a `Bye` queued
        // behind bulk data is useless if the socket drops before it ships.
        for peer in self.others() {
            if !self.detector.is_dead(peer as usize) {
                let bye = Frame::control(FrameKind::Bye, self.session, self.node, peer, 0);
                self.wire_send(cx, peer, &bye);
            }
        }
        let drain_deadline = Instant::now() + Duration::from_millis(250);
        while !self.transport.flush_pending() && Instant::now() < drain_deadline {
            // Draining our inbox is what frees the peer to drain ours.
            let _ = self.transport.try_recv();
            std::thread::yield_now();
        }
        // Anything still queued toward local workers at stop is traffic the
        // monitor already settled around (it only stops once conservation
        // holds); on an abort the remote sender has charged it.  Nothing to
        // do but report.
        self.diag.heartbeat_misses = self.detector.total_misses();
        self.diag.modeled_wire_ns = self.transport.modeled_wire_ns();
        self.diag.wire_faults_fired = self.injector.fired();
        self.diag.links = self
            .others()
            .map(|p| {
                let cut = cx.plane.link_cut(self.node, p) || cx.plane.link_cut(p, self.node);
                LinkReport {
                    peer: p,
                    up: !cut,
                    cause: if cut {
                        self.peers[p as usize]
                            .as_ref()
                            .and_then(|s| s.cut_cause.clone())
                            .or_else(|| Some("peer cut".to_string()))
                    } else {
                        None
                    },
                }
            })
            .collect();
        self.diag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing;
    use runtime_api::{ClusterSpec, TransportKind, WorkerApp};
    use tramlib::Scheme;
    use transport::SimTransport;

    #[test]
    fn a_leader_stands_down_only_for_an_awake_worker_that_pumped() {
        // A pump that moved something is followed by another pump,
        // whoever helped.
        assert_eq!(leader_next(true, 9, 3, 1), LeaderNext::Pump);
        // An awake worker that pumped since the last look carries the wire.
        assert_eq!(leader_next(false, 9, 3, 1), LeaderNext::StandDown);
        // Awake but not pumping (a handler, intra-node saturation): nap.
        assert_eq!(leader_next(false, 3, 3, 1), LeaderNext::Nap);
        // Pumps happened, but every worker has gone to sleep since: nap.
        assert_eq!(leader_next(false, 9, 3, 0), LeaderNext::Nap);
    }

    /// A WPs run of 2 nodes × 1 worker with 8-item buffers, over the
    /// simulated wire: its shared state (worker arenas 0 and 1, leader
    /// arenas 2 and 3) with nothing running on it.
    fn two_node_shared() -> Shared {
        let idle = |_: WorkerId| -> Box<dyn WorkerApp> { unreachable!("no worker runs") };
        let spec = crate::threaded::tests::spec(Scheme::WPs, ClusterSpec::smp(2, 1, 1), 8, idle)
            .transport(TransportKind::Sim)
            .seed(9);
        Shared::new(&spec.resolve().expect("a valid spec"), true)
    }

    /// Both nodes' leaders over the in-memory wire, not posted: the test is
    /// the only thread and pumps them by hand, with a clock of its own.
    fn leaders(shared: &Shared) -> (Leader, Leader) {
        let cx = Cx::of(shared);
        let mut wire = SimTransport::mesh(2, net_model::AlphaBeta::loopback()).into_iter();
        let mut leader = |node| Leader::new(cx, node, Box::new(wire.next().expect("two nodes")));
        (leader(0), leader(1))
    }

    /// Worker 0 ships one message of `n` items for worker 1, payloads
    /// `first..first + n`: one slab of its arena up its uplink.
    fn ship(shared: &Shared, first: u64, n: u64) {
        let items: Vec<_> = (first..first + n)
            .map(|i| Item::new(WorkerId(1), Payload::new(i, 0), 0))
            .collect();
        let handle = shared.arenas[0].fill(&items).expect("a free slab");
        let envelope = Envelope::Slab {
            owner: 0,
            handle,
            dest: MessageDest::Worker(WorkerId(1)),
            grouped_at_source: false,
        };
        let plane = Cx::of(shared).plane;
        assert!(plane.uplink[0].push(envelope).is_ok(), "uplink full");
    }

    /// Worker 1 drains its downlink as its mesh loop does: reads every slab
    /// in place and finishes it.  Returns the payloads in arrival order; a
    /// single on the downlink fails the test.
    fn take_downlink(shared: &Shared) -> Vec<u64> {
        let plane = Cx::of(shared).plane;
        let mut payloads = Vec::new();
        while let Some(envelope) = plane.downlink[1].pop() {
            let Envelope::Slab { owner, handle, .. } = envelope else {
                panic!("a single on the downlink: {envelope:?}");
            };
            assert_eq!(owner, 3, "not node 1's leader arena");
            let arena = &shared.arenas[owner as usize];
            consume_range(arena, handle.range(), |items| {
                payloads.extend(items.iter().map(|item| item.data.a));
            });
        }
        payloads
    }

    /// Every arena of the run — both workers', both leaders' — has every
    /// slab back on its free list.
    fn assert_arenas_free(shared: &Shared) {
        assert_eq!(shared.arenas.len(), 4, "two workers and two leaders");
        for (index, arena) in shared.arenas.iter().enumerate() {
            let audit = arena.audit();
            assert_eq!(audit.free, audit.slabs, "arena {index}: {audit:?}");
        }
    }

    #[test]
    fn a_pump_acknowledges_everything_it_accepted_with_one_frame() {
        let shared = two_node_shared();
        let (mut l0, mut l1) = leaders(&shared);
        // A clock that never reaches a heartbeat or a retransmit deadline:
        // every frame counted below is a batch or an ack.
        let now = l0.last_iter;
        for k in 0..3 {
            ship(&shared, 5 * k, 5);
            assert!(l0.pump(&shared, now));
        }
        assert_eq!(l0.diag.frames_sent, 3, "one batch frame per pump");

        assert!(l1.pump(&shared, now));
        assert_eq!(l1.diag.frames_received, 3);
        assert_eq!(l1.diag.items_received, 15);
        assert_eq!(l1.diag.frames_sent, 1, "three batches, one cumulative ack");
        // 15 items in 8-item slabs of the leader's arena, in order.
        let plane = Cx::of(&shared).plane;
        assert_eq!(plane.downlink[1].len(), 2);
        assert_eq!(take_downlink(&shared), (0..15).collect::<Vec<_>>());
        assert_arenas_free(&shared);

        assert!(l0.pump(&shared, now));
        let to_peer = l0.peers[1].as_ref().expect("peer state");
        assert!(to_peer.unacked.is_empty(), "the one ack retires all three");

        // A replay is re-acked at once, not at the end of the pump: its
        // sender is retransmitting for want of exactly that ack.
        let replay = Frame {
            kind: FrameKind::Batch,
            session: shared.seed,
            src: 0,
            dst: 1,
            seq: 2,
            items: Vec::new(),
        };
        l0.transport.send(1, &replay).expect("sim send");
        l1.pump(&shared, now);
        assert_eq!(l1.diag.duplicates_rejected, 1);
        assert_eq!(l1.diag.frames_sent, 2);
        assert_eq!(l1.diag.items_received, 15);
    }

    #[test]
    fn a_full_downlink_or_a_dry_leader_arena_keeps_items_queued_in_order() {
        // One-slot rings: a downlink is full after one envelope.
        let shared = sizing::test_ring::with_capacity(1, two_node_shared);
        let (mut l0, mut l1) = leaders(&shared);
        let now = l0.last_iter;
        let plane = Cx::of(&shared).plane;
        for k in 0..3 {
            ship(&shared, 8 * k, 8);
            l0.pump(&shared, now);
        }
        assert!(l1.pump(&shared, now));
        assert_eq!(l1.diag.items_received, 24);

        // A full downlink: one slab shipped, the rest waits in the leader.
        assert_eq!(plane.downlink[1].len(), 1);
        assert_eq!(l1.pending_down[1].len(), 16);
        assert!(!l1.pump(&shared, now), "a full downlink moved something");
        assert_eq!(take_downlink(&shared), (0..8).collect::<Vec<_>>());

        // A dry leader arena: room on the downlink, no slab to fill.
        let arena = &shared.arenas[3];
        let held: Vec<u32> = std::iter::from_fn(|| arena.try_claim()).collect();
        assert!(!held.is_empty());
        assert!(!l1.pump(&shared, now), "a dry arena moved something");
        assert!(plane.downlink[1].is_empty(), "shipped as singles");
        assert_eq!(l1.pending_down[1].len(), 16, "items lost");

        // One released slab carries the next 8 items, and the same slab,
        // finished by the worker, the last 8.
        arena.release(held[0]);
        assert!(l1.pump(&shared, now));
        assert_eq!(take_downlink(&shared), (8..16).collect::<Vec<_>>());
        assert!(l1.pump(&shared, now));
        assert_eq!(take_downlink(&shared), (16..24).collect::<Vec<_>>());
        assert!(l1.pending_down[1].is_empty());
        for &slab in &held[1..] {
            arena.release(slab);
        }
        assert_arenas_free(&shared);
    }

    #[test]
    fn one_flush_cuts_every_frame_in_order_and_keeps_the_staging() {
        let shared = two_node_shared();
        let (mut l0, _l1) = leaders(&shared);
        let staged = 2 * FRAME_ITEMS + 7;
        let items: Vec<_> = (0..staged as u64)
            .map(|i| Item::new(WorkerId(1), Payload::new(i, 0), 0))
            .collect();
        l0.stage(Cx::of(&shared), &items);
        assert!(l0.flush_staging(Cx::of(&shared)));

        let to_peer = l0.peers[1].as_ref().expect("peer state");
        let frames: Vec<&Frame> = to_peer.unacked.values().collect();
        let seqs: Vec<u64> = frames.iter().map(|frame| frame.seq).collect();
        let lens: Vec<usize> = frames.iter().map(|frame| frame.items.len()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(lens, vec![FRAME_ITEMS, FRAME_ITEMS, 7]);
        let payloads: Vec<u64> = frames
            .iter()
            .flat_map(|frame| frame.items.iter().map(|item| item.a))
            .collect();
        assert_eq!(payloads, (0..staged as u64).collect::<Vec<_>>());
        assert_eq!(to_peer.next_seq, 4);
        assert_eq!(to_peer.framed_items, staged as u64);
        assert!(to_peer.staging.is_empty());
        assert!(
            to_peer.staging.capacity() >= staged,
            "the flush dropped the staging's capacity"
        );
        assert_eq!(l0.diag.frames_sent, 3);
    }

    #[test]
    fn one_pump_takes_at_most_a_budget_of_envelopes_from_an_uplink() {
        // Uplinks twice the budget deep, so one can queue more than a pump
        // may take: 40 envelopes past the budget, 8 items each.
        let shared = sizing::test_ring::with_capacity(2 * INBOX_BUDGET, two_node_shared);
        let (mut l0, mut l1) = leaders(&shared);
        let now = l0.last_iter;
        let plane = Cx::of(&shared).plane;
        let queued = INBOX_BUDGET + 40;
        let slab = shared.tram.buffer_items as u64;
        for k in 0..queued as u64 {
            ship(&shared, k * slab, slab);
        }
        let total = queued as u64 * slab;

        assert!(l0.pump(&shared, now));
        let to_peer = l0.peers[1].as_ref().expect("peer state");
        assert_eq!(
            to_peer.framed_items,
            INBOX_BUDGET as u64 * slab,
            "one pump staged more than a budget of envelopes"
        );
        assert_eq!(plane.uplink[0].len(), queued - INBOX_BUDGET);

        // Pumps on both sides ship the rest: every item once, in order.
        let mut payloads = Vec::new();
        for _ in 0..3 {
            l0.pump(&shared, now);
            l1.pump(&shared, now);
            payloads.extend(take_downlink(&shared));
        }
        assert!(plane.uplink[0].is_empty());
        assert_eq!(
            l0.peers[1].as_ref().expect("peer state").framed_items,
            total
        );
        assert_eq!(l1.diag.items_received, total);
        assert_eq!(payloads, (0..total).collect::<Vec<_>>());
        assert_arenas_free(&shared);
    }

    /// Resend-buffer sequences `leader` still waits on node 1 to ack.
    fn unacked(leader: &Leader) -> Vec<u64> {
        let to_peer = leader.peers[1].as_ref().expect("peer state");
        to_peer.unacked.keys().copied().collect()
    }

    #[test]
    fn the_ack_clock_sends_one_ack_per_delay_for_every_batch_inside_it() {
        let shared = two_node_shared();
        let (mut l0, mut l1) = leaders(&shared);
        // Hand-clock instants far from any heartbeat or retransmit deadline.
        let t0 = l0.last_iter;
        let step = ACK_DELAY / 4;

        // A quiet link: the first owed ack goes out at once.
        ship(&shared, 0, 3);
        l0.pump(&shared, t0);
        assert!(l1.pump(&shared, t0));
        assert_eq!((l1.diag.acks_sent, l1.diag.frames_sent), (1, 1));
        l0.pump(&shared, t0);
        assert_eq!(unacked(&l0), Vec::<u64>::new());

        // Batches accepted inside the window are delivered but not acked.
        for (k, seq) in [(1, 2), (2, 3)] {
            ship(&shared, 0, 4);
            l0.pump(&shared, t0 + step * k);
            assert!(l1.pump(&shared, t0 + step * k));
            assert_eq!(l1.diag.frames_sent, 1, "batch {seq} was acked early");
        }
        assert_eq!(l1.diag.items_received, 11);
        l0.pump(&shared, t0 + step * 2);
        assert_eq!(unacked(&l0), vec![2, 3]);

        // The pump at +ACK_DELAY sends one ack, and it retires both.
        l1.pump(&shared, t0 + ACK_DELAY);
        assert_eq!((l1.diag.acks_sent, l1.diag.frames_sent), (2, 2));
        l0.pump(&shared, t0 + ACK_DELAY);
        assert_eq!(unacked(&l0), Vec::<u64>::new());
        // Nothing owed, nothing sent.
        l1.pump(&shared, t0 + ACK_DELAY * 3);
        assert_eq!(l1.diag.acks_sent, 2);
    }

    #[test]
    fn a_replay_inside_the_ack_delay_is_re_acked_at_once() {
        let shared = two_node_shared();
        let (mut l0, mut l1) = leaders(&shared);
        let t0 = l0.last_iter;
        let inside = t0 + ACK_DELAY / 2;
        ship(&shared, 0, 2);
        l0.pump(&shared, t0);
        l1.pump(&shared, t0);
        ship(&shared, 0, 2);
        l0.pump(&shared, inside);
        l1.pump(&shared, inside);
        assert_eq!(l1.diag.acks_sent, 1, "batch 2 rides on the next ack");

        // The sender retransmits batch 1: it wants exactly that ack, and it
        // gets it at once, cumulative over batch 2 as well.
        let replay = l0.peers[1].as_ref().expect("peer state").unacked[&2].clone();
        let replay = Frame { seq: 1, ..replay };
        l0.transport.send(1, &replay).expect("sim send");
        l1.pump(&shared, inside);
        assert_eq!(l1.diag.duplicates_rejected, 1);
        assert_eq!(l1.diag.acks_sent, 2);
        assert_eq!(l1.diag.items_received, 4);
        l0.pump(&shared, inside);
        assert_eq!(unacked(&l0), Vec::<u64>::new());
        // That ack restarted the clock and left nothing owed.
        l1.pump(&shared, t0 + ACK_DELAY);
        assert_eq!(l1.diag.acks_sent, 2);
    }

    #[test]
    fn the_ack_delay_stays_ten_times_inside_the_first_retransmit() {
        let first_retransmit = (0..256)
            .map(|seed| Backoff::send_default(seed).next_delay().expect("a budget"))
            .min()
            .expect("seeds");
        assert!(first_retransmit >= SEND_RETRY_BASE_NS / 2);
        assert!(ACK_DELAY * 10 <= Duration::from_nanos(SEND_RETRY_BASE_NS / 2));
    }

    #[test]
    fn a_cut_settles_on_a_later_pump_and_blocks_none() {
        let shared = two_node_shared();
        let plane = Cx::of(&shared).plane;
        let (mut l0, mut l1) = leaders(&shared);
        let t0 = l0.last_iter;
        ship(&shared, 0, 7);
        l0.pump(&shared, t0);
        l0.cut_link(Cx::of(&shared), 1, "test cut");

        // The receiver has not acknowledged the cut: the pump neither waits
        // for it nor settles, and goes on serving the node.
        let started = Instant::now();
        l0.pump(&shared, t0 + Duration::from_millis(1));
        assert!(started.elapsed() < CUT_SEEN_DEADLINE, "the pump waited");
        assert_eq!(
            plane.dropped_sum(),
            0,
            "settled before the receiver stopped"
        );
        // Post-cut traffic goes straight to the ledger meanwhile.
        ship(&shared, 0, 2);
        l0.pump(&shared, t0 + Duration::from_millis(2));
        assert_eq!(plane.dropped_sum(), 2);

        // Once the receiver has seen the cut, the next pump settles: it
        // accepted nothing, so all seven framed items are charged.
        l1.pump(&shared, t0);
        l0.pump(&shared, t0 + Duration::from_millis(3));
        assert_eq!(plane.dropped_sum(), 9);
        assert_eq!(l0.diag.items_dropped, 9);
        assert_eq!(l1.diag.items_received, 0);

        // A receiver that never answers is waited for CUT_SEEN_DEADLINE
        // from the first pump that saw the cut, across pumps.
        let shared = two_node_shared();
        let plane = Cx::of(&shared).plane;
        let (mut l0, _dead) = leaders(&shared);
        ship(&shared, 0, 4);
        l0.pump(&shared, t0);
        l0.cut_link(Cx::of(&shared), 1, "test cut");
        l0.pump(&shared, t0 + Duration::from_millis(1));
        l0.pump(&shared, t0 + CUT_SEEN_DEADLINE);
        assert_eq!(plane.dropped_sum(), 0);
        l0.pump(&shared, t0 + CUT_SEEN_DEADLINE + Duration::from_millis(1));
        assert_eq!(plane.dropped_sum(), 4);
    }

    /// A leader's final report: its links to `links`' peers, `None` = up.
    fn report(node: u32, links: &[(u32, Option<Option<&str>>)]) -> NodeDiag {
        NodeDiag {
            node,
            links: links
                .iter()
                .map(|&(peer, cut)| LinkReport {
                    peer,
                    up: cut.is_none(),
                    cause: cut.flatten().map(str::to_string),
                })
                .collect(),
            ..NodeDiag::default()
        }
    }

    #[test]
    fn wire_cut_reason_prefers_the_plan_then_a_concrete_cause() {
        assert_eq!(
            wire_cut_reason(&[report(0, &[(1, None)]), report(1, &[(0, None)])], None),
            None,
            "no cut, no reason"
        );
        // Node 1 timed out on node 0; node 0 only heard the echo.
        let cut = [
            report(0, &[(1, Some(Some("peer cut"))), (2, None)]),
            report(1, &[(0, Some(Some("heartbeat timeout")))]),
        ];
        let reason = |plan: Option<&FaultPlan>| wire_cut_reason(&cut, plan).expect("a cut");

        // A planned partition beats a planned disconnect, wherever each
        // stands in the plan.
        let both = FaultPlan::seeded(1)
            .net_at_sends(1, FaultKind::NetDisconnect, 5)
            .net_at_sends(2, FaultKind::NetPartition, 9);
        assert_eq!(reason(Some(&both)), "wire partition: node 2 isolated");
        let disconnect = FaultPlan::seeded(1).net_at_sends(1, FaultKind::NetDisconnect, 5);
        assert_eq!(
            reason(Some(&disconnect)),
            "wire disconnect: node 1 link cut"
        );

        // Unplanned: the concrete cause beats the other side's echo, and
        // worker faults in the plan do not count as planned cuts.
        let unrelated = FaultPlan::seeded(1).panic_at_items(0, 10);
        let concrete = "wire failure: node 1 link to node 0 cut (heartbeat timeout)";
        assert_eq!(reason(None), concrete);
        assert_eq!(reason(Some(&unrelated)), concrete);

        // Otherwise the first cut in node/peer order wins.
        let echoes = [
            report(0, &[(1, None), (2, Some(Some("peer cut")))]),
            report(1, &[(0, Some(Some("peer cut")))]),
        ];
        assert_eq!(
            wire_cut_reason(&echoes, None).as_deref(),
            Some("wire failure: node 0 link to node 2 cut (peer cut)")
        );
        let concretes = [
            report(0, &[(1, Some(Some("retransmit budget exhausted")))]),
            report(1, &[(0, Some(Some("heartbeat timeout")))]),
        ];
        assert_eq!(
            wire_cut_reason(&concretes, None).as_deref(),
            Some("wire failure: node 0 link to node 1 cut (retransmit budget exhausted)")
        );

        // A cut nobody named a cause for.
        assert_eq!(
            wire_cut_reason(&[report(0, &[(1, Some(None))])], None).as_deref(),
            Some("wire failure: link cut")
        );
    }
}
