//! The node-leader tier: cross-node re-aggregation over a pluggable wire.
//!
//! When a run spans more than one cluster node and a transport is
//! configured, each node gains one *leader* thread alongside its workers.
//! Workers keep the intra-node mesh exactly as before; any envelope whose
//! destination worker lives on another node is materialized into raw items
//! and handed to the local leader over a per-worker SPSC uplink.  The
//! leader re-aggregates that traffic per destination *node* — the same
//! economics as the WsP grouping pass, one tier up — seals it into framed
//! batches, and ships them over the [`transport::Transport`] wire.  The
//! receiving leader dedups redelivery, regroups per destination worker,
//! and feeds its workers over per-worker SPSC downlinks.
//!
//! Failure is the design center, not an afterthought:
//!
//! * every `Batch` frame carries a per-link sequence number and stays in a
//!   resend buffer until the peer's cumulative ack retires it;
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
//! it.  A mesh worker that ends a quantum having moved nothing inbound pumps
//! its own node once ([`Helper::help`]: `try_lock`, never blocks), so what the
//! quantum just shipped leaves with it instead of waiting for a napping
//! thread to wake.  The leader thread runs the same pump on a 20 µs nap and is
//! the backstop: it alone covers workers that are asleep, stuck in handlers,
//! saturated by intra-node traffic or quarantined, and it stands down (parks)
//! only while some local worker is awake *and* pumping.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use net_model::WorkerId;
use runtime_api::{FaultKind, FaultTrigger, LinkReport, NodeDiag, Payload};
use shmem::SpscRing;
use tramlib::Item;
use transport::{
    Backoff, FailureDetector, Frame, FrameKind, HeartbeatConfig, ReplayGuard, SendVerdict,
    Transport, WireFault, WireFaultInjector, WireFaultKind,
};

use super::{Batch, Shared, SPARE_BATCHES};

/// Capacity (in batches) of each worker↔leader ring.  Batches are whole
/// vectors, so a few hundred slots buffer tens of thousands of items.
pub(crate) const NODE_RING_CAPACITY: usize = 512;

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
    /// `uplink[w]`: cross-node batches from worker `w` to its node's
    /// leader.  Producer: worker `w`; consumer: whoever holds its node's
    /// leader lock.
    pub(crate) uplink: Vec<SpscRing<Batch>>,
    /// `downlink[w]`: regrouped batches from worker `w`'s node leader to
    /// `w`.  Producer: whoever holds the node's leader lock; consumer:
    /// worker `w`.
    pub(crate) downlink: Vec<SpscRing<Batch>>,
    /// Directed link control blocks, indexed `src * nodes + dst`.
    links: Vec<LinkCtl>,
    /// Per-node drop ledgers (leader-owned writes); the monitor's
    /// conservation sum reads them alongside the per-worker ledgers.
    node_dropped: Vec<CachePadded<AtomicU64>>,
    /// Per-node leader state, indexed by node.
    posts: Vec<CachePadded<LeaderPost>>,
}

impl NodePlane {
    pub(crate) fn new(nodes: u32, workers: usize) -> Self {
        let n = nodes as usize;
        NodePlane {
            nodes,
            uplink: (0..workers)
                .map(|_| SpscRing::new(NODE_RING_CAPACITY))
                .collect(),
            downlink: (0..workers)
                .map(|_| SpscRing::new(NODE_RING_CAPACITY))
                .collect(),
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
    /// An accepted batch awaits its cumulative ack (sent once per pump).
    ack_due: bool,
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
    /// Per-local-worker downlink batches waiting for ring space.
    pending_down: Vec<VecDeque<Batch>>,
    /// Per-worker buckets of the frame being regrouped (empty between
    /// frames).
    regroup: Vec<Batch>,
    /// Emptied uplink vectors, reused as the next downlink batches: with
    /// traffic in both directions the leader allocates no batch vectors.
    spare_batches: Vec<Batch>,
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
        if did_work {
            continue;
        }
        // Stand down only while a local worker is awake *and* has pumped
        // since this thread last looked.  Awake workers that do not help
        // (handlers, intra-node saturation) keep the nap cadence; the last
        // one to nap, and the monitor raising `stop`, unpark us.
        let helping = helped != helped_seen;
        helped_seen = helped;
        if helping && post.awake.load(Ordering::Relaxed) > 0 {
            standdowns += 1;
            std::thread::park_timeout(STAND_DOWN);
        } else {
            std::thread::sleep(LEADER_NAP);
        }
    }
    let mut leader = post.lock().take().expect("posted above, taken only here");
    leader.diag.leader_standdowns = standdowns;
    leader.finish(cx)
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
            regroup: (0..workers_total).map(|_| Vec::new()).collect(),
            spare_batches: Vec::new(),
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
    /// transport error cuts the link.
    fn wire_send(&mut self, cx: Cx<'_>, dst: u32, frame: &Frame) {
        if self.injector.partitioned() {
            return;
        }
        if cx.plane.link_cut(self.node, dst) {
            return;
        }
        match self.transport.send(dst, frame) {
            Ok(()) => self.diag.frames_sent += 1,
            Err(e) => {
                let peer = e.peer();
                if self.expected_teardown(cx, peer) {
                    self.transport.close_peer(peer);
                } else {
                    self.cut_link(cx, peer, "peer closed");
                }
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

    /// Drain local workers' uplinks, bucketing items per destination node
    /// (post-cut traffic goes straight to the ledger).
    fn drain_uplinks(&mut self, cx: Cx<'_>) -> bool {
        let mut did_work = false;
        for wi in 0..self.my_workers.len() {
            let w = self.my_workers[wi];
            while let Some(mut batch) = cx.plane.uplink[w].pop() {
                did_work = true;
                for item in &batch {
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
                if self.spare_batches.len() < SPARE_BATCHES {
                    batch.clear();
                    self.spare_batches.push(batch);
                }
            }
        }
        did_work
    }

    /// Seal staged items into frames and send them (first transmission:
    /// through the fault injector, into the resend buffer).
    fn flush_staging(&mut self, cx: Cx<'_>) -> bool {
        let mut did_work = false;
        for peer in self.others() {
            if cx.plane.link_cut(self.node, peer) {
                continue;
            }
            while let Some(state) = self.peers[peer as usize].as_mut() {
                if state.staging.is_empty() {
                    break;
                }
                let take = state.staging.len().min(FRAME_ITEMS);
                let rest = state.staging.split_off(take);
                let items = std::mem::replace(&mut state.staging, rest);
                let seq = state.next_seq;
                state.next_seq += 1;
                state.framed_items += items.len() as u64;
                self.diag.items_shipped += items.len() as u64;
                let frame = Frame {
                    kind: FrameKind::Batch,
                    session: self.session,
                    src: self.node,
                    dst: peer,
                    seq,
                    items,
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
            SendVerdict::Deliver => self.wire_send(cx, peer, frame),
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

    /// Drain the wire (bounded), process each frame, then acknowledge: one
    /// cumulative ack per peer for everything this pump accepted.
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
        if did_work {
            for peer in self.others() {
                let state = self.peers[peer as usize].as_mut().expect("peer state");
                if std::mem::take(&mut state.ack_due) {
                    let upto = state.replay.contiguous();
                    self.send_ack(cx, peer, upto);
                }
            }
        }
        did_work
    }

    fn send_ack(&mut self, cx: Cx<'_>, peer: u32, upto: u64) {
        let ack = Frame::control(FrameKind::Ack, self.session, self.node, peer, upto);
        self.wire_send(cx, peer, &ack);
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
            FrameKind::Batch => self.handle_batch(cx, src, frame),
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

    /// Accept (or reject as replay) one inbound batch, regroup per
    /// destination worker and queue to downlinks.  An accepted batch is
    /// acknowledged at the end of the pump, cumulatively with every other
    /// batch the pump accepted from that peer; a replay is re-acked at once,
    /// since its sender is retransmitting for want of exactly that ack.
    fn handle_batch(&mut self, cx: Cx<'_>, src: u32, frame: Frame) {
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
            let upto = state.replay.contiguous();
            self.send_ack(cx, src, upto);
            return;
        }
        state.ack_due = true;
        inbound
            .items_accepted
            .fetch_add(frame.items.len() as u64, Ordering::AcqRel);
        self.diag.items_received += frame.items.len() as u64;
        // Regroup per destination worker — the node tier's grouping pass.
        // Buckets start from recycled uplink vectors and grow on demand;
        // none is sized to the whole frame.
        for wire in &frame.items {
            let dest = WorkerId(wire.dest as u32);
            debug_assert_eq!(
                cx.shared.topo.node_of_worker(dest).0,
                self.node,
                "frame item routed to the wrong node"
            );
            let bucket = &mut self.regroup[dest.idx()];
            if bucket.capacity() == 0 {
                *bucket = self.spare_batches.pop().unwrap_or_default();
            }
            bucket.push(Item::new(
                dest,
                Payload::new(wire.a, wire.b),
                wire.created_at_ns,
            ));
        }
        for &w in &self.my_workers {
            if !self.regroup[w].is_empty() {
                self.pending_down[w].push_back(std::mem::take(&mut self.regroup[w]));
            }
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

    /// Push queued downlink batches into worker rings as space frees up.
    fn pump_downlinks(&mut self, cx: Cx<'_>) -> bool {
        let mut did_work = false;
        for wi in 0..self.my_workers.len() {
            let w = self.my_workers[wi];
            while let Some(batch) = self.pending_down[w].front() {
                debug_assert!(!batch.is_empty());
                let batch = self.pending_down[w].pop_front().expect("front checked");
                match cx.plane.downlink[w].push(batch) {
                    Ok(()) => did_work = true,
                    Err(batch) => {
                        self.pending_down[w].push_front(batch);
                        break;
                    }
                }
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
    use crate::threaded::MeshPlane;
    use std::sync::Mutex;
    use tramlib::{Scheme, TramConfig};
    use transport::SimTransport;

    /// A 2-node × 1-worker run's shared state with nothing running on it.
    fn two_node_shared() -> Shared {
        let topo = net_model::Topology::smp(2, 1, 1);
        let pads = || {
            (0..2)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect()
        };
        let flags = || (0..2).map(|_| AtomicBool::new(false)).collect();
        Shared {
            tram: TramConfig::new(Scheme::NoAgg, topo),
            topo,
            seed: 9,
            epoch: Instant::now(),
            go: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            items_sent: pads(),
            items_delivered: pads(),
            workers_done: flags(),
            items_dropped: pads(),
            heartbeats: pads(),
            stash_depth: pads(),
            panicked: flags(),
            panic_notes: Mutex::new(Vec::new()),
            faults_fired: AtomicU64::new(0),
            faults: None,
            pp: Vec::new(),
            arenas: Vec::new(),
            pin_workers: false,
            worker_node: vec![0; 2],
            numa_aware: false,
            plane: MeshPlane::new(2, 4),
            node_plane: Some(NodePlane::new(2, 2)),
        }
    }

    /// Both nodes' leaders over the in-memory wire, not posted: the test is
    /// the only thread and pumps them by hand, with a clock of its own.
    fn leaders(shared: &Shared) -> (Leader, Leader) {
        let cx = Cx::of(shared);
        let mut wire = SimTransport::mesh(2, net_model::AlphaBeta::loopback()).into_iter();
        let mut leader = |node| Leader::new(cx, node, Box::new(wire.next().expect("two nodes")));
        (leader(0), leader(1))
    }

    /// Worker 0 hands its leader one uplink batch of `n` items for worker 1.
    fn ship(shared: &Shared, n: u64) {
        let batch = (0..n)
            .map(|i| Item::new(WorkerId(1), Payload::new(i, 0), 0))
            .collect();
        let plane = Cx::of(shared).plane;
        assert!(plane.uplink[0].push(batch).is_ok(), "uplink full");
    }

    #[test]
    fn a_pump_acknowledges_everything_it_accepted_with_one_frame() {
        let shared = two_node_shared();
        let (mut l0, mut l1) = leaders(&shared);
        // A clock that never reaches a heartbeat or a retransmit deadline:
        // every frame counted below is a batch or an ack.
        let now = l0.last_iter;
        for _ in 0..3 {
            ship(&shared, 5);
            assert!(l0.pump(&shared, now));
        }
        assert_eq!(l0.diag.frames_sent, 3, "one batch frame per pump");

        assert!(l1.pump(&shared, now));
        assert_eq!(l1.diag.frames_received, 3);
        assert_eq!(l1.diag.items_received, 15);
        assert_eq!(l1.diag.frames_sent, 1, "three batches, one cumulative ack");
        let plane = Cx::of(&shared).plane;
        let delivered: usize = std::iter::from_fn(|| plane.downlink[1].pop())
            .map(|batch| batch.len())
            .sum();
        assert_eq!(delivered, 15);

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
    fn a_cut_settles_on_a_later_pump_and_blocks_none() {
        let shared = two_node_shared();
        let plane = Cx::of(&shared).plane;
        let (mut l0, mut l1) = leaders(&shared);
        let t0 = l0.last_iter;
        ship(&shared, 7);
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
        ship(&shared, 2);
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
        ship(&shared, 4);
        l0.pump(&shared, t0);
        l0.cut_link(Cx::of(&shared), 1, "test cut");
        l0.pump(&shared, t0 + Duration::from_millis(1));
        l0.pump(&shared, t0 + CUT_SEEN_DEADLINE);
        assert_eq!(plane.dropped_sum(), 0);
        l0.pump(&shared, t0 + CUT_SEEN_DEADLINE + Duration::from_millis(1));
        assert_eq!(plane.dropped_sum(), 4);
    }
}
