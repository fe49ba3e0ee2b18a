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

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
/// polls its cut flags every leader iteration (microseconds), so this only
/// bounds the pathological case of a peer leader that is itself dead.
const CUT_SEEN_DEADLINE: Duration = Duration::from_millis(50);

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

/// The node tier's data plane, shared by workers and leaders.
pub(crate) struct NodePlane {
    nodes: u32,
    /// `uplink[w]`: cross-node batches from worker `w` to its node's
    /// leader.  Producer: worker `w`; consumer: its node's leader.
    pub(crate) uplink: Vec<SpscRing<Batch>>,
    /// `downlink[w]`: regrouped batches from worker `w`'s node leader to
    /// `w`.  Producer: the leader; consumer: worker `w`.
    pub(crate) downlink: Vec<SpscRing<Batch>>,
    /// Directed link control blocks, indexed `src * nodes + dst`.
    links: Vec<LinkCtl>,
    /// Per-node drop ledgers (leader-owned writes); the monitor's
    /// conservation sum reads them alongside the per-worker ledgers.
    node_dropped: Vec<CachePadded<AtomicU64>>,
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
            settled: false,
            bye: false,
            cut_cause: None,
        }
    }
}

/// Everything one leader thread owns while running.
struct Leader<'a> {
    shared: &'a Shared,
    plane: &'a NodePlane,
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
    /// The monitor raised `stop`: peers are tearing down too, so socket
    /// errors are expected and must not be recorded as link failures.
    stopping: bool,
    /// When the previous loop iteration ran — a large gap means *this*
    /// thread was descheduled (oversubscribed host), and any peer silence
    /// measured across it is our starvation, not theirs.
    last_iter: Instant,
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

/// Run one node's leader until the monitor raises `stop`.  Returns the
/// node's transport diagnostics for the run report.
pub(crate) fn leader_main(shared: &Shared, node: u32, transport: Box<dyn Transport>) -> NodeDiag {
    let plane = shared
        .node_plane
        .as_ref()
        .expect("leader spawned without a node plane");
    let nodes = plane.nodes;
    let topo = &shared.topo;
    let my_workers: Vec<usize> = (0..topo.total_workers() as usize)
        .filter(|&w| topo.node_of_worker(WorkerId(w as u32)).0 == node)
        .collect();
    let hb = HeartbeatConfig::default();
    let now0 = Instant::now();
    let workers_total = topo.total_workers() as usize;
    let label = transport.label().to_string();
    let mut leader = Leader {
        shared,
        plane,
        node,
        nodes,
        session: shared.seed,
        transport,
        injector: WireFaultInjector::new(compile_wire_faults(shared, node)),
        detector: FailureDetector::new(hb, nodes as usize, now0),
        hb,
        peers: (0..nodes)
            .map(|p| (p != node).then(|| PeerState::new(shared.seed, node, p)))
            .collect(),
        my_workers,
        pending_down: (0..workers_total).map(|_| VecDeque::new()).collect(),
        regroup: (0..workers_total).map(|_| Vec::new()).collect(),
        spare_batches: Vec::new(),
        delayed: Vec::new(),
        stopping: false,
        last_iter: now0,
        diag: NodeDiag {
            node,
            transport: label,
            ..NodeDiag::default()
        },
    };
    // Our own slot never heartbeats; keep the detector from "discovering" it.
    leader.detector.mark_dead(node as usize);
    leader.run(now0)
}

impl<'a> Leader<'a> {
    fn others(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.nodes).filter(move |&p| p != self.node)
    }

    /// Put a frame on the wire unless this node is partitioned (an isolated
    /// node's NIC is unplugged: nothing leaves, heartbeats included).  A
    /// transport error cuts the link.
    fn wire_send(&mut self, dst: u32, frame: &Frame) {
        if self.injector.partitioned() {
            return;
        }
        if self.plane.link_cut(self.node, dst) {
            return;
        }
        match self.transport.send(dst, frame) {
            Ok(()) => self.diag.frames_sent += 1,
            Err(e) => {
                let peer = e.peer();
                if self.expected_teardown(peer) {
                    self.transport.close_peer(peer);
                } else {
                    self.cut_link(peer, "peer closed");
                }
            }
        }
    }

    /// Whether a socket error from `peer` is normal teardown — the run is
    /// stopping (peers drop their sockets as they exit) or the peer said
    /// `Bye` — rather than a mid-run link failure.  `stop` is re-read from
    /// the shared flag, not just the per-iteration snapshot: a peer that
    /// observed `stop` first can drop its socket while we are mid-iteration,
    /// and that close must not be misread as a link failure.
    fn expected_teardown(&self, peer: u32) -> bool {
        self.stopping
            || self.shared.stop.load(Ordering::Acquire)
            || self
                .peers
                .get(peer as usize)
                .and_then(Option::as_ref)
                .is_some_and(|s| s.bye)
    }

    /// Sever both directions of the link to `peer`: record the cause, mark
    /// the peer dead, close the socket.  Settlement happens on the next
    /// poll of the cut flags (the sending direction charges the ledger).
    fn cut_link(&mut self, peer: u32, cause: &str) {
        if peer == self.node || peer >= self.nodes {
            return;
        }
        self.plane
            .link(self.node, peer)
            .cut
            .store(true, Ordering::Release);
        self.plane
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

    /// Sender-side settlement of a cut link: wait (bounded) for the
    /// receiver to stop accepting, then charge everything it did not
    /// accept.  See the module docs for why the accounting is exact.
    fn settle_sender(&mut self, peer: u32) {
        let state = self.peers[peer as usize]
            .as_mut()
            .expect("settling a link to self");
        if state.settled {
            return;
        }
        state.settled = true;
        let out = self.plane.link(self.node, peer);
        let deadline = Instant::now() + CUT_SEEN_DEADLINE;
        while !out.cut_seen.load(Ordering::Acquire) && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let accepted = out.items_accepted.load(Ordering::Acquire);
        let in_flight = state.framed_items.saturating_sub(accepted);
        let staged = state.staging.len() as u64;
        state.staging.clear();
        state.staging.shrink_to_fit();
        state.unacked.clear();
        state.rto_at = None;
        let lost = in_flight + staged;
        self.plane.charge_dropped(self.node, lost);
        self.diag.items_dropped += lost;
    }

    /// Observe the shared cut flags: acknowledge inbound cuts (receiver
    /// side) and settle outbound ones (sender side).  Either leader may
    /// have initiated the cut; both sides converge here.
    fn poll_cuts(&mut self) {
        for peer in 0..self.nodes {
            if peer == self.node {
                continue;
            }
            let inbound = self.plane.link(peer, self.node);
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
            let outbound_cut = self.plane.link_cut(self.node, peer);
            let unsettled = self.peers[peer as usize]
                .as_ref()
                .is_some_and(|s| !s.settled);
            if outbound_cut && unsettled {
                self.settle_sender(peer);
            }
        }
    }

    /// Drain local workers' uplinks, bucketing items per destination node
    /// (post-cut traffic goes straight to the ledger).
    fn drain_uplinks(&mut self) -> bool {
        let mut did_work = false;
        for wi in 0..self.my_workers.len() {
            let w = self.my_workers[wi];
            while let Some(mut batch) = self.plane.uplink[w].pop() {
                did_work = true;
                for item in &batch {
                    let dst_node = self.shared.topo.node_of_worker(item.dest).0;
                    debug_assert_ne!(dst_node, self.node, "intra-node item on the uplink");
                    if self.plane.link_cut(self.node, dst_node) {
                        self.plane.charge_dropped(self.node, 1);
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
    fn flush_staging(&mut self) -> bool {
        let mut did_work = false;
        for peer in 0..self.nodes {
            if peer == self.node || self.plane.link_cut(self.node, peer) {
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
                self.send_first_time(peer, &frame);
                // Into the resend buffer only now, by move: the wire took
                // the frame by reference, so the fast path copies no items.
                self.peers[peer as usize]
                    .as_mut()
                    .expect("peer state")
                    .unacked
                    .insert(seq, frame);
                self.arm_rto(peer);
            }
        }
        did_work
    }

    /// First transmission of a batch frame: ask the injector for a verdict
    /// (the caller files the frame in the resend buffer and arms the
    /// retransmit timer).  Retransmits bypass the injector (a dropped frame
    /// must not be dropped forever) — except under partition, which
    /// [`Leader::wire_send`] latches for *all* traffic.
    fn send_first_time(&mut self, peer: u32, frame: &Frame) {
        let verdict = self.injector.on_batch_send();
        if !matches!(verdict, SendVerdict::Deliver) {
            self.diag.wire_faults_fired = self.injector.fired();
        }
        match verdict {
            SendVerdict::Deliver => self.wire_send(peer, frame),
            // The frame stays in the resend buffer; the ack timeout
            // retransmits it.
            SendVerdict::Drop => {}
            // The one verdict that needs a second owner of the items.
            SendVerdict::Delay { micros } => {
                let at = Instant::now() + Duration::from_micros(micros);
                self.delayed.push((at, peer, frame.clone()));
            }
            SendVerdict::Duplicate => {
                self.wire_send(peer, frame);
                self.wire_send(peer, frame);
            }
            SendVerdict::Disconnect => {
                self.cut_link(peer, "disconnect fault");
            }
            SendVerdict::Partition => {
                // The injector latched: every subsequent send and receive is
                // discarded.  Peers find out via heartbeat timeout; our own
                // links cut the same way, so record the honest cause now.
                for p in 0..self.nodes {
                    if p != self.node {
                        self.cut_link(p, "partition fault");
                    }
                }
            }
        }
    }

    /// Ensure a retransmit deadline is armed while frames are in flight.
    fn arm_rto(&mut self, peer: u32) {
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
                    None => self.cut_link(peer, "retransmit budget exhausted"),
                }
            }
        }
    }

    /// Release delay-faulted frames whose hold expired.
    fn pump_delayed(&mut self, now: Instant) -> bool {
        let mut did_work = false;
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now {
                let (_, dst, frame) = self.delayed.swap_remove(i);
                self.wire_send(dst, &frame);
                did_work = true;
            } else {
                i += 1;
            }
        }
        did_work
    }

    /// Drain the wire (bounded) and process each frame.
    fn pump_recv(&mut self, now: Instant) -> bool {
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
                    self.handle_frame(frame, now);
                }
                Ok(None) => break,
                Err(e) => {
                    let peer = e.peer();
                    if self.expected_teardown(peer) {
                        self.transport.close_peer(peer);
                    } else if !self.plane.link_cut(self.node, peer) {
                        let cause = match e {
                            transport::TransportError::Corrupt(..) => "corrupt stream",
                            _ => "peer closed",
                        };
                        self.cut_link(peer, cause);
                    }
                    break;
                }
            }
        }
        did_work
    }

    fn handle_frame(&mut self, frame: Frame, now: Instant) {
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
                self.wire_send(src, &ack);
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
            FrameKind::Ack => self.handle_ack(src, frame.seq),
            FrameKind::Batch => self.handle_batch(src, frame),
        }
    }

    /// Retire resend-buffer frames up to the peer's cumulative ack.
    fn handle_ack(&mut self, peer: u32, ack: u64) {
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
        self.arm_rto(peer);
    }

    /// Accept (or reject as replay) one inbound batch, regroup per
    /// destination worker, queue to downlinks, and cumulative-ack.
    fn handle_batch(&mut self, src: u32, frame: Frame) {
        let inbound = self.plane.link(src, self.node);
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
            let ack = Frame::control(
                FrameKind::Ack,
                self.session,
                self.node,
                src,
                state.replay.contiguous(),
            );
            self.wire_send(src, &ack);
            return;
        }
        let contiguous = state.replay.contiguous();
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
                self.shared.topo.node_of_worker(dest).0,
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
        let ack = Frame::control(FrameKind::Ack, self.session, self.node, src, contiguous);
        self.wire_send(src, &ack);
    }

    /// Retransmit unacked frames whose ack timeout expired; an exhausted
    /// backoff budget declares the link dead.
    fn pump_retransmits(&mut self, now: Instant) {
        for peer in 0..self.nodes {
            if peer == self.node || self.plane.link_cut(self.node, peer) {
                continue;
            }
            let due = self.peers[peer as usize]
                .as_ref()
                .and_then(|s| s.rto_at)
                .is_some_and(|at| now >= at);
            if !due {
                continue;
            }
            let state = self.peers[peer as usize].as_mut().expect("peer state");
            state.rto_at = None;
            let frames: Vec<Frame> = state.unacked.values().cloned().collect();
            if frames.is_empty() {
                continue;
            }
            let next = state.backoff.next_delay();
            self.diag.retransmits += frames.len() as u64;
            for frame in &frames {
                self.wire_send(peer, frame);
            }
            match next {
                Some(delay_ns) => {
                    if let Some(state) = self.peers[peer as usize].as_mut() {
                        state.rto_at = Some(now + Duration::from_nanos(delay_ns));
                    }
                }
                // Same liveness gate as `arm_rto`: a peer whose frames keep
                // arriving is alive, so slow acks restart the schedule; only
                // silence (judged by the heartbeat detector) cuts the link.
                None if self
                    .detector
                    .heard_within(peer as usize, now, self.hb.timeout) =>
                {
                    if let Some(state) = self.peers[peer as usize].as_mut() {
                        state.backoff.reset();
                        if let Some(delay_ns) = state.backoff.next_delay() {
                            state.rto_at = Some(now + Duration::from_nanos(delay_ns));
                        }
                    }
                }
                None => self.cut_link(peer, "retransmit budget exhausted"),
            }
        }
    }

    /// Push queued downlink batches into worker rings as space frees up.
    fn pump_downlinks(&mut self) -> bool {
        let mut did_work = false;
        for wi in 0..self.my_workers.len() {
            let w = self.my_workers[wi];
            while let Some(batch) = self.pending_down[w].front() {
                debug_assert!(!batch.is_empty());
                let batch = self.pending_down[w].pop_front().expect("front checked");
                match self.plane.downlink[w].push(batch) {
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

    fn run(mut self, now0: Instant) -> NodeDiag {
        // Open every link so peers' detectors hear us before any data flows.
        for peer in 0..self.nodes {
            if peer != self.node {
                let hello = Frame::control(FrameKind::Hello, self.session, self.node, peer, 0);
                self.wire_send(peer, &hello);
            }
        }
        let mut next_heartbeat = now0 + self.hb.interval;
        loop {
            let stopping = self.shared.stop.load(Ordering::Acquire);
            self.stopping = stopping;
            let now = Instant::now();
            if now.duration_since(self.last_iter) >= self.hb.timeout / 4 {
                // We were descheduled for a sizable slice of the failure
                // window: forgive the silence we could not have observed
                // rather than false-positive a healthy peer dead.
                self.detector.pardon(now);
            }
            self.last_iter = now;
            self.poll_cuts();
            let mut did_work = self.drain_uplinks();
            did_work |= self.flush_staging();
            did_work |= self.pump_delayed(now);
            did_work |= self.pump_recv(now);
            self.pump_retransmits(now);
            if now >= next_heartbeat {
                for peer in self.others().collect::<Vec<_>>() {
                    if !self.detector.is_dead(peer as usize) {
                        let beat =
                            Frame::control(FrameKind::Heartbeat, self.session, self.node, peer, 0);
                        self.wire_send(peer, &beat);
                    }
                }
                next_heartbeat = now + self.hb.interval;
            }
            for peer in self.detector.scan(now) {
                self.cut_link(peer as u32, "heartbeat timeout");
            }
            did_work |= self.pump_downlinks();
            if stopping {
                break;
            }
            if !did_work {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        // Graceful teardown: tell live peers no more batches will follow,
        // then give parked outbox bytes a bounded chance to reach the wire —
        // a `Bye` queued behind bulk data is useless if the socket drops
        // before it ships.
        for peer in self.others().collect::<Vec<_>>() {
            if !self.detector.is_dead(peer as usize) {
                let bye = Frame::control(FrameKind::Bye, self.session, self.node, peer, 0);
                self.wire_send(peer, &bye);
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
        self.diag.links = (0..self.nodes)
            .filter(|&p| p != self.node)
            .map(|p| {
                let cut = self.plane.link_cut(self.node, p) || self.plane.link_cut(p, self.node);
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
