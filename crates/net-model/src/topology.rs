//! Cluster topology: physical nodes, processes, worker PEs.
//!
//! The paper's SMP configuration on Delta is "8 processes per physical node,
//! 8 worker cores per process, plus one communication thread per process"
//! (§IV-A).  Non-SMP mode is the degenerate configuration with one worker per
//! process and no dedicated communication thread.
//!
//! Identifiers:
//! * [`NodeId`] — physical node index.
//! * [`ProcId`] — global process index (`node * procs_per_node + local`).
//! * [`WorkerId`] — global worker PE index
//!   (`proc * workers_per_proc + local`); this is the "PE number" the
//!   application addresses items to.

/// Physical node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Global process index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

/// Global worker (PE) index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl NodeId {
    /// Raw index as `usize` for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl ProcId {
    /// Raw index as `usize` for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl WorkerId {
    /// Raw index as `usize` for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}
impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc{}", self.0)
    }
}
impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// Cluster shape: `nodes × procs_per_node × workers_per_proc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    nodes: u32,
    procs_per_node: u32,
    workers_per_proc: u32,
    /// Whether each process has a dedicated communication thread (SMP mode).
    smp: bool,
}

impl Topology {
    /// SMP-mode topology: every process owns `workers_per_proc` worker PEs and
    /// one dedicated communication thread.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn smp(nodes: u32, procs_per_node: u32, workers_per_proc: u32) -> Self {
        assert!(nodes > 0, "at least one node");
        assert!(procs_per_node > 0, "at least one process per node");
        assert!(workers_per_proc > 0, "at least one worker per process");
        Self {
            nodes,
            procs_per_node,
            workers_per_proc,
            smp: true,
        }
    }

    /// Non-SMP ("MPI-everywhere") topology: one process per worker core, no
    /// dedicated communication thread; the worker drives the network itself.
    pub fn non_smp(nodes: u32, workers_per_node: u32) -> Self {
        assert!(nodes > 0, "at least one node");
        assert!(workers_per_node > 0, "at least one worker per node");
        Self {
            nodes,
            procs_per_node: workers_per_node,
            workers_per_proc: 1,
            smp: false,
        }
    }

    /// Whether this is an SMP topology (dedicated comm thread per process).
    pub fn is_smp(&self) -> bool {
        self.smp
    }

    /// Number of physical nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Processes per physical node.
    pub fn procs_per_node(&self) -> u32 {
        self.procs_per_node
    }

    /// Worker PEs per process (`t` in the paper's analysis).
    pub fn workers_per_proc(&self) -> u32 {
        self.workers_per_proc
    }

    /// Worker PEs per physical node.
    pub fn workers_per_node(&self) -> u32 {
        self.procs_per_node * self.workers_per_proc
    }

    /// Total number of processes (`N` in the paper's analysis).
    pub fn total_procs(&self) -> u32 {
        self.nodes * self.procs_per_node
    }

    /// Total number of worker PEs.
    pub fn total_workers(&self) -> u32 {
        self.total_procs() * self.workers_per_proc
    }

    /// The process that owns a worker.
    pub fn proc_of_worker(&self, w: WorkerId) -> ProcId {
        debug_assert!(w.0 < self.total_workers());
        ProcId(w.0 / self.workers_per_proc)
    }

    /// The physical node that hosts a process.
    pub fn node_of_proc(&self, p: ProcId) -> NodeId {
        debug_assert!(p.0 < self.total_procs());
        NodeId(p.0 / self.procs_per_node)
    }

    /// The physical node that hosts a worker.
    pub fn node_of_worker(&self, w: WorkerId) -> NodeId {
        self.node_of_proc(self.proc_of_worker(w))
    }

    /// Rank of a worker within its process (`0..workers_per_proc`).
    pub fn local_rank(&self, w: WorkerId) -> u32 {
        w.0 % self.workers_per_proc
    }

    /// The `rank`-th worker of a process.
    pub fn worker_of(&self, p: ProcId, rank: u32) -> WorkerId {
        debug_assert!(rank < self.workers_per_proc);
        WorkerId(p.0 * self.workers_per_proc + rank)
    }

    /// First worker of a process.
    pub fn first_worker_of(&self, p: ProcId) -> WorkerId {
        self.worker_of(p, 0)
    }

    /// Iterate over all workers of a process.
    pub fn workers_of(&self, p: ProcId) -> impl Iterator<Item = WorkerId> {
        let base = p.0 * self.workers_per_proc;
        (base..base + self.workers_per_proc).map(WorkerId)
    }

    /// Iterate over all processes on a node.
    pub fn procs_of(&self, n: NodeId) -> impl Iterator<Item = ProcId> {
        let base = n.0 * self.procs_per_node;
        (base..base + self.procs_per_node).map(ProcId)
    }

    /// Iterate over all workers in the cluster.
    pub fn all_workers(&self) -> impl Iterator<Item = WorkerId> {
        (0..self.total_workers()).map(WorkerId)
    }

    /// Iterate over all processes in the cluster.
    pub fn all_procs(&self) -> impl Iterator<Item = ProcId> {
        (0..self.total_procs()).map(ProcId)
    }

    /// The worker of process `dst` that receives (and runs the grouping pass
    /// for) the process-addressed messages worker `src` sends: the one with
    /// `src`'s local rank.
    ///
    /// Every worker of a process is the group receiver of its rank-mates in
    /// every source process, so the grouping work of a destination process
    /// is spread over all of its workers even when only one process sends
    /// to it (a sender in the destination process itself is its own group
    /// receiver).  The receiver is fixed per (source worker, destination
    /// process) pair, so a source's messages to one process all take one
    /// lane and keep their order.  The simulator (when it enqueues a
    /// `DeliveryBatch`) and both native engines (when they pick the ring)
    /// use this one rule, so cross-backend runs stay bit-identical.
    pub fn group_receiver(&self, src: WorkerId, dst: ProcId) -> WorkerId {
        debug_assert!(src.0 < self.total_workers());
        debug_assert!(dst.0 < self.total_procs());
        self.worker_of(dst, self.local_rank(src))
    }

    /// True if two workers live in the same process (items between them never
    /// touch the network or the comm thread).
    pub fn same_proc(&self, a: WorkerId, b: WorkerId) -> bool {
        self.proc_of_worker(a) == self.proc_of_worker(b)
    }

    /// True if two workers live on the same physical node.
    pub fn same_node(&self, a: WorkerId, b: WorkerId) -> bool {
        self.node_of_worker(a) == self.node_of_worker(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smp_topology_counts() {
        // Paper default: 8 processes per node, 8 workers per process.
        let t = Topology::smp(4, 8, 8);
        assert!(t.is_smp());
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.total_procs(), 32);
        assert_eq!(t.total_workers(), 256);
        assert_eq!(t.workers_per_node(), 64);
    }

    #[test]
    fn non_smp_topology_counts() {
        let t = Topology::non_smp(2, 64);
        assert!(!t.is_smp());
        assert_eq!(t.total_procs(), 128);
        assert_eq!(t.total_workers(), 128);
        assert_eq!(t.workers_per_proc(), 1);
    }

    #[test]
    fn worker_proc_node_mapping_roundtrip() {
        let t = Topology::smp(3, 4, 5);
        for w in t.all_workers() {
            let p = t.proc_of_worker(w);
            let n = t.node_of_proc(p);
            assert_eq!(t.node_of_worker(w), n);
            let rank = t.local_rank(w);
            assert_eq!(t.worker_of(p, rank), w);
            assert!(rank < t.workers_per_proc());
            assert!(p.idx() < t.total_procs() as usize);
            assert!(n.idx() < t.nodes() as usize);
        }
    }

    #[test]
    fn workers_of_proc_enumeration() {
        let t = Topology::smp(2, 2, 3);
        let p = ProcId(3);
        let workers: Vec<u32> = t.workers_of(p).map(|w| w.0).collect();
        assert_eq!(workers, vec![9, 10, 11]);
        assert_eq!(t.first_worker_of(p), WorkerId(9));
        for w in t.workers_of(p) {
            assert_eq!(t.proc_of_worker(w), p);
        }
    }

    #[test]
    fn procs_of_node_enumeration() {
        let t = Topology::smp(2, 4, 1);
        let procs: Vec<u32> = t.procs_of(NodeId(1)).map(|p| p.0).collect();
        assert_eq!(procs, vec![4, 5, 6, 7]);
    }

    #[test]
    fn group_receiver_spreads_by_source_and_stays_in_dst_proc() {
        let t = Topology::smp(2, 2, 3);
        for src in t.all_workers() {
            for dst in t.all_procs() {
                let w = t.group_receiver(src, dst);
                assert_eq!(t.proc_of_worker(w), dst);
                assert_eq!(t.local_rank(w), t.local_rank(src));
            }
        }
        // The workers of one source process land on different receiver
        // workers, spreading the grouping work over the destination process.
        let receivers: Vec<u32> = t
            .workers_of(ProcId(0))
            .map(|src| t.group_receiver(src, ProcId(2)).0)
            .collect();
        assert_eq!(receivers, vec![6, 7, 8]);
        // One process of two workers: each worker is its own receiver.
        let t = Topology::smp(1, 1, 2);
        for w in t.all_workers() {
            assert_eq!(t.group_receiver(w, ProcId(0)), w);
        }
    }

    #[test]
    fn same_proc_and_same_node() {
        let t = Topology::smp(2, 2, 2);
        assert!(t.same_proc(WorkerId(0), WorkerId(1)));
        assert!(!t.same_proc(WorkerId(1), WorkerId(2)));
        assert!(t.same_node(WorkerId(0), WorkerId(3)));
        assert!(!t.same_node(WorkerId(3), WorkerId(4)));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_dimension_panics() {
        let _ = Topology::smp(0, 8, 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(2).to_string(), "node2");
        assert_eq!(ProcId(3).to_string(), "proc3");
        assert_eq!(WorkerId(4).to_string(), "pe4");
    }
}
