//! The PingAck micro-benchmark (Figure 3 and the §III-A analysis).
//!
//! Two physical nodes.  Every worker PE on node 0 sends a fixed number of
//! messages of a given size to the corresponding worker PE on node 1; each
//! node-1 worker sends a single ack to global PE 0 once it has received all of
//! its messages, and the run ends when PE 0 holds every ack.  The benchmark
//! exercises raw messaging (no aggregation), so it isolates the communication
//! path — in SMP mode that path funnels through one communication thread per
//! process, which is the bottleneck the paper demonstrates by sweeping the
//! number of processes per node.

use net_model::WorkerId;
use runtime_api::{
    AppDefaults, AppFactory, AppSpec, Payload, ResolvedRunSpec, RunCtx, RunReport, RunSpec,
    WorkerApp,
};
use tramlib::{FlushPolicy, Scheme};

use crate::common::{run_spec, ClusterSpec};

/// The PingAck app runs on both execution backends (on the native backend the
/// comm-thread sweep degenerates to raw inter-thread messaging: there is no
/// modelled network, but conservation and ack accounting still hold).
pub const NATIVE_CAPABLE: bool = true;

/// PingAck configuration.
#[derive(Debug, Clone, Copy)]
pub struct PingAckConfig {
    /// Worker PEs per node (the paper uses 64).
    pub workers_per_node: u32,
    /// Processes per node in SMP mode (1, 2, 4, ... 32); ignored in non-SMP.
    pub procs_per_node: u32,
    /// SMP or non-SMP execution.
    pub smp: bool,
    /// Messages sent by each node-0 worker.  The paper keeps the *total*
    /// number of messages from node 0 constant across configurations; use
    /// [`PingAckConfig::with_total_messages`] for that behaviour.
    pub messages_per_worker: u32,
    /// Payload bytes per message.
    pub message_bytes: u32,
    /// Optional extra application work per received message, in nanoseconds
    /// (used by the §III-A break-even ablation).
    pub work_per_message_ns: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl PingAckConfig {
    /// The paper's base configuration: 64 workers per node, 1000 messages per
    /// worker, small messages.
    pub fn new(procs_per_node: u32, smp: bool) -> Self {
        Self {
            workers_per_node: 64,
            procs_per_node,
            smp,
            messages_per_worker: 1000,
            message_bytes: 64,
            work_per_message_ns: 0,
            seed: 0x5049_4e47_4143_4b21, // "PINGACK!"
        }
    }

    /// Keep the total number of node-0 → node-1 messages equal to `total` by
    /// dividing it across the node-0 workers.
    pub fn with_total_messages(mut self, total: u32) -> Self {
        self.messages_per_worker = (total / self.workers_per_node).max(1);
        self
    }

    /// Set the per-message payload size.
    pub fn with_message_bytes(mut self, bytes: u32) -> Self {
        self.message_bytes = bytes;
        self
    }

    /// Set extra work per received message (break-even ablation).
    pub fn with_work_per_message(mut self, ns: u64) -> Self {
        self.work_per_message_ns = ns;
        self
    }

    fn cluster(&self) -> ClusterSpec {
        if self.smp {
            assert!(
                self.workers_per_node % self.procs_per_node == 0,
                "workers per node must divide evenly into processes"
            );
            ClusterSpec::smp(
                2,
                self.procs_per_node,
                self.workers_per_node / self.procs_per_node,
            )
        } else {
            ClusterSpec::non_smp(2, self.workers_per_node)
        }
    }
}

struct PingAckApp {
    me: WorkerId,
    workers_per_node: u32,
    messages_to_send: u32,
    expected_from_peer: u32,
    received: u32,
    acks_expected: u32,
    acks_received: u32,
    work_per_message_ns: u64,
    chunk: u32,
}

const ACK: u64 = u64::MAX;

impl WorkerApp for PingAckApp {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        if item.a == ACK {
            self.acks_received += 1;
            ctx.counter("pingack_acks", 1);
            return;
        }
        ctx.charge(self.work_per_message_ns);
        self.received += 1;
        if self.received == self.expected_from_peer && self.expected_from_peer > 0 {
            // All messages from the peer arrived: ack global PE 0.
            ctx.counter("pingack_complete_receivers", 1);
            ctx.send(WorkerId(0), Payload::new(ACK, self.me.0 as u64));
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.messages_to_send == 0 {
            return false;
        }
        let n = self.chunk.min(self.messages_to_send);
        let peer = WorkerId(self.me.0 + self.workers_per_node);
        for i in 0..n {
            ctx.charge_item_generation();
            ctx.counter("pingack_sent", 1);
            ctx.send(peer, Payload::new(i as u64, self.me.0 as u64));
        }
        self.messages_to_send -= n;
        true
    }

    fn local_done(&self) -> bool {
        self.messages_to_send == 0
    }

    fn on_finalize(&mut self, counters: &mut metrics::Counters) {
        if self.acks_expected > 0 {
            counters.set("pingack_acks_expected", self.acks_expected as u64);
            counters.set("pingack_acks_received_pe0", self.acks_received as u64);
        }
    }
}

/// [`PingAckConfig`] plugs into the [`RunSpec`] builder directly.  PingAck is
/// raw messaging, so its defaults pin [`Scheme::NoAgg`] with single-item
/// buffers; the cluster shape is derived from the config's own
/// workers-per-node/processes split.
impl AppSpec for PingAckConfig {
    fn name(&self) -> &'static str {
        "pingack"
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults {
            scheme: Scheme::NoAgg,
            buffer_items: 1,
            item_bytes: self.message_bytes,
            flush_policy: FlushPolicy::EXPLICIT_ONLY,
            seed: self.seed,
            cluster: self.cluster(),
        }
    }

    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let config = *self;
        let workers_per_node = run.cluster.workers_per_node();
        Box::new(move |w: WorkerId| -> Box<dyn WorkerApp> {
            let on_node0 = w.0 < workers_per_node;
            Box::new(PingAckApp {
                me: w,
                workers_per_node,
                messages_to_send: if on_node0 {
                    config.messages_per_worker
                } else {
                    0
                },
                expected_from_peer: if on_node0 {
                    0
                } else {
                    config.messages_per_worker
                },
                received: 0,
                acks_expected: if w.0 == 0 { workers_per_node } else { 0 },
                acks_received: 0,
                work_per_message_ns: config.work_per_message_ns,
                chunk: 64,
            })
        })
    }
}

/// Run the PingAck benchmark on the simulator; the report's total time is the
/// Fig. 3 metric.
pub fn run_pingack(config: PingAckConfig) -> RunReport {
    run_spec(RunSpec::for_app(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_api::Backend;

    fn quick(procs_per_node: u32, smp: bool) -> RunReport {
        let mut cfg = PingAckConfig::new(procs_per_node, smp);
        cfg.workers_per_node = 16;
        cfg.messages_per_worker = 200;
        run_pingack(cfg)
    }

    #[test]
    fn every_receiver_acks_pe0() {
        let report = quick(2, true);
        assert!(report.clean());
        assert_eq!(report.counter("pingack_sent"), 16 * 200);
        assert_eq!(report.counter("pingack_complete_receivers"), 16);
        assert_eq!(report.counter("pingack_acks"), 16);
        assert_eq!(report.counter("pingack_acks_received_pe0"), 16);
    }

    #[test]
    fn smp_one_process_is_the_bottleneck() {
        // Fig. 3: SMP with a single process (one comm thread for the whole
        // node) is much slower than non-SMP; adding processes closes the gap.
        let smp1 = quick(1, true);
        let smp4 = quick(4, true);
        let non_smp = quick(1, false);
        assert!(
            smp1.total_time_ns > non_smp.total_time_ns,
            "smp1={} non_smp={}",
            smp1.total_time_ns,
            non_smp.total_time_ns
        );
        assert!(
            smp4.total_time_ns < smp1.total_time_ns,
            "smp4={} smp1={}",
            smp4.total_time_ns,
            smp1.total_time_ns
        );
    }

    #[test]
    fn extra_work_hides_the_comm_thread() {
        // With enough application work per message the comm thread stops being
        // the bottleneck, so adding work increases total time roughly linearly
        // rather than being absorbed.
        let mut light = PingAckConfig::new(1, true);
        light.workers_per_node = 8;
        light.messages_per_worker = 100;
        let mut heavy = light;
        heavy.work_per_message_ns = 5_000;
        let light_report = run_pingack(light);
        let heavy_report = run_pingack(heavy);
        assert!(heavy_report.total_time_ns > light_report.total_time_ns);
    }

    #[test]
    fn native_backend_acks_every_receiver() {
        let mut cfg = PingAckConfig::new(2, true);
        cfg.workers_per_node = 8;
        cfg.messages_per_worker = 200;
        let report = run_spec(RunSpec::for_app(cfg).backend(Backend::Native));
        assert!(report.clean());
        assert_eq!(report.counter("pingack_sent"), 8 * 200);
        assert_eq!(report.counter("pingack_complete_receivers"), 8);
        assert_eq!(report.counter("pingack_acks_received_pe0"), 8);
    }

    #[test]
    fn with_total_messages_divides_evenly() {
        let cfg = PingAckConfig::new(8, true).with_total_messages(64_000);
        assert_eq!(cfg.messages_per_worker, 1000);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn invalid_process_split_panics() {
        let mut cfg = PingAckConfig::new(3, true);
        cfg.workers_per_node = 64;
        let _ = run_pingack(cfg);
    }
}
