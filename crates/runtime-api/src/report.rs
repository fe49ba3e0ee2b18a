//! The unified run result shared by both backends.

use metrics::{Counters, LatencyRecorder, LatencySummary};
use tramlib::TramStats;

use crate::backend::Backend;

/// Reclamation audit of one worker's slab arena, taken at teardown.
///
/// Every slab must land in exactly one bucket: on the free list, in flight
/// (positive `outstanding` refcount — a consumer still holds it), or leaked
/// (not free, refcount zero, owner gone).  `double_released` counts free-list
/// corruption (a slab encountered twice on the walk) and is always zero
/// unless the release protocol itself is broken.  This is the invariant
/// multi-process cleanup will enforce on segment detach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaAudit {
    /// Owning worker PE.
    pub worker: u32,
    /// Total slabs in the arena.
    pub slabs: u32,
    /// Slabs on the free list.
    pub free: u32,
    /// Slabs with a positive `outstanding` refcount (a consumer holds them).
    pub in_flight: u32,
    /// Slabs neither free nor referenced: lost to the arena.
    pub leaked: u32,
    /// Slabs seen more than once on the free-list walk (corruption).
    pub double_released: u32,
}

impl ArenaAudit {
    /// Slots the audit could not classify; zero when the books balance.
    pub fn unaccounted(&self) -> u32 {
        self.slabs
            .saturating_sub(self.free + self.in_flight + self.leaked)
            + self.double_released
    }
}

/// How one worker *process* of the multi-process backend ended.  Recorded in
/// [`RunDiagnostics::process_exits`] for every worker that did not exit
/// cleanly (killed by a signal, non-zero exit code, or lost entirely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessExit {
    /// Global worker id of the process.
    pub worker: u32,
    /// Its pid.
    pub pid: u32,
    /// Exit status: e.g. `killed by signal 9 (SIGKILL)` or
    /// `exited with code 101: <panic message>`.
    pub description: String,
}

impl std::fmt::Display for ProcessExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} (pid {}) {}",
            self.worker, self.pid, self.description
        )
    }
}

/// State of one inter-node link as seen from one end at teardown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkReport {
    /// The peer node.
    pub peer: u32,
    /// Whether the link was still healthy when the run ended.
    pub up: bool,
    /// Why the link was cut (`None` while up): a stable cause label like
    /// `partition fault`, `disconnect fault`, `heartbeat timeout`,
    /// `retransmit budget exhausted`, `peer closed`.
    pub cause: Option<String>,
}

/// Per-node transport diagnostics from the node-leader tier: connection
/// state, reliability counters and the node's share of the drop ledger.
/// Present on every multi-node run (clean or not) via
/// [`RunReport::node_reports`], and embedded in [`RunDiagnostics`] when a
/// run aborts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeDiag {
    /// The node this leader served.
    pub node: u32,
    /// Transport label: `tcp`, `uds` or `sim`.
    pub transport: String,
    /// Batch/control frames sent (first transmissions only).
    pub frames_sent: u64,
    /// Frames received and processed.
    pub frames_received: u64,
    /// Batch frames re-sent after an ack timeout.
    pub retransmits: u64,
    /// Heartbeat intervals that elapsed without hearing from some peer.
    pub heartbeat_misses: u64,
    /// Replayed batch frames rejected by the dedup guard.
    pub duplicates_rejected: u64,
    /// Items this leader shipped to other nodes.
    pub items_shipped: u64,
    /// Items this leader accepted from other nodes.
    pub items_received: u64,
    /// Items adopted into the drop ledger when links died (in-flight and
    /// post-cut traffic toward dead peers).
    pub items_dropped: u64,
    /// Wire faults injected by this node's leader.
    pub wire_faults_fired: u64,
    /// Modeled one-way wire nanoseconds (simulated transport only; 0 on
    /// real sockets).
    pub modeled_wire_ns: u64,
    /// Pumps of this node's wire state run by its leader thread.
    pub pumps_by_leader: u64,
    /// Pumps run by the node's own workers, helping at the end of a quantum
    /// that moved nothing inbound.
    pub pumps_by_worker: u64,
    /// Times the leader thread parked instead of napping because a local
    /// worker was awake and pumping.
    pub leader_standdowns: u64,
    /// Per-peer link state at teardown.
    pub links: Vec<LinkReport>,
}

impl std::fmt::Display for NodeDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} [{}] frames={}tx/{}rx retx={} hb_miss={} dup={} items={}out/{}in dropped={} faults={} pumps={}leader/{}worker standdowns={} links=[",
            self.node,
            self.transport,
            self.frames_sent,
            self.frames_received,
            self.retransmits,
            self.heartbeat_misses,
            self.duplicates_rejected,
            self.items_shipped,
            self.items_received,
            self.items_dropped,
            self.wire_faults_fired,
            self.pumps_by_leader,
            self.pumps_by_worker,
            self.leader_standdowns,
        )?;
        for (i, link) in self.links.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match (&link.up, &link.cause) {
                (true, _) => write!(f, "{}:up", link.peer)?,
                (false, Some(cause)) => write!(f, "{}:cut({cause})", link.peer)?,
                (false, None) => write!(f, "{}:cut", link.peer)?,
            }
        }
        f.write_str("]")
    }
}

/// Structured diagnostics captured when a run ends `Aborted`: the occupancy
/// snapshot the watchdog's escalation ladder dumps before giving up, plus the
/// slab reclamation audit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunDiagnostics {
    /// Workers whose loop panicked and were quarantined.
    pub panicked_workers: Vec<u32>,
    /// Workers whose progress heartbeat ever went silent past the soft-stall
    /// grace period (they may have resumed since).
    pub stalled_workers: Vec<u32>,
    /// Workers that reported completion before the run ended.
    pub workers_done: u32,
    /// Total worker PEs in the run.
    pub total_workers: u32,
    /// Items handed to `send` when the snapshot was taken.
    pub items_sent: u64,
    /// Items delivered to application handlers.
    pub items_delivered: u64,
    /// Items dropped by quarantined workers (addressed to a dead PE, or
    /// stranded in its buffers when it died).
    pub items_dropped: u64,
    /// Envelopes parked in worker stashes (mesh backpressure overflow).
    pub stashed_envelopes: u64,
    /// Envelopes sitting in delivery rings.
    pub inflight_ring_envelopes: u64,
    /// Per-arena reclamation audits (empty when the run used no arenas).
    pub arena_audits: Vec<ArenaAudit>,
    /// Abnormal per-process exit statuses (multi-process backend only;
    /// empty on the simulator and the threaded backend).
    pub process_exits: Vec<ProcessExit>,
    /// Per-node transport diagnostics (node-leader tier only; empty on
    /// single-node runs).
    pub node_reports: Vec<NodeDiag>,
}

impl RunDiagnostics {
    /// Total leaked slabs across every audited arena.
    pub fn leaked_slabs(&self) -> u32 {
        self.arena_audits.iter().map(|a| a.leaked).sum()
    }

    /// Total unaccounted slab slots across every audited arena.
    pub fn unaccounted_slabs(&self) -> u32 {
        self.arena_audits.iter().map(|a| a.unaccounted()).sum()
    }

    /// One-line rendering used in abort reasons and CLI output.
    pub fn render(&self) -> String {
        let mut s = format!(
            "done={}/{} sent={} delivered={} dropped={} stashed={} inflight={} leaked_slabs={} panicked={:?} stalled={:?}",
            self.workers_done,
            self.total_workers,
            self.items_sent,
            self.items_delivered,
            self.items_dropped,
            self.stashed_envelopes,
            self.inflight_ring_envelopes,
            self.leaked_slabs(),
            self.panicked_workers,
            self.stalled_workers,
        );
        if !self.process_exits.is_empty() {
            s.push_str(" exits=[");
            for (i, exit) in self.process_exits.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&exit.to_string());
            }
            s.push(']');
        }
        if !self.node_reports.is_empty() {
            s.push_str(" nodes=[");
            for (i, node) in self.node_reports.iter().enumerate() {
                if i > 0 {
                    s.push_str("; ");
                }
                s.push_str(&node.to_string());
            }
            s.push(']');
        }
        s
    }
}

/// How a run ended.
///
/// Replaces the old `clean: bool`: a run is either fully healthy, quiescent
/// despite injected faults (every *delivered* item still accounted for), or
/// aborted with a reason and a diagnostics snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RunOutcome {
    /// Quiescent, every sent item delivered, no faults fired.
    #[default]
    Clean,
    /// Quiescent with exact item conservation, but injected faults fired
    /// along the way (stalls, arena exhaustion, ring bursts).
    Degraded {
        /// Number of injected faults that fired.
        faults_injected: u32,
    },
    /// The run did not reach quiescence (worker panic, watchdog expiry, or a
    /// teardown failure): `reason` says why, `diagnostics` says what the
    /// runtime looked like.
    Aborted {
        /// Human-readable cause, stable across runs of the same seed.
        reason: String,
        /// Occupancy + reclamation snapshot at abort time.
        diagnostics: RunDiagnostics,
    },
}

impl RunOutcome {
    /// Did the run reach quiescence with exact item conservation?  `true`
    /// for [`RunOutcome::Clean`] and [`RunOutcome::Degraded`] — the old
    /// `clean` boolean's meaning.
    pub fn is_quiescent(&self) -> bool {
        !matches!(self, RunOutcome::Aborted { .. })
    }

    /// Stable label: `clean`, `degraded`, or `aborted`.
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Clean => "clean",
            RunOutcome::Degraded { .. } => "degraded",
            RunOutcome::Aborted { .. } => "aborted",
        }
    }

    /// The abort diagnostics, if the run aborted.
    pub fn diagnostics(&self) -> Option<&RunDiagnostics> {
        match self {
            RunOutcome::Aborted { diagnostics, .. } => Some(diagnostics),
            _ => None,
        }
    }

    /// A short deterministic signature (label + abort reason) used by the
    /// chaos suite to assert that one seed reproduces one outcome.  Excludes
    /// the diagnostics snapshot, whose occupancy numbers are timing-noisy.
    pub fn signature(&self) -> String {
        match self {
            RunOutcome::Clean => "clean".into(),
            RunOutcome::Degraded { faults_injected } => format!("degraded({faults_injected})"),
            RunOutcome::Aborted { reason, .. } => format!("aborted: {reason}"),
        }
    }
}

/// Everything a figure (or a cross-backend comparison) needs from one run.
///
/// Produced by `smp_sim::run_cluster` with [`Backend::Sim`] semantics (times
/// are simulated nanoseconds) and by `native_rt::run_threaded` with
/// [`Backend::Native`] semantics (times are wall-clock nanoseconds on the host
/// machine).  Item/counter totals are backend-independent for deterministic
/// workloads; that property is what `tests/backend_equivalence.rs` checks.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which backend produced this report.
    pub backend: Backend,
    /// Total time until the run went quiescent, in nanoseconds (simulated or
    /// wall-clock depending on `backend`).
    pub total_time_ns: u64,
    /// Per-item latency distribution (item creation → handler execution) —
    /// the transport's view of latency.
    pub item_latency: LatencyRecorder,
    /// Application-level service latency summary (e.g. request→response round
    /// trips recorded through `RunCtx::record_app_latency`), with p50/p99/p999
    /// and an SLO verdict when a target was set.  `None` if the application
    /// recorded no samples.
    pub latency: Option<LatencySummary>,
    /// Run-wide counters: wire messages/bytes/items, comm-thread busy time,
    /// grouping passes, local deliveries, plus application counters
    /// (`wasted_updates`, `ooo_events`, ...).
    pub counters: Counters,
    /// Merged TramLib statistics from every aggregator.
    pub tram: TramStats,
    /// Distribution of delivered-batch sizes — items per application handler
    /// invocation.  Filled by the native backend (it explains per-scheme
    /// throughput ceilings: NoAgg delivers one item per envelope, aggregated
    /// schemes deliver whole buffers); empty on simulator runs.
    pub delivery_batch_len: metrics::QuantileSketch,
    /// Number of simulation events executed (0 on the native backend).
    pub events_executed: u64,
    /// Items handed to `send` during the run.
    pub items_sent: u64,
    /// Items delivered to application handlers.
    pub items_delivered: u64,
    /// How the run ended: clean, degraded by injected faults, or aborted
    /// with a reason and diagnostics.
    pub outcome: RunOutcome,
    /// Per-node transport diagnostics from the node-leader tier: one entry
    /// per node on multi-node native runs (whatever the outcome), empty
    /// everywhere else.
    pub node_reports: Vec<NodeDiag>,
}

impl RunReport {
    /// Total time in seconds (the y-axis of most figures).
    pub fn total_time_secs(&self) -> f64 {
        self.total_time_ns as f64 / 1e9
    }

    /// Mean item latency in nanoseconds.
    pub fn mean_latency_ns(&self) -> f64 {
        self.item_latency.mean()
    }

    /// Mean application-level latency (e.g. the index-gather round trip) if the
    /// application recorded any, in nanoseconds.
    pub fn mean_app_latency_ns(&self) -> f64 {
        self.latency.map_or(0.0, |l| l.mean_ns)
    }

    /// Value of one named counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }

    /// Did the run reach quiescence with every sent item delivered?  The old
    /// `clean` boolean: `true` for [`RunOutcome::Clean`] and
    /// [`RunOutcome::Degraded`], `false` for [`RunOutcome::Aborted`].
    pub fn clean(&self) -> bool {
        self.outcome.is_quiescent()
    }

    /// A one-line human readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "backend={} time={} items={} delivered={} wire_msgs={} mean_latency={} outcome={}",
            self.backend,
            metrics::format_nanos(self.total_time_ns as f64),
            self.items_sent,
            self.items_delivered,
            self.counters.get("wire_messages"),
            metrics::format_nanos(self.item_latency.mean()),
            self.outcome.signature()
        );
        if let Some(latency) = self.latency {
            s.push_str(&format!(" app_latency[{}]", latency.render()));
        }
        if self.delivery_batch_len.count() > 0 {
            s.push_str(&format!(
                " batch_len[p50={:.0} max={:.0}]",
                self.delivery_batch_len.median(),
                self.delivery_batch_len.max()
            ));
        }
        for node in &self.node_reports {
            s.push_str(&format!("\n  {node}"));
        }
        s
    }

    /// JSON object rendering of the report (hand-rolled; the workspace has no
    /// serde): headline totals plus the structured latency summary.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"backend\":\"{}\",\"total_time_ns\":{},\"items_sent\":{},\"items_delivered\":{},\"wire_messages\":{},\"mean_item_latency_ns\":{:.1},\"clean\":{},\"outcome\":\"{}\"",
            self.backend,
            self.total_time_ns,
            self.items_sent,
            self.items_delivered,
            self.counters.get("wire_messages"),
            self.item_latency.mean(),
            self.clean(),
            self.outcome.label()
        );
        if let RunOutcome::Aborted {
            reason,
            diagnostics,
        } = &self.outcome
        {
            s.push_str(&format!(
                ",\"abort_reason\":\"{}\",\"leaked_slabs\":{}",
                reason.replace('\\', "\\\\").replace('"', "\\\""),
                diagnostics.leaked_slabs()
            ));
        }
        match self.latency {
            Some(latency) => s.push_str(&format!(",\"latency\":{}", latency.to_json())),
            None => s.push_str(",\"latency\":null"),
        }
        if self.delivery_batch_len.count() > 0 {
            s.push_str(&format!(
                ",\"delivery_batch_len\":{{\"count\":{},\"p50\":{:.1},\"p99\":{:.1},\"max\":{:.1}}}",
                self.delivery_batch_len.count(),
                self.delivery_batch_len.median(),
                self.delivery_batch_len.quantile(0.99),
                self.delivery_batch_len.max()
            ));
        } else {
            s.push_str(",\"delivery_batch_len\":null");
        }
        if !self.node_reports.is_empty() {
            s.push_str(",\"nodes\":[");
            for (i, n) in self.node_reports.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"node\":{},\"transport\":\"{}\",\"frames_sent\":{},\"frames_received\":{},\"retransmits\":{},\"heartbeat_misses\":{},\"duplicates_rejected\":{},\"items_shipped\":{},\"items_received\":{},\"items_dropped\":{},\"wire_faults_fired\":{},\"pumps_by_leader\":{},\"pumps_by_worker\":{},\"leader_standdowns\":{},\"links_up\":{}}}",
                    n.node,
                    n.transport,
                    n.frames_sent,
                    n.frames_received,
                    n.retransmits,
                    n.heartbeat_misses,
                    n.duplicates_rejected,
                    n.items_shipped,
                    n.items_received,
                    n.items_dropped,
                    n.wire_faults_fired,
                    n.pumps_by_leader,
                    n.pumps_by_worker,
                    n.leader_standdowns,
                    n.links.iter().filter(|l| l.up).count()
                ));
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut app_latency = LatencyRecorder::new();
        app_latency.record(500);
        app_latency.record(1_000);
        app_latency.record(1_500);
        RunReport {
            backend: Backend::Native,
            total_time_ns: 2_000_000_000,
            item_latency: LatencyRecorder::new(),
            latency: LatencySummary::from_recorder(&app_latency),
            counters: Counters::new(),
            tram: TramStats::new(),
            delivery_batch_len: metrics::QuantileSketch::default(),
            events_executed: 0,
            items_sent: 10,
            items_delivered: 10,
            outcome: RunOutcome::Clean,
            node_reports: Vec::new(),
        }
    }

    #[test]
    fn derived_quantities() {
        let r = report();
        assert!((r.total_time_secs() - 2.0).abs() < 1e-12);
        assert!((r.mean_app_latency_ns() - 1_000.0).abs() < 1e-9);
        assert_eq!(r.latency.unwrap().count, 3);
        assert_eq!(r.counter("missing"), 0);
        assert!(r.summary().contains("backend=native"));
        assert!(r.summary().contains("app_latency[n=3"));
        assert!(r.summary().contains("outcome=clean"));
    }

    #[test]
    fn json_rendering() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"backend\":\"native\""));
        assert!(json.contains("\"latency\":{\"count\":3"));
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"outcome\":\"clean\""));
        let mut no_latency = r.clone();
        no_latency.latency = None;
        assert!(no_latency.to_json().contains("\"latency\":null"));
        assert_eq!(no_latency.mean_app_latency_ns(), 0.0);
    }

    #[test]
    fn batch_len_rendering() {
        let mut r = report();
        assert!(r.to_json().contains("\"delivery_batch_len\":null"));
        assert!(!r.summary().contains("batch_len["));
        for _ in 0..10 {
            r.delivery_batch_len.record(32.0);
        }
        assert!(r.to_json().contains("\"delivery_batch_len\":{\"count\":10"));
        assert!(r.summary().contains("batch_len[p50=32 max=32]"));
    }

    #[test]
    fn outcome_semantics() {
        assert!(RunOutcome::Clean.is_quiescent());
        assert!(RunOutcome::Degraded { faults_injected: 2 }.is_quiescent());
        let aborted = RunOutcome::Aborted {
            reason: "worker 2 panicked".into(),
            diagnostics: RunDiagnostics::default(),
        };
        assert!(!aborted.is_quiescent());
        assert_eq!(aborted.label(), "aborted");
        assert_eq!(aborted.signature(), "aborted: worker 2 panicked");
        assert!(aborted.diagnostics().is_some());
        assert_eq!(RunOutcome::Clean.signature(), "clean");
        assert_eq!(
            RunOutcome::Degraded { faults_injected: 2 }.signature(),
            "degraded(2)"
        );
        assert_eq!(RunOutcome::default(), RunOutcome::Clean);
    }

    #[test]
    fn aborted_report_rendering() {
        let mut r = report();
        let diagnostics = RunDiagnostics {
            panicked_workers: vec![2],
            workers_done: 7,
            total_workers: 8,
            items_sent: 10,
            items_delivered: 8,
            items_dropped: 2,
            arena_audits: vec![ArenaAudit {
                worker: 2,
                slabs: 16,
                free: 15,
                in_flight: 0,
                leaked: 1,
                double_released: 0,
            }],
            ..RunDiagnostics::default()
        };
        assert_eq!(diagnostics.leaked_slabs(), 1);
        assert_eq!(diagnostics.unaccounted_slabs(), 0);
        assert!(diagnostics.render().contains("leaked_slabs=1"));
        assert!(
            !diagnostics.render().contains("exits="),
            "no process-exit clause without process exits"
        );
        let with_exits = RunDiagnostics {
            process_exits: vec![ProcessExit {
                worker: 2,
                pid: 4242,
                description: "killed by signal 9 (SIGKILL)".into(),
            }],
            ..diagnostics.clone()
        };
        assert!(with_exits
            .render()
            .contains("exits=[worker 2 (pid 4242) killed by signal 9 (SIGKILL)]"));
        r.outcome = RunOutcome::Aborted {
            reason: "worker 2 panicked: \"boom\"".into(),
            diagnostics,
        };
        assert!(!r.clean());
        let json = r.to_json();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"outcome\":\"aborted\""));
        assert!(json.contains("\"abort_reason\":\"worker 2 panicked: \\\"boom\\\"\""));
        assert!(json.contains("\"leaked_slabs\":1"));
        assert!(r.summary().contains("outcome=aborted: worker 2 panicked"));
    }

    #[test]
    fn node_diag_rendering() {
        let mut r = report();
        assert!(!r.to_json().contains("\"nodes\""));
        let diag = NodeDiag {
            node: 1,
            transport: "tcp".into(),
            frames_sent: 12,
            frames_received: 9,
            retransmits: 1,
            heartbeat_misses: 4,
            items_shipped: 300,
            items_received: 250,
            items_dropped: 50,
            pumps_by_leader: 7,
            pumps_by_worker: 40,
            leader_standdowns: 2,
            links: vec![
                LinkReport {
                    peer: 0,
                    up: true,
                    cause: None,
                },
                LinkReport {
                    peer: 2,
                    up: false,
                    cause: Some("heartbeat timeout".into()),
                },
            ],
            ..NodeDiag::default()
        };
        let line = diag.to_string();
        assert!(line.contains("node 1 [tcp]"));
        assert!(line.contains("retx=1"));
        assert!(line.contains("pumps=7leader/40worker standdowns=2"));
        assert!(line.contains("links=[0:up, 2:cut(heartbeat timeout)]"));
        r.node_reports = vec![diag.clone()];
        assert!(r.summary().contains("node 1 [tcp]"));
        let json = r.to_json();
        assert!(json.contains("\"nodes\":[{\"node\":1,\"transport\":\"tcp\""));
        assert!(json.contains("\"pumps_by_worker\":40"));
        assert!(json.contains("\"links_up\":1"));
        let in_diag = RunDiagnostics {
            node_reports: vec![diag],
            ..RunDiagnostics::default()
        };
        assert!(in_diag.render().contains("nodes=[node 1 [tcp]"));
    }

    #[test]
    fn arena_audit_accounting() {
        let balanced = ArenaAudit {
            worker: 0,
            slabs: 8,
            free: 5,
            in_flight: 2,
            leaked: 1,
            double_released: 0,
        };
        assert_eq!(balanced.unaccounted(), 0);
        let corrupt = ArenaAudit {
            double_released: 1,
            ..balanced
        };
        assert_eq!(corrupt.unaccounted(), 1);
        let missing = ArenaAudit {
            slabs: 9,
            ..balanced
        };
        assert_eq!(missing.unaccounted(), 1);
    }
}
