//! TramLib configuration.

use crate::scheme::Scheme;
use net_model::Topology;

/// When buffered items are flushed in addition to "buffer became full" and an
/// explicit application flush call.
///
/// These correspond to the paper's §III-B: "Buffers can be flushed, optionally,
/// when the processor is idle, or when triggered by the application, or by a
/// timeout."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush partially filled buffers when the owning worker becomes idle.
    pub on_idle: bool,
    /// Flush a buffer if its oldest item has been waiting at least this many
    /// nanoseconds (checked by the substrate calling
    /// [`crate::Aggregator::poll_timeout`]).
    pub timeout_ns: Option<u64>,
}

impl FlushPolicy {
    /// Only explicit flushes (and full buffers) send data.
    pub const EXPLICIT_ONLY: FlushPolicy = FlushPolicy {
        on_idle: false,
        timeout_ns: None,
    };

    /// Flush on idle as well as on explicit request.
    pub const ON_IDLE: FlushPolicy = FlushPolicy {
        on_idle: true,
        timeout_ns: None,
    };

    /// Flush buffers whose oldest item exceeds the given age.
    pub fn with_timeout(timeout_ns: u64) -> FlushPolicy {
        FlushPolicy {
            on_idle: false,
            timeout_ns: Some(timeout_ns),
        }
    }
}

impl Default for FlushPolicy {
    fn default() -> Self {
        Self::EXPLICIT_ONLY
    }
}

/// Configuration of one TramLib instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TramConfig {
    /// Aggregation scheme.
    pub scheme: Scheme,
    /// Cluster topology (needed to map destination workers to processes).
    pub topology: Topology,
    /// Buffer capacity `g` in items per destination buffer.
    pub buffer_items: usize,
    /// Size `m` of one item on the wire, in bytes (payload + destination tag).
    pub item_bytes: u32,
    /// Fixed per-message envelope size in bytes.
    pub header_bytes: u32,
    /// Whether items whose destination worker lives in the *same process* as
    /// the source bypass aggregation and are delivered directly through shared
    /// memory (the Charm++ behaviour the paper assumes: "local sends are
    /// typically fast").
    pub local_bypass: bool,
    /// Flush policy.
    pub flush_policy: FlushPolicy,
    /// Collect the per-message destination-spread histogram (how many distinct
    /// destination workers each emitted message touches).  Computing it costs
    /// a sort (and, for schemes that do not already group at the source, a
    /// scratch allocation) per message, so it defaults to **off** and should
    /// only be enabled for analysis runs, never on throughput-critical paths.
    pub detailed_dest_stats: bool,
}

impl TramConfig {
    /// Paper defaults: buffer of 1024 items, 16-byte items, 64-byte envelope,
    /// local bypass enabled, explicit flushing only.
    pub fn new(scheme: Scheme, topology: Topology) -> Self {
        Self {
            scheme,
            topology,
            buffer_items: 1024,
            item_bytes: 16,
            header_bytes: 64,
            local_bypass: true,
            flush_policy: FlushPolicy::default(),
            detailed_dest_stats: false,
        }
    }

    /// Set the buffer capacity `g` (items).
    pub fn with_buffer_items(mut self, g: usize) -> Self {
        assert!(g > 0, "buffer must hold at least one item");
        self.buffer_items = g;
        self
    }

    /// Set the per-item wire size `m` (bytes).
    pub fn with_item_bytes(mut self, m: u32) -> Self {
        assert!(m > 0, "items occupy at least one byte");
        self.item_bytes = m;
        self
    }

    /// Set the per-message envelope size (bytes).
    pub fn with_header_bytes(mut self, h: u32) -> Self {
        self.header_bytes = h;
        self
    }

    /// Enable or disable the local (same-process) bypass.
    pub fn with_local_bypass(mut self, enabled: bool) -> Self {
        self.local_bypass = enabled;
        self
    }

    /// Set the flush policy.
    pub fn with_flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.flush_policy = policy;
        self
    }

    /// Enable or disable the per-message destination-spread histogram (see
    /// [`TramConfig::detailed_dest_stats`]; defaults to off).
    pub fn with_detailed_dest_stats(mut self, enabled: bool) -> Self {
        self.detailed_dest_stats = enabled;
        self
    }

    /// Wire size of a message carrying `items` items.
    pub fn message_bytes(&self, items: usize) -> u64 {
        self.header_bytes as u64 + items as u64 * self.item_bytes as u64
    }

    /// Number of destination buffers a *worker-owned* aggregator keeps
    /// (`N·t` for WW, `N` for WPs/WsP, 0 for NoAgg).  PP aggregators are
    /// process-owned and always keep `N` buffers.
    pub fn buffers_per_worker(&self) -> usize {
        match self.scheme {
            Scheme::NoAgg => 0,
            Scheme::WW => self.topology.total_workers() as usize,
            Scheme::WPs | Scheme::WsP => self.topology.total_procs() as usize,
            Scheme::PP => 0, // the buffer lives at the process level
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::smp(2, 4, 8)
    }

    #[test]
    fn defaults_match_paper() {
        let c = TramConfig::new(Scheme::WPs, topo());
        assert_eq!(c.buffer_items, 1024);
        assert!(c.local_bypass);
        assert_eq!(c.flush_policy, FlushPolicy::EXPLICIT_ONLY);
        assert!(
            !c.detailed_dest_stats,
            "destination histograms are analysis-only and default off"
        );
    }

    #[test]
    fn detailed_dest_stats_builder() {
        let c = TramConfig::new(Scheme::WPs, topo()).with_detailed_dest_stats(true);
        assert!(c.detailed_dest_stats);
    }

    #[test]
    fn builder_methods() {
        let c = TramConfig::new(Scheme::PP, topo())
            .with_buffer_items(512)
            .with_item_bytes(8)
            .with_header_bytes(32)
            .with_local_bypass(false)
            .with_flush_policy(FlushPolicy::with_timeout(10_000));
        assert_eq!(c.buffer_items, 512);
        assert_eq!(c.item_bytes, 8);
        assert_eq!(c.header_bytes, 32);
        assert!(!c.local_bypass);
        assert_eq!(c.flush_policy.timeout_ns, Some(10_000));
    }

    #[test]
    fn message_bytes_formula() {
        let c = TramConfig::new(Scheme::WW, topo())
            .with_item_bytes(16)
            .with_header_bytes(64);
        assert_eq!(c.message_bytes(0), 64);
        assert_eq!(c.message_bytes(1024), 64 + 1024 * 16);
    }

    #[test]
    fn buffers_per_worker_by_scheme() {
        let t = topo(); // 8 procs, 64 workers
        assert_eq!(TramConfig::new(Scheme::WW, t).buffers_per_worker(), 64);
        assert_eq!(TramConfig::new(Scheme::WPs, t).buffers_per_worker(), 8);
        assert_eq!(TramConfig::new(Scheme::WsP, t).buffers_per_worker(), 8);
        assert_eq!(TramConfig::new(Scheme::PP, t).buffers_per_worker(), 0);
        assert_eq!(TramConfig::new(Scheme::NoAgg, t).buffers_per_worker(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_buffer_rejected() {
        let _ = TramConfig::new(Scheme::WW, topo()).with_buffer_items(0);
    }

    #[test]
    fn flush_policy_constructors() {
        assert_eq!(
            FlushPolicy::ON_IDLE,
            FlushPolicy {
                on_idle: true,
                timeout_ns: None,
            }
        );
        assert_eq!(FlushPolicy::with_timeout(5).timeout_ns, Some(5));
        assert_eq!(FlushPolicy::default(), FlushPolicy::EXPLICIT_ONLY);
    }
}
