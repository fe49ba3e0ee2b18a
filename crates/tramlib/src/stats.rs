//! Per-aggregator statistics.

use crate::message::EmitReason;
use metrics::{Counters, OnlineStats};

/// Statistics accumulated by one [`crate::Aggregator`] (and mergeable across
/// aggregators, processes and runs).
///
/// Every tally is a plain field: recording sits on the per-item insert and
/// per-message seal paths, where a named-counter lookup would cost more than
/// the buffer push it accounts for.  [`TramStats::counters`] builds the named
/// view for reports once, when asked.
#[derive(Debug, Clone, Default)]
pub struct TramStats {
    items_inserted: u64,
    items_local_bypass: u64,
    messages_sent: u64,
    items_sent: u64,
    bytes_sent: u64,
    messages_full: u64,
    messages_explicit_flush: u64,
    messages_idle_flush: u64,
    messages_timeout_flush: u64,
    messages_unaggregated: u64,
    flush_calls: u64,
    /// Distribution of distinct destination workers per emitted message.
    /// Only populated when [`crate::TramConfig::detailed_dest_stats`] is on —
    /// computing the spread costs a per-message sort, so the default
    /// throughput path never records it.
    dest_spread: OnlineStats,
}

impl TramStats {
    /// New empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an item accepted for aggregation.
    pub fn record_insert(&mut self) {
        self.items_inserted += 1;
    }

    /// Record an item delivered directly through the local (same-process) bypass.
    pub fn record_local_bypass(&mut self) {
        self.items_local_bypass += 1;
    }

    /// Record a message handed to the transport.
    pub fn record_message(&mut self, items: usize, bytes: u64, reason: EmitReason) {
        self.messages_sent += 1;
        self.items_sent += items as u64;
        self.bytes_sent += bytes;
        *match reason {
            EmitReason::BufferFull => &mut self.messages_full,
            EmitReason::ExplicitFlush => &mut self.messages_explicit_flush,
            EmitReason::IdleFlush => &mut self.messages_idle_flush,
            EmitReason::TimeoutFlush => &mut self.messages_timeout_flush,
            EmitReason::Unaggregated => &mut self.messages_unaggregated,
        } += 1;
    }

    /// Record an explicit flush call from the application (whether or not it
    /// produced messages).
    pub fn record_flush_call(&mut self) {
        self.flush_calls += 1;
    }

    /// Record the number of distinct destination workers one emitted message
    /// touched (opt-in, see [`crate::TramConfig::detailed_dest_stats`]).
    pub fn record_dest_spread(&mut self, distinct_workers: usize) {
        self.dest_spread.record(distinct_workers as f64);
    }

    /// Merge statistics from another aggregator.
    pub fn merge(&mut self, other: &TramStats) {
        self.items_inserted += other.items_inserted;
        self.items_local_bypass += other.items_local_bypass;
        self.messages_sent += other.messages_sent;
        self.items_sent += other.items_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_full += other.messages_full;
        self.messages_explicit_flush += other.messages_explicit_flush;
        self.messages_idle_flush += other.messages_idle_flush;
        self.messages_timeout_flush += other.messages_timeout_flush;
        self.messages_unaggregated += other.messages_unaggregated;
        self.flush_calls += other.flush_calls;
        self.dest_spread.merge(&other.dest_spread);
    }

    /// Items accepted for aggregation (not counting local bypass).
    pub fn items_inserted(&self) -> u64 {
        self.items_inserted
    }

    /// Items delivered through the local bypass.
    pub fn items_local_bypass(&self) -> u64 {
        self.items_local_bypass
    }

    /// Messages handed to the transport.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages emitted because a buffer filled.
    pub fn messages_full(&self) -> u64 {
        self.messages_full
    }

    /// Messages emitted by any kind of flush (explicit, idle or timeout).
    pub fn messages_flushed(&self) -> u64 {
        self.messages_explicit_flush + self.messages_idle_flush + self.messages_timeout_flush
    }

    /// Total items carried by emitted messages.
    pub fn items_sent(&self) -> u64 {
        self.items_sent
    }

    /// Total bytes handed to the transport.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Explicit flush calls made by the application.
    pub fn flush_calls(&self) -> u64 {
        self.flush_calls
    }

    /// Mean number of items per emitted message (0 before the first one).
    pub fn mean_fill(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.items_sent as f64 / self.messages_sent as f64
        }
    }

    /// Mean number of distinct destination workers per emitted message, and
    /// how many messages were sampled.  Zero samples unless the aggregator ran
    /// with [`crate::TramConfig::detailed_dest_stats`] enabled.
    pub fn dest_spread(&self) -> &OnlineStats {
        &self.dest_spread
    }

    /// The tallies as named counters, for report output.  A name is present
    /// only if something was recorded under it: the per-message trio
    /// (`messages_sent`, `items_sent`, `bytes_sent`) once any message was,
    /// every other name once its count is non-zero.
    pub fn counters(&self) -> Counters {
        let mut counters = Counters::new();
        if self.messages_sent > 0 {
            counters.add("messages_sent", self.messages_sent);
            counters.add("items_sent", self.items_sent);
            counters.add("bytes_sent", self.bytes_sent);
        }
        for (name, value) in [
            ("items_inserted", self.items_inserted),
            ("items_local_bypass", self.items_local_bypass),
            ("messages_full", self.messages_full),
            ("messages_explicit_flush", self.messages_explicit_flush),
            ("messages_idle_flush", self.messages_idle_flush),
            ("messages_timeout_flush", self.messages_timeout_flush),
            ("messages_unaggregated", self.messages_unaggregated),
            ("flush_calls", self.flush_calls),
        ] {
            if value > 0 {
                counters.add(name, value);
            }
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = TramStats::new();
        s.record_insert();
        s.record_insert();
        s.record_local_bypass();
        s.record_message(2, 96, EmitReason::BufferFull);
        s.record_flush_call();
        s.record_message(1, 80, EmitReason::ExplicitFlush);

        assert_eq!(s.items_inserted(), 2);
        assert_eq!(s.items_local_bypass(), 1);
        assert_eq!(s.messages_sent(), 2);
        assert_eq!(s.messages_full(), 1);
        assert_eq!(s.messages_flushed(), 1);
        assert_eq!(s.items_sent(), 3);
        assert_eq!(s.bytes_sent(), 176);
        assert_eq!(s.flush_calls(), 1);
        assert!((s.mean_fill() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = TramStats::new();
        let mut b = TramStats::new();
        a.record_message(4, 128, EmitReason::BufferFull);
        b.record_message(2, 64, EmitReason::IdleFlush);
        b.record_insert();
        a.merge(&b);
        assert_eq!(a.messages_sent(), 2);
        assert_eq!(a.items_sent(), 6);
        assert_eq!(a.items_inserted(), 1);
        assert!((a.mean_fill() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reason_counters_distinct() {
        let mut s = TramStats::new();
        s.record_message(1, 1, EmitReason::TimeoutFlush);
        s.record_message(1, 1, EmitReason::Unaggregated);
        assert_eq!(s.counters().get("messages_timeout_flush"), 1);
        assert_eq!(s.counters().get("messages_unaggregated"), 1);
        assert_eq!(s.messages_flushed(), 1);
    }

    #[derive(Clone, Copy)]
    enum Op {
        Insert,
        Bypass,
        Message(usize, u64, EmitReason),
        FlushCall,
    }

    /// Replay `ops` into typed stats and into the string-keyed registry the
    /// typed fields replaced, recording exactly what each `record_*` call
    /// used to record there.
    fn play(ops: &[Op]) -> (TramStats, Counters) {
        let (mut typed, mut reference) = (TramStats::new(), Counters::new());
        for &op in ops {
            match op {
                Op::Insert => {
                    typed.record_insert();
                    reference.incr("items_inserted");
                }
                Op::Bypass => {
                    typed.record_local_bypass();
                    reference.incr("items_local_bypass");
                }
                Op::Message(items, bytes, reason) => {
                    typed.record_message(items, bytes, reason);
                    reference.incr("messages_sent");
                    reference.add("items_sent", items as u64);
                    reference.add("bytes_sent", bytes);
                    reference.incr(match reason {
                        EmitReason::BufferFull => "messages_full",
                        EmitReason::ExplicitFlush => "messages_explicit_flush",
                        EmitReason::IdleFlush => "messages_idle_flush",
                        EmitReason::TimeoutFlush => "messages_timeout_flush",
                        EmitReason::Unaggregated => "messages_unaggregated",
                    });
                }
                Op::FlushCall => {
                    typed.record_flush_call();
                    reference.incr("flush_calls");
                }
            }
        }
        (typed, reference)
    }

    #[test]
    fn counters_match_the_string_keyed_registry() {
        use EmitReason::*;
        // The full script covers every reason; the partial ones record only
        // some names (one of them only a zero-byte message, whose
        // `bytes_sent` must still be present), so presence is exercised too.
        // `Counters` equality compares the name-ordered (name, value) lists,
        // so it checks names, values and presence at once.
        let full = |inserts: usize| -> Vec<Op> {
            let mut ops = vec![Op::Insert; inserts];
            ops.extend([
                Op::Bypass,
                Op::Message(16, 16 * 8 + 32, BufferFull),
                Op::FlushCall,
                Op::Message(5, 72, ExplicitFlush),
                Op::Message(3, 56, IdleFlush),
                Op::Message(7, 88, TimeoutFlush),
                Op::Message(1, 40, Unaggregated),
            ]);
            ops
        };
        let partial = [Op::Insert, Op::Message(4, 64, IdleFlush)];
        let zero_bytes = [Op::Message(1, 0, Unaggregated)];

        let (a, ref_a) = play(&full(3));
        assert_eq!(a.counters(), ref_a);
        for ops in [&partial[..], &zero_bytes[..]] {
            let (b, ref_b) = play(ops);
            assert_eq!(b.counters(), ref_b);
            let (mut merged, mut ref_merged) = play(&full(5));
            merged.merge(&b);
            ref_merged.merge(&ref_b);
            assert_eq!(merged.counters(), ref_merged);
        }
        assert_eq!(
            play(&zero_bytes).0.counters().to_string(),
            "bytes_sent=0 items_sent=1 messages_sent=1 messages_unaggregated=1"
        );

        let mut empty = TramStats::new();
        empty.merge(&TramStats::new());
        assert!(empty.counters().is_empty());
    }
}
