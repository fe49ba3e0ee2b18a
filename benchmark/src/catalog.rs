//! Every metric this benchmark reports, by name — the one list that
//! `BENCHMARK.json`, the result lines and the README glossary agree on.
//!
//! A later performance claim in this repo is a `(metric, workload)` pair
//! from here and from `workloads::WORKLOADS`.

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change is rejected.  Quiet, ten runs spread 1-6 % (IQR / median), but
    /// the shared reference host changes state for minutes at a time and
    /// moves medians of the same binary by up to 20 %; see the README's A/A
    /// section for why every bound sits at the contract's ceiling.
    pub bound: f64,
}

pub const END_TO_END: [EndToEndMetric; 3] = [
    EndToEndMetric {
        name: "items_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric; the name's prefix is the
/// crate (layer) it belongs to.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("tramlib.insert_ns.WW", "ns", "lower"),
    ("tramlib.insert_ns.WPs", "ns", "lower"),
    ("tramlib.insert_ns.WsP", "ns", "lower"),
    ("tramlib.insert_slab_ns.WPs", "ns", "lower"),
    ("tramlib.seal_ns_per_msg", "ns", "lower"),
    ("tramlib.group_ns", "ns", "lower"),
    ("tramlib.receiver_ns", "ns", "lower"),
    ("tramlib.poll_timeout_ns", "ns", "lower"),
    ("tramlib.fill_ratio", "ratio", "higher"),
    ("tramlib.timeout_flush_share", "ratio", "lower"),
    ("shmem.ring_hop_ns", "ns", "lower"),
    ("shmem.ring_pop_into_ns", "ns", "lower"),
    ("shmem.slab_cycle_ns", "ns", "lower"),
    ("shmem.slab_write_ns", "ns", "lower"),
    ("shmem.claim_insert_ns.t1", "ns", "lower"),
    ("shmem.claim_insert_ns.t2", "ns", "lower"),
    ("shmem.claim_retry_share", "ratio", "lower"),
    ("shmem.seg_ring_hop_ns", "ns", "lower"),
    ("shmem.seg_slab_cycle_ns", "ns", "lower"),
    ("shmem.seg_claim_insert_ns.t1", "ns", "lower"),
    ("shmem.arena_claim_misses", "count", "lower"),
    ("kernels.hist_apply_ns.scalar.s512", "ns", "lower"),
    ("kernels.hist_apply_ns.scalar.s16", "ns", "lower"),
    ("kernels.hist_apply_ns.auto.s512", "ns", "lower"),
    ("kernels.hist_apply_ns.auto.s16", "ns", "lower"),
    ("apps.gen_ns", "ns", "lower"),
    ("apps.apply_ns", "ns", "lower"),
    ("native_rt.send_ns", "ns", "lower"),
    ("native_rt.runtime_share", "ratio", "lower"),
    ("native_rt.items_per_msg", "count", "higher"),
    ("native_rt.delivery_batch_p50", "count", "higher"),
    ("native_rt.grouping_passes_per_msg", "ratio", "lower"),
    ("native_rt.local_share", "ratio", "higher"),
    ("native_rt.unattributed_ns", "ns", "lower"),
    ("native_rt.trace_overhead_share", "ratio", "lower"),
    ("native_rt.p90_us", "us", "lower"),
    ("native_rt.p99_us", "us", "lower"),
    ("native_rt.sched_lag_ms", "ms", "lower"),
    ("native_rt.items_per_s.WW", "1/s", "higher"),
    ("native_rt.items_per_s.WsP", "1/s", "higher"),
    ("native_rt.items_per_s.PP", "1/s", "higher"),
    ("native_rt.p50_us.PP_r500k", "us", "lower"),
    ("native_rt.noagg_items_per_s", "1/s", "higher"),
    ("native_rt.local_proc_items_per_s", "1/s", "higher"),
    ("native_rt.run_overhead_ms.threaded", "ms", "lower"),
    ("native_rt.run_overhead_ms.process", "ms", "lower"),
    ("native_rt.run_overhead_ms.tcp", "ms", "lower"),
    ("transport.encode_ns", "ns", "lower"),
    ("transport.decode_ns", "ns", "lower"),
    ("transport.tcp_frame_rtt_us", "us", "lower"),
    ("transport.sim_frame_rtt_us", "us", "lower"),
    ("transport.tcp_stream_items_per_s", "1/s", "higher"),
    ("transport.items_per_frame", "count", "higher"),
    ("transport.retransmit_share", "ratio", "lower"),
    ("transport.dup_share", "ratio", "lower"),
    ("transport.hb_misses", "count", "lower"),
    ("transport.p50_us.tcp_r500k", "us", "lower"),
    ("transport.p50_us.sim_r500k", "us", "lower"),
    ("transport.sat_clean_share", "ratio", "higher"),
    ("transport.sat_items_per_s", "1/s", "higher"),
    ("transport.sat_retransmit_share", "ratio", "lower"),
    ("metrics.latency_record_ns", "ns", "lower"),
    ("smp_sim.events_per_s", "1/s", "higher"),
];

pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .or_else(|| END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// The contents of `/BENCHMARK.json`, generated so the file cannot drift
/// from the code (a unit test compares them).
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        for name in &names {
            assert!(is_name(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(
                is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
            assert!(matches!(m.better, "higher" | "lower"));
        }
        for (name, unit, better) in &PER_LAYER {
            assert!(is_unit(unit), "{name}");
            assert!(matches!(*better, "higher" | "lower"), "{name}");
        }
    }

    #[test]
    fn setup_s_is_an_end_to_end_metric_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn the_committed_benchmark_json_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
