//! Open-loop service latency: requests arrive on a seeded wall-clock
//! schedule whether or not the runtime keeps up, responses route back to the
//! issuing shard, and the report carries real p50/p99/p999 service latency
//! with an SLO verdict.
//!
//! ```text
//! cargo run --release --example service_latency
//! cargo run --release --example service_latency -- --seed 9 --buffer 128
//! ```
//!
//! Runs on the native backend only (the simulator has no timer events to
//! pace wall-clock arrivals with).  Noise-bounded latency numbers come from
//! the repo benchmark's paced cells: `bash benchmark/run.sh` (BENCHMARK.json).

use smp_aggregation::prelude::*;

fn main() {
    let args = CommonArgs::from_env();
    let cluster = ClusterSpec::smp(1, 2, 2); // 4 worker threads on this machine
    let rate_per_worker = 100_000.0; // offered requests/sec per shard
    let requests_per_worker = 50_000; // ~0.5 s of schedule

    println!(
        "Keyed service on {} shards, {rate_per_worker:.0} req/s per shard offered (open loop)",
        cluster.total_workers()
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12}",
        "scheme", "p50 (us)", "p99 (us)", "p999 (us)", "SLO p99<=50ms"
    );
    for scheme in Scheme::ALL {
        // `apply` honours --seed/--buffer/--pin; the backend is forced back
        // to Native afterwards because this app cannot run on the simulator.
        let spec = args
            .apply(
                RunSpec::for_app(ServiceConfig::new(cluster, scheme))
                    .scheme(scheme)
                    .load(open_loop(rate_per_worker).requests(requests_per_worker))
                    .slo(SloPolicy::p99_ms(50)),
            )
            .backend(Backend::Native);
        let report = spec.run();
        if !args.faults.is_empty() {
            // A run with injected faults is *supposed* to degrade or abort;
            // show the contained outcome instead of demanding a clean one.
            println!(
                "{:<8} outcome: {}",
                scheme.label(),
                report.outcome.signature()
            );
            continue;
        }
        assert!(report.clean(), "{scheme}: run must finish cleanly");
        let latency = report.latency.expect("service records latency");
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>10.1} {:>12}",
            scheme.label(),
            latency.p50_ns / 1e3,
            latency.p99_ns / 1e3,
            latency.p999_ns / 1e3,
            match latency.slo {
                Some(slo) if slo.met => "met",
                Some(_) => "MISSED",
                None => "-",
            },
        );
    }
    println!();
    println!("Latency is measured from each request's *scheduled* arrival, so a runtime");
    println!("that falls behind the schedule pays the backlog as latency. Aggregation");
    println!("trades per-message overhead against exactly this buffering delay; idle");
    println!("flushes and a fixed flush-timeout backstop bound it, see docs/DESIGN.md.");
}
