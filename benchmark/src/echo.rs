//! `echo`: the benchmark's own request/response app.
//!
//! Modelled on `apps::service` (same burst cap, same seeded arrival
//! schedule, latency measured from the *scheduled* arrival), with three
//! differences that make it a measuring instrument rather than a proxy app:
//!
//! * worker `w` sends every request to worker `(w + W/2) mod W`, so the
//!   population is homogeneous — on a 2-node run every request and every
//!   response crosses the wire, and a median means something;
//! * each worker keeps its raw latency samples (ns, `u32`) in a [`Sink`] for
//!   the benchmark to merge — `RunReport::latency` only exposes sketched
//!   p50/p99/p999;
//! * the load shape is the app's own configuration, not `RunSpec::load`, so
//!   the same paced schedule also runs on `Backend::Process` (whose front
//!   door refuses `LoadShape::Open`).
//!
//! The handler replies from inside `on_item_slice`, which no histogram run
//! exercises: two-way traffic with sends made by the delivery path.

use std::sync::Arc;

use smp_aggregation::net_model::WorkerId;
use smp_aggregation::runtime_api::{
    AppDefaults, AppFactory, AppSpec, Item, Payload, ResolvedRunSpec, RunCtx, WorkerApp,
};
use smp_aggregation::tramlib::FlushPolicy;

use crate::sink::{Sink, SinkWriter};

/// Requests injected per `on_idle` call at most (as in `apps::service`), so a
/// worker behind its schedule still interleaves catching up with serving.
const MAX_BURST: u64 = 256;

const KIND_RESPONSE: u64 = 1 << 63;

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EchoLoad {
    /// Closed loop with `window` clients per worker: a worker keeps at most
    /// `window` requests outstanding and issues the next when a response
    /// returns.  `u64::MAX` is the saturating mode of `apps::service`.
    Closed { window: u64 },
    /// Open loop: Poisson arrivals at `rate_per_worker` requests/s, due
    /// whether or not the runtime keeps up.
    Open { rate_per_worker: f64 },
}

/// One echo run: how much traffic, offered how, and where the workers put
/// their samples.  Cluster, scheme and buffer come from the `RunSpec`.
pub struct EchoSpec {
    pub requests_per_worker: u64,
    pub load: EchoLoad,
    pub samples: Arc<Sink<u32>>,
}

struct EchoApp {
    me: WorkerId,
    peer: WorkerId,
    remaining: u64,
    load: EchoLoad,
    outstanding: u64,
    next_arrival_ns: u64,
    /// The furthest any request went out behind its scheduled arrival.
    max_lag_ns: u64,
    flushed: bool,
    sent: u64,
    served: u64,
    responses: u64,
    sent_checksum: u64,
    returned_checksum: u64,
    samples: SinkWriter<u32>,
}

impl WorkerApp for EchoApp {
    fn on_item(&mut self, item: Payload, _created: u64, ctx: &mut dyn RunCtx) {
        if item.a & KIND_RESPONSE == 0 {
            self.served += 1;
            let issuer = WorkerId((item.a & 0xFFFF) as u32);
            ctx.send(issuer, Payload::new(KIND_RESPONSE | item.a, item.b));
        } else {
            self.responses += 1;
            self.outstanding -= 1;
            self.returned_checksum = self.returned_checksum.wrapping_add(item.a & !KIND_RESPONSE);
            let latency_ns = ctx.now_ns().saturating_sub(item.b);
            self.samples
                .push(u32::try_from(latency_ns).unwrap_or(u32::MAX));
        }
    }

    fn on_item_slice(&mut self, items: &[Item<Payload>], ctx: &mut dyn RunCtx) {
        for item in items {
            self.on_item(item.data, item.created_at_ns, ctx);
        }
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        if self.remaining == 0 {
            return false;
        }
        let now = ctx.now_ns();
        let mut injected = 0u64;
        while self.remaining > 0 && injected < MAX_BURST {
            let scheduled = match self.load {
                EchoLoad::Open { .. } if self.next_arrival_ns > now => break,
                EchoLoad::Open { .. } => self.next_arrival_ns,
                EchoLoad::Closed { window } if self.outstanding >= window => break,
                EchoLoad::Closed { .. } => now,
            };
            // 47 random bits above the 16-bit issuer id; echoed back verbatim
            // and checksummed, so a lost or mangled item cannot go unnoticed.
            let a = (ctx.rng().next_u64() >> 17 << 16) | u64::from(self.me.0);
            ctx.send(self.peer, Payload::new(a, scheduled));
            self.sent += 1;
            self.sent_checksum = self.sent_checksum.wrapping_add(a);
            self.outstanding += 1;
            self.remaining -= 1;
            if let EchoLoad::Open { rate_per_worker } = self.load {
                self.max_lag_ns = self.max_lag_ns.max(now.saturating_sub(scheduled));
                self.next_arrival_ns += ctx.rng().exponential(1e9 / rate_per_worker).round() as u64;
            }
            injected += 1;
        }
        if self.remaining == 0 && !self.flushed {
            // The last request must not wait out a buffer timeout.
            ctx.flush();
            self.flushed = true;
        }
        match self.load {
            // Stay hot while the schedule is live (as `apps::service` does):
            // `false` would let the worker nap far longer than the gaps.
            EchoLoad::Open { .. } => true,
            // A full window has nothing to do until a response arrives; going
            // idle is what lets an on-idle flush policy ship partial buffers.
            EchoLoad::Closed { .. } => injected > 0,
        }
    }

    fn local_done(&self) -> bool {
        self.remaining == 0
    }

    fn on_finalize(&mut self, counters: &mut smp_aggregation::metrics::Counters) {
        counters.add("echo_requests", self.sent);
        counters.add("echo_served", self.served);
        counters.add("echo_responses", self.responses);
        // Folded to 32 bits each so the run-wide sums cannot overflow.
        counters.add("echo_sent_checksum", self.sent_checksum & 0xFFFF_FFFF);
        counters.add(
            "echo_returned_checksum",
            self.returned_checksum & 0xFFFF_FFFF,
        );
        counters.max("echo_max_lag_ns", self.max_lag_ns);
    }
}

impl AppSpec for EchoSpec {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn sim_capable(&self) -> bool {
        // Wall-clock pacing and timeout flushing: native backends only.
        false
    }

    fn defaults(&self) -> AppDefaults {
        AppDefaults {
            item_bytes: 16,
            // The service app's policy: drain on idle, age partial buffers
            // out after 100 µs.
            flush_policy: FlushPolicy {
                on_idle: true,
                ..FlushPolicy::with_timeout(100_000)
            },
            ..AppDefaults::default()
        }
    }

    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let (requests_per_worker, load) = (self.requests_per_worker, self.load);
        let samples = Arc::clone(&self.samples);
        let workers = run.cluster.total_workers();
        assert!(workers < 1 << 16, "echo packs the issuer id into 16 bits");
        Box::new(move |me: WorkerId| -> Box<dyn WorkerApp> {
            Box::new(EchoApp {
                me,
                peer: WorkerId((me.0 + workers / 2) % workers),
                remaining: requests_per_worker,
                load,
                outstanding: 0,
                next_arrival_ns: 0,
                max_lag_ns: 0,
                flushed: false,
                sent: 0,
                served: 0,
                responses: 0,
                sent_checksum: 0,
                returned_checksum: 0,
                samples: samples.writer(me.0 as usize),
            })
        })
    }
}
