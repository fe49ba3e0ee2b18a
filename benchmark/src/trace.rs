//! Benchmark-owned tracing: decorators around the app and its `RunCtx`.
//!
//! Spans are recorded from the benchmark's side of the public API only —
//! `run` ⊃ `worker.on_idle` ⊃ sampled `ctx.send` / `ctx.flush`, and
//! `worker.on_item_slice` ⊃ sampled `ctx.send` — which is where the app
//! layer meets the runtime layer.  Spans *inside* the runtime are a later
//! change to the program itself.
//!
//! Two outputs, both of which survive a forked worker process:
//!
//! * span **totals** per worker (count, total ns, sends made inside) travel
//!   through `on_finalize` counters, and give the self times: a span's
//!   duration minus the part its child spans cover;
//! * a bounded prefix of span **events** goes to a [`Sink`] and becomes a
//!   Chrome `trace_event` file.
//!
//! Tracing costs a virtual call and a counter per `send`, plus two clock
//! reads per callback and per sampled send; the benchmark reports that cost
//! as `trace_overhead_share` and never takes an end-to-end number from a
//! traced rep.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use smp_aggregation::metrics::Counters;
use smp_aggregation::net_model::{Topology, WorkerId};
use smp_aggregation::runtime_api::{
    AppDefaults, AppFactory, AppSpec, Item, Payload, ResolvedRunSpec, RunCtx, RunReport, WorkerApp,
};
use smp_aggregation::sim_core::StreamRng;

use crate::sink::{Sink, SinkWriter};

/// One in this many `ctx.send` calls is timed.  Prime, so the samples do not
/// line up with buffer sizes (every 512th send seals a 512-item buffer; a
/// stride of 64 would hit a seal with one sample in eight, not one in 512).
const SEND_SAMPLE: u64 = 61;
/// One in this many callbacks gets its events recorded (with its children).
const EVENT_STRIDE: u64 = 8;
/// Events kept per worker: the trace file covers the start of the run.
pub const EVENTS_PER_WORKER: usize = 32 * 1024;

const SPAN_NAMES: [&str; 5] = [
    "worker.on_idle",
    "worker.on_item_slice",
    "ctx.send",
    "ctx.flush",
    "run",
];
const ON_IDLE: u16 = 0;
const ON_ITEM_SLICE: u16 = 1;
const SEND: u16 = 2;
const FLUSH: u16 = 3;
const RUN: u16 = 4;

/// One recorded span: start relative to the trace epoch, duration, name id.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    start_ns: u64,
    dur_ns: u32,
    span: u16,
}

/// Everything a traced rep shares between the benchmark and its workers.
pub struct Trace {
    epoch: Instant,
    /// What one clock read costs here (median of back-to-back reads, tens of
    /// ns in a VM): taken off every timed span, or a 15 ns `send` would read
    /// as 60.
    clock_ns: u64,
    events: Sink<Event>,
}

impl Trace {
    pub fn new(workers: usize) -> Arc<Self> {
        let epoch = Instant::now();
        let mut reads: Vec<u64> = (0..1001)
            .map(|_| {
                let first = epoch.elapsed();
                (epoch.elapsed() - first).as_nanos() as u64
            })
            .collect();
        reads.sort_unstable();
        Arc::new(Trace {
            epoch,
            clock_ns: reads[reads.len() / 2],
            events: Sink::new(workers, EVENTS_PER_WORKER),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` (one `RunSpec::run`) and return its result with the enclosing
    /// `run` span, to be handed to [`Trace::chrome_json`].
    pub fn run_span<R>(&self, f: impl FnOnce() -> R) -> (R, Event) {
        let start_ns = self.now_ns();
        let result = f();
        let dur_ns = u32::try_from(self.now_ns() - start_ns).unwrap_or(u32::MAX);
        let span = Event {
            start_ns,
            dur_ns,
            span: RUN,
        };
        (result, span)
    }

    /// The recorded events as a Chrome `trace_event` document: one thread per
    /// worker, plus the `run` span on its own thread.
    pub fn chrome_json(&self, workers: usize, run: Event) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut emit = |tid: usize, e: &Event, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                SPAN_NAMES[e.span as usize],
                tid,
                e.start_ns as f64 / 1e3,
                e.dur_ns as f64 / 1e3
            );
        };
        let mut first = true;
        emit(workers, &run, &mut first);
        for w in 0..workers {
            for e in self.events.values(w) {
                emit(w, e, &mut first);
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// How many events the workers recorded.
    pub fn event_count(&self, workers: usize) -> usize {
        (0..workers).map(|w| self.events.values(w).len()).sum()
    }
}

/// Span totals of one traced rep, summed over workers, read back from the
/// `trace_*` counters the decorators publish in `on_finalize`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub idle_ns: u64,
    pub idle_calls: u64,
    pub idle_sends: u64,
    pub slice_ns: u64,
    pub slice_calls: u64,
    pub slice_items: u64,
    pub slice_sends: u64,
    pub send_sampled_ns: u64,
    pub send_samples: u64,
    pub flush_ns: u64,
    pub flushes: u64,
}

impl SpanTotals {
    /// Add another rep's totals.
    pub fn add(&mut self, other: &SpanTotals) {
        self.idle_ns += other.idle_ns;
        self.idle_calls += other.idle_calls;
        self.idle_sends += other.idle_sends;
        self.slice_ns += other.slice_ns;
        self.slice_calls += other.slice_calls;
        self.slice_items += other.slice_items;
        self.slice_sends += other.slice_sends;
        self.send_sampled_ns += other.send_sampled_ns;
        self.send_samples += other.send_samples;
        self.flush_ns += other.flush_ns;
        self.flushes += other.flushes;
    }

    pub fn from_report(report: &RunReport) -> Self {
        let c = |name| report.counter(name);
        SpanTotals {
            idle_ns: c("trace_idle_ns"),
            idle_calls: c("trace_idle_calls"),
            idle_sends: c("trace_idle_sends"),
            slice_ns: c("trace_slice_ns"),
            slice_calls: c("trace_slice_calls"),
            slice_items: c("trace_slice_items"),
            slice_sends: c("trace_slice_sends"),
            send_sampled_ns: c("trace_send_sampled_ns"),
            send_samples: c("trace_send_samples"),
            flush_ns: c("trace_flush_ns"),
            flushes: c("trace_flushes"),
        }
    }

    /// Mean duration of a sampled `ctx.send`, in ns.
    pub fn send_ns(&self) -> f64 {
        self.send_sampled_ns as f64 / self.send_samples.max(1) as f64
    }

    /// Self time of `worker.on_idle`: the span minus the sends and flushes
    /// made inside it (sends estimated from the sampled mean).
    pub fn idle_self_ns(&self) -> f64 {
        (self.idle_ns as f64 - self.idle_sends as f64 * self.send_ns() - self.flush_ns as f64)
            .max(0.0)
    }

    /// Self time of `worker.on_item_slice`: the span minus the sends made
    /// from inside the handler.
    pub fn slice_self_ns(&self) -> f64 {
        (self.slice_ns as f64 - self.slice_sends as f64 * self.send_ns()).max(0.0)
    }

    /// Total time the workers spent inside app callbacks (children included).
    pub fn callback_busy_ns(&self) -> u64 {
        self.idle_ns + self.slice_ns
    }
}

/// Wraps an [`AppSpec`] so every worker's app runs inside a [`TracedApp`].
pub struct Traced<A> {
    pub inner: A,
    pub trace: Arc<Trace>,
}

impl<A: AppSpec> AppSpec for Traced<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn native_capable(&self) -> bool {
        self.inner.native_capable()
    }
    fn sim_capable(&self) -> bool {
        self.inner.sim_capable()
    }
    fn defaults(&self) -> AppDefaults {
        self.inner.defaults()
    }
    fn factory(&self, run: &ResolvedRunSpec) -> AppFactory {
        let mut make = self.inner.factory(run);
        let trace = Arc::clone(&self.trace);
        Box::new(move |me: WorkerId| -> Box<dyn WorkerApp> {
            Box::new(TracedApp {
                inner: make(me),
                state: CtxState {
                    events: trace.events.writer(me.0 as usize),
                    trace: Arc::clone(&trace),
                    record_events: false,
                    child_clock_ns: 0,
                    sends: 0,
                    send_sampled_ns: 0,
                    send_samples: 0,
                    flush_ns: 0,
                    flushes: 0,
                },
                totals: SpanTotals::default(),
                callbacks: 0,
            })
        })
    }
}

struct TracedApp {
    inner: Box<dyn WorkerApp>,
    state: CtxState,
    totals: SpanTotals,
    callbacks: u64,
}

/// The part of the decorator a [`TracedCtx`] updates while a callback runs.
struct CtxState {
    trace: Arc<Trace>,
    events: SinkWriter<Event>,
    /// Whether the callback in progress (and its children) records events.
    record_events: bool,
    /// Clock reads made for child spans of the callback in progress, which
    /// its own span would otherwise count as app time.
    child_clock_ns: u64,
    sends: u64,
    send_sampled_ns: u64,
    send_samples: u64,
    flush_ns: u64,
    flushes: u64,
}

impl CtxState {
    /// Time `f` as a child span of the callback in progress; returns its
    /// duration net of the clock read.
    fn child(&mut self, span: u16, f: impl FnOnce()) -> u64 {
        let start_ns = self.trace.now_ns();
        f();
        let dur_ns = (self.trace.now_ns() - start_ns).saturating_sub(self.trace.clock_ns);
        self.child_clock_ns += 2 * self.trace.clock_ns;
        self.event(span, start_ns, dur_ns);
        dur_ns
    }

    fn event(&mut self, span: u16, start_ns: u64, dur_ns: u64) {
        if self.record_events {
            self.events.push(Event {
                start_ns,
                dur_ns: u32::try_from(dur_ns).unwrap_or(u32::MAX),
                span,
            });
        }
    }
}

impl TracedApp {
    /// Run one callback inside its span; returns what the callback returned
    /// and the number of sends made inside it.
    fn span<R>(
        &mut self,
        span: u16,
        ctx: &mut dyn RunCtx,
        f: impl FnOnce(&mut dyn WorkerApp, &mut dyn RunCtx) -> R,
    ) -> (R, u64, u64) {
        self.callbacks += 1;
        self.state.record_events = self.callbacks % EVENT_STRIDE == 1;
        let sends_before = self.state.sends;
        self.state.child_clock_ns = 0;
        let start_ns = self.state.trace.now_ns();
        let result = f(
            self.inner.as_mut(),
            &mut TracedCtx {
                inner: ctx,
                state: &mut self.state,
            },
        );
        let dur_ns = (self.state.trace.now_ns() - start_ns)
            .saturating_sub(self.state.trace.clock_ns + self.state.child_clock_ns);
        self.state.event(span, start_ns, dur_ns);
        (result, dur_ns, self.state.sends - sends_before)
    }
}

impl WorkerApp for TracedApp {
    fn on_start(&mut self, ctx: &mut dyn RunCtx) {
        self.inner.on_start(ctx);
    }

    fn on_item(&mut self, item: Payload, created_at_ns: u64, ctx: &mut dyn RunCtx) {
        // Backends deliver through `on_item_slice`; a lone item is a slice of
        // one so it is counted in the same span.
        self.on_item_slice(&[Item::new(ctx.my_id(), item, created_at_ns)], ctx);
    }

    fn on_item_slice(&mut self, items: &[Item<Payload>], ctx: &mut dyn RunCtx) {
        let ((), dur_ns, sends) =
            self.span(ON_ITEM_SLICE, ctx, |app, ctx| app.on_item_slice(items, ctx));
        self.totals.slice_ns += dur_ns;
        self.totals.slice_calls += 1;
        self.totals.slice_items += items.len() as u64;
        self.totals.slice_sends += sends;
    }

    fn on_idle(&mut self, ctx: &mut dyn RunCtx) -> bool {
        let (worked, dur_ns, sends) = self.span(ON_IDLE, ctx, |app, ctx| app.on_idle(ctx));
        // An `on_idle` that found nothing to do is the runtime polling, not
        // the app working: leave it out of the app's busy time.
        if worked {
            self.totals.idle_ns += dur_ns;
            self.totals.idle_calls += 1;
            self.totals.idle_sends += sends;
        }
        worked
    }

    fn local_done(&self) -> bool {
        self.inner.local_done()
    }

    fn on_finalize(&mut self, counters: &mut Counters) {
        self.inner.on_finalize(counters);
        let t = &self.totals;
        counters.add("trace_idle_ns", t.idle_ns);
        counters.add("trace_idle_calls", t.idle_calls);
        counters.add("trace_idle_sends", t.idle_sends);
        counters.add("trace_slice_ns", t.slice_ns);
        counters.add("trace_slice_calls", t.slice_calls);
        counters.add("trace_slice_items", t.slice_items);
        counters.add("trace_slice_sends", t.slice_sends);
        counters.add("trace_send_sampled_ns", self.state.send_sampled_ns);
        counters.add("trace_send_samples", self.state.send_samples);
        counters.add("trace_flush_ns", self.state.flush_ns);
        counters.add("trace_flushes", self.state.flushes);
    }
}

/// Forwards everything to the backend's own context, timing one `send` in
/// [`SEND_SAMPLE`] and every `flush`.
struct TracedCtx<'a> {
    inner: &'a mut dyn RunCtx,
    state: &'a mut CtxState,
}

impl RunCtx for TracedCtx<'_> {
    fn my_id(&self) -> WorkerId {
        self.inner.my_id()
    }
    fn topology(&self) -> Topology {
        self.inner.topology()
    }
    fn total_workers(&self) -> u32 {
        self.inner.total_workers()
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns);
    }
    fn charge_item_generation(&mut self) {
        self.inner.charge_item_generation();
    }
    fn rng(&mut self) -> &mut StreamRng {
        self.inner.rng()
    }
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.inner.counter(name, delta);
    }
    fn record_app_latency(&mut self, ns: u64) {
        self.inner.record_app_latency(ns);
    }

    fn send(&mut self, dest: WorkerId, payload: Payload) {
        self.state.sends += 1;
        if !self.state.sends.is_multiple_of(SEND_SAMPLE) {
            return self.inner.send(dest, payload);
        }
        let inner = &mut *self.inner;
        self.state.send_sampled_ns += self.state.child(SEND, || inner.send(dest, payload));
        self.state.send_samples += 1;
    }

    fn flush(&mut self) {
        let inner = &mut *self.inner;
        self.state.flush_ns += self.state.child(FLUSH, || inner.flush());
        self.state.flushes += 1;
    }

    fn flush_on_idle(&mut self) {
        self.inner.flush_on_idle();
    }
}
