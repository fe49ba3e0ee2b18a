//! The application-facing contract: [`WorkerApp`] and the [`RunCtx`] handed to
//! its callbacks.
//!
//! An application (histogram, index-gather, SSSP, PHOLD, PingAck, ...) runs one
//! [`WorkerApp`] instance per worker PE.  The execution backend — the
//! discrete-event simulator or the native threaded runtime — drives it with
//! three callbacks:
//!
//! * [`WorkerApp::on_start`] — once, before any other callback;
//! * [`WorkerApp::on_item`] — for every item delivered to this worker;
//! * [`WorkerApp::on_idle`] — whenever the worker has nothing delivered to
//!   process; the application uses it to generate its next chunk of work
//!   (returning `false` once there is nothing more to generate right now).
//!
//! All interaction with the backend happens through the [`RunCtx`] trait
//! object: sending items, flushing, charging CPU time for application work
//! (a modelled cost on the simulator, a no-op on real threads), deterministic
//! random numbers, and custom counters.

use net_model::{Topology, WorkerId};
use sim_core::StreamRng;
use tramlib::Item;

use crate::payload::Payload;

/// One worker PE's share of an application.
///
/// Implementations must be `Send`: the native backend moves each instance onto
/// its worker thread.  For the native backend's termination detection,
/// [`WorkerApp::local_done`] must also be *monotonic* — once it returns `true`
/// it keeps returning `true` (reacting to delivered items remains allowed).
pub trait WorkerApp: Send {
    /// Called once before any other callback (at simulated time zero on the
    /// simulator, right after thread start on the native backend).
    fn on_start(&mut self, _ctx: &mut dyn RunCtx) {}

    /// Called for every item delivered to this worker.
    fn on_item(&mut self, item: Payload, created_at_ns: u64, ctx: &mut dyn RunCtx);

    /// Slice-based delivery: called with a **borrowed** batch of items, all
    /// addressed to this worker, in delivery order.
    ///
    /// This is the zero-copy delivery entry point both backends drive: the
    /// native runtime hands over slices borrowed straight from shared slab
    /// arenas (or from pooled batch vectors), the simulator the per-worker
    /// groups of each delivered message.  The items are only borrowed — an
    /// implementation must copy out anything it wants to keep.
    ///
    /// The default forwards to [`WorkerApp::on_item`] per item; throughput-
    /// sensitive applications override it to amortize per-item work (counter
    /// updates, virtual dispatch) over the whole batch.  An override must be
    /// observably equivalent to the per-item default — same counter totals,
    /// same sends — because which entry point a backend batches through is a
    /// transport detail, and cross-backend equivalence is asserted in CI.
    fn on_item_slice(&mut self, items: &[Item<Payload>], ctx: &mut dyn RunCtx) {
        for item in items {
            self.on_item(item.data, item.created_at_ns, ctx);
        }
    }

    /// Called when the worker has no delivered items to process.  Generate the
    /// next chunk of work (sending items, charging generation cost) and return
    /// `true`, or return `false` if there is nothing to do right now (the
    /// worker will be woken again when something is delivered).
    fn on_idle(&mut self, _ctx: &mut dyn RunCtx) -> bool {
        false
    }

    /// `true` once this worker will not spontaneously generate any more work
    /// (it may still react to delivered items).  Used for idle-flush and
    /// wake-scheduling decisions and, on the native backend, for global
    /// termination detection — which is why it must be monotonic.
    fn local_done(&self) -> bool {
        true
    }

    /// Called once after the run has gone quiescent, so the application can
    /// publish its final state (e.g. computed SSSP distances, PDES statistics)
    /// into the run-report counters.
    fn on_finalize(&mut self, _counters: &mut metrics::Counters) {}
}

/// The backend context handed to application callbacks.
///
/// The simulator's implementation charges modelled costs and advances
/// simulated time; the native backend's implementation performs real buffer
/// insertions and reads the wall clock.  Applications must behave identically
/// on both as long as they derive all randomness from [`RunCtx::rng`] and
/// never branch on [`RunCtx::now_ns`] values.
pub trait RunCtx {
    /// The worker this context belongs to.
    fn my_id(&self) -> WorkerId;

    /// The cluster topology.
    fn topology(&self) -> Topology;

    /// Total number of worker PEs in the cluster.
    fn total_workers(&self) -> u32 {
        self.topology().total_workers()
    }

    /// Current time for this worker in nanoseconds: simulated time on the
    /// simulator, wall-clock time since run start on the native backend.
    fn now_ns(&self) -> u64;

    /// Charge `ns` of application CPU time to this worker.  A modelled cost on
    /// the simulator; a no-op on the native backend, where application work
    /// takes real time.
    fn charge(&mut self, _ns: u64) {}

    /// Charge the standard item-generation cost from the backend's cost model
    /// (no-op on the native backend).
    fn charge_item_generation(&mut self) {}

    /// Deterministic RNG stream of this worker.  Both backends derive the
    /// stream from `(experiment seed, worker id)`, so workloads generate
    /// identical traffic on either.
    fn rng(&mut self) -> &mut StreamRng;

    /// Add `delta` to a named application counter in the run report.
    fn counter(&mut self, name: &'static str, delta: u64);

    /// Record an application-level latency sample (e.g. the index-gather
    /// request→response round trip, or the service app's scheduled-arrival →
    /// response time), in nanoseconds.
    ///
    /// Both backends feed these samples into a full `metrics::LatencyRecorder`
    /// and surface them as the structured `RunReport::latency` summary
    /// (p50/p99/p999, optional SLO verdict).  The default is a no-op so
    /// third-party `RunCtx` implementations stay source-compatible; real
    /// backends must override it.
    fn record_app_latency(&mut self, _ns: u64) {}

    /// Send one item to `dest` through TramLib.
    fn send(&mut self, dest: WorkerId, payload: Payload);

    /// Explicitly flush this worker's aggregation buffers (for PP, the shared
    /// process-level buffers).
    fn flush(&mut self);

    /// Idle flush: only flushes if the configured [`tramlib::FlushPolicy`]
    /// enables flushing on idle, and then flushes every buffer.  Applications
    /// rarely need it: the simulator calls it when a worker's event queue
    /// runs dry, and the native engines decide for themselves when a partial
    /// buffer ships (on a quiet scheduling quantum, into a drained ring),
    /// without going through this method.
    fn flush_on_idle(&mut self);
}
