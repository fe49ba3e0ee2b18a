//! Each layer's public functions, timed in isolation on one seeded item
//! stream.
//!
//! These numbers say what a stage costs when nothing else is running: no
//! second thread evicting its cache lines (except where the function *is*
//! cross-thread), no scheduler.  They are the "expected" side of the
//! attribution; the traced workload reps are the "observed" side, and the
//! gap is reported as `native_rt.unattributed_ns`.
//!
//! Every timing is the median of [`ROUNDS`] rounds, each long enough
//! (milliseconds) for the clock reads to vanish.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use smp_aggregation::apps::common::RunSpecExt;
use smp_aggregation::apps::histogram::HistogramConfig;
use smp_aggregation::kernels;
use smp_aggregation::metrics::LatencyRecorder;
use smp_aggregation::net_model::{AlphaBeta, WorkerId};
use smp_aggregation::runtime_api::{Backend, ClusterSpec, Item, KernelMode, Payload, RunSpec};
use smp_aggregation::shmem::{
    ClaimBuffer, ClaimResult, SegArena, SegClaim, SegClaimInsert, SegHeader, SegRing, Segment,
    SegmentLayout, SlabArena, SpscRing,
};
use smp_aggregation::sim_core::StreamRng;
use smp_aggregation::tramlib::group::{group_in_place, scan_runs, GroupScratch};
use smp_aggregation::tramlib::{
    Aggregator, EmittedMessage, FlushPolicy, Owner, PooledReceiver, Scheme, TramConfig,
};
use smp_aggregation::transport::{
    Frame, FrameKind, SimTransport, TcpTransport, Transport, WireItem,
};

use crate::stats::median;
use crate::workloads::ONE_PROC;

const ROUNDS: usize = 7;
/// Items in the seeded stream every per-item timing walks.
const STREAM: usize = 1 << 16;
/// Buckets per worker, as in `HistogramConfig::new`.
const TABLE: u64 = 4096;
/// The buffer size of the per-item workloads.
const G: usize = 512;

/// Named per-layer results plus the gates the timings double as.
#[derive(Default)]
pub struct LayerResults {
    pub metrics: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

impl LayerResults {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Median over [`ROUNDS`] of the nanoseconds one call of `round` takes,
/// divided by `ops`.  One untimed call warms caches and pools first.
fn ns_per_op(ops: usize, mut round: impl FnMut()) -> f64 {
    round();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            round();
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&rounds)
}

/// The histogram's traffic as a flat stream: uniformly random destination
/// worker and bucket, exactly what `apps::histogram` hands to `send`.
fn item_stream(seed: u64) -> Vec<Item<Payload>> {
    let mut rng = StreamRng::new(seed, 0x1a7e5);
    let workers = u64::from(ONE_PROC.total_workers());
    (0..STREAM)
        .map(|_| {
            let global = rng.below(workers * TABLE);
            Item::new(
                WorkerId((global / TABLE) as u32),
                Payload::new(global % TABLE, 0),
                0,
            )
        })
        .collect()
}

fn tram(scheme: Scheme, buffer: usize) -> TramConfig {
    TramConfig::new(scheme, ONE_PROC.topology())
        .with_buffer_items(buffer)
        .with_local_bypass(false)
}

pub fn run(seed: u64) -> LayerResults {
    let mut out = LayerResults::default();
    let items = item_stream(seed);
    tramlib_layer(&mut out, &items);
    shmem_layer(&mut out, &items);
    kernels_layer(&mut out, &items);
    transport_layer(&mut out, &items, seed);
    small_layers(&mut out, seed);
    out
}

fn tramlib_layer(out: &mut LayerResults, items: &[Item<Payload>]) {
    for (name, scheme) in [
        ("tramlib.insert_ns.WW", Scheme::WW),
        ("tramlib.insert_ns.WPs", Scheme::WPs),
        ("tramlib.insert_ns.WsP", Scheme::WsP),
    ] {
        let mut agg = Aggregator::<Payload>::new(tram(scheme, G), Owner::Worker(WorkerId(0)));
        let ns = ns_per_op(items.len(), || {
            for (now, item) in items.iter().enumerate() {
                if let Some(message) = agg.insert_at(*item, now as u64).message {
                    agg.recycle(black_box(message).items);
                }
            }
        });
        out.put(name, ns);
    }

    // The slab path, at the two buffer sizes of the workloads.  A message
    // costs claim + seal + finish + release whatever its size, so with
    // t(g) = per_item + per_message / g the two timings separate the terms.
    let slab_insert = |buffer: usize| {
        let arena: SlabArena<Item<Payload>> = SlabArena::new(8, buffer);
        let mut agg =
            Aggregator::<Payload>::new(tram(Scheme::WPs, buffer), Owner::Worker(WorkerId(0)));
        let ns = ns_per_op(items.len(), || {
            for (now, item) in items.iter().enumerate() {
                match agg.insert_slab_at(&arena, *item, now as u64).message {
                    Some(EmittedMessage::Slab(sealed)) => {
                        black_box(&sealed);
                        arena.finish_consumer(sealed.handle.slab);
                        arena.release(sealed.handle.slab);
                    }
                    Some(EmittedMessage::Vec(message)) => agg.recycle(message.items),
                    None => {}
                }
            }
        });
        (ns, arena.stats().misses)
    };
    let (at_512, misses_512) = slab_insert(G);
    let (at_16, misses_16) = slab_insert(16);
    out.put("tramlib.insert_slab_ns.WPs", at_512);
    out.put(
        "tramlib.seal_ns_per_msg",
        ((at_16 - at_512) / (1.0 / 16.0 - 1.0 / G as f64)).max(0.0),
    );
    if misses_512 + misses_16 != 0 {
        out.failures
            .push("layer bench: the slab arena missed a claim".to_string());
    }

    // Grouping works in place, so every pass needs a fresh ungrouped copy;
    // the copy alone is timed too and subtracted.
    let wpp = ONE_PROC.workers_per_proc as usize;
    let mut scratch_items = items[..G].to_vec();
    let copy_ns = ns_per_op(items.len(), || {
        for chunk in items.chunks_exact(G) {
            scratch_items.copy_from_slice(chunk);
            black_box(&mut scratch_items);
        }
    });
    let mut scratch = GroupScratch::default();
    let mut runs = Vec::new();
    let group_ns = ns_per_op(items.len(), || {
        for chunk in items.chunks_exact(G) {
            scratch_items.copy_from_slice(chunk);
            group_in_place(&mut scratch_items, wpp, &mut scratch);
            runs.clear();
            scan_runs(&scratch_items, &mut runs);
            black_box(&runs);
        }
    });
    out.put("tramlib.group_ns", (group_ns - copy_ns).max(0.0));
    let mut receiver = PooledReceiver::<Payload>::new(tram(Scheme::WPs, G));
    let receiver_ns = ns_per_op(items.len(), || {
        for chunk in items.chunks_exact(G) {
            scratch_items.copy_from_slice(chunk);
            black_box(receiver.group_ranges(&mut scratch_items, false));
        }
    });
    out.put("tramlib.receiver_ns", (receiver_ns - copy_ns).max(0.0));

    // A timeout poll that finds nothing due: what every loop iteration of a
    // worker with a timeout policy pays.
    let policy = FlushPolicy::with_timeout(100_000);
    let mut agg = Aggregator::<Payload>::new(
        tram(Scheme::WPs, G).with_flush_policy(policy),
        Owner::Worker(WorkerId(0)),
    );
    black_box(agg.insert_at(items[0], 0));
    const POLLS: usize = 1 << 16;
    let poll_ns = ns_per_op(POLLS, || {
        for now in 0..POLLS as u64 {
            agg.poll_timeout_each(black_box(now % 1000), |m| {
                black_box(m);
            });
        }
    });
    out.put("tramlib.poll_timeout_ns", poll_ns);
}

/// `n` values from one thread to another through `push`/`pop`; ns per value.
fn ring_hop_ns(
    n: u64,
    push: impl Fn(u64) -> bool + Sync,
    pop: impl Fn() -> Option<u64> + Sync,
) -> f64 {
    ns_per_op(n as usize, || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for v in 0..n {
                    while !push(v) {
                        std::hint::spin_loop();
                    }
                }
            });
            let mut got = 0u64;
            while got < n {
                match pop() {
                    Some(v) => {
                        black_box(v);
                        got += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
    })
}

fn shmem_layer(out: &mut LayerResults, items: &[Item<Payload>]) {
    const HOPS: u64 = 1 << 18;
    const RING: usize = 1024;
    const MESSAGES: usize = 1 << 14;

    let ring: SpscRing<u64> = SpscRing::new(RING);
    out.put(
        "shmem.ring_hop_ns",
        ring_hop_ns(HOPS, |v| ring.push(v).is_ok(), || ring.pop()),
    );
    let mut popped = Vec::with_capacity(128);
    out.put(
        "shmem.ring_pop_into_ns",
        ns_per_op(128 * 512, || {
            for _ in 0..512 {
                for v in 0..128 {
                    let _ = ring.push(v);
                }
                popped.clear();
                black_box(ring.pop_into(&mut popped, 128));
            }
        }),
    );

    let arena: SlabArena<Item<Payload>> = SlabArena::new(8, G);
    let cycle = |writes: usize| {
        ns_per_op(MESSAGES, || {
            for m in 0..MESSAGES {
                let slab = arena.try_claim().expect("a free slab");
                for (i, item) in items[(m * 16) % (STREAM - G)..][..writes]
                    .iter()
                    .enumerate()
                {
                    // SAFETY: this thread claimed `slab` and has not sealed
                    // it; `i < writes <= G`, the slab capacity.
                    unsafe { arena.write(slab, i, *item) };
                }
                let handle = arena.seal(slab, writes as u32);
                black_box(&handle);
                arena.finish_consumer(handle.slab);
                arena.release(handle.slab);
            }
        })
    };
    let empty = cycle(0);
    out.put("shmem.slab_cycle_ns", empty);
    out.put(
        "shmem.slab_write_ns",
        ((cycle(G) - empty) / G as f64).max(0.0),
    );

    let claim: ClaimBuffer<Item<Payload>> = ClaimBuffer::new(G);
    let insert_all =
        |claim: &ClaimBuffer<Item<Payload>>, items: &[Item<Payload>], retries: &AtomicU64| {
            for item in items {
                let mut item = *item;
                loop {
                    match claim.insert(item) {
                        ClaimResult::Stored => break,
                        ClaimResult::Sealed(full) => {
                            black_box(full);
                            break;
                        }
                        ClaimResult::Retry(back) => {
                            retries.fetch_add(1, Ordering::Relaxed);
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        };
    let retries = AtomicU64::new(0);
    out.put(
        "shmem.claim_insert_ns.t1",
        ns_per_op(items.len(), || insert_all(&claim, items, &retries)),
    );
    black_box(claim.seal_flush());
    retries.store(0, Ordering::Relaxed);
    let (left, right) = items.split_at(items.len() / 2);
    // Two inserters share the buffer, as the two workers of a PP process do;
    // the time is per insert per thread (wall x 2 / inserts).
    let shared = ns_per_op(items.len() / 2, || {
        std::thread::scope(|scope| {
            scope.spawn(|| insert_all(&claim, left, &retries));
            insert_all(&claim, right, &retries);
        });
    });
    out.put("shmem.claim_insert_ns.t2", shared);
    out.put(
        "shmem.claim_retry_share",
        retries.load(Ordering::Relaxed) as f64 / ((ROUNDS + 1) * items.len()) as f64,
    );
    black_box(claim.seal_flush());

    // The offset-based twins the process backend is built from, laid out in
    // a real MAP_SHARED segment.
    let mut layout = SegmentLayout::new();
    let ring_at = layout.reserve(SegRing::<u64>::bytes_for(RING), SegRing::<u64>::ALIGN);
    let arena_at = layout.reserve(
        SegArena::<Item<Payload>>::bytes_for(8, G),
        SegArena::<Item<Payload>>::ALIGN,
    );
    let claim_at = layout.reserve(
        SegClaim::<Item<Payload>>::bytes_for(G),
        SegClaim::<Item<Payload>>::ALIGN,
    );
    let segment = Segment::create(layout.total(), SegHeader::new(0, std::process::id()))
        .expect("cannot map the layer-bench segment");
    // SAFETY: each region was reserved above with the type's own size and
    // alignment in a freshly created (zeroed) segment only this thread has
    // seen; the views die before `segment` does.
    let (seg_ring, seg_arena, seg_claim) = unsafe {
        (
            SegRing::<u64>::init(segment.at(ring_at), RING),
            SegArena::<Item<Payload>>::init(segment.at(arena_at), 8, G),
            SegClaim::<Item<Payload>>::init(segment.at(claim_at), G),
        )
    };
    out.put(
        "shmem.seg_ring_hop_ns",
        ring_hop_ns(HOPS, |v| seg_ring.push(v).is_ok(), || seg_ring.pop()),
    );
    out.put(
        "shmem.seg_slab_cycle_ns",
        ns_per_op(MESSAGES, || {
            for _ in 0..MESSAGES {
                let slab = seg_arena.try_claim().expect("a free slab");
                let handle = seg_arena.seal(slab, 0);
                black_box(&handle);
                seg_arena.finish_consumer(handle.slab);
                seg_arena.release(handle.slab);
            }
        }),
    );
    let mut drained = Vec::with_capacity(G);
    out.put(
        "shmem.seg_claim_insert_ns.t1",
        ns_per_op(items.len(), || {
            for item in items {
                match seg_claim.insert(*item) {
                    SegClaimInsert::Stored => {}
                    SegClaimInsert::MustDrain => {
                        seg_claim.begin_drain(0);
                        drained.clear();
                        seg_claim.drain_full(&mut drained, || false);
                        black_box(&drained);
                    }
                    SegClaimInsert::Retry => {
                        unreachable!("a single inserter drains before it retries")
                    }
                }
            }
        }),
    );
}

fn kernels_layer(out: &mut LayerResults, items: &[Item<Payload>]) {
    let mut checksums = Vec::new();
    for (mode, label_512, label_16) in [
        (
            KernelMode::Scalar,
            "kernels.hist_apply_ns.scalar.s512",
            "kernels.hist_apply_ns.scalar.s16",
        ),
        (
            KernelMode::Auto,
            "kernels.hist_apply_ns.auto.s512",
            "kernels.hist_apply_ns.auto.s16",
        ),
    ] {
        let kernel = kernels::resolve(mode);
        for (label, slice) in [(label_512, G), (label_16, 16)] {
            let mut table = vec![0u64; TABLE as usize];
            let mut checksum = 0u64;
            let ns = ns_per_op(items.len(), || {
                checksum = 0;
                for chunk in items.chunks_exact(slice) {
                    // SAFETY: `item_stream` draws every bucket below `TABLE`,
                    // the length of `table`.
                    checksum =
                        checksum.wrapping_add(unsafe { kernel.histogram_apply(chunk, &mut table) });
                }
            });
            out.put(label, ns);
            checksums.push(checksum);
        }
    }
    if checksums.iter().any(|&c| c != checksums[0]) {
        out.failures.push(format!(
            "kernel tiers disagree on the checksum: {checksums:?}"
        ));
    }
}

/// One frame from `a` to `b` and an ack back, both endpoints driven from this
/// thread (the transports never block); µs per round trip.
fn frame_rtt_us<T: Transport>(mut mesh: Vec<T>, frame: &Frame) -> f64 {
    let mut b = mesh.pop().expect("two endpoints");
    let mut a = mesh.pop().expect("two endpoints");
    let ack = Frame::control(FrameKind::Ack, frame.session, 1, 0, 1);
    let wait = |t: &mut T| loop {
        if let Some(frame) = t.try_recv().expect("the link stays up") {
            break frame;
        }
    };
    const TRIPS: usize = 256;
    ns_per_op(TRIPS, || {
        for _ in 0..TRIPS {
            a.send(1, frame).expect("the link stays up");
            black_box(wait(&mut b));
            b.send(0, &ack).expect("the link stays up");
            black_box(wait(&mut a));
        }
    }) / 1e3
}

fn transport_layer(out: &mut LayerResults, items: &[Item<Payload>], seed: u64) {
    let frame = Frame {
        kind: FrameKind::Batch,
        session: seed,
        src: 0,
        dst: 1,
        seq: 1,
        items: items[..G]
            .iter()
            .map(|item| WireItem {
                dest: u64::from(item.dest.0),
                a: item.data.a,
                b: item.data.b,
                created_at_ns: item.created_at_ns,
            })
            .collect(),
    };
    const FRAMES: usize = 2048;
    let mut bytes = Vec::with_capacity(frame.wire_bytes());
    out.put(
        "transport.encode_ns",
        ns_per_op(FRAMES * G, || {
            for _ in 0..FRAMES {
                bytes.clear();
                black_box(&frame).encode_into(&mut bytes);
                black_box(&bytes);
            }
        }),
    );
    out.put(
        "transport.decode_ns",
        ns_per_op(FRAMES * G, || {
            for _ in 0..FRAMES {
                // The first four bytes are the length prefix.
                black_box(Frame::decode(black_box(&bytes[4..])).expect("a frame we encoded"));
            }
        }),
    );

    let tcp = || TcpTransport::loopback_mesh(2, seed).expect("loopback TCP mesh");
    out.put("transport.tcp_frame_rtt_us", frame_rtt_us(tcp(), &frame));
    out.put(
        "transport.sim_frame_rtt_us",
        frame_rtt_us(SimTransport::mesh(2, AlphaBeta::loopback()), &frame),
    );

    // One-way stream: every frame is sent, then drained, from this thread;
    // encode + write + read + decode per item, no ack.
    let mut mesh = tcp();
    let mut b = mesh.pop().expect("two endpoints");
    let mut a = mesh.pop().expect("two endpoints");
    let per_item_ns = ns_per_op(FRAMES * G, || {
        for _ in 0..FRAMES {
            a.send(1, &frame).expect("the link stays up");
            while b.try_recv().expect("the link stays up").is_none() {}
        }
    });
    out.put("transport.tcp_stream_items_per_s", 1e9 / per_item_ns);
}

fn small_layers(out: &mut LayerResults, seed: u64) {
    const SAMPLES: usize = 1 << 18;
    let mut rng = StreamRng::new(seed, 0x1a7);
    let samples: Vec<u64> = (0..SAMPLES).map(|_| 1_000 + rng.below(1_000_000)).collect();
    let mut recorder = LatencyRecorder::new();
    out.put(
        "metrics.latency_record_ns",
        ns_per_op(SAMPLES, || {
            for &ns in &samples {
                recorder.record(ns);
            }
        }),
    );
    black_box(recorder.p50());

    // One fixed simulator configuration in the shape of the paper's fig. 9
    // (histogram, WPs, 2 nodes x 2 processes x 4 workers).  Simulated time
    // is a pure function of the seed, which the repeat checks.
    let simulate = || {
        let config = HistogramConfig::new(ClusterSpec::small_smp(2), Scheme::WPs)
            .with_updates(20_000)
            .with_buffer(64)
            .with_seed(seed);
        let started = Instant::now();
        let report = RunSpec::for_app(config).backend(Backend::Sim).run();
        (report, started.elapsed().as_secs_f64())
    };
    let runs: Vec<_> = (0..3).map(|_| simulate()).collect();
    let rates: Vec<f64> = runs
        .iter()
        .map(|(report, wall_s)| report.events_executed as f64 / wall_s)
        .collect();
    out.put("smp_sim.events_per_s", median(&rates));
    if runs
        .iter()
        .any(|(report, _)| !report.clean() || report.total_time_ns != runs[0].0.total_time_ns)
    {
        out.failures
            .push("simulator: simulated time did not repeat exactly".to_string());
    }
}
