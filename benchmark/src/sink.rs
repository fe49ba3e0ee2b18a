//! Per-worker append-only buffers the benchmark's own apps write raw results
//! into (latency samples, trace events).
//!
//! `RunReport` only carries sketched latency percentiles, and a `WorkerApp`
//! is consumed by the run, so the apps need a side channel back to the
//! benchmark.  It has to work on every backend, including forked worker
//! processes, so the buffers live in one `shmem::Segment` (`memfd` +
//! `MAP_SHARED`) created before the run: threads and forked children alike
//! see the mapping at the same address.

use std::marker::PhantomData;
use std::mem::{align_of, size_of};

use smp_aggregation::shmem::{SegHeader, Segment, SegmentLayout};

/// One region per worker: a `u64` length followed by up to `cap` values.
pub struct Sink<T> {
    segment: Segment,
    regions: Vec<usize>,
    cap: usize,
    _values: PhantomData<T>,
}

/// The single writer of one worker's region; moved into that worker's app.
pub struct SinkWriter<T> {
    len: *mut u64,
    data: *mut T,
    cap: usize,
}

// SAFETY: a writer points into a `Sink` region that exactly one worker owns
// for the duration of the run (`Sink::writer` is called once per worker), so
// moving it to that worker's thread or forked process shares nothing.
unsafe impl<T: Send> Send for SinkWriter<T> {}

impl<T: Copy> Sink<T> {
    /// Buffers for `workers` workers holding up to `cap` values each.
    pub fn new(workers: usize, cap: usize) -> Self {
        assert!(
            align_of::<T>() <= 8,
            "sink values must be at most 8-aligned"
        );
        let mut layout = SegmentLayout::new();
        let regions: Vec<usize> = (0..workers)
            .map(|_| layout.reserve(8 + cap * size_of::<T>(), 64))
            .collect();
        let header = SegHeader::new(0, std::process::id());
        let segment = Segment::create(layout.total(), header).expect("cannot map the result sink");
        assert!(
            segment.is_shared(),
            "the result sink needs a MAP_SHARED segment (linux)"
        );
        Sink {
            segment,
            regions,
            cap,
            _values: PhantomData,
        }
    }

    /// The writer for worker `w`'s region.  Call once per worker per run.
    pub fn writer(&self, w: usize) -> SinkWriter<T> {
        let base = self.segment.at(self.regions[w]);
        SinkWriter {
            len: base.cast::<u64>(),
            // SAFETY: the region is `8 + cap * size_of::<T>()` bytes, 64-byte
            // aligned, so the values start in bounds and at least 8-aligned.
            data: unsafe { base.add(8) }.cast::<T>(),
            cap: self.cap,
        }
    }

    /// Everything worker `w` wrote.  Only meaningful after the run that held
    /// the writer has returned (threads joined, children reaped).
    pub fn values(&self, w: usize) -> &[T] {
        let base = self.segment.at(self.regions[w]);
        // SAFETY: the writer is gone (see above), the length was stored by
        // `push` and never exceeds `cap`, and every slot below it was written.
        unsafe {
            let len = (*base.cast::<u64>() as usize).min(self.cap);
            std::slice::from_raw_parts(base.add(8).cast::<T>(), len)
        }
    }
}

impl<T: Copy> SinkWriter<T> {
    /// Append one value; values past the capacity are dropped (the gates
    /// compare counts, so an undersized sink fails the run instead of
    /// corrupting memory).
    pub fn push(&mut self, value: T) {
        // SAFETY: `len`/`data` point into this writer's own region (see
        // `Sink::writer`); the index is bounds-checked against `cap`.
        unsafe {
            let len = *self.len as usize;
            if len < self.cap {
                self.data.add(len).write(value);
                *self.len = len as u64 + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_per_worker() {
        let sink: Sink<u32> = Sink::new(2, 3);
        let (mut a, mut b) = (sink.writer(0), sink.writer(1));
        for v in [1, 2, 3, 4] {
            a.push(v); // the 4th is past the capacity and dropped
        }
        b.push(9);
        assert_eq!(sink.values(0), &[1, 2, 3]);
        assert_eq!(sink.values(1), &[9]);
    }

    #[test]
    fn a_writer_moved_to_another_thread_is_read_back_here() {
        let sink: Sink<u64> = Sink::new(1, 8);
        let mut w = sink.writer(0);
        std::thread::spawn(move || w.push(42)).join().unwrap();
        assert_eq!(sink.values(0), &[42]);
    }
}
