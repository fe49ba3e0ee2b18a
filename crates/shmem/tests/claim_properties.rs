//! Property tests for the lock-free [`shmem::ClaimBuffer`] — the one PP
//! protocol of `shmem::SegClaim`, stamps and drain lock, on a heap region:
//! for any (capacity, inserter count, items-per-inserter, flush cadence)
//! combination, racing inserters and an explicit `seal_flush` caller must
//! conserve every item exactly once.

use proptest::prelude::*;
use shmem::{ClaimBuffer, ClaimResult};
use std::sync::{Arc, Mutex};

/// Drive `threads` inserters (each inserting `per_thread` distinct values)
/// against `flushes` concurrent `seal_flush` calls; return every collected
/// value.
fn race(capacity: usize, threads: u64, per_thread: u64, flushes: u32) -> Vec<u64> {
    let buffer: Arc<ClaimBuffer<u64>> = Arc::new(ClaimBuffer::new(capacity));
    let collected: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let inserters: Vec<_> = (0..threads)
        .map(|t| {
            let buffer = buffer.clone();
            let collected = collected.clone();
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let mut value = t * per_thread + i;
                    loop {
                        match buffer.insert(value) {
                            ClaimResult::Stored => break,
                            ClaimResult::Sealed(items) => {
                                collected.lock().unwrap().extend(items);
                                break;
                            }
                            ClaimResult::Retry(v) => {
                                value = v;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let flusher = {
        let buffer = buffer.clone();
        let collected = collected.clone();
        std::thread::spawn(move || {
            for _ in 0..flushes {
                let items = buffer.seal_flush();
                collected.lock().unwrap().extend(items);
                std::thread::yield_now();
            }
        })
    };
    for h in inserters {
        h.join().unwrap();
    }
    flusher.join().unwrap();

    let mut all = collected.lock().unwrap().clone();
    all.extend(buffer.seal_flush());
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No (capacity, inserter-count) combination loses or duplicates items.
    #[test]
    fn items_conserved_for_any_capacity_and_inserter_count(
        capacity in 1usize..64,
        threads in 1u64..8,
        per_thread in 1u64..400,
        flushes in 0u32..16,
    ) {
        let mut all = race(capacity, threads, per_thread, flushes);
        prop_assert_eq!(all.len() as u64, threads * per_thread);
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len() as u64, threads * per_thread);
    }
}
