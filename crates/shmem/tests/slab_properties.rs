//! Property and stress tests for the [`shmem::SlabArena`] (the one arena
//! protocol of `shmem::SegArena`, on a heap region): for any
//! (capacity, claimant count) combination, racing claim → fill → seal →
//! cross-thread release cycles must conserve every item exactly once, never
//! hand one slab to two claimants at a time, and keep the generation
//! counters strictly increasing.

use proptest::prelude::*;
use shmem::{SlabArena, SlabHandle};
use std::sync::mpsc;
use std::sync::Arc;

/// One producer thread's claim → fill → seal → ship cycle, returning the
/// values it shipped plus the values it observed as a consumer.
///
/// `claimants` producer threads share one arena.  Each produced slab travels
/// over a channel to a dedicated consumer thread, which reads the borrowed
/// slice and sends the handle to a dedicated releaser thread — so claim,
/// read and release all happen on *different* threads, the worst case for
/// the hand-off protocol.
fn race(
    slab_count: usize,
    slab_capacity: usize,
    claimants: u64,
    per_thread: u64,
) -> (Vec<u64>, u64) {
    let arena: Arc<SlabArena<u64>> = Arc::new(SlabArena::new(slab_count, slab_capacity));
    let (ship_tx, ship_rx) = mpsc::channel::<SlabHandle>();
    let (home_tx, home_rx) = mpsc::channel::<SlabHandle>();

    let producers: Vec<_> = (0..claimants)
        .map(|t| {
            let arena = arena.clone();
            let ship_tx = ship_tx.clone();
            std::thread::spawn(move || {
                let mut overflow = Vec::new();
                for i in 0..per_thread {
                    let value = t * per_thread + i;
                    match arena.try_claim() {
                        Some(slab) => {
                            // Fill the slab with one distinct value per slot.
                            let len = 1 + (value as usize % arena.slab_capacity());
                            for slot in 0..len {
                                // SAFETY: claimed above, unsealed, in range.
                                unsafe { arena.write(slab, slot, value) };
                            }
                            let handle = arena.seal(slab, len as u32);
                            ship_tx.send(handle).unwrap();
                        }
                        None => {
                            // Arena dry: fall back to the heap, as the
                            // aggregator does.
                            overflow.push(value);
                            std::thread::yield_now();
                        }
                    }
                }
                overflow
            })
        })
        .collect();
    drop(ship_tx);

    // The consumer borrows each slab's slice and checks its contents are the
    // single value the producer wrote (a torn or stale slab would show a
    // mix), then hands the slab to the releaser.
    let consumer = {
        let arena = arena.clone();
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut delivered = 0u64;
            while let Ok(handle) = ship_rx.recv() {
                // SAFETY: we hold the live handle of a sealed slab.
                let items = unsafe { arena.slice(handle.slab, 0, handle.len) };
                assert!(!items.is_empty());
                let value = items[0];
                assert!(items.iter().all(|&v| v == value), "torn slab: {items:?}");
                assert_eq!(
                    arena.generation(handle.slab),
                    handle.generation,
                    "slab released while borrowed"
                );
                seen.push(value);
                delivered += items.len() as u64;
                assert!(arena.finish_consumer(handle.slab), "sole consumer");
                home_tx.send(handle).unwrap();
            }
            (seen, delivered)
        })
    };

    // The releaser returns spent slabs to the free list from yet another
    // thread (cross-thread release).
    let releaser = {
        let arena = arena.clone();
        std::thread::spawn(move || {
            let mut released = 0u64;
            while let Ok(handle) = home_rx.recv() {
                arena.release(handle.slab);
                released += 1;
            }
            released
        })
    };

    let mut values = Vec::new();
    for p in producers {
        values.extend(p.join().unwrap()); // overflow values
    }
    let (seen, delivered) = consumer.join().unwrap();
    values.extend(seen);
    let released = releaser.join().unwrap();

    let stats = arena.stats();
    assert_eq!(stats.claims, released, "every claim released exactly once");
    assert_eq!(
        arena.free_slabs(),
        slab_count,
        "all slabs back on the free list"
    );
    (values, delivered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No (slab count, capacity, claimant count) combination loses or
    /// duplicates a slab's contents, and the free list always recovers.
    #[test]
    fn slabs_conserved_for_any_capacity_and_claimant_count(
        slab_count in 1usize..12,
        slab_capacity in 1usize..32,
        claimants in 1u64..5,
        per_thread in 1u64..120,
    ) {
        let (mut values, _) = race(slab_count, slab_capacity, claimants, per_thread);
        prop_assert_eq!(values.len() as u64, claimants * per_thread);
        values.sort_unstable();
        values.dedup();
        prop_assert_eq!(values.len() as u64, claimants * per_thread,
            "every produced value observed exactly once");
    }
}

/// The satellite stress test: a small arena forces heavy recycling — well
/// over 1000 claim/seal/cross-thread-release generations per slab — while
/// claim, borrow and release race on three different threads.
#[test]
fn claim_seal_release_race_across_thousand_generations() {
    let slab_count = 4;
    let per_thread = 6_000u64;
    let claimants = 4u64;
    let (mut values, delivered) = race(slab_count, 8, claimants, per_thread);
    assert_eq!(values.len() as u64, claimants * per_thread);
    values.sort_unstable();
    values.dedup();
    assert_eq!(values.len() as u64, claimants * per_thread);
    assert!(delivered > 0);

    // Generations: each slab was reopened every time it was released.  With
    // 24K claims over 4 slabs the per-slab generation count far exceeds the
    // 1000-generation bar (unless the arena was mostly dry, which the
    // conservation check above would already have caught through overflow).
    let arena: SlabArena<u64> = SlabArena::new(1, 1);
    for _ in 0..1_500 {
        let slab = arena.try_claim().expect("sole slab is free");
        // SAFETY: claimed, unsealed, slot 0 in range.
        unsafe { arena.write(slab, 0, 7) };
        let handle = arena.seal(slab, 1);
        assert!(arena.finish_consumer(handle.slab));
        arena.release(handle.slab);
    }
    assert!(
        arena.generation(0) >= 1_500,
        "expected >= 1500 generations, saw {}",
        arena.generation(0)
    );
}

/// Split consumption: ranges of one slab are finished from multiple threads;
/// the last `finish_consumer` (whichever thread it lands on) must be the
/// unique release trigger.
#[test]
fn split_ranges_finish_from_racing_threads() {
    let arena: Arc<SlabArena<u64>> = Arc::new(SlabArena::new(2, 64));
    for round in 0..2_000u64 {
        let slab = arena.try_claim().expect("free slab");
        for slot in 0..64 {
            // SAFETY: claimed, unsealed, in range.
            unsafe { arena.write(slab, slot, round) };
        }
        let handle = arena.seal(slab, 64);
        let consumers = 4u32;
        arena.add_consumers(slab, consumers - 1);
        let last_count: u32 = (0..consumers)
            .map(|c| {
                let arena = arena.clone();
                std::thread::spawn(move || {
                    let start = c * 16;
                    // SAFETY: this thread holds the (conceptual) range
                    // start..start+16 of the sealed slab.
                    let items = unsafe { arena.slice(handle.slab, start, 16) };
                    assert!(items.iter().all(|&v| v == round));
                    u32::from(arena.finish_consumer(handle.slab))
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(last_count, 1, "exactly one consumer is last");
        arena.release(slab);
    }
    assert_eq!(arena.stats().misses, 0);
    assert_eq!(arena.free_slabs(), 2);
}
