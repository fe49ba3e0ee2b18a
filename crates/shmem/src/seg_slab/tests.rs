use crate::segment::{SegHeader, Segment, SegmentLayout};
use crate::slab::{SegArena, SlabHandle};

/// A segment holding one arena of `slabs` × `cap` slots, initialised at
/// `off`.
fn arena_segment(slabs: usize, cap: usize) -> (Segment, usize, SegArena<u64>) {
    let mut layout = SegmentLayout::new();
    let off = layout.reserve(
        SegArena::<u64>::bytes_for(slabs, cap),
        SegArena::<u64>::ALIGN,
    );
    let seg = Segment::create(layout.total(), SegHeader::new(1, std::process::id()))
        .expect("create segment");
    // SAFETY: fresh region reserved for this arena; the caller binds `seg`
    // before the view, so the mapping outlives it.
    let arena = unsafe { SegArena::init(seg.at(off), slabs, cap) };
    (seg, off, arena)
}

/// The items behind `handle`, which must be live over a sealed slab.
fn items(arena: &SegArena<u64>, handle: SlabHandle) -> Vec<u64> {
    // SAFETY: the caller passes a live handle over a sealed slab.
    unsafe { arena.slice(handle.slab, 0, handle.len) }.to_vec()
}

#[test]
fn claim_fill_seal_borrow_release_round_trip() {
    let (_seg, _, arena) = arena_segment(2, 4);
    let slab = arena.try_claim().expect("fresh arena has free slabs");
    for i in 0..4 {
        // SAFETY: claimed above, unsealed, index < capacity.
        unsafe { arena.write(slab, i, 100 + i as u64) };
    }
    let handle = arena.seal(slab, 4);
    assert_eq!(items(&arena, handle), [100, 101, 102, 103]);
    assert!(arena.finish_consumer(handle.slab));
    arena.release(handle.slab);
    assert_eq!(arena.generation(handle.slab), handle.generation + 1);
    let stats = arena.stats();
    assert_eq!((stats.claims, stats.misses, stats.releases), (1, 0, 1));
}

#[test]
fn fill_copies_in_order_and_seals() {
    let (_seg, _, arena) = arena_segment(1, 4);
    // Cycle the slab once so the handle must carry a later generation.
    let first = arena.fill(&[9]).expect("fresh arena has a free slab");
    assert!(arena.finish_consumer(first.slab));
    arena.release(first.slab);

    let handle = arena.fill(&[7, 8, 9]).expect("released slab is free again");
    assert_eq!(handle.len, 3);
    assert_eq!(handle.generation, arena.generation(handle.slab));
    assert_eq!(handle.generation, first.generation + 1);
    assert_eq!(items(&arena, handle), [7, 8, 9]);

    assert_eq!(arena.fill(&[1]), None, "arena is dry");
    assert_eq!(arena.stats().misses, 1);
    assert!(arena.finish_consumer(handle.slab));
    arena.release(handle.slab);
}

#[test]
#[should_panic(expected = "overflow a 2-item slab")]
fn fill_rejects_more_items_than_a_slab_holds() {
    let (_seg, _, arena) = arena_segment(1, 2);
    let _ = arena.fill(&[1, 2, 3]);
}

#[test]
fn dry_arena_misses_and_recovers() {
    let (_seg, _, arena) = arena_segment(1, 2);
    let slab = arena.try_claim().expect("one free slab");
    assert_eq!(arena.try_claim(), None, "arena is dry");
    assert_eq!(arena.stats().misses, 1);
    let handle = arena.seal(slab, 0);
    assert!(arena.finish_consumer(handle.slab));
    arena.release(handle.slab);
    assert!(arena.try_claim().is_some());
}

#[test]
fn split_consumers_and_free_accounting() {
    let (_seg, _, arena) = arena_segment(3, 8);
    let slab = arena.fill(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap().slab;
    arena.add_consumers(slab, 2);
    assert!(!arena.finish_consumer(slab));
    assert!(!arena.finish_consumer(slab));
    assert!(arena.finish_consumer(slab), "third consumer is last");
    arena.release(slab);
    assert_eq!(arena.free_slabs(), 3);
}

#[test]
fn force_release_reclaims_leaked_and_in_flight_slabs() {
    let (_seg, _, arena) = arena_segment(4, 2);
    // A dead worker's wake: one claimed-never-sealed (leaked), one sealed
    // and stranded in flight.
    let _lost = arena.try_claim().unwrap();
    let stranded = arena.try_claim().unwrap();
    arena.seal(stranded, 1);
    let before = arena.audit();
    assert_eq!((before.free, before.in_flight, before.leaked), (2, 1, 1));
    assert_eq!(arena.force_release_leaked(), 2);
    let after = arena.audit();
    assert_eq!(
        (
            after.free,
            after.in_flight,
            after.leaked,
            after.unaccounted()
        ),
        (4, 0, 0, 0),
        "settlement must balance the books: {after:?}"
    );
    assert_eq!(arena.free_slabs(), 4);
}

#[test]
fn concurrent_claim_release_across_threads_conserves_slabs() {
    // Hammer the free list from several threads: consumers release slabs
    // they do not own, so the list must be MPMC-safe.
    let (_seg, _, arena) = arena_segment(8, 1);
    let arena = &arena;
    let rounds = 20_000;
    let total: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let mut claimed = 0u64;
                    for _ in 0..rounds {
                        if let Some(h) = arena.fill(&[7]) {
                            claimed += 1;
                            assert!(arena.finish_consumer(h.slab));
                            arena.release(h.slab);
                        }
                    }
                    claimed
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert!(total > 0);
    assert_eq!(arena.free_slabs(), 8, "every slab back on the free list");
    let audit = arena.audit();
    assert_eq!((audit.leaked, audit.double_released), (0, 0));
}

#[test]
fn attach_checks_geometry() {
    let (seg, off, arena) = arena_segment(2, 4);
    let handle = arena.fill(&[5, 6]).unwrap();
    // SAFETY: attaching to the region init'd above, same geometry; `seg`
    // outlives the view.
    let view: SegArena<u64> = unsafe { SegArena::attach(seg.at(off), 2, 4) };
    assert_eq!((view.slab_count(), view.slab_capacity()), (2, 4));
    assert_eq!(items(&view, handle), [5, 6]);
}

#[test]
#[should_panic(expected = "arena slab capacity mismatch")]
fn attach_rejects_a_geometry_mismatch() {
    let (seg, off, _arena) = arena_segment(2, 4);
    // SAFETY: the region was initialised above; the capacity differs on
    // purpose and attach must refuse it before touching a slab.
    let _view: SegArena<u64> = unsafe { SegArena::attach(seg.at(off), 2, 2) };
}
