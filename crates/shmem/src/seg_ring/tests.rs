use crate::ring::SegRing;
use crate::segment::{SegHeader, Segment, SegmentLayout};

/// A segment holding one `capacity`-slot ring, initialised at `off`.
fn ring_segment<T: Copy>(capacity: usize) -> (Segment, usize, SegRing<T>) {
    let mut layout = SegmentLayout::new();
    let off = layout.reserve(SegRing::<T>::bytes_for(capacity), SegRing::<T>::ALIGN);
    let seg = Segment::create(layout.total(), SegHeader::new(1, std::process::id()))
        .expect("create segment");
    // SAFETY: fresh region reserved for this ring; the caller binds `seg`
    // before the view, so the mapping outlives it.
    let ring = unsafe { SegRing::init(seg.at(off), capacity) };
    (seg, off, ring)
}

#[test]
fn push_pop_fifo_in_segment() {
    let (_seg, _, ring) = ring_segment::<u64>(4);
    assert!(ring.is_empty());
    for i in 0..4 {
        ring.push(i).unwrap();
    }
    assert_eq!(ring.push(99), Err(99));
    assert_eq!(ring.len(), 4);
    for i in 0..4 {
        assert_eq!(ring.pop(), Some(i));
    }
    assert_eq!(ring.pop(), None);
}

#[test]
fn wraps_around() {
    let (_seg, _, ring) = ring_segment::<u32>(3);
    for round in 0..50u32 {
        ring.push(round * 2).unwrap();
        ring.push(round * 2 + 1).unwrap();
        assert_eq!(ring.pop(), Some(round * 2));
        assert_eq!(ring.pop(), Some(round * 2 + 1));
    }
    assert!(ring.is_empty());
}

#[test]
fn producer_consumer_threads_preserve_order_and_count() {
    let (_seg, _, ring) = ring_segment::<u64>(64);
    let ring = &ring;
    let total = 200_000u64;
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..total {
                let mut v = i;
                while let Err(rejected) = ring.push(v) {
                    v = rejected;
                    std::hint::spin_loop();
                }
            }
        });
        s.spawn(move || {
            let mut expected = 0u64;
            let mut batch = Vec::new();
            while expected < total {
                batch.clear();
                if ring.pop_into(&mut batch, 32) == 0 {
                    std::hint::spin_loop();
                }
                for v in &batch {
                    assert_eq!(*v, expected, "items must arrive in order");
                    expected += 1;
                }
            }
        });
    });
}

#[test]
fn attach_sees_initialised_state_and_checks_capacity() {
    let (seg, off, producer) = ring_segment::<u64>(8);
    producer.push(7).unwrap();
    // SAFETY: attaching to the region init'd above, same capacity/type;
    // `seg` outlives the view.
    let consumer: SegRing<u64> = unsafe { SegRing::attach(seg.at(off), 8) };
    assert_eq!(consumer.pop(), Some(7));
    assert_eq!(consumer.pop(), None);
}

#[test]
#[should_panic(expected = "ring capacity mismatch")]
fn attach_rejects_a_capacity_mismatch() {
    let (seg, off, _ring) = ring_segment::<u64>(8);
    // SAFETY: the region was initialised above; the capacity differs on
    // purpose and attach must refuse it before touching a slot.
    let _view: SegRing<u64> = unsafe { SegRing::attach(seg.at(off), 4) };
}
