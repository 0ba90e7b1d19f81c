//! Property test for the pluggable event queues: the ladder queue must
//! dequeue in **bit-identical** order to the reference binary heap for
//! any stream of envelopes — including equal-`recv_time` collisions that
//! fall through to the `(send_time, src, tiebreak)` tiebreaks, and
//! interleaved push/pop patterns that exercise the ladder's frontier
//! (insertions below, inside, and above the current era). The in-place
//! dequeue `pop_with` must match the owning `pop` on both queues.

use proptest::prelude::*;
use ross::queue::{BinaryHeapQueue, LadderQueue};
use ross::{Envelope, EventQueue, SimTime};

/// Deterministic splitmix64 stream for building event batches.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A random envelope. `time_span` controls recv-time density: small spans
/// force many equal-`recv_time` collisions so the ordering decision falls
/// to `(send_time, src, tiebreak)` and, transiently, to `uid`.
fn env(rng: &mut Mix, seq: u64, base: u64, time_span: u64) -> Envelope<u64> {
    let recv = base + rng.below(time_span);
    let src = (rng.below(8)) as u32;
    Envelope {
        recv_time: SimTime(recv),
        // send_time ≤ recv_time as in a real run; collide often.
        send_time: SimTime(recv.saturating_sub(rng.below(4))),
        src,
        dst: (rng.below(8)) as u32,
        tiebreak: rng.below(6),
        uid: ross::EventUid { src, seq },
        payload: rng.next(),
    }
}

/// Identity of one dequeued event, payload included: equal fingerprints
/// mean the queues returned the *same event object*, not merely an
/// equally-keyed one.
fn print(e: &Envelope<u64>) -> Print {
    (e.recv_time.0, e.send_time.0, e.src, e.tiebreak, e.uid.src, e.uid.seq, e.payload)
}

type Print = (u64, u64, u32, u64, u32, u64, u64);

/// Dequeue one event from `owning` with `pop` and from `in_place` with
/// `pop_with` (after its slab-free `peek_time`); both must be the same
/// event, payload included.
fn pop_pair<Q: EventQueue<u64>>(owning: &mut Q, in_place: &mut Q) -> Option<Print> {
    let want = owning.pop().map(|e| print(&e));
    assert_eq!(in_place.peek_time(), want.map(|p| SimTime(p.0)));
    assert_eq!(in_place.pop_with(print), want);
    want
}

/// Owning and in-place dequeue of one stream, on each queue.
#[derive(Default)]
struct Quad {
    heap: (BinaryHeapQueue<u64>, BinaryHeapQueue<u64>),
    ladder: (LadderQueue<u64>, LadderQueue<u64>),
}

impl Quad {
    fn push(&mut self, e: Envelope<u64>) {
        self.heap.0.push(e.clone());
        self.heap.1.push(e.clone());
        self.ladder.0.push(e.clone());
        self.ladder.1.push(e);
    }

    /// The next event, the same from all four.
    fn pop(&mut self) -> Option<Print> {
        let h = pop_pair(&mut self.heap.0, &mut self.heap.1);
        assert_eq!(pop_pair(&mut self.ladder.0, &mut self.ladder.1), h);
        h
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// In-place dequeue: `pop_with` hands its closure exactly the event
    /// `pop` returns, on the heap and on the ladder, and both orders
    /// agree across the two queues. Pushes between dequeues land in the
    /// slots in-place releases just freed, so equal payloads and equal
    /// pool counters show a released slot is reused exactly like a taken
    /// one and never serves a stale envelope.
    #[test]
    fn pop_with_and_pop_dequeue_identically(
        seed in 0u64..u64::MAX,
        n_ops in 50usize..300,
        time_span in 1u64..500,
    ) {
        let mut rng = Mix(seed);
        let mut q = Quad::default();
        let mut seq = 0u64;
        let mut base = 0u64;
        for _ in 0..n_ops {
            if rng.below(2) == 0 {
                for _ in 0..rng.below(12) + 1 {
                    q.push(env(&mut rng, seq, base, time_span));
                    seq += 1;
                }
            } else {
                for _ in 0..rng.below(8) + 1 {
                    if let Some(p) = q.pop() {
                        base = p.0.saturating_sub(time_span / 2);
                    }
                }
            }
            prop_assert_eq!(q.heap.1.len(), q.heap.0.len());
            prop_assert_eq!(q.ladder.1.len(), q.ladder.0.len());
            prop_assert_eq!(q.heap.1.pool_stats(), q.heap.0.pool_stats());
            prop_assert_eq!(q.ladder.1.pool_stats(), q.ladder.0.pool_stats());
            prop_assert_eq!(q.ladder.1.ops(), q.ladder.0.ops());
        }
        while q.pop().is_some() {}
        prop_assert_eq!(q.heap.1.pool_stats(), q.heap.0.pool_stats());
        prop_assert_eq!(q.ladder.1.pool_stats(), q.ladder.0.pool_stats());
    }

    /// Feed the identical random stream — mixed bulk pushes, interleaved
    /// pops, and occasional full drains — into both queues; every pop
    /// must agree, bit for bit.
    #[test]
    fn ladder_and_heap_dequeue_identically(
        seed in 0u64..u64::MAX,
        n_ops in 50usize..400,
        time_span in 1u64..2000,
    ) {
        let mut rng = Mix(seed);
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        let mut seq = 0u64;
        let mut base = 0u64; // drifts forward like simulation time
        for _ in 0..n_ops {
            match rng.below(10) {
                // Bulk push: a batch lands at once (window seal pattern).
                0..=4 => {
                    for _ in 0..rng.below(20) + 1 {
                        let e = env(&mut rng, seq, base, time_span);
                        seq += 1;
                        heap.push(e.clone());
                        ladder.push(e);
                    }
                }
                // Interleaved pops below the frontier.
                5..=8 => {
                    for _ in 0..rng.below(8) + 1 {
                        let h = heap.pop();
                        let l = ladder.pop();
                        prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
                        if let Some(e) = h {
                            // Later pushes may land at or before this time:
                            // keep `base` honest but allow stragglers.
                            base = e.recv_time.0.saturating_sub(time_span / 2);
                        }
                    }
                }
                // Rarely: drain to empty, forcing a fresh era on refill.
                _ => {
                    loop {
                        let (h, l) = (heap.pop(), ladder.pop());
                        prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
                        if h.is_none() { break; }
                    }
                }
            }
            prop_assert_eq!(heap.len(), ladder.len());
            prop_assert_eq!(heap.peek_key(), ladder.peek_key());
        }
        // Final drain: whatever is left must come out in the same order.
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
            if h.is_none() { break; }
        }
    }

    /// Pool-recycling hygiene: with the hot/cold split, envelope payloads
    /// live in an `EventPool` slab whose slots are recycled on pop and
    /// `drain_to`. Stamp every payload as a pure function of its `uid`
    /// and check the identity on every event that comes back out — a
    /// recycled slot serving a *stale* payload (wrong take/insert pairing
    /// anywhere in the rung/bottom/top plumbing) breaks it immediately.
    #[test]
    fn recycled_slots_never_serve_stale_payloads(
        seed in 0u64..u64::MAX,
        n_ops in 50usize..300,
        time_span in 1u64..500,
    ) {
        fn stamp(uid: ross::EventUid) -> u64 {
            (uid.seq ^ 0xa076_1d64_78bd_642f)
                .wrapping_mul(0xe703_7ed1_a0b4_28db)
                ^ uid.src as u64
        }
        let mut rng = Mix(seed);
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        let mut seq = 0u64;
        let mut base = 0u64;
        let mut live = 0usize;
        for _ in 0..n_ops {
            match rng.below(10) {
                0..=4 => {
                    for _ in 0..rng.below(20) + 1 {
                        let mut e = env(&mut rng, seq, base, time_span);
                        e.payload = stamp(e.uid);
                        seq += 1;
                        live += 1;
                        heap.push(e.clone());
                        ladder.push(e);
                    }
                }
                5..=7 => {
                    for _ in 0..rng.below(8) + 1 {
                        let (h, l) = (heap.pop(), ladder.pop());
                        for e in h.iter().chain(l.iter()) {
                            prop_assert_eq!(e.payload, stamp(e.uid));
                        }
                        if let Some(e) = h {
                            live -= 1;
                            base = e.recv_time.0.saturating_sub(time_span / 2);
                        }
                    }
                }
                // Bulk eviction through `drain_to` (the set_queue /
                // checkpoint migration path) — recycles every slot at
                // once, then the queues refill into reused storage.
                _ => {
                    let (mut hd, mut ld) = (Vec::new(), Vec::new());
                    heap.drain_to(&mut hd);
                    ladder.drain_to(&mut ld);
                    prop_assert_eq!(hd.len(), live);
                    prop_assert_eq!(ld.len(), live);
                    for e in hd.iter().chain(ld.iter()) {
                        prop_assert_eq!(e.payload, stamp(e.uid));
                    }
                    live = 0;
                }
            }
        }
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            for e in h.iter().chain(l.iter()) {
                prop_assert_eq!(e.payload, stamp(e.uid));
            }
            if h.is_none() && l.is_none() { break; }
        }
    }

    /// Degenerate streams — every event at the *same* timestamp (the
    /// single-timestamp-era special case, including `u64::MAX`).
    #[test]
    fn identical_timestamps_fall_through_to_tiebreaks(
        seed in 0u64..u64::MAX,
        ts in 0u64..3,
    ) {
        let ts = [0, 12345, u64::MAX][ts as usize];
        let mut rng = Mix(seed);
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        for seq in 0..200u64 {
            let mut e = env(&mut rng, seq, 0, 1);
            e.recv_time = SimTime(ts);
            e.send_time = SimTime(ts.saturating_sub(rng.below(3)));
            heap.push(e.clone());
            ladder.push(e);
        }
        loop {
            let (h, l) = (heap.pop(), ladder.pop());
            prop_assert_eq!(h.as_ref().map(print), l.as_ref().map(print));
            if h.is_none() { break; }
        }
    }
}
