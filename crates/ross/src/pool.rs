//! Envelope pool: slab-allocated cold storage for queued events.
//!
//! The pending-event queues keep only a small **hot entry** (timestamp +
//! slot index) in their sorted structures; the full [`Envelope`] — routing
//! fields, uid, model payload — parks here until the event is dequeued.
//! Slots are recycled through a free list, so once the simulation's event
//! population has peaked (`high_water`), the steady state performs **zero
//! heap allocations per event**: push reuses a freed slot, dequeue frees
//! it again, and the rollback re-insertions of the optimistic scheduler go
//! through exactly the same recycle path.
//!
//! An envelope is written once, when it parks. The conservative and
//! sequential schedulers then handle it where it sits
//! ([`EventPool::read_release`] behind `EventQueue::pop_with`) and drop it
//! in its slot, so a 136-byte CODES envelope is never copied back out;
//! only the optimistic scheduler, whose rollback history owns its events,
//! moves envelopes out with [`EventPool::take`].
//!
//! Separating hot from cold also makes the queues cache-conscious: rung
//! buckets and heap nodes sort 24/48-byte keys instead of moving whole
//! envelopes (which carry the model payload) through every bucket spill,
//! rung spawn and sift.

use crate::event::Envelope;

/// Best-effort read prefetch into all cache levels. A scheduling hint
/// only — never required for correctness; compiles to nothing off
/// x86_64. The schedulers use it to hide the slab/LP-state misses of the
/// *next* event behind the current event's handler.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Pool counters surfaced through scheduler telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Peak number of live (queued) envelopes — the slab never grows past
    /// the population high-water mark.
    pub high_water: u64,
    /// Slot reuses: pushes served from the free list instead of fresh
    /// slab growth. In steady state this tracks `pushes - high_water`.
    pub recycled: u64,
}

impl PoolStats {
    /// Fold per-thread pools into one record: peaks max, reuse sums.
    pub fn merge(&mut self, other: PoolStats) {
        self.high_water = self.high_water.max(other.high_water);
        self.recycled += other.recycled;
    }
}

/// Slab of envelopes with a free list. Indices are dense `u32` slots —
/// the queues store them beside the hot ordering key.
pub(crate) struct EventPool<E> {
    slots: Vec<Option<Envelope<E>>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    recycled: u64,
}

impl<E> EventPool<E> {
    pub(crate) fn new() -> Self {
        EventPool { slots: Vec::new(), free: Vec::new(), live: 0, high_water: 0, recycled: 0 }
    }

    /// Park an envelope, returning its slot.
    #[inline]
    pub(crate) fn insert(&mut self, env: Envelope<E>) -> u32 {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        match self.free.pop() {
            Some(i) => {
                self.recycled += 1;
                debug_assert!(self.slots[i as usize].is_none(), "free list points at live slot");
                self.slots[i as usize] = Some(env);
                i
            }
            None => {
                let i = self.slots.len();
                assert!(i < u32::MAX as usize, "event pool exceeds u32 slots");
                self.slots.push(Some(env));
                i as u32
            }
        }
    }

    /// Remove and return the envelope in `slot`, recycling the slot.
    #[inline]
    pub(crate) fn take(&mut self, slot: u32) -> Envelope<E> {
        let env = self.slots[slot as usize].take().expect("pool slot already empty");
        self.live -= 1;
        self.free.push(slot);
        env
    }

    /// Drop the envelope in live `slot` where it lies and recycle the
    /// slot. Cannot panic, so it may run from a drop guard.
    #[inline]
    fn release(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
        self.live -= 1;
        self.free.push(slot);
    }

    /// Call `f` on the envelope in `slot`, then [`EventPool::release`] it
    /// — also when `f` unwinds, so a model panic caught by a scheduler
    /// leaves the pool's population in step with its queue.
    #[inline]
    pub(crate) fn read_release<R>(&mut self, slot: u32, f: impl FnOnce(&Envelope<E>) -> R) -> R {
        struct Release<'a, E> {
            pool: &'a mut EventPool<E>,
            slot: u32,
        }
        impl<E> Drop for Release<'_, E> {
            #[inline]
            fn drop(&mut self) {
                self.pool.release(self.slot);
            }
        }
        assert!(self.slots[slot as usize].is_some(), "pool slot already empty");
        let guard = Release { pool: self, slot };
        f(guard.pool.get(slot))
    }

    /// Borrow the envelope in `slot` (peek / tie comparisons).
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &Envelope<E> {
        self.slots[slot as usize].as_ref().expect("pool slot empty")
    }

    /// Hint that `slot` will be read soon (see [`prefetch_read`]).
    #[inline(always)]
    pub(crate) fn prefetch(&self, slot: u32) {
        if let Some(s) = self.slots.get(slot as usize) {
            prefetch_read(s);
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats { high_water: self.high_water as u64, recycled: self.recycled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventUid;
    use crate::time::SimTime;

    fn env(seq: u64) -> Envelope<u64> {
        Envelope {
            recv_time: SimTime(seq),
            send_time: SimTime(0),
            src: 0,
            dst: 0,
            tiebreak: seq,
            uid: EventUid { src: 0, seq },
            payload: seq * 1000,
        }
    }

    #[test]
    fn slots_recycle_and_high_water_tracks_peak() {
        let mut p = EventPool::new();
        let a = p.insert(env(1));
        let b = p.insert(env(2));
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(a).payload, 1000);
        assert_eq!(p.take(a).uid.seq, 1);
        // The freed slot is reused; the slab does not grow.
        let c = p.insert(env(3));
        assert_eq!(c, a);
        assert_eq!(p.take(b).payload, 2000);
        assert_eq!(p.take(c).payload, 3000);
        let s = p.stats();
        assert_eq!(s.high_water, 2);
        assert_eq!(s.recycled, 1);
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn read_release_recycles_the_slot_even_on_unwind() {
        let mut p = EventPool::new();
        let a = p.insert(env(1));
        assert_eq!(p.read_release(a, |e| e.payload), 1000);
        assert_eq!(p.len(), 0);
        let b = p.insert(env(2));
        assert_eq!(b, a, "released slot is reused");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.read_release(b, |_| panic!("model panic"));
        }));
        assert!(caught.is_err());
        assert_eq!(p.len(), 0);
        assert_eq!(p.insert(env(3)), a);
        assert_eq!(p.stats(), PoolStats { high_water: 1, recycled: 2 });
    }

    #[test]
    #[should_panic(expected = "already empty")]
    fn double_take_is_caught() {
        let mut p = EventPool::new();
        let a = p.insert(env(1));
        p.take(a);
        p.take(a);
    }

    #[test]
    #[should_panic(expected = "already empty")]
    fn read_after_release_is_caught() {
        let mut p = EventPool::new();
        let a = p.insert(env(1));
        p.read_release(a, |_| ());
        p.read_release(a, |_| ());
    }

    #[test]
    fn merge_folds_peaks_and_sums_reuse() {
        let mut a = PoolStats { high_water: 10, recycled: 5 };
        a.merge(PoolStats { high_water: 7, recycled: 9 });
        assert_eq!(a, PoolStats { high_water: 10, recycled: 14 });
    }
}
