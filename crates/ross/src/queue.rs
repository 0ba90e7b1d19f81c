//! Pluggable pending-event queues.
//!
//! Every scheduler keeps its runnable events in an [`EventQueue`]: a
//! priority queue over [`Envelope`]s whose dequeue order is **exactly** the
//! total order defined by `Envelope::cmp` — `(recv_time, send_time, src,
//! tiebreak)` then the uid fields. Two implementations share that contract:
//!
//! * [`BinaryHeapQueue`] — `std::collections::BinaryHeap<Reverse<_>>`, the
//!   original reference implementation. O(log n) push/pop, no bookkeeping.
//! * [`LadderQueue`] — a timestamp-bucketed multi-tier queue in the spirit
//!   of Tang/Goh/Thng's ladder queue, the structure real ROSS-class
//!   simulators use for their pending-event sets. O(1) amortized push/pop:
//!   events are thrown into coarse buckets and only the bucket currently
//!   being drained is ever sorted. Far-future events sit unsorted in a
//!   *top* tier; dequeue-front events sit fully sorted in a *bottom* tier;
//!   between them a stack of *rungs* subdivides time ever more finely,
//!   spawning a child rung whenever a bucket is too large to sort cheaply.
//!
//! ## Hot/cold split
//!
//! Neither structure moves whole envelopes around. On `push` the envelope
//! parks in a per-queue [`EventPool`] slab (recycled slots, zero
//! steady-state allocation — see `pool.rs`) and only a small **hot entry**
//! travels through the tiers:
//!
//! * the ladder scatters 24-byte `HotEntry { recv, send, src, slot }`
//!   records through its rungs and sorts those in `bottom` — only full
//!   `(recv, send, src)` collisions (rare: same sender, same times) fall
//!   through to the pooled envelope;
//! * the heap sifts 48-byte self-ordering `HeapEntry` records carrying the
//!   full [`EventKey`] + uid, ordered exactly like `Envelope::cmp`.
//!
//! Dequeue reads the cold half with one slab lookup, in one of two ways:
//!
//! * `pop_with(f)` — the path of the sequential and conservative
//!   schedulers — removes the hot entry, runs `f` on the envelope where it
//!   sits in the slab, then drops it there and frees the slot. The
//!   envelope is written once (park) and read in place, never copied out;
//! * `pop` moves the envelope out, for the optimistic scheduler, whose
//!   rollback history must own its events.
//!
//! No rung spill, era conversion or heap sift touches the payload. With
//! owning pops, a profile of Workload3 (`w3-seq`) spent about 22% of the
//! sequential scheduler's samples in `memmove` copying the 136-byte CODES
//! envelope: 8.3% out of the slab on pop, 4.8% into the scheduler's
//! local, 5.4% into the slab on push. `pop_with` removes the first two.
//!
//! Determinism: bucketing partitions events by `recv_time` only, which is
//! the major key of the envelope order, and every bucket is sorted with a
//! comparator equivalent to the full `Envelope` `Ord` before it is drained —
//! so equal-`recv_time` collisions (and even full-key ties, which the uid
//! breaks during optimistic rollback transients) dequeue in exactly the
//! order the binary heap produces. The scheduler-equivalence suites assert
//! this bit for bit; `tests/queue_equivalence.rs` property-tests it on
//! adversarial streams, including payload identity through slot recycling.
//!
//! Both queues maintain two plain-`u64` telemetry counters (total push/pop
//! ops and the length high-water mark) plus the pool counters
//! ([`PoolStats`]: population high-water, recycled slots). They are local,
//! non-atomic and branch-free, so the cost is a couple of register ops per
//! event; the schedulers only read them when a telemetry recorder is
//! attached.

use crate::event::{Envelope, EventKey};
use crate::pool::{EventPool, PoolStats};
use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The pending-event-set contract shared by all schedulers.
///
/// `peek` takes `&mut self` because the ladder queue materializes (sorts)
/// its front bucket lazily on first access; observable state never changes.
pub trait EventQueue<E> {
    /// Insert an event.
    fn push(&mut self, env: Envelope<E>);
    /// Remove and return the least event in the full envelope order.
    fn pop(&mut self) -> Option<Envelope<E>>;
    /// Remove the least event and call `f` on it where it sits in the
    /// envelope pool, then drop it there. Same order as [`EventQueue::pop`],
    /// without moving the envelope out.
    fn pop_with<R>(&mut self, f: impl FnOnce(&Envelope<E>) -> R) -> Option<R>;
    /// The least event, without removing it.
    fn peek(&mut self) -> Option<&Envelope<E>>;
    /// Number of queued events.
    fn len(&self) -> usize;
    /// Move every queued event into `out` (order unspecified) and reset.
    fn drain_to(&mut self, out: &mut Vec<Envelope<E>>);
    /// Total push + pop operations performed (telemetry).
    fn ops(&self) -> u64;
    /// Length high-water mark (telemetry).
    fn max_len(&self) -> u64;
    /// Envelope-pool counters (population high-water, recycled slots).
    fn pool_stats(&self) -> PoolStats;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `recv_time` of the least event.
    fn peek_time(&mut self) -> Option<SimTime> {
        self.peek().map(|e| e.recv_time)
    }

    /// Full ordering key of the least event.
    fn peek_key(&mut self) -> Option<EventKey> {
        self.peek().map(|e| e.key())
    }
}

/// Which [`EventQueue`] implementation a simulation (and the per-thread
/// queues its parallel schedulers create) should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap` — the reference implementation.
    Heap,
    /// Timestamp-bucketed ladder queue — O(1) amortized, the default.
    #[default]
    Ladder,
}

impl QueueKind {
    /// Stable name, used in `--queue` specs and telemetry records.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Heap => "heap",
            QueueKind::Ladder => "ladder",
        }
    }

    /// Parse a `--queue` spec. Malformed specs are reported, not defaulted.
    pub fn parse(s: &str) -> Result<QueueKind, String> {
        match s {
            "heap" => Ok(QueueKind::Heap),
            "ladder" => Ok(QueueKind::Ladder),
            _ => Err(format!("unknown queue `{s}` (expected heap or ladder)")),
        }
    }

    /// A fresh empty queue of this kind.
    pub fn new_queue<E>(self) -> PendingQueue<E> {
        match self {
            QueueKind::Heap => PendingQueue::Heap(BinaryHeapQueue::new()),
            QueueKind::Ladder => PendingQueue::Ladder(LadderQueue::new()),
        }
    }
}

/// Runtime-selected queue with static dispatch per variant — the concrete
/// type the schedulers hold, so the per-event hot path pays one predictable
/// branch instead of a virtual call.
pub enum PendingQueue<E> {
    Heap(BinaryHeapQueue<E>),
    Ladder(LadderQueue<E>),
}

impl<E> PendingQueue<E> {
    /// Which implementation this is.
    pub fn kind(&self) -> QueueKind {
        match self {
            PendingQueue::Heap(_) => QueueKind::Heap,
            PendingQueue::Ladder(_) => QueueKind::Ladder,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $q:ident => $body:expr) => {
        match $self {
            PendingQueue::Heap($q) => $body,
            PendingQueue::Ladder($q) => $body,
        }
    };
}

impl<E> EventQueue<E> for PendingQueue<E> {
    #[inline]
    fn push(&mut self, env: Envelope<E>) {
        dispatch!(self, q => q.push(env))
    }

    #[inline]
    fn pop(&mut self) -> Option<Envelope<E>> {
        dispatch!(self, q => q.pop())
    }

    #[inline]
    fn pop_with<R>(&mut self, f: impl FnOnce(&Envelope<E>) -> R) -> Option<R> {
        dispatch!(self, q => q.pop_with(f))
    }

    #[inline]
    fn peek(&mut self) -> Option<&Envelope<E>> {
        dispatch!(self, q => q.peek())
    }

    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        dispatch!(self, q => q.peek_time())
    }

    #[inline]
    fn len(&self) -> usize {
        dispatch!(self, q => q.len())
    }

    fn drain_to(&mut self, out: &mut Vec<Envelope<E>>) {
        dispatch!(self, q => q.drain_to(out))
    }

    fn ops(&self) -> u64 {
        dispatch!(self, q => q.ops())
    }

    fn max_len(&self) -> u64 {
        dispatch!(self, q => q.max_len())
    }

    fn pool_stats(&self) -> PoolStats {
        dispatch!(self, q => q.pool_stats())
    }
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue
// ---------------------------------------------------------------------------

/// Self-ordering hot entry for the binary heap: the full [`EventKey`] plus
/// the uid fields, compared in exactly the `Envelope::cmp` field order
/// (derive on declaration order), with the pool slot riding along last. 48
/// bytes — heap sifts move these instead of whole envelopes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    key: EventKey,
    uid_seq: u64,
    uid_src: u32,
    /// Never reached by comparisons between distinct events (the uid is
    /// unique); participates only on exact duplicates, where any order is
    /// acceptable.
    slot: u32,
}

/// The reference implementation: a min-heap via `Reverse`.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    pool: EventPool<E>,
    ops: u64,
    max_len: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        BinaryHeapQueue::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    pub fn new() -> Self {
        BinaryHeapQueue { heap: BinaryHeap::new(), pool: EventPool::new(), ops: 0, max_len: 0 }
    }

    /// Remove the least hot entry and return its pool slot.
    #[inline]
    fn pop_slot(&mut self) -> Option<u32> {
        let entry = self.heap.pop()?.0;
        // Hide the slab miss of the next event behind the current one.
        if let Some(r) = self.heap.peek() {
            self.pool.prefetch(r.0.slot);
        }
        self.ops += 1;
        Some(entry.slot)
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    #[inline]
    fn push(&mut self, env: Envelope<E>) {
        self.ops += 1;
        let key = env.key();
        let uid = env.uid;
        let slot = self.pool.insert(env);
        self.heap.push(Reverse(HeapEntry { key, uid_seq: uid.seq, uid_src: uid.src, slot }));
        if self.heap.len() as u64 > self.max_len {
            self.max_len = self.heap.len() as u64;
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Envelope<E>> {
        let slot = self.pop_slot()?;
        Some(self.pool.take(slot))
    }

    #[inline]
    fn pop_with<R>(&mut self, f: impl FnOnce(&Envelope<E>) -> R) -> Option<R> {
        let slot = self.pop_slot()?;
        Some(self.pool.read_release(slot, f))
    }

    #[inline]
    fn peek(&mut self) -> Option<&Envelope<E>> {
        match self.heap.peek() {
            Some(r) => Some(self.pool.get(r.0.slot)),
            None => None,
        }
    }

    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|r| r.0.key.recv_time)
    }

    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn drain_to(&mut self, out: &mut Vec<Envelope<E>>) {
        out.reserve(self.heap.len());
        for r in self.heap.drain() {
            out.push(self.pool.take(r.0.slot));
        }
    }

    fn ops(&self) -> u64 {
        self.ops
    }

    fn max_len(&self) -> u64 {
        self.max_len
    }

    fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

// ---------------------------------------------------------------------------
// LadderQueue
// ---------------------------------------------------------------------------

/// A bucket bigger than this is subdivided into a child rung instead of
/// being sorted wholesale (unless its bucket width is already 1 ns, the
/// resolution floor, where sorting is the only option).
const SPAWN_THRESHOLD: usize = 96;
/// Bounds on the number of buckets created per rung or top conversion.
const MIN_BUCKETS: usize = 4;
const MAX_BUCKETS: usize = 4096;
/// Retained spare bucket allocations.
const POOL_MAX: usize = 2 * MAX_BUCKETS;
/// Retained rung bucket-vector shells (rung depth is logarithmic in the
/// era width, so a handful covers every real ladder).
const SHELL_MAX: usize = 16;

/// Hot half of a queued ladder event: the leading ordering keys
/// (`recv_time`, `send_time`, `src`) plus the pool slot of the full
/// envelope. 24 bytes — rung scatters, bucket spills and bottom sorts move
/// these instead of whole envelopes.
///
/// Carrying `send`/`src` inline matters: event rates of hundreds of events
/// per simulated ns make `recv` ties the common case, and a comparator
/// that chased the pool on every tie would turn each bottom sort into a
/// cache-miss storm. `(recv, send, src)` is unique for distinct events of
/// one sender batch, so the pool fall-through below is genuinely cold.
#[derive(Clone, Copy)]
struct HotEntry {
    recv: u64,
    send: u64,
    src: u32,
    slot: u32,
}

/// Full envelope order over hot entries: `(recv, send, src)` compares
/// inline; only full collisions (same sender, same send and receive
/// times — rare) fall through to the pooled envelope's remaining fields,
/// matching `Envelope::cmp` exactly.
#[inline]
fn cmp_hot<E>(pool: &EventPool<E>, a: &HotEntry, b: &HotEntry) -> Ordering {
    (a.recv, a.send, a.src).cmp(&(b.recv, b.send, b.src)).then_with(|| {
        let ea = pool.get(a.slot);
        let eb = pool.get(b.slot);
        (ea.tiebreak, ea.uid.seq, ea.uid.src).cmp(&(eb.tiebreak, eb.uid.seq, eb.uid.src))
    })
}

/// One ladder tier: `buckets[i]` holds events with
/// `recv_time ∈ [start + i·width, start + (i+1)·width)`, unsorted.
///
/// Bucket widths are always powers of two, so the per-event bucket index
/// on push and scatter is a shift, not a 64-bit division.
struct Rung {
    /// Absolute timestamp of `buckets[0]`.
    start: u64,
    /// Bucket width in ns (≥ 1, power of two: `1 << shift`).
    width: u64,
    /// `log2(width)` — bucket index = `(ts - start) >> shift`.
    shift: u32,
    /// Dequeue frontier: events with `recv_time < cur_ts` live in deeper
    /// rungs or the bottom tier, never in this rung.
    cur_ts: u64,
    buckets: Vec<Vec<HotEntry>>,
}

/// Timestamp-bucketed pending-event queue with lazy per-bucket sorting.
///
/// Tiers, nearest-future first:
///
/// * **bottom** — the events of the bucket currently being drained, sorted
///   descending so `pop` is a `Vec::pop`. Stragglers pushed behind the
///   ladder frontier (e.g. optimistic rollback re-insertions) are merged in
///   by binary-search insertion.
/// * **rungs** — a stack of tiers; `rungs[0]` spans the whole current era
///   and each deeper rung subdivides the one bucket its parent's frontier
///   just passed. Pushes walk the stack top-down and drop the event into
///   the first rung whose frontier hasn't passed it — O(depth), and depth
///   is bounded by log of the era's width.
/// * **top** — unsorted far-future events beyond the current era
///   (`recv_time > era_end`). When the ladder drains, top collapses into a
///   fresh rung 0 and a new era begins.
///
/// Every allocation is recycled: envelopes through the slot pool, bucket
/// vectors through `spare`, rung shells through `shells`, and the `rungs` /
/// `top` / `bottom` vectors keep their capacity across eras — after warmup
/// the steady state allocates nothing per event (asserted by
/// `tests/alloc_discipline.rs`).
///
/// The one degenerate corner: events at `recv_time == u64::MAX` mixed into
/// an era that also ends at `u64::MAX` (584 simulated years) — those cannot
/// be distinguished from "beyond the era", so an era consisting *only* of
/// them is sorted straight into bottom instead of converted into a rung.
pub struct LadderQueue<E> {
    bottom: Vec<HotEntry>,
    rungs: Vec<Rung>,
    top: Vec<HotEntry>,
    /// Events with `recv_time > era_end` belong to `top`.
    era_end: u64,
    /// Min/max timestamps currently in `top` (valid while `top` is
    /// non-empty).
    top_min: u64,
    top_max: u64,
    len: usize,
    ops: u64,
    max_len: u64,
    /// Spare bucket allocations, reused across rung spawns so steady-state
    /// operation stops allocating.
    spare: Vec<Vec<HotEntry>>,
    /// Spare rung bucket-vector shells (the outer `Vec` of a rung).
    shells: Vec<Vec<Vec<HotEntry>>>,
    /// Cold storage for queued envelopes.
    pool: EventPool<E>,
}

impl<E> Default for LadderQueue<E> {
    fn default() -> Self {
        LadderQueue::new()
    }
}

impl<E> LadderQueue<E> {
    pub fn new() -> Self {
        LadderQueue {
            bottom: Vec::new(),
            rungs: Vec::new(),
            top: Vec::new(),
            era_end: 0,
            top_min: u64::MAX,
            top_max: 0,
            len: 0,
            ops: 0,
            max_len: 0,
            spare: Vec::new(),
            shells: Vec::new(),
            pool: EventPool::new(),
        }
    }

    /// Start a fresh era: everything (except `recv_time == 0`) routes to
    /// `top` until the next conversion. Only legal when no events remain —
    /// exhausted rung shells may still be present (they are collapsed
    /// lazily by `refill`) and are recycled here. Telemetry (`max_len`,
    /// `ops`, pool counters) deliberately survives era turnover: the
    /// high-water mark is a whole-run statistic.
    fn reset_era(&mut self) {
        debug_assert!(self.bottom.is_empty() && self.top.is_empty());
        debug_assert!(self.rungs.iter().all(|r| r.buckets.iter().all(|b| b.is_empty())));
        while let Some(rung) = self.rungs.pop() {
            self.retire_rung(rung);
        }
        self.era_end = 0;
        self.top_min = u64::MAX;
        self.top_max = 0;
    }

    /// Recycle a dead rung's buckets and its shell.
    fn retire_rung(&mut self, mut rung: Rung) {
        while let Some(b) = rung.buckets.pop() {
            self.recycle(b);
        }
        if self.shells.len() < SHELL_MAX {
            self.shells.push(rung.buckets);
        }
    }

    fn take_bucket(&mut self) -> Vec<HotEntry> {
        self.spare.pop().unwrap_or_default()
    }

    fn make_buckets(&mut self, n: usize) -> Vec<Vec<HotEntry>> {
        let mut v = self.shells.pop().unwrap_or_default();
        debug_assert!(v.is_empty());
        v.reserve(n);
        for _ in 0..n {
            v.push(self.take_bucket());
        }
        v
    }

    fn recycle(&mut self, mut bucket: Vec<HotEntry>) {
        bucket.clear();
        if bucket.capacity() > 0 && self.spare.len() < POOL_MAX {
            self.spare.push(bucket);
        }
    }

    /// Remove the least hot entry and return its pool slot.
    #[inline]
    fn pop_slot(&mut self) -> Option<u32> {
        if self.bottom.is_empty() {
            self.refill();
        }
        let entry = self.bottom.pop()?;
        // Hide the slab miss of the next one or two events behind the
        // current event's handler (their hot entries sit at the sorted
        // tail; their envelopes are scattered through the slab).
        let n = self.bottom.len();
        if n > 0 {
            self.pool.prefetch(self.bottom[n - 1].slot);
            if n > 1 {
                self.pool.prefetch(self.bottom[n - 2].slot);
            }
        }
        self.ops += 1;
        self.len -= 1;
        Some(entry.slot)
    }

    /// Insert a straggler into the sorted bottom tier (descending order).
    fn insert_bottom(&mut self, entry: HotEntry) {
        let pool = &self.pool;
        let pos = self.bottom.partition_point(|e| cmp_hot(pool, e, &entry) == Ordering::Greater);
        self.bottom.insert(pos, entry);
    }

    /// Refill `bottom` from the ladder: advance the deepest rung to its
    /// next non-empty bucket, subdividing oversized buckets into child
    /// rungs, collapsing exhausted rungs, and converting `top` into a new
    /// era when the ladder is empty.
    fn refill(&mut self) {
        debug_assert!(self.bottom.is_empty());
        loop {
            let Some(ri) = self.rungs.len().checked_sub(1) else {
                if self.top.is_empty() {
                    return;
                }
                if self.top_min == self.top_max {
                    // Single-timestamp era (this also covers the
                    // u64::MAX corner): sort straight into bottom.
                    self.bottom.append(&mut self.top);
                    let pool = &self.pool;
                    self.bottom.sort_unstable_by(|a, b| cmp_hot(pool, b, a));
                    self.era_end = self.top_max;
                    self.top_min = u64::MAX;
                    self.top_max = 0;
                    return;
                }
                let start = self.top_min;
                let range = self.top_max - self.top_min; // ≥ 1
                let n = self.top.len().clamp(MIN_BUCKETS, MAX_BUCKETS) as u64;
                // Round the width up to a power of two: bucket indexing
                // becomes a shift (the per-event division otherwise shows
                // up in profiles). `n ≥ 4` keeps the rounding overflow-free.
                let width = (range / n).max(1).next_power_of_two();
                let shift = width.trailing_zeros();
                let nb = (range >> shift) as usize + 1;
                let mut buckets = self.make_buckets(nb);
                let mut top = std::mem::take(&mut self.top);
                for entry in top.drain(..) {
                    buckets[((entry.recv - start) >> shift) as usize].push(entry);
                }
                self.top = top; // keep the allocation
                self.rungs.push(Rung { start, width, shift, cur_ts: start, buckets });
                self.era_end = self.top_max;
                self.top_min = u64::MAX;
                self.top_max = 0;
                continue;
            };

            let (start, width, shift, cur_ts, nb) = {
                let r = &self.rungs[ri];
                (r.start, r.width, r.shift, r.cur_ts, r.buckets.len())
            };
            let mut j = ((cur_ts - start) >> shift) as usize;
            while j < nb && self.rungs[ri].buckets[j].is_empty() {
                j += 1;
            }
            if j >= nb {
                let dead = self.rungs.pop().unwrap();
                self.retire_rung(dead);
                continue;
            }
            let bucket_start = start + j as u64 * width;
            self.rungs[ri].cur_ts = bucket_start.saturating_add(width);
            let blen = self.rungs[ri].buckets[j].len();
            if blen > SPAWN_THRESHOLD && width > 1 {
                // Too big to sort cheaply: subdivide into a child rung.
                let mut bucket = std::mem::take(&mut self.rungs[ri].buckets[j]);
                let n = blen.clamp(MIN_BUCKETS, MAX_BUCKETS) as u64;
                // `width` is a power of two ≥ 2 and `n ≥ 4`, so the child
                // width rounds to a power of two strictly below `width` —
                // subdivision always makes progress.
                let cw = (width / n).max(1).next_power_of_two().min(width / 2);
                let cshift = cw.trailing_zeros();
                let cnb = (width >> cshift) as usize;
                let mut buckets = self.make_buckets(cnb);
                for entry in bucket.drain(..) {
                    buckets[((entry.recv - bucket_start) >> cshift) as usize].push(entry);
                }
                self.recycle(bucket);
                self.rungs.push(Rung {
                    start: bucket_start,
                    width: cw,
                    shift: cshift,
                    cur_ts: bucket_start,
                    buckets,
                });
                continue;
            }
            // Small enough: materialize this bucket as the new bottom.
            let mut bucket = std::mem::take(&mut self.rungs[ri].buckets[j]);
            std::mem::swap(&mut self.bottom, &mut bucket);
            self.recycle(bucket);
            let pool = &self.pool;
            self.bottom.sort_unstable_by(|a, b| cmp_hot(pool, b, a));
            return;
        }
    }
}

impl<E> EventQueue<E> for LadderQueue<E> {
    fn push(&mut self, env: Envelope<E>) {
        self.ops += 1;
        self.len += 1;
        if self.len as u64 > self.max_len {
            self.max_len = self.len as u64;
        }
        if self.len == 1 {
            // The queue was empty: restart the era so bulk (re)loads land
            // in the unsorted top tier instead of insertion-sorting.
            self.reset_era();
        }
        let ts = env.recv_time.0;
        let (send, src) = (env.send_time.0, env.src);
        let entry = HotEntry { recv: ts, send, src, slot: self.pool.insert(env) };
        debug_assert_eq!(self.pool.len(), self.len, "pool population out of sync");
        if ts > self.era_end {
            self.top_min = self.top_min.min(ts);
            self.top_max = self.top_max.max(ts);
            self.top.push(entry);
            return;
        }
        for r in &mut self.rungs {
            if ts >= r.cur_ts {
                let idx = ((ts - r.start) >> r.shift) as usize;
                debug_assert!(idx < r.buckets.len(), "event beyond rung range");
                r.buckets[idx].push(entry);
                return;
            }
        }
        self.insert_bottom(entry);
    }

    fn pop(&mut self) -> Option<Envelope<E>> {
        let slot = self.pop_slot()?;
        Some(self.pool.take(slot))
    }

    #[inline]
    fn pop_with<R>(&mut self, f: impl FnOnce(&Envelope<E>) -> R) -> Option<R> {
        let slot = self.pop_slot()?;
        Some(self.pool.read_release(slot, f))
    }

    fn peek(&mut self) -> Option<&Envelope<E>> {
        if self.bottom.is_empty() {
            self.refill();
        }
        match self.bottom.last() {
            Some(e) => Some(self.pool.get(e.slot)),
            None => None,
        }
    }

    /// The front hot entry carries `recv_time`: no slab read.
    #[inline]
    fn peek_time(&mut self) -> Option<SimTime> {
        if self.bottom.is_empty() {
            self.refill();
        }
        self.bottom.last().map(|e| SimTime(e.recv))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn drain_to(&mut self, out: &mut Vec<Envelope<E>>) {
        out.reserve(self.len);
        for e in self.bottom.drain(..) {
            out.push(self.pool.take(e.slot));
        }
        while let Some(mut rung) = self.rungs.pop() {
            while let Some(mut b) = rung.buckets.pop() {
                for e in b.drain(..) {
                    out.push(self.pool.take(e.slot));
                }
                self.recycle(b);
            }
            if self.shells.len() < SHELL_MAX {
                self.shells.push(rung.buckets);
            }
        }
        for e in self.top.drain(..) {
            out.push(self.pool.take(e.slot));
        }
        self.len = 0;
        self.reset_era();
    }

    fn ops(&self) -> u64 {
        self.ops
    }

    fn max_len(&self) -> u64 {
        self.max_len
    }

    fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventUid;

    fn env(recv: u64, send: u64, src: u32, tb: u64, seq: u64) -> Envelope<u64> {
        Envelope {
            recv_time: SimTime(recv),
            send_time: SimTime(send),
            src,
            dst: 0,
            tiebreak: tb,
            uid: EventUid { src, seq },
            payload: seq,
        }
    }

    fn drain_ids<Q: EventQueue<u64>>(q: &mut Q) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.payload);
        }
        out
    }

    #[test]
    fn both_queues_sort_simple_streams_identically() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for (i, recv) in [50u64, 10, 30, 10, 90, 10, 70].iter().enumerate() {
                q.push(env(*recv, 0, 0, i as u64, i as u64));
            }
            // Equal recv_time ties break on (send, src, tiebreak).
            assert_eq!(drain_ids(&mut q), [1, 3, 5, 2, 0, 6, 4], "{kind:?}");
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn ladder_handles_interleaved_push_pop_below_frontier() {
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        let mut seq = 0u64;
        let mut push_both = |h: &mut BinaryHeapQueue<u64>, l: &mut LadderQueue<u64>, recv: u64| {
            let e = env(recv, 0, 0, seq, seq);
            h.push(e.clone());
            l.push(e);
            seq += 1;
        };
        for r in [100u64, 5000, 200, 40, 9000, 40, 40] {
            push_both(&mut heap, &mut ladder, r);
        }
        for _ in 0..3 {
            assert_eq!(heap.pop().unwrap().payload, ladder.pop().unwrap().payload);
        }
        // Push behind the ladder frontier (stragglers) and at era edges.
        for r in [60u64, 100, 100, 4999, 5000, 9001] {
            push_both(&mut heap, &mut ladder, r);
        }
        assert_eq!(drain_ids(&mut heap), drain_ids(&mut ladder));
    }

    #[test]
    fn ladder_spawns_child_rungs_on_dense_buckets() {
        let mut heap = BinaryHeapQueue::new();
        let mut ladder = LadderQueue::new();
        // Thousands of events in a narrow band force bucket subdivision;
        // a second far-future band exercises era turnover.
        let mut s = 0u64;
        for band in [0u64, 1 << 40] {
            for i in 0..4000u64 {
                let recv = band + (i * 37) % 512;
                let e = env(recv, i % 3, (i % 5) as u32, i, s);
                heap.push(e.clone());
                ladder.push(e);
                s += 1;
            }
        }
        assert_eq!(heap.len(), ladder.len());
        assert_eq!(drain_ids(&mut heap), drain_ids(&mut ladder));
    }

    #[test]
    fn single_timestamp_era_including_max_is_sorted() {
        for ts in [7u64, u64::MAX] {
            let mut q = LadderQueue::new();
            for i in 0..300u64 {
                q.push(env(ts, i % 4, (i % 3) as u32, i, i));
            }
            let mut last: Option<EventKey> = None;
            while let Some(e) = q.pop() {
                if let Some(prev) = last {
                    assert!(prev < e.key(), "order regressed at ts={ts}");
                }
                last = Some(e.key());
            }
        }
    }

    #[test]
    fn drain_to_empties_and_resets() {
        let mut q = LadderQueue::new();
        for i in 0..100u64 {
            q.push(env(i * 11, 0, 0, i, i));
        }
        q.pop();
        let mut out = Vec::new();
        q.drain_to(&mut out);
        assert_eq!(out.len(), 99);
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        // Reusable after a drain.
        q.push(env(3, 0, 0, 0, 0));
        q.push(env(1, 0, 0, 1, 1));
        assert_eq!(q.pop().unwrap().recv_time.0, 1);
    }

    #[test]
    fn telemetry_counters_track_ops_and_high_water() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for i in 0..10u64 {
                q.push(env(i, 0, 0, i, i));
            }
            for _ in 0..4 {
                q.pop();
            }
            assert_eq!(q.ops(), 14, "{kind:?}");
            assert_eq!(q.max_len(), 10, "{kind:?}");
            assert_eq!(q.len(), 6, "{kind:?}");
        }
    }

    #[test]
    fn pool_stats_track_population_and_recycling() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for i in 0..8u64 {
                q.push(env(i, 0, 0, i, i));
            }
            for _ in 0..8 {
                q.pop();
            }
            // Refill: every slot now comes off the free list.
            for i in 0..8u64 {
                q.push(env(100 + i, 0, 0, i, i + 8));
            }
            let s = q.pool_stats();
            assert_eq!(s.high_water, 8, "{kind:?}");
            assert_eq!(s.recycled, 8, "{kind:?}");
        }
    }

    /// Regression: the telemetry high-water mark is a whole-run statistic
    /// and must survive era turnover — both the implicit era restart when
    /// the queue drains to empty and refills, and an explicit `drain_to`.
    #[test]
    fn ladder_max_len_survives_era_collapse() {
        let mut q = LadderQueue::new();
        for i in 0..50u64 {
            q.push(env(i * 7, 0, 0, i, i));
        }
        assert_eq!(q.max_len(), 50);
        // Drain to empty: the next push calls `reset_era`.
        while q.pop().is_some() {}
        q.push(env(1_000_000, 0, 0, 0, 99));
        assert_eq!(q.max_len(), 50, "high-water lost across era restart");
        // An explicit drain_to also collapses the era.
        let mut out = Vec::new();
        q.drain_to(&mut out);
        q.push(env(5, 0, 0, 0, 100));
        assert_eq!(q.max_len(), 50, "high-water lost across drain_to");
        assert!(q.pool_stats().recycled > 0);
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let mut q = kind.new_queue();
            for i in [9u64, 2, 5] {
                q.push(env(i, 0, 0, i, i));
            }
            assert_eq!(q.peek_time(), Some(SimTime(2)));
            assert_eq!(q.peek_key().unwrap().recv_time, SimTime(2));
            assert_eq!(q.len(), 3);
            assert_eq!(q.pop().unwrap().recv_time.0, 2, "{kind:?}");
        }
    }

    #[test]
    fn queue_kind_parses_like_sched_specs() {
        assert_eq!(QueueKind::parse("heap"), Ok(QueueKind::Heap));
        assert_eq!(QueueKind::parse("ladder"), Ok(QueueKind::Ladder));
        assert!(QueueKind::parse("splay").is_err());
        assert_eq!(QueueKind::default(), QueueKind::Ladder);
        assert_eq!(QueueKind::Heap.new_queue::<u64>().kind(), QueueKind::Heap);
    }
}
