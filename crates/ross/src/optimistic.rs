//! Optimistic parallel scheduler (Time Warp).
//!
//! Threads speculatively process their LPs' events in local key order.
//! A straggler (an event ordered before work already done on its LP)
//! triggers a **rollback**: the LP restores the most recent snapshot at or
//! before the straggler, *coast-forwards* (re-executes with sends
//! suppressed) up to the straggler, returns the undone events to the
//! pending set, and sends **anti-messages** cancelling every event those
//! undone events produced.
//!
//! Epochs are synchronized with barriers: every `batch` locally processed
//! events the threads drain mailboxes to quiescence, compute **GVT** (the
//! minimum unprocessed event time anywhere), and fossil-collect snapshots
//! and processed-event logs below it. Determinism: because each LP's
//! tiebreak counter is saved and restored with its state, re-executions
//! regenerate identical event keys and the committed schedule is
//! bit-identical to the sequential one.

use crate::engine::{seal_outgoing, RunStats, Simulation};
use crate::event::{Envelope, EventKey, EventUid};
use crate::lp::{Ctx, Lp, LpMeta};
use crate::queue::{EventQueue, PendingQueue};
use crate::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use crate::sync::{thread, Barrier, Mutex};
use crate::time::SimTime;
use crate::trace::SpanKind;
use crate::worker::{self, Lane, Run, Worker};
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Partition LPs into `n` contiguous ranges of near-equal size.
fn partition(n_lps: usize, n_threads: usize) -> Vec<std::ops::Range<usize>> {
    let n_threads = n_threads.max(1).min(n_lps.max(1));
    let base = n_lps / n_threads;
    let extra = n_lps % n_threads;
    let mut ranges = Vec::with_capacity(n_threads);
    let mut start = 0;
    for t in 0..n_threads {
        let len = base + usize::from(t < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Map an LP id to its owning thread given the partition.
#[inline]
fn owner(ranges: &[std::ops::Range<usize>], lp: usize) -> usize {
    // Ranges are contiguous and sorted: the owner is the first range
    // ending past `lp`.
    let t = ranges.partition_point(|r| r.end <= lp);
    debug_assert!(t < ranges.len(), "LP {lp} outside all partitions");
    t
}

/// Tuning knobs for the optimistic scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimisticConfig {
    /// Locally processed events per thread between GVT epochs.
    pub batch: usize,
    /// Take a state snapshot every `snapshot_interval` events per LP.
    /// 1 = copy state before every event (cheapest rollbacks, most memory).
    pub snapshot_interval: u64,
}

impl Default for OptimisticConfig {
    fn default() -> Self {
        OptimisticConfig { batch: 512, snapshot_interval: 4 }
    }
}

/// A message between threads: a scheduled event or a cancellation.
enum Msg<E> {
    Event(Envelope<E>),
    Anti { dst: u32, uid: EventUid },
}

impl<E> Msg<E> {
    fn dst(&self) -> usize {
        match self {
            Msg::Event(e) => e.dst as usize,
            Msg::Anti { dst, .. } => *dst as usize,
        }
    }
}

struct SentRecord {
    dst: u32,
    uid: EventUid,
}

struct Processed<E> {
    env: Envelope<E>,
    sends: Vec<SentRecord>,
}

struct Snapshot<L> {
    /// Absolute processed-event index this snapshot precedes.
    at: u64,
    lp: L,
    tiebreak: u64,
    now: SimTime,
}

/// Per-LP runtime for Time Warp.
struct LpRt<L: Lp> {
    lp: L,
    meta: LpMeta,
    processed: VecDeque<Processed<L::Event>>,
    snapshots: VecDeque<Snapshot<L>>,
    /// The GVT fence: the newest snapshot at or below the last fossil
    /// collection point. Fossil collection *moves* retired snapshots here
    /// instead of dropping the knowledge, so a rollback whose target
    /// undoes every younger snapshot can always restore from the fence
    /// and coast-forward — it never runs out of restore targets.
    /// Invariant: `fence.at == base` after every fossil collection, and
    /// `fence.at <= base + i` for any legal rollback target `i`.
    fence: Snapshot<L>,
    /// Absolute index of `processed.front()`.
    base: u64,
}

impl<L: Lp + Clone> LpRt<L> {
    fn count(&self) -> u64 {
        self.base + self.processed.len() as u64
    }

    fn last_key(&self) -> Option<EventKey> {
        self.processed.back().map(|p| p.env.key())
    }

    /// Commit every event below `gvt`: retire the snapshots at or below
    /// the commit point into the fence (the newest one) and drop the
    /// processed log below it. Rollback targets are never below GVT, so
    /// the fence always covers them. Returns the events committed on this
    /// LP in this run: exact and monotone, since they never roll back.
    fn fossil(&mut self, gvt: u64) -> u64 {
        let mut i = self.processed.len();
        while i > 0 && self.processed[i - 1].env.recv_time.0 >= gvt {
            i -= 1;
        }
        let keep = self.base + i as u64;
        while self.snapshots.front().is_some_and(|s| s.at <= keep) {
            self.fence = self.snapshots.pop_front().unwrap();
        }
        while self.base < self.fence.at {
            self.processed.pop_front();
            self.base += 1;
        }
        debug_assert_eq!(self.fence.at, self.base);
        keep
    }
}

/// Roll `rt` back so every processed event with key >= `to` is undone.
/// Undone events are returned to `queue`, except the one whose uid matches
/// `skip_uid` (an annihilated event). Anti-messages for the sends of undone
/// events are appended to `antis` for the caller to post. Undone
/// executions are marked wasted in the worker's trace buffer and the
/// whole episode becomes a rollback span.
fn rollback<L: Lp + Clone>(
    rt: &mut LpRt<L>,
    to: EventKey,
    skip_uid: Option<EventUid>,
    queue: &mut PendingQueue<L::Event>,
    w: &mut Worker<'_, L>,
    antis: &mut Vec<(u32, EventUid)>,
) {
    // First undone index (relative).
    let mut i = rt.processed.len();
    while i > 0 && rt.processed[i - 1].env.key() >= to {
        i -= 1;
    }
    if i == rt.processed.len() {
        return;
    }
    let span_t0 = w.tbuf.as_ref().map(|_| Instant::now());
    w.report.rollbacks += 1;
    let abs_i = rt.base + i as u64;
    // Undo events [i..): re-enqueue them and cancel their sends.
    while rt.processed.len() > i {
        let p = rt.processed.pop_back().unwrap();
        w.report.rolled_back += 1;
        if let Some(b) = w.tbuf.as_mut() {
            b.mark_rolled_back(p.env.uid);
        }
        for s in p.sends {
            antis.push((s.dst, s.uid));
        }
        if Some(p.env.uid) != skip_uid {
            queue.push(p.env);
        }
    }
    // Restore the latest snapshot at or before abs_i. When every snapshot
    // younger than the straggler has been undone (a deep rollback early in
    // an epoch, before the first periodic snapshot), fall back to the GVT
    // fence: it sits at `rt.base`, which is never above a legal rollback
    // target, so the restore + coast-forward below always succeeds.
    while rt.snapshots.back().map(|s| s.at > abs_i).unwrap_or(false) {
        rt.snapshots.pop_back();
    }
    let snap = match rt.snapshots.back() {
        Some(s) => s,
        None => {
            w.report.fence_restores += 1;
            &rt.fence
        }
    };
    debug_assert!(snap.at >= rt.base && snap.at <= abs_i, "snapshot outside rollback range");
    let (snap_lp, snap_tiebreak, snap_now, snap_at) =
        (snap.lp.clone(), snap.tiebreak, snap.now, snap.at);
    rt.lp = snap_lp;
    rt.meta.tiebreak = snap_tiebreak;
    rt.meta.now = snap_now;
    let replay_from = (snap_at - rt.base) as usize;
    // Coast-forward: re-execute [replay_from..i) with sends suppressed —
    // those sends are already in flight and were not cancelled. The tiebreak
    // counter advances identically because the replayed handlers emit the
    // same sends.
    for k in replay_from..i {
        let env = rt.processed[k].env.clone();
        rt.meta.now = env.recv_time;
        let mut ctx =
            Ctx { now: env.recv_time, me: env.dst, lookahead: w.lookahead, out: &mut w.out };
        rt.lp.handle(&env, &mut ctx);
        seal_outgoing(env.dst, env.recv_time, &mut rt.meta, &mut w.out, |_| {});
    }
    if let (Some(b), Some(t0)) = (w.tbuf.as_mut(), span_t0) {
        b.end_span(SpanKind::Rollback, t0);
    }
}

/// One optimistic worker's share of the run: the runtimes of its LPs
/// (global ids from `base`), their pending events, the uids to
/// annihilate lazily when they pop, and messages between its own LPs not
/// yet ingested.
struct Share<L: Lp> {
    base: usize,
    rts: Vec<LpRt<L>>,
    queue: PendingQueue<L::Event>,
    tombstones: HashSet<EventUid>,
    locals: VecDeque<Msg<L::Event>>,
    antis: Vec<(u32, EventUid)>,
    routed: Vec<Envelope<L::Event>>,
}

impl<L: Lp + Clone> Share<L> {
    /// Ingest `msgs`, then every local message until none is left. The
    /// anti-messages that induces go out through `send`, which hands local
    /// messages back.
    fn deliver(
        &mut self,
        msgs: Vec<Msg<L::Event>>,
        w: &mut Worker<'_, L>,
        send: &impl Fn(Msg<L::Event>) -> Option<Msg<L::Event>>,
    ) {
        let mut msgs = msgs.into_iter();
        while let Some(msg) = msgs.next().or_else(|| self.locals.pop_front()) {
            self.ingest(msg, w);
            for (dst, uid) in self.antis.drain(..) {
                w.report.anti_messages += 1;
                self.locals.extend(send(Msg::Anti { dst, uid }));
            }
        }
    }

    /// Deliver one message, rolling back on stragglers and annihilating
    /// on anti-messages. Induced anti-messages go to `self.antis`.
    fn ingest(&mut self, msg: Msg<L::Event>, w: &mut Worker<'_, L>) {
        let rt = &mut self.rts[msg.dst() - self.base];
        match msg {
            Msg::Event(env) => {
                if rt.last_key().is_some_and(|k| k >= env.key()) {
                    rollback(rt, env.key(), None, &mut self.queue, w, &mut self.antis);
                }
                self.queue.push(env);
            }
            Msg::Anti { uid, .. } => {
                if let Some(p) = rt.processed.iter().rev().find(|p| p.env.uid == uid) {
                    let key = p.env.key();
                    w.report.annihilated += 1;
                    rollback(rt, key, Some(uid), &mut self.queue, w, &mut self.antis);
                } else {
                    // Not yet processed: annihilate lazily when it pops.
                    self.tombstones.insert(uid);
                }
            }
        }
    }

    /// Drop annihilated events off the head of the queue.
    fn skip_dead(&mut self, w: &mut Worker<'_, L>) {
        while let Some(uid) = self.queue.peek().map(|top| top.uid) {
            if !self.tombstones.remove(&uid) {
                break;
            }
            self.queue.pop();
            w.report.annihilated += 1;
        }
    }

    /// The speculative batch: process up to `cfg.batch` events at or below
    /// `until` in local key order, ingesting stragglers delivered by local
    /// sends before each.
    fn speculate(
        &mut self,
        cfg: OptimisticConfig,
        until: SimTime,
        w: &mut Worker<'_, L>,
        send: &impl Fn(Msg<L::Event>) -> Option<Msg<L::Event>>,
    ) {
        for _ in 0..cfg.batch {
            self.deliver(Vec::new(), w, send);
            self.skip_dead(w);
            if self.queue.peek_time().is_none_or(|at| at > until) {
                break;
            }
            let env = self.queue.pop().expect("peeked event vanished");
            let rt = &mut self.rts[env.dst as usize - self.base];
            debug_assert!(
                rt.last_key().map(|k| k < env.key()).unwrap_or(true),
                "out-of-order speculative execution"
            );
            let count = rt.count();
            // The fence acts as the previous snapshot when the deque is
            // empty, keeping the snapshot cadence exact across fossils and
            // deep rollbacks.
            if count - rt.snapshots.back().map_or(rt.fence.at, |s| s.at) >= cfg.snapshot_interval {
                rt.snapshots.push_back(Snapshot {
                    at: count,
                    lp: rt.lp.clone(),
                    tiebreak: rt.meta.tiebreak,
                    now: rt.meta.now,
                });
            }
            rt.meta.now = env.recv_time;
            rt.meta.processed += 1;
            let trace =
                w.tbuf.as_mut().map(|b| (rt.lp.trace_kind(&env), b.event_start(), rt.meta.uid_seq));
            let mut ctx =
                Ctx { now: env.recv_time, me: env.dst, lookahead: w.lookahead, out: &mut w.out };
            rt.lp.handle(&env, &mut ctx);
            let mut sends = Vec::new();
            let routed = &mut self.routed;
            seal_outgoing(env.dst, env.recv_time, &mut rt.meta, &mut w.out, |e| {
                sends.push(SentRecord { dst: e.dst, uid: e.uid });
                routed.push(e);
            });
            if let (Some(b), Some((kind, t0, uid_lo))) = (w.tbuf.as_mut(), trace) {
                b.record(&env, uid_lo, (rt.meta.uid_seq - uid_lo) as u32, kind, t0);
            }
            rt.processed.push_back(Processed { env, sends });
            // Route after releasing the LP borrow: local deliveries may
            // roll back *other* local LPs.
            for e in self.routed.drain(..) {
                self.locals.extend(send(Msg::Event(e)));
            }
        }
    }
}

impl<L: Lp + Clone> Simulation<L> {
    /// Run with the Time Warp scheduler on `n_threads` threads until the
    /// event population drains or GVT passes `until`.
    ///
    /// Produces results bit-identical to [`Simulation::run_sequential`].
    pub fn run_optimistic(
        &mut self,
        n_threads: usize,
        cfg: OptimisticConfig,
        until: SimTime,
    ) -> RunStats {
        assert!(cfg.snapshot_interval >= 1);
        assert!(cfg.batch >= 1);
        let start = Instant::now();
        let n_lps = self.lps.len();
        let ranges = partition(n_lps, n_threads);
        let n_threads = ranges.len();
        if n_threads <= 1 {
            return self.run_sequential(until);
        }

        let owner_of: Vec<u32> = (0..n_lps).map(|lp| owner(&ranges, lp) as u32).collect();
        let locals: Vec<Vec<u32>> =
            ranges.iter().map(|r| (r.start as u32..r.end as u32).collect()).collect();
        let run = Run::open(self, "optimistic", n_threads, self.lookahead, start, true);
        let (lanes, slots) = worker::split(self, &locals, &owner_of);

        let mailboxes: Vec<Mutex<Vec<Msg<L::Event>>>> =
            (0..n_threads).map(|_| Mutex::new(Vec::new())).collect();
        // Net count of messages posted to mailboxes and not yet drained.
        let in_flight = AtomicI64::new(0);
        let barrier = Barrier::new(n_threads);
        let mins: Vec<AtomicU64> = (0..n_threads).map(|_| AtomicU64::new(u64::MAX)).collect();

        thread::scope(|scope| {
            for (t, lane) in lanes.into_iter().enumerate() {
                let (run, ranges, owner_of) = (&run, &ranges, &owner_of);
                let (mailboxes, in_flight, barrier, mins) =
                    (&mailboxes, &in_flight, &barrier, &mins);
                scope.spawn(move || {
                    let mut w = run.worker(t);
                    let Lane { gids, lps, metas, queue } = lane;
                    // Per-LP runtimes. The initial fence captures the
                    // pre-run state — including the tiebreak already
                    // advanced by any `schedule()` calls — so a rollback to
                    // index 0 regenerates identical event keys.
                    let rts = (lps.into_iter().zip(metas))
                        .map(|(lp, meta)| LpRt {
                            fence: Snapshot {
                                at: 0,
                                lp: lp.clone(),
                                tiebreak: meta.tiebreak,
                                now: meta.now,
                            },
                            lp,
                            meta,
                            processed: VecDeque::new(),
                            snapshots: VecDeque::new(),
                            base: 0,
                        })
                        .collect();
                    let mut sh = Share {
                        base: ranges[t].start,
                        rts,
                        queue,
                        tombstones: HashSet::new(),
                        locals: VecDeque::new(),
                        antis: Vec::new(),
                        routed: Vec::new(),
                    };
                    // Remote messages go to the owner's mailbox (counted in
                    // `in_flight`); local ones come back for ingestion.
                    let send = |m: Msg<L::Event>| {
                        let o = owner_of[m.dst()] as usize;
                        if o == t {
                            return Some(m);
                        }
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        mailboxes[o].lock().push(m);
                        None
                    };

                    loop {
                        // ---- GVT epoch: drain to quiescence ----
                        // Model panics (in handlers run by rollbacks and
                        // the batch) are parked so this worker still
                        // reaches every barrier.
                        let halted = loop {
                            let msgs = std::mem::take(&mut *mailboxes[t].lock());
                            w.drained(msgs.len() as u64);
                            in_flight.fetch_sub(msgs.len() as i64, Ordering::SeqCst);
                            run.catch(|| sh.deliver(msgs, &mut w, &send));
                            let t0 = Instant::now();
                            barrier.wait();
                            // Stable region: no thread posts a message or
                            // runs model code between the two barriers, so
                            // every thread reads the same verdicts and they
                            // all leave the epoch loop together. Each drain
                            // ingests until its local queue is empty, so no
                            // mail in flight means quiescence.
                            let quiescent = in_flight.load(Ordering::SeqCst) == 0;
                            let halted = run.halted();
                            barrier.wait();
                            w.stalled(t0, SpanKind::Barrier);
                            if quiescent || halted {
                                break halted;
                            }
                        };
                        if halted {
                            break;
                        }

                        // ---- compute GVT ----
                        sh.skip_dead(&mut w);
                        let local_min = sh.queue.peek_time().map_or(u64::MAX, |ts| ts.0);
                        mins[t].store(local_min, Ordering::SeqCst);
                        let t0 = Instant::now();
                        barrier.wait();
                        let gvt = mins.iter().map(|m| m.load(Ordering::SeqCst)).min().unwrap();
                        // All threads computed the same GVT; the barrier at
                        // the top of the next epoch keeps phases aligned.
                        barrier.wait();
                        w.stalled(t0, SpanKind::Gvt);
                        let r = &mut w.report;
                        if t == 0 {
                            r.rounds += 1;
                        }
                        if local_min != u64::MAX {
                            r.gvt_lag = r.gvt_lag.max(local_min - gvt);
                        }
                        r.clock = gvt.min(until.0);
                        if gvt == u64::MAX || gvt > until.0 {
                            break;
                        }

                        // ---- fossil collection, live flush ----
                        let t0 = w.tbuf.as_ref().map(|_| Instant::now());
                        w.report.committed = sh.rts.iter_mut().map(|rt| rt.fossil(gvt)).sum();
                        if let (Some(b), Some(t0)) = (w.tbuf.as_mut(), t0) {
                            b.end_span(SpanKind::Fossil, t0);
                        }
                        w.publish(|tp| {
                            if t == 0 {
                                tp.gvt(gvt);
                            }
                            tp.queue_depth(sh.queue.len() as u64);
                        });

                        // ---- speculative processing batch ----
                        let t0 = w.clock();
                        run.catch(|| sh.speculate(cfg, until, &mut w, &send));
                        w.busy(t0);
                    }

                    // At termination everything processed is committed.
                    w.report.committed = sh.rts.iter().map(LpRt::count).sum();
                    let (lps, metas) = sh.rts.into_iter().map(|rt| (rt.lp, rt.meta)).unzip();
                    let mut leftover = Vec::new();
                    sh.queue.drain_to(&mut leftover);
                    let before = leftover.len();
                    leftover.retain(|e| !sh.tombstones.contains(&e.uid));
                    w.report.annihilated += (before - leftover.len()) as u64;
                    run.retire(w, Lane { gids, lps, metas, queue: sh.queue }, leftover);
                });
            }
        });

        let reports = run.reassemble(self, slots, Vec::new());
        run.fold(self, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_everything() {
        for (n_lps, n_threads) in [(10, 3), (1, 4), (8, 8), (100, 7), (5, 1)] {
            let ranges = partition(n_lps, n_threads);
            let mut covered = 0;
            for (i, r) in ranges.iter().enumerate() {
                covered += r.len();
                for lp in r.clone() {
                    assert_eq!(owner(&ranges, lp), i);
                }
            }
            assert_eq!(covered, n_lps);
        }
    }
}
