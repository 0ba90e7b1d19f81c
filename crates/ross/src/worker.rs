//! The worker core shared by every scheduler: sequential, optimistic,
//! conservative-parallel ([`crate::parallel`]), conservative-async
//! ([`crate::asynchronous`]) and sharded ([`crate::shard`]).
//!
//! Each scheduler keeps its own synchronization protocol (none; GVT
//! epochs with rollback; barrier rounds; published horizons plus
//! stealing; the leader's token fence and checkpoints) and calls in here
//! for everything else:
//!
//! * [`split`] moves LPs, meta and pending events out of the
//!   [`Simulation`] into per-worker [`Lane`]s, and [`Run::reassemble`]
//!   puts them back by global id (sequential runs in place and skips
//!   both);
//! * [`Worker::step`] executes one event: the hard causality check, the
//!   meta update, `handle`, sealing the sends through the scheduler's
//!   routing closure, and trace recording (optimistic executes
//!   speculatively and keeps its own step);
//! * each worker counts into one [`WorkerReport`]: its live tap
//!   publishes the report's gains mid-run, and [`Run::fold`] turns the
//!   final reports once into [`RunStats`] and the run's `scheduler`
//!   telemetry record. So the registry, the stats and the record cannot
//!   disagree. Lockstep schedulers run the same rounds on every worker,
//!   so `rounds` is counted by worker 0 alone.

use crate::engine::{seal_outgoing, RunStats, Simulation};
use crate::event::{Envelope, EventHeader};
use crate::live::{LiveHandles, LiveTap};
use crate::lp::{Ctx, Lp, LpMeta, Outgoing};
use crate::partition::Partition;
use crate::pool::PoolStats;
use crate::queue::{EventQueue, PendingQueue};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Mutex;
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanKind, TraceBuf, Tracer};
use std::any::Any;
use std::borrow::Cow;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// The partition a run packs onto its workers: the installed one, or one
/// block per LP when there is none.
pub(crate) fn packing(partition: Option<&Partition>, n_lps: usize) -> Cow<'_, Partition> {
    partition.map_or_else(|| Cow::Owned(Partition::per_lp(n_lps)), Cow::Borrowed)
}

/// One worker's share of a run: the LPs `gids` (global ids), their state
/// and meta in the same order, and their pending events.
pub(crate) struct Lane<L: Lp> {
    pub(crate) gids: Vec<u32>,
    pub(crate) lps: Vec<L>,
    pub(crate) metas: Vec<LpMeta>,
    pub(crate) queue: PendingQueue<L::Event>,
}

/// The simulation's LPs and meta while a run has them out in lanes:
/// `None` where a lane took the LP.
pub(crate) struct Slots<L>(Vec<Option<(L, LpMeta)>>);

impl<L: Lp> Slots<L> {
    /// Return one LP to its global slot.
    pub(crate) fn put(&mut self, gid: u32, lp: L, meta: LpMeta) {
        let slot = &mut self.0[gid as usize];
        assert!(slot.is_none(), "LP {gid} returned twice");
        *slot = Some((lp, meta));
    }

    /// Move every LP back into `sim`, in global order.
    pub(crate) fn restore(self, sim: &mut Simulation<L>) {
        (sim.lps, sim.meta) = self.0.into_iter().map(|s| s.expect("missing LP")).unzip();
    }
}

/// Move the LPs listed in `locals` (global ids per worker) and their meta
/// out of `sim` into one lane per worker, and route each pending event to
/// the lane of its destination (`worker_of`; `u32::MAX` = no worker).
/// Events for LPs no worker owns are dropped: on a shard they belong to
/// another process. LPs no lane takes stay behind in the returned slots.
pub(crate) fn split<L: Lp>(
    sim: &mut Simulation<L>,
    locals: &[Vec<u32>],
    worker_of: &[u32],
) -> (Vec<Lane<L>>, Slots<L>) {
    let lps = std::mem::take(&mut sim.lps).into_iter();
    let mut slots: Vec<_> = lps.zip(std::mem::take(&mut sim.meta)).map(Some).collect();
    let mut lanes: Vec<Lane<L>> = locals
        .iter()
        .map(|gids| {
            let (lps, metas) =
                gids.iter().map(|&g| slots[g as usize].take().expect("LP in two lanes")).unzip();
            Lane { gids: gids.clone(), lps, metas, queue: sim.queue.new_queue() }
        })
        .collect();
    let mut pending = Vec::with_capacity(sim.pending.len());
    sim.pending.drain_to(&mut pending);
    for env in pending {
        if let Some(&w) = worker_of.get(env.dst as usize).filter(|&&w| w != u32::MAX) {
            lanes[w as usize].queue.push(env);
        }
    }
    (lanes, Slots(slots))
}

/// Oracle (checked builds): the agreed GVT `gvt` is a true lower bound —
/// no worker may ever execute an event from its past.
#[cfg(union_check)]
pub(crate) fn assert_gvt_floor<E>(env: &Envelope<E>, gvt: u64) {
    assert!(
        env.recv_time.0 >= gvt,
        "GVT oracle violated: processing event at {} ns below the agreed GVT {gvt} ns",
        env.recv_time.0
    );
}

/// Where a routing closure sent a freshly sealed event.
pub(crate) enum Hop {
    /// Into the sending worker's own queue.
    Local,
    /// To another worker of this process.
    Remote,
    /// To another shard's process.
    Shard,
}

/// One worker's counters: the only place a run counts anything. The live
/// tap publishes their gains mid-run; [`Run::fold`] folds the final ones
/// (sums for the counts, maxima for clocks, lags and high-water marks).
/// Every count is cumulative and never decreases.
#[derive(Default)]
pub(crate) struct WorkerReport {
    /// Committed events. An optimistic worker holds the count committed
    /// below GVT at each fossil point, and at the end everything it
    /// processed minus what it rolled back.
    pub(crate) committed: u64,
    pub(crate) rolled_back: u64,
    pub(crate) rollbacks: u64,
    pub(crate) anti_messages: u64,
    pub(crate) annihilated: u64,
    pub(crate) fence_restores: u64,
    pub(crate) remote: u64,
    pub(crate) cross_shard: u64,
    /// Rounds, GVT epochs or scheduling iterations: worker 0 only.
    pub(crate) rounds: u64,
    pub(crate) steals: u64,
    /// Nanoseconds waiting on barriers or peer horizons.
    pub(crate) stall_ns: u64,
    /// Widest gap seen between peer horizons and this worker's own.
    pub(crate) lag: u64,
    /// Widest gap seen between this worker's local minimum and GVT.
    pub(crate) gvt_lag: u64,
    /// Latest receive time executed (optimistic: the final GVT).
    pub(crate) clock: u64,
    /// The per-thread telemetry record; its `events` (executions,
    /// rolled-back ones included) is filled in by the fold.
    pub(crate) thread: telemetry::ThreadRecord,
    pub(crate) queue_ops: u64,
    pub(crate) queue_max_len: u64,
    pub(crate) pool: PoolStats,
}

/// What a worker hands back at exit: its lane (queue drained), the
/// events it held, and its counters.
type Retired<L> = (Lane<L>, Vec<Envelope<<L as Lp>::Event>>, WorkerReport);

/// State of one run, borrowed by every worker.
///
/// A multi-worker run ends early on the first lookahead violation or on a
/// panic caught in model code: workers stop at their next synchronization
/// point once [`Run::halted`], and [`Run::reassemble`] re-raises the fault
/// on the calling thread after every worker has shut down (a worker
/// panicking on the spot would leave its peers waiting for it forever).
/// A [`Run::solo`] run has no peers and raises faults on the spot.
pub(crate) struct Run<L: Lp> {
    name: &'static str,
    start: Instant,
    /// Synchronization window or lookahead the run promises, for the
    /// violation message.
    window: SimDuration,
    lookahead: SimDuration,
    timing: bool,
    trace: Option<(Arc<Tracer>, u32)>,
    live: Option<Arc<LiveHandles>>,
    shared: Option<Shared<L>>,
}

/// What the workers of a multi-worker run share: its faults and the lanes
/// they hand back.
struct Shared<L: Lp> {
    violated: AtomicBool,
    violation: Mutex<Option<String>>,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    results: Mutex<Vec<Retired<L>>>,
}

impl<L: Lp> Run<L> {
    /// Open a run of scheduler `name` on `threads` worker threads, started
    /// at `start`. `traced` opens a run on the attached tracer, if any.
    pub(crate) fn open(
        sim: &Simulation<L>,
        name: &'static str,
        threads: usize,
        window: SimDuration,
        start: Instant,
        traced: bool,
    ) -> Self {
        let shared = Shared {
            violated: AtomicBool::new(false),
            violation: Mutex::new(None),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            results: Mutex::new(Vec::with_capacity(threads)),
        };
        Run { shared: Some(shared), ..Run::solo(sim, name, threads, window, start, traced) }
    }

    /// [`Run::open`] for a run on the calling thread alone (the sequential
    /// path). It takes no synchronization primitive, so it also runs
    /// outside the model checker in checked builds.
    pub(crate) fn solo(
        sim: &Simulation<L>,
        name: &'static str,
        threads: usize,
        window: SimDuration,
        start: Instant,
        traced: bool,
    ) -> Self {
        let trace = sim
            .tracer
            .as_ref()
            .filter(|_| traced)
            .map(|tr| (Arc::clone(tr), tr.open_run(name, threads)));
        Run {
            name,
            start,
            window,
            lookahead: sim.lookahead,
            timing: sim.telemetry.is_some() || trace.is_some(),
            trace,
            live: LiveHandles::from_sim(&sim.live, threads),
            shared: None,
        }
    }

    fn shared(&self) -> &Shared<L> {
        self.shared.as_ref().expect("a solo run has no peers")
    }

    /// Whether a lookahead violation or a model panic has stopped the run.
    pub(crate) fn halted(&self) -> bool {
        let sh = self.shared();
        sh.violated.load(Ordering::SeqCst) || sh.poisoned.load(Ordering::SeqCst)
    }

    /// Run `f` (model code), parking a panic instead of unwinding out of
    /// the worker. Returns whether `f` panicked.
    pub(crate) fn catch(&self, f: impl FnOnce()) -> bool {
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(()) => false,
            Err(payload) => {
                let sh = self.shared();
                sh.panic.lock().get_or_insert(payload);
                sh.poisoned.store(true, Ordering::SeqCst);
                true
            }
        }
    }

    /// Record a lookahead violation: an event for LP `dst` due `at`
    /// arrived after the LP reached `now`. A solo run panics on the spot.
    #[cold]
    #[inline(never)]
    fn violated(&self, dst: u32, at: SimTime, now: SimTime) {
        let msg = format!(
            "lookahead violation: event for LP {dst} at {} ns arrived after the LP reached {} \
             ns; lookahead {} ns exceeds the model's minimum send delay",
            at.0, now.0, self.window.0,
        );
        let Some(sh) = self.shared.as_ref() else { panic!("{msg}") };
        sh.violation.lock().get_or_insert(msg);
        sh.violated.store(true, Ordering::SeqCst);
    }

    /// Worker `t`'s private state.
    pub(crate) fn worker(&self, t: usize) -> Worker<'_, L> {
        Worker {
            run: self,
            report: WorkerReport {
                thread: telemetry::ThreadRecord { thread: t, ..Default::default() },
                ..Default::default()
            },
            tbuf: self.trace.as_ref().map(|(tr, run)| tr.buf(*run, t as u32)),
            tap: self.tap(t),
            out: Vec::with_capacity(8),
            lookahead: self.lookahead,
        }
    }

    /// A live tap on registry shard `t`, when a registry is attached.
    pub(crate) fn tap(&self, t: usize) -> Option<LiveTap> {
        self.live.as_ref().map(|h| h.tap(t))
    }

    /// Hand a worker's lane back at exit, with `leftover` events it holds
    /// outside its queue (see [`Worker::finish`]).
    pub(crate) fn retire(
        &self,
        w: Worker<'_, L>,
        mut lane: Lane<L>,
        mut leftover: Vec<Envelope<L::Event>>,
    ) {
        let report = w.finish(&lane.queue);
        lane.queue.drain_to(&mut leftover);
        self.shared().results.lock().push((lane, leftover, report));
    }

    /// After every worker has retired: put each LP back into `sim` by
    /// global id and reabsorb leftover and `stray` (undelivered mailbox)
    /// events for a later run leg, then re-raise a parked model panic or
    /// else the first lookahead violation. Returns the workers' reports.
    pub(crate) fn reassemble(
        &self,
        sim: &mut Simulation<L>,
        mut slots: Slots<L>,
        stray: impl IntoIterator<Item = Envelope<L::Event>>,
    ) -> Vec<WorkerReport> {
        let sh = self.shared();
        let mut reports = Vec::new();
        for (lane, leftover, report) in sh.results.lock().drain(..) {
            for ((gid, lp), meta) in lane.gids.into_iter().zip(lane.lps).zip(lane.metas) {
                slots.put(gid, lp, meta);
            }
            for env in leftover {
                sim.pending.push(env);
            }
            reports.push(report);
        }
        for env in stray {
            sim.pending.push(env);
        }
        slots.restore(sim);
        if let Some(payload) = sh.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
        if let Some(msg) = sh.violation.lock().take() {
            panic!("{msg}");
        }
        reports
    }

    /// Fold the workers' reports into the run's stats, close its trace run
    /// and emit its `scheduler` telemetry record — the one place that
    /// record is rendered.
    pub(crate) fn fold(self, sim: &Simulation<L>, reports: Vec<WorkerReport>) -> RunStats {
        let mut s = RunStats::default();
        let mut rec = telemetry::SchedulerRecord::new(self.name, reports.len());
        let mut pool = PoolStats::default();
        for r in reports {
            s.committed += r.committed;
            s.rolled_back += r.rolled_back;
            s.rollbacks += r.rollbacks;
            s.anti_messages += r.anti_messages;
            s.annihilated += r.annihilated;
            s.fence_restores += r.fence_restores;
            s.remote_events += r.remote;
            s.cross_shard_events += r.cross_shard;
            s.rounds += r.rounds;
            s.steals += r.steals;
            s.horizon_stall_ns += r.stall_ns;
            s.horizon_lag_max = s.horizon_lag_max.max(r.lag);
            s.end_time = s.end_time.max(SimTime(r.clock));
            rec.max_gvt_lag_ns = rec.max_gvt_lag_ns.max(r.gvt_lag);
            rec.queue_ops += r.queue_ops;
            rec.queue_max_len = rec.queue_max_len.max(r.queue_max_len);
            pool.merge(r.pool);
            let events = r.committed + r.rolled_back;
            rec.per_thread.push(telemetry::ThreadRecord { events, ..r.thread });
        }
        s.wall_seconds = self.start.elapsed().as_secs_f64();
        let wall_ns = (s.wall_seconds * 1e9) as u64;
        if let Some((tr, run)) = self.trace {
            tr.close_run(run, wall_ns, s.end_time.as_ns());
        }
        let Some(sink) = sim.telemetry.as_deref() else { return s };
        rec.per_thread.sort_by_key(|t| t.thread);
        for t in &mut rec.per_thread {
            t.idle_ns = wall_ns.saturating_sub(t.busy_ns + t.blocked_ns);
        }
        rec.queue = sim.queue.label().to_string();
        (rec.pool_high_water, rec.pool_recycled) = (pool.high_water, pool.recycled);
        (rec.committed, rec.rolled_back, rec.rollbacks) = (s.committed, s.rolled_back, s.rollbacks);
        (rec.anti_messages, rec.annihilated) = (s.anti_messages, s.annihilated);
        (rec.remote_events, rec.cross_shard_events) = (s.remote_events, s.cross_shard_events);
        (rec.rounds, rec.steals) = (s.rounds, s.steals);
        (rec.horizon_stall_ns, rec.horizon_lag_max) = (s.horizon_stall_ns, s.horizon_lag_max);
        (rec.end_time_ns, rec.wall_ns) = (s.end_time.as_ns(), wall_ns);
        sink.emit(&rec);
        s
    }
}

/// One worker thread's private state: its report, trace buffer, live tap
/// and send buffer.
pub(crate) struct Worker<'r, L: Lp> {
    run: &'r Run<L>,
    pub(crate) report: WorkerReport,
    pub(crate) tbuf: Option<TraceBuf>,
    tap: Option<LiveTap>,
    pub(crate) out: Vec<Outgoing<L::Event>>,
    /// The engine lookahead, for send contexts.
    pub(crate) lookahead: SimDuration,
}

impl<L: Lp> Worker<'_, L> {
    /// Execute the least event of `queue`, due `at`, on its LP, where it
    /// sits in the queue's envelope pool, and seal the sends through
    /// `route`, which is handed the same queue for local deliveries. The
    /// caller peeked the event to find `at`, its `lp` and `meta`. Returns
    /// `false` on a lookahead violation (an arrival in the LP's past, so
    /// the window exceeded the model's true minimum send delay), with the
    /// event still queued: the caller stops processing. A solo run panics
    /// with the violation instead.
    #[inline]
    pub(crate) fn step(
        &mut self,
        queue: &mut PendingQueue<L::Event>,
        at: SimTime,
        lp: &mut L,
        meta: &mut LpMeta,
        mut route: impl FnMut(&mut PendingQueue<L::Event>, Envelope<L::Event>) -> Hop,
    ) -> bool {
        if at < meta.now {
            self.run.violated(queue.peek().map_or(0, |e| e.dst), at, meta.now);
            return false;
        }
        let r = &mut self.report;
        r.clock = r.clock.max(at.0);
        let (tbuf, out, lookahead) = (&mut self.tbuf, &mut self.out, self.lookahead);
        let (head, trace) = queue
            .pop_with(|env| {
                meta.now = env.recv_time;
                meta.processed += 1;
                let trace =
                    tbuf.as_mut().map(|b| (lp.trace_kind(env), b.event_start(), meta.uid_seq));
                let mut ctx = Ctx { now: env.recv_time, me: env.dst, lookahead, out };
                lp.handle(env, &mut ctx);
                (EventHeader::from(env), trace)
            })
            .expect("peeked event vanished");
        r.committed += 1;
        seal_outgoing(head.dst, head.recv_time, meta, &mut self.out, |new| {
            match route(queue, new) {
                Hop::Local => {}
                Hop::Remote => r.remote += 1,
                Hop::Shard => r.cross_shard += 1,
            }
        });
        if let (Some(b), Some((kind, t0, uid_lo))) = (self.tbuf.as_mut(), trace) {
            b.record(head, uid_lo, (meta.uid_seq - uid_lo) as u32, kind, t0);
        }
        true
    }

    /// Start of a timed phase: the current instant when telemetry or a
    /// tracer is attached, else `None` (no clock read).
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.run.timing.then(Instant::now)
    }

    /// Close a processing phase opened with [`Worker::clock`].
    pub(crate) fn busy(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.report.thread.busy_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Note a mailbox drain of `n` messages (for the high-water mark).
    pub(crate) fn drained(&mut self, n: u64) {
        let hw = &mut self.report.thread.mailbox_high_water;
        *hw = (*hw).max(n);
    }

    /// Account a synchronization wait that began at `t0`: always as
    /// stall, and as blocked time plus a `kind` trace span when timing.
    pub(crate) fn stalled(&mut self, t0: Instant, kind: SpanKind) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.report.stall_ns += ns;
        if self.run.timing {
            self.report.thread.blocked_ns += ns;
        }
        if let Some(b) = self.tbuf.as_mut() {
            b.end_span(kind, t0);
        }
    }

    /// Committed events the live tap has not published yet; `None` when
    /// no registry is attached.
    #[inline]
    pub(crate) fn unpublished(&self) -> Option<u64> {
        self.tap.as_ref().map(|tp| tp.unpublished(&self.report))
    }

    /// Let `gauges` set the caller's live gauges, then publish the
    /// report's gains. No-op when no registry is attached.
    pub(crate) fn publish(&mut self, gauges: impl FnOnce(&mut LiveTap)) {
        if let Some(tp) = self.tap.as_mut() {
            gauges(tp);
            tp.flush(&self.report);
        }
    }

    /// End of the worker: record `queue`'s counters, publish the final
    /// counts and submit the trace buffer. Returns the report to fold.
    pub(crate) fn finish(mut self, queue: &PendingQueue<L::Event>) -> WorkerReport {
        let (r, pool) = (&mut self.report, queue.pool_stats());
        (r.queue_ops, r.queue_max_len, r.pool) = (queue.ops(), queue.max_len(), pool);
        self.publish(|tp| tp.pool_high_water(pool.high_water));
        if let (Some((tr, _)), Some(b)) = (self.run.trace.as_ref(), self.tbuf.take()) {
            tr.submit(b);
        }
        self.report
    }
}

#[cfg(all(test, not(union_check)))]
mod tests {
    use super::*;
    use crate::event::EventUid;
    use crate::queue::QueueKind;

    /// Counts its events; one with payload 0 wakes itself 100 ns later.
    struct Count(u64);

    impl Lp for Count {
        type Event = u64;
        fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            self.0 += 1;
            if ev.payload == 0 {
                ctx.send_self(SimDuration::from_ns(100), 7);
            }
        }
    }

    fn env(recv: u64, seq: u64) -> Envelope<u64> {
        Envelope {
            recv_time: SimTime(recv),
            send_time: SimTime(0),
            src: 0,
            dst: 0,
            tiebreak: seq,
            uid: EventUid { src: 0, seq },
            payload: seq * 1000,
        }
    }

    /// The violation check runs on the peeked event, so nothing is popped
    /// and pushed back: the queue keeps its length, its op and pool
    /// counters, and the exact events it held, in order.
    #[test]
    fn lookahead_violation_found_at_peek_leaves_the_queue_intact() {
        for kind in [QueueKind::Heap, QueueKind::Ladder] {
            let sim = Simulation::with_queue(vec![Count(0)], SimDuration::from_ns(1), kind);
            let window = SimDuration::from_ns(50);
            let run = Run::open(&sim, "test", 1, window, Instant::now(), false);
            let mut w = run.worker(0);
            let mut queue = kind.new_queue();
            for (seq, recv) in [30u64, 40, 50].into_iter().enumerate() {
                queue.push(env(recv, seq as u64));
            }
            let (ops, pool) = (queue.ops(), queue.pool_stats());
            let mut lp = Count(0);
            let mut meta = LpMeta::new();
            meta.now = SimTime(35);

            let at = queue.peek_time().unwrap();
            assert!(!w.step(&mut queue, at, &mut lp, &mut meta, |_, _| Hop::Local), "{kind:?}");
            assert!(run.halted());
            let msg = run.shared().violation.lock().take().expect("violation recorded");
            assert!(msg.contains("event for LP 0 at 30 ns arrived after the LP reached 35 ns"));
            assert_eq!((lp.0, meta.processed, w.report.committed), (0, 0, 0));
            assert_eq!(queue.len(), 3);
            assert_eq!(queue.ops(), ops, "{kind:?}: popped and pushed back");
            assert_eq!(queue.pool_stats(), pool);
            let left: Vec<_> =
                std::iter::from_fn(|| queue.pop_with(|e| (e.recv_time.0, e.uid.seq, e.payload)))
                    .collect();
            assert_eq!(left, [(30, 0, 0), (40, 1, 1000), (50, 2, 2000)], "{kind:?}");
        }
    }

    /// An admissible event is handled in place, and its slot is free again
    /// by the time the send it made is sealed into the same queue.
    #[test]
    fn step_handles_the_head_event_in_place() {
        let sim = Simulation::new(vec![Count(0)], SimDuration::from_ns(1));
        let run = Run::open(&sim, "test", 1, SimDuration::from_ns(50), Instant::now(), false);
        let mut w = run.worker(0);
        let mut queue = QueueKind::Ladder.new_queue();
        queue.push(env(30, 0));
        queue.push(env(40, 1));
        let mut lp = Count(0);
        let mut meta = LpMeta::new();
        let local = |q: &mut PendingQueue<u64>, new| {
            q.push(new);
            Hop::Local
        };
        assert!(w.step(&mut queue, SimTime(30), &mut lp, &mut meta, local));
        assert_eq!((lp.0, meta.processed, meta.now), (1, 1, SimTime(30)));
        assert_eq!((w.report.committed, w.report.clock), (1, 30));
        assert_eq!(queue.pool_stats(), PoolStats { high_water: 2, recycled: 1 });
        let left: Vec<_> =
            std::iter::from_fn(|| queue.pop_with(|e| (e.recv_time.0, e.payload))).collect();
        assert_eq!(left, [(40, 1000), (130, 7)]);
        assert!(!run.halted());
    }
}
