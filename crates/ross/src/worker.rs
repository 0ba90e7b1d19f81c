//! The conservative worker core shared by the conservative-parallel
//! ([`crate::parallel`]), conservative-async ([`crate::asynchronous`])
//! and sharded ([`crate::shard`]) schedulers.
//!
//! Each of those schedulers keeps its own synchronization protocol
//! (barrier rounds; published horizons plus stealing; the leader's token
//! fence and checkpoints) and calls in here for everything else:
//!
//! * [`split`] moves LPs, meta and pending events out of the
//!   [`Simulation`] into per-worker [`Lane`]s, and [`Run::reassemble`]
//!   puts them back by global id;
//! * [`Worker::step`] executes one event: the hard causality check, the
//!   meta update, `handle`, sealing the sends through the scheduler's
//!   routing closure, and trace recording;
//! * each worker hands its counters back in a [`WorkerReport`], which
//!   [`Run::fold`] turns once into [`RunStats`] and the run's telemetry
//!   record.

use crate::engine::{emit_sched_telemetry, seal_outgoing, QueueTelemetry, RunStats, Simulation};
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

/// One worker's counters, handed back at exit and folded by [`Run::fold`]:
/// sums for the counts, maxima for clocks and high-water marks.
#[derive(Default)]
pub(crate) struct WorkerReport {
    pub(crate) committed: u64,
    pub(crate) remote: u64,
    pub(crate) cross_shard: u64,
    /// Rounds or scheduling iterations (folded by max).
    pub(crate) rounds: u64,
    pub(crate) steals: u64,
    /// Nanoseconds waiting on barriers or peer horizons.
    pub(crate) stall_ns: u64,
    /// Widest gap seen between peer horizons and this worker's own.
    pub(crate) lag: u64,
    /// Latest receive time executed.
    pub(crate) clock: u64,
    /// The per-thread telemetry record; its `events` is filled in from
    /// `committed` by the fold.
    pub(crate) thread: telemetry::ThreadRecord,
    queue_ops: u64,
    queue_max_len: u64,
    pool: PoolStats,
}

/// What a worker hands back at exit: its lane (queue drained), the
/// events it held, and its counters.
type Retired<L> = (Lane<L>, Vec<Envelope<<L as Lp>::Event>>, WorkerReport);

/// Shared state of one conservative run, borrowed by every worker.
///
/// A run ends early on the first lookahead violation or on a panic caught
/// in model code: workers stop at their next synchronization point once
/// [`Run::halted`], and [`Run::reassemble`] re-raises the fault on the
/// calling thread after every worker has shut down (a worker panicking on
/// the spot would leave its peers waiting for it forever).
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
    violated: AtomicBool,
    violation: Mutex<Option<String>>,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    results: Mutex<Vec<Retired<L>>>,
}

impl<L: Lp> Run<L> {
    /// Open a run of scheduler `name` on `threads` workers, started at
    /// `start`. `traced` opens a run on the attached tracer, if any.
    pub(crate) fn open(
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
            violated: AtomicBool::new(false),
            violation: Mutex::new(None),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            results: Mutex::new(Vec::with_capacity(threads)),
        }
    }

    /// Whether a lookahead violation or a model panic has stopped the run.
    pub(crate) fn halted(&self) -> bool {
        self.violated.load(Ordering::SeqCst) || self.poisoned.load(Ordering::SeqCst)
    }

    /// Run `f` (model code), parking a panic instead of unwinding out of
    /// the worker. Returns whether `f` panicked.
    pub(crate) fn catch(&self, f: impl FnOnce()) -> bool {
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(()) => false,
            Err(payload) => {
                self.panic.lock().get_or_insert(payload);
                self.poisoned.store(true, Ordering::SeqCst);
                true
            }
        }
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
            flushed: [0; 4],
            out: Vec::with_capacity(8),
        }
    }

    /// A live tap on registry shard `t`, when a registry is attached.
    pub(crate) fn tap(&self, t: usize) -> Option<LiveTap> {
        self.live.as_ref().map(|h| h.tap(t))
    }

    /// Hand a worker's lane back at exit, with `leftover` events it holds
    /// outside its queue: flush its live counters, submit its trace
    /// buffer and record its queue counters.
    pub(crate) fn retire(
        &self,
        mut w: Worker<'_, L>,
        mut lane: Lane<L>,
        mut leftover: Vec<Envelope<L::Event>>,
    ) {
        let pool = lane.queue.pool_stats();
        if let Some(tp) = w.live() {
            tp.pool_high_water(pool.high_water);
            tp.flush();
        }
        if let (Some((tr, _)), Some(b)) = (self.trace.as_ref(), w.tbuf.take()) {
            tr.submit(b);
        }
        w.report.queue_ops = lane.queue.ops();
        w.report.queue_max_len = lane.queue.max_len();
        w.report.pool = pool;
        lane.queue.drain_to(&mut leftover);
        let report = std::mem::take(&mut w.report);
        self.results.lock().push((lane, leftover, report));
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
        let mut reports = Vec::new();
        for (lane, leftover, report) in self.results.lock().drain(..) {
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
        if let Some(payload) = self.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
        if let Some(msg) = self.violation.lock().take() {
            panic!("{msg}");
        }
        reports
    }

    /// Fold the workers' reports into the run's stats, close its trace run
    /// and emit its telemetry record.
    pub(crate) fn fold(self, sim: &Simulation<L>, reports: Vec<WorkerReport>) -> RunStats {
        let mut stats = RunStats::default();
        let mut queue = QueueTelemetry::empty(sim.queue);
        let threads = reports.len();
        let mut per_thread = Vec::with_capacity(threads);
        for r in reports {
            stats.committed += r.committed;
            stats.remote_events += r.remote;
            stats.cross_shard_events += r.cross_shard;
            stats.rounds = stats.rounds.max(r.rounds);
            stats.steals += r.steals;
            stats.horizon_stall_ns += r.stall_ns;
            stats.horizon_lag_max = stats.horizon_lag_max.max(r.lag);
            stats.end_time = stats.end_time.max(SimTime(r.clock));
            queue.ops += r.queue_ops;
            queue.max_len = queue.max_len.max(r.queue_max_len);
            queue.pool.merge(r.pool);
            per_thread.push(telemetry::ThreadRecord { events: r.committed, ..r.thread });
        }
        stats.wall_seconds = self.start.elapsed().as_secs_f64();
        if let Some((tr, run)) = self.trace {
            tr.close_run(run, (stats.wall_seconds * 1e9) as u64, stats.end_time.as_ns());
        }
        emit_sched_telemetry(
            sim.telemetry.as_deref(),
            self.name,
            threads,
            &stats,
            0,
            queue,
            per_thread,
        );
        stats
    }
}

/// One worker thread's private state: its report, trace buffer, live tap
/// and send buffer.
pub(crate) struct Worker<'r, L: Lp> {
    run: &'r Run<L>,
    pub(crate) report: WorkerReport,
    tbuf: Option<TraceBuf>,
    pub(crate) tap: Option<LiveTap>,
    /// committed, remote, cross-shard and steals already in the tap.
    flushed: [u64; 4],
    out: Vec<Outgoing<L::Event>>,
}

impl<L: Lp> Worker<'_, L> {
    /// Execute the least event of `queue` on its LP, where it sits in the
    /// queue's envelope pool, and seal the sends through `route`, which is
    /// handed the same queue for local deliveries. The caller peeked the
    /// event to find its `lp` and `meta`. Returns `false` on a lookahead
    /// violation (an arrival in the LP's past, so the window exceeded the
    /// model's true minimum send delay), with the event still queued: the
    /// caller stops processing.
    #[inline]
    pub(crate) fn step(
        &mut self,
        queue: &mut PendingQueue<L::Event>,
        lp: &mut L,
        meta: &mut LpMeta,
        mut route: impl FnMut(&mut PendingQueue<L::Event>, Envelope<L::Event>) -> Hop,
    ) -> bool {
        let at = queue.peek_time().expect("step on an empty queue");
        if at < meta.now {
            let dst = queue.peek().map_or(0, |e| e.dst);
            let mut v = self.run.violation.lock();
            v.get_or_insert_with(|| {
                format!(
                    "lookahead violation: event for LP {dst} at {} ns arrived after the LP reached \
                     {} ns; lookahead {} ns exceeds the model's minimum send delay",
                    at.0, meta.now.0, self.run.window.0,
                )
            });
            self.run.violated.store(true, Ordering::SeqCst);
            return false;
        }
        let r = &mut self.report;
        r.clock = r.clock.max(at.0);
        let (tbuf, out, lookahead) = (&mut self.tbuf, &mut self.out, self.run.lookahead);
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

    /// Note a mailbox drain of `n` envelopes (for the high-water mark).
    pub(crate) fn drained(&mut self, n: u64) {
        let hw = &mut self.report.thread.mailbox_high_water;
        *hw = (*hw).max(n);
    }

    /// Account a synchronization wait that began at `t0`: always as
    /// stall, and as blocked time plus a trace span when timing.
    pub(crate) fn stalled(&mut self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.report.stall_ns += ns;
        if self.run.timing {
            self.report.thread.blocked_ns += ns;
        }
        if let Some(b) = self.tbuf.as_mut() {
            b.end_span(SpanKind::Barrier, t0);
        }
    }

    fn counts(&self) -> [u64; 4] {
        let r = &self.report;
        [r.committed, r.remote, r.cross_shard, r.steals]
    }

    /// Whether counts accumulated since the last [`Worker::live`] call.
    pub(crate) fn unflushed(&self) -> bool {
        self.counts() != self.flushed
    }

    /// Committed events accumulated since the last [`Worker::live`] call.
    pub(crate) fn unflushed_committed(&self) -> u64 {
        self.report.committed - self.flushed[0]
    }

    /// Move the counts accumulated since the last call into the live tap
    /// and return it for the caller's gauges and flush; `None` when no
    /// registry is attached.
    pub(crate) fn live(&mut self) -> Option<&mut LiveTap> {
        let now = self.counts();
        let tap = self.tap.as_mut()?;
        let [c, r, x, s] = self.flushed;
        tap.commit(now[0] - c);
        tap.remote(now[1] - r);
        tap.cross_shard(now[2] - x);
        tap.steal(now[3] - s);
        self.flushed = now;
        Some(tap)
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

            assert!(!w.step(&mut queue, &mut lp, &mut meta, |_, _| Hop::Local), "{kind:?}");
            assert!(run.halted());
            let msg = run.violation.lock().take().expect("violation recorded");
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
        assert!(w.step(&mut queue, &mut lp, &mut meta, local));
        assert_eq!((lp.0, meta.processed, meta.now), (1, 1, SimTime(30)));
        assert_eq!((w.report.committed, w.report.clock), (1, 30));
        assert_eq!(queue.pool_stats(), PoolStats { high_water: 2, recycled: 1 });
        let left: Vec<_> =
            std::iter::from_fn(|| queue.pop_with(|e| (e.recv_time.0, e.payload))).collect();
        assert_eq!(left, [(40, 1000), (130, 7)]);
        assert!(!run.halted());
    }
}
