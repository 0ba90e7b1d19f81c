//! The `Simulation` container shared by every scheduler.

use crate::event::{Envelope, EventHeader, EventUid, LpId};
use crate::lp::{Ctx, Lp, LpMeta, Outgoing};
use crate::queue::{EventQueue, PendingQueue, QueueKind};
use crate::time::{SimDuration, SimTime};

/// Statistics returned by a scheduler run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Events processed and committed.
    pub committed: u64,
    /// Events that were processed speculatively and later rolled back
    /// (optimistic scheduler only).
    pub rolled_back: u64,
    /// Rollback episodes (optimistic scheduler only).
    pub rollbacks: u64,
    /// Anti-messages sent (optimistic scheduler only).
    pub anti_messages: u64,
    /// Anti-messages that met their target before it executed and
    /// cancelled it without a rollback (optimistic scheduler only).
    pub annihilated: u64,
    /// Rollbacks that restored from the GVT-fence snapshot because every
    /// younger snapshot had been undone (optimistic scheduler only).
    pub fence_restores: u64,
    /// Events delivered across worker partitions through mailboxes
    /// (conservative-parallel, conservative-async and sharded runs).
    pub remote_events: u64,
    /// Events delivered across OS-process shards through a transport
    /// ([`crate::shard`] runs only).
    pub cross_shard_events: u64,
    /// Synchronization rounds (conservative windows or GVT epochs).
    pub rounds: u64,
    /// LP blocks migrated between workers by work stealing
    /// (conservative-async scheduler only).
    pub steals: u64,
    /// Total nanoseconds workers spent stalled waiting for peer safe
    /// horizons to advance (conservative-async scheduler only).
    pub horizon_stall_ns: u64,
    /// Max observed gap between the most- and least-advanced published
    /// safe horizons (conservative-async scheduler only).
    pub horizon_lag_max: u64,
    /// Wall-clock seconds spent inside the scheduler.
    pub wall_seconds: f64,
    /// Final GVT / global clock when the run stopped.
    pub end_time: SimTime,
}

impl RunStats {
    /// Committed event rate in events per wall-clock second.
    pub fn event_rate(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.committed as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of processed events that were wasted on rollbacks.
    pub fn rollback_efficiency(&self) -> f64 {
        let total = self.committed + self.rolled_back;
        if total == 0 {
            1.0
        } else {
            self.committed as f64 / total as f64
        }
    }
}

/// A discrete-event simulation: a set of LPs plus pending events.
///
/// Construct with [`Simulation::new`], inject initial events with
/// [`Simulation::schedule`], then drive it with one of the schedulers:
/// [`Simulation::run_sequential`],
/// [`Simulation::run_conservative_parallel`],
/// [`Simulation::run_conservative_async`] or
/// [`Simulation::run_optimistic`] — or uniformly through
/// [`crate::Scheduler::run`].
pub struct Simulation<L: Lp> {
    pub(crate) lps: Vec<L>,
    pub(crate) meta: Vec<LpMeta>,
    pub(crate) pending: PendingQueue<L::Event>,
    /// Which queue implementation `pending` (and the per-thread queues the
    /// parallel schedulers build) uses.
    pub(crate) queue: QueueKind,
    pub(crate) lookahead: SimDuration,
    /// Co-location hint for the conservative-parallel scheduler.
    pub(crate) partition: Option<crate::partition::Partition>,
    /// Telemetry sink; every scheduler emits one record per run when set.
    pub(crate) telemetry: Option<std::sync::Arc<telemetry::Recorder>>,
    /// Causal tracer; every scheduler records per-event causality and
    /// phase spans into it when set.
    pub(crate) tracer: Option<std::sync::Arc<crate::trace::Tracer>>,
    /// Live metrics registry; every scheduler streams counters, gauges,
    /// and histograms into it at sync-point cadence when set.
    pub(crate) live: Option<std::sync::Arc<telemetry::live::MetricsRegistry>>,
}

impl<L: Lp> Simulation<L> {
    /// Create a simulation over `lps` with the given minimum event delay
    /// (`lookahead`). Every [`Ctx::send`] must use a delay of at least
    /// `lookahead`; 1 ns is always safe but shrinks conservative windows.
    /// Uses the default event queue ([`QueueKind::Ladder`]); see
    /// [`Simulation::with_queue`].
    pub fn new(lps: Vec<L>, lookahead: SimDuration) -> Self {
        Simulation::with_queue(lps, lookahead, QueueKind::default())
    }

    /// [`Simulation::new`] with an explicit event-queue implementation.
    /// The choice never affects results — only throughput.
    pub fn with_queue(lps: Vec<L>, lookahead: SimDuration, queue: QueueKind) -> Self {
        assert!(lookahead.as_ns() >= 1, "lookahead must be at least 1 ns");
        let n = lps.len();
        Simulation {
            lps,
            meta: (0..n).map(|_| LpMeta::new()).collect(),
            pending: queue.new_queue(),
            queue,
            lookahead,
            partition: None,
            telemetry: None,
            tracer: None,
            live: None,
        }
    }

    /// Swap the event-queue implementation. Pending events (e.g. between
    /// the legs of a paused run) are migrated to the new queue.
    pub fn set_queue(&mut self, queue: QueueKind) {
        if queue == self.queue {
            return;
        }
        let mut moved = Vec::with_capacity(self.pending.len());
        self.pending.drain_to(&mut moved);
        self.queue = queue;
        self.pending = queue.new_queue();
        for env in moved {
            self.pending.push(env);
        }
    }

    /// The event-queue implementation in use.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue
    }

    /// Attach (or detach) a telemetry recorder. When set, every scheduler
    /// run appends one `scheduler` record with its counters and per-thread
    /// timing to the recorder. Schedulers read only thread-local counters
    /// on hot paths; with `None` (the default) even the clock reads are
    /// skipped, so the disabled cost is zero.
    pub fn set_telemetry(&mut self, recorder: Option<std::sync::Arc<telemetry::Recorder>>) {
        self.telemetry = recorder;
    }

    /// Attach (or detach) a causal tracer ([`crate::trace`]). When set,
    /// every scheduler run opens a trace run, records each executed
    /// event (plus rolled-back work and phase spans on the parallel
    /// schedulers) and closes the run with its wall time. With `None`
    /// (the default) the per-event cost is a single branch.
    pub fn set_tracer(&mut self, tracer: Option<std::sync::Arc<crate::trace::Tracer>>) {
        self.tracer = tracer;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&std::sync::Arc<crate::trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// Attach (or detach) a live metrics registry
    /// ([`telemetry::live::MetricsRegistry`]). When set, every scheduler
    /// streams its counters/gauges/histograms into the registry at its
    /// synchronization cadence (windows, rounds, GVT epochs, or every few
    /// thousand events on the sequential path) so an exposition endpoint
    /// can observe the run in flight. With `None` (the default) the cost
    /// is a single branch at those same coarse points.
    pub fn set_live(&mut self, live: Option<std::sync::Arc<telemetry::live::MetricsRegistry>>) {
        self.live = live;
    }

    /// The attached live registry, if any.
    pub fn live(&self) -> Option<&std::sync::Arc<telemetry::live::MetricsRegistry>> {
        self.live.as_ref()
    }

    /// Install a co-location hint for
    /// [`Simulation::run_conservative_parallel`]: LPs sharing a block
    /// are guaranteed to run on the same worker thread. Has no effect on
    /// results (only on cross-thread traffic), and no effect on the
    /// other schedulers.
    pub fn set_partition(&mut self, partition: crate::partition::Partition) {
        assert_eq!(
            partition.n_lps(),
            self.lps.len(),
            "partition covers {} LPs but the simulation has {}",
            partition.n_lps(),
            self.lps.len()
        );
        self.partition = Some(partition);
    }

    /// The installed partition hint, if any.
    pub fn partition(&self) -> Option<&crate::partition::Partition> {
        self.partition.as_ref()
    }

    /// Number of LPs.
    pub fn n_lps(&self) -> usize {
        self.lps.len()
    }

    /// Inject an event from "outside" the model before (or between) runs.
    pub fn schedule(&mut self, dst: LpId, at: SimTime, payload: L::Event) {
        assert!((dst as usize) < self.lps.len(), "dst {dst} out of range");
        let meta = &mut self.meta[dst as usize];
        let env = Envelope {
            recv_time: at,
            send_time: SimTime::ZERO,
            src: dst,
            dst,
            tiebreak: meta.tiebreak,
            uid: EventUid { src: dst, seq: meta.uid_seq },
            payload,
        };
        meta.tiebreak += 1;
        meta.uid_seq += 1;
        self.pending.push(env);
    }

    /// Read access to the LPs (e.g. to pull metrics out after a run).
    pub fn lps(&self) -> &[L] {
        &self.lps
    }

    /// Consume the simulation, returning the LPs.
    pub fn into_lps(self) -> Vec<L> {
        self.lps
    }

    /// Number of events awaiting processing.
    pub fn pending_events(&self) -> usize {
        self.pending.len()
    }

    /// Envelope-pool counters of the pending-event queue (population
    /// high-water mark, recycled slots). The parallel schedulers report
    /// their per-thread queues' counters through telemetry instead.
    pub fn pending_pool_stats(&self) -> crate::pool::PoolStats {
        self.pending.pool_stats()
    }

    /// Run with the single-threaded reference scheduler until the event
    /// queue drains or the next event is after `until`. Events beyond
    /// `until` remain pending.
    pub fn run_sequential(&mut self, until: SimTime) -> RunStats {
        let start = std::time::Instant::now();
        let mut stats = RunStats::default();
        let mut out: Vec<Outgoing<L::Event>> = Vec::with_capacity(8);
        let mut clock = SimTime::ZERO;
        let mut tbuf = self.tracer.as_ref().map(|tr| {
            let run = tr.open_run("sequential", 1);
            tr.buf(run, 0)
        });
        let mut tap = crate::live::LiveHandles::from_sim(&self.live, 1).map(|h| h.tap(0));
        let lookahead = self.lookahead;
        let n_lps = self.lps.len();

        // The event beyond `until` is only peeked, so it stays queued. Every
        // other event is handled where it sits in the queue's envelope pool
        // and dropped there; only its header comes back out, to seal the
        // sends into the slot it just freed.
        while self.pending.peek_time().is_some_and(|t| t <= until) {
            let (lps, metas) = (&mut self.lps, &mut self.meta);
            let (head, trace) = self
                .pending
                .pop_with(|env| {
                    let dst = env.dst as usize;
                    debug_check_monotonic(&mut clock, env.recv_time);
                    let meta = &mut metas[dst];
                    debug_assert!(env.recv_time >= meta.now, "causality violation");
                    meta.now = env.recv_time;
                    meta.processed += 1;
                    let trace = tbuf
                        .as_mut()
                        .map(|b| (lps[dst].trace_kind(env), b.event_start(), meta.uid_seq));
                    let mut ctx = Ctx { now: env.recv_time, me: env.dst, lookahead, out: &mut out };
                    lps[dst].handle(env, &mut ctx);
                    (EventHeader::from(env), trace)
                })
                .expect("peeked event vanished");
            stats.committed += 1;
            let meta = &mut self.meta[head.dst as usize];
            let pending = &mut self.pending;
            seal_outgoing(head.dst, head.recv_time, meta, &mut out, |new| {
                debug_assert!((new.dst as usize) < n_lps, "send to unknown LP {}", new.dst);
                pending.push(new);
            });
            if let (Some(b), Some((kind, t0, uid_lo))) = (tbuf.as_mut(), trace) {
                b.record(head, uid_lo, (meta.uid_seq - uid_lo) as u32, kind, t0);
            }
            // Start pulling in the next event's LP state and meta line
            // (random slots in two big arrays) while the loop bookkeeping
            // retires. Its envelope is already on the way: the dequeue
            // above prefetched its slot.
            if let Some(next) = self.pending.peek() {
                let nd = next.dst as usize;
                if nd < n_lps {
                    crate::pool::prefetch_read(&self.meta[nd]);
                    crate::pool::prefetch_read(&self.lps[nd]);
                }
            }
            // Detached, the live registry costs this one branch per event.
            if let Some(t) = tap.as_mut() {
                t.commit(1);
                if t.pending_committed() >= crate::live::FLUSH_EVERY {
                    t.gvt(clock.as_ns());
                    t.queue_depth(self.pending.len() as u64);
                    t.flush();
                }
            }
        }

        stats.rounds = 1;
        stats.end_time = clock;
        stats.wall_seconds = start.elapsed().as_secs_f64();
        if let Some(t) = tap.as_mut() {
            t.round();
            t.gvt(clock.as_ns());
            t.queue_depth(self.pending.len() as u64);
            t.pool_high_water(self.pending.pool_stats().high_water);
            t.flush();
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        if let (Some(tr), Some(buf)) = (self.tracer.as_ref(), tbuf) {
            let run = buf.run();
            tr.submit(buf);
            tr.close_run(run, wall_ns, stats.end_time.as_ns());
        }
        emit_sched_telemetry(
            self.telemetry.as_deref(),
            "sequential",
            1,
            &stats,
            0,
            QueueTelemetry {
                kind: self.queue,
                ops: self.pending.ops(),
                max_len: self.pending.max_len(),
                pool: self.pending.pool_stats(),
            },
            vec![telemetry::ThreadRecord {
                thread: 0,
                events: stats.committed,
                busy_ns: wall_ns,
                ..Default::default()
            }],
        );
        stats
    }
}

/// Queue counters folded into a run's scheduler record. The parallel
/// schedulers sum `ops` (and `pool.recycled`) and take the max of
/// `max_len` / `pool.high_water` across their per-thread queues.
pub(crate) struct QueueTelemetry {
    pub(crate) kind: QueueKind,
    pub(crate) ops: u64,
    pub(crate) max_len: u64,
    pub(crate) pool: crate::pool::PoolStats,
}

impl QueueTelemetry {
    /// Identity for folding per-thread queues.
    pub(crate) fn empty(kind: QueueKind) -> Self {
        QueueTelemetry { kind, ops: 0, max_len: 0, pool: crate::pool::PoolStats::default() }
    }
}

/// Shared tail of every scheduler: fold the run counters and the workers'
/// thread records into one `scheduler` telemetry record. No-op when no
/// recorder is attached.
pub(crate) fn emit_sched_telemetry(
    telem: Option<&telemetry::Recorder>,
    name: &str,
    threads: usize,
    stats: &RunStats,
    max_gvt_lag_ns: u64,
    queue: QueueTelemetry,
    mut per_thread: Vec<telemetry::ThreadRecord>,
) {
    let Some(rec) = telem else { return };
    let wall_ns = (stats.wall_seconds * 1e9) as u64;
    per_thread.sort_by_key(|t| t.thread);
    for t in per_thread.iter_mut() {
        t.idle_ns = wall_ns.saturating_sub(t.busy_ns + t.blocked_ns);
    }
    let mut r = telemetry::SchedulerRecord::new(name, threads);
    r.queue = queue.kind.label().to_string();
    r.queue_ops = queue.ops;
    r.queue_max_len = queue.max_len;
    r.pool_high_water = queue.pool.high_water;
    r.pool_recycled = queue.pool.recycled;
    r.committed = stats.committed;
    r.rolled_back = stats.rolled_back;
    r.rollbacks = stats.rollbacks;
    r.anti_messages = stats.anti_messages;
    r.annihilated = stats.annihilated;
    r.remote_events = stats.remote_events;
    r.cross_shard_events = stats.cross_shard_events;
    r.rounds = stats.rounds;
    r.steals = stats.steals;
    r.horizon_stall_ns = stats.horizon_stall_ns;
    r.horizon_lag_max = stats.horizon_lag_max;
    r.max_gvt_lag_ns = max_gvt_lag_ns;
    r.end_time_ns = stats.end_time.as_ns();
    r.wall_ns = wall_ns;
    r.per_thread = per_thread;
    rec.emit(&r);
}

/// Debug guard on dequeue order: timestamps pulled off an in-order event
/// queue must be non-decreasing, and a violation means the `Ord` on
/// [`Envelope`] (or a scheduler's merge of queues) regressed. Advances
/// `last` to `t` so callers can use it as their running clock.
#[inline]
pub(crate) fn debug_check_monotonic(last: &mut SimTime, t: SimTime) {
    debug_assert!(t >= *last, "non-monotonic dequeue: {} ns after {} ns", t.as_ns(), last.as_ns());
    *last = t;
}

/// Helper shared by the schedulers: turn buffered outgoing sends
/// into envelopes, updating the sender's meta counters.
#[inline]
pub(crate) fn seal_outgoing<E>(
    src: LpId,
    send_time: SimTime,
    meta: &mut LpMeta,
    out: &mut Vec<Outgoing<E>>,
    mut push: impl FnMut(Envelope<E>),
) {
    for o in out.drain(..) {
        let env = Envelope {
            recv_time: send_time + o.delay,
            send_time,
            src,
            dst: o.dst,
            tiebreak: meta.tiebreak,
            uid: EventUid { src, seq: meta.uid_seq },
            payload: o.payload,
        };
        meta.tiebreak += 1;
        meta.uid_seq += 1;
        push(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_dequeue_advances_the_clock() {
        let mut clock = SimTime::ZERO;
        debug_check_monotonic(&mut clock, SimTime::from_ns(5));
        debug_check_monotonic(&mut clock, SimTime::from_ns(5));
        debug_check_monotonic(&mut clock, SimTime::from_ns(9));
        assert_eq!(clock, SimTime::from_ns(9));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-monotonic")]
    fn decreasing_dequeue_timestamp_is_caught() {
        let mut clock = SimTime::from_ns(10);
        debug_check_monotonic(&mut clock, SimTime::from_ns(9));
    }
}
