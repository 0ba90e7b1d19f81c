//! The `Simulation` container shared by every scheduler.

use crate::event::{Envelope, EventUid, LpId};
use crate::lp::{Lp, LpMeta, Outgoing};
use crate::queue::{EventQueue, PendingQueue, QueueKind};
use crate::time::{SimDuration, SimTime};
use crate::worker::{Hop, Run};
use std::time::Instant;

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
    /// Synchronization rounds (conservative windows, GVT epochs or shard
    /// fences; 1 for a sequential run), or the conservative-async
    /// scheduler's scheduling iterations — as worker 0 counts them.
    pub rounds: u64,
    /// LP blocks migrated between workers by work stealing
    /// (conservative-async scheduler only).
    pub steals: u64,
    /// Total nanoseconds workers spent stalled at barriers or waiting for
    /// peer safe horizons to advance (0 on the sequential path).
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
    /// Co-location hint for the conservative schedulers.
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

    /// Install a co-location hint for the conservative schedulers
    /// ([`Simulation::run_conservative_parallel`],
    /// [`Simulation::run_conservative_async`] and the shard gang's
    /// [`crate::shard::shard_owner_map`]): LPs sharing a block are packed
    /// onto the same worker thread (or shard). Has no effect on results,
    /// only on cross-thread traffic; the optimistic scheduler ignores it.
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
    ///
    /// A one-worker run of the shared worker core: every event is handled
    /// where it sits in the pending queue's envelope pool, on the LPs in
    /// place — no lanes to split or reassemble.
    pub fn run_sequential(&mut self, until: SimTime) -> RunStats {
        let run = Run::solo(self, "sequential", 1, self.lookahead, Instant::now(), true);
        let mut w = run.worker(0);
        let n_lps = self.lps.len();
        let mut clock = SimTime::ZERO;
        let t0 = w.clock();
        // One peek per event: the header it reads both gates the loop and
        // prefetches the next LP, while the event beyond `until` stays
        // queued.
        let mut next = self.pending.peek().map(|e| (e.recv_time, e.dst as usize));
        while let Some((at, dst)) = next.filter(|&(at, _)| at <= until) {
            debug_check_monotonic(&mut clock, at);
            w.step(&mut self.pending, at, &mut self.lps[dst], &mut self.meta[dst], |q, new| {
                debug_assert!((new.dst as usize) < n_lps, "send to unknown LP {}", new.dst);
                q.push(new);
                Hop::Local
            });
            // Start pulling in the next event's LP state and meta line
            // (random slots in two big arrays) while the loop bookkeeping
            // retires. Its envelope is already on the way: the dequeue
            // above prefetched its slot.
            next = self.pending.peek().map(|e| (e.recv_time, e.dst as usize));
            if let Some((_, nd)) = next {
                crate::pool::prefetch_read(&self.meta[nd]);
                crate::pool::prefetch_read(&self.lps[nd]);
            }
            // Detached, the live registry costs this one branch per event.
            if w.unpublished().is_some_and(|n| n >= crate::live::FLUSH_EVERY) {
                w.publish(|tp| {
                    tp.gvt(clock.as_ns());
                    tp.queue_depth(self.pending.len() as u64);
                });
            }
        }
        w.busy(t0);
        w.report.rounds = 1;
        w.publish(|tp| {
            tp.gvt(clock.as_ns());
            tp.queue_depth(self.pending.len() as u64);
        });
        let report = w.finish(&self.pending);
        run.fold(self, vec![report])
    }
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
