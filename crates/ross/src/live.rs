//! Wiring between the schedulers and the live metrics plane
//! ([`telemetry::live`]).
//!
//! Schedulers never touch the registry on per-event hot paths: each worker
//! thread owns a [`LiveTap`] — shard-private handles plus the counts it
//! last published — and flushes it at the scheduler's natural
//! synchronization cadence (per window/round/GVT epoch, or every
//! [`FLUSH_EVERY`] committed events on the sequential path). A flush
//! publishes what the worker's [`WorkerReport`] gained since the previous
//! one, so the registry and the end-of-run record read the same counters.
//! A detached registry costs one `Option` branch at those same coarse
//! points, which is what keeps the <2% overhead guard honest.

use crate::worker::WorkerReport;
use std::sync::Arc;
use telemetry::live::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};

/// Sequential-scheduler flush cadence in committed events. Parallel
/// schedulers flush at their own sync points instead.
pub(crate) const FLUSH_EVERY: u64 = 8192;

/// Registry names of the streamed counters, in [`counts`] order.
const COUNTERS: [&str; 8] = [
    "events_committed",
    "events_rolled_back",
    "rollbacks",
    "anti_messages",
    "remote_events",
    "cross_shard_events",
    "rounds",
    "steals",
];

/// The report's streamed counters, in [`COUNTERS`] order.
fn counts(r: &WorkerReport) -> [u64; 8] {
    [
        r.committed,
        r.rolled_back,
        r.rollbacks,
        r.anti_messages,
        r.remote,
        r.cross_shard,
        r.rounds,
        r.steals,
    ]
}

/// Sharded handles for every engine metric the schedulers feed. One per
/// run; [`LiveHandles::tap`] clones it onto a worker's shard.
pub(crate) struct LiveHandles {
    counters: [CounterHandle; 8],
    gvt_ns: GaugeHandle,
    horizon_lag_ns: GaugeHandle,
    queue_depth: GaugeHandle,
    pool_high_water: GaugeHandle,
    commit_batch: HistogramHandle,
    queue_depth_hist: HistogramHandle,
}

impl LiveHandles {
    /// From a simulation's optional registry: handles for a run about to
    /// start on `threads` workers.
    pub(crate) fn from_sim(
        reg: &Option<Arc<MetricsRegistry>>,
        threads: usize,
    ) -> Option<Arc<LiveHandles>> {
        let reg = reg.as_ref()?;
        reg.gauge("workers").set(threads as u64);
        Some(Arc::new(LiveHandles {
            counters: COUNTERS.map(|name| reg.counter(name)),
            gvt_ns: reg.gauge("gvt_ns"),
            horizon_lag_ns: reg.gauge("horizon_lag_ns"),
            queue_depth: reg.gauge("queue_depth"),
            pool_high_water: reg.gauge("pool_high_water"),
            commit_batch: reg.histogram("commit_batch"),
            queue_depth_hist: reg.histogram("queue_depth"),
        }))
    }

    /// A worker-private tap recording through shard `shard`.
    pub(crate) fn tap(self: &Arc<LiveHandles>, shard: usize) -> LiveTap {
        LiveTap {
            counters: self.counters.each_ref().map(|c| c.for_shard(shard)),
            published: [0; 8],
            gvt_ns: self.gvt_ns.clone(),
            horizon_lag_ns: self.horizon_lag_ns.clone(),
            queue_depth: self.queue_depth.clone(),
            pool_high_water: self.pool_high_water.clone(),
            commit_batch: self.commit_batch.for_shard(shard),
            queue_depth_hist: self.queue_depth_hist.for_shard(shard),
        }
    }
}

/// One worker thread's view of the live registry: the counters go through
/// shard-private wait-free handles, the gauges are shared.
pub(crate) struct LiveTap {
    counters: [CounterHandle; 8],
    /// The report's counts as of the last flush.
    published: [u64; 8],
    gvt_ns: GaugeHandle,
    horizon_lag_ns: GaugeHandle,
    queue_depth: GaugeHandle,
    pool_high_water: GaugeHandle,
    commit_batch: HistogramHandle,
    queue_depth_hist: HistogramHandle,
}

impl LiveTap {
    /// Committed events in `r` not yet published.
    #[inline]
    pub(crate) fn unpublished(&self, r: &WorkerReport) -> u64 {
        r.committed - self.published[0]
    }

    /// Latest global clock (GVT / window floor / horizon) — leader only.
    pub(crate) fn gvt(&self, ns: u64) {
        self.gvt_ns.set(ns);
    }

    /// Current pending-queue depth: latest-value gauge plus distribution.
    pub(crate) fn queue_depth(&mut self, len: u64) {
        self.queue_depth.set(len);
        self.queue_depth_hist.record(len);
    }

    pub(crate) fn pool_high_water(&self, v: u64) {
        self.pool_high_water.observe_max(v);
    }

    /// Publish what `r`'s counters gained since the last flush, and its
    /// lag high-water. The committed gain also lands in the
    /// `commit_batch` histogram — the distribution of work per flush
    /// window.
    pub(crate) fn flush(&mut self, r: &WorkerReport) {
        let now = counts(r);
        if now[0] > self.published[0] {
            self.commit_batch.record(now[0] - self.published[0]);
        }
        for ((handle, last), v) in self.counters.iter().zip(&mut self.published).zip(now) {
            if v > *last {
                handle.add(v - *last);
                *last = v;
            }
        }
        self.horizon_lag_ns.observe_max(r.lag.max(r.gvt_lag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_publishes_what_the_report_gained() {
        let reg = Arc::new(MetricsRegistry::with_shards(2));
        let handles = LiveHandles::from_sim(&Some(Arc::clone(&reg)), 2).unwrap();
        let mut a = handles.tap(0);
        let mut b = handles.tap(1);
        let mut ra = WorkerReport { committed: 10, rounds: 1, ..Default::default() };
        a.flush(&ra);
        a.flush(&ra); // nothing gained: nothing published
        ra.committed = 25;
        a.flush(&ra);
        b.flush(&WorkerReport { committed: 17, lag: 5, ..Default::default() });
        assert_eq!(a.unpublished(&WorkerReport { committed: 30, ..Default::default() }), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("events_committed"), Some(42));
        assert_eq!(snap.counter_total("rounds"), Some(1));
        assert_eq!(snap.gauge("workers"), Some(2));
        assert_eq!(snap.gauge("horizon_lag_ns"), Some(5));
        let h = snap.histogram("commit_batch").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 42);
    }
}
