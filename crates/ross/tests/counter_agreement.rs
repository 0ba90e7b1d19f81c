//! Every scheduler counts into one per-worker report, so the three views
//! of a run — the live metrics registry, the returned `RunStats` and the
//! `scheduler` telemetry record — must agree on every counter, for every
//! scheduler and for a shard gang.

// Multi-thread runs on the `crate::sync` seam; under `union_check` that
// seam only runs inside the model checker.
#![cfg(not(union_check))]

use ross::shard::{loopback_mesh, ShardRun};
use ross::{
    Ctx, Envelope, Lp, OptimisticConfig, RunStats, Scheduler, SimDuration, SimTime, Simulation,
};
use std::sync::Arc;
use telemetry::live::MetricsRegistry;
use telemetry::Recorder;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// PHOLD with a 50 ns minimum send delay, so 50 ns windows are legal.
#[derive(Clone)]
struct Phold {
    rng: u64,
    n_lps: u32,
}

impl Lp for Phold {
    type Event = u64;
    fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
        if ctx.now() < SimTime::from_us(200) {
            let dst = (xorshift(&mut self.rng) % self.n_lps as u64) as u32;
            let delay = SimDuration::from_ns(50 + xorshift(&mut self.rng) % 451);
            ctx.send(dst, delay, ev.payload + 1);
        }
    }
}

const N_LPS: u32 = 32;
const WINDOW: SimDuration = SimDuration::from_ns(50);

/// A 32-LP PHOLD streaming into `reg` and recording into `rec`.
fn phold(reg: &Arc<MetricsRegistry>, rec: &Arc<Recorder>) -> Simulation<Phold> {
    let lps =
        (0..N_LPS).map(|i| Phold { rng: 0x9e37_79b9 ^ (i as u64 + 1), n_lps: N_LPS }).collect();
    let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
    for i in 0..N_LPS {
        sim.schedule(i, SimTime::from_ns(i as u64 % 7), i as u64);
    }
    sim.set_live(Some(Arc::clone(reg)));
    sim.set_telemetry(Some(Arc::clone(rec)));
    sim
}

type Field = fn(&RunStats) -> u64;

/// (registry name, record key, `RunStats` field) for every counter the
/// three views share.
const COUNTERS: [(&str, &str, Field); 8] = [
    ("events_committed", "committed", |s| s.committed),
    ("events_rolled_back", "rolled_back", |s| s.rolled_back),
    ("rollbacks", "rollbacks", |s| s.rollbacks),
    ("anti_messages", "anti_messages", |s| s.anti_messages),
    ("remote_events", "remote_events", |s| s.remote_events),
    ("cross_shard_events", "cross_shard_events", |s| s.cross_shard_events),
    ("rounds", "rounds", |s| s.rounds),
    ("steals", "steals", |s| s.steals),
];

/// The registry's totals, the summed `stats` and the summed `scheduler`
/// records agree on every counter.
fn assert_agree(label: &str, reg: &MetricsRegistry, rec: &Recorder, stats: &[RunStats]) {
    let records: Vec<serde::Value> = rec
        .lines()
        .iter()
        .map(|l| serde_json::from_str::<serde::Value>(l).expect("telemetry JSON"))
        .filter(|v| v.get("record").and_then(|r| r.as_str()) == Some("scheduler"))
        .collect();
    assert_eq!(records.len(), stats.len(), "{label}: one record per run");
    let snap = reg.snapshot();
    for (name, key, field) in COUNTERS {
        let from_stats: u64 = stats.iter().map(field).sum();
        let from_record: u64 =
            records.iter().map(|r| r.get(key).and_then(|v| v.as_u64()).expect(key)).sum();
        assert_eq!(snap.counter_total(name), Some(from_stats), "{label}: registry {name} vs stats");
        assert_eq!(from_record, from_stats, "{label}: record {key} vs stats");
    }
    assert!(stats.iter().map(|s| s.committed).sum::<u64>() > 10_000, "{label}: too little work");
}

#[test]
fn registry_stats_and_record_agree_for_every_scheduler() {
    let opt = OptimisticConfig { batch: 8, snapshot_interval: 2 };
    for (label, sched) in [
        ("seq", Scheduler::Sequential),
        ("par:2", Scheduler::ConservativeParallel { threads: 2, lookahead: WINDOW }),
        ("async:2", Scheduler::ConservativeAsync { threads: 2, lookahead: WINDOW }),
        ("opt:2", Scheduler::Optimistic { threads: 2, config: opt }),
    ] {
        let (reg, rec) = (Arc::new(MetricsRegistry::with_shards(2)), Arc::new(Recorder::new()));
        let stats = sched.run(&mut phold(&reg, &rec), SimTime::MAX);
        assert!(stats.rounds > 0, "{label}: {stats:?}");
        assert_agree(label, &reg, &rec, &[stats]);
    }
}

#[test]
fn registry_stats_and_record_agree_for_a_shard_gang() {
    let (reg, rec) = (Arc::new(MetricsRegistry::with_shards(2)), Arc::new(Recorder::new()));
    let shards: Vec<_> = loopback_mesh::<u64>(2)
        .into_iter()
        .map(|mut transport| {
            let (reg, rec) = (Arc::clone(&reg), Arc::clone(&rec));
            std::thread::spawn(move || {
                let mut sim = phold(&reg, &rec);
                sim.run_sharded(&mut transport, ShardRun::new(2, WINDOW), SimTime::MAX).unwrap()
            })
        })
        .collect();
    let stats: Vec<RunStats> = shards.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(stats.iter().all(|s| s.cross_shard_events > 0 && s.rounds > 0), "{stats:?}");
    assert_agree("shard:2:2", &reg, &rec, &stats);
}
