//! Multi-threaded conservative scheduler with explicit lookahead windows
//! and lock-free cross-partition mailboxes (the CMB null-message idea
//! collapsed into a shared-memory barrier protocol).
//!
//! * **Topology-aware partitions.** LPs are grouped by a model-supplied
//!   [`crate::Partition`] (e.g. CODES keeps each router with its attached
//!   nodes), then packed onto threads by a deterministic greedy
//!   bin-packer. Partitions need not be contiguous, so LP state is moved
//!   into per-thread lanes and reassembled after the run
//!   ([`crate::worker`]).
//! * **Lock-free mailboxes.** Cross-partition events travel through
//!   Treiber-stack MPSC mailboxes ([`crate::mailbox`]); a worker drains
//!   its mailbox once per round.
//! * **Caller-chosen lookahead.** The synchronization window is
//!   `max(window, engine lookahead)`. A model whose true minimum delay
//!   exceeds the 1 ns it declared (CODES models: link latency floors)
//!   can run with wide windows and few barriers. A window wider than the
//!   model's real minimum delay is caught at run time by a hard
//!   causality check, never silently accepted.
//!
//! ## Protocol
//!
//! Per round, every worker: (1) drains its mailbox into its local queue,
//! (2) publishes its minimum pending timestamp and barriers, (3) computes
//! the global minimum `gmin` — a shared-memory GVT — and processes every
//! local event in `[gmin, gmin + window)`, sending remote events through
//! mailboxes, (4) barriers again so all sends are visible before the
//! next drain. Determinism: within a partition events are processed in
//! total-key order from its [`crate::queue`]; across partitions every event in
//! one window is causally independent (window ≤ true minimum delay); and
//! mailbox arrival order is erased by the heap. For a fixed seed the
//! results are bit-identical to [`Simulation::run_sequential`].

use crate::engine::{RunStats, Simulation};
use crate::event::Envelope;
use crate::lp::Lp;
use crate::mailbox::Mailbox;
use crate::queue::EventQueue;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread, Barrier};
use crate::time::{SimDuration, SimTime};
use crate::worker::{self, Hop, Run};

/// Cross-partition events are batched into chunks of this many envelopes
/// before a mailbox push: one allocation + CAS per chunk instead of per
/// event, and the receiver ingests a cache-line-friendly contiguous run.
/// Partial chunks are flushed before the round's closing barrier, so
/// batching never delays delivery across a round boundary.
pub(crate) const MAILBOX_CHUNK: usize = 8;
/// Retained empty chunk vectors per worker (senders pull replacements from
/// here; receivers recycle drained chunks into it), bounding steady-state
/// chunk allocation.
pub(crate) const SPARE_CHUNKS_MAX: usize = 64;

impl<L: Lp> Simulation<L> {
    /// Run with the conservative-parallel scheduler on `n_threads`
    /// workers and a synchronization window of `window` (clamped up to
    /// the engine lookahead), until the queue drains or the next event
    /// exceeds `until`.
    ///
    /// Uses the partition installed with [`Simulation::set_partition`],
    /// or a per-LP partition when none was set. Produces results
    /// bit-identical to [`Simulation::run_sequential`]; panics if
    /// `window` exceeds the model's true minimum send delay (a causality
    /// violation would otherwise corrupt results silently).
    pub fn run_conservative_parallel(
        &mut self,
        n_threads: usize,
        window: SimDuration,
        until: SimTime,
    ) -> RunStats {
        let start = std::time::Instant::now();
        let n_lps = self.lps.len();
        let n_threads = n_threads.max(1).min(n_lps.max(1));
        if n_threads <= 1 {
            return self.run_sequential(until);
        }
        let window = window.max(self.lookahead);
        let assignment = worker::packing(self.partition.as_ref(), n_lps).assign(n_threads);
        let owner_of = &assignment.owner_of;
        let local_of = &assignment.local_of;
        let run = Run::open(self, "conservative-parallel", n_threads, window, start, true);
        // Partitions are not contiguous in general: LP state moves into
        // per-thread lanes and is reassembled by global id after the run.
        let (lanes, slots) = worker::split(self, &assignment.locals, owner_of);

        // Mailboxes carry *chunks* of envelopes (see `MAILBOX_CHUNK`), not
        // single events: senders batch, the exactly-once invariant checked
        // under `union_check` then counts chunks.
        let mailboxes: Vec<Mailbox<Vec<Envelope<L::Event>>>> =
            (0..n_threads).map(|_| Mailbox::new()).collect();
        let barrier = Barrier::new(n_threads);
        let mins: Vec<AtomicU64> = (0..n_threads).map(|_| AtomicU64::new(u64::MAX)).collect();

        thread::scope(|scope| {
            for (t, mut lane) in lanes.into_iter().enumerate() {
                let (run, mailboxes, barrier, mins) = (&run, &mailboxes, &barrier, &mins);
                scope.spawn(move || {
                    let mut w = run.worker(t);
                    let mut inbox: Vec<Vec<Envelope<L::Event>>> = Vec::new();
                    // Per-destination outgoing chunk buffers plus a pool of
                    // spare (empty, capacity-carrying) chunk vectors.
                    let mut chunks: Vec<Vec<Envelope<L::Event>>> =
                        (0..n_threads).map(|_| Vec::new()).collect();
                    let mut spare_chunks: Vec<Vec<Envelope<L::Event>>> = Vec::new();
                    loop {
                        // (1) Ingest cross-partition events from the
                        // previous round, one chunk at a time.
                        mailboxes[t].drain_into(&mut inbox);
                        let mut drained = 0u64;
                        for mut chunk in inbox.drain(..) {
                            drained += chunk.len() as u64;
                            for env in chunk.drain(..) {
                                lane.queue.push(env);
                            }
                            if spare_chunks.len() < SPARE_CHUNKS_MAX {
                                spare_chunks.push(chunk);
                            }
                        }
                        w.drained(drained);
                        // Check for a violation or model panic here, in the
                        // quiescent interval between barriers: both are only
                        // ever raised while some thread is processing
                        // (between the two barriers below), so every worker
                        // reads the same frozen value and they all stop
                        // together. Checking after the barrier would race a
                        // fast worker's write against a slow worker's read
                        // and desynchronize the barrier counts (deadlock).
                        if run.halted() {
                            break;
                        }
                        // (2) Publish the local minimum, agree on gmin.
                        let local_min = lane.queue.peek_time().map(|ts| ts.0).unwrap_or(u64::MAX);
                        mins[t].store(local_min, Ordering::Relaxed);
                        // Barrier waits are timed unconditionally — the
                        // engine-bench stall comparison against the async
                        // scheduler needs them even with telemetry off.
                        let t0 = std::time::Instant::now();
                        barrier.wait();
                        w.stalled(t0);
                        let gmin = mins.iter().map(|m| m.load(Ordering::Relaxed)).min().unwrap();
                        if gmin == u64::MAX || gmin > until.0 {
                            break;
                        }
                        w.report.rounds += 1;
                        let window_end =
                            gmin.saturating_add(window.0).min(until.0.saturating_add(1));

                        // (3) Process local events in [gmin, window_end).
                        // Model panics are parked so this worker still
                        // reaches barrier (4) and the round protocol stays
                        // in lockstep; everyone stops at the next quiescent
                        // interval.
                        let t0 = w.clock();
                        run.catch(|| {
                            while let Some(top) = lane.queue.peek() {
                                if top.recv_time.0 >= window_end {
                                    break;
                                }
                                let env = lane.queue.pop().unwrap();
                                // gmin is a shared-memory GVT.
                                #[cfg(union_check)]
                                worker::assert_gvt_floor(&env, gmin);
                                let li = local_of[env.dst as usize] as usize;
                                let queue = &mut lane.queue;
                                let stepped =
                                    w.step(&mut lane.lps[li], &mut lane.metas[li], env, |new| {
                                        let o = owner_of[new.dst as usize] as usize;
                                        if o == t {
                                            queue.push(new);
                                            return Hop::Local;
                                        }
                                        let c = &mut chunks[o];
                                        c.push(new);
                                        if c.len() >= MAILBOX_CHUNK {
                                            let full = std::mem::replace(
                                                c,
                                                spare_chunks.pop().unwrap_or_default(),
                                            );
                                            mailboxes[o].push(full);
                                        }
                                        Hop::Remote
                                    });
                                if let Err(env) = stepped {
                                    lane.queue.push(env);
                                    break;
                                }
                            }
                        });
                        w.busy(t0);
                        // Live flush once per window: committed/remote
                        // deltas, window floor (leader), local queue depth.
                        if let Some(tp) = w.live() {
                            if t == 0 {
                                tp.round();
                                tp.gvt(gmin);
                            }
                            tp.queue_depth(lane.queue.len() as u64);
                            tp.flush();
                        }
                        // Flush partial chunks — unconditionally, even on a
                        // violation or model panic, so no buffered event is
                        // ever stranded in this worker's locals.
                        for (o, c) in chunks.iter_mut().enumerate() {
                            if !c.is_empty() {
                                let full =
                                    std::mem::replace(c, spare_chunks.pop().unwrap_or_default());
                                mailboxes[o].push(full);
                            }
                        }
                        // (4) All sends of this round must be visible
                        // before anyone's next mailbox drain.
                        let t0 = std::time::Instant::now();
                        barrier.wait();
                        w.stalled(t0);
                    }
                    run.retire(w, lane, Vec::new());
                });
            }
        });

        // Mailboxes are drained at the top of every round and the final
        // round performs no sends after its last drain, but be defensive.
        let stray = Mailbox::drain_all(&mailboxes).into_iter().flatten();
        let reports = run.reassemble(self, slots, stray);
        run.fold(self, reports)
    }
}

// These tests drive real multi-thread runs; under `union_check` the
// shimmed primitives require a model-checking context, so they only
// build in production cfg (the checked-build twin lives in
// `tests/union_check_oracle.rs`).
#[cfg(all(test, not(union_check)))]
mod tests {
    use super::*;
    use crate::{Ctx, Partition, Scheduler};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[derive(Clone)]
    struct Phold {
        rng: SmallRng,
        n_lps: u32,
        hits: u64,
        checksum: u64,
        horizon: SimTime,
    }

    impl Lp for Phold {
        type Event = u64;
        fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            self.hits += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(6364136223846793005)
                .wrapping_add(ev.payload ^ ev.recv_time.as_ns());
            if ctx.now() < self.horizon {
                let dst = self.rng.gen_range(0..self.n_lps);
                let delay = SimDuration::from_ns(self.rng.gen_range(50..500));
                ctx.send(dst, delay, self.checksum);
            }
        }
    }

    /// PHOLD whose minimum send delay (50 ns) is far above the declared
    /// engine lookahead (1 ns) — the case wide windows exist for.
    fn phold_sim(n_lps: u32, seeds: u64) -> Simulation<Phold> {
        let lps = (0..n_lps)
            .map(|i| Phold {
                rng: SmallRng::seed_from_u64(seeds + i as u64),
                n_lps,
                hits: 0,
                checksum: 0,
                horizon: SimTime::from_us(100),
            })
            .collect();
        let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
        for i in 0..n_lps {
            sim.schedule(i, SimTime::from_ns(i as u64 % 7), i as u64);
        }
        sim
    }

    fn fingerprint(sim: &Simulation<Phold>) -> Vec<(u64, u64)> {
        sim.lps().iter().map(|l| (l.hits, l.checksum)).collect()
    }

    #[test]
    fn matches_sequential_bit_for_bit() {
        let mut a = phold_sim(16, 21);
        let sa = a.run_sequential(SimTime::MAX);
        for threads in [2usize, 3, 4] {
            // Windows up to the model's true minimum delay (50 ns).
            for window_ns in [1u64, 25, 50] {
                let mut b = phold_sim(16, 21);
                let sb = b.run_conservative_parallel(
                    threads,
                    SimDuration::from_ns(window_ns),
                    SimTime::MAX,
                );
                assert_eq!(sa.committed, sb.committed, "t={threads} w={window_ns}");
                assert_eq!(fingerprint(&a), fingerprint(&b), "t={threads} w={window_ns}");
            }
        }
    }

    #[test]
    fn wide_windows_use_fewer_rounds() {
        let mut narrow = phold_sim(16, 5);
        let mut wide = phold_sim(16, 5);
        let sn = narrow.run_conservative_parallel(2, SimDuration::from_ns(1), SimTime::MAX);
        let sw = wide.run_conservative_parallel(2, SimDuration::from_ns(50), SimTime::MAX);
        assert_eq!(fingerprint(&narrow), fingerprint(&wide));
        assert!(
            sw.rounds < sn.rounds,
            "50 ns windows ({} rounds) should beat 1 ns windows ({} rounds)",
            sw.rounds,
            sn.rounds
        );
    }

    #[test]
    fn custom_partition_preserves_results() {
        let mut a = phold_sim(12, 9);
        let sa = a.run_sequential(SimTime::MAX);
        let mut b = phold_sim(12, 9);
        // Deliberately lopsided, non-contiguous blocks.
        b.set_partition(Partition::from_blocks(vec![5, 1, 5, 1, 5, 1, 9, 9, 5, 1, 9, 5]));
        let sb = b.run_conservative_parallel(3, SimDuration::from_ns(50), SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn until_bound_pauses_and_resumes() {
        let mut a = phold_sim(8, 13);
        let mut b = phold_sim(8, 13);
        a.run_sequential(SimTime::MAX);
        b.run_conservative_parallel(3, SimDuration::from_ns(50), SimTime::from_us(40));
        assert!(b.pending_events() > 0);
        // Finish with a different scheduler — state must be seamless.
        b.run_sequential(SimTime::MAX);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn counts_remote_events() {
        let mut sim = phold_sim(16, 2);
        let stats = sim.run_conservative_parallel(4, SimDuration::from_ns(50), SimTime::MAX);
        assert!(stats.remote_events > 0, "PHOLD traffic must cross partitions");
        assert!(stats.remote_events <= stats.committed + sim.pending_events() as u64);
    }

    #[test]
    fn scheduler_enum_dispatches_parallel() {
        let mut a = phold_sim(8, 31);
        let sa = Scheduler::Sequential.run(&mut a, SimTime::MAX);
        let mut b = phold_sim(8, 31);
        let sched =
            Scheduler::ConservativeParallel { threads: 4, lookahead: SimDuration::from_ns(50) };
        let sb = sched.run(&mut b, SimTime::MAX);
        assert_eq!(sa.committed, sb.committed);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    /// Ring-forwarding LP that panics once simulated time passes `boom_at`.
    #[derive(Clone)]
    struct PanickyRing {
        n_lps: u32,
        boom_at: SimTime,
        horizon: SimTime,
    }

    impl Lp for PanickyRing {
        type Event = u64;
        fn handle(&mut self, ev: &Envelope<u64>, ctx: &mut Ctx<'_, u64>) {
            if ev.recv_time >= self.boom_at {
                panic!("model LP blew up at {} ns", ev.recv_time.0);
            }
            if ctx.now() < self.horizon {
                let dst = (ev.dst + 1) % self.n_lps;
                ctx.send(dst, SimDuration::from_ns(50), ev.payload + 1);
            }
        }
    }

    /// Regression for the worker-panic → barrier-deadlock hazard: a panic
    /// in model code must resurface on the caller (original payload, so
    /// `expected` below matches) instead of leaving the sibling workers
    /// parked on the round barrier forever.
    #[test]
    #[should_panic(expected = "model LP blew up")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let n_lps = 8u32;
        let lps = (0..n_lps)
            .map(|_| PanickyRing {
                n_lps,
                boom_at: SimTime::from_us(10),
                horizon: SimTime::from_us(100),
            })
            .collect();
        let mut sim = Simulation::new(lps, SimDuration::from_ns(1));
        for i in 0..n_lps {
            sim.schedule(i, SimTime::from_ns(i as u64), i as u64);
        }
        sim.run_conservative_parallel(4, SimDuration::from_ns(50), SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn oversized_window_is_caught() {
        // Window far beyond the model's 50 ns minimum delay: the hard
        // causality check must fire rather than silently corrupt.
        let mut sim = phold_sim(16, 77);
        sim.run_conservative_parallel(4, SimDuration::from_us(10), SimTime::MAX);
    }
}
