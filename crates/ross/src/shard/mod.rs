//! Process-level sharding: one simulation across N OS processes.
//!
//! Each *shard* owns a subset of the LPs (chosen by the same
//! [`Partition`] bin-packer the in-process schedulers use, applied at
//! the shard level first and then again across each shard's worker
//! threads). Within a shard, [`Simulation::run_sharded`] runs the
//! conservative-parallel round protocol of [`crate::parallel`]
//! unchanged above the transport: workers exchange intra-shard events
//! through lock-free mailboxes, while cross-shard events are buffered
//! into per-peer outboxes and flushed by a *leader* (the spawning
//! thread) through a [`ShardTransport`].
//!
//! ## Distributed GVT
//!
//! The single-process barrier fence is replaced only at the top level:
//! between rounds, the leaders run a Mattern-style token reduction.
//! Shard 0 circulates a [`Token`] carrying the running minimum pending
//! timestamp and the Σ(sent − received) in-transit count; waves repeat
//! until the count is zero, at which point every cross-shard event has
//! been absorbed and the minimum is the true GVT, which shard 0
//! broadcasts. Mattern's white/red coloring collapses to an epoch tag
//! on event frames because no sends ever happen *during* a fence — a
//! frame tagged with a stale epoch is therefore a protocol violation
//! rather than a color to wait out, and the transport asserts it.
//!
//! ## Checkpoint/restart
//!
//! A fence is a consistent cut: nothing is in flight and every LP sits
//! at the fence GVT. On checkpoint rounds each worker serializes its
//! LPs and pending events (via a model-supplied [`ShardCodec`]), the
//! leaders funnel the per-shard sections to shard 0, and shard 0
//! writes one versioned, checksummed file atomically
//! ([`checkpoint`]). A restoring process rebuilds the simulation
//! exactly as the original launch did, then overwrites its owned LPs
//! and pending events from its section of the file.
//!
//! Determinism: the round/window structure is identical to
//! [`crate::parallel`] (window ≤ the model's true minimum delay,
//! enforced by the same hard causality check), so for a fixed seed the
//! merged LP state is bit-identical to `run_sequential` for any shard
//! and thread count.

pub mod checkpoint;
pub mod transport;
pub mod wire;

pub use checkpoint::{ShardCodec, Snapshot, SnapshotMeta};
pub use transport::{
    loopback_mesh, EventCodec, Frame, LoopbackTransport, ShardTransport, TcpTransport, Token,
};

use crate::engine::{RunStats, Simulation};
use crate::event::Envelope;
use crate::lp::{Lp, LpMeta};
use crate::mailbox::Mailbox;
use crate::partition::Partition;
use crate::queue::EventQueue;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{thread, Barrier, Mutex};
use crate::time::{SimDuration, SimTime};
use crate::worker::{self, Hop, Run};
use checkpoint::LpSnapshot;
use std::fmt;
use std::path::PathBuf;

/// Upper bound on events per `Frame::Events`: a burst window is shipped as
/// several bounded frames (serialized, sent and ingested incrementally)
/// rather than one giant allocation on both ends of the transport.
const MAX_FRAME_EVENTS: usize = 256;

/// Errors a sharded run can surface (transport failures, malformed
/// checkpoint files, protocol violations between shards).
#[derive(Debug)]
pub enum ShardError {
    Io(std::io::Error),
    /// Malformed bytes: bad frame, truncated or corrupt checkpoint.
    Format(String),
    /// The shards disagree about the protocol state (stale epoch,
    /// unexpected frame, mismatched mesh).
    Protocol(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard I/O error: {e}"),
            ShardError::Format(m) => write!(f, "shard format error: {m}"),
            ShardError::Protocol(m) => write!(f, "shard protocol error: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Periodic checkpointing: write the fence snapshot to `path` whenever
/// the GVT has advanced `every` past the previous checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    pub path: PathBuf,
    pub every: SimDuration,
}

/// Options for one [`Simulation::run_sharded`] call. Every shard of a
/// run must pass identical options (the harness launcher guarantees
/// this by re-execing the same argv).
pub struct ShardRun<'a, L: Lp> {
    /// Worker threads within this shard.
    pub threads: usize,
    /// Synchronization window (clamped up to the engine lookahead);
    /// must not exceed the model's true minimum send delay.
    pub window: SimDuration,
    /// Periodic checkpointing (requires `codec`).
    pub checkpoint: Option<CheckpointSpec>,
    /// Restore from this checkpoint file before running (requires
    /// `codec`).
    pub restore: Option<PathBuf>,
    /// Model state/payload codec; only needed for checkpoint/restore
    /// (the loopback transport passes events by value).
    pub codec: Option<&'a dyn ShardCodec<L>>,
    /// Called with the cut's GVT (ns) after each checkpoint round
    /// completes on this shard: on shard 0 once the file is durably on
    /// disk, on other shards once shard 0 acknowledged their section.
    /// The harness fault-injection hook lives here.
    pub on_checkpoint: Option<&'a (dyn Fn(u64) + Sync)>,
}

impl<'a, L: Lp> ShardRun<'a, L> {
    /// Plain sharded run: no checkpointing, no restore.
    pub fn new(threads: usize, window: SimDuration) -> Self {
        ShardRun {
            threads,
            window,
            checkpoint: None,
            restore: None,
            codec: None,
            on_checkpoint: None,
        }
    }
}

/// Which shard owns each LP: the same deterministic bin-packing of
/// partition blocks the in-process parallel scheduler uses, applied at
/// the shard level. `partition = None` means every LP is its own block.
pub fn shard_owner_map(partition: Option<&Partition>, n_lps: usize, n_shards: usize) -> Vec<u32> {
    worker::packing(partition, n_lps).assign(n_shards).owner_of
}

impl<L: Lp> Simulation<L> {
    /// Run this shard's slice of the simulation, coordinating with the
    /// other shards through `transport`. Every participating process
    /// must have built an identical simulation (same LPs, seeds,
    /// partition and initial events) and pass identical options; each
    /// keeps only the LPs the shard-level partition assigns to it.
    ///
    /// After the call returns, **only the owned LPs' state is
    /// meaningful** — foreign LPs still hold their initial state. The
    /// caller merges owned slices across shards (the harness does this
    /// with per-LP fingerprints; in-process tests adopt LP state from
    /// each shard's simulation).
    ///
    /// Panics on a lookahead violation (same hard causality check as
    /// [`Simulation::run_conservative_parallel`]) or with the payload of a
    /// panic in model code; returns `Err` on transport or checkpoint
    /// failures.
    pub fn run_sharded(
        &mut self,
        transport: &mut dyn ShardTransport<L::Event>,
        opts: ShardRun<'_, L>,
        until: SimTime,
    ) -> Result<RunStats, ShardError> {
        let start = std::time::Instant::now();
        let me = transport.me();
        let n_shards = transport.n_shards();
        let n_lps = self.lps.len();
        let window = opts.window.max(self.lookahead);
        if (opts.checkpoint.is_some() || opts.restore.is_some()) && opts.codec.is_none() {
            return Err(ShardError::Protocol(
                "checkpoint/restore requires a ShardCodec for this model".to_string(),
            ));
        }
        // A single shard with no checkpoint/restore has no cross-process
        // protocol to run, so the in-process thread pool IS the whole
        // simulation — delegate to the barrier-free async scheduler
        // (bit-identical results, no token fences, work stealing; see
        // DESIGN.md §15) instead of spinning the shard rounds against
        // zero peers.
        if n_shards == 1 && opts.checkpoint.is_none() && opts.restore.is_none() {
            return Ok(self.run_conservative_async(opts.threads, window, until));
        }

        // Shard-level ownership, then worker-level ownership within the
        // owned slice (both from the same deterministic bin-packer).
        let shard_of = shard_owner_map(self.partition.as_ref(), n_lps, n_shards);
        let owned: Vec<u32> =
            (0..n_lps as u32).filter(|&g| shard_of[g as usize] == me as u32).collect();
        let wassign =
            worker::packing(self.partition.as_ref(), n_lps).assign_among(&owned, opts.threads);
        let (worker_of, wlocal_of) = (&wassign.owner_of, &wassign.local_of);
        let n_threads = wassign.locals.len();

        // Restore: overwrite owned LP state/meta and replace pending
        // events with this shard's section of the cut.
        let mut committed_base = 0u64;
        if let Some(path) = &opts.restore {
            let codec = opts.codec.unwrap();
            let bytes = checkpoint::read_file(path)?;
            let (meta, raw_sections) = checkpoint::parse_file(&bytes)?;
            if meta.n_shards as usize != n_shards {
                return Err(ShardError::Format(format!(
                    "checkpoint {} was taken with {} shards, cannot restore into {}: shard \
                     rebalancing from a checkpoint is not implemented yet (ROADMAP item 2) — \
                     relaunch with the original shard count (--sched shard:{}:T:L)",
                    path.display(),
                    meta.n_shards,
                    n_shards,
                    meta.n_shards
                )));
            }
            if meta.n_lps as usize != n_lps {
                return Err(ShardError::Format(format!(
                    "checkpoint covers {} LPs but the model has {}",
                    meta.n_lps, n_lps
                )));
            }
            committed_base = meta.committed;
            let mine = raw_sections
                .iter()
                .map(|s| checkpoint::decode_section(s, codec.as_event_codec()))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .find(|s| s.shard as usize == me)
                .ok_or_else(|| {
                    ShardError::Format(format!("checkpoint has no section for shard {me}"))
                })?;
            for snap in &mine.lps {
                let gid = snap.gid as usize;
                if gid >= n_lps || worker_of[gid] == u32::MAX {
                    return Err(ShardError::Format(format!(
                        "checkpoint LP {} is not owned by shard {me} (partition mismatch)",
                        snap.gid
                    )));
                }
                self.meta[gid] = LpMeta {
                    tiebreak: snap.tiebreak,
                    uid_seq: snap.uid_seq,
                    now: SimTime(snap.now_ns),
                    processed: snap.processed,
                };
                let mut r = wire::ByteReader::new(&snap.state);
                codec.load_lp(&mut self.lps[gid], &mut r)?;
            }
            // The pre-run initial events are part of the history the
            // checkpoint already includes; drop them.
            self.pending = self.queue.new_queue();
            for env in mine.events {
                self.pending.push(env);
            }
        }

        // Move owned LP state and pending events into per-worker lanes
        // (every process built the full initial event set identically;
        // the split keeps only owned destinations). Foreign LPs stay in
        // their slots untouched.
        let run = Run::open(self, "sharded-conservative", n_threads, window, start, false);
        let (lanes, slots) = worker::split(self, &wassign.locals, worker_of);

        // Shared round state.
        let mailboxes: Vec<Mailbox<Envelope<L::Event>>> =
            (0..n_threads).map(|_| Mailbox::new()).collect();
        let barrier = Barrier::new(n_threads + 1); // workers + leader
        let mins: Vec<AtomicU64> = (0..n_threads).map(|_| AtomicU64::new(u64::MAX)).collect();
        let outboxes: Vec<Mutex<Vec<Envelope<L::Event>>>> =
            (0..n_shards).map(|_| Mutex::new(Vec::new())).collect();
        let wend_a = AtomicU64::new(0);
        let done_a = AtomicBool::new(false);
        let ckpt_a = AtomicBool::new(false);
        // Read by the leader at every fence: the checkpoint metadata needs
        // the committed count at the cut.
        let committed = AtomicU64::new(0);
        // Oracle (checked builds): the leader publishes each fence's GVT
        // so workers can assert no event from its past is ever processed.
        // A plain std atomic on purpose — invisible to the controlled
        // scheduler; barrier (C) provides the ordering.
        #[cfg(union_check)]
        let gvt_oracle = std::sync::atomic::AtomicU64::new(0);
        let codec = opts.codec;
        let ckpt_on = opts.checkpoint.is_some();

        // Per-worker checkpoint staging areas.
        let ckpt_parts: Vec<CkptPart<L::Event>> =
            (0..n_threads).map(|_| Mutex::new(None)).collect();

        let mut fence_err: Option<ShardError> = None;
        let mut next_ckpt =
            opts.checkpoint.as_ref().map(|c| c.every.as_ns().max(1)).unwrap_or(u64::MAX);
        // A restored run resumes its checkpoint cadence from the cut.
        if opts.restore.is_some() && ckpt_on {
            // next_ckpt is recomputed from the first fence GVT below.
            next_ckpt = 0;
        }

        thread::scope(|scope| {
            for (t, mut lane) in lanes.into_iter().enumerate() {
                let (run, shard_of) = (&run, &shard_of);
                let (mailboxes, outboxes, barrier, mins) = (&mailboxes, &outboxes, &barrier, &mins);
                let (wend_a, done_a, ckpt_a) = (&wend_a, &done_a, &ckpt_a);
                let (committed, ckpt_parts) = (&committed, &ckpt_parts);
                #[cfg(union_check)]
                let gvt_oracle = &gvt_oracle;
                scope.spawn(move || {
                    let mut w = run.worker(t);
                    let mut inbox: Vec<Envelope<L::Event>> = Vec::new();
                    // Per-destination-shard chunk buffers: cross-shard
                    // sends take the outbox lock once per chunk, not once
                    // per event (`append` leaves the buffer empty with its
                    // capacity intact, so this allocates nothing in steady
                    // state).
                    let mut xchunks: Vec<Vec<Envelope<L::Event>>> =
                        (0..n_shards).map(|_| Vec::new()).collect();
                    loop {
                        // (A) Round start. The previous window's
                        // intra-shard sends are all in mailboxes.
                        barrier.wait();
                        mailboxes[t].drain_into(&mut inbox);
                        w.drained(inbox.len() as u64);
                        for env in inbox.drain(..) {
                            lane.queue.push(env);
                        }
                        // Quiescent interval: violations and model panics
                        // are only ever raised during processing, so every
                        // worker reads the same frozen value here (see
                        // crate::parallel for why this placement).
                        let halted = run.halted();
                        let local_min = lane.queue.peek_time().map(|ts| ts.0).unwrap_or(u64::MAX);
                        mins[t].store(local_min, Ordering::Relaxed);
                        // (B) Leader flushes outboxes and runs the
                        // token fence while workers wait.
                        let t0 = w.clock();
                        barrier.wait();
                        // (C) gvt/wend/done/ckpt published.
                        barrier.wait();
                        if let Some(t0) = t0 {
                            w.report.thread.blocked_ns += t0.elapsed().as_nanos() as u64;
                        }
                        // Cross-shard fence arrivals.
                        mailboxes[t].drain_into(&mut inbox);
                        w.drained(inbox.len() as u64);
                        for env in inbox.drain(..) {
                            lane.queue.push(env);
                        }
                        if ckpt_a.load(Ordering::Acquire) {
                            // Serialize this worker's slice of the cut.
                            let codec = codec.unwrap();
                            let mut lp_snaps = Vec::with_capacity(lane.lps.len());
                            for ((&gid, lp), m) in lane.gids.iter().zip(&lane.lps).zip(&lane.metas)
                            {
                                let mut state = Vec::new();
                                codec.save_lp(lp, &mut state);
                                lp_snaps.push(LpSnapshot {
                                    gid,
                                    tiebreak: m.tiebreak,
                                    uid_seq: m.uid_seq,
                                    now_ns: m.now.0,
                                    processed: m.processed,
                                    state,
                                });
                            }
                            let mut evs: Vec<Envelope<L::Event>> = Vec::new();
                            lane.queue.drain_to(&mut evs);
                            for env in &evs {
                                lane.queue.push(env.clone());
                            }
                            *ckpt_parts[t].lock() = Some((lp_snaps, evs));
                            barrier.wait(); // (C2) parts staged
                            barrier.wait(); // (C3) leader wrote/acked
                        }
                        if done_a.load(Ordering::Acquire) {
                            break;
                        }
                        w.report.rounds += 1;
                        if halted {
                            continue; // wind down without processing
                        }
                        let wend = wend_a.load(Ordering::Acquire);

                        // Process local events in [gvt, wend).
                        let t0 = w.clock();
                        let before = w.report.committed;
                        run.catch(|| {
                            while let Some(top) = lane.queue.peek() {
                                if top.recv_time.0 >= wend {
                                    break;
                                }
                                let env = lane.queue.pop().unwrap();
                                #[cfg(union_check)]
                                worker::assert_gvt_floor(
                                    &env,
                                    gvt_oracle.load(std::sync::atomic::Ordering::Relaxed),
                                );
                                let li = wlocal_of[env.dst as usize] as usize;
                                let queue = &mut lane.queue;
                                let stepped =
                                    w.step(&mut lane.lps[li], &mut lane.metas[li], env, |new| {
                                        let s = shard_of[new.dst as usize] as usize;
                                        if s != me {
                                            let c = &mut xchunks[s];
                                            c.push(new);
                                            if c.len() >= crate::parallel::MAILBOX_CHUNK {
                                                outboxes[s].lock().append(c);
                                            }
                                            return Hop::Shard;
                                        }
                                        let wk = worker_of[new.dst as usize] as usize;
                                        if wk == t {
                                            queue.push(new);
                                            Hop::Local
                                        } else {
                                            mailboxes[wk].push(new);
                                            Hop::Remote
                                        }
                                    });
                                if let Err(env) = stepped {
                                    lane.queue.push(env);
                                    break;
                                }
                            }
                        });
                        w.busy(t0);
                        // Flush partial cross-shard chunks: the leader
                        // reads the outboxes after barrier (B) of the next
                        // round, so nothing may linger in worker locals.
                        for (s, c) in xchunks.iter_mut().enumerate() {
                            if !c.is_empty() {
                                outboxes[s].lock().append(c);
                            }
                        }
                        // Visible to the leader before the next fence
                        // (barrier A orders it).
                        committed.fetch_add(w.report.committed - before, Ordering::Relaxed);
                        if let Some(tp) = w.live() {
                            tp.queue_depth(lane.queue.len() as u64);
                            tp.flush();
                        }
                    }
                    run.retire(w, lane, Vec::new());
                });
            }

            // ------------------------------------------------------- leader
            let mut leader_tap = run.tap(0);
            let mut epoch = 0u64;
            let mut sent_total = 0u64;
            let mut recv_total = 0u64;
            // Next-epoch frames that raced ahead of a fence conclusion;
            // replayed by the next fence (see `token_fence`).
            let mut stash: Vec<(usize, Frame<L::Event>)> = Vec::new();
            loop {
                barrier.wait(); // (A)
                barrier.wait(); // (B) worker mins published
                let shipped = ship_outboxes(transport, &outboxes, epoch, &mut sent_total);
                let local_min = if run.halted() {
                    u64::MAX
                } else {
                    mins.iter().map(|m| m.load(Ordering::Relaxed)).min().unwrap_or(u64::MAX)
                };
                let local_committed = committed.load(Ordering::Relaxed) + committed_base;
                let fence = shipped.and_then(|()| {
                    token_fence(
                        transport,
                        epoch,
                        local_min,
                        sent_total,
                        &mut recv_total,
                        local_committed,
                        &mut stash,
                        |env| {
                            let w = worker_of[env.dst as usize];
                            debug_assert_ne!(
                                w,
                                u32::MAX,
                                "fence delivery for foreign LP {}",
                                env.dst
                            );
                            mailboxes[w as usize].push(env);
                        },
                    )
                });
                let (gvt, global_committed) = match fence {
                    Ok(v) => v,
                    Err(e) => {
                        fence_err = Some(e);
                        ckpt_a.store(false, Ordering::Release);
                        done_a.store(true, Ordering::Release);
                        barrier.wait(); // (C)
                        break;
                    }
                };
                // A halted (causality-violated) shard keeps fencing with
                // min = MAX so the other shards can drain and terminate;
                // it panics with the violation after the run winds down.
                let done = gvt == u64::MAX || gvt > until.0;
                let wend = gvt.saturating_add(window.0).min(until.0.saturating_add(1));
                if ckpt_on && next_ckpt == 0 {
                    // First fence of a restored run: resume the cadence
                    // one interval past the restored cut.
                    next_ckpt =
                        gvt.saturating_add(opts.checkpoint.as_ref().unwrap().every.as_ns().max(1));
                }
                let do_ckpt = !done && ckpt_on && gvt >= next_ckpt;
                #[cfg(union_check)]
                if gvt != u64::MAX {
                    gvt_oracle.store(gvt, std::sync::atomic::Ordering::Relaxed);
                }
                wend_a.store(wend, Ordering::Release);
                done_a.store(done, Ordering::Release);
                ckpt_a.store(do_ckpt, Ordering::Release);
                if let Some(tp) = leader_tap.as_mut() {
                    if gvt != u64::MAX {
                        tp.gvt(gvt);
                    }
                    if !done {
                        tp.round();
                    }
                    tp.flush();
                }
                barrier.wait(); // (C)
                if do_ckpt {
                    barrier.wait(); // (C2) workers staged their parts
                    let spec = opts.checkpoint.as_ref().unwrap();
                    let r = write_checkpoint(
                        transport,
                        spec,
                        codec.unwrap().as_event_codec(),
                        &ckpt_parts,
                        &mut stash,
                        SnapshotMeta {
                            gvt_ns: gvt,
                            epoch,
                            n_shards: n_shards as u32,
                            n_lps: n_lps as u32,
                            committed: global_committed,
                        },
                    );
                    next_ckpt = gvt.saturating_add(spec.every.as_ns().max(1));
                    barrier.wait(); // (C3)
                    if r.is_ok() {
                        if let Some(cb) = opts.on_checkpoint {
                            cb(gvt);
                        }
                    }
                    if let Err(e) = r {
                        // Latch the error and let the run finish; the
                        // barrier discipline has already moved past the
                        // point where this round could stop cleanly.
                        if fence_err.is_none() {
                            fence_err = Some(e);
                        }
                    }
                }
                if done {
                    break;
                }
                epoch += 1;
            }
        });

        // Owned LPs go back into their slots (foreign ones kept their
        // initial state); unprocessed events stay pending for a later leg.
        let reports = run.reassemble(self, slots, Mailbox::drain_all(&mailboxes));
        if let Some(e) = fence_err {
            return Err(e);
        }
        Ok(run.fold(self, reports))
    }
}

/// Ship the cross-shard outboxes the workers filled in the previous
/// window as `Events` frames of the current epoch. A burst window goes
/// out as several bounded frames instead of one giant serialization —
/// the fence stashes and classifies each individually.
fn ship_outboxes<E: Clone + Send>(
    transport: &mut dyn ShardTransport<E>,
    outboxes: &[Mutex<Vec<Envelope<E>>>],
    epoch: u64,
    sent_total: &mut u64,
) -> Result<(), ShardError> {
    for (s, ob) in outboxes.iter().enumerate() {
        if s == transport.me() {
            continue;
        }
        let mut batch = std::mem::take(&mut *ob.lock());
        *sent_total += batch.len() as u64;
        while !batch.is_empty() {
            let rest = batch.split_off(batch.len().min(MAX_FRAME_EVENTS));
            let frame = std::mem::replace(&mut batch, rest);
            transport.send(s, Frame::Events { epoch, batch: frame })?;
        }
    }
    Ok(())
}

/// One worker's staged checkpoint contribution: snapshots of its owned
/// LPs plus their pending events, parked for the leader to assemble.
type CkptPart<E> = Mutex<Option<(Vec<LpSnapshot>, Vec<Envelope<E>>)>>;

/// Assemble this shard's checkpoint section from the staged worker
/// parts and get it onto disk: shard 0 collects every section and
/// writes the file atomically; other shards send their section as a
/// [`Frame::Blob`] and block for the [`Frame::CkptDone`] ack. Runs in
/// the quiescent interval after a fence, so the only frames legal on
/// the wire are blobs and acks.
fn write_checkpoint<E: Clone + Send>(
    transport: &mut dyn ShardTransport<E>,
    spec: &CheckpointSpec,
    codec: &dyn EventCodec<E>,
    parts: &[CkptPart<E>],
    stash: &mut Vec<(usize, Frame<E>)>,
    meta: SnapshotMeta,
) -> Result<(), ShardError> {
    let me = transport.me();
    let n = transport.n_shards();
    let mut lps = Vec::new();
    let mut events = Vec::new();
    for p in parts {
        let (l, e) = p.lock().take().expect("worker did not stage checkpoint part");
        lps.extend(l);
        events.extend(e);
    }
    // Canonical order: identical cuts produce identical bytes.
    lps.sort_by_key(|s| s.gid);
    events.sort();
    let section = checkpoint::ShardSection { shard: me as u32, lps, events };
    let bytes = checkpoint::encode_section(&section, codec);

    if me == 0 {
        let mut sections: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
        sections[0] = Some(bytes);
        for _ in 1..n {
            match transport.recv()? {
                (from, Frame::Blob(b)) => {
                    if from >= n || sections[from].is_some() {
                        return Err(ShardError::Protocol(format!(
                            "duplicate checkpoint section from shard {from}"
                        )));
                    }
                    sections[from] = Some(b);
                }
                (from, other) => {
                    return Err(ShardError::Protocol(format!(
                        "expected checkpoint blob from shard {from}, got {other:?}"
                    )));
                }
            }
        }
        let sections: Vec<Vec<u8>> = sections.into_iter().map(|s| s.unwrap()).collect();
        let file = checkpoint::assemble_file(&meta, &sections);
        let write = checkpoint::write_atomic(&spec.path, &file);
        let ok = write.is_ok();
        for j in 1..n {
            transport.send(j, Frame::CkptDone { ok })?;
        }
        write.map_err(ShardError::Io)
    } else {
        transport.send(0, Frame::Blob(bytes))?;
        loop {
            match transport.recv()? {
                (0, Frame::CkptDone { ok: true }) => return Ok(()),
                (0, Frame::CkptDone { ok: false }) => {
                    return Err(ShardError::Io(std::io::Error::other(
                        "shard 0 failed to write checkpoint",
                    )));
                }
                // A peer that already got its ack can race into the
                // next round and send us next-epoch traffic before our
                // own ack is dequeued; stash it for the next fence.
                (from, Frame::Events { epoch, batch }) => {
                    if classify_epoch(epoch, meta.epoch)? {
                        return Err(ShardError::Protocol(format!(
                            "current-epoch events from shard {from} while awaiting checkpoint ack"
                        )));
                    }
                    stash.push((from, Frame::Events { epoch, batch }));
                }
                (from, Frame::Token(t)) => {
                    if classify_epoch(t.epoch, meta.epoch)? {
                        return Err(ShardError::Protocol(format!(
                            "current-epoch token from shard {from} while awaiting checkpoint ack"
                        )));
                    }
                    stash.push((from, Frame::Token(t)));
                }
                (from, other) => {
                    return Err(ShardError::Protocol(format!(
                        "expected checkpoint ack from shard 0, got {other:?} from {from}"
                    )));
                }
            }
        }
    }
}

/// Frame epoch relative to the fence in progress.
fn classify_epoch(frame_epoch: u64, fence_epoch: u64) -> Result<bool, ShardError> {
    if frame_epoch == fence_epoch {
        Ok(true)
    } else if frame_epoch == fence_epoch + 1 {
        // Causally legal early arrival: a peer can only be one round
        // ahead, and only after this fence's outcome (the Gvt broadcast
        // or the checkpoint ack) was already issued — our copy just has
        // not been dequeued yet. Stash it for the next fence.
        Ok(false)
    } else {
        Err(ShardError::Protocol(format!(
            "frame from epoch {frame_epoch} arrived during fence of epoch {fence_epoch}"
        )))
    }
}

/// One Mattern-style token fence. Returns the agreed GVT and (on
/// shard 0 only) the global committed-event count; other shards get 0
/// for the count. Events arriving during the fence are delivered
/// through `deliver` and folded into the local minimum. `stash` holds
/// next-epoch frames that raced ahead of this fence's conclusion; they
/// are replayed at the start of the next fence.
#[allow(clippy::too_many_arguments)]
fn token_fence<E: Clone + Send>(
    transport: &mut dyn ShardTransport<E>,
    epoch: u64,
    mut local_min: u64,
    sent_total: u64,
    recv_total: &mut u64,
    local_committed: u64,
    stash: &mut Vec<(usize, Frame<E>)>,
    mut deliver: impl FnMut(Envelope<E>),
) -> Result<(u64, u64), ShardError> {
    let me = transport.me();
    let n = transport.n_shards();
    if n == 1 {
        return Ok((local_min, local_committed));
    }
    // Frames stashed during the previous fence all belong to this one.
    let mut replay: std::collections::VecDeque<(usize, Frame<E>)> = std::mem::take(stash).into();
    let mut absorb = |batch: Vec<Envelope<E>>, local_min: &mut u64, recv_total: &mut u64| {
        for env in batch {
            *local_min = (*local_min).min(env.recv_time.0);
            *recv_total += 1;
            deliver(env);
        }
    };

    if me == 0 {
        let mut wave = 0u32;
        loop {
            transport.send(
                1,
                Frame::Token(Token {
                    min: local_min,
                    in_flight: sent_total as i64 - *recv_total as i64,
                    committed: local_committed,
                    wave,
                    epoch,
                }),
            )?;
            let complete = loop {
                let (from, frame) = match replay.pop_front() {
                    Some(f) => f,
                    None => transport.recv()?,
                };
                match frame {
                    Frame::Events { epoch: e, batch } => {
                        if classify_epoch(e, epoch)? {
                            absorb(batch, &mut local_min, recv_total);
                        } else {
                            stash.push((from, Frame::Events { epoch: e, batch }));
                        }
                    }
                    Frame::Token(t) => {
                        if !classify_epoch(t.epoch, epoch)? {
                            stash.push((from, Frame::Token(t)));
                            continue;
                        }
                        // in_flight == 0 means every shard had absorbed
                        // everything sent before its token visit, so
                        // t.min is complete. Otherwise retry the wave
                        // with refreshed counters.
                        break if t.in_flight == 0 { Some(t) } else { None };
                    }
                    other => {
                        return Err(ShardError::Protocol(format!(
                            "unexpected {other:?} from shard {from} during fence"
                        )));
                    }
                }
            };
            match complete {
                Some(t) => {
                    for j in 1..n {
                        transport.send(j, Frame::Gvt { gvt: t.min })?;
                    }
                    return Ok((t.min, t.committed));
                }
                None => wave += 1,
            }
        }
    } else {
        loop {
            let (from, frame) = match replay.pop_front() {
                Some(f) => f,
                None => transport.recv()?,
            };
            match frame {
                Frame::Events { epoch: e, batch } => {
                    if classify_epoch(e, epoch)? {
                        absorb(batch, &mut local_min, recv_total);
                    } else {
                        stash.push((from, Frame::Events { epoch: e, batch }));
                    }
                }
                Frame::Token(mut t) => {
                    if !classify_epoch(t.epoch, epoch)? {
                        stash.push((from, Frame::Token(t)));
                        continue;
                    }
                    t.min = t.min.min(local_min);
                    t.in_flight += sent_total as i64 - *recv_total as i64;
                    t.committed += local_committed;
                    transport.send((me + 1) % n, Frame::Token(t))?;
                }
                // A Gvt can only belong to the fence in progress: the
                // next one requires the token to visit us first.
                Frame::Gvt { gvt } => return Ok((gvt, 0)),
                other => {
                    return Err(ShardError::Protocol(format!(
                        "unexpected {other:?} from shard {from} during fence"
                    )));
                }
            }
        }
    }
}

impl<L: Lp> dyn ShardCodec<L> + '_ {
    /// Upcast to the event-payload half of the codec.
    pub fn as_event_codec(&self) -> &dyn EventCodec<L::Event> {
        self
    }
}

// Real multi-thread runs — production cfg only (the checked-build twin
// lives in `tests/union_check_oracle.rs`).
#[cfg(all(test, not(union_check)))]
mod tests;
