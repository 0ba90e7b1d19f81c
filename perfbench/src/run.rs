//! One simulation of a workload, timed layer by layer: in-process through
//! `workloads` → `codes::SimulationBuilder` → `CodesSim::run`, or as a
//! `union-exp mix` shard gang.

use crate::spec::{Spec, SHARDS};
use metrics::{AppLatencySummary, Boxplot};
use ross::{RunStats, Scheduler, SimTime, Tracer};
use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// What every run is checked on: the sequential reference's final state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub fingerprint: u64,
    pub committed: u64,
}

/// The correctness gate: a run passes only if it finished cleanly and
/// reproduced the reference's fingerprint and committed-event count.
pub fn gate(reference: &Verdict, run: &Result<Verdict, String>) -> Result<(), String> {
    let got = run.as_ref().map_err(|e| e.clone())?;
    if got.fingerprint != reference.fingerprint {
        return Err(format!(
            "fingerprint {:016x} != reference {:016x}",
            got.fingerprint, reference.fingerprint
        ));
    }
    if got.committed != reference.committed {
        return Err(format!("committed {} != reference {}", got.committed, reference.committed));
    }
    Ok(())
}

/// A finished in-process run.
pub struct InProcess {
    /// `Err` on an unfinished app or an MPI protocol error.
    pub verdict: Result<Verdict, String>,
    pub stats: RunStats,
    /// Layer timings, seconds: translate, instantiate, build, run
    /// (scheduler + harvest), summary; `wall_s` spans all of them.
    pub translate_s: f64,
    pub instantiate_s: f64,
    pub build_s: f64,
    pub run_s: f64,
    pub summary_s: f64,
    pub wall_s: f64,
}

impl InProcess {
    pub fn setup_s(&self) -> f64 {
        self.translate_s + self.instantiate_s + self.build_s
    }

    pub fn harvest_s(&self) -> f64 {
        self.run_s - self.stats.wall_seconds
    }
}

/// Build and run `spec` in this process under `sched`, optionally with a
/// tracer and a recorder attached.
pub fn in_process(
    spec: &Spec,
    seed: u64,
    sched: Scheduler,
    tracer: Option<Arc<Tracer>>,
    recorder: Option<Arc<telemetry::Recorder>>,
) -> Result<InProcess, String> {
    let t0 = Instant::now();
    let apps = spec.apps();
    let t1 = Instant::now();
    let mut jobs = Vec::with_capacity(apps.len());
    for a in &apps {
        jobs.push((a.name(), a.vms(seed)?));
    }
    let t2 = Instant::now();
    let mut b = spec.builder(seed);
    if let Some(tracer) = tracer {
        b = b.tracer(tracer);
    }
    if let Some(recorder) = recorder {
        b = b.telemetry(recorder);
    }
    for (name, vms) in jobs {
        b = b.job(name, vms);
    }
    let mut sim = b.build()?;
    let t3 = Instant::now();
    let results = sim.run(sched, SimTime::MAX);
    let t4 = Instant::now();
    // The Fig 7 latency boxes and Fig 9 communication-time boxes.
    let summaries: Vec<(AppLatencySummary, Boxplot)> = results
        .apps
        .iter()
        .map(|a| {
            let comm: Vec<f64> = a.comm.iter().map(|c| c.total_ns as f64).collect();
            (AppLatencySummary::from_ranks(&a.latency), Boxplot::from_samples(&comm))
        })
        .collect();
    let t5 = Instant::now();
    std::hint::black_box(&summaries);

    let mut verdict =
        Ok(Verdict { fingerprint: sim.state_fingerprint(), committed: results.stats.committed });
    for a in &results.apps {
        if a.failed() {
            verdict = Err(format!("{}: MPI protocol error: {}", a.name, a.errors.join("; ")));
        } else if !a.all_done() {
            verdict = Err(format!("{}: not every rank finished", a.name));
        }
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(InProcess {
        verdict,
        stats: results.stats,
        translate_s: secs(t0, t1),
        instantiate_s: secs(t1, t2),
        build_s: secs(t2, t3),
        run_s: secs(t3, t4),
        summary_s: secs(t4, t5),
        wall_s: secs(t0, t5),
    })
}

/// One scheduler thread's time split, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadTimes {
    pub busy_s: f64,
    pub blocked_s: f64,
    pub idle_s: f64,
}

/// The counters of one `scheduler` telemetry record.
#[derive(Clone, Debug, Default)]
pub struct SchedRecord {
    pub wall_s: f64,
    pub cross_shard_events: u64,
    pub rounds: u64,
    pub queue_ops: u64,
    pub queue_max_len: u64,
    pub pool_high_water: u64,
    pub threads: Vec<ThreadTimes>,
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Every `scheduler` record and the last `network` record in telemetry
/// JSONL lines.
pub fn parse_telemetry<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> Result<(Vec<SchedRecord>, Option<Value>), String> {
    let mut scheds = Vec::new();
    let mut network = None;
    for line in lines {
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("bad telemetry line: {e}"))?;
        match v.get("record").and_then(Value::as_str) {
            Some("scheduler") => {
                let ns = |t: &Value, k: &str| u(t, k) as f64 * 1e-9;
                let threads = v
                    .get("per_thread")
                    .and_then(Value::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|t| ThreadTimes {
                        busy_s: ns(t, "busy_ns"),
                        blocked_s: ns(t, "blocked_ns"),
                        idle_s: ns(t, "idle_ns"),
                    })
                    .collect();
                scheds.push(SchedRecord {
                    wall_s: u(&v, "wall_ns") as f64 * 1e-9,
                    cross_shard_events: u(&v, "cross_shard_events"),
                    rounds: u(&v, "rounds"),
                    queue_ops: u(&v, "queue_ops"),
                    queue_max_len: u(&v, "queue_max_len"),
                    pool_high_water: u(&v, "pool_high_water"),
                    threads,
                });
            }
            Some("network") => network = Some(v),
            _ => {}
        }
    }
    Ok((scheds, network))
}

/// A finished gang run.
pub struct Gang {
    pub verdict: Result<Verdict, String>,
    /// Launcher spawn to exit, seconds.
    pub wall_s: f64,
    /// One scheduler record per worker.
    pub workers: Vec<SchedRecord>,
}

impl Gang {
    /// The slowest worker's scheduler wall.
    pub fn sched_s(&self) -> f64 {
        self.workers.iter().map(|w| w.wall_s).fold(0.0, f64::max)
    }
}

/// Run the gang through `union-exp mix`, with its workers' telemetry
/// written to `telemetry_path` (read back, then removed).
pub fn gang(
    spec: &Spec,
    seed: u64,
    window_ns: u64,
    union_exp: &Path,
    telemetry_path: &Path,
) -> Result<Gang, String> {
    let t0 = Instant::now();
    let out = Command::new(union_exp)
        .args(spec.mix_args(seed, window_ns))
        .arg("--telemetry")
        .arg(telemetry_path)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", union_exp.display()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let telemetry = std::fs::read_to_string(telemetry_path).unwrap_or_default();
    let _ = std::fs::remove_file(telemetry_path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Ok(Gang {
            verdict: Err(format!(
                "union-exp mix exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )),
            wall_s,
            workers: Vec::new(),
        });
    }
    let field = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(str::trim)
            .ok_or_else(|| format!("union-exp mix printed no `{prefix}` line"))
    };
    let fingerprint = u64::from_str_radix(field("mix fingerprint ")?, 16)
        .map_err(|e| format!("bad gang fingerprint: {e}"))?;
    let committed: u64 =
        field("mix committed ")?.parse().map_err(|e| format!("bad gang committed count: {e}"))?;
    let (workers, _) = parse_telemetry(telemetry.lines())?;
    if workers.len() != SHARDS {
        return Err(format!("expected {SHARDS} worker scheduler records, got {}", workers.len()));
    }
    Ok(Gang { verdict: Ok(Verdict { fingerprint, committed }), wall_s, workers })
}

/// High-water resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    // struct rusage: two timevals, then ru_maxrss (KiB) first of 14 longs.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut r = RUsage([0; 18]);
    // SAFETY: `r` is a writable buffer the size of `struct rusage`, and
    // 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc == 0 {
        r.0[4] as f64 / 1024.0
    } else {
        0.0
    }
}
