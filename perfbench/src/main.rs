//! `perfbench` — same-host benchmark of the paper's hybrid workload mixes.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Computes an untimed sequential reference of the workload, then until
//! `S` seconds have passed runs it again and again, each time in a fresh
//! process, checking every run against the reference. `--trace 0`
//! reports the end-to-end metrics. `--trace 1` reports the per-layer
//! metrics; within the same `S` seconds it first makes a traced run
//! (tracer + telemetry recorder attached) whose wall-time ledger must
//! account for the scheduler's wall, the isolated layer probes, and the
//! async and shard-gang probes of the same model. The last stdout line is
//! the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`;
//! the line before it carries provenance and each metric's quartiles.
//! Exit 0 only when every run matched the reference.
//!
//! `perfbench sample --workload NAME --seed N` is the per-run child.
//! See `README.md` for the workloads and metrics.

mod ledger;
mod probes;
mod run;
mod spec;
mod stats;

use ledger::{HandlerTimes, Ledger};
use ross::Scheduler;
use run::{InProcess, SchedRecord, ThreadTimes, Verdict};
use serde::Value;
use spec::Spec;
use stats::{obj, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// `(name, unit)` of every metric `--trace 0` reports.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("events_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of every metric `--trace 1` reports.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("workloads.translate_s", "s"),
    ("core.instantiate_s", "s"),
    ("codes.build_s", "s"),
    ("ross.sched_s", "s"),
    ("codes.harvest_s", "s"),
    ("metrics.summary_s", "s"),
    ("ross.committed", "count"),
    ("handler.net_s", "s"),
    ("handler.comm_s", "s"),
    ("handler.compute_s", "s"),
    ("ross.engine_s", "s"),
    ("ledger.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.events_dropped", "count"),
    ("ross.queue_ops", "count"),
    ("ross.queue_max_len", "count"),
    ("ross.pool_high_water", "count"),
    ("dragonfly.packets_injected", "count"),
    ("dragonfly.credit_stalls", "count"),
    ("core.vm_ns_per_op", "ns"),
    ("core.vm_ops", "count"),
    ("ross.queue_ns_per_op", "ns"),
    ("async.sched_s", "s"),
    ("async.remote_events", "count"),
    ("async.rounds", "count"),
    ("async.steals", "count"),
    ("async.stall_ns_per_event", "ns"),
    ("async.horizon_lag_max_ns", "ns"),
    ("async.busy_s", "s"),
    ("async.blocked_s", "s"),
    ("async.idle_s", "s"),
    ("shard.spawn_s", "s"),
    ("shard.sched_s", "s"),
    ("shard.cross_shard_events", "count"),
    ("shard.rounds", "count"),
    ("shard.busy_s", "s"),
    ("shard.blocked_s", "s"),
    ("shard.idle_s", "s"),
    ("fail_rate", "ratio"),
];

/// Fewest timed runs a measurement takes, however long they last.
const MIN_SAMPLES: usize = 3;
/// Seconds each isolated probe repeats for.
const PROBE_SECONDS: f64 = 0.3;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    Some(
        args.get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage(&format!("{name} needs a value"))),
    )
}

fn parse_args(args: &[String]) -> Args {
    let workload = flag(args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let workload =
        Spec::by_name(workload).unwrap_or_else(|| usage(&format!("unknown workload `{workload}`")));
    let num = |name: &str, default: &str| -> f64 {
        flag(args, name)
            .unwrap_or(default)
            .parse()
            .unwrap_or_else(|_| usage(&format!("{name} needs a number")))
    };
    let seed = flag(args, "--seed").unwrap_or("42");
    let seed = seed.parse().unwrap_or_else(|_| usage("--seed needs a whole number"));
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace must be 0 or 1, not `{other}`")),
    };
    Args { workload, seed, seconds: num("--seconds", "60"), trace }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("sample") {
        let a = parse_args(&argv[1..]);
        sample_child(a.workload, a.seed)
    } else {
        bench(&parse_args(&argv))
    };
    std::process::exit(code);
}

fn fail(msg: &str) -> i32 {
    eprintln!("perfbench: {msg}");
    1
}

/// Where the benchmark keeps its built binaries and scratch files.
fn bin_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own binary path");
    exe.parent().expect("binary has a directory").to_path_buf()
}

// ---------------------------------------------------------------------------
// The per-run child
// ---------------------------------------------------------------------------

/// Named values one timed run reports to the parent.
type Values = BTreeMap<String, f64>;

fn sample_child(spec: &Spec, seed: u64) -> i32 {
    let out = match sample(spec, seed) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    println!("{}", serde_json::to_string(&out).expect("sample json"));
    0
}

fn verdict_value(v: &Result<Verdict, String>) -> Value {
    match v {
        Ok(v) => obj(vec![
            ("fingerprint", Value::Str(format!("{:016x}", v.fingerprint))),
            ("committed", Value::Int(v.committed as i64)),
        ]),
        Err(e) => obj(vec![("error", Value::Str(e.clone()))]),
    }
}

fn values_value(values: &Values) -> Value {
    Value::Object(values.iter().map(|(k, v)| (k.clone(), Value::Float(*v))).collect())
}

/// One timed run of `spec` in this (fresh) process.
fn sample(spec: &Spec, seed: u64) -> Result<Value, String> {
    let r = run::in_process(spec, seed, Scheduler::Sequential, None, None)?;
    let values = Values::from([
        ("wall_s".to_string(), r.wall_s),
        ("setup_s".to_string(), r.setup_s()),
        ("events_per_s".to_string(), r.stats.committed as f64 / r.stats.wall_seconds),
        ("peak_rss_mb".to_string(), run::peak_rss_mb()),
        ("translate_s".to_string(), r.translate_s),
        ("instantiate_s".to_string(), r.instantiate_s),
        ("build_s".to_string(), r.build_s),
        ("sched_s".to_string(), r.stats.wall_seconds),
        ("harvest_s".to_string(), r.harvest_s()),
        ("summary_s".to_string(), r.summary_s),
    ]);
    Ok(obj(vec![("verdict", verdict_value(&r.verdict)), ("values", values_value(&values))]))
}

/// Run one sample child and read its report.
fn spawn_sample(spec: &Spec, seed: u64) -> Result<(Result<Verdict, String>, Values), String> {
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["sample", "--workload", spec.name, "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn sample: {e}"))?;
    if !out.status.success() {
        return Ok((Err(format!("sample exited with {}", out.status)), Values::new()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("sample printed nothing")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad sample line: {e}"))?;
    let verdict = v.get("verdict").ok_or("sample without verdict")?;
    let verdict = match verdict.get("error").and_then(Value::as_str) {
        Some(e) => Err(e.to_string()),
        None => Ok(Verdict {
            fingerprint: verdict
                .get("fingerprint")
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or("sample without fingerprint")?,
            committed: verdict
                .get("committed")
                .and_then(Value::as_u64)
                .ok_or("sample without committed count")?,
        }),
    };
    let values = v
        .get("values")
        .and_then(Value::as_object)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
        .collect();
    Ok((verdict, values))
}

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

/// Everything one invocation measured, by metric name.
struct Collected {
    /// Samples per metric; one value for metrics measured once.
    metrics: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failures: Vec<String>,
    /// Ledger checks of the traced runs, by run.
    ledgers: Vec<(&'static str, Ledger)>,
}

impl Collected {
    fn put(&mut self, name: &'static str, v: f64) {
        self.metrics.entry(name).or_default().push(v);
    }

    /// Gate one run against the reference.
    fn check(&mut self, what: &str, reference: &Verdict, run: &Result<Verdict, String>) {
        self.attempted += 1;
        if let Err(e) = run::gate(reference, run) {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// A run's ledger must account for its scheduler wall.
    fn check_ledger(&mut self, what: &'static str, ledger: Ledger) {
        if let Err(e) = ledger.check() {
            self.failures.push(format!("{what}: {e}"));
        }
        self.ledgers.push((what, ledger));
    }
}

fn sampled(samples: &[Values], key: &str) -> Vec<f64> {
    samples.iter().filter_map(|s| s.get(key).copied()).collect()
}

fn bench(a: &Args) -> i32 {
    let spec = a.workload;
    // Untimed sequential reference of the same model.
    let reference = run::in_process(spec, a.seed, Scheduler::Sequential, None, None);
    let want = match reference.and_then(|r| r.verdict) {
        Ok(v) => v,
        Err(e) => return fail(&format!("reference run: {e}")),
    };

    let mut c = Collected {
        metrics: BTreeMap::new(),
        attempted: 0,
        failures: Vec::new(),
        ledgers: Vec::new(),
    };
    // With --trace 1 the traced runs and probes come first, inside the
    // same measuring time, so both modes take about --seconds.
    let start = Instant::now();
    let traced_sched_s = match a.trace.then(|| probe_layers(spec, a.seed, &want, &mut c)) {
        Some(Ok(s)) => s,
        Some(Err(e)) => return fail(&e),
        None => 0.0,
    };
    let mut samples: Vec<Values> = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < a.seconds {
        match spawn_sample(spec, a.seed) {
            Ok((verdict, values)) => {
                c.check(&format!("run {}", samples.len() + 1), &want, &verdict);
                samples.push(values);
            }
            Err(e) => return fail(&e),
        }
    }

    // Metric name → the timed runs' value it summarizes.
    let keys: Vec<(&'static str, &str)> = if a.trace {
        vec![
            ("workloads.translate_s", "translate_s"),
            ("core.instantiate_s", "instantiate_s"),
            ("codes.build_s", "build_s"),
            ("ross.sched_s", "sched_s"),
            ("codes.harvest_s", "harvest_s"),
            ("metrics.summary_s", "summary_s"),
        ]
    } else {
        END_TO_END.iter().map(|&(name, _)| (name, name)).collect()
    };
    for (name, key) in keys {
        for v in sampled(&samples, key) {
            c.put(name, v);
        }
    }
    if a.trace {
        let untraced = Summary::of(&sampled(&samples, "sched_s")).map_or(f64::NAN, |s| s.median);
        c.put("trace.overhead_pct", 100.0 * (traced_sched_s / untraced - 1.0));
    }
    report(a, &want, c)
}

/// A finished in-process run observed through a telemetry recorder.
struct Observed {
    run: InProcess,
    sched: SchedRecord,
    network: Option<Value>,
}

/// Run `spec` under `sched` with a telemetry recorder and, when given, a
/// tracer attached.
fn observed_run(
    spec: &Spec,
    seed: u64,
    sched: Scheduler,
    tracer: Option<Arc<ross::Tracer>>,
) -> Result<Observed, String> {
    let recorder = Arc::new(telemetry::Recorder::new());
    let run = run::in_process(spec, seed, sched, tracer, Some(recorder.clone()))?;
    let lines = recorder.lines();
    let (scheds, network) = run::parse_telemetry(lines.iter().map(String::as_str))?;
    let sched = scheds.into_iter().last().ok_or("run emitted no scheduler record")?;
    Ok(Observed { run, sched, network })
}

impl Observed {
    fn ledger(&self, handler: HandlerTimes) -> Ledger {
        let total = self.sched.wall_s * self.sched.threads.len().max(1) as f64;
        Ledger::new(total, &self.sched.threads, handler)
    }
}

/// The per-layer runs besides the timed ones: the traced sequential run,
/// the isolated probes, and the async and gang probes. Returns the traced
/// run's scheduler wall.
fn probe_layers(spec: &Spec, seed: u64, want: &Verdict, c: &mut Collected) -> Result<f64, String> {
    c.put("ross.committed", want.committed as f64);

    // The traced sequential run: where scheduler wall goes. The tracer
    // holds every event (the cap leaves a spare 4096-record chunk).
    let tracer = Arc::new(ross::Tracer::with_caps(
        1,
        want.committed + 2 * 4096,
        ross::trace::DEFAULT_SPAN_CAP,
    ));
    let t = observed_run(spec, seed, Scheduler::Sequential, Some(tracer.clone()))?;
    c.check("traced run", want, &t.run.verdict);
    let h = ledger::handler_times(&tracer.to_chrome_json())?;
    let ledger = t.ledger(h);
    c.check_ledger("traced run", ledger);
    c.put("handler.net_s", h.net_s);
    c.put("handler.comm_s", h.comm_s);
    c.put("handler.compute_s", h.compute_s);
    c.put("ross.engine_s", ledger.engine_s);
    c.put("ledger.unattributed_s", ledger.unattributed_s);
    c.put("trace.coverage_pct", 100.0 * h.events as f64 / want.committed as f64);
    c.put("trace.events_dropped", tracer.events_dropped() as f64);
    c.put("ross.queue_ops", t.sched.queue_ops as f64);
    c.put("ross.queue_max_len", t.sched.queue_max_len as f64);
    c.put("ross.pool_high_water", t.sched.pool_high_water as f64);
    let net = t.network.as_ref().ok_or("traced run emitted no network record")?;
    let count = |k: &str| net.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    c.put("dragonfly.packets_injected", count("packets_injected"));
    c.put("dragonfly.credit_stalls", count("credit_stalls"));

    // Isolated probes.
    let (vm_ns, vm_ops) = probes::vm_drain(spec, seed, PROBE_SECONDS)?;
    c.put("core.vm_ns_per_op", vm_ns);
    c.put("core.vm_ops", vm_ops as f64);
    // Hold events about as long as the run did: queue length × the mean
    // virtual time between committed events.
    let len = t.sched.queue_max_len;
    let gap = len as f64 * t.run.stats.end_time.as_ns() as f64 / want.committed as f64;
    c.put("ross.queue_ns_per_op", probes::queue_hold(len, gap as u64, seed, PROBE_SECONDS));
    let traced_sched_s = t.run.stats.wall_seconds;
    drop((t, tracer));

    // The same model under async:2 — scheduler sync, mailboxes and
    // stealing — with a recorder for the per-thread split.
    let a = observed_run(spec, seed, spec.async_scheduler(seed)?, None)?;
    c.check("async run", want, &a.run.verdict);
    let r = &a.run;
    c.put("async.sched_s", r.stats.wall_seconds);
    c.put("async.remote_events", r.stats.remote_events as f64);
    c.put("async.rounds", r.stats.rounds as f64);
    c.put("async.steals", r.stats.steals as f64);
    c.put("async.stall_ns_per_event", r.stats.horizon_stall_ns as f64 / r.stats.committed as f64);
    c.put("async.horizon_lag_max_ns", r.stats.horizon_lag_max as f64);
    let ledger = a.ledger(HandlerTimes::default());
    c.check_ledger("async run", ledger);
    c.put("async.busy_s", ledger.busy_s);
    c.put("async.blocked_s", ledger.blocked_s);
    c.put("async.idle_s", ledger.idle_s);

    // The mix as a shard:2:1 TCP gang through `union-exp mix`, checked
    // against its own sequential reference.
    let model = spec.gang_model();
    let window = model.shard_window_ns(seed)?;
    let gang_ref = run::in_process(&model, seed, Scheduler::Sequential, None, None)?;
    let gang_want = gang_ref.verdict.clone().map_err(|e| format!("gang reference run: {e}"))?;
    let scratch = bin_dir().join(format!("perfbench-gang-{}.jsonl", std::process::id()));
    let g = run::gang(&model, seed, window, &bin_dir().join("union-exp"), &scratch)?;
    c.check("gang run", &gang_want, &g.verdict);
    let threads: Vec<ThreadTimes> = g.workers.iter().flat_map(|w| w.threads.clone()).collect();
    // Gang wall outside the slowest worker's scheduler, minus the model
    // build each worker also does: spawn, rendezvous, mesh, teardown.
    c.put("shard.spawn_s", g.wall_s - g.sched_s() - gang_ref.setup_s());
    c.put("shard.sched_s", g.sched_s());
    c.put(
        "shard.cross_shard_events",
        g.workers.iter().map(|w| w.cross_shard_events).sum::<u64>() as f64,
    );
    c.put("shard.rounds", g.workers.iter().map(|w| w.rounds).max().unwrap_or(0) as f64);
    c.put("shard.busy_s", threads.iter().map(|t| t.busy_s).sum());
    c.put("shard.blocked_s", threads.iter().map(|t| t.blocked_s).sum());
    c.put("shard.idle_s", threads.iter().map(|t| t.idle_s).sum());
    Ok(traced_sched_s)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj(vec![
        ("nproc", Value::Int(nproc as i64)),
        ("cpu", Value::Str(cpu)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("git_rev", Value::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("profile", Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
    ])
}

fn report(a: &Args, want: &Verdict, mut c: Collected) -> i32 {
    let failed = c.failures.len() as u64;
    if a.trace {
        c.put("fail_rate", failed as f64 / c.attempted.max(1) as f64);
    }
    let catalog: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut result = Vec::new();
    let mut detail = Vec::new();
    for &(name, unit) in catalog {
        debug_assert!(stats::valid_name(name) && stats::valid_unit(unit), "{name} [{unit}]");
        let Some(s) = c.metrics.get(name).and_then(|v| Summary::of(v)) else {
            return fail(&format!("metric {name} was not measured"));
        };
        result.push((
            name,
            obj(vec![("value", Value::Float(s.median)), ("unit", Value::Str(unit.into()))]),
        ));
        let Value::Object(mut fields) = s.to_value() else { unreachable!() };
        fields.insert(0, ("unit".to_string(), Value::Str(unit.into())));
        detail.push((name, Value::Object(fields)));
    }
    for f in &c.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let ledgers = c
        .ledgers
        .iter()
        .map(|(what, l)| {
            let check = l.check().err().unwrap_or_else(|| "ok".into());
            let fields = vec![
                ("total_s", Value::Float(l.total_s)),
                ("unattributed_s", Value::Float(l.unattributed_s)),
                ("check", Value::Str(check)),
            ];
            (*what, obj(fields))
        })
        .collect();
    let info = obj(vec![
        ("workload", Value::Str(a.workload.name.into())),
        ("seed", Value::Int(a.seed as i64)),
        ("reference", verdict_value(&Ok(*want))),
        ("provenance", provenance()),
        ("ledgers", obj(ledgers)),
        ("failures", Value::Array(c.failures.iter().map(|f| Value::Str(f.clone())).collect())),
        ("metrics", obj(detail)),
    ]);
    println!("{}", serde_json::to_string(&obj(vec![("perfbench", info)])).expect("report json"));
    let line = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Int(c.attempted as i64)),
        ("failed", Value::Int(failed as i64)),
        ("metrics", obj(result)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("result json"));
    i32::from(failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric catalog obeys the result grammar and is exactly what
    /// `BENCHMARK.json` declares.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalog) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<(String, String)> = v
                .get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> =
                catalog.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
            for (n, u) in catalog {
                assert!(stats::valid_name(n), "{n}");
                assert!(stats::valid_unit(u), "{u}");
            }
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn gate_rejects_a_wrong_fingerprint() {
        let want = Verdict { fingerprint: 0x505f72d607921ccc, committed: 100 };
        assert!(run::gate(&want, &Ok(want)).is_ok());
        let wrong = Verdict { fingerprint: want.fingerprint ^ 1, ..want };
        assert!(run::gate(&want, &Ok(wrong)).unwrap_err().contains("fingerprint"));
        let short = Verdict { committed: 99, ..want };
        assert!(run::gate(&want, &Ok(short)).unwrap_err().contains("committed"));
        assert!(run::gate(&want, &Err("AlexNet: not every rank finished".into())).is_err());
    }

    /// A real (tiny) run through the benchmark's own path must pass the
    /// gate against itself and fail it against a perturbed reference.
    #[test]
    fn gate_checks_a_real_run() {
        let tiny = Spec { iters: 1, scale: 4096, ..spec::SPECS[0] };
        let r = run::in_process(&tiny, 7, Scheduler::Sequential, None, None).unwrap();
        let got = r.verdict.clone().unwrap();
        assert!(run::gate(&got, &r.verdict).is_ok());
        let other = Verdict { fingerprint: got.fingerprint.wrapping_add(1), ..got };
        assert!(run::gate(&other, &r.verdict).is_err());
    }
}
