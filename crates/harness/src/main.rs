//! `union-exp` — regenerate the paper's tables and figures. Run it with
//! no arguments for every subcommand and its flags; the flag tables and
//! the parser behind that usage live in `harness::cli`.

use harness::cli::{self, RunSpec};
use harness::live::LivePlane;
use harness::report;
use harness::shard::{self, ShardSpec, WorkerEnv};
use harness::sweep::{self, RunKey, SweepConfig, Workload};
use std::sync::Arc;
use telemetry::live::MetricsRegistry;
use telemetry::Recorder;
use union_core::{codegen, RankVm, SkeletonInstance, Validation};
use workloads::Profile;

/// How a command that did not succeed ends: its exit code and the
/// `union-exp: …` line (empty when the command already said why).
struct Exit {
    code: i32,
    msg: String,
}

/// A usage or input error: exit 2.
fn usage(msg: impl Into<String>) -> Exit {
    Exit { code: 2, msg: msg.into() }
}

/// A run that failed: exit 1.
fn failed(msg: impl Into<String>) -> Exit {
    Exit { code: 1, msg: msg.into() }
}

type Outcome = Result<(), Exit>;

/// A `--telemetry` recorder and the path its JSONL goes to.
type Telemetry = Option<(Arc<Recorder>, String)>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
    if let Err(e) = cli::parse(cmd, rest).map_err(|e| usage(e.0)).and_then(|spec| run(&spec)) {
        if !e.msg.is_empty() {
            eprintln!("union-exp: {}", e.msg);
        }
        std::process::exit(e.code);
    }
}

fn run(spec: &RunSpec) -> Outcome {
    match spec.cmd.as_str() {
        "table1" => table1(spec),
        "table2" => {
            print!("{}", report::table2());
            Ok(())
        }
        "validate" | "table4" | "table5" | "fig6" => validate(spec),
        "skeleton" => skeleton(spec),
        "lint" => lint_cmd(spec),
        "trace" => trace_cmd(spec),
        "phold" => phold_cmd(spec),
        "mix" => mix_cmd(spec),
        "top" => top_cmd(spec),
        _ => sweep_cmd(spec),
    }
}

/// Table I: quantify the trace-replay vs Union comparison on one
/// workload: artifact sizes, preparation cost, and result equivalence.
fn table1(spec: &RunSpec) -> Outcome {
    use union_core::Trace;
    let (ranks, iters) = (spec.ranks, spec.model.iters);
    let cfg = workloads::app(workloads::AppKind::NearestNeighbor, Profile::Quick, iters, 16);
    let args: Vec<&str> = cfg.args.iter().map(|s| s.as_str()).collect();
    let inst = SkeletonInstance::new(&cfg.skeleton, ranks, &args).map_err(usage)?;

    let t0 = std::time::Instant::now();
    let trace = Arc::new(Trace::record(&inst, 1));
    let record_s = t0.elapsed().as_secs_f64();
    let skeleton_size = serde_json::to_vec(&cfg.skeleton).unwrap().len() as u64;
    let trace_size = trace.jsonl_size();

    let run = |b: codes::SimulationBuilder| {
        let mut sim = b.build().unwrap();
        let t = std::time::Instant::now();
        let r = sim.run(ross::Scheduler::Sequential, ross::SimTime::MAX);
        (r, t.elapsed().as_secs_f64())
    };
    let mk = || codes::SimulationBuilder::new(dragonfly::DragonflyConfig::small_1d()).seed(2);
    let (r_skel, t_skel) =
        run(mk().job(cfg.name(), (0..ranks).map(|r| RankVm::new(inst.clone(), r, 1)).collect()));
    let (r_trace, t_trace) = run(mk().job_trace(cfg.name(), &trace));

    let lat = |r: &codes::SimResults| r.apps[0].latency.iter().map(|l| l.sum_ns).sum::<u64>();
    println!("Table I — workload mechanisms compared on NN ({ranks} ranks, {iters} iters)");
    println!("| Feature | Trace Replay | Union |");
    println!("|---|---|---|");
    println!("| Trace collection | Yes ({record_s:.3}s app run) | No |");
    println!(
        "| Workload artifact size | {} (JSONL, {} records) | {} (skeleton) |",
        metrics::fmt_bytes(trace_size as f64),
        trace.len(),
        metrics::fmt_bytes(skeleton_size as f64),
    );
    println!("| Scaling application size | re-trace per size | rebind num_tasks |");
    println!("| Automatic skeletonization | n/a | Yes (translator) |");
    println!("| Integration to CODES | file ingest | automated registry |");
    println!("| Simulation wall time | {t_trace:.2}s | {t_skel:.2}s |");
    println!(
        "| Identical simulation results | {} |  |",
        if lat(&r_skel) == lat(&r_trace) { "yes (verified)" } else { "NO (bug!)" }
    );
    Ok(())
}

/// Tables IV & V and Fig 6: AlexNet application vs Union skeleton.
fn validate(spec: &RunSpec) -> Outcome {
    let (cmd, ranks) = (spec.cmd.as_str(), spec.ranks);
    let skel = workloads::alexnet();
    let inst = SkeletonInstance::new(&skel, ranks, &[]).map_err(usage)?;
    eprintln!("collecting AlexNet skeleton + reference streams at {ranks} ranks…");
    let skel_v = Validation::collect(ranks, |r| RankVm::new(inst.clone(), r, 1));
    let app_v =
        Validation::collect(ranks, |r| workloads::alexnet_reference::ops(r, ranks).into_iter());

    if cmd == "validate" || cmd == "table4" {
        println!("Table IV — AlexNet MPI event count (application vs Union skeleton)");
        print!("{}", Validation::table4(&app_v, &skel_v));
        println!();
    }
    if cmd == "validate" || cmd == "table5" {
        println!("Table V — AlexNet bytes transmitted by each rank");
        print!("{}", Validation::table5(&app_v, &skel_v));
        println!();
    }
    if cmd == "validate" || cmd == "fig6" {
        println!("Fig 6 — control flow (first 16 events of rank 0):");
        println!(
            "  application : {}",
            app_v.control_flow[..16.min(app_v.control_flow.len())].join(" -> ")
        );
        println!(
            "  skeleton    : {}",
            skel_v.control_flow[..16.min(skel_v.control_flow.len())].join(" -> ")
        );
        println!(
            "  full control flow match over {} events: {}",
            app_v.control_flow.len(),
            app_v.control_flow == skel_v.control_flow
        );
    }
    let ok = skel_v.matches(&app_v);
    println!("\nvalidation {}", if ok { "PASSED" } else { "FAILED" });
    if ok {
        Ok(())
    } else {
        Err(failed(""))
    }
}

/// Print a union-lint report; its errors stop the run (exit 2) unless
/// `--allow-lint` was given.
fn lint_gate(r: union_lint::Report, spec: &RunSpec, what: &str) -> Outcome {
    if !r.is_empty() {
        eprint!("{r}");
        if r.has_errors() && !spec.allow_lint {
            return Err(usage(format!(
                "{what} rejected by union-lint (use --allow-lint to override)"
            )));
        }
    }
    Ok(())
}

/// `git describe` of the working tree for the run manifest, or `unknown`
/// when git (or the repository) is unavailable.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// When `--telemetry FILE` is given: a recorder whose first record is
/// the run manifest. Sweeps describe their configuration in it; the
/// single-run commands (`phold`, `mix`) leave `config` null.
fn telemetry_start(spec: &RunSpec) -> Telemetry {
    #[derive(serde::Serialize)]
    struct Config<'a> {
        profile: &'a str,
        iters: i64,
        scale: i64,
        queue: &'a str,
        nets: Vec<&'a str>,
        workloads: &'a [u8],
        baselines: bool,
    }
    let path = spec.telemetry.clone()?;
    let rec = Arc::new(Recorder::new());
    let (cmd, cfg) = (spec.cmd.as_str(), &spec.model);
    let mut manifest = telemetry::ManifestRecord::new(
        cmd,
        spec.args.clone(),
        cfg.seed,
        &spec.sched,
        &git_describe(),
    );
    if !matches!(cmd, "phold" | "mix") {
        manifest.config = serde::Serialize::to_value(&Config {
            profile: if cfg.profile == Profile::Paper { "paper" } else { "quick" },
            iters: cfg.iters,
            scale: cfg.scale,
            queue: cfg.queue.label(),
            nets: cfg.nets.iter().map(|n| n.label()).collect(),
            workloads: &cfg.workloads,
            baselines: cfg.baselines,
        });
    }
    rec.emit(&manifest);
    Some((rec, path))
}

/// The `--telemetry` recorder, if any.
fn recorder(telem: &Telemetry) -> Option<&Recorder> {
    telem.as_ref().map(|(r, _)| r.as_ref())
}

/// Close out a telemetry run: stamp the total wall time and write the
/// JSONL file. Sweeps (`analyses` given) also print the summary table,
/// with the critical-path block when the run was traced too.
fn telemetry_finish(telem: Telemetry, analyses: Option<&[harness::RunAnalysis]>) -> Outcome {
    let Some((rec, path)) = telem else { return Ok(()) };
    rec.emit(&telemetry::PhaseRecord::new("total", rec.elapsed_ns()));
    rec.write_jsonl(std::path::Path::new(&path))
        .map_err(|e| failed(format!("cannot write telemetry file `{path}`: {e}")))?;
    eprintln!("wrote {path} ({} records)", rec.len());
    if let Some(analyses) = analyses {
        print!("{}", report::telemetry_summary_with_trace(&rec, analyses));
    }
    Ok(())
}

/// Write `text` to `path` (creating parent directories); exit 1 naming
/// `what` when that fails.
fn write_file(path: &str, text: &str, what: &str) -> Outcome {
    let write = || -> std::io::Result<()> {
        let mut w = telemetry::StreamWriter::create(std::path::Path::new(path))?;
        w.write_str(text)?;
        w.finish()
    };
    write().map_err(|e| failed(format!("cannot write {what} file `{path}`: {e}")))
}

/// Close out a traced run: export the Chrome trace JSON, note the export
/// in the telemetry stream (if any), and return the per-run
/// critical-path analyses for the summary block.
fn trace_finish(
    trace: Option<(Arc<ross::Tracer>, String)>,
    telem: Option<&Recorder>,
) -> Result<Vec<harness::RunAnalysis>, Exit> {
    let Some((tr, path)) = trace else { return Ok(Vec::new()) };
    let json = tr.to_chrome_json();
    write_file(&path, &json, "trace")?;
    let dropped = tr.events_dropped();
    eprintln!(
        "wrote {path} ({} trace events{})",
        tr.event_count(),
        if dropped > 0 { format!(", {dropped} dropped at the cap") } else { String::new() }
    );
    if let Some(rec) = telem {
        rec.emit(&telemetry::TraceExportRecord::new(
            &path,
            tr.event_count() as u64,
            dropped,
            tr.spans_dropped(),
        ));
    }
    Ok(match harness::parse_chrome(&json) {
        Ok(runs) => runs.iter().map(harness::analyze).collect(),
        Err(e) => {
            eprintln!("union-exp: exported trace failed to re-parse: {e}");
            Vec::new()
        }
    })
}

/// `union-exp trace --analyze FILE` — critical-path analysis of an
/// exported Chrome trace. Prints per-run DAG metrics and causality
/// fingerprints; exits 1 if any structural invariant fails, 2 on usage
/// or read errors.
fn trace_cmd(spec: &RunSpec) -> Outcome {
    let path = spec.file.as_deref().unwrap_or_default();
    let json =
        std::fs::read_to_string(path).map_err(|e| usage(format!("cannot read `{path}`: {e}")))?;
    let runs = harness::parse_chrome(&json).map_err(|e| failed(format!("{path}: {e}")))?;
    if runs.is_empty() {
        // Diagnostic, not analysis output: stdout stays machine-clean.
        eprintln!("{path}: no runs recorded");
        return Ok(());
    }
    let analyses: Vec<harness::RunAnalysis> = runs.iter().map(harness::analyze).collect();
    print!("{}", harness::trace_analysis::render(&analyses));
    for r in &runs {
        println!("run {} causality fingerprint: {:016x}", r.run, harness::causality_fingerprint(r));
    }
    let mut sound = true;
    for a in &analyses {
        for v in a.check_invariants() {
            eprintln!("union-exp: run {}: invariant violated: {v}", a.run);
            sound = false;
        }
    }
    if sound {
        Ok(())
    } else {
        Err(failed(""))
    }
}

/// The sweep commands and fig8: lint the schedule, run every cell, print
/// the figure, then the `--json`, `--trace` and `--telemetry` outputs.
fn sweep_cmd(spec: &RunSpec) -> Outcome {
    let mut cfg = spec.model.clone();
    lint_gate(harness::lint::check_sched_lookahead(&cfg), spec, "parallel schedule")?;
    let telem = telemetry_start(spec);
    cfg.telemetry = telem.as_ref().map(|(r, _)| r.clone());
    let trace = spec.trace.as_ref().map(|(path, rate)| {
        let tracer = Arc::new(ross::Tracer::new(*rate));
        cfg.tracer = Some(tracer.clone());
        (tracer, path.clone())
    });
    let records = sweep::run_sweep(&cfg, |label| eprintln!("running {label}…"));
    let cmd = spec.cmd.as_str();
    if cmd == "fig8" {
        fig8(&cfg, &records);
    }
    if cmd == "fig7" || cmd == "all" {
        print!("{}", report::fig7(&records));
        println!();
    }
    if cmd == "fig9" || cmd == "all" {
        print!("{}", report::fig9(&records));
        println!();
    }
    if cmd == "table6" || cmd == "all" {
        print!("{}", report::table6(&records));
        println!();
    }
    if cmd == "all" {
        print!("{}", report::engine_stats(&records));
    }
    if let Some(path) = &spec.json {
        dump_json(path, &records)?;
    }
    let analyses = trace_finish(trace, recorder(&telem))?;
    if telem.is_none() && !analyses.is_empty() {
        print!("{}", report::critical_path_block(&analyses, &[]));
    }
    telemetry_finish(telem, Some(&analyses))
}

/// Fig 8: Workload3 on 1D with adaptive routing; compare the byte series
/// on AlexNet's routers under RG vs RR placement.
fn fig8(cfg: &SweepConfig, records: &[sweep::RunRecord]) {
    for r in records {
        let Some(results) = &r.results else { continue };
        // Routers serving AlexNet (app id 1 in Workload3).
        let topo = dragonfly::Topology::build(r.key.net.config(cfg.profile));
        let apps = workloads::workload(3, cfg.profile, cfg.iters, cfg.scale);
        let alexnet_idx =
            apps.iter().position(|a| a.name() == "AlexNet").expect("AlexNet in W3") as u32;
        // Recompute the layout used by the run to find AlexNet's routers.
        let requests: Vec<placement::JobRequest> =
            apps.iter().map(|a| placement::JobRequest::new(a.name(), a.ranks)).collect();
        let layout = placement::Layout::place(&topo, &requests, r.key.placement, cfg.seed).unwrap();
        let routers = layout.routers_of_job(&topo, alexnet_idx);
        let series = results.series_over(&routers, cfg.window_ns);
        let names: Vec<String> = apps.iter().map(|a| a.name().to_string()).collect();
        println!("{}", report::fig8(&r.key.label(), cfg.window_ns, &series, &names));
        // Peak interference from other applications on AlexNet's routers.
        let other_peak: u64 = (0..names.len())
            .filter(|&i| i != alexnet_idx as usize)
            .map(|i| series.peak(i))
            .max()
            .unwrap_or(0);
        println!(
            "peak bytes/window from other apps on AlexNet routers ({}): {}\n",
            r.key.placement.label(),
            metrics::fmt_bytes(other_peak as f64)
        );
    }
}

/// Print the generated Fig-5-style C skeleton of a registered workload.
fn skeleton(spec: &RunSpec) -> Outcome {
    let name = spec.operand.as_deref().unwrap_or("alexnet");
    let reg = workloads::registry();
    let s = reg
        .get(name)
        .ok_or_else(|| usage(format!("unknown skeleton `{name}`; available: {:?}", reg.names())))?;
    print!("{}", codegen::render_c(s));
    Ok(())
}

/// `union-exp lint` — run `union-lint`'s static analysis without
/// simulating anything. Default: every bundled workload skeleton at the
/// configuration a sweep would instantiate, plus the model-level
/// lookahead check when `--sched par:T:L` or `async:T:L` is given.
/// `--fixture NAME` lints a seeded-bug fixture; `--file PROG.ncptl`
/// lints a DSL program. Exit codes: 0 = clean (infos allowed), 1 =
/// findings at Warning or above, 2 = usage error.
fn lint_cmd(spec: &RunSpec) -> Outcome {
    use union_lint::{fixtures, LintOptions, Severity};
    let opts = LintOptions::default();
    let mut reports: Vec<(String, union_lint::Report)> = Vec::new();
    if let Some(name) = &spec.fixture {
        let r = fixtures::lint(name, &opts).ok_or_else(|| {
            usage(format!("unknown fixture `{name}`; available: {:?}", fixtures::NAMES))
        })?;
        reports.push((format!("fixture {name}"), r));
    } else if let Some(path) = &spec.file {
        let src = std::fs::read_to_string(path)
            .map_err(|e| usage(format!("cannot read `{path}`: {e}")))?;
        reports.push((
            format!("{path} ({} ranks)", spec.ranks),
            union_lint::lint_source(&src, path, spec.ranks, &[], &opts),
        ));
    } else {
        let cfg = &spec.model;
        for kind in workloads::AppKind::ALL {
            let app = workloads::app(kind, cfg.profile, cfg.iters, cfg.scale);
            let args: Vec<&str> = app.args.iter().map(|s| s.as_str()).collect();
            let r = union_lint::lint_skeleton(&app.skeleton, app.ranks, &args, &opts);
            reports.push((format!("{} ({} ranks)", app.name(), app.ranks), r));
        }
        reports.push(("model/lookahead".to_string(), harness::lint::check_sched_lookahead(cfg)));
    }
    let mut worst = None;
    for (label, r) in &reports {
        match r.max_severity() {
            None => println!("{label}: clean"),
            some => {
                print!("{label}:\n{r}");
                worst = worst.max(some);
            }
        }
    }
    if worst >= Some(Severity::Warning) {
        return Err(failed(""));
    }
    Ok(())
}

/// `union-exp top ADDR|FILE` — one-screen summary of a live run: from a
/// running endpoint's `/snapshot` route, or from the last snapshot
/// record in a JSONL file written by `--telemetry` + `--live`.
fn top_cmd(spec: &RunSpec) -> Outcome {
    let target = spec.operand.as_deref().unwrap_or_default();
    let snap = if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target)
            .map_err(|e| usage(format!("cannot read `{target}`: {e}")))?;
        harness::live::last_snapshot_in_jsonl(&text)
            .ok_or_else(|| failed(format!("no snapshot records in `{target}`")))?
    } else if target.contains(':') {
        harness::live::fetch_snapshot(target).map_err(failed)?
    } else {
        return Err(usage(format!("`{target}` is neither a readable file nor an ADDR:PORT")));
    };
    print!("{}", harness::live::render_top(&snap));
    Ok(())
}

/// Run the `phold` or `mix` model of `spec` and print its fingerprint
/// and committed-event count under `name`. In one process, `local`
/// builds and runs it with the telemetry recorder and live registry
/// attached. As a shard gang: a worker process runs its shard with
/// `shard_run` and reports to the launcher; the launcher spawns the
/// gang, prints the merged result and verifies it against `sequential`
/// — the fingerprint, committed-event count and events committed before
/// a restored cut of an in-process run — unless `--shard-no-verify`.
fn model_cmd(
    spec: &RunSpec,
    name: &str,
    local: impl FnOnce(Option<Arc<Recorder>>, Option<Arc<MetricsRegistry>>) -> ModelRun,
    shard_run: impl FnOnce(WorkerEnv, ShardSpec) -> Result<(u64, ross::RunStats), String>,
    sequential: impl FnOnce() -> Result<(u64, u64, u64), Exit>,
) -> Outcome {
    if let (Some(gang), Some(role)) = (spec.shard, shard::worker_role()) {
        let me = role.0;
        if role.1 != gang.shards {
            return Err(failed(format!("shard worker env disagrees with --sched {}", spec.sched)));
        }
        return match shard::run_worker(role, spec.live.as_ref(), |w| shard_run(w, gang)) {
            Ok(true) => Ok(()),
            Ok(false) => Err(failed("")),
            Err(e) => Err(failed(format!("shard {me}: {e}"))),
        };
    }
    let telem = telemetry_start(spec);
    let live = spec.live.as_ref().map(|lo| LivePlane::start(lo, spec.shard.is_some()));
    let live = live.transpose().map_err(usage)?;
    if let Some(gang) = spec.shard {
        let agg = live.as_ref().and_then(|l| l.gang.as_deref());
        let outcome = shard::launch_gang(&gang, recorder(&telem), agg).map_err(failed)?;
        for r in &outcome.reports {
            eprintln!(
                "shard {}: committed {} cross-shard {} rounds {}",
                r.shard, r.committed, r.cross_shard_events, r.rounds
            );
        }
        println!("{name} fingerprint {:016x}", outcome.fingerprint);
        println!("{name} committed {}", outcome.committed);
        println!("{name} cross-shard events {}", outcome.cross_shard_events);
        if spec.verify {
            let (want, committed, base) = sequential()?;
            if want != outcome.fingerprint || committed != outcome.committed + base {
                return Err(failed(format!(
                    "sharded run diverged from sequential (fingerprint {:016x} vs {want:016x}, \
                     committed {}+{base} vs {committed})",
                    outcome.fingerprint, outcome.committed
                )));
            }
            println!("{name} verify sequential match");
        }
    } else {
        let registry = live.as_ref().and_then(|l| l.registry.clone());
        let (fingerprint, committed) = local(telem.as_ref().map(|(r, _)| r.clone()), registry)?;
        println!("{name} fingerprint {fingerprint:016x}");
        println!("{name} committed {committed}");
    }
    if let Some(l) = live {
        l.finish(recorder(&telem));
    }
    telemetry_finish(telem, None)
}

/// An in-process model run's fingerprint and committed-event count.
type ModelRun = Result<(u64, u64), Exit>;

/// `union-exp phold` — the sharding/checkpoint demonstration model: a
/// deterministic PHOLD whose full state (explicit RNG included) is
/// checkpointable.
fn phold_cmd(spec: &RunSpec) -> Outcome {
    let (p, until) = (&spec.phold, spec.model.until);
    let local = |telem, live| {
        let mut sim = shard::build_phold(p);
        sim.set_telemetry(telem);
        sim.set_live(live);
        let stats = if spec.checkpoint.is_some() || spec.restore.is_some() {
            // Checkpoint/restore ride on the sharded runner's GVT fence,
            // so a single process runs as a 1-shard mesh.
            let mut mesh = ross::shard::loopback_mesh::<u64>(1);
            let mut t = mesh.pop().expect("1-shard mesh");
            let opts = ross::shard::ShardRun {
                threads: 1,
                window: ross::SimDuration::from_ns(shard::PHOLD_MIN_DELAY_NS),
                checkpoint: spec.checkpoint.clone(),
                restore: spec.restore.clone(),
                codec: Some(&shard::PholdCodec),
                on_checkpoint: None,
            };
            sim.run_sharded(&mut t, opts, until).map_err(|e| Exit {
                code: if matches!(e, ross::shard::ShardError::Format(_)) { 2 } else { 1 },
                msg: format!("phold: {e}"),
            })?
        } else {
            sim.run_sequential(until)
        };
        Ok((shard::phold_fingerprint(&sim, 0, 1), stats.committed))
    };
    let shard_run = |w, gang| {
        let (ck, restore) = (spec.checkpoint.clone(), spec.restore.clone());
        shard::phold_worker_run(w, p, &gang, ck, restore, until).map_err(|e| e.to_string())
    };
    let sequential = || {
        let mut sim = shard::build_phold(p);
        let stats = sim.run_sequential(until);
        // A restored run only commits the events after the cut; the
        // cut's metadata records how many the interrupted run had
        // committed.
        let base = match &spec.restore {
            Some(path) => ross::shard::checkpoint::read_file(path)
                .and_then(|b| ross::shard::checkpoint::parse_file(&b).map(|(m, _)| m.committed))
                .map_err(|e| failed(format!("cannot re-read restore file for verify: {e}")))?,
            None => 0,
        };
        Ok((shard::phold_fingerprint(&sim, 0, 1), stats.committed, base))
    };
    model_cmd(spec, "phold", local, shard_run, sequential)
}

/// `union-exp mix` — run ONE Union workload mix: the one cell of the
/// sweep configuration `spec.model`.
fn mix_cmd(spec: &RunSpec) -> Outcome {
    let m = &spec.model;
    let key = RunKey {
        net: m.nets[0],
        workload: Workload::Mix(m.workloads[0]),
        placement: m.placements[0],
        routing: m.routings[0],
    };
    if let Some(gang) = spec.shard {
        // Validate the window before spawning anything. The check mirrors
        // the runtime: shards own whole partition blocks, so only
        // cross-shard edges bind the window — plus intra-shard
        // cross-block edges when each shard runs several worker threads.
        let r =
            harness::lint::check_shard_lookahead(m, gang.shards, gang.threads, gang.lookahead_ns);
        lint_gate(r, spec, "shard lookahead")?;
    }
    let local = |telemetry, live| {
        let mut sim = sweep::build(&SweepConfig { telemetry, ..m.clone() }, key).map_err(usage)?;
        sim.set_live(live);
        let results = sim.run(m.sched, m.until);
        for a in &results.apps {
            if a.failed() {
                let errors = a.errors.join("; ");
                return Err(failed(format!("{}: MPI protocol failure: {errors}", a.name)));
            }
            eprintln!(
                "app {}: {} ranks, done={}, bytes {}",
                a.name,
                a.finished_at_ns.len(),
                a.all_done(),
                a.bytes_sent
            );
        }
        Ok((sim.state_fingerprint(), results.stats.committed))
    };
    let shard_run = |w: WorkerEnv, gang: ShardSpec| {
        let cfg = SweepConfig { telemetry: Some(w.telemetry), ..m.clone() };
        let mut sim = sweep::build(&cfg, key)?;
        sim.set_live(w.live);
        let codec = Arc::new(codes::CodesEventCodec);
        let mut transport = ross::shard::TcpTransport::mesh(w.me, w.listener, &w.peers, codec)
            .map_err(|e| e.to_string())?;
        let window = ross::SimDuration::from_ns(gang.lookahead_ns);
        let stats = sim
            .run_sharded(&mut transport, gang.threads, window, m.until)
            .map_err(|e| e.to_string())?;
        Ok((sim.shard_fingerprint(w.me, w.n), stats))
    };
    let sequential = || {
        let mut sim = sweep::build(m, key).map_err(usage)?;
        let results = sim.run(m.sched, m.until);
        Ok((sim.state_fingerprint(), results.stats.committed, 0))
    };
    model_cmd(spec, "mix", local, shard_run, sequential)
}

fn dump_json(path: &str, records: &[sweep::RunRecord]) -> Outcome {
    #[derive(serde::Serialize)]
    struct Rec<'a> {
        net: &'a str,
        workload: String,
        placement: &'a str,
        routing: &'a str,
        apps: &'a [sweep::AppOutcome],
        global_bytes: u64,
        local_bytes: u64,
        committed_events: u64,
        wall_seconds: f64,
    }
    let out: Vec<Rec> = records
        .iter()
        .map(|r| Rec {
            net: r.key.net.label(),
            workload: r.key.workload.label(),
            placement: r.key.placement.label(),
            routing: r.key.routing.label(),
            apps: &r.apps,
            global_bytes: r.link_load.global_bytes,
            local_bytes: r.link_load.local_bytes,
            committed_events: r.stats.committed,
            wall_seconds: r.stats.wall_seconds,
        })
        .collect();
    write_file(path, &serde_json::to_string_pretty(&out).unwrap(), "JSON")?;
    eprintln!("wrote {path}");
    Ok(())
}
