//! `union-exp`'s command line, declared once. [`FLAGS`] is the flag
//! table — name, the subcommands that take it, value kind with its
//! allowed values or range, one-line help — and [`parse`] checks an argv
//! against it and assembles a [`RunSpec`]. An unknown, repeated or
//! value-less flag, a value outside the declared set and a companion
//! flag without its partner are [`UsageError`]s: nothing is ignored or
//! defaulted silently. [`usage`] renders the same table.

use crate::live::LiveOpts;
use crate::shard::{PholdParams, ShardSpec, PHOLD_MIN_DELAY_NS};
use crate::sweep::{Net, SweepConfig};
use dragonfly::{FlowControl, Routing};
use placement::Placement;
use ross::shard::CheckpointSpec;
use ross::{OptimisticConfig, QueueKind, Scheduler, SimDuration, SimTime};
use std::fmt::Write;
use std::path::PathBuf;
use workloads::Profile;
use Kind::{Choice, FileN, Int, List, Sched, Switch, Text};

/// What a flag takes.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Nothing: the flag alone is the setting.
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// One of these words (case-insensitive).
    Choice(&'static [&'static str]),
    /// A comma-separated list of these words.
    List(&'static [&'static str]),
    /// Any text, shown as this placeholder.
    Text(&'static str),
    /// `FILE[:N]` with `N >= 1`: the placeholder and what `N` is.
    FileN(&'static str, &'static str),
    /// A scheduler spec of one of these kinds (`seq`, `opt`, `par`,
    /// `async`, `shard`).
    Sched(&'static [&'static str]),
}

/// One row of the flag table.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    pub name: &'static str,
    /// The [`Command::key`]s of the subcommands that take the flag,
    /// space-separated.
    pub cmds: &'static str,
    pub kind: Kind,
    pub help: &'static str,
}

impl Flag {
    fn taken_by(&self, c: &Command) -> bool {
        self.cmds.split(' ').any(|k| k == c.key)
    }
}

const fn flag(name: &'static str, cmds: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { name, cmds, kind, help }
}

/// One subcommand, with its aliases.
#[derive(Clone, Copy, Debug)]
pub struct Command {
    /// What the flag table calls it.
    pub key: &'static str,
    pub names: &'static [&'static str],
    /// The positional operand's placeholder, and whether it is required.
    pub operand: Option<(&'static str, bool)>,
    pub about: &'static str,
}

const I64: u64 = i64::MAX as u64;
const U32: u64 = u32::MAX as u64;
const US: u64 = u64::MAX / 1_000;
const MAX: u64 = u64::MAX;

/// Every subcommand, in usage order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { key: "table1", names: &["table1"], operand: None,
              about: "trace replay vs Union on one workload (Table I)" },
    Command { key: "table2", names: &["table2"], operand: None,
              about: "system configurations (Table II)" },
    Command { key: "validate", names: &["validate", "table4", "table5", "fig6"], operand: None,
              about: "AlexNet application vs Union skeleton (Tables IV and V, Fig 6)" },
    Command { key: "sweep", names: &["fig7", "fig9", "table6", "all"], operand: None,
              about: "the hybrid-workload sweep: latency, communication time, link loads" },
    Command { key: "fig8", names: &["fig8"], operand: None,
              about: "traffic on AlexNet's routers, RG vs RR (Workload3, 1D, ADP)" },
    Command { key: "skeleton", names: &["skeleton"], operand: Some(("[NAME]", false)),
              about: "print the generated C skeleton of a workload (default alexnet)" },
    Command { key: "lint", names: &["lint"], operand: None,
              about: "union-lint static analysis; exit 0 clean, 1 findings, 2 usage error" },
    Command { key: "trace", names: &["trace"], operand: None,
              about: "critical-path analysis of an exported Chrome trace" },
    Command { key: "phold", names: &["phold"], operand: None,
              about: "checkpointable PHOLD, in one process or a shard gang" },
    Command { key: "mix", names: &["mix"], operand: None,
              about: "one workload mix (no sweep), in one process or a shard gang" },
    Command { key: "top", names: &["top"], operand: Some(("ADDR|FILE", true)),
              about: "summary of a live run, from its endpoint or a telemetry JSONL file" },
];

/// Every flag. A name has one row per group of subcommands when its
/// help or range differs between them.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("--ranks", "table1", Int(1, U32), "MPI ranks (default 64)"),
    flag("--iters", "table1", Int(0, I64), "iterations (default 5)"),
    flag("--ranks", "validate", Int(1, U32), "MPI ranks (default 512)"),
    flag("--fixture", "lint", Text("NAME"), "lint one seeded-bug fixture, alone"),
    flag("--file", "lint", Text("PROG.ncptl"), "lint one DSL program, alone or with --ranks"),
    flag("--ranks", "lint", Int(1, U32), "ranks of the --file program (default 4)"),
    flag("--analyze", "trace", Text("FILE.json"), "the trace to analyze (required)"),
    flag("--sched", "sweep fig8 lint", Sched(&["seq", "opt", "par", "async"]),
         "T threads, L ns lookahead, B batch, I snapshot interval (default seq)"),
    flag("--sched", "phold mix", Sched(&["seq", "shard"]),
         "N processes of T threads, L ns lookahead (default seq)"),
    flag("--lps", "phold", Int(1, U32), "logical processes (default 16)"),
    flag("--horizon-us", "phold", Int(0, US), "virtual time the LPs keep sending (default 30)"),
    flag("--workload", "mix", Int(1, 3), "Table III mix (default 3)"),
    flag("--net", "mix", Choice(&["1d", "2d"]), "dragonfly network (default 1d)"),
    flag("--placement", "mix", Choice(&["RN", "RR", "RG"]), "job placement (default RG)"),
    flag("--routing", "mix", Choice(&["MIN", "ADP"]), "routing (default ADP)"),
    flag("--profile", "sweep fig8 lint mix", Choice(&["quick", "paper"]),
         "x16-scaled systems or the full Table II ones (default quick)"),
    flag("--iters", "sweep fig8 lint mix", Int(0, I64), "iterations per application (default 2)"),
    flag("--scale", "sweep fig8 lint mix", Int(0, I64),
         "payload divisor (default 16; 1 under --profile paper)"),
    flag("--seed", "sweep fig8 phold mix", Int(0, MAX), "random seed (default 42)"),
    flag("--queue", "sweep fig8 phold mix", Choice(&["heap", "ladder"]),
         "pending-event queue (default ladder)"),
    flag("--flow", "sweep fig8 lint", Choice(&["busy", "credit"]),
         "router flow control: busy-until links or credit/VC (default busy)"),
    flag("--nets", "sweep lint", List(&["1d", "2d"]), "dragonfly networks (default 1d,2d)"),
    flag("--placements", "sweep", List(&["RN", "RR", "RG"]), "job placements (default RN,RR,RG)"),
    flag("--routings", "sweep", List(&["MIN", "ADP"]), "routing algorithms (default MIN,ADP)"),
    flag("--workloads", "sweep", List(&["1", "2", "3"]), "Table III mixes (default 1,2,3)"),
    flag("--no-baselines", "sweep", Switch, "skip the runs of each application alone"),
    flag("--until-us", "phold mix", Int(0, US), "stop at this virtual time (default 0 = the end)"),
    flag("--checkpoint", "phold", FileN("FILE[:EVERY_US]", "interval"),
         "checkpoint every EVERY_US of virtual time (default 5)"),
    flag("--restore", "phold", Text("FILE"), "resume from a checkpoint"),
    flag("--allow-lint", "sweep fig8 mix", Switch,
         "run even when union-lint rejects the lookahead window"),
    flag("--shard-no-verify", "phold mix", Switch,
         "skip re-running a shard gang sequentially to verify it"),
    flag("--json", "sweep", Text("FILE"), "also write the run records as JSON"),
    flag("--telemetry", "sweep fig8 phold mix", Text("FILE"),
         "write run telemetry as JSONL, manifest first"),
    flag("--trace", "sweep fig8", FileN("FILE[:RATE]", "sample rate"),
         "export a Chrome trace; time every RATE-th handler (default 1)"),
    flag("--live", "phold mix", Text("ADDR"), "serve /metrics and /snapshot at ADDR during the run"),
    flag("--live-hold", "phold mix", Int(0, MAX), "keep the --live endpoint up MS after the run"),
    flag("--live-interval", "phold mix", Int(0, MAX), "--live sampling interval, ms (default 250)"),
];

/// A command line `union-exp` refuses; it prints the message and exits 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

/// A parsed `--sched`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedSpec {
    InProcess(Scheduler),
    Shard(ShardSpec),
}

/// Everything one `union-exp` invocation runs, parsed once.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// The subcommand as typed (`fig7`, `table4`, …).
    pub cmd: String,
    /// The arguments after the subcommand, as typed (for the manifest).
    pub args: Vec<String>,
    /// The `--sched` text as typed, `seq` by default (for the manifest).
    pub sched: String,
    /// The CODES model: the sweep's cells, or the one cell of `mix`.
    /// Also carries seed, queue, flow, until and the in-process
    /// scheduler.
    pub model: SweepConfig,
    /// `--sched shard:N:T:L`: run as a gang of N processes.
    pub shard: Option<ShardSpec>,
    /// The PHOLD model of `phold`.
    pub phold: PholdParams,
    /// `--ranks` of `table1`, `validate` and `lint --file`.
    pub ranks: u32,
    /// The positional operand (`skeleton NAME`, `top ADDR|FILE`).
    pub operand: Option<String>,
    /// `lint --fixture NAME`.
    pub fixture: Option<String>,
    /// The input file: `lint --file` or `trace --analyze`.
    pub file: Option<String>,
    pub json: Option<String>,
    pub telemetry: Option<String>,
    /// `--trace FILE[:RATE]`.
    pub trace: Option<(String, u32)>,
    pub live: Option<LiveOpts>,
    pub checkpoint: Option<CheckpointSpec>,
    pub restore: Option<PathBuf>,
    pub allow_lint: bool,
    /// Verify a shard gang against a sequential run (no
    /// `--shard-no-verify`).
    pub verify: bool,
}

/// A validated flag value. A choice is a one-word list.
#[derive(Clone, Debug)]
enum Value {
    On,
    Int(u64),
    Words(Vec<&'static str>),
    Text(String),
    FileN(String, Option<u64>),
    Sched(SchedSpec),
}

/// The flags of one command line: name, value as typed, checked value.
struct Given(Vec<(&'static str, String, Value)>);

impl Given {
    fn get(&self, name: &str) -> Option<&(&'static str, String, Value)> {
        self.0.iter().find(|(n, ..)| *n == name)
    }
    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
    fn int(&self, name: &str, default: u64) -> u64 {
        let Some((.., Value::Int(n))) = self.get(name) else { return default };
        *n
    }
    fn words(&self, name: &str) -> Option<&[&'static str]> {
        let Some((.., Value::Words(w))) = self.get(name) else { return None };
        Some(w)
    }
    fn word(&self, name: &str, default: &'static str) -> &'static str {
        self.words(name).map_or(default, |w| w[0])
    }
    fn text(&self, name: &str) -> Option<String> {
        let Some((.., Value::Text(t))) = self.get(name) else { return None };
        Some(t.clone())
    }
    fn file_n(&self, name: &str, default: u64) -> Option<(String, u64)> {
        let Some((.., Value::FileN(path, n))) = self.get(name) else { return None };
        Some((path.clone(), n.unwrap_or(default)))
    }
}

/// Parse the arguments after subcommand `cmd`. Pure: no file, socket or
/// environment access.
pub fn parse(cmd: &str, argv: &[String]) -> Result<RunSpec, UsageError> {
    let Some(c) = COMMANDS.iter().find(|c| c.names.contains(&cmd)) else {
        let what = if cmd.is_empty() {
            "no command given".to_string()
        } else {
            format!("unknown command `{cmd}`")
        };
        return Err(UsageError(format!("{what}\n{}", usage())));
    };
    let mut given = Given(Vec::new());
    let mut operand = None;
    let mut toks = argv.iter();
    while let Some(tok) = toks.next() {
        if !tok.starts_with("--") {
            if c.operand.is_none() || operand.is_some() {
                return Err(UsageError(format!("{cmd}: unexpected argument `{tok}`")));
            }
            operand = Some(tok.clone());
            continue;
        }
        let Some(f) = FLAGS.iter().find(|f| f.name == tok && f.taken_by(c)) else {
            return Err(UsageError(format!(
                "{cmd} does not take {tok} (run union-exp alone for usage)"
            )));
        };
        if given.has(f.name) {
            return Err(UsageError(format!("{tok} given twice")));
        }
        let (raw, value) = match f.kind {
            Switch => (String::new(), Value::On),
            _ => match toks.next().filter(|v| !v.starts_with("--")) {
                Some(v) => (v.clone(), check(f, v, cmd).map_err(UsageError)?),
                None => return Err(UsageError(format!("flag {tok} needs a value ({})", meta(f)))),
            },
        };
        given.0.push((f.name, raw, value));
    }
    if let Some((placeholder, true)) = c.operand {
        if operand.is_none() {
            return Err(UsageError(format!("{cmd} needs {placeholder}")));
        }
    }
    assemble(cmd, argv, given, operand).map_err(UsageError)
}

/// Check one flag value against its declared kind.
fn check(f: &Flag, v: &str, cmd: &str) -> Result<Value, String> {
    let word = |words: &'static [&'static str], s: &str| {
        words.iter().copied().find(|w| w.eq_ignore_ascii_case(s.trim()))
    };
    let bad = || format!("bad value `{v}` for {} (expected {})", f.name, meta(f));
    match f.kind {
        Switch => Ok(Value::On),
        Int(lo, hi) => {
            let n = v.parse::<u64>().ok().filter(|n| (lo..=hi).contains(n));
            let want =
                if hi >= U32 { format!("an integer >= {lo}") } else { format!("{lo}..={hi}") };
            n.map(Value::Int)
                .ok_or_else(|| format!("bad value `{v}` for {} (expected {want})", f.name))
        }
        Choice(words) => word(words, v).map(|w| Value::Words(vec![w])).ok_or_else(bad),
        List(words) => v
            .split(',')
            .map(|s| word(words, s).ok_or_else(|| format!("bad item `{s}` in {} {v}", f.name)))
            .collect::<Result<_, _>>()
            .map(Value::Words)
            .map_err(|e| format!("{e} (expected a list of {})", meta(f))),
        Text(_) => Ok(Value::Text(v.to_string())),
        // A trailing `:N` is the number; any other `:` stays in the path.
        FileN(_, what) => match v.rsplit_once(':') {
            Some((p, n)) if !p.is_empty() && n.parse::<u64>().is_ok() => {
                let n = n.parse::<u64>().ok().filter(|n| (1..=US).contains(n));
                let bad = || format!("{} {what} must be in 1..={US} in `{v}`", f.name);
                n.map(|n| Value::FileN(p.to_string(), Some(n))).ok_or_else(bad)
            }
            _ => Ok(Value::FileN(v.to_string(), None)),
        },
        Sched(kinds) => parse_sched(v, cmd, kinds).map(Value::Sched),
    }
}

/// The placeholder form of each scheduler kind.
fn sched_form(kind: &str) -> &'static str {
    match kind {
        "seq" => "seq",
        "opt" => "opt:T[:B:I]",
        "par" => "par:T:L",
        "async" => "async:T:L",
        _ => "shard:N:T:L",
    }
}

/// Parse a `--sched` spec of one of `kinds`: `seq`, `opt:T`,
/// `opt:T:B:I`, `par:T:L`, `async:T:L` or `shard:N:T:L` — `T` worker
/// threads, `L` ns lookahead window, `B` optimistic batch, `I` snapshot
/// interval, `N` processes. `cmd` names the command in the error when
/// the kind is not one it runs.
pub fn parse_sched(s: &str, cmd: &str, kinds: &[&str]) -> Result<SchedSpec, String> {
    let mut parts = s.split(':');
    let kind = parts.next().unwrap_or("");
    let nums: Vec<&str> = parts.collect();
    if kind == "cons" {
        return Err(format!(
            "`{s}`: the cons:T scheduler was retired; use par:T:L instead (par:T:1 runs the \
             same 1 ns windows, with identical results)"
        ));
    }
    if !kinds.contains(&kind) {
        let forms: Vec<&str> = kinds.iter().map(|k| sched_form(k)).collect();
        return Err(format!("{cmd} supports --sched {}, not `{s}`", forms.join(" or ")));
    }
    let num = |i: usize, what: &str, min: u64| {
        nums[i]
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= min)
            .ok_or_else(|| format!("bad {what} `{}` in scheduler spec `{s}`", nums[i]))
    };
    let lookahead = |i| num(i, "lookahead", 0).map(SimDuration::from_ns);
    Ok(match (kind, nums.len()) {
        ("seq", 0) => SchedSpec::InProcess(Scheduler::Sequential),
        ("opt", 1) => SchedSpec::InProcess(Scheduler::Optimistic {
            threads: num(0, "thread count", 1)? as usize,
            config: OptimisticConfig::default(),
        }),
        ("opt", 3) => SchedSpec::InProcess(Scheduler::Optimistic {
            threads: num(0, "thread count", 1)? as usize,
            config: OptimisticConfig {
                batch: num(1, "batch", 1)? as usize,
                snapshot_interval: num(2, "snapshot interval", 1)?,
            },
        }),
        ("par", 2) => SchedSpec::InProcess(Scheduler::ConservativeParallel {
            threads: num(0, "thread count", 1)? as usize,
            lookahead: lookahead(1)?,
        }),
        ("async", 2) => SchedSpec::InProcess(Scheduler::ConservativeAsync {
            threads: num(0, "thread count", 1)? as usize,
            lookahead: lookahead(1)?,
        }),
        ("shard", 3) => SchedSpec::Shard(ShardSpec {
            shards: num(0, "shard count", 1)? as usize,
            threads: num(1, "thread count", 1)? as usize,
            lookahead_ns: num(2, "lookahead", 1)?,
        }),
        _ => return Err(format!("scheduler spec `{s}` must be {}", sched_form(kind))),
    })
}

/// Build the [`RunSpec`] from checked flags, enforcing the rules that
/// span flags.
fn assemble(
    cmd: &str,
    argv: &[String],
    g: Given,
    operand: Option<String>,
) -> Result<RunSpec, String> {
    let mut m = SweepConfig::quick();
    if g.word("--profile", "quick") == "paper" {
        m.profile = Profile::Paper;
        m.scale = 1;
    }
    m.iters = g.int("--iters", if cmd == "table1" { 5 } else { 2 }) as i64;
    m.scale = g.int("--scale", m.scale as u64) as i64;
    m.seed = g.int("--seed", m.seed);
    m.queue = QueueKind::parse(g.word("--queue", QueueKind::default().label()))?;
    if g.word("--flow", "busy") == "credit" {
        m.flow = FlowControl::credit_default();
    }
    m.baselines = !g.has("--no-baselines");
    let nets = |ws: &[&str]| ws.iter().map(|w| net(w)).collect();
    let placements = |ws: &[&str]| ws.iter().map(|w| placement(w)).collect();
    let routings = |ws: &[&str]| ws.iter().map(|w| routing(w)).collect();
    if let Some(ws) = g.words("--nets") {
        m.nets = nets(ws);
    }
    if let Some(ws) = g.words("--placements") {
        m.placements = placements(ws);
    }
    if let Some(ws) = g.words("--routings") {
        m.routings = routings(ws);
    }
    if let Some(ws) = g.words("--workloads") {
        m.workloads = ws.iter().map(|w| w.parse().expect("declared digits")).collect();
    }
    let until_us = g.int("--until-us", 0);
    m.until = if until_us == 0 { SimTime::MAX } else { SimTime::from_us(until_us) };
    let shard = match g.get("--sched") {
        Some((.., Value::Sched(SchedSpec::InProcess(s)))) => {
            m.sched = *s;
            None
        }
        Some((.., Value::Sched(SchedSpec::Shard(s)))) => Some(*s),
        _ => None,
    };
    match cmd {
        "mix" => {
            m.workloads = vec![g.int("--workload", 3) as u8];
            m.nets = nets(&[g.word("--net", "1d")]);
            m.placements = placements(&[g.word("--placement", "RG")]);
            m.routings = routings(&[g.word("--routing", "ADP")]);
            m.baselines = false;
        }
        "fig8" => {
            m.window_ns = 500_000; // the paper's 0.5 ms window
            m.keep_results = true;
            m.baselines = false;
            m.workloads = vec![3];
            m.nets = vec![Net::OneD];
            m.routings = vec![Routing::Adaptive];
            m.placements = vec![Placement::RandomGroups, Placement::RandomRouters];
        }
        _ => {}
    }

    for companion in ["--live-hold", "--live-interval"] {
        if g.has(companion) && !g.has("--live") {
            return Err(format!("{companion} needs --live"));
        }
    }
    if g.has("--shard-no-verify") && shard.is_none() {
        return Err("--shard-no-verify needs --sched shard:N:T:L".to_string());
    }
    if let Some(s) = shard.filter(|s| cmd == "phold" && s.lookahead_ns > PHOLD_MIN_DELAY_NS) {
        return Err(format!(
            "phold's minimum event delay is {PHOLD_MIN_DELAY_NS} ns; a {} ns lookahead window \
             would violate causality",
            s.lookahead_ns
        ));
    }
    for (alone, with) in [("--fixture", "--fixture"), ("--file", "--ranks")] {
        let other = g.0.iter().map(|(n, ..)| *n).find(|&n| n != alone && n != with);
        if let (true, Some(other)) = (g.has(alone), other) {
            return Err(format!("{alone} cannot be combined with {other}"));
        }
    }
    if cmd == "lint" && g.has("--ranks") && !g.has("--file") {
        return Err("--ranks needs --file".to_string());
    }
    if cmd == "trace" && !g.has("--analyze") {
        return Err("trace needs --analyze FILE.json".to_string());
    }

    let live = g.text("--live").map(|addr| LiveOpts {
        addr,
        hold_ms: g.int("--live-hold", 0),
        interval_ms: g.int("--live-interval", 250),
    });
    let checkpoint = g.file_n("--checkpoint", 5).map(|(path, every_us)| CheckpointSpec {
        path: PathBuf::from(path),
        every: SimDuration::from_us(every_us),
    });
    let default_ranks = match cmd {
        "table1" => 64,
        "lint" => 4,
        _ => 512,
    };
    Ok(RunSpec {
        cmd: cmd.to_string(),
        args: argv.to_vec(),
        sched: g.get("--sched").map_or("seq", |(_, raw, _)| raw).to_string(),
        phold: PholdParams {
            lps: g.int("--lps", 16) as u32,
            horizon_ns: g.int("--horizon-us", 30) * 1_000,
            seed: m.seed,
            queue: m.queue,
        },
        model: m,
        shard,
        ranks: g.int("--ranks", default_ranks) as u32,
        operand,
        fixture: g.text("--fixture"),
        file: g.text("--file").or_else(|| g.text("--analyze")),
        json: g.text("--json"),
        telemetry: g.text("--telemetry"),
        trace: g.file_n("--trace", 1).map(|(p, rate)| (p, rate.min(U32) as u32)),
        live,
        checkpoint,
        restore: g.text("--restore").map(PathBuf::from),
        allow_lint: g.has("--allow-lint"),
        verify: !g.has("--shard-no-verify"),
    })
}

fn net(w: &str) -> Net {
    [Net::OneD, Net::TwoD].into_iter().find(|n| n.label().eq_ignore_ascii_case(w)).expect("net")
}

fn placement(w: &str) -> Placement {
    Placement::all().iter().copied().find(|p| p.label() == w).expect("declared placement")
}

fn routing(w: &str) -> Routing {
    [Routing::Minimal, Routing::Adaptive].into_iter().find(|r| r.label() == w).expect("routing")
}

/// A flag's value placeholder, as usage shows it.
fn meta(f: &Flag) -> String {
    match f.kind {
        Switch => String::new(),
        Int(..) => "N".to_string(),
        Choice(words) => words.join("|"),
        List(words) => words.join(","),
        Text(p) | FileN(p, _) => p.to_string(),
        Sched(kinds) => kinds.iter().map(|k| sched_form(k)).collect::<Vec<_>>().join("|"),
    }
}

/// The usage text, rendered from the flag tables.
pub fn usage() -> String {
    let mut out = String::from("usage: union-exp <command> [flags]; any usage error exits 2\n");
    for c in COMMANDS {
        let operand = c.operand.map(|(p, _)| format!(" {p}")).unwrap_or_default();
        let _ = writeln!(out, "\n{}{operand}  — {}", c.names.join("|"), c.about);
        for f in FLAGS.iter().filter(|f| f.taken_by(c)) {
            let lhs = format!("{} {}", f.name, meta(f));
            let sep = if lhs.len() < 32 { String::new() } else { format!("\n{:33}", "") };
            let _ = writeln!(out, "  {lhs:<32}{sep} {}", f.help);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse_line(line: &str) -> Result<RunSpec, UsageError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (cmd, rest) = argv.split_first().map_or(("", &[][..]), |(c, r)| (c.as_str(), r));
        parse(cmd, rest)
    }

    #[test]
    fn every_flag_row_names_real_commands_once() {
        for f in FLAGS {
            for key in f.cmds.split(' ') {
                assert!(
                    COMMANDS.iter().any(|c| c.key == key),
                    "{}: unknown command `{key}`",
                    f.name
                );
            }
        }
        for c in COMMANDS {
            let mut names: Vec<&str> =
                FLAGS.iter().filter(|f| f.taken_by(c)).map(|f| f.name).collect();
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "{}: a flag has two rows", c.key);
        }
        let text = usage();
        assert!(FLAGS.iter().all(|f| text.contains(f.name)));
        assert!(COMMANDS.iter().flat_map(|c| c.names).all(|n| text.contains(n)));
    }

    #[test]
    fn mix_is_one_sweep_cell() {
        let spec = parse_line("mix --workload 2 --net 2D --placement rr --routing MIN").unwrap();
        let m = &spec.model;
        assert_eq!(m.nets, vec![Net::TwoD]);
        assert_eq!(m.placements, vec![Placement::RandomRouters]);
        assert_eq!(m.routings, vec![Routing::Minimal]);
        assert_eq!(m.workloads, vec![2]);
        assert!(!m.baselines);
        assert_eq!(spec.shard, None);
        assert_eq!(spec.sched, "seq");
    }

    #[test]
    fn sweep_defaults_match_the_quick_config() {
        let spec = parse_line("fig7").unwrap();
        let q = SweepConfig::quick();
        let m = &spec.model;
        assert_eq!((m.iters, m.scale, m.seed), (q.iters, q.scale, q.seed));
        assert_eq!((&m.nets, &m.placements, &m.workloads), (&q.nets, &q.placements, &q.workloads));
        assert_eq!((m.sched, m.until, m.baselines), (q.sched, q.until, q.baselines));
        let paper = parse_line("fig9 --profile paper").unwrap().model;
        assert_eq!((paper.profile, paper.scale), (Profile::Paper, 1));
        assert_eq!(parse_line("table1").unwrap().model.iters, 5);
        assert_eq!(parse_line("validate").unwrap().ranks, 512);
    }

    #[test]
    fn schedulers_are_checked_against_the_command() {
        let sched = |line: &str| parse_line(line).map(|s| (s.model.sched, s.shard));
        assert_eq!(
            sched("fig7 --sched par:4:100").unwrap().0,
            Scheduler::ConservativeParallel { threads: 4, lookahead: SimDuration::from_ns(100) }
        );
        let gang = ShardSpec { shards: 2, threads: 1, lookahead_ns: 50 };
        assert_eq!(sched("phold --sched shard:2:1:50").unwrap().1, Some(gang));
        for bad in ["fig7 --sched shard:2:1:50", "mix --sched async:2:100", "fig7 --sched opt:2:8"]
        {
            assert!(sched(bad).is_err(), "{bad} accepted");
        }
        assert!(sched("table6 --sched cons:2").unwrap_err().0.contains("par:T:L"));
    }

    #[test]
    fn numeric_suffix_of_a_file_flag_is_split_off_only_when_numeric() {
        let trace = |line: &str| parse_line(line).map(|s| s.trace.unwrap());
        assert_eq!(trace("fig7 --trace t.json").unwrap(), ("t.json".to_string(), 1));
        assert_eq!(trace("fig7 --trace t.json:100").unwrap(), ("t.json".to_string(), 100));
        assert_eq!(trace("fig7 --trace a:b.json").unwrap(), ("a:b.json".to_string(), 1));
        assert!(trace("fig7 --trace t.json:0").is_err());
        let ck = parse_line("phold --checkpoint ck.bin:7").unwrap().checkpoint.unwrap();
        assert_eq!((ck.path, ck.every), (PathBuf::from("ck.bin"), SimDuration::from_us(7)));
        let ck = parse_line("phold --checkpoint ck.bin").unwrap().checkpoint.unwrap();
        assert_eq!(ck.every, SimDuration::from_us(5));
    }

    /// The `union-exp` argument lists in `text`: markdown code spans,
    /// which may wrap lines, and shell lines running the binary by path
    /// or through `cargo run --bin` (with `\` continuations joined) up to
    /// the first shell operator or comment.
    fn command_lines(text: &str) -> Vec<String> {
        let text = text.replace("\\\n", " ");
        let mut out = Vec::new();
        for (at, _) in text.match_indices("union-exp") {
            let after = &text[at + "union-exp".len()..];
            if !after.starts_with(' ') {
                continue;
            }
            let in_span = text[..at].ends_with('`');
            let end = match () {
                _ if in_span => after.find('`'),
                _ if text[..at].ends_with('/') || text[..at].ends_with("--bin ") => {
                    after.find('\n')
                }
                _ => continue,
            };
            let tokens: Vec<&str> = after[..end.unwrap_or(after.len())]
                .split_whitespace()
                .skip_while(|t| *t == "--")
                .take_while(|t| !["|", ">", "2>", "&", "#", ";"].contains(t))
                .collect();
            if !tokens.is_empty() {
                out.push(tokens.join(" "));
            }
        }
        out
    }

    /// Every `union-exp` command line in the docs and CI, and the gang
    /// probe's, parses: a stale flag fails here rather than at run time.
    #[test]
    fn documented_command_lines_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut lines = Vec::new();
        for doc in ["README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
            let found = command_lines(&text);
            assert!(found.len() >= 5, "{doc}: only {found:?}");
            lines.extend(found.into_iter().map(|l| (doc, l)));
        }
        // The argv `perfbench/src/spec.rs::mix_args` builds for each
        // benchmark workload's gang model, plus the `--telemetry FILE`
        // that `perfbench/src/run.rs::gang` appends.
        for (w, net, placement, routing) in [(3, "1d", "RG", "ADP"), (1, "2d", "RR", "MIN")] {
            let line = format!(
                "mix --workload {w} --profile quick --iters 1 --scale 1024 --seed 1 --net {net} \
                 --placement {placement} --routing {routing} --queue ladder --sched shard:2:1:100 \
                 --shard-no-verify --telemetry gang.jsonl"
            );
            lines.push(("perfbench", line));
        }
        for (doc, line) in &lines {
            if let Err(e) = parse_line(line) {
                panic!("{doc}: `union-exp {line}` is refused: {}", e.0);
            }
        }
    }

    /// Tokens random command lines are drawn from: every flag, values of
    /// every kind, and junk.
    const POOL: &[&str] = &[
        "0",
        "1",
        "3",
        "7",
        "64",
        "-1",
        "abc",
        "",
        "quick",
        "paper",
        "PAPER",
        "1d",
        "2d,1D",
        "1d,",
        "RG",
        "RN,RR",
        "XX",
        "MIN",
        "ADP,MIN",
        "heap",
        "ladder",
        "busy",
        "credit",
        "seq",
        "opt:2",
        "opt:2:8:2",
        "opt:2:8",
        "par:2:100",
        "async:2:0",
        "shard:2:1:50",
        "shard:2:1:51",
        "shard:0:1:1",
        "cons:2",
        "f.json",
        "f.json:0",
        "f.json:5",
        "a:b",
        "127.0.0.1:0",
        "alexnet",
        "--",
        "--wat",
        "-x",
    ];

    fn token(i: u64) -> &'static str {
        let i = i as usize % (FLAGS.len() + POOL.len());
        FLAGS.get(i).map_or_else(|| POOL[i - FLAGS.len()], |f| f.name)
    }

    /// A value `f` accepts.
    fn valid(f: &Flag, i: u64) -> &'static str {
        match f.kind {
            Choice(words) | List(words) => words[i as usize % words.len()],
            Int(..) => "1",
            Text(_) => "f.json",
            FileN(..) => "f.json:5",
            Sched(_) | Switch => "seq",
        }
    }

    /// A random command line for `c`: mostly its own flags with valid
    /// values, some tokens from anywhere.
    fn argv(c: &Command, seed: u64, len: usize) -> Vec<String> {
        let own: Vec<&Flag> = FLAGS.iter().filter(|f| f.taken_by(c)).collect();
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut argv = Vec::new();
        for _ in 0..len {
            if own.is_empty() || next() % 4 == 0 {
                argv.push(token(next()).to_string());
                continue;
            }
            let f = own[next() as usize % own.len()];
            argv.push(f.name.to_string());
            if !matches!(f.kind, Switch) {
                argv.push(valid(f, next()).to_string());
            }
        }
        argv
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn parse_is_total_and_consumes_every_token(
            which in 0usize..64, seed in 0u64..u64::MAX, len in 0usize..6, extra in 0u64..4096,
        ) {
            let c = &COMMANDS[which % COMMANDS.len()];
            let cmd = c.names[which % c.names.len()];
            let argv = argv(c, seed, len);
            // Property 1: no panic, whatever the argv.
            let Ok(spec) = parse(cmd, &argv) else { return Ok(()) };
            // Property 2: every token is a flag of this command, its
            // value, or the one operand.
            prop_assert_eq!(&spec.args, &argv);
            let mut i = 0;
            while i < argv.len() {
                match FLAGS.iter().find(|f| f.name == argv[i] && f.taken_by(c)) {
                    Some(f) => i += if matches!(f.kind, Switch) { 1 } else { 2 },
                    None => {
                        prop_assert_eq!(spec.operand.as_deref(), Some(argv[i].as_str()));
                        i += 1;
                    }
                }
            }
            prop_assert_eq!(i, argv.len());
            // Property 3: a token outside this command's table is refused.
            let stranger = token(extra);
            let declared = FLAGS.iter().any(|f| f.name == stranger && f.taken_by(c));
            let operand_slot = c.operand.is_some() && spec.operand.is_none();
            if !declared && (stranger.starts_with("--") || !operand_slot) {
                let mut longer = argv.clone();
                longer.push(stranger.to_string());
                prop_assert!(parse(cmd, &longer).is_err(), "{cmd} {longer:?} accepted");
            }
        }
    }
}
