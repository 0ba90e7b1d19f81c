//! The benchmark's workloads: which paper mix, on which network, at which
//! run length, and how the parallel probes run the same model.

use codes::SimulationBuilder;
use dragonfly::{DragonflyConfig, FlowControl, Routing, Topology};
use harness::sweep::{Net, SweepConfig};
use placement::Placement;
use ross::{QueueKind, Scheduler, SimDuration};
use workloads::{AppConfig, Profile};

/// Worker threads of the `async` probe and processes of the gang probe:
/// the host's 2 cores, one simulation at a time.
pub const ASYNC_THREADS: usize = 2;
pub const SHARDS: usize = 2;
/// The gang probe's payload divisor: a gang run costs 10× or more a
/// sequential run of the same model, so it runs a smaller one (~210k
/// events for W3, ~300k for W1 on the 2D dragonfly).
const GANG_SCALE: i64 = 1024;

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Table III workload number.
    pub mix: u8,
    pub net: Net,
    pub placement: Placement,
    pub routing: Routing,
    /// Credit/VC flow control instead of busy-until links.
    pub credit: bool,
    pub iters: i64,
    pub scale: i64,
}

/// Every workload, Quick profile, sequential scheduler. Sizes keep one
/// run well under a second, so a measurement holds many runs, and one
/// traced run within a few hundred MB of trace records.
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "w3-seq",
        mix: 3,
        net: Net::OneD,
        placement: Placement::RandomGroups,
        routing: Routing::Adaptive,
        credit: false,
        iters: 1,
        scale: 64,
    },
    Spec {
        name: "w1-2d-credit",
        mix: 1,
        net: Net::TwoD,
        placement: Placement::RandomRouters,
        routing: Routing::Minimal,
        credit: true,
        iters: 1,
        scale: 64,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn net_config(&self) -> DragonflyConfig {
        let mut cfg = self.net.config(Profile::Quick);
        if self.credit {
            cfg.flow = FlowControl::credit_default();
        }
        cfg
    }

    /// Skeleton translation: the coNCePTuaL parse/sema plus Union translate.
    pub fn apps(&self) -> Vec<AppConfig> {
        workloads::workload(self.mix, Profile::Quick, self.iters, self.scale)
    }

    /// The model builder without jobs — the same settings `union-exp mix`
    /// uses, so the gang and the in-process reference build one model.
    pub fn builder(&self, seed: u64) -> SimulationBuilder {
        SimulationBuilder::new(self.net_config())
            .routing(self.routing)
            .placement(self.placement)
            .seed(seed)
            .queue(QueueKind::default())
    }

    /// The model the gang probe runs: this mix at [`GANG_SCALE`], with
    /// busy-until links because `union-exp mix` has no flow-control flag.
    pub fn gang_model(&self) -> Spec {
        Spec { credit: false, scale: GANG_SCALE, ..*self }
    }

    fn sweep_config(&self, seed: u64) -> SweepConfig {
        let mut cfg = SweepConfig::quick();
        cfg.iters = self.iters;
        cfg.scale = self.scale;
        cfg.seed = seed;
        cfg.nets = vec![self.net];
        cfg.placements = vec![self.placement];
        cfg.routings = vec![self.routing];
        cfg.workloads = vec![self.mix];
        cfg.baselines = false;
        cfg.flow = self.net_config().flow;
        cfg
    }

    /// The model's smallest cross-partition delay: the widest lookahead
    /// window a parallel run of it can use.
    fn min_window_ns(&self) -> Result<u64, String> {
        let graph = harness::lint::model_graph(&Topology::build(self.net_config()));
        let (window, _) = graph
            .min_cross_partition_delay()
            .ok_or_else(|| format!("{}: model has a single partition", self.name))?;
        Ok(window)
    }

    /// `async:2:L` for this model, with `L` accepted by the union-lint
    /// check `union-exp` runs before a parallel run.
    pub fn async_scheduler(&self, seed: u64) -> Result<Scheduler, String> {
        let lookahead = SimDuration::from_ns(self.min_window_ns()?);
        let mut cfg = self.sweep_config(seed);
        cfg.sched = Scheduler::ConservativeAsync { threads: ASYNC_THREADS, lookahead };
        accept(self, harness::lint::check_sched_lookahead(&cfg))?;
        Ok(cfg.sched)
    }

    /// The `shard:2:1:L` window for this model, accepted by union-lint.
    pub fn shard_window_ns(&self, seed: u64) -> Result<u64, String> {
        let window = self.min_window_ns()?;
        let cfg = self.sweep_config(seed);
        accept(self, harness::lint::check_shard_lookahead(&cfg, SHARDS, 1, window))?;
        Ok(window)
    }

    /// `union-exp mix` arguments running this model as the gang.
    pub fn mix_args(&self, seed: u64, window_ns: u64) -> Vec<String> {
        assert!(!self.credit, "union-exp mix has no flow-control flag");
        let net = match self.net {
            Net::OneD => "1d",
            Net::TwoD => "2d",
        };
        [
            "mix",
            "--workload",
            &self.mix.to_string(),
            "--profile",
            "quick",
            "--iters",
            &self.iters.to_string(),
            "--scale",
            &self.scale.to_string(),
            "--seed",
            &seed.to_string(),
            "--net",
            net,
            "--placement",
            self.placement.label(),
            "--routing",
            self.routing.label(),
            "--queue",
            QueueKind::default().label(),
            "--sched",
            &format!("shard:{SHARDS}:1:{window_ns}"),
            "--shard-no-verify",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

fn accept(spec: &Spec, report: conceptual::Report) -> Result<(), String> {
    if report.has_errors() {
        return Err(format!("{}: union-lint rejects the lookahead window:\n{report}", spec.name));
    }
    Ok(())
}
