//! Shared run configuration and the machine-readable outcome of one
//! scenario run.

use hypersub_core::invariant::Verdict;
use hypersub_core::prelude::*;
use hypersub_core::report::Json;
use hypersub_workload::{AttributeSpec, WorkloadSpec};

/// How big a scenario run should be. `Quick` is sized for CI smoke
/// (a few seconds of wall clock even in debug builds); `Full` stretches
/// the same schedule for overnight soaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized run.
    Quick,
    /// Long-horizon run.
    Full,
}

impl Tier {
    /// Stable lowercase name (used in JSON and file stamps).
    pub fn as_str(&self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Full => "full",
        }
    }
}

/// Parameters of one scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Run size.
    pub tier: Tier,
    /// Master seed: drives topology, workload, fault schedule.
    pub seed: u64,
    /// When false, the scenario's paired defense mechanism (retries,
    /// healing, or load balancing) is disabled — the harness must then
    /// report the designated invariant as *failed*, proving the verdicts
    /// actually bite.
    pub defense: bool,
}

impl RunConfig {
    /// A quick-tier run with the defense enabled.
    pub fn quick(seed: u64) -> Self {
        Self {
            tier: Tier::Quick,
            seed,
            defense: true,
        }
    }

    /// The same run with the defense disabled.
    pub fn without_defense(self) -> Self {
        Self {
            defense: false,
            ..self
        }
    }
}

/// The machine-readable outcome of one scenario run: identity, the run
/// digest (for determinism checks), delivery aggregates, and every
/// invariant verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: &'static str,
    /// Run size.
    pub tier: Tier,
    /// Master seed.
    pub seed: u64,
    /// Whether the paired defense was enabled.
    pub defense: bool,
    /// Network size.
    pub nodes: u64,
    /// Final simulated time, in microseconds.
    pub sim_time_us: u64,
    /// Simulator events processed.
    pub steps: u64,
    /// The run digest.
    pub digest: u64,
    /// Events published over the run.
    pub published: u64,
    /// Ground-truth expected `(event, subscriber)` pairs.
    pub expected: u64,
    /// Pairs actually delivered.
    pub delivered: u64,
    /// Duplicate deliveries.
    pub duplicates: u64,
    /// Every invariant checked, in scenario order.
    pub verdicts: Vec<Verdict>,
}

impl ScenarioOutcome {
    pub(crate) fn collect(
        scenario: &'static str,
        cfg: &RunConfig,
        net: &Network,
        verdicts: Vec<Verdict>,
    ) -> Self {
        let report = net.report();
        Self {
            scenario,
            tier: cfg.tier,
            seed: cfg.seed,
            defense: cfg.defense,
            nodes: report.nodes,
            sim_time_us: report.time_us,
            steps: report.steps,
            digest: report.digest,
            published: report.events.published,
            expected: report.events.expected,
            delivered: report.events.delivered,
            duplicates: report.events.duplicates,
            verdicts,
        }
    }

    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        !self.verdicts.is_empty() && self.verdicts.iter().all(|v| v.passed)
    }

    /// Looks up one verdict by invariant name.
    pub fn verdict(&self, invariant: &str) -> Option<&Verdict> {
        self.verdicts.iter().find(|v| v.invariant == invariant)
    }

    /// Serializes the outcome as a JSON document (the `Json` layout).
    pub fn to_json(&self) -> String {
        let verdicts = self.verdicts.iter().map(|v| {
            Json::object([
                ("invariant", v.invariant.as_str().into()),
                ("passed", v.passed.into()),
                ("details", v.details.as_str().into()),
            ])
        });
        Json::object([
            ("version", Json::Num(1)),
            ("scenario", self.scenario.into()),
            ("tier", self.tier.as_str().into()),
            ("seed", self.seed.into()),
            ("defense", self.defense.into()),
            ("nodes", self.nodes.into()),
            ("sim_time_us", self.sim_time_us.into()),
            ("steps", self.steps.into()),
            ("digest", Json::hex(self.digest)),
            (
                "events",
                Json::object([
                    ("published", self.published.into()),
                    ("expected", self.expected.into()),
                    ("delivered", self.delivered.into()),
                    ("duplicates", self.duplicates.into()),
                ]),
            ),
            ("passed", self.passed().into()),
            ("verdicts", Json::Arr(verdicts.collect())),
        ])
        .to_string()
    }
}

/// The single-scheme content space every scenario runs over: two
/// attributes on `[0, 100]^2` (the integration-test scheme, so scenario
/// behavior stays comparable with the acceptance tests).
pub(crate) fn scenario_registry() -> Registry {
    Registry::new(vec![SchemeDef::builder("scn")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0)])
}

/// Builds a scenario network: the `scn` scheme, uniform 10 ms links, and
/// a flight recorder big enough that quick-tier traces never evict.
pub(crate) fn scenario_network(nodes: usize, seed: u64, config: SystemConfig) -> Result<Network> {
    Network::builder(nodes)
        .registry(scenario_registry())
        .config(config)
        .latency(SimTime::from_millis(10))
        .flight_recorder(1 << 20)
        .seed(seed)
        .build()
}

/// The workload template scenarios draw publishes from: Zipf-skewed
/// values over the `scn` domain with the x-hotspot at 0.2 — the flash
/// crowd *shifts* it mid-run.
pub(crate) fn scenario_workload() -> WorkloadSpec {
    let attr = |name: &str, data_hotspot: f64| AttributeSpec {
        name: name.to_string(),
        min: 0.0,
        max: 100.0,
        data_skew: 0.9,
        data_hotspot,
        size_skew: 0.6,
        size_hotspot: 0.3,
    };
    WorkloadSpec {
        scheme_name: "scn".to_string(),
        attrs: vec![attr("x", 0.2), attr("y", 0.5)],
        subs_per_node: 0,
        events: 0,
        mean_interarrival: SimTime::from_millis(500),
        value_ranks: 1_000,
        size_ranks: 100,
    }
}

/// The wide staggered subscriber bands the self-healing acceptance tests
/// proved out: node `i` watches `x ∈ [9i, 9i + 28]` (full `y`), so the
/// protected subscriber set 0..8 collectively covers the whole domain
/// and every rendezvous chain carries real state.
pub(crate) fn subscribe_staggered_bands(net: &mut Network, subscribers: usize) {
    for node in 0..subscribers {
        let lo = (node * 9) as f64;
        net.subscribe(
            node,
            0,
            Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 28.0, 100.0])),
        );
    }
}

/// The `top` non-subscriber nodes (indices in `pool`) holding the most
/// rendezvous entries — failing these permanently guarantees real
/// subscription state dies with them.
pub(crate) fn most_loaded(
    net: &Network,
    pool: impl Iterator<Item = usize>,
    top: usize,
) -> Vec<(usize, usize)> {
    let mut by_load: Vec<(usize, usize)> = pool
        .map(|i| {
            let n = &net.nodes()[i];
            (n.repos.values().map(|r| r.entries.len()).sum::<usize>(), i)
        })
        .collect();
    by_load.sort_unstable_by(|a, b| b.cmp(a));
    by_load.truncate(top);
    by_load
}
