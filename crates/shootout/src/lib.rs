//! The baseline shoot-out: five pub/sub systems, one deterministic
//! comparison harness.
//!
//! The paper's central claim is comparative — HyperSub beats
//! rendezvous-point and attribute-range DHT designs on load concentration
//! and installation cost (§2, §5). This crate turns the repo into the
//! apparatus that can actually produce that comparison. One function,
//! `drive`, does "build a network, install the workload's subscriptions,
//! publish its events, emit a [`Report`]" for any node type the core
//! driver ([`Net`]) can run; a [`System`] is a name plus the node type it
//! hands to that function. Five of them run over the **same** seeded
//! workload stream and the **same** Chord substrate:
//!
//! * `hypersub` — the paper's system (`HyperSubNode`).
//! * `rendezvous` — Ferry-style single rendezvous point.
//! * `attr_ring` — attribute-range replication on the ring (DEBS'04).
//! * `subgroup` — subscription subgrouping (after arXiv 1611.08743).
//! * `gossip` — flood-to-all-brokers strawman (after arXiv 2207.06369).
//!
//! ## Fairness rules
//!
//! Every system sees identical inputs, enforced structurally rather than
//! by convention:
//!
//! 1. **Same substrate.** All systems are built by the one
//!    `NetworkBuilder::build_with`, which derives the King-like topology,
//!    ring ids, and simulator RNG from the master seed, so node `i` has
//!    the same Chord id and the same link latencies everywhere.
//! 2. **Same workload.** One `WorkloadGen` per run, seeded `seed ^
//!    0xabcd`, consumed by the same two calls: `install` (all
//!    subscriptions, node-major), then `schedule` (per event a node, a
//!    point, a gap).
//! 3. **Same cost model.** Wire sizes come from the shared
//!    `hypersub_core::msg` constants (header 20 B, event 100 B, SubID
//!    9 B), pinned by `tests/wire_golden.rs`.
//!
//! ## The equivalence oracle
//!
//! Every system must deliver exactly the brute-force oracle's matches,
//! once each, and all systems must deliver the same thing. Raw
//! [`SubId`]s cannot be compared across systems (HyperSub's per-node iid
//! counter also numbers zone repositories and hosted migrations, so a
//! subscribing node that stores a zone repo interleaves those
//! allocations with its local subscription iids), so `drive` maps the
//! `SubId` each `subscribe` call returns to its position in the shared
//! workload order: subscription *k* of the run is ordinal *k* in every
//! system.
//!
//! The verdict is then **one [`EventFold`] per event**: the wrapping sum
//! of a fixed 64-bit mix of each `(event, ordinal)` pair, once over the
//! oracle's matches (taken when the event is scheduled) and once over the
//! *distinct* pairs delivered (taken after settling). A sum does not
//! depend on the order the pairs arrive in, and two different pair sets
//! of one event agree with probability ≈ 2⁻⁶⁴. Duplicates are not folded
//! — a second copy of a pair leaves the sum unchanged — but counted apart,
//! in [`EventStats::duplicates`]. [`equivalence_failures`] compares the
//! two sums of every event within a run, and each run's sums with the
//! first run's; each failure names the first event that differs. No
//! whole-run pair list is kept: a run holds one 24-byte record per event
//! next to its [`EventStats`].

use hypersub_baselines::attr_ring::AttrRingNode;
use hypersub_baselines::gossip::GossipNode;
use hypersub_baselines::rendezvous::RendezvousNode;
use hypersub_baselines::subgroup::SubgroupNode;
use hypersub_core::error::Result;
use hypersub_core::metrics::{DeliveryRecord, EventStats};
use hypersub_core::model::{Registry, SubId};
use hypersub_core::report::{Json, Report};
use hypersub_core::sim::{Net, Network, NetworkBuilder, PubSubNode, TopologyKind};
use hypersub_simnet::stats::NodeTraffic;
use hypersub_simnet::SimTime;
use hypersub_stats::{LoadDist, Table};
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use std::collections::HashMap;
use std::time::Instant;

/// One rung of the size ladder: (nodes, subs per node, events).
pub type Rung = (usize, usize, usize);

/// Quick tier: the 1k-node smoke rung CI runs on every push.
pub const QUICK_LADDER: &[Rung] = &[(1_000, 4, 200)];

/// Full tier: the 8k/32k rungs `run_experiments.sh` runs. The 32k rung
/// scales subscriptions and events down to keep the attribute-ring
/// system's O(arc-length) installation within a workstation budget.
pub const FULL_LADDER: &[Rung] = &[(8_000, 4, 800), (32_000, 2, 400)];

/// Parameters of one shoot-out run (one system × one rung).
#[derive(Debug, Clone)]
pub struct ShootoutParams {
    /// Network size.
    pub nodes: usize,
    /// Master seed (substrate and workload derive from it).
    pub seed: u64,
    /// Target mean RTT of the King-like topology.
    pub mean_rtt: SimTime,
    /// The workload (Table 1 shape; `subs_per_node`/`events` set by the
    /// rung).
    pub spec: WorkloadSpec,
}

impl ShootoutParams {
    /// Builds parameters for one rung of the ladder.
    pub fn new(rung: Rung, seed: u64) -> Self {
        let (nodes, subs_per_node, events) = rung;
        let mut spec = WorkloadSpec::paper_table1();
        spec.subs_per_node = subs_per_node;
        spec.events = events;
        Self {
            nodes,
            seed,
            mean_rtt: SimTime::from_millis(180),
            spec,
        }
    }

    /// The shared substrate every system is built on: `nodes` nodes on a
    /// King-like topology, everything derived from `seed`.
    pub fn builder(&self) -> NetworkBuilder {
        Network::builder(self.nodes)
            .topology(TopologyKind::KingLike(self.mean_rtt))
            .seed(self.seed)
    }

    /// The shared workload stream every system consumes: one generator,
    /// seeded `seed ^ 0xabcd`.
    pub fn workload(&self) -> WorkloadGen {
        WorkloadGen::new(self.spec.clone(), self.seed ^ 0xabcd)
    }
}

/// One event's delivery verdict in system-independent form: the fold of
/// its ground-truth `(event, subscription ordinal)` pairs and the fold of
/// the distinct pairs delivered (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFold {
    /// The event.
    pub event: u64,
    /// The fold of the oracle's matches when the event was scheduled.
    pub expected: u64,
    /// The fold of the distinct subscriptions it was delivered to.
    pub delivered: u64,
}

/// One `(event, ordinal)` pair's share of a fold: the splitmix64
/// finalizer, a bijection on `u64`, so distinct ordinals of one event mix
/// to distinct values.
fn mix(event: u64, ordinal: u32) -> u64 {
    let mut z = event.rotate_left(32) ^ u64::from(ordinal);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A run's subscription ordinals: the `SubId` the *k*-th `subscribe` call
/// returned maps to *k*.
pub type Ordinals = HashMap<SubId, u32>;

/// `sid`'s subscription ordinal; `u32::MAX` for a `SubId` no `subscribe`
/// call returned, which is in no ground truth.
fn ordinal(ordinals: &Ordinals, sid: &SubId) -> u32 {
    ordinals.get(sid).copied().unwrap_or(u32::MAX)
}

/// Sets each record's `delivered` to the fold of the distinct
/// `(event, ordinal)` pairs among `deliveries`; `folds` is sorted by
/// event. This is the fold `drive` applies to a settled network's
/// deliveries.
pub fn fold_delivered(folds: &mut [EventFold], ordinals: &Ordinals, deliveries: &[DeliveryRecord]) {
    let mut pairs: Vec<(u64, u32)> = deliveries
        .iter()
        .map(|d| (d.event, ordinal(ordinals, &d.subid)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    folds.iter_mut().for_each(|f| f.delivered = 0);
    for (event, k) in pairs {
        if let Ok(i) = folds.binary_search_by_key(&event, |f| f.event) {
            folds[i].delivered = folds[i].delivered.wrapping_add(mix(event, k));
        }
    }
}

/// The outcome of running one system on one rung.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// System name.
    pub system: &'static str,
    /// Subscriptions per node.
    pub subs_per_node: usize,
    /// Full observability report: digest, network size, events
    /// published and their delivery sums, counters, histograms.
    pub report: Report,
    /// Per-event statistics, sorted by event: the expected, distinct
    /// delivered and duplicate counts among them.
    pub event_stats: Vec<EventStats>,
    /// Per-event verdicts, parallel to `event_stats`.
    pub folds: Vec<EventFold>,
    /// Per-node stored-entry loads.
    pub loads: Vec<u64>,
    /// Per-node traffic over the whole run (Fig 3).
    pub node_traffic: Vec<NodeTraffic>,
    /// Messages spent before the first event (subscription installation).
    pub install_msgs: u64,
    /// Installation bytes.
    pub install_bytes: u64,
    /// Wall-clock duration of the run (non-deterministic; excluded from
    /// digests and comparisons).
    pub wall_secs: f64,
}

impl SystemRun {
    /// Whether every event was delivered to exactly its ground truth
    /// (duplicates aside: [`equivalence_failures`] reports those).
    pub fn equivalent(&self) -> bool {
        self.mismatched().next().is_none()
    }

    /// The events whose distinct deliveries are not their ground truth.
    fn mismatched(&self) -> impl Iterator<Item = &EventStats> {
        let folds = self.event_stats.iter().zip(&self.folds);
        folds
            .filter(|(s, f)| f.delivered != f.expected || s.delivered != s.expected)
            .map(|(s, _)| s)
    }

    /// Per-node load distribution summary.
    pub fn load_dist(&self) -> LoadDist {
        LoadDist::from_loads(&self.loads)
    }

    /// Mean of `f` over the events (0 with none).
    fn per_event_mean(&self, f: impl Fn(&EventStats) -> f64) -> f64 {
        if self.event_stats.is_empty() {
            return 0.0;
        }
        self.event_stats.iter().map(f).sum::<f64>() / self.event_stats.len() as f64
    }

    /// Mean percentage of subscriptions matched per event.
    pub fn avg_matched_pct(&self) -> f64 {
        if self.event_stats.is_empty() {
            return 0.0;
        }
        let matched: f64 = self.event_stats.iter().map(|e| e.matched_fraction).sum();
        // Scaled before the division: the rounding every printed figure has.
        100.0 * matched / self.event_stats.len() as f64
    }

    /// Mean of per-event max hops.
    pub fn avg_max_hops(&self) -> f64 {
        self.per_event_mean(|e| e.max_hops as f64)
    }

    /// Mean of per-event max latency, in ms.
    pub fn avg_max_latency_ms(&self) -> f64 {
        self.per_event_mean(|e| e.max_latency.as_millis_f64())
    }

    /// Mean of each event's own flow bytes, in KB. Unlike
    /// [`SystemRun::bytes_per_event`] it counts only traffic attributed to
    /// an event, not everything sent after installation.
    pub fn avg_bandwidth_kb(&self) -> f64 {
        self.per_event_mean(|e| e.bandwidth_bytes as f64 / 1024.0)
    }

    /// Fraction of events fully delivered (delivered == expected).
    pub fn delivery_completeness(&self) -> f64 {
        if self.event_stats.is_empty() {
            return 1.0;
        }
        self.per_event_mean(|e| f64::from(u8::from(e.delivered == e.expected)))
    }

    /// Event-phase bytes per published event: everything sent after
    /// installation (event routing and delivery, maintenance and
    /// migration) over the events.
    pub fn bytes_per_event(&self) -> f64 {
        let (sent, events) = (self.report.net.total_bytes, self.report.events.published);
        if events == 0 {
            return 0.0;
        }
        sent.saturating_sub(self.install_bytes) as f64 / events as f64
    }

    /// Simulator events processed per wall-clock second
    /// (non-deterministic; reported for throughput context only).
    pub fn sim_events_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.report.steps as f64 / self.wall_secs
    }
}

/// A pub/sub system the shoot-out can run: a name and the node type it
/// puts on the shared substrate. Every system goes through the same
/// `drive` function, which is what enforces the crate-level fairness
/// rules.
#[derive(Debug, Clone, Copy)]
pub struct System {
    /// Short machine-readable name (JSON key, CLI argument).
    pub name: &'static str,
    run_as: fn(&'static str, &ShootoutParams) -> Result<SystemRun>,
}

impl System {
    /// Runs the system once with the given parameters.
    pub fn run(&self, p: &ShootoutParams) -> Result<SystemRun> {
        (self.run_as)(self.name, p)
    }
}

/// All five systems, in canonical order (HyperSub first).
pub fn all_systems() -> Vec<System> {
    vec![
        // The paper's system.
        System {
            name: "hypersub",
            run_as: |name, p| {
                let registry = Registry::new(vec![p.spec.scheme_def(0)]);
                drive(name, p, |b| b.registry(registry).build())
            },
        },
        // Ferry-style single rendezvous point.
        System {
            name: "rendezvous",
            run_as: |name, p| {
                drive(name, p, |b| {
                    b.build_with(|st| RendezvousNode::new(st, &p.spec.scheme_name))
                })
            },
        },
        // Attribute-range replication on the ring.
        System {
            name: "attr_ring",
            run_as: |name, p| {
                let space = p.spec.scheme_def(0).space;
                drive(name, p, |b| {
                    b.build_with(|st| AttrRingNode::new(st, &p.spec.scheme_name, space.clone()))
                })
            },
        },
        // Subscription subgrouping (arXiv 1611.08743 style).
        System {
            name: "subgroup",
            run_as: |name, p| {
                let space = p.spec.scheme_def(0).space;
                drive(name, p, |b| {
                    b.build_with(|st| SubgroupNode::new(st, &p.spec.scheme_name, space.clone()))
                })
            },
        },
        // Flood-to-all-brokers strawman (SmartPubSub style).
        System {
            name: "gossip",
            run_as: |name, p| drive(name, p, |b| b.build_with(GossipNode::new)),
        },
    ]
}

/// Looks a system up by its [`System::name`].
pub fn system_by_name(name: &str) -> Option<System> {
    all_systems().into_iter().find(|s| s.name == name)
}

/// The one §5.1 run, for every system and every experiment binary: build
/// the network on the shared substrate (`build` only picks the node type
/// and its configuration), install the workload's subscriptions, settle,
/// publish its events, settle, collect the result. A network whose
/// periodic timers never drain (load balancing) settles for 300 s after
/// installing and until 120 s after the last publish gap.
pub fn drive<N: PubSubNode>(
    name: &'static str,
    p: &ShootoutParams,
    build: impl FnOnce(NetworkBuilder) -> Result<Net<N>>,
) -> Result<SystemRun> {
    let start = Instant::now();
    let mut net = build(p.builder())?;
    let periodic = net.node(0)?.has_periodic_timers();
    let settle = |net: &mut Net<N>, until: SimTime| {
        if periodic {
            net.run_until(until);
        } else {
            net.run_to_quiescence();
        }
    };
    let mut gen = p.workload();
    let sub_ids = gen.install(&mut net, p.spec.subs_per_node);
    let ordinals: Ordinals = sub_ids.into_iter().zip(0..).collect();
    let installed = net.time() + SimTime::from_secs(300);
    settle(&mut net, installed);
    let install_msgs = net.net().total_msgs();
    let install_bytes = net.net().total_bytes();
    let (events, end) = gen.schedule(&mut net, p.spec.events);
    let mut folds: Vec<EventFold> = events
        .iter()
        .map(|(event, point)| EventFold {
            event: *event,
            expected: net.expected_matches(0, point).iter().fold(0, |h, sid| {
                h.wrapping_add(mix(*event, ordinal(&ordinals, sid)))
            }),
            delivered: 0,
        })
        .collect();
    settle(&mut net, end + SimTime::from_secs(120));
    fold_delivered(&mut folds, &ordinals, net.deliveries());
    Ok(SystemRun {
        system: name,
        subs_per_node: p.spec.subs_per_node,
        report: net.report(),
        event_stats: net.event_stats(),
        folds,
        loads: net.node_loads(),
        node_traffic: net.net().nodes().to_vec(),
        install_msgs,
        install_bytes,
        wall_secs: start.elapsed().as_secs_f64(),
    })
}

/// All systems' results on one rung, plus the equivalence verdict.
#[derive(Debug)]
pub struct RungOutcome {
    /// The rung that ran.
    pub rung: Rung,
    /// One result per system, in run order.
    pub runs: Vec<SystemRun>,
    /// Human-readable equivalence failures; empty means the oracle
    /// passed for every system.
    pub failures: Vec<String>,
}

impl RungOutcome {
    /// Whether the delivery-equivalence oracle passed everywhere.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `systems` on one rung and checks the delivery-equivalence
/// oracle ([`equivalence_failures`]).
pub fn run_rung(systems: &[System], rung: Rung, seed: u64) -> Result<RungOutcome> {
    let p = ShootoutParams::new(rung, seed);
    let runs: Vec<SystemRun> = systems.iter().map(|s| s.run(&p)).collect::<Result<_>>()?;
    let failures = equivalence_failures(&runs);
    Ok(RungOutcome {
        rung,
        runs,
        failures,
    })
}

/// The delivery-equivalence oracle over runs of one rung: every run must
/// deliver exactly its own ground truth with zero duplicates, and every
/// run's per-event folds must equal the first run's. Each failure line
/// reads `"{system}: event {id}: …"` and names the first event at fault.
pub fn equivalence_failures(runs: &[SystemRun]) -> Vec<String> {
    let mut failures = Vec::new();
    for r in runs {
        if let Some(s) = r.mismatched().next() {
            failures.push(format!(
                "{}: event {}: the {} pairs delivered are not its {} ground-truth pairs",
                r.system, s.event, s.delivered, s.expected
            ));
        }
        if let Some(s) = r.event_stats.iter().find(|s| s.duplicates > 0) {
            let (system, event, n) = (r.system, s.event, s.duplicates);
            failures.push(format!("{system}: event {event}: {n} duplicate deliveries"));
        }
    }
    for r in runs.iter().skip(1) {
        let first = &runs[0];
        if let Some((a, b)) = r.folds.iter().zip(&first.folds).find(|(a, b)| a != b) {
            let what = match a.expected == b.expected {
                true => "deliveries differ",
                false => "ground truth differs (substrate divergence)",
            };
            let (system, event, other) = (r.system, a.event, first.system);
            failures.push(format!("{system}: event {event}: {what} from {other}'s"));
        }
    }
    failures
}

/// Renders the unified `SHOOTOUT.json` document. Everything in it is
/// deterministic for a fixed seed except each run's `"timing"` object
/// (wall-clock throughput), which exists for context and is ignored by
/// [`digests_from_json`] comparisons. Fractional values carry six
/// decimals.
pub fn shootout_json(seed: u64, tier: &str, outcomes: &[RungOutcome]) -> String {
    let six = |v: f64| match v.is_finite() {
        true => Json::Dec(format!("{v:.6}").parse().expect("a formatted f64")),
        false => Json::Dec(0.0),
    };
    let run = |r: &SystemRun| {
        let load = r.load_dist();
        let events = &r.report.events;
        Json::object([
            ("system", r.system.into()),
            ("nodes", r.report.nodes.into()),
            ("subs_per_node", r.subs_per_node.into()),
            ("events", events.published.into()),
            ("digest", Json::hex(r.report.digest)),
            ("equivalence", r.equivalent().into()),
            ("expected_pairs", events.expected.into()),
            ("delivered_pairs", events.delivered.into()),
            ("duplicates", events.duplicates.into()),
            ("avg_max_hops", six(r.avg_max_hops())),
            ("max_hops", events.max_hops.into()),
            ("install_msgs", r.install_msgs.into()),
            ("install_bytes", r.install_bytes.into()),
            ("total_msgs", r.report.net.total_msgs.into()),
            ("total_bytes", r.report.net.total_bytes.into()),
            ("bytes_per_event", six(r.bytes_per_event())),
            (
                "load",
                Json::object([
                    ("p50", six(load.p50)),
                    ("p99", six(load.p99)),
                    ("max", six(load.max)),
                    ("gini", six(load.gini)),
                ]),
            ),
            (
                "timing",
                Json::object([
                    ("wall_secs", six(r.wall_secs)),
                    ("sim_events_per_sec", six(r.sim_events_per_sec())),
                ]),
            ),
        ])
    };
    let runs = outcomes.iter().flat_map(|o| &o.runs).map(run).collect();
    let doc = Json::object([
        ("version", Json::Num(1)),
        ("seed", seed.into()),
        ("tier", tier.into()),
        ("equivalence_ok", outcomes.iter().all(|o| o.ok()).into()),
        ("runs", Json::Arr(runs)),
    ]);
    format!("{doc}\n")
}

/// Extracts the deterministic `(system, nodes, digest)` triples from a
/// `SHOOTOUT.json` document, for digest-drift comparison against a
/// pinned reference. Key order and layout are free.
///
/// # Errors
/// The document does not parse, or it has no run, or a run lacks one of
/// the three fields: a reference that pins nothing must not compare as
/// "no drift".
pub fn digests_from_json(doc: &str) -> Result<Vec<(String, u64, String)>, String> {
    let doc = Json::parse(doc)?;
    let runs = doc.get("runs")?.arr("runs")?;
    if runs.is_empty() {
        return Err("no runs".to_string());
    }
    runs.iter()
        .map(|r| {
            Ok((
                r.get("system")?.str("system")?.to_string(),
                r.get("nodes")?.num("nodes")?,
                r.get("digest")?.str("digest")?.to_string(),
            ))
        })
        .collect()
}

/// Renders one rung's side-by-side comparison table.
pub fn render_table(outcome: &RungOutcome) -> Table {
    let (nodes, subs_per_node, events) = outcome.rung;
    let mut t = Table::new(
        format!("Shoot-out: {nodes} nodes, {subs_per_node} subs/node, {events} events"),
        &[
            "system",
            "equiv",
            "avg max hops",
            "install msgs",
            "KB/event",
            "load p50",
            "load p99",
            "load max",
            "gini",
            "sim ev/s",
        ],
    );
    for r in &outcome.runs {
        let load = r.load_dist();
        t.row(&[
            r.system.to_string(),
            if r.equivalent() { "yes" } else { "NO" }.to_string(),
            format!("{:.1}", r.avg_max_hops()),
            r.install_msgs.to_string(),
            format!("{:.1}", r.bytes_per_event() / 1024.0),
            format!("{:.0}", load.p50),
            format!("{:.0}", load.p99),
            format!("{:.0}", load.max),
            format!("{:.3}", load.gini),
            format!("{:.0}", r.sim_events_per_sec()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ShootoutParams {
        let mut p = ShootoutParams::new((32, 2, 12), 11);
        p.spec.events = 12;
        p
    }

    #[test]
    fn five_systems_registered() {
        let names: Vec<&str> = all_systems().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["hypersub", "rendezvous", "attr_ring", "subgroup", "gossip"]
        );
        assert!(system_by_name("gossip").is_some());
        assert!(system_by_name("nope").is_none());
    }

    #[test]
    fn tiny_rung_is_equivalent_across_all_systems() {
        let out = run_rung(&all_systems(), (32, 2, 12), 11).unwrap();
        assert!(out.ok(), "equivalence failures: {:?}", out.failures);
        assert_eq!(out.runs.len(), 5);
        assert!(
            out.runs[0].report.events.expected > 0,
            "workload must match something"
        );
    }

    #[test]
    fn runs_are_deterministic_for_fixed_seed() {
        let p = tiny_params();
        let gossip = system_by_name("gossip").unwrap();
        let a = gossip.run(&p).unwrap();
        let b = gossip.run(&p).unwrap();
        assert_eq!(a.report.digest, b.report.digest);
        assert_eq!(a.folds, b.folds);
    }

    #[test]
    fn json_roundtrips_digests() {
        let out = run_rung(&all_systems(), (24, 2, 6), 3).unwrap();
        let doc = shootout_json(3, "test", &[out]);
        let digests = digests_from_json(&doc).unwrap();
        assert_eq!(digests.len(), 5);
        assert_eq!(digests[0].0, "hypersub");
        assert_eq!(digests[0].1, 24);
        assert!(digests.iter().all(|(_, _, d)| d.starts_with("0x")));

        // Layout and key order are free: the same triples come out of a
        // minified copy, a re-indented one and one with every run's keys
        // reversed.
        let minified: String = doc.split_whitespace().collect();
        assert_eq!(digests_from_json(&minified).unwrap(), digests);
        let reindented = doc.replace("\n", "\n\t ").replace(": ", " :  ");
        assert_eq!(digests_from_json(&reindented).unwrap(), digests);
        let reordered: String = doc
            .split("    {\n")
            .enumerate()
            .map(|(i, part)| match part.split_once("\n    }") {
                Some((fields, rest)) if i > 0 => {
                    let mut lines: Vec<&str> =
                        fields.lines().map(|l| l.trim_end_matches(',')).collect();
                    lines.reverse();
                    format!("    {{\n{}\n    }}{rest}", lines.join(",\n"))
                }
                _ => part.to_string(),
            })
            .collect();
        assert_ne!(reordered, doc);
        assert_eq!(digests_from_json(&reordered).unwrap(), digests);
    }

    #[test]
    fn a_reference_that_pins_nothing_is_an_error() {
        assert!(digests_from_json("{}").is_err());
        assert!(digests_from_json("{\"runs\": []}").is_err());
        assert!(digests_from_json("{\"runs\": [{\"system\": \"gossip\"}]}").is_err());
        assert!(digests_from_json("not json").is_err());
    }
}
