//! The workloads: what each network looks like. Why each exists is in
//! `BENCHMARK.json` and `README.md`.

use hypersub_workload::WorkloadSpec;

/// One workload's shape. Every rep of a run builds this network, installs
/// `subs` subscriptions, publishes one warm-up batch and
/// then `rounds` rounds of [publish `batch_events`, replace `churn_frac`
/// of the live subscriptions].
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub nodes: usize,
    /// Subscriptions installed, spread evenly over the nodes in node order.
    pub subs: usize,
    /// Largest subscription range as a share of each attribute's domain
    /// (Table 1's "size hotspot"): small = narrow subscriptions that match
    /// few events, large = wide ones that match many.
    pub size_hotspot: f64,
    pub warmup_events: usize,
    pub batch_events: usize,
    pub rounds: usize,
    pub churn_frac: f64,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "sim-table1",
    "sim-route-heavy",
    "sim-match-heavy",
    "sim-match-churn",
];

/// Table 1's own size hotspot (`WorkloadSpec::paper_table1`).
const TABLE1_SIZE_HOTSPOT: f64 = 0.41;

impl Shape {
    pub fn named(name: &str) -> Option<Shape> {
        let match_heavy = Shape {
            name: "sim-match-heavy",
            nodes: 32,
            subs: 32_000,
            size_hotspot: 0.41,
            warmup_events: 250,
            batch_events: 250,
            rounds: 4,
            churn_frac: 0.0,
        };
        Some(match name {
            "sim-table1" => Shape {
                name: "sim-table1",
                nodes: 1024,
                subs: 5120,
                size_hotspot: TABLE1_SIZE_HOTSPOT,
                warmup_events: 500,
                batch_events: 750,
                rounds: 4,
                churn_frac: 0.05,
            },
            "sim-route-heavy" => Shape {
                name: "sim-route-heavy",
                nodes: 4096,
                subs: 2048,
                size_hotspot: 0.15,
                warmup_events: 1000,
                batch_events: 2500,
                rounds: 4,
                churn_frac: 0.05,
            },
            "sim-match-heavy" => match_heavy,
            "sim-match-churn" => Shape {
                name: "sim-match-churn",
                churn_frac: 0.05,
                ..match_heavy
            },
            _ => return None,
        })
    }

    /// `hotpath`'s pinned recipe (`crates/bench/src/bin/hotpath.rs`): one
    /// batch of 3000 events, no warm-up, no churn. Run with seed
    /// [`HOTPATH_SEED`] it must reproduce [`HOTPATH_DIGEST`].
    pub fn hotpath_pinned() -> Shape {
        Shape {
            name: "hotpath-pinned",
            nodes: 1024,
            subs: 5120,
            size_hotspot: TABLE1_SIZE_HOTSPOT,
            warmup_events: 0,
            batch_events: 3000,
            rounds: 1,
            churn_frac: 0.0,
        }
    }

    /// Table 1's scheme with this shape's subscription width.
    pub fn spec(&self) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_table1();
        for a in &mut spec.attrs {
            a.size_hotspot = self.size_hotspot;
        }
        spec
    }

    /// The node that makes subscription `i`.
    pub fn subscriber(&self, i: usize) -> usize {
        i * self.nodes / self.subs
    }

    /// Events in the timed publish batches of one rep.
    pub fn timed_events(&self) -> usize {
        self.rounds * self.batch_events
    }

    /// Subscriptions replaced in each round.
    pub fn churn_per_round(&self) -> usize {
        (self.subs as f64 * self.churn_frac).round() as usize
    }
}

pub const HOTPATH_SEED: u64 = 0xbe9c_2007;

/// Seed of every network the benchmark builds (node identifiers, King
/// topology, simulator randomness): `hotpath`'s. `--seed` varies the
/// subscriptions, events and replacements fed to that network, not the
/// network, because which node a hot zone lands on moves every cost by
/// more than any change a later issue will make.
pub const NETWORK_SEED: u64 = HOTPATH_SEED;
pub const HOTPATH_DIGEST: u64 = 0xa933_dad3_45c3_b430;
