//! Experiment harness regenerating the paper's evaluation (§5).
//!
//! Every table and figure has a binary in `src/bin/`:
//!
//! | binary             | paper artifact                                   |
//! |--------------------|--------------------------------------------------|
//! | `table1`           | Table 1 — pub/sub scheme & workload properties   |
//! | `table2`           | Table 2 — simulated networks & average RTTs      |
//! | `fig2to4`          | Fig 2a–d event CDFs, Fig 3a–b node bandwidth CDFs, Fig 4 load on the 100 most loaded nodes — one set of four runs |
//! | `fig5`             | Fig 5a–d — scaling with network size             |
//! | `ablation_base`    | zone base β sweep                                |
//! | `ablation_rotation`| zone-mapping rotation on/off, multi-scheme       |
//! | `ablation_subscheme`| §3.5 sub-scheme decomposition on/off            |
//! | `hotpath`          | the pinned digest run: the repo's behaviour contract, also split by checkpoint/resume |
//! | `report`           | summarizes one run report or diffs two           |
//! | `scenario`         | runs the adversity scenario pack, writes verdict JSONs |
//! | `shootout`         | §2's comparison: HyperSub and four rivals on one workload, writes `SHOOTOUT.json` (`--system hypersub --system rendezvous --system attr_ring` for the paper's pair) |
//!
//! `fig2to4`, `fig5`, `ablation_base` and `shootout` run the same §5.1
//! recipe, `hypersub_shootout::drive`; an [`ExperimentConfig`] is the
//! shoot-out's parameters plus HyperSub's configuration.
//!
//! The table and figure binaries accept `--quick` (scaled-down run for
//! smoke testing) and print diffable ASCII tables via `hypersub-stats`;
//! they, `hotpath`, `scenario`, `report` and `shootout` reject an
//! argument they do not know ([`Args`]) instead of running some other
//! experiment. `tests/quick_outputs.rs` pins each table, figure and
//! ablation binary's `--quick` stdout byte for byte against
//! `tests/golden/<binary>_quick.txt` at the workspace root.

use hypersub_core::config::SystemConfig;
use hypersub_core::error::Result;
use hypersub_core::model::Registry;
use hypersub_core::sim::{Network, NetworkBuilder};
use hypersub_shootout::{drive, ShootoutParams, SystemRun};
use hypersub_simnet::SimTime;
use hypersub_stats::{Cdf, Table};
use hypersub_workload::WorkloadSpec;

/// One HyperSub experiment: the shoot-out's parameters plus what only
/// HyperSub has — a configuration and §3.5 subschemes — and a label.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Human-readable label ("Base 2, level 20, no LB").
    pub label: String,
    /// Network size, seed, topology and workload.
    pub params: ShootoutParams,
    /// System configuration (zone base, LB).
    pub system: SystemConfig,
    /// §3.5 subschemes, if any.
    pub subschemes: Option<Vec<Vec<usize>>>,
}

impl ExperimentConfig {
    /// The paper's base configuration: 1740 nodes (King dataset size),
    /// Table 1 workload, base 2 / level 20, no LB.
    pub fn paper_default() -> Self {
        Self {
            label: "Base 2, level 20, no LB".to_string(),
            params: ShootoutParams {
                nodes: 1740,
                seed: 20070101,
                mean_rtt: SimTime::from_millis(180),
                spec: WorkloadSpec::paper_table1(),
            },
            system: SystemConfig::default(),
            subschemes: None,
        }
    }

    /// Scales the experiment down for smoke runs (`--quick`).
    pub fn quick(mut self) -> Self {
        self.params.nodes = (self.params.nodes / 10).max(64);
        self.params.spec.events = (self.params.spec.events / 20).max(100);
        self
    }

    /// Relabels the configuration.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Builds this configuration's HyperSub network on `b`: its scheme
    /// (with its subschemes, if any) and its system configuration.
    fn build(&self, b: NetworkBuilder) -> Result<Network> {
        let spec = &self.params.spec;
        let scheme = match &self.subschemes {
            Some(ss) => {
                let refs: Vec<&[usize]> = ss.iter().map(|v| v.as_slice()).collect();
                spec.scheme_def_with_subschemes(0, &refs)
            }
            None => spec.scheme_def(0),
        };
        b.registry(Registry::new(vec![scheme]))
            .config(self.system.clone())
            .build()
    }

    /// The network this configuration describes, on the shoot-out's
    /// substrate, for experiments that drive it themselves.
    pub fn network(&self) -> Network {
        self.build(self.params.builder())
            .expect("valid experiment configuration")
    }

    /// Runs the §5.1 experiment: the shoot-out's `drive` on this
    /// configuration's network.
    pub fn run(&self) -> SystemRun {
        drive("hypersub", &self.params, |b| self.build(b)).expect("valid experiment configuration")
    }
}

/// The four configurations of Figures 2–4: {base 2, base 4} × {no LB, LB}.
pub fn fig2_configs(quick: bool) -> Vec<ExperimentConfig> {
    let base = ExperimentConfig::paper_default();
    let mk = |label: &str, system: SystemConfig| {
        let mut c = base.clone().with_label(label);
        c.system = system;
        if quick {
            c = c.quick();
        }
        c
    };
    vec![
        mk("Base 2, level 20, no LB", SystemConfig::default()),
        mk("Base 2, level 20, LB", SystemConfig::default().with_lb()),
        mk("Base 4, level 10, no LB", SystemConfig::base4()),
        mk("Base 4, level 10, LB", SystemConfig::base4().with_lb()),
    ]
}

/// Renders a CDF as `(x, F(x))` rows alongside sibling configurations.
pub fn cdf_table(
    title: &str,
    x_label: &str,
    series: &[(String, Vec<f64>)],
    points: usize,
) -> Table {
    let mut header: Vec<String> = vec![x_label.to_string()];
    for (label, _) in series {
        header.push(format!("CDF[{label}]"));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    // Common x-grid spanning all series.
    let samples = series.iter().flat_map(|(_, v)| v.iter().copied());
    let (lo, hi) = samples.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    });
    if !lo.is_finite() || !hi.is_finite() {
        return table;
    }
    let mut cdfs: Vec<Cdf> = series
        .iter()
        .map(|(_, v)| Cdf::from_samples(v.iter().copied()))
        .collect();
    for i in 0..points {
        let x = if points == 1 {
            hi
        } else {
            lo + (hi - lo) * i as f64 / (points - 1) as f64
        };
        let mut row = vec![format!("{x:.3}")];
        for c in &mut cdfs {
            row.push(format!("{:.4}", c.fraction_le(x)));
        }
        table.row(&row);
    }
    table
}

/// The process's command-line arguments, taken one by one: each `flag`,
/// `value` or `parsed` call removes what it matched, and [`Args::finish`]
/// rejects whatever is left — so a misspelt option, or one without a
/// usable value, is a usage error (exit 2) instead of a run of the wrong
/// experiment.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    rest: Vec<String>,
}

impl Args {
    /// The arguments after the program name; `usage` is the synopsis
    /// printed (after the program name) on a usage error.
    pub fn from_env(usage: &'static str) -> Self {
        let rest = std::env::args().skip(1).collect();
        Self { usage, rest }
    }

    /// Takes the switch `name`; true if it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Takes the common `--quick` (or `-q`) switch.
    pub fn quick(&mut self) -> bool {
        self.flag("--quick") | self.flag("-q")
    }

    /// Takes the option `name` and the value after it.
    pub fn value(&mut self, name: &str) -> Option<String> {
        self.parsed(name)
    }

    /// Takes the option `name` and the value after it, parsed. An option
    /// whose value is missing or does not parse stays where it is, for
    /// `finish` to reject.
    pub fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        let i = self.rest.iter().position(|a| a == name)?;
        let v = self.rest.get(i + 1)?.parse().ok()?;
        self.rest.drain(i..i + 2);
        Some(v)
    }

    /// Takes the first argument that is not an option (a positional).
    pub fn positional(&mut self) -> Option<String> {
        let at = self.rest.iter().position(|a| !a.starts_with('-'))?;
        Some(self.rest.remove(at))
    }

    /// Ends parsing: an argument still here is a usage error. Call it
    /// before the run starts.
    pub fn finish(self) {
        if let Some(a) = self.rest.first() {
            self.fail(&format!("cannot use argument {a:?}"));
        }
    }

    /// A usage error: prints `problem` and the usage line, exits 2.
    pub fn fail(&self, problem: &str) -> ! {
        let prog = std::env::args().next().unwrap_or_default();
        let prog = prog.rsplit('/').next().unwrap_or_default();
        eprintln!("{prog}: {problem}\nusage: {prog} {}", self.usage);
        std::process::exit(2);
    }
}

/// Parses the command line of a binary whose only option is `--quick`.
pub fn is_quick() -> bool {
    let mut args = Args::from_env("[--quick]");
    let quick = args.quick();
    args.finish();
    quick
}

/// Maps `f` over `items` on scoped threads and returns the results in
/// input order. At most the machine's available parallelism run at a
/// time: a dozen concurrent thousand-node simulations exhaust memory on
/// small machines, which is how the fig5 sweep used to die at its
/// largest network sizes.
pub fn par_map<T: Sync, O: Send>(items: &[T], f: impl Fn(&T) -> O + Sync) -> Vec<O> {
    let width = std::thread::available_parallelism().map_or(4, |n| n.get());
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    for chunk in items.chunks(width) {
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunk
                .iter()
                .map(|item| scope.spawn(move || f(item)))
                .collect();
            out.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("parallel task panicked")),
            );
        });
    }
    out
}

/// Prints a standard per-configuration summary block (averages the paper
/// quotes in figure legends), one row per configuration and its run.
pub fn print_summary(configs: &[ExperimentConfig], runs: &[SystemRun]) {
    let mut t = Table::new(
        "Run summary (figure-legend averages)",
        &[
            "config",
            "events",
            "avg matched %",
            "avg max hops",
            "avg max latency (ms)",
            "avg bw/event (KB)",
            "complete %",
            "install msgs",
        ],
    );
    for (c, r) in configs.iter().zip(runs) {
        t.row(&[
            c.label.clone(),
            r.event_stats.len().to_string(),
            format!("{:.3}", r.avg_matched_pct()),
            format!("{:.1}", r.avg_max_hops()),
            format!("{:.0}", r.avg_max_latency_ms()),
            format!("{:.1}", r.avg_bandwidth_kb()),
            format!("{:.1}", 100.0 * r.delivery_completeness()),
            r.install_msgs.to_string(),
        ]);
    }
    println!("{t}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end experiment exercising the whole harness.
    #[test]
    fn tiny_experiment_runs_and_delivers() {
        let mut cfg = ExperimentConfig::paper_default().quick();
        cfg.params.nodes = 48;
        cfg.params.spec.events = 30;
        cfg.params.spec.subs_per_node = 3;
        let r = cfg.run();
        assert_eq!(r.event_stats.len(), 30);
        assert!(
            r.delivery_completeness() == 1.0 && r.equivalent(),
            "all events must deliver fully: {:?}",
            r.event_stats
                .iter()
                .filter(|e| e.delivered != e.expected)
                .collect::<Vec<_>>()
        );
        assert!(r.install_msgs > 0);
    }

    /// Load balancing arms timers that never drain: the run settles on
    /// its graces instead of at quiescence, and still delivers.
    #[test]
    fn lb_experiment_converges() {
        let mut cfg = ExperimentConfig::paper_default().quick();
        cfg.params.nodes = 48;
        cfg.params.spec.events = 20;
        cfg.params.spec.subs_per_node = 4;
        cfg.system = SystemConfig::default().with_lb();
        let r = cfg.run();
        assert_eq!(r.event_stats.len(), 20);
        assert!(
            r.delivery_completeness() >= 0.95,
            "LB must not lose deliveries"
        );
        assert!(r.report.time_us >= 120_000_000, "settled past the grace");
    }

    fn args(list: &[&str]) -> Args {
        let rest = list.iter().map(|a| a.to_string()).collect();
        Args { usage: "", rest }
    }

    #[test]
    fn args_take_what_is_named_and_leave_the_rest_for_finish() {
        let mut a = args(&["run", "--seed", "3", "--quick", "--out", "x.json"]);
        assert!(a.flag("run") && a.quick() && !a.flag("--all"));
        assert_eq!(a.parsed::<u64>("--seed"), Some(3));
        assert_eq!(a.value("--out").as_deref(), Some("x.json"));
        assert!(a.rest.is_empty());

        let mut a = args(&["--quik"]);
        assert!(!a.quick());
        assert_eq!(a.rest, ["--quik"], "a leftover");

        let mut a = args(&["--all", "--seed"]);
        assert_eq!(a.parsed::<u64>("--seed"), None);
        assert!(a.flag("--all"));
        assert_eq!(a.rest, ["--seed"], "a missing value");

        let mut a = args(&["--seed", "seven"]);
        assert_eq!(a.parsed::<u64>("--seed"), None);
        assert_eq!(a.rest, ["--seed", "seven"], "an unparsable value");

        let mut a = args(&["diff", "--x", "a.json"]);
        assert_eq!(a.positional().as_deref(), Some("diff"));
        assert_eq!(a.positional().as_deref(), Some("a.json"));
        assert_eq!(a.positional(), None);
        assert_eq!(a.rest, ["--x"], "an option is not a positional");
    }

    #[test]
    fn maps_in_order() {
        let v = vec![1u64, 2, 3, 4];
        assert_eq!(par_map(&v, |x| x * 10), vec![10, 20, 30, 40]);
    }

    #[test]
    fn works_on_slices() {
        assert_eq!(par_map(&[5u32, 6], |x| x + 1), vec![6, 7]);
    }

    #[test]
    fn bounded_concurrency_preserves_order() {
        // More items than any plausible parallelism cap: order must hold
        // across chunk boundaries.
        let v: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = (0..257).map(|x| x * 2).collect();
        assert_eq!(par_map(&v, |x| x * 2), want);
    }

    #[test]
    fn cdf_table_shape() {
        let series = vec![
            ("a".to_string(), vec![1.0, 2.0, 3.0]),
            ("b".to_string(), vec![2.0, 4.0]),
        ];
        let t = cdf_table("test", "x", &series, 5);
        assert_eq!(t.len(), 5);
    }
}
