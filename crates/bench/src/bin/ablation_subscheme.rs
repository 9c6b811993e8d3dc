//! Ablation A3 — §3.5 sub-scheme decomposition.
//!
//! Workload: every subscription specifies predicates on only 2 of the 4
//! attributes (half on {0,1}, half on {2,3}), the case §3.5 calls out:
//! unspecified attributes default to the whole domain, so without
//! subschemes these subscriptions map to large (shallow) content zones,
//! undermining locality and piling load onto few nodes. With subschemes
//! {0,1} and {2,3}, each subscription installs into the subscheme it
//! actually constrains.

use hypersub_bench::{is_quick, par_map, ExperimentConfig};
use hypersub_core::metrics::EventStats;
use hypersub_stats::Table;
use hypersub_workload::WorkloadGen;

struct Outcome {
    label: String,
    install_msgs: u64,
    max_load: u64,
    mean_load: f64,
    complete: f64,
    avg_hops: f64,
    avg_bw_kb: f64,
}

fn run(label: &str, subschemes: Option<Vec<Vec<usize>>>, quick: bool) -> Outcome {
    let mut cfg = ExperimentConfig::paper_default().with_label(label);
    if quick {
        cfg = cfg.quick();
    } else {
        cfg.params.nodes = 1000;
        cfg.params.spec.events = 3000;
    }
    cfg.subschemes = subschemes;
    let (p, mut net) = (&cfg.params, cfg.network());
    let mut gen = WorkloadGen::new(p.spec.clone(), p.seed ^ 0x55);
    // Partial subscriptions: half constrain {0,1}, half {2,3} — a
    // different draw per (node, k), so not `WorkloadGen::install`.
    for node in 0..p.nodes {
        for k in 0..p.spec.subs_per_node {
            let dims: &[usize] = if (node + k) % 2 == 0 {
                &[0, 1]
            } else {
                &[2, 3]
            };
            net.subscribe(node, 0, gen.subscription_on(dims));
        }
    }
    net.run_to_quiescence();
    let install_msgs = net.net().total_msgs();
    gen.schedule(&mut net, p.spec.events);
    net.run_to_quiescence();
    let events = net.event_stats();
    let loads = net.node_loads();
    let max_load = loads.iter().copied().max().unwrap_or(0);
    let mean_load = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let mean =
        |f: fn(&EventStats) -> f64| events.iter().map(f).sum::<f64>() / events.len().max(1) as f64;
    Outcome {
        label: label.to_string(),
        install_msgs,
        max_load,
        mean_load,
        complete: mean(|e| f64::from(u8::from(e.delivered == e.expected))),
        avg_hops: mean(|e| e.max_hops as f64),
        avg_bw_kb: mean(|e| e.bandwidth_bytes as f64 / 1024.0),
    }
}

fn main() {
    let quick = is_quick();
    let runs: Vec<(&str, Option<Vec<Vec<usize>>>)> = vec![
        ("single scheme (no subschemes)", None),
        (
            "subschemes {0,1} + {2,3}",
            Some(vec![vec![0, 1], vec![2, 3]]),
        ),
    ];
    let outcomes = par_map(&runs, |(label, ss)| run(label, ss.clone(), quick));
    let mut t = Table::new(
        "Ablation A3: sub-scheme decomposition (partial subscriptions on 2 of 4 attrs)",
        &[
            "config",
            "install msgs",
            "max load",
            "mean load",
            "max/mean",
            "avg max hops",
            "avg bw/event (KB)",
            "complete %",
        ],
    );
    for o in &outcomes {
        t.row(&[
            o.label.clone(),
            o.install_msgs.to_string(),
            o.max_load.to_string(),
            format!("{:.1}", o.mean_load),
            format!("{:.1}", o.max_load as f64 / o.mean_load.max(1e-9)),
            format!("{:.1}", o.avg_hops),
            format!("{:.1}", o.avg_bw_kb),
            format!("{:.1}", 100.0 * o.complete),
        ]);
    }
    println!("{t}");
    println!("Expected shape: subschemes cut installation traffic and load concentration\nfor partially-specified subscriptions (§3.5).");
}
