//! Figures 2–4 from one set of runs: the four configurations {base 2
//! level 20, base 4 level 10} × {no LB, LB} run once, and each figure is
//! a printer over the same results.
//!
//! * Figure 2 — distribution of events with respect to (a) percentage of
//!   matched subscriptions, (b) max hops, (c) max latency and
//!   (d) bandwidth cost per event.
//! * Figure 3 — distribution of nodes with respect to (a) in-node and
//!   (b) out-node bandwidth over the whole simulation. Load balancing
//!   should cut the maxima.
//! * Figure 4 — load distribution on nodes: nodes ranked by load (stored
//!   subscriptions), first 100 shown. Larger bases concentrate load; the
//!   dynamic subscription-migration mechanism cuts the maxima.

use hypersub_bench::{
    cdf_table, fig2_configs, is_quick, par_map, print_summary, run_experiment, ExperimentResult,
};
use hypersub_simnet::stats::NodeTraffic;
use hypersub_stats::Table;

fn main() {
    let configs = fig2_configs(is_quick());
    let results = par_map(&configs, run_experiment);
    fig2(&results);
    fig3(&results);
    fig4(&results);
    print_summary(&results);
}

/// Prints one 25-point CDF table with a `(legend, samples)` series a run.
fn print_cdfs(
    results: &[ExperimentResult],
    title: &str,
    x_label: &str,
    series: impl Fn(&ExperimentResult) -> (String, Vec<f64>),
) {
    let series: Vec<(String, Vec<f64>)> = results.iter().map(series).collect();
    println!("{}", cdf_table(title, x_label, &series, 25));
}

fn fig2(results: &[ExperimentResult]) {
    // (a) matched percentage — workload property, identical across
    // configurations; plotted from the first run as the paper does.
    let title = format!(
        "Fig 2(a): CDF of events vs % matched subscriptions (avg {:.3}%)",
        results[0].avg_matched_pct()
    );
    print_cdfs(&results[..1], &title, "matched %", |r| {
        let matched = r.events.iter().map(|e| 100.0 * e.matched_fraction);
        ("all configs".to_string(), matched.collect())
    });
    print_cdfs(
        results,
        "Fig 2(b): CDF of events vs max hops",
        "max hops",
        |r| {
            (
                format!("{} (avg {:.0})", r.label, r.avg_max_hops()),
                r.events.iter().map(|e| e.max_hops as f64).collect(),
            )
        },
    );
    print_cdfs(
        results,
        "Fig 2(c): CDF of events vs max latency (ms)",
        "max latency (ms)",
        |r| {
            let lat = r.events.iter().map(|e| e.max_latency.as_millis_f64());
            (
                format!("{} (avg {:.0}ms)", r.label, r.avg_max_latency_ms()),
                lat.collect(),
            )
        },
    );
    print_cdfs(
        results,
        "Fig 2(d): CDF of events vs bandwidth cost per event (KB)",
        "bandwidth (KB)",
        |r| {
            let bw = r.events.iter().map(|e| e.bandwidth_bytes as f64 / 1024.0);
            (
                format!("{} (avg {:.1}KB)", r.label, r.avg_bandwidth_kb()),
                bw.collect(),
            )
        },
    );
}

fn fig3(results: &[ExperimentResult]) {
    let per_node = |r: &ExperimentResult, bytes: fn(&NodeTraffic) -> u64| {
        let v: Vec<f64> = r
            .node_traffic
            .iter()
            .map(|t| bytes(t) as f64 / 1024.0)
            .collect();
        let max = v.iter().copied().fold(0.0f64, f64::max);
        (format!("{} (max {:.0}KB)", r.label, max), v)
    };
    print_cdfs(
        results,
        "Fig 3(a): CDF of nodes vs in-node bandwidth (KB)",
        "in bandwidth (KB)",
        |r| per_node(r, |t| t.bytes_in),
    );
    print_cdfs(
        results,
        "Fig 3(b): CDF of nodes vs out-node bandwidth (KB)",
        "out bandwidth (KB)",
        |r| per_node(r, |t| t.bytes_out),
    );

    // Maxima table: the numbers the paper quotes in the legend.
    let mut t = Table::new(
        "Per-node bandwidth maxima",
        &["config", "max in (KB)", "max out (KB)"],
    );
    for r in results {
        let max_in = r.node_traffic.iter().map(|x| x.bytes_in).max().unwrap_or(0);
        let max_out = r
            .node_traffic
            .iter()
            .map(|x| x.bytes_out)
            .max()
            .unwrap_or(0);
        t.row(&[
            r.label.clone(),
            format!("{}", max_in / 1024),
            format!("{}", max_out / 1024),
        ]);
    }
    println!("{t}");
}

fn fig4(results: &[ExperimentResult]) {
    let ranked: Vec<Vec<u64>> = results
        .iter()
        .map(|r| {
            let mut v = r.node_loads.clone();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        })
        .collect();

    let mut header: Vec<String> = vec!["rank".to_string()];
    for (r, loads) in results.iter().zip(&ranked) {
        header.push(format!(
            "{} (max {})",
            r.label,
            loads.first().copied().unwrap_or(0)
        ));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Fig 4: Load on nodes ranked by load (first 100 nodes, # stored subscriptions)",
        &header_refs,
    );
    for rank in 0..100 {
        // Sample every rank up to 20, then every 5th.
        if rank > 20 && rank % 5 != 0 {
            continue;
        }
        let mut row = vec![format!("{rank}")];
        for loads in &ranked {
            row.push(loads.get(rank).copied().unwrap_or(0).to_string());
        }
        t.row(&row);
    }
    println!("{t}");

    let mut t = Table::new(
        "Load statistics",
        &["config", "max", "p99", "mean", "migrated subs exist"],
    );
    for (r, loads) in results.iter().zip(&ranked) {
        let n = loads.len().max(1);
        let mean: f64 = loads.iter().sum::<u64>() as f64 / n as f64;
        t.row(&[
            r.label.clone(),
            loads.first().copied().unwrap_or(0).to_string(),
            loads[(n / 100).min(n - 1)].to_string(),
            format!("{mean:.1}"),
            (r.label.contains(", LB")).to_string(),
        ]);
    }
    println!("{t}");
}
