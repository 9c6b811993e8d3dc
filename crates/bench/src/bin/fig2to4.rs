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

use hypersub_bench::{cdf_table, fig2_configs, is_quick, par_map, print_summary, ExperimentConfig};
use hypersub_shootout::SystemRun;
use hypersub_simnet::stats::NodeTraffic;
use hypersub_stats::Table;

/// One configuration and its run.
type Run<'a> = (&'a ExperimentConfig, &'a SystemRun);

fn main() {
    let configs = fig2_configs(is_quick());
    let runs = par_map(&configs, ExperimentConfig::run);
    let results: Vec<Run> = configs.iter().zip(&runs).collect();
    fig2(&results);
    fig3(&results);
    fig4(&results);
    print_summary(&configs, &runs);
}

/// Prints one 25-point CDF table with a `(legend, samples)` series a run.
fn print_cdfs(
    results: &[Run],
    title: &str,
    x_label: &str,
    series: impl Fn(&ExperimentConfig, &SystemRun) -> (String, Vec<f64>),
) {
    let series: Vec<(String, Vec<f64>)> = results.iter().map(|&(c, r)| series(c, r)).collect();
    println!("{}", cdf_table(title, x_label, &series, 25));
}

fn fig2(results: &[Run]) {
    // (a) matched percentage — workload property, identical across
    // configurations; plotted from the first run as the paper does.
    let title = format!(
        "Fig 2(a): CDF of events vs % matched subscriptions (avg {:.3}%)",
        results[0].1.avg_matched_pct()
    );
    print_cdfs(&results[..1], &title, "matched %", |_, r| {
        let matched = r.event_stats.iter().map(|e| 100.0 * e.matched_fraction);
        ("all configs".to_string(), matched.collect())
    });
    print_cdfs(
        results,
        "Fig 2(b): CDF of events vs max hops",
        "max hops",
        |c, r| {
            (
                format!("{} (avg {:.0})", c.label, r.avg_max_hops()),
                r.event_stats.iter().map(|e| e.max_hops as f64).collect(),
            )
        },
    );
    print_cdfs(
        results,
        "Fig 2(c): CDF of events vs max latency (ms)",
        "max latency (ms)",
        |c, r| {
            let lat = r.event_stats.iter().map(|e| e.max_latency.as_millis_f64());
            (
                format!("{} (avg {:.0}ms)", c.label, r.avg_max_latency_ms()),
                lat.collect(),
            )
        },
    );
    print_cdfs(
        results,
        "Fig 2(d): CDF of events vs bandwidth cost per event (KB)",
        "bandwidth (KB)",
        |c, r| {
            let bw = r
                .event_stats
                .iter()
                .map(|e| e.bandwidth_bytes as f64 / 1024.0);
            (
                format!("{} (avg {:.1}KB)", c.label, r.avg_bandwidth_kb()),
                bw.collect(),
            )
        },
    );
}

fn fig3(results: &[Run]) {
    let per_node = |c: &ExperimentConfig, r: &SystemRun, bytes: fn(&NodeTraffic) -> u64| {
        let v: Vec<f64> = r
            .node_traffic
            .iter()
            .map(|t| bytes(t) as f64 / 1024.0)
            .collect();
        let max = v.iter().copied().fold(0.0f64, f64::max);
        (format!("{} (max {:.0}KB)", c.label, max), v)
    };
    print_cdfs(
        results,
        "Fig 3(a): CDF of nodes vs in-node bandwidth (KB)",
        "in bandwidth (KB)",
        |c, r| per_node(c, r, |t| t.bytes_in),
    );
    print_cdfs(
        results,
        "Fig 3(b): CDF of nodes vs out-node bandwidth (KB)",
        "out bandwidth (KB)",
        |c, r| per_node(c, r, |t| t.bytes_out),
    );

    // Maxima table: the numbers the paper quotes in the legend.
    let mut t = Table::new(
        "Per-node bandwidth maxima",
        &["config", "max in (KB)", "max out (KB)"],
    );
    for (c, r) in results {
        let max_kb = |bytes: fn(&NodeTraffic) -> u64| {
            let max = r.node_traffic.iter().map(bytes).max().unwrap_or(0);
            format!("{}", max / 1024)
        };
        let (max_in, max_out) = (max_kb(|x| x.bytes_in), max_kb(|x| x.bytes_out));
        t.row(&[c.label.clone(), max_in, max_out]);
    }
    println!("{t}");
}

fn fig4(results: &[Run]) {
    let ranked: Vec<Vec<u64>> = results
        .iter()
        .map(|(_, r)| {
            let mut v = r.loads.clone();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        })
        .collect();

    let max = |loads: &[u64]| loads.first().copied().unwrap_or(0);
    let mut header: Vec<String> = vec!["rank".to_string()];
    for ((c, _), loads) in results.iter().zip(&ranked) {
        header.push(format!("{} (max {})", c.label, max(loads)));
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
    for ((c, r), loads) in results.iter().zip(&ranked) {
        let n = loads.len().max(1);
        let mean: f64 = loads.iter().sum::<u64>() as f64 / n as f64;
        let migrated = r.report.counter_total("lb.migrated_subs") > 0;
        t.row(&[
            c.label.clone(),
            max(loads).to_string(),
            loads[(n / 100).min(n - 1)].to_string(),
            format!("{mean:.1}"),
            migrated.to_string(),
        ]);
    }
    println!("{t}");
}
