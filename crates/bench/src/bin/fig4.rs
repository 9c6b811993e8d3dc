//! Figure 4 — load distribution on nodes: nodes ranked by load (stored
//! subscriptions), first 100 shown. Larger bases concentrate load; the
//! dynamic subscription-migration mechanism cuts the maxima.

use hypersub_bench::{fig2_configs, is_quick, par_map, print_summary, run_experiment};
use hypersub_stats::Table;

fn main() {
    let configs = fig2_configs(is_quick());
    let results = par_map(&configs, run_experiment);

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
    print_summary(&results);
}
