//! Figure 3 — distribution of nodes with respect to (a) in-node and
//! (b) out-node bandwidth over the whole simulation, for the four
//! configurations of Figure 2. Load balancing should cut the maxima.

use hypersub_bench::{cdf_table, fig2_configs, is_quick, par_map, print_summary, run_experiment};
use hypersub_stats::Table;

fn main() {
    let configs = fig2_configs(is_quick());
    let results = par_map(&configs, run_experiment);

    let in_bw: Vec<(String, Vec<f64>)> = results
        .iter()
        .map(|r| {
            let v: Vec<f64> = r
                .node_traffic
                .iter()
                .map(|t| t.bytes_in as f64 / 1024.0)
                .collect();
            let max = v.iter().copied().fold(0.0f64, f64::max);
            (format!("{} (max {:.0}KB)", r.label, max), v)
        })
        .collect();
    println!(
        "{}",
        cdf_table(
            "Fig 3(a): CDF of nodes vs in-node bandwidth (KB)",
            "in bandwidth (KB)",
            &in_bw,
            25,
        )
    );

    let out_bw: Vec<(String, Vec<f64>)> = results
        .iter()
        .map(|r| {
            let v: Vec<f64> = r
                .node_traffic
                .iter()
                .map(|t| t.bytes_out as f64 / 1024.0)
                .collect();
            let max = v.iter().copied().fold(0.0f64, f64::max);
            (format!("{} (max {:.0}KB)", r.label, max), v)
        })
        .collect();
    println!(
        "{}",
        cdf_table(
            "Fig 3(b): CDF of nodes vs out-node bandwidth (KB)",
            "out bandwidth (KB)",
            &out_bw,
            25,
        )
    );

    // Maxima table: the numbers the paper quotes in the legend.
    let mut t = Table::new(
        "Per-node bandwidth maxima",
        &["config", "max in (KB)", "max out (KB)"],
    );
    for r in &results {
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
    print_summary(&results);
}
