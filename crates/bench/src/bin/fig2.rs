//! Figure 2 — distribution of events with respect to (a) percentage of
//! matched subscriptions, (b) max hops, (c) max latency and (d) bandwidth
//! cost per event, for the four configurations {base 2 level 20, base 4
//! level 10} × {no LB, LB}.

use hypersub_bench::{cdf_table, fig2_configs, is_quick, par_map, print_summary, run_experiment};

fn main() {
    let configs = fig2_configs(is_quick());
    let results = par_map(&configs, run_experiment);

    // (a) matched percentage — workload property, identical across
    // configurations; plotted from the first run as the paper does.
    let matched: Vec<f64> = results[0]
        .events
        .iter()
        .map(|e| 100.0 * e.matched_fraction)
        .collect();
    println!(
        "{}",
        cdf_table(
            &format!(
                "Fig 2(a): CDF of events vs % matched subscriptions (avg {:.3}%)",
                results[0].avg_matched_pct()
            ),
            "matched %",
            &[("all configs".to_string(), matched)],
            25,
        )
    );

    // (b) max hops.
    let hops: Vec<(String, Vec<f64>)> = results
        .iter()
        .map(|r| {
            (
                format!("{} (avg {:.0})", r.label, r.avg_max_hops()),
                r.events.iter().map(|e| e.max_hops as f64).collect(),
            )
        })
        .collect();
    println!(
        "{}",
        cdf_table("Fig 2(b): CDF of events vs max hops", "max hops", &hops, 25)
    );

    // (c) max latency.
    let lat: Vec<(String, Vec<f64>)> = results
        .iter()
        .map(|r| {
            (
                format!("{} (avg {:.0}ms)", r.label, r.avg_max_latency_ms()),
                r.events
                    .iter()
                    .map(|e| e.max_latency.as_millis_f64())
                    .collect(),
            )
        })
        .collect();
    println!(
        "{}",
        cdf_table(
            "Fig 2(c): CDF of events vs max latency (ms)",
            "max latency (ms)",
            &lat,
            25,
        )
    );

    // (d) bandwidth cost per event.
    let bw: Vec<(String, Vec<f64>)> = results
        .iter()
        .map(|r| {
            (
                format!("{} (avg {:.1}KB)", r.label, r.avg_bandwidth_kb()),
                r.events
                    .iter()
                    .map(|e| e.bandwidth_bytes as f64 / 1024.0)
                    .collect(),
            )
        })
        .collect();
    println!(
        "{}",
        cdf_table(
            "Fig 2(d): CDF of events vs bandwidth cost per event (KB)",
            "bandwidth (KB)",
            &bw,
            25,
        )
    );

    print_summary(&results);
}
