//! Ablation A1 — zone base β sweep: base 2 (level 20), base 4 (level 10),
//! base 16 (level 5), all over 20 zone bits. Larger bases shorten the
//! zone tree (fewer climb hops, less delivery latency/bandwidth) but
//! concentrate load — the Figure 2/4 trade-off, extended one step.

use hypersub_bench::{is_quick, par_map, print_summary, ExperimentConfig};
use hypersub_core::config::SystemConfig;
use hypersub_lph::ZoneParams;
use hypersub_stats::Table;

fn main() {
    let quick = is_quick();
    let bases: Vec<(u8, &str)> = vec![
        (1, "base 2, level 20"),
        (2, "base 4, level 10"),
        (4, "base 16, level 5"),
    ];
    let configs: Vec<ExperimentConfig> = bases
        .iter()
        .map(|&(bits, label)| {
            let mut c = ExperimentConfig::paper_default().with_label(label);
            c.system = SystemConfig {
                zone: ZoneParams::new(bits, 20),
                ..SystemConfig::default()
            };
            if quick {
                c = c.quick();
            } else {
                c.params.spec.events = 5000;
            }
            c
        })
        .collect();
    let runs = par_map(&configs, ExperimentConfig::run);
    print_summary(&configs, &runs);

    let mut t = Table::new(
        "Ablation A1: zone base vs load concentration",
        &["config", "max load", "mean load", "max/mean"],
    );
    for (c, r) in configs.iter().zip(&runs) {
        let max = r.loads.iter().copied().max().unwrap_or(0);
        let mean = r.loads.iter().sum::<u64>() as f64 / r.loads.len().max(1) as f64;
        t.row(&[
            c.label.clone(),
            max.to_string(),
            format!("{mean:.1}"),
            format!("{:.1}", max as f64 / mean.max(1e-9)),
        ]);
    }
    println!("{t}");
    println!("Expected shape: hops/latency/bandwidth fall with larger base; max/mean load rises.");
}
