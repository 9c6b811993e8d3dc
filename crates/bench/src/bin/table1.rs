//! Table 1 — "Publish/subscribe scheme and properties".
//!
//! Prints the workload specification (the reproduction's stand-in for the
//! paper's OCR-garbled numeric cells) plus measured properties of the
//! generated streams, so the calibration is auditable.

use hypersub_core::model::Event;
use hypersub_stats::Table;
use hypersub_workload::{WorkloadGen, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::paper_table1();
    let mut t = Table::new(
        "Table 1: Publish/subscribe scheme and properties",
        &[
            "Dim",
            "Min",
            "Max",
            "Data skew factor",
            "Data hotspot",
            "Size skew factor",
            "Size hotspot",
        ],
    );
    for (i, a) in spec.attrs.iter().enumerate() {
        t.row(&[
            format!("{} ({})", i, a.name),
            format!("{}", a.min),
            format!("{}", a.max),
            format!("{}", a.data_skew),
            format!("{:.0}%", a.data_hotspot * 100.0),
            format!("{}", a.size_skew),
            format!("{:.0}%", a.size_hotspot * 100.0),
        ]);
    }
    println!("{t}");

    let mut t = Table::new("Workload scale parameters", &["parameter", "value"]);
    t.row(&[
        "subscriptions per node".into(),
        spec.subs_per_node.to_string(),
    ]);
    t.row(&["events".into(), spec.events.to_string()]);
    t.row(&[
        "mean event inter-arrival".into(),
        format!("{}", spec.mean_interarrival),
    ]);
    println!("{t}");

    // Measured properties of the streams (ground-truth calibration).
    let mut gen = WorkloadGen::new(spec.clone(), 7);
    let subs: Vec<_> = (0..10_000).map(|_| gen.subscription()).collect();
    let events: Vec<Event> = (0..2_000)
        .map(|i| Event {
            id: i,
            point: gen.event_point(),
        })
        .collect();
    let mut matched_total = 0usize;
    for e in &events {
        matched_total += subs.iter().filter(|s| s.matches(e)).count();
    }
    let avg_matched = 100.0 * matched_total as f64 / (events.len() * subs.len()) as f64;
    let mut avg_size_frac = vec![0.0f64; spec.dims()];
    for s in &subs {
        for (d, a) in spec.attrs.iter().enumerate() {
            avg_size_frac[d] += (s.rect.hi()[d] - s.rect.lo()[d]) / (a.max - a.min);
        }
    }
    let mut t = Table::new("Measured workload properties", &["property", "value"]);
    t.row(&[
        "avg matched subscriptions per event".into(),
        format!("{avg_matched:.3}% (paper Fig 2a: 0.834%)"),
    ]);
    for (d, frac) in avg_size_frac.iter().enumerate() {
        t.row(&[
            format!("avg range size, dim {d}"),
            format!("{:.2}% of domain", 100.0 * frac / subs.len() as f64),
        ]);
    }
    println!("{t}");
}
