//! Table 2 — "Simulated Networks and Avg RTTs".
//!
//! The paper derives networks of 1,000–6,000 nodes from the King dataset
//! and reports each network's average round-trip time. We generate the
//! same sizes from the King-like topology model and report measured mean
//! RTTs (all calibrated to the ~180 ms King average).

use hypersub_bench::is_quick;
use hypersub_simnet::{KingLikeTopology, SimTime, Topology};
use hypersub_stats::Table;

fn main() {
    let sizes: &[usize] = if is_quick() {
        &[1000, 2000]
    } else {
        &[1000, 2000, 3000, 4000, 5000, 6000]
    };
    let mut t = Table::new(
        "Table 2: Simulated networks and average RTTs",
        &["Size (x10^3)", "Avg RTT (ms)"],
    );
    for (i, &n) in sizes.iter().enumerate() {
        let topo = KingLikeTopology::generate(n, SimTime::from_millis(180), 0x2007 + i as u64);
        let rtt = topo.avg_rtt_sampled(100_000, 99);
        t.row(&[
            format!("{}", n / 1000),
            format!("{:.1}", rtt.as_millis_f64()),
        ]);
    }
    println!("{t}");
    println!("(King-dataset substitute: synthetic 5-D embedding with heavy-tailed jitter,\n calibrated to the dataset's published ~180 ms mean RTT; see DESIGN.md.)");
}
