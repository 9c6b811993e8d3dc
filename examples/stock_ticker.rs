//! Stock ticker: the workload the paper's introduction motivates —
//! content-based dissemination of market events to subscribers with
//! range predicates.
//!
//! A 4-attribute scheme (symbol id, price, change %, volume) runs on a
//! 256-node network; 60 traders install range subscriptions ("tech
//! stocks with price 50–100 and change below −2 %"), then a tape of
//! 2,000 trades streams through and every delivery is checked against
//! ground truth.
//!
//! Run with: `cargo run --release -p hypersub-examples --bin stock_ticker`

use hypersub_core::prelude::*;
use hypersub_stats::Cdf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scheme = SchemeDef::builder("market")
        .attribute("symbol", 0.0, 500.0) // symbol ids 0..500
        .attribute("price", 0.0, 1_000.0)
        .attribute("change_pct", -20.0, 20.0)
        .attribute("volume", 0.0, 1_000_000.0)
        .build(0);
    let registry = Registry::new(vec![scheme.clone()]);
    let nodes = 256;
    let mut net = Network::builder(nodes)
        .registry(registry)
        .config(SystemConfig::default())
        .seed(7)
        .build()
        .expect("valid configuration");
    let mut rng = SmallRng::seed_from_u64(99);

    // Traders: sector watchers, bargain hunters, crash alarms.
    for t in 0..60 {
        let node = rng.gen_range(0..nodes);
        let sub = match t % 3 {
            // A sector: 50 consecutive symbol ids, any price/volume.
            0 => {
                let s0 = rng.gen_range(0..450) as f64;
                Subscription::from_predicates(&scheme.space, &[(0, s0, s0 + 50.0)])
            }
            // Bargain hunter: one symbol, price band.
            1 => {
                let sym = rng.gen_range(0..500) as f64;
                let p0 = rng.gen_range(0..800) as f64;
                Subscription::from_predicates(&scheme.space, &[(0, sym, sym), (1, p0, p0 + 200.0)])
            }
            // Crash alarm: any symbol dropping more than 5% on volume.
            _ => Subscription::from_predicates(
                &scheme.space,
                &[(2, -20.0, -5.0), (3, 500_000.0, 1_000_000.0)],
            ),
        };
        net.subscribe(node, 0, sub);
    }
    net.run_to_quiescence();

    // The tape: trades clustered on popular symbols.
    let mut t = net.time() + SimTime::from_millis(100);
    let mut published = Vec::new();
    for _ in 0..2000 {
        let sym = (rng.gen_range(0..500) as f64 * rng.gen::<f64>()).floor();
        let point = Point(vec![
            sym,
            rng.gen_range(0.0..1000.0),
            rng.gen_range(-20.0..20.0),
            rng.gen_range(0.0..1_000_000.0),
        ]);
        let node = rng.gen_range(0..nodes);
        published.push(
            net.schedule_publish(t, node, 0, point)
                .expect("publisher index in range"),
        );
        t += SimTime::from_millis(rng.gen_range(10..100));
    }
    net.run_to_quiescence();

    let stats = net.event_stats();
    let mut hops = Cdf::new();
    let mut latency = Cdf::new();
    let mut matched = Cdf::new();
    let mut incomplete = 0;
    for s in &stats {
        hops.push(s.max_hops as f64);
        latency.push(s.max_latency.as_millis_f64());
        matched.push(s.expected as f64);
        if s.delivered != s.expected {
            incomplete += 1;
        }
    }
    println!("trades published: {}", stats.len());
    println!(
        "matched subscriptions/trade: mean {:.2}, max {}",
        matched.mean(),
        matched.max()
    );
    println!(
        "delivery: max-hops mean {:.1} p99 {}, max-latency mean {:.0} ms p99 {:.0} ms",
        hops.mean(),
        hops.quantile(0.99),
        latency.mean(),
        latency.quantile(0.99)
    );
    assert_eq!(incomplete, 0, "every matched trader must get every trade");
    println!(
        "stock_ticker OK: all {} trades fully delivered",
        stats.len()
    );
}
