//! Sensor fleet: multiple pub/sub schemes sharing one infrastructure,
//! §3.5 subschemes, and dynamic load balancing under a skewed workload.
//!
//! HyperSub's selling point is supporting "any numbers of pub/sub schemes
//! with different numbers of attributes" simultaneously. Here an
//! environmental-telemetry scheme (5 attributes, split into subschemes
//! {region} and {temperature, humidity, pressure, battery}) coexists with
//! a 2-attribute alerting scheme, on one 512-node network with the §4
//! migration mechanism enabled. Sensors cluster in one hot region, so the
//! load balancer has real work to do.
//!
//! Run with: `cargo run --release -p hypersub-examples --bin sensor_fleet`

use hypersub_core::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let telemetry = SchemeDef::builder("telemetry")
        .attribute("region", 0.0, 100.0)
        .attribute("temp_c", -40.0, 60.0)
        .attribute("humidity", 0.0, 100.0)
        .attribute("pressure", 900.0, 1100.0)
        .attribute("battery", 0.0, 100.0)
        .subscheme(&[0])
        .subscheme(&[1, 2, 3, 4])
        .build(0);
    let alerts = SchemeDef::builder("alerts")
        .attribute("severity", 0.0, 10.0)
        .attribute("region", 0.0, 100.0)
        .build(1);
    let registry = Registry::new(vec![telemetry.clone(), alerts.clone()]);

    let nodes = 512;
    let mut net = Network::builder(nodes)
        .registry(registry)
        .config(SystemConfig::default().with_lb())
        .seed(2024)
        .build()
        .expect("valid configuration");
    let mut rng = SmallRng::seed_from_u64(5);

    // Operators watch their region's telemetry; most watch region ~20
    // (the hot region), which skews storage load.
    for _ in 0..800 {
        let node = rng.gen_range(0..nodes);
        let region = if rng.gen_bool(0.7) {
            rng.gen_range(15.0..25.0)
        } else {
            rng.gen_range(0.0..100.0)
        };
        let sub = Subscription::from_predicates(
            &telemetry.space,
            &[(0, region - 2.0, region + 2.0), (1, 30.0, 60.0)],
        );
        net.subscribe(node, 0, sub);
        // Every 4th operator also wants severe alerts anywhere.
        if rng.gen_bool(0.25) {
            let sub = Subscription::from_predicates(&alerts.space, &[(0, 7.0, 10.0)]);
            net.subscribe(node, 1, sub);
        }
    }
    // Let installation finish and several LB rounds run.
    net.run_until(net.time() + SimTime::from_secs(240));

    // Telemetry stream: readings clustered in the hot region, hot summer.
    let mut t = net.time();
    for _ in 0..3000 {
        let node = rng.gen_range(0..nodes);
        let region = if rng.gen_bool(0.7) {
            rng.gen_range(15.0..25.0)
        } else {
            rng.gen_range(0.0..100.0)
        };
        let point = Point(vec![
            region,
            rng.gen_range(20.0..55.0),
            rng.gen_range(10.0..90.0),
            rng.gen_range(950.0..1050.0),
            rng.gen_range(5.0..100.0),
        ]);
        net.schedule_publish(t, node, 0, point)
            .expect("publisher index in range");
        // Occasional alert.
        if rng.gen_bool(0.05) {
            let alert = Point(vec![rng.gen_range(0.0..10.0), region]);
            net.schedule_publish(t, node, 1, alert)
                .expect("publisher index in range");
        }
        t += SimTime::from_millis(rng.gen_range(20..120));
    }
    net.run_until(t + SimTime::from_secs(120));

    let stats = net.event_stats();
    let incomplete = stats.iter().filter(|s| s.delivered != s.expected).count();
    let loads = {
        let mut v = net.node_loads();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    };
    let migrated: u64 = net.nodes().iter().map(|n| n.planes().lb.migrated_out).sum();
    let mean = loads.iter().sum::<u64>() as f64 / nodes as f64;
    println!("events: {} ({} telemetry+alerts)", stats.len(), stats.len());
    println!(
        "deliveries complete: {}/{} events",
        stats.len() - incomplete,
        stats.len()
    );
    println!(
        "load after balancing: max {} mean {:.1} (max/mean {:.1}); {} subscriptions migrated",
        loads[0],
        mean,
        loads[0] as f64 / mean.max(1e-9),
        migrated
    );
    assert!(incomplete == 0, "all matched operators must be notified");
    assert!(migrated > 0, "the skewed workload should trigger migration");
    println!("sensor_fleet OK");
}
