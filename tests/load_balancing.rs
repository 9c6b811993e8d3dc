//! Integration tests for §4's load-balancing mechanisms: zone-mapping
//! rotation and dynamic subscription migration, including correctness of
//! delivery through migrated state.

use hypersub_core::advanced::SimAccess;
use hypersub_core::prelude::*;
use hypersub_tests::test_network;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A workload skewed onto one hot value so one surrogate node collects
/// almost all subscriptions.
fn skewed_subscribe(net: &mut Network, count: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = net.len();
    for _ in 0..count {
        let node = rng.gen_range(0..nodes);
        let c = rng.gen_range(40.0..41.0); // hot sliver of the domain
        let sub = Subscription::new(Rect::new(vec![c, 0.0], vec![(c + 0.5).min(100.0), 100.0]));
        net.subscribe(node, 0, sub);
    }
}

#[test]
fn migration_reduces_max_load_and_keeps_delivery_exact() {
    // Without LB.
    let mut plain = test_network(32, 41, SystemConfig::default());
    skewed_subscribe(&mut plain, 300, 9);
    plain.run_to_quiescence();
    let max_plain = plain.node_loads().into_iter().max().unwrap();

    // With LB: same workload, let several rounds run.
    let mut lb = test_network(32, 41, SystemConfig::default().with_lb());
    skewed_subscribe(&mut lb, 300, 9);
    lb.run_until(lb.time() + SimTime::from_secs(300));
    let loads = lb.node_loads();
    let max_lb = loads.iter().copied().max().unwrap();
    let migrated: u64 = lb.nodes().iter().map(|n| n.planes().lb.migrated_out).sum();

    assert!(migrated > 0, "skew must trigger migration");
    assert!(
        max_lb < max_plain,
        "migration must cut the hottest node's load: {max_lb} !< {max_plain}"
    );
    // Total stored subscriptions conserved.
    assert_eq!(
        loads.iter().sum::<u64>(),
        300,
        "no subscription may be lost or duplicated by migration"
    );

    // Delivery through migrated state stays exact.
    let mut rng = SmallRng::seed_from_u64(77);
    for _ in 0..30 {
        // Events in the hot region (matching many migrated subs) and out.
        let x = if rng.gen_bool(0.7) {
            rng.gen_range(40.0..41.5)
        } else {
            rng.gen_range(0.0..100.0)
        };
        let p = Point(vec![x, rng.gen_range(0.0..100.0)]);
        lb.publish(rng.gen_range(0..32), 0, p).unwrap();
    }
    lb.run_until(lb.time() + SimTime::from_secs(120));
    for s in lb.event_stats() {
        assert_eq!(
            s.delivered, s.expected,
            "event {} through migrated state",
            s.event
        );
        assert_eq!(s.duplicates, 0);
    }
}

#[test]
fn rotation_spreads_multi_scheme_roots() {
    // Two registries: 3 identical schemes with and without rotation.
    let build = |rotation: bool| {
        let schemes: Vec<SchemeDef> = (0..3)
            .map(|i| {
                let mut b = SchemeDef::builder(&format!("s{i}"))
                    .attribute("x", 0.0, 100.0)
                    .attribute("y", 0.0, 100.0);
                if !rotation {
                    b = b.without_rotation();
                }
                b.build(i as u32)
            })
            .collect();
        Network::builder(32)
            .registry(Registry::new(schemes))
            .config(SystemConfig::default())
            .seed(55)
            .build()
            .expect("valid test network")
    };
    // Boundary-straddling subscriptions map to the (shallow) root-side
    // zones of each scheme.
    let straddler = || Subscription::new(Rect::new(vec![49.0, 49.0], vec![51.0, 51.0]));
    let max_load = |rotation: bool| {
        let mut net = build(rotation);
        for scheme in 0..3u32 {
            for node in 0..32 {
                net.subscribe(node, scheme, straddler());
            }
        }
        net.run_to_quiescence();
        net.node_loads().into_iter().max().unwrap()
    };
    let with_rot = max_load(true);
    let without = max_load(false);
    assert!(
        with_rot < without,
        "rotation must spread identical zones of different schemes: \
         max {with_rot} (rot) !< {without} (no rot)"
    );
}

#[test]
fn high_capacity_node_tolerates_more_load() {
    // Same skewed workload twice; in the second run the hot node gets a
    // huge capacity, so it must keep (much of) its load.
    let hot_node_and_migrated = |capacity: Option<f64>| {
        let mut net = test_network(32, 41, SystemConfig::default().with_lb());
        skewed_subscribe(&mut net, 300, 9);
        net.run_until(net.time() + SimTime::from_secs(5));
        if let Some(cap) = capacity {
            // Find the (single) hot surrogate and raise its capacity.
            let hot = (0..32)
                .max_by_key(|&i| net.nodes()[i].load())
                .expect("nonempty");
            net.sim_mut().node_mut(hot).capacity = cap;
        }
        net.run_until(net.time() + SimTime::from_secs(300));
        net.nodes()
            .iter()
            .map(|n| n.planes().lb.migrated_out)
            .sum::<u64>()
    };
    let migrated_baseline = hot_node_and_migrated(None);
    let migrated_capped = hot_node_and_migrated(Some(100.0));
    assert!(migrated_baseline > 0);
    assert!(
        migrated_capped * 2 < migrated_baseline,
        "high capacity should suppress migration: {migrated_capped} vs {migrated_baseline}"
    );
}

#[test]
fn lb_disabled_never_migrates() {
    let mut net = test_network(24, 43, SystemConfig::default());
    skewed_subscribe(&mut net, 120, 3);
    net.run_until(net.time() + SimTime::from_secs(120));
    let migrated: u64 = net.nodes().iter().map(|n| n.planes().lb.migrated_out).sum();
    assert_eq!(migrated, 0);
}

/// Flight-recorder version of the convergence property: migration
/// activity must die out after a bounded number of LB rounds, proven from
/// the trace itself rather than from end-state counters.
#[test]
fn trace_shows_migration_converges_within_k_rounds() {
    let mut net = test_network(32, 41, SystemConfig::default().with_lb());
    net.enable_recording(1 << 20);
    skewed_subscribe(&mut net, 300, 9);
    // 30 LB periods (period = 30 s) — far more than convergence needs.
    net.run_until(net.time() + SimTime::from_secs(900));

    let rec = net.recorder().expect("recording enabled");
    assert_eq!(rec.evicted(), 0, "trace must fit the ring buffer");
    let times_of = |kind: &str| {
        rec.iter()
            .filter(|r| r.event.kind() == kind)
            .map(|r| r.time)
            .collect::<Vec<_>>()
    };
    let offers = times_of("lb.offer");
    let acks = times_of("lb.migrate_ack");
    assert!(!offers.is_empty(), "skew must trigger migration offers");
    assert!(!acks.is_empty(), "offers must complete into acked handoffs");

    // Convergence: the last migration activity happens within k = 9 LB
    // periods of the first offer, even though 30 periods ran — the tail
    // 20 rounds are provably silent.
    let period = SystemConfig::default().with_lb().lb.period;
    let first = *offers.first().unwrap();
    let last = offers.iter().chain(acks.iter()).copied().max().unwrap();
    let k = 9u64;
    assert!(
        last.saturating_sub(first) <= SimTime(period.0 * k),
        "migration must converge within {k} LB rounds: first {first}, last {last}"
    );

    // The trace agrees with the metrics registry: every acked handoff in
    // the trace is accounted by the migrated-subscriptions counter.
    let migrated_metric = net.metrics().proto.migrated_subs.total();
    let migrated_nodes: u64 = net.nodes().iter().map(|n| n.planes().lb.migrated_out).sum();
    assert!(migrated_metric > 0);
    assert_eq!(migrated_metric, migrated_nodes);
}
