//! End-to-end integration tests: subscribe → publish → deliver across the
//! full stack (simnet + chord + lph + core), checked against the
//! brute-force oracle on every event.

use hypersub_core::prelude::*;
use hypersub_tests::test_network;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Publishes `n_events` random events and asserts exact delivery (set
/// equality with the oracle, no duplicates).
fn assert_exact_delivery(net: &mut Network, n_events: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = net.len();
    for _ in 0..n_events {
        let point = Point(vec![rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)]);
        net.publish(rng.gen_range(0..nodes), 0, point).unwrap();
    }
    net.run_to_quiescence();
    for s in net.event_stats() {
        assert_eq!(
            s.delivered, s.expected,
            "event {}: delivered {} != expected {}",
            s.event, s.delivered, s.expected
        );
        assert_eq!(s.duplicates, 0, "event {} duplicated", s.event);
    }
}

#[test]
fn random_workload_exact_delivery() {
    let mut net = test_network(64, 11, SystemConfig::default());
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..200 {
        let node = rng.gen_range(0..64);
        let cx: f64 = rng.gen_range(0.0..100.0);
        let cy: f64 = rng.gen_range(0.0..100.0);
        let wx: f64 = rng.gen_range(0.0..30.0);
        let wy: f64 = rng.gen_range(0.0..30.0);
        let sub = Subscription::new(Rect::new(
            vec![(cx - wx).max(0.0), (cy - wy).max(0.0)],
            vec![(cx + wx).min(100.0), (cy + wy).min(100.0)],
        ));
        net.subscribe(node, 0, sub);
    }
    net.run_to_quiescence();
    assert_exact_delivery(&mut net, 60, 1);
}

#[test]
fn base4_zone_geometry_exact_delivery() {
    let mut net = test_network(48, 13, SystemConfig::base4());
    let mut rng = SmallRng::seed_from_u64(5);
    for i in 0..120 {
        let node = i % 48;
        let c = rng.gen_range(0.0..95.0);
        let sub = Subscription::new(Rect::new(vec![c, 0.0], vec![c + 5.0, 100.0]));
        net.subscribe(node, 0, sub);
    }
    net.run_to_quiescence();
    assert_exact_delivery(&mut net, 50, 2);
}

#[test]
fn boundary_events_and_degenerate_subscriptions() {
    let mut net = test_network(32, 17, SystemConfig::default());
    // Degenerate (equality) subscriptions and boundary-straddling ranges.
    net.subscribe(
        0,
        0,
        Subscription::new(Rect::new(vec![50.0, 0.0], vec![50.0, 100.0])),
    );
    net.subscribe(
        1,
        0,
        Subscription::new(Rect::new(vec![49.9, 49.9], vec![50.1, 50.1])),
    );
    net.subscribe(
        2,
        0,
        Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
    );
    net.subscribe(
        3,
        0,
        Subscription::new(Rect::new(vec![100.0, 100.0], vec![100.0, 100.0])),
    );
    net.run_to_quiescence();
    // Events exactly on zone boundaries, domain corners, and the
    // degenerate plane.
    for point in [
        Point(vec![50.0, 50.0]),
        Point(vec![50.0, 0.0]),
        Point(vec![0.0, 0.0]),
        Point(vec![100.0, 100.0]),
        Point(vec![25.0, 75.0]),
        Point(vec![50.0, 100.0]),
    ] {
        let ev = net.publish(5, 0, point.clone()).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        let s = stats.iter().find(|s| s.event == ev).unwrap();
        let expected = net.expected_matches(0, &point);
        assert_eq!(s.delivered, expected.len(), "boundary point {:?}", point);
        assert_eq!(s.duplicates, 0);
    }
}

#[test]
fn multi_scheme_isolation() {
    let a = SchemeDef::builder("alpha")
        .attribute("x", 0.0, 10.0)
        .build(0);
    let b = SchemeDef::builder("beta")
        .attribute("x", 0.0, 10.0)
        .attribute("y", 0.0, 10.0)
        .attribute("z", 0.0, 10.0)
        .build(1);
    let mut net = Network::builder(24)
        .registry(Registry::new(vec![a, b]))
        .config(SystemConfig::default())
        .seed(23)
        .build()
        .expect("valid test network");
    // Identical numeric interests in both schemes.
    net.subscribe(1, 0, Subscription::new(Rect::new(vec![2.0], vec![4.0])));
    net.subscribe(
        2,
        1,
        Subscription::new(Rect::new(vec![2.0, 0.0, 0.0], vec![4.0, 10.0, 10.0])),
    );
    net.run_to_quiescence();
    // Publish into scheme 0 only: scheme 1's subscriber must not fire.
    let ev = net.publish(3, 0, Point(vec![3.0])).unwrap();
    net.run_to_quiescence();
    let stats = net.event_stats();
    let s = stats.iter().find(|s| s.event == ev).unwrap();
    assert_eq!(s.expected, 1);
    assert_eq!(s.delivered, 1);
    // And scheme 1 delivery works with 3 attributes (different dims).
    let ev = net.publish(4, 1, Point(vec![3.0, 5.0, 5.0])).unwrap();
    net.run_to_quiescence();
    let stats = net.event_stats();
    let s = stats.iter().find(|s| s.event == ev).unwrap();
    assert_eq!(s.expected, 1);
    assert_eq!(s.delivered, 1);
}

#[test]
fn subschemes_deliver_exactly() {
    let scheme = SchemeDef::builder("split")
        .attribute("a", 0.0, 100.0)
        .attribute("b", 0.0, 100.0)
        .attribute("c", 0.0, 100.0)
        .attribute("d", 0.0, 100.0)
        .subscheme(&[0, 1])
        .subscheme(&[2, 3])
        .build(0);
    let space = scheme.space.clone();
    let mut net = Network::builder(40)
        .registry(Registry::new(vec![scheme]))
        .config(SystemConfig::default())
        .seed(29)
        .build()
        .expect("valid test network");
    let mut rng = SmallRng::seed_from_u64(3);
    for i in 0..100 {
        let node = i % 40;
        // Half constrain {a,b}, half {c,d}.
        let dims: [usize; 2] = if i % 2 == 0 { [0, 1] } else { [2, 3] };
        let c0 = rng.gen_range(0.0..90.0);
        let c1 = rng.gen_range(0.0..90.0);
        let sub = Subscription::from_predicates(
            &space,
            &[(dims[0], c0, c0 + 10.0), (dims[1], c1, c1 + 10.0)],
        );
        net.subscribe(node, 0, sub);
    }
    net.run_to_quiescence();
    let mut rng = SmallRng::seed_from_u64(4);
    for _ in 0..40 {
        let point = Point((0..4).map(|_| rng.gen_range(0.0..=100.0)).collect());
        net.publish(rng.gen_range(0..40), 0, point).unwrap();
    }
    net.run_to_quiescence();
    for s in net.event_stats() {
        assert_eq!(s.delivered, s.expected, "event {}", s.event);
        assert_eq!(s.duplicates, 0, "event {}", s.event);
    }
}

#[test]
fn king_topology_latencies_accumulate() {
    let scheme = SchemeDef::builder("t").attribute("x", 0.0, 100.0).build(0);
    let mut net = Network::builder(64)
        .registry(Registry::new(vec![scheme]))
        .config(SystemConfig::default())
        .topology(hypersub_core::sim::TopologyKind::KingLike(
            SimTime::from_millis(180),
        ))
        .seed(31)
        .build()
        .expect("valid test network");
    net.subscribe(7, 0, Subscription::new(Rect::new(vec![0.0], vec![100.0])));
    net.run_to_quiescence();
    let ev = net.publish(50, 0, Point(vec![42.0])).unwrap();
    net.run_to_quiescence();
    let stats = net.event_stats();
    let s = stats.iter().find(|s| s.event == ev).unwrap();
    assert_eq!(s.delivered, 1);
    assert!(
        s.max_latency > SimTime::ZERO,
        "delivery over a real topology takes time"
    );
    assert!(s.max_hops >= 1);
}

/// After the pinned `hotpath --quick` install (192 King-like nodes, 4
/// subscriptions a node), every node's repository table, id table and
/// each repository's pushed children are in key order, and the id table
/// names exactly the node's repositories, each under its own key — never
/// a local subscription's id.
#[test]
fn installed_node_tables_are_sorted_and_name_their_repositories() {
    use hypersub_core::node::IidTarget;
    use hypersub_workload::{WorkloadGen, WorkloadSpec};
    const SEED: u64 = 0xbe9c_2007;
    let spec = WorkloadSpec::paper_table1();
    let mut net = Network::builder(192)
        .registry(Registry::new(vec![spec.scheme_def(0)]))
        .king_like(SimTime::from_millis(180))
        .seed(SEED)
        .build()
        .expect("valid pinned configuration");
    let mut gen = WorkloadGen::new(spec, SEED ^ 0xabcd);
    gen.install(&mut net, 4);
    net.run_to_quiescence();
    let (mut repos, mut pushed) = (0, 0);
    for node in net.nodes() {
        assert!(node.repos.keys().is_sorted() && node.iids.keys().is_sorted());
        assert_eq!(node.iids.len(), node.repos.len());
        for (key, repo) in &node.repos {
            assert_eq!(node.iids.get(&repo.iid), Some(&IidTarget::Repo(*key)));
            assert!(repo.pushed.keys().is_sorted());
            pushed += repo.pushed.len();
        }
        assert!(node
            .local_subs
            .keys()
            .all(|iid| !node.iids.contains_key(iid)));
        repos += node.repos.len();
    }
    assert!(
        repos > 0 && pushed > 0,
        "{repos} repositories, {pushed} pushed"
    );
}
