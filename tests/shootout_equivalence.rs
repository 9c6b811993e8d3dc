//! Differential oracle for the shoot-out: on arbitrary seeded workloads,
//! all five systems (HyperSub + four baselines) must deliver the
//! identical event → subscriber relation — the delivery semantics of a
//! content-based pub/sub system are not a design choice, only its cost
//! profile is. Plus fixed-seed golden digests per baseline system, so a
//! behavioral change in any rival (which would silently re-tune the
//! comparison HyperSub is graded against) fails loudly, and a mutation
//! test showing the per-event folds still catch one wrong delivery.

use hypersub_baselines::gossip::GossipNode;
use hypersub_core::metrics::{DeliveryRecord, Metrics};
use hypersub_core::model::SubId;
use hypersub_shootout::{
    all_systems, equivalence_failures, fold_delivered, run_rung, system_by_name, Ordinals,
    ShootoutParams, System,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All five systems agree with the brute-force oracle and with each
    /// other on random rungs and seeds.
    #[test]
    fn five_systems_deliver_identically(
        nodes in 24usize..48,
        subs_per_node in 2usize..4,
        events in 6usize..16,
        seed in 0u64..1_000,
    ) {
        let outcome = run_rung(&all_systems(), (nodes, subs_per_node, events), seed)
            .expect("rung parameters are valid");
        prop_assert!(outcome.ok(), "equivalence failures: {:?}", outcome.failures);
    }
}

/// The golden rung: small enough for debug-mode CI, large enough that
/// routing, arc replication, subgroup fan-out and the broadcast tree all
/// engage.
const GOLDEN_RUNG: (usize, usize, usize) = (48, 3, 30);
const GOLDEN_SEED: u64 = 42;

fn golden_digest(system: System) -> u64 {
    let p = ShootoutParams::new(GOLDEN_RUNG, GOLDEN_SEED);
    let run = system.run(&p).expect("golden rung runs");
    assert!(
        run.equivalent(),
        "{} must pass the oracle on the golden rung",
        run.system
    );
    run.report.digest
}

/// Fixed-seed digests for every baseline system. A mismatch means the
/// baseline's observable behavior changed — retune deliberately and
/// repin, or fix the regression.
#[test]
fn baseline_golden_digests() {
    let expected: &[(&str, u64)] = &[
        ("rendezvous", 0x77980f7fe46a1429),
        ("attr_ring", 0xc56ae9451930da5d),
        ("subgroup", 0xdde2be331363bceb),
        ("gossip", 0xd997374b7b6a79ef),
    ];
    for (name, want) in expected {
        let sys = hypersub_shootout::system_by_name(name).expect("known system");
        let got = golden_digest(sys);
        assert_eq!(
            got, *want,
            "{name}: golden digest {got:#018x}, pinned {want:#018x}"
        );
    }
}

/// The oracle still bites. A real run's deliveries, each time with one
/// of them dropped, doubled or re-targeted to another live subscription,
/// go through the fold `drive` applies and the driver's per-event counts;
/// `run_rung`'s checks must then fail, and every failure line must name
/// the mutated event.
#[test]
fn one_wrong_delivery_fails_the_oracle_and_names_its_event() {
    let p = ShootoutParams::new(GOLDEN_RUNG, GOLDEN_SEED);
    let real = system_by_name("gossip").expect("known").run(&p).unwrap();
    // The same run again, for what a `SystemRun` does not keep: the
    // delivery records and the subscription ordinals.
    let mut net = p.builder().build_with(GossipNode::new).unwrap();
    let mut gen = p.workload();
    let sub_ids = gen.install(&mut net, p.spec.subs_per_node);
    net.run_to_quiescence();
    gen.schedule(&mut net, p.spec.events);
    net.run_to_quiescence();
    let ordinals: Ordinals = sub_ids.iter().copied().zip(0..).collect();
    let deliveries: Vec<DeliveryRecord> = net.deliveries().iter().collect();

    let check = |deliveries: &[DeliveryRecord]| {
        let mut metrics = Metrics::default();
        for (&event, p) in net.metrics().publishes() {
            metrics.record_publish(event, p.time, p.node, p.expected);
        }
        for d in deliveries {
            metrics.record_delivery(d.event, d.subid, d.time, d.hops);
        }
        let mut run = real.clone();
        run.event_stats = metrics.event_stats(sub_ids.len(), net.net());
        fold_delivered(&mut run.folds, &ordinals, deliveries.iter().copied());
        equivalence_failures(&[real.clone(), run])
    };
    assert_eq!(check(&deliveries), Vec::<String>::new(), "the replay");

    let at = deliveries.len() / 2;
    let victim = deliveries[at];
    let mut dropped = deliveries.clone();
    dropped.remove(at);
    let mut doubled = deliveries.clone();
    doubled.insert(at, victim);
    let served: Vec<SubId> = deliveries
        .iter()
        .filter(|d| d.event == victim.event)
        .map(|d| d.subid)
        .collect();
    let mut retargeted = deliveries.clone();
    retargeted[at].subid = *sub_ids
        .iter()
        .find(|s| !served.contains(s))
        .expect("a subscription the event did not reach");

    let named = format!("event {}:", victim.event);
    for (mutation, mutant) in [
        ("drop", dropped),
        ("duplicate", doubled),
        ("re-target", retargeted),
    ] {
        let failures = check(&mutant);
        assert!(!failures.is_empty(), "{mutation}: the oracle passed");
        assert!(
            failures.iter().all(|f| f.contains(&named)),
            "{mutation}: {failures:?} should all name {named}"
        );
    }
}
