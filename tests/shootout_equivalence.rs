//! Differential oracle for the shoot-out: on arbitrary seeded workloads,
//! all five systems (HyperSub + four baselines) must deliver the
//! identical event → subscriber relation — the delivery semantics of a
//! content-based pub/sub system are not a design choice, only its cost
//! profile is. Plus fixed-seed golden digests per baseline system, so a
//! behavioral change in any rival (which would silently re-tune the
//! comparison HyperSub is graded against) fails loudly.

use hypersub_shootout::{all_systems, run_rung, ShootoutParams, System};
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
        let first = &outcome.runs[0];
        for r in &outcome.runs[1..] {
            prop_assert_eq!(r.delivered_canonical(), first.delivered_canonical());
            prop_assert_eq!(r.expected_canonical(), first.expected_canonical());
        }
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
