//! Golden-digest regression tests for the simulate/deliver hot path.
//!
//! Each scenario runs a fully seeded quick-mode simulation and asserts
//! the FNV-1a digest of its complete delivery trace + network counters
//! against a constant captured from the pre-optimization tree. A
//! hot-path change (zero-copy payloads, scratch buffers, queue/stats
//! internals, latency caching) must keep every digest bit-identical —
//! these tests are the proof that an optimization preserved semantics.
//!
//! If a digest ever changes on purpose (a *semantic* change to delivery
//! or accounting), re-capture with:
//! `cargo test -p hypersub-tests --test golden -- --nocapture`
//! (each failure prints the observed digest) and update the constant in
//! the same commit that explains why.

use hypersub_core::prelude::*;
use hypersub_simnet::{FaultPlane, LinkPolicy};
use hypersub_tests::test_network;
use hypersub_workload::{WorkloadGen, WorkloadSpec};

/// Deterministic quick workload over a [`test_network`]: `subs`
/// subscriptions and `events` publications from a seeded generator.
fn run_quick(
    nodes: usize,
    seed: u64,
    config: SystemConfig,
    subs: usize,
    events: usize,
    fault: Option<FaultPlane>,
) -> u64 {
    let mut net = test_network(nodes, seed, config);
    if let Some(fp) = fault {
        net.install_fault_plane(fp);
    }
    // The workload generator targets paper_table1's 4-d space; project its
    // rects/points onto the test network's 2-d [0,100]^2 scheme.
    let mut gen = WorkloadGen::new(WorkloadSpec::paper_table1(), seed ^ 0x60_1d);
    for i in 0..subs {
        let r4 = gen.subscription().rect;
        let rect = Rect::new(
            vec![r4.lo()[0] / 100.0, r4.lo()[1] / 100.0],
            vec![r4.hi()[0] / 100.0, r4.hi()[1] / 100.0],
        );
        net.subscribe(i % nodes, 0, Subscription::new(rect));
    }
    net.run_to_quiescence();
    for i in 0..events {
        let p4 = gen.event_point();
        let p = Point(vec![p4.0[0] / 100.0, p4.0[1] / 100.0]);
        net.publish((i * 13) % nodes, 0, p).unwrap();
        net.run_to_quiescence();
    }
    let d = net.run_digest();
    println!("digest: {d:#018x}");
    d
}

#[test]
fn golden_basic_delivery() {
    let d = run_quick(48, 11, SystemConfig::default(), 96, 40, None);
    assert_eq!(d, GOLDEN_BASIC, "observed {d:#018x}");
}

#[test]
fn golden_base4_delivery() {
    let d = run_quick(32, 12, SystemConfig::base4(), 64, 30, None);
    assert_eq!(d, GOLDEN_BASE4, "observed {d:#018x}");
}

#[test]
fn golden_retries_under_loss() {
    let mut fp = FaultPlane::new(0xfa57);
    fp.set_global_policy(LinkPolicy::loss(0.02));
    let d = run_quick(
        24,
        13,
        SystemConfig::default().with_retries(),
        48,
        25,
        Some(fp),
    );
    assert_eq!(d, GOLDEN_LOSSY, "observed {d:#018x}");
}

/// Same scenario twice must agree with itself (guards the harness: if
/// this fails, the scenario is nondeterministic and the constants above
/// prove nothing).
#[test]
fn golden_scenarios_are_deterministic() {
    let run = || run_quick(16, 14, SystemConfig::default(), 32, 10, None);
    assert_eq!(run(), run());
}

/// The contract digest of the quick pinned run — `hotpath --quick`'s
/// recipe, spelled with the two calls every §5.1 run in the repo makes:
/// 192 King-like nodes, `install` 4 subscriptions a node, settle,
/// `schedule` 600 events, run. Tier-1's view of the digest CI and
/// `results/REPORT_hotpath_quick.json` pin (`0x420a6a1ef6408bbe`); the
/// 1024-node digest stays with CI and `perf selftest`.
#[test]
fn golden_pinned_quick_run() {
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
    gen.schedule(&mut net, 600);
    net.run_to_quiescence();
    let d = net.run_digest();
    assert_eq!(d, GOLDEN_PINNED_QUICK, "observed {d:#018x}");
}

const GOLDEN_PINNED_QUICK: u64 = 0x420a_6a1e_f640_8bbe;

// Captured from the pre-optimization tree (PR 2, commit introducing this
// file); see module docs for the re-capture procedure.
const GOLDEN_BASIC: u64 = 0x7453_5f99_5236_44ab;
const GOLDEN_BASE4: u64 = 0x6d3b_4ca9_1077_5379;
const GOLDEN_LOSSY: u64 = 0xc63c_4ebc_40e8_3ab6;
