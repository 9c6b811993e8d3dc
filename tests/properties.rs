//! Cross-crate property-based tests: for arbitrary workloads, the
//! delivered set equals the brute-force matched set, on arbitrary ring
//! sizes and zone bases.

use hypersub_core::node::{DedupCache, EventDedup, DEDUP_WINDOW};
use hypersub_core::prelude::*;
use hypersub_simnet::{FaultPlane, LinkPolicy};
use hypersub_snapshot::{Decode, Encode, Reader, Writer};
use hypersub_tests::test_network;
use proptest::prelude::*;

fn encoded(v: &impl Encode) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.into_vec()
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..100.0, 0.0f64..100.0, 0.0f64..25.0, 0.0f64..25.0).prop_map(|(x, y, wx, wy)| {
        Rect::new(
            vec![
                x.min(100.0 - wx.min(99.0)).max(0.0),
                y.min(100.0 - wy.min(99.0)).max(0.0),
            ],
            vec![(x + wx).min(100.0), (y + wy).min(100.0)],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full network simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_delivered_equals_bruteforce(
        rects in prop::collection::vec(arb_rect(), 1..20),
        points in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 1..8),
        nodes in 8usize..40,
        base4 in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let config = if base4 { SystemConfig::base4() } else { SystemConfig::default() };
        let mut net = test_network(nodes, seed, config);
        for (i, r) in rects.iter().enumerate() {
            net.subscribe(i % nodes, 0, Subscription::new(r.clone()));
        }
        net.run_to_quiescence();
        for (i, &(x, y)) in points.iter().enumerate() {
            let p = Point(vec![x, y]);
            net.publish((i * 7) % nodes, 0, p).unwrap();
        }
        net.run_to_quiescence();
        for s in net.event_stats() {
            prop_assert_eq!(s.delivered, s.expected, "event {}", s.event);
            prop_assert_eq!(s.duplicates, 0);
        }
    }

    #[test]
    fn prop_bandwidth_and_hops_bounded(
        seed in 0u64..500,
        nodes in 8usize..48,
    ) {
        let mut net = test_network(nodes, seed, SystemConfig::default());
        net.subscribe(0, 0, Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])));
        net.run_to_quiescence();
        let ev = net.publish(nodes - 1, 0, Point(vec![50.0, 50.0])).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        let s = stats.iter().find(|s| s.event == ev).unwrap();
        prop_assert_eq!(s.delivered, 1);
        // Greedy Chord routing halves distance each hop: even with the
        // zone-tree climb the path is O(log^2 n) at worst, far below n.
        prop_assert!(s.max_hops as usize <= 4 * 64, "hops {}", s.max_hops);
        prop_assert!(s.bandwidth_bytes > 0);
    }

    /// Under ≤1% uniform loss with retries enabled, delivery stays ≥99%
    /// complete and duplicate-free: the backoff chain (5 attempts over
    /// ~7.75 s) makes residual per-hop failure astronomically unlikely.
    #[test]
    fn prop_loss_with_retries_delivers(
        rects in prop::collection::vec(arb_rect(), 4..16),
        points in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 1..6),
        nodes in 8usize..24,
        seed in 0u64..500,
        drop_pct in 1u32..=10, // 0.1%..1.0%
    ) {
        let mut net = test_network(nodes, seed, SystemConfig::default().with_retries());
        let mut fp = FaultPlane::new(seed ^ 0xfa51);
        fp.set_global_policy(LinkPolicy::loss(drop_pct as f64 / 1000.0));
        net.install_fault_plane(fp);
        for (i, r) in rects.iter().enumerate() {
            net.subscribe(i % nodes, 0, Subscription::new(r.clone()));
        }
        net.run_to_quiescence();
        for (i, &(x, y)) in points.iter().enumerate() {
            net.publish((i * 7) % nodes, 0, Point(vec![x, y])).unwrap();
        }
        net.run_to_quiescence();
        let (del, exp, dup) = net.event_stats().iter().fold((0, 0, 0), |a, s| {
            (a.0 + s.delivered, a.1 + s.expected, a.2 + s.duplicates)
        });
        prop_assert!(del * 100 >= exp * 99, "delivered {del}/{exp}");
        prop_assert_eq!(dup, 0, "retransmissions must never surface as duplicates");
    }

    /// Fault-injected duplication never surfaces as duplicate deliveries:
    /// the receiver-side seen-cache (retries on) and the per-event
    /// delivery dedup cache (retries off) both absorb copies.
    #[test]
    fn prop_duplication_never_delivers_twice(
        rects in prop::collection::vec(arb_rect(), 4..16),
        points in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 1..6),
        nodes in 8usize..24,
        seed in 0u64..500,
        dup_prob in 0.05f64..0.3,
        retries in any::<bool>(),
    ) {
        let config = if retries {
            SystemConfig::default().with_retries()
        } else {
            SystemConfig::default()
        };
        let mut net = test_network(nodes, seed, config);
        let mut fp = FaultPlane::new(seed ^ 0xd0b1e);
        fp.set_global_policy(LinkPolicy::duplication(dup_prob));
        net.install_fault_plane(fp);
        for (i, r) in rects.iter().enumerate() {
            net.subscribe(i % nodes, 0, Subscription::new(r.clone()));
        }
        net.run_to_quiescence();
        for (i, &(x, y)) in points.iter().enumerate() {
            net.publish((i * 7) % nodes, 0, Point(vec![x, y])).unwrap();
        }
        net.run_to_quiescence();
        prop_assert!(net.net().duplicated() > 0, "dup policy must have fired");
        for s in net.event_stats() {
            prop_assert_eq!(s.delivered, s.expected, "event {}", s.event);
            prop_assert_eq!(s.duplicates, 0, "event {}", s.event);
        }
    }

    /// Identical seeds and fault policies replay to identical statistics:
    /// the whole stack (simulator, fault plane, retry timers) is
    /// deterministic.
    #[test]
    fn prop_identical_seeds_replay_identically(
        rects in prop::collection::vec(arb_rect(), 2..10),
        nodes in 8usize..24,
        seed in 0u64..500,
        fault_seed in 0u64..500,
    ) {
        let run = || {
            let mut net = test_network(nodes, seed, SystemConfig::default().with_retries());
            let mut fp = FaultPlane::new(fault_seed);
            fp.set_global_policy(
                LinkPolicy::loss(0.02)
                    .with_duplication(0.02)
                    .with_jitter(SimTime::from_millis(5)),
            );
            net.install_fault_plane(fp);
            for (i, r) in rects.iter().enumerate() {
                net.subscribe(i % nodes, 0, Subscription::new(r.clone()));
            }
            net.run_to_quiescence();
            for p in 0..4usize {
                net.publish((p * 5) % nodes, 0, Point(vec![(p * 29 % 100) as f64, 50.0])).unwrap();
            }
            net.run_to_quiescence();
            (net.event_stats(), net.net().clone())
        };
        let (stats_a, net_a) = run();
        let (stats_b, net_b) = run();
        prop_assert_eq!(stats_a, stats_b);
        prop_assert_eq!(net_a, net_b);
    }

    /// The self-healing plane is provably inert while disabled: tweaking
    /// its knobs (replication factor, lease period) without flipping
    /// `enabled` never changes the run digest or the event schedule.
    #[test]
    fn prop_self_healing_off_never_changes_run_digest(
        rects in prop::collection::vec(arb_rect(), 2..12),
        points in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 1..6),
        nodes in 8usize..32,
        seed in 0u64..500,
        replication in 0usize..8,
        lease_secs in 1u64..30,
    ) {
        let run = |config: SystemConfig| {
            let mut net = test_network(nodes, seed, config);
            for (i, r) in rects.iter().enumerate() {
                net.subscribe(i % nodes, 0, Subscription::new(r.clone()));
            }
            net.run_to_quiescence();
            for (i, &(x, y)) in points.iter().enumerate() {
                net.publish((i * 7) % nodes, 0, Point(vec![x, y])).unwrap();
            }
            net.run_to_quiescence();
            (net.run_digest(), net.steps())
        };
        let mut tweaked = SystemConfig::default();
        tweaked.heal.replication_factor = replication;
        tweaked.heal.lease_period = SimTime::from_secs(lease_secs);
        let (d_a, s_a) = run(SystemConfig::default());
        let (d_b, s_b) = run(tweaked);
        prop_assert_eq!(d_a, d_b, "disabled self-healing must be digest-neutral");
        prop_assert_eq!(s_a, s_b, "disabled self-healing must not add sim events");
    }

    /// The flight recorder is provably digest-neutral: recording an
    /// arbitrary faulty workload never changes the delivery trace or the
    /// network counters, bit for bit.
    #[test]
    fn prop_recording_never_changes_run_digest(
        rects in prop::collection::vec(arb_rect(), 2..12),
        points in prop::collection::vec((0.0f64..=100.0, 0.0f64..=100.0), 1..6),
        nodes in 8usize..32,
        seed in 0u64..500,
        capacity_bits in 4usize..12, // ring capacities 16..4096, incl. overflow
        faulty in any::<bool>(),
    ) {
        let run = |record: bool| {
            let config = if faulty {
                SystemConfig::default().with_retries()
            } else {
                SystemConfig::default()
            };
            let mut net = test_network(nodes, seed, config);
            if record {
                net.enable_recording(1 << capacity_bits);
            }
            if faulty {
                let mut fp = FaultPlane::new(seed ^ 0x0b5e);
                fp.set_global_policy(LinkPolicy::loss(0.01).with_duplication(0.01));
                net.install_fault_plane(fp);
            }
            for (i, r) in rects.iter().enumerate() {
                net.subscribe(i % nodes, 0, Subscription::new(r.clone()));
            }
            net.run_to_quiescence();
            for (i, &(x, y)) in points.iter().enumerate() {
                net.publish((i * 7) % nodes, 0, Point(vec![x, y])).unwrap();
            }
            net.run_to_quiescence();
            let recorded = net.recorder().map(|r| r.recorded()).unwrap_or(0);
            (net.run_digest(), net.steps(), recorded)
        };
        let (d_off, steps_off, rec_off) = run(false);
        let (d_on, steps_on, rec_on) = run(true);
        prop_assert_eq!(d_off, d_on, "recording must be digest-neutral");
        prop_assert_eq!(steps_off, steps_on, "recording must not add sim events");
        prop_assert_eq!(rec_off, 0u64);
        prop_assert!(rec_on > 0, "a real workload must record something");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4, // each case runs one adversity scenario twice, end to end
        .. ProptestConfig::default()
    })]

    /// Scenario runs are a pure function of (scenario, seed, tier,
    /// defense): re-running the same configuration reproduces the digest
    /// and every verdict bit for bit, whatever the seed — the property
    /// CI's stamp-and-resume machinery and the golden outcome files both
    /// stand on. (The invariants need not *pass* at arbitrary seeds;
    /// they must merely be the same both times.)
    #[test]
    fn prop_scenario_runs_are_deterministic(
        which in 0usize..hypersub_scenario::Scenario::ALL.len(),
        seed in 0u64..1000,
        defense in any::<bool>(),
    ) {
        use hypersub_scenario::{RunConfig, Scenario};
        let scenario = Scenario::ALL[which];
        let cfg = if defense {
            RunConfig::quick(seed)
        } else {
            RunConfig::quick(seed).without_defense()
        };
        let a = scenario.run(&cfg).expect("first run");
        let b = scenario.run(&cfg).expect("second run");
        prop_assert_eq!(a.digest, b.digest, "digest must be seed-deterministic");
        prop_assert_eq!(a.verdicts, b.verdicts, "verdicts must be seed-deterministic");
        prop_assert_eq!(
            (a.steps, a.published, a.expected, a.delivered, a.duplicates),
            (b.steps, b.published, b.expected, b.delivered, b.duplicates)
        );
    }
}

proptest! {
    /// The per-event visit-once guard against the per-pair cache it
    /// replaced on the delivery path: below capacity and inside the
    /// window nothing ages out, so the two must agree on every pair.
    #[test]
    fn prop_event_dedup_agrees_with_the_pair_cache(
        // Few events and ids, so that histories repeat pairs, interleave
        // events and run lists past their inline length. Steps of under
        // 300 ms keep 200 of them inside the window.
        history in prop::collection::vec((0u64..6, 0u32..24, 0u64..300), 0..200),
    ) {
        let mut by_event = EventDedup::new(256);
        let mut by_pair = DedupCache::new(256);
        let mut now = SimTime::ZERO;
        for &(event, iid, step_ms) in &history {
            now += SimTime::from_millis(step_ms);
            prop_assert_eq!(
                by_event.insert(event, iid, now),
                by_pair.insert((event, iid), now)
            );
        }
        prop_assert!(now <= DEDUP_WINDOW);
        prop_assert_eq!(by_event.len(), by_pair.len());

        // encode -> decode -> encode is byte-stable for both, and the
        // decoded guard remembers the same pairs.
        let pairs = encoded(&by_pair);
        let pairs_back = DedupCache::decode(&mut Reader::new(&pairs)).unwrap();
        prop_assert_eq!(encoded(&pairs_back), pairs);
        let bytes = encoded(&by_event);
        let mut back = EventDedup::decode(&mut Reader::new(&bytes)).unwrap();
        prop_assert_eq!(encoded(&back), bytes);
        for &(event, iid, _) in &history {
            prop_assert!(!back.insert(event, iid, now));
        }
    }
}
