//! Split-run equivalence suite for the checkpoint/restore plane.
//!
//! Each test runs one fully seeded scenario twice: straight through, and
//! split — run to a mid-simulation checkpoint, snapshot, *drop the
//! network*, restore the snapshot bytes in a fresh `Network`, and finish.
//! The two runs must agree bit-for-bit on the run digest, the delivery
//! trace, and the network counters, including with retries, fault
//! injection, load balancing, and self-healing enabled. A property test
//! extends the check to random checkpoint times and random feature
//! combinations.

use hypersub_core::node::DEDUP_WINDOW;
use hypersub_core::prelude::*;
use hypersub_simnet::{FaultPlane, LinkPolicy};
use hypersub_snapshot::{Encode, Writer};
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use proptest::prelude::*;

/// A deterministic scenario: a snapshot-enabled network with `subs`
/// subscriptions installed and quiesced, `events` publishes scheduled
/// into the future event queue, and (optionally) a fault plane, node
/// failure, and maintenance timers. Because every publish is scheduled
/// up front, the whole remaining run lives in the event queue and a
/// snapshot at any point carries it.
struct Scenario {
    nodes: usize,
    seed: u64,
    config: SystemConfig,
    subs: usize,
    events: usize,
    loss: Option<f64>,
    fail_node: Option<usize>,
    maintenance: bool,
}

impl Scenario {
    fn has_periodic_timers(&self) -> bool {
        self.maintenance || self.config.lb.enabled || self.config.heal.enabled
    }

    fn build(&self) -> Network {
        let scheme = SchemeDef::builder("ckpt")
            .attribute("x", 0.0, 100.0)
            .attribute("y", 0.0, 100.0)
            .build(0);
        let mut net = Network::builder(self.nodes)
            .registry(Registry::new(vec![scheme]))
            .config(self.config.clone())
            .latency(SimTime::from_millis(10))
            .seed(self.seed)
            .build()
            .expect("valid scenario network");
        if let Some(p) = self.loss {
            let mut fp = FaultPlane::new(self.seed ^ 0xfa);
            fp.set_global_policy(LinkPolicy::loss(p));
            net.install_fault_plane(fp);
        }
        let mut gen = WorkloadGen::new(WorkloadSpec::paper_table1(), self.seed ^ 0x60_1d);
        for i in 0..self.subs {
            let r4 = gen.subscription().rect;
            let rect = Rect::new(
                vec![r4.lo()[0] / 100.0, r4.lo()[1] / 100.0],
                vec![r4.hi()[0] / 100.0, r4.hi()[1] / 100.0],
            );
            net.subscribe(i % self.nodes, 0, Subscription::new(rect));
        }
        if self.maintenance {
            net.enable_maintenance();
        }
        // Periodic timers (LB/maintenance/leases) never drain the queue,
        // so maintenance scenarios settle on a fixed horizon instead.
        if self.has_periodic_timers() {
            net.run_until(SimTime::from_secs(5));
        } else {
            net.run_to_quiescence();
        }
        if let Some(n) = self.fail_node {
            net.fail(n).expect("scenario fails a live node");
        }
        let mut t = net.time() + SimTime::from_secs(1);
        for i in 0..self.events {
            let p4 = gen.event_point();
            let p = Point(vec![p4.0[0] / 100.0, p4.0[1] / 100.0]);
            net.schedule_publish(t, (i * 13) % self.nodes, 0, p)
                .expect("publisher index in range");
            t += SimTime::from_millis(750);
        }
        net
    }

    /// Runs straight through; returns the finished network.
    fn straight_through(&self) -> Network {
        let mut net = self.build();
        net.run_to_quiescence();
        net
    }

    /// Runs to `at`, snapshots, drops the network, restores from bytes,
    /// and finishes the restored network.
    fn split_at(&self, at: SimTime) -> Network {
        let mut net = self.build();
        net.run_until(at);
        let bytes = net.snapshot();
        drop(net);
        let mut resumed = Network::restore(&bytes).expect("restore snapshot bytes");
        resumed.run_to_quiescence();
        resumed
    }

    /// Asserts split-run equivalence at checkpoint time `at`.
    fn assert_split_equivalent(&self, at: SimTime) {
        let reference = self.straight_through();
        let resumed = self.split_at(at);
        assert_eq!(
            resumed.run_digest(),
            reference.run_digest(),
            "split run digest diverged (checkpoint at {at})"
        );
        assert_eq!(resumed.deliveries(), reference.deliveries());
        assert_eq!(resumed.net(), reference.net());
        // `time()` is intentionally not compared: a checkpoint past the
        // last event leaves the restored clock at the checkpoint time,
        // while the straight-through clock stops at the last event.
        assert_eq!(resumed.steps(), reference.steps());
    }
}

fn basic() -> Scenario {
    Scenario {
        nodes: 24,
        seed: 0xc4e0,
        config: SystemConfig::default(),
        subs: 48,
        events: 20,
        loss: None,
        fail_node: None,
        maintenance: false,
    }
}

#[test]
fn split_run_matches_straight_through() {
    basic().assert_split_equivalent(SimTime::from_secs(8));
}

#[test]
fn split_run_equivalent_at_many_checkpoints() {
    // Early (mid-setup tail), mid-publish, and late (drained) checkpoints.
    let s = basic();
    for secs in [1, 5, 12, 60] {
        s.assert_split_equivalent(SimTime::from_secs(secs));
    }
}

#[test]
fn split_run_with_faults_and_retries() {
    let s = Scenario {
        config: SystemConfig::default().with_retries(),
        loss: Some(0.03),
        seed: 0xfa5757,
        ..basic()
    };
    s.assert_split_equivalent(SimTime::from_secs(9));
}

#[test]
fn split_run_with_lb_healing_and_node_failure() {
    let s = Scenario {
        nodes: 32,
        seed: 0x4ea1,
        config: SystemConfig::default().with_lb().with_self_healing(),
        subs: 96,
        events: 16,
        loss: None,
        fail_node: Some(7),
        maintenance: true,
    };
    // Self-healing runs on lease timers, so the run never fully drains;
    // compare the two runs at a common horizon instead of quiescence.
    let horizon = SimTime::from_secs(120);
    let reference = {
        let mut net = s.build();
        net.run_until(horizon);
        net
    };
    let resumed = {
        let mut net = s.build();
        net.run_until(SimTime::from_secs(30));
        let bytes = net.snapshot();
        drop(net);
        let mut resumed = Network::restore(&bytes).expect("restore snapshot bytes");
        resumed.run_until(horizon);
        resumed
    };
    assert_eq!(resumed.run_digest(), reference.run_digest());
    assert_eq!(resumed.deliveries(), reference.deliveries());
    assert_eq!(resumed.net(), reference.net());
    assert_eq!(resumed.steps(), reference.steps());
}

/// Both visit-once guards forget what a node first saw more than
/// `DEDUP_WINDOW` before. A run three windows long, checkpointed after
/// the guards have forgotten and before they forget again, ends with the
/// same digest and the same guard contents as the straight run.
#[test]
fn split_run_across_dedup_evictions() {
    let s = Scenario {
        config: SystemConfig::default().with_retries(),
        events: 240, // one every 750 ms: 180 s of publishing
        ..basic()
    };
    let at = SimTime::from_secs(100);
    let guards = |net: &Network| -> Vec<Vec<u8>> {
        let mut w = Writer::new();
        net.nodes()
            .iter()
            .map(|n| {
                n.dedup.encode(&mut w);
                n.planes().rel.seen.encode(&mut w);
                std::mem::take(&mut w).into_vec()
            })
            .collect()
    };
    let oldest = |net: &Network| -> Vec<Option<SimTime>> {
        net.nodes().iter().map(|n| n.dedup.oldest()).collect()
    };

    let reference = s.straight_through();
    assert!(reference.time() > at + DEDUP_WINDOW);
    let mut net = s.build();
    let first_publish = net.time() + SimTime::from_secs(1);
    net.run_until(at);
    let at_checkpoint = oldest(&net);
    let bytes = net.snapshot();
    drop(net);
    let mut resumed = Network::restore(&bytes).expect("restore snapshot bytes");
    resumed.run_to_quiescence();

    assert!(
        at_checkpoint.iter().flatten().any(|&t| t > first_publish),
        "forgotten before the checkpoint: {at_checkpoint:?}"
    );
    let at_end = oldest(&resumed);
    assert!(
        at_end.iter().flatten().any(|&t| t > at),
        "forgotten after it: {at_end:?}"
    );
    assert_eq!(at_end, oldest(&reference));
    assert_eq!(guards(&resumed), guards(&reference));
    assert_eq!(resumed.run_digest(), reference.run_digest());
    assert_eq!(resumed.deliveries(), reference.deliveries());
    assert_eq!(resumed.net(), reference.net());
}

#[test]
fn snapshot_of_restored_network_round_trips_again() {
    // restore → run → snapshot → restore: the plane is re-entrant, not a
    // one-shot.
    let s = basic();
    let reference = s.straight_through();
    let mut net = s.build();
    net.run_until(SimTime::from_secs(4));
    let first = net.snapshot();
    drop(net);
    let mut mid = Network::restore(&first).expect("restore first");
    mid.run_until(SimTime::from_secs(10));
    let second = mid.snapshot();
    drop(mid);
    let mut fin = Network::restore(&second).expect("restore second");
    fin.run_to_quiescence();
    assert_eq!(fin.run_digest(), reference.run_digest());
    assert_eq!(fin.deliveries(), reference.deliveries());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case runs two full network simulations
        .. ProptestConfig::default()
    })]

    /// Snapshots taken at *random* simulation times, under *random*
    /// feature combinations (retries, LB, self-healing, link loss),
    /// restore to digest-identical tails.
    #[test]
    fn prop_random_checkpoint_restores_identically(
        seed in 0u64..10_000,
        at_secs in 1u64..40,
        retries in any::<bool>(),
        lb in any::<bool>(),
        heal in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let mut config = SystemConfig::default();
        if retries || lossy {
            config = config.with_retries();
        }
        if lb {
            config = config.with_lb();
        }
        if heal {
            config = config.with_self_healing();
        }
        let s = Scenario {
            nodes: 16,
            seed,
            config,
            subs: 24,
            events: 10,
            loss: lossy.then_some(0.02),
            fail_node: None,
            maintenance: lb || heal,
        };
        // Maintenance timers keep the queue alive forever; bound both
        // runs by a common horizon past the publish schedule instead.
        let horizon = SimTime::from_secs(90);
        let mut reference = s.build();
        reference.run_until(horizon);

        let mut net = s.build();
        net.run_until(SimTime::from_secs(at_secs));
        let bytes = net.snapshot();
        drop(net);
        let mut resumed = Network::restore(&bytes).expect("restore snapshot bytes");
        resumed.run_until(horizon);

        prop_assert_eq!(resumed.run_digest(), reference.run_digest());
        prop_assert_eq!(resumed.deliveries(), reference.deliveries());
        prop_assert_eq!(resumed.net(), reference.net());
        prop_assert_eq!(resumed.steps(), reference.steps());
    }
}
