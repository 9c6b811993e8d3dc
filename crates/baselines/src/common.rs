//! Delivery plumbing the baseline systems share: splitting a matched
//! SubID list along DHT links. The driver itself is `hypersub_core`'s
//! [`Net`](hypersub_core::sim::Net), generic over the node type.

use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_chord::ChordState;
use hypersub_core::model::SubTarget;
use std::collections::BTreeMap;

/// Splits a SubID list by next hop: targets this node is responsible for
/// are returned as `local`, the rest grouped per neighbor, deterministic
/// order. The same embedded-tree aggregation HyperSub's Algorithm 5 uses.
pub fn split_targets(
    chord: &ChordState,
    targets: Vec<SubTarget>,
) -> (Vec<SubTarget>, BTreeMap<usize, Vec<SubTarget>>) {
    let mut local = Vec::new();
    let mut by_hop: BTreeMap<usize, Vec<SubTarget>> = BTreeMap::new();
    for t in targets {
        match next_hop(chord, t.nid) {
            NextHop::Forward(p) => by_hop.entry(p.idx).or_default().push(t),
            NextHop::Local => local.push(t),
        }
    }
    (local, by_hop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr_ring::AttrRingNode;
    use crate::gossip::GossipNode;
    use crate::rendezvous::RendezvousNode;
    use crate::subgroup::SubgroupNode;
    use hypersub_chord::builder::{build_ring, RingConfig};
    use hypersub_core::error::HyperSubError;
    use hypersub_core::model::{Registry, SchemeDef, SubId, Subscription};
    use hypersub_core::node::HyperSubNode;
    use hypersub_core::report::Report;
    use hypersub_core::sim::{Network, NetworkBuilder, PubSubNode};
    use hypersub_lph::{ContentSpace, Point, Rect};
    use hypersub_simnet::{SimTime, UniformTopology};
    use std::sync::Arc;

    #[test]
    fn split_routes_each_target_somewhere() {
        let topo = UniformTopology::new(16, SimTime::from_millis(5));
        let states = build_ring(&RingConfig::default(), &topo, 3);
        let targets: Vec<SubTarget> = states
            .iter()
            .map(|s| SubTarget::sub(SubId { nid: s.id, iid: 1 }))
            .collect();
        let (local, by_hop) = split_targets(&states[0], targets.clone());
        let total: usize = local.len() + by_hop.values().map(|v| v.len()).sum::<usize>();
        assert_eq!(total, targets.len());
        // Node 0 is responsible exactly for its own id among these.
        assert_eq!(local.len(), 1);
        assert_eq!(local[0].nid, states[0].id);
    }

    fn registry() -> Registry {
        Registry::new(vec![SchemeDef::builder("bench")
            .attribute("x", 0.0, 100.0)
            .attribute("y", 0.0, 100.0)
            .build(0)])
    }

    fn builder(nodes: usize) -> NetworkBuilder {
        Network::builder(nodes)
            .registry(registry())
            .king_like(SimTime::from_millis(180))
            .seed(5)
    }

    /// The driver contract, for whichever node type `make` builds: typed
    /// errors, delivered == oracle for events published both now and on
    /// the script, and a report that agrees with the run.
    fn driver_contract<N: PubSubNode>(mut make: impl FnMut(ChordState) -> N) {
        assert!(matches!(
            builder(0).build_with(&mut make).err(),
            Some(HyperSubError::InvalidConfig(_))
        ));
        let mut net = builder(12).build_with(&mut make).unwrap();
        for i in 0..12 {
            let lo = i as f64 * 8.0;
            let sub = Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0]));
            net.subscribe(i, 0, sub);
        }
        net.run_to_quiescence();
        let points = [
            (3, Point(vec![50.0, 50.0])),
            (7, Point(vec![0.0, 0.0])),
            (1, Point(vec![95.0, 20.0])),
        ];
        let truth: Vec<usize> = points
            .iter()
            .map(|(_, p)| net.expected_matches(0, p).len())
            .collect();
        assert!(truth[0] >= 1);
        let out_of_range = Some(HyperSubError::NodeOutOfRange {
            node: 12,
            nodes: 12,
        });
        let at = net.time() + SimTime::from_secs(1);
        assert_eq!(
            net.schedule_publish(at, 12, 0, points[0].1.clone()).err(),
            out_of_range
        );
        assert_eq!(net.publish(12, 0, points[0].1.clone()).err(), out_of_range);
        // Each point twice: published now (events 1-3), then scheduled
        // a second apart (events 4-6).
        for (node, point) in &points {
            net.publish(*node, 0, point.clone()).unwrap();
            net.run_to_quiescence();
        }
        let mut at = net.time();
        for (node, point) in &points {
            at += SimTime::from_secs(1);
            net.schedule_publish(at, *node, 0, point.clone()).unwrap();
        }
        net.run_to_quiescence();
        let stats = net.event_stats();
        let ids: Vec<u64> = stats.iter().map(|s| s.event).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 6]);
        for (s, &expected) in stats.iter().zip(truth.iter().cycle()) {
            assert_eq!(s.expected, expected, "event {}", s.event);
            assert_eq!(s.delivered, expected, "event {}", s.event);
            assert_eq!(s.duplicates, 0, "event {}", s.event);
        }
        let report = net.report();
        assert_eq!(report.nodes, 12);
        assert_eq!(report.events.published, 6);
        assert_eq!(
            report.events.delivered,
            2 * truth.iter().sum::<usize>() as u64
        );
        assert_eq!(report.events.duplicates, 0);
        assert_eq!(report.digest, net.run_digest());
        // Every node-specific counter is the sum of the nodes' shares.
        for (slot, (name, _)) in net.nodes()[0].report_counters().iter().enumerate() {
            let total: u64 = net
                .nodes()
                .iter()
                .map(|n| n.report_counters()[slot].1)
                .sum();
            assert_eq!(report.counter_total(name), total, "{name}");
        }
        assert_eq!(Report::from_json(&report.to_json()).unwrap(), report);
    }

    #[test]
    fn driver_contract_holds_for_all_five_node_types() {
        let space = ContentSpace::uniform(2, 0.0, 100.0);
        let (registry, cfg) = (Arc::new(registry()), Arc::new(Default::default()));
        driver_contract(|st| HyperSubNode::new(st, Arc::clone(&registry), Arc::clone(&cfg)));
        driver_contract(|st| RendezvousNode::new(st, "bench"));
        driver_contract(|st| AttrRingNode::new(st, "bench", space.clone()));
        driver_contract(|st| SubgroupNode::new(st, "bench", space.clone()));
        driver_contract(GossipNode::new);
    }

    #[test]
    fn hypersub_and_a_rival_share_the_substrate() {
        let hyper = builder(24).build().unwrap();
        let rival = builder(24).build_with(GossipNode::new).unwrap();
        for i in 0..24 {
            assert_eq!(hyper.nodes()[i].chord().id, rival.nodes()[i].chord.id);
            for j in [0, 7, 23] {
                assert_eq!(
                    hyper.topology().latency(i, j),
                    rival.topology().latency(i, j),
                    "link {i}->{j}"
                );
            }
        }
    }
}
