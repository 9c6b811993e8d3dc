//! Flood/gossip pub/sub strawman (SmartPubSub-style, after arXiv
//! 2207.06369).
//!
//! Subscriptions never leave the subscriber: installation costs zero
//! messages and zero remote storage. Every published event is instead
//! disseminated to *all* brokers over the Chord broadcast tree (El-Ansary
//! et al.: each node forwards to the fingers inside its assigned arc,
//! sub-dividing the arc so every node is reached exactly once), and each
//! broker matches the event against its own subscriptions locally. This
//! is the unstructured extreme of the design space — O(n) bandwidth per
//! event, perfectly flat storage — and the strawman every structured
//! design in the shoot-out must beat on bandwidth while matching on
//! delivery.

use hypersub_chord::{clockwise_distance, ChordState};
use hypersub_core::model::{Event, SchemeId, SubId, Subscription};
use hypersub_core::msg::{EVENT_BYTES, HEADER_BYTES};
use hypersub_core::sim::{fire_scripted, PubSubNode};
use hypersub_core::world::HyperWorld;
use hypersub_simnet::{Ctx, Node, Payload};
use std::collections::HashMap;

/// Gossip-system messages.
#[derive(Debug, Clone)]
pub enum GossipMsg {
    /// Broadcast-tree dissemination: the receiver owns the ring arc
    /// `(receiver, limit]` and must cover it.
    Flood {
        /// The event.
        event: Event,
        /// Hops so far.
        hops: u32,
        /// Last ring id of the receiver's arc.
        limit: u64,
    },
}

impl Payload for GossipMsg {
    fn wire_size(&self) -> usize {
        let GossipMsg::Flood { .. } = self;
        HEADER_BYTES + EVENT_BYTES + 8
    }

    fn flow(&self) -> Option<u64> {
        let GossipMsg::Flood { event, .. } = self;
        Some(event.id)
    }
}

type Cx<'a> = Ctx<'a, GossipMsg, HyperWorld>;

/// A node of the gossip/flood baseline.
#[derive(Debug, Clone)]
pub struct GossipNode {
    /// Chord routing state (used only for the broadcast tree).
    pub chord: ChordState,
    /// Local subscriptions by internal id — the only storage anywhere.
    pub local: HashMap<u32, Subscription>,
    next_iid: u32,
}

impl GossipNode {
    /// Creates a node.
    pub fn new(chord: ChordState) -> Self {
        Self {
            chord,
            local: HashMap::new(),
            next_iid: 1,
        }
    }

    /// Delivers locally and covers the arc `(self, limit]` by delegating
    /// disjoint sub-arcs to routing-table neighbors (Chord broadcast).
    fn flood(&mut self, ctx: &mut Cx<'_>, event: Event, hops: u32, limit: u64) {
        let now = ctx.now();
        let mut matched: Vec<u32> = self
            .local
            .iter()
            .filter(|(_, s)| s.matches(&event))
            .map(|(&iid, _)| iid)
            .collect();
        matched.sort_unstable();
        for iid in matched {
            ctx.world().metrics.record_delivery(
                event.id,
                SubId {
                    nid: self.chord.id,
                    iid,
                },
                now,
                hops,
            );
        }
        // Children: every known neighbor inside the arc, nearest first —
        // a prefix of the route table, which is sorted by distance and
        // distinct. It includes the immediate successor, so no node in
        // the arc can be skipped; an empty arc (a leaf of the broadcast
        // tree) has none.
        let span = clockwise_distance(self.chord.id, limit);
        let table = self.chord.route_table();
        let inside = table.partition_point(|p| clockwise_distance(self.chord.id, p.id) <= span);
        let children = &table[..inside];
        for (i, child) in children.iter().enumerate() {
            let next = children.get(i + 1);
            ctx.send(
                child.idx,
                GossipMsg::Flood {
                    event: event.clone(),
                    hops: hops + 1,
                    limit: next.map_or(limit, |n| n.id.wrapping_sub(1)),
                },
            );
        }
    }
}

impl Node<GossipMsg, HyperWorld> for GossipNode {
    fn on_message(&mut self, ctx: &mut Cx<'_>, _from: usize, msg: GossipMsg) {
        let GossipMsg::Flood { event, hops, limit } = msg;
        self.flood(ctx, event, hops, limit);
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_>, token: u64) {
        fire_scripted(self, ctx, token);
    }
}

impl PubSubNode for GossipNode {
    type Msg = GossipMsg;

    /// Installs a subscription: purely local, no messages.
    ///
    /// The baselines serve one scheme, so `_scheme` goes unused.
    fn subscribe(&mut self, _ctx: &mut Cx<'_>, _scheme: SchemeId, sub: Subscription) -> SubId {
        let iid = self.next_iid;
        self.next_iid += 1;
        self.local.insert(iid, sub);
        SubId {
            nid: self.chord.id,
            iid,
        }
    }

    /// Publishes an event: flood it over the whole ring.
    fn publish(&mut self, ctx: &mut Cx<'_>, _scheme: SchemeId, event: Event) {
        // The publisher owns the whole ring except itself, so it can
        // never be re-reached by its own children.
        let limit = self.chord.id.wrapping_sub(1);
        self.flood(ctx, event, 0, limit);
    }

    /// Stored-entry count: local subscriptions only (flat by design).
    fn load(&self) -> u64 {
        self.local.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_core::sim::{Net, Network};
    use hypersub_lph::{Point, Rect};
    use hypersub_simnet::SimTime;

    fn make_net(n: usize) -> Net<GossipNode> {
        Network::builder(n)
            .seed(5)
            .build_with(GossipNode::new)
            .unwrap()
    }

    #[test]
    fn subscriptions_cost_zero_messages() {
        let mut net = make_net(16);
        for i in 0..16 {
            let sub = Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]));
            net.subscribe(i, 0, sub);
        }
        net.run_to_quiescence();
        assert_eq!(net.net().total_msgs(), 0);
        assert!(net.node_loads().iter().all(|&l| l == 1), "storage is flat");
    }

    #[test]
    fn flood_reaches_every_node_exactly_once() {
        let mut net = make_net(32);
        // Everyone subscribes to everything: delivered == nodes iff the
        // broadcast tree covers the ring without duplicates.
        for i in 0..32 {
            let sub = Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]));
            net.subscribe(i, 0, sub);
        }
        net.run_to_quiescence();
        let at = net.time() + SimTime::from_secs(1);
        net.schedule_publish(at, 5, 0, Point(vec![50.0, 50.0]))
            .unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].delivered, 32);
        assert_eq!(stats[0].duplicates, 0);
        // Exactly n - 1 flood messages: one per non-publisher node.
        assert_eq!(net.net().total_msgs(), 31);
    }
}
