//! Ferry-style single-rendezvous pub/sub baseline.
//!
//! One hash point per scheme: `key = hash(scheme name)`. Its successor —
//! the *rendezvous node* — stores every subscription and matches every
//! event. Events route to the rendezvous, match there, and fan out to
//! subscribers along the DHT's embedded tree (Ferry's delivery technique,
//! which HyperSub adopted). All matching/storage load concentrates on one
//! node, which is exactly the scalability concern §2 raises about Ferry.

use crate::common::{split_targets, to_targets};
use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_chord::ChordState;
use hypersub_core::model::{Event, SchemeId, SubId, SubTarget, Subscription};
use hypersub_core::msg::{EVENT_BYTES, HEADER_BYTES, SUBID_BYTES};
use hypersub_core::node::TOKEN_PUBLISH_BASE;
use hypersub_core::sim::PubSubNode;
use hypersub_core::world::HyperWorld;
use hypersub_lph::rotation_offset;
use hypersub_simnet::{Node, NodeRuntime, Payload};
use std::collections::HashMap;

/// Rendezvous-system messages.
#[derive(Debug, Clone)]
pub enum RdvMsg {
    /// Route a subscription to the rendezvous node.
    Register {
        /// Rendezvous key.
        key: u64,
        /// Subscriber.
        subid: SubId,
        /// Subscription hypercuboid.
        sub: Subscription,
    },
    /// Route an event to the rendezvous node.
    Publish {
        /// Rendezvous key.
        key: u64,
        /// The event.
        event: Event,
        /// Hops so far.
        hops: u32,
    },
    /// Deliver matched results (embedded-tree fan-out).
    Delivery {
        /// The event.
        event: Event,
        /// Hops so far.
        hops: u32,
        /// SubID list.
        targets: Vec<SubTarget>,
    },
}

impl Payload for RdvMsg {
    fn wire_size(&self) -> usize {
        match self {
            RdvMsg::Register { sub, .. } => HEADER_BYTES + 8 + SUBID_BYTES + 16 * sub.rect.dims(),
            RdvMsg::Publish { .. } => HEADER_BYTES + EVENT_BYTES + SUBID_BYTES,
            RdvMsg::Delivery { targets, .. } => {
                HEADER_BYTES + EVENT_BYTES + SUBID_BYTES * targets.len()
            }
        }
    }

    fn flow(&self) -> Option<u64> {
        match self {
            RdvMsg::Publish { event, .. } | RdvMsg::Delivery { event, .. } => Some(event.id),
            RdvMsg::Register { .. } => None,
        }
    }
}

/// A node of the rendezvous baseline.
#[derive(Debug, Clone)]
pub struct RendezvousNode {
    /// Chord routing state.
    pub chord: ChordState,
    /// The scheme's rendezvous key.
    pub rdv_key: u64,
    /// Subscriptions stored here (non-empty only on the rendezvous node).
    pub store: HashMap<SubId, Subscription>,
    /// This node's local subscriptions (by internal id).
    pub local: HashMap<u32, Subscription>,
    next_iid: u32,
}

impl RendezvousNode {
    /// Creates a node for a scheme identified by `scheme_name`.
    pub fn new(chord: ChordState, scheme_name: &str) -> Self {
        Self {
            chord,
            rdv_key: rotation_offset(scheme_name),
            store: HashMap::new(),
            local: HashMap::new(),
            next_iid: 1,
        }
    }

    fn route_register<R: NodeRuntime<RdvMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        subid: SubId,
        sub: Subscription,
    ) {
        if self.chord.responsible_for(self.rdv_key) {
            self.store.insert(subid, sub);
        } else {
            match next_hop(&self.chord, self.rdv_key) {
                NextHop::Forward(p) => ctx.send(
                    p.idx,
                    RdvMsg::Register {
                        key: self.rdv_key,
                        subid,
                        sub,
                    },
                ),
                NextHop::Local => {
                    self.store.insert(subid, sub);
                }
            }
        }
    }

    /// Publishes an event from this node.
    pub fn publish<R: NodeRuntime<RdvMsg, HyperWorld>>(&mut self, ctx: &mut R, event: Event) {
        let (me, now) = (ctx.me(), ctx.now());
        let expected = ctx.world().oracle.expected_count(0, &event.point);
        ctx.world()
            .metrics
            .record_publish(event.id, now, me, expected);
        self.route_publish(ctx, event, 0);
    }

    fn route_publish<R: NodeRuntime<RdvMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        event: Event,
        hops: u32,
    ) {
        if self.chord.responsible_for(self.rdv_key) {
            self.match_and_deliver(ctx, event, hops);
        } else {
            match next_hop(&self.chord, self.rdv_key) {
                NextHop::Forward(p) => ctx.send(
                    p.idx,
                    RdvMsg::Publish {
                        key: self.rdv_key,
                        event,
                        hops: hops + 1,
                    },
                ),
                NextHop::Local => self.match_and_deliver(ctx, event, hops),
            }
        }
    }

    fn match_and_deliver<R: NodeRuntime<RdvMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        event: Event,
        hops: u32,
    ) {
        let mut matched: Vec<SubId> = self
            .store
            .iter()
            .filter(|(_, s)| s.matches(&event))
            .map(|(&id, _)| id)
            .collect();
        matched.sort_unstable();
        self.deliver(ctx, event, hops, to_targets(matched));
    }

    fn deliver<R: NodeRuntime<RdvMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        event: Event,
        hops: u32,
        targets: Vec<SubTarget>,
    ) {
        let (local, by_hop) = split_targets(&self.chord, targets);
        for t in local {
            if let Some(iid) = t.iid {
                if self.local.contains_key(&iid) {
                    let now = ctx.now();
                    ctx.world().metrics.record_delivery(
                        event.id,
                        SubId { nid: t.nid, iid },
                        now,
                        hops,
                    );
                }
            }
        }
        for (idx, targets) in by_hop {
            ctx.send(
                idx,
                RdvMsg::Delivery {
                    event: event.clone(),
                    hops: hops + 1,
                    targets,
                },
            );
        }
    }
}

impl Node<RdvMsg, HyperWorld> for RendezvousNode {
    fn on_message<R: NodeRuntime<RdvMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        _from: usize,
        msg: RdvMsg,
    ) {
        match msg {
            RdvMsg::Register { subid, sub, .. } => self.route_register(ctx, subid, sub),
            RdvMsg::Publish { event, hops, .. } => self.route_publish(ctx, event, hops),
            RdvMsg::Delivery {
                event,
                hops,
                targets,
            } => self.deliver(ctx, event, hops, targets),
        }
    }

    fn on_timer<R: NodeRuntime<RdvMsg, HyperWorld>>(&mut self, ctx: &mut R, token: u64) {
        if token >= TOKEN_PUBLISH_BASE {
            let idx = (token - TOKEN_PUBLISH_BASE) as usize;
            let (_scheme, ev) = ctx.world().take_scripted(idx);
            self.publish(ctx, ev);
        }
    }
}

impl PubSubNode for RendezvousNode {
    type Msg = RdvMsg;

    /// Installs a subscription from this node.
    ///
    /// The baselines serve one scheme, so `_scheme` goes unused.
    fn subscribe<R: NodeRuntime<RdvMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        _scheme: SchemeId,
        sub: Subscription,
    ) -> SubId {
        let iid = self.next_iid;
        self.next_iid += 1;
        self.local.insert(iid, sub.clone());
        let subid = SubId {
            nid: self.chord.id,
            iid,
        };
        ctx.world().oracle.add(0, subid, sub.clone());
        self.route_register(ctx, subid, sub);
        subid
    }

    /// Stored-subscription count (load metric).
    fn load(&self) -> u64 {
        self.store.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_chord::builder::{build_ring, RingConfig};
    use hypersub_lph::{Point, Rect};
    use hypersub_simnet::{Sim, SimTime, UniformTopology};
    use std::sync::Arc;

    fn make_sim(n: usize) -> Sim<RendezvousNode, RdvMsg, HyperWorld> {
        let topo = Arc::new(UniformTopology::new(n, SimTime::from_millis(10)));
        let states = build_ring(&RingConfig::default(), topo.as_ref(), 5);
        let nodes: Vec<RendezvousNode> = states
            .into_iter()
            .map(|st| RendezvousNode::new(st, "bench"))
            .collect();
        Sim::new(topo, nodes, HyperWorld::default(), 1)
    }

    #[test]
    fn end_to_end_matches_bruteforce() {
        let mut sim = make_sim(12);
        for i in 0..12 {
            let lo = i as f64 * 8.0;
            let sub = Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0]));
            sim.with_node_ctx(i, |n, ctx| n.subscribe(ctx, 0, sub));
        }
        sim.run(1_000_000);
        let point = Point(vec![50.0, 50.0]);
        let expected = sim.world().oracle.expected_matches(0, &point).len();
        assert!(expected >= 1);
        sim.with_node_ctx(3, |n, ctx| {
            n.publish(
                ctx,
                Event {
                    id: 1,
                    point: point.clone(),
                },
            )
        });
        sim.run(1_000_000);
        let stats = sim.world().metrics.event_stats(12, sim.net());
        assert_eq!(stats[0].delivered, expected);
        assert_eq!(stats[0].duplicates, 0);
    }

    #[test]
    fn all_storage_on_one_node() {
        let mut sim = make_sim(16);
        for i in 0..16 {
            let sub = Subscription::new(Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]));
            sim.with_node_ctx(i, |n, ctx| n.subscribe(ctx, 0, sub));
        }
        sim.run(1_000_000);
        let loads: Vec<u64> = (0..16).map(|i| sim.node(i).load()).collect();
        let nonzero: Vec<&u64> = loads.iter().filter(|&&l| l > 0).collect();
        assert_eq!(nonzero.len(), 1, "rendezvous concentrates all storage");
        assert_eq!(*nonzero[0], 16);
    }
}
