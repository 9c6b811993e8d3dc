//! Attribute-range-on-the-ring pub/sub baseline
//! (Triantafillou & Aekaterinidis, DEBS'04 style).
//!
//! "Content space for each attribute is mapped onto the ring.
//! Subscriptions are stored onto the nodes whose identifiers lie in the
//! corresponding range" (§2). A subscription picks its most selective
//! attribute and is *replicated* onto every node whose arc intersects the
//! key range of that attribute interval — the paper's criticism is
//! precisely that this "will involve a large number of nodes and
//! messages". An event probes one node per attribute (the successor of
//! the event value's key on that attribute's ring) and delivers matches
//! through the shared embedded-tree splitter.

use crate::common::{split_targets, to_targets};
use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_chord::{in_open_closed, ChordState};
use hypersub_core::model::{Event, SchemeId, SubId, SubTarget, Subscription};
use hypersub_core::msg::{EVENT_BYTES, HEADER_BYTES, SUBID_BYTES};
use hypersub_core::node::TOKEN_PUBLISH_BASE;
use hypersub_core::sim::PubSubNode;
use hypersub_core::world::HyperWorld;
use hypersub_lph::{rotation_offset, ContentSpace};
use hypersub_simnet::{Node, NodeRuntime, Payload};
use std::collections::HashMap;

/// Attribute-ring messages.
#[derive(Debug, Clone)]
pub enum AttrMsg {
    /// Subscription replication along its attribute arc.
    Register {
        /// Next key on the walk (routing target).
        cursor: u64,
        /// Last key of the subscription's arc.
        end: u64,
        /// Attribute index the subscription is indexed under.
        attr: u8,
        /// Subscriber.
        subid: SubId,
        /// Full subscription rect.
        sub: Subscription,
    },
    /// Event probe on one attribute ring.
    Publish {
        /// The event value's key on the attribute ring.
        key: u64,
        /// The attribute being probed.
        attr: u8,
        /// The event.
        event: Event,
        /// Hops so far.
        hops: u32,
    },
    /// Matched-result fan-out.
    Delivery {
        /// The event.
        event: Event,
        /// Hops so far.
        hops: u32,
        /// SubID list.
        targets: Vec<SubTarget>,
    },
}

impl Payload for AttrMsg {
    fn wire_size(&self) -> usize {
        match self {
            AttrMsg::Register { sub, .. } => HEADER_BYTES + 17 + SUBID_BYTES + 16 * sub.rect.dims(),
            AttrMsg::Publish { .. } => HEADER_BYTES + EVENT_BYTES + SUBID_BYTES,
            AttrMsg::Delivery { targets, .. } => {
                HEADER_BYTES + EVENT_BYTES + SUBID_BYTES * targets.len()
            }
        }
    }

    fn flow(&self) -> Option<u64> {
        match self {
            AttrMsg::Publish { event, .. } | AttrMsg::Delivery { event, .. } => Some(event.id),
            AttrMsg::Register { .. } => None,
        }
    }
}

/// A node of the attribute-ring baseline.
#[derive(Debug, Clone)]
pub struct AttrRingNode {
    /// Chord routing state.
    pub chord: ChordState,
    /// The scheme's content space (shared by all nodes).
    pub space: ContentSpace,
    /// Per-attribute ring offsets.
    pub offsets: Vec<u64>,
    /// Stored replicas: attribute → subid → subscription.
    pub store: HashMap<u8, HashMap<SubId, Subscription>>,
    /// Local subscriptions by internal id.
    pub local: HashMap<u32, Subscription>,
    next_iid: u32,
}

impl AttrRingNode {
    /// Creates a node for the given scheme space.
    pub fn new(chord: ChordState, scheme_name: &str, space: ContentSpace) -> Self {
        let offsets = (0..space.dims())
            .map(|j| rotation_offset(&format!("{scheme_name}/attr{j}")))
            .collect();
        Self {
            chord,
            space,
            offsets,
            store: HashMap::new(),
            local: HashMap::new(),
            next_iid: 1,
        }
    }

    /// Maps an attribute value onto its ring.
    pub fn value_key(&self, attr: usize, v: f64) -> u64 {
        let d = self.space.domain(attr);
        let frac = ((v - d.lo) / d.width()).clamp(0.0, 1.0);
        // Scale into the full 64-bit space, then rotate onto this
        // attribute's ring.
        let scaled = (frac * (u64::MAX as f64)) as u64;
        scaled.wrapping_add(self.offsets[attr])
    }

    /// The attribute a subscription is indexed under: the one with the
    /// narrowest relative range (most selective).
    pub fn choose_attr(&self, sub: &Subscription) -> usize {
        let mut best = 0;
        let mut best_frac = f64::INFINITY;
        for j in 0..self.space.dims() {
            let d = self.space.domain(j);
            let frac = (sub.rect.hi[j] - sub.rect.lo[j]) / d.width();
            if frac < best_frac {
                best = j;
                best_frac = frac;
            }
        }
        best
    }

    /// Walks the subscription's key arc, storing a replica on every
    /// responsible node (the expensive installation §2 criticizes).
    fn route_register<R: NodeRuntime<AttrMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        cursor: u64,
        end: u64,
        attr: u8,
        subid: SubId,
        sub: Subscription,
    ) {
        if self.chord.responsible_for(cursor) {
            self.store
                .entry(attr)
                .or_default()
                .insert(subid, sub.clone());
            // Continue the walk if the arc extends beyond my segment.
            let covered_to = self.chord.id;
            let arc_done = in_open_closed(cursor.wrapping_sub(1), end, covered_to);
            if !arc_done {
                if let Some(succ) = self.chord.successor() {
                    ctx.send(
                        succ.idx,
                        AttrMsg::Register {
                            cursor: covered_to.wrapping_add(1),
                            end,
                            attr,
                            subid,
                            sub,
                        },
                    );
                }
            }
        } else {
            match next_hop(&self.chord, cursor) {
                NextHop::Forward(p) => ctx.send(
                    p.idx,
                    AttrMsg::Register {
                        cursor,
                        end,
                        attr,
                        subid,
                        sub,
                    },
                ),
                NextHop::Local => {
                    self.store.entry(attr).or_default().insert(subid, sub);
                }
            }
        }
    }

    /// Publishes an event: one probe per attribute ring.
    pub fn publish<R: NodeRuntime<AttrMsg, HyperWorld>>(&mut self, ctx: &mut R, event: Event) {
        let (me, now) = (ctx.me(), ctx.now());
        let expected = ctx.world().oracle.expected_count(0, &event.point);
        ctx.world()
            .metrics
            .record_publish(event.id, now, me, expected);
        for attr in 0..self.space.dims() {
            let key = self.value_key(attr, event.point.0[attr]);
            self.route_publish(ctx, key, attr as u8, event.clone(), 0);
        }
    }

    fn route_publish<R: NodeRuntime<AttrMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        key: u64,
        attr: u8,
        event: Event,
        hops: u32,
    ) {
        if self.chord.responsible_for(key) {
            self.match_and_deliver(ctx, attr, event, hops);
        } else {
            match next_hop(&self.chord, key) {
                NextHop::Forward(p) => ctx.send(
                    p.idx,
                    AttrMsg::Publish {
                        key,
                        attr,
                        event,
                        hops: hops + 1,
                    },
                ),
                NextHop::Local => self.match_and_deliver(ctx, attr, event, hops),
            }
        }
    }

    fn match_and_deliver<R: NodeRuntime<AttrMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        attr: u8,
        event: Event,
        hops: u32,
    ) {
        let Some(shard) = self.store.get(&attr) else {
            return;
        };
        let mut matched: Vec<SubId> = shard
            .iter()
            .filter(|(_, s)| s.matches(&event))
            .map(|(&id, _)| id)
            .collect();
        matched.sort_unstable();
        self.deliver(ctx, event, hops, to_targets(matched));
    }

    fn deliver<R: NodeRuntime<AttrMsg, HyperWorld>>(
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
                AttrMsg::Delivery {
                    event: event.clone(),
                    hops: hops + 1,
                    targets,
                },
            );
        }
    }
}

impl Node<AttrMsg, HyperWorld> for AttrRingNode {
    fn on_message<R: NodeRuntime<AttrMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        _from: usize,
        msg: AttrMsg,
    ) {
        match msg {
            AttrMsg::Register {
                cursor,
                end,
                attr,
                subid,
                sub,
            } => self.route_register(ctx, cursor, end, attr, subid, sub),
            AttrMsg::Publish {
                key,
                attr,
                event,
                hops,
            } => self.route_publish(ctx, key, attr, event, hops),
            AttrMsg::Delivery {
                event,
                hops,
                targets,
            } => self.deliver(ctx, event, hops, targets),
        }
    }

    fn on_timer<R: NodeRuntime<AttrMsg, HyperWorld>>(&mut self, ctx: &mut R, token: u64) {
        if token >= TOKEN_PUBLISH_BASE {
            let idx = (token - TOKEN_PUBLISH_BASE) as usize;
            let (_scheme, ev) = ctx.world().take_scripted(idx);
            self.publish(ctx, ev);
        }
    }
}

impl PubSubNode for AttrRingNode {
    type Msg = AttrMsg;

    /// Installs a subscription from this node.
    ///
    /// The baselines serve one scheme, so `_scheme` goes unused.
    fn subscribe<R: NodeRuntime<AttrMsg, HyperWorld>>(
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
        let attr = self.choose_attr(&sub);
        let start = self.value_key(attr, sub.rect.lo[attr]);
        let end = self.value_key(attr, sub.rect.hi[attr]);
        self.route_register(ctx, start, end, attr as u8, subid, sub);
        subid
    }

    /// Stored replica count (load metric; replicas of one subscription on
    /// many nodes each count once, which is the point of the comparison).
    fn load(&self) -> u64 {
        self.store.values().map(|m| m.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_chord::builder::{build_ring, RingConfig};
    use hypersub_lph::{Point, Rect};
    use hypersub_simnet::{Sim, SimTime, UniformTopology};
    use std::sync::Arc;

    fn make_sim(n: usize) -> Sim<AttrRingNode, AttrMsg, HyperWorld> {
        let topo = Arc::new(UniformTopology::new(n, SimTime::from_millis(10)));
        let states = build_ring(&RingConfig::default(), topo.as_ref(), 5);
        let space = ContentSpace::uniform(2, 0.0, 100.0);
        let nodes: Vec<AttrRingNode> = states
            .into_iter()
            .map(|st| AttrRingNode::new(st, "bench", space.clone()))
            .collect();
        Sim::new(topo, nodes, HyperWorld::default(), 1)
    }

    #[test]
    fn chooses_most_selective_attribute() {
        let mut sim = make_sim(4);
        let node = sim.node_mut(0);
        let sub = Subscription::new(Rect::new(vec![10.0, 0.0], vec![12.0, 100.0]));
        assert_eq!(node.choose_attr(&sub), 0);
        let sub = Subscription::new(Rect::new(vec![0.0, 50.0], vec![100.0, 51.0]));
        assert_eq!(node.choose_attr(&sub), 1);
    }

    #[test]
    fn end_to_end_matches_bruteforce() {
        let mut sim = make_sim(12);
        for i in 0..12 {
            let lo = i as f64 * 8.0;
            let sub = Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0]));
            sim.with_node_ctx(i, |n, ctx| n.subscribe(ctx, 0, sub));
        }
        sim.run(10_000_000);
        for (id, point) in [
            (1u64, Point(vec![50.0, 50.0])),
            (2, Point(vec![0.0, 0.0])),
            (3, Point(vec![95.0, 20.0])),
        ] {
            let expected = sim.world().oracle.expected_matches(0, &point).len();
            sim.with_node_ctx((id as usize * 5) % 12, |n, ctx| {
                n.publish(
                    ctx,
                    Event {
                        id,
                        point: point.clone(),
                    },
                )
            });
            sim.run(10_000_000);
            let stats = sim.world().metrics.event_stats(12, sim.net());
            let s = stats.iter().find(|s| s.event == id).unwrap();
            assert_eq!(s.delivered, expected, "event {id}");
            assert_eq!(s.duplicates, 0, "event {id}");
        }
    }

    #[test]
    fn wide_ranges_replicate_on_many_nodes() {
        let mut sim = make_sim(16);
        // Wide on both attributes; the narrower (attr 0, 80%) is chosen
        // and replicated across ~80% of the ring.
        let sub = Subscription::new(Rect::new(vec![10.0, 2.0], vec![90.0, 98.0]));
        sim.with_node_ctx(0, |n, ctx| n.subscribe(ctx, 0, sub));
        sim.run(10_000_000);
        let holders = (0..16).filter(|&i| sim.node(i).load() > 0).count();
        assert!(
            holders >= 8,
            "expected replication across many nodes, got {holders}"
        );
    }
}
