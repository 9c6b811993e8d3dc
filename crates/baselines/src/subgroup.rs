//! Subscription-subgrouping pub/sub baseline (after arXiv 1611.08743).
//!
//! Instead of replicating a subscription onto every node whose arc
//! intersects its attribute range (the [`crate::attr_ring`] approach §2
//! criticizes), each attribute's domain is pre-cut into a fixed number of
//! *subgroups* ([`SUBGROUPS_PER_ATTR`] equal-width buckets). A
//! subscription clusters into the subgroups its **dominant** (most
//! selective) attribute range intersects, so installation touches at most
//! `SUBGROUPS_PER_ATTR` nodes regardless of how many ring nodes the raw
//! range would cover — installation cost is decoupled from node density
//! and from the advertisement (event) path. An event probes exactly one
//! subgroup per attribute (the bucket containing its value), matches
//! there, and fans out through the shared embedded-tree splitter.
//!
//! Completeness: a matching subscription with dominant attribute `d`
//! covers every bucket its `d`-range intersects, and the event's value on
//! `d` lies inside that range, so the `d`-probe lands in a covered
//! bucket. Duplicate-freedom: a subscription lives only under its
//! dominant attribute and each attribute is probed in exactly one bucket,
//! so at most one shard can match it.

use crate::common::{split_targets, to_targets};
use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_chord::ChordState;
use hypersub_core::model::{Event, SchemeId, SubId, SubTarget, Subscription};
use hypersub_core::msg::{EVENT_BYTES, HEADER_BYTES, SUBID_BYTES};
use hypersub_core::node::TOKEN_PUBLISH_BASE;
use hypersub_core::sim::PubSubNode;
use hypersub_core::world::HyperWorld;
use hypersub_lph::{rotation_offset, ContentSpace};
use hypersub_simnet::{Node, NodeRuntime, Payload};
use std::collections::HashMap;

/// Fixed subgroup (bucket) count per attribute. Bounds installation cost:
/// a subscription registers with at most this many subgroup homes.
pub const SUBGROUPS_PER_ATTR: usize = 16;

/// Subgroup-system messages.
#[derive(Debug, Clone)]
pub enum SgMsg {
    /// Register a subscription with one subgroup home.
    Register {
        /// The subgroup's ring key (routing target).
        key: u64,
        /// Attribute the subscription is clustered under.
        attr: u8,
        /// Subgroup bucket index on that attribute.
        bucket: u16,
        /// Subscriber.
        subid: SubId,
        /// Subscription hypercuboid.
        sub: Subscription,
    },
    /// Probe one subgroup with an event.
    Publish {
        /// The subgroup's ring key.
        key: u64,
        /// Attribute being probed.
        attr: u8,
        /// Subgroup bucket index.
        bucket: u16,
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

impl Payload for SgMsg {
    fn wire_size(&self) -> usize {
        match self {
            SgMsg::Register { sub, .. } => HEADER_BYTES + 11 + SUBID_BYTES + 16 * sub.rect.dims(),
            SgMsg::Publish { .. } => HEADER_BYTES + EVENT_BYTES + SUBID_BYTES + 3,
            SgMsg::Delivery { targets, .. } => {
                HEADER_BYTES + EVENT_BYTES + SUBID_BYTES * targets.len()
            }
        }
    }

    fn flow(&self) -> Option<u64> {
        match self {
            SgMsg::Publish { event, .. } | SgMsg::Delivery { event, .. } => Some(event.id),
            SgMsg::Register { .. } => None,
        }
    }
}

/// A node of the subgrouping baseline.
#[derive(Debug, Clone)]
pub struct SubgroupNode {
    /// Chord routing state.
    pub chord: ChordState,
    /// The scheme's content space (shared by all nodes).
    pub space: ContentSpace,
    /// Precomputed subgroup home keys: `keys[attr][bucket]`.
    pub keys: Vec<Vec<u64>>,
    /// Stored members: (attribute, bucket) → subid → subscription.
    pub store: HashMap<(u8, u16), HashMap<SubId, Subscription>>,
    /// Local subscriptions by internal id.
    pub local: HashMap<u32, Subscription>,
    next_iid: u32,
}

impl SubgroupNode {
    /// Creates a node for the given scheme space.
    pub fn new(chord: ChordState, scheme_name: &str, space: ContentSpace) -> Self {
        let keys = (0..space.dims())
            .map(|j| {
                (0..SUBGROUPS_PER_ATTR)
                    .map(|b| rotation_offset(&format!("{scheme_name}/sg{j}.{b}")))
                    .collect()
            })
            .collect();
        Self {
            chord,
            space,
            keys,
            store: HashMap::new(),
            local: HashMap::new(),
            next_iid: 1,
        }
    }

    /// The subgroup bucket containing value `v` on attribute `attr`.
    pub fn bucket(&self, attr: usize, v: f64) -> u16 {
        let d = self.space.domain(attr);
        let frac = ((v - d.lo) / d.width()).clamp(0.0, 1.0);
        ((frac * SUBGROUPS_PER_ATTR as f64) as usize).min(SUBGROUPS_PER_ATTR - 1) as u16
    }

    /// The attribute a subscription clusters under: the one with the
    /// narrowest relative range (most selective), as in the attribute
    /// ring, so the two systems shard the same subscription population
    /// the same way and differ only in installation mechanics.
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

    fn route_register<R: NodeRuntime<SgMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        key: u64,
        attr: u8,
        bucket: u16,
        subid: SubId,
        sub: Subscription,
    ) {
        if self.chord.responsible_for(key) {
            self.store
                .entry((attr, bucket))
                .or_default()
                .insert(subid, sub);
        } else {
            match next_hop(&self.chord, key) {
                NextHop::Forward(p) => ctx.send(
                    p.idx,
                    SgMsg::Register {
                        key,
                        attr,
                        bucket,
                        subid,
                        sub,
                    },
                ),
                NextHop::Local => {
                    self.store
                        .entry((attr, bucket))
                        .or_default()
                        .insert(subid, sub);
                }
            }
        }
    }

    /// Publishes an event: one probe per attribute, to the single
    /// subgroup whose bucket contains the event's value.
    pub fn publish<R: NodeRuntime<SgMsg, HyperWorld>>(&mut self, ctx: &mut R, event: Event) {
        let (me, now) = (ctx.me(), ctx.now());
        let expected = ctx.world().oracle.expected_count(0, &event.point);
        ctx.world()
            .metrics
            .record_publish(event.id, now, me, expected);
        for attr in 0..self.space.dims() {
            let bucket = self.bucket(attr, event.point.0[attr]);
            let key = self.keys[attr][bucket as usize];
            self.route_publish(ctx, key, attr as u8, bucket, event.clone(), 0);
        }
    }

    fn route_publish<R: NodeRuntime<SgMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        key: u64,
        attr: u8,
        bucket: u16,
        event: Event,
        hops: u32,
    ) {
        if self.chord.responsible_for(key) {
            self.match_and_deliver(ctx, attr, bucket, event, hops);
        } else {
            match next_hop(&self.chord, key) {
                NextHop::Forward(p) => ctx.send(
                    p.idx,
                    SgMsg::Publish {
                        key,
                        attr,
                        bucket,
                        event,
                        hops: hops + 1,
                    },
                ),
                NextHop::Local => self.match_and_deliver(ctx, attr, bucket, event, hops),
            }
        }
    }

    fn match_and_deliver<R: NodeRuntime<SgMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        attr: u8,
        bucket: u16,
        event: Event,
        hops: u32,
    ) {
        let Some(shard) = self.store.get(&(attr, bucket)) else {
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

    fn deliver<R: NodeRuntime<SgMsg, HyperWorld>>(
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
                SgMsg::Delivery {
                    event: event.clone(),
                    hops: hops + 1,
                    targets,
                },
            );
        }
    }
}

impl Node<SgMsg, HyperWorld> for SubgroupNode {
    fn on_message<R: NodeRuntime<SgMsg, HyperWorld>>(
        &mut self,
        ctx: &mut R,
        _from: usize,
        msg: SgMsg,
    ) {
        match msg {
            SgMsg::Register {
                key,
                attr,
                bucket,
                subid,
                sub,
            } => self.route_register(ctx, key, attr, bucket, subid, sub),
            SgMsg::Publish {
                key,
                attr,
                bucket,
                event,
                hops,
            } => self.route_publish(ctx, key, attr, bucket, event, hops),
            SgMsg::Delivery {
                event,
                hops,
                targets,
            } => self.deliver(ctx, event, hops, targets),
        }
    }

    fn on_timer<R: NodeRuntime<SgMsg, HyperWorld>>(&mut self, ctx: &mut R, token: u64) {
        if token >= TOKEN_PUBLISH_BASE {
            let idx = (token - TOKEN_PUBLISH_BASE) as usize;
            let (_scheme, ev) = ctx.world().take_scripted(idx);
            self.publish(ctx, ev);
        }
    }
}

impl PubSubNode for SubgroupNode {
    type Msg = SgMsg;

    /// Installs a subscription from this node: one registration per
    /// subgroup its dominant attribute range intersects.
    ///
    /// The baselines serve one scheme, so `_scheme` goes unused.
    fn subscribe<R: NodeRuntime<SgMsg, HyperWorld>>(
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
        let lo = self.bucket(attr, sub.rect.lo[attr]);
        let hi = self.bucket(attr, sub.rect.hi[attr]);
        for bucket in lo..=hi {
            let key = self.keys[attr][bucket as usize];
            self.route_register(ctx, key, attr as u8, bucket, subid, sub.clone());
        }
        subid
    }

    /// Stored subgroup-member count (load metric).
    fn load(&self) -> u64 {
        self.store.values().map(|m| m.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_core::sim::{Net, Network};
    use hypersub_lph::{Point, Rect};
    use hypersub_simnet::SimTime;

    fn make_net(n: usize) -> Net<SubgroupNode> {
        let space = ContentSpace::uniform(2, 0.0, 100.0);
        Network::builder(n)
            .seed(5)
            .build_with(|st| SubgroupNode::new(st, "bench", space.clone()))
            .unwrap()
    }

    #[test]
    fn bucket_is_monotone_and_clamped() {
        let net = make_net(4);
        let node = net.node(0).unwrap();
        assert_eq!(node.bucket(0, -5.0), 0);
        assert_eq!(node.bucket(0, 100.0), (SUBGROUPS_PER_ATTR - 1) as u16);
        let mut prev = 0;
        for v in 0..=100 {
            let b = node.bucket(0, v as f64);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn end_to_end_matches_bruteforce() {
        let mut net = make_net(12);
        for i in 0..12 {
            let lo = i as f64 * 8.0;
            let sub = Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0]));
            net.subscribe(i, 0, sub);
        }
        net.run_to_quiescence();
        let mut t = net.time();
        for (node, point) in [
            (3, Point(vec![50.0, 50.0])),
            (7, Point(vec![0.0, 0.0])),
            (1, Point(vec![95.0, 20.0])),
        ] {
            t += SimTime::from_secs(1);
            net.schedule_publish(t, node, 0, point).unwrap();
        }
        net.run_to_quiescence();
        for s in net.event_stats() {
            assert_eq!(s.delivered, s.expected, "event {}", s.event);
            assert_eq!(s.duplicates, 0, "event {}", s.event);
        }
    }

    #[test]
    fn installation_is_bounded_by_subgroup_count() {
        // A full-domain subscription in a large ring: the attr_ring
        // design would replicate it onto every node; subgrouping caps it
        // at SUBGROUPS_PER_ATTR homes.
        let mut net = make_net(64);
        let sub = Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]));
        net.subscribe(0, 0, sub);
        net.run_to_quiescence();
        let holders = net.node_loads().iter().filter(|&&l| l > 0).count();
        assert!(holders >= 1);
        assert!(
            holders <= SUBGROUPS_PER_ATTR,
            "expected ≤ {SUBGROUPS_PER_ATTR} subgroup homes, got {holders}"
        );
        let total: u64 = net.node_loads().iter().sum();
        assert_eq!(total, SUBGROUPS_PER_ATTR as u64, "one member per bucket");
    }
}
