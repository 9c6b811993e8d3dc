//! The store–probe–deliver node the three DHT rivals share.
//!
//! [`rendezvous`](crate::rendezvous), [`attr_ring`](crate::attr_ring) and
//! [`subgroup`](crate::subgroup) differ only in *where a subscription is
//! stored and which homes an event probes*; that is a [`Placement`].
//! Everything else is [`DhtNode`]: route a key to its owner, keep the
//! shards this node owns, match an event against one shard, and fan the
//! matched SubID list out along the DHT's embedded tree (Ferry's delivery
//! technique, which HyperSub adopted).
//!
//! A placement must guarantee two things, and the node adds nothing to
//! either:
//!
//! * **Completeness** — for every subscription matching an event, the
//!   subscription's home set meets the event's probe set: some probe
//!   `(key, shard)` reaches a node that stores the subscription under
//!   `shard`.
//! * **Duplicate-freedom** — a subscription is matched in at most one of
//!   the shards an event probes, so no subscriber hears an event twice.

use crate::common::split_targets;
use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_chord::{in_open_closed, ChordState, Peer};
use hypersub_core::model::{Event, SchemeId, SubId, SubTarget, Subscription};
use hypersub_core::msg::{EVENT_BYTES, HEADER_BYTES, SUBID_BYTES};
use hypersub_core::sim::{fire_scripted, PubSubNode};
use hypersub_core::world::HyperWorld;
use hypersub_lph::{ContentSpace, Point};
use hypersub_simnet::{Ctx, Node, Payload};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// One place a subscription is stored: shard `shard` on the owner of
/// `key` — and, when `arc_end` is set, on every further node up to the
/// owner of `arc_end` (the attribute ring's replication walk).
#[derive(Debug, Clone, Copy)]
pub struct Home<S> {
    /// Ring key whose owner stores the subscription.
    pub key: u64,
    /// The shard it is stored under there.
    pub shard: S,
    /// Last key of the arc to replicate along, if the home is an arc.
    pub arc_end: Option<u64>,
}

/// What distinguishes one DHT rival from another.
pub trait Placement: Clone + Debug {
    /// Names a partition of a node's store; an event probe reads one.
    type Shard: Copy + Eq + Hash + Debug;
    /// Bytes a `Register` carries beyond header, SubID and hypercuboid.
    const REGISTER_BYTES: usize;
    /// Bytes a `Publish` carries beyond header, event and one SubID.
    const PUBLISH_BYTES: usize;

    /// The homes `sub` is stored at, in send order.
    fn homes(&self, sub: &Subscription) -> Vec<Home<Self::Shard>>;

    /// The `(key, shard)` pairs an event at `point` probes, in send order.
    fn probes(&self, point: &Point) -> Vec<(u64, Self::Shard)>;
}

/// The attribute a subscription is indexed under: the one with the
/// narrowest relative range (most selective). The attribute ring and the
/// subgroups both use it, so the two shard the same subscription
/// population the same way and differ only in installation mechanics.
pub fn choose_attr(space: &ContentSpace, sub: &Subscription) -> usize {
    let mut best = 0;
    let mut best_frac = f64::INFINITY;
    for j in 0..space.dims() {
        let frac = (sub.rect.hi()[j] - sub.rect.lo()[j]) / space.domain(j).width();
        if frac < best_frac {
            best = j;
            best_frac = frac;
        }
    }
    best
}

/// Messages of a DHT rival.
#[derive(Debug, Clone)]
pub enum DhtMsg<P: Placement> {
    /// Route a subscription to a home (and along its arc, if it has one).
    Register {
        /// Where it goes; `home.key` is the routing target.
        home: Home<P::Shard>,
        /// Subscriber.
        subid: SubId,
        /// Subscription hypercuboid.
        sub: Subscription,
    },
    /// Route an event to one shard.
    Publish {
        /// Routing target.
        key: u64,
        /// The shard to match against at the owner.
        shard: P::Shard,
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

impl<P: Placement> Payload for DhtMsg<P> {
    fn wire_size(&self) -> usize {
        match self {
            DhtMsg::Register { sub, .. } => {
                HEADER_BYTES + P::REGISTER_BYTES + SUBID_BYTES + 16 * sub.rect.dims()
            }
            DhtMsg::Publish { .. } => HEADER_BYTES + EVENT_BYTES + SUBID_BYTES + P::PUBLISH_BYTES,
            DhtMsg::Delivery { targets, .. } => {
                HEADER_BYTES + EVENT_BYTES + SUBID_BYTES * targets.len()
            }
        }
    }

    fn flow(&self) -> Option<u64> {
        match self {
            DhtMsg::Publish { event, .. } | DhtMsg::Delivery { event, .. } => Some(event.id),
            DhtMsg::Register { .. } => None,
        }
    }
}

type Cx<'a, P> = Ctx<'a, DhtMsg<P>, HyperWorld>;

/// A node of a DHT rival: Chord routing, the shards it owns, and its own
/// subscriptions.
#[derive(Debug, Clone)]
pub struct DhtNode<P: Placement> {
    /// Chord routing state.
    pub chord: ChordState,
    /// Where subscriptions go and what events probe.
    pub placement: P,
    /// Subscriptions stored here, by shard.
    store: HashMap<P::Shard, HashMap<SubId, Subscription>>,
    /// This node's local subscriptions (by internal id).
    local: HashMap<u32, Subscription>,
    next_iid: u32,
}

impl<P: Placement> DhtNode<P> {
    /// Creates a node that places subscriptions and probes by `placement`.
    pub fn with_placement(chord: ChordState, placement: P) -> Self {
        Self {
            chord,
            placement,
            store: HashMap::new(),
            local: HashMap::new(),
            next_iid: 1,
        }
    }

    /// The next hop towards `key`'s owner; `None` when that is this node.
    fn towards(&self, key: u64) -> Option<Peer> {
        match next_hop(&self.chord, key) {
            NextHop::Forward(p) => Some(p),
            NextHop::Local => None,
        }
    }

    fn register(
        &mut self,
        ctx: &mut Cx<'_, P>,
        home: Home<P::Shard>,
        subid: SubId,
        sub: Subscription,
    ) {
        if let Some(p) = self.towards(home.key) {
            return ctx.send(p.idx, DhtMsg::Register { home, subid, sub });
        }
        // An arc that extends beyond this node's segment continues at the
        // successor; a home without an arc end stops here.
        let me = self.chord.id;
        let next = match home.arc_end {
            Some(end) if !in_open_closed(home.key.wrapping_sub(1), end, me) => {
                self.chord.successor()
            }
            _ => None,
        };
        if let Some(succ) = next {
            let home = Home {
                key: me.wrapping_add(1),
                ..home
            };
            let sub = sub.clone();
            ctx.send(succ.idx, DhtMsg::Register { home, subid, sub });
        }
        self.store.entry(home.shard).or_default().insert(subid, sub);
    }

    fn probe(&mut self, ctx: &mut Cx<'_, P>, key: u64, shard: P::Shard, event: Event, hops: u32) {
        if let Some(p) = self.towards(key) {
            let hops = hops + 1;
            return ctx.send(
                p.idx,
                DhtMsg::Publish {
                    key,
                    shard,
                    event,
                    hops,
                },
            );
        }
        let Some(stored) = self.store.get(&shard) else {
            return;
        };
        let mut matched: Vec<SubId> = stored
            .iter()
            .filter(|(_, s)| s.matches(&event))
            .map(|(&id, _)| id)
            .collect();
        matched.sort_unstable();
        let targets = matched.into_iter().map(SubTarget::sub).collect();
        self.deliver(ctx, event, hops, targets);
    }

    fn deliver(&mut self, ctx: &mut Cx<'_, P>, event: Event, hops: u32, targets: Vec<SubTarget>) {
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
                DhtMsg::Delivery {
                    event: event.clone(),
                    hops: hops + 1,
                    targets,
                },
            );
        }
    }
}

impl<P: Placement> Node<DhtMsg<P>, HyperWorld> for DhtNode<P> {
    fn on_message(&mut self, ctx: &mut Cx<'_, P>, _from: usize, msg: DhtMsg<P>) {
        match msg {
            DhtMsg::Register { home, subid, sub } => self.register(ctx, home, subid, sub),
            DhtMsg::Publish {
                key,
                shard,
                event,
                hops,
            } => self.probe(ctx, key, shard, event, hops),
            DhtMsg::Delivery {
                event,
                hops,
                targets,
            } => self.deliver(ctx, event, hops, targets),
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_, P>, token: u64) {
        fire_scripted(self, ctx, token);
    }
}

impl<P: Placement> PubSubNode for DhtNode<P> {
    type Msg = DhtMsg<P>;

    /// Installs a subscription from this node: one registration per home.
    ///
    /// The baselines serve one scheme, so `_scheme` goes unused.
    fn subscribe(&mut self, ctx: &mut Cx<'_, P>, _scheme: SchemeId, sub: Subscription) -> SubId {
        let iid = self.next_iid;
        self.next_iid += 1;
        let subid = SubId {
            nid: self.chord.id,
            iid,
        };
        for home in self.placement.homes(&sub) {
            self.register(ctx, home, subid, sub.clone());
        }
        self.local.insert(iid, sub);
        subid
    }

    /// Publishes an event from this node: one probe per home the
    /// placement names.
    fn publish(&mut self, ctx: &mut Cx<'_, P>, _scheme: SchemeId, event: Event) {
        for (key, shard) in self.placement.probes(&event.point) {
            self.probe(ctx, key, shard, event.clone(), 0);
        }
    }

    /// Stored-entry count (load metric): every replica and every subgroup
    /// membership counts once, which is the point of the comparison.
    fn load(&self) -> u64 {
        self.store.values().map(|m| m.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr_ring::AttrRing;
    use crate::rendezvous::Rendezvous;
    use crate::subgroup::Subgroups;
    use hypersub_lph::Rect;

    /// Register and Publish sizes of a 2-attribute scheme, per placement.
    fn sizes<P: Placement>(shard: P::Shard) -> (usize, usize) {
        let home = Home {
            key: 0,
            shard,
            arc_end: None,
        };
        let register = DhtMsg::<P>::Register {
            home,
            subid: SubId { nid: 0, iid: 1 },
            sub: Subscription::new(Rect::new(vec![0.0, 0.0], vec![1.0, 1.0])),
        };
        let publish = DhtMsg::<P>::Publish {
            key: 0,
            shard,
            event: Event {
                id: 1,
                point: Point(vec![0.5, 0.5]),
            },
            hops: 0,
        };
        (register.wire_size(), publish.wire_size())
    }

    /// The shoot-out's bandwidth columns rest on these byte counts.
    #[test]
    fn wire_sizes_are_the_three_systems_own() {
        assert_eq!(sizes::<Rendezvous>(()), (69, 129));
        assert_eq!(sizes::<AttrRing>(0), (78, 129));
        assert_eq!(sizes::<Subgroups>((0, 0)), (72, 132));
    }
}
