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
//!
//! Completeness: a matching subscription indexed under attribute `a`
//! covers the event's value on `a`, [`AttrRing::value_key`] is monotone,
//! so the `a`-probe's key lies on the subscription's arc and its owner
//! holds a replica. Duplicate-freedom: a subscription lives only in its
//! chosen attribute's shard, and each attribute is probed at one node.

use crate::dht::{choose_attr, DhtNode, Home, Placement};
use hypersub_chord::ChordState;
use hypersub_core::model::Subscription;
use hypersub_lph::{rotation_offset, ContentSpace, Point};

/// One ring per attribute; a subscription is an arc on its most selective
/// attribute's ring. The shard is the attribute index.
#[derive(Debug, Clone)]
pub struct AttrRing {
    /// The scheme's content space (shared by all nodes).
    pub space: ContentSpace,
    /// Per-attribute ring offsets.
    pub offsets: Vec<u64>,
}

impl AttrRing {
    /// Maps an attribute value onto its ring.
    pub fn value_key(&self, attr: usize, v: f64) -> u64 {
        let d = self.space.domain(attr);
        let frac = ((v - d.lo) / d.width()).clamp(0.0, 1.0);
        // Scale into the full 64-bit space, then rotate onto this
        // attribute's ring.
        let scaled = (frac * (u64::MAX as f64)) as u64;
        scaled.wrapping_add(self.offsets[attr])
    }
}

impl Placement for AttrRing {
    type Shard = u8;
    /// Walk cursor, arc end and attribute index.
    const REGISTER_BYTES: usize = 17;
    const PUBLISH_BYTES: usize = 0;

    /// One home: the arc of the chosen attribute's interval, walked node
    /// by node (the expensive installation §2 criticizes).
    fn homes(&self, sub: &Subscription) -> Vec<Home<u8>> {
        let attr = choose_attr(&self.space, sub);
        vec![Home {
            key: self.value_key(attr, sub.rect.lo()[attr]),
            shard: attr as u8,
            arc_end: Some(self.value_key(attr, sub.rect.hi()[attr])),
        }]
    }

    /// One probe per attribute ring.
    fn probes(&self, point: &Point) -> Vec<(u64, u8)> {
        (0..self.space.dims())
            .map(|attr| (self.value_key(attr, point.0[attr]), attr as u8))
            .collect()
    }
}

/// A node of the attribute-ring baseline.
pub type AttrRingNode = DhtNode<AttrRing>;

impl AttrRingNode {
    /// Creates a node for the given scheme space.
    pub fn new(chord: ChordState, scheme_name: &str, space: ContentSpace) -> Self {
        let offsets = (0..space.dims())
            .map(|j| rotation_offset(&format!("{scheme_name}/attr{j}")))
            .collect();
        Self::with_placement(chord, AttrRing { space, offsets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_core::sim::{Net, Network, PubSubNode};
    use hypersub_lph::Rect;

    fn make_net(n: usize) -> Net<AttrRingNode> {
        let space = ContentSpace::uniform(2, 0.0, 100.0);
        Network::builder(n)
            .seed(5)
            .build_with(|st| AttrRingNode::new(st, "bench", space.clone()))
            .unwrap()
    }

    #[test]
    fn chooses_most_selective_attribute() {
        let space = ContentSpace::uniform(2, 0.0, 100.0);
        let sub = Subscription::new(Rect::new(vec![10.0, 0.0], vec![12.0, 100.0]));
        assert_eq!(choose_attr(&space, &sub), 0);
        let sub = Subscription::new(Rect::new(vec![0.0, 50.0], vec![100.0, 51.0]));
        assert_eq!(choose_attr(&space, &sub), 1);
    }

    #[test]
    fn wide_ranges_replicate_on_many_nodes() {
        let mut net = make_net(16);
        // Wide on both attributes; the narrower (attr 0, 80%) is chosen
        // and replicated across ~80% of the ring.
        let sub = Subscription::new(Rect::new(vec![10.0, 2.0], vec![90.0, 98.0]));
        net.subscribe(0, 0, sub);
        net.run_to_quiescence();
        let holders = net.nodes().iter().filter(|n| n.load() > 0).count();
        assert!(
            holders >= 8,
            "expected replication across many nodes, got {holders}"
        );
    }
}
