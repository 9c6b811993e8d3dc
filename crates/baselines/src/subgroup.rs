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

use crate::dht::{choose_attr, DhtNode, Home, Placement};
use hypersub_chord::ChordState;
use hypersub_core::model::Subscription;
use hypersub_lph::{rotation_offset, ContentSpace, Point};

/// Fixed subgroup (bucket) count per attribute. Bounds installation cost:
/// a subscription registers with at most this many subgroup homes.
pub const SUBGROUPS_PER_ATTR: usize = 16;

/// One home per (attribute, bucket); that pair is also the shard.
#[derive(Debug, Clone)]
pub struct Subgroups {
    /// The scheme's content space (shared by all nodes).
    pub space: ContentSpace,
    /// Precomputed subgroup home keys: `keys[attr][bucket]`.
    pub keys: Vec<Vec<u64>>,
}

impl Subgroups {
    /// The subgroup bucket containing value `v` on attribute `attr`.
    pub fn bucket(&self, attr: usize, v: f64) -> u16 {
        let d = self.space.domain(attr);
        let frac = ((v - d.lo) / d.width()).clamp(0.0, 1.0);
        ((frac * SUBGROUPS_PER_ATTR as f64) as usize).min(SUBGROUPS_PER_ATTR - 1) as u16
    }

    fn home(&self, attr: usize, bucket: u16) -> (u64, (u8, u16)) {
        (self.keys[attr][bucket as usize], (attr as u8, bucket))
    }
}

impl Placement for Subgroups {
    type Shard = (u8, u16);
    /// Subgroup key, attribute index and bucket index.
    const REGISTER_BYTES: usize = 11;
    /// Attribute index and bucket index.
    const PUBLISH_BYTES: usize = 3;

    /// One home per subgroup the dominant attribute's range intersects.
    fn homes(&self, sub: &Subscription) -> Vec<Home<(u8, u16)>> {
        let attr = choose_attr(&self.space, sub);
        let lo = self.bucket(attr, sub.rect.lo()[attr]);
        let hi = self.bucket(attr, sub.rect.hi()[attr]);
        (lo..=hi)
            .map(|bucket| {
                let (key, shard) = self.home(attr, bucket);
                Home {
                    key,
                    shard,
                    arc_end: None,
                }
            })
            .collect()
    }

    /// One probe per attribute, to the single subgroup whose bucket
    /// contains the event's value.
    fn probes(&self, point: &Point) -> Vec<(u64, (u8, u16))> {
        (0..self.space.dims())
            .map(|attr| self.home(attr, self.bucket(attr, point.0[attr])))
            .collect()
    }
}

/// A node of the subgrouping baseline.
pub type SubgroupNode = DhtNode<Subgroups>;

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
        Self::with_placement(chord, Subgroups { space, keys })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_core::sim::{Net, Network};
    use hypersub_lph::Rect;

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
        let sg = &net.node(0).unwrap().placement;
        assert_eq!(sg.bucket(0, -5.0), 0);
        assert_eq!(sg.bucket(0, 100.0), (SUBGROUPS_PER_ATTR - 1) as u16);
        let mut prev = 0;
        for v in 0..=100 {
            let b = sg.bucket(0, v as f64);
            assert!(b >= prev);
            prev = b;
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
