//! Ferry-style single-rendezvous pub/sub baseline.
//!
//! One hash point per scheme: `key = hash(scheme name)`. Its successor —
//! the *rendezvous node* — stores every subscription and matches every
//! event. Events route to the rendezvous, match there, and fan out to
//! subscribers along the DHT's embedded tree (Ferry's delivery technique,
//! which HyperSub adopted). All matching/storage load concentrates on one
//! node, which is exactly the scalability concern §2 raises about Ferry.
//!
//! Completeness and duplicate-freedom are immediate: one home, one probe,
//! one shard.

use crate::dht::{DhtNode, Home, Placement};
use hypersub_chord::ChordState;
use hypersub_core::model::Subscription;
use hypersub_lph::{rotation_offset, Point};

/// Everything at one key.
#[derive(Debug, Clone)]
pub struct Rendezvous {
    /// The scheme's rendezvous key.
    pub key: u64,
}

impl Placement for Rendezvous {
    type Shard = ();
    /// The rendezvous key.
    const REGISTER_BYTES: usize = 8;
    const PUBLISH_BYTES: usize = 0;

    fn homes(&self, _sub: &Subscription) -> Vec<Home<()>> {
        vec![Home {
            key: self.key,
            shard: (),
            arc_end: None,
        }]
    }

    fn probes(&self, _point: &Point) -> Vec<(u64, ())> {
        vec![(self.key, ())]
    }
}

/// A node of the rendezvous baseline.
pub type RendezvousNode = DhtNode<Rendezvous>;

impl RendezvousNode {
    /// Creates a node for a scheme identified by `scheme_name`.
    pub fn new(chord: ChordState, scheme_name: &str) -> Self {
        let key = rotation_offset(scheme_name);
        Self::with_placement(chord, Rendezvous { key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_core::sim::{Net, Network};
    use hypersub_lph::Rect;

    fn make_net(n: usize) -> Net<RendezvousNode> {
        Network::builder(n)
            .seed(5)
            .build_with(|st| RendezvousNode::new(st, "bench"))
            .unwrap()
    }

    #[test]
    fn all_storage_on_one_node() {
        let mut net = make_net(16);
        for i in 0..16 {
            let sub = Subscription::new(Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]));
            net.subscribe(i, 0, sub);
        }
        net.run_to_quiescence();
        let loads = net.node_loads();
        let nonzero: Vec<&u64> = loads.iter().filter(|&&l| l > 0).collect();
        assert_eq!(nonzero.len(), 1, "rendezvous concentrates all storage");
        assert_eq!(*nonzero[0], 16);
    }
}
