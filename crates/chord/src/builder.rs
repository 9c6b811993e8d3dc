//! Global construction of a stabilized ring.
//!
//! The paper's experiments start from a stabilized network ("The simulation
//! starts by initializing subscriptions on each node in the network. After
//! system stabilization, we schedule 20,000 events...", §5.1). Rather than
//! simulating thousands of joins each run, this module computes the fixed
//! point directly: exact predecessor/successor lists and finger tables,
//! with **proximity neighbor selection** (PNS) choosing among valid finger
//! candidates by network latency, exactly the freedom Chord-PNS exploits.

use crate::id::{clockwise_distance, NodeId};
use crate::state::{ChordState, Peer};
use hypersub_simnet::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Ring construction parameters.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Successor-list length (Chord uses O(log N); p2psim defaults to 16).
    pub succ_list_len: usize,
    /// Enable proximity neighbor selection for fingers.
    pub pns: bool,
    /// Number of candidate nodes PNS examines per finger interval
    /// (PNS(16) in Gummadi et al.'s taxonomy, the p2psim default).
    pub pns_candidates: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        Self {
            succ_list_len: 16,
            pns: true,
            pns_candidates: 16,
        }
    }
}

/// Draws `n` distinct random 64-bit identifiers.
pub fn random_ids(n: usize, seed: u64) -> Vec<NodeId> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ff_ee00_dead_5eed);
    let mut seen = HashSet::with_capacity(n);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id: u64 = rng.gen();
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

/// Builds a stabilized ring of `topo.len()` nodes with random identifiers
/// drawn from `seed`. Node `i`'s simulator index is `i`.
pub fn build_ring(cfg: &RingConfig, topo: &dyn Topology, seed: u64) -> Vec<ChordState> {
    let ids = random_ids(topo.len(), seed);
    build_ring_with_ids(cfg, topo, &ids)
}

/// Builds a stabilized ring over explicit identifiers (`ids[i]` is node
/// `i`'s ring id). Identifiers must be distinct.
pub fn build_ring_with_ids(
    cfg: &RingConfig,
    topo: &dyn Topology,
    ids: &[NodeId],
) -> Vec<ChordState> {
    let n = ids.len();
    assert_eq!(n, topo.len(), "one id per topology slot");
    assert!(n > 0, "cannot build an empty ring");
    {
        let distinct: HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), n, "identifiers must be distinct");
    }

    // Ring order: peers sorted by id.
    let mut order: Vec<Peer> = ids
        .iter()
        .enumerate()
        .map(|(idx, &id)| Peer { id, idx })
        .collect();
    order.sort_by_key(|p| p.id);

    // Built in ring order — neighbouring nodes search the same stretch of
    // `order` and weigh the same candidates — then put in index order.
    let mut states: Vec<ChordState> = (0..n)
        .map(|pos| {
            let me = order[pos];
            // Predecessor and successor list straight off the sorted ring.
            let pred = order[(pos + n - 1) % n];
            let predecessor = (pred.idx != me.idx).then_some(pred);
            let successors: Vec<Peer> = (1..=cfg.succ_list_len.min(n - 1))
                .map(|k| order[(pos + k) % n])
                .collect();
            let fingers = std::array::from_fn(|i| finger(cfg, topo, &order, me, i));
            ChordState::from_parts(me, cfg.succ_list_len, predecessor, successors, fingers)
        })
        .collect();
    states.sort_unstable_by_key(|st| st.idx);
    states
}

/// Finger `i` of `me` on the stabilized ring `order`. With PNS the
/// *correct* entry is any node in [start_i, start_{i+1}) (all give
/// progress guarantees); standard Chord takes successor(start_i), PNS
/// takes the lowest-latency of the first `pns_candidates` such nodes.
fn finger(
    cfg: &RingConfig,
    topo: &dyn Topology,
    order: &[Peer],
    me: Peer,
    i: usize,
) -> Option<Peer> {
    let n = order.len();
    let start = me.id.wrapping_add(1u64 << i);
    let next_start = me.id.wrapping_add(
        (1u128 << (i + 1)).min(u64::MAX as u128 + 1) as u64, // wraps to id for i=63
    );
    // First node clockwise at or after `start`.
    let first = successor_position(order, start);
    let candidate0 = order[first];
    // Skip degenerate fingers that land on ourselves.
    if candidate0.idx == me.idx {
        return None;
    }
    if !cfg.pns {
        return Some(candidate0);
    }
    let mut best = candidate0;
    // Measured only once there is a second candidate to weigh it against:
    // most intervals hold none, and a latency is computed, not looked up.
    let mut best_lat = None;
    let mut pos2 = first;
    for _ in 1..cfg.pns_candidates {
        pos2 = (pos2 + 1) % n;
        let cand = order[pos2];
        if cand.idx == me.idx {
            break;
        }
        // Candidate must stay inside this finger's interval
        // [start, next_start) to preserve routing progress.
        let in_interval = if i == 63 {
            // Interval covers half the ring ending at id.
            clockwise_distance(start, cand.id) < clockwise_distance(start, me.id)
        } else {
            clockwise_distance(start, cand.id) < clockwise_distance(start, next_start)
        };
        if !in_interval {
            break;
        }
        let lat = topo.latency(me.idx, cand.idx);
        if lat < *best_lat.get_or_insert_with(|| topo.latency(me.idx, candidate0.idx)) {
            best = cand;
            best_lat = Some(lat);
        }
    }
    Some(best)
}

/// Index in `order` (sorted by id) of the successor of `key`: the first
/// peer whose id is `>= key`, wrapping to position 0.
fn successor_position(order: &[Peer], key: NodeId) -> usize {
    match order.binary_search_by_key(&key, |p| p.id) {
        Ok(pos) => pos,
        Err(pos) => pos % order.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_simnet::{KingLikeTopology, SimTime, UniformTopology};

    #[test]
    fn successors_and_predecessors_consistent() {
        let topo = UniformTopology::new(50, SimTime::from_millis(5));
        let states = build_ring(&RingConfig::default(), &topo, 7);
        for st in &states {
            let succ = st.successor().expect("every node has a successor");
            let succ_st = &states[succ.idx];
            assert_eq!(
                succ_st.predecessor.expect("has pred").idx,
                st.idx,
                "successor's predecessor must be me"
            );
        }
    }

    #[test]
    fn responsibility_partitions_ring() {
        let topo = UniformTopology::new(20, SimTime::from_millis(5));
        let states = build_ring(&RingConfig::default(), &topo, 9);
        for key in (0..1000u64).map(|i| i.wrapping_mul(0x3333_3333_3333_3333)) {
            let owners: Vec<_> = states.iter().filter(|s| s.responsible_for(key)).collect();
            assert_eq!(owners.len(), 1, "exactly one owner per key");
        }
    }

    #[test]
    fn fingers_point_into_their_intervals() {
        let topo = UniformTopology::new(64, SimTime::from_millis(5));
        let states = build_ring(&RingConfig::default(), &topo, 11);
        for st in &states {
            for (i, f) in st.fingers().iter().enumerate() {
                if let Some(p) = f {
                    let start = st.finger_start(i);
                    // The finger must not precede its interval start
                    // (progress guarantee): id ∈ [start, me) clockwise.
                    assert!(
                        clockwise_distance(start, p.id) < clockwise_distance(start, st.id)
                            || p.id == st.id,
                        "node {:#x} finger {} -> {:#x} before start {:#x}",
                        st.id,
                        i,
                        p.id,
                        start
                    );
                }
            }
        }
    }

    #[test]
    fn pns_prefers_nearby_nodes() {
        let n = 200;
        let topo = KingLikeTopology::generate(n, SimTime::from_millis(180), 3);
        let pns = build_ring(&RingConfig::default(), &topo, 3);
        let plain = build_ring(
            &RingConfig {
                pns: false,
                ..RingConfig::default()
            },
            &topo,
            3,
        );
        // Only the top fingers span intervals with multiple member nodes
        // (with n = 200 the bottom ~56 intervals hold at most one node), so
        // measure where PNS actually has a choice.
        let avg_top_finger_lat = |states: &[ChordState]| {
            let mut total = 0u64;
            let mut count = 0u64;
            for st in states {
                for f in st.fingers()[58..].iter().flatten() {
                    total += topo.latency(st.idx, f.idx).as_micros();
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        let a = avg_top_finger_lat(&pns);
        let b = avg_top_finger_lat(&plain);
        assert!(
            a < b * 0.7,
            "PNS top fingers should be meaningfully closer: pns={a:.0}us plain={b:.0}us"
        );
    }

    /// A node stores one finger value per run of equal slots: about
    /// log₂ n of them on a stabilized ring, not 64.
    #[test]
    fn a_built_ring_stores_few_finger_values() {
        let n = 4096;
        let topo = KingLikeTopology::generate(n, SimTime::from_millis(180), 1);
        let states = build_ring(&RingConfig::default(), &topo, 1);
        let runs: usize = states.iter().map(ChordState::finger_runs).sum();
        let mean = runs as f64 / n as f64;
        assert!(mean <= 16.0, "{mean:.2} finger values a node");
    }

    #[test]
    fn distinct_ids_enforced() {
        let topo = UniformTopology::new(2, SimTime::from_millis(1));
        let result = std::panic::catch_unwind(|| {
            build_ring_with_ids(&RingConfig::default(), &topo, &[5, 5])
        });
        assert!(result.is_err());
    }

    #[test]
    fn singleton_ring() {
        let topo = UniformTopology::new(1, SimTime::from_millis(1));
        let states = build_ring(&RingConfig::default(), &topo, 1);
        assert!(states[0].successor().is_none());
        assert!(states[0].responsible_for(123));
    }

    #[test]
    fn random_ids_distinct_and_deterministic() {
        let a = random_ids(1000, 5);
        let b = random_ids(1000, 5);
        assert_eq!(a, b);
        let set: HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 1000);
    }
}
