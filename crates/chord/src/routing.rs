//! Greedy recursive routing.
//!
//! HyperSub routes everything — subscription installation (Algorithm 2),
//! event publication (Algorithm 4) and per-SubID event delivery
//! (Algorithm 5 line 20: "find neighbor node N_j in the routing table whose
//! ID is equal to or immediately precedes subid.nid") — by the same greedy
//! rule implemented here: deliver locally if responsible, otherwise forward
//! to the closest preceding routing-table entry.

use crate::id::{clockwise_distance, in_open_closed, NodeId};
use crate::state::{ChordState, Peer};

/// Routing decision for a key at some node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// This node is the key's successor — consume locally.
    Local,
    /// Forward to this peer.
    Forward(Peer),
}

/// Chord's `closest_preceding_node`: the routing-table entry (fingers +
/// successors) whose id most immediately precedes `key`, strictly within
/// `(state.id, key)`.
pub fn closest_preceding(state: &ChordState, key: NodeId) -> Option<Peer> {
    // `p.id ∈ (id, key)` is exactly `0 < d < dk` in clockwise distances
    // from `id` (with `(id, id)` the full ring minus `id`, i.e. any
    // `d ≠ 0` when `dk == 0`), and "closer to key" is "larger d". The
    // route table holds each such peer once, sorted by `d`, so the answer
    // is the last entry below `dk`.
    let table = state.route_table();
    let dk = clockwise_distance(state.id, key);
    if dk == 0 {
        return table.last().copied();
    }
    let below = table.partition_point(|p| clockwise_distance(state.id, p.id) < dk);
    below.checked_sub(1).map(|i| table[i])
}

/// Decides where `key` goes from `state`'s point of view.
///
/// Termination: if the key lies between this node and its immediate
/// successor, the successor is responsible (`Local` happens *at* that
/// successor); otherwise we forward to a strictly closer preceding node,
/// so the clockwise distance to `key` decreases every hop.
pub fn next_hop(state: &ChordState, key: NodeId) -> NextHop {
    if state.responsible_for(key) {
        return NextHop::Local;
    }
    if let Some(succ) = state.successor() {
        if in_open_closed(state.id, key, succ.id) {
            return NextHop::Forward(succ);
        }
    }
    match closest_preceding(state, key) {
        Some(p) => NextHop::Forward(p),
        // Routing table empty or useless: fall back to the successor.
        None => match state.successor() {
            Some(s) => NextHop::Forward(s),
            None => NextHop::Local, // singleton ring
        },
    }
}

/// Walks the route for `key` starting at node index `from` over a slice of
/// states (index == simulator index). Returns the node indices visited,
/// ending at the responsible node. Used by tests and by setup code that
/// needs hop counts without scheduling messages.
///
/// # Panics
/// Panics if the route exceeds `4 * 64` hops, which on a consistent ring
/// can only mean corrupted routing state.
pub fn route_path(states: &[ChordState], from: usize, key: NodeId) -> Vec<usize> {
    let mut path = vec![from];
    let mut cur = from;
    for _ in 0..(4 * 64) {
        match next_hop(&states[cur], key) {
            NextHop::Local => return path,
            NextHop::Forward(p) => {
                cur = p.idx;
                path.push(cur);
            }
        }
    }
    panic!("routing did not terminate for key {key:#x} from {from}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_ring, RingConfig};
    use crate::state::NUM_FINGERS;
    use hypersub_simnet::{SimTime, UniformTopology};
    use hypersub_snapshot::{Decode, Encode};
    use proptest::prelude::*;

    fn ring(n: usize) -> Vec<ChordState> {
        let topo = UniformTopology::new(n, SimTime::from_millis(10));
        build_ring(&RingConfig::default(), &topo, 42)
    }

    #[test]
    fn route_terminates_at_responsible_node() {
        let states = ring(64);
        for key in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let path = route_path(&states, 0, key);
            let last = &states[*path.last().unwrap()];
            assert!(last.responsible_for(key), "key {key:#x}");
        }
    }

    #[test]
    fn all_pairs_route_correctly_small_ring() {
        let states = ring(16);
        for from in 0..16 {
            for target in 0..16 {
                let key = states[target].id;
                let path = route_path(&states, from, key);
                assert_eq!(
                    *path.last().unwrap(),
                    target,
                    "routing to an existing id must end at that node"
                );
            }
        }
    }

    #[test]
    fn hops_logarithmic() {
        let states = ring(256);
        let mut max_hops = 0;
        for from in 0..states.len() {
            let key = states[(from + 128) % 256].id.wrapping_add(1);
            let path = route_path(&states, from, key);
            max_hops = max_hops.max(path.len() - 1);
        }
        // log2(256) = 8; PNS/successor lists keep it close to that.
        assert!(
            max_hops <= 16,
            "max hops {max_hops} too large for 256 nodes"
        );
    }

    #[test]
    fn singleton_ring_is_local() {
        let states = ring(1);
        assert_eq!(next_hop(&states[0], 12345), NextHop::Local);
    }

    #[test]
    fn closest_preceding_never_overshoots() {
        let states = ring(64);
        let s = &states[0];
        for shift in 1..64 {
            let key = s.id.wrapping_add(1u64 << shift);
            if let Some(p) = closest_preceding(s, key) {
                assert!(crate::id::in_open_open(s.id, p.id, key));
            }
        }
    }

    /// The scan the route table replaced, kept as the reference: one
    /// distance per finger slot and successor, the running maximum below
    /// `dk`, the first entry winning a tie.
    fn closest_preceding_scan(state: &ChordState, key: NodeId) -> Option<Peer> {
        let dk = clockwise_distance(state.id, key);
        let mut best: Option<Peer> = None;
        let mut best_d = 0u64;
        for p in state.fingers().iter().flatten().chain(state.successors()) {
            let d = clockwise_distance(state.id, p.id);
            if d > best_d && (d < dk || dk == 0) {
                best_d = d;
                best = Some(*p);
            }
        }
        best
    }

    /// `next_hop` as it read before the table, over the reference scan.
    fn next_hop_scan(state: &ChordState, key: NodeId) -> NextHop {
        if state.responsible_for(key) {
            return NextHop::Local;
        }
        match state.successor() {
            Some(succ) if in_open_closed(state.id, key, succ.id) => NextHop::Forward(succ),
            succ => closest_preceding_scan(state, key)
                .or(succ)
                .map_or(NextHop::Local, NextHop::Forward),
        }
    }

    /// The table picks the hop the scan picked: for the node's own id,
    /// every known peer's id, one before and one past each, and `extra`.
    fn assert_routes_like_scan(state: &ChordState, extra: &[NodeId]) {
        let mut keys = vec![state.id, state.id.wrapping_sub(1), state.id.wrapping_add(1)];
        for p in state.neighbors() {
            keys.extend([p.id.wrapping_sub(1), p.id, p.id.wrapping_add(1)]);
        }
        keys.extend_from_slice(extra);
        for key in keys {
            assert_eq!(
                closest_preceding(state, key),
                closest_preceding_scan(state, key),
                "closest_preceding({key:#x}) at {state:?}"
            );
            assert_eq!(
                next_hop(state, key),
                next_hop_scan(state, key),
                "next_hop({key:#x}) at {state:?}"
            );
        }
    }

    #[test]
    fn table_routes_like_scan_on_edge_states() {
        let extra = [0u64, 1, 150, 250, u64::MAX];
        // Singleton ring: no table at all.
        let mut s = ChordState::new(100, 0, 4);
        assert!(s.route_table().is_empty());
        assert_routes_like_scan(&s, &extra);
        // Mid-join: a successor but no predecessor yet.
        let succ = Peer { id: 200, idx: 1 };
        s.add_successor(succ);
        assert_eq!(next_hop(&s, 100), NextHop::Local);
        assert_eq!(next_hop(&s, 99), NextHop::Forward(succ));
        assert_routes_like_scan(&s, &extra);
        // A finger equal to a successor is one table entry, and of two
        // entries sharing an id the finger, scanned first, is the one kept.
        s.set_finger(7, Some(succ));
        s.set_finger(9, Some(Peer { id: 300, idx: 2 }));
        s.add_successor(Peer { id: 300, idx: 9 });
        assert_eq!(s.route_table(), [succ, Peer { id: 300, idx: 2 }]);
        assert_routes_like_scan(&s, &extra);
    }

    #[test]
    fn table_routes_like_scan_on_built_rings() {
        let topo = hypersub_simnet::KingLikeTopology::generate(96, SimTime::from_millis(180), 5);
        for pns in [true, false] {
            let cfg = RingConfig {
                pns,
                ..RingConfig::default()
            };
            let states = build_ring(&cfg, &topo, 17);
            let extra: Vec<NodeId> = (0..64).map(|i| 0x9e37_79b9_7f4a_7c15u64 << i).collect();
            for st in &states {
                assert_routes_like_scan(st, &extra);
            }
        }
    }

    /// Peers at offsets from the node that collide, wrap and straddle the
    /// finger boundaries; `a >= 24` re-uses an id under another index.
    fn history_peer(me: NodeId, a: u64) -> Peer {
        const OFFSETS: [u64; 24] = [
            0,
            1,
            2,
            3,
            7,
            8,
            1 << 10,
            (1 << 10) + 1,
            1 << 20,
            1 << 32,
            (1 << 32) - 1,
            1 << 40,
            3 << 40,
            1 << 62,
            (1 << 62) + 5,
            1 << 63,
            (1 << 63) - 1,
            (1 << 63) + 1,
            3 << 62,
            u64::MAX - 1000,
            u64::MAX - 2,
            u64::MAX - 1,
            u64::MAX,
            12345,
        ];
        let slot = (a % 24) as usize;
        Peer {
            id: me.wrapping_add(OFFSETS[slot]),
            idx: if a < 24 { slot } else { 100 + slot },
        }
    }

    fn encoded(s: &ChordState) -> Vec<u8> {
        let mut w = hypersub_snapshot::Writer::new();
        s.encode(&mut w);
        w.into_vec()
    }

    proptest! {
        /// Routing, the successor list and the finger slots stay what plain
        /// per-slot bookkeeping makes of any history, and the bytes stay
        /// those of that bookkeeping. `a == 30` names the node itself.
        #[test]
        fn prop_table_routes_like_scan_through_any_history(
            me in any::<u64>(),
            succ_list_len in 1usize..6,
            ops in prop::collection::vec((0u8..6, 0u64..31, 0usize..64), 1..60),
            keys in prop::collection::vec(any::<u64>(), 4..5),
        ) {
            let mut s = ChordState::new(me, 24, succ_list_len);
            // The successor list as `add_successor` makes it with no
            // shortcut: append, sort, cut.
            let mut list: Vec<Peer> = Vec::new();
            let mut shadow: [Option<Peer>; NUM_FINGERS] = [None; NUM_FINGERS];
            for (op, a, slot) in ops {
                let p = if a == 30 { s.me() } else { history_peer(me, a) };
                match op {
                    0 => {
                        s.add_successor(p);
                        if p.id != me && !list.contains(&p) {
                            list.push(p);
                            list.sort_by_key(|q| clockwise_distance(me, q.id));
                            list.truncate(succ_list_len);
                        }
                    }
                    1 => {
                        s.evict(p.idx);
                        list.retain(|q| q.idx != p.idx);
                        for f in &mut shadow {
                            if f.is_some_and(|q| q.idx == p.idx) {
                                *f = None;
                            }
                        }
                    }
                    2 | 3 => {
                        let f = (op == 2).then_some(p);
                        s.set_finger(slot, f);
                        shadow[slot] = f;
                    }
                    4 => {
                        s.clear_successors();
                        list.clear();
                    }
                    _ => {
                        s = ChordState::decode(&mut hypersub_snapshot::Reader::new(&encoded(&s)))
                            .expect("a state decodes from its own bytes");
                    }
                }
                prop_assert_eq!(s.successors(), list.as_slice());
                prop_assert_eq!(s.fingers(), shadow);
                // The layout of a state that kept its 64 slots in a `Vec`.
                let mut w = hypersub_snapshot::Writer::new();
                w.put_u64(me);
                24usize.encode(&mut w);
                s.predecessor.encode(&mut w);
                list.encode(&mut w);
                shadow.to_vec().encode(&mut w);
                succ_list_len.encode(&mut w);
                prop_assert_eq!(encoded(&s), w.into_vec());
                assert_routes_like_scan(&s, &keys);
            }
        }
    }
}
