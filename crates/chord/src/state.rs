//! Per-node Chord routing state.

use crate::id::{clockwise_distance, in_open_closed, in_open_open, NodeId};
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};

/// A reference to another node: its ring identifier plus its simulator
/// index (the "network address").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Peer {
    /// Ring identifier.
    pub id: NodeId,
    /// Simulator node index (stands in for an IP address).
    pub idx: usize,
}
codec!(struct Peer { id, idx });

/// Number of finger-table entries (one per identifier bit).
pub const NUM_FINGERS: usize = 64;

/// Chord routing state for one node.
///
/// Invariants maintained by the builder and the dynamic protocol:
/// * `successors` is sorted by clockwise distance from `id` and never
///   contains `id` itself;
/// * `fingers[i]`, when set, is the node the protocol currently believes
///   to be `successor(id + 2^i)`;
/// * `route_table` is derived from the two. Both lists are private so
///   that only this module's mutators, each of which ends in
///   `rebuild_derived`, can change them: it cannot go stale.
#[derive(Debug, Clone)]
pub struct ChordState {
    /// This node's ring identifier.
    pub id: NodeId,
    /// This node's simulator index.
    pub idx: usize,
    /// Immediate predecessor on the ring, if known.
    pub predecessor: Option<Peer>,
    /// Successor list, closest first.
    successors: Vec<Peer>,
    /// Finger table; entry `i` targets `id + 2^i`. Stored as runs.
    fingers: FingerRuns,
    /// Maximum successor-list length.
    succ_list_len: usize,
    /// What a routing decision reads instead of the 64 finger slots and
    /// the successor list (see [`Self::route_table`]): one exact-size
    /// allocation.
    route_table: Box<[Peer]>,
}

impl ChordState {
    /// Fresh state for a node that has not joined any ring.
    pub fn new(id: NodeId, idx: usize, succ_list_len: usize) -> Self {
        let me = Peer { id, idx };
        Self::from_parts(me, succ_list_len, None, Vec::new(), [None; NUM_FINGERS])
    }

    /// State whose lists are already known — the ring builder's fixed
    /// point — so the route table is built once, not once per entry.
    /// `successors` must already be what [`Self::add_successor`] would
    /// have made of them.
    pub(crate) fn from_parts(
        me: Peer,
        succ_list_len: usize,
        predecessor: Option<Peer>,
        successors: Vec<Peer>,
        fingers: [Option<Peer>; NUM_FINGERS],
    ) -> Self {
        assert!(
            succ_list_len >= 1,
            "successor list must hold at least one entry"
        );
        assert!(successors.len() <= succ_list_len);
        debug_assert!(
            successors.iter().all(|p| p.id != me.id)
                && successors.windows(2).all(|w| {
                    clockwise_distance(me.id, w[0].id) < clockwise_distance(me.id, w[1].id)
                }),
            "successors must be distinct and sorted clockwise from the node"
        );
        let mut st = Self {
            id: me.id,
            idx: me.idx,
            predecessor,
            successors,
            fingers: FingerRuns::compress(&fingers),
            succ_list_len,
            route_table: Box::default(),
        };
        st.rebuild_derived();
        st
    }

    /// Successor list, closest first.
    pub fn successors(&self) -> &[Peer] {
        &self.successors
    }

    /// Finger table; entry `i` targets `id + 2^i`.
    pub fn fingers(&self) -> [Option<Peer>; NUM_FINGERS] {
        self.fingers.slots()
    }

    /// How many finger values are stored: one per run of equal slots.
    #[cfg(test)]
    pub(crate) fn finger_runs(&self) -> usize {
        self.fingers.runs.len()
    }

    /// The distinct peers of fingers-then-successors at non-zero clockwise
    /// distance, sorted by that distance. Where two entries share an id
    /// the first in that scan order is the one kept, which is the entry a
    /// scan with a strict "closer" comparison would have returned.
    pub fn route_table(&self) -> &[Peer] {
        &self.route_table
    }

    fn rebuild_derived(&mut self) {
        let dist = |p: &Peer| clockwise_distance(self.id, p.id);
        // An insertion sort in scan order, so an id already placed wins.
        // It searches from the back because on a stabilized ring both
        // lists arrive in clockwise order: a finger repeats or extends the
        // tail, a successor lands among the few entries nearest the node.
        // One value per finger run is the slot scan without the repeats,
        // each of which would find its own id placed and be skipped.
        let runs = &self.fingers.runs;
        let mut table: Vec<Peer> = Vec::with_capacity(runs.len() + self.successors.len());
        for p in runs.iter().flatten().chain(&self.successors) {
            if dist(p) == 0 {
                continue;
            }
            let at = table
                .iter()
                .rposition(|q| dist(q) < dist(p))
                .map_or(0, |i| i + 1);
            if table.get(at).map(|q| q.id) != Some(p.id) {
                table.insert(at, *p);
            }
        }
        self.route_table = table.into_boxed_slice();
    }

    /// This node as a [`Peer`].
    pub fn me(&self) -> Peer {
        Peer {
            id: self.id,
            idx: self.idx,
        }
    }

    /// The immediate successor, if any.
    pub fn successor(&self) -> Option<Peer> {
        self.successors.first().copied()
    }

    /// Is this node responsible for `key` (i.e. `key ∈ (predecessor, id]`)?
    ///
    /// A singleton ring (no predecessor, no successors) owns every key; a
    /// node that knows successors but not yet its predecessor (mid-join)
    /// conservatively claims only its own id.
    pub fn responsible_for(&self, key: NodeId) -> bool {
        match self.predecessor {
            Some(p) => in_open_closed(p.id, key, self.id),
            None => self.successors.is_empty() || key == self.id,
        }
    }

    /// The finger-table start for entry `i`: `id + 2^i`.
    pub fn finger_start(&self, i: usize) -> NodeId {
        self.id.wrapping_add(1u64 << i)
    }

    /// Inserts `peer` into the successor list, keeping it sorted by
    /// clockwise distance, deduplicated and truncated to `succ_list_len`.
    pub fn add_successor(&mut self, peer: Peer) {
        if peer.id == self.id || self.successors.contains(&peer) {
            return;
        }
        let me = self.id;
        self.successors.push(peer);
        self.successors
            .sort_by_key(|p| clockwise_distance(me, p.id));
        self.successors.truncate(self.succ_list_len);
        // A peer no closer than a full list's tail is truncated away
        // again, and the list is as it was.
        if self.successors.contains(&peer) {
            self.rebuild_derived();
        }
    }

    /// Empties the successor list (stabilize adopts its successor's list
    /// wholesale and refills from it).
    pub fn clear_successors(&mut self) {
        self.successors.clear();
        self.rebuild_derived();
    }

    /// Sets or clears finger-table entry `i`.
    pub fn set_finger(&mut self, i: usize, finger: Option<Peer>) {
        let mut slots = self.fingers.slots();
        if slots[i] != finger {
            slots[i] = finger;
            self.fingers = FingerRuns::compress(&slots);
            self.rebuild_derived();
        }
    }

    /// Removes a peer (by simulator index) from successors and fingers —
    /// used when a node is detected dead.
    pub fn evict(&mut self, idx: usize) {
        self.successors.retain(|p| p.idx != idx);
        let mut slots = self.fingers.slots();
        for f in &mut slots {
            if f.map(|p| p.idx) == Some(idx) {
                *f = None;
            }
        }
        self.fingers = FingerRuns::compress(&slots);
        if self.predecessor.map(|p| p.idx) == Some(idx) {
            self.predecessor = None;
        }
        self.rebuild_derived();
    }

    /// Offers `peer` as a predecessor candidate (Chord `notify`). Accepts
    /// if closer than the current predecessor.
    pub fn consider_predecessor(&mut self, peer: Peer) {
        if peer.id == self.id {
            return;
        }
        match self.predecessor {
            None => self.predecessor = Some(peer),
            Some(p) => {
                if in_open_open(p.id, peer.id, self.id) {
                    self.predecessor = Some(peer);
                }
            }
        }
    }

    /// Ring-adjacent neighbors (successor list + predecessor) — the
    /// "neighbors" §4's load balancer probes and migrates to. Migration
    /// partitions subscriptions by clockwise arcs, which only makes sense
    /// over ring-adjacent peers, and probing them keeps the mechanism
    /// light-weight compared to probing the whole finger table.
    pub fn close_neighbors(&self) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        for &s in &self.successors {
            if s.idx != self.idx && !out.contains(&s) {
                out.push(s);
            }
        }
        if let Some(p) = self.predecessor {
            if p.idx != self.idx && !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// All distinct routing neighbors (successors + fingers + predecessor).
    pub fn neighbors(&self) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        let mut push = |p: Peer| {
            if p.idx != self.idx && !out.contains(&p) {
                out.push(p);
            }
        };
        for &s in &self.successors {
            push(s);
        }
        for f in self.fingers.runs.iter().flatten() {
            push(*f);
        }
        if let Some(p) = self.predecessor {
            push(p);
        }
        out
    }
}

/// The 64 finger slots as runs of equal slots. Bit `i` of `starts` is
/// set where slot `i` begins a run (bit 0 always is), and `runs` holds
/// each run's value in slot order. A stabilized ring of n nodes has about
/// log₂ n distinct fingers, so a node stores a dozen values, not 64.
#[derive(Debug, Clone)]
struct FingerRuns {
    starts: u64,
    runs: Box<[Option<Peer>]>,
}

impl FingerRuns {
    fn compress(slots: &[Option<Peer>; NUM_FINGERS]) -> Self {
        let mut starts = 0u64;
        let mut runs: Vec<Option<Peer>> = Vec::new();
        for (i, f) in slots.iter().enumerate() {
            if runs.last() != Some(f) {
                starts |= 1 << i;
                runs.push(*f);
            }
        }
        Self {
            starts,
            runs: runs.into_boxed_slice(),
        }
    }

    fn slots(&self) -> [Option<Peer>; NUM_FINGERS] {
        let mut run = 0;
        std::array::from_fn(|i| {
            if i > 0 && self.starts >> i & 1 == 1 {
                run += 1;
            }
            self.runs[run]
        })
    }
}

// Hand-written codec: the decoder validates and derives state (the route
// table is rebuilt). The fingers are written as the 64 slots.
impl Encode for ChordState {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        self.idx.encode(w);
        self.predecessor.encode(w);
        self.successors.encode(w);
        self.fingers()[..].encode(w);
        self.succ_list_len.encode(w);
    }
}

impl Decode for ChordState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let id = r.take_u64()?;
        let idx = usize::decode(r)?;
        let predecessor = Option::<Peer>::decode(r)?;
        let successors = Vec::<Peer>::decode(r)?;
        let fingers = Vec::<Option<Peer>>::decode(r)?;
        let succ_list_len = usize::decode(r)?;
        let fingers: [Option<Peer>; NUM_FINGERS] = match fingers.try_into() {
            Ok(slots) if succ_list_len > 0 => slots,
            _ => return Err(Error::InvalidValue("chord state shape")),
        };
        let mut st = ChordState {
            id,
            idx,
            predecessor,
            successors,
            fingers: FingerRuns::compress(&fingers),
            succ_list_len,
            route_table: Box::default(),
        };
        st.rebuild_derived();
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(id: NodeId) -> Peer {
        Peer {
            id,
            idx: id as usize,
        }
    }

    #[test]
    fn successor_list_sorted_and_truncated() {
        let mut s = ChordState::new(100, 0, 3);
        for id in [500, 200, 900, 101, 300] {
            s.add_successor(peer(id));
        }
        let ids: Vec<NodeId> = s.successors().iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![101, 200, 300]);
    }

    #[test]
    fn successor_list_wraps_around_ring() {
        let mut s = ChordState::new(u64::MAX - 10, 0, 4);
        s.add_successor(peer(5));
        s.add_successor(peer(u64::MAX - 2));
        s.add_successor(peer(1000));
        let ids: Vec<NodeId> = s.successors().iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![u64::MAX - 2, 5, 1000]);
    }

    #[test]
    fn no_self_or_duplicate_successors() {
        let mut s = ChordState::new(10, 0, 4);
        s.add_successor(peer(10));
        s.add_successor(peer(20));
        s.add_successor(peer(20));
        assert_eq!(s.successors().len(), 1);
    }

    #[test]
    fn responsibility() {
        let mut s = ChordState::new(100, 0, 4);
        // Singleton: owns everything.
        assert!(s.responsible_for(100));
        assert!(s.responsible_for(99));
        // Mid-join (successor known, predecessor not): owns only own id.
        s.add_successor(peer(200));
        assert!(s.responsible_for(100));
        assert!(!s.responsible_for(99));
        s.predecessor = Some(peer(50));
        assert!(s.responsible_for(51));
        assert!(s.responsible_for(100));
        assert!(!s.responsible_for(50));
        assert!(!s.responsible_for(101));
    }

    #[test]
    fn consider_predecessor_takes_closer() {
        let mut s = ChordState::new(100, 0, 4);
        s.consider_predecessor(peer(40));
        assert_eq!(s.predecessor, Some(peer(40)));
        s.consider_predecessor(peer(80));
        assert_eq!(s.predecessor, Some(peer(80)));
        s.consider_predecessor(peer(60));
        assert_eq!(s.predecessor, Some(peer(80)));
    }

    #[test]
    fn evict_scrubs_everything() {
        let mut s = ChordState::new(100, 0, 4);
        s.add_successor(Peer { id: 200, idx: 7 });
        s.set_finger(3, Some(Peer { id: 200, idx: 7 }));
        s.predecessor = Some(Peer { id: 50, idx: 7 });
        s.evict(7);
        assert!(s.successors().is_empty());
        assert!(s.fingers()[3].is_none());
        assert!(s.predecessor.is_none());
    }

    #[test]
    fn finger_start_wraps() {
        let s = ChordState::new(u64::MAX, 0, 4);
        assert_eq!(s.finger_start(0), 0);
        assert_eq!(s.finger_start(63), (1u64 << 63) - 1);
    }

    #[test]
    fn neighbors_dedup() {
        let mut s = ChordState::new(100, 0, 4);
        let p = Peer { id: 200, idx: 2 };
        s.add_successor(p);
        s.set_finger(5, Some(p));
        s.predecessor = Some(Peer { id: 50, idx: 3 });
        let n = s.neighbors();
        assert_eq!(n.len(), 2);
    }
}
