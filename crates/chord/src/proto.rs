//! The dynamic Chord protocol: join, stabilize, notify, fix-fingers and
//! failure eviction.
//!
//! The paper runs its measurements on a stabilized network and "leverages
//! the underlying DHT to deal with nodes join/departure/failure" (§6), so
//! the maintenance machinery lives here in the DHT layer. It is written as
//! *effect-returning functions* over [`MaintState`] — handlers return the
//! messages to send instead of sending them — so that HyperSub's node can
//! embed Chord maintenance inside its own message enum (and this module's
//! tests can drive it from a bare standalone node).

use crate::id::{in_open_closed, NodeId};
use crate::routing::{closest_preceding, next_hop, NextHop};
use crate::state::{ChordState, Peer, NUM_FINGERS};
use hypersub_simnet::{FxHashSet, Payload, SimTime};
use hypersub_snapshot::codec;

/// Why a lookup was issued; determines what happens with the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupPurpose {
    /// A joining node looking up its own successor.
    Join,
    /// Refreshing finger-table entry `i`.
    Finger(u8),
    /// An application lookup; the token is returned with the answer.
    App(u64),
}
codec!(enum LookupPurpose as "lookup purpose tag" {
    0 => Join,
    1 => Finger(i),
    2 => App(token),
});

/// Chord maintenance wire messages.
#[derive(Debug, Clone)]
pub enum ChordMsg {
    /// Recursive lookup request for the node responsible for `key`.
    FindSuccessor {
        /// Key being resolved.
        key: NodeId,
        /// Node awaiting the reply.
        origin: Peer,
        /// What the origin will do with the answer.
        purpose: LookupPurpose,
    },
    /// Lookup answer, sent directly to the origin.
    FoundSuccessor {
        /// Key that was resolved.
        key: NodeId,
        /// The responsible node.
        owner: Peer,
        /// Echoed purpose.
        purpose: LookupPurpose,
    },
    /// Stabilize probe: asks the successor for its predecessor + list.
    GetNeighbors,
    /// Stabilize reply.
    NeighborsReply {
        /// Receiver's current predecessor.
        pred: Option<Peer>,
        /// Receiver's successor list.
        succs: Vec<Peer>,
    },
    /// "I believe I am your predecessor."
    Notify {
        /// The notifying peer.
        peer: Peer,
    },
}
codec!(enum ChordMsg as "chord msg tag" {
    0 => FindSuccessor { key, origin, purpose },
    1 => FoundSuccessor { key, owner, purpose },
    2 => GetNeighbors,
    3 => NeighborsReply { pred, succs },
    4 => Notify { peer },
});

/// Serialized peer size: 8-byte id + 4-byte address.
const PEER_BYTES: usize = 12;
/// Packet header, matching the paper's 20-byte event-message header.
const HEADER_BYTES: usize = 20;

impl Payload for ChordMsg {
    fn wire_size(&self) -> usize {
        HEADER_BYTES
            + match self {
                ChordMsg::FindSuccessor { .. } => 8 + PEER_BYTES + 2,
                ChordMsg::FoundSuccessor { .. } => 8 + PEER_BYTES + 2,
                ChordMsg::GetNeighbors => 0,
                ChordMsg::NeighborsReply { succs, .. } => PEER_BYTES * (succs.len() + 1),
                ChordMsg::Notify { .. } => PEER_BYTES,
            }
    }
}

/// Messages a handler wants sent: `(destination index, message)`.
pub type Sends = Vec<(usize, ChordMsg)>;

/// What a handler produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Messages to transmit.
    pub sends: Sends,
    /// A completed application lookup `(token, owner)`, if any.
    pub app_lookup: Option<(u64, Peer)>,
    /// Whether this message changed the node's immediate neighborhood
    /// (predecessor or first successor). The application layer hooks this
    /// to react to ownership changes — e.g. promoting replicated
    /// rendezvous state when a new predecessor shrinks-from-behind the
    /// responsibility arc.
    pub neighborhood_changed: bool,
}

/// Consecutive unanswered stabilize probes tolerated before a peer is
/// declared dead. One miss must not evict: on a lossy network a single
/// lost `GetNeighbors` (or its reply) is routine, and fail-stop death is
/// still detected fast via the send-failure notification path.
pub const STABILIZE_STRIKE_LIMIT: u32 = 3;

/// Chord state plus maintenance bookkeeping (periodic-task cursors and the
/// successor failure detector).
#[derive(Debug, Clone)]
pub struct MaintState {
    /// The routing state proper.
    pub chord: ChordState,
    /// Unanswered probes before eviction (see [`STABILIZE_STRIKE_LIMIT`]).
    pub strike_limit: u32,
    /// Successor probed by the last stabilize tick and not yet heard from,
    /// with its count of consecutive missed replies so far.
    awaiting_stab: Option<(usize, u32)>,
    /// Predecessor probed by the last stabilize tick and not yet heard
    /// from (Chord's `check_predecessor`), with missed-reply count.
    awaiting_pred: Option<(usize, u32)>,
    /// Round-robin finger refresh cursor.
    next_finger: usize,
    /// Bootstrap contact remembered from `start_join`; re-probed by
    /// stabilize while this node still has no successors (a lossy network
    /// can swallow the one-shot join lookup).
    bootstrap: Option<usize>,
    /// Peers this node has itself observed dead. Gossip (successor lists
    /// from neighbors) is filtered against this set — otherwise evicted
    /// nodes leak straight back in and the ring never heals.
    dead: FxHashSet<usize>,
}
// Every private cursor steers future traffic, so all of them are captured.
codec!(struct MaintState {
    chord,
    strike_limit,
    awaiting_stab,
    awaiting_pred,
    next_finger,
    bootstrap,
    dead,
});

impl MaintState {
    /// Wraps existing routing state.
    pub fn new(chord: ChordState) -> Self {
        Self {
            chord,
            strike_limit: STABILIZE_STRIKE_LIMIT,
            awaiting_stab: None,
            awaiting_pred: None,
            next_finger: 0,
            bootstrap: None,
            dead: FxHashSet::default(),
        }
    }

    /// The nodes this state will send to besides those its routing state
    /// names: the successor and the predecessor awaiting a probe reply,
    /// and the bootstrap contact.
    pub fn contacts(&self) -> impl Iterator<Item = usize> {
        let awaiting = [self.awaiting_stab, self.awaiting_pred];
        awaiting
            .into_iter()
            .flatten()
            .map(|(idx, _)| idx)
            .chain(self.bootstrap)
    }

    /// Adds a successor candidate unless this node observed it dead.
    fn add_successor_checked(&mut self, p: Peer) {
        if !self.dead.contains(&p.idx) {
            self.chord.add_successor(p);
        }
    }

    /// Records a peer observed alive (piggybacked maintenance): offers it
    /// as a predecessor and successor candidate and lifts any tombstone —
    /// direct evidence of liveness outranks past timeouts.
    pub fn observe_peer(&mut self, peer: Peer) {
        if peer.idx == self.chord.idx {
            return;
        }
        // Nearly every delivery message lands here with no tombstone to
        // lift: skip the hash.
        if !self.dead.is_empty() {
            self.dead.remove(&peer.idx);
        }
        self.chord.consider_predecessor(peer);
        self.chord.add_successor(peer);
    }

    /// Forgets every past liveness observation: tombstones and in-flight
    /// probe strikes. Call when this node itself rejoins after downtime —
    /// its observations predate the failure and are stale, and a stale
    /// tombstone deadlocks ring repair when two adjacent nodes churn
    /// (each refuses the gossip that names the other, and neither ever
    /// contacts the other directly to lift the tombstone).
    pub fn rejoin_reset(&mut self) {
        self.dead.clear();
        self.awaiting_stab = None;
        self.awaiting_pred = None;
    }

    /// Records a node observed dead (e.g. via a send failure): evicts it
    /// from all routing state and tombstones it against gossip.
    pub fn note_dead(&mut self, idx: usize) {
        self.chord.evict(idx);
        self.dead.insert(idx);
        if self.awaiting_stab.map(|(i, _)| i) == Some(idx) {
            self.awaiting_stab = None;
        }
        if self.awaiting_pred.map(|(i, _)| i) == Some(idx) {
            self.awaiting_pred = None;
        }
    }

    /// Begins a join via `bootstrap` (a simulator index of any ring
    /// member). The contact is remembered: while this node still has no
    /// successors, each stabilize tick re-issues the join lookup, so a
    /// lost bootstrap exchange only delays the join by one period.
    pub fn start_join(&mut self, bootstrap: usize) -> Sends {
        self.bootstrap = Some(bootstrap);
        vec![(
            bootstrap,
            ChordMsg::FindSuccessor {
                key: self.chord.id,
                origin: self.chord.me(),
                purpose: LookupPurpose::Join,
            },
        )]
    }

    /// Issues an application lookup for `key`; the answer surfaces later as
    /// [`Outcome::app_lookup`] with this `token`.
    pub fn start_lookup(&mut self, key: NodeId, token: u64) -> Sends {
        // Resolve locally when possible so a lone node still answers.
        match next_hop(&self.chord, key) {
            NextHop::Local => Vec::new(), // caller should check responsible_for first
            NextHop::Forward(p) => vec![(
                p.idx,
                ChordMsg::FindSuccessor {
                    key,
                    origin: self.chord.me(),
                    purpose: LookupPurpose::App(token),
                },
            )],
        }
    }

    /// One stabilize tick: strike (and at the limit evict) unresponsive
    /// probed peers, then probe the current successor and predecessor.
    /// Call at a fixed period.
    pub fn stabilize_tick(&mut self) -> Sends {
        // Unanswered probes accumulate strikes; only a run of
        // `strike_limit` consecutive misses evicts. Strikes carry over
        // only while the probed peer stays the same.
        let stab_miss = match self.awaiting_stab.take() {
            Some((idx, miss)) if miss + 1 >= self.strike_limit => {
                self.note_dead(idx);
                None
            }
            Some((idx, miss)) => Some((idx, miss + 1)),
            None => None,
        };
        let pred_miss = match self.awaiting_pred.take() {
            Some((idx, miss)) if miss + 1 >= self.strike_limit => {
                // Predecessor unresponsive: clear it so the true
                // predecessor (who keeps notifying us) can take the slot,
                // and so our responsibility arc is not stuck behind a dead
                // node.
                self.note_dead(idx);
                None
            }
            Some((idx, miss)) => Some((idx, miss + 1)),
            None => None,
        };
        let mut sends = Vec::new();
        if let Some(succ) = self.chord.successor() {
            let carried = match stab_miss {
                Some((idx, miss)) if idx == succ.idx => miss,
                _ => 0,
            };
            self.awaiting_stab = Some((succ.idx, carried));
            sends.push((succ.idx, ChordMsg::GetNeighbors));
        } else if let Some(boot) = self.bootstrap {
            // Still ringless: the one-shot join must have been lost —
            // retry it, even to a bootstrap observed dead. It is this
            // node's only contact, and one that restarts must be found
            // again.
            sends.push((
                boot,
                ChordMsg::FindSuccessor {
                    key: self.chord.id,
                    origin: self.chord.me(),
                    purpose: LookupPurpose::Join,
                },
            ));
        }
        if let Some(pred) = self.chord.predecessor {
            if self.awaiting_stab.map(|(i, _)| i) != Some(pred.idx) {
                let carried = match pred_miss {
                    Some((idx, miss)) if idx == pred.idx => miss,
                    _ => 0,
                };
                self.awaiting_pred = Some((pred.idx, carried));
                sends.push((pred.idx, ChordMsg::GetNeighbors));
            }
        }
        sends
    }

    /// One fix-fingers tick: refreshes the next finger in round-robin.
    pub fn fix_fingers_tick(&mut self) -> Sends {
        let i = self.next_finger;
        self.next_finger = (self.next_finger + 1) % NUM_FINGERS;
        let start = self.chord.finger_start(i);
        if self.chord.responsible_for(start) {
            self.chord.set_finger(i, None);
            return Vec::new();
        }
        match next_hop(&self.chord, start) {
            NextHop::Local => Vec::new(),
            NextHop::Forward(p) => vec![(
                p.idx,
                ChordMsg::FindSuccessor {
                    key: start,
                    origin: self.chord.me(),
                    purpose: LookupPurpose::Finger(i as u8),
                },
            )],
        }
    }

    /// Handles an incoming maintenance message.
    pub fn handle(&mut self, from: usize, msg: ChordMsg) -> Outcome {
        // Receiving anything from a peer is direct liveness evidence:
        // lift its tombstone (e.g. a healed partition re-introducing
        // peers this side had struck out).
        self.dead.remove(&from);
        let neighborhood_before = (self.chord.predecessor, self.chord.successor());
        let mut out = Outcome::default();
        match msg {
            ChordMsg::FindSuccessor {
                key,
                origin,
                purpose,
            } => {
                // Bootstrap: a node with no successors (ring of one) adopts
                // any live contact as its first successor candidate so the
                // two-node ring can form.
                if self.chord.successors().is_empty() {
                    self.add_successor_checked(origin);
                }
                let st = &self.chord;
                if st.responsible_for(key) {
                    out.sends.push((
                        origin.idx,
                        ChordMsg::FoundSuccessor {
                            key,
                            owner: st.me(),
                            purpose,
                        },
                    ));
                } else if let Some(succ) = st.successor() {
                    if in_open_closed(st.id, key, succ.id) {
                        out.sends.push((
                            origin.idx,
                            ChordMsg::FoundSuccessor {
                                key,
                                owner: succ,
                                purpose,
                            },
                        ));
                    } else {
                        let hop = closest_preceding(st, key).unwrap_or(succ);
                        out.sends.push((
                            hop.idx,
                            ChordMsg::FindSuccessor {
                                key,
                                origin,
                                purpose,
                            },
                        ));
                    }
                }
                // A node with no successor and not responsible: drop (it is
                // not part of any ring yet and should not be routed to).
            }
            ChordMsg::FoundSuccessor {
                key,
                owner,
                purpose,
            } => match purpose {
                LookupPurpose::Join => {
                    self.chord.add_successor(owner);
                    out.sends.push((
                        owner.idx,
                        ChordMsg::Notify {
                            peer: self.chord.me(),
                        },
                    ));
                }
                LookupPurpose::Finger(i) => {
                    self.chord.set_finger(i as usize, Some(owner));
                }
                LookupPurpose::App(token) => {
                    let _ = key;
                    out.app_lookup = Some((token, owner));
                }
            },
            ChordMsg::GetNeighbors => {
                out.sends.push((
                    from,
                    ChordMsg::NeighborsReply {
                        pred: self.chord.predecessor,
                        succs: self.chord.successors().to_vec(),
                    },
                ));
            }
            ChordMsg::NeighborsReply { pred, succs } => {
                let is_succ_probe = self.awaiting_stab.map(|(i, _)| i) == Some(from);
                if is_succ_probe {
                    self.awaiting_stab = None;
                }
                if self.awaiting_pred.map(|(i, _)| i) == Some(from) {
                    self.awaiting_pred = None;
                    if !is_succ_probe {
                        // Predecessor liveness probe only: its successor
                        // list points at (and behind) us and would re-seed
                        // entries we have deliberately evicted.
                        out.neighborhood_changed =
                            neighborhood_before != (self.chord.predecessor, self.chord.successor());
                        return out;
                    }
                }
                // Chord stabilize: if our successor's predecessor sits
                // between us and it, that node is our better successor
                // (add_successor keeps the list clockwise-sorted, so simply
                // offering it implements the rule).
                if let Some(p) = pred {
                    if p.idx != self.chord.idx {
                        if self.dead.contains(&p.idx) {
                            // Resurrection check: gossip alone must not
                            // revive a tombstoned peer, but a rejoined
                            // node that re-enters as someone's predecessor
                            // would otherwise stay invisible to the node
                            // *behind* it forever (it only announces
                            // itself forward, via Notify to its
                            // successor). Probe it directly: a live reply
                            // lifts the tombstone, silence changes
                            // nothing.
                            out.sends.push((p.idx, ChordMsg::GetNeighbors));
                        } else {
                            self.chord.add_successor(p);
                        }
                    }
                }
                if self.chord.successor().map(|s| s.idx) == Some(from) {
                    // Still our immediate successor: adopt its list
                    // wholesale ([succ] ++ succ.list, the real protocol's
                    // *replace* semantics). Merging instead would let
                    // stale dead entries linger forever.
                    let succ = self.chord.successor().expect("checked above");
                    self.chord.clear_successors();
                    self.chord.add_successor(succ);
                    for s in succs {
                        if s.idx != self.chord.idx {
                            self.add_successor_checked(s);
                        }
                    }
                } else {
                    for s in succs {
                        if s.idx != self.chord.idx {
                            self.add_successor_checked(s);
                        }
                    }
                }
                if let Some(succ) = self.chord.successor() {
                    out.sends.push((
                        succ.idx,
                        ChordMsg::Notify {
                            peer: self.chord.me(),
                        },
                    ));
                }
            }
            ChordMsg::Notify { peer } => {
                self.chord.consider_predecessor(peer);
                // Bootstrap symmetry: a successor-less node forming a
                // two-node ring adopts its notifier as successor.
                if self.chord.successors().is_empty() {
                    self.add_successor_checked(peer);
                }
            }
        }
        out.neighborhood_changed =
            neighborhood_before != (self.chord.predecessor, self.chord.successor());
        out
    }
}

/// Default stabilize period.
pub const STABILIZE_PERIOD: SimTime = SimTime::from_millis(500);
/// Default fix-fingers period.
pub const FIX_FINGERS_PERIOD: SimTime = SimTime::from_millis(250);

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_simnet::{Ctx, Node, Sim, SimTime, UniformTopology};
    use std::sync::Arc;

    type Cx<'a> = Ctx<'a, ChordMsg, ChordWorld>;

    /// Timer token: run a stabilize tick and re-arm.
    const TOKEN_STABILIZE: u64 = 1;
    /// Timer token: run a fix-fingers tick and re-arm.
    const TOKEN_FIX_FINGERS: u64 = 2;

    /// World state for the standalone Chord node: completed app lookups.
    #[derive(Debug, Default)]
    struct ChordWorld {
        /// `(token, owner peer)` pairs in completion order.
        lookups: Vec<(u64, Peer)>,
    }

    /// A self-maintaining Chord node runnable directly on `hypersub-simnet`.
    #[derive(Debug, Clone)]
    struct ChordNode {
        /// Protocol state.
        maint: MaintState,
    }

    impl ChordNode {
        /// A node that considers itself a singleton ring.
        fn new(id: NodeId, idx: usize, succ_list_len: usize) -> Self {
            Self {
                maint: MaintState::new(ChordState::new(id, idx, succ_list_len)),
            }
        }

        /// Arms the periodic maintenance timers; call once after creation.
        fn arm_timers(ctx: &mut Cx<'_>) {
            ctx.set_timer(STABILIZE_PERIOD, TOKEN_STABILIZE);
            ctx.set_timer(FIX_FINGERS_PERIOD, TOKEN_FIX_FINGERS);
        }
    }

    impl Node<ChordMsg, ChordWorld> for ChordNode {
        fn on_send_failed(&mut self, _ctx: &mut Cx<'_>, dst: usize, _msg: ChordMsg) {
            self.maint.note_dead(dst);
        }

        fn on_message(&mut self, ctx: &mut Cx<'_>, from: usize, msg: ChordMsg) {
            let out = self.maint.handle(from, msg);
            if let Some(done) = out.app_lookup {
                ctx.world().lookups.push(done);
            }
            for (dst, m) in out.sends {
                ctx.send(dst, m);
            }
        }

        fn on_timer(&mut self, ctx: &mut Cx<'_>, token: u64) {
            let sends = match token {
                TOKEN_STABILIZE => {
                    ctx.set_timer(STABILIZE_PERIOD, TOKEN_STABILIZE);
                    self.maint.stabilize_tick()
                }
                TOKEN_FIX_FINGERS => {
                    ctx.set_timer(FIX_FINGERS_PERIOD, TOKEN_FIX_FINGERS);
                    self.maint.fix_fingers_tick()
                }
                _ => Vec::new(),
            };
            for (dst, m) in sends {
                ctx.send(dst, m);
            }
        }
    }

    fn make_sim(n: usize) -> Sim<ChordNode, ChordMsg, ChordWorld> {
        let topo = Arc::new(UniformTopology::new(n, SimTime::from_millis(10)));
        let ids = crate::builder::random_ids(n, 99);
        let nodes: Vec<ChordNode> = ids
            .iter()
            .enumerate()
            .map(|(idx, &id)| ChordNode::new(id, idx, 8))
            .collect();
        Sim::new(topo, nodes, ChordWorld::default(), 5)
    }

    /// Joins nodes 1..n via node 0 and runs maintenance long enough to
    /// stabilize.
    fn stabilized_sim(n: usize) -> Sim<ChordNode, ChordMsg, ChordWorld> {
        let mut sim = make_sim(n);
        for i in 0..n {
            sim.with_node_ctx(i, |node, ctx| {
                ChordNode::arm_timers(ctx);
                if i > 0 {
                    for (dst, m) in node.maint.start_join(0) {
                        ctx.send(dst, m);
                    }
                }
            });
        }
        // Plenty of stabilize rounds for an n-node ring.
        sim.run_until(SimTime::from_secs(60));
        sim
    }

    fn ring_is_consistent(sim: &Sim<ChordNode, ChordMsg, ChordWorld>, alive: &[usize]) {
        // Sort alive nodes by id; each node's first successor must be the
        // next alive node on the ring.
        let mut order: Vec<(u64, usize)> = alive
            .iter()
            .map(|&i| (sim.node(i).maint.chord.id, i))
            .collect();
        order.sort_unstable();
        let n = order.len();
        for (pos, &(_, idx)) in order.iter().enumerate() {
            let expected = order[(pos + 1) % n].1;
            let succ = sim
                .node(idx)
                .maint
                .chord
                .successor()
                .expect("stabilized node has successor");
            assert_eq!(
                succ.idx, expected,
                "node {idx} successor {0} != ring-next {expected}",
                succ.idx
            );
        }
    }

    #[test]
    fn joins_converge_to_correct_ring() {
        let n = 24;
        let sim = stabilized_sim(n);
        let alive: Vec<usize> = (0..n).collect();
        ring_is_consistent(&sim, &alive);
    }

    #[test]
    fn lookups_resolve_after_stabilization() {
        let n = 16;
        let mut sim = stabilized_sim(n);
        // Look up every node's exact id from node 3.
        let targets: Vec<(u64, u64)> = (0..n)
            .map(|i| (i as u64, sim.node(i).maint.chord.id))
            .collect();
        for &(token, key) in &targets {
            sim.with_node_ctx(3, |node, ctx| {
                if node.maint.chord.responsible_for(key) {
                    ctx.world().lookups.push((token, node.maint.chord.me()));
                } else {
                    for (dst, m) in node.maint.start_lookup(key, token) {
                        ctx.send(dst, m);
                    }
                }
            });
        }
        sim.run_until(SimTime::from_secs(120));
        let lookups = &sim.world().lookups;
        assert_eq!(lookups.len(), n);
        for &(token, owner) in lookups {
            assert_eq!(
                owner.idx, token as usize,
                "lookup for node {token}'s id must return that node"
            );
        }
    }

    #[test]
    fn failure_is_evicted_and_ring_heals() {
        let n = 12;
        let mut sim = stabilized_sim(n);
        let dead = 5usize;
        sim.fail(dead);
        sim.run_until(SimTime::from_secs(180));
        let alive: Vec<usize> = (0..n).filter(|&i| i != dead).collect();
        ring_is_consistent(&sim, &alive);
        for &i in &alive {
            let st = &sim.node(i).maint.chord;
            assert!(
                st.successors().iter().all(|p| p.idx != dead),
                "node {i} still lists dead successor"
            );
        }
    }

    #[test]
    fn observe_peer_piggyback_updates_state() {
        let mut m = MaintState::new(ChordState::new(100, 0, 4));
        let p = Peer { id: 90, idx: 3 };
        // Tombstoned peer comes back via a piggybacked observation.
        m.note_dead(3);
        m.observe_peer(p);
        assert_eq!(m.chord.predecessor, Some(p));
        // And it is a successor candidate again.
        m.handle(
            3,
            ChordMsg::NeighborsReply {
                pred: None,
                succs: vec![p],
            },
        );
        assert!(m.chord.successors().contains(&p));
        // Self-observation is a no-op.
        m.observe_peer(Peer { id: 100, idx: 0 });
        assert_eq!(m.chord.predecessor, Some(p));
    }

    #[test]
    fn tombstoned_pred_gossip_is_probed_not_adopted() {
        let mut m = MaintState::new(ChordState::new(100, 0, 4));
        let succ = Peer { id: 140, idx: 2 };
        let ghost = Peer { id: 120, idx: 5 };
        m.chord.add_successor(succ);
        m.note_dead(5);
        // Successor gossips that a node we struck out is now its
        // predecessor (it rejoined): we must not adopt it on hearsay, but
        // we must go look.
        let out = m.handle(
            2,
            ChordMsg::NeighborsReply {
                pred: Some(ghost),
                succs: vec![],
            },
        );
        assert!(
            !m.chord.successors().contains(&ghost),
            "gossip alone must not revive a tombstoned peer"
        );
        assert!(
            out.sends
                .iter()
                .any(|(dst, msg)| *dst == 5 && matches!(msg, ChordMsg::GetNeighbors)),
            "a tombstoned pred hint must trigger a direct probe"
        );
        // The ghost answers the probe: direct contact lifts the tombstone,
        // and the next round of the same gossip is adopted.
        m.handle(
            5,
            ChordMsg::NeighborsReply {
                pred: None,
                succs: vec![],
            },
        );
        m.handle(
            2,
            ChordMsg::NeighborsReply {
                pred: Some(ghost),
                succs: vec![],
            },
        );
        assert!(
            m.chord.successors().contains(&ghost),
            "after a live reply the rejoined peer is adopted"
        );
    }

    #[test]
    fn rejoin_reset_forgets_observations() {
        let mut m = MaintState::new(ChordState::new(100, 0, 4));
        m.chord.add_successor(Peer { id: 140, idx: 2 });
        m.note_dead(5);
        m.note_dead(7);
        let _ = m.stabilize_tick(); // arms awaiting_stab on the successor
        assert!(m.awaiting_stab.is_some());
        m.rejoin_reset();
        assert!(m.dead.is_empty(), "tombstones cleared");
        assert!(m.awaiting_stab.is_none() && m.awaiting_pred.is_none());
        // Cleared tombstone: gossip about the peer is believed again.
        let ghost = Peer { id: 120, idx: 5 };
        m.handle(
            2,
            ChordMsg::NeighborsReply {
                pred: Some(ghost),
                succs: vec![],
            },
        );
        assert!(m.chord.successors().contains(&ghost));
    }

    #[test]
    fn adjacent_churned_pair_reintegrates() {
        // The regression the scenario pack caught: two ring-adjacent nodes
        // churn (down long enough for full eviction plus tombstones
        // everywhere), then revive. Without resurrection probing and
        // rejoin_reset the pair stays invisible to the node behind it and
        // its key arc is orphaned forever.
        let n = 12;
        let mut sim = stabilized_sim(n);
        // Pick two ring-adjacent indices by id order.
        let mut by_id: Vec<(u64, usize)> =
            (0..n).map(|i| (sim.node(i).maint.chord.id, i)).collect();
        by_id.sort_unstable();
        let (a, b) = (by_id[3].1, by_id[4].1);
        sim.fail(a);
        sim.fail(b);
        // Long enough that every survivor evicts and tombstones both.
        let t0 = sim.time();
        sim.run_until(t0 + SimTime::from_secs(120));
        sim.revive(a);
        sim.revive(b);
        for &i in &[a, b] {
            sim.with_node_ctx(i, |node, ctx| {
                node.maint.rejoin_reset();
                ChordNode::arm_timers(ctx);
            });
        }
        let t1 = sim.time();
        sim.run_until(t1 + SimTime::from_secs(120));
        ring_is_consistent(&sim, &(0..n).collect::<Vec<_>>());
    }

    #[test]
    fn a_joiner_waits_out_a_bootstrap_that_is_down() {
        let mut sim = make_sim(2);
        sim.fail(0);
        sim.with_node_ctx(1, |node, ctx| {
            ChordNode::arm_timers(ctx);
            for (dst, m) in node.maint.start_join(0) {
                ctx.send(dst, m);
            }
        });
        sim.run_until(SimTime::from_secs(5));
        assert!(
            sim.node(1).maint.dead.contains(&0),
            "the failed join tombstoned the bootstrap"
        );
        sim.revive(0);
        sim.with_node_ctx(0, |_, ctx| ChordNode::arm_timers(ctx));
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(
            sim.node(1).maint.chord.successor().map(|p| p.idx),
            Some(0),
            "joiner stranded"
        );
    }

    #[test]
    fn neighborhood_change_is_flagged_once() {
        let mut m = MaintState::new(ChordState::new(100, 0, 4));
        let p = Peer { id: 90, idx: 3 };
        let out = m.handle(3, ChordMsg::Notify { peer: p });
        assert!(
            out.neighborhood_changed,
            "first notify installs a predecessor and successor"
        );
        let out = m.handle(3, ChordMsg::Notify { peer: p });
        assert!(!out.neighborhood_changed, "re-notify changes nothing");
        let out = m.handle(3, ChordMsg::GetNeighbors);
        assert!(!out.neighborhood_changed, "probes change nothing");
    }

    #[test]
    fn late_join_integrates() {
        let n = 10;
        let mut sim = make_sim(n);
        // Stabilize the first 9 nodes only.
        for i in 0..n - 1 {
            sim.with_node_ctx(i, |node, ctx| {
                ChordNode::arm_timers(ctx);
                if i > 0 {
                    for (dst, m) in node.maint.start_join(0) {
                        ctx.send(dst, m);
                    }
                }
            });
        }
        sim.run_until(SimTime::from_secs(30));
        // Now join the last node.
        let last = n - 1;
        sim.with_node_ctx(last, |node, ctx| {
            ChordNode::arm_timers(ctx);
            for (dst, m) in node.maint.start_join(0) {
                ctx.send(dst, m);
            }
        });
        sim.run_until(SimTime::from_secs(90));
        let alive: Vec<usize> = (0..n).collect();
        ring_is_consistent(&sim, &alive);
    }
}
