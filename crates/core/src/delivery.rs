//! Event publication and delivery — Algorithms 4 and 5.
//!
//! **Publication (Algorithm 4)**: the publisher hashes the event point to
//! its maximum-level *rendezvous zone* (one per subscheme), initializes
//! the SubID list with the `(key(cz), NULL)` marker and sends the event
//! message toward the zone key's successor.
//!
//! **Delivery (Algorithm 5)**: each node receiving an event message
//! processes the SubID list in two phases. Targets this node is
//! responsible for are consumed: the NULL marker triggers rendezvous
//! matching against the leaf zone repository; an internal id resolves to a
//! local subscription (deliver to the application), a zone repository
//! (match and merge — this is how the event climbs the surrogate chain
//! toward ancestor zones), or a hosted migrated repository. All remaining
//! targets are grouped by their next DHT hop and forwarded in one message
//! per neighbor — the embedded-tree aggregation that saves bandwidth.

use crate::model::{Event, SchemeId, SubId, SubTarget};
use crate::msg::{DeliveryMsg, HyperMsg};
use crate::node::{Cx, HyperSubNode, IidTarget};
use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_simnet::{FxHashSet, ProtoEvent};
use std::cell::Cell;
use std::sync::Arc;

/// Reusable scratch for Algorithm 5, one per thread: taken out for one
/// message and handed back empty, capacity retained. In steady state
/// zone-repository matching and the split allocate only the SubID lists
/// a message forwards, each once at its final size.
///
/// A host runs each node's handlers on one thread (the simulator, and the
/// live driver polling its nodes in turn), sends are queued rather than
/// handled in place, and the buffers carry nothing from one message to
/// the next — so one set per thread serves every node it runs, where one
/// per node held 4 096 idle sets on the largest workload.
#[derive(Debug, Default)]
pub(crate) struct DeliveryScratch {
    /// Dedup of SubID-list entries merged during phase 1. Membership-only
    /// (never iterated), so the fixed-seed fast hasher is safe. Empty
    /// until a match merges something: nine messages in ten only transit
    /// or deliver, and those never hash a target.
    seen: FxHashSet<SubTarget>,
    /// Targets merged in by local matches and not yet consumed.
    merged: Vec<SubTarget>,
    /// One repository's matches; every match of the message refills it.
    matches: Vec<SubId>,
    /// Targets to forward beside their next-hop neighbor index, in the
    /// order phase 1 met them.
    hops: Vec<(usize, SubTarget)>,
    /// Per distinct next-hop neighbor, how many `hops` go to it; a linear
    /// scan over the handful of DHT links.
    links: Vec<(usize, usize)>,
}

thread_local! {
    /// This thread's [`DeliveryScratch`], while no message holds it. A
    /// handler re-entered while one holds it would take fresh empty
    /// buffers.
    static SCRATCH: Cell<DeliveryScratch> = Cell::default();
}

/// Frees this thread's scratch buffers, Algorithm 5's and the push-down's,
/// leaving them at zero capacity. A dropped network calls it: the buffers
/// would otherwise keep what its largest message grew them to for the
/// thread's lifetime, past the network.
pub(crate) fn release_thread_scratch() {
    drop(SCRATCH.take());
    drop(crate::install::DESCENT.take());
}

impl DeliveryScratch {
    /// Hands the buffers back, emptied, for the next message. Clearing
    /// the set costs its capacity, not its length, so only a set that was
    /// filled is cleared.
    fn give_back(mut self) {
        if !self.seen.is_empty() {
            self.seen.clear();
        }
        self.matches.clear();
        self.hops.clear();
        self.links.clear();
        debug_assert!(self.is_empty());
        SCRATCH.set(self);
    }

    fn is_empty(&self) -> bool {
        self.seen.is_empty()
            && self.merged.is_empty()
            && self.matches.is_empty()
            && self.hops.is_empty()
            && self.links.is_empty()
    }
}

impl HyperSubNode {
    /// Algorithm 4: publish an event from this node. The event id must be
    /// globally unique (it tags the event's bandwidth flow).
    pub(crate) fn publish(&mut self, ctx: &mut Cx<'_>, scheme_id: SchemeId, event: Event) {
        let event = Arc::new(event);
        let scheme = self.registry.scheme(scheme_id);
        let n_subschemes = scheme.subschemes.len() as u8;
        for ss in 0..n_subschemes {
            let proj = self
                .registry
                .scheme(scheme_id)
                .project_point(ss, &event.point);
            let (_leaf, target) = self.rendezvous_target(scheme_id, ss, &proj);
            let msg = DeliveryMsg {
                scheme: scheme_id,
                ss,
                event: Arc::clone(&event),
                hops: 0,
                sender: None,
                targets: vec![target],
            };
            self.handle_delivery(ctx, msg);
        }
    }

    /// Algorithm 5: process an event message.
    pub(crate) fn handle_delivery(&mut self, ctx: &mut Cx<'_>, msg: DeliveryMsg) {
        let scheme = self.registry.scheme(msg.scheme);
        let proj_owned;
        let proj = if scheme.projection_is_identity(msg.ss, msg.event.point.0.len()) {
            &msg.event.point
        } else {
            proj_owned = scheme.project_point(msg.ss, &msg.event.point);
            &proj_owned
        };

        // Phase 1: consume targets we are responsible for; matching may
        // produce new targets (the merged matched SubID list). The queue
        // is the incoming list, read from the back and left whole, under a
        // stack of merged targets that is drained first — the order one
        // `pop`ped vector holding both would give, since a merge only ever
        // pushes above what is left of the incoming list.
        let mut s = SCRATCH.take();
        debug_assert!(s.is_empty());
        let mut unread = msg.targets.len();
        loop {
            let t = match s.merged.pop() {
                Some(t) => t,
                None if unread == 0 => break,
                None => {
                    unread -= 1;
                    msg.targets[unread]
                }
            };
            // `next_hop` already starts with the responsibility check, so
            // a single call decides consume-vs-forward (`Local` also
            // covers the degenerate no-routing-state ring).
            match next_hop(&self.maint.chord, t.nid) {
                NextHop::Forward(p) => {
                    s.hops.push((p.idx, t));
                    match s.links.iter_mut().find(|(idx, _)| *idx == p.idx) {
                        Some((_, n)) => *n += 1,
                        None => s.links.push((p.idx, 1)),
                    }
                }
                NextHop::Local => self.consume_target(ctx, &msg, proj, t, &mut s),
            }
        }

        // Phase 2: forward one aggregated message per DHT link, in
        // ascending neighbor order — the deterministic send order the
        // previous BTreeMap-based implementation produced (neighbor
        // indices are unique keys, so unstable sort is exact). Each list
        // holds its link's targets in the order phase 1 met them.
        s.links.sort_unstable_by_key(|&(idx, _)| idx);
        if !s.links.is_empty() {
            let me = ctx.me();
            let m = &mut ctx.world().metrics.proto;
            m.delivery_splits.inc(me);
            m.delivery_fanout.observe(s.links.len() as u64);
            ctx.trace(|| ProtoEvent {
                kind: "delivery.split",
                flow: Some(msg.event.id),
                a: s.links.len() as u64,
                b: s.hops.len() as u64,
            });
        }
        for &(idx, n) in &s.links {
            let mut targets = Vec::with_capacity(n);
            targets.extend(s.hops.iter().filter(|&&(l, _)| l == idx).map(|&(_, t)| t));
            self.send_reliable(
                ctx,
                idx,
                HyperMsg::Delivery(DeliveryMsg {
                    scheme: msg.scheme,
                    ss: msg.ss,
                    event: Arc::clone(&msg.event),
                    hops: msg.hops + 1,
                    sender: Some(self.maint.chord.me()),
                    targets,
                }),
            );
        }

        s.give_back();
    }

    /// Consumes one SubID-list entry this node is responsible for.
    fn consume_target(
        &mut self,
        ctx: &mut Cx<'_>,
        msg: &DeliveryMsg,
        proj: &hypersub_lph::Point,
        t: SubTarget,
        scratch: &mut DeliveryScratch,
    ) {
        let DeliveryScratch {
            seen,
            merged,
            matches,
            ..
        } = scratch;
        let mut merge = |matched: &[SubId]| {
            // The first match to merge anything is what pays for hashing
            // the incoming list (`t` came from it or from an earlier
            // merge, so a filled set is never empty).
            if seen.is_empty() && !matched.is_empty() {
                seen.extend(msg.targets.iter().copied());
            }
            for &sid in matched {
                let nt = SubTarget::sub(sid);
                if seen.insert(nt) {
                    merged.push(nt);
                }
            }
        };
        match t.iid {
            None => {
                // Rendezvous marker: match every local repository on the
                // path from the event's leaf zone to the root. Locally
                // hosted zones are not chained to each other (the chain
                // collapse optimization in `install.rs`), so the walk is
                // what finds them; chains to *remote* ancestor zones
                // continue via the owner links in the matched entries.
                let ssdef = &self.registry.scheme(msg.scheme).subschemes[msg.ss as usize];
                let leaf = hypersub_lph::lph_point(&self.cfg.zone, &ssdef.space, proj);
                let mut z = leaf;
                let mut matched = 0u64;
                loop {
                    if let Some(repo) = self.repos.get_mut(&(msg.scheme, msg.ss, z)) {
                        if self.dedup.insert(msg.event.id, repo.iid, ctx.now()) {
                            repo.match_into(&msg.event.point, proj, self.cfg.index_mode, matches);
                            matched += matches.len() as u64;
                            merge(matches);
                        }
                    }
                    match z.parent(&self.cfg.zone) {
                        Some(p) => z = p,
                        None => break,
                    }
                }
                let me = ctx.me();
                ctx.world().metrics.proto.rendezvous_matches.inc(me);
                ctx.trace(|| ProtoEvent {
                    kind: "delivery.rendezvous",
                    flow: Some(msg.event.id),
                    a: matched,
                    b: 0,
                });
            }
            Some(iid) if t.nid != self.maint.chord.id => {
                // We are the key's successor but not the node this target
                // names: the named node (and the state its internal id
                // referred to) is gone. Interpreting a foreign internal id
                // against our own table would mis-deliver; drop instead —
                // the soft-state leases re-establish valid chains.
                let _ = iid;
            }
            // Each (event, iid) pair is handled at most once per node —
            // the visit-once invariant that makes delivery idempotent
            // under retransmission and fault-injected duplication.
            Some(iid) if self.dedup.insert(msg.event.id, iid, ctx.now()) => {
                match self.iid_target(iid) {
                    Some(IidTarget::Local) => {
                        // Deliver to the local application/user.
                        let now = ctx.now();
                        ctx.world().metrics.record_delivery(
                            msg.event.id,
                            SubId { nid: t.nid, iid },
                            now,
                            msg.hops,
                        );
                        ctx.trace(|| ProtoEvent {
                            kind: "delivery.local",
                            flow: Some(msg.event.id),
                            a: iid as u64,
                            b: msg.hops as u64,
                        });
                    }
                    Some(IidTarget::Repo(key)) => {
                        if let Some(repo) = self.repos.get_mut(&key) {
                            repo.match_into(&msg.event.point, proj, self.cfg.index_mode, matches);
                            merge(matches);
                        }
                    }
                    Some(IidTarget::Hosted) => {
                        let planes = self.planes.as_deref();
                        if let Some(h) = planes.and_then(|planes| planes.hosted.get(&iid)) {
                            merge(&h.match_point(&msg.event.point));
                        }
                    }
                    // Stale target (e.g. responsibility shifted after
                    // churn): nothing to do.
                    None => {}
                }
            }
            // Duplicate (event, iid): already handled above.
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::model::Subscription;
    use crate::node::test_registry;
    use crate::repo::{StoredSub, ZoneRepo};
    use crate::world::HyperWorld;
    use hypersub_chord::proto::ChordMsg;
    use hypersub_chord::{ChordState, Peer};
    use hypersub_lph::{Point, Rect, ZoneCode};
    use hypersub_simnet::{Ctx, SimTime};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// This node's ring id; it owns `(500, 1000]` and every other key
    /// leaves through its one successor, node 1.
    const ME: u64 = 1000;

    /// A host that keeps what the node sends.
    struct Recording {
        world: HyperWorld,
        rng: SmallRng,
        sent: Vec<(usize, HyperMsg)>,
    }

    fn node() -> (HyperSubNode, Recording) {
        let mut chord = ChordState::new(ME, 0, 4);
        chord.predecessor = Some(Peer { id: 500, idx: 9 });
        chord.add_successor(Peer { id: 2000, idx: 1 });
        let node = HyperSubNode::new(chord, test_registry(), Arc::new(SystemConfig::default()));
        let rt = Recording {
            world: HyperWorld::default(),
            rng: SmallRng::seed_from_u64(1),
            sent: Vec::new(),
        };
        (node, rt)
    }

    /// A subscription held on another node.
    fn remote(iid: u32) -> SubTarget {
        SubTarget::sub(SubId { nid: 2500, iid })
    }

    /// Gives the node a zone repository whose entries all match the test
    /// event; returns the target that names it.
    fn add_repo(node: &mut HyperSubNode, level: u8, matching: &[SubTarget]) -> SubTarget {
        let key = (0, 0, ZoneCode { level, code: 0 });
        let iid = node.alloc_iid(IidTarget::Repo(key));
        let mut repo = ZoneRepo::new(iid);
        let everything = Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]);
        for t in matching {
            let id = SubId {
                nid: t.nid,
                iid: t.iid.expect("a subscription, not a rendezvous marker"),
            };
            repo.insert(
                id,
                StoredSub::Surrogate {
                    proj: everything.clone(),
                },
            );
        }
        node.repos.insert(key, repo);
        SubTarget::sub(SubId { nid: ME, iid })
    }

    fn deliver(node: &mut HyperSubNode, rt: &mut Recording, targets: Vec<SubTarget>) {
        deliver_from(node, rt, None, targets);
    }

    fn deliver_from(
        node: &mut HyperSubNode,
        rt: &mut Recording,
        sender: Option<Peer>,
        targets: Vec<SubTarget>,
    ) {
        let msg = DeliveryMsg {
            scheme: 0,
            ss: 0,
            event: Arc::new(Event {
                id: 7,
                point: Point(vec![50.0, 50.0]),
            }),
            hops: 1,
            sender,
            targets,
        };
        let mut timers = Vec::new();
        let mut ctx = Ctx::new(
            0,
            SimTime::ZERO,
            &mut rt.world,
            &mut rt.rng,
            &mut rt.sent,
            &mut timers,
            None,
        );
        node.handle_delivery(&mut ctx, msg);
    }

    /// Reads this thread's scratch between messages. Each test runs on
    /// its own thread, so it starts from fresh buffers.
    fn scratch<R>(read: impl FnOnce(&DeliveryScratch) -> R) -> R {
        let s = SCRATCH.take();
        let r = read(&s);
        SCRATCH.set(s);
        r
    }

    /// The SubID list of the one message the node forwarded.
    fn forwarded(rt: &Recording) -> &[SubTarget] {
        match rt.sent.as_slice() {
            [(1, HyperMsg::Delivery(d))] => &d.targets,
            other => panic!("expected one message to node 1, got {other:?}"),
        }
    }

    #[test]
    fn a_delivery_from_a_tombstoned_peer_writes_no_routing_state() {
        let (mut node, mut rt) = node();
        // X sits between this node's predecessor and itself, so it would
        // be adopted as predecessor and as a successor candidate alike.
        let x = Peer { id: 800, idx: 3 };
        node.maint.note_dead(x.idx);
        deliver_from(&mut node, &mut rt, Some(x), vec![remote(1)]);
        assert_eq!(rt.sent.len(), 1, "the delivery itself goes on");
        let chord = &node.maint.chord;
        assert_eq!(chord.predecessor, Some(Peer { id: 500, idx: 9 }));
        assert_eq!(chord.successors(), [Peer { id: 2000, idx: 1 }]);
        // The tombstone still holds: gossip naming X is refused.
        node.maint.handle(
            1,
            ChordMsg::NeighborsReply {
                pred: None,
                succs: vec![x],
            },
        );
        assert!(!node.maint.chord.successors().contains(&x));
    }

    #[test]
    fn incoming_target_the_repository_also_matches_is_forwarded_once() {
        let (mut node, mut rt) = node();
        let repo = add_repo(&mut node, 0, &[remote(1), remote(2)]);
        deliver(&mut node, &mut rt, vec![remote(1), repo]);
        assert_eq!(forwarded(&rt), [remote(2), remote(1)]);
    }

    #[test]
    fn seen_set_is_untouched_unless_a_match_merges() {
        let (mut node, mut rt) = node();
        let local = node.add_local(0, Subscription::new(Rect::new(vec![0.0; 2], vec![1.0; 2])));
        let empty = add_repo(&mut node, 0, &[]);
        // Transit only, local delivery only, and a match that finds nothing.
        deliver(&mut node, &mut rt, vec![remote(1), remote(2)]);
        deliver(
            &mut node,
            &mut rt,
            vec![SubTarget::sub(SubId {
                nid: ME,
                iid: local,
            })],
        );
        deliver(&mut node, &mut rt, vec![empty]);
        assert_eq!(rt.sent.len(), 1, "only the transit message is forwarded");
        assert_eq!(rt.world.metrics.deliveries().len(), 1);
        assert_eq!(
            scratch(|s| s.seen.capacity()),
            0,
            "no message merged anything, so none may have hashed a target"
        );
        // A merge fills it, and it is handed back empty.
        let repo = add_repo(&mut node, 1, &[remote(3)]);
        deliver(&mut node, &mut rt, vec![repo]);
        assert!(scratch(|s| s.seen.capacity() > 0 && s.seen.is_empty()));
        assert!(scratch(|s| s.merged.is_empty()));
    }

    /// A node with a second link: keys past 5096 leave through node 2.
    fn two_link_node() -> (HyperSubNode, Recording) {
        let (mut node, rt) = node();
        node.maint
            .chord
            .set_finger(12, Some(Peer { id: 5096, idx: 2 }));
        (node, rt)
    }

    /// A subscription held beyond the second link.
    fn far(iid: u32) -> SubTarget {
        SubTarget::sub(SubId { nid: 9000, iid })
    }

    /// A repository past the index threshold whose matches split across
    /// both links, under an incoming list that names both links too.
    fn split_message(node: &mut HyperSubNode) -> Vec<SubTarget> {
        let matching: Vec<SubTarget> = (0..70)
            .map(|i| if i % 3 == 0 { far(i) } else { remote(i) })
            .collect();
        let repo = add_repo(node, 0, &matching);
        vec![far(100), remote(100), repo]
    }

    #[test]
    fn forwarded_lists_are_allocated_at_their_final_size() {
        let (mut node, mut rt) = two_link_node();
        let incoming = split_message(&mut node);
        deliver(&mut node, &mut rt, incoming);
        let lists: Vec<(usize, usize, usize)> = rt
            .sent
            .iter()
            .map(|(to, m)| match m {
                HyperMsg::Delivery(d) => (*to, d.targets.len(), d.targets.capacity()),
                other => panic!("expected a delivery, got {other:?}"),
            })
            .collect();
        // 46 + 1 targets for node 1, 24 + 1 for node 2, in link order.
        assert_eq!(lists, [(1, 47, 47), (2, 25, 25)]);
    }

    #[test]
    fn scratch_buffers_are_handed_back_empty() {
        let (mut node, mut rt) = two_link_node();
        let incoming = split_message(&mut node);
        deliver(&mut node, &mut rt, incoming);
        scratch(|s| {
            assert!(s.is_empty(), "{s:?}");
            assert!(
                s.seen.capacity() > 0 && s.matches.capacity() > 0 && s.hops.capacity() > 0,
                "kept for the next message"
            );
        });
    }

    /// The buffers belong to the thread, not to a node: a second node
    /// delivering on the same thread reuses what the first one grew, and
    /// leaves them empty too.
    #[test]
    fn nodes_on_one_thread_share_one_scratch() {
        let (mut first, mut rt) = two_link_node();
        let incoming = split_message(&mut first);
        deliver(&mut first, &mut rt, incoming);
        let grown = scratch(|s| (s.seen.capacity(), s.matches.capacity(), s.hops.capacity()));
        let (mut second, mut rt) = node();
        deliver(&mut second, &mut rt, vec![remote(1), remote(2)]);
        assert_eq!(forwarded(&rt), [remote(2), remote(1)]);
        scratch(|s| {
            assert!(s.is_empty(), "{s:?}");
            assert_eq!(
                (s.seen.capacity(), s.matches.capacity(), s.hops.capacity()),
                grown
            );
        });
    }

    /// A dropped network takes the thread's grown buffers with it.
    #[test]
    fn dropping_a_network_frees_the_threads_scratch() {
        let (mut node, mut rt) = two_link_node();
        let incoming = split_message(&mut node);
        deliver(&mut node, &mut rt, incoming);
        assert!(scratch(|s| s.seen.capacity() > 0 && s.hops.capacity() > 0));
        drop(
            crate::sim::Network::builder(2)
                .registry((*test_registry()).clone())
                .build()
                .expect("a two-node network"),
        );
        scratch(|s| {
            assert_eq!(
                (s.seen.capacity(), s.hops.capacity(), s.matches.capacity()),
                (0, 0, 0),
                "{s:?}"
            )
        });
    }

    #[test]
    fn merges_dedupe_against_each_other_and_the_incoming_list() {
        let (mut node, mut rt) = node();
        let first = add_repo(&mut node, 0, &[remote(1), remote(2)]);
        let second = add_repo(&mut node, 1, &[remote(1), remote(3)]);
        deliver(&mut node, &mut rt, vec![remote(3), first, second]);
        let mut got = forwarded(&rt).to_vec();
        got.sort_unstable_by_key(|t| t.iid);
        assert_eq!(got, [remote(1), remote(2), remote(3)]);
    }

    #[test]
    fn split_queue_consumes_in_single_queue_order() {
        let (mut node, mut rt) = node();
        // `outer` matches a repository the message does not name, so a
        // merge happens while merged targets are still waiting.
        let inner_matches = [remote(6), remote(2)];
        let inner = add_repo(&mut node, 2, &inner_matches);
        let outer_matches = [remote(4), inner, remote(5), remote(1)];
        let outer = add_repo(&mut node, 1, &outer_matches);
        let plain_matches = [remote(3), remote(7)];
        let plain = add_repo(&mut node, 0, &plain_matches);
        let incoming = vec![remote(1), plain, remote(2), outer, remote(3)];
        deliver(&mut node, &mut rt, incoming.clone());

        // The one `pop`ped queue this replaced: merged targets pushed, in
        // SubId order, on top of what is left of the incoming list.
        let mut queue = incoming.clone();
        let mut seen: FxHashSet<SubTarget> = incoming.into_iter().collect();
        let mut expected = Vec::new();
        while let Some(t) = queue.pop() {
            let matches: &[SubTarget] = match t {
                t if t == plain => &plain_matches,
                t if t == outer => &outer_matches,
                t if t == inner => &inner_matches,
                _ => {
                    expected.push(t);
                    continue;
                }
            };
            let mut matches = matches.to_vec();
            matches.sort_unstable_by_key(|t| (t.nid, t.iid));
            queue.extend(matches.into_iter().filter(|&m| seen.insert(m)));
        }
        assert_eq!(expected.len(), 7);
        assert_eq!(forwarded(&rt), expected);
    }
}
