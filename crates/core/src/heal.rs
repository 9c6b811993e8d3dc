//! The self-healing subscription plane: successor replication,
//! per-subscriber soft-state leases, and ownership handoff.
//!
//! The paper (§4) defers churn handling to Chord's self-stabilization plus
//! "soft-state refresh by subscribers", without specifying the refresh as
//! a protocol. This module makes it one — fully decentralized, no global
//! view:
//!
//! * **Successor replication** — each rendezvous node replicates its zone
//!   repositories (real entries, surrogate-chain covers, and load-balance
//!   acceptor surrogates alike — everything in `repos`) to its first `r`
//!   successors: a full snapshot per lease tick (replace semantics, which
//!   doubles as anti-entropy reconciliation) plus an incremental update
//!   per fresh registration (bounding the loss window for new state to a
//!   message latency). Replicas are stored passively in
//!   [`Planes::replicas`](crate::node::Planes::replicas), keyed by
//!   origin; receivers never re-replicate on receipt, so replication
//!   cannot loop.
//! * **Promotion (ownership handoff)** — when stabilization moves this
//!   node's predecessor behind a replica origin's key (the origin died and
//!   its arc merged into ours), the replica set is *promoted*: every entry
//!   is registered into this node's own repositories via the ordinary
//!   Algorithm 3 path, which rebuilds summary filters and surrogate chains
//!   and re-replicates onward. Duplicate delivery is impossible even if a
//!   false suspicion promotes state that is still alive elsewhere: the
//!   subscriber-side `(event, iid)` dedup absorbs multi-path matches.
//! * **Soft-state leases** — every node re-pushes its own subscriptions
//!   and re-derives its surrogate chains on a staggered periodic timer
//!   (idempotent through `ZoneRepo::insert` and the reliable layer's seen
//!   cache), so any state the above misses regenerates within one lease
//!   period.
//! * **Re-homing** — subscriptions this node migrated to a host that died
//!   (fail-stop notification or `retry.give_up`) have their acceptor
//!   surrogates scrubbed; the subscribers' own leases then re-install the
//!   real entries here.
//! * **Scrubbing** — each lease tick first drops every repository whose
//!   zone key has left this node's responsibility arc. Soft state cuts
//!   both ways: leases re-install what a node *should* hold, and
//!   scrubbing removes what it should not — without it, every ownership
//!   change strands repositories on the previous owner, which leases
//!   keep re-pushing and replication keeps spreading, compounding total
//!   state under sustained churn (found by the churn-soak scenario;
//!   pinned by `lease_ticks_scrub_repositories_the_ring_took_away`).
//!
//! Everything is gated on `SystemConfig::heal.enabled`: when off, no lease
//! timer is armed, no replica message is sent and every hook below is a
//! no-op, so run digests are bit-identical to builds without this module
//! (asserted by `prop_self_healing_off_never_changes_run_digest`).

use crate::model::SubId;
use crate::msg::{HyperMsg, ReplicaBatch};
use crate::node::{Cx, HyperSubNode, IidTarget, TOKEN_LB, TOKEN_LEASE};
use crate::repo::{RepoKey, StoredSub};
use hypersub_chord::Peer;
use hypersub_simnet::{FxHashMap, ProtoEvent};
use hypersub_snapshot::codec;

/// One origin's replicated rendezvous state, held by a successor.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    /// The rendezvous node this state belongs to.
    pub origin: Peer,
    /// Its repositories' entries, keyed like the origin's own `repos`.
    pub repos: FxHashMap<RepoKey, FxHashMap<SubId, StoredSub>>,
}
codec!(struct ReplicaSet { origin, repos });

impl ReplicaSet {
    /// An empty replica set for `origin`.
    pub fn new(origin: Peer) -> Self {
        Self {
            origin,
            repos: FxHashMap::default(),
        }
    }

    /// Total replicated entries across all repositories.
    pub fn len(&self) -> usize {
        self.repos.values().map(|m| m.len()).sum()
    }

    /// True when no entries are replicated.
    pub fn is_empty(&self) -> bool {
        self.repos.values().all(|m| m.is_empty())
    }
}

impl HyperSubNode {
    /// The first `r` distinct successors (excluding self) that replicas
    /// go to.
    fn replica_targets(&self) -> Vec<Peer> {
        let me = self.maint.chord.idx;
        self.maint
            .chord
            .successors()
            .iter()
            .filter(|p| p.idx != me)
            .take(self.cfg.heal.replication_factor)
            .copied()
            .collect()
    }

    /// Re-enters the network once the host has revived this node. The
    /// simulator discards a dead node's timers, so every enabled periodic
    /// timer is re-armed. With self-healing enabled the node also *rejoins
    /// fresh*: its rendezvous state (repositories, hosted entries,
    /// replicas, volatile LB and retry bookkeeping) went stale while
    /// successors promoted it, so it is dropped for leases and
    /// stabilization to rebuild. Local subscriptions and the Chord
    /// identity survive: the application did not crash away its intent.
    pub(crate) fn rejoin(&mut self, ctx: &mut Cx<'_>) {
        if self.maintenance {
            self.start_maintenance(ctx);
        }
        if self.cfg.lb.enabled {
            ctx.set_timer(self.cfg.lb.period, TOKEN_LB);
        }
        if !self.cfg.heal.enabled {
            return;
        }
        ctx.set_timer(self.cfg.heal.lease_period, TOKEN_LEASE);
        // Liveness observations predate the downtime: stale tombstones
        // would make this node refuse the very gossip that re-knits its
        // neighborhood (see `MaintState::rejoin_reset`).
        self.maint.rejoin_reset();
        self.repos.clear();
        self.iids.retain(|_, t| matches!(t, IidTarget::Local));
        if let Some(planes) = self.planes.as_deref_mut() {
            planes.hosted.clear();
            planes.replicas.clear();
            planes.lb.samples.clear();
            planes.lb.pending.clear();
            planes.lb.in_flight.clear();
            planes.lb.migrated_index.clear();
            planes.rel.pending.clear();
        }
        let me = ctx.me() as u64;
        ctx.trace(|| ProtoEvent {
            kind: "repair.rejoin",
            flow: None,
            a: me,
            b: 0,
        });
    }

    /// One soft-state lease tick: re-arm the timer, re-push local
    /// subscriptions and surrogate chains, snapshot-replicate owned
    /// repositories, and sweep replicas for due promotions (anti-entropy:
    /// an ownership change whose chord signal was missed is caught here at
    /// the latest).
    pub(crate) fn lease_tick(&mut self, ctx: &mut Cx<'_>) {
        ctx.set_timer(self.cfg.heal.lease_period, TOKEN_LEASE);
        let me = ctx.me();
        ctx.world().metrics.proto.lease_refreshes.inc(me);
        let me = me as u64;
        ctx.trace(|| ProtoEvent {
            kind: "repair.lease",
            flow: None,
            a: me,
            b: 0,
        });
        self.scrub_foreign_repos(ctx);
        self.refresh_subscriptions(ctx);
        self.rebuild_chains(ctx);
        self.replicate_snapshot(ctx);
        self.heal_check_promotions(ctx);
    }

    /// Drops every repository whose zone key has left this node's
    /// responsibility arc. A zone repository lives at the zone key's
    /// Chord successor; after the ring shifts (churn, promotion of a
    /// dead origin's replicas — which registers the origin's *whole*
    /// repo union here) this node can hold repositories it no longer
    /// owns. Keeping them is not just waste: `rebuild_chains` keeps
    /// re-pushing them and `replicate_snapshot` keeps copying them to
    /// successors, so under sustained churn every node's state converges
    /// to the union of every repository that ever existed — compounding
    /// each time ownership moves. Soft state means the inverse must
    /// hold: what this node does not own here and now is garbage, and
    /// the real owners' leases re-install live state within one period.
    ///
    /// Skipped while the predecessor is unknown (mid-join view):
    /// `responsible_for` then claims only our own id, and scrubbing on
    /// that view would drop everything we legitimately hold.
    fn scrub_foreign_repos(&mut self, ctx: &mut Cx<'_>) {
        if self.maint.chord.predecessor.is_none() {
            return;
        }
        let zone_params = self.cfg.zone;
        let mut stale: Vec<RepoKey> = self
            .repos
            .keys()
            .copied()
            .filter(|&(scheme, ss, zone)| {
                let rotation = self.registry.scheme(scheme).subschemes[ss as usize].rotation;
                let key = hypersub_lph::rotation::rotate_key(zone.key(&zone_params), rotation);
                !self.maint.chord.responsible_for(key)
            })
            .collect();
        if stale.is_empty() {
            return;
        }
        stale.sort_unstable();
        let mut dropped = 0u64;
        for k in &stale {
            if let Some(repo) = self.repos.remove(k) {
                dropped += repo.entries.len() as u64;
                self.iids.remove(&repo.iid);
            }
        }
        ctx.trace(|| ProtoEvent {
            kind: "repair.scrub",
            flow: None,
            a: stale.len() as u64,
            b: dropped,
        });
    }

    /// Sends a full snapshot of every owned repository to the replica
    /// targets (replace semantics at the receiver).
    fn replicate_snapshot(&mut self, ctx: &mut Cx<'_>) {
        let targets = self.replica_targets();
        if targets.is_empty() || self.repos.is_empty() {
            return;
        }
        // Sorted: replica message contents must be a function of state,
        // not of hash iteration order.
        let mut keys: Vec<RepoKey> = self.repos.keys().copied().collect();
        keys.sort_unstable();
        let batches: Vec<ReplicaBatch> = keys
            .into_iter()
            .filter_map(|key| {
                let repo = &self.repos[&key];
                if repo.entries.is_empty() {
                    return None;
                }
                let mut entries: Vec<(SubId, StoredSub)> = repo
                    .entries
                    .iter()
                    .map(|(&id, s)| (id, s.clone()))
                    .collect();
                entries.sort_unstable_by_key(|&(id, _)| id);
                Some(ReplicaBatch { key, entries })
            })
            .collect();
        if batches.is_empty() {
            return;
        }
        let origin = self.maint.chord.me();
        for t in targets {
            self.send_reliable(
                ctx,
                t.idx,
                HyperMsg::ReplicaUpdate {
                    origin,
                    full: true,
                    repos: batches.clone(),
                },
            );
        }
    }

    /// Incrementally replicates one just-registered entry (merge semantics
    /// at the receiver). No-op when self-healing is off.
    pub(crate) fn replicate_entry(&mut self, ctx: &mut Cx<'_>, key: RepoKey, id: SubId) {
        if !self.cfg.heal.enabled {
            return;
        }
        let Some(sub) = self
            .repos
            .get(&key)
            .and_then(|r| r.entries.get(&id))
            .cloned()
        else {
            return;
        };
        let targets = self.replica_targets();
        if targets.is_empty() {
            return;
        }
        let origin = self.maint.chord.me();
        for t in targets {
            self.send_reliable(
                ctx,
                t.idx,
                HyperMsg::ReplicaUpdate {
                    origin,
                    full: false,
                    repos: vec![ReplicaBatch {
                        key,
                        entries: vec![(id, sub.clone())],
                    }],
                },
            );
        }
    }

    /// Receiver side of [`HyperMsg::ReplicaUpdate`]: store (replace or
    /// merge) the origin's entries, then check whether the origin's keys
    /// already belong to us (it may have died before this message drained).
    pub(crate) fn handle_replica(
        &mut self,
        ctx: &mut Cx<'_>,
        origin: Peer,
        full: bool,
        repos: Vec<ReplicaBatch>,
    ) {
        if !self.cfg.heal.enabled || origin.idx == ctx.me() {
            return;
        }
        let set = self
            .planes_mut()
            .replicas
            .entry(origin.idx)
            .or_insert_with(|| ReplicaSet::new(origin));
        set.origin = origin;
        if full {
            set.repos.clear();
        }
        let mut stored = 0u64;
        for b in repos {
            let m = set.repos.entry(b.key).or_default();
            for (id, s) in b.entries {
                m.insert(id, s);
                stored += 1;
            }
        }
        let me = ctx.me();
        ctx.world().metrics.proto.replica_entries.add(me, stored);
        ctx.trace(|| ProtoEvent {
            kind: "repair.replicate",
            flow: None,
            a: origin.idx as u64,
            b: stored,
        });
        self.heal_check_promotions(ctx);
    }

    /// Ownership handoff: promotes every replica set whose origin's key
    /// now falls inside this node's responsibility arc. While an origin is
    /// alive it owns its own key (`responsible_for(origin.id)` is false at
    /// every other node), so promotion triggers exactly when the origin
    /// died *and* stabilization extended our arc over it — at which point
    /// its entire former arc is ours and all of its entries belong here.
    pub(crate) fn heal_check_promotions(&mut self, ctx: &mut Cx<'_>) {
        if !self.cfg.heal.enabled || self.planes().replicas.is_empty() {
            return;
        }
        // Sorted by origin index: promotion emits registration and
        // replication traffic, whose order must be deterministic.
        let mut due: Vec<usize> = self
            .planes()
            .replicas
            .iter()
            .filter(|(&idx, set)| {
                idx != self.maint.chord.idx && self.maint.chord.responsible_for(set.origin.id)
            })
            .map(|(&idx, _)| idx)
            .collect();
        due.sort_unstable();
        for idx in due {
            let Some(set) = self.planes_mut().replicas.remove(&idx) else {
                continue;
            };
            let mut keys: Vec<RepoKey> = set.repos.keys().copied().collect();
            keys.sort_unstable();
            let mut promoted = 0u64;
            for key in keys {
                let mut entries: Vec<(SubId, StoredSub)> = set.repos[&key]
                    .iter()
                    .map(|(&id, s)| (id, s.clone()))
                    .collect();
                entries.sort_unstable_by_key(|&(id, _)| id);
                for (id, sub) in entries {
                    self.register_entry(ctx, key, id, sub);
                    promoted += 1;
                }
            }
            let me = ctx.me();
            ctx.world().metrics.proto.promotions.inc(me);
            ctx.trace(|| ProtoEvent {
                kind: "repair.promote",
                flow: None,
                a: idx as u64,
                b: promoted,
            });
        }
    }

    /// A peer is dead (fail-stop notification or exhausted retries):
    /// re-home subscriptions this node migrated to it by dropping the
    /// forwarding index entries and scrubbing the acceptor's surrogate
    /// covers, so matching stops producing targets at the dead host. The
    /// subscribers' own leases re-install the real entries here within one
    /// lease period.
    pub(crate) fn heal_on_peer_dead(&mut self, ctx: &mut Cx<'_>, dst: usize) {
        if !self.cfg.heal.enabled {
            return;
        }
        let mut dead_entries: Vec<((RepoKey, SubId), Peer)> = self
            .planes()
            .lb
            .migrated_index
            .iter()
            .filter(|&(_, p)| p.idx == dst)
            .map(|(&k, &p)| (k, p))
            .collect();
        if dead_entries.is_empty() {
            return;
        }
        dead_entries.sort_unstable_by_key(|&(k, _)| k);
        let mut rehomed = 0u64;
        for ((rk, sid), host) in dead_entries {
            self.planes_mut().lb.migrated_index.remove(&(rk, sid));
            if let Some(repo) = self.repos.get_mut(&rk) {
                let stale: Vec<SubId> = repo
                    .entries
                    .iter()
                    .filter(|(s, e)| s.nid == host.id && !e.is_real())
                    .map(|(&s, _)| s)
                    .collect();
                for s in stale {
                    repo.remove(&s);
                }
            }
            rehomed += 1;
        }
        let me = ctx.me();
        ctx.world().metrics.proto.rehomed_subs.add(me, rehomed);
        ctx.trace(|| ProtoEvent {
            kind: "repair.rehome",
            flow: None,
            a: dst as u64,
            b: rehomed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_lph::Rect;

    #[test]
    fn replica_set_counts_entries() {
        let mut set = ReplicaSet::new(Peer { id: 7, idx: 3 });
        assert!(set.is_empty());
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        set.repos
            .entry((0, 0, hypersub_lph::ZoneCode::ROOT))
            .or_default()
            .insert(SubId { nid: 1, iid: 1 }, StoredSub::Surrogate { proj: r });
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
    }
}
