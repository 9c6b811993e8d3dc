//! Load balancing (§4): periodic neighbor load probing and dynamic
//! subscription migration.
//!
//! Each node periodically samples the load on its routing neighbors (and
//! neighbors' neighbors when the probing level exceeds 1). A node N is
//! *heavily loaded* when `L_N > avg · (1 + δ)`. An overloaded node picks
//! up to k lightly loaded neighbors A_1..A_k (in clockwise ring order
//! after N) and migrates stored subscriptions to them, partitioned by the
//! *subscriber's* node id: subscriptions whose subscriber lies in
//! `[ID(A_i), ID(A_{i+1}))` go to A_i, and `[ID(A_k), ID(N))` to A_k —
//! moving each subscription (overlay-)closer to its subscriber, which
//! also shortens the delivery tail. Each acceptor summarizes what it took
//! and registers a surrogate subscription back on N, so events matching
//! at N still reach the migrated subscriptions.

use crate::model::SubId;
use crate::msg::{HyperMsg, MigAck, MigBatch};
use crate::node::{in_closed_open, Cx, HyperSubNode, IidTarget, TOKEN_LB};
use crate::repo::{HostedRepo, RepoKey, StoredSub};
use hypersub_chord::Peer;
use hypersub_lph::Rect;
use hypersub_simnet::ProtoEvent;
use hypersub_snapshot::codec;
use std::collections::{HashMap, HashSet};

/// Where an offered subscription currently lives on this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubOrigin {
    /// In one of this node's own zone repositories.
    OwnRepo,
    /// In a hosted (migrated-in) repository with this internal id —
    /// re-migration cascades load onward, as the paper's mechanism
    /// implies (migrated subscriptions are ordinary stored subscriptions).
    Hosted(u32),
}
codec!(enum SubOrigin as "sub origin tag" {
    0 => OwnRepo,
    1 => Hosted(iid),
});

/// One subscription in an outstanding migration offer.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferItem {
    /// Where it lives locally.
    pub origin: SubOrigin,
    /// Its id.
    pub subid: SubId,
    /// Its full-space rect (needed to build forwarding covers on ack).
    pub full: Rect,
}
codec!(struct OfferItem { origin, subid, full });

/// Per-node load-balancer state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LbState {
    /// Load samples collected this round: responder index → (load, peer).
    pub samples: HashMap<usize, (u64, Peer)>,
    /// Subscriptions offered for migration and not yet acknowledged.
    pub pending: HashSet<(RepoKey, SubId)>,
    /// Outstanding offers: (target idx, source repo) → offered items.
    pub in_flight: HashMap<(usize, RepoKey), Vec<OfferItem>>,
    /// Rounds executed (diagnostics).
    pub rounds: u64,
    /// Total subscriptions migrated away (diagnostics).
    pub migrated_out: u64,
    /// Where each migrated subscription now lives, so unsubscribes can
    /// chase it: `(source repo, subid) → acceptor`.
    pub migrated_index: HashMap<(RepoKey, SubId), Peer>,
}
codec!(struct LbState {
    samples,
    pending,
    in_flight,
    rounds,
    migrated_out,
    migrated_index,
});

impl LbState {
    /// Aborts the offer of `batches` to `dst` (the acceptor died, or never
    /// acknowledged): the entries were not removed yet — removal happens
    /// on `MigrateAck` — so clearing the bookkeeping returns them to the
    /// migratable pool.
    pub(crate) fn abort_offer(&mut self, dst: usize, batches: &[MigBatch]) {
        for b in batches {
            if let Some(items) = self.in_flight.remove(&(dst, b.source)) {
                for item in items {
                    self.pending.remove(&(b.source, item.subid));
                }
            }
        }
    }
}

impl HyperSubNode {
    /// One load-balancing round: evaluate the previous round's samples
    /// (migrating if overloaded), then probe neighbors afresh. Driven by
    /// the `TOKEN_LB` timer; re-arms itself while enabled.
    pub(crate) fn lb_tick(&mut self, ctx: &mut Cx<'_>) {
        if !self.cfg.lb.enabled {
            return;
        }
        ctx.set_timer(self.cfg.lb.period, TOKEN_LB);
        self.planes_mut().lb.rounds += 1;
        self.evaluate_and_migrate(ctx);
        // Fresh probe round.
        self.planes_mut().lb.samples.clear();
        let me = self.maint.chord.me();
        let ttl = self.cfg.lb.probe_level;
        for p in self.maint.chord.close_neighbors() {
            ctx.send(p.idx, HyperMsg::LoadProbe { origin: me, ttl });
        }
    }

    /// Answers a probe; forwards it one level deeper when `ttl > 1`
    /// (probing level P_l > 1 samples neighbors' neighbors).
    pub(crate) fn handle_load_probe(&mut self, ctx: &mut Cx<'_>, origin: Peer, ttl: u8) {
        ctx.send(origin.idx, HyperMsg::LoadReply { load: self.load() });
        if ttl > 1 {
            for p in self.maint.chord.close_neighbors() {
                if p.idx != origin.idx {
                    ctx.send(
                        p.idx,
                        HyperMsg::LoadProbe {
                            origin,
                            ttl: ttl - 1,
                        },
                    );
                }
            }
        }
    }

    /// Records a probe answer.
    pub(crate) fn handle_load_reply(&mut self, from: usize, load: u64) {
        // We need the responder's ring id for clockwise partitioning; all
        // responders are ring members we learned from our routing state,
        // so find the peer among neighbors (linear scan is fine at these
        // fan-outs). Unknown responders (e.g. from deeper probe levels)
        // are stored with their reply only if identifiable.
        if let Some(p) = self
            .maint
            .chord
            .close_neighbors()
            .into_iter()
            .find(|p| p.idx == from)
        {
            self.planes_mut().lb.samples.insert(from, (load, p));
        }
    }

    /// The migration decision (§4): overloaded ⇔ `L_N > avg(1+δ)`.
    fn evaluate_and_migrate(&mut self, ctx: &mut Cx<'_>) {
        let samples = &self.planes().lb.samples;
        if samples.is_empty() {
            return;
        }
        let my_load = self.load();
        let avg = samples.values().map(|&(l, _)| l as f64).sum::<f64>() / samples.len() as f64;
        // §4: the per-node threshold reflects capacity — a beefier node
        // tolerates proportionally more load before shedding. The
        // capacity-scaled absolute floor keeps the relative rule
        // meaningful when all neighbors are (near-)empty.
        let cap = self.capacity.max(1e-9);
        let threshold =
            (avg * (1.0 + self.cfg.lb.delta) * cap).max(self.cfg.lb.min_load as f64 * cap);
        if (my_load as f64) <= threshold {
            return;
        }

        // Lightly loaded candidates, sorted by load then clockwise order.
        // `<=` matters: a uniform-zero neighborhood (the extreme skew
        // case) must still yield migration targets.
        let mut candidates: Vec<(u64, Peer)> = samples
            .values()
            .filter(|&&(l, _)| (l as f64) <= avg)
            .copied()
            .collect();
        if candidates.is_empty() {
            return;
        }
        candidates.sort_by_key(|&(l, p)| (l, p.id));
        candidates.truncate(self.cfg.lb.max_targets);
        // Clockwise order starting after me: A_1, ..., A_k.
        let my_id = self.maint.chord.id;
        let mut targets: Vec<Peer> = candidates.into_iter().map(|(_, p)| p).collect();
        targets.sort_by_key(|p| p.id.wrapping_sub(my_id));

        // Migrate at most the excess above the neighbor average.
        let budget = (my_load as f64 - avg).ceil() as u64;
        self.offer_migration(ctx, &targets, budget);
    }

    /// Partitions stored subscriptions (own repositories *and* hosted
    /// migrated-in repositories) by subscriber arc and offers them to the
    /// chosen targets, up to `budget` subscriptions total and an even
    /// per-target share — without the per-target cap the wrap-around arc
    /// `[A_k, N)` covers most of the ring and everything would dump onto
    /// one neighbor.
    fn offer_migration(&mut self, ctx: &mut Cx<'_>, targets: &[Peer], budget: u64) {
        let my_id = self.maint.chord.id;
        let k = targets.len();
        // Range for target i: [A_i, A_{i+1}), last range [A_k, N).
        let range_of = |i: usize| -> (u64, u64) {
            let lo = targets[i].id;
            let hi = if i + 1 < k { targets[i + 1].id } else { my_id };
            (lo, hi)
        };
        let per_target = (budget / k as u64).max(1);

        // Candidate pool: (source repo key, local origin, subid, full rect),
        // deterministic order.
        let mut pool: Vec<(RepoKey, SubOrigin, SubId, Rect)> = Vec::new();
        let planes = self.planes();
        let mut repo_keys: Vec<RepoKey> = self.repos.keys().copied().collect();
        repo_keys.sort_unstable();
        for rk in repo_keys {
            let repo = &self.repos[&rk];
            let mut ids: Vec<SubId> = repo
                .entries
                .iter()
                .filter(|(id, e)| e.is_real() && !planes.lb.pending.contains(&(rk, **id)))
                .map(|(&id, _)| id)
                .collect();
            ids.sort_unstable();
            for sid in ids {
                let full = match &repo.entries[&sid] {
                    StoredSub::Real { full, .. } => full.clone(),
                    StoredSub::Surrogate { .. } => unreachable!("filtered to real"),
                };
                pool.push((rk, SubOrigin::OwnRepo, sid, full));
            }
        }
        let mut hosted_iids: Vec<u32> = planes.hosted.keys().copied().collect();
        hosted_iids.sort_unstable();
        for hid in hosted_iids {
            let h = &planes.hosted[&hid];
            let mut ids: Vec<SubId> = h
                .entries
                .keys()
                .copied()
                .filter(|id| !planes.lb.pending.contains(&(h.source, *id)))
                .collect();
            ids.sort_unstable();
            for sid in ids {
                pool.push((
                    h.source,
                    SubOrigin::Hosted(hid),
                    sid,
                    h.entries[&sid].clone(),
                ));
            }
        }

        // Assign pool entries to targets by subscriber arc, respecting
        // both the global budget and the per-target cap.
        let mut remaining = budget;
        let mut taken_per_target = vec![0u64; k];
        let mut assignment: Vec<Vec<(RepoKey, SubOrigin, SubId, Rect)>> = vec![Vec::new(); k];
        for (rk, origin, sid, full) in pool {
            if remaining == 0 {
                break;
            }
            for i in 0..k {
                let (lo, hi) = range_of(i);
                if lo == my_id || taken_per_target[i] >= per_target {
                    continue;
                }
                if in_closed_open(lo, sid.nid, hi) {
                    taken_per_target[i] += 1;
                    remaining = remaining.saturating_sub(1);
                    assignment[i].push((rk, origin, sid, full));
                    break;
                }
            }
        }

        let me = self.maint.chord.me();
        let mut offered_any = false;
        for (i, items) in assignment.into_iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            offered_any = true;
            let offered = items.len() as u64;
            ctx.trace(|| ProtoEvent {
                kind: "lb.offer",
                flow: None,
                a: targets[i].idx as u64,
                b: offered,
            });
            // Group into one MigBatch per source repo key.
            let mut by_source: std::collections::BTreeMap<RepoKey, Vec<(SubOrigin, SubId, Rect)>> =
                std::collections::BTreeMap::new();
            for (rk, origin, sid, full) in items {
                by_source.entry(rk).or_default().push((origin, sid, full));
            }
            let mut target_batches = Vec::with_capacity(by_source.len());
            let lb = &mut self.planes_mut().lb;
            for (rk, group) in by_source {
                let mut offer_items = Vec::with_capacity(group.len());
                let mut entries = Vec::with_capacity(group.len());
                for (origin, sid, full) in group {
                    lb.pending.insert((rk, sid));
                    entries.push((sid, full.clone()));
                    offer_items.push(OfferItem {
                        origin,
                        subid: sid,
                        full,
                    });
                }
                lb.in_flight.insert((targets[i].idx, rk), offer_items);
                target_batches.push(MigBatch {
                    source: rk,
                    entries,
                });
            }
            self.send_reliable(
                ctx,
                targets[i].idx,
                HyperMsg::Migrate {
                    origin: me,
                    batches: target_batches,
                },
            );
        }
        if offered_any {
            let at = ctx.me();
            ctx.world().metrics.proto.migration_rounds.inc(at);
        }
    }

    /// Acceptor side: store the migrated subscriptions in hosted repos and
    /// acknowledge with a projected summary per batch.
    pub(crate) fn handle_migrate(
        &mut self,
        ctx: &mut Cx<'_>,
        origin: Peer,
        batches: Vec<MigBatch>,
    ) {
        let mut acks = Vec::with_capacity(batches.len());
        for b in batches {
            if b.entries.is_empty() {
                continue;
            }
            let (scheme_id, ss, _zone) = b.source;
            let scheme = self.registry.scheme(scheme_id);
            // Projected cover of everything accepted.
            let mut summary: Option<Rect> = None;
            for (_, full) in &b.entries {
                let proj = scheme.project_rect(ss, full);
                summary = Some(match summary {
                    None => proj,
                    Some(s) => s.cover(&proj),
                });
            }
            let iid = self.alloc_iid(IidTarget::Hosted);
            let mut hosted = HostedRepo::new(iid, origin.idx, b.source);
            for (sid, full) in b.entries {
                hosted.entries.insert(sid, full);
            }
            self.planes_mut().hosted.insert(iid, hosted);
            acks.push(MigAck {
                source: b.source,
                iid,
                proj_summary: summary.expect("nonempty batch"),
            });
        }
        if !acks.is_empty() {
            let accepted = acks.len() as u64;
            ctx.trace(|| ProtoEvent {
                kind: "lb.migrate_in",
                flow: None,
                a: origin.idx as u64,
                b: accepted,
            });
            let me = self.maint.chord.me();
            self.send_reliable(ctx, origin.idx, HyperMsg::MigrateAck { me, acks });
        }
    }

    /// Origin side: on acknowledgment, replace the migrated entries with
    /// one surrogate subscription pointing at the acceptor.
    pub(crate) fn handle_migrate_ack(
        &mut self,
        ctx: &mut Cx<'_>,
        from: usize,
        acceptor: Peer,
        acks: Vec<MigAck>,
    ) {
        for ack in acks {
            // The field, not `planes_mut`: `repos` is written beside it.
            let planes = self.planes.get_or_insert_default();
            let Some(items) = planes.lb.in_flight.remove(&(from, ack.source)) else {
                continue; // duplicate/stale ack
            };
            let acceptor_subid = SubId {
                nid: acceptor.id,
                iid: ack.iid,
            };
            let mut own_count = 0usize;
            let mut hosted_forward_cover: HashMap<u32, Rect> = HashMap::new();
            for item in &items {
                planes.lb.pending.remove(&(ack.source, item.subid));
                planes
                    .lb
                    .migrated_index
                    .insert((ack.source, item.subid), acceptor);
                match item.origin {
                    SubOrigin::OwnRepo => {
                        if let Some(repo) = self.repos.get_mut(&ack.source) {
                            repo.remove(&item.subid);
                        }
                        own_count += 1;
                    }
                    SubOrigin::Hosted(hid) => {
                        if let Some(h) = planes.hosted.get_mut(&hid) {
                            h.entries.remove(&item.subid);
                        }
                        hosted_forward_cover
                            .entry(hid)
                            .and_modify(|r| *r = r.cover(&item.full))
                            .or_insert_with(|| item.full.clone());
                    }
                }
            }
            planes.lb.migrated_out += items.len() as u64;
            let at = ctx.me();
            ctx.world()
                .metrics
                .proto
                .migrated_subs
                .add(at, items.len() as u64);
            let moved = items.len() as u64;
            ctx.trace(|| ProtoEvent {
                kind: "lb.migrate_ack",
                flow: None,
                a: from as u64,
                b: moved,
            });
            if own_count > 0 {
                // The acceptor's surrogate subscription: covers the
                // migrated entries, points at the hosted repo. Its rect is
                // contained in the repo summary, so no push-down churn
                // follows.
                if let Some(repo) = self.repos.get_mut(&ack.source) {
                    repo.insert(
                        acceptor_subid,
                        StoredSub::Surrogate {
                            proj: ack.proj_summary.clone(),
                        },
                    );
                }
            }
            // Re-migrated hosted entries leave a forwarding cover so
            // events that climb to this node still reach them one hop on.
            for (hid, cover) in hosted_forward_cover {
                if let Some(h) = planes.hosted.get_mut(&hid) {
                    h.forwards.insert(acceptor_subid, cover);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lb_state_default_is_empty() {
        let s = LbState::default();
        assert!(s.samples.is_empty());
        assert!(s.pending.is_empty());
        assert_eq!(s.rounds, 0);
    }
}
