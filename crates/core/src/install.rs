//! Subscription installation — Algorithms 2 and 3.
//!
//! * **Algorithm 2 (`subscribe`)**: the subscriber computes the smallest
//!   content zone covering its subscription with the locality-preserving
//!   hash and routes a `Register` to the zone's surrogate node (the Chord
//!   successor of the rotation-adjusted zone key).
//! * **Algorithm 3 (`register_entry`)**: the surrogate stores the
//!   subscription in the zone's repository, updates the zone's *summary
//!   filter* (smallest hypercuboid covering all registered entries), and
//!   for every *changed* subdivision of the summary registers a
//!   *surrogate subscription* at the corresponding child zone. The
//!   recursion materializes, level by level, the chain that event
//!   delivery later climbs from leaf rendezvous zones back up to stored
//!   subscriptions.

use crate::model::{SchemeId, SubId, SubTarget, SubschemeId, Subscription};
use crate::msg::{HyperMsg, Routed};
use crate::node::{Cx, HyperSubNode, IidTarget};
use crate::repo::{RepoKey, StoredSub, ZoneRepo};
use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_lph::{lph_rect, rotation::rotate_key, ZoneCode};
use hypersub_simnet::ProtoEvent;
use std::sync::Arc;

impl HyperSubNode {
    /// Algorithm 2: install a subscription originating at this node.
    /// Returns the new subscription's id.
    pub fn subscribe(&mut self, ctx: &mut Cx<'_>, scheme_id: SchemeId, sub: Subscription) -> SubId {
        let iid = self.alloc_iid(IidTarget::Local);
        let subid = SubId {
            nid: self.maint.chord.id,
            iid,
        };
        self.local_subs.insert(iid, (scheme_id, sub.clone()));
        self.install(ctx, scheme_id, sub, iid);
        subid
    }

    /// Routes the registration for one local subscription to its zone's
    /// surrogate node (the network half of Algorithm 2). Idempotent: used
    /// both by fresh subscriptions and by soft-state refresh.
    fn install(&mut self, ctx: &mut Cx<'_>, scheme_id: SchemeId, sub: Subscription, iid: u32) {
        let subid = SubId {
            nid: self.maint.chord.id,
            iid,
        };
        let scheme = self.registry.scheme(scheme_id);
        let ss = scheme.choose_subscheme(&sub);
        let ssdef = &scheme.subschemes[ss as usize];
        let proj = scheme.project_rect(ss, &sub.rect);
        let zone = lph_rect(&self.cfg.zone, &ssdef.space, &proj);
        let key = rotate_key(zone.key(&self.cfg.zone), ssdef.rotation);
        self.route_or_local(
            ctx,
            key,
            Routed::Register {
                scheme: scheme_id,
                ss,
                zone,
                subid,
                full: sub.rect,
                proj,
            },
        );
    }

    /// Cancels one of this node's subscriptions: removes the local record
    /// and routes an `Unregister` to the zone surrogate. The zone's
    /// summary filter is left conservative (it may over-cover until the
    /// next refresh), which can cost spurious matching work but never
    /// correctness.
    ///
    /// Returns `false` if `iid` does not name a live local subscription.
    pub fn unsubscribe(&mut self, ctx: &mut Cx<'_>, iid: u32) -> bool {
        let Some((scheme_id, sub)) = self.local_subs.remove(&iid) else {
            return false;
        };
        self.iids.remove(&iid);
        let subid = SubId {
            nid: self.maint.chord.id,
            iid,
        };
        let scheme = self.registry.scheme(scheme_id);
        let ss = scheme.choose_subscheme(&sub);
        let ssdef = &scheme.subschemes[ss as usize];
        let proj = scheme.project_rect(ss, &sub.rect);
        let zone = lph_rect(&self.cfg.zone, &ssdef.space, &proj);
        let key = rotate_key(zone.key(&self.cfg.zone), ssdef.rotation);
        ctx.trace(|| ProtoEvent {
            kind: "sub.unregister",
            flow: None,
            a: subid.nid,
            b: iid as u64,
        });
        self.route_or_local(
            ctx,
            key,
            Routed::Unregister {
                scheme: scheme_id,
                ss,
                zone,
                subid,
            },
        );
        true
    }

    /// Soft-state refresh: re-routes the registration of every local
    /// subscription. After churn this restores subscriptions whose
    /// surrogate nodes failed (the "reinforcement" such systems rely on —
    /// the paper defers churn handling to the underlying DHT plus
    /// re-registration).
    pub fn refresh_subscriptions(&mut self, ctx: &mut Cx<'_>) {
        // Sorted by internal id: the registration messages this emits must
        // not depend on HashMap iteration order, or same-seed runs with
        // refresh would diverge.
        let mut subs: Vec<(u32, SchemeId, Subscription)> = self
            .local_subs
            .iter()
            .map(|(&iid, (scheme, sub))| (iid, *scheme, sub.clone()))
            .collect();
        subs.sort_unstable_by_key(|&(iid, _, _)| iid);
        for (iid, scheme_id, sub) in subs {
            self.install(ctx, scheme_id, sub, iid);
        }
    }

    /// Re-pushes every repository's summary-filter subdivisions,
    /// forgetting the "already pushed" dedup state. Needed after churn:
    /// zone keys that belonged to failed nodes now map to their
    /// successors, and surrogate chains through those zones must be
    /// re-established there.
    pub fn rebuild_chains(&mut self, ctx: &mut Cx<'_>) {
        // Sorted for the same reason as `refresh_subscriptions`: push-down
        // message order must be a function of state, not of hashing.
        let mut keys: Vec<RepoKey> = self.repos.keys().copied().collect();
        keys.sort_unstable();
        for k in &keys {
            if let Some(repo) = self.repos.get_mut(k) {
                repo.pushed.clear();
            }
        }
        for k in keys {
            self.push_down(ctx, k);
        }
    }

    /// Routes `inner` toward the successor of `key`, handling it locally
    /// when this node is already responsible. Boxes it only to forward.
    pub(crate) fn route_or_local(&mut self, ctx: &mut Cx<'_>, key: u64, inner: Routed) {
        match self.route_hop(key) {
            Some(idx) => {
                let inner = Box::new(inner);
                self.send_reliable(ctx, idx, HyperMsg::Route { key, inner })
            }
            None => self.handle_routed(ctx, inner),
        }
    }

    /// Handles an incoming `Route` message: consume or forward greedily,
    /// in the box it arrived in.
    pub(crate) fn handle_route(&mut self, ctx: &mut Cx<'_>, key: u64, inner: Box<Routed>) {
        match self.route_hop(key) {
            Some(idx) => self.send_reliable(ctx, idx, HyperMsg::Route { key, inner }),
            None => self.handle_routed(ctx, *inner),
        }
    }

    /// The neighbor a payload routed to `key` leaves through, or `None`
    /// when this node handles it.
    fn route_hop(&self, key: u64) -> Option<usize> {
        if self.maint.chord.responsible_for(key) {
            return None;
        }
        match next_hop(&self.maint.chord, key) {
            NextHop::Forward(p) => Some(p.idx),
            // `responsible_for` was false, so a Local verdict can only
            // mean a singleton/degenerate ring: handle locally.
            NextHop::Local => None,
        }
    }

    fn handle_routed(&mut self, ctx: &mut Cx<'_>, inner: Routed) {
        match inner {
            Routed::Register {
                scheme,
                ss,
                zone,
                subid,
                full,
                proj,
            } => {
                self.register_entry(
                    ctx,
                    (scheme, ss, zone),
                    subid,
                    StoredSub::Real { full, proj },
                );
            }
            Routed::RegisterSurrogate {
                scheme,
                ss,
                zone,
                owner,
                proj,
            } => {
                self.register_entry(
                    ctx,
                    (scheme, ss, zone),
                    owner,
                    StoredSub::Surrogate { proj },
                );
            }
            Routed::Unregister {
                scheme,
                ss,
                zone,
                subid,
            } => {
                let rk = (scheme, ss, zone);
                if let Some(repo) = self.repos.get_mut(&rk) {
                    repo.remove(&subid);
                }
                let mut acceptor = None;
                if let Some(planes) = self.planes.as_deref_mut() {
                    // A hosted copy on this node (we accepted it in a
                    // migration)?
                    for h in planes.hosted.values_mut() {
                        if h.source == rk {
                            h.entries.remove(&subid);
                        }
                    }
                    acceptor = planes.lb.migrated_index.remove(&(rk, subid));
                }
                // Migrated away from here? Chase it to the acceptor.
                if let Some(acceptor) = acceptor {
                    self.send_reliable(
                        ctx,
                        acceptor.idx,
                        HyperMsg::Route {
                            key: acceptor.id,
                            inner: Box::new(Routed::Unregister {
                                scheme,
                                ss,
                                zone,
                                subid,
                            }),
                        },
                    );
                }
            }
        }
    }

    /// Algorithm 3: store an entry in a zone repository and propagate
    /// changed summary subdivisions to child zones.
    pub(crate) fn register_entry(
        &mut self,
        ctx: &mut Cx<'_>,
        repo_key: RepoKey,
        id: SubId,
        sub: StoredSub,
    ) {
        if !self.repos.contains_key(&repo_key) {
            let iid = self.alloc_iid(IidTarget::Repo(repo_key));
            self.repos.insert(repo_key, ZoneRepo::new(iid));
        }
        let repo = self.repos.get_mut(&repo_key).expect("just inserted");
        let is_new = !repo.entries.contains_key(&id);
        let summary_grew = repo.insert(id, sub);
        let me = ctx.me();
        ctx.world().metrics.proto.sub_registers.inc(me);
        ctx.trace(|| ProtoEvent {
            kind: "sub.register",
            flow: None,
            a: id.nid,
            b: id.iid as u64,
        });
        if summary_grew {
            self.push_down(ctx, repo_key);
        }
        if is_new {
            // Incremental successor replication (no-op unless self-healing
            // is on): bounds the loss window for fresh registrations to
            // one message latency instead of one lease period.
            self.replicate_entry(ctx, repo_key, id);
        }
    }

    /// Pushes the changed subdivisions of `repo_key`'s summary filter down
    /// the zone tree (lines 4–9 of Algorithm 3), with the *chain collapse*
    /// optimization: zones whose surrogate node is this same node are not
    /// materialized (rendezvous matching walks a leaf's local ancestors
    /// instead — see `delivery.rs`), and whole subtrees whose key arcs lie
    /// inside this node's responsibility are pruned outright. Surrogate
    /// subscriptions are therefore only sent across node boundaries, with
    /// the owner pointing directly at this repository. This computes the
    /// same matched sets as the literal per-zone recursion while visiting
    /// `O(β · levels + node crossings)` zones instead of `O(β^levels)`.
    fn push_down(&mut self, ctx: &mut Cx<'_>, repo_key: RepoKey) {
        let (scheme_id, ss, zone) = repo_key;
        let zone_params = self.cfg.zone;
        if zone.level >= zone_params.max_level() {
            return; // leaf zones have no children
        }
        let (summary, my_repo_iid) = {
            let repo = &self.repos[&repo_key];
            let Some(summary) = repo.summary().cloned() else {
                return;
            };
            (summary, repo.iid)
        };
        let owner = SubId {
            nid: self.maint.chord.id,
            iid: my_repo_iid,
        };
        // The registry is shared and immutable: a handle to it lets the
        // loop below borrow the space while it reads `self`.
        let registry = Arc::clone(&self.registry);
        let ssdef = &registry.scheme(scheme_id).subschemes[ss as usize];
        let rotation = ssdef.rotation;
        let space = &ssdef.space;

        // Iterative descent with an explicit stack of (zone, covering
        // rect) pairs; only boundary-straddling local zones recurse.
        let mut to_send: Vec<(ZoneCode, hypersub_lph::Rect)> = Vec::new();
        let mut stack: Vec<(ZoneCode, hypersub_lph::Rect)> = vec![(zone, summary)];
        while let Some((z, sf)) = stack.pop() {
            if z.level >= zone_params.max_level() {
                continue;
            }
            for child in z.children(&zone_params) {
                let ext = child.extent(&zone_params, space);
                let Some(sf_c) = sf.intersect(&ext) else {
                    continue;
                };
                let key = rotate_key(child.key(&zone_params), rotation);
                if !self.maint.chord.responsible_for(key) {
                    // Crossing a node boundary: register remotely if the
                    // subdivision changed since we last pushed it.
                    let repo = &self.repos[&repo_key];
                    if repo.pushed.get(&child) != Some(&sf_c) {
                        to_send.push((child, sf_c));
                    }
                } else if !self.subtree_fully_local(child, rotation) {
                    // Our key, but part of the subtree maps elsewhere:
                    // keep descending (virtually — no local repo).
                    stack.push((child, sf_c));
                }
                // else: entire subtree local — rendezvous ancestor walk
                // covers it, nothing to materialize or send.
            }
        }
        if to_send.is_empty() {
            return;
        }
        let me = ctx.me();
        ctx.world()
            .metrics
            .proto
            .chain_pushes
            .add(me, to_send.len() as u64);
        ctx.trace(|| ProtoEvent {
            kind: "sub.chain_push",
            flow: None,
            a: to_send.len() as u64,
            b: zone.level as u64,
        });
        {
            let repo = self.repos.get_mut(&repo_key).expect("exists");
            for (child, sf) in &to_send {
                repo.pushed.insert(*child, sf.clone());
            }
        }
        for (child, sf) in to_send {
            let key = rotate_key(child.key(&zone_params), rotation);
            self.route_or_local(
                ctx,
                key,
                Routed::RegisterSurrogate {
                    scheme: scheme_id,
                    ss,
                    zone: child,
                    owner,
                    proj: sf,
                },
            );
        }
    }

    /// Does the whole key arc of `zone`'s subtree (all descendant zone
    /// keys, rotation applied) fall inside this node's responsibility arc
    /// `(predecessor, me]`?
    fn subtree_fully_local(&self, zone: ZoneCode, rotation: u64) -> bool {
        let st = &self.maint.chord;
        let Some(pred) = st.predecessor else {
            // Singleton ring owns everything.
            return st.successors().is_empty();
        };
        let params = &self.cfg.zone;
        let lb = zone.level as u32 * params.base_bits as u32;
        // Lowest descendant key: the leftmost leaf's key.
        let lo = (zone.code << (64 - lb)) + ((1u64 << (64 - params.zone_bits as u32)) - 1);
        let hi = zone.key(params);
        let (lo, hi) = (lo.wrapping_add(rotation), hi.wrapping_add(rotation));
        let cd = hypersub_chord::clockwise_distance;
        let a = cd(pred.id, lo);
        let b = cd(pred.id, hi);
        let m = cd(pred.id, st.id);
        a >= 1 && a <= b && b <= m
    }

    /// The rendezvous target a published event starts from, for one
    /// subscheme (Algorithm 4 line 2: `subid_list = {(key(cz), NULL)}`).
    pub(crate) fn rendezvous_target(
        &self,
        scheme_id: SchemeId,
        ss: SubschemeId,
        proj_point: &hypersub_lph::Point,
    ) -> (ZoneCode, SubTarget) {
        let ssdef = &self.registry.scheme(scheme_id).subschemes[ss as usize];
        let leaf = hypersub_lph::lph_point(&self.cfg.zone, &ssdef.space, proj_point);
        let key = rotate_key(leaf.key(&self.cfg.zone), ssdef.rotation);
        (leaf, SubTarget::rendezvous(key))
    }
}
