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
use crate::node::{Cx, HyperSubNode};
use crate::repo::{RepoKey, StoredSub};
use hypersub_chord::routing::{next_hop, NextHop};
use hypersub_lph::zone::narrow_extent;
use hypersub_lph::{lph_rect, rotation::rotate_key, Rect, ZoneCode, ZoneParams};
use hypersub_simnet::ProtoEvent;
use std::cell::Cell;
use std::sync::Arc;

/// Algorithm 3's push-down buffers, one set per thread (as Algorithm 5's
/// are): taken for one descent and handed back empty, capacity retained,
/// so a descent allocates nothing once the thread has walked one as deep.
/// The descent reads only `self`, so nothing re-enters it while it holds
/// them.
#[derive(Debug, Default)]
pub(crate) struct Descent {
    /// Zones still to expand, deepest last.
    zones: Vec<ZoneCode>,
    /// One frame per stacked zone: its covering rect's bounds, then its
    /// extent's, each laid out `[lo…, hi…]`.
    frames: Vec<f64>,
    /// The frame being expanded, then the child frame being built.
    work: Vec<f64>,
}

thread_local! {
    /// This thread's [`Descent`] buffers, while no descent holds them.
    pub(crate) static DESCENT: Cell<Descent> = Cell::default();
}

impl HyperSubNode {
    /// Algorithm 2: install a subscription originating at this node.
    /// Returns the new subscription's id.
    pub fn subscribe(&mut self, ctx: &mut Cx<'_>, scheme_id: SchemeId, sub: Subscription) -> SubId {
        let iid = self.add_local(scheme_id, sub.clone());
        let subid = SubId {
            nid: self.maint.chord.id,
            iid,
        };
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
        let (ss, proj, zone, key) = self.placement(scheme_id, &sub);
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

    /// Where a subscription is stored (Algorithm 2): its subscheme, its
    /// projected rect, the smallest zone covering that, and the zone's key.
    fn placement(
        &self,
        scheme_id: SchemeId,
        sub: &Subscription,
    ) -> (SubschemeId, Rect, ZoneCode, u64) {
        let scheme = self.registry.scheme(scheme_id);
        let ss = scheme.choose_subscheme(sub);
        let ssdef = &scheme.subschemes[ss as usize];
        let proj = scheme.project_rect(ss, &sub.rect);
        let zone = lph_rect(&self.cfg.zone, &ssdef.space, &proj);
        let key = self.zone_key(zone, ssdef.rotation);
        (ss, proj, zone, key)
    }

    /// The Chord key of `zone` in a subscheme rotated by `rotation`.
    pub(crate) fn zone_key(&self, zone: ZoneCode, rotation: u64) -> u64 {
        rotate_key(zone.key(&self.cfg.zone), rotation)
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
        let subid = SubId {
            nid: self.maint.chord.id,
            iid,
        };
        let (ss, _, zone, key) = self.placement(scheme_id, &sub);
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
        // In key order, as `repos` iterates: push-down message order is a
        // function of state.
        for repo in self.repos.values_mut() {
            repo.pushed.clear();
        }
        let keys: Vec<RepoKey> = self.repos.keys().copied().collect();
        for k in keys {
            self.push_down(ctx, k);
        }
    }

    /// Routes `inner` toward the successor of `key`, handling it locally
    /// when this node is already responsible. Boxes it only to forward.
    pub(crate) fn route_or_local(&mut self, ctx: &mut Cx<'_>, key: u64, inner: Routed) {
        match self.route_hop(key) {
            Some(idx) => self.send_reliable(ctx, idx, HyperMsg::route(key, Box::new(inner))),
            None => self.handle_routed(ctx, inner),
        }
    }

    /// Handles an incoming `Route` message: consume or forward greedily,
    /// in the box it arrived in and under the size it was sent with.
    pub(crate) fn handle_route(
        &mut self,
        ctx: &mut Cx<'_>,
        key: u64,
        bytes: u32,
        inner: Box<Routed>,
    ) {
        match self.route_hop(key) {
            Some(idx) => self.send_reliable(ctx, idx, HyperMsg::Route { key, bytes, inner }),
            None => {
                debug_assert_eq!(
                    bytes as usize,
                    inner.body_size(),
                    "a Route states its body's size"
                );
                self.handle_routed(ctx, *inner)
            }
        }
    }

    /// The neighbor a payload routed to `key` leaves through, or `None`
    /// when this node handles it: `next_hop` starts with the
    /// responsibility check, and a singleton ring handles every key.
    fn route_hop(&self, key: u64) -> Option<usize> {
        match next_hop(&self.maint.chord, key) {
            NextHop::Forward(p) => Some(p.idx),
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
                        HyperMsg::route(
                            acceptor.id,
                            Box::new(Routed::Unregister {
                                scheme,
                                ss,
                                zone,
                                subid,
                            }),
                        ),
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
        let repo = self.repo_or_new(repo_key);
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
        // One lookup for the whole descent, which only reads `self`.
        let repo = &self.repos[&repo_key];
        let Some(summary) = repo.summary() else {
            return;
        };
        let owner = SubId {
            nid: self.maint.chord.id,
            iid: repo.iid,
        };
        // The registry is shared and immutable: a handle to it lets the
        // loop below borrow the space while it reads `self`.
        let registry = Arc::clone(&self.registry);
        let ssdef = &registry.scheme(scheme_id).subschemes[ss as usize];
        let rotation = ssdef.rotation;
        let space = &ssdef.space;

        // Iterative descent over (zone, covering rect, zone extent)
        // frames; only boundary-straddling local zones are stacked. The
        // rects live in the thread's flat buffers, so the walk allocates
        // only the rect of a subdivision it sends.
        let d = summary.dims();
        let mut s = DESCENT.take();
        debug_assert!(s.zones.is_empty() && s.frames.is_empty());
        s.work.resize(8 * d, 0.0);
        s.zones.push(zone);
        s.frames.extend_from_slice(summary.lo());
        s.frames.extend_from_slice(summary.hi());
        s.frames.resize(4 * d, 0.0);
        let (lo, hi) = s.frames[2 * d..].split_at_mut(d);
        zone.extent_into(&zone_params, space, lo, hi);
        let mut to_send: Vec<(ZoneCode, Rect)> = Vec::new();
        while let Some(z) = s.zones.pop() {
            // `work` is the popped frame, then its child's:
            // [rect lo, rect hi, extent lo, extent hi] each.
            let top = s.frames.len() - 4 * d;
            let (parent, kid) = s.work.split_at_mut(4 * d);
            parent.copy_from_slice(&s.frames[top..]);
            s.frames.truncate(top);
            if z.level >= zone_params.max_level() {
                continue;
            }
            let (sf, ext) = parent.split_at(2 * d);
            for p in 0..zone_params.base() {
                let child = z.child(&zone_params, p);
                if child_frame(&zone_params, z.level, p, sf, ext, kid) {
                    continue;
                }
                let key = self.zone_key(child, rotation);
                if !self.maint.chord.responsible_for(key) {
                    // Crossing a node boundary: register remotely if the
                    // subdivision changed since we last pushed it.
                    let sf_c = &kid[..2 * d];
                    let pushed = repo.pushed.get(&child);
                    if !pushed.is_some_and(|r| r.lo() == &sf_c[..d] && r.hi() == &sf_c[d..]) {
                        to_send.push((child, Rect::from_bounds(sf_c)));
                    }
                } else if !self.subtree_fully_local(child, rotation) {
                    // Our key, but part of the subtree maps elsewhere:
                    // keep descending (virtually — no local repo).
                    s.zones.push(child);
                    s.frames.extend_from_slice(kid);
                }
                // else: entire subtree local — rendezvous ancestor walk
                // covers it, nothing to materialize or send.
            }
        }
        s.work.clear();
        DESCENT.set(s);
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
            let key = self.zone_key(child, rotation);
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
        let key = self.zone_key(leaf, ssdef.rotation);
        (leaf, SubTarget::rendezvous(key))
    }
}

/// Fills `kid` with the frame of the child by digit `p` of a zone at
/// `level` whose frame is `(sf, ext)`: the extent narrowed by one digit,
/// then the covering rect intersected with it as `Rect::intersect` does.
/// Returns whether they are disjoint (the child gets nothing).
fn child_frame(
    params: &ZoneParams,
    level: u8,
    p: u64,
    sf: &[f64],
    ext: &[f64],
    kid: &mut [f64],
) -> bool {
    let d = sf.len() / 2;
    let (sf_c, ext_c) = kid.split_at_mut(2 * d);
    ext_c.copy_from_slice(ext);
    let (lo, hi) = ext_c.split_at_mut(d);
    narrow_extent(params, level, p, lo, hi);
    let mut disjoint = false;
    for j in 0..d {
        let (l, h) = (sf[j].max(lo[j]), sf[d + j].min(hi[j]));
        (sf_c[j], sf_c[d + j]) = (l, h);
        disjoint |= l > h;
    }
    disjoint
}
