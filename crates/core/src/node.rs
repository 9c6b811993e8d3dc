//! The HyperSub node: Chord state plus pub/sub repositories.

use crate::config::SystemConfig;
use crate::model::{Event, Registry, SchemeId, SubId, Subscription};
use crate::msg::HyperMsg;
use crate::repo::{HostedRepo, RepoKey, ZoneRepo};
use crate::sim::PubSubNode;
use crate::world::HyperWorld;
use hypersub_chord::proto::MaintState;
use hypersub_chord::ChordState;
use hypersub_simnet::{Ctx, FxHashMap, FxHashSet, Node, SimTime};
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::{Arc, LazyLock};

/// Pairs a node remembers before the oldest ages out — of `(token,
/// sender)` in [`DedupCache`], of `(event, internal id)` in
/// [`EventDedup`]. A hard bound on a live node's memory; the window
/// below is what forgets in practice.
const DEDUP_CAPACITY: usize = 1 << 17;

/// How long both guards remember: what was first seen more than this
/// long before an insert is forgotten by it. A retransmission follows
/// its original by at most 7.75 s under the default `RetryConfig`
/// (250 ms × (2⁵ − 1)). The oldest duplicates seen rejected came 1.12 s
/// (an event) and 3.75 s (a retransmission) after the first copy; DESIGN.md
/// gives the measurements and the configurations the window does not cover.
pub const DEDUP_WINDOW: SimTime = SimTime::from_secs(60);

/// Drops from the front of `order` every key first seen more than
/// [`DEDUP_WINDOW`] before `now`, handing each to `forget`. Returns
/// whether it dropped any.
fn expire<K: Copy>(
    order: &mut VecDeque<(K, SimTime)>,
    now: SimTime,
    mut forget: impl FnMut(K),
) -> bool {
    let held = order.len();
    while let Some(&(key, first_seen)) = order.front() {
        if now.saturating_sub(first_seen) <= DEDUP_WINDOW {
            break;
        }
        order.pop_front();
        forget(key);
    }
    order.len() < held
}

/// Shrinks a hash table or deque to room for twice what it holds once
/// it is at most a quarter full. A guard's tables grow to what its
/// busiest minute needed and would keep that size for good; this way
/// the removes that emptied three quarters of a table pay for the copy,
/// and the room left lets it grow back as far again before it copies.
macro_rules! give_back {
    ($c:expr) => {
        if $c.len() <= $c.capacity() / 4 {
            $c.shrink_to(2 * $c.len());
        }
    };
}

/// A capacity-bounded first-in-first-out set of `(u64, u32)` pairs: the
/// reliable layer's `(token, sender)` memory (see `retry.rs`). A pair is
/// forgotten [`DEDUP_WINDOW`] after it was first seen, or earlier when
/// the cache is full and it is the oldest.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupCache {
    // Membership-only (never iterated), so the fixed-seed fast hasher is
    // safe; eviction order is carried by the explicit FIFO queue.
    set: FxHashSet<(u64, u32)>,
    /// The pairs in `set` with the time each was first seen, oldest first.
    order: VecDeque<((u64, u32), SimTime)>,
    capacity: usize,
}

impl DedupCache {
    /// Creates a cache remembering up to `capacity` pairs.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            set: FxHashSet::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Inserts the pair, seen at `now`; returns `true` if it was new.
    pub fn insert(&mut self, pair: (u64, u32), now: SimTime) -> bool {
        let set = &mut self.set;
        if expire(&mut self.order, now, |old| {
            set.remove(&old);
        }) {
            give_back!(self.set);
            give_back!(self.order);
        }
        if !self.set.insert(pair) {
            return false;
        }
        self.order.push_back((pair, now));
        if self.order.len() > self.capacity {
            if let Some((old, _)) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }

    /// Number of remembered pairs.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

impl Default for DedupCache {
    fn default() -> Self {
        Self::new(DEDUP_CAPACITY)
    }
}

/// The visit-once guard of Algorithm 5: each `(event, internal id)` pair
/// is processed at most once per node.
///
/// In the paper's literal design an event climbs the zone tree strictly
/// level by level, touching each zone once. Our chain-collapse
/// optimization (see `install.rs`) lets a surrogate chain re-enter a node
/// whose rendezvous walk already matched an ancestor repository, and
/// retransmission or fault-injected duplication can replay a whole
/// message; this guard restores the visit-once invariant.
///
/// Keyed by event, because that is how the pairs arrive: one message
/// names one event and a handful of internal ids, so one probe finds the
/// event's id list and the rest is a scan of a few words.
///
/// An event is forgotten whole, with every id listed under it,
/// [`DEDUP_WINDOW`] after it was first seen: events finish delivery
/// within seconds of simulated time, so what a node holds is the events
/// of the last minute, not of the whole run. Past the pair capacity the
/// oldest pair of the oldest event goes first.
#[derive(Debug, Clone)]
pub struct EventDedup {
    // Lookups only (never iterated), so the fixed-seed fast hasher is
    // safe; age is carried by `order`.
    by_event: FxHashMap<u64, IidList>,
    /// The events in `by_event` with the time each was first seen, oldest
    /// first.
    order: VecDeque<(u64, SimTime)>,
    /// Pairs held over all events.
    pairs: usize,
    capacity: usize,
}

/// One event's internal ids in insertion order. Sixteen bytes, so that a
/// map entry is 24: on the routing workloads nine lists in ten hold one
/// id, and there the entry is the whole cost of the guard.
#[derive(Debug, Clone)]
enum IidList {
    /// Up to [`IidList::INLINE`] ids in place.
    Inline {
        len: u8,
        ids: [u32; IidList::INLINE],
    },
    /// Every id, once there are more. The `Vec` is boxed to keep the
    /// variant at one pointer.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<u32>>),
}

impl IidList {
    const INLINE: usize = 3;

    const EMPTY: IidList = IidList::Inline {
        len: 0,
        ids: [0; IidList::INLINE],
    };

    fn as_slice(&self) -> &[u32] {
        match self {
            IidList::Inline { len, ids } => &ids[..*len as usize],
            IidList::Spilled(ids) => ids,
        }
    }

    /// Appends `iid` unless it is already listed; returns whether it was
    /// new.
    fn insert(&mut self, iid: u32) -> bool {
        if self.as_slice().contains(&iid) {
            return false;
        }
        match self {
            IidList::Inline { len, ids } => match ids.get_mut(*len as usize) {
                Some(slot) => {
                    *slot = iid;
                    *len += 1;
                }
                None => {
                    let mut all = Vec::with_capacity(4 * IidList::INLINE);
                    all.extend_from_slice(ids);
                    all.push(iid);
                    *self = IidList::Spilled(Box::new(all));
                }
            },
            IidList::Spilled(ids) => ids.push(iid),
        }
        true
    }

    /// Drops the oldest id.
    fn pop_front(&mut self) {
        match self {
            IidList::Inline { len, ids } => {
                ids.copy_within(1.., 0);
                *len -= 1;
            }
            IidList::Spilled(ids) => {
                ids.remove(0);
            }
        }
    }
}

impl EventDedup {
    /// Creates a guard remembering up to `capacity` pairs.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            by_event: FxHashMap::default(),
            order: VecDeque::new(),
            pairs: 0,
            capacity,
        }
    }

    /// Records `(event, iid)`, seen at `now`; returns `true` if it was
    /// new. Events first seen more than [`DEDUP_WINDOW`] before `now` are
    /// forgotten first. Over capacity the oldest pair of the oldest event
    /// is forgotten.
    pub fn insert(&mut self, event: u64, iid: u32, now: SimTime) -> bool {
        let (by_event, pairs) = (&mut self.by_event, &mut self.pairs);
        if expire(&mut self.order, now, |old| {
            let list = by_event.remove(&old).expect("listed in order");
            *pairs -= list.as_slice().len();
        }) {
            give_back!(self.by_event);
            give_back!(self.order);
        }
        let list = match self.by_event.entry(event) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.order.push_back((event, now));
                e.insert(IidList::EMPTY)
            }
        };
        if !list.insert(iid) {
            return false;
        }
        self.pairs += 1;
        if self.pairs > self.capacity {
            // `capacity > 0`, so the pair just added is not the one dropped.
            let (oldest, _) = *self.order.front().expect("pairs are held");
            let list = self.by_event.get_mut(&oldest).expect("listed in order");
            list.pop_front();
            if list.as_slice().is_empty() {
                self.by_event.remove(&oldest);
                self.order.pop_front();
            }
            self.pairs -= 1;
        }
        true
    }

    /// Number of remembered pairs.
    pub fn len(&self) -> usize {
        self.pairs
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.pairs == 0
    }

    /// When the oldest remembered event was first seen.
    pub fn oldest(&self) -> Option<SimTime> {
        self.order.front().map(|&(_, first_seen)| first_seen)
    }
}

impl Default for EventDedup {
    fn default() -> Self {
        Self::new(DEDUP_CAPACITY)
    }
}

/// What a node-local internal id refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IidTarget {
    /// A subscription made by this node's application.
    Local,
    /// One of this node's zone repositories.
    Repo(RepoKey),
    /// A repository of subscriptions accepted via migration.
    Hosted,
}
codec!(enum IidTarget as "iid target tag" {
    0 => Local,
    1 => Repo(key),
    2 => Hosted,
});

/// Timer token: load-balancing round (probe + evaluate).
pub const TOKEN_LB: u64 = 1;
/// Timer token: Chord stabilize (churn scenarios only).
pub const TOKEN_STABILIZE: u64 = 2;
/// Timer token: Chord fix-fingers (churn scenarios only).
pub const TOKEN_FIX_FINGERS: u64 = 3;
/// Timer token: soft-state lease tick (self-healing only; see `heal.rs`).
pub const TOKEN_LEASE: u64 = 4;
/// Timer tokens in `[PUBLISH_BASE, RETRY_BASE)` publish scripted event
/// `token - PUBLISH_BASE` — for every node type the driver runs, not only
/// this one (see [`crate::sim::fire_scripted`]).
pub(crate) const TOKEN_PUBLISH_BASE: u64 = 1 << 32;
/// Timer tokens at or above this fire the retransmit check for reliable
/// send `token - RETRY_BASE` (see `retry.rs`).
pub const TOKEN_RETRY_BASE: u64 = 1 << 48;

/// The context a HyperSub handler runs under, from either host.
pub type Cx<'a> = Ctx<'a, HyperMsg, HyperWorld>;

/// The opt-in planes' per-node state: load balancing (§4), the reliable
/// layer and self-healing. While its plane is off a field stays at its
/// default, so a node allocates this on a plane's first write and until
/// then holds one pointer where the fields took 384 B.
#[derive(Debug, Clone, Default)]
pub struct Planes {
    /// Migrated-in repositories, by their internal id.
    pub hosted: FxHashMap<u32, HostedRepo>,
    /// Load-balancer round state.
    pub lb: crate::loadbal::LbState,
    /// Ack/retransmit state for reliable sends (see `retry.rs`).
    pub rel: crate::retry::RelState,
    /// Replicated rendezvous state held on behalf of predecessors, keyed
    /// by origin index (self-healing plane; see `heal.rs`).
    pub replicas: FxHashMap<usize, crate::heal::ReplicaSet>,
}

impl Planes {
    /// Whether this is what a node holds before any plane writes, so
    /// that it need not be held at all.
    fn is_idle(&self) -> bool {
        self.hosted.is_empty()
            && self.replicas.is_empty()
            && self.lb == crate::loadbal::LbState::default()
            && self.rel.is_idle()
    }
}

/// A HyperSub node.
#[derive(Debug, Clone)]
pub struct HyperSubNode {
    /// Chord routing + maintenance state.
    pub maint: MaintState,
    /// Shared scheme definitions.
    pub registry: Arc<Registry>,
    /// Shared system configuration.
    pub cfg: Arc<SystemConfig>,
    /// Zone repositories this node is surrogate for. Looked up by key on
    /// the delivery hot path (one probe per zone-tree level per
    /// rendezvous target), hence the fixed-seed fast hasher; every
    /// iteration site sorts collected keys before acting, so order can
    /// never leak into message traffic.
    pub repos: FxHashMap<RepoKey, ZoneRepo>,
    /// Reverse index: internal id → meaning. Same hot-lookup/sorted-
    /// iteration regime as `repos`.
    pub iids: FxHashMap<u32, IidTarget>,
    /// Subscriptions made by this node's application.
    pub local_subs: FxHashMap<u32, (SchemeId, Subscription)>,
    /// The opt-in planes' state, once one has written any: read it
    /// through [`Self::planes`].
    pub(crate) planes: Option<Box<Planes>>,
    /// Whether Chord maintenance timers self-rearm (churn scenarios).
    pub maintenance: bool,
    /// Visit-once guard for `(event, internal id)` pairs.
    pub dedup: EventDedup,
    /// Reusable Algorithm 5 buffers (see `delivery.rs`).
    pub(crate) scratch: crate::delivery::DeliveryScratch,
    /// Relative capacity of this node (§4: each node's threshold factor
    /// "is based on the node's capacity"). 1.0 = baseline; a node with
    /// capacity 2.0 tolerates twice the average load before migrating.
    pub capacity: f64,
    next_iid: u32,
}

impl HyperSubNode {
    /// Creates a node from pre-built Chord state.
    pub fn new(chord: ChordState, registry: Arc<Registry>, cfg: Arc<SystemConfig>) -> Self {
        Self {
            maint: MaintState::new(chord),
            registry,
            cfg,
            repos: FxHashMap::default(),
            iids: FxHashMap::default(),
            local_subs: FxHashMap::default(),
            planes: None,
            maintenance: false,
            dedup: EventDedup::default(),
            scratch: crate::delivery::DeliveryScratch::default(),
            capacity: 1.0,
            next_iid: 1, // the paper's internal IDs are positive integers
        }
    }

    /// The opt-in planes' state: the defaults while no plane has written
    /// any.
    pub fn planes(&self) -> &Planes {
        static IDLE: LazyLock<Planes> = LazyLock::new(Planes::default);
        self.planes.as_deref().unwrap_or(&IDLE)
    }

    /// The opt-in planes' state for writing, allocated on first use. A
    /// write that can come before any plane has written (a remove or a
    /// clear on a shared path) goes through `self.planes` instead, so
    /// that it allocates nothing.
    pub(crate) fn planes_mut(&mut self) -> &mut Planes {
        self.planes.get_or_insert_default()
    }

    /// Convenience accessor for the Chord routing state.
    pub fn chord(&self) -> &ChordState {
        &self.maint.chord
    }

    /// Starts Chord maintenance, in either host: stabilize and
    /// fix-fingers tick from one period on, each re-arming itself.
    pub fn start_maintenance(&mut self, ctx: &mut Cx<'_>) {
        self.maintenance = true;
        ctx.set_timer(hypersub_chord::proto::STABILIZE_PERIOD, TOKEN_STABILIZE);
        ctx.set_timer(hypersub_chord::proto::FIX_FINGERS_PERIOD, TOKEN_FIX_FINGERS);
    }

    /// Allocates a fresh internal id bound to `target`.
    pub fn alloc_iid(&mut self, target: IidTarget) -> u32 {
        let iid = self.next_iid;
        self.next_iid += 1;
        self.iids.insert(iid, target);
        iid
    }

    /// This node's load: the number of subscriptions it stores (its own
    /// zone repositories' real entries plus migrated-in entries) — the
    /// unit of §4 and Figure 4.
    pub fn load(&self) -> u64 {
        let repo_subs: usize = self.repos.values().map(|r| r.real_count()).sum();
        let hosted = self.planes().hosted.values();
        let hosted_subs: usize = hosted.map(|h| h.entries.len()).sum();
        (repo_subs + hosted_subs) as u64
    }

    /// Matching-index diagnostics summed over this node's zone
    /// repositories — see [`crate::repo::ZoneRepo::index_diag`].
    pub fn index_diag(&self) -> crate::index::IndexDiag {
        let mut d = crate::index::IndexDiag::default();
        for repo in self.repos.values() {
            d.merge(&repo.index_diag());
        }
        d
    }
}

impl Node<HyperMsg, HyperWorld> for HyperSubNode {
    /// Fail-stop recovery: evict the dead peer from routing state, then
    /// re-route traffic that must not be lost (deliveries and
    /// registrations take the next-best hop; probes and maintenance are
    /// periodic and simply retry next round).
    fn on_send_failed(&mut self, ctx: &mut Cx<'_>, dst: usize, msg: HyperMsg) {
        self.maint.note_dead(dst);
        // Fail-stop evidence of a dead peer: re-home any subscriptions we
        // migrated to it (no-op unless self-healing is on).
        self.heal_on_peer_dead(ctx, dst);
        match msg {
            HyperMsg::Reliable { token, inner } => {
                // Fail-stop beats the retransmit timer: resolve the pending
                // send now and recover the payload on the repaired routing
                // state (the timer finds nothing pending and no-ops).
                if let Some(planes) = self.planes.as_deref_mut() {
                    planes.rel.pending.remove(&token);
                }
                self.on_send_failed(ctx, dst, *inner);
            }
            HyperMsg::Delivery(d) => self.handle_delivery(ctx, d),
            HyperMsg::Route { key, inner } => self.handle_route(ctx, key, inner),
            // A later round retries with a live target.
            HyperMsg::Migrate { batches, .. } => {
                if let Some(planes) = self.planes.as_deref_mut() {
                    planes.lb.abort_offer(dst, &batches);
                }
            }
            // Periodic (probes, maintenance) or origin-dead (acks): drop.
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Cx<'_>, from: usize, msg: HyperMsg) {
        match msg {
            HyperMsg::Route { key, inner } => self.handle_route(ctx, key, inner),
            HyperMsg::Delivery(d) => self.handle_delivery(ctx, d),
            HyperMsg::LoadProbe { origin, ttl } => self.handle_load_probe(ctx, origin, ttl),
            HyperMsg::LoadReply { load } => self.handle_load_reply(from, load),
            HyperMsg::Migrate { origin, batches } => self.handle_migrate(ctx, origin, batches),
            HyperMsg::MigrateAck { me, acks } => self.handle_migrate_ack(ctx, from, me, acks),
            HyperMsg::Chord(m) => {
                let out = self.maint.handle(from, m);
                debug_assert!(out.app_lookup.is_none(), "core uses recursive routing");
                for (dst, m) in out.sends {
                    ctx.send(dst, HyperMsg::Chord(m));
                }
                if out.neighborhood_changed {
                    // Ownership handoff: a predecessor change may extend
                    // our responsibility arc over a dead origin's keys.
                    self.heal_check_promotions(ctx);
                }
            }
            HyperMsg::ReplicaUpdate {
                origin,
                full,
                repos,
            } => self.handle_replica(ctx, origin, full, repos),
            HyperMsg::Reliable { token, inner } => self.handle_reliable(ctx, from, token, *inner),
            HyperMsg::Ack { token } => self.handle_ack(ctx, token),
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_>, token: u64) {
        if crate::sim::fire_scripted(self, ctx, token) {
            return;
        }
        if token >= TOKEN_RETRY_BASE {
            self.retry_fire(ctx, token - TOKEN_RETRY_BASE);
            return;
        }
        match token {
            TOKEN_LB => self.lb_tick(ctx),
            TOKEN_LEASE if self.cfg.heal.enabled => self.lease_tick(ctx),
            TOKEN_STABILIZE if self.maintenance => {
                ctx.set_timer(hypersub_chord::proto::STABILIZE_PERIOD, TOKEN_STABILIZE);
                for (dst, m) in self.maint.stabilize_tick() {
                    ctx.send(dst, HyperMsg::Chord(m));
                }
            }
            TOKEN_FIX_FINGERS if self.maintenance => {
                ctx.set_timer(hypersub_chord::proto::FIX_FINGERS_PERIOD, TOKEN_FIX_FINGERS);
                for (dst, m) in self.maint.fix_fingers_tick() {
                    ctx.send(dst, HyperMsg::Chord(m));
                }
            }
            _ => {}
        }
    }
}

impl PubSubNode for HyperSubNode {
    type Msg = HyperMsg;

    fn subscribe(&mut self, ctx: &mut Cx<'_>, scheme: SchemeId, sub: Subscription) -> SubId {
        HyperSubNode::subscribe(self, ctx, scheme, sub)
    }

    fn publish(&mut self, ctx: &mut Cx<'_>, scheme: SchemeId, event: Event) {
        HyperSubNode::publish(self, ctx, scheme, event)
    }

    fn load(&self) -> u64 {
        HyperSubNode::load(self)
    }

    /// Matching-index occupancy over this node's zone repositories:
    /// `entries` held in repositories with a built index, `bytes` of
    /// resident index memory, and `candidates_scanned`, the slots indexed
    /// queries have examined.
    fn report_counters(&self) -> Vec<(&'static str, u64)> {
        let d = self.index_diag();
        vec![
            ("index.entries", d.entries),
            ("index.bytes", d.bytes),
            ("index.candidates_scanned", d.candidates_scanned),
        ]
    }

    fn has_periodic_timers(&self) -> bool {
        self.cfg.lb.enabled || self.maintenance || self.cfg.heal.enabled
    }
}

// Hand-written codec: the decoder validates (capacity, fill, duplicates,
// age order) and derives the membership set.
/// `capacity, n`, then each pair with its first-seen time, oldest first.
impl Encode for DedupCache {
    fn encode(&self, w: &mut Writer) {
        self.capacity.encode(w);
        // FIFO order is the authoritative state; the membership set is
        // derived from it on decode.
        w.put_u64(self.order.len() as u64);
        for entry in &self.order {
            entry.encode(w);
        }
    }
}

/// Reads the `capacity, n` both dedup structures lead with: at least
/// one pair of room, no more entries than room.
fn decode_dedup_header(r: &mut Reader<'_>) -> Result<(usize, usize), Error> {
    let capacity = usize::decode(r)?;
    if capacity == 0 {
        return Err(Error::InvalidValue("dedup cache capacity"));
    }
    let n = usize::decode(r)?;
    if n > capacity {
        return Err(Error::InvalidValue("dedup cache overfull"));
    }
    Ok((capacity, n))
}

/// Reads the first-seen time of the entry that follows `order`'s last:
/// it may not be the earlier of the two.
fn decode_first_seen<K>(
    r: &mut Reader<'_>,
    order: &VecDeque<(K, SimTime)>,
) -> Result<SimTime, Error> {
    let first_seen = SimTime::decode(r)?;
    match order.back() {
        Some(&(_, last)) if first_seen < last => {
            Err(Error::InvalidValue("dedup first-seen times out of order"))
        }
        _ => Ok(first_seen),
    }
}

impl Decode for DedupCache {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (capacity, n) = decode_dedup_header(r)?;
        // Grown entry by entry, so a hostile `n` allocates nothing.
        let mut cache = DedupCache::new(capacity);
        for _ in 0..n {
            let pair = <(u64, u32)>::decode(r)?;
            let first_seen = decode_first_seen(r, &cache.order)?;
            if !cache.set.insert(pair) {
                return Err(Error::InvalidValue("dedup cache duplicate"));
            }
            cache.order.push_back((pair, first_seen));
        }
        Ok(cache)
    }
}

// Hand-written codec: the decoder validates like [`DedupCache`]'s and
// rebuilds the per-event lists.
/// `capacity, n`, then each event, oldest first, as its id, its
/// first-seen time and its internal ids in insertion order.
impl Encode for EventDedup {
    fn encode(&self, w: &mut Writer) {
        self.capacity.encode(w);
        w.put_u64(self.order.len() as u64);
        for &(event, first_seen) in &self.order {
            (event, first_seen).encode(w);
            self.by_event[&event].as_slice().encode(w);
        }
    }
}

impl Decode for EventDedup {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (capacity, n) = decode_dedup_header(r)?;
        let mut dedup = EventDedup::new(capacity);
        for _ in 0..n {
            let event = r.take_u64()?;
            let first_seen = decode_first_seen(r, &dedup.order)?;
            let Entry::Vacant(slot) = dedup.by_event.entry(event) else {
                return Err(Error::InvalidValue("dedup cache duplicate"));
            };
            let ids = usize::decode(r)?;
            if ids == 0 {
                return Err(Error::InvalidValue("dedup event without ids"));
            }
            // Grown id by id, so a hostile count allocates nothing.
            let list = slot.insert(IidList::EMPTY);
            for _ in 0..ids {
                dedup.pairs += 1;
                if dedup.pairs > capacity {
                    return Err(Error::InvalidValue("dedup cache overfull"));
                }
                if !list.insert(r.take_u32()?) {
                    return Err(Error::InvalidValue("dedup cache duplicate"));
                }
            }
            dedup.order.push_back((event, first_seen));
        }
        Ok(dedup)
    }
}

impl HyperSubNode {
    /// Encodes this node's complete protocol state. The shared `registry`
    /// and `cfg` are *not* written here — the network snapshot encodes
    /// them once and hands the shared `Arc`s back in on decode.
    pub fn snapshot_encode(&self, w: &mut Writer) {
        // A node without a planes box writes the defaults it stands for.
        let planes = self.planes();
        self.maint.encode(w);
        self.repos.encode(w);
        self.iids.encode(w);
        self.local_subs.encode(w);
        planes.hosted.encode(w);
        planes.lb.encode(w);
        self.maintenance.encode(w);
        self.dedup.encode(w);
        planes.rel.encode(w);
        planes.replicas.encode(w);
        self.capacity.encode(w);
        w.put_u32(self.next_iid);
        // Delivery scratch buffers are transient per-`step` storage and
        // never survive a quiesce point; a fresh default is equivalent.
    }

    /// Decodes a node encoded by [`Self::snapshot_encode`].
    pub fn snapshot_decode(
        r: &mut Reader<'_>,
        registry: Arc<Registry>,
        cfg: Arc<SystemConfig>,
    ) -> Result<Self, Error> {
        let maint = MaintState::decode(r)?;
        let repos = Decode::decode(r)?;
        let iids = Decode::decode(r)?;
        let local_subs = Decode::decode(r)?;
        let hosted = Decode::decode(r)?;
        let lb = Decode::decode(r)?;
        let maintenance = bool::decode(r)?;
        let dedup = EventDedup::decode(r)?;
        let planes = Planes {
            hosted,
            lb,
            rel: Decode::decode(r)?,
            replicas: Decode::decode(r)?,
        };
        Ok(HyperSubNode {
            maint,
            registry,
            cfg,
            repos,
            iids,
            local_subs,
            planes: (!planes.is_idle()).then(|| Box::new(planes)),
            maintenance,
            dedup,
            scratch: crate::delivery::DeliveryScratch::default(),
            capacity: f64::decode(r)?,
            next_iid: r.take_u32()?,
        })
    }
}

/// Returns `true` if `x` lies in the clockwise half-open interval `[a, b)`.
pub(crate) fn in_closed_open(a: u64, x: u64, b: u64) -> bool {
    if a == b {
        return true; // full ring
    }
    x.wrapping_sub(a) < b.wrapping_sub(a)
}

/// A default value placeholder used by tests in sibling modules.
#[cfg(test)]
pub(crate) fn test_registry() -> Arc<Registry> {
    use crate::model::SchemeDef;
    Arc::new(Registry::new(vec![SchemeDef::builder("test")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iid_allocation_is_dense_and_tracked() {
        let chord = ChordState::new(42, 0, 4);
        let mut n = HyperSubNode::new(chord, test_registry(), Arc::new(SystemConfig::default()));
        let a = n.alloc_iid(IidTarget::Local);
        let b = n.alloc_iid(IidTarget::Hosted);
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(n.iids[&a], IidTarget::Local);
        assert_eq!(n.iids[&b], IidTarget::Hosted);
    }

    #[test]
    fn fresh_node_has_zero_load() {
        let chord = ChordState::new(42, 0, 4);
        let n = HyperSubNode::new(chord, test_registry(), Arc::new(SystemConfig::default()));
        assert_eq!(n.load(), 0);
    }

    #[test]
    fn closed_open_interval() {
        assert!(in_closed_open(10, 10, 20));
        assert!(in_closed_open(10, 19, 20));
        assert!(!in_closed_open(10, 20, 20));
        // Wrap.
        assert!(in_closed_open(u64::MAX - 1, 0, 5));
        assert!(in_closed_open(7, 7, 7), "degenerate = full ring");
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn dedup_cache_fifo_eviction() {
        let mut d = DedupCache::new(2);
        assert!(d.insert((1, 1), T0));
        assert!(!d.insert((1, 1), T0));
        assert!(d.insert((1, 2), T0));
        assert!(d.insert((1, 3), T0)); // evicts (1, 1)
        assert!(d.insert((1, 1), T0), "evicted pair is insertable again");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn dedup_cache_forgets_a_pair_one_microsecond_past_the_window() {
        let mut d = DedupCache::new(8);
        let t1 = SimTime::from_secs(1);
        assert!(d.insert((1, 1), t1));
        assert!(d.insert((2, 1), t1 + SimTime::from_micros(1)));
        assert!(!d.insert((1, 1), t1 + DEDUP_WINDOW), "kept at the window");
        let past = t1 + DEDUP_WINDOW + SimTime::from_micros(1);
        assert!(d.insert((1, 1), past), "forgotten 1 µs later");
        assert!(!d.insert((2, 1), past), "the younger pair is kept");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn event_dedup_forgets_the_oldest_pair_of_the_oldest_event() {
        let mut d = EventDedup::new(3);
        assert!(d.insert(7, 1, T0));
        assert!(d.insert(9, 1, T0));
        assert!(d.insert(7, 2, T0));
        assert!(!d.insert(7, 1, T0) && !d.insert(9, 1, T0) && !d.insert(7, 2, T0));
        // Event 7 was seen first, so its pairs go first, oldest first —
        // although (9, 1) is older than (7, 2).
        assert!(d.insert(9, 2, T0)); // forgets (7, 1)
        assert_eq!(d.len(), 3);
        assert!(!d.insert(7, 2, T0), "event 7's younger pair is still held");
        assert!(d.insert(9, 3, T0)); // forgets (7, 2): event 7 is empty
        assert!(
            !d.by_event.contains_key(&7),
            "an emptied event leaves the map"
        );
        assert_eq!(d.order, [(9, T0)]);
        assert_eq!(d.len(), 3);
        assert!(d.insert(7, 1, T0), "a forgotten pair is insertable again");
        assert_eq!(
            d.order,
            [(9, T0), (7, T0)],
            "and its event is now the youngest"
        );
    }

    #[test]
    fn event_dedup_forgets_a_whole_event_one_microsecond_past_the_window() {
        let mut d = EventDedup::new(4);
        let (t1, t2) = (SimTime::from_secs(1), SimTime::from_secs(31));
        assert!(d.insert(7, 1, t1));
        assert!(d.insert(9, 1, t2));
        // Listed under event 7, so it ages with event 7, not from t2.
        assert!(d.insert(7, 2, t2));
        assert!(!d.insert(7, 1, t1 + DEDUP_WINDOW), "kept at the window");
        assert_eq!((d.len(), d.oldest()), (3, Some(t1)));
        let past = t1 + DEDUP_WINDOW + SimTime::from_micros(1);
        assert!(!d.insert(9, 1, past), "event 9 is younger");
        assert_eq!((d.len(), d.oldest()), (1, Some(t2)), "both of 7's ids went");
        assert!(d.insert(7, 2, past) && d.insert(7, 1, past));
        assert_eq!(d.order, [(9, t2), (7, past)]);
        // The capacity rule still holds inside the window.
        assert!(d.insert(7, 3, past)); // four pairs: at capacity
        assert!(d.insert(7, 4, past)); // forgets (9, 1): event 9 is empty
        assert_eq!((d.len(), d.oldest()), (4, Some(past)));
        assert!(d.insert(9, 1, past), "event 9 was forgotten by the cap");
    }

    /// The four tables of both guards, by capacity.
    fn capacities(d: &EventDedup, c: &DedupCache) -> [usize; 4] {
        [
            d.by_event.capacity(),
            d.order.capacity(),
            c.set.capacity(),
            c.order.capacity(),
        ]
    }

    /// Expiry that leaves a table more than a quarter full keeps its
    /// capacity; expiry that leaves it at most a quarter full gives back
    /// all but room for twice what is left. What is remembered is the
    /// same either way.
    #[test]
    fn both_guards_give_back_capacity_once_a_quarter_full() {
        let mut d = EventDedup::new(1 << 14);
        let mut c = DedupCache::new(1 << 14);
        let mut insert = |keys: std::ops::Range<u64>, at: SimTime| {
            for k in keys {
                assert!(d.insert(k, 1, at) && c.insert((k, 1), at));
            }
            capacities(&d, &c)
        };
        let (t1, t2, t3) = (
            SimTime::from_secs(1),
            SimTime::from_secs(31),
            SimTime::from_secs(61),
        );
        let past = |t: SimTime| t + DEDUP_WINDOW + SimTime::from_micros(1);
        insert(0..1500, t1);
        let high = insert(1500..3000, t2);
        // Events 0..1500 go; 1 501 of some 4 000 slots stay used. (A
        // hash table's `capacity` reads lower after removes, as it does
        // not count the slots they leave marked, so the deques tell.)
        let kept = insert(3000..3001, past(t1));
        assert_eq!(
            [kept[1], kept[3]],
            [high[1], high[3]],
            "over a quarter full"
        );
        insert(3001..3100, t3);
        // Events 1500..3000 go; 101 stay.
        let low = insert(3100..3101, past(t2));
        for (was, now) in high.into_iter().zip(low) {
            assert!(now >= 101 && now < was / 8, "{was} → {now}");
        }
        assert_eq!((d.len(), c.len()), (101, 101));
        for k in [3000, 3050, 3100] {
            assert!(!d.insert(k, 1, past(t2)) && !c.insert((k, 1), past(t2)));
        }
        assert!(d.insert(2999, 1, past(t2)), "a forgotten pair is new again");
        // Everything expired: nothing is held.
        d.insert(9000, 1, past(t3) + DEDUP_WINDOW);
        assert!(d.by_event.capacity() < 8 && d.order.capacity() < 8);
    }

    /// A guard's bytes: capacity 8, then entries 1 and 2, first seen at
    /// `times`, each written by `entry`; and the same bytes re-encoded
    /// by `D` if they decode.
    fn decoded<D: Encode + Decode>(
        times: [u64; 2],
        entry: impl Fn(&mut Writer, u64, SimTime),
    ) -> Result<(Vec<u8>, Vec<u8>), Error> {
        let mut w = Writer::new();
        8usize.encode(&mut w);
        w.put_u64(2);
        for (key, secs) in [1, 2].into_iter().zip(times) {
            entry(&mut w, key, SimTime::from_secs(secs));
        }
        let bytes = w.into_vec();
        let mut again = Writer::new();
        D::decode(&mut Reader::new(&bytes))?.encode(&mut again);
        Ok((bytes, again.into_vec()))
    }

    #[test]
    fn decoders_refuse_first_seen_times_out_of_order() {
        let pair = |w: &mut Writer, token, t| ((token, 3u32), t).encode(w);
        let event = |w: &mut Writer, event, t| {
            (event, t).encode(w);
            [3u32][..].encode(w);
        };
        let out_of_order = Err(Error::InvalidValue("dedup first-seen times out of order"));
        assert_eq!(decoded::<DedupCache>([5, 4], pair), out_of_order);
        assert_eq!(decoded::<EventDedup>([5, 4], event), out_of_order);
        // In order, or at one time, the same entries decode to a guard
        // that writes them back byte for byte.
        for times in [[4, 5], [4, 4]] {
            let (bytes, again) = decoded::<DedupCache>(times, pair).unwrap();
            assert_eq!(again, bytes);
            let (bytes, again) = decoded::<EventDedup>(times, event).unwrap();
            assert_eq!(again, bytes);
        }
    }

    #[test]
    fn event_dedup_entry_stays_three_words() {
        assert!(std::mem::size_of::<(u64, IidList)>() <= 24);
    }

    #[test]
    fn event_dedup_rejects_duplicates_past_the_inline_length() {
        let n = 3 * IidList::INLINE as u32;
        let mut d = EventDedup::new(n as usize);
        for iid in 1..=n {
            assert!(d.insert(5, iid, T0));
        }
        for iid in 1..=n {
            assert!(!d.insert(5, iid, T0), "iid {iid} is already listed");
        }
        assert_eq!(d.len(), n as usize);
        // Forgetting from a spilled list keeps insertion order.
        for iid in n + 1..=n + 4 {
            assert!(d.insert(5, iid, T0));
        }
        assert_eq!(d.len(), n as usize);
        let left = d.by_event[&5].as_slice();
        assert_eq!(left, (5..=n + 4).collect::<Vec<_>>());
    }
}
