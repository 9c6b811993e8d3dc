//! The simulation driver: build a network of any [`PubSubNode`] type on
//! the shared substrate, install subscriptions, publish events, collect
//! metrics. [`Network`] is the driver with HyperSub's node in it.

use crate::config::SystemConfig;
use crate::error::{HyperSubError, Result};
use crate::heal::LEASE_PERIOD;
use crate::metrics::{DeliveryLog, EventStats, Metrics};
use crate::model::{Event, Registry, SchemeId, SubId, Subscription};
use crate::msg::HyperMsg;
use crate::node::{
    HyperSubNode, DEDUP_WINDOW, TOKEN_LB, TOKEN_LEASE, TOKEN_PUBLISH_BASE, TOKEN_RETRY_BASE,
};
use crate::repo::StoredSub;
use crate::retry::last_copy_leaves;
use crate::world::{HyperWorld, Oracle, Scripted};
use hypersub_chord::builder::{build_ring, RingConfig};
use hypersub_chord::proto::ChordMsg;
use hypersub_chord::{ChordState, Peer};
use hypersub_lph::Point;
use hypersub_simnet::{
    Ctx, FlightRecorder, KingLikeTopology, NetStats, Node, Payload, Sim, SimEvent, SimSnapshot,
    SimTime, Topology, UniformTopology,
};
use hypersub_snapshot::{codec, Decode, Encode, Reader, Writer};
use std::sync::Arc;

/// How to build the latency model.
#[derive(Clone)]
pub enum TopologyKind {
    /// Constant one-way latency (unit tests, microbenches).
    Uniform(SimTime),
    /// Synthetic King-dataset-like Internet latencies with the given mean
    /// RTT (the paper's 1740-node network averages ~180 ms).
    KingLike(SimTime),
}

impl std::fmt::Debug for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyKind::Uniform(t) => write!(f, "Uniform({t})"),
            TopologyKind::KingLike(t) => write!(f, "KingLike(mean_rtt={t})"),
        }
    }
}

/// How to regenerate the topology at restore time (see `DESIGN.md`,
/// "Checkpoint/restore"). Uniform and King-like topologies are pure
/// functions of their parameters, so every network keeps this recipe and
/// the snapshot records it instead of the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoDescriptor {
    /// `UniformTopology::new(nodes, latency)`.
    Uniform { nodes: usize, latency: SimTime },
    /// `KingLikeTopology::generate(nodes, mean_rtt, seed)`.
    KingLike {
        nodes: usize,
        mean_rtt: SimTime,
        seed: u64,
    },
}
codec!(enum TopoDescriptor as "topology descriptor tag" {
    0 => Uniform { nodes, latency },
    1 => KingLike { nodes, mean_rtt, seed },
});

impl TopoDescriptor {
    fn nodes(&self) -> usize {
        match self {
            TopoDescriptor::Uniform { nodes, .. } => *nodes,
            TopoDescriptor::KingLike { nodes, .. } => *nodes,
        }
    }

    fn build(&self) -> Arc<dyn Topology> {
        match self {
            TopoDescriptor::Uniform { nodes, latency } => {
                Arc::new(UniformTopology::new(*nodes, *latency))
            }
            TopoDescriptor::KingLike {
                nodes,
                mean_rtt,
                seed,
            } => Arc::new(KingLikeTopology::generate(*nodes, *mean_rtt, *seed)),
        }
    }
}

/// What the driver asks of a node type. A pub/sub system is one [`Node`]
/// state machine plus these entry points, and [`Net`] runs any of them on
/// the same substrate: HyperSub is [`HyperSubNode`], the rival systems
/// live in `hypersub-baselines`.
pub trait PubSubNode: Node<Self::Msg, HyperWorld> {
    /// The system's message type.
    type Msg: Payload;

    /// Installs a subscription originating at this node and returns its
    /// id, unique across the network. The node keeps no ground truth:
    /// [`Net::subscribe`] records the subscription with the oracle.
    fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, HyperWorld>,
        scheme: SchemeId,
        sub: Subscription,
    ) -> SubId;

    /// Publishes `event` from this node (for HyperSub, Algorithm 4). The
    /// node records nothing: [`publish_counted`] has recorded the
    /// publication before it calls this.
    fn publish(&mut self, ctx: &mut Ctx<'_, Self::Msg, HyperWorld>, scheme: SchemeId, event: Event);

    /// Entries stored on this node — the §5 load metric, in whatever the
    /// system's storage unit is (subscriptions, replicas, group members).
    fn load(&self) -> u64;

    /// This node's share of the system-specific report counters.
    /// [`Net::report`] sums each name over the nodes and keeps the hottest
    /// node's value; every node must return the same names in the same
    /// order.
    fn report_counters(&self) -> Vec<(&'static str, u64)> {
        vec![("load.stored_entries", self.load())]
    }

    /// Whether this node re-arms periodic timers forever, so that the
    /// event queue never drains (see [`Net::run_to_quiescence`]).
    fn has_periodic_timers(&self) -> bool {
        false
    }
}

/// Publishes `event` from `node`: records the publication with
/// `expected`, the driver's count of the subscriptions it matches, then
/// hands it to the node. The one place a publication is recorded:
/// [`Net::publish`], a script entry's timer ([`fire_scripted`]) and a live
/// host, which has no ground truth and passes 0, all come through here.
pub fn publish_counted<N: PubSubNode>(
    node: &mut N,
    ctx: &mut Ctx<'_, N::Msg, HyperWorld>,
    scheme: SchemeId,
    event: Event,
    expected: usize,
) {
    let (me, now) = (ctx.me(), ctx.now());
    ctx.world()
        .metrics
        .record_publish(event.id, now, me, expected);
    node.publish(ctx, scheme, event);
}

/// Publishes the script entry a timer token names, if it names one, and
/// says whether it did. Every node type's `on_timer` asks this first.
pub fn fire_scripted<N: PubSubNode>(
    node: &mut N,
    ctx: &mut Ctx<'_, N::Msg, HyperWorld>,
    token: u64,
) -> bool {
    let Some(idx) = script_index(token) else {
        return false;
    };
    let s = ctx.world().take_scripted(idx);
    publish_counted(node, ctx, s.scheme, s.event, s.expected);
    true
}

/// The script entry a publish timer's token names.
fn script_index(token: u64) -> Option<usize> {
    (TOKEN_PUBLISH_BASE..TOKEN_RETRY_BASE)
        .contains(&token)
        .then(|| (token - TOKEN_PUBLISH_BASE) as usize)
}

/// Fluent constructor for a [`Net`], obtained from [`Network::builder`],
/// so `Network::builder(n).build()?` is the minimal happy path:
///
/// ```
/// use hypersub_core::prelude::*;
///
/// let net = Network::builder(8)
///     .registry(Registry::new(Vec::new()))
///     .latency(SimTime::from_millis(5))
///     .seed(42)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(net.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    nodes: usize,
    registry: Registry,
    config: SystemConfig,
    topology: TopologyKind,
    seed: u64,
    recorder_capacity: Option<usize>,
}

impl NetworkBuilder {
    /// Scheme definitions the network serves.
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    /// System configuration (zone parameters, load balancing, retries).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Master seed (node ids, topology, simulator randomness).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uniform topology with the given constant one-way latency.
    pub fn latency(mut self, one_way: SimTime) -> Self {
        self.topology = TopologyKind::Uniform(one_way);
        self
    }

    /// Synthetic King-dataset-like topology with the given mean RTT.
    pub fn king_like(mut self, mean_rtt: SimTime) -> Self {
        self.topology = TopologyKind::KingLike(mean_rtt);
        self
    }

    /// Explicit topology model.
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Installs a flight recorder capturing the most recent `capacity`
    /// trace events (see `hypersub_simnet::trace`). Off by default;
    /// recording never changes run behavior.
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.recorder_capacity = Some(capacity);
        self
    }

    /// Builds the stabilized HyperSub network: the substrate of
    /// [`Self::build_with`] with one [`HyperSubNode`] per slot.
    /// Load-balancing and lease timers are armed (staggered) when the
    /// config enables them.
    pub fn build(self) -> Result<Network> {
        if self.config.lb.enabled && self.config.lb.period == SimTime::ZERO {
            return Err(HyperSubError::InvalidConfig(
                "load balancing requires a nonzero period",
            ));
        }
        // A copy that leaves after the receiver's guard forgot the first
        // would be handled twice.
        let retry = &self.config.retry;
        if retry.enabled
            && !matches!(last_copy_leaves(retry.max_attempts), Some(t) if t <= DEDUP_WINDOW)
        {
            return Err(HyperSubError::InvalidConfig(
                "retries take 1 to 8 attempts: the last must leave within the visit-once window",
            ));
        }
        let registry = Arc::new(self.registry.clone());
        let cfg = Arc::new(self.config.clone());
        let mut net =
            self.build_with(|st| HyperSubNode::new(st, Arc::clone(&registry), Arc::clone(&cfg)))?;
        // Stagger first ticks across the period so probe and
        // re-push/replication bursts do not synchronize across nodes.
        let mut arm = |period: SimTime, token: u64| {
            let period_us = period.as_micros().max(1);
            for i in 0..net.sim.len() {
                let offset = SimTime::from_micros((i as u64).wrapping_mul(7919) % period_us);
                net.sim.schedule_timer(period + offset, i, token);
            }
        };
        if cfg.lb.enabled {
            arm(cfg.lb.period, TOKEN_LB);
        }
        if cfg.heal.enabled {
            arm(LEASE_PERIOD, TOKEN_LEASE);
        }
        Ok(net)
    }

    /// Builds the substrate every system shares — the topology, the
    /// stabilized Chord ring (with PNS fingers) and the simulator, each
    /// seeded from the master seed here and nowhere else — and puts the
    /// node `make` returns for each slot's Chord state on it. Two
    /// networks built from equal builders therefore differ only in their
    /// node type. The registry and system configuration are HyperSub's
    /// and go unused.
    ///
    /// # Errors
    /// [`HyperSubError::InvalidConfig`] for an empty network or a
    /// zero-capacity recorder.
    pub fn build_with<N: PubSubNode>(self, make: impl FnMut(ChordState) -> N) -> Result<Net<N>> {
        if self.nodes == 0 {
            return Err(HyperSubError::InvalidConfig(
                "network needs at least one node",
            ));
        }
        if self.recorder_capacity == Some(0) {
            return Err(HyperSubError::InvalidConfig(
                "flight recorder capacity must be positive",
            ));
        }
        let topo_desc = match self.topology {
            TopologyKind::Uniform(latency) => TopoDescriptor::Uniform {
                nodes: self.nodes,
                latency,
            },
            TopologyKind::KingLike(mean_rtt) => TopoDescriptor::KingLike {
                nodes: self.nodes,
                mean_rtt,
                seed: self.seed ^ 0x7090,
            },
        };
        let topo = topo_desc.build();
        let nodes: Vec<N> = build_ring(&RingConfig::default(), topo.as_ref(), self.seed)
            .into_iter()
            .map(make)
            .collect();
        let mut sim = Sim::new(topo, nodes, HyperWorld::default(), self.seed ^ 0x51ed);
        if let Some(capacity) = self.recorder_capacity {
            sim.enable_recording(capacity);
        }
        Ok(Net {
            sim,
            oracle: Oracle::default(),
            fired: 0,
            next_event_id: 1,
            scheduled_events: 0,
            topo_desc,
        })
    }
}

/// A running network of `N` nodes: the one simulation driver. HyperSub
/// ([`Network`]) and every rival system run through this type, so they
/// share the substrate, the publish script, the oracle and the report.
///
/// The oracle is the driver's, not the nodes': [`Net::subscribe`] and
/// [`Network::unsubscribe`] are its only writers, and each publication is
/// recorded with its match count ([`publish_counted`]). A scheduled one
/// is counted when it is scheduled, and every later subscribe or
/// unsubscribe corrects the count of each entry still waiting in the
/// script, so it is the count as of the moment the event fires.
pub struct Net<N: PubSubNode> {
    pub(crate) sim: Sim<N, N::Msg, HyperWorld>,
    /// Ground truth: every live subscription.
    oracle: Oracle,
    /// Every script entry before this index has fired: the prefix a
    /// recount skips.
    fired: usize,
    next_event_id: u64,
    scheduled_events: u64,
    /// Recipe for regenerating the topology at restore time.
    topo_desc: TopoDescriptor,
}

/// A running HyperSub network.
pub type Network = Net<HyperSubNode>;

/// The network's messages grew the thread's scratch buffers; its end
/// gives them back (`delivery::release_thread_scratch`).
impl<N: PubSubNode> Drop for Net<N> {
    fn drop(&mut self) {
        crate::delivery::release_thread_scratch();
    }
}

impl<N: PubSubNode> Net<N> {
    /// Installs a subscription from `node` (for HyperSub, Algorithm 2
    /// starts here). Run the network afterwards to let registration
    /// traffic settle.
    pub fn subscribe(&mut self, node: usize, scheme: SchemeId, sub: Subscription) -> SubId {
        let subid = self
            .sim
            .with_node_ctx(node, |n, ctx| n.subscribe(ctx, scheme, sub.clone()));
        self.oracle.add(scheme, subid, sub);
        self.recount_pending(subid, 1);
        subid
    }

    /// Adds `delta` to the count of every waiting script entry that
    /// `subid`, live in the oracle, matches.
    fn recount_pending(&mut self, subid: SubId, delta: isize) {
        let script = &mut self.sim.world_mut().script;
        while script.get(self.fired).is_some_and(Option::is_none) {
            self.fired += 1;
        }
        for s in script[self.fired..].iter_mut().flatten() {
            if self.oracle.covers(subid, s.scheme, &s.event.point) {
                s.expected = s
                    .expected
                    .checked_add_signed(delta)
                    .expect("a waiting event's count stays the oracle's");
            }
        }
    }

    /// Schedules an event publication at absolute simulated time `at`.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn schedule_publish(
        &mut self,
        at: SimTime,
        node: usize,
        scheme: SchemeId,
        point: Point,
    ) -> Result<u64> {
        self.check_node(node)?;
        let id = self.alloc_event_id();
        let expected = self.oracle.expected_count(scheme, &point);
        let idx = self.sim.world().script.len();
        self.sim.world_mut().script.push(Some(Scripted {
            scheme,
            event: Event { id, point },
            expected,
        }));
        self.sim
            .schedule_timer(at, node, TOKEN_PUBLISH_BASE + idx as u64);
        self.scheduled_events += 1;
        Ok(id)
    }

    /// Publishes an event from `node` right now. Returns the event id.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn publish(&mut self, node: usize, scheme: SchemeId, point: Point) -> Result<u64> {
        self.check_node(node)?;
        let id = self.alloc_event_id();
        let expected = self.oracle.expected_count(scheme, &point);
        self.sim.with_node_ctx(node, |n, ctx| {
            publish_counted(n, ctx, scheme, Event { id, point }, expected)
        });
        Ok(id)
    }

    fn check_node(&self, node: usize) -> Result<()> {
        let nodes = self.sim.len();
        if node >= nodes {
            return Err(HyperSubError::NodeOutOfRange { node, nodes });
        }
        Ok(())
    }

    fn alloc_event_id(&mut self) -> u64 {
        let id = self.next_event_id;
        self.next_event_id += 1;
        id
    }

    /// Installs a fault plane on the underlying simulator (loss,
    /// duplication, delay, partitions — see `hypersub_simnet::FaultPlane`).
    pub fn install_fault_plane(&mut self, plane: hypersub_simnet::FaultPlane) {
        self.sim.install_fault_plane(plane);
    }

    /// Runs until the event queue drains (messages and scripted timers
    /// all processed).
    ///
    /// # Panics
    /// Panics when load balancing, Chord maintenance, or self-healing is
    /// enabled — their periodic timers re-arm forever, so the queue never
    /// drains; drive such networks with [`Net::run_until`] instead.
    pub fn run_to_quiescence(&mut self) {
        assert!(
            !self.sim.node(0).has_periodic_timers(),
            "run_to_quiescence would never return with periodic timers \
             (LB/maintenance/leases) armed; use run_until"
        );
        self.sim.run(u64::MAX / 2);
    }

    /// Runs until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Current simulated time.
    pub fn time(&self) -> SimTime {
        self.sim.time()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// True for an empty network (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Per-event statistics (Figure 2's dataset).
    pub fn event_stats(&self) -> Vec<EventStats> {
        let total = self.oracle.len();
        self.sim.world().metrics.event_stats(total, self.sim.net())
    }

    /// Per-node load (stored subscriptions) — Figure 4's dataset.
    pub fn node_loads(&self) -> Vec<u64> {
        self.sim.nodes().iter().map(|n| n.load()).collect()
    }

    /// Network counters (Figure 3's dataset).
    pub fn net(&self) -> &NetStats {
        self.sim.net()
    }

    /// Ground-truth match set for a hypothetical event (testing).
    pub fn expected_matches(&self, scheme: SchemeId, point: &Point) -> Vec<SubId> {
        self.oracle.expected_matches(scheme, point)
    }

    /// Immutable access to a node.
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index.
    pub fn node(&self, i: usize) -> Result<&N> {
        self.check_node(i)?;
        Ok(self.sim.node(i))
    }

    /// All nodes, indexed by simulator slot.
    pub fn nodes(&self) -> &[N] {
        self.sim.nodes()
    }

    /// The metric sink (publishes, deliveries, protocol counters).
    pub fn metrics(&self) -> &Metrics {
        &self.sim.world().metrics
    }

    /// Raw per-subscriber delivery records, in delivery order — the trace
    /// the run digest is computed over.
    pub fn deliveries(&self) -> &DeliveryLog {
        self.sim.world().metrics.deliveries()
    }

    /// The run digest over the delivery trace and network counters (see
    /// [`crate::digest`]).
    pub fn run_digest(&self) -> u64 {
        crate::digest::run_digest(self.deliveries(), self.sim.net())
    }

    /// Simulator events processed so far.
    pub fn steps(&self) -> u64 {
        self.sim.steps()
    }

    /// The latency model.
    pub fn topology(&self) -> &Arc<dyn Topology> {
        self.sim.topology()
    }

    /// Installs a flight recorder mid-run (capturing the most recent
    /// `capacity` events from here on). Usually set up front via
    /// [`NetworkBuilder::flight_recorder`].
    pub fn enable_recording(&mut self, capacity: usize) {
        self.sim.enable_recording(capacity);
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.sim.recorder()
    }

    /// Removes the flight recorder, returning the captured trace.
    pub fn disable_recording(&mut self) -> Option<FlightRecorder> {
        self.sim.disable_recording()
    }
}

/// The HyperSub-only operations: everything that needs the paper's
/// protocol state rather than the shared driver surface.
impl Net<HyperSubNode> {
    /// Starts building an `nodes`-node network; see [`NetworkBuilder`]
    /// for the knobs. Defaults: empty registry, default
    /// [`SystemConfig`], uniform 10 ms links, seed 0, no flight recorder.
    /// The ring is always built with [`RingConfig::default`].
    pub fn builder(nodes: usize) -> NetworkBuilder {
        NetworkBuilder {
            nodes,
            registry: Registry::new(Vec::new()),
            config: SystemConfig::default(),
            topology: TopologyKind::Uniform(SimTime::from_millis(10)),
            seed: 0,
            recorder_capacity: None,
        }
    }

    /// Cancels a subscription previously returned by [`Network::subscribe`].
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index,
    /// [`HyperSubError::DeadNode`] when `node` is failed,
    /// [`HyperSubError::ForeignSubscription`] when `subid` belongs to a
    /// different node, and [`HyperSubError::UnknownSubscription`] when it
    /// is not (or no longer) a live local subscription.
    pub fn unsubscribe(&mut self, node: usize, subid: SubId) -> Result<()> {
        self.check_node(node)?;
        if !self.sim.is_alive(node) {
            return Err(HyperSubError::DeadNode { node });
        }
        if self.sim.node(node).chord().id != subid.nid {
            return Err(HyperSubError::ForeignSubscription { node, sub: subid });
        }
        let live = self
            .sim
            .with_node_ctx(node, |n, ctx| n.unsubscribe(ctx, subid.iid));
        if !live {
            return Err(HyperSubError::UnknownSubscription { sub: subid });
        }
        self.recount_pending(subid, -1);
        self.oracle.remove(subid);
        Ok(())
    }

    /// Enables Chord maintenance (stabilize/fix-fingers) on every node —
    /// needed for churn scenarios.
    pub fn enable_maintenance(&mut self) {
        for i in 0..self.sim.len() {
            self.sim.with_node_ctx(i, |n, ctx| n.start_maintenance(ctx));
        }
    }

    /// Fails a node (messages to it are dropped).
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index,
    /// [`HyperSubError::DeadNode`] when the node is already failed.
    pub fn fail(&mut self, node: usize) -> Result<()> {
        self.check_node(node)?;
        if !self.sim.is_alive(node) {
            return Err(HyperSubError::DeadNode { node });
        }
        self.sim.fail(node);
        Ok(())
    }

    /// Revives a failed node, which then rejoins (`HyperSubNode::rejoin`:
    /// periodic timers re-armed, stale state dropped under self-healing).
    ///
    /// # Errors
    /// [`HyperSubError::NodeOutOfRange`] for a bad index,
    /// [`HyperSubError::AliveNode`] when the node is not failed.
    pub fn revive(&mut self, node: usize) -> Result<()> {
        self.check_node(node)?;
        if self.sim.is_alive(node) {
            return Err(HyperSubError::AliveNode { node });
        }
        self.sim.revive(node);
        self.sim.with_node_ctx(node, |n, ctx| n.rejoin(ctx));
        Ok(())
    }

    /// Serializes the complete network state — every node's protocol
    /// state, the metrics, the oracle, the publish script, and the engine
    /// (event queue, per-node liveness, RNG streams, fault plane, flight
    /// recorder) — into a self-checking versioned byte envelope.
    ///
    /// The snapshot is taken at a *quiesce point*: call it between
    /// [`Network::run_until`] / [`Network::run_to_quiescence`] calls, not
    /// from inside a node callback. Restoring with [`Network::restore`]
    /// in a fresh process and running to the same end time produces
    /// bit-identical deliveries, network counters, digests and reports.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.topo_desc.encode(&mut w);
        // The registry and config are shared by every node: encode them
        // once and re-share the `Arc`s on restore.
        self.sim.node(0).registry.encode(&mut w);
        self.sim.node(0).cfg.encode(&mut w);
        w.put_u64(self.sim.len() as u64);
        for node in self.sim.nodes() {
            node.snapshot_encode(&mut w);
        }
        // A script entry's count is not written: it equals the oracle's
        // while the entry waits, and `restore` recounts it.
        let world = self.sim.world();
        world.metrics.encode(&mut w);
        self.oracle.encode(&mut w);
        world.script.encode(&mut w);
        self.sim.export_state().encode(&mut w);
        w.put_u64(self.next_event_id);
        w.put_u64(self.scheduled_events);
        hypersub_snapshot::seal(w.into_vec())
    }

    /// Reconstructs a network from bytes produced by
    /// [`Network::snapshot`].
    ///
    /// # Errors
    /// [`HyperSubError::Snapshot`] when the bytes are corrupt, truncated,
    /// from a different format version, or internally inconsistent.
    pub fn restore(bytes: &[u8]) -> Result<Network> {
        let payload = hypersub_snapshot::unseal(bytes)?;
        let mut r = Reader::new(payload);
        let desc = TopoDescriptor::decode(&mut r)?;
        let registry = Arc::new(Registry::decode(&mut r)?);
        let cfg = Arc::new(SystemConfig::decode(&mut r)?);
        let n = r.take_u64()? as usize;
        if n != desc.nodes() || n == 0 {
            return Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::InvalidValue("snapshot node count"),
            ));
        }
        let mut nodes = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            nodes.push(HyperSubNode::snapshot_decode(
                &mut r,
                Arc::clone(&registry),
                Arc::clone(&cfg),
            )?);
        }
        for node in &nodes {
            check_peers(node, n)?;
        }
        let metrics = Metrics::decode(&mut r)?;
        let mut oracle = Oracle::decode(&mut r)?;
        let mut script = Vec::<Option<Scripted>>::decode(&mut r)?;
        for s in script.iter_mut().flatten() {
            s.expected = oracle.expected_count(s.scheme, &s.event.point);
        }
        let snap = SimSnapshot::<HyperMsg>::decode(&mut r)?;
        if snap.alive.len() != n {
            return Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::InvalidValue("snapshot liveness length"),
            ));
        }
        check_queue(&snap.queue_entries, snap.queue_next_seq, n, &script)?;
        let next_event_id = r.take_u64()?;
        let scheduled_events = r.take_u64()?;
        r.finish().map_err(HyperSubError::Snapshot)?;
        share_rects(&mut nodes, &oracle);
        let world = HyperWorld { metrics, script };
        let sim = Sim::from_snapshot(desc.build(), nodes, world, snap);
        Ok(Network {
            sim,
            oracle,
            fired: 0,
            next_event_id,
            scheduled_events,
            topo_desc: desc,
        })
    }
}

/// Points each subscription's roles at one rect block again, as
/// installing it did: `Decode` builds one block per rect. The subscriber's
/// `local_subs` record and each stored `StoredSub::Real`'s `full` and
/// `proj` take the oracle's block, each only where the bits are the
/// same, so no value, byte or digest moves.
fn share_rects(nodes: &mut [HyperSubNode], oracle: &Oracle) {
    for node in nodes {
        let nid = node.chord().id;
        for (&iid, (_, sub)) in &mut node.local_subs {
            oracle.share_into(SubId { nid, iid }, &mut sub.rect);
        }
        for repo in node.repos.values_mut() {
            for (&id, stored) in repo.entries.iter_mut() {
                if let StoredSub::Real { full, proj } = stored {
                    oracle.share_into(id, full);
                    oracle.share_into(id, proj);
                }
            }
        }
    }
}

/// Refuses a restored node whose state names a node past the network's
/// `nodes`: the first send to it would panic. Its routing state names
/// itself, its predecessor, its successors and fingers, the peers
/// awaiting a probe reply and its bootstrap contact; its plane state
/// names each pending reliable send's destination and the peers in its
/// message (sent again on a retransmit), each replica set's
/// origin (as its key and as its peer), each load sample's responder
/// and peer, each outstanding offer's target, each migrated
/// subscription's acceptor and each hosted repository's origin.
fn check_peers(node: &HyperSubNode, nodes: usize) -> Result<()> {
    let chord = node.chord();
    let routing = std::iter::once(chord.me())
        .chain(chord.predecessor)
        .chain(chord.successors().iter().copied())
        .chain(chord.fingers().into_iter().flatten())
        .map(|p| p.idx)
        .chain(node.maint.contacts());
    none_past(
        routing,
        nodes,
        "routing state names a node past the network",
    )?;
    let planes = node.planes();
    let lb = &planes.lb;
    let plane = planes
        .rel
        .pending
        .values()
        .flat_map(|p| {
            let named = payload_peers(&p.msg).into_iter().map(|peer| peer.idx);
            named.chain([p.dst])
        })
        .chain(
            planes
                .replicas
                .iter()
                .flat_map(|(&k, set)| [k, set.origin.idx]),
        )
        .chain(lb.samples.iter().flat_map(|(&k, (_, peer))| [k, peer.idx]))
        .chain(lb.in_flight.keys().map(|&(target, _)| target))
        .chain(lb.migrated_index.values().map(|acceptor| acceptor.idx))
        .chain(planes.hosted.values().map(|h| h.origin));
    none_past(plane, nodes, "plane state names a node past the network")
}

/// The peers a message names in its payload, which its receiver may
/// send to: a probe's, migration's or replica update's origin, an
/// acknowledging acceptor, and every peer a Chord message carries — and
/// a delivery's sender, which nothing reads but the bytes still carry.
fn payload_peers(msg: &HyperMsg) -> Vec<Peer> {
    match msg {
        HyperMsg::Delivery(d) => d.sender.into_iter().collect(),
        HyperMsg::LoadProbe { origin, .. }
        | HyperMsg::Migrate { origin, .. }
        | HyperMsg::ReplicaUpdate { origin, .. } => vec![*origin],
        HyperMsg::MigrateAck { me, .. } => vec![*me],
        HyperMsg::Chord(m) => match m {
            ChordMsg::FindSuccessor { origin: p, .. }
            | ChordMsg::FoundSuccessor { owner: p, .. }
            | ChordMsg::Notify { peer: p } => vec![*p],
            ChordMsg::NeighborsReply { pred, succs } => pred.iter().chain(succs).copied().collect(),
            ChordMsg::GetNeighbors => Vec::new(),
        },
        HyperMsg::Reliable { inner, .. } => payload_peers(inner),
        HyperMsg::Route { .. } | HyperMsg::LoadReply { .. } | HyperMsg::Ack { .. } => Vec::new(),
    }
}

/// Refuses, as `what`, a list of node indices that names one past the
/// network's `nodes`.
fn none_past(
    mut named: impl Iterator<Item = usize>,
    nodes: usize,
    what: &'static str,
) -> Result<()> {
    if named.any(|idx| idx >= nodes) {
        return Err(HyperSubError::Snapshot(
            hypersub_snapshot::Error::InvalidValue(what),
        ));
    }
    Ok(())
}

/// Refuses a restored queue that running it would panic on: an event
/// numbered at or past the queue's `next_seq`, an event or a message's
/// payload naming a node past the network's `nodes`, or a publish timer
/// naming a script entry that is not waiting or that another timer
/// names too.
fn check_queue(
    queue: &[(SimTime, u64, SimEvent<HyperMsg>)],
    next_seq: u64,
    nodes: usize,
    script: &[Option<Scripted>],
) -> Result<()> {
    let invalid = |what| {
        Err(HyperSubError::Snapshot(
            hypersub_snapshot::Error::InvalidValue(what),
        ))
    };
    let mut named = vec![false; script.len()];
    for (_, seq, event) in queue {
        if *seq >= next_seq {
            return invalid("queued event numbered past the queue's next");
        }
        let (a, b) = match *event {
            SimEvent::Deliver { src, dst, ref msg }
            | SimEvent::SendFailed {
                origin: src,
                dst,
                ref msg,
            } => {
                let peers = payload_peers(msg).into_iter().map(|p| p.idx);
                none_past(peers, nodes, "queued message names a node past the network")?;
                (src, dst)
            }
            SimEvent::Timer { node, token } => {
                if let Some(idx) = script_index(token) {
                    match named.get_mut(idx) {
                        Some(seen) if !*seen && script[idx].is_some() => *seen = true,
                        _ => return invalid("publish timer names no waiting script entry"),
                    }
                }
                (node, node)
            }
        };
        if a.max(b) >= nodes {
            return invalid("queued event names a node past the network");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SchemeDef;
    use crate::node::IidTarget;
    use crate::table::SortedTable;
    use hypersub_lph::Rect;
    use hypersub_simnet::FxHashMap;

    fn registry() -> Registry {
        Registry::new(vec![SchemeDef::builder("t")
            .attribute("x", 0.0, 100.0)
            .attribute("y", 0.0, 100.0)
            .build(0)])
    }

    fn small_net(nodes: usize, seed: u64) -> Network {
        Network::builder(nodes)
            .registry(registry())
            .seed(seed)
            .build()
            .expect("valid test network")
    }

    #[test]
    fn subscribe_then_publish_delivers() {
        let mut net = small_net(8, 1);
        let sub = Subscription::new(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0]));
        let subid = net.subscribe(3, 0, sub);
        net.run_to_quiescence();
        let ev = net.publish(5, 0, Point(vec![15.0, 15.0])).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].event, ev);
        assert_eq!(stats[0].expected, 1);
        assert_eq!(stats[0].delivered, 1, "subscriber must receive the event");
        assert_eq!(stats[0].duplicates, 0);
        let _ = subid;
    }

    /// On a single-subscheme network a subscription's rect is one heap
    /// block from the caller to the repository: the caller's copy, the
    /// subscriber's `local_subs` record, the oracle's slot and the stored
    /// entry's `full` and `proj` share it, and each chain link's
    /// surrogate entry shares the block its parent recorded in `pushed`.
    /// A restored network shares each subscription's block again (the
    /// caller's copy aside); its chain links hold one copy each.
    #[test]
    fn an_installed_subscription_is_one_shared_block() {
        let mut net = small_net(16, 1);
        let mut subs = Vec::new();
        for (i, lo) in [10.0, 30.0, 45.0, 70.0].into_iter().enumerate() {
            let sub = Subscription::new(Rect::new(vec![lo, lo], vec![lo + 12.0, lo + 9.0]));
            subs.push((net.subscribe(i * 3, 0, sub.clone()), i * 3, sub));
        }
        net.run_to_quiescence();
        let restored = Network::restore(&net.snapshot()).expect("a network restores");
        for (subid, node, sub) in &subs {
            for (net, caller) in [(&net, Some(&sub.rect)), (&restored, None)] {
                let local = &net.nodes()[*node].local_subs[&subid.iid].1.rect;
                if let Some(caller) = caller {
                    assert!(local.shares_block(caller));
                }
                let oracle = net.oracle.rect(*subid).expect("the oracle holds it");
                assert!(oracle.shares_block(local));
                let stored: Vec<&StoredSub> = net
                    .nodes()
                    .iter()
                    .flat_map(|n| n.repos.values())
                    .filter_map(|repo| repo.entries.get(subid))
                    .collect();
                let [StoredSub::Real { full, proj }] = stored[..] else {
                    panic!("one real entry for {subid:?}, found {stored:?}");
                };
                assert!(full.shares_block(local) && proj.shares_block(local));
            }
        }
        let mut links = 0;
        for parent in net.nodes() {
            for (&(scheme, ss, zone), repo) in &parent.repos {
                let owner = SubId {
                    nid: parent.chord().id,
                    iid: repo.iid,
                };
                for child in zone.children(&parent.cfg.zone) {
                    let Some(pushed) = repo.pushed.get(&child) else {
                        continue;
                    };
                    let stored = net
                        .nodes()
                        .iter()
                        .filter_map(|n| n.repos.get(&(scheme, ss, child)))
                        .find_map(|r| r.entries.get(&owner));
                    let Some(StoredSub::Surrogate { proj }) = stored else {
                        panic!("no surrogate entry at {child:?} for {owner:?}");
                    };
                    assert!(proj.shares_block(pushed));
                    links += 1;
                }
            }
        }
        assert!(links > 0, "some summary crossed a node boundary");
    }

    #[test]
    fn non_matching_event_delivers_nothing() {
        let mut net = small_net(8, 2);
        net.subscribe(
            3,
            0,
            Subscription::new(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0])),
        );
        net.run_to_quiescence();
        net.publish(5, 0, Point(vec![90.0, 90.0])).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats[0].expected, 0);
        assert_eq!(stats[0].delivered, 0);
    }

    #[test]
    fn delivered_set_equals_bruteforce_many_subs() {
        let mut net = small_net(16, 3);
        // A spread of subscriptions, including boundary-straddling ones.
        let rects = [
            ([0.0, 0.0], [100.0, 100.0]), // matches everything
            ([40.0, 40.0], [60.0, 60.0]),
            ([50.0, 0.0], [50.0, 100.0]), // degenerate plane at x=50
            ([0.0, 45.0], [100.0, 55.0]),
            ([70.0, 70.0], [80.0, 80.0]),
            ([49.0, 49.0], [51.0, 51.0]),
        ];
        for (i, (lo, hi)) in rects.iter().enumerate() {
            net.subscribe(
                i % 16,
                0,
                Subscription::new(Rect::new(lo.to_vec(), hi.to_vec())),
            );
        }
        net.run_to_quiescence();
        for (j, point) in [
            Point(vec![50.0, 50.0]), // the hot corner: matches many
            Point(vec![75.0, 75.0]),
            Point(vec![1.0, 1.0]),
            Point(vec![50.0, 10.0]),
        ]
        .into_iter()
        .enumerate()
        {
            let expected = net.expected_matches(0, &point);
            let ev = net.publish((j * 3) % 16, 0, point).unwrap();
            net.run_to_quiescence();
            let stats = net.event_stats();
            let s = stats.iter().find(|s| s.event == ev).unwrap();
            assert_eq!(
                s.delivered,
                expected.len(),
                "event {ev}: delivered {} != expected {}",
                s.delivered,
                expected.len()
            );
            assert_eq!(s.duplicates, 0, "event {ev} had duplicate deliveries");
        }
    }

    #[test]
    fn scheduled_publish_fires() {
        let mut net = small_net(8, 4);
        net.subscribe(
            1,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        net.run_to_quiescence();
        net.schedule_publish(SimTime::from_secs(5), 2, 0, Point(vec![5.0, 5.0]))
            .unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].delivered, 1);
        assert!(stats[0].publish_time >= SimTime::from_secs(5));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let mut net = small_net(12, 21);
        let keep = net.subscribe(
            2,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        let cancel = net.subscribe(
            5,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![100.0, 100.0])),
        );
        net.run_to_quiescence();
        let e1 = net.publish(7, 0, Point(vec![50.0, 50.0])).unwrap();
        net.run_to_quiescence();
        let stored = |net: &Network| net.node_loads().iter().sum::<u64>();
        let stored_before = stored(&net);
        assert_eq!(net.unsubscribe(5, cancel), Ok(()));
        assert_eq!(
            net.unsubscribe(5, cancel),
            Err(HyperSubError::UnknownSubscription { sub: cancel }),
            "double unsubscribe reports the dead id"
        );
        net.run_to_quiescence();
        let e2 = net.publish(7, 0, Point(vec![51.0, 51.0])).unwrap();
        net.run_to_quiescence();
        let stats = net.event_stats();
        let s1 = stats.iter().find(|s| s.event == e1).unwrap();
        let s2 = stats.iter().find(|s| s.event == e2).unwrap();
        assert_eq!(s1.delivered, 2, "before unsubscribe both fire");
        assert_eq!(s2.delivered, 1, "after unsubscribe only one fires");
        assert_eq!(s2.expected, 1);
        // The repository forgot it too: the `Unregister` arrived.
        assert!(
            net.nodes()
                .iter()
                .flat_map(|n| n.repos.values())
                .all(|repo| repo.entries.get(&cancel).is_none()),
            "a repository still stores the cancelled subscription"
        );
        assert_eq!(stored(&net), stored_before - 1);
        let _ = keep;
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = small_net(12, seed);
            for i in 0..12 {
                let lo = i as f64 * 5.0;
                net.subscribe(
                    i,
                    0,
                    Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0])),
                );
            }
            net.run_to_quiescence();
            for i in 0..6 {
                net.publish(i, 0, Point(vec![i as f64 * 17.0 % 100.0, 50.0]))
                    .unwrap();
            }
            net.run_to_quiescence();
            net.event_stats()
                .iter()
                .map(|s| (s.event, s.delivered, s.max_hops, s.bandwidth_bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn builder_validates_configuration() {
        assert_eq!(
            Network::builder(0).build().err(),
            Some(HyperSubError::InvalidConfig(
                "network needs at least one node"
            ))
        );
        assert_eq!(
            Network::builder(4).flight_recorder(0).build().err(),
            Some(HyperSubError::InvalidConfig(
                "flight recorder capacity must be positive"
            ))
        );
    }

    /// A retry's last copy must leave while the receiver's visit-once
    /// guard still remembers the first: with 8 attempts it leaves at
    /// 31.75 s, with 9 at 63.75 s, past [`DEDUP_WINDOW`].
    #[test]
    fn retries_must_end_within_the_visit_once_window() {
        let build = |max_attempts| {
            let mut cfg = SystemConfig::default().with_retries();
            cfg.retry.max_attempts = max_attempts;
            Network::builder(4).registry(registry()).config(cfg).build()
        };
        assert!(build(8).is_ok());
        for refused in [0, 9, 64, u32::MAX] {
            assert_eq!(
                build(refused).err(),
                Some(HyperSubError::InvalidConfig(
                    "retries take 1 to 8 attempts: the last must leave within the visit-once window"
                ))
            );
        }
    }

    #[test]
    fn out_of_range_operations_are_errors_not_panics() {
        let mut net = small_net(4, 11);
        assert_eq!(
            net.node(4).err(),
            Some(HyperSubError::NodeOutOfRange { node: 4, nodes: 4 })
        );
        assert_eq!(
            net.publish(99, 0, Point(vec![1.0, 1.0])).err(),
            Some(HyperSubError::NodeOutOfRange { node: 99, nodes: 4 })
        );
        assert_eq!(
            net.schedule_publish(SimTime::from_secs(1), 4, 0, Point(vec![1.0, 1.0]))
                .err(),
            Some(HyperSubError::NodeOutOfRange { node: 4, nodes: 4 })
        );
        let sub = SubId { nid: 1, iid: 1 };
        assert_eq!(
            net.unsubscribe(7, sub).err(),
            Some(HyperSubError::NodeOutOfRange { node: 7, nodes: 4 })
        );
    }

    #[test]
    fn unsubscribe_distinguishes_dead_node_and_foreign_sub() {
        let mut net = small_net(6, 12);
        let sub = net.subscribe(
            2,
            0,
            Subscription::new(Rect::new(vec![0.0, 0.0], vec![10.0, 10.0])),
        );
        net.run_to_quiescence();
        // Addressed to the wrong node: the id names node 2's ring id.
        assert_eq!(
            net.unsubscribe(3, sub),
            Err(HyperSubError::ForeignSubscription { node: 3, sub })
        );
        net.fail(2).unwrap();
        assert_eq!(
            net.unsubscribe(2, sub),
            Err(HyperSubError::DeadNode { node: 2 })
        );
        net.revive(2).unwrap();
        assert_eq!(net.unsubscribe(2, sub), Ok(()));
    }

    #[test]
    fn fail_and_revive_are_typed() {
        let mut net = small_net(4, 14);
        assert_eq!(
            net.fail(9).err(),
            Some(HyperSubError::NodeOutOfRange { node: 9, nodes: 4 })
        );
        assert_eq!(
            net.revive(9).err(),
            Some(HyperSubError::NodeOutOfRange { node: 9, nodes: 4 })
        );
        assert_eq!(
            net.revive(2).err(),
            Some(HyperSubError::AliveNode { node: 2 }),
            "reviving a live node is an error"
        );
        net.fail(1).unwrap();
        assert_eq!(
            net.fail(1).err(),
            Some(HyperSubError::DeadNode { node: 1 }),
            "double fail is an error"
        );
        net.revive(1).unwrap();
        net.fail(1).unwrap();
    }

    #[test]
    #[should_panic(expected = "use run_until")]
    fn quiescence_panics_with_self_healing_enabled() {
        let mut net = Network::builder(4)
            .registry(registry())
            .config(SystemConfig::default().with_self_healing())
            .build()
            .unwrap();
        net.run_to_quiescence();
    }

    #[test]
    fn snapshot_restore_round_trips_mid_run() {
        let build = || small_net(12, 31);
        let drive = |net: &mut Network, from: usize| {
            for i in from..6 {
                net.schedule_publish(
                    SimTime::from_secs(20 + i as u64),
                    i * 2,
                    0,
                    Point(vec![(i as f64 * 19.0) % 100.0, 50.0]),
                )
                .unwrap();
            }
        };
        // Straight-through reference run.
        let mut reference = build();
        for i in 0..12 {
            let lo = i as f64 * 7.0 % 90.0;
            reference.subscribe(
                i,
                0,
                Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0])),
            );
        }
        drive(&mut reference, 0);
        reference.run_to_quiescence();
        // Split run: identical setup, snapshot mid-way, restore, finish.
        let mut first = build();
        for i in 0..12 {
            let lo = i as f64 * 7.0 % 90.0;
            first.subscribe(
                i,
                0,
                Subscription::new(Rect::new(vec![lo, 0.0], vec![lo + 10.0, 100.0])),
            );
        }
        drive(&mut first, 0);
        first.run_until(SimTime::from_secs(22));
        let bytes = first.snapshot();
        drop(first);
        let mut resumed = Network::restore(&bytes).unwrap();
        assert_eq!(resumed.time(), SimTime::from_secs(22));
        resumed.run_to_quiescence();
        assert_eq!(resumed.run_digest(), reference.run_digest());
        assert_eq!(resumed.deliveries(), reference.deliveries());
        assert_eq!(resumed.net(), reference.net());
    }

    #[test]
    fn restore_rejects_corrupt_bytes() {
        let mut bytes = small_net(4, 0).snapshot();
        let last = bytes.len() - 9; // flip a payload bit, not the checksum
        bytes[last] ^= 0x40;
        assert!(matches!(
            Network::restore(&bytes),
            Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::ChecksumMismatch { .. }
            ))
        ));
        assert!(Network::restore(&[]).is_err());
    }

    /// The network the hostile-snapshot tests start from: every map of a
    /// snapshot that a delivery fills has an entry.
    fn net_after_one_delivery() -> Network {
        let mut net = small_net(4, 3);
        net.subscribe(
            1,
            0,
            Subscription::new(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0])),
        );
        net.run_to_quiescence();
        net.publish(2, 0, Point(vec![15.0, 15.0])).unwrap();
        net.run_to_quiescence();
        net
    }

    /// The FNV seal is a checksum, not a MAC: whoever can write a snapshot
    /// can seal one that claims any count. Every count in a real snapshot
    /// is tried (along with every other field: the sweep writes 2⁶⁰ at
    /// each payload offset), and a decoder that sized an allocation from
    /// it would panic on capacity overflow or abort.
    #[test]
    fn hostile_counts_are_errors_not_allocations() {
        const HUGE: [u8; 8] = (1u64 << 60).to_le_bytes();
        let sealed = net_after_one_delivery().snapshot();
        let payload = hypersub_snapshot::unseal(&sealed).unwrap();
        let mut refused = 0;
        for at in 0..payload.len() - HUGE.len() {
            let mut hostile = payload.to_vec();
            hostile[at..at + HUGE.len()].copy_from_slice(&HUGE);
            refused += usize::from(Network::restore(&hypersub_snapshot::seal(hostile)).is_err());
        }
        assert!(refused > 100, "only {refused} offsets held a count");

        // The node count is checked against the topology recipe's, so a
        // hostile snapshot states it twice: uniform topology of 2⁶⁰
        // nodes, empty registry, default configuration, 2⁶⁰ nodes.
        let mut w = Writer::new();
        TopoDescriptor::Uniform {
            nodes: 1 << 60,
            latency: SimTime::from_millis(10),
        }
        .encode(&mut w);
        Registry::new(Vec::new()).encode(&mut w);
        SystemConfig::default().encode(&mut w);
        w.put_u64(1 << 60);
        assert!(Network::restore(&hypersub_snapshot::seal(w.into_vec())).is_err());
    }

    /// `sealed` with `honest`'s bytes — which must occur in it once —
    /// replaced by `hostile`'s.
    fn restate<T: Encode>(sealed: &[u8], honest: &T, hostile: &T) -> Vec<u8> {
        let bytes = |v: &T| {
            let mut w = Writer::new();
            v.encode(&mut w);
            w.into_vec()
        };
        let honest = bytes(honest);
        let payload = hypersub_snapshot::unseal(sealed).unwrap();
        let at: Vec<usize> = (0..=payload.len() - honest.len())
            .filter(|&i| payload[i..].starts_with(&honest))
            .collect();
        assert_eq!(at.len(), 1, "the value's bytes occur once in the snapshot");
        let mut restated = payload[..at[0]].to_vec();
        restated.extend_from_slice(&bytes(hostile));
        restated.extend_from_slice(&payload[at[0] + honest.len()..]);
        hypersub_snapshot::seal(restated)
    }

    /// A queue is checked against the network it is restored into: an
    /// event naming a node past the network, or a publish timer naming a
    /// script entry that is not waiting or that another timer names too,
    /// is refused rather than panicking once the network runs.
    #[test]
    fn a_queue_that_would_panic_is_refused() {
        type Queued = (SimTime, u64, SimEvent<HyperMsg>);
        /// `sealed` with `entry` holding `event` instead.
        fn requeue(sealed: &[u8], entry: &Queued, event: SimEvent<HyperMsg>) -> Vec<u8> {
            restate(sealed, entry, &(entry.0, entry.1, event))
        }
        let refused = |what| {
            Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::InvalidValue(what),
            ))
        };
        let past_the_network = refused("queued event names a node past the network");
        let not_waiting = refused("publish timer names no waiting script entry");

        // Two publish timers waiting (script entries 0 and 1), and the
        // messages of an immediate publish in flight.
        let mut net = net_after_one_delivery();
        for (secs, node) in [(5, 2), (6, 3)] {
            net.schedule_publish(SimTime::from_secs(secs), node, 0, Point(vec![15.0, 15.0]))
                .unwrap();
        }
        net.publish(0, 0, Point(vec![15.0, 15.0])).unwrap();
        let sealed = net.snapshot();
        assert!(Network::restore(&sealed).is_ok());
        let queue = net.sim.export_state().queue_entries;
        let timer = |idx: u64| {
            let token = TOKEN_PUBLISH_BASE + idx;
            queue
                .iter()
                .find(|e| matches!(e.2, SimEvent::Timer { token: t, .. } if t == token))
                .unwrap()
        };
        let deliver = queue
            .iter()
            .find(|e| matches!(e.2, SimEvent::Deliver { .. }))
            .unwrap();
        let SimEvent::Deliver { src, msg, .. } = deliver.2.clone() else {
            unreachable!()
        };
        let publish_timer = |node, idx| SimEvent::Timer {
            node,
            token: TOKEN_PUBLISH_BASE + idx,
        };
        for (hostile, verdict) in [
            (
                requeue(&sealed, timer(0), publish_timer(4, 0)),
                &past_the_network,
            ),
            (
                requeue(&sealed, deliver, SimEvent::Deliver { src, dst: 9, msg }),
                &past_the_network,
            ),
            (
                requeue(&sealed, timer(1), publish_timer(3, 2)),
                &not_waiting,
            ),
            (
                requeue(&sealed, timer(1), publish_timer(3, 0)),
                &not_waiting,
            ),
        ] {
            assert_eq!(Network::restore(&hostile).map(|_| ()), *verdict);
        }

        // Entry 0 fired: a timer naming it again is refused too.
        net.run_until(SimTime::from_secs(5) + SimTime::from_millis(1));
        let sealed = net.snapshot();
        let queue = net.sim.export_state().queue_entries;
        let last = queue
            .iter()
            .find(
                |e| matches!(e.2, SimEvent::Timer { token, .. } if token == TOKEN_PUBLISH_BASE + 1),
            )
            .unwrap();
        assert_eq!(
            Network::restore(&requeue(&sealed, last, publish_timer(3, 0))).map(|_| ()),
            not_waiting
        );
    }

    /// Routing state is checked the same way: a node whose own index,
    /// predecessor, a successor or a finger names a node past the network
    /// is refused; the first send to it would panic.
    #[test]
    fn routing_state_naming_a_node_past_the_network_is_refused() {
        use hypersub_chord::Peer;
        let net = net_after_one_delivery();
        let sealed = net.snapshot();
        let honest = net.nodes()[0].chord().clone();
        let stranger = Peer {
            id: honest.id.wrapping_add(1),
            idx: net.nodes().len(),
        };
        let mut me = honest.clone();
        me.idx = stranger.idx;
        let mut predecessor = honest.clone();
        predecessor.predecessor = Some(stranger);
        let mut successor = honest.clone();
        successor.add_successor(stranger);
        let mut finger = honest.clone();
        finger.set_finger(63, Some(stranger));
        for hostile in [me, predecessor, successor, finger] {
            assert_eq!(
                Network::restore(&restate(&sealed, &honest, &hostile)).map(|_| ()),
                Err(HyperSubError::Snapshot(
                    hypersub_snapshot::Error::InvalidValue(
                        "routing state names a node past the network"
                    )
                ))
            );
        }
        assert!(Network::restore(&restate(&sealed, &honest, &honest)).is_ok());
    }

    /// The peers `MaintState` will probe or contact again are checked
    /// with the routing state: the successor and the predecessor awaiting
    /// a probe reply, and the bootstrap contact. Their fields are private
    /// to the Chord crate, so each is restated in the bytes that lead up
    /// to it from the routing state.
    #[test]
    fn maintenance_peers_naming_a_node_past_the_network_are_refused() {
        type Awaiting = Option<(usize, u32)>;
        let net = net_after_one_delivery();
        let sealed = net.snapshot();
        let node = &net.nodes()[0];
        let past = net.nodes().len();
        // `MaintState`'s bytes up to `bootstrap`, with the finger cursor
        // a node holds until maintenance runs.
        let maint = |stab: Awaiting, pred: Awaiting, bootstrap: Option<usize>| {
            (node.chord().clone(), (stab, pred, (0usize, bootstrap)))
        };
        let honest = maint(None, None, None);
        for hostile in [
            maint(Some((past, 0)), None, None),
            maint(None, Some((past, 1)), None),
            maint(None, None, Some(past)),
        ] {
            assert_eq!(
                Network::restore(&restate(&sealed, &honest, &hostile)).map(|_| ()),
                Err(HyperSubError::Snapshot(
                    hypersub_snapshot::Error::InvalidValue(
                        "routing state names a node past the network"
                    )
                ))
            );
        }
        // The same fields naming nodes of the network restore.
        let inside = maint(Some((1, 0)), Some((2, 1)), Some(3));
        assert!(Network::restore(&restate(&sealed, &honest, &inside)).is_ok());
    }

    /// Plane state is checked too: a pending reliable send's destination
    /// and the peers its message names, and the origin a replica set is
    /// kept under, as its key and as its peer.
    #[test]
    fn plane_state_naming_a_node_past_the_network_is_refused() {
        use crate::retry::PendingSend;
        let refused = Err(HyperSubError::Snapshot(
            hypersub_snapshot::Error::InvalidValue("plane state names a node past the network"),
        ));
        let planes_net = |config: SystemConfig| {
            let mut net = Network::builder(8)
                .registry(registry())
                .config(config)
                .seed(5)
                .build()
                .expect("valid test network");
            for (node, lo) in [(1, 10.0), (4, 40.0), (6, 70.0)] {
                let rect = Rect::new(vec![lo, lo], vec![lo + 10.0, lo + 10.0]);
                net.subscribe(node, 0, Subscription::new(rect));
            }
            net
        };

        // Registrations routed to other nodes wait for their acks.
        let net = planes_net(SystemConfig::default().with_retries());
        let sealed = net.snapshot();
        let past = net.nodes().len();
        let (token, send) = net
            .nodes()
            .iter()
            .find_map(|n| n.planes().rel.pending.iter().next())
            .map(|(&token, send)| (token, send.clone()))
            .expect("a reliable send in flight");
        let elsewhere = PendingSend {
            dst: past,
            ..send.clone()
        };
        // The peers its message names: a retransmit sends it again.
        let naming_past = PendingSend {
            msg: HyperMsg::LoadProbe {
                origin: Peer { id: 0, idx: past },
                ttl: 1,
            },
            ..send.clone()
        };
        let honest = (token, send);
        for hostile in [elsewhere, naming_past] {
            let restated = restate(&sealed, &honest, &(token, hostile));
            assert_eq!(Network::restore(&restated).map(|_| ()), refused);
        }
        assert!(Network::restore(&restate(&sealed, &honest, &honest)).is_ok());

        // Each fresh registration is replicated to the next successors.
        let mut net = planes_net(SystemConfig::default().with_self_healing());
        net.run_until(SimTime::from_secs(1));
        let sealed = net.snapshot();
        let honest = net
            .nodes()
            .iter()
            .map(|n| n.planes().replicas.clone())
            .find(|r| !r.is_empty())
            .expect("a node holds replicas");
        let mut hostile = honest.clone();
        let origin = *hostile.keys().min().unwrap();
        let set = hostile.remove(&origin).unwrap();
        hostile.insert(past, set);
        let restated = restate(&sealed, &honest, &hostile);
        assert_eq!(Network::restore(&restated).map(|_| ()), refused);
        assert!(Network::restore(&restate(&sealed, &honest, &honest)).is_ok());

        // The set's own origin peer, under an honest key.
        let mut hostile = honest.clone();
        hostile.get_mut(&origin).unwrap().origin.idx = past;
        let restated = restate(&sealed, &honest, &hostile);
        assert_eq!(Network::restore(&restated).map(|_| ()), refused);
    }

    /// The load balancer's bookkeeping and the hosted repositories are
    /// plane state too: a load sample's responder and its peer, an
    /// outstanding offer's target, a migrated subscription's acceptor
    /// and a hosted repository's origin. Each is restated beside the
    /// subscriber's `local_subs`, whose bytes occur once.
    #[test]
    fn load_balancing_state_naming_a_node_past_the_network_is_refused() {
        use crate::loadbal::LbState;
        use crate::repo::HostedRepo;
        let net = net_after_one_delivery();
        let sealed = net.snapshot();
        let past = net.nodes().len();
        let key = *net
            .nodes()
            .iter()
            .find_map(|n| n.repos.keys().next())
            .expect("a zone repository");
        let node = &net.nodes()[1];
        let subid = SubId {
            nid: node.chord().id,
            iid: *node.local_subs.keys().next().expect("a local subscription"),
        };
        let honest = (
            node.local_subs.clone(),
            node.planes().hosted.clone(),
            node.planes().lb.clone(),
        );
        let peer = |idx| Peer { id: 7, idx };
        // Each field group naming node `idx`.
        let cases = |idx: usize| {
            let lb = |edit: &dyn Fn(&mut LbState)| {
                let mut state = honest.clone();
                edit(&mut state.2);
                state
            };
            let mut hosted = honest.clone();
            hosted.1.insert(9, HostedRepo::new(9, idx, key));
            [
                lb(&|lb| {
                    lb.samples.insert(idx, (3, peer(0)));
                }),
                lb(&|lb| {
                    lb.samples.insert(0, (3, peer(idx)));
                }),
                lb(&|lb| {
                    lb.in_flight.insert((idx, key), Vec::new());
                }),
                lb(&|lb| {
                    lb.migrated_index.insert((key, subid), peer(idx));
                }),
                hosted,
            ]
        };
        let refused = Err(HyperSubError::Snapshot(
            hypersub_snapshot::Error::InvalidValue("plane state names a node past the network"),
        ));
        for (inside, hostile) in cases(past - 1).into_iter().zip(cases(past)) {
            assert!(Network::restore(&restate(&sealed, &honest, &inside)).is_ok());
            let restated = restate(&sealed, &honest, &hostile);
            assert_eq!(Network::restore(&restated).map(|_| ()), refused);
        }
    }

    /// A queued message is checked for the peers its payload names, which
    /// its receiver would send to: a delivery's sender, the origin of a
    /// load probe, a migration or a replica update, a migration ack's
    /// acceptor, and the peers of each Chord message — as delivered, as
    /// a send failure and inside a reliable envelope.
    #[test]
    fn a_queued_message_naming_a_node_past_the_network_is_refused() {
        use crate::msg::DeliveryMsg;
        use hypersub_chord::proto::LookupPurpose;
        let mut net = net_after_one_delivery();
        net.publish(0, 0, Point(vec![15.0, 15.0])).unwrap();
        let sealed = net.snapshot();
        let past = net.nodes().len();
        let queue = net.sim.export_state().queue_entries;
        let (entry, delivery) = queue
            .iter()
            .find_map(|e| match &e.2 {
                SimEvent::Deliver {
                    msg: HyperMsg::Delivery(d),
                    ..
                } => Some((e, d.clone())),
                _ => None,
            })
            .expect("a delivery in flight");
        let peer = |idx| Peer { id: 7, idx };
        // Each payload field naming node `idx`.
        let messages = |idx: usize| {
            let p = peer(idx);
            let join = LookupPurpose::Join;
            let chord = [
                ChordMsg::FindSuccessor {
                    key: 1,
                    origin: p,
                    purpose: join,
                },
                ChordMsg::FoundSuccessor {
                    key: 1,
                    owner: p,
                    purpose: join,
                },
                ChordMsg::NeighborsReply {
                    pred: Some(p),
                    succs: Vec::new(),
                },
                ChordMsg::NeighborsReply {
                    pred: None,
                    succs: vec![peer(0), p],
                },
                ChordMsg::Notify { peer: p },
            ];
            let probe = HyperMsg::LoadProbe { origin: p, ttl: 1 };
            [
                HyperMsg::Delivery(DeliveryMsg {
                    sender: Some(p),
                    ..delivery.clone()
                }),
                probe.clone(),
                HyperMsg::Migrate {
                    origin: p,
                    batches: Vec::new(),
                },
                HyperMsg::MigrateAck {
                    me: p,
                    acks: Vec::new(),
                },
                HyperMsg::ReplicaUpdate {
                    origin: p,
                    full: true,
                    repos: Vec::new(),
                },
                HyperMsg::Reliable {
                    token: 1,
                    inner: Box::new(probe),
                },
            ]
            .into_iter()
            .chain(chord.map(HyperMsg::Chord))
        };
        let queued = |msg: HyperMsg| {
            [
                SimEvent::Deliver {
                    src: 0,
                    dst: 1,
                    msg: msg.clone(),
                },
                SimEvent::SendFailed {
                    origin: 0,
                    dst: 1,
                    msg,
                },
            ]
        };
        let refused = Err(HyperSubError::Snapshot(
            hypersub_snapshot::Error::InvalidValue("queued message names a node past the network"),
        ));
        for (inside, hostile) in messages(past - 1).zip(messages(past)) {
            for (inside, hostile) in queued(inside).into_iter().zip(queued(hostile)) {
                let requeue = |event| restate(&sealed, entry, &(entry.0, entry.1, event));
                assert!(Network::restore(&requeue(inside)).is_ok());
                assert_eq!(Network::restore(&requeue(hostile)).map(|_| ()), refused);
            }
        }
    }

    /// An entry numbered at or past the queue's next sequence number is
    /// refused: rebuilding the queue from it would panic, and a queue
    /// that took it would hand that number out again.
    #[test]
    fn a_queue_entry_numbered_past_the_next_is_refused() {
        let mut net = net_after_one_delivery();
        net.publish(0, 0, Point(vec![15.0, 15.0])).unwrap();
        let sealed = net.snapshot();
        let state = net.sim.export_state();
        let entry = &state.queue_entries[0];
        for seq in [state.queue_next_seq, u64::MAX] {
            let hostile = restate(&sealed, entry, &(entry.0, seq, entry.2.clone()));
            assert_eq!(
                Network::restore(&hostile).map(|_| ()),
                Err(HyperSubError::Snapshot(
                    hypersub_snapshot::Error::InvalidValue(
                        "queued event numbered past the queue's next"
                    )
                ))
            );
        }
    }

    /// A node allocates its planes box on a plane's first write, so with
    /// every plane off no node holds one, before a snapshot or after it;
    /// a node whose plane wrote keeps its state across one.
    #[test]
    fn only_a_plane_that_writes_allocates_the_planes_box() {
        let boxed = |net: &Network| -> Vec<bool> {
            net.nodes().iter().map(|n| n.planes.is_some()).collect()
        };
        let net = net_after_one_delivery();
        assert!(boxed(&net).iter().all(|&b| !b));
        let back = Network::restore(&net.snapshot()).unwrap();
        assert!(boxed(&back).iter().all(|&b| !b));

        let mut net = Network::builder(8)
            .registry(registry())
            .config(SystemConfig::default().with_retries())
            .seed(5)
            .build()
            .unwrap();
        assert!(boxed(&net).iter().all(|&b| !b), "nothing sent yet");
        net.subscribe(
            1,
            0,
            Subscription::new(Rect::new(vec![10.0, 10.0], vec![20.0, 20.0])),
        );
        net.run_to_quiescence();
        assert!(boxed(&net).iter().any(|&b| b), "a reliable send wrote");
        let back = Network::restore(&net.snapshot()).unwrap();
        assert_eq!(boxed(&back), boxed(&net));
    }

    /// A count and its entries are stated separately, so a snapshot can
    /// claim a map larger than the distinct keys it lists. Every map and
    /// set refuses the repeated key; none keeps the last writer. The
    /// oracle is a map of subscriptions by id too.
    #[test]
    fn a_key_stated_twice_is_an_error() {
        fn bytes<T: Encode>(value: &T) -> Vec<u8> {
            let mut w = Writer::new();
            value.encode(&mut w);
            w.into_vec()
        }
        /// `sealed` with `honest` — a count and the entries it counts,
        /// which must occur in it once — restated as one entry more:
        /// `again`, also a count (of one) and its entry.
        fn repeat(sealed: &[u8], honest: &[u8], again: &[u8]) -> Vec<u8> {
            let payload = hypersub_snapshot::unseal(sealed).unwrap();
            let at: Vec<usize> = (0..=payload.len() - honest.len())
                .filter(|&i| payload[i..].starts_with(honest))
                .collect();
            assert_eq!(at.len(), 1, "the map's bytes occur once in the snapshot");
            let count = u64::from_le_bytes(honest[..8].try_into().unwrap());
            let mut hostile = payload[..at[0]].to_vec();
            hostile.extend_from_slice(&(count + 1).to_le_bytes());
            hostile.extend_from_slice(&honest[8..]);
            hostile.extend_from_slice(&again[8..]);
            hostile.extend_from_slice(&payload[at[0] + honest.len()..]);
            hypersub_snapshot::seal(hostile)
        }
        /// `map` with its smallest key stated a second time.
        fn repeat_a_key<K, V>(sealed: &[u8], map: &FxHashMap<K, V>) -> Vec<u8>
        where
            K: Encode + Ord + Copy + std::hash::Hash,
            V: Encode + Clone,
        {
            let smallest = *map.keys().min().expect("a non-empty map");
            let again: FxHashMap<K, V> = [(smallest, map[&smallest].clone())].into_iter().collect();
            repeat(sealed, &bytes(map), &bytes(&again))
        }

        let net = net_after_one_delivery();
        let sealed = net.snapshot();
        let host = net.nodes().iter().find(|n| !n.repos.is_empty()).unwrap();
        let subscriber = &net.nodes()[1];
        let (&iid, (scheme, sub)) = subscriber.local_subs.iter().next().unwrap();
        let subid = SubId {
            nid: subscriber.chord().id,
            iid,
        };
        let mut again = Oracle::default();
        again.add(*scheme, subid, sub);
        let (&first, repo) = host.repos.iter().next().unwrap();
        let mut one_repo = SortedTable::default();
        one_repo.insert(first, repo.clone());
        for hostile in [
            repeat(&sealed, &bytes(&host.repos), &bytes(&one_repo)),
            repeat_a_key(&sealed, net.net().flows()),
            repeat(&sealed, &bytes(&net.oracle), &bytes(&again)),
        ] {
            assert_eq!(
                Network::restore(&hostile).map(|_| ()),
                Err(HyperSubError::Snapshot(
                    hypersub_snapshot::Error::InvalidValue("duplicate map key")
                ))
            );
        }
    }

    /// A node's local subscription ids are written into its id table out
    /// of `local_subs`, and read back out of it: a table whose local ids
    /// are not exactly `local_subs`' keys, in either direction, is
    /// refused rather than losing a record or an id.
    #[test]
    fn local_ids_that_differ_from_local_subscriptions_are_refused() {
        let net = net_after_one_delivery();
        let sealed = net.snapshot();
        let node = &net.nodes()[1];
        let (&iid, _) = node.local_subs.iter().next().expect("a local subscription");
        let table = |edit: &dyn Fn(&mut FxHashMap<u32, IidTarget>)| {
            let mut iids: FxHashMap<u32, IidTarget> =
                node.iids.iter().map(|(&k, &t)| (k, t)).collect();
            iids.extend(node.local_subs.keys().map(|&k| (k, IidTarget::Local)));
            edit(&mut iids);
            (iids, node.local_subs.clone())
        };
        let honest = table(&|_| {});
        let refused = Err(HyperSubError::Snapshot(
            hypersub_snapshot::Error::InvalidValue(
                "local subscription ids differ from their records",
            ),
        ));
        for hostile in [
            // A local id without a record.
            table(&|iids| {
                iids.insert(iid + 100, IidTarget::Local);
            }),
            // A record without its id, or with its id naming another.
            table(&|iids| {
                iids.remove(&iid);
            }),
            table(&|iids| {
                iids.insert(iid, IidTarget::Hosted);
            }),
            // As many local ids as records, one of them the wrong one.
            table(&|iids| {
                iids.remove(&iid);
                iids.insert(iid + 100, IidTarget::Local);
            }),
        ] {
            let restated = restate(&sealed, &honest, &hostile);
            assert_eq!(Network::restore(&restated).map(|_| ()), refused);
        }
        let restored = Network::restore(&restate(&sealed, &honest, &honest)).unwrap();
        let node = &restored.nodes()[1];
        assert_eq!(node.iid_target(iid), Some(IidTarget::Local));
        assert!(!node.iids.contains_key(&iid), "restored as a record alone");
    }

    #[test]
    fn builder_recorder_is_off_by_default_and_installable() {
        let net = small_net(4, 13);
        assert!(net.recorder().is_none(), "recording must be opt-in");
        let mut net = Network::builder(4)
            .registry(registry())
            .flight_recorder(1 << 12)
            .build()
            .unwrap();
        assert!(net.recorder().is_some());
        net.run_to_quiescence();
        let rec = net.disable_recording().unwrap();
        assert_eq!(rec.capacity(), 1 << 12);
    }
}
