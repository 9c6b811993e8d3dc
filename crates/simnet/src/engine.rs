//! The discrete-event simulation engine.
//!
//! A [`Sim`] owns the node states, the world (shared blackboard for
//! scenario scripts and metric sinks), the topology, the future-event list
//! and the network counters. Protocols implement [`Node`]; all their
//! interaction with the outside goes through [`Ctx`], which records sends
//! and timers that the engine then schedules with topology latency and
//! charges to [`crate::NetStats`]. A `Ctx` borrows nothing of the engine
//! but buffers, so any other host — `hypersub-net`'s TCP driver — builds
//! one with [`Ctx::new`] and runs the same handlers.
//!
//! Determinism: all randomness flows from one seeded `SmallRng`, and the
//! event queue breaks ties by insertion order, so a run is a pure function
//! of `(nodes, world, topology, seed, scenario)`.

use crate::fault::{FaultPlane, Verdict};
use crate::queue::{EventQueue, SimEvent};
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{FlightRecorder, ProtoEvent, TraceEvent};
use hypersub_snapshot::codec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A protocol message that knows its wire size and (optionally) which
/// application-level flow it belongs to.
pub trait Payload: Clone + std::fmt::Debug {
    /// Full on-the-wire size in bytes, including headers. The paper models
    /// event messages as 20 B packet header + 100 B event + 9 B per SubID.
    fn wire_size(&self) -> usize;

    /// Flow id for per-flow bandwidth accounting (e.g. the event id of a
    /// delivery message). `None` means unattributed control traffic.
    fn flow(&self) -> Option<u64> {
        None
    }
}

impl Payload for () {
    fn wire_size(&self) -> usize {
        0
    }
}

/// Per-node protocol logic. Every handler is handed a [`Ctx`] by whichever
/// host runs the node: the simulator, or a live transport.
pub trait Node<M: Payload, W>: Sized {
    /// Called when a message from node `from` arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M, W>, from: usize, msg: M);

    /// Called when a timer scheduled with [`Ctx::set_timer`] (or
    /// externally via [`Sim::schedule_timer`]) fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M, W>, _token: u64) {}

    /// Called when a message this node sent could not be delivered because
    /// the destination is down (fail-stop model: the notification arrives
    /// one propagation delay after the send, like a refused connection).
    /// Default: ignore.
    fn on_send_failed(&mut self, _ctx: &mut Ctx<'_, M, W>, _dst: usize, _msg: M) {}
}

/// The API surface a node sees while handling an event: who it is, the
/// time, the shared world, randomness, and buffers for what it sends and
/// arms. Sends and timers are queued, never blocking; the host applies
/// them after the handler returns, so delivery latency and timer dispatch
/// are the host's concern.
pub struct Ctx<'a, M, W> {
    me: usize,
    now: SimTime,
    world: &'a mut W,
    rng: &'a mut SmallRng,
    outbox: &'a mut Vec<(usize, M)>,
    timers: &'a mut Vec<(SimTime, u64)>,
    recorder: Option<&'a mut FlightRecorder>,
}

impl<'a, M, W> Ctx<'a, M, W> {
    /// A context for node `me` at time `now` over the host's state. The
    /// host reads `outbox` (`(dst, msg)` in send order) and `timers`
    /// (`(delay, token)`) back once the handler has returned; `recorder`
    /// is where [`Ctx::trace`] writes, `None` for no tracing.
    pub fn new(
        me: usize,
        now: SimTime,
        world: &'a mut W,
        rng: &'a mut SmallRng,
        outbox: &'a mut Vec<(usize, M)>,
        timers: &'a mut Vec<(SimTime, u64)>,
        recorder: Option<&'a mut FlightRecorder>,
    ) -> Self {
        Ctx {
            me,
            now,
            world,
            rng,
            outbox,
            timers,
            recorder,
        }
    }

    /// Index of the node currently executing.
    #[inline]
    pub fn me(&self) -> usize {
        self.me
    }

    /// The current time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Mutable access to the shared world (metric sinks, scenario state).
    #[inline]
    pub fn world(&mut self) -> &mut W {
        self.world
    }

    /// Deterministic randomness owned by the host.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to node `dst`; under the simulator it arrives after the
    /// topology latency. Sending to self is allowed; the message is handed
    /// back to the node after already-queued work.
    #[inline]
    pub fn send(&mut self, dst: usize, msg: M) {
        self.outbox.push((dst, msg));
    }

    /// Arms a timer to fire on this node after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((delay, token));
    }

    /// True when a flight recorder is installed — lets protocols skip
    /// expensive event construction entirely.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records a protocol event if a flight recorder is installed. The
    /// closure runs only when recording is on, so a disabled recorder
    /// costs a single branch.
    #[inline]
    pub fn trace(&mut self, f: impl FnOnce() -> ProtoEvent) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(self.now, self.me, TraceEvent::Proto(f()));
        }
    }
}

/// Complete engine state at a quiesce point, as captured by
/// [`Sim::export_state`]. Node states, the world, and the topology are
/// *not* included — they live above the engine and are captured (or
/// regenerated) by the layer that owns them.
#[derive(Debug, Clone)]
pub struct SimSnapshot<M> {
    /// Current simulation time.
    pub time: SimTime,
    /// Events processed so far.
    pub steps: u64,
    /// Liveness flags, one per node.
    pub alive: Vec<bool>,
    /// Raw state of the engine's xoshiro256++ stream.
    pub rng_state: [u64; 4],
    /// Network counters.
    pub net: NetStats,
    /// The fault plane, if one is installed.
    pub fault: Option<FaultPlane>,
    /// The flight recorder, if one is installed.
    pub recorder: Option<FlightRecorder>,
    /// Pending events as `(at, seq, event)`, sorted by pop order.
    pub queue_entries: Vec<(SimTime, u64, SimEvent<M>)>,
    /// The queue's next sequence number.
    pub queue_next_seq: u64,
}

codec!(struct SimSnapshot<M> {
    time,
    steps,
    alive,
    rng_state,
    net,
    fault,
    recorder,
    queue_entries,
    queue_next_seq,
});

/// The simulator.
pub struct Sim<N, M: Payload, W> {
    nodes: Vec<N>,
    alive: Vec<bool>,
    world: W,
    topo: Arc<dyn Topology>,
    queue: EventQueue<M>,
    time: SimTime,
    net: NetStats,
    rng: SmallRng,
    fault: Option<FaultPlane>,
    outbox: Vec<(usize, M)>,
    timers: Vec<(SimTime, u64)>,
    steps: u64,
    recorder: Option<FlightRecorder>,
}

impl<N, M: Payload, W> Sim<N, M, W> {
    /// Creates a simulator over `nodes` (one per topology slot).
    ///
    /// # Panics
    /// Panics if `nodes.len() != topo.len()`.
    pub fn new(topo: Arc<dyn Topology>, nodes: Vec<N>, world: W, seed: u64) -> Self {
        assert_eq!(
            nodes.len(),
            topo.len(),
            "node count must match topology size"
        );
        let n = nodes.len();
        Self {
            nodes,
            alive: vec![true; n],
            world,
            topo,
            queue: EventQueue::new(),
            time: SimTime::ZERO,
            net: NetStats::new(n),
            rng: SmallRng::seed_from_u64(seed),
            fault: None,
            outbox: Vec::new(),
            timers: Vec::new(),
            steps: 0,
            recorder: None,
        }
    }

    /// Installs a flight recorder with the given ring-buffer capacity.
    /// Replaces any previous recorder. Recording never affects behavior —
    /// it only observes (see [`crate::trace`]).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn enable_recording(&mut self, capacity: usize) {
        self.recorder = Some(FlightRecorder::new(capacity));
    }

    /// Removes the recorder, returning the captured trace.
    pub fn disable_recording(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// The installed flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the simulator has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Immutable node access.
    pub fn node(&self, i: usize) -> &N {
        &self.nodes[i]
    }

    /// Mutable node access (for setup; protocol work should go through
    /// [`Sim::with_node_ctx`] so sends get scheduled).
    pub fn node_mut(&mut self, i: usize) -> &mut N {
        &mut self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// The shared world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable world access.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Network counters.
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// The topology.
    pub fn topology(&self) -> &Arc<dyn Topology> {
        &self.topo
    }

    /// Events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Marks a node as failed: its timers stop firing and messages to it
    /// are dropped (and counted in [`NetStats::dropped`]).
    pub fn fail(&mut self, node: usize) {
        self.alive[node] = false;
        if let Some(r) = self.recorder.as_mut() {
            r.record(self.time, node, TraceEvent::NodeFail);
        }
    }

    /// Brings a failed node back (state unchanged — protocols must re-join
    /// explicitly if they need fresh state).
    pub fn revive(&mut self, node: usize) {
        self.alive[node] = true;
        if let Some(r) = self.recorder.as_mut() {
            r.record(self.time, node, TraceEvent::NodeRevive);
        }
    }

    /// Whether a node is up.
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Installs a fault plane; every subsequent non-self send is judged by
    /// it. Replaces any previously installed plane.
    pub fn install_fault_plane(&mut self, plane: FaultPlane) {
        self.fault = Some(plane);
    }

    /// Schedules a timer on `node` at absolute time `at` (scenario drivers
    /// use this to script subscribes/publishes).
    pub fn schedule_timer(&mut self, at: SimTime, node: usize, token: u64) {
        assert!(at >= self.time, "cannot schedule in the past");
        self.queue.schedule(at, SimEvent::Timer { node, token });
    }

    /// Runs `f` against node `i` with a full [`Ctx`] at the current time,
    /// then flushes any sends/timers it produced. This is how external
    /// drivers invoke protocol entry points (subscribe, publish)
    /// synchronously.
    pub fn with_node_ctx<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut N, &mut Ctx<'_, M, W>) -> R,
    ) -> R {
        let mut ctx = Ctx::new(
            i,
            self.time,
            &mut self.world,
            &mut self.rng,
            &mut self.outbox,
            &mut self.timers,
            self.recorder.as_mut(),
        );
        let r = f(&mut self.nodes[i], &mut ctx);
        self.flush(i);
        r
    }

    fn flush(&mut self, from: usize) {
        for (dst, msg) in self.outbox.drain(..) {
            let size = msg.wire_size();
            self.net.record_out(from, size, msg.flow());
            if let Some(r) = self.recorder.as_mut() {
                r.record(
                    self.time,
                    from,
                    TraceEvent::MsgSend {
                        dst,
                        bytes: size,
                        flow: msg.flow(),
                    },
                );
            }
            // Self-sends never cross the network, so faults don't apply.
            let verdict = match &mut self.fault {
                Some(fp) if dst != from => fp.judge(from, dst, self.time),
                _ => Verdict::Deliver {
                    extra: SimTime::ZERO,
                    dup_extra: None,
                },
            };
            match verdict {
                Verdict::DropLoss => {
                    // Silent loss: no SendFailed — recovery is on the
                    // protocol's ack/retry machinery.
                    self.net.record_fault_drop();
                    if let Some(r) = self.recorder.as_mut() {
                        r.record(
                            self.time,
                            from,
                            TraceEvent::MsgDropLoss {
                                dst,
                                flow: msg.flow(),
                            },
                        );
                    }
                }
                Verdict::DropPartition => {
                    self.net.record_partition_drop();
                    if let Some(r) = self.recorder.as_mut() {
                        r.record(
                            self.time,
                            from,
                            TraceEvent::MsgDropPartition {
                                dst,
                                flow: msg.flow(),
                            },
                        );
                    }
                }
                Verdict::Deliver { extra, dup_extra } => {
                    // Latency is only needed (and only paid for) when the
                    // message actually crosses the network; the fault
                    // plane's verdict uses its own RNG, so judging before
                    // the topology lookup changes nothing observable.
                    let lat = self.topo.latency(from, dst);
                    if let Some(dup) = dup_extra {
                        self.net.record_duplicate();
                        if let Some(r) = self.recorder.as_mut() {
                            r.record(
                                self.time,
                                from,
                                TraceEvent::MsgDuplicate {
                                    dst,
                                    flow: msg.flow(),
                                },
                            );
                        }
                        self.queue.schedule(
                            self.time + lat + dup,
                            SimEvent::Deliver {
                                src: from,
                                dst,
                                msg: msg.clone(),
                            },
                        );
                    }
                    self.queue.schedule(
                        self.time + lat + extra,
                        SimEvent::Deliver {
                            src: from,
                            dst,
                            msg,
                        },
                    );
                }
            }
        }
        for (delay, token) in self.timers.drain(..) {
            self.queue
                .schedule(self.time + delay, SimEvent::Timer { node: from, token });
        }
    }

    /// Processes one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool
    where
        N: Node<M, W>,
    {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.time, "event queue went backwards");
        self.time = at;
        self.steps += 1;
        match ev {
            SimEvent::Deliver { src, dst, msg } => {
                if !self.alive[dst] {
                    self.net.record_drop();
                    if let Some(r) = self.recorder.as_mut() {
                        r.record(
                            self.time,
                            dst,
                            TraceEvent::MsgDropDead {
                                src,
                                flow: msg.flow(),
                            },
                        );
                    }
                    // Fail-stop notification back to a live sender.
                    if self.alive[src] && src != dst {
                        let back = self.topo.latency(dst, src);
                        self.queue.schedule(
                            self.time + back,
                            SimEvent::SendFailed {
                                origin: src,
                                dst,
                                msg,
                            },
                        );
                    }
                    return true;
                }
                self.net.record_in(dst, msg.wire_size());
                if let Some(r) = self.recorder.as_mut() {
                    r.record(
                        at,
                        dst,
                        TraceEvent::MsgDeliver {
                            src,
                            bytes: msg.wire_size(),
                            flow: msg.flow(),
                        },
                    );
                }
                self.with_node_ctx(dst, |n, ctx| n.on_message(ctx, src, msg));
            }
            SimEvent::Timer { node, token } => {
                if !self.alive[node] {
                    return true;
                }
                self.with_node_ctx(node, |n, ctx| n.on_timer(ctx, token));
            }
            SimEvent::SendFailed { origin, dst, msg } => {
                if !self.alive[origin] {
                    return true;
                }
                if let Some(r) = self.recorder.as_mut() {
                    r.record(
                        at,
                        origin,
                        TraceEvent::SendFailed {
                            dst,
                            flow: msg.flow(),
                        },
                    );
                }
                self.with_node_ctx(origin, |n, ctx| n.on_send_failed(ctx, dst, msg));
            }
        }
        true
    }

    /// Runs until the queue drains or `max_steps` events were processed.
    /// Returns the number of events processed.
    pub fn run(&mut self, max_steps: u64) -> u64
    where
        N: Node<M, W>,
    {
        let mut done = 0;
        while done < max_steps && self.step() {
            done += 1;
        }
        done
    }

    /// Runs until simulated time reaches `until` or the queue drains.
    pub fn run_until(&mut self, until: SimTime) -> u64
    where
        N: Node<M, W>,
    {
        let mut done = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
            done += 1;
        }
        if self.time < until {
            self.time = until;
        }
        done
    }

    /// Consumes the simulator, returning nodes, world and network stats.
    pub fn into_parts(self) -> (Vec<N>, W, NetStats) {
        (self.nodes, self.world, self.net)
    }

    /// Captures the engine's complete state at the current quiesce point.
    ///
    /// Callable only *between* events: the outbox and timer scratch
    /// buffers are drained by `flush` before `step`/`with_node_ctx`
    /// return, so any external call site is a valid quiesce point (the
    /// assertion documents — rather than guards — this invariant).
    pub fn export_state(&self) -> SimSnapshot<M> {
        assert!(
            self.outbox.is_empty() && self.timers.is_empty(),
            "snapshot requires a quiesce point (no in-flight outbox/timers)"
        );
        let (queue_entries, queue_next_seq) = self.queue.export_entries();
        SimSnapshot {
            time: self.time,
            steps: self.steps,
            alive: self.alive.clone(),
            rng_state: self.rng.state(),
            net: self.net.clone(),
            fault: self.fault.clone(),
            recorder: self.recorder.clone(),
            queue_entries,
            queue_next_seq,
        }
    }

    /// Rebuilds a simulator from a captured snapshot plus the state the
    /// engine does not own: the topology (regenerated deterministically
    /// by the caller), restored node states, and the restored world.
    ///
    /// # Panics
    /// Panics if `nodes`, `snap.alive` and `topo` disagree on size.
    pub fn from_snapshot(
        topo: Arc<dyn Topology>,
        nodes: Vec<N>,
        world: W,
        snap: SimSnapshot<M>,
    ) -> Self {
        assert_eq!(
            nodes.len(),
            topo.len(),
            "node count must match topology size"
        );
        assert_eq!(
            nodes.len(),
            snap.alive.len(),
            "alive flags must match node count"
        );
        Self {
            nodes,
            alive: snap.alive,
            world,
            topo,
            queue: EventQueue::from_entries(snap.queue_entries, snap.queue_next_seq),
            time: snap.time,
            net: snap.net,
            rng: SmallRng::from_state(snap.rng_state),
            fault: snap.fault,
            outbox: Vec::new(),
            timers: Vec::new(),
            steps: snap.steps,
            recorder: snap.recorder,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformTopology;
    use hypersub_snapshot::{Decode, Encode, Error, Reader, Writer};

    /// Test payload: a counter that is forwarded `ttl` times around a ring.
    #[derive(Debug, Clone)]
    struct Hop {
        ttl: u32,
    }

    impl Payload for Hop {
        fn wire_size(&self) -> usize {
            10
        }
        fn flow(&self) -> Option<u64> {
            Some(1)
        }
    }

    impl Encode for Hop {
        fn encode(&self, w: &mut Writer) {
            w.put_u32(self.ttl);
        }
    }

    impl Decode for Hop {
        fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
            Ok(Hop { ttl: r.take_u32()? })
        }
    }

    struct RingNode;

    #[derive(Default)]
    struct World {
        delivered: Vec<(usize, SimTime)>,
    }

    impl Node<Hop, World> for RingNode {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Hop, World>, _from: usize, msg: Hop) {
            let (me, now) = (ctx.me(), ctx.now());
            ctx.world().delivered.push((me, now));
            if msg.ttl > 0 {
                let next = (me + 1) % 4;
                ctx.send(next, Hop { ttl: msg.ttl - 1 });
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Hop, World>, token: u64) {
            ctx.send((ctx.me() + 1) % 4, Hop { ttl: token as u32 });
        }
    }

    fn ring() -> Sim<RingNode, Hop, World> {
        let topo = Arc::new(UniformTopology::new(4, SimTime::from_millis(10)));
        Sim::new(
            topo,
            vec![RingNode, RingNode, RingNode, RingNode],
            World::default(),
            0,
        )
    }

    #[test]
    fn message_ring_accumulates_latency() {
        let mut sim = ring();
        sim.schedule_timer(SimTime::ZERO, 0, 3);
        sim.run(100);
        // Timer at node 0 sends ttl=3 to node 1; hops 1->2->3->0.
        let w = sim.world();
        assert_eq!(w.delivered.len(), 4);
        assert_eq!(w.delivered[0], (1, SimTime::from_millis(10)));
        assert_eq!(w.delivered[3], (0, SimTime::from_millis(40)));
    }

    #[test]
    fn bandwidth_accounting() {
        let mut sim = ring();
        sim.schedule_timer(SimTime::ZERO, 0, 3);
        sim.run(100);
        // 4 sends of 10 bytes each, all tagged flow 1.
        assert_eq!(sim.net().total_msgs(), 4);
        assert_eq!(sim.net().total_bytes(), 40);
        assert_eq!(sim.net().flow(1).bytes, 40);
        assert_eq!(sim.net().node(0).bytes_out, 10);
        assert_eq!(sim.net().node(1).bytes_in, 10);
    }

    #[test]
    fn dead_nodes_drop_messages() {
        let mut sim = ring();
        sim.fail(2);
        sim.schedule_timer(SimTime::ZERO, 0, 3);
        sim.run(100);
        // 0 -timer-> 1 -> 2 (dropped).
        assert_eq!(sim.world().delivered.len(), 1);
        assert_eq!(sim.net().dropped(), 1);
    }

    #[test]
    fn with_node_ctx_flushes_sends() {
        let mut sim = ring();
        sim.with_node_ctx(0, |_, ctx| ctx.send(1, Hop { ttl: 0 }));
        sim.run(10);
        assert_eq!(sim.world().delivered.len(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = ring();
            sim.schedule_timer(SimTime::ZERO, 0, 3);
            sim.schedule_timer(SimTime::ZERO, 2, 2);
            sim.run(1000);
            sim.world().delivered.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn send_failed_notifies_origin_after_rtt() {
        struct Retry;
        #[derive(Default)]
        struct W {
            failed: Vec<(usize, SimTime)>,
        }
        impl Node<Hop, W> for Retry {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Hop, W>, _from: usize, _msg: Hop) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Hop, W>, _token: u64) {
                ctx.send(2, Hop { ttl: 0 });
            }
            fn on_send_failed(&mut self, ctx: &mut Ctx<'_, Hop, W>, dst: usize, _msg: Hop) {
                let now = ctx.now();
                ctx.world().failed.push((dst, now));
            }
        }
        let topo = Arc::new(UniformTopology::new(4, SimTime::from_millis(10)));
        let mut sim = Sim::new(topo, vec![Retry, Retry, Retry, Retry], W::default(), 0);
        sim.fail(2);
        sim.schedule_timer(SimTime::ZERO, 0, 0);
        sim.run(100);
        // Notification arrives one round trip after the send.
        assert_eq!(sim.world().failed, vec![(2, SimTime::from_millis(20))]);
        assert_eq!(sim.net().dropped(), 1);
    }

    #[test]
    fn fault_loss_drops_silently() {
        use crate::fault::{FaultPlane, LinkPolicy};
        let mut sim = ring();
        let mut fp = FaultPlane::new(123);
        fp.set_global_policy(LinkPolicy::loss(1.0));
        sim.install_fault_plane(fp);
        sim.schedule_timer(SimTime::ZERO, 0, 3);
        sim.run(100);
        // The first hop is lost in-network: nothing delivered, no dead-node
        // drop recorded, and no SendFailed (delivered would then be > 0).
        assert_eq!(sim.world().delivered.len(), 0);
        assert_eq!(sim.net().fault_dropped(), 1);
        assert_eq!(sim.net().dropped(), 0);
    }

    #[test]
    fn fault_duplication_delivers_twice() {
        use crate::fault::{FaultPlane, LinkPolicy};
        let mut sim = ring();
        let mut fp = FaultPlane::new(123);
        fp.set_global_policy(LinkPolicy::duplication(1.0));
        sim.install_fault_plane(fp);
        sim.with_node_ctx(0, |_, ctx| ctx.send(1, Hop { ttl: 0 }));
        sim.run(100);
        assert_eq!(sim.world().delivered.len(), 2);
        assert_eq!(sim.net().duplicated(), 1);
    }

    #[test]
    fn partition_drops_cross_cut_then_heals() {
        use crate::fault::FaultPlane;
        let mut sim = ring();
        let mut fp = FaultPlane::new(5);
        fp.add_partition([0, 1], SimTime::ZERO, SimTime::from_millis(100));
        sim.install_fault_plane(fp);
        // During the partition 1 -> 2 crosses the cut.
        sim.with_node_ctx(1, |_, ctx| ctx.send(2, Hop { ttl: 0 }));
        sim.run(100);
        assert_eq!(sim.world().delivered.len(), 0);
        assert_eq!(sim.net().partition_dropped(), 1);
        // After healing the same send goes through.
        sim.run_until(SimTime::from_millis(100));
        sim.with_node_ctx(1, |_, ctx| ctx.send(2, Hop { ttl: 0 }));
        sim.run(100);
        assert_eq!(sim.world().delivered.len(), 1);
        assert_eq!(sim.net().partition_dropped(), 1);
    }

    #[test]
    fn ideal_fault_plane_is_transparent() {
        use crate::fault::FaultPlane;
        let run = |with_plane: bool| {
            let mut sim = ring();
            if with_plane {
                sim.install_fault_plane(FaultPlane::new(999));
            }
            sim.schedule_timer(SimTime::ZERO, 0, 3);
            sim.run(1000);
            let (_, w, net) = sim.into_parts();
            (w.delivered, net)
        };
        let (d0, n0) = run(false);
        let (d1, n1) = run(true);
        assert_eq!(d0, d1);
        assert_eq!(n0, n1);
    }

    #[test]
    fn faulty_runs_replay_identically() {
        use crate::fault::{FaultPlane, LinkPolicy};
        let run = || {
            let mut sim = ring();
            let mut fp = FaultPlane::new(42);
            fp.set_global_policy(LinkPolicy {
                drop_prob: 0.2,
                dup_prob: 0.2,
                extra_delay: SimTime::from_millis(1),
                jitter: SimTime::from_millis(4),
            });
            sim.install_fault_plane(fp);
            sim.schedule_timer(SimTime::ZERO, 0, 30);
            sim.schedule_timer(SimTime::from_millis(3), 2, 30);
            sim.run(10_000);
            let (_, w, net) = sim.into_parts();
            (w.delivered, net)
        };
        let (d0, n0) = run();
        let (d1, n1) = run();
        assert_eq!(d0, d1);
        assert_eq!(n0, n1);
    }

    #[test]
    fn recording_captures_net_events_without_changing_the_run() {
        let run = |record: bool| {
            let mut sim = ring();
            if record {
                sim.enable_recording(1 << 10);
            }
            sim.fail(3);
            sim.schedule_timer(SimTime::ZERO, 0, 3);
            sim.run(100);
            let counts = sim.recorder().map(|r| r.kind_counts()).unwrap_or_default();
            let (_, w, net) = sim.into_parts();
            (w.delivered, net, counts)
        };
        let (d0, n0, _) = run(false);
        let (d1, n1, counts) = run(true);
        // Digest-neutrality at the engine level: identical deliveries and
        // network counters with and without the recorder.
        assert_eq!(d0, d1);
        assert_eq!(n0, n1);
        // Hops 0->1->2->3: 3 sends, 2 deliveries, one dead-drop at 3, one
        // fail-stop notification back to 2, plus the node-fail marker.
        let get = |k: &str| counts.iter().find(|(c, _)| *c == k).map_or(0, |&(_, n)| n);
        assert_eq!(get("net.send"), 3);
        assert_eq!(get("net.deliver"), 2);
        assert_eq!(get("net.drop_dead"), 1);
        assert_eq!(get("net.send_failed"), 1);
        assert_eq!(get("net.node_fail"), 1);
    }

    #[test]
    fn ctx_trace_reaches_the_recorder() {
        use crate::trace::{ProtoEvent, TraceEvent};
        let mut sim = ring();
        sim.enable_recording(16);
        sim.with_node_ctx(1, |_, ctx| {
            assert!(ctx.tracing());
            ctx.trace(|| ProtoEvent {
                kind: "test.mark",
                flow: Some(7),
                a: 1,
                b: 2,
            });
        });
        let rec = sim.recorder().unwrap();
        let marks: Vec<_> = rec
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Proto(p) if p.kind == "test.mark"))
            .collect();
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].node, 1);
        // Without a recorder the closure must not run.
        let mut sim2 = ring();
        sim2.with_node_ctx(0, |_, ctx| {
            assert!(!ctx.tracing());
            ctx.trace(|| unreachable!("trace closure ran with recording off"));
        });
    }

    /// Any host can run a handler: a `Ctx` over plain buffers, no `Sim`.
    #[test]
    fn ctx_new_hosts_a_handler_over_plain_buffers() {
        use rand::Rng;
        struct Probe;
        impl Node<Hop, World> for Probe {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Hop, World>, _from: usize, _msg: Hop) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Hop, World>, token: u64) {
                let (me, now) = (ctx.me(), ctx.now());
                ctx.world().delivered.push((me, now));
                let ttl = ctx.rng().gen_range(5..6);
                ctx.send(me, Hop { ttl });
                ctx.send(3, Hop { ttl: 1 });
                ctx.set_timer(SimTime::from_millis(7), token + 1);
                ctx.trace(|| ProtoEvent {
                    kind: "test.mark",
                    flow: None,
                    a: token,
                    b: 0,
                });
            }
        }
        let at = SimTime::from_millis(40);
        let run = |mut recorder: Option<FlightRecorder>| {
            let mut world = World::default();
            let mut rng = SmallRng::seed_from_u64(1);
            let (mut outbox, mut timers) = (Vec::new(), Vec::new());
            let mut ctx = Ctx::new(
                2,
                at,
                &mut world,
                &mut rng,
                &mut outbox,
                &mut timers,
                recorder.as_mut(),
            );
            Probe.on_timer(&mut ctx, 9);
            if !ctx.tracing() {
                ctx.trace(|| unreachable!("trace closure ran with no recorder"));
            }
            assert_eq!(world.delivered, [(2, at)]);
            let sent: Vec<(usize, u32)> = outbox.iter().map(|(d, m)| (*d, m.ttl)).collect();
            assert_eq!(sent, [(2, 5), (3, 1)], "the outbox keeps send order");
            assert_eq!(timers, [(SimTime::from_millis(7), 10)]);
            recorder
        };
        let rec = run(Some(FlightRecorder::new(4))).expect("the recorder handed in");
        let got: Vec<_> = rec.iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].time, got[0].node), (at, 2));
        assert!(matches!(got[0].event, TraceEvent::Proto(p) if p.kind == "test.mark" && p.a == 9));
        assert!(run(None).is_none());
    }

    #[test]
    fn split_run_resumes_bit_identically() {
        use crate::fault::{FaultPlane, LinkPolicy};
        let seed_run = || {
            let mut sim = ring();
            let mut fp = FaultPlane::new(42);
            fp.set_global_policy(LinkPolicy {
                drop_prob: 0.2,
                dup_prob: 0.2,
                extra_delay: SimTime::from_millis(1),
                jitter: SimTime::from_millis(4),
            });
            sim.install_fault_plane(fp);
            sim.enable_recording(64);
            sim.schedule_timer(SimTime::ZERO, 0, 30);
            sim.schedule_timer(SimTime::from_millis(3), 2, 30);
            sim
        };

        // Straight-through reference.
        let mut full = seed_run();
        full.run(10_000);
        let (_, w_full, net_full) = full.into_parts();

        // Split run: halfway, export, serialize, drop, restore, finish.
        let mut first = seed_run();
        first.run(40);
        let world_mid = std::mem::take(first.world_mut());
        let snap = first.export_state();
        let topo = Arc::clone(first.topology());
        let bytes = hypersub_snapshot::to_sealed_bytes(&snap);
        drop(first);
        drop(snap);

        let snap2: SimSnapshot<Hop> = hypersub_snapshot::from_sealed_bytes(&bytes).unwrap();
        let mut resumed = Sim::from_snapshot(
            topo,
            vec![RingNode, RingNode, RingNode, RingNode],
            world_mid,
            snap2,
        );
        resumed.run(10_000);
        let rec = resumed.recorder().unwrap().kind_counts();
        let (_, w_resumed, net_resumed) = resumed.into_parts();

        assert_eq!(w_full.delivered, w_resumed.delivered);
        assert_eq!(net_full, net_resumed);
        assert!(!rec.is_empty());
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut sim = ring();
        sim.schedule_timer(SimTime::ZERO, 0, 3);
        sim.run_until(SimTime::from_millis(25));
        // Deliveries at 10, 20 happen; 30, 40 do not.
        assert_eq!(sim.world().delivered.len(), 2);
        assert_eq!(sim.pending(), 1);
    }
}
