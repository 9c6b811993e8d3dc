//! The live driver: a protocol node, its world and a timer wheel, owned
//! and polled by the caller's thread over non-blocking TCP sockets.
//!
//! The driver is the live-network counterpart of `simnet::Sim::step`:
//! every handler — message, timer, send failure, control-plane call — runs
//! under a `simnet::Ctx` built in one place, `LiveNode::dispatch`. The
//! parity rules it preserves (see DESIGN.md "Transport & runtime"):
//!
//! * **Single-threaded protocol state.** Handlers run only on the thread
//!   that polls the node, and nothing else touches it. A handler sees the
//!   same exclusive `&mut self` + context it sees under the simulator.
//! * **Self-sends loop back in order.** A message a node sends to itself
//!   joins the driver's one work queue behind already-queued work and
//!   behind the rest of the handler's outbox, whichever way the handler
//!   was entered, exactly like the simulator's zero-latency
//!   self-delivery.
//! * **Fail-stop surfaces as `on_send_failed`.** A dial or write failure
//!   to a peer that was up queues the node's failure handler, which is
//!   how the simulator reports a dead destination. A peer that has never
//!   been connected in either direction is not up *yet*, which the
//!   simulator has no counterpart for (all its nodes exist from time
//!   zero): the message is lost without a verdict (see `ConnMgr::send`).

use crate::frame::{handshake, parse_handshake, split_frame, write_frame};
use crate::wheel::TimerWheel;
use hypersub_simnet::{Ctx, Node, Payload, SimTime, WireMsg};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long a dial may block the polling thread. Short on purpose: a
/// dead peer must degrade into `on_send_failed`, not a stall.
const DIAL_TIMEOUT: Duration = Duration::from_millis(500);

/// The longest [`run_until`] sleeps after a pass in which no node had
/// anything to do: it bounds how late a frame that arrives during the
/// sleep is read.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// How long an inbound connection may go without a byte while its
/// handshake or a frame is incomplete before it is dropped. A peer that
/// stops partway would otherwise pin a socket and up to `MAX_FRAME` bytes
/// of buffer for good; an honest dialer writes each frame whole, so a
/// frame that stays incomplete this long is from a stalled or hostile
/// peer. A connection idle between whole frames is kept.
const STALL_TIMEOUT: Duration = Duration::from_secs(2);

/// Configuration for one live node's transport.
pub struct LiveConfig {
    /// This node's index into `peers`.
    pub index: usize,
    /// Transport addresses of every node in the deployment, by index.
    pub peers: Vec<SocketAddr>,
    /// Seed for the node's deterministic RNG stream.
    pub seed: u64,
}

/// Outbound connection cache: one reused TCP stream per destination,
/// redialed once on write failure before reporting fail-stop.
struct ConnMgr {
    me: usize,
    peers: Vec<SocketAddr>,
    conns: HashMap<usize, TcpStream>,
    /// Peers a connection has ever existed with: dialed successfully, or
    /// heard from.
    seen: HashSet<usize>,
}

impl ConnMgr {
    /// Sends `frame` to `dst`; an error is fail-stop evidence about a peer
    /// that was up. A failed send to a peer never yet seen reports `Ok`
    /// and loses the frame like a datagram: at start-up processes come up
    /// in any order, a refused first dial means "not listening yet", and
    /// calling it fail-stop makes Chord tombstone its bootstrap contact —
    /// a tombstone a small ring never lifts, because nobody else
    /// introduces the two. Periodic protocol traffic (the join retry,
    /// stabilize) covers the loss; a peer that never comes up is never in
    /// anyone's routing state to begin with.
    fn send(&mut self, dst: usize, frame: &[u8]) -> io::Result<()> {
        match self.transmit(dst, frame) {
            Ok(()) => {
                self.seen.insert(dst);
                Ok(())
            }
            Err(_) if !self.seen.contains(&dst) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn transmit(&mut self, dst: usize, frame: &[u8]) -> io::Result<()> {
        if let Some(s) = self.conns.get_mut(&dst) {
            if write_frame(s, frame).is_ok() {
                return Ok(());
            }
            // Stale connection (peer restarted, socket reset): drop the
            // cached stream and fall through to a fresh dial.
            self.conns.remove(&dst);
        }
        let addr = *self
            .peers
            .get(dst)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "unknown peer index"))?;
        let mut s = TcpStream::connect_timeout(&addr, DIAL_TIMEOUT)?;
        s.set_nodelay(true)?;
        write_frame(&mut s, &handshake(self.me))?;
        write_frame(&mut s, frame)?;
        self.conns.insert(dst, s);
        Ok(())
    }
}

/// A handler the driver owes its node, queued behind earlier work.
enum Work<M> {
    Deliver { from: usize, msg: M },
    Failed { dst: usize, msg: M },
}

/// An accepted connection and the bytes read from it that do not yet
/// make a whole frame.
struct Inbound {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The dialer's node index, once its handshake frame has arrived.
    from: Option<usize>,
    /// When the connection was accepted or last delivered a byte.
    heard: Instant,
}

impl Inbound {
    /// Whether the peer stopped partway through its handshake or a frame
    /// and has been silent for [`STALL_TIMEOUT`].
    fn stalled(&self) -> bool {
        (self.from.is_none() || !self.buf.is_empty()) && self.heard.elapsed() >= STALL_TIMEOUT
    }
}

/// One live node: the protocol state machine and its world, plus
/// everything that feeds it — the RNG, the timer wheel, the outbound
/// connection cache, and a non-blocking listener with its accepted
/// connections. The caller's thread owns it and drives it with
/// [`LiveNode::poll`] (or [`run_until`]); nothing runs in between.
pub struct LiveNode<N, M, W> {
    /// The protocol state machine.
    pub node: N,
    /// Its world: metrics and whatever else its handlers record.
    pub world: W,
    rng: SmallRng,
    wheel: TimerWheel,
    conns: ConnMgr,
    start: Instant,
    /// Self-sends and send failures waiting for their handler, in the
    /// order they were produced.
    queue: VecDeque<Work<M>>,
    listener: TcpListener,
    inbound: Vec<Inbound>,
}

impl<N, M, W> LiveNode<N, M, W>
where
    N: Node<M, W>,
    M: WireMsg + Payload,
{
    /// Hosts `node` + `world` on `listener`, which is switched to
    /// non-blocking mode. Nothing is read until the first poll.
    pub fn new(node: N, world: W, listener: TcpListener, cfg: LiveConfig) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(Self {
            node,
            world,
            rng: SmallRng::seed_from_u64(
                cfg.seed ^ (cfg.index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            wheel: TimerWheel::default(),
            conns: ConnMgr {
                me: cfg.index,
                peers: cfg.peers,
                conns: HashMap::new(),
                seen: HashSet::new(),
            },
            start: Instant::now(),
            queue: VecDeque::new(),
            listener,
            inbound: Vec::new(),
        })
    }

    /// One pass: fire the timers that are due, accept new connections,
    /// then read every inbound connection until it would block, entering
    /// each whole message as it is split off. A connection that closes,
    /// sends a frame that is not ours, or stalls partway through a frame
    /// (silent for `STALL_TIMEOUT`, 2 s) is dropped; the node and its other
    /// connections go on. Returns whether the pass did anything.
    pub fn poll(&mut self) -> bool {
        let mut busy = false;
        while let Some(token) = self.wheel.pop_due(self.elapsed()) {
            self.call(|n, ctx| n.on_timer(ctx, token));
            busy = true;
        }
        while let Ok((stream, _)) = self.listener.accept() {
            if stream.set_nonblocking(true).is_ok() {
                self.inbound.push(Inbound {
                    stream,
                    buf: Vec::new(),
                    from: None,
                    heard: Instant::now(),
                });
            }
            busy = true;
        }
        let mut inbound = std::mem::take(&mut self.inbound);
        inbound.retain_mut(|conn| {
            let read = self.read_from(conn);
            busy |= !matches!(read, Ok(false));
            read.is_ok() && !conn.stalled()
        });
        self.inbound = inbound;
        busy
    }

    /// Reads `conn` until it would block, splitting off and entering every
    /// whole frame after each chunk, so the buffer never holds more than
    /// one partial frame and one chunk. Returns whether any byte arrived;
    /// `Err` ends the connection.
    fn read_from(&mut self, conn: &mut Inbound) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let mut read = false;
        loop {
            let n = match conn.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(read),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            read = true;
            conn.heard = Instant::now();
            conn.buf.extend_from_slice(&chunk[..n]);
            let mut at = 0;
            while let Some((frame, len)) = split_frame(&conn.buf[at..])? {
                at += len;
                let Some(from) = conn.from else {
                    conn.from = Some(parse_handshake(frame)?);
                    continue;
                };
                // A corrupt or foreign-version frame ends the connection;
                // the peer redials.
                let msg = M::from_wire_bytes(frame)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                self.conns.seen.insert(from);
                self.call(|n, ctx| n.on_message(ctx, from, msg));
            }
            conn.buf.drain(..at);
        }
    }

    fn elapsed(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    /// How long this node may sleep before its next timer falls due,
    /// capped at [`IDLE_SLEEP`].
    fn idle_for(&self) -> Duration {
        self.wheel.next_deadline().map_or(IDLE_SLEEP, |at| {
            let wait = at.saturating_sub(self.elapsed()).as_micros();
            Duration::from_micros(wait).min(IDLE_SLEEP)
        })
    }

    /// Runs `f` under a fresh context, then applies what it asked for:
    /// timers are armed, remote sends are transmitted in outbox order (a
    /// failed one queues `on_send_failed`), and self-sends queue behind
    /// already-queued work — mirroring the simulator's flush.
    fn dispatch<R>(&mut self, f: impl FnOnce(&mut N, &mut Ctx<'_, M, W>) -> R) -> R {
        let (me, now) = (self.conns.me, self.elapsed());
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        // No recorder: live tracing is ROADMAP item 4's to wire.
        let mut ctx = Ctx::new(
            me,
            now,
            &mut self.world,
            &mut self.rng,
            &mut outbox,
            &mut timers,
            None,
        );
        let out = f(&mut self.node, &mut ctx);
        for (delay, token) in timers {
            self.wheel.arm(now + delay, token);
        }
        for (dst, msg) in outbox {
            if dst == me {
                self.queue.push_back(Work::Deliver { from: dst, msg });
            } else if self.conns.send(dst, &msg.to_wire_bytes()).is_err() {
                self.queue.push_back(Work::Failed { dst, msg });
            }
        }
        out
    }

    /// Enters the node: runs `f` — a handler, or the control plane's
    /// doorway into protocol state — with exclusive node + context access,
    /// then everything it transitively queues, and returns what `f`
    /// returned.
    ///
    /// The context's `now()` is the wall-clock duration since the node
    /// was created, expressed as [`SimTime`] so protocol-level arithmetic
    /// (timeouts, lease periods) is unchanged from the simulator.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut N, &mut Ctx<'_, M, W>) -> R) -> R {
        let out = self.dispatch(f);
        while let Some(work) = self.queue.pop_front() {
            self.dispatch(|n, ctx| match work {
                Work::Deliver { from, msg } => n.on_message(ctx, from, msg),
                Work::Failed { dst, msg } => n.on_send_failed(ctx, dst, msg),
            });
        }
        out
    }
}

/// Hosts `nodes` on the calling thread: polls each in turn until `done`
/// holds (checked before every pass) or `deadline` passes, and returns
/// whether `done` was reached. After a pass in which no node did
/// anything it sleeps until the earliest timer falls due, at most 1 ms.
pub fn run_until<N, M, W>(
    nodes: &mut [LiveNode<N, M, W>],
    deadline: Instant,
    mut done: impl FnMut(&mut [LiveNode<N, M, W>]) -> bool,
) -> bool
where
    N: Node<M, W>,
    M: WireMsg + Payload,
{
    loop {
        if done(nodes) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        let mut busy = false;
        for node in nodes.iter_mut() {
            busy |= node.poll();
        }
        if !busy {
            let nap = nodes.iter().map(LiveNode::idle_for).min();
            std::thread::sleep(nap.unwrap_or(IDLE_SLEEP));
        }
    }
}
