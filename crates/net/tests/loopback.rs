//! Two live drivers talking over real loopback TCP: framing, handshake,
//! connection reuse, timers, self-sends, and fail-stop reporting.

use hypersub_net::driver::{spawn, LiveConfig, NetHandle};
use hypersub_simnet::{Ctx, Node, Payload, SimTime, WireMsg};
use hypersub_snapshot::{Error, Reader, Writer};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
enum TestMsg {
    Ping(u64),
    Pong(u64),
}

impl Payload for TestMsg {
    fn wire_size(&self) -> usize {
        9
    }
}

impl WireMsg for TestMsg {
    const WIRE_VERSION: u8 = 7;

    fn wire_encode(&self, w: &mut Writer) {
        match self {
            TestMsg::Ping(n) => {
                w.put_u8(0);
                w.put_u64(*n);
            }
            TestMsg::Pong(n) => {
                w.put_u8(1);
                w.put_u64(*n);
            }
        }
    }

    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.take_u8()? {
            0 => TestMsg::Ping(r.take_u64()?),
            1 => TestMsg::Pong(r.take_u64()?),
            _ => return Err(Error::InvalidValue("test msg tag")),
        })
    }
}

#[derive(Default)]
struct TestWorld {
    pings: Vec<u64>,
    pongs: Vec<u64>,
    timer_fired: bool,
    failed_sends: Vec<usize>,
}

/// Replies `Pong(n)` to every `Ping(n)`; on a timer, self-sends one ping.
struct PingPong;

type Cx<'a> = Ctx<'a, TestMsg, TestWorld>;

impl Node<TestMsg, TestWorld> for PingPong {
    fn on_message(&mut self, ctx: &mut Cx<'_>, from: usize, msg: TestMsg) {
        match msg {
            TestMsg::Ping(n) => {
                ctx.world().pings.push(n);
                ctx.send(from, TestMsg::Pong(n));
            }
            TestMsg::Pong(n) => ctx.world().pongs.push(n),
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_>, token: u64) {
        ctx.world().timer_fired = true;
        let me = ctx.me();
        ctx.send(me, TestMsg::Ping(token));
    }

    fn on_send_failed(&mut self, ctx: &mut Cx<'_>, dst: usize, _msg: TestMsg) {
        ctx.world().failed_sends.push(dst);
    }
}

/// Sends itself `Ping(100)` and then peer 1 `Ping(2)`; handling the
/// `Ping(100)` sends peer 1 `Ping(3)`. Any other ping is recorded.
struct SelfThenPeer;

impl SelfThenPeer {
    fn kick(ctx: &mut Cx<'_>) {
        let me = ctx.me();
        ctx.send(me, TestMsg::Ping(100));
        ctx.send(1, TestMsg::Ping(2));
    }
}

impl Node<TestMsg, TestWorld> for SelfThenPeer {
    fn on_message(&mut self, ctx: &mut Cx<'_>, _from: usize, msg: TestMsg) {
        match msg {
            TestMsg::Ping(100) => ctx.send(1, TestMsg::Ping(3)),
            TestMsg::Ping(n) => ctx.world().pings.push(n),
            TestMsg::Pong(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Cx<'_>, _token: u64) {
        Self::kick(ctx);
    }
}

fn wait_until(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in 10s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn spawn_node<N: Node<TestMsg, TestWorld> + Send + 'static>(
    node: N,
    listener: TcpListener,
    index: usize,
    peers: &[SocketAddr],
) -> NetHandle<N, TestMsg, TestWorld> {
    spawn(
        node,
        TestWorld::default(),
        listener,
        LiveConfig {
            index,
            peers: peers.to_vec(),
            seed: 3,
        },
    )
}

#[test]
fn two_drivers_deliver_over_loopback_tcp() {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let h0 = spawn_node(PingPong, l0, 0, &peers);
    let h1 = spawn_node(PingPong, l1, 1, &peers);

    // Node 0 pings node 1 three times over one reused connection; each
    // ping comes back as a pong on a connection node 1 dials back.
    for n in 0..3u64 {
        h0.invoke(move |_node, ctx| ctx.send(1, TestMsg::Ping(n)));
    }
    wait_until(|| h0.query(|_n, ctx| ctx.world().pongs.len()) == 3);
    assert_eq!(h1.query(|_n, ctx| ctx.world().pings.clone()), vec![0, 1, 2]);
    assert_eq!(h0.query(|_n, ctx| ctx.world().pongs.clone()), vec![0, 1, 2]);

    h0.shutdown();
    h1.shutdown();
}

#[test]
fn timers_fire_and_self_sends_loop_back() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = [l.local_addr().unwrap()];
    let h = spawn_node(PingPong, l, 0, &peers);
    h.invoke(|_n, ctx| ctx.set_timer(SimTime::from_millis(20), 77));
    // The timer handler self-sends Ping(77); the node then pongs itself.
    wait_until(|| h.query(|_n, ctx| ctx.world().pongs.clone()) == vec![77]);
    assert!(h.query(|_n, ctx| ctx.world().timer_fired));
    assert_eq!(h.query(|_n, ctx| ctx.world().pings.clone()), vec![77]);
    h.shutdown();
}

/// Parity rule 2: a self-send waits behind the handler's other sends
/// whichever way the handler was entered. The simulator delivers
/// `Ping(2)` and `Ping(3)` to peer 1 at the same instant, `Ping(2)` first
/// (lower sequence number); a driver that ran the self-send's handler
/// before transmitting the rest of the outbox would deliver `[3, 2]`.
#[test]
fn self_send_queues_behind_the_rest_of_the_outbox_from_any_entry() {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let h0 = spawn_node(SelfThenPeer, l0, 0, &peers);
    let h1 = spawn_node(SelfThenPeer, l1, 1, &peers);

    h0.invoke(|_n, ctx| ctx.set_timer(SimTime::from_millis(5), 0));
    wait_until(|| h1.query(|_n, ctx| ctx.world().pings.len()) == 2);
    assert_eq!(h1.query(|_n, ctx| ctx.world().pings.clone()), vec![2, 3]);

    h0.invoke(|_n, ctx| SelfThenPeer::kick(ctx));
    wait_until(|| h1.query(|_n, ctx| ctx.world().pings.len()) == 4);
    assert_eq!(
        h1.query(|_n, ctx| ctx.world().pings.clone()),
        vec![2, 3, 2, 3]
    );

    h0.shutdown();
    h1.shutdown();
}

#[test]
fn dead_peer_surfaces_as_send_failed() {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = [l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let h0 = spawn_node(PingPong, l0, 0, &peers);
    let h1 = spawn_node(PingPong, l1, 1, &peers);
    h0.invoke(|_n, ctx| ctx.send(1, TestMsg::Ping(0)));
    wait_until(|| h0.query(|_n, ctx| ctx.world().pongs.len()) == 1);

    // Peer 1 was up and goes away: its listener closes, so once the
    // cached connection breaks the redial is refused — fail-stop. (The
    // first writes after the shutdown can still land in socket buffers.)
    h1.shutdown();
    wait_until(|| {
        h0.invoke(|_n, ctx| ctx.send(1, TestMsg::Ping(9)));
        !h0.query(|_n, ctx| ctx.world().failed_sends.is_empty())
    });
    assert!(h0
        .query(|_n, ctx| ctx.world().failed_sends.clone())
        .iter()
        .all(|&dst| dst == 1));
    h0.shutdown();
}

/// Start-up order must not matter: a peer that refuses the very first
/// dial is not listening *yet*. Reporting that as fail-stop made Chord
/// tombstone its bootstrap contact for good (the 4-process smoke test
/// hung whenever a joiner out-raced node 0's `bind`).
#[test]
fn peer_not_yet_listening_is_not_fail_stop() {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    // Reserve peer 1's address, then release it: nobody listens there.
    let addr1 = {
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        l1.local_addr().unwrap()
    };
    let peers = [l0.local_addr().unwrap(), addr1];
    let h0 = spawn_node(PingPong, l0, 0, &peers);

    // The query runs after the send was flushed (refused) on the driver
    // thread: the ping is lost, and no failure was reported.
    h0.invoke(|_n, ctx| ctx.send(1, TestMsg::Ping(1)));
    assert!(h0.query(|_n, ctx| ctx.world().failed_sends.is_empty()));

    // Peer 1 comes up; node 0 reaches it like any other peer.
    let h1 = spawn_node(PingPong, TcpListener::bind(addr1).unwrap(), 1, &peers);
    h0.invoke(|_n, ctx| ctx.send(1, TestMsg::Ping(2)));
    wait_until(|| h0.query(|_n, ctx| ctx.world().pongs.clone()) == vec![2]);
    assert_eq!(h1.query(|_n, ctx| ctx.world().pings.clone()), vec![2]);
    assert!(h0.query(|_n, ctx| ctx.world().failed_sends.is_empty()));
    h0.shutdown();
    h1.shutdown();
}
