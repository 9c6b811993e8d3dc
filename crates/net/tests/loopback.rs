//! Live nodes polled on the test's own thread, talking over real
//! loopback TCP: framing, handshake, connection reuse, timers,
//! self-sends, fail-stop reporting, and hostile peers.

use hypersub_net::driver::{run_until, LiveConfig, LiveNode};
use hypersub_net::frame::{handshake, write_frame, MAX_FRAME};
use hypersub_simnet::{Ctx, Node, Payload, SimTime, WireMsg};
use hypersub_snapshot::{Error, Reader, Writer};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
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

type Live<N> = LiveNode<N, TestMsg, TestWorld>;

/// Polls `nodes` on this thread until `cond` holds; fails after 10 s.
fn wait_until<N: Node<TestMsg, TestWorld>>(
    nodes: &mut [Live<N>],
    cond: impl FnMut(&mut [Live<N>]) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    assert!(
        run_until(nodes, deadline, cond),
        "condition not reached in 10s"
    );
}

fn live<N: Node<TestMsg, TestWorld>>(
    node: N,
    listener: TcpListener,
    index: usize,
    peers: &[SocketAddr],
) -> Live<N> {
    LiveNode::new(
        node,
        TestWorld::default(),
        listener,
        LiveConfig {
            index,
            peers: peers.to_vec(),
            seed: 3,
        },
    )
    .unwrap()
}

/// `n` nodes of one kind listening on fresh loopback ports, and those
/// ports.
fn ring<N: Node<TestMsg, TestWorld>>(
    n: usize,
    make: impl Fn() -> N,
) -> (Vec<Live<N>>, Vec<SocketAddr>) {
    let ls: Vec<_> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<_> = ls.iter().map(|l| l.local_addr().unwrap()).collect();
    let nodes = ls
        .into_iter()
        .enumerate()
        .map(|(i, l)| live(make(), l, i, &peers))
        .collect();
    (nodes, peers)
}

#[test]
fn two_drivers_deliver_over_loopback_tcp() {
    let (mut nodes, _) = ring(2, || PingPong);

    // Node 0 pings node 1 three times over one reused connection; each
    // ping comes back as a pong on a connection node 1 dials back.
    for n in 0..3u64 {
        nodes[0].call(|_node, ctx| ctx.send(1, TestMsg::Ping(n)));
    }
    wait_until(&mut nodes, |n| n[0].world.pongs.len() == 3);
    assert_eq!(nodes[1].world.pings, vec![0, 1, 2]);
    assert_eq!(nodes[0].world.pongs, vec![0, 1, 2]);
}

#[test]
fn timers_fire_and_self_sends_loop_back() {
    let (mut nodes, _) = ring(1, || PingPong);
    nodes[0].call(|_n, ctx| ctx.set_timer(SimTime::from_millis(20), 77));
    // The timer handler self-sends Ping(77); the node then pongs itself.
    wait_until(&mut nodes, |n| n[0].world.pongs == [77]);
    assert!(nodes[0].world.timer_fired);
    assert_eq!(nodes[0].world.pings, vec![77]);
}

/// Parity rule 2: a self-send waits behind the handler's other sends
/// whichever way the handler was entered. The simulator delivers
/// `Ping(2)` and `Ping(3)` to peer 1 at the same instant, `Ping(2)` first
/// (lower sequence number); a driver that ran the self-send's handler
/// before transmitting the rest of the outbox would deliver `[3, 2]`.
#[test]
fn self_send_queues_behind_the_rest_of_the_outbox_from_any_entry() {
    let (mut nodes, _) = ring(2, || SelfThenPeer);

    nodes[0].call(|_n, ctx| ctx.set_timer(SimTime::from_millis(5), 0));
    wait_until(&mut nodes, |n| n[1].world.pings.len() == 2);
    assert_eq!(nodes[1].world.pings, vec![2, 3]);

    nodes[0].call(|_n, ctx| SelfThenPeer::kick(ctx));
    wait_until(&mut nodes, |n| n[1].world.pings.len() == 4);
    assert_eq!(nodes[1].world.pings, vec![2, 3, 2, 3]);
}

#[test]
fn dead_peer_surfaces_as_send_failed() {
    let (mut nodes, _) = ring(2, || PingPong);
    nodes[0].call(|_n, ctx| ctx.send(1, TestMsg::Ping(0)));
    wait_until(&mut nodes, |n| n[0].world.pongs.len() == 1);

    // Peer 1 was up and goes away: its listener closes, so once the
    // cached connection breaks the redial is refused — fail-stop. (The
    // first writes after the shutdown can still land in socket buffers.)
    nodes.truncate(1);
    wait_until(&mut nodes, |n| {
        n[0].call(|_n, ctx| ctx.send(1, TestMsg::Ping(9)));
        !n[0].world.failed_sends.is_empty()
    });
    assert!(nodes[0].world.failed_sends.iter().all(|&dst| dst == 1));
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
    let mut n0 = live(PingPong, l0, 0, &peers);

    // The send is flushed (refused) before `call` returns: the ping is
    // lost, and no failure was reported.
    n0.call(|_n, ctx| ctx.send(1, TestMsg::Ping(1)));
    assert!(n0.world.failed_sends.is_empty());

    // Peer 1 comes up; node 0 reaches it like any other peer.
    let n1 = live(PingPong, TcpListener::bind(addr1).unwrap(), 1, &peers);
    let mut nodes = [n0, n1];
    nodes[0].call(|_n, ctx| ctx.send(1, TestMsg::Ping(2)));
    wait_until(&mut nodes, |n| n[0].world.pongs == [2]);
    assert_eq!(nodes[1].world.pings, vec![2]);
    assert!(nodes[0].world.failed_sends.is_empty());
}

/// True once the node has closed its end of `client`'s connection.
fn closed(mut client: &TcpStream) -> bool {
    !matches!(client.read(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
}

/// A peer that handshakes and then sends a frame that does not decode,
/// or a length prefix past `MAX_FRAME`, costs the node that one
/// connection: a real peer's cached connection keeps working.
#[test]
fn hostile_peer_loses_only_its_own_connection() {
    let (mut nodes, peers) = ring(2, || PingPong);
    nodes[1].call(|_n, ctx| ctx.send(0, TestMsg::Ping(1)));
    wait_until(&mut nodes, |n| n[1].world.pongs == [1]);

    let mut garbage = TcpStream::connect(peers[0]).unwrap();
    write_frame(&mut garbage, &handshake(1)).unwrap();
    write_frame(&mut garbage, &[0xff; 9]).unwrap();
    let mut oversize = TcpStream::connect(peers[0]).unwrap();
    write_frame(&mut oversize, &handshake(1)).unwrap();
    oversize
        .write_all(&(MAX_FRAME as u32 + 1).to_le_bytes())
        .unwrap();
    for client in [&garbage, &oversize] {
        client.set_nonblocking(true).unwrap();
    }
    wait_until(&mut nodes, |_| closed(&garbage) && closed(&oversize));

    nodes[1].call(|_n, ctx| ctx.send(0, TestMsg::Ping(2)));
    wait_until(&mut nodes, |n| n[1].world.pongs == [1, 2]);
    assert_eq!(nodes[0].world.pings, vec![1, 2]);
}

/// A peer that handshakes, sends 3 bytes of a frame and goes silent, and
/// one that connects and sends nothing, are dropped once the driver's
/// stall timeout (2 s) passes. A raw connection idle for as long between
/// whole frames stays open, and the real peer is still served.
#[test]
fn a_peer_stalled_partway_through_a_frame_is_dropped() {
    let (mut nodes, peers) = ring(2, || PingPong);
    nodes[1].call(|_n, ctx| ctx.send(0, TestMsg::Ping(1)));
    wait_until(&mut nodes, |n| n[1].world.pongs == [1]);

    let mut stalled = TcpStream::connect(peers[0]).unwrap();
    write_frame(&mut stalled, &handshake(1)).unwrap();
    stalled.write_all(&[9, 0, 0]).unwrap();
    let silent = TcpStream::connect(peers[0]).unwrap();
    let mut idle = TcpStream::connect(peers[0]).unwrap();
    write_frame(&mut idle, &handshake(1)).unwrap();
    write_frame(&mut idle, &TestMsg::Pong(5).to_wire_bytes()).unwrap();
    for client in [&stalled, &silent, &idle] {
        client.set_nonblocking(true).unwrap();
    }
    let start = Instant::now();
    wait_until(&mut nodes, |_| closed(&stalled) && closed(&silent));
    assert!(
        start.elapsed() >= Duration::from_secs(2),
        "dropped before the timeout"
    );
    assert!(!closed(&idle), "a connection idle between frames is kept");

    nodes[1].call(|_n, ctx| ctx.send(0, TestMsg::Ping(2)));
    wait_until(&mut nodes, |n| n[1].world.pongs == [1, 2]);
    assert_eq!(nodes[0].world.pings, vec![1, 2]);
    assert_eq!(nodes[0].world.pongs, vec![5], "the idle peer's frame");
}

/// One thread hosts four nodes; every node pings every other.
#[test]
fn four_nodes_on_one_thread_ping_all_to_all() {
    const N: usize = 4;
    let (mut nodes, _) = ring(N, || PingPong);
    for (i, node) in nodes.iter_mut().enumerate() {
        node.call(|_n, ctx| {
            for dst in (0..N).filter(|&d| d != i) {
                ctx.send(dst, TestMsg::Ping(i as u64));
            }
        });
    }
    wait_until(&mut nodes, |n| {
        n.iter().all(|x| x.world.pongs.len() == N - 1)
    });
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(node.world.pongs, vec![i as u64; N - 1]);
        let mut pings = node.world.pings.clone();
        pings.sort_unstable();
        let others: Vec<u64> = (0..N as u64).filter(|&j| j != i as u64).collect();
        assert_eq!(pings, others);
    }
}
