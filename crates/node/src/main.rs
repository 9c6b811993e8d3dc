//! `hypersub-node`: a runnable content-based pub/sub node.
//!
//! Hosts the exact `HyperSubNode` state machine the simulator tests —
//! Chord routing and maintenance, LPH zone mapping, subscription
//! installation, rendezvous delivery — over `hypersub-net`'s TCP runtime.
//! N local processes form a ring, subscribe, and deliver real events.
//!
//! ```text
//! hypersub-node serve --index 0 --listen 127.0.0.1:7000 \
//!     --control 127.0.0.1:7100 \
//!     --peers 127.0.0.1:7000,127.0.0.1:7001 --seed 42
//! hypersub-node ctl 127.0.0.1:7100 sub 10 10 30 30
//! hypersub-node ctl 127.0.0.1:7101 pub 20 20
//! hypersub-node ctl 127.0.0.1:7100 deliveries
//! ```
//!
//! Control protocol (one request line of at most 4 KiB, one `ok ...` /
//! `err ...` reply):
//!
//! * `sub <x0> <y0> <x1> <y1>` — subscribe to the rectangle, returns the
//!   subscription id as `nid:iid`
//! * `pub <x> <y>` — publish an event at the point, returns its event id
//! * `deliveries` — number of events delivered to this node's subscriptions
//! * `status` — ring view: node id, successor indexes, predecessor, load
//! * `quit` — shut the node down
//!
//! One thread does everything: it polls the node's transport and the
//! control listener in turn, so a control request runs between two
//! protocol handlers, never beside one.
//!
//! Every process is started with the full `--peers` list (index → address)
//! and a shared `--seed`; ring identifiers are drawn deterministically
//! from the seed, so all processes agree on the id space without any
//! out-of-band exchange. Node `--bootstrap` (default 0) is the join
//! contact for everyone else.

use hypersub_chord::builder::random_ids;
use hypersub_chord::ChordState;
use hypersub_core::config::SystemConfig;
use hypersub_core::model::{Event, Registry, SchemeDef, Subscription};
use hypersub_core::msg::HyperMsg;
use hypersub_core::node::HyperSubNode;
use hypersub_core::sim::publish_counted;
use hypersub_core::world::HyperWorld;
use hypersub_lph::{Point, Rect};
use hypersub_net::driver::{run_until, LiveConfig, LiveNode};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Successor-list length for live rings (matches the sim ring builder).
const SUCC_LIST_LEN: usize = 16;

/// The demo content scheme every node serves: two attributes over
/// `[0, 100]`. A deployment would load schemes from configuration; the
/// control protocol only needs one to exercise real delivery.
fn demo_registry() -> Registry {
    Registry::new(vec![SchemeDef::builder("demo")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0)])
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hypersub-node serve --index I --listen ADDR --control ADDR \
         --peers A0,A1,... --seed S [--bootstrap I]\n  hypersub-node ctl ADDR CMD [ARGS...]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("ctl") => ctl(&args[1..]),
        _ => usage(),
    }
}

/// `ctl ADDR CMD...`: send one control line, print the reply.
fn ctl(args: &[String]) -> ExitCode {
    let Some((addr, cmd)) = args.split_first() else {
        return usage();
    };
    if cmd.is_empty() {
        return usage();
    }
    match request(addr, &cmd.join(" ")) {
        Ok(reply) if reply.starts_with("ok") => {
            print!("{reply}");
            ExitCode::SUCCESS
        }
        Ok(reply) => {
            print!("{reply}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("err {e}");
            ExitCode::FAILURE
        }
    }
}

fn request(addr: &str, line: &str) -> io::Result<String> {
    let addr: SocketAddr = addr
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad control address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    writeln!(stream, "{line}")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply)
}

struct ServeArgs {
    index: usize,
    listen: SocketAddr,
    control: SocketAddr,
    peers: Vec<SocketAddr>,
    seed: u64,
    bootstrap: usize,
}

fn parse_serve(args: &[String]) -> Option<ServeArgs> {
    let mut index = None;
    let mut listen = None;
    let mut control = None;
    let mut peers = None;
    let mut seed = 0u64;
    let mut bootstrap = 0usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next()?;
        match flag.as_str() {
            "--index" => index = Some(val.parse().ok()?),
            "--listen" => listen = Some(val.parse().ok()?),
            "--control" => control = Some(val.parse().ok()?),
            "--peers" => {
                peers = Some(
                    val.split(',')
                        .map(|a| a.parse().ok())
                        .collect::<Option<Vec<SocketAddr>>>()?,
                )
            }
            "--seed" => seed = val.parse().ok()?,
            "--bootstrap" => bootstrap = val.parse().ok()?,
            _ => return None,
        }
    }
    let (index, listen, control, peers) = (index?, listen?, control?, peers?);
    if index >= peers.len() || bootstrap >= peers.len() {
        return None;
    }
    Some(ServeArgs {
        index,
        listen,
        control,
        peers,
        seed,
        bootstrap,
    })
}

type Live = LiveNode<HyperSubNode, HyperMsg, HyperWorld>;

fn serve(args: &[String]) -> ExitCode {
    let Some(a) = parse_serve(args) else {
        return usage();
    };
    let n = a.peers.len();

    // Every process draws the same id vector from the shared seed, so the
    // ring id space is agreed without any out-of-band exchange.
    let id = random_ids(n, a.seed)[a.index];
    let node = HyperSubNode::new(
        ChordState::new(id, a.index, SUCC_LIST_LEN),
        Arc::new(demo_registry()),
        Arc::new(SystemConfig::default()),
    );

    let cfg = LiveConfig {
        index: a.index,
        peers: a.peers,
        seed: a.seed,
    };
    let live = TcpListener::bind(a.listen)
        .and_then(|l| LiveNode::new(node, HyperWorld::default(), l, cfg))
        .map_err(|e| eprintln!("err bind {}: {e}", a.listen));
    let control = TcpListener::bind(a.control)
        .and_then(|l| l.set_nonblocking(true).map(|()| l))
        .map_err(|e| eprintln!("err bind control {}: {e}", a.control));
    let (Ok(mut live), Ok(control)) = (live, control) else {
        return ExitCode::FAILURE;
    };

    // Start Chord maintenance and, on non-bootstrap nodes, the join.
    // The bootstrap node begins as a singleton ring that owns every key.
    let (index, bootstrap) = (a.index, a.bootstrap);
    live.call(|node, ctx| {
        node.start_maintenance(ctx);
        if index != bootstrap {
            for (dst, m) in node.maint.start_join(bootstrap) {
                ctx.send(dst, HyperMsg::Chord(m));
            }
        }
    });
    eprintln!("hypersub-node {index}: serving (id {id:#018x})");

    let mut control = Control {
        listener: control,
        conns: Vec::new(),
        // Event ids must be globally unique; partition the id space by
        // publisher index.
        next_event: ((index as u64) + 1) << 40,
    };
    // Serve until a `quit` is answered; each call is bounded only so the
    // deadline cannot overflow.
    let nodes = std::slice::from_mut(&mut live);
    let hour = Duration::from_secs(3600);
    while !run_until(nodes, Instant::now() + hour, |n| control.serve(&mut n[0])) {}
    ExitCode::SUCCESS
}

/// The longest request line, its newline included, a control connection
/// may send. A longer one is answered `err line too long` and costs that
/// connection: a peer that never sends a newline cannot grow the buffer.
const MAX_LINE: usize = 4096;

/// The non-blocking control listener and its open connections, each
/// holding the part of a request line read so far.
struct Control {
    listener: TcpListener,
    conns: Vec<(BufReader<TcpStream>, Vec<u8>)>,
    next_event: u64,
}

impl Control {
    /// Accepts new control connections and answers every request line
    /// that has arrived whole. True once a `quit` has been answered.
    fn serve(&mut self, node: &mut Live) -> bool {
        while let Ok((conn, _)) = self.listener.accept() {
            if conn.set_nonblocking(true).is_ok() {
                self.conns.push((BufReader::new(conn), Vec::new()));
            }
        }
        let mut quit = false;
        // A read error leaves the bytes read so far in `line`, so a
        // request split across packets completes on a later pass. A read
        // stops one byte past `MAX_LINE`, which tells a line too long.
        self.conns.retain_mut(|(conn, line)| loop {
            let room = (MAX_LINE + 1 - line.len()) as u64;
            match conn.by_ref().take(room).read_until(b'\n', line) {
                Ok(0) => return false,
                Ok(_) if line.len() > MAX_LINE => {
                    let _ = writeln!(conn.get_mut(), "err line too long");
                    return false;
                }
                Ok(_) => {
                    let text = String::from_utf8_lossy(line);
                    let (reply, q) = handle_command(node, text.trim(), &mut self.next_event);
                    line.clear();
                    quit |= q;
                    if writeln!(conn.get_mut(), "{reply}").is_err() {
                        return false;
                    }
                }
                Err(e) => return e.kind() == io::ErrorKind::WouldBlock,
            }
        });
        quit
    }
}

fn handle_command(live: &mut Live, line: &str, next_event: &mut u64) -> (String, bool) {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let floats =
        |xs: &[&str]| -> Option<Vec<f64>> { xs.iter().map(|x| x.parse::<f64>().ok()).collect() };
    // The served scheme's domain. A NaN or infinite coordinate fails its
    // bounds comparisons too, so it is out of domain as well.
    let space = &live.node.registry.scheme(0).space;
    let out_of_domain = || ("err out of domain".to_string(), false);
    match parts.as_slice() {
        ["sub", rest @ ..] if rest.len() == 4 => {
            let Some(v) = floats(rest) else {
                return ("err bad number".into(), false);
            };
            if v[0] > v[2] || v[1] > v[3] {
                return ("err empty rectangle".into(), false);
            }
            let rect = Rect::unchecked(vec![v[0], v[1]], vec![v[2], v[3]]);
            if !space.bounding_rect().contains_rect(&rect) {
                return out_of_domain();
            }
            let subid = live.call(|node, ctx| node.subscribe(ctx, 0, Subscription::new(rect)));
            (format!("ok sub {}:{}", subid.nid, subid.iid), false)
        }
        ["pub", rest @ ..] if rest.len() == 2 => {
            let Some(v) = floats(rest) else {
                return ("err bad number".into(), false);
            };
            let point = Point(v);
            if !space.contains_point(&point) {
                return out_of_domain();
            }
            let id = *next_event;
            *next_event += 1;
            // One process sees its own subscriptions only, so there is no
            // ground truth to count: the event is recorded with 0 expected.
            live.call(|node, ctx| publish_counted(node, ctx, 0, Event { id, point }, 0));
            (format!("ok pub {id}"), false)
        }
        ["deliveries"] => {
            let n = live.world.metrics.deliveries().len();
            (format!("ok deliveries {n}"), false)
        }
        ["status"] => live.call(|node, ctx| {
            let c = node.chord();
            let succs: Vec<String> = c.successors().iter().map(|p| p.idx.to_string()).collect();
            let s = format!(
                "ok status me={} id={:#018x} succ=[{}] pred={} load={} now={}us",
                ctx.me(),
                c.id,
                succs.join(","),
                c.predecessor.map_or("none".into(), |p| p.idx.to_string()),
                node.load(),
                ctx.now().as_micros(),
            );
            (s, false)
        }),
        ["quit"] => ("ok bye".into(), true),
        _ => ("err unknown command".into(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-node deployment: its own bootstrap, listening on a free
    /// loopback port.
    fn one_node() -> Live {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = vec![listener.local_addr().unwrap()];
        let node = HyperSubNode::new(
            ChordState::new(random_ids(1, 42)[0], 0, SUCC_LIST_LEN),
            Arc::new(demo_registry()),
            Arc::new(SystemConfig::default()),
        );
        let cfg = LiveConfig {
            index: 0,
            peers,
            seed: 42,
        };
        LiveNode::new(node, HyperWorld::default(), listener, cfg).unwrap()
    }

    /// Each of these would trip an assert in `lph_rect`, `lph_point` or
    /// `Rect::new` and take the process down, so it must be refused
    /// before the node sees it; in-domain requests still go through.
    #[test]
    fn control_input_outside_the_domain_is_refused() {
        let mut live = one_node();
        let mut next_event = 1;
        for line in [
            "sub 200 200 300 300",
            "pub 150 20",
            "sub NaN 0 1 1",
            "sub 0 0 inf 1",
            "pub 20 NaN",
        ] {
            let reply = handle_command(&mut live, line, &mut next_event);
            assert_eq!(reply, ("err out of domain".to_string(), false), "{line}");
        }
        assert_eq!(next_event, 1, "no event id was spent");
        let (reply, _) = handle_command(&mut live, "sub 10 10 30 30", &mut next_event);
        assert!(reply.starts_with("ok sub"), "{reply}");
        let (reply, _) = handle_command(&mut live, "pub 20 20", &mut next_event);
        assert_eq!(reply, "ok pub 1");
        let (reply, _) = handle_command(&mut live, "deliveries", &mut next_event);
        assert_eq!(reply, "ok deliveries 1");
    }

    /// A connection that sends more than `MAX_LINE` bytes without a
    /// newline is answered and dropped; one whose line is exactly
    /// `MAX_LINE` long with its newline is served, and keeps being served.
    #[test]
    fn an_overlong_control_line_costs_only_its_connection() {
        let mut live = one_node();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut control = Control {
            listener,
            conns: Vec::new(),
            next_event: 1,
        };
        let mut hostile = TcpStream::connect(addr).unwrap();
        let mut honest = TcpStream::connect(addr).unwrap();
        hostile.write_all(&[b'x'; MAX_LINE + 1]).unwrap();
        let longest = format!("{:<1$}\nquit\n", "deliveries", MAX_LINE - 1);
        honest.write_all(longest.as_bytes()).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        let mut quit = false;
        while !(quit && control.conns.len() == 1) {
            assert!(
                Instant::now() < deadline,
                "the control loop never caught up"
            );
            quit |= control.serve(&mut live);
            std::thread::sleep(Duration::from_millis(1));
        }
        let timeout = Some(Duration::from_secs(10));
        hostile.set_read_timeout(timeout).unwrap();
        let mut reply = String::new();
        hostile.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "err line too long\n", "answered, then closed");
        honest.set_read_timeout(timeout).unwrap();
        let mut replies = BufReader::new(honest).lines();
        assert_eq!(replies.next().unwrap().unwrap(), "ok deliveries 0");
        assert_eq!(replies.next().unwrap().unwrap(), "ok bye");
    }
}
