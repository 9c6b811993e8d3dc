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
//! Control protocol (one request line, one `ok ...` / `err ...` reply):
//!
//! * `sub <x0> <y0> <x1> <y1>` — subscribe to the rectangle, returns the
//!   subscription id as `nid:iid`
//! * `pub <x> <y>` — publish an event at the point, returns its event id
//! * `deliveries` — number of events delivered to this node's subscriptions
//! * `status` — ring view: node id, successor indexes, predecessor, load
//! * `quit` — shut the node down
//!
//! Every process is started with the full `--peers` list (index → address)
//! and a shared `--seed`; ring identifiers are drawn deterministically
//! from the seed, so all processes agree on the id space without any
//! out-of-band exchange. Node `--bootstrap` (default 0) is the join
//! contact for everyone else.

use hypersub_chord::builder::random_ids;
use hypersub_chord::proto::{FIX_FINGERS_PERIOD, STABILIZE_PERIOD};
use hypersub_chord::ChordState;
use hypersub_core::config::SystemConfig;
use hypersub_core::model::{Event, Registry, SchemeDef, Subscription};
use hypersub_core::msg::HyperMsg;
use hypersub_core::node::{HyperSubNode, TOKEN_FIX_FINGERS, TOKEN_STABILIZE};
use hypersub_core::world::HyperWorld;
use hypersub_lph::{Point, Rect};
use hypersub_net::driver::{spawn, LiveConfig, NetHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

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
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        eprintln!("err bad control address");
        return ExitCode::FAILURE;
    };
    let stream = match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("err connect: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("err clone: {e}");
            return ExitCode::FAILURE;
        }
    };
    if writeln!(writer, "{}", cmd.join(" ")).is_err() {
        eprintln!("err write");
        return ExitCode::FAILURE;
    }
    let mut reply = String::new();
    if BufReader::new(stream).read_line(&mut reply).is_err() {
        eprintln!("err read");
        return ExitCode::FAILURE;
    }
    print!("{reply}");
    if reply.starts_with("ok") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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

type Handle = NetHandle<HyperSubNode, HyperMsg, HyperWorld>;

fn serve(args: &[String]) -> ExitCode {
    let Some(a) = parse_serve(args) else {
        return usage();
    };
    let n = a.peers.len();

    // Every process draws the same id vector from the shared seed, so the
    // ring id space is agreed without any out-of-band exchange.
    let id = random_ids(n, a.seed)[a.index];
    let mut node = HyperSubNode::new(
        ChordState::new(id, a.index, SUCC_LIST_LEN),
        Arc::new(demo_registry()),
        Arc::new(SystemConfig::default()),
    );
    node.maintenance = true;

    let listener = match TcpListener::bind(a.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("err bind {}: {e}", a.listen);
            return ExitCode::FAILURE;
        }
    };
    let control = match TcpListener::bind(a.control) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("err bind control {}: {e}", a.control);
            return ExitCode::FAILURE;
        }
    };

    let handle: Handle = spawn(
        node,
        HyperWorld::default(),
        listener,
        LiveConfig {
            index: a.index,
            peers: a.peers,
            seed: a.seed,
        },
    );

    // Arm Chord maintenance and, on non-bootstrap nodes, start the join.
    // The bootstrap node begins as a singleton ring that owns every key.
    let (index, bootstrap) = (a.index, a.bootstrap);
    handle.invoke(move |node, ctx| {
        ctx.set_timer(STABILIZE_PERIOD, TOKEN_STABILIZE);
        ctx.set_timer(FIX_FINGERS_PERIOD, TOKEN_FIX_FINGERS);
        if index != bootstrap {
            for (dst, m) in node.maint.start_join(bootstrap) {
                ctx.send(dst, HyperMsg::Chord(m));
            }
        }
    });
    eprintln!("hypersub-node {index}: serving (id {id:#018x})");

    control_loop(&handle, control, index);
    handle.shutdown();
    ExitCode::SUCCESS
}

/// Accepts control connections one at a time and answers request lines
/// until a `quit` arrives.
fn control_loop(handle: &Handle, control: TcpListener, index: usize) {
    // Event ids must be globally unique; partition the id space by
    // publisher index.
    let mut next_event: u64 = ((index as u64) + 1) << 40;
    for conn in control.incoming() {
        let Ok(conn) = conn else { continue };
        let mut writer = match conn.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        let reader = BufReader::new(conn);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            let (reply, quit) = handle_command(handle, line.trim(), &mut next_event);
            if writeln!(writer, "{reply}").is_err() || quit {
                if quit {
                    return;
                }
                break;
            }
        }
    }
}

fn handle_command(handle: &Handle, line: &str, next_event: &mut u64) -> (String, bool) {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let floats =
        |xs: &[&str]| -> Option<Vec<f64>> { xs.iter().map(|x| x.parse::<f64>().ok()).collect() };
    match parts.as_slice() {
        ["sub", rest @ ..] if rest.len() == 4 => {
            let Some(v) = floats(rest) else {
                return ("err bad number".into(), false);
            };
            if v[0] > v[2] || v[1] > v[3] {
                return ("err empty rectangle".into(), false);
            }
            let rect = Rect::new(vec![v[0], v[1]], vec![v[2], v[3]]);
            let subid =
                handle.query(move |node, ctx| node.subscribe(ctx, 0, Subscription::new(rect)));
            (format!("ok sub {}:{}", subid.nid, subid.iid), false)
        }
        ["pub", rest @ ..] if rest.len() == 2 => {
            let Some(v) = floats(rest) else {
                return ("err bad number".into(), false);
            };
            let id = *next_event;
            *next_event += 1;
            let event = Event {
                id,
                point: Point(v),
            };
            handle.invoke(move |node, ctx| node.publish_event(ctx, 0, event));
            (format!("ok pub {id}"), false)
        }
        ["deliveries"] => {
            let n = handle.query(|_node, ctx| ctx.world().metrics.deliveries().len());
            (format!("ok deliveries {n}"), false)
        }
        ["status"] => {
            let s = handle.query(|node, ctx| {
                let c = node.chord();
                let succs: Vec<String> = c.successors().iter().map(|p| p.idx.to_string()).collect();
                format!(
                    "ok status me={} id={:#018x} succ=[{}] pred={} load={} now={}us",
                    ctx.me(),
                    c.id,
                    succs.join(","),
                    c.predecessor.map_or("none".into(), |p| p.idx.to_string()),
                    node.load(),
                    ctx.now().as_micros(),
                )
            });
            (s, false)
        }
        ["quit"] => ("ok bye".into(), true),
        _ => ("err unknown command".into(), false),
    }
}
