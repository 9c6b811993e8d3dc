//! Compile-and-run check for the README "Running real nodes" snippet:
//! two live `HyperSubNode`s over loopback TCP — the exact protocol code
//! the simulator tests — join into a ring, subscribe, publish, and
//! deliver across processes' worth of real sockets.

use hypersub_chord::{builder::random_ids, ChordState};
use hypersub_core::prelude::*;
use hypersub_core::{msg::HyperMsg, world::HyperWorld};
use hypersub_net::driver::{run_until, LiveConfig, LiveNode};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn readme_node_snippet_runs() {
    let registry = Arc::new(Registry::new(vec![SchemeDef::builder("demo")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0)]));
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<_> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let ids = random_ids(2, 42);

    let mut nodes: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let mut node = HyperSubNode::new(
                ChordState::new(ids[i], i, 16),
                Arc::clone(&registry),
                Arc::new(SystemConfig::default()),
            );
            node.maintenance = true;
            let cfg = LiveConfig {
                index: i,
                peers: peers.clone(),
                seed: 42,
            };
            LiveNode::new(node, HyperWorld::default(), listener, cfg).unwrap()
        })
        .collect();

    // Both nodes arm maintenance; node 1 joins node 0's singleton ring.
    for (i, live) in nodes.iter_mut().enumerate() {
        live.call(|node, ctx| {
            ctx.set_timer(
                hypersub_chord::proto::STABILIZE_PERIOD,
                hypersub_core::node::TOKEN_STABILIZE,
            );
            ctx.set_timer(
                hypersub_chord::proto::FIX_FINGERS_PERIOD,
                hypersub_core::node::TOKEN_FIX_FINGERS,
            );
            if i != 0 {
                for (dst, m) in node.maint.start_join(0) {
                    ctx.send(dst, HyperMsg::Chord(m));
                }
            }
        });
    }

    // This thread polls both nodes until each knows the other as
    // successor and predecessor.
    let deadline = Instant::now() + Duration::from_secs(30);
    let stable = run_until(&mut nodes, deadline, |n| {
        n.iter().all(|live| {
            let c = live.node.chord();
            c.successor().is_some() && c.predecessor.is_some()
        })
    });
    assert!(stable, "ring did not stabilize");

    // Subscribe on node 1, publish a matching event from node 0.
    let sub = Rect::new(vec![10.0, 10.0], vec![30.0, 30.0]);
    let subid = nodes[1].call(|node, ctx| node.subscribe(ctx, 0, Subscription::new(sub)));
    assert_eq!(subid.nid, ids[1]);

    // Each publish uses a fresh event id (ids are globally unique); the
    // first can race the registration install, so retry until delivery.
    for id in 1.. {
        nodes[0].call(|node, ctx| {
            node.publish_event(
                ctx,
                0,
                Event {
                    id,
                    point: Point(vec![20.0, 20.0]),
                },
            )
        });
        let retry = Instant::now() + Duration::from_millis(100);
        if run_until(&mut nodes, retry, |n| {
            !n[1].world.metrics.deliveries().is_empty()
        }) {
            break;
        }
        assert!(Instant::now() < deadline, "event never delivered");
    }

    // Every delivered record belongs to the one subscription we made.
    let records = nodes[1].world.metrics.deliveries();
    assert!(records.iter().all(|r| r.subid == subid));
}
