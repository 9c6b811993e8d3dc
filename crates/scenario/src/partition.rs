//! **asymmetric_partition** — a minority island (25% of the ring) is cut
//! off for 30 simulated seconds while publishes keep flowing from both
//! sides, against a deepened retransmission chain.
//!
//! The retry chain is the defense: with `max_attempts` raised to 8, a
//! reliable send first transmitted at time `s` keeps retransmitting
//! until `s + 63.75 s` — so every chain started *inside* the 30-second
//! partition gets at least one transmission after the heal, and no
//! cross-cut delivery is ever permanently lost. (The stock 5-attempt
//! chain spans only 7.75 s and exhausts inside the window — the
//! acceptance tests prove that configuration loses deliveries, which is
//! exactly what the no-defense run of this scenario shows.)
//!
//! Invariants: zero permanent delivery loss over the whole run (the
//! defense's signature), no duplicates from all those retransmissions,
//! no reliable send abandoned, the fault plane really cut messages, and
//! the trace shows no partition drop at or after the scheduled heal.

use crate::runner::{scenario_network, RunConfig, ScenarioOutcome, Tier};
use hypersub_core::invariant;
use hypersub_core::prelude::*;

const NODES: usize = 32;
const ISLAND: usize = NODES / 4;

/// Node `i`'s subscription: a staggered 25-wide x-band, so every event
/// matches a position-dependent subset of nodes on both sides of the
/// cut.
fn rect_for(i: usize) -> Rect {
    let lo = ((i * 7) % 75) as f64;
    Rect::new(vec![lo, 0.0], vec![lo + 25.0, 100.0])
}

fn point_for(p: usize) -> Point {
    Point(vec![((p * 17) % 100) as f64, ((p * 31) % 100) as f64])
}

pub(crate) fn run(cfg: &RunConfig) -> hypersub_core::error::Result<ScenarioOutcome> {
    let publishes = match cfg.tier {
        Tier::Quick => 30usize,
        Tier::Full => 120,
    };
    let mut config = SystemConfig::default();
    if cfg.defense {
        config = config.with_retries();
        // Deepen the backoff chain past the partition: 8 transmissions
        // span 0.25 s * (2^8 - 1) = 63.75 s > 30 s.
        config.retry.max_attempts = 8;
    }
    let mut net = scenario_network(NODES, cfg.seed, config)?;

    for i in 0..NODES {
        net.subscribe(i, 0, Subscription::new(rect_for(i)));
    }
    net.run_until(net.time() + SimTime::from_secs(10));

    // The island: nodes 0..8 vs the rest, cut for [t0+20, t0+50).
    let t0 = net.time();
    let cut = t0 + SimTime::from_secs(20);
    let heal = t0 + SimTime::from_secs(50);
    let mut fp = FaultPlane::new(cfg.seed ^ 0x9a87_0000_0000_0003);
    fp.add_partition(0..ISLAND, cut, heal);
    net.install_fault_plane(fp);

    // Publishes every 2 s from alternating sides: before, during, and
    // after the window.
    let mut t = t0;
    for p in 0..publishes {
        t += SimTime::from_secs(2);
        let node = if p % 2 == 0 {
            p % ISLAND // island side
        } else {
            ISLAND + (p % (NODES - ISLAND)) // mainland side
        };
        net.schedule_publish(t, node, 0, point_for(p))?;
    }
    // Run past the last possible retransmission (worst chain: first send
    // just before heal + 63.75 s of backoff) plus settle margin.
    net.run_until(t + SimTime::from_secs(80));

    let report = net.report();
    let rec = net.recorder().expect("recorder installed");
    let verdicts = vec![
        invariant::complete_delivery(&report),
        invariant::no_duplicate_deliveries(&report),
        invariant::no_give_ups(&report),
        invariant::adversity_fired("partition drops", report.net.partition_dropped),
        invariant::trace_silent_after(rec, "net.drop_partition", heal),
    ];
    Ok(ScenarioOutcome::collect(
        "asymmetric_partition",
        cfg,
        &net,
        verdicts,
    ))
}
