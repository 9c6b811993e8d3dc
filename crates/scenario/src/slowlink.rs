//! **slow_link** — a bufferbloat episode: for a 30-second window every
//! link gains 400 ms of fixed delay, up to 800 ms of jitter, and 2%
//! loss, while the publish stream keeps flowing. The ack/retransmit
//! layer is the defense.
//!
//! The bloated RTT (~1–2.4 s) dwarfs the 250 ms base timeout, so senders
//! retransmit *prematurely* — the window stresses the receiver-side
//! dedup cache as hard as the loss itself stresses the backoff chain.
//! Every spurious retransmission must be absorbed exactly-once, and the
//! real losses must be repaired before the chain gives up.
//!
//! Invariants: complete delivery over the whole run (the defense's
//! signature), no duplicate deliveries despite the premature
//! retransmissions, no reliable send abandoned, and the fault plane
//! really dropped messages inside the window.

use crate::runner::{scenario_network, scenario_workload, RunConfig, ScenarioOutcome, Tier};
use hypersub_core::invariant;
use hypersub_core::prelude::*;
use hypersub_workload::WorkloadGen;

const NODES: usize = 24;

fn rect_for(i: usize) -> Rect {
    let lo = ((i * 7) % 75) as f64;
    Rect::new(vec![lo, 0.0], vec![lo + 25.0, 100.0])
}

pub(crate) fn run(cfg: &RunConfig) -> hypersub_core::error::Result<ScenarioOutcome> {
    let publishes = match cfg.tier {
        Tier::Quick => 40usize,
        Tier::Full => 200,
    };
    let mut config = SystemConfig::default();
    if cfg.defense {
        config = config.with_retries();
        // One extra attempt of headroom: 6 transmissions span 15.75 s,
        // comfortably past the worst bloated round trip.
        config.retry.max_attempts = 6;
    }
    let mut net = scenario_network(NODES, cfg.seed, config)?;

    for i in 0..NODES {
        net.subscribe(i, 0, Subscription::new(rect_for(i)));
    }
    net.run_until(net.time() + SimTime::from_secs(10));

    // Bufferbloat window: [t0+10, t0+40).
    let t0 = net.time();
    let bloat = LinkPolicy {
        drop_prob: 0.02,
        dup_prob: 0.0,
        extra_delay: SimTime::from_millis(400),
        jitter: SimTime::from_millis(800),
    };
    let from = t0 + SimTime::from_secs(10);
    let until = t0 + SimTime::from_secs(40);
    let mut fp = FaultPlane::new(cfg.seed ^ 0x510c_0000_0000_0004);
    fp.add_policy_window(bloat, from, until);
    net.install_fault_plane(fp);

    // One publish per second, starting before the window opens and
    // outlasting it.
    let mut wl = WorkloadGen::new(scenario_workload(), cfg.seed ^ 0x510c_0000_0000_0005);
    let mut t = t0;
    for _ in 0..publishes {
        t += SimTime::from_secs(1);
        net.schedule_publish(t, wl.random_node(NODES), 0, wl.event_point())?;
    }
    // Past the last chain's give-up horizon.
    net.run_until(t + SimTime::from_secs(40));

    let report = net.report();
    let verdicts = vec![
        invariant::complete_delivery(&report),
        invariant::no_duplicate_deliveries(&report),
        invariant::no_give_ups(&report),
        invariant::adversity_fired("fault-plane drops", report.net.fault_dropped),
    ];
    Ok(ScenarioOutcome::collect("slow_link", cfg, &net, verdicts))
}
