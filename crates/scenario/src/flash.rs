//! **flash_crowd** — a viral topic concentrates subscriptions on one
//! surrogate, then a Zipf-shifted publish storm hammers the hot region
//! while dynamic migration (§4) sheds the load.
//!
//! Schedule:
//! 1. Subscribers across the network register range subscriptions drawn
//!    from a hot sliver of the x-domain (`[40, 41]`), so one surrogate
//!    chain collects nearly all stored state.
//! 2. The network runs long enough for several LB periods — offers,
//!    probes, and acked handoffs migrate subscriptions to ring
//!    neighbors.
//! 3. The workload generator's hotspot *shifts onto the hot sliver* and
//!    a publish storm (interarrival compressed well below the template
//!    mean) streams events through the migrated state.
//!
//! Invariants: migration actually converged within a bounded number of
//! LB rounds (from the flight recorder, the defense's signature), no
//! stored-subscription pile-up on a single node, and the storm delivered
//! completely and duplicate-free *through* migrated state.

use crate::runner::{scenario_network, scenario_workload, RunConfig, ScenarioOutcome, Tier};
use hypersub_core::invariant;
use hypersub_core::prelude::*;
use hypersub_workload::WorkloadGen;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 32;

pub(crate) fn run(cfg: &RunConfig) -> hypersub_core::error::Result<ScenarioOutcome> {
    let (subs, storm_events) = match cfg.tier {
        Tier::Quick => (300, 40),
        Tier::Full => (300, 400),
    };
    let config = if cfg.defense {
        SystemConfig::default().with_lb()
    } else {
        SystemConfig::default()
    };
    let lb_period = SystemConfig::default().with_lb().lb.period;
    let mut net = scenario_network(NODES, cfg.seed, config)?;

    // 1. The crowd: subscriptions packed into the hot sliver.
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xf1a5_4c20_3d00_0001);
    for _ in 0..subs {
        let node = rng.gen_range(0..NODES);
        let c = rng.gen_range(40.0..41.0);
        let sub = Subscription::new(Rect::new(vec![c, 0.0], vec![(c + 0.5).min(100.0), 100.0]));
        net.subscribe(node, 0, sub);
    }
    // 2. Sixteen LB periods. The pile drains by *diffusion*: each round
    //    an overloaded node sheds only to successors whose load is still
    //    below average, so the hot surrogate's surplus halves roughly
    //    once per period and the trace goes silent around round twelve —
    //    the remaining four rounds prove the tail is quiet.
    net.run_until(net.time() + SimTime(lb_period.0 * 16));

    // 3. The storm: hotspot jumps onto the sliver, interarrival drops to
    //    a fifth of the template mean.
    let mut wl = WorkloadGen::new(scenario_workload(), cfg.seed ^ 0xf1a5_4c20_3d00_0002);
    wl.shift_hotspot(0.40 - 0.2); // x-hotspot 0.2 -> 0.40 = the sliver
    let mut t = net.time();
    for _ in 0..storm_events {
        t += wl.scaled_interarrival(0.2);
        let node = wl.random_node(NODES);
        let p = wl.event_point();
        net.schedule_publish(t, node, 0, p)?;
    }
    net.run_until(t + SimTime::from_secs(60));

    let report = net.report();
    let rec = net.recorder().expect("recorder installed");
    let verdicts = vec![
        invariant::migration_converged(rec, lb_period, 12),
        invariant::balanced_load(&net.node_loads(), 0.6),
        invariant::complete_delivery(&report),
        invariant::no_duplicate_deliveries(&report),
    ];
    Ok(ScenarioOutcome::collect("flash_crowd", cfg, &net, verdicts))
}
