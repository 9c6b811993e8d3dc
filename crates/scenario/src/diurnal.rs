//! **diurnal_waves** — a diurnal load curve with mass join/leave waves
//! riding on it, plus two *permanent* departures, against the
//! self-healing plane (successor replication + soft-state leases).
//!
//! Schedule:
//! 1. Subscribers 0..8 hold wide staggered bands; Chord maintenance runs
//!    throughout.
//! 2. The two most state-loaded non-subscribers leave **permanently** —
//!    their rendezvous state must be re-served from replicas, because
//!    nothing ever brings them back.
//! 3. Two mass waves: batches of non-subscribers leave together and
//!    rejoin later (the evening/morning of a diurnal population), while
//!    the publish stream's rate follows a triangle diurnal curve.
//! 4. After the last rejoin plus a healing window, probe events check
//!    that no damage was permanent.
//!
//! Invariants: every probe pair delivered (the healing plane's
//! signature), no duplicates anywhere, and the scenario really put
//! rendezvous state on its permanent victims and really failed nodes.

use crate::runner::{
    most_loaded, scenario_network, scenario_workload, subscribe_staggered_bands, RunConfig,
    ScenarioOutcome, Tier,
};
use hypersub_core::invariant::{self, Verdict};
use hypersub_core::prelude::*;
use hypersub_workload::{join_leave_waves, DiurnalRate, WaveKind, WorkloadGen};

const NODES: usize = 32;
const SUBSCRIBERS: usize = 8;

pub(crate) fn run(cfg: &RunConfig) -> hypersub_core::error::Result<ScenarioOutcome> {
    let (waves, wave_size, probes) = match cfg.tier {
        Tier::Quick => (2usize, 6usize, 12usize),
        Tier::Full => (6, 8, 24),
    };
    let config = if cfg.defense {
        SystemConfig::default().with_self_healing()
    } else {
        SystemConfig::default()
    };
    let mut net = scenario_network(NODES, cfg.seed, config)?;
    net.enable_maintenance();
    subscribe_staggered_bands(&mut net, SUBSCRIBERS);
    net.run_until(net.time() + SimTime::from_secs(10));

    // 2. Permanent departures: the two hottest non-subscriber state
    //    holders never come back.
    let victims = most_loaded(&net, SUBSCRIBERS..NODES, 2);
    let staked_entries: usize = victims.iter().map(|&(load, _)| load).sum();
    for &(_, v) in &victims {
        net.fail(v)?;
    }
    let victim_ids: Vec<usize> = victims.iter().map(|&(_, v)| v).collect();

    // 3. Mass waves over the remaining non-subscribers.
    let pool: Vec<usize> = (SUBSCRIBERS..NODES)
        .filter(|n| !victim_ids.contains(n))
        .collect();
    let first = net.time() + SimTime::from_secs(10);
    let period = SimTime::from_secs(60);
    let downtime = SimTime::from_secs(25);
    let actions = join_leave_waves(
        &pool,
        waves,
        wave_size,
        first,
        period,
        downtime,
        cfg.seed ^ 0xd107_0a1e_0000_0001,
    );
    let last_join = actions.last().expect("nonempty wave plan").at;

    // The diurnal publish stream runs from now until the last rejoin.
    let day = DiurnalRate {
        period: SimTime::from_secs(60),
        trough_scale: 4.0,
    };
    let mut wl = WorkloadGen::new(scenario_workload(), cfg.seed ^ 0xd107_0a1e_0000_0002);
    let mut publishes = Vec::new();
    let mut t = net.time();
    while t < last_join {
        t += wl.scaled_interarrival(day.scale_at(t));
        // Subscribers publish: they are alive through every wave.
        let node = wl.random_node(SUBSCRIBERS);
        publishes.push((t, node, wl.event_point()));
    }
    for (at, node, p) in publishes {
        if at < last_join {
            net.schedule_publish(at, node, 0, p)?;
        }
    }

    // Interleave the membership actions with the running stream.
    let mut failed = 0u64;
    for a in &actions {
        net.run_until(a.at);
        match a.kind {
            WaveKind::Leave => {
                net.fail(a.node)?;
                failed += 1;
            }
            WaveKind::Join => net.revive(a.node)?,
        }
    }

    // 4. Healing window (covers re-join handoff, re-replication, and
    //    several lease periods), then probes.
    net.run_until(last_join + SimTime::from_secs(45));
    let mut probe_ids = Vec::new();
    let mut t = net.time();
    for _ in 0..probes {
        t += SimTime::from_secs(1);
        let node = wl.random_node(SUBSCRIBERS);
        probe_ids.push(net.schedule_publish(t, node, 0, wl.event_point())?);
    }
    net.run_until(t + SimTime::from_secs(30));

    let report = net.report();
    let verdicts = vec![
        invariant::probes_delivered(&net.event_stats(), &probe_ids),
        invariant::no_duplicate_deliveries(&report),
        invariant::adversity_fired("node failures", failed + victims.len() as u64),
        Verdict::check(
            "scenario.state_at_stake",
            staked_entries > 0,
            format!("{staked_entries} rendezvous entries on the permanent victims"),
        ),
    ];
    Ok(ScenarioOutcome::collect(
        "diurnal_waves",
        cfg,
        &net,
        verdicts,
    ))
}
