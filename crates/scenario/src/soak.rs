//! **churn_soak** — sustained ~30% churn, checkpoint-stamped so one
//! logical run spans several CI invocations, against healing + retries.
//!
//! The run is split into fixed segments. Every segment ends in a
//! [`Network::snapshot`], and [`run_segment`] accepts the previous
//! segment's bytes — so a driver (the `scenario` bench binary, or CI
//! with per-segment stamp files) can execute one segment per invocation
//! and still produce the *same* digest and verdicts as an uninterrupted
//! run. `run` itself loops the segments in-process, exercising the
//! restore path on every single run.
//!
//! Schedule per segment: a [`ChurnPlan`] holds ~31% of the
//! non-subscriber pool down, rotating the failed set every few seconds,
//! while subscribers keep publishing. The final segment stops the churn
//! (whoever is down at that point *stays* down), permanently fails the
//! two most state-loaded survivors, waits out a healing window, and
//! publishes probes.
//!
//! Invariants: every probe pair delivered after the churn stops, no
//! duplicates anywhere, bounded retry give-up rate, and the churn
//! actually fired.

use crate::runner::{
    most_loaded, scenario_network, scenario_workload, subscribe_staggered_bands, RunConfig,
    ScenarioOutcome, Tier,
};
use hypersub_core::invariant;
use hypersub_core::prelude::*;
use hypersub_workload::{ChurnPlan, WaveKind, WorkloadGen};

const NODES: usize = 40;
const SUBSCRIBERS: usize = 8;
const TARGET_DOWN: usize = 10; // ~31% of the 32-node eligible pool
const SETTLE: SimTime = SimTime::from_secs(10);

/// The result of one segment: either a checkpoint to feed into the next
/// segment, or the finished outcome.
#[derive(Debug)]
pub enum SoakStep {
    /// The segment ended mid-run; resume the next segment from these
    /// snapshot bytes.
    Checkpoint(Vec<u8>),
    /// The final segment completed and evaluated the invariants.
    Done(Box<ScenarioOutcome>),
}

/// Number of segments (the last one evaluates) for a tier.
pub fn segment_count(tier: Tier) -> usize {
    match tier {
        Tier::Quick => 4,
        Tier::Full => 10,
    }
}

fn segment_len(tier: Tier) -> SimTime {
    match tier {
        Tier::Quick => SimTime::from_secs(40),
        Tier::Full => SimTime::from_secs(120),
    }
}

fn config_for(cfg: &RunConfig) -> SystemConfig {
    if cfg.defense {
        // Healing only: the fail-stop reroute path plus replication +
        // leases are the churn defense. (Arming the ack/retransmit layer
        // under 31% churn multiplies every dead-destination send into a
        // backoff chain of rerouted chains — tens of millions of
        // messages that add wall-clock, not coverage.)
        SystemConfig::default().with_self_healing()
    } else {
        SystemConfig::default()
    }
}

/// The deterministic publish schedule for `[from, until)`, regenerated
/// from scratch on every invocation so a resumed segment schedules
/// exactly the publishes an uninterrupted run would have.
fn publishes_between(
    cfg: &RunConfig,
    from: SimTime,
    until: SimTime,
) -> Vec<(SimTime, usize, Point)> {
    let mut wl = WorkloadGen::new(scenario_workload(), cfg.seed ^ 0x50a4_0000_0a10_c42b);
    let mut t = SETTLE;
    let mut out = Vec::new();
    loop {
        t += wl.scaled_interarrival(2.0);
        if t >= until {
            return out;
        }
        let node = wl.random_node(SUBSCRIBERS);
        let p = wl.event_point();
        if t >= from {
            out.push((t, node, p));
        }
    }
}

/// Rebuilds the churn plan and fast-forwards it to `upto`, discarding
/// the actions a previous segment already applied.
fn plan_at(cfg: &RunConfig, upto: SimTime) -> ChurnPlan {
    let mut plan = ChurnPlan::new(
        (SUBSCRIBERS..NODES).collect(),
        TARGET_DOWN,
        SimTime::from_secs(3),
        SETTLE + SimTime::from_secs(2),
        cfg.seed ^ 0xc442_0000_0000_0001,
    );
    plan.actions_until(upto);
    plan
}

/// Runs one segment. `segment` counts from 0; pass the previous
/// segment's [`SoakStep::Checkpoint`] bytes as `resume` for every
/// segment after the first.
pub fn run_segment(
    cfg: &RunConfig,
    segment: usize,
    resume: Option<&[u8]>,
) -> hypersub_core::error::Result<SoakStep> {
    let segments = segment_count(cfg.tier);
    assert!(segment < segments, "segment {segment} out of range");
    let seg_len = segment_len(cfg.tier);
    let seg_start = SimTime(SETTLE.0 + seg_len.0 * segment as u64);
    let seg_end = SimTime(SETTLE.0 + seg_len.0 * (segment + 1) as u64);

    let mut net = match resume {
        Some(bytes) => {
            assert!(segment > 0, "first segment cannot resume");
            Network::restore(bytes)?
        }
        None => {
            assert_eq!(segment, 0, "segment {segment} needs a checkpoint");
            let mut net = scenario_network(NODES, cfg.seed, config_for(cfg))?;
            net.enable_maintenance();
            subscribe_staggered_bands(&mut net, SUBSCRIBERS);
            net.run_until(SETTLE);
            net
        }
    };
    let mut plan = plan_at(cfg, seg_start);

    for (at, node, p) in publishes_between(cfg, seg_start, seg_end) {
        net.schedule_publish(at, node, 0, p)?;
    }

    let last = segment == segments - 1;
    // The last segment churns only its first half, then goes calm.
    let churn_until = if last {
        SimTime(seg_start.0 + seg_len.0 / 2)
    } else {
        seg_end
    };
    let mut churned = 0u64;
    for a in plan.actions_until(churn_until) {
        net.run_until(a.at);
        match a.kind {
            WaveKind::Leave => net.fail(a.node)?,
            WaveKind::Join => net.revive(a.node)?,
        }
        churned += 1;
    }

    if !last {
        net.run_until(seg_end);
        return Ok(SoakStep::Checkpoint(net.snapshot()));
    }

    // Final segment: freeze the membership (whoever is down stays down),
    // permanently fail the two hottest surviving state holders, heal,
    // probe.
    net.run_until(churn_until);
    let down: Vec<usize> = plan.down().collect();
    let victims = most_loaded(&net, (SUBSCRIBERS..NODES).filter(|n| !down.contains(n)), 2);
    for &(_, v) in &victims {
        net.fail(v)?;
        churned += 1;
    }
    net.run_until(net.time() + SimTime::from_secs(40));

    let mut wl = WorkloadGen::new(scenario_workload(), cfg.seed ^ 0x50a4_0000_0b10_c42b);
    let mut probe_ids = Vec::new();
    let mut t = net.time();
    for _ in 0..12 {
        t += SimTime::from_secs(1);
        probe_ids.push(net.schedule_publish(
            t,
            wl.random_node(SUBSCRIBERS),
            0,
            wl.event_point(),
        )?);
    }
    net.run_until(t + SimTime::from_secs(30));

    let report = net.report();
    let verdicts = vec![
        invariant::probes_delivered(&net.event_stats(), &probe_ids),
        invariant::no_duplicate_deliveries(&report),
        invariant::bounded_give_up_rate(&report, 0.05),
        invariant::adversity_fired("membership changes", churned),
    ];
    Ok(SoakStep::Done(Box::new(ScenarioOutcome::collect(
        "churn_soak",
        cfg,
        &net,
        verdicts,
    ))))
}

/// Runs every segment in-process, checkpointing and restoring between
/// them — the uninterrupted entry point used by `Scenario::run`.
pub(crate) fn run(cfg: &RunConfig) -> hypersub_core::error::Result<ScenarioOutcome> {
    let mut checkpoint: Option<Vec<u8>> = None;
    for segment in 0..segment_count(cfg.tier) {
        match run_segment(cfg, segment, checkpoint.as_deref())? {
            SoakStep::Checkpoint(bytes) => checkpoint = Some(bytes),
            SoakStep::Done(outcome) => return Ok(*outcome),
        }
    }
    unreachable!("the last segment always returns Done")
}
