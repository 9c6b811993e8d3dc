//! One rep: build a fresh network, drive the workload through it, check
//! it. Identical in every workload; only the [`Shape`] differs.
//!
//! Timed slices are bracketed by `Instant`s that exist in both trace
//! modes; the spans around them exist only in the traced run. Generating
//! and scheduling inputs sits outside every timed slice.

use crate::inputs::{Inputs, PubEvent};
use crate::shape::{Shape, NETWORK_SEED};
use crate::span::Recorder;
use hypersub_core::advanced::SimAccess;
use hypersub_core::config::SystemConfig;
use hypersub_core::model::{Registry, SubId};
use hypersub_core::sim::{Network, TopologyKind};
use hypersub_simnet::SimTime;
use std::time::Instant;

/// Host wall seconds of one rep, phase by phase. Each phase is timed in
/// slices — [`SLICE_STEPS`] simulator steps or [`SLICE_CALLS`] calls — and
/// every rep cuts the same slices, because every rep does the same work.
#[derive(Debug, Clone, Default)]
pub struct RepTimes {
    pub build: Vec<f64>,
    pub install: Vec<f64>,
    pub warmup: Vec<f64>,
    /// All timed publish batches, one after the other.
    pub publish: Vec<f64>,
    /// All churn batches, one after the other.
    pub churn: Vec<f64>,
}

/// Simulator steps per timed slice: about 1 ms on the routing workloads,
/// 6 ms on the matching ones. The fastest-of-K is taken slice by slice,
/// and a slice this short fits between two disturbances of the host where
/// a whole 0.1 s batch does not: with another process waking every
/// 100 ms for 30 ms, fastest-of-K over whole batches of `sim-table1` read
/// 20-30 % slow, over 4 ms slices 5-8 %, over these slices not measurably.
pub const SLICE_STEPS: u64 = 1024;

/// `subscribe`/`unsubscribe` calls per timed slice.
pub const SLICE_CALLS: usize = 256;

/// Program counters read at batch boundaries (outside the timed batches).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Marks {
    pub install_msgs: u64,
    pub install_bytes: u64,
    pub install_registers: u64,
    pub install_chain_pushes: u64,
    /// Simulator steps and network messages of the timed publish batches.
    pub publish_steps: u64,
    pub publish_msgs: u64,
    /// Subscribe and unsubscribe calls made, and how many were refused.
    pub sub_ops: u64,
    pub sub_ops_failed: u64,
}

/// What the per-event oracle check found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// (event, subscription) pairs the oracle expects.
    pub expected: u64,
    pub missing: u64,
    pub duplicates: u64,
    /// Deliveries to subscriptions the oracle does not expect.
    pub spurious: u64,
}

impl Checked {
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicates + self.spurious
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// `Network::run_to_quiescence` in timed slices: the same engine call
/// (`Sim::run`), [`SLICE_STEPS`] steps at a time.
fn run_sliced(net: &mut Network, out: &mut Vec<f64>) {
    loop {
        let t = Instant::now();
        let done = net.sim_mut().run(SLICE_STEPS);
        out.push(secs(t));
        if done < SLICE_STEPS {
            return;
        }
    }
}

/// Makes one call per item, in timed slices of [`SLICE_CALLS`].
fn call_sliced<T>(items: Vec<T>, out: &mut Vec<f64>, mut call: impl FnMut(T)) {
    let mut items = items.into_iter().peekable();
    while items.peek().is_some() {
        let t = Instant::now();
        for item in items.by_ref().take(SLICE_CALLS) {
            call(item);
        }
        out.push(secs(t));
    }
}

/// Mean RTT of the synthetic King topology every workload runs on.
const KING_RTT: SimTime = SimTime::from_millis(180);

fn schedule(net: &mut Network, batch: &[PubEvent]) {
    let mut t = net.time() + SimTime::from_secs(1);
    for e in batch {
        net.schedule_publish(t, e.node, 0, e.point.clone())
            .expect("publisher index in range");
        t += e.gap;
    }
}

/// Runs one rep and hands back the finished network for checking.
pub fn run_rep(shape: &Shape, inputs: &Inputs, rec: &mut Recorder) -> (RepTimes, Marks, Network) {
    let mut times = RepTimes::default();
    let mut marks = Marks::default();
    let rep_span = rec.enter("rep");

    let registry = Registry::new(vec![inputs.spec.scheme_def(0)]);
    let t = Instant::now();
    let s = rec.enter("core.sim.build");
    let mut net = Network::builder(shape.nodes)
        .registry(registry)
        .config(SystemConfig::default())
        .topology(TopologyKind::KingLike(KING_RTT))
        .seed(NETWORK_SEED)
        .build()
        .expect("valid benchmark configuration");
    rec.exit(s);
    times.build.push(secs(t));

    // install
    let mut live: Vec<(usize, SubId)> = Vec::with_capacity(inputs.subs.len());
    let subs: Vec<_> = inputs.subs.iter().cloned().enumerate().collect();
    let s = rec.enter("core.sim.subscribe");
    call_sliced(subs, &mut times.install, |(i, sub)| {
        let node = shape.subscriber(i);
        live.push((node, net.subscribe(node, 0, sub)));
    });
    rec.exit(s);
    let s = rec.enter("core.sim.run.install");
    run_sliced(&mut net, &mut times.install);
    rec.exit(s);
    marks.sub_ops = live.len() as u64;
    marks.install_msgs = net.net().total_msgs();
    marks.install_bytes = net.net().total_bytes();
    marks.install_registers = net.metrics().proto.sub_registers.total();
    marks.install_chain_pushes = net.metrics().proto.chain_pushes.total();

    // warm-up: pays the lazy index and oracle-grid builds
    let s = rec.enter("core.sim.schedule_publish");
    schedule(&mut net, inputs.batch(shape, None));
    rec.exit(s);
    let s = rec.enter("core.sim.run.warmup");
    run_sliced(&mut net, &mut times.warmup);
    rec.exit(s);

    for b in 0..shape.rounds {
        let s = rec.enter("core.sim.schedule_publish");
        schedule(&mut net, inputs.batch(shape, Some(b)));
        rec.exit(s);
        let (steps, msgs) = (net.steps(), net.net().total_msgs());
        let s = rec.enter("core.sim.run.publish");
        run_sliced(&mut net, &mut times.publish);
        rec.exit(s);
        marks.publish_steps += net.steps() - steps;
        marks.publish_msgs += net.net().total_msgs() - msgs;

        let replaces = inputs.churn[b].clone();
        if replaces.is_empty() {
            continue;
        }
        marks.sub_ops += 2 * replaces.len() as u64;
        let cancelled: Vec<(usize, SubId)> = replaces.iter().map(|r| live[r.pos]).collect();
        let s = rec.enter("core.sim.unsubscribe");
        call_sliced(cancelled, &mut times.churn, |(node, subid)| {
            if net.unsubscribe(node, subid).is_err() {
                marks.sub_ops_failed += 1;
            }
        });
        rec.exit(s);
        let s = rec.enter("core.sim.subscribe");
        call_sliced(replaces, &mut times.churn, |r| {
            let node = live[r.pos].0;
            live[r.pos].1 = net.subscribe(node, 0, r.sub);
        });
        rec.exit(s);
        let s = rec.enter("core.sim.run.churn");
        run_sliced(&mut net, &mut times.churn);
        rec.exit(s);
    }
    rec.exit(rep_span);
    (times, marks, net)
}

/// Checks every event of the rep against the oracle's expectation at its
/// publish time.
pub fn check(net: &Network, rec: &mut Recorder) -> Checked {
    let s = rec.enter("core.sim.event_stats");
    let stats = net.event_stats();
    rec.exit(s);
    let s = rec.enter("check");
    let mut c = Checked::default();
    for e in &stats {
        c.expected += e.expected as u64;
        c.missing += e.expected.saturating_sub(e.delivered) as u64;
        c.spurious += e.delivered.saturating_sub(e.expected) as u64;
        c.duplicates += e.duplicates as u64;
    }
    rec.exit(s);
    c
}
