//! The HyperSub repo benchmark. See `README.md` for what is measured and
//! why; `BENCHMARK.json` at the repo root is the contract this meets.
//!
//! One run = one workload, one process, one thread: inputs are generated
//! once from the seed, then identical reps (fresh network, same inputs)
//! repeat until the time is up. Every timed slice is measured in every
//! rep and a rate is `operations / sum over slices of the fastest rep's
//! time`. Counts come from rep 0.

pub mod counts;
pub mod inputs;
pub mod metrics;
pub mod probes;
pub mod rep;
pub mod shape;
pub mod span;

use counts::Counts;
use inputs::Inputs;
use metrics::{Metric, Outcome, SPANS};
use rep::{Checked, Marks, RepTimes};
use shape::Shape;
use span::Recorder;
use std::path::Path;
use std::time::Instant;

/// Fewest reps a run makes, however short `--seconds` is.
pub const MIN_REPS: usize = 5;

/// Fastest-of-K over identical reps, per phase: every slice counted at
/// the time of the rep that ran it fastest.
#[derive(Debug, Clone, Copy)]
pub struct Fastest {
    pub build: f64,
    pub install: f64,
    pub warmup: f64,
    pub publish: f64,
    pub churn: f64,
}

impl Fastest {
    pub fn of(reps: &[RepTimes]) -> Fastest {
        let phase = |pick: fn(&RepTimes) -> &Vec<f64>| -> f64 {
            (0..pick(&reps[0]).len())
                .map(|i| {
                    reps.iter()
                        .map(|r| pick(r)[i])
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
                + 0.0 // an empty phase sums to -0.0
        };
        Fastest {
            build: phase(|r| &r.build),
            install: phase(|r| &r.install),
            warmup: phase(|r| &r.warmup),
            publish: phase(|r| &r.publish),
            churn: phase(|r| &r.churn),
        }
    }

    /// What a fresh network pays once that is neither a subscription nor
    /// a steady-state event.
    pub fn setup(&self) -> f64 {
        self.build + self.warmup
    }

    /// The time behind `sub_ops_per_s`.
    pub fn sub_total(&self) -> f64 {
        self.install + self.churn
    }
}

/// Interquartile range over median (nearest-rank quartiles).
fn spread(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("times are not NaN"));
    let q = |q| counts::percentile(&values, q);
    (q(0.75) - q(0.25)) / q(0.50)
}

/// `VmHWM` of this process so far, in MB (10^6 bytes). Read once rep 0 is
/// done: what one network and its workload need. Later reps add allocator
/// fragmentation that grows with K (46 MB after 7 reps of `sim-table1`,
/// 56-58 MB after 25), which says nothing about the program.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// What the timed reps of a run produced.
struct Reps {
    times: Vec<RepTimes>,
    counts: Counts,
    marks: Marks,
    checked: Checked,
    digest: u64,
    /// Every rep reproduced rep 0's digest, counters and check.
    repeatable: bool,
    /// `VmHWM` when rep 0 had been checked, its network still alive.
    peak_rss_mb: f64,
}

/// Repeats the rep until `seconds` have passed (at least [`MIN_REPS`]
/// times).
fn run_reps(shape: &Shape, inputs: &Inputs, seconds: f64, rec: &mut Recorder) -> Reps {
    let started = Instant::now();
    let mut reps: Option<Reps> = None;
    loop {
        let rep_started = Instant::now();
        let done = reps.as_ref().map_or(0, |r| r.times.len());
        rec.start_rep(done as u32);
        let (times, marks, net) = rep::run_rep(shape, inputs, rec);
        let checked = rep::check(&net, rec);
        let digest = net.run_digest();
        match &mut reps {
            None => {
                reps = Some(Reps {
                    times: vec![times],
                    counts: counts::collect(&net, shape, &marks),
                    marks,
                    checked,
                    digest,
                    repeatable: true,
                    peak_rss_mb: peak_rss_mb(),
                })
            }
            Some(r) => {
                r.repeatable &= r.marks == marks && r.checked == checked && r.digest == digest;
                r.times.push(times);
            }
        }
        // Dropped before the next rep: memory does not build up over a run.
        drop(net);
        let rep_time = rep_started.elapsed().as_secs_f64();
        if done + 1 >= MIN_REPS && started.elapsed().as_secs_f64() + rep_time > seconds {
            return reps.expect("a rep just ran");
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json`'s order.
fn end_to_end(shape: &Shape, reps: &Reps, fastest: &Fastest) -> Vec<Metric> {
    let c = &reps.counts;
    let pub_rate = shape.timed_events() as f64 / fastest.publish;
    let sub_rate = reps.marks.sub_ops as f64 / fastest.sub_total();
    [
        ("setup_s", "s", fastest.setup()),
        ("pub_events_per_s", "1/s", pub_rate),
        ("sub_ops_per_s", "1/s", sub_rate),
        ("peak_rss_mb", "MB", reps.peak_rss_mb),
        ("sim_latency_p50_us", "us", c.sim_latency_p50_us),
        ("sim_latency_p99_us", "us", c.sim_latency_p99_us),
        ("hops_per_event", "count", c.hops_per_event),
        ("kb_per_event", "kB", c.kb_per_event),
        ("install_msgs_per_sub", "count", c.install_msgs_per_sub),
        ("load_gini", "ratio", c.load_gini),
    ]
    .map(|(name, unit, v)| (name.to_string(), v, unit))
    .to_vec()
}

/// The per-layer metrics, in `BENCHMARK.json`'s order, the [`SPANS`]
/// last: counts of rep 0, probes on the network one more (untimed) rep
/// leaves behind, the ledger built from both, and span self times.
fn per_layer(
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    reps: &Reps,
    fastest: &Fastest,
    rec: &mut Recorder,
) -> Vec<Metric> {
    rec.start_rep(reps.times.len() as u32);
    let (_, _, net) = rep::run_rep(shape, inputs, rec);
    let c = &reps.counts;
    let p = probes::run(&net, shape, inputs, seed, c, rec);
    drop(net);

    // The ledger: a layer's probe cost times the operations the timed
    // batches made, as a share of their fastest-of-K time. One queue
    // operation per simulator step; one `next_hop` per SubID-list entry
    // received plus one per publication; two `lph_point`s and one zone key
    // per publication (publisher and rendezvous node); the match replay's
    // calls; one oracle count per publication.
    let events = shape.timed_events() as f64;
    let publish_ns = fastest.publish * 1e9;
    let queue_share = p.queue_ns * reps.marks.publish_steps as f64 / publish_ns;
    let next_hop_share = p.next_hop_ns * (c.wire_targets as f64 + events) / publish_ns;
    let lph_share = (2.0 * p.lph_point_ns + p.zone_key_ns) * events / publish_ns;
    let match_share = p.match_ns * p.match_calls as f64 / publish_ns;
    let world_share = p.expected_ns * events / publish_ns;
    let unattributed = 1.0 - queue_share - next_hop_share - lph_share - match_share - world_share;

    let per_rep_publish = reps.times.iter().map(|t| t.publish.iter().sum()).collect();
    // What the recorder itself cost: spans are opened and closed outside
    // the timed slices, so this is its share of a rep, not of any metric.
    let spans_per_rep = rec.spans().iter().filter(|s| s.rep == 1).count() as f64;
    let rep_ns = (fastest.setup() + fastest.sub_total() + fastest.publish) * 1e9;
    let trace_overhead = p.span_ns * spans_per_rep / rep_ns;

    let mut out: Vec<Metric> = [
        ("simnet.queue.ns_per_op", "ns", p.queue_ns),
        ("simnet.topology.latency_ns", "ns", p.topology_latency_ns),
        ("simnet.engine.steps_per_event", "count", c.steps_per_event),
        ("simnet.net.msgs_per_event", "count", c.net_msgs_per_event),
        ("chord.next_hop.ns_per_op", "ns", p.next_hop_ns),
        ("chord.route.hops_per_lookup", "count", p.hops_per_lookup),
        ("chord.build_ring.ms", "ms", p.build_ring_ms),
        ("lph.point.ns_per_op", "ns", p.lph_point_ns),
        ("lph.rect.ns_per_op", "ns", p.lph_rect_ns),
        ("lph.zone_key.ns_per_op", "ns", p.zone_key_ns),
        (
            "core.install.registers_per_sub",
            "count",
            c.registers_per_sub,
        ),
        (
            "core.install.chain_pushes_per_sub",
            "count",
            c.chain_pushes_per_sub,
        ),
        ("core.install.bytes_per_sub", "B", c.install_bytes_per_sub),
        ("core.repo.match.ns_per_op", "ns", p.match_ns),
        (
            "core.repo.match.calls_per_event",
            "count",
            p.match_calls as f64 / events,
        ),
        (
            "core.index.candidates_per_match",
            "count",
            p.candidates_per_match,
        ),
        ("core.index.useful_ratio", "ratio", p.useful_ratio),
        (
            "core.index.covering_collapsed",
            "count",
            c.index.covering_collapsed as f64,
        ),
        ("core.index.insert.ns_per_op", "ns", p.index_insert_ns),
        ("core.index.remove.ns_per_op", "ns", p.index_remove_ns),
        ("core.index.build.us", "us", p.index_build_us),
        ("core.index.bytes", "B", c.index.bytes as f64),
        ("core.index.entries", "count", c.index.entries as f64),
        (
            "core.delivery.deliveries_per_event",
            "count",
            c.deliveries_per_event,
        ),
        (
            "core.delivery.msgs_per_event",
            "count",
            c.delivery_msgs_per_event,
        ),
        (
            "core.delivery.splits_per_event",
            "count",
            c.splits_per_event,
        ),
        ("core.delivery.fanout_mean", "count", c.fanout_mean),
        ("core.delivery.bytes_per_msg", "B", c.bytes_per_delivery_msg),
        ("core.world.expected.ns_per_op", "ns", p.expected_ns),
        ("core.msg.encode.ns_per_msg", "ns", p.encode_ns),
        ("core.msg.decode.ns_per_msg", "ns", p.decode_ns),
        ("core.msg.wire_bytes_per_msg", "B", p.wire_bytes_per_msg),
        ("net.frame.roundtrip.ns_per_frame", "ns", p.frame_ns),
        ("net.wheel.ns_per_op", "ns", p.wheel_ns),
        ("workload.gen.ns_per_event", "ns", p.gen_event_ns),
        ("workload.gen.ns_per_sub", "ns", p.gen_sub_ns),
        ("simnet.queue.est_share", "ratio", queue_share),
        ("chord.next_hop.est_share", "ratio", next_hop_share),
        ("lph.est_share", "ratio", lph_share),
        ("core.repo.match.est_share", "ratio", match_share),
        ("core.world.est_share", "ratio", world_share),
        ("bench.unattributed_share", "ratio", unattributed),
        ("bench.reps", "count", reps.times.len() as f64),
        ("bench.rep_spread", "ratio", spread(per_rep_publish)),
        ("bench.trace_overhead_share", "ratio", trace_overhead),
        ("bench.latency_samples", "count", c.latency_samples as f64),
        (
            "bench.sub_time.install_share",
            "ratio",
            fastest.install / fastest.sub_total(),
        ),
    ]
    .map(|(name, unit, v)| (name.to_string(), v, unit))
    .to_vec();

    let self_s = span::self_seconds(rec.spans());
    let traced_reps = rec.spans().iter().filter(|s| s.name == "rep").count() as f64;
    for (name, per_rep) in SPANS {
        let total = self_s.get(name).copied().unwrap_or(0.0);
        let v = if per_rep { total / traced_reps } else { total };
        out.push((format!("span.{name}.self_s"), v, "s"));
    }
    out
}

/// Runs one workload and returns the contract's result. `trace_out` is
/// where a traced run writes its spans.
pub fn run(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<&Path>,
) -> Outcome {
    let mut rec = Recorder::new(trace);
    let s = rec.enter("workload.gen");
    let inputs = Inputs::generate(shape, seed);
    rec.exit(s);

    let reps = run_reps(shape, &inputs, seconds, &mut rec);
    let fastest = Fastest::of(&reps.times);
    eprintln!(
        "{}: seed {seed}, {} reps, digest {:#018x}, {} latency samples, \
         fastest publish {:.1} ms, install {:.1} ms, churn {:.1} ms, setup {:.1} ms",
        shape.name,
        reps.times.len(),
        reps.digest,
        reps.counts.latency_samples,
        fastest.publish * 1e3,
        fastest.install * 1e3,
        fastest.churn * 1e3,
        fastest.setup() * 1e3,
    );

    let metrics = if trace {
        let metrics = per_layer(shape, &inputs, seed, &reps, &fastest, &mut rec);
        if let Some(path) = trace_out {
            if let Err(e) = write_trace(&rec, path) {
                eprintln!("{}: cannot write {}: {e}", shape.name, path.display());
            }
        }
        metrics
    } else {
        end_to_end(shape, &reps, &fastest)
    };

    let failed = reps.checked.failed() + reps.marks.sub_ops_failed;
    Outcome {
        correct: failed == 0 && reps.repeatable,
        attempted: reps.checked.expected + reps.marks.sub_ops,
        failed,
        metrics,
    }
}

fn write_trace(rec: &Recorder, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_json(&mut w)?;
    std::io::Write::flush(&mut w)
}

/// Drives `hotpath`'s pinned recipe through this benchmark's own rep and
/// returns the run digest, which must be [`shape::HOTPATH_DIGEST`].
pub fn selftest_digest() -> u64 {
    let shape = Shape::hotpath_pinned();
    let inputs = Inputs::generate(&shape, shape::HOTPATH_SEED);
    let (_, _, net) = rep::run_rep(&shape, &inputs, &mut Recorder::new(false));
    net.run_digest()
}
