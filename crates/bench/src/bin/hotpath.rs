//! Hot-path perf harness: events/sec and wall time on a pinned workload.
//!
//! Runs one fixed, fully seeded publish/subscribe scenario, times the
//! setup (ring build + subscription install) and the delivery phase
//! separately, and records the run into `BENCH_hotpath.json` keyed by
//! `--label`. The file accumulates one entry per label, so the repo can
//! commit a `baseline` entry and an `after` entry from the same PR and
//! every future PR appends its own label to extend the trajectory.
//!
//! The run digest (delivery trace + network counters, see
//! `hypersub_core::digest`) is recorded alongside the timings: two
//! entries measuring the same workload MUST agree on the digest, which
//! proves an optimization changed only speed, never behavior.
//!
//! Usage: `hotpath [--quick] [--label NAME] [--out PATH] [--report PATH]
//! [--index linear|bitset]`.
//!
//! `--index linear` turns the repositories' matching index off (default
//! `bitset`). Both modes produce the same digest — only timings,
//! candidate-scan counts and index memory move.
//!
//! `--report PATH` additionally runs the workload with a flight recorder
//! installed and writes the full run [`Report`](hypersub_core::report)
//! as JSON — the artifact `report diff` compares in CI. Recording is
//! digest-neutral, so the reported digest equals the timed run's.
//!
//! Checkpoint/restore mode (the split-run equivalence harness):
//!
//! * `hotpath [--quick] --checkpoint-at SECS --out SNAP` runs the pinned
//!   workload until simulated time `SECS` seconds, then writes a
//!   whole-network snapshot to `SNAP` and exits (no bench JSON).
//! * `hotpath --resume SNAP [--expect-digest 0xHEX] [--report PATH]`
//!   restores `SNAP` in a fresh process, runs to completion, and prints
//!   the run digest. With `--expect-digest` it exits nonzero unless the
//!   digest matches — CI uses this to prove the split run reproduces the
//!   straight-through digest bit-for-bit.

use hypersub_core::config::SystemConfig;
use hypersub_core::index::{IndexDiag, IndexMode};
use hypersub_core::model::Registry;
use hypersub_core::sim::{Network, SnapshotConfig, TopologyKind};
use hypersub_simnet::SimTime;
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use std::time::Instant;

/// The pinned workload: network size, events, subscriptions and seed are
/// all fixed so events/sec is comparable across PRs.
struct Pinned {
    nodes: usize,
    subs_per_node: usize,
    events: usize,
    seed: u64,
}

impl Pinned {
    fn full() -> Self {
        Self {
            nodes: 1024,
            subs_per_node: 5,
            events: 3000,
            seed: 0xbe9c_2007,
        }
    }

    fn quick() -> Self {
        Self {
            nodes: 192,
            subs_per_node: 4,
            events: 600,
            seed: 0xbe9c_2007,
        }
    }
}

struct RunOutcome {
    setup_ms: f64,
    publish_ms: f64,
    sim_events: u64,
    msgs: u64,
    digest: u64,
    diag: IndexDiag,
}

/// Trace window for `--report` runs: big enough to keep the interesting
/// tail, small enough to stay cheap.
const REPORT_TRACE_CAPACITY: usize = 1 << 14;

fn run_pinned(p: &Pinned, record: bool, index: IndexMode) -> (RunOutcome, Network) {
    let spec = WorkloadSpec::paper_table1();
    let registry = Registry::new(vec![spec.scheme_def(0)]);
    let setup_start = Instant::now();
    let mut builder = Network::builder(p.nodes)
        .registry(registry)
        .config(SystemConfig::default().with_index_mode(index))
        .topology(TopologyKind::KingLike(SimTime::from_millis(180)))
        .seed(p.seed);
    if record {
        builder = builder.flight_recorder(REPORT_TRACE_CAPACITY);
    }
    let mut net = builder.build().expect("valid pinned configuration");
    let mut gen = WorkloadGen::new(spec, p.seed ^ 0xabcd);
    for node in 0..p.nodes {
        for _ in 0..p.subs_per_node {
            net.subscribe(node, 0, gen.subscription());
        }
    }
    net.run_to_quiescence();
    let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;

    let mut t = net.time() + SimTime::from_secs(1);
    for _ in 0..p.events {
        let node = gen.random_node(p.nodes);
        net.schedule_publish(t, node, 0, gen.event_point())
            .expect("publisher index in range");
        t += gen.interarrival();
    }
    let steps_before = net.steps();
    let publish_start = Instant::now();
    net.run_to_quiescence();
    let publish_ms = publish_start.elapsed().as_secs_f64() * 1e3;
    let sim_events = net.steps() - steps_before;

    let mut diag = IndexDiag::default();
    for n in net.nodes() {
        diag.merge(&n.index_diag());
    }
    let outcome = RunOutcome {
        setup_ms,
        publish_ms,
        sim_events,
        msgs: net.net().total_msgs(),
        digest: net.run_digest(),
        diag,
    };
    (outcome, net)
}

/// Checkpoint mode: run the pinned workload (setup + full publish
/// schedule, exactly as [`run_pinned`] would) on a snapshot-enabled
/// network, stop at simulated time `at`, and return the sealed snapshot
/// bytes. The schedule is installed up front, so the snapshot carries
/// every not-yet-delivered publish and the resumed process needs no
/// workload generator at all.
fn run_checkpoint(p: &Pinned, at: SimTime) -> Vec<u8> {
    let spec = WorkloadSpec::paper_table1();
    let registry = Registry::new(vec![spec.scheme_def(0)]);
    let mut net = Network::builder(p.nodes)
        .registry(registry)
        .config(SystemConfig::default())
        .topology(TopologyKind::KingLike(SimTime::from_millis(180)))
        .seed(p.seed)
        .snapshots(SnapshotConfig::enabled())
        .build()
        .expect("valid pinned configuration");
    let mut gen = WorkloadGen::new(spec, p.seed ^ 0xabcd);
    for node in 0..p.nodes {
        for _ in 0..p.subs_per_node {
            net.subscribe(node, 0, gen.subscription());
        }
    }
    net.run_to_quiescence();

    let mut t = net.time() + SimTime::from_secs(1);
    for _ in 0..p.events {
        let node = gen.random_node(p.nodes);
        net.schedule_publish(t, node, 0, gen.event_point())
            .expect("publisher index in range");
        t += gen.interarrival();
    }
    net.run_until(at);
    eprintln!(
        "hotpath checkpoint: paused at t={} us after {} sim events",
        net.time().as_micros(),
        net.steps()
    );
    net.snapshot().expect("snapshot a snapshot-enabled network")
}

/// Resume mode: restore a snapshot written by [`run_checkpoint`] and run
/// the remaining schedule to quiescence. Returns the finished network;
/// its digest must equal the straight-through run's.
fn run_resume(bytes: &[u8]) -> Network {
    let mut net = Network::restore(bytes).expect("restore snapshot");
    net.run_to_quiescence();
    net
}

/// One run entry, serialized as a single JSON line so the merge logic
/// below can treat the file line-by-line without a JSON parser.
fn entry_json(label: &str, mode: &str, index: IndexMode, p: &Pinned, o: &RunOutcome) -> String {
    let events_per_sec = o.sim_events as f64 / (o.publish_ms / 1e3);
    format!(
        "    {{ \"label\": \"{label}\", \"mode\": \"{mode}\", \"index\": \"{}\", \"nodes\": {}, \
         \"subs_per_node\": {}, \"published_events\": {}, \"seed\": {}, \"setup_ms\": {:.1}, \
         \"publish_ms\": {:.1}, \"sim_events\": {}, \"events_per_sec\": {:.0}, \"total_msgs\": {}, \
         \"index_entries\": {}, \"index_bytes\": {}, \"candidates_scanned\": {}, \
         \"digest\": \"{:#018x}\" }}",
        index.name(),
        p.nodes,
        p.subs_per_node,
        p.events,
        p.seed,
        o.setup_ms,
        o.publish_ms,
        o.sim_events,
        events_per_sec,
        o.msgs,
        o.diag.entries,
        o.diag.bytes,
        o.diag.candidates_scanned,
        o.digest,
    )
}

/// Pulls `"field": <number>` out of a single-line run entry.
fn extract_num(line: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\": ");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', ' ', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn extract_str<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let key = format!("\"{field}\": \"");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let label = flag("--label").unwrap_or_else(|| "run".to_string());
    let out = flag("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let report_path = flag("--report");
    let index = match flag("--index") {
        Some(s) => {
            IndexMode::parse(&s).unwrap_or_else(|| panic!("--index takes linear|bitset, got {s:?}"))
        }
        None => IndexMode::default(),
    };
    let mode = if quick { "quick" } else { "full" };
    let p = if quick {
        Pinned::quick()
    } else {
        Pinned::full()
    };

    if let Some(path) = flag("--resume") {
        let bytes = std::fs::read(&path).expect("read snapshot file");
        let net = run_resume(&bytes);
        let digest = net.run_digest();
        eprintln!(
            "hotpath resume: finished at t={} us, {} sim events, digest {digest:#018x}",
            net.time().as_micros(),
            net.steps()
        );
        if let Some(rpath) = &report_path {
            std::fs::write(rpath, net.report().to_json()).expect("write run report");
            eprintln!("hotpath resume: run report written to {rpath}");
        }
        println!("{digest:#018x}");
        if let Some(expect) = flag("--expect-digest") {
            let want = u64::from_str_radix(expect.trim_start_matches("0x"), 16)
                .expect("--expect-digest takes a hex digest");
            if digest != want {
                eprintln!(
                    "hotpath resume: DIGEST DRIFT — expected {want:#018x}, got {digest:#018x}"
                );
                std::process::exit(1);
            }
            eprintln!("hotpath resume: digest matches expected {want:#018x}");
        }
        return;
    }

    if let Some(at) = flag("--checkpoint-at") {
        let secs: f64 = at.parse().expect("--checkpoint-at takes seconds");
        eprintln!(
            "hotpath checkpoint [{mode}]: {} nodes, {} events, seed {:#x}, pausing at t={secs}s",
            p.nodes, p.events, p.seed
        );
        let bytes = run_checkpoint(&p, SimTime::from_micros((secs * 1e6) as u64));
        std::fs::write(&out, &bytes).expect("write snapshot file");
        println!("wrote {out} ({} bytes)", bytes.len());
        return;
    }

    eprintln!(
        "hotpath [{mode}]: {} nodes, {} subs/node, {} events, seed {:#x}, index {}",
        p.nodes,
        p.subs_per_node,
        p.events,
        p.seed,
        index.name()
    );
    let (o, net) = run_pinned(&p, report_path.is_some(), index);
    if let Some(path) = &report_path {
        std::fs::write(path, net.report().to_json()).expect("write run report");
        eprintln!("hotpath [{mode}]: run report written to {path}");
    }
    drop(net);
    let line = entry_json(&label, mode, index, &p, &o);
    eprintln!(
        "hotpath [{mode}] {label}: setup {:.1} ms, publish {:.1} ms, {} sim events \
         ({:.0} events/sec), digest {:#018x}",
        o.setup_ms,
        o.publish_ms,
        o.sim_events,
        o.sim_events as f64 / (o.publish_ms / 1e3),
        o.digest
    );

    // Merge with prior entries of other labels *in the same mode*; a rerun
    // of an existing (label, mode) replaces it.
    let mut runs: Vec<String> = std::fs::read_to_string(&out)
        .map(|old| {
            old.lines()
                .filter(|l| l.trim_start().starts_with("{ \"label\""))
                .filter(|l| {
                    extract_str(l, "label") != Some(&label) || extract_str(l, "mode") != Some(mode)
                })
                .map(|l| l.trim_end().trim_end_matches(',').to_string())
                .collect()
        })
        .unwrap_or_default();
    runs.push(line);

    let find = |label: &str| {
        runs.iter().find(|l| {
            extract_str(l, "label") == Some(label) && extract_str(l, "mode") == Some("full")
        })
    };
    let speedup = |base: &str, new: &str| -> Option<f64> {
        let (b, a) = (find(base)?, find(new)?);
        let bv = extract_num(b, "events_per_sec")?;
        let av = extract_num(a, "events_per_sec")?;
        Some(av / bv.max(1e-9))
    };
    // Every full-mode row measures the identical workload, so all their
    // digests must agree regardless of label or index shape.
    let full_digests: Vec<&str> = runs
        .iter()
        .filter(|l| extract_str(l, "mode") == Some("full"))
        .filter_map(|l| extract_str(l, "digest"))
        .collect();
    let digests_match = full_digests.windows(2).all(|w| w[0] == w[1]);
    let speedup = speedup("baseline", "after").map_or("null".to_string(), |s| format!("{s:.2}"));
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"runs\": [\n{}\n  ],\n  \
         \"speedup_after_vs_baseline\": {speedup}, \"digests_match\": {digests_match}\n}}\n",
        runs.join(",\n"),
    );
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}
