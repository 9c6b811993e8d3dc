//! The benchmark's own checks, at toy sizes: what it prints is what
//! `BENCHMARK.json` lists, counts repeat exactly, and the span recorder's
//! arithmetic is right.

use hypersub_perf::metrics::Outcome;
use hypersub_perf::shape::{Shape, WORKLOADS};
use hypersub_perf::span::{self_seconds, Recorder, Span};

fn toy(name: &str) -> Shape {
    Shape {
        nodes: 64,
        subs: 512,
        warmup_events: 50,
        batch_events: 100,
        rounds: 2,
        ..Shape::named(name).expect("a listed workload")
    }
}

/// A run of the minimum number of reps.
fn run(name: &str, seed: u64, trace: bool) -> Outcome {
    hypersub_perf::run(&toy(name), seed, 0.0, trace, None)
}

/// One string field of every entry of a top-level array of
/// `BENCHMARK.json`. The entries hold no nested array, so the array ends
/// at the next `]`.
fn listed(key: &str, field: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let from = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[from..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let at = entry.find(&format!("\"{field}\"")).expect("field present");
            let rest = &entry[at + field.len() + 2..];
            let rest = &rest[rest.find('"').expect("string opens") + 1..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

#[test]
fn workloads_are_the_listed_ones() {
    assert_eq!(listed("workloads", "name"), WORKLOADS);
}

#[test]
fn every_workload_prints_exactly_the_listed_metrics() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for workload in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(workload, 1, trace);
            assert!(outcome.correct, "{workload} trace={trace}");
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            let (names, units): (Vec<_>, Vec<_>) = outcome
                .metrics
                .iter()
                .map(|(n, _, u)| (n.clone(), u.to_string()))
                .unzip();
            assert_eq!(names, listed(key, "name"), "{workload} trace={trace}");
            assert_eq!(units, listed(key, "unit"), "{workload} trace={trace}");
            for (name, value, unit) in &outcome.metrics {
                assert!(name_ok(name) && unit_ok(unit), "{name} [{unit}]");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                // Every end-to-end metric is non-zero; a per-layer one may
                // be (no churn span where nothing churns).
                assert!(trace || *value != 0.0, "{workload}: {name} is zero");
            }
            // The result line is one JSON object with the contract's keys.
            let line = outcome.to_json();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains('\n'));
        }
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed_and_move_with_it() {
    let counts = |o: &Outcome| -> Vec<u64> {
        [
            "sim_latency_p50_us",
            "sim_latency_p99_us",
            "hops_per_event",
            "kb_per_event",
            "install_msgs_per_sub",
            "load_gini",
        ]
        .iter()
        .map(|n| o.value(n).expect("listed metric").to_bits())
        .collect()
    };
    for workload in WORKLOADS {
        let a = run(workload, 7, false);
        let b = run(workload, 7, false);
        assert_eq!(counts(&a), counts(&b), "{workload}");
        assert_eq!(a.attempted, b.attempted);
        let other = run(workload, 8, false);
        assert_ne!(
            counts(&a),
            counts(&other),
            "{workload}: the seed changes the inputs"
        );
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        rep: 0,
    };
    // rep [0,100] > install [10,60] > { subscribe [10,20], run [20,55] }
    //             > publish [60,90]; a second publish [200,230] stands alone.
    let spans = [
        span("rep", 0, 100, None),
        span("install", 10, 60, Some(0)),
        span("subscribe", 10, 20, Some(1)),
        span("run", 20, 55, Some(1)),
        span("publish", 60, 90, Some(0)),
        span("publish", 200, 230, None),
    ];
    let own = self_seconds(&spans);
    let ns = |name: &str| (own[name] * 1e9).round() as u64;
    assert_eq!(ns("rep"), 100 - 50 - 30);
    assert_eq!(ns("install"), 50 - 10 - 35);
    assert_eq!(ns("subscribe"), 10);
    assert_eq!(ns("run"), 35);
    assert_eq!(ns("publish"), 30 + 30, "spans of one name add up");
}

#[test]
fn recorder_nests_spans_and_is_silent_when_off() {
    let mut rec = Recorder::new(true);
    rec.start_rep(3);
    let outer = rec.enter("outer");
    let inner = rec.enter("inner");
    rec.exit(inner);
    rec.exit(outer);
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(
        (spans[0].name, spans[0].parent, spans[0].rep),
        ("outer", None, 3)
    );
    assert_eq!(
        (spans[1].name, spans[1].parent, spans[1].rep),
        ("inner", Some(0), 3)
    );
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let mut json = Vec::new();
    rec.write_json(&mut json).expect("write to memory");
    let json = String::from_utf8(json).expect("utf-8");
    assert!(json.contains("\"name\": \"inner\""));
    assert!(json.contains("\"parent\": 0"));

    let mut off = Recorder::new(false);
    let open = off.enter("unrecorded");
    off.exit(open);
    assert!(off.spans().is_empty());
}
