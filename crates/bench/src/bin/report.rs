//! Run-report inspector: summarize one report, or diff two.
//!
//! Reports are the JSON documents `hotpath --report PATH` (and
//! `Network::report()` generally) produce — see `hypersub_core::report`.
//!
//! Usage:
//!   report summarize FILE
//!   report diff BASELINE CANDIDATE
//!
//! `diff` prints per-field deltas and exits nonzero when the two runs'
//! digests differ or when any `repair.*` counter drifts (a counter
//! absent from a report counts as zero, so baselines predating the
//! self-healing plane remain comparable) — the CI gate against
//! behavioral drift on the pinned workload.

use hypersub_bench::Args;
use hypersub_core::report::Report;
use std::collections::BTreeSet;
use std::process::ExitCode;

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Report::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn summarize(path: &str, r: &Report) {
    println!("report {path}");
    println!("  nodes          {}", r.nodes);
    println!("  sim time       {:.3} s", r.time_us as f64 / 1e6);
    println!("  sim steps      {}", r.steps);
    println!("  digest         {:#018x}", r.digest);
    let e = &r.events;
    println!(
        "  events         {} published, {}/{} delivered, {} dup, max {} hops / {:.1} ms",
        e.published,
        e.delivered,
        e.expected,
        e.duplicates,
        e.max_hops,
        e.max_latency_us as f64 / 1e3
    );
    let n = &r.net;
    println!(
        "  net            {} msgs, {} bytes, drops {} dead / {} loss / {} partition, {} dup",
        n.total_msgs, n.total_bytes, n.dropped, n.fault_dropped, n.partition_dropped, n.duplicated
    );
    for (name, c) in &r.counters {
        println!(
            "  counter        {name:<28} total {:>8}  max/node {}",
            c.total, c.max_node
        );
    }
    for (name, h) in &r.histograms {
        let mean = if h.count == 0 {
            0.0
        } else {
            h.sum as f64 / h.count as f64
        };
        println!(
            "  histogram      {name:<28} n {:>8}  mean {mean:.1}  max {}",
            h.count, h.max
        );
    }
    match &r.trace {
        None => println!("  trace          (recording disabled)"),
        Some(t) => {
            println!(
                "  trace          {} recorded, {} evicted (capacity {})",
                t.recorded, t.evicted, t.capacity
            );
            for (kind, count) in &t.kinds {
                println!("    {kind:<20} {count}");
            }
        }
    }
}

fn delta_line(name: &str, a: u64, b: u64) {
    if a == b {
        println!("  {name:<28} {a:>12}  (unchanged)");
    } else {
        let pct = if a == 0 {
            f64::INFINITY
        } else {
            100.0 * (b as f64 - a as f64) / a as f64
        };
        println!("  {name:<28} {a:>12} -> {b:<12} ({pct:+.1}%)");
    }
}

/// A counter's namespace: the prefix before the first dot (`retry` for
/// `retry.attempts`).
fn namespace(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// All counter namespaces a report carries.
fn namespaces(r: &Report) -> BTreeSet<&str> {
    r.counters.iter().map(|(n, _)| namespace(n)).collect()
}

fn diff(pa: &str, a: &Report, pb: &str, b: &Report) -> ExitCode {
    println!("diff {pa} -> {pb}");
    delta_line("nodes", a.nodes, b.nodes);
    delta_line("time_us", a.time_us, b.time_us);
    delta_line("steps", a.steps, b.steps);
    delta_line("events.published", a.events.published, b.events.published);
    delta_line("events.delivered", a.events.delivered, b.events.delivered);
    delta_line(
        "events.duplicates",
        a.events.duplicates,
        b.events.duplicates,
    );
    delta_line("net.total_msgs", a.net.total_msgs, b.net.total_msgs);
    delta_line("net.total_bytes", a.net.total_bytes, b.net.total_bytes);
    delta_line("net.dropped", a.net.dropped, b.net.dropped);
    // Reports from different systems legitimately carry different
    // counter namespaces (a baseline's `load.*` vs HyperSub's
    // `index.*`). A counter whose whole namespace is absent from the
    // other side is a note, never a zero-delta comparison — only
    // counters in shared namespaces are diffed numerically (and there an
    // individually missing counter still counts as zero).
    let ns_a = namespaces(a);
    let ns_b = namespaces(b);
    for (name, ca) in &a.counters {
        if !ns_b.contains(namespace(name)) {
            println!(
                "  {name:<28} (only in {pa}: no `{}.*` counters in {pb})",
                namespace(name)
            );
            continue;
        }
        delta_line(name, ca.total, b.counter_total(name));
    }
    for (name, _) in &b.counters {
        if !a.counters.iter().any(|(n, _)| n == name) {
            if ns_a.contains(namespace(name)) {
                println!("  {name:<28} (only in {pb})");
            } else {
                println!(
                    "  {name:<28} (only in {pb}: no `{}.*` counters in {pa})",
                    namespace(name)
                );
            }
        }
    }
    // Self-healing activity on a pinned workload must be reproducible:
    // any repair.* total drifting between baseline and candidate is a
    // build failure, digest match or not — but only when both reports
    // carry the namespace. A system without a self-healing plane is a
    // different system, not a regression.
    let repair_comparable = ns_a.contains("repair") == ns_b.contains("repair");
    if !repair_comparable {
        let (with, without) = if ns_a.contains("repair") {
            (pa, pb)
        } else {
            (pb, pa)
        };
        println!(
            "  note: repair.* drift gate skipped — {with} has a \
             self-healing plane, {without} does not"
        );
    }
    let mut repair: Vec<&str> = a
        .counters
        .iter()
        .chain(b.counters.iter())
        .map(|(n, _)| n.as_str())
        .filter(|n| n.starts_with("repair."))
        .collect();
    repair.sort_unstable();
    repair.dedup();
    let drifted: Vec<&str> = if repair_comparable {
        repair
            .into_iter()
            .filter(|n| a.counter_total(n) != b.counter_total(n))
            .collect()
    } else {
        Vec::new()
    };
    let mut failed = false;
    if !drifted.is_empty() {
        eprintln!(
            "report diff: self-healing drift — counters changed: {}",
            drifted.join(", ")
        );
        failed = true;
    }
    if a.digest == b.digest {
        println!("  digest                       {:#018x}  MATCH", a.digest);
    } else {
        println!(
            "  digest                       {:#018x} -> {:#018x}  MISMATCH",
            a.digest, b.digest
        );
        eprintln!("report diff: behavioral drift — run digests differ");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut args = Args::from_env("summarize FILE | diff BASELINE CANDIDATE");
    let want = match args.positional().as_deref() {
        Some("summarize") => 1,
        Some("diff") => 2,
        _ => args.fail("expected `summarize` or `diff`"),
    };
    let paths: Vec<String> = (0..want).map_while(|_| args.positional()).collect();
    if paths.len() < want {
        args.fail("missing a report file");
    }
    args.finish();
    let reports: Result<Vec<Report>, String> = paths.iter().map(|p| load(p)).collect();
    match reports.as_deref() {
        Ok([r]) => {
            summarize(&paths[0], r);
            ExitCode::SUCCESS
        }
        Ok([a, b]) => diff(&paths[0], a, &paths[1], b),
        Ok(_) => unreachable!("one or two paths were taken"),
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::FAILURE
        }
    }
}
