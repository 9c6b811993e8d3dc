//! `shootout` — run the five-system comparison and emit `SHOOTOUT.json`.
//!
//! ```text
//! shootout run --all [--quick] [--seed S] [--out PATH] [--out-dir DIR] [--expect REF]
//! shootout run --system NAME [--system NAME…] [--quick] [--seed S] [--out PATH]
//! ```
//!
//! Exit codes: 0 success, 1 equivalence violation or digest drift
//! against `--expect`, 2 usage error (an `--expect` reference that
//! does not parse or pins no run is one).

use hypersub_bench::Args;
use hypersub_shootout::{
    all_systems, digests_from_json, render_table, run_rung, shootout_json, system_by_name,
    RungOutcome, FULL_LADDER, QUICK_LADDER,
};
use std::process::ExitCode;

const USAGE: &str = "run (--all | --system NAME) [--quick] [--seed S] \
    [--out PATH] [--out-dir DIR] [--expect REF.json]";

/// Compares this run's deterministic digests against a pinned reference
/// document; returns drift descriptions, or why the reference cannot be
/// compared against.
fn digest_drift(doc: &str, reference: &str) -> Result<Vec<String>, String> {
    let got = digests_from_json(doc).expect("this run's own document");
    let want = digests_from_json(reference)?;
    let mut drift = Vec::new();
    for (sys, nodes, d) in &want {
        match got.iter().find(|(s, n, _)| s == sys && n == nodes) {
            Some((_, _, g)) if g == d => {}
            Some((_, _, g)) => drift.push(format!("{sys} @ {nodes} nodes: digest {g}, pinned {d}")),
            None => drift.push(format!("{sys} @ {nodes} nodes: missing from this run")),
        }
    }
    Ok(drift)
}

fn main() -> ExitCode {
    let mut args = Args::from_env(USAGE);
    if !args.flag("run") {
        args.fail("expected subcommand `run`");
    }
    let mut systems = Vec::new();
    while let Some(name) = args.value("--system") {
        match system_by_name(&name) {
            Some(s) => systems.push(s),
            None => args.fail(&format!("unknown system `{name}`")),
        }
    }
    if args.flag("--all") {
        systems = all_systems();
    }
    let quick = args.quick();
    let seed = args.parsed("--seed").unwrap_or(7);
    let out = args.value("--out");
    let out_dir = args.value("--out-dir");
    let expect = args.value("--expect");
    if systems.is_empty() {
        args.fail("pick --all or at least one --system");
    }
    args.finish();

    let (ladder, tier) = if quick {
        (QUICK_LADDER, "quick")
    } else {
        (FULL_LADDER, "full")
    };
    let mut outcomes: Vec<RungOutcome> = Vec::new();
    for &rung in ladder {
        let outcome = match run_rung(&systems, rung, seed) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("shootout: rung {rung:?} failed: {e}");
                return ExitCode::from(2);
            }
        };
        println!("{}", render_table(&outcome));
        for f in &outcome.failures {
            eprintln!("EQUIVALENCE FAILURE: {f}");
        }
        outcomes.push(outcome);
    }
    let doc = shootout_json(seed, tier, &outcomes);
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("shootout: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    } else {
        println!("{doc}");
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("shootout: cannot create {dir}: {e}");
            return ExitCode::from(2);
        }
        for o in &outcomes {
            for r in &o.runs {
                let path = format!("{dir}/REPORT_{}_{}.json", r.system, r.report.nodes);
                if let Err(e) = std::fs::write(&path, r.report.to_json()) {
                    eprintln!("shootout: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        println!("wrote per-system reports to {dir}/");
    }
    let mut failed = !outcomes.iter().all(|o| o.ok());
    if let Some(refpath) = &expect {
        let reference = std::fs::read_to_string(refpath).map_err(|e| e.to_string());
        match reference.and_then(|r| digest_drift(&doc, &r)) {
            Ok(drift) if drift.is_empty() => {
                println!("digests match pinned reference {refpath}");
            }
            Ok(drift) => {
                for d in drift {
                    eprintln!("DIGEST DRIFT: {d}");
                }
                failed = true;
            }
            Err(e) => {
                eprintln!("shootout: cannot use --expect {refpath}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
