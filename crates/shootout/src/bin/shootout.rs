//! `shootout` — run the five-system comparison and emit `SHOOTOUT.json`.
//!
//! ```text
//! shootout run --all [--quick] [--seed S] [--out PATH] [--out-dir DIR] [--expect REF]
//! shootout run --system NAME [--quick] [--seed S] [--out PATH]
//! ```
//!
//! Exit codes: 0 success, 1 equivalence violation or digest drift
//! against `--expect`, 2 usage error (an `--expect` reference that
//! does not parse or pins no run is one).

use hypersub_shootout::{
    all_systems, digests_from_json, render_table, run_rung, shootout_json, system_by_name,
    RungOutcome, System, FULL_LADDER, QUICK_LADDER,
};
use std::process::ExitCode;

struct Args {
    systems: Vec<System>,
    quick: bool,
    seed: u64,
    out: Option<String>,
    out_dir: Option<String>,
    expect: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: shootout run (--all | --system NAME) [--quick] [--seed S] \
         [--out PATH] [--out-dir DIR] [--expect REF.json]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) != Some("run") {
        return Err("expected subcommand `run`".to_string());
    }
    let mut args = Args {
        systems: Vec::new(),
        quick: false,
        seed: 7,
        out: None,
        out_dir: None,
        expect: None,
    };
    let mut all = false;
    let mut it = argv[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => all = true,
            "--quick" | "-q" => args.quick = true,
            "--system" => {
                let name = it.next().ok_or("--system needs a name")?;
                let sys = system_by_name(name).ok_or_else(|| format!("unknown system `{name}`"))?;
                args.systems.push(sys);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?.clone()),
            "--out-dir" => {
                args.out_dir = Some(it.next().ok_or("--out-dir needs a path")?.clone());
            }
            "--expect" => {
                args.expect = Some(it.next().ok_or("--expect needs a path")?.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if all {
        args.systems = all_systems();
    }
    if args.systems.is_empty() {
        return Err("pick --all or at least one --system".to_string());
    }
    Ok(args)
}

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
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shootout: {e}");
            return usage();
        }
    };
    let ladder = if args.quick {
        QUICK_LADDER
    } else {
        FULL_LADDER
    };
    let tier = if args.quick { "quick" } else { "full" };
    let mut outcomes: Vec<RungOutcome> = Vec::new();
    for &rung in ladder {
        let outcome = match run_rung(&args.systems, rung, args.seed) {
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
    let doc = shootout_json(args.seed, tier, &outcomes);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("shootout: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    } else {
        println!("{doc}");
    }
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("shootout: cannot create {dir}: {e}");
            return ExitCode::from(2);
        }
        for o in &outcomes {
            for r in &o.runs {
                let path = format!("{dir}/REPORT_{}_{}.json", r.system, r.nodes);
                if let Err(e) = std::fs::write(&path, r.report.to_json()) {
                    eprintln!("shootout: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        println!("wrote per-system reports to {dir}/");
    }
    let mut failed = !outcomes.iter().all(|o| o.ok());
    if let Some(refpath) = &args.expect {
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
