//! Adversity scenario runner: executes the named scenarios from
//! `hypersub-scenario` and writes machine-readable verdict JSONs.
//!
//! Usage:
//!
//! * `scenario list [--names]` — print the catalog (name, defense,
//!   designated invariant, description); `--names` prints bare names
//!   only, one per line, for shell loops.
//! * `scenario run --scenario NAME | --all [--seed S] [--quick]
//!   [--no-defense] [--out-dir DIR] [--stamp-dir DIR]` — run scenarios
//!   and write `SCENARIO_<name>.json` verdict files into `--out-dir`
//!   (default `results/`).
//!
//! With `--stamp-dir`, `churn_soak` runs **one checkpointed segment per
//! invocation**: segment `k`'s snapshot is stamped to
//! `churn_soak.seg<k>.bin` and the next invocation resumes from it, so a
//! CI pipeline (or `run_experiments.sh`) advances the soak across
//! separate process runs while producing the same digest and verdicts as
//! an uninterrupted run. Without `--stamp-dir` every scenario (including
//! the soak, via in-process checkpoint/restore) completes in one call.
//!
//! Exit status: 0 when every invariant of every run passed, 1 when any
//! verdict failed, 2 on usage errors (an argument nobody takes is one).
//! `--no-defense` runs are expected to fail their designated invariant —
//! the harness still exits 1, which is the point: a disabled defense
//! must be *visible*.

use hypersub_bench::Args;
use hypersub_scenario::{RunConfig, Scenario, ScenarioOutcome, SoakStep, Tier};
use std::path::{Path, PathBuf};

const USAGE: &str = "list [--names] | run (--scenario NAME | --all) [--seed S] [--quick] \
    [--no-defense] [--out-dir DIR] [--stamp-dir DIR]";

fn list(names_only: bool) {
    for s in Scenario::ALL {
        if names_only {
            println!("{}", s.name());
        } else {
            println!(
                "{:22} defense: {:38} designated: {}\n{:22} {}",
                s.name(),
                s.defense(),
                s.designated_invariant(),
                "",
                s.description()
            );
        }
    }
}

/// Runs `churn_soak` one segment per invocation, stamping snapshots
/// under `stamps`. Returns the outcome only when the final segment ran.
fn run_soak_stamped(cfg: &RunConfig, stamps: &Path) -> Option<ScenarioOutcome> {
    std::fs::create_dir_all(stamps).expect("create stamp dir");
    let seg_path = |k: usize| stamps.join(format!("churn_soak.seg{k}.bin"));
    let segments = hypersub_scenario::soak_segment_count(cfg.tier);
    // Resume after the newest stamp on disk.
    let next = (0..segments).take_while(|&k| seg_path(k).exists()).count();
    if next >= segments {
        // A finished soak restarts from scratch on the next invocation.
        for k in 0..segments {
            let _ = std::fs::remove_file(seg_path(k));
        }
        return run_soak_stamped(cfg, stamps);
    }
    let resume = if next > 0 {
        Some(std::fs::read(seg_path(next - 1)).expect("read soak checkpoint"))
    } else {
        None
    };
    match hypersub_scenario::soak_segment(cfg, next, resume.as_deref()).expect("soak segment") {
        SoakStep::Checkpoint(bytes) => {
            std::fs::write(seg_path(next), bytes).expect("write soak checkpoint");
            println!(
                "churn_soak: segment {}/{} checkpointed (resumable)",
                next + 1,
                segments
            );
            None
        }
        SoakStep::Done(outcome) => {
            // Clear the stamps so the next pipeline run starts fresh.
            for k in 0..segments {
                let _ = std::fs::remove_file(seg_path(k));
            }
            Some(*outcome)
        }
    }
}

fn main() {
    let mut args = Args::from_env(USAGE);
    if args.flag("list") {
        let names_only = args.flag("--names");
        args.finish();
        return list(names_only);
    }
    if !args.flag("run") {
        args.fail("expected subcommand `list` or `run`");
    }
    let cfg = RunConfig {
        tier: if args.quick() {
            Tier::Quick
        } else {
            Tier::Full
        },
        seed: args.parsed("--seed").unwrap_or(7),
        defense: !args.flag("--no-defense"),
    };
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("results".into()));
    let stamp_dir = args.value("--stamp-dir").map(PathBuf::from);
    let scenarios: Vec<Scenario> = if args.flag("--all") {
        Scenario::ALL.to_vec()
    } else {
        match args.value("--scenario") {
            Some(name) => match Scenario::from_name(&name) {
                Some(s) => vec![s],
                None => args.fail(&format!("unknown scenario {name:?}; try `scenario list`")),
            },
            None => args.fail("pick --scenario NAME or --all"),
        }
    };
    args.finish();

    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let mut all_passed = true;
    for s in scenarios {
        let outcome = match (&stamp_dir, s) {
            (Some(stamps), Scenario::ChurnSoak) => match run_soak_stamped(&cfg, stamps) {
                Some(o) => o,
                None => continue, // mid-soak segment: no verdict yet
            },
            _ => s.run(&cfg).expect("scenario run"),
        };
        let path = out_dir.join(format!("SCENARIO_{}.json", outcome.scenario));
        std::fs::write(&path, outcome.to_json()).expect("write verdict JSON");
        let status = if outcome.passed() { "PASS" } else { "FAIL" };
        println!(
            "{:22} {} seed={} tier={} defense={} digest={:#018x} -> {}",
            outcome.scenario,
            status,
            outcome.seed,
            outcome.tier.as_str(),
            outcome.defense,
            outcome.digest,
            path.display()
        );
        for v in &outcome.verdicts {
            println!(
                "    [{}] {:28} {}",
                if v.passed { "ok" } else { "FAIL" },
                v.invariant,
                v.details
            );
        }
        all_passed &= outcome.passed();
    }
    if !all_passed {
        std::process::exit(1);
    }
}
