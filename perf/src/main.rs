//! `hypersub-perf --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload and prints the result as the last line of standard
//! output; `hypersub-perf selftest` proves the benchmark drives the
//! program the way the repo's golden run does. Exit code 0 only when
//! every check passed.

use hypersub_perf::shape::{Shape, HOTPATH_DIGEST, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hypersub-perf --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         hypersub-perf selftest",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["selftest"] {
        let digest = hypersub_perf::selftest_digest();
        println!("selftest: digest {digest:#018x}, expected {HOTPATH_DIGEST:#018x}");
        return if digest == HOTPATH_DIGEST {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let shape = flag("--workload").and_then(|w| Shape::named(w));
    let seed = flag("--seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = flag("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0);
    let trace = flag("--trace").and_then(|t| match t.as_str() {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    });
    let (Some(shape), Some(seed), Some(seconds), Some(trace)) = (shape, seed, seconds, trace)
    else {
        return usage();
    };
    let trace_out = PathBuf::from(format!("perf/out/trace-{}.json", shape.name));
    let outcome = hypersub_perf::run(&shape, seed, seconds, trace, Some(&trace_out));
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
