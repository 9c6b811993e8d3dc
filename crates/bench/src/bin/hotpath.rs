//! The pinned digest run: one fixed, fully seeded §5.1 experiment whose
//! run digest (delivery trace + network counters, see
//! `hypersub_core::digest`) is the repo's behaviour contract —
//! `0xa933dad345c3b430`, or `0x420a6a1ef6408bbe` with `--quick`. A change
//! that moves it changed behaviour, not only speed. How fast the run is
//! is `perf/`'s business (its `selftest` drives this same recipe); this
//! binary times nothing.
//!
//! * `hotpath [--quick] [--report PATH]` runs straight through.
//!   `--report` installs a flight recorder (digest-neutral) and writes
//!   the run [`Report`](hypersub_core::report) as JSON — the artifact
//!   `report diff` compares in CI.
//! * `hotpath [--quick] --checkpoint-at SECS --out SNAP` runs until
//!   simulated time `SECS`, writes a whole-network snapshot and exits.
//! * `hotpath --resume SNAP [--report PATH]` restores `SNAP` in a fresh
//!   process and runs to completion; the digest must equal the
//!   straight-through run's.
//!
//! Every mode that finishes a run prints its digest and takes
//! `--expect-digest 0xHEX`: exit 1 unless the digest matches.

use hypersub_bench::Args;
use hypersub_core::model::Registry;
use hypersub_core::sim::Network;
use hypersub_simnet::SimTime;
use hypersub_workload::{WorkloadGen, WorkloadSpec};

const USAGE: &str = "[--quick] [--report PATH] [--expect-digest 0xHEX] \
    | [--quick] --checkpoint-at SECS --out SNAP \
    | --resume SNAP [--report PATH] [--expect-digest 0xHEX]";

/// Seed of the pinned network; the generator's is `SEED ^ 0xabcd`.
const SEED: u64 = 0xbe9c_2007;

/// The pinned workload's size — (nodes, subscriptions per node, events);
/// everything else about it is fixed.
type Shape = (usize, usize, usize);
const FULL: Shape = (1024, 5, 3000);
const QUICK: Shape = (192, 4, 600);

/// Trace window for `--report` runs: big enough to keep the interesting
/// tail, small enough to stay cheap.
const REPORT_TRACE_CAPACITY: usize = 1 << 14;

/// The pinned network with its subscriptions installed and its whole
/// publish schedule queued. The schedule goes in up front, so a snapshot
/// carries every publish not yet delivered and the resumed process needs
/// no workload generator.
fn pinned((nodes, subs_per_node, events): Shape, record: bool) -> Network {
    eprintln!("hotpath: {nodes} nodes, {subs_per_node} subs/node, {events} events, seed {SEED:#x}");
    let spec = WorkloadSpec::paper_table1();
    let mut builder = Network::builder(nodes)
        .registry(Registry::new(vec![spec.scheme_def(0)]))
        .king_like(SimTime::from_millis(180))
        .seed(SEED);
    if record {
        builder = builder.flight_recorder(REPORT_TRACE_CAPACITY);
    }
    let mut net = builder.build().expect("valid pinned configuration");
    let mut gen = WorkloadGen::new(spec, SEED ^ 0xabcd);
    gen.install(&mut net, subs_per_node);
    net.run_to_quiescence();
    gen.schedule(&mut net, events);
    net
}

fn main() {
    let mut args = Args::from_env(USAGE);
    if let Some(secs) = args.parsed::<f64>("--checkpoint-at") {
        let shape = if args.quick() { QUICK } else { FULL };
        let Some(out) = args.value("--out") else {
            args.fail("--checkpoint-at needs --out SNAP");
        };
        args.finish();
        let mut net = pinned(shape, false);
        net.run_until(SimTime::from_micros((secs * 1e6) as u64));
        let bytes = net.snapshot();
        std::fs::write(&out, &bytes).expect("write snapshot file");
        println!(
            "wrote {out} ({} bytes) at t={} us after {} sim events",
            bytes.len(),
            net.time().as_micros(),
            net.steps()
        );
        return;
    }
    let report = args.value("--report");
    let expect = args.value("--expect-digest").map(|s| {
        u64::from_str_radix(s.trim_start_matches("0x"), 16)
            .unwrap_or_else(|_| args.fail("--expect-digest takes a hex digest"))
    });
    let mut net = match args.value("--resume") {
        Some(snap) => {
            args.finish();
            let bytes = std::fs::read(&snap).expect("read snapshot file");
            Network::restore(&bytes).expect("restore snapshot")
        }
        None => {
            let shape = if args.quick() { QUICK } else { FULL };
            args.finish();
            pinned(shape, report.is_some())
        }
    };
    net.run_to_quiescence();
    let digest = net.run_digest();
    eprintln!(
        "hotpath: finished at t={} us, {} sim events",
        net.time().as_micros(),
        net.steps()
    );
    if let Some(path) = &report {
        std::fs::write(path, net.report().to_json()).expect("write run report");
        eprintln!("hotpath: run report written to {path}");
    }
    println!("{digest:#018x}");
    if let Some(want) = expect {
        if digest != want {
            eprintln!("hotpath: DIGEST DRIFT — digest {digest:#018x}, expected {want:#018x}");
            std::process::exit(1);
        }
        eprintln!("hotpath: digest {digest:#018x}, expected {want:#018x}");
    }
}
