//! Byte-stability golden test for the versioned snapshot encoding.
//!
//! A fixed scenario's snapshot must stay **byte-identical** to the
//! committed `tests/golden/snapshot_v1.bin`: the format is versioned
//! (envelope magic `HSNP`, version 1) and restore must keep working on
//! old bytes, so any encoding change — field order, widths, map
//! ordering, envelope framing — is a format break that requires a
//! version bump, not a silent re-capture.
//!
//! If the encoding changes *on purpose* (with a version bump and
//! migration story per DESIGN.md), re-capture with
//! `UPDATE_SNAPSHOT_GOLDEN=1 cargo test -p hypersub-tests --test
//! snapshot_golden` and justify the bump in the same commit.

use hypersub_core::prelude::*;
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use std::path::PathBuf;

/// Digest the pinned scenario reaches when run to completion; restoring
/// the golden bytes must still get there.
const GOLDEN_TAIL_DIGEST: u64 = 0xf4b4_983d_0cea_388b;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("snapshot_v1.bin")
}

/// The pinned scenario: every input fixed, snapshot taken at t = 6 s.
fn pinned_snapshot() -> Vec<u8> {
    let scheme = SchemeDef::builder("golden")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0);
    let mut net = Network::builder(16)
        .registry(Registry::new(vec![scheme]))
        .config(SystemConfig::default().with_retries())
        .latency(SimTime::from_millis(10))
        .seed(0x90_1d_e4)
        .build()
        .expect("valid golden network");
    let mut gen = WorkloadGen::new(WorkloadSpec::paper_table1(), 0x90_1d_e4 ^ 0x60_1d);
    for i in 0..32 {
        let r4 = gen.subscription().rect;
        let rect = Rect::new(
            vec![r4.lo[0] / 100.0, r4.lo[1] / 100.0],
            vec![r4.hi[0] / 100.0, r4.hi[1] / 100.0],
        );
        net.subscribe(i % 16, 0, Subscription::new(rect));
    }
    net.run_to_quiescence();
    let mut t = net.time() + SimTime::from_secs(1);
    for i in 0..12 {
        let p4 = gen.event_point();
        let p = Point(vec![p4.0[0] / 100.0, p4.0[1] / 100.0]);
        net.schedule_publish(t, (i * 13) % 16, 0, p)
            .expect("publisher index in range");
        t += SimTime::from_millis(750);
    }
    net.run_until(SimTime::from_secs(6));
    net.snapshot().expect("snapshot-enabled network")
}

#[test]
fn snapshot_v1_bytes_are_stable() {
    let bytes = pinned_snapshot();
    let path = golden_path();
    if std::env::var_os("UPDATE_SNAPSHOT_GOLDEN").is_some() {
        std::fs::write(&path, &bytes).expect("write golden snapshot");
        panic!(
            "golden snapshot re-captured to {} ({} bytes) — commit it and drop \
             UPDATE_SNAPSHOT_GOLDEN",
            path.display(),
            bytes.len()
        );
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); capture with UPDATE_SNAPSHOT_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        bytes.len(),
        golden.len(),
        "snapshot length changed — encoding drift needs a version bump"
    );
    let first_diff = bytes.iter().zip(&golden).position(|(a, b)| a != b);
    assert_eq!(
        first_diff, None,
        "snapshot bytes diverge from golden at offset {first_diff:?} — \
         encoding drift needs a version bump"
    );
}

#[test]
fn golden_snapshot_still_restores() {
    let golden = std::fs::read(golden_path()).expect("golden snapshot present");
    let mut net = Network::restore(&golden).expect("version-1 bytes restore");
    net.run_to_quiescence();
    let d = net.run_digest();
    println!("tail digest: {d:#018x}");
    assert_eq!(d, GOLDEN_TAIL_DIGEST, "observed {d:#018x}");
}
