//! Byte-stability golden tests for the versioned snapshot encoding.
//!
//! Two fixed scenarios' snapshots must stay **byte-identical** to the
//! committed `tests/golden/snapshot_v2.bin` (a retries-only network) and
//! `tests/golden/snapshot_v2_planes.bin` (every opt-in plane on, caught
//! with a migration, retransmissions and replication in flight): the
//! format is versioned (envelope magic `HSNP`, version 2) and restore
//! must keep working on bytes a binary of the same version wrote, so any
//! encoding change — field order, widths, map ordering, envelope
//! framing — is a format break that requires a version bump, not a
//! silent re-capture. Bytes of an older version are refused, not
//! reinterpreted.
//!
//! If the encoding changes *on purpose* (with a version bump and
//! migration story per DESIGN.md), re-capture with
//! `UPDATE_SNAPSHOT_GOLDEN=1 cargo test -p hypersub-tests --test
//! snapshot_golden` and justify the bump in the same commit.

use hypersub_chord::proto::ChordMsg;
use hypersub_core::msg::HyperMsg;
use hypersub_core::prelude::*;
use hypersub_core::world::{Oracle, Scripted};
use hypersub_simnet::{SimEvent, SimSnapshot, TraceEvent};
use hypersub_snapshot::{Decode, Reader};
use hypersub_workload::{WorkloadGen, WorkloadSpec};
use std::path::PathBuf;
use std::sync::Arc;

/// Digest the pinned scenario reaches when run to completion; restoring
/// the golden bytes must still get there.
const GOLDEN_TAIL_DIGEST: u64 = 0xf4b4_983d_0cea_388b;

/// Digest the planes scenario reaches at [`PLANES_HORIZON`] (its lease
/// and LB timers never drain, so there is no quiescence to run to).
const PLANES_TAIL_DIGEST: u64 = 0x3c9e_8a60_b452_f798;

/// When the planes scenario is captured, and how far its tail runs.
const PLANES_SNAPSHOT_AT: SimTime = SimTime::from_millis(30_511);
const PLANES_HORIZON: SimTime = SimTime::from_secs(120);

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file)
}

/// The Table 1 workload's first two dimensions, scaled into the
/// `[0, 100]²` scheme both scenarios use.
fn scaled_rect(gen: &mut WorkloadGen) -> Rect {
    let r4 = gen.subscription().rect;
    Rect::new(
        vec![r4.lo()[0] / 100.0, r4.lo()[1] / 100.0],
        vec![r4.hi()[0] / 100.0, r4.hi()[1] / 100.0],
    )
}

fn scaled_point(gen: &mut WorkloadGen) -> Point {
    let p4 = gen.event_point();
    Point(vec![p4.0[0] / 100.0, p4.0[1] / 100.0])
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
        net.subscribe(i % 16, 0, Subscription::new(scaled_rect(&mut gen)));
    }
    net.run_to_quiescence();
    let mut t = net.time() + SimTime::from_secs(1);
    for i in 0..12 {
        net.schedule_publish(t, (i * 13) % 16, 0, scaled_point(&mut gen))
            .expect("publisher index in range");
        t += SimTime::from_millis(750);
    }
    net.run_until(SimTime::from_secs(6));
    net.snapshot()
}

/// The planes scenario: `tests/checkpoint_restore.rs`'s LB + healing +
/// node-failure network with retries, Chord maintenance, a flight
/// recorder and a fault plane (lossy duplicating global policy, two link
/// overrides, one partition, one policy window), run to `at`.
fn planes_network() -> Network {
    const NODES: usize = 32;
    const SEED: u64 = 0x4ea1;
    let scheme = SchemeDef::builder("planes")
        .attribute("x", 0.0, 100.0)
        .attribute("y", 0.0, 100.0)
        .build(0);
    let mut config = SystemConfig::default()
        .with_lb()
        .with_self_healing()
        .with_retries();
    config.lb.period = SimTime::from_secs(10);
    let mut net = Network::builder(NODES)
        .registry(Registry::new(vec![scheme]))
        .config(config)
        .latency(SimTime::from_millis(10))
        .seed(SEED)
        .flight_recorder(256)
        .build()
        .expect("valid planes network");
    let mut fp = FaultPlane::new(SEED ^ 0xfa);
    fp.set_global_policy(
        LinkPolicy::loss(0.03)
            .with_duplication(0.02)
            .with_jitter(SimTime::from_millis(3)),
    );
    fp.set_link_policy(9, 4, LinkPolicy::loss(0.5));
    fp.set_link_policy(2, 30, LinkPolicy::duplication(0.5));
    fp.add_partition(
        [18, 1, 11],
        SimTime::from_millis(30_150),
        SimTime::from_secs(45),
    );
    fp.add_policy_window(
        LinkPolicy::loss(0.2),
        SimTime::from_secs(20),
        SimTime::from_secs(25),
    );
    net.install_fault_plane(fp);
    let mut gen = WorkloadGen::new(WorkloadSpec::paper_table1(), SEED ^ 0x60_1d);
    for i in 0..96 {
        net.subscribe(i % NODES, 0, Subscription::new(scaled_rect(&mut gen)));
    }
    net.enable_maintenance();
    net.run_until(SimTime::from_secs(5));
    net.fail(7).expect("node 7 is live");
    let mut t = net.time() + SimTime::from_secs(1);
    for i in 0..40 {
        net.schedule_publish(t, (i * 13) % NODES, 0, scaled_point(&mut gen))
            .expect("publisher index in range");
        t += SimTime::from_millis(750);
    }
    net.run_until(PLANES_SNAPSHOT_AT);
    net
}

/// What a snapshot's bytes hold, read back through the public decoders in
/// the order `Network::snapshot` writes them.
struct Captured {
    nodes: Vec<HyperSubNode>,
    engine: SimSnapshot<HyperMsg>,
}

fn decode_parts(sealed: &[u8]) -> Captured {
    let payload = hypersub_snapshot::unseal(sealed).expect("sealed snapshot");
    let mut r = Reader::new(payload);
    // The topology recipe is a private type: tag 0 (uniform), node count,
    // one-way latency.
    assert_eq!(r.take_u8().unwrap(), 0);
    let n = usize::decode(&mut r).unwrap();
    SimTime::decode(&mut r).unwrap();
    let registry = Arc::new(Registry::decode(&mut r).unwrap());
    let cfg = Arc::new(SystemConfig::decode(&mut r).unwrap());
    assert_eq!(usize::decode(&mut r).unwrap(), n);
    let nodes = (0..n)
        .map(|_| HyperSubNode::snapshot_decode(&mut r, registry.clone(), cfg.clone()).unwrap())
        .collect();
    Metrics::decode(&mut r).unwrap();
    Oracle::decode(&mut r).unwrap();
    Vec::<Option<Scripted>>::decode(&mut r).unwrap();
    let engine = SimSnapshot::<HyperMsg>::decode(&mut r).unwrap();
    Captured { nodes, engine }
}

/// How many messages of each shape a capture holds, looking inside
/// reliable envelopes.
#[derive(Debug, Default)]
struct MsgCensus {
    migrate: usize,
    migrate_ack: usize,
    replica_update: usize,
    reliable: usize,
    chord_find: usize,
    chord_neighbors_reply: usize,
    chord_probe: usize,
    route: usize,
}

impl MsgCensus {
    fn count(&mut self, msg: &HyperMsg) {
        match msg {
            HyperMsg::Migrate { .. } => self.migrate += 1,
            HyperMsg::MigrateAck { .. } => self.migrate_ack += 1,
            HyperMsg::ReplicaUpdate { .. } => self.replica_update += 1,
            HyperMsg::Reliable { inner, .. } => {
                self.reliable += 1;
                self.count(inner);
            }
            HyperMsg::Chord(m) => match m {
                ChordMsg::FindSuccessor { .. } | ChordMsg::FoundSuccessor { .. } => {
                    self.chord_find += 1
                }
                ChordMsg::NeighborsReply { .. } => self.chord_neighbors_reply += 1,
                ChordMsg::GetNeighbors | ChordMsg::Notify { .. } => self.chord_probe += 1,
            },
            HyperMsg::Route { .. } => self.route += 1,
            // Pinned by the first golden, or a bare scalar.
            HyperMsg::Delivery(_)
            | HyperMsg::LoadProbe { .. }
            | HyperMsg::LoadReply { .. }
            | HyperMsg::Ack { .. } => {}
        }
    }
}

fn census(c: &Captured) -> MsgCensus {
    let mut census = MsgCensus::default();
    for (_, _, ev) in &c.engine.queue_entries {
        match ev {
            SimEvent::Deliver { msg, .. } | SimEvent::SendFailed { msg, .. } => census.count(msg),
            SimEvent::Timer { .. } => {}
        }
    }
    for node in &c.nodes {
        for p in node.planes().rel.pending.values() {
            census.count(&p.msg);
        }
    }
    census
}

fn assert_matches_golden(bytes: &[u8], file: &str) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_SNAPSHOT_GOLDEN").is_some() {
        std::fs::write(&path, bytes).expect("write golden snapshot");
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
fn snapshot_v2_bytes_are_stable() {
    assert_matches_golden(&pinned_snapshot(), "snapshot_v2.bin");
}

#[test]
fn golden_snapshot_still_restores() {
    let golden = std::fs::read(golden_path("snapshot_v2.bin")).expect("golden snapshot present");
    let mut net = Network::restore(&golden).expect("version-2 bytes restore");
    net.run_to_quiescence();
    let d = net.run_digest();
    println!("tail digest: {d:#018x}");
    assert_eq!(d, GOLDEN_TAIL_DIGEST, "observed {d:#018x}");
}

/// Version 1 wrote the dedup guards without first-seen times. Its
/// envelope is refused before any byte of the payload is read.
#[test]
fn a_version_1_snapshot_is_refused() {
    let mut v1 = std::fs::read(golden_path("snapshot_v2.bin")).expect("golden snapshot present");
    assert_eq!(v1[4..8], hypersub_snapshot::VERSION.to_le_bytes());
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        Network::restore(&v1).map(|_| ()),
        Err(HyperSubError::Snapshot(
            hypersub_snapshot::Error::UnsupportedVersion(1)
        ))
    );
}

#[test]
fn snapshot_v2_planes_bytes_are_stable() {
    let bytes = planes_network().snapshot();
    // A golden pins only what is in it: every plane's state and every
    // message shape the first golden lacks must be in these bytes.
    let c = decode_parts(&bytes);
    let some = |f: fn(&HyperSubNode) -> bool| c.nodes.iter().any(f);
    assert!(
        some(|n| !n.planes().lb.samples.is_empty()),
        "LbState.samples"
    );
    assert!(
        some(|n| !n.planes().lb.pending.is_empty()),
        "LbState.pending"
    );
    assert!(
        some(|n| !n.planes().lb.in_flight.is_empty()),
        "LbState.in_flight"
    );
    assert!(
        some(|n| !n.planes().lb.migrated_index.is_empty()),
        "migrated_index"
    );
    assert!(some(|n| !n.planes().hosted.is_empty()), "HostedRepo");
    assert!(
        some(|n| n.planes().replicas.values().any(|set| !set.is_empty())),
        "ReplicaSet"
    );
    assert!(
        some(|n| !n.planes().rel.pending.is_empty()),
        "RelState.pending"
    );
    assert!(some(|n| !n.planes().rel.seen.is_empty()), "RelState.seen");
    // `MaintState::dead` is private; its `Debug` form is not.
    assert!(
        some(|n| !format!("{:?}", n.maint).contains("dead: {}")),
        "MaintState.dead"
    );
    assert!(c.engine.fault.is_some(), "FaultPlane");
    let rec = c.engine.recorder.as_ref().expect("FlightRecorder");
    assert!(rec.evicted() > 0 && rec.len() == rec.capacity());
    assert!(rec.iter().any(|r| matches!(r.event, TraceEvent::Proto(_))));
    assert!(rec
        .iter()
        .any(|r| matches!(r.event, TraceEvent::MsgSend { .. })));
    let m = census(&c);
    assert!(
        m.migrate > 0
            && m.migrate_ack > 0
            && m.replica_update > 0
            && m.reliable > 0
            && m.route > 0
            && m.chord_find > 0
            && m.chord_neighbors_reply > 0
            && m.chord_probe > 0,
        "a message shape is missing from the capture: {m:?}"
    );
    assert_matches_golden(&bytes, "snapshot_v2_planes.bin");
}

#[test]
fn golden_planes_snapshot_still_restores() {
    let golden =
        std::fs::read(golden_path("snapshot_v2_planes.bin")).expect("golden snapshot present");
    let mut net = Network::restore(&golden).expect("version-2 bytes restore");
    assert_eq!(net.time(), PLANES_SNAPSHOT_AT);
    net.run_until(PLANES_HORIZON);
    let d = net.run_digest();
    println!("tail digest: {d:#018x}");
    assert_eq!(d, PLANES_TAIL_DIGEST, "observed {d:#018x}");
}
