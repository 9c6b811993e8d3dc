//! Byte-stability golden tests for the versioned snapshot encoding.
//!
//! Two fixed scenarios' snapshots must stay **byte-identical** to the
//! committed `tests/golden/snapshot_v3.bin` (a retries-only network) and
//! `tests/golden/snapshot_v3_planes.bin` (every opt-in plane on, caught
//! with a migration, retransmissions and replication in flight): the
//! format is versioned (envelope magic `HSNP`, version 3) and restore
//! must keep working on bytes a binary of the same version wrote, so any
//! encoding change — field order, widths, map ordering, envelope
//! framing — is a format break that requires a version bump, not a
//! silent re-capture. Bytes of an older version are refused, not
//! reinterpreted.
//!
//! If the encoding changes *on purpose* (with a version bump and
//! migration story per DESIGN.md), re-capture with
//! `UPDATE_SNAPSHOT_GOLDEN=1 cargo test -p hypersub-tests --test
//! snapshot_golden` and justify the bump in the same commit. The one
//! re-capture without a bump is a deliberate behaviour change under a
//! plane the captured run has on (the state at capture differs, the
//! layout does not): the version-3 golden `snapshot_v3.bin` must then
//! stay byte-identical, and the commit says why the planes run changed.

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
const PLANES_TAIL_DIGEST: u64 = 0x5904_a910_446f_cfd4;

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
fn snapshot_v3_bytes_are_stable() {
    assert_matches_golden(&pinned_snapshot(), "snapshot_v3.bin");
}

#[test]
fn golden_snapshot_still_restores() {
    let golden = std::fs::read(golden_path("snapshot_v3.bin")).expect("golden snapshot present");
    let mut net = Network::restore(&golden).expect("version-3 bytes restore");
    net.run_to_quiescence();
    let d = net.run_digest();
    println!("tail digest: {d:#018x}");
    assert_eq!(d, GOLDEN_TAIL_DIGEST, "observed {d:#018x}");
}

/// Version 1 wrote the dedup guards without first-seen times; version 2
/// wrote the configuration and maintenance settings that are constants
/// now. Their envelopes are refused before any byte of the payload is
/// read.
#[test]
fn version_1_and_2_snapshots_are_refused() {
    let golden = std::fs::read(golden_path("snapshot_v3.bin")).expect("golden snapshot present");
    assert_eq!(golden[4..8], hypersub_snapshot::VERSION.to_le_bytes());
    for version in [1u32, 2] {
        let mut old = golden.clone();
        old[4..8].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            Network::restore(&old).map(|_| ()),
            Err(HyperSubError::Snapshot(
                hypersub_snapshot::Error::UnsupportedVersion(version)
            ))
        );
    }
}

/// Hostile payloads behind a valid seal, so that every decoder sees
/// them: sampled truncations, single-bit flips and 8-byte count
/// overwrites (`0xFF…` and 2⁴⁰) of each golden's payload. Restore may
/// refuse a mutant or accept it (an accepted flip need not re-encode to
/// the same bytes), but it returns: it neither panics nor aborts.
#[test]
fn hostile_payloads_are_refused_or_restored_without_panicking() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0x0057_11e5);
    for (file, samples) in [("snapshot_v3.bin", 250), ("snapshot_v3_planes.bin", 30)] {
        let golden = std::fs::read(golden_path(file)).expect("golden snapshot present");
        let payload = hypersub_snapshot::unseal(&golden).expect("the golden unseals");
        let restore = |bytes: Vec<u8>| drop(Network::restore(&hypersub_snapshot::seal(bytes)));
        for _ in 0..samples {
            restore(payload[..rng.gen_range(0..payload.len())].to_vec());
            let mut flipped = payload.to_vec();
            flipped[rng.gen_range(0..payload.len())] ^= 1u8 << rng.gen_range(0..8u32);
            restore(flipped);
            let at = rng.gen_range(0..payload.len() - 8);
            for count in [u64::MAX, 1 << 40] {
                let mut overwritten = payload.to_vec();
                overwritten[at..at + 8].copy_from_slice(&count.to_le_bytes());
                restore(overwritten);
            }
        }
    }
}

/// Arbitrary bytes behind a valid seal: random payloads, and each
/// golden payload's prefix followed by random bytes, so that the
/// decoders past the prefix read them. Restore refuses or accepts each,
/// and never panics.
#[test]
fn random_payloads_are_refused_or_restored_without_panicking() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0x0a4b_17a4);
    let restore = |bytes: Vec<u8>| drop(Network::restore(&hypersub_snapshot::seal(bytes)));
    let random =
        |rng: &mut SmallRng, len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen()).collect() };
    for _ in 0..20_000 {
        let len = rng.gen_range(0..512);
        restore(random(&mut rng, len));
    }
    for (file, samples) in [("snapshot_v3.bin", 250), ("snapshot_v3_planes.bin", 30)] {
        let golden = std::fs::read(golden_path(file)).expect("golden snapshot present");
        let payload = hypersub_snapshot::unseal(&golden).expect("the golden unseals");
        for _ in 0..samples {
            let mut bytes = payload[..rng.gen_range(0..payload.len())].to_vec();
            let len = rng.gen_range(1..64);
            bytes.extend(random(&mut rng, len));
            restore(bytes);
        }
    }
}

#[test]
fn snapshot_v3_planes_bytes_are_stable() {
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
    assert_matches_golden(&bytes, "snapshot_v3_planes.bin");
}

#[test]
fn golden_planes_snapshot_still_restores() {
    let golden =
        std::fs::read(golden_path("snapshot_v3_planes.bin")).expect("golden snapshot present");
    let mut net = Network::restore(&golden).expect("version-3 bytes restore");
    assert_eq!(net.time(), PLANES_SNAPSHOT_AT);
    net.run_until(PLANES_HORIZON);
    let d = net.run_digest();
    println!("tail digest: {d:#018x}");
    assert_eq!(d, PLANES_TAIL_DIGEST, "observed {d:#018x}");
}
