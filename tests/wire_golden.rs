//! Golden wire-bytes pins for the live transport framing of [`HyperMsg`].
//!
//! `hypersub-net` frames exactly these bytes onto TCP connections, so the
//! encoding is a cross-process, cross-release compatibility surface: if
//! any of these vectors change, old and new nodes can no longer talk and
//! `HyperMsg::WIRE_VERSION` MUST be bumped. Regenerate the vectors only
//! together with a version bump (see the `WireMsg` versioning rules in
//! DESIGN.md "Transport & runtime").

use hypersub_chord::proto::{ChordMsg, LookupPurpose};
use hypersub_chord::Peer;
use hypersub_core::model::{Event, SubId, SubTarget};
use hypersub_core::msg::{DeliveryMsg, HyperMsg, MigAck, MigBatch, ReplicaBatch, Routed};
use hypersub_core::repo::StoredSub;
use hypersub_lph::{Point, Rect, ZoneCode};
use hypersub_simnet::WireMsg;
use std::sync::Arc;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn peer(id: u64, idx: usize) -> Peer {
    Peer { id, idx }
}

fn zone() -> ZoneCode {
    ZoneCode {
        code: 0b1011,
        level: 4,
    }
}

fn event() -> Arc<Event> {
    Arc::new(Event {
        id: 99,
        point: Point(vec![1.5, -2.5]),
    })
}

fn route(inner: Routed) -> HyperMsg {
    HyperMsg::Route {
        key: 0x0123_4567_89ab_cdef,
        inner: Box::new(inner),
    }
}

/// One message per `HyperMsg` variant, per `Routed` variant and per
/// `ChordMsg` variant (with every `LookupPurpose` and both `StoredSub`
/// shapes among them), in the order of [`GOLDEN`].
fn representative_messages() -> Vec<HyperMsg> {
    vec![
        route(Routed::Register {
            scheme: 2,
            ss: 1,
            zone: ZoneCode::ROOT,
            subid: SubId { nid: 7, iid: 3 },
            full: Rect::new(vec![0.0, 10.0], vec![25.0, 50.0]),
            proj: Rect::new(vec![0.0], vec![25.0]),
        }),
        HyperMsg::Delivery(DeliveryMsg {
            scheme: 0,
            ss: 0,
            event: event(),
            hops: 4,
            sender: Some(peer(11, 2)),
            targets: vec![
                SubTarget::rendezvous(1),
                SubTarget::sub(SubId { nid: 5, iid: 8 }),
            ],
        }),
        HyperMsg::Reliable {
            token: 0xdead_beef,
            inner: Box::new(HyperMsg::Ack { token: 42 }),
        },
        HyperMsg::LoadProbe {
            origin: peer(3, 1),
            ttl: 2,
        },
        route(Routed::Unregister {
            scheme: 1,
            ss: 2,
            zone: zone(),
            subid: SubId { nid: 9, iid: 4 },
        }),
        route(Routed::RegisterSurrogate {
            scheme: 1,
            ss: 0,
            zone: zone(),
            owner: SubId { nid: 6, iid: 1 },
            proj: Rect::new(vec![-1.0, 2.0], vec![1.0, 4.0]),
        }),
        HyperMsg::LoadReply { load: 77 },
        HyperMsg::Migrate {
            origin: peer(21, 5),
            batches: vec![MigBatch {
                source: (1, 2, zone()),
                entries: vec![
                    (SubId { nid: 8, iid: 2 }, Rect::new(vec![0.5], vec![0.75])),
                    (SubId { nid: 4, iid: 6 }, Rect::new(vec![3.0], vec![3.0])),
                ],
            }],
        },
        HyperMsg::MigrateAck {
            me: peer(22, 6),
            acks: vec![MigAck {
                source: (1, 2, zone()),
                iid: 17,
                proj_summary: Rect::new(vec![0.5], vec![3.0]),
            }],
        },
        HyperMsg::ReplicaUpdate {
            origin: peer(23, 7),
            full: true,
            repos: vec![ReplicaBatch {
                key: (0, 1, ZoneCode::ROOT),
                entries: vec![
                    (
                        SubId { nid: 1, iid: 1 },
                        StoredSub::Real {
                            full: Rect::new(vec![0.0, 1.0], vec![2.0, 3.0]),
                            proj: Rect::new(vec![1.0], vec![3.0]),
                        },
                    ),
                    (
                        SubId { nid: 2, iid: 9 },
                        StoredSub::Surrogate {
                            proj: Rect::new(vec![1.5], vec![2.5]),
                        },
                    ),
                ],
            }],
        },
        HyperMsg::Ack { token: 43 },
        HyperMsg::Chord(ChordMsg::FindSuccessor {
            key: 0xfeed,
            origin: peer(31, 8),
            purpose: LookupPurpose::Join,
        }),
        HyperMsg::Chord(ChordMsg::FoundSuccessor {
            key: 0xfeed,
            owner: peer(32, 9),
            purpose: LookupPurpose::Finger(63),
        }),
        HyperMsg::Chord(ChordMsg::FindSuccessor {
            key: 0xbeef,
            origin: peer(33, 10),
            purpose: LookupPurpose::App(0x0102_0304_0506_0708),
        }),
        HyperMsg::Chord(ChordMsg::GetNeighbors),
        HyperMsg::Chord(ChordMsg::NeighborsReply {
            pred: Some(peer(34, 11)),
            succs: vec![peer(35, 12), peer(36, 13)],
        }),
        HyperMsg::Chord(ChordMsg::NeighborsReply {
            pred: None,
            succs: Vec::new(),
        }),
        HyperMsg::Chord(ChordMsg::Notify { peer: peer(37, 14) }),
    ]
}

/// The pinned wire form (version byte + body) of each representative
/// message. The first four predate the rest and are kept byte for byte.
const GOLDEN: [&str; 18] = [
    // Route { key, Register { scheme, ss, zone, subid, full, proj } }
    "0100efcdab89674523010002000000010000000000000000000700000000000000030000000200000000000000000000000000000000000000000024400200000000000000000000000000394000000000000049400100000000000000000000000000000001000000000000000000000000003940",
    // Delivery { scheme, ss, event, hops, sender, targets }
    "0101000000000063000000000000000200000000000000000000000000f83f00000000000004c004000000010b000000000000000200000000000000020000000000000001000000000000000005000000000000000108000000",
    // Reliable { token, inner: Ack }
    "0108efbeadde00000000092a00000000000000",
    // LoadProbe { origin, ttl }
    "01020300000000000000010000000000000002",
    // Route { key, Unregister { scheme, ss, zone, subid } }
    "0100efcdab89674523010101000000020b0000000000000004090000000000000004000000",
    // Route { key, RegisterSurrogate { scheme, ss, zone, owner, proj } }
    "0100efcdab89674523010201000000000b00000000000000040600000000000000010000000200000000000000000000000000f0bf00000000000000400200000000000000000000000000f03f0000000000001040",
    // LoadReply { load }
    "01034d00000000000000",
    // Migrate { origin, batches: [MigBatch { source, entries }] }
    "010415000000000000000500000000000000010000000000000001000000020b000000000000000402000000000000000800000000000000020000000100000000000000000000000000e03f0100000000000000000000000000e83f0400000000000000060000000100000000000000000000000000084001000000000000000000000000000840",
    // MigrateAck { me, acks: [MigAck { source, iid, proj_summary }] }
    "010516000000000000000600000000000000010000000000000001000000020b0000000000000004110000000100000000000000000000000000e03f01000000000000000000000000000840",
    // ReplicaUpdate { origin, full, repos: [ReplicaBatch { key, entries: [Real, Surrogate] }] }
    "010617000000000000000700000000000000010100000000000000000000000100000000000000000002000000000000000100000000000000010000000002000000000000000000000000000000000000000000f03f0200000000000000000000000000004000000000000008400100000000000000000000000000f03f01000000000000000000000000000840020000000000000009000000010100000000000000000000000000f83f01000000000000000000000000000440",
    // Ack { token }
    "01092b00000000000000",
    // Chord(FindSuccessor { key, origin, purpose: Join })
    "010700edfe0000000000001f00000000000000080000000000000000",
    // Chord(FoundSuccessor { key, owner, purpose: Finger })
    "010701edfe00000000000020000000000000000900000000000000013f",
    // Chord(FindSuccessor { key, origin, purpose: App })
    "010700efbe00000000000021000000000000000a00000000000000020807060504030201",
    // Chord(GetNeighbors)
    "010702",
    // Chord(NeighborsReply { pred: Some, succs: [2] })
    "0107030122000000000000000b00000000000000020000000000000023000000000000000c0000000000000024000000000000000d00000000000000",
    // Chord(NeighborsReply { pred: None, succs: [] })
    "010703000000000000000000",
    // Chord(Notify { peer })
    "01070425000000000000000e00000000000000",
];

#[test]
fn hypermsg_wire_bytes_are_pinned() {
    let msgs = representative_messages();
    assert_eq!(msgs.len(), GOLDEN.len());
    for (msg, want) in msgs.iter().zip(GOLDEN) {
        assert_eq!(
            hex(&msg.to_wire_bytes()),
            want,
            "wire bytes drifted — bump HyperMsg::WIRE_VERSION and regenerate"
        );
    }
}

#[test]
fn wire_version_byte_leads_every_encoding() {
    for msg in representative_messages() {
        assert_eq!(msg.to_wire_bytes()[0], HyperMsg::WIRE_VERSION);
    }
}

#[test]
fn wire_round_trip_is_byte_identical() {
    for msg in representative_messages() {
        let bytes = msg.to_wire_bytes();
        let back = HyperMsg::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_wire_bytes(), bytes);
    }
}

#[test]
fn foreign_version_is_rejected() {
    let mut bytes = representative_messages()[0].to_wire_bytes();
    bytes[0] = HyperMsg::WIRE_VERSION + 1;
    assert!(HyperMsg::from_wire_bytes(&bytes).is_err());
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = representative_messages()[0].to_wire_bytes();
    bytes.push(0);
    assert!(HyperMsg::from_wire_bytes(&bytes).is_err());
}

#[test]
fn truncated_frame_is_rejected() {
    let bytes = representative_messages()[1].to_wire_bytes();
    assert!(HyperMsg::from_wire_bytes(&bytes[..bytes.len() - 1]).is_err());
}
