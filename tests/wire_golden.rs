//! Golden wire-bytes pins for the live transport framing of [`HyperMsg`].
//!
//! `hypersub-net` frames exactly these bytes onto TCP connections, so the
//! encoding is a cross-process, cross-release compatibility surface: if
//! any of these vectors change, old and new nodes can no longer talk and
//! `HyperMsg::WIRE_VERSION` MUST be bumped. Regenerate the vectors only
//! together with a version bump (see the `WireMsg` versioning rules in
//! DESIGN.md "Transport & runtime").

use hypersub_chord::Peer;
use hypersub_core::model::{Event, SubId, SubTarget};
use hypersub_core::msg::{DeliveryMsg, HyperMsg, Routed};
use hypersub_lph::{Point, Rect, ZoneCode};
use hypersub_simnet::WireMsg;
use std::sync::Arc;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn representative_messages() -> Vec<HyperMsg> {
    vec![
        HyperMsg::Route {
            key: 0x0123_4567_89ab_cdef,
            inner: Box::new(Routed::Register {
                scheme: 2,
                ss: 1,
                zone: ZoneCode::ROOT,
                subid: SubId { nid: 7, iid: 3 },
                full: Rect::new(vec![0.0, 10.0], vec![25.0, 50.0]),
                proj: Rect::new(vec![0.0], vec![25.0]),
            }),
        },
        HyperMsg::Delivery(DeliveryMsg {
            scheme: 0,
            ss: 0,
            event: Arc::new(Event {
                id: 99,
                point: Point(vec![1.5, -2.5]),
            }),
            hops: 4,
            sender: Some(Peer { id: 11, idx: 2 }),
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
            origin: Peer { id: 3, idx: 1 },
            ttl: 2,
        },
    ]
}

/// The pinned wire form (version byte + body) of each representative
/// message, one per `HyperMsg` family the transport actually carries:
/// greedy routing, delivery fan-out, the reliable/ack envelope, and a
/// periodic probe.
const GOLDEN: [&str; 4] = [
    // Route { key, Register { scheme, ss, zone, subid, full, proj } }
    "0100efcdab89674523010002000000010000000000000000000700000000000000030000000200000000000000000000000000000000000000000024400200000000000000000000000000394000000000000049400100000000000000000000000000000001000000000000000000000000003940",
    // Delivery { scheme, ss, event, hops, sender, targets }
    "0101000000000063000000000000000200000000000000000000000000f83f00000000000004c004000000010b000000000000000200000000000000020000000000000001000000000000000005000000000000000108000000",
    // Reliable { token, inner: Ack }
    "0108efbeadde00000000092a00000000000000",
    // LoadProbe { origin, ttl }
    "01020300000000000000010000000000000002",
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
