//! HyperSub wire messages and their size model.
//!
//! §5.1: "The size of each event message is modeled in bytes as: 20 bytes
//! for packet header, 100 bytes for event, and 9 bytes for each SubID (8
//! bytes for subscriber's nodeID, and 1 byte for internalID) carried in
//! the message." Control messages use the same 20-byte header plus the
//! natural serialized size of their fields (8-byte floats, 9-byte SubIds,
//! 9-byte zone codes).

use crate::model::{Event, SchemeId, SubId, SubTarget, SubschemeId};
use crate::repo::{RepoKey, StoredSub};
use hypersub_chord::proto::ChordMsg;
use hypersub_chord::Peer;
use hypersub_lph::{Rect, ZoneCode};
use hypersub_simnet::{Payload, WireMsg};
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};
use std::sync::Arc;

/// 20-byte packet header (paper's model).
pub const HEADER_BYTES: usize = 20;
/// 100-byte event body (paper's model).
pub const EVENT_BYTES: usize = 100;
/// 9-byte SubID: 8-byte nodeID + 1-byte internalID (paper's model).
pub const SUBID_BYTES: usize = 9;
/// Zone code on the wire: 8-byte code + 1-byte level.
pub const ZONE_BYTES: usize = 9;

fn rect_bytes(r: &Rect) -> usize {
    2 * 8 * r.dims()
}

/// A payload routed greedily to the successor of `key` (subscription
/// installation and surrogate registration both use this wrapper).
#[derive(Debug, Clone)]
pub enum Routed {
    /// Algorithm 2: register a subscription at its zone's surrogate node.
    Register {
        /// Scheme the subscription belongs to.
        scheme: SchemeId,
        /// Subscheme it was installed into.
        ss: SubschemeId,
        /// The zone LPH mapped it to.
        zone: ZoneCode,
        /// Subscription id `(subscriber nodeID, internalID)`.
        subid: SubId,
        /// Full-space hypercuboid.
        full: Rect,
        /// Projection onto the subscheme space.
        proj: Rect,
    },
    /// Removes a subscription from its zone repository (unsubscribe).
    /// The zone's summary filter stays conservative (it may now
    /// over-cover), which preserves delivery correctness; it is rebuilt
    /// exactly on the next soft-state refresh.
    Unregister {
        /// Scheme.
        scheme: SchemeId,
        /// Subscheme the subscription was installed into.
        ss: SubschemeId,
        /// Zone it was registered at.
        zone: ZoneCode,
        /// The subscription to remove.
        subid: SubId,
    },
    /// Algorithm 3: register/update a summary-filter subdivision at a
    /// child zone as a surrogate subscription.
    RegisterSurrogate {
        /// Scheme.
        scheme: SchemeId,
        /// Subscheme.
        ss: SubschemeId,
        /// The child zone being registered into.
        zone: ZoneCode,
        /// Points back at the parent zone's repository.
        owner: SubId,
        /// The subdivision rect (projected space).
        proj: Rect,
    },
}
codec!(enum Routed as "routed tag" {
    0 => Register { scheme, ss, zone, subid, full, proj },
    1 => Unregister { scheme, ss, zone, subid },
    2 => RegisterSurrogate { scheme, ss, zone, owner, proj },
});

impl Routed {
    /// The modelled size of the payload, past the `Route` header and key.
    pub(crate) fn body_size(&self) -> usize {
        match self {
            Routed::Register { full, proj, .. } => {
                4 + 1 + ZONE_BYTES + SUBID_BYTES + rect_bytes(full) + rect_bytes(proj)
            }
            Routed::Unregister { .. } => 4 + 1 + ZONE_BYTES + SUBID_BYTES,
            Routed::RegisterSurrogate { proj, .. } => {
                4 + 1 + ZONE_BYTES + SUBID_BYTES + rect_bytes(proj)
            }
        }
    }
}

/// An event message: the event plus its SubID list (Algorithm 4/5).
#[derive(Debug, Clone)]
pub struct DeliveryMsg {
    /// Scheme of the event.
    pub scheme: SchemeId,
    /// Which subscheme's rendezvous chain this copy serves.
    pub ss: SubschemeId,
    /// The event itself. Shared via `Arc`: one event fans out into one
    /// message per subscheme and then one per DHT hop, and every copy
    /// carries the identical immutable body — cloning the pointer instead
    /// of the `Vec<f64>` point makes forwarding allocation-free. The wire
    /// size model is unaffected (the modeled 100-byte body rides every
    /// copy).
    pub event: Arc<Event>,
    /// Network hops this copy has traversed.
    pub hops: u32,
    /// The forwarding node, written but read by nothing: a delivery
    /// never writes routing state (DESIGN.md "Piggybacked maintenance").
    /// Kept until the next `WIRE_VERSION` bump, as the wire and snapshot
    /// layouts hold it; it fits in the 20-byte header, adding no bytes.
    pub sender: Option<Peer>,
    /// The SubID list.
    pub targets: Vec<SubTarget>,
}
codec!(struct DeliveryMsg { scheme, ss, event, hops, sender, targets });

/// One batch of a migration: entries leaving a specific zone repository.
#[derive(Debug, Clone)]
pub struct MigBatch {
    /// Repository the entries are migrating out of.
    pub source: RepoKey,
    /// `(subid, full rect)` pairs.
    pub entries: Vec<(SubId, Rect)>,
}
codec!(struct MigBatch { source, entries });

/// Acknowledgement for one accepted batch.
#[derive(Debug, Clone)]
pub struct MigAck {
    /// Repository the batch came from.
    pub source: RepoKey,
    /// Internal id the acceptor allocated for the hosted repo.
    pub iid: u32,
    /// Projected cover of the accepted entries — installed back at the
    /// origin as a surrogate subscription.
    pub proj_summary: Rect,
}
codec!(struct MigAck { source, iid, proj_summary });

/// One zone repository's worth of replicated entries (self-healing plane).
#[derive(Debug, Clone)]
pub struct ReplicaBatch {
    /// Repository the entries belong to at the origin.
    pub key: RepoKey,
    /// The replicated entries, sorted by id for deterministic iteration.
    pub entries: Vec<(SubId, StoredSub)>,
}
codec!(struct ReplicaBatch { key, entries });

/// All HyperSub traffic.
#[derive(Debug, Clone)]
pub enum HyperMsg {
    /// Greedy-routed control payload.
    Route {
        /// Destination key (already rotation-adjusted).
        key: u64,
        /// `inner`'s modelled size ([`Routed`]'s `body_size`), taken once
        /// where the payload is boxed ([`HyperMsg::route`]) and again by
        /// the decoder, so a forward hop never reads the box. Not on the
        /// wire.
        bytes: u32,
        /// The payload. Boxed: it is the one fat variant (72 B), and
        /// unboxed it would size every message the queue moves.
        inner: Box<Routed>,
    },
    /// Event delivery (Algorithm 5).
    Delivery(DeliveryMsg),
    /// Load-balancing probe (§4), sent to routing neighbors only.
    LoadProbe {
        /// Node collecting the samples.
        origin: Peer,
        /// Written as [`crate::loadbal::PROBE_LEVEL`] (1) and ignored on
        /// receipt: a probe is never forwarded. The byte stays until the
        /// next `WIRE_VERSION` bump so LB-on byte counts do not move.
        ttl: u8,
    },
    /// Probe answer.
    LoadReply {
        /// The responder's current load (stored subscriptions).
        load: u64,
    },
    /// Subscription migration offer from an overloaded node.
    Migrate {
        /// The overloaded node.
        origin: Peer,
        /// Per-repository batches.
        batches: Vec<MigBatch>,
    },
    /// Migration acceptance.
    MigrateAck {
        /// The accepting node (the origin installs surrogate subscriptions
        /// pointing at this peer).
        me: Peer,
        /// One ack per accepted batch.
        acks: Vec<MigAck>,
    },
    /// Successor replication of rendezvous state (self-healing plane).
    /// `full` snapshots carry the origin's entire repository set and
    /// replace the receiver's replica of that origin (anti-entropy);
    /// incremental updates merge single entries as they register.
    ReplicaUpdate {
        /// The rendezvous node whose state this replicates.
        origin: Peer,
        /// Replace (`true`, periodic snapshot) vs merge (`false`,
        /// incremental) semantics at the receiver.
        full: bool,
        /// Per-repository entry batches.
        repos: Vec<ReplicaBatch>,
    },
    /// Embedded Chord maintenance traffic.
    Chord(ChordMsg),
    /// A request-shaped message sent with ack/retransmit protection: the
    /// receiver acks `token` to the sender, then processes `inner`. An
    /// 8-byte token rides along on the wire.
    Reliable {
        /// Sender-unique retransmission token.
        token: u64,
        /// The protected message.
        inner: Box<HyperMsg>,
    },
    /// Receipt acknowledgement for a [`HyperMsg::Reliable`] transmission.
    Ack {
        /// The acknowledged token.
        token: u64,
    },
}
impl HyperMsg {
    /// A `Route` carrying `inner` toward `key`, its size taken here.
    pub fn route(key: u64, inner: Box<Routed>) -> HyperMsg {
        let bytes = u32::try_from(inner.body_size()).expect("a routed body under 4 GiB");
        HyperMsg::Route { key, bytes, inner }
    }
}

// Hand-written codec: a variant is its tag, then its fields in order, and
// `Route`'s `bytes` is not written: the decoder takes it from the body.
impl Encode for HyperMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            HyperMsg::Route { key, inner, .. } => {
                w.put_u8(0);
                key.encode(w);
                inner.encode(w);
            }
            HyperMsg::Delivery(d) => {
                w.put_u8(1);
                d.encode(w);
            }
            HyperMsg::LoadProbe { origin, ttl } => {
                w.put_u8(2);
                origin.encode(w);
                ttl.encode(w);
            }
            HyperMsg::LoadReply { load } => {
                w.put_u8(3);
                load.encode(w);
            }
            HyperMsg::Migrate { origin, batches } => {
                w.put_u8(4);
                origin.encode(w);
                batches.encode(w);
            }
            HyperMsg::MigrateAck { me, acks } => {
                w.put_u8(5);
                me.encode(w);
                acks.encode(w);
            }
            HyperMsg::ReplicaUpdate {
                origin,
                full,
                repos,
            } => {
                w.put_u8(6);
                origin.encode(w);
                full.encode(w);
                repos.encode(w);
            }
            HyperMsg::Chord(m) => {
                w.put_u8(7);
                m.encode(w);
            }
            HyperMsg::Reliable { token, inner } => {
                w.put_u8(8);
                token.encode(w);
                inner.encode(w);
            }
            HyperMsg::Ack { token } => {
                w.put_u8(9);
                token.encode(w);
            }
        }
    }
}

impl Decode for HyperMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.take_u8()? {
            0 => {
                let key = Decode::decode(r)?;
                let inner: Box<Routed> = Decode::decode(r)?;
                let bytes = u32::try_from(inner.body_size())
                    .map_err(|_| Error::InvalidValue("routed body size"))?;
                HyperMsg::Route { key, bytes, inner }
            }
            1 => HyperMsg::Delivery(Decode::decode(r)?),
            2 => HyperMsg::LoadProbe {
                origin: Decode::decode(r)?,
                ttl: Decode::decode(r)?,
            },
            3 => HyperMsg::LoadReply {
                load: Decode::decode(r)?,
            },
            4 => HyperMsg::Migrate {
                origin: Decode::decode(r)?,
                batches: Decode::decode(r)?,
            },
            5 => HyperMsg::MigrateAck {
                me: Decode::decode(r)?,
                acks: Decode::decode(r)?,
            },
            6 => HyperMsg::ReplicaUpdate {
                origin: Decode::decode(r)?,
                full: Decode::decode(r)?,
                repos: Decode::decode(r)?,
            },
            7 => HyperMsg::Chord(Decode::decode(r)?),
            8 => HyperMsg::Reliable {
                token: Decode::decode(r)?,
                inner: Decode::decode(r)?,
            },
            9 => HyperMsg::Ack {
                token: Decode::decode(r)?,
            },
            _ => return Err(Error::InvalidValue("hypermsg tag")),
        })
    }
}

impl Payload for HyperMsg {
    fn wire_size(&self) -> usize {
        match self {
            HyperMsg::Route { bytes, .. } => HEADER_BYTES + 8 + *bytes as usize,
            HyperMsg::Delivery(d) => HEADER_BYTES + EVENT_BYTES + SUBID_BYTES * d.targets.len(),
            HyperMsg::LoadProbe { .. } => HEADER_BYTES + 13,
            HyperMsg::LoadReply { .. } => HEADER_BYTES + 8,
            HyperMsg::Migrate { batches, .. } => {
                HEADER_BYTES
                    + 12
                    + batches
                        .iter()
                        .map(|b| {
                            ZONE_BYTES
                                + 5
                                + b.entries
                                    .iter()
                                    .map(|(_, r)| SUBID_BYTES + rect_bytes(r))
                                    .sum::<usize>()
                        })
                        .sum::<usize>()
            }
            HyperMsg::MigrateAck { acks, .. } => {
                HEADER_BYTES
                    + 12
                    + acks
                        .iter()
                        .map(|a| ZONE_BYTES + 5 + 4 + rect_bytes(&a.proj_summary))
                        .sum::<usize>()
            }
            HyperMsg::ReplicaUpdate { repos, .. } => {
                HEADER_BYTES
                    + 12
                    + 1
                    + repos
                        .iter()
                        .map(|b| {
                            ZONE_BYTES
                                + 5
                                + b.entries
                                    .iter()
                                    .map(|(_, s)| {
                                        SUBID_BYTES
                                            + match s {
                                                StoredSub::Real { full, proj } => {
                                                    rect_bytes(full) + rect_bytes(proj)
                                                }
                                                StoredSub::Surrogate { proj } => rect_bytes(proj),
                                            }
                                    })
                                    .sum::<usize>()
                        })
                        .sum::<usize>()
            }
            HyperMsg::Chord(m) => m.wire_size(),
            HyperMsg::Reliable { inner, .. } => 8 + inner.wire_size(),
            HyperMsg::Ack { .. } => HEADER_BYTES + 8,
        }
    }

    fn flow(&self) -> Option<u64> {
        match self {
            HyperMsg::Delivery(d) => Some(d.event.id),
            HyperMsg::Reliable { inner, .. } => inner.flow(),
            _ => None,
        }
    }
}

/// The live-transport framing of [`HyperMsg`]: version byte 1 followed by
/// the snapshot-codec encoding above. The golden wire-bytes test pins the
/// exact bytes so live framing can't drift silently; any layout change to
/// an existing variant must bump `WIRE_VERSION` (appending variants under
/// fresh tags is compatible — see the `WireMsg` versioning rules).
impl WireMsg for HyperMsg {
    const WIRE_VERSION: u8 = 1;

    fn wire_encode(&self, w: &mut Writer) {
        self.encode(w);
    }

    fn wire_decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        Self::decode(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_lph::Point;

    #[test]
    fn delivery_size_matches_paper_model() {
        let msg = HyperMsg::Delivery(DeliveryMsg {
            scheme: 0,
            ss: 0,
            event: Arc::new(Event {
                id: 1,
                point: Point(vec![1.0, 2.0]),
            }),
            hops: 0,
            sender: Some(Peer { id: 9, idx: 4 }),
            targets: vec![
                SubTarget::rendezvous(1),
                SubTarget::sub(SubId { nid: 2, iid: 3 }),
            ],
        });
        // 20 header + 100 event + 2 * 9 subids.
        assert_eq!(msg.wire_size(), 138);
        assert_eq!(msg.flow(), Some(1));
    }

    #[test]
    fn control_messages_have_no_flow() {
        let msg = HyperMsg::LoadReply { load: 10 };
        assert_eq!(msg.flow(), None);
        assert_eq!(msg.wire_size(), 28);
    }

    #[test]
    fn register_size_scales_with_dims() {
        let r4 = Rect::new(vec![0.0; 4], vec![1.0; 4]);
        let msg = HyperMsg::route(
            0,
            Box::new(Routed::Register {
                scheme: 0,
                ss: 0,
                zone: ZoneCode::ROOT,
                subid: SubId { nid: 1, iid: 2 },
                full: r4.clone(),
                proj: r4,
            }),
        );
        // 20 + 8 + (4 + 1 + 9 + 9 + 64 + 64)
        assert_eq!(msg.wire_size(), 179);
    }

    /// A decoded `Route` carries its body's size for every payload kind,
    /// though the size is not on the wire.
    #[test]
    fn a_decoded_route_carries_its_body_size() {
        let r2 = Rect::new(vec![0.0, 1.0], vec![2.0, 3.0]);
        let r3 = Rect::new(vec![0.0; 3], vec![1.0; 3]);
        let (zone, subid) = (ZoneCode { code: 5, level: 3 }, SubId { nid: 1, iid: 2 });
        for inner in [
            Routed::Register {
                scheme: 1,
                ss: 0,
                zone,
                subid,
                full: r3,
                proj: r2.clone(),
            },
            Routed::Unregister {
                scheme: 1,
                ss: 0,
                zone,
                subid,
            },
            Routed::RegisterSurrogate {
                scheme: 1,
                ss: 0,
                zone,
                owner: subid,
                proj: r2.clone(),
            },
        ] {
            let sent = HyperMsg::route(7, Box::new(inner));
            let decoded = HyperMsg::from_wire_bytes(&sent.to_wire_bytes()).expect("own encoding");
            let HyperMsg::Route { key, bytes, inner } = &decoded else {
                panic!("decoded {decoded:?}");
            };
            assert_eq!((*key, *bytes as usize), (7, inner.body_size()));
            assert_eq!(decoded.wire_size(), sent.wire_size());
        }
    }

    /// Every hop moves a message about six times (send, queue push, sift,
    /// pop, dispatch, handler), so its size is a per-hop cost: no variant
    /// may grow the enum past the delivery message.
    #[test]
    fn message_stays_within_its_per_hop_byte_budget() {
        use hypersub_simnet::SimEvent;
        assert!(std::mem::size_of::<HyperMsg>() <= 72);
        assert!(std::mem::size_of::<SimEvent<HyperMsg>>() <= 96);
    }

    /// A zone repository holds a rect per stored summary, per `pushed`
    /// child and one or two per stored entry, and a 4 096-node network
    /// holds tens of thousands of repositories, so these sizes are
    /// per-node memory: a rect is one pointer to one heap block, an
    /// absent summary costs nothing beyond it, and the pushed children
    /// are one pointer to exactly as many slots. A node's own tables are
    /// such slices too, and Algorithm 5's buffers are the thread's, not
    /// the node's, so 4 096 nodes hold 4 096 of these structs and no
    /// more.
    #[test]
    fn rect_and_repository_stay_within_their_layout_budget() {
        use crate::node::HyperSubNode;
        use crate::repo::{RepoEntries, ZoneRepo};
        use crate::table::SortedTable;
        use std::mem::size_of;
        assert_eq!(size_of::<Rect>(), 16);
        assert_eq!(size_of::<Option<Rect>>(), 16);
        assert_eq!(size_of::<StoredSub>(), 32);
        assert_eq!(size_of::<(SubId, StoredSub)>(), 48);
        assert_eq!(size_of::<(ZoneCode, Rect)>(), 32);
        assert_eq!(size_of::<RepoEntries>(), 56);
        assert_eq!(size_of::<SortedTable<ZoneCode, Rect>>(), 16);
        assert!(size_of::<ZoneRepo>() <= 104);
        assert_eq!(size_of::<HyperSubNode>(), 400);
        assert!(size_of::<Routed>() <= 72);
        assert!(size_of::<HyperMsg>() <= 72);
    }

    #[test]
    fn reliable_wrapper_adds_token_and_keeps_flow() {
        let inner = HyperMsg::Delivery(DeliveryMsg {
            scheme: 0,
            ss: 0,
            event: Arc::new(Event {
                id: 7,
                point: Point(vec![1.0, 2.0]),
            }),
            hops: 0,
            sender: None,
            targets: vec![SubTarget::rendezvous(1)],
        });
        let bare = inner.wire_size();
        let wrapped = HyperMsg::Reliable {
            token: 99,
            inner: Box::new(inner),
        };
        assert_eq!(wrapped.wire_size(), bare + 8);
        assert_eq!(wrapped.flow(), Some(7));
        let ack = HyperMsg::Ack { token: 99 };
        assert_eq!(ack.wire_size(), 28);
        assert_eq!(ack.flow(), None);
    }

    #[test]
    fn replica_update_size_counts_entries() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let msg = HyperMsg::ReplicaUpdate {
            origin: Peer { id: 1, idx: 0 },
            full: true,
            repos: vec![ReplicaBatch {
                key: (0, 0, ZoneCode::ROOT),
                entries: vec![
                    (
                        SubId { nid: 1, iid: 1 },
                        StoredSub::Real {
                            full: r.clone(),
                            proj: r.clone(),
                        },
                    ),
                    (SubId { nid: 2, iid: 1 }, StoredSub::Surrogate { proj: r }),
                ],
            }],
        };
        // 20 + 12 + 1 + (9 + 5 + (9 + 64) + (9 + 32))
        assert_eq!(msg.wire_size(), 161);
        assert_eq!(msg.flow(), None);
    }

    #[test]
    fn migrate_size_counts_entries() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let msg = HyperMsg::Migrate {
            origin: Peer { id: 1, idx: 0 },
            batches: vec![MigBatch {
                source: (0, 0, ZoneCode::ROOT),
                entries: vec![
                    (SubId { nid: 1, iid: 1 }, r.clone()),
                    (SubId { nid: 2, iid: 1 }, r),
                ],
            }],
        };
        // 20 + 12 + (9 + 5 + 2*(9+32))
        assert_eq!(msg.wire_size(), 128);
    }

    /// §5.1 size-model audit: the paper models "20 bytes for packet
    /// header, 100 bytes for event, and 9 bytes for each SubID (8 bytes
    /// for subscriber's nodeID, and 1 byte for internalID)". Bandwidth
    /// accounting (Fig 2d, Fig 3) is computed from these constants, so
    /// they are pinned literally, and an event message's size must scale
    /// at exactly 9 bytes per carried SubID.
    #[test]
    fn wire_sizes_follow_paper_model() {
        assert_eq!(HEADER_BYTES, 20);
        assert_eq!(EVENT_BYTES, 100);
        assert_eq!(SUBID_BYTES, 9);
        assert_eq!(ZONE_BYTES, 9);

        for k in 0..8usize {
            let msg = HyperMsg::Delivery(DeliveryMsg {
                scheme: 0,
                ss: 0,
                event: Arc::new(Event {
                    id: 1,
                    point: Point(vec![0.5, 0.5]),
                }),
                hops: 3,
                sender: None,
                targets: (0..k)
                    .map(|i| {
                        SubTarget::sub(SubId {
                            nid: i as u64,
                            iid: 1,
                        })
                    })
                    .collect(),
            });
            assert_eq!(
                msg.wire_size(),
                HEADER_BYTES + EVENT_BYTES + SUBID_BYTES * k
            );
        }

        // Control messages: the same 20-byte header plus the natural
        // serialized size of their fields.
        let probe = HyperMsg::LoadProbe {
            origin: Peer { id: 1, idx: 0 },
            ttl: 3,
        };
        assert_eq!(probe.wire_size(), HEADER_BYTES + 12 + 1); // peer + ttl
        let reply = HyperMsg::LoadReply { load: 7 };
        assert_eq!(reply.wire_size(), HEADER_BYTES + 8);
        let ack = HyperMsg::Ack { token: 1 };
        assert_eq!(ack.wire_size(), HEADER_BYTES + 8);
        // The reliable envelope adds exactly its 8-byte token.
        let wrapped = HyperMsg::Reliable {
            token: 1,
            inner: Box::new(HyperMsg::LoadReply { load: 7 }),
        };
        assert_eq!(wrapped.wire_size(), reply.wire_size() + 8);
        // Chord maintenance rides the same header model (12-byte peers).
        let chord = HyperMsg::Chord(ChordMsg::Notify {
            peer: Peer { id: 1, idx: 0 },
        });
        assert_eq!(chord.wire_size(), HEADER_BYTES + 12);
    }
}
