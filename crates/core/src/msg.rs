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
    fn body_size(&self) -> usize {
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
codec!(enum HyperMsg as "hypermsg tag" {
    0 => Route { key, inner },
    1 => Delivery(d),
    2 => LoadProbe { origin, ttl },
    3 => LoadReply { load },
    4 => Migrate { origin, batches },
    5 => MigrateAck { me, acks },
    6 => ReplicaUpdate { origin, full, repos },
    7 => Chord(m),
    8 => Reliable { token, inner },
    9 => Ack { token },
});

impl Payload for HyperMsg {
    fn wire_size(&self) -> usize {
        match self {
            HyperMsg::Route { inner, .. } => HEADER_BYTES + 8 + inner.body_size(),
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
        let msg = HyperMsg::Route {
            key: 0,
            inner: Box::new(Routed::Register {
                scheme: 0,
                ss: 0,
                zone: ZoneCode::ROOT,
                subid: SubId { nid: 1, iid: 2 },
                full: r4.clone(),
                proj: r4,
            }),
        };
        // 20 + 8 + (4 + 1 + 9 + 9 + 64 + 64)
        assert_eq!(msg.wire_size(), 179);
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
