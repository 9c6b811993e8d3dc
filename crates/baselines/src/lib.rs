//! Baseline DHT pub/sub systems for comparison with HyperSub.
//!
//! The paper's related-work section (§2) positions HyperSub against two
//! families of DHT-based content-based pub/sub designs; we implement one
//! representative of each — plus two further rivals from the follow-on
//! literature — so the shoot-out harness can demonstrate the trade-offs
//! the paper claims:
//!
//! * [`rendezvous`] — a **Ferry-style single-rendezvous** system (Zhu &
//!   Hu, ICPP'05): one hash point per scheme stores *all* subscriptions
//!   and matches every event. Delivery uses the same embedded-tree SubID
//!   splitting as HyperSub. The paper's criticism: "it used a small set
//!   of peers for storing subscriptions and matching events, which may
//!   cause a serious scalability concern" — visible as extreme load
//!   concentration in the shoot-out's load columns.
//! * [`attr_ring`] — a **Triantafillou/Aekaterinidis-style attribute
//!   range** system (DEBS'04): each attribute's domain is mapped onto the
//!   ring and a subscription is replicated onto every node whose arc
//!   intersects its range on a chosen attribute. The paper's criticism:
//!   "subscription installation/reinforcement will involve a large number
//!   of nodes and messages" — visible as per-subscription installation
//!   cost.
//! * [`subgroup`] — a **subscription-subgrouping** variant (after arXiv
//!   1611.08743): each attribute's domain is cut into a fixed number of
//!   subgroups and a subscription registers with the subgroups its
//!   dominant attribute range intersects. Installation cost is bounded by
//!   the subgroup count instead of node density, decoupling it from the
//!   advertisement (event) path.
//! * [`gossip`] — a **flood/gossip strawman** (SmartPubSub-style, after
//!   arXiv 2207.06369): subscriptions stay local and every event is
//!   flooded to all brokers over the Chord broadcast tree, matched
//!   locally. Zero installation cost, O(n) bandwidth per event — the
//!   baseline every structured design must beat.
//!
//! The first three are one node, [`dht::DhtNode`], under three
//! [`dht::Placement`]s: a rival says only where a subscription is stored
//! and which homes an event probes, and owes completeness and
//! duplicate-freedom (see [`dht`]). The flood keeps its own node.
//!
//! All four reuse the Chord substrate ([`hypersub_chord`]) and the world
//! (metric sinks, publish script) from [`hypersub_core`], and implement
//! [`hypersub_core::sim::PubSubNode`], so the same
//! [`hypersub_core::sim::Net`] driver that runs HyperSub runs them, and
//! keeps their ground truth (no node sees it):
//! `Network::builder(n).seed(s).build_with(GossipNode::new)`.

pub mod attr_ring;
pub mod common;
pub mod dht;
pub mod gossip;
pub mod rendezvous;
pub mod subgroup;
