//! Chord DHT substrate for HyperSub.
//!
//! The paper builds HyperSub "on top of Chord" and evaluates with
//! **Chord-PNS** — Chord with proximity neighbor selection, where "each
//! node chooses physically closest nodes from the valid candidates as
//! routing entries" (§5.1, citing Dabek et al., NSDI'04). Identifiers are
//! 64-bit (§5.1).
//!
//! This crate provides:
//!
//! * [`id`] — identifier/ring-interval arithmetic (the whole correctness of
//!   Chord lives in these half-open interval checks);
//! * [`state`] — per-node routing state: predecessor, successor list,
//!   finger table;
//! * [`builder`] — global construction of a *stabilized* ring with
//!   PNS-selected fingers, the starting condition of the paper's
//!   experiments ("after system stabilization ...");
//! * [`routing`] — greedy recursive next-hop selection (used verbatim by
//!   HyperSub's Algorithm 5 event delivery);
//! * [`proto`] — the dynamic protocol (join, stabilize, notify,
//!   fix-fingers, failure eviction) expressed as effect-returning
//!   functions so higher layers can embed Chord maintenance inside their
//!   own message enums.

pub mod builder;
pub mod id;
pub mod proto;
pub mod routing;
pub mod state;

pub use builder::{build_ring, RingConfig};
pub use id::{clockwise_distance, in_open_closed, in_open_open, NodeId};
pub use routing::{next_hop, route_path, NextHop};
pub use state::{ChordState, Peer};
