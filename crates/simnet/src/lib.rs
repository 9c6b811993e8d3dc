//! A deterministic discrete-event, packet-level network simulator.
//!
//! The HyperSub paper evaluates on top of **p2psim** (MIT), "a discrete
//! event-driven, packet level simulator for many DHT protocols" (§5.1).
//! p2psim is C++ and its King-dataset input is not redistributable, so this
//! crate provides the equivalent substrate:
//!
//! * a radix-heap event queue with deterministic tie-breaking
//!   ([`engine::Sim`], [`queue::RadixQueue`]),
//! * pluggable latency models ([`topology`]), including a synthetic
//!   *King-like* model calibrated to the dataset's published mean RTT
//!   (~180 ms over 1740 Internet DNS servers),
//! * byte-accurate per-node and per-flow message accounting
//!   ([`stats::NetStats`]), which is what the paper's bandwidth figures
//!   (Fig 2d, Fig 3) measure.
//!
//! Protocols are written as [`engine::Node`] implementations: the engine
//! calls `on_message`/`on_timer`, the node emits sends and timers through
//! the [`engine::Ctx`] it is handed, and the engine charges latency and
//! bandwidth. A whole simulation is reproducible from a single `u64` seed.
//! `Ctx` is a concrete type any host can build ([`engine::Ctx::new`]), so
//! the same `Node` implementations run unchanged over a real-socket
//! transport (`hypersub-net`), whose messages frame as [`wire::WireMsg`].

pub mod engine;
pub mod fault;
pub mod fxhash;
pub mod queue;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wire;

pub use engine::{Ctx, Node, Payload, Sim, SimSnapshot};
pub use fault::{FaultPlane, LinkPolicy, Verdict};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::SimEvent;
pub use stats::NetStats;
pub use time::SimTime;
pub use topology::{KingLikeTopology, Topology, UniformTopology};
pub use trace::{FlightRecorder, ProtoEvent, TraceEvent, TraceRecord};
pub use wire::WireMsg;
