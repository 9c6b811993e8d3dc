//! # HyperSub — content-based publish/subscribe over a DHT
//!
//! A full implementation of *"A Large-scale and Decentralized
//! Infrastructure for Content-based Publish/Subscribe Services"* (Yang,
//! Zhu, Hu — ICPP 2007): a scalable pub/sub platform built on Chord that
//! simultaneously supports any number of pub/sub schemes with different
//! numbers of attributes.
//!
//! The three key mechanisms, each mapped to a module:
//!
//! 1. **Locality-preserving hashing** (`hypersub-lph` crate + [`model`]):
//!    the content space of each scheme is recursively partitioned into
//!    content zones; subscriptions map to the smallest covering zone,
//!    events to a maximum-level zone.
//! 2. **Subscription installation & event delivery** ([`install`],
//!    [`delivery`]): Algorithms 2–5 of the paper — surrogate nodes store
//!    subscriptions per zone, maintain *summary filters* whose
//!    subdivisions propagate down the zone tree as *surrogate
//!    subscriptions*, and events climb that chain from their rendezvous
//!    (leaf) zone while the matched SubID list is split along DHT links,
//!    aggregating messages that share a next hop.
//! 3. **Load balancing** ([`loadbal`]): zone-mapping rotation per
//!    scheme/subscheme plus dynamic subscription migration from overloaded
//!    nodes to lightly loaded ring neighbors.
//!
//! ## Quick start
//!
//! [`prelude`] is the supported entry point: it exports the builder, the
//! error type, and every type the happy path needs. Fallible operations
//! return [`error::Result`] instead of panicking.
//!
//! ```
//! use hypersub_core::prelude::*;
//!
//! # fn main() -> Result<(), HyperSubError> {
//! // A 2-attribute scheme over [0, 100]^2.
//! let scheme = SchemeDef::builder("quotes")
//!     .attribute("price", 0.0, 100.0)
//!     .attribute("volume", 0.0, 100.0)
//!     .build(0);
//!
//! // An 8-node network with uniform 10 ms links.
//! let mut net = Network::builder(8)
//!     .registry(Registry::new(vec![scheme]))
//!     .latency(SimTime::from_millis(10))
//!     .seed(7)
//!     .build()?;
//!
//! // Node 3 subscribes to price in [10, 20] x any volume.
//! let sub = Subscription::new(Rect::new(vec![10.0, 0.0], vec![20.0, 100.0]));
//! net.subscribe(3, 0, sub);
//! net.run_to_quiescence();
//!
//! // Node 5 publishes an event at (15, 42) — it must reach node 3.
//! net.publish(5, 0, Point(vec![15.0, 42.0]))?;
//! net.run_to_quiescence();
//!
//! let stats = net.event_stats();
//! assert_eq!(stats[0].delivered, 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Observability
//!
//! Runs can be observed without being perturbed: a bounded
//! *flight recorder* ([`NetworkBuilder::flight_recorder`]) captures
//! structured trace events (network verdicts plus protocol events such as
//! retries, rendezvous matches, and migrations), and [`Network::report`]
//! exports a JSON [`report::Report`] bundling the trace summary, protocol
//! metrics, and the run digest. Recording is off by default and never
//! changes run behavior — the golden digests prove it.
//!
//! [`NetworkBuilder::flight_recorder`]: sim::NetworkBuilder::flight_recorder
//! [`Network::report`]: sim::Net::report

pub mod config;
pub mod delivery;
pub mod digest;
pub mod error;
pub mod heal;
pub mod index;
pub mod install;
pub mod invariant;
pub mod loadbal;
pub mod metrics;
pub mod model;
pub mod msg;
pub mod node;
pub mod repo;
pub mod report;
pub mod retry;
pub mod sim;
pub mod strings;
pub mod world;

/// Escape hatches for tests, benchmarks, and tooling that need the raw
/// simulator underneath a [`sim::Network`]. Application code should not
/// need anything in here — the `Network` accessors (`metrics`,
/// `deliveries`, `run_digest`, `net`, `topology`, …) cover normal use,
/// and items in this module are exempt from the facade's stability
/// expectations.
pub mod advanced {
    use crate::msg::HyperMsg;
    use crate::node::HyperSubNode;
    use crate::sim::Network;
    use crate::world::HyperWorld;
    use hypersub_simnet::Sim;

    /// Direct access to the discrete-event simulator driving a network.
    pub trait SimAccess {
        /// The underlying simulator.
        fn sim(&self) -> &Sim<HyperSubNode, HyperMsg, HyperWorld>;
        /// Mutable simulator access (scheduling raw timers, poking node
        /// state). Mutations here can invalidate the network's
        /// higher-level invariants; prefer the `Network` API.
        fn sim_mut(&mut self) -> &mut Sim<HyperSubNode, HyperMsg, HyperWorld>;
    }

    impl SimAccess for Network {
        fn sim(&self) -> &Sim<HyperSubNode, HyperMsg, HyperWorld> {
            &self.sim
        }
        fn sim_mut(&mut self) -> &mut Sim<HyperSubNode, HyperMsg, HyperWorld> {
            &mut self.sim
        }
    }
}

/// Convenient glob import for applications — the documented single entry
/// point to the crate's public API.
pub mod prelude {
    pub use crate::config::{HealConfig, LbConfig, RetryConfig, SystemConfig};
    pub use crate::error::{HyperSubError, Result};
    pub use crate::invariant::Verdict;
    pub use crate::metrics::{EventStats, Metrics};
    pub use crate::model::{Event, Registry, SchemeDef, SchemeId, SubId, Subscription};
    pub use crate::node::HyperSubNode;
    pub use crate::report::Report;
    pub use crate::sim::{Net, Network, NetworkBuilder, PubSubNode, TopologyKind};
    pub use hypersub_lph::{ContentSpace, Point, Rect, ZoneParams};
    pub use hypersub_simnet::{FaultPlane, FlightRecorder, LinkPolicy, SimTime};
    // Protocol entry points (`PubSubNode::{subscribe, publish}`, the
    // `Node` handlers) take the one context type, `Cx`, from either
    // host — the simulator or `hypersub-net`'s TCP driver — and `WireMsg`
    // is the versioned framing live transports use.
    pub use crate::node::Cx;
    pub use hypersub_simnet::{Node, WireMsg};
}
