//! Typed errors for the public [`crate::sim::Network`] API.
//!
//! Historically the driver surface mixed three failure styles: silent
//! `bool` returns (`unsubscribe`), panics (`node(i)` and `publish` with an
//! out-of-range index, builder assertions), and implicit no-ops. All of
//! those now flow through [`HyperSubError`], so callers can distinguish
//! "you asked about a node that does not exist" from "that subscription
//! was already cancelled" without reading the source.

use crate::model::SubId;
use std::fmt;

/// Errors returned by the [`crate::sim::Network`] driver API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HyperSubError {
    /// A node index was at or beyond the network size.
    NodeOutOfRange {
        /// The offending index.
        node: usize,
        /// The network size.
        nodes: usize,
    },
    /// The operation targets a node that is currently failed.
    DeadNode {
        /// The failed node's index.
        node: usize,
    },
    /// The operation (e.g. [`crate::sim::Network::revive`]) requires a
    /// failed node, but the node is alive.
    AliveNode {
        /// The live node's index.
        node: usize,
    },
    /// The subscription id does not name a live local subscription
    /// (never issued, or already unsubscribed).
    UnknownSubscription {
        /// The id that was not found.
        sub: SubId,
    },
    /// The subscription id belongs to a different node than the one the
    /// operation was addressed to.
    ForeignSubscription {
        /// The node the operation was addressed to.
        node: usize,
        /// The id, whose `nid` names some other node.
        sub: SubId,
    },
    /// A builder was given an inconsistent or unusable configuration.
    InvalidConfig(&'static str),
    /// A snapshot could not be encoded or decoded (corrupt bytes, a
    /// version mismatch, or state the format cannot capture).
    Snapshot(hypersub_snapshot::Error),
}

impl From<hypersub_snapshot::Error> for HyperSubError {
    fn from(e: hypersub_snapshot::Error) -> Self {
        HyperSubError::Snapshot(e)
    }
}

impl fmt::Display for HyperSubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HyperSubError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "node index {node} out of range (network has {nodes} nodes)"
                )
            }
            HyperSubError::DeadNode { node } => write!(f, "node {node} is failed"),
            HyperSubError::AliveNode { node } => {
                write!(f, "node {node} is alive (expected a failed node)")
            }
            HyperSubError::UnknownSubscription { sub } => {
                write!(f, "no live local subscription {sub:?}")
            }
            HyperSubError::ForeignSubscription { node, sub } => {
                write!(f, "subscription {sub:?} does not belong to node {node}")
            }
            HyperSubError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            HyperSubError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for HyperSubError {}

/// Result alias for the driver API.
pub type Result<T, E = HyperSubError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HyperSubError::NodeOutOfRange { node: 9, nodes: 4 };
        assert_eq!(
            e.to_string(),
            "node index 9 out of range (network has 4 nodes)"
        );
        let e = HyperSubError::InvalidConfig("zero nodes");
        assert!(e.to_string().contains("zero nodes"));
        let e = HyperSubError::DeadNode { node: 2 };
        assert!(e.to_string().contains("failed"));
        let e = HyperSubError::AliveNode { node: 3 };
        assert!(e.to_string().contains("alive"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            HyperSubError::DeadNode { node: 1 },
            HyperSubError::DeadNode { node: 1 }
        );
        assert_ne!(
            HyperSubError::DeadNode { node: 1 },
            HyperSubError::DeadNode { node: 2 }
        );
    }
}
