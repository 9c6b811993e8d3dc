//! Byte-accurate network accounting.
//!
//! The paper's Figure 2d charges the *total bandwidth consumption for
//! delivering an event* and Figure 3 charges *per-node in/out bandwidth*
//! over the whole simulation. [`NetStats`] captures both: per-node byte and
//! message counters, plus per-flow byte counters keyed by an opaque flow id
//! (the HyperSub layer tags every delivery message with its event id).

use crate::fxhash::FxHashMap;
use hypersub_snapshot::codec;

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Bytes received.
    pub bytes_in: u64,
    /// Bytes sent.
    pub bytes_out: u64,
    /// Messages received.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
}
codec!(struct NodeTraffic { bytes_in, bytes_out, msgs_in, msgs_out });

/// Per-flow traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowTraffic {
    /// Total bytes sent carrying this flow id.
    pub bytes: u64,
    /// Total messages sent carrying this flow id.
    pub msgs: u64,
}
codec!(struct FlowTraffic { bytes, msgs });

/// Aggregate network statistics for one simulation run.
///
/// `PartialEq` compares every counter (flow maps compare as maps, so
/// iteration order is irrelevant); two runs of the same seeded scenario
/// must produce equal `NetStats`, which the determinism tests assert.
/// The flow map uses [`FxHashMap`]: every flow-tagged send does a lookup
/// here, and the map is only ever read back by key or as a whole map, so
/// the cheap fixed-seed hash is safe.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    nodes: Vec<NodeTraffic>,
    flows: FxHashMap<u64, FlowTraffic>,
    dropped: u64,
    fault_dropped: u64,
    partition_dropped: u64,
    duplicated: u64,
    total_msgs: u64,
    total_bytes: u64,
}
codec!(struct NetStats {
    nodes,
    flows,
    dropped,
    fault_dropped,
    partition_dropped,
    duplicated,
    total_msgs,
    total_bytes,
});

impl NetStats {
    /// Creates counters for `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            nodes: vec![NodeTraffic::default(); n],
            flows: FxHashMap::default(),
            dropped: 0,
            fault_dropped: 0,
            partition_dropped: 0,
            duplicated: 0,
            total_msgs: 0,
            total_bytes: 0,
        }
    }

    /// Charges an outgoing message at `src`, optionally tagged with a flow.
    pub fn record_out(&mut self, src: usize, bytes: usize, flow: Option<u64>) {
        let t = &mut self.nodes[src];
        t.bytes_out += bytes as u64;
        t.msgs_out += 1;
        self.total_msgs += 1;
        self.total_bytes += bytes as u64;
        if let Some(f) = flow {
            let ft = self.flows.entry(f).or_default();
            ft.bytes += bytes as u64;
            ft.msgs += 1;
        }
    }

    /// Charges an incoming message at `dst`.
    pub fn record_in(&mut self, dst: usize, bytes: usize) {
        let t = &mut self.nodes[dst];
        t.bytes_in += bytes as u64;
        t.msgs_in += 1;
    }

    /// Records a message dropped because its destination was down.
    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }

    /// Records a message silently lost by probabilistic fault injection.
    pub fn record_fault_drop(&mut self) {
        self.fault_dropped += 1;
    }

    /// Records a message dropped by an active network partition.
    pub fn record_partition_drop(&mut self) {
        self.partition_dropped += 1;
    }

    /// Records an extra copy injected by fault duplication.
    pub fn record_duplicate(&mut self) {
        self.duplicated += 1;
    }

    /// Counters for one node.
    pub fn node(&self, i: usize) -> NodeTraffic {
        self.nodes[i]
    }

    /// Counters for every node.
    pub fn nodes(&self) -> &[NodeTraffic] {
        &self.nodes
    }

    /// Counters for one flow (zero if the flow never sent anything).
    pub fn flow(&self, id: u64) -> FlowTraffic {
        self.flows.get(&id).copied().unwrap_or_default()
    }

    /// All flows seen.
    pub fn flows(&self) -> &FxHashMap<u64, FlowTraffic> {
        &self.flows
    }

    /// Messages dropped at dead destinations.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages silently lost by probabilistic fault injection.
    pub fn fault_dropped(&self) -> u64 {
        self.fault_dropped
    }

    /// Messages dropped by active network partitions.
    pub fn partition_dropped(&self) -> u64 {
        self.partition_dropped
    }

    /// Extra message copies injected by fault duplication.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Total messages sent.
    pub fn total_msgs(&self) -> u64 {
        self.total_msgs
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersub_snapshot::{Decode, Encode, Reader, Writer};

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut s = NetStats::new(3);
        s.record_out(0, 100, Some(7));
        s.record_in(1, 100);
        s.record_out(1, 50, Some(3));
        s.record_drop();
        s.record_fault_drop();
        s.record_duplicate();
        let mut w = Writer::new();
        s.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let back = NetStats::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn records_in_out_and_flows() {
        let mut s = NetStats::new(3);
        s.record_out(0, 100, Some(7));
        s.record_in(1, 100);
        s.record_out(1, 50, Some(7));
        s.record_out(1, 20, None);
        assert_eq!(s.node(0).bytes_out, 100);
        assert_eq!(s.node(1).bytes_in, 100);
        assert_eq!(s.node(1).bytes_out, 70);
        assert_eq!(s.node(1).msgs_out, 2);
        assert_eq!(s.flow(7).bytes, 150);
        assert_eq!(s.flow(7).msgs, 2);
        assert_eq!(s.flow(99).bytes, 0);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 170);
    }

    #[test]
    fn drops_counted() {
        let mut s = NetStats::new(1);
        s.record_drop();
        s.record_drop();
        assert_eq!(s.dropped(), 2);
    }
}
