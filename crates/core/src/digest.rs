//! Stable run digests for golden regression tests and the perf harness.
//!
//! A digest folds every observable outcome of a simulation run — each
//! delivered `(event, subid, time, hops)` tuple in delivery order, plus
//! the full [`NetStats`] counter set — into one `u64` via FNV-1a. Two
//! runs of the same seeded scenario must produce the same digest;
//! hot-path optimizations are required to keep it bit-identical, which
//! the `golden` integration test enforces against hard-coded values.

use crate::metrics::DeliveryRecord;
use hypersub_simnet::NetStats;
use hypersub_snapshot::Fnv1a;

/// Digest of the delivery trace: every record in recorded (delivery)
/// order. Any reordering or content change — even among same-time
/// deliveries — changes the digest.
pub fn delivery_digest(deliveries: &[DeliveryRecord]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(deliveries.len() as u64);
    for d in deliveries {
        h.write_u64(d.event);
        h.write_u64(d.subid.nid);
        h.write_u64(d.subid.iid as u64);
        h.write_u64(d.time.as_micros());
        h.write_u64(d.hops as u64);
    }
    h.finish()
}

/// Digest of the network counters: per-node traffic in index order,
/// per-flow traffic in ascending flow-id order, and every global
/// counter.
pub fn netstats_digest(net: &NetStats) -> u64 {
    let mut h = Fnv1a::new();
    for t in net.nodes() {
        h.write_u64(t.bytes_in);
        h.write_u64(t.bytes_out);
        h.write_u64(t.msgs_in);
        h.write_u64(t.msgs_out);
    }
    let mut flows: Vec<_> = net.flows().iter().map(|(&id, &f)| (id, f)).collect();
    flows.sort_unstable_by_key(|(id, _)| *id);
    for (id, f) in flows {
        h.write_u64(id);
        h.write_u64(f.bytes);
        h.write_u64(f.msgs);
    }
    for v in [
        net.dropped(),
        net.fault_dropped(),
        net.partition_dropped(),
        net.duplicated(),
        net.total_msgs(),
        net.total_bytes(),
    ] {
        h.write_u64(v);
    }
    h.finish()
}

/// Combined run digest: delivery trace plus network counters.
pub fn run_digest(deliveries: &[DeliveryRecord], net: &NetStats) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(delivery_digest(deliveries));
    h.write_u64(netstats_digest(net));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SubId;
    use hypersub_simnet::SimTime;

    fn rec(event: u64, nid: u64, t: u64) -> DeliveryRecord {
        DeliveryRecord {
            event,
            subid: SubId { nid, iid: 1 },
            time: SimTime::from_micros(t),
            hops: 3,
        }
    }

    #[test]
    fn fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = [rec(1, 1, 10), rec(2, 2, 10)];
        let b = [rec(2, 2, 10), rec(1, 1, 10)];
        assert_ne!(delivery_digest(&a), delivery_digest(&b));
    }

    #[test]
    fn digest_is_stable() {
        let a = [rec(1, 1, 10), rec(2, 2, 20)];
        assert_eq!(delivery_digest(&a), delivery_digest(&a));
        let mut net = NetStats::new(2);
        net.record_out(0, 100, Some(1));
        net.record_in(1, 100);
        assert_eq!(netstats_digest(&net), netstats_digest(&net.clone()));
        assert_eq!(run_digest(&a, &net), run_digest(&a, &net));
    }
}
