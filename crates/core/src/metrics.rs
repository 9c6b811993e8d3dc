//! Per-event and per-node metric collection (§5.1's cost metrics).
//!
//! The paper evaluates: (1) **hops** — the maximum path length required to
//! deliver an event to all of its subscribers; (2) **latency** — the
//! maximum time of delivering an event to all subscribers; (3)
//! **bandwidth cost** — total bytes consumed delivering an event (read
//! from [`hypersub_simnet::NetStats`] flows, since every delivery message
//! is tagged with its event id); (4) **in/out node bandwidth** — per-node
//! totals over the run (also from `NetStats`).

use crate::model::SubId;
use hypersub_simnet::{NetStats, SimTime};
use hypersub_snapshot::{codec, Decode, Encode, Error, Reader, Writer};
use std::collections::HashMap;

/// One recorded publish.
#[derive(Debug, Clone, Copy)]
pub struct PublishRecord {
    /// When the event was published.
    pub time: SimTime,
    /// Publishing node (simulator index).
    pub node: usize,
    /// Ground-truth number of matching subscriptions at publish time.
    pub expected: usize,
}
codec!(struct PublishRecord { time, node, expected });

/// One recorded delivery to a subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The event delivered.
    pub event: u64,
    /// The matched subscription.
    pub subid: SubId,
    /// Delivery time.
    pub time: SimTime,
    /// Network hops the delivering message copy traversed.
    pub hops: u32,
}
codec!(struct DeliveryRecord { event, subid, time, hops });

/// A named per-node counter that grows on demand (the world does not know
/// the network size up front). Index by simulator node index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerNodeCounter {
    v: Vec<u64>,
}
codec!(struct PerNodeCounter { v });

impl PerNodeCounter {
    /// Adds `k` to node `i`'s count.
    #[inline]
    pub fn add(&mut self, i: usize, k: u64) {
        if i >= self.v.len() {
            self.v.resize(i + 1, 0);
        }
        self.v[i] += k;
    }

    /// Increments node `i`'s count.
    #[inline]
    pub fn inc(&mut self, i: usize) {
        self.add(i, 1);
    }

    /// Node `i`'s count (zero for never-touched nodes).
    pub fn get(&self, i: usize) -> u64 {
        self.v.get(i).copied().unwrap_or(0)
    }

    /// Sum over all nodes.
    pub fn total(&self) -> u64 {
        self.v.iter().sum()
    }

    /// The largest per-node count.
    pub fn max(&self) -> u64 {
        self.v.iter().copied().max().unwrap_or(0)
    }
}

/// A log2-bucketed histogram of `u64` samples: bucket `i` counts samples
/// whose value has bit length `i` (bucket 0 holds zeros). Cheap enough
/// for the delivery hot path — one `leading_zeros` and two adds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket counts up to and including the last nonzero bucket; bucket
    /// `i` covers values with bit length `i` (`[2^(i-1), 2^i)`; bucket 0
    /// is exactly zero).
    pub fn buckets(&self) -> &[u64] {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |i| i + 1);
        &self.buckets[..last]
    }
}

/// Registry of named per-node/per-protocol counters and histograms — the
/// observability extension of the paper's §5.1 cost metrics. Always on
/// (plain counter arithmetic is far below simulation noise) and
/// deliberately *outside* the run digest, so adding instrumentation can
/// never disturb golden digests.
#[derive(Debug, Clone, Default)]
pub struct ProtoMetrics {
    /// Retransmissions sent by the reliable layer (2nd+ transmissions).
    pub retry_attempts: PerNodeCounter,
    /// Reliable sends abandoned after exhausting their attempts.
    pub retry_give_ups: PerNodeCounter,
    /// Acks received for outstanding reliable sends.
    pub acks: PerNodeCounter,
    /// First-transmission-to-ack latency, in microseconds.
    pub ack_latency_us: LogHistogram,
    /// Delivery messages that split into per-hop forwards (Algorithm 5
    /// phase 2 executions with a nonempty group set).
    pub delivery_splits: PerNodeCounter,
    /// Fan-out per delivery split: distinct next hops one message fed.
    pub delivery_fanout: LogHistogram,
    /// Rendezvous markers consumed (Algorithm 5's NULL-target matching).
    pub rendezvous_matches: PerNodeCounter,
    /// Repository entries stored by Algorithm 3 on this node.
    pub sub_registers: PerNodeCounter,
    /// Summary-filter subdivisions pushed to child zones (Algorithm 3
    /// lines 4–9, counted per crossing).
    pub chain_pushes: PerNodeCounter,
    /// Load-balancing rounds in which this node offered migrations.
    pub migration_rounds: PerNodeCounter,
    /// Subscriptions migrated away after acceptor acknowledgment.
    pub migrated_subs: PerNodeCounter,
    /// Soft-state lease ticks fired (self-healing plane).
    pub lease_refreshes: PerNodeCounter,
    /// Replica entries stored on behalf of predecessor origins.
    pub replica_entries: PerNodeCounter,
    /// Replica sets promoted into owned repositories after an ownership
    /// change revealed a dead origin.
    pub promotions: PerNodeCounter,
    /// Migrated-away subscriptions re-homed after their host died.
    pub rehomed_subs: PerNodeCounter,
}
codec!(struct ProtoMetrics {
    retry_attempts,
    retry_give_ups,
    acks,
    ack_latency_us,
    delivery_splits,
    delivery_fanout,
    rendezvous_matches,
    sub_registers,
    chain_pushes,
    migration_rounds,
    migrated_subs,
    lease_refreshes,
    replica_entries,
    promotions,
    rehomed_subs,
});

impl ProtoMetrics {
    /// All counters with their registry names, for export.
    pub fn counters(&self) -> [(&'static str, &PerNodeCounter); 13] {
        [
            ("retry.attempts", &self.retry_attempts),
            ("retry.give_ups", &self.retry_give_ups),
            ("retry.acks", &self.acks),
            ("delivery.splits", &self.delivery_splits),
            ("delivery.rendezvous_matches", &self.rendezvous_matches),
            ("install.sub_registers", &self.sub_registers),
            ("install.chain_pushes", &self.chain_pushes),
            ("lb.migration_rounds", &self.migration_rounds),
            ("lb.migrated_subs", &self.migrated_subs),
            ("repair.lease_refreshes", &self.lease_refreshes),
            ("repair.replicas", &self.replica_entries),
            ("repair.promotions", &self.promotions),
            ("repair.rehomes", &self.rehomed_subs),
        ]
    }

    /// All histograms with their registry names, for export.
    pub fn histograms(&self) -> [(&'static str, &LogHistogram); 2] {
        [
            ("retry.ack_latency_us", &self.ack_latency_us),
            ("delivery.fanout", &self.delivery_fanout),
        ]
    }
}

/// Mutable metric sink living in the simulation world.
#[derive(Debug, Default)]
pub struct Metrics {
    publishes: HashMap<u64, PublishRecord>,
    deliveries: Vec<DeliveryRecord>,
    /// Protocol counters and histograms (see [`ProtoMetrics`]).
    pub proto: ProtoMetrics,
}
// Delivery records stay in arrival order: `event_stats` output and digest
// inputs depend on it.
codec!(struct Metrics { publishes, deliveries, proto });

impl Metrics {
    /// Records an event publication.
    pub fn record_publish(&mut self, event: u64, time: SimTime, node: usize, expected: usize) {
        let prev = self.publishes.insert(
            event,
            PublishRecord {
                time,
                node,
                expected,
            },
        );
        assert!(prev.is_none(), "event {event} published twice");
    }

    /// Records a delivery to a local subscriber.
    pub fn record_delivery(&mut self, event: u64, subid: SubId, time: SimTime, hops: u32) {
        self.deliveries.push(DeliveryRecord {
            event,
            subid,
            time,
            hops,
        });
    }

    /// Raw delivery records.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.deliveries
    }

    /// Raw publish records.
    pub fn publishes(&self) -> &HashMap<u64, PublishRecord> {
        &self.publishes
    }

    /// Aggregates per-event statistics, sorted by event id. `total_subs`
    /// is the number of subscriptions in the system (for the matched
    /// fraction); `net` supplies the per-flow bandwidth.
    pub fn event_stats(&self, total_subs: usize, net: &NetStats) -> Vec<EventStats> {
        // The records grouped by event, and by subscription inside an
        // event, as indices: four bytes a delivery, where a map of lists
        // of references cost twice that and a table and a list per event.
        let records = &self.deliveries;
        let len = u32::try_from(records.len()).expect("fewer than 2³² delivery records");
        let key = |i: u32| {
            let d = &records[i as usize];
            (d.event, d.subid)
        };
        let mut order: Vec<u32> = (0..len).collect();
        order.sort_unstable_by_key(|&i| key(i));
        let mut published: Vec<(u64, &PublishRecord)> =
            self.publishes.iter().map(|(&e, p)| (e, p)).collect();
        published.sort_unstable_by_key(|&(e, _)| e);

        let mut rest = order.as_slice();
        published
            .into_iter()
            .map(|(event, p)| {
                // Deliveries of an event never published are skipped.
                let start = rest.partition_point(|&i| key(i).0 < event);
                let end = start + rest[start..].partition_point(|&i| key(i).0 == event);
                let group = &rest[start..end];
                rest = &rest[end..];
                let mut stats = EventStats {
                    event,
                    publish_time: p.time,
                    publish_node: p.node,
                    expected: p.expected,
                    delivered: 0,
                    duplicates: 0,
                    max_hops: 0,
                    max_latency: SimTime::ZERO,
                    bandwidth_bytes: 0,
                    messages: 0,
                    matched_fraction: if total_subs == 0 {
                        0.0
                    } else {
                        p.expected as f64 / total_subs as f64
                    },
                };
                let mut last = None;
                for &i in group {
                    let d = &records[i as usize];
                    // Distinct subscriber subids (defensive: a second
                    // delivery to one would mean a protocol bug, surfaced
                    // by `duplicates`). Sorted, so a repeat is adjacent.
                    if last == Some(d.subid) {
                        stats.duplicates += 1;
                    } else {
                        stats.delivered += 1;
                    }
                    last = Some(d.subid);
                    stats.max_hops = stats.max_hops.max(d.hops);
                    stats.max_latency = stats.max_latency.max(d.time.saturating_sub(p.time));
                }
                let flow = net.flow(event);
                stats.bandwidth_bytes = flow.bytes;
                stats.messages = flow.msgs;
                stats
            })
            .collect()
    }
}

// Hand-written codec: the decoder validates (buckets sum to the count).
impl Encode for LogHistogram {
    fn encode(&self, w: &mut Writer) {
        self.buckets.encode(w);
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.max);
    }
}

impl Decode for LogHistogram {
    fn decode(r: &mut Reader<'_>) -> Result<Self, Error> {
        let h = LogHistogram {
            buckets: <[u64; 65]>::decode(r)?,
            count: r.take_u64()?,
            sum: r.take_u64()?,
            max: r.take_u64()?,
        };
        if h.buckets.iter().sum::<u64>() != h.count {
            return Err(Error::InvalidValue("histogram bucket/count mismatch"));
        }
        Ok(h)
    }
}

/// Aggregated statistics for one event — one row of the paper's Figure 2
/// dataset. `PartialEq` supports replay-determinism assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventStats {
    /// Event id.
    pub event: u64,
    /// When it was published.
    pub publish_time: SimTime,
    /// Publisher node index.
    pub publish_node: usize,
    /// Ground-truth matching subscriptions.
    pub expected: usize,
    /// Distinct subscriptions actually delivered to.
    pub delivered: usize,
    /// Duplicate deliveries observed (should be 0).
    pub duplicates: usize,
    /// Max path length over all deliveries (paper metric 1).
    pub max_hops: u32,
    /// Max delivery latency (paper metric 2).
    pub max_latency: SimTime,
    /// Total bytes of delivery traffic for this event (paper metric 3).
    pub bandwidth_bytes: u64,
    /// Delivery messages sent for this event.
    pub messages: u64,
    /// `expected / total subscriptions` (Figure 2a's x-axis).
    pub matched_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u64) -> SubId {
        SubId { nid: n, iid: 1 }
    }

    #[test]
    fn aggregates_per_event() {
        let mut m = Metrics::default();
        let net = NetStats::new(4);
        m.record_publish(1, SimTime::from_millis(100), 0, 2);
        m.record_delivery(1, sid(10), SimTime::from_millis(130), 3);
        m.record_delivery(1, sid(11), SimTime::from_millis(150), 5);
        m.record_publish(2, SimTime::from_millis(200), 1, 0);
        let stats = m.event_stats(100, &net);
        assert_eq!(stats.len(), 2);
        let s1 = &stats[0];
        assert_eq!(s1.delivered, 2);
        assert_eq!(s1.expected, 2);
        assert_eq!(s1.max_hops, 5);
        assert_eq!(s1.max_latency, SimTime::from_millis(50));
        assert_eq!(s1.duplicates, 0);
        assert!((s1.matched_fraction - 0.02).abs() < 1e-12);
        let s2 = &stats[1];
        assert_eq!(s2.delivered, 0);
        assert_eq!(s2.max_latency, SimTime::ZERO);
    }

    #[test]
    fn duplicate_deliveries_are_counted_not_double_counted() {
        let mut m = Metrics::default();
        let net = NetStats::new(1);
        m.record_publish(1, SimTime::ZERO, 0, 1);
        m.record_delivery(1, sid(10), SimTime::from_millis(1), 1);
        m.record_delivery(1, sid(10), SimTime::from_millis(2), 2);
        let stats = m.event_stats(10, &net);
        assert_eq!(stats[0].delivered, 1);
        assert_eq!(stats[0].duplicates, 1);
    }

    /// The per-event map of record lists `event_stats` used to build,
    /// kept as the reference its folding over sorted indices must equal.
    fn event_stats_by_map(m: &Metrics, total_subs: usize, net: &NetStats) -> Vec<EventStats> {
        let mut by_event: HashMap<u64, Vec<&DeliveryRecord>> = HashMap::new();
        for d in &m.deliveries {
            by_event.entry(d.event).or_default().push(d);
        }
        let mut out: Vec<EventStats> = m
            .publishes
            .iter()
            .map(|(&event, p)| {
                let deliveries = by_event.get(&event).map(|v| v.as_slice()).unwrap_or(&[]);
                let mut subids: Vec<SubId> = deliveries.iter().map(|d| d.subid).collect();
                subids.sort_unstable();
                let before = subids.len();
                subids.dedup();
                let flow = net.flow(event);
                EventStats {
                    event,
                    publish_time: p.time,
                    publish_node: p.node,
                    expected: p.expected,
                    delivered: subids.len(),
                    duplicates: before - subids.len(),
                    max_hops: deliveries.iter().map(|d| d.hops).max().unwrap_or(0),
                    max_latency: deliveries
                        .iter()
                        .map(|d| d.time.saturating_sub(p.time))
                        .max()
                        .unwrap_or(SimTime::ZERO),
                    bandwidth_bytes: flow.bytes,
                    messages: flow.msgs,
                    matched_fraction: if total_subs == 0 {
                        0.0
                    } else {
                        p.expected as f64 / total_subs as f64
                    },
                }
            })
            .collect();
        out.sort_unstable_by_key(|s| s.event);
        out
    }

    /// A shuffled log: forty published events, one in four with no
    /// delivery, the rest with up to six subscribers, some delivered
    /// twice, and deliveries of two events never published. Folding
    /// sorted indices gives what the map of lists gave, field for field.
    #[test]
    fn event_stats_folds_a_shuffled_log_like_the_map_of_lists() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let mut m = Metrics::default();
        let mut net = NetStats::new(4);
        let mut log = Vec::new();
        for event in 0..40u64 {
            let at = SimTime::from_millis(10 * event);
            m.record_publish(event * 3, at, (event % 4) as usize, event as usize % 7);
            net.record_out(0, 100 + event as usize, Some(event * 3));
            if event % 4 == 1 {
                continue;
            }
            for sub in 0..next(7) {
                for _ in 0..1 + usize::from(next(5) == 0) {
                    let time = at + SimTime::from_millis(1 + next(90));
                    log.push((event * 3, sid(sub), time, next(9) as u32));
                }
            }
        }
        for (event, sub) in [(1, 4), (500, 2)] {
            log.push((event, sid(sub), SimTime::from_secs(9), 2));
        }
        for i in (1..log.len()).rev() {
            log.swap(i, next(i as u64 + 1) as usize);
        }
        for (event, subid, time, hops) in log {
            m.record_delivery(event, subid, time, hops);
        }

        let got = m.event_stats(50, &net);
        assert_eq!(got, event_stats_by_map(&m, 50, &net));
        assert_eq!(got.len(), 40);
        assert!(
            got.iter().any(|s| s.duplicates > 0),
            "the log repeats deliveries"
        );
        assert!(got.iter().filter(|s| s.delivered == 0).count() >= 10);
        assert!(got.iter().all(|s| s.messages == 1 && s.bandwidth_bytes > 0));
    }

    #[test]
    #[should_panic(expected = "published twice")]
    fn double_publish_panics() {
        let mut m = Metrics::default();
        m.record_publish(1, SimTime::ZERO, 0, 0);
        m.record_publish(1, SimTime::ZERO, 0, 0);
    }

    #[test]
    fn per_node_counter_grows_on_demand() {
        let mut c = PerNodeCounter::default();
        c.inc(5);
        c.add(2, 3);
        c.inc(5);
        assert_eq!(c.get(5), 2);
        assert_eq!(c.get(2), 3);
        assert_eq!(c.get(100), 0, "untouched nodes read zero");
        assert_eq!(c.total(), 5);
        assert_eq!(c.max(), 3);
    }

    #[test]
    fn log_histogram_buckets_by_bit_length() {
        let mut h = LogHistogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.max(), 1000);
        // 0 → bucket 0; 1 → 1; 2,3 → 2; 4 → 3; 1000 (10 bits) → 10.
        let b = h.buckets();
        assert_eq!(b[0], 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 2);
        assert_eq!(b[3], 1);
        assert_eq!(b[10], 1);
        assert_eq!(b.len(), 11, "trailing zero buckets are trimmed");
        assert!((h.mean() - 1010.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn proto_metrics_export_names_are_unique() {
        let p = ProtoMetrics::default();
        let mut names: Vec<&str> = p.counters().iter().map(|&(n, _)| n).collect();
        names.extend(p.histograms().iter().map(|&(n, _)| n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
