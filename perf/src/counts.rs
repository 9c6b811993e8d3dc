//! The program's own cost counts, read from rep 0 through public
//! accessors. They repeat bit-for-bit for a seed, whatever K turned out
//! to be, because every rep does identical work.

use crate::rep::Marks;
use crate::shape::Shape;
use hypersub_core::index::IndexDiag;
use hypersub_core::msg::{EVENT_BYTES, HEADER_BYTES, SUBID_BYTES};
use hypersub_core::sim::Network;

#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    // end to end (all over the timed batches)
    pub sim_latency_p50_us: f64,
    pub sim_latency_p99_us: f64,
    pub latency_samples: usize,
    pub hops_per_event: f64,
    pub kb_per_event: f64,
    pub install_msgs_per_sub: f64,
    pub load_gini: f64,
    // per layer
    pub steps_per_event: f64,
    pub net_msgs_per_event: f64,
    pub registers_per_sub: f64,
    pub chain_pushes_per_sub: f64,
    pub install_bytes_per_sub: f64,
    pub deliveries_per_event: f64,
    pub delivery_msgs_per_event: f64,
    pub splits_per_event: f64,
    pub fanout_mean: f64,
    pub bytes_per_delivery_msg: f64,
    pub index: IndexDiag,
    /// SubID-list entries that crossed the network in the timed batches,
    /// recovered from the wire-size model: a delivery message is header +
    /// event + 9 bytes per entry.
    pub wire_targets: u64,
    /// Median and 99th percentile over timed events of the event's mean
    /// SubID-list length per delivery message.
    pub list_len_p50: usize,
    pub list_len_p99: usize,
}

/// Nearest-rank percentile of a sorted slice (the type's zero for none).
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 where there is nothing to divide by (a toy run with
/// no delivery); never the case at the benchmark's sizes.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn collect(net: &Network, shape: &Shape, marks: &Marks) -> Counts {
    let stats = net.event_stats();
    // Event ids are handed out in scheduling order starting at 1, so the
    // warm-up batch is the id-sorted prefix.
    let timed = &stats[shape.warmup_events..];
    let first_timed = timed.first().map_or(u64::MAX, |e| e.event);
    let n = timed.len() as f64;
    let subs = shape.subs as f64;

    let publishes = net.metrics().publishes();
    let mut latencies: Vec<u64> = net
        .deliveries()
        .iter()
        .filter(|d| d.event >= first_timed)
        .map(|d| d.time.saturating_sub(publishes[&d.event].time).as_micros())
        .collect();
    latencies.sort_unstable();

    let bytes: u64 = timed.iter().map(|e| e.bandwidth_bytes).sum();
    let msgs: u64 = timed.iter().map(|e| e.messages).sum();
    let fixed = (HEADER_BYTES + EVENT_BYTES) as u64;
    let mut list_lens: Vec<usize> = timed
        .iter()
        .filter(|e| e.messages > 0)
        .map(|e| {
            ((e.bandwidth_bytes - fixed * e.messages) / (SUBID_BYTES as u64 * e.messages)) as usize
        })
        .collect();
    list_lens.sort_unstable();

    let loads: Vec<f64> = net.node_loads().iter().map(|&l| l as f64).collect();
    let proto = &net.metrics().proto;
    let mut index = IndexDiag::default();
    for node in net.nodes() {
        index.merge(&node.index_diag());
    }
    let all_events = stats.len() as f64;

    Counts {
        sim_latency_p50_us: percentile(&latencies, 0.50) as f64,
        sim_latency_p99_us: percentile(&latencies, 0.99) as f64,
        latency_samples: latencies.len(),
        hops_per_event: {
            // An event nobody subscribes to travels no delivery path.
            let matched = timed.iter().filter(|e| e.expected > 0);
            ratio(
                matched.clone().map(|e| e.max_hops as f64).sum(),
                matched.count() as f64,
            )
        },
        kb_per_event: bytes as f64 / 1000.0 / n,
        install_msgs_per_sub: marks.install_msgs as f64 / subs,
        load_gini: hypersub_stats::load::gini(&loads),
        steps_per_event: marks.publish_steps as f64 / n,
        net_msgs_per_event: marks.publish_msgs as f64 / n,
        registers_per_sub: marks.install_registers as f64 / subs,
        chain_pushes_per_sub: marks.install_chain_pushes as f64 / subs,
        install_bytes_per_sub: marks.install_bytes as f64 / subs,
        deliveries_per_event: latencies.len() as f64 / n,
        delivery_msgs_per_event: msgs as f64 / n,
        // The split counters cover the whole rep, warm-up included.
        splits_per_event: proto.delivery_splits.total() as f64 / all_events,
        fanout_mean: proto.delivery_fanout.mean(),
        bytes_per_delivery_msg: ratio(bytes as f64, msgs as f64),
        index,
        wire_targets: (bytes - fixed * msgs) / SUBID_BYTES as u64,
        list_len_p50: percentile(&list_lens, 0.50),
        list_len_p99: percentile(&list_lens, 0.99),
    }
}
