//! Deterministic workload streams from a [`WorkloadSpec`].

use crate::spec::WorkloadSpec;
use crate::zipf::ZipfSampler;
use hypersub_core::model::{SubId, Subscription};
use hypersub_core::sim::{Net, PubSubNode};
use hypersub_lph::{Point, Rect};
use hypersub_simnet::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};

/// Generates event points, subscriptions and inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    value_zipf: Vec<ZipfSampler>,
    size_zipf: Vec<ZipfSampler>,
    exp: Exp<f64>,
    rng: SmallRng,
}

impl WorkloadGen {
    /// Creates a generator; everything downstream is a pure function of
    /// `(spec, seed)`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let value_zipf = spec
            .attrs
            .iter()
            .map(|a| ZipfSampler::new(spec.value_ranks, a.data_skew))
            .collect();
        let size_zipf = spec
            .attrs
            .iter()
            .map(|a| ZipfSampler::new(spec.size_ranks, a.size_skew))
            .collect();
        let mean_s = spec.mean_interarrival.as_secs_f64().max(1e-9);
        Self {
            spec,
            value_zipf,
            size_zipf,
            exp: Exp::new(1.0 / mean_s).expect("positive rate"),
            rng: SmallRng::seed_from_u64(seed ^ 0x3141_5926_5358_9793),
        }
    }

    /// The spec this generator draws from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draws one attribute value: Zipf rank `k` "scaled and shifted" onto
    /// the domain (§5.1) — rank 0 sits at the hotspot, higher ranks wrap
    /// around the domain, so values cluster near the hotspot.
    fn value(&mut self, dim: usize) -> f64 {
        let a = &self.spec.attrs[dim];
        let k = self.value_zipf[dim].sample(&mut self.rng);
        let n = self.value_zipf[dim].n();
        // Jitter within the rank's cell keeps values continuous.
        let jitter: f64 = self.rng.gen();
        let frac = (a.data_hotspot + (k as f64 + jitter) / n as f64) % 1.0;
        a.min + frac * (a.max - a.min)
    }

    /// Draws an event point.
    pub fn event_point(&mut self) -> Point {
        Point((0..self.spec.dims()).map(|d| self.value(d)).collect())
    }

    /// Draws a subscription from the template: per-dimension range size
    /// from the size Zipf (rank 0 = smallest), centered on a value drawn
    /// from the data distribution, clamped to the domain.
    pub fn subscription(&mut self) -> Subscription {
        let d = self.spec.dims();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for dim in 0..d {
            let (min, max, size_hotspot) = {
                let a = &self.spec.attrs[dim];
                (a.min, a.max, a.size_hotspot)
            };
            let width = max - min;
            let k = self.size_zipf[dim].sample(&mut self.rng);
            let n = self.size_zipf[dim].n();
            let size = size_hotspot * width * (k as f64 + 1.0) / n as f64;
            let center = self.value(dim);
            lo.push((center - size / 2.0).max(min));
            hi.push((center + size / 2.0).min(max));
        }
        Subscription::new(Rect::new(lo, hi))
    }

    /// Like [`WorkloadGen::subscription`], but only the listed attributes
    /// get predicates — the rest span their whole domain (§3.5's
    /// motivating case: "subscriptions which do not specify predicates on
    /// all attributes are mapped to some larger content zones").
    pub fn subscription_on(&mut self, dims: &[usize]) -> Subscription {
        let full = self.subscription();
        let d = self.spec.dims();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for dim in 0..d {
            let a = &self.spec.attrs[dim];
            if dims.contains(&dim) {
                lo.push(full.rect.lo()[dim]);
                hi.push(full.rect.hi()[dim]);
            } else {
                lo.push(a.min);
                hi.push(a.max);
            }
        }
        Subscription::new(Rect::new(lo, hi))
    }

    /// Shifts every attribute's data hotspot by `delta` (a fraction of
    /// the domain, wrapping around) — the "viral topic" jump of a flash
    /// crowd: the popular region of the content space moves, and every
    /// value drawn afterwards clusters around the new hotspot. Draws no
    /// randomness, so two generators shifted at the same point in their
    /// streams stay in lockstep.
    pub fn shift_hotspot(&mut self, delta: f64) {
        for a in &mut self.spec.attrs {
            a.data_hotspot = (a.data_hotspot + delta).rem_euclid(1.0);
        }
    }

    /// Draws an exponential inter-arrival gap.
    pub fn interarrival(&mut self) -> SimTime {
        let secs = self.exp.sample(&mut self.rng);
        SimTime::from_micros((secs * 1e6).round().max(1.0) as u64)
    }

    /// Draws an inter-arrival gap stretched by `scale` (`1.0` = the
    /// spec's native rate; larger is slower). Feed it a
    /// [`crate::waves::DiurnalRate`] multiplier to shape a diurnal
    /// stream; the underlying exponential draw is the same as
    /// [`WorkloadGen::interarrival`]'s, so the scaled and unscaled
    /// streams consume identical randomness.
    pub fn scaled_interarrival(&mut self, scale: f64) -> SimTime {
        assert!(scale > 0.0, "interarrival scale must be positive");
        let base = self.interarrival();
        SimTime::from_micros(((base.0 as f64) * scale).round().max(1.0) as u64)
    }

    /// Draws a uniformly random node index (the paper publishes each event
    /// from a randomly chosen node).
    pub fn random_node(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// §5.1's first phase: every node of `net` installs `subs_per_node`
    /// subscriptions on scheme 0, drawn node-major. Returns the ids in
    /// draw order; the caller runs the network to settle the traffic.
    pub fn install<N: PubSubNode>(&mut self, net: &mut Net<N>, subs_per_node: usize) -> Vec<SubId> {
        let mut ids = Vec::with_capacity(net.len() * subs_per_node);
        for node in 0..net.len() {
            for _ in 0..subs_per_node {
                ids.push(net.subscribe(node, 0, self.subscription()));
            }
        }
        ids
    }

    /// §5.1's second phase: schedules `events` publications on scheme 0,
    /// each from a randomly chosen node, the first one second from now
    /// and the rest at exponentially distributed gaps. Draws node, point
    /// and gap per event, in that order. Returns each event's id and
    /// point, and the time after the last gap.
    pub fn schedule<N: PubSubNode>(
        &mut self,
        net: &mut Net<N>,
        events: usize,
    ) -> (Vec<(u64, Point)>, SimTime) {
        let mut t = net.time() + SimTime::from_secs(1);
        let mut scheduled = Vec::with_capacity(events);
        for _ in 0..events {
            let node = self.random_node(net.len());
            let point = self.event_point();
            let id = net
                .schedule_publish(t, node, 0, point.clone())
                .expect("publisher index in range");
            scheduled.push((id, point));
            t += self.interarrival();
        }
        (scheduled, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use hypersub_baselines::gossip::GossipNode;
    use hypersub_core::metrics::EventStats;
    use hypersub_core::model::{Event, Registry};
    use hypersub_core::sim::{Network, NetworkBuilder};

    fn gen() -> WorkloadGen {
        WorkloadGen::new(WorkloadSpec::paper_table1(), 42)
    }

    #[test]
    fn events_stay_in_domain() {
        let mut g = gen();
        for _ in 0..1000 {
            let p = g.event_point();
            assert_eq!(p.dims(), 4);
            for (d, &v) in p.0.iter().enumerate() {
                let a = &g.spec.attrs[d];
                assert!(v >= a.min && v <= a.max, "dim {d} value {v}");
            }
        }
    }

    #[test]
    fn subscriptions_stay_in_domain_and_are_valid() {
        let mut g = gen();
        for _ in 0..1000 {
            let s = g.subscription();
            for d in 0..4 {
                assert!(s.rect.lo()[d] <= s.rect.hi()[d]);
                assert!(s.rect.lo()[d] >= 0.0 && s.rect.hi()[d] <= 10_000.0);
            }
        }
    }

    #[test]
    fn values_cluster_near_hotspot() {
        let mut g = gen();
        let a0 = g.spec.attrs[0].clone();
        let hotspot = a0.min + a0.data_hotspot * (a0.max - a0.min);
        let near = (0..20_000)
            .filter(|_| {
                let v = g.event_point().0[0];
                // Within 10% of the domain after the hotspot.
                let frac = (v - hotspot).rem_euclid(a0.max - a0.min) / (a0.max - a0.min);
                frac < 0.1
            })
            .count();
        // Zipf(0.95, 1000 ranks): the first 10% of ranks carry far more
        // than 10% of the mass.
        assert!(
            near > 20_000 / 5,
            "expected hotspot concentration, got {near}/20000"
        );
    }

    #[test]
    fn interarrival_mean_close_to_spec() {
        let mut g = gen();
        let n = 50_000;
        let total: u64 = (0..n).map(|_| g.interarrival().as_micros()).sum();
        let mean_ms = total as f64 / n as f64 / 1000.0;
        assert!((90.0..110.0).contains(&mean_ms), "mean {mean_ms} ms");
    }

    #[test]
    fn partial_subscriptions_default_unlisted_dims() {
        let mut g = gen();
        for _ in 0..100 {
            let s = g.subscription_on(&[1, 3]);
            assert_eq!(s.rect.lo()[0], 0.0);
            assert_eq!(s.rect.hi()[0], 10_000.0);
            assert_eq!(s.rect.lo()[2], 0.0);
            assert_eq!(s.rect.hi()[2], 10_000.0);
            assert!(s.rect.hi()[1] - s.rect.lo()[1] < 10_000.0);
        }
    }

    #[test]
    fn shifted_hotspot_moves_the_cluster() {
        let mut g = gen();
        g.shift_hotspot(0.4);
        let a0 = g.spec.attrs[0].clone();
        assert!((a0.data_hotspot - 0.5).abs() < 1e-12, "0.10 + 0.4");
        let hotspot = a0.min + a0.data_hotspot * (a0.max - a0.min);
        let near = (0..10_000)
            .filter(|_| {
                let v = g.event_point().0[0];
                let frac = (v - hotspot).rem_euclid(a0.max - a0.min) / (a0.max - a0.min);
                frac < 0.1
            })
            .count();
        assert!(
            near > 10_000 / 5,
            "values must cluster at the shifted hotspot, got {near}/10000"
        );
    }

    #[test]
    fn hotspot_shift_wraps_and_draws_no_randomness() {
        let mut a = gen();
        let mut b = gen();
        // Identical shifts keep the two random streams in lockstep: the
        // shift itself consumes no randomness.
        a.shift_hotspot(0.3);
        b.shift_hotspot(0.3);
        for _ in 0..50 {
            assert_eq!(a.event_point(), b.event_point());
            assert_eq!(a.subscription().rect, b.subscription().rect);
        }
        // Negative shifts wrap instead of going out of range.
        a.shift_hotspot(-0.55);
        for at in &a.spec.attrs {
            assert!((0.0..1.0).contains(&at.data_hotspot));
        }
        assert!(
            (a.spec.attrs[0].data_hotspot - 0.85).abs() < 1e-12,
            "0.10+0.3-0.55 wraps"
        );
    }

    #[test]
    fn scaled_interarrival_stretches_the_mean() {
        let mut g = gen();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| g.scaled_interarrival(3.0).as_micros()).sum();
        let mean_ms = total as f64 / n as f64 / 1000.0;
        assert!((270.0..330.0).contains(&mean_ms), "mean {mean_ms} ms");
    }

    #[test]
    fn deterministic() {
        let mut a = gen();
        let mut b = gen();
        for _ in 0..100 {
            assert_eq!(a.event_point(), b.event_point());
            assert_eq!(a.subscription().rect, b.subscription().rect);
        }
    }

    /// Runs `install` + `schedule` on a 12-node network of whatever node
    /// type `build` picks, checking what each promises.
    fn recipe<N: PubSubNode>(build: impl FnOnce(NetworkBuilder) -> Net<N>) -> Net<N> {
        let spec = WorkloadSpec::paper_table1();
        let mut net = build(Network::builder(12).registry(Registry::new(vec![spec.scheme_def(0)])));
        let mut g = WorkloadGen::new(spec, 42);
        let subs = g.install(&mut net, 3);
        assert_eq!(subs.len(), 12 * 3);
        // Node-major: ids come back in blocks of three per node, and
        // every system numbers a node's own subscriptions upwards.
        for (node, block) in subs.chunks(3).enumerate() {
            assert!(block.iter().all(|s| s.nid == block[0].nid), "node {node}");
            assert!(block.windows(2).all(|w| w[0].iid < w[1].iid), "node {node}");
        }
        net.run_to_quiescence();
        let now = net.time();
        let (events, end) = g.schedule(&mut net, 40);
        let ids: Vec<u64> = events.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (1..=40).collect::<Vec<u64>>());
        net.run_to_quiescence();
        let stats = net.event_stats();
        assert_eq!(stats[0].publish_time, now + SimTime::from_secs(1));
        assert!(stats
            .windows(2)
            .all(|w| w[0].publish_time < w[1].publish_time));
        assert!(stats[39].publish_time < end);
        for (s, (id, point)) in stats.iter().zip(&events) {
            assert_eq!(s.event, *id);
            assert_eq!(s.expected, net.expected_matches(0, point).len());
            assert_eq!(s.delivered, s.expected, "event {id}");
        }
        assert!(stats.iter().any(|s| s.expected > 0), "nothing matched");
        net
    }

    #[test]
    fn install_and_schedule_keep_their_order_on_any_driver() {
        let hyper = recipe(|b| b.build().unwrap());
        let gossip = recipe(|b| b.build_with(GossipNode::new).unwrap());
        // Same generator: the rival saw the same publishers, gaps and
        // points (its installation settles sooner, so not the same clock).
        let script = |stats: Vec<EventStats>| -> Vec<(usize, SimTime, usize)> {
            let first = stats[0].publish_time;
            stats
                .iter()
                .map(|s| (s.publish_node, s.publish_time - first, s.expected))
                .collect()
        };
        assert_eq!(script(hyper.event_stats()), script(gossip.event_stats()));
    }

    #[test]
    fn matched_fraction_in_paper_ballpark() {
        // Calibration guard: the average fraction of subscriptions matched
        // by an event should sit in the sub-percent range the paper
        // reports (Fig 2a avg 0.834%). Allow a generous band — the guard
        // exists to catch order-of-magnitude drift when the template
        // changes.
        let mut g = gen();
        let subs: Vec<Subscription> = (0..2000).map(|_| g.subscription()).collect();
        let mut total = 0usize;
        let events = 500;
        for _ in 0..events {
            let e = Event {
                id: 0,
                point: g.event_point(),
            };
            total += subs.iter().filter(|s| s.matches(&e)).count();
        }
        let avg_frac = total as f64 / events as f64 / subs.len() as f64;
        assert!(
            (0.001..0.05).contains(&avg_frac),
            "avg matched fraction {avg_frac} outside calibration band"
        );
    }
}
