//! Network latency models.
//!
//! The paper's network model "is derived from the King dataset, which
//! includes the pairwise latencies of 1740 DNS servers in the Internet
//! measured by the King method" with an average RTT of about 180 ms (§5.1).
//! That dataset is not redistributable here, so [`KingLikeTopology`]
//! synthesizes an equivalent: nodes are embedded in a 5-dimensional
//! Euclidean space (network coordinate studies show King embeds well in a
//! handful of dimensions) with deterministic per-pair multiplicative jitter
//! and a heavy right tail, then globally scaled so the mean RTT matches a
//! target. This preserves what the protocol layer cares about: realistic
//! spread, rough triangle inequality (so proximity neighbor selection has
//! something to exploit), and symmetric pairwise delays.

use crate::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A pairwise one-way latency model over `len()` nodes.
pub trait Topology: Send + Sync {
    /// Number of nodes in the topology.
    fn len(&self) -> usize;

    /// One-way latency from `src` to `dst`. Must be 0 for `src == dst`.
    fn latency(&self, src: usize, dst: usize) -> SimTime;

    /// True if the topology has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean round-trip time, estimated over at most `samples` random pairs
    /// (exact over all pairs for small topologies).
    fn avg_rtt_sampled(&self, samples: usize, seed: u64) -> SimTime {
        let n = self.len();
        if n < 2 {
            return SimTime::ZERO;
        }
        let mut total_us: u128 = 0;
        let mut count: u128 = 0;
        if n * (n - 1) <= 2 * samples {
            for a in 0..n {
                for b in (a + 1)..n {
                    total_us +=
                        (self.latency(a, b).as_micros() + self.latency(b, a).as_micros()) as u128;
                    count += 1;
                }
            }
        } else {
            let mut rng = SmallRng::seed_from_u64(seed);
            while count < samples as u128 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a == b {
                    continue;
                }
                total_us +=
                    (self.latency(a, b).as_micros() + self.latency(b, a).as_micros()) as u128;
                count += 1;
            }
        }
        SimTime::from_micros((total_us / count.max(1)) as u64)
    }
}

/// Constant one-way latency between every pair of distinct nodes.
///
/// Useful for unit tests where hop counts, not latencies, are under test.
#[derive(Debug, Clone)]
pub struct UniformTopology {
    n: usize,
    one_way: SimTime,
}

impl UniformTopology {
    /// `n` nodes, each pair `one_way` apart.
    pub fn new(n: usize, one_way: SimTime) -> Self {
        Self { n, one_way }
    }
}

impl Topology for UniformTopology {
    fn len(&self) -> usize {
        self.n
    }

    fn latency(&self, src: usize, dst: usize) -> SimTime {
        if src == dst {
            SimTime::ZERO
        } else {
            self.one_way
        }
    }
}

/// Synthetic King-dataset-like topology (see module docs).
#[derive(Debug, Clone)]
pub struct KingLikeTopology {
    coords: Vec<[f64; 5]>,
    /// Microseconds of one-way latency per unit of Euclidean distance.
    scale: f64,
    /// Per-pair jitter seed.
    seed: u64,
}

impl KingLikeTopology {
    /// Dimensionality of the synthetic embedding.
    const DIMS: usize = 5;

    /// Generates `n` nodes whose mean pairwise RTT is calibrated to
    /// `target_mean_rtt`. Deterministic in `(n, seed, target)`.
    pub fn generate(n: usize, target_mean_rtt: SimTime, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let coords: Vec<[f64; 5]> = (0..n)
            .map(|_| {
                let mut c = [0.0; Self::DIMS];
                for v in &mut c {
                    *v = rng.gen::<f64>();
                }
                c
            })
            .collect();
        let mut topo = Self {
            coords,
            scale: 1.0,
            seed,
        };
        if n >= 2 {
            // Calibrate: measure the mean jittered distance, then choose the
            // scale so mean one-way latency = target RTT / 2.
            let mut sum = 0.0;
            let mut count = 0u64;
            let sample_pairs = 50_000usize;
            if n * (n - 1) / 2 <= sample_pairs {
                for a in 0..n {
                    for b in (a + 1)..n {
                        sum += topo.jittered_distance(a, b);
                        count += 1;
                    }
                }
            } else {
                let mut prng = SmallRng::seed_from_u64(seed ^ 0x1234_5678);
                while count < sample_pairs as u64 {
                    let a = prng.gen_range(0..n);
                    let b = prng.gen_range(0..n);
                    if a == b {
                        continue;
                    }
                    sum += topo.jittered_distance(a, b);
                    count += 1;
                }
            }
            let mean = sum / count as f64;
            let target_one_way_us = target_mean_rtt.as_micros() as f64 / 2.0;
            topo.scale = target_one_way_us / mean.max(1e-9);
        }
        topo
    }

    fn distance(&self, a: usize, b: usize) -> f64 {
        let (ca, cb) = (&self.coords[a], &self.coords[b]);
        ca.iter()
            .zip(cb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    /// Deterministic symmetric per-pair jitter factor with a heavy right
    /// tail: most pairs land in `[0.55, 1.45)`, ~10% stretch up to ~3.5x
    /// (long transcontinental/satellite-ish paths in King).
    fn jitter_factor(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut h = self.seed ^ 0xdead_beef_cafe_f00d;
        for v in [lo as u64, hi as u64] {
            h ^= v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = h.rotate_left(27).wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < 0.9 {
            0.55 + u
        } else {
            1.45 + (u - 0.9) * 20.0
        }
    }

    fn jittered_distance(&self, a: usize, b: usize) -> f64 {
        // Floor keeps even co-located pairs at a realistic LAN-scale delay.
        self.distance(a, b) * self.jitter_factor(a, b) + 0.01
    }
}

impl Topology for KingLikeTopology {
    fn len(&self) -> usize {
        self.coords.len()
    }

    fn latency(&self, src: usize, dst: usize) -> SimTime {
        if src == dst {
            return SimTime::ZERO;
        }
        // Computed per send from two 40-byte coordinate rows that stay in
        // cache; a table of all pairs (8 MB at 1 024 nodes) costs a miss
        // per send instead.
        let us = self.jittered_distance(src, dst) * self.scale;
        SimTime::from_micros(us.round().max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_uniform() {
        let t = UniformTopology::new(4, SimTime::from_millis(10));
        assert_eq!(t.latency(0, 0), SimTime::ZERO);
        assert_eq!(t.latency(0, 3), SimTime::from_millis(10));
        assert_eq!(t.avg_rtt_sampled(1000, 1), SimTime::from_millis(20));
    }

    #[test]
    fn kinglike_calibrates_to_target_rtt() {
        let target = SimTime::from_millis(180);
        let t = KingLikeTopology::generate(500, target, 42);
        let avg = t.avg_rtt_sampled(20_000, 7);
        let err =
            (avg.as_micros() as f64 - target.as_micros() as f64).abs() / target.as_micros() as f64;
        assert!(err < 0.05, "avg RTT {avg} too far from target {target}");
    }

    #[test]
    fn kinglike_symmetric_and_deterministic() {
        let t1 = KingLikeTopology::generate(100, SimTime::from_millis(180), 1);
        let t2 = KingLikeTopology::generate(100, SimTime::from_millis(180), 1);
        for (a, b) in [(0, 1), (5, 99), (42, 43)] {
            assert_eq!(t1.latency(a, b), t1.latency(b, a), "symmetric");
            assert_eq!(t1.latency(a, b), t2.latency(a, b), "deterministic");
        }
    }

    #[test]
    fn kinglike_has_latency_spread() {
        let t = KingLikeTopology::generate(200, SimTime::from_millis(180), 3);
        let mut lats: Vec<u64> = (1..200).map(|i| t.latency(0, i).as_micros()).collect();
        lats.sort_unstable();
        let min = lats[0] as f64;
        let max = *lats.last().unwrap() as f64;
        assert!(max / min.max(1.0) > 3.0, "expected wide latency spread");
    }

    /// One latency path serves every size: what held with and without the
    /// old precomputed matrix holds at two nodes, at the paper's scale and
    /// past it.
    #[test]
    fn kinglike_properties_hold_at_every_size() {
        let target = SimTime::from_millis(180);
        for n in [2usize, 1024, 4096] {
            let t = KingLikeTopology::generate(n, target, 11);
            let again = KingLikeTopology::generate(n, target, 11);
            let other = KingLikeTopology::generate(n, target, 12);
            let mut differs = false;
            for i in 0..512 {
                let (a, b) = (i * 7 % n, (i * 13 + 1) % n);
                assert_eq!(t.latency(a, a), SimTime::ZERO, "n={n}: self latency");
                assert_eq!(t.latency(a, b), t.latency(b, a), "n={n}: symmetric");
                assert_eq!(t.latency(a, b), again.latency(a, b), "n={n}: deterministic");
                differs |= t.latency(a, b) != other.latency(a, b);
            }
            assert!(differs || n == 2, "n={n}: the seed moves the latencies");
            let avg = t.avg_rtt_sampled(20_000, 7).as_micros() as f64;
            let err = (avg - target.as_micros() as f64).abs() / target.as_micros() as f64;
            assert!(err < 0.05, "n={n}: mean RTT {avg} us too far from {target}");
        }
    }

    #[test]
    fn kinglike_self_latency_zero() {
        let t = KingLikeTopology::generate(10, SimTime::from_millis(180), 9);
        for i in 0..10 {
            assert_eq!(t.latency(i, i), SimTime::ZERO);
        }
    }
}
