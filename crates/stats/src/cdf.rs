//! Empirical cumulative distribution functions.
//!
//! Figures 2 and 3 of the paper plot CDFs of per-event metrics (fraction of
//! matched subscriptions, max hops, max latency, bandwidth cost) and
//! per-node metrics (in/out bandwidth). [`Cdf`] collects raw samples and can
//! be queried for `F(x)`, quantiles, and evenly spaced plot points.

/// An empirical CDF over `f64` samples.
///
/// Samples are accumulated with [`Cdf::push`]; queries sort lazily (the sort
/// is cached and invalidated on insert).
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a CDF from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = Self::new();
        for s in iter {
            c.push(s);
        }
        c
    }

    /// Adds one sample. Non-finite samples are rejected with a panic, since
    /// they would poison every quantile query downstream.
    pub fn push(&mut self, sample: f64) {
        assert!(
            sample.is_finite(),
            "CDF sample must be finite, got {sample}"
        );
        self.samples.push(sample);
        self.sorted = false;
    }

    /// Number of samples collected.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// `F(x)`: the fraction of samples `<= x`. Empty CDFs return 0.
    pub fn fraction_le(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (`0.0 <= q <= 1.0`), by the nearest-rank method.
    ///
    /// # Panics
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        assert!(!self.samples.is_empty(), "quantile of empty CDF");
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    /// Smallest sample. Panics if empty.
    pub fn min(&mut self) -> f64 {
        self.quantile(0.0).min(self.samples[0])
    }

    /// Largest sample. Panics if empty.
    pub fn max(&mut self) -> f64 {
        self.ensure_sorted();
        *self.samples.last().expect("max of empty CDF")
    }

    /// Arithmetic mean. Panics if empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.samples.is_empty(), "mean of empty CDF");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

impl Extend<f64> for Cdf {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for s in iter {
            self.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_le_basic() {
        let mut c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_le(0.5), 0.0);
        assert_eq!(c.fraction_le(1.0), 0.25);
        assert_eq!(c.fraction_le(2.5), 0.5);
        assert_eq!(c.fraction_le(4.0), 1.0);
        assert_eq!(c.fraction_le(100.0), 1.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut c = Cdf::from_samples([10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(c.quantile(0.0), 10.0);
        assert_eq!(c.quantile(0.2), 10.0);
        assert_eq!(c.quantile(0.5), 30.0);
        assert_eq!(c.quantile(1.0), 50.0);
        assert_eq!(c.max(), 50.0);
    }

    #[test]
    fn mean_is_arithmetic() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0]);
        assert!((c.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.fraction_le(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Cdf::new().push(f64::NAN);
    }

    #[test]
    fn unsorted_then_sorted_queries_interleave() {
        let mut c = Cdf::from_samples([3.0, 1.0]);
        assert_eq!(c.quantile(1.0), 3.0);
        c.push(0.5);
        assert_eq!(c.quantile(0.0), 0.5);
        assert_eq!(c.max(), 3.0);
    }
}
