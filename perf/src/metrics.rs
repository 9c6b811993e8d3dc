//! The result a run prints. The metric names and units themselves are
//! listed where they are computed (`lib.rs`); `tests/contract.rs` holds
//! them to `BENCHMARK.json`.

/// Spans whose self time the traced run prints as `span.<name>.self_s`,
/// and whether the span recurs in every rep (then the mean per traced rep
/// is printed) or happens once per run.
pub const SPANS: [(&str, bool); 11] = [
    ("workload.gen", false),
    ("core.sim.build", true),
    ("core.sim.subscribe", true),
    ("core.sim.run.install", true),
    ("core.sim.schedule_publish", true),
    ("core.sim.run.warmup", true),
    ("core.sim.run.publish", true),
    ("core.sim.unsubscribe", true),
    ("core.sim.run.churn", true),
    ("core.sim.event_stats", true),
    ("check", true),
];

/// One printed metric: `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// What one run reports: the contract's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In `BENCHMARK.json`'s order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The one-line JSON object the contract prescribes. Values print
    /// with every digit `f64` holds.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
