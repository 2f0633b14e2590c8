//! Per-model latency rollups for multi-model serving.
//!
//! The serving fleet reports outcome counters per shard; this module
//! collects the client-side request latencies (per model, mergeable across
//! client threads) and reduces them with one percentile rule. Percentiles are
//! nearest-rank over the recorded samples (no interpolation: a reported
//! p99 is a latency some request actually saw).

use std::collections::BTreeMap;
use std::time::Duration;

/// Nearest-rank percentile over an unsorted slice; `q` in `[0, 1]`.
/// Returns `Duration::ZERO` on an empty slice.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Accumulates latencies for one model.
#[derive(Debug, Clone, Default)]
pub struct ModelRollup {
    samples: Vec<Duration>,
}

impl ModelRollup {
    /// Records a successful request's latency.
    pub fn record(&mut self, latency: Duration) {
        self.samples.push(latency);
    }

    /// The raw recorded latencies, in arrival order.
    pub fn samples(&self) -> &[Duration] {
        &self.samples
    }
}

/// Per-model rollups, keyed by model name.
#[derive(Debug, Clone, Default)]
pub struct FleetRollup {
    models: BTreeMap<String, ModelRollup>,
}

impl FleetRollup {
    /// Empty rollup.
    pub fn new() -> FleetRollup {
        FleetRollup::default()
    }

    /// The (auto-created) rollup for `model`.
    pub fn model(&mut self, model: &str) -> &mut ModelRollup {
        self.models.entry(model.to_string()).or_default()
    }

    /// Folds another rollup's samples into this one (per-worker rollups
    /// merging into a run-wide one).
    pub fn absorb(&mut self, other: &FleetRollup) {
        for (name, m) in &other.models {
            self.model(name).samples.extend_from_slice(&m.samples);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&samples, 0.50), ms(50));
        assert_eq!(percentile(&samples, 0.99), ms(99));
        assert_eq!(percentile(&samples, 0.999), ms(100));
        assert_eq!(percentile(&samples, 0.0), ms(1), "q=0 clamps to rank 1");
        assert_eq!(percentile(&samples, 1.0), ms(100), "q=1 is the maximum");
        // Two samples: the median is the smaller one (rank ceil(0.5·2) = 1).
        assert_eq!(percentile(&[ms(2), ms(1)], 0.5), ms(1));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
    }

    #[test]
    fn absorb_merges_samples_per_model_in_order() {
        let mut a = FleetRollup::new();
        a.model("hot").record(ms(1));
        a.model("cold").record(ms(7));
        let mut b = FleetRollup::new();
        b.model("hot").record(ms(2));

        let mut all = FleetRollup::new();
        all.absorb(&a);
        all.absorb(&b);
        assert_eq!(all.model("hot").samples(), &[ms(1), ms(2)]);
        assert_eq!(all.model("cold").samples(), &[ms(7)]);
    }
}
