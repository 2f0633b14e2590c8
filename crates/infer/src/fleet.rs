//! Sharded serving fleet: one supervised [`Server`] shard per model.
//!
//! The fleet carves a fixed worker budget into per-model shards by
//! popularity weight ([`assign_workers`]: largest-remainder, every shard
//! keeps at least one worker) and starts one independent serving control
//! plane per model. Each shard owns its own bounded admission queue, shed
//! policy, deadlines, and `catch_unwind` supervision, so *failure domains
//! coincide with models*: a panic storm or queue overflow in one shard
//! cannot consume another shard's queue slots, executor time, or worker
//! threads. The fleet-level isolation chaos test pins this down to the
//! bit: a sibling shard's logits stay identical to its unfaulted
//! single-model reference while its neighbor is panicking and overloaded.
//!
//! Knob: `NDSNN_FLEET_SHARD_THREADS` (0 = one worker per model) via
//! [`FleetOptions::from_env`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crate::artifact::Artifact;
use crate::error::{InferError, Result};
use crate::registry::ModelRegistry;
use crate::serve::{HealthState, InferReply, ServeFaultPlan, ServeOptions, ServeStats, Server};

/// One model the fleet should serve.
#[derive(Debug, Clone)]
pub struct FleetModel {
    /// Routing name (unique within the fleet).
    pub name: String,
    /// The frozen model, shared with the registry and every rebuild.
    pub artifact: Arc<Artifact>,
    /// Relative popularity weight (> 0, finite). Drives worker assignment;
    /// only ratios matter.
    pub weight: f64,
}

/// Fleet-wide policy: a serve-options template plus the worker budget.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Total dispatcher workers split across shards; `0` = one per model.
    pub total_workers: usize,
    /// Template applied to every shard. Its `workers` and `fault_plan`
    /// fields are ignored — workers come from the weighted assignment,
    /// fault plans from `fault_plans`.
    pub serve: ServeOptions,
    /// Per-model fault injection (chaos tests only; empty in production).
    pub fault_plans: BTreeMap<String, ServeFaultPlan>,
}

impl FleetOptions {
    /// Environment-derived policy: `NDSNN_FLEET_SHARD_THREADS` plus every
    /// `NDSNN_INFER_*` knob through [`ServeOptions::from_env`].
    pub fn from_env() -> FleetOptions {
        FleetOptions {
            total_workers: ndsnn::config::env::fleet_shard_threads(),
            serve: ServeOptions::from_env(),
            fault_plans: BTreeMap::new(),
        }
    }
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            total_workers: ndsnn::config::env::DEFAULT_FLEET_SHARD_THREADS,
            serve: ServeOptions::default(),
            fault_plans: BTreeMap::new(),
        }
    }
}

/// Splits `total` workers across shards proportionally to `weights`,
/// guaranteeing every shard at least one worker. Largest-remainder on the
/// surplus (total − n) with ties broken by lower index; deterministic.
/// `total < weights.len()` is treated as `weights.len()` (the minimum
/// feasible fleet).
pub fn assign_workers(weights: &[f64], total: usize) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let total = total.max(n);
    let surplus = (total - n) as f64;
    let sum: f64 = weights.iter().sum();
    let mut counts = vec![1usize; n];
    if surplus == 0.0 || sum <= 0.0 {
        return counts;
    }
    let mut assigned = 0usize;
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(n);
    for (i, &w) in weights.iter().enumerate() {
        let quota = surplus * w / sum;
        let floor = quota.floor() as usize;
        counts[i] += floor;
        assigned += floor;
        remainders.push((i, quota - floor as f64));
    }
    // Hand the leftover slots to the largest fractional remainders.
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    for &(i, _) in remainders.iter().take(total - n - assigned) {
        counts[i] += 1;
    }
    counts
}

struct Shard {
    server: Server,
    weight: f64,
}

/// A running fleet of per-model serving shards. Routing lives in
/// [`crate::router::Router`]; the fleet owns lifecycle and stats.
pub struct Fleet {
    shards: BTreeMap<String, Shard>,
}

impl Fleet {
    /// Starts one shard per model with weighted worker assignment. Errors
    /// (duplicate name, empty model list, bad weight) leave nothing
    /// running.
    pub fn start(models: Vec<FleetModel>, opts: FleetOptions) -> Result<Fleet> {
        if models.is_empty() {
            return Err(InferError::Registry(
                "a fleet needs at least one model".into(),
            ));
        }
        let mut seen = BTreeMap::new();
        for m in &models {
            if !m.weight.is_finite() || m.weight <= 0.0 {
                return Err(InferError::Registry(format!(
                    "model {:?} has non-positive weight {}",
                    m.name, m.weight
                )));
            }
            if seen.insert(m.name.clone(), ()).is_some() {
                return Err(InferError::Registry(format!(
                    "duplicate model name {:?} in fleet",
                    m.name
                )));
            }
        }
        let weights: Vec<f64> = models.iter().map(|m| m.weight).collect();
        let workers = assign_workers(&weights, opts.total_workers);
        let mut shards = BTreeMap::new();
        for (m, w) in models.into_iter().zip(workers) {
            let shard_opts = ServeOptions {
                workers: w,
                fault_plan: opts.fault_plans.get(&m.name).cloned().unwrap_or_default(),
                ..opts.serve.clone()
            };
            let server = Server::start_with(Arc::clone(&m.artifact), shard_opts);
            shards.insert(
                m.name,
                Shard {
                    server,
                    weight: m.weight,
                },
            );
        }
        Ok(Fleet { shards })
    }

    /// Starts a fleet over `(name, weight)` pairs resolved through a
    /// [`ModelRegistry`], pinning each name so budget-driven LRU eviction
    /// can never pull an artifact out from under a running shard.
    pub fn from_registry(
        registry: &ModelRegistry,
        models: &[(&str, f64)],
        opts: FleetOptions,
    ) -> Result<Fleet> {
        let mut fleet_models = Vec::with_capacity(models.len());
        for &(name, weight) in models {
            let artifact = registry
                .get(name)
                .ok_or_else(|| InferError::UnknownModel(name.to_string()))?;
            registry.pin(name)?;
            fleet_models.push(FleetModel {
                name: name.to_string(),
                artifact,
                weight,
            });
        }
        Fleet::start(fleet_models, opts)
    }

    /// The shard serving `name`, if any.
    pub fn server(&self, name: &str) -> Option<&Server> {
        self.shards.get(name).map(|s| &s.server)
    }

    /// Sorted model names this fleet serves.
    pub fn models(&self) -> Vec<&str> {
        self.shards.keys().map(|s| s.as_str()).collect()
    }

    /// Dispatcher workers assigned to `name`'s shard.
    pub fn shard_workers(&self, name: &str) -> Option<usize> {
        self.shards.get(name).map(|s| s.server.workers())
    }

    /// The popularity weight `name` was started with.
    pub fn shard_weight(&self, name: &str) -> Option<f64> {
        self.shards.get(name).map(|s| s.weight)
    }

    /// Convenience single-shot inference against one shard.
    pub fn infer(&self, model: &str, image: &[f32]) -> Result<InferReply> {
        self.server(model)
            .ok_or_else(|| InferError::UnknownModel(model.to_string()))?
            .infer(image)
    }

    /// Deadline-bearing inference against one shard (deadline measured
    /// from submission, like [`Server::infer_with_deadline`]).
    pub fn infer_with_deadline(
        &self,
        model: &str,
        image: &[f32],
        deadline: Option<Duration>,
    ) -> Result<InferReply> {
        self.server(model)
            .ok_or_else(|| InferError::UnknownModel(model.to_string()))?
            .infer_with_deadline(image, deadline)
    }

    /// Per-model serving counters.
    pub fn stats(&self) -> BTreeMap<String, ServeStats> {
        self.shards
            .iter()
            .map(|(name, s)| (name.clone(), s.server.stats()))
            .collect()
    }

    /// Per-model health, derived from each shard's supervision counters.
    pub fn health(&self) -> BTreeMap<String, HealthState> {
        self.shards
            .iter()
            .map(|(name, s)| (name.clone(), s.server.health()))
            .collect()
    }

    /// Shuts every shard down with its configured drain timeout.
    pub fn shutdown(&self) {
        for shard in self.shards.values() {
            shard.server.shutdown();
        }
    }

    /// Shuts every shard down, giving each at most `timeout` to drain.
    pub fn shutdown_within(&self, timeout: Duration) {
        for shard in self.shards.values() {
            shard.server.shutdown_within(timeout);
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("models", &self.models())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::assign_workers;

    #[test]
    fn every_shard_gets_at_least_one_worker() {
        // Total below the model count is raised to the minimum feasible.
        assert_eq!(assign_workers(&[100.0, 1.0, 1.0], 0), vec![1, 1, 1]);
        assert_eq!(assign_workers(&[100.0, 1.0, 1.0], 2), vec![1, 1, 1]);
    }

    #[test]
    fn surplus_follows_weights() {
        // 8 workers, weights 4:2:1:1 → surplus 4 splits 2:1:0.5:0.5, and
        // largest-remainder hands the two half-slots to the earliest ties.
        let counts = assign_workers(&[4.0, 2.0, 1.0, 1.0], 8);
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert_eq!(counts, vec![3, 2, 2, 1]);
    }

    #[test]
    fn totals_are_exact_and_deterministic() {
        for total in 1..40 {
            let weights = [5.0, 3.0, 1.0, 0.5, 0.5];
            let counts = assign_workers(&weights, total);
            assert_eq!(counts.len(), weights.len());
            assert!(counts.iter().all(|&c| c >= 1));
            assert_eq!(counts.iter().sum::<usize>(), total.max(weights.len()));
            assert_eq!(counts, assign_workers(&weights, total));
        }
    }

    #[test]
    fn empty_fleet_assigns_nothing() {
        assert!(assign_workers(&[], 8).is_empty());
    }
}
