//! Shared core of the dynamic sparse-training engines (NDSNN, SET, RigL).
//!
//! All three follow the same skeleton — start from a random sparse topology,
//! periodically drop low-magnitude weights and grow fresh connections — and
//! differ along exactly two axes:
//!
//! | Engine | Sparsity over time            | Growth rule          |
//! |--------|-------------------------------|----------------------|
//! | NDSNN  | increases θᵢ→θ_f (Eq. 4)      | gradient magnitude   |
//! | RigL   | constant                      | gradient magnitude   |
//! | SET    | constant                      | uniform random       |
//!
//! [`DynamicEngine`] implements the skeleton; [`crate::ndsnn`],
//! [`crate::rigl`] and [`crate::set`] provide the three presets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use ndsnn_snn::layers::Layer;

use crate::distribution::{layer_densities, Distribution};
use crate::engine::{collect_layer_shapes, EngineSnapshot, SparseEngine};
use crate::error::{Result, SparseError};
use crate::kernels::{
    density_threshold_from_env, drop_by_magnitude, grow_by_gradient, grow_random,
    install_exec_plans, random_mask,
};
use crate::mask::MaskSet;
use crate::schedule::{DeathSchedule, UpdateSchedule};

/// How new connections are chosen during the grow phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrowthMode {
    /// Highest dense-gradient magnitude at inactive positions (RigL, NDSNN).
    Gradient,
    /// Uniformly at random among inactive positions (SET).
    Random,
}

/// Shape of the per-layer sparsity trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SparsityTrajectory {
    /// Constant sparsity (SET/RigL): drop count equals grow count.
    Constant,
    /// Cubic increase from θᵢ to θ_f (NDSNN, Eq. 4): grow fewer than dropped.
    CubicIncrease,
    /// Linear increase from θᵢ to θ_f — ablation variant.
    LinearIncrease,
}

/// Full configuration of a dynamic sparse-training engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicConfig {
    /// Sparsity at iteration 0 (θᵢ). For constant trajectories this is also
    /// the final sparsity.
    pub initial_sparsity: f64,
    /// Sparsity after the last mask update (θ_f).
    pub final_sparsity: f64,
    /// Trajectory between them.
    pub trajectory: SparsityTrajectory,
    /// Initial death (drop) ratio d₀.
    pub death_initial: f64,
    /// Minimum death ratio d_min (cosine annealing floor, Eq. 5).
    pub death_min: f64,
    /// Mask-update timing.
    pub update: UpdateSchedule,
    /// Growth rule.
    pub growth: GrowthMode,
    /// Layer-wise sparsity distribution.
    pub distribution: Distribution,
    /// RNG seed (mask init and random growth).
    pub seed: u64,
}

impl DynamicConfig {
    fn validate(&self) -> Result<()> {
        for (label, s) in [
            ("initial_sparsity", self.initial_sparsity),
            ("final_sparsity", self.final_sparsity),
        ] {
            if !(0.0..1.0).contains(&s) {
                return Err(SparseError::InvalidConfig(format!(
                    "{label} must be in [0,1), got {s}"
                )));
            }
        }
        if self.initial_sparsity > self.final_sparsity {
            return Err(SparseError::InvalidConfig(format!(
                "initial sparsity {} must not exceed final sparsity {}",
                self.initial_sparsity, self.final_sparsity
            )));
        }
        if matches!(self.trajectory, SparsityTrajectory::Constant)
            && (self.initial_sparsity - self.final_sparsity).abs() > 1e-12
        {
            return Err(SparseError::InvalidConfig(
                "constant trajectory requires initial == final sparsity".into(),
            ));
        }
        DeathSchedule::new(self.death_initial, self.death_min, self.update)?;
        Ok(())
    }
}

/// One layer's bookkeeping.
#[derive(Debug, Clone)]
struct LayerState {
    name: String,
    num_weights: usize,
    /// Per-layer initial sparsity θᵢˡ.
    initial_sparsity: f64,
    /// Per-layer final sparsity θ_fˡ.
    final_sparsity: f64,
}

impl LayerState {
    /// Per-layer target sparsity at normalized progress `p ∈ \[0, 1\]`.
    fn target_sparsity(&self, trajectory: SparsityTrajectory, p: f64) -> f64 {
        match trajectory {
            SparsityTrajectory::Constant => self.final_sparsity,
            SparsityTrajectory::CubicIncrease => {
                self.final_sparsity
                    + (self.initial_sparsity - self.final_sparsity) * (1.0 - p).powi(3)
            }
            SparsityTrajectory::LinearIncrease => {
                self.initial_sparsity + (self.final_sparsity - self.initial_sparsity) * p
            }
        }
    }
}

/// Record of one mask-update round, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateEvent {
    /// Iteration at which the update fired.
    pub step: usize,
    /// Death ratio used.
    pub death_ratio: f64,
    /// Weights dropped across all layers.
    pub dropped: usize,
    /// Weights grown across all layers.
    pub grown: usize,
    /// Overall sparsity after the update.
    pub sparsity: f64,
}

/// The drop-and-grow engine shared by NDSNN/SET/RigL.
pub struct DynamicEngine {
    label: String,
    config: DynamicConfig,
    death: DeathSchedule,
    layers: Vec<LayerState>,
    masks: MaskSet,
    /// Union of every position that was ever active — the "in-time
    /// overparameterization" (ITOP) coverage of Liu et al. (paper ref \[19\]).
    explored: MaskSet,
    rng: StdRng,
    history: Vec<UpdateEvent>,
    initialized: bool,
    /// Weight density below which a layer's products dispatch through the
    /// row-sparse execution engine. Read from `NDSNN_DENSITY_THRESHOLD` at
    /// construction; override with [`DynamicEngine::set_density_threshold`].
    density_threshold: f64,
    /// Nanoseconds spent in mask updates + exec-plan repacks since the last
    /// [`SparseEngine::drain_update_ns`] call. Deliberately *not* part of
    /// [`EngineSnapshot`]: it is a profiling counter, not training state.
    update_ns: u64,
}

impl std::fmt::Debug for DynamicEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicEngine")
            .field("label", &self.label)
            .field("config", &self.config)
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl DynamicEngine {
    /// Creates an engine with an explicit display label.
    pub fn with_label(label: impl Into<String>, config: DynamicConfig) -> Result<Self> {
        config.validate()?;
        let death = DeathSchedule::new(config.death_initial, config.death_min, config.update)?;
        Ok(DynamicEngine {
            label: label.into(),
            config,
            death,
            layers: Vec::new(),
            masks: MaskSet::new(),
            explored: MaskSet::new(),
            rng: StdRng::seed_from_u64(config.seed),
            history: Vec::new(),
            initialized: false,
            density_threshold: density_threshold_from_env(),
            update_ns: 0,
        })
    }

    /// Overrides the density threshold below which masked layers execute
    /// through the row-sparse kernels. Negative forces dense everywhere;
    /// `>= 1.0` forces the sparse path for every masked layer.
    pub fn set_density_threshold(&mut self, threshold: f64) {
        self.density_threshold = threshold;
    }

    /// The current sparse-dispatch density threshold.
    pub fn density_threshold(&self) -> f64 {
        self.density_threshold
    }

    /// The engine configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Mask-update history since `init`.
    pub fn history(&self) -> &[UpdateEvent] {
        &self.history
    }

    /// In-time overparameterization rate: the fraction of all maskable
    /// weight positions that have been active at *some* point during
    /// training. Dynamic sparse training works because this union grows far
    /// beyond the instantaneous density (Liu et al., ICML 2021 — the paper's
    /// reference \[19\]); static sparse training keeps it pinned at the
    /// initial density.
    pub fn exploration_rate(&self) -> f64 {
        let total = self.explored.total_weights();
        if total == 0 {
            0.0
        } else {
            self.explored.total_active() as f64 / total as f64
        }
    }

    /// Rebuilds the per-layer sparsity bookkeeping from the model's shapes.
    /// Deterministic given (model, config), so init and checkpoint resume
    /// share it.
    fn rebuild_layer_states(&mut self, model: &mut dyn Layer) -> Result<()> {
        let shapes = collect_layer_shapes(model);
        let init_densities = layer_densities(
            self.config.distribution,
            &shapes,
            self.config.initial_sparsity,
        )?;
        let final_densities = layer_densities(
            self.config.distribution,
            &shapes,
            self.config.final_sparsity,
        )?;
        self.layers = shapes
            .iter()
            .zip(init_densities.iter().zip(&final_densities))
            .map(|(s, (di, df))| LayerState {
                name: s.name.clone(),
                num_weights: s.num_weights(),
                initial_sparsity: 1.0 - di,
                final_sparsity: 1.0 - df,
            })
            .collect();
        Ok(())
    }

    /// Folds the current masks into the explored-position union.
    fn absorb_exploration(&mut self) {
        for (name, mask) in self.masks.iter() {
            match self.explored.get(name) {
                Some(seen) => {
                    let mut merged = seen.clone();
                    for (m, &cur) in merged.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                        if cur != 0.0 {
                            *m = 1.0;
                        }
                    }
                    self.explored.insert(name.clone(), merged);
                }
                None => self.explored.insert(name.clone(), mask.clone()),
            }
        }
    }

    /// Executes one drop-and-grow round (paper Algorithm 1 steps ❸/❹).
    fn update_masks(&mut self, step: usize, model: &mut dyn Layer) -> Result<()> {
        let p = self.config.update.progress(step);
        let d_t = self.death.at(step);
        let mut dropped_total = 0usize;
        let mut grown_total = 0usize;
        let masks = &mut self.masks;
        let layers = &self.layers;
        let trajectory = self.config.trajectory;
        let growth = self.config.growth;
        let rng = &mut self.rng;
        let mut err: Option<SparseError> = None;
        model.for_each_param(&mut |param| {
            if err.is_some() || !param.is_sparsifiable() {
                return;
            }
            let Some(state) = layers.iter().find(|l| l.name == param.name) else {
                return;
            };
            let Some(mask) = masks.get_mut(&param.name) else {
                err = Some(SparseError::InvalidState(format!(
                    "no mask for {}",
                    param.name
                )));
                return;
            };
            // Eq. 6: live weights before dropping.
            let n_pre = mask.count_nonzero();
            // Eq. 4: this round's per-layer sparsity target.
            let theta_t = state.target_sparsity(trajectory, p);
            let target_active = ((state.num_weights as f64) * (1.0 - theta_t)).round() as usize;
            // Eq. 7: D = d_t · N_pre — but never less than the schedule's
            // decrement, so the target stays reachable even when ΔT is
            // coarse relative to the sparsity ramp (Eq. 9 assumes G ≥ 0).
            let need_drop = n_pre.saturating_sub(target_active);
            let to_drop = ((d_t * n_pre as f64).round() as usize)
                .max(need_drop)
                .min(n_pre);
            let dropped = drop_by_magnitude(&mut param.value, mask, to_drop);
            // Eq. 8: live weights after dropping.
            let n_post = n_pre - dropped;
            // Eq. 9: G = N·(1 − θ_t) − N_post.
            let to_grow = target_active.saturating_sub(n_post);
            let grown = match growth {
                GrowthMode::Gradient => {
                    grow_by_gradient(&param.grad, &mut param.value, mask, to_grow)
                }
                GrowthMode::Random => grow_random(&mut param.value, mask, to_grow, rng),
            };
            dropped_total += dropped;
            grown_total += grown;
        });
        if let Some(e) = err {
            return Err(e);
        }
        self.history.push(UpdateEvent {
            step,
            death_ratio: d_t,
            dropped: dropped_total,
            grown: grown_total,
            sparsity: self.masks.overall_sparsity(),
        });
        Ok(())
    }
}

impl SparseEngine for DynamicEngine {
    fn name(&self) -> &str {
        &self.label
    }

    fn init(&mut self, model: &mut dyn Layer) -> Result<()> {
        self.rebuild_layer_states(model)?;
        let shapes = collect_layer_shapes(model);
        let init_densities = layer_densities(
            self.config.distribution,
            &shapes,
            self.config.initial_sparsity,
        )?;
        self.masks = MaskSet::new();
        for (shape, density) in shapes.iter().zip(&init_densities) {
            self.masks.insert(
                shape.name.clone(),
                random_mask(&shape.dims, *density, &mut self.rng),
            );
        }
        self.masks.apply_to_weights(model);
        install_exec_plans(model, &self.masks, self.density_threshold);
        self.explored = MaskSet::new();
        self.absorb_exploration();
        self.history.clear();
        self.initialized = true;
        Ok(())
    }

    fn before_optim(&mut self, step: usize, model: &mut dyn Layer) -> Result<()> {
        if !self.initialized {
            return Err(SparseError::InvalidState(
                "DynamicEngine::before_optim called before init".into(),
            ));
        }
        if self.config.update.fires_at(step) {
            let t0 = std::time::Instant::now();
            self.update_masks(step, model)?;
            self.absorb_exploration();
            // Masks changed: this is the only point (besides init) where the
            // execution plans go stale, so repack lazily here.
            install_exec_plans(model, &self.masks, self.density_threshold);
            self.update_ns += t0.elapsed().as_nanos() as u64;
        }
        // Only active weights receive updates (Algorithm 1 step ❷).
        self.masks.apply_to_grads(model);
        Ok(())
    }

    fn after_optim(&mut self, _step: usize, model: &mut dyn Layer) -> Result<()> {
        self.masks.apply_to_weights(model);
        Ok(())
    }

    fn sparsity(&self) -> f64 {
        self.masks.overall_sparsity()
    }

    fn mask_set(&self) -> Option<&MaskSet> {
        Some(&self.masks)
    }

    fn history(&self) -> &[UpdateEvent] {
        &self.history
    }

    fn drain_update_ns(&mut self) -> u64 {
        std::mem::take(&mut self.update_ns)
    }

    fn export_snapshot(&self) -> Option<EngineSnapshot> {
        Some(EngineSnapshot {
            masks: self.masks.clone(),
            explored: self.explored.clone(),
            rng_state: self.rng.state(),
            history: self.history.clone(),
        })
    }

    fn restore_snapshot(&mut self, snapshot: EngineSnapshot, model: &mut dyn Layer) -> Result<()> {
        self.rebuild_layer_states(model)?;
        // Every tracked layer must come back with a shape-matching mask;
        // anything else means the checkpoint belongs to a different model.
        for state in &self.layers {
            let mask = snapshot.masks.get(&state.name).ok_or_else(|| {
                SparseError::InvalidState(format!("snapshot has no mask for {}", state.name))
            })?;
            if mask.len() != state.num_weights {
                return Err(SparseError::InvalidState(format!(
                    "snapshot mask for {} has {} entries, layer has {}",
                    state.name,
                    mask.len(),
                    state.num_weights
                )));
            }
        }
        self.masks = snapshot.masks;
        self.explored = snapshot.explored;
        self.rng = StdRng::from_state(snapshot.rng_state);
        self.history = snapshot.history;
        self.masks.apply_to_weights(model);
        install_exec_plans(model, &self.masks, self.density_threshold);
        self.initialized = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsnn_snn::layers::{Linear, Sequential};
    use rand::{rngs::StdRng as TestRng, SeedableRng};

    fn model() -> Sequential {
        let mut rng = TestRng::seed_from_u64(110);
        Sequential::new("m")
            .with(Box::new(
                Linear::new("fc1", 40, 50, false, &mut rng).unwrap(),
            ))
            .with(Box::new(
                Linear::new("fc2", 50, 30, false, &mut rng).unwrap(),
            ))
    }

    fn cfg(trajectory: SparsityTrajectory, growth: GrowthMode) -> DynamicConfig {
        let (init, fin) = match trajectory {
            SparsityTrajectory::Constant => (0.9, 0.9),
            _ => (0.7, 0.95),
        };
        DynamicConfig {
            initial_sparsity: init,
            final_sparsity: fin,
            trajectory,
            death_initial: 0.5,
            death_min: 0.05,
            update: UpdateSchedule::new(0, 10, 101).unwrap(),
            growth,
            distribution: Distribution::Erk,
            seed: 7,
        }
    }

    fn fill_grads(m: &mut Sequential, seed: u64) {
        let mut rng = TestRng::seed_from_u64(seed);
        m.for_each_param(&mut |p| {
            p.grad = ndsnn_tensor::init::uniform(p.value.dims(), -1.0, 1.0, &mut rng);
        });
    }

    #[test]
    fn init_hits_initial_sparsity() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "NDSNN",
            cfg(SparsityTrajectory::CubicIncrease, GrowthMode::Gradient),
        )
        .unwrap();
        e.init(&mut m).unwrap();
        assert!(
            (e.sparsity() - 0.7).abs() < 0.02,
            "sparsity {}",
            e.sparsity()
        );
    }

    #[test]
    fn ndsnn_sparsity_increases_to_final() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "NDSNN",
            cfg(SparsityTrajectory::CubicIncrease, GrowthMode::Gradient),
        )
        .unwrap();
        e.init(&mut m).unwrap();
        let mut prev = e.sparsity();
        for step in 0..=100 {
            fill_grads(&mut m, step as u64);
            e.before_optim(step, &mut m).unwrap();
            e.after_optim(step, &mut m).unwrap();
            let s = e.sparsity();
            assert!(s >= prev - 0.02, "sparsity decreased at step {step}");
            prev = s;
        }
        assert!((prev - 0.95).abs() < 0.02, "final sparsity {prev}");
        // Every update dropped at least as many as it grew.
        for ev in e.history() {
            assert!(
                ev.dropped >= ev.grown,
                "round grew more than it dropped: {ev:?}"
            );
        }
        assert_eq!(e.history().len(), 10);
    }

    #[test]
    fn constant_trajectory_preserves_sparsity() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "RigL",
            cfg(SparsityTrajectory::Constant, GrowthMode::Gradient),
        )
        .unwrap();
        e.init(&mut m).unwrap();
        let s0 = e.sparsity();
        for step in 0..=60 {
            fill_grads(&mut m, 1000 + step as u64);
            e.before_optim(step, &mut m).unwrap();
            e.after_optim(step, &mut m).unwrap();
        }
        assert!((e.sparsity() - s0).abs() < 0.01, "{} vs {s0}", e.sparsity());
        // Drops equal grows at every round (up to rounding).
        for ev in e.history() {
            assert!(
                (ev.dropped as i64 - ev.grown as i64).abs() <= 2,
                "unbalanced round: {ev:?}"
            );
        }
    }

    #[test]
    fn random_growth_changes_topology() {
        let mut m = model();
        let mut e =
            DynamicEngine::with_label("SET", cfg(SparsityTrajectory::Constant, GrowthMode::Random))
                .unwrap();
        e.init(&mut m).unwrap();
        let before: Vec<f32> = e
            .mask_set()
            .unwrap()
            .get("fc1.weight")
            .unwrap()
            .as_slice()
            .to_vec();
        // Give weights nonzero values so drop-by-magnitude is meaningful.
        let mut rng = TestRng::seed_from_u64(9);
        m.for_each_param(&mut |p| {
            p.value = ndsnn_tensor::init::uniform(p.value.dims(), -1.0, 1.0, &mut rng)
        });
        e.mask_set().unwrap().clone().apply_to_weights(&mut m);
        fill_grads(&mut m, 77);
        e.before_optim(10, &mut m).unwrap();
        let after = e.mask_set().unwrap().get("fc1.weight").unwrap();
        let changed = before
            .iter()
            .zip(after.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0, "SET round did not rewire");
    }

    #[test]
    fn grads_masked_before_optimizer() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "NDSNN",
            cfg(SparsityTrajectory::CubicIncrease, GrowthMode::Gradient),
        )
        .unwrap();
        e.init(&mut m).unwrap();
        fill_grads(&mut m, 5);
        e.before_optim(1, &mut m).unwrap(); // non-update step
        let masks = e.mask_set().unwrap();
        let mut violations = 0;
        m.for_each_param(&mut |p| {
            if let Some(mask) = masks.get(&p.name) {
                for (g, &mk) in p.grad.as_slice().iter().zip(mask.as_slice()) {
                    if mk == 0.0 && *g != 0.0 {
                        violations += 1;
                    }
                }
            }
        });
        assert_eq!(violations, 0);
    }

    #[test]
    fn weights_masked_after_optimizer() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "RigL",
            cfg(SparsityTrajectory::Constant, GrowthMode::Gradient),
        )
        .unwrap();
        e.init(&mut m).unwrap();
        // Simulate an optimizer polluting masked weights.
        m.for_each_param(&mut |p| p.value.fill(1.0));
        e.after_optim(3, &mut m).unwrap();
        let masks = e.mask_set().unwrap();
        let mut violations = 0;
        m.for_each_param(&mut |p| {
            if let Some(mask) = masks.get(&p.name) {
                for (w, &mk) in p.value.as_slice().iter().zip(mask.as_slice()) {
                    if mk == 0.0 && *w != 0.0 {
                        violations += 1;
                    }
                }
            }
        });
        assert_eq!(violations, 0);
    }

    #[test]
    fn uninitialized_engine_errors() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "NDSNN",
            cfg(SparsityTrajectory::CubicIncrease, GrowthMode::Gradient),
        )
        .unwrap();
        assert!(e.before_optim(0, &mut m).is_err());
    }

    #[test]
    fn config_validation() {
        let mut c = cfg(SparsityTrajectory::CubicIncrease, GrowthMode::Gradient);
        c.initial_sparsity = 0.99;
        c.final_sparsity = 0.5;
        assert!(DynamicEngine::with_label("x", c).is_err());
        let mut c2 = cfg(SparsityTrajectory::Constant, GrowthMode::Random);
        c2.initial_sparsity = 0.5;
        assert!(DynamicEngine::with_label("x", c2).is_err());
    }

    #[test]
    fn masks_stay_binary_through_updates() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "NDSNN",
            cfg(SparsityTrajectory::CubicIncrease, GrowthMode::Gradient),
        )
        .unwrap();
        e.init(&mut m).unwrap();
        for step in 0..40 {
            fill_grads(&mut m, step as u64 + 500);
            e.before_optim(step, &mut m).unwrap();
            e.after_optim(step, &mut m).unwrap();
        }
        e.mask_set()
            .unwrap()
            .clone()
            .validate_against(&mut m)
            .unwrap();
    }

    #[test]
    fn itop_exploration_grows_beyond_density() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "RigL",
            cfg(SparsityTrajectory::Constant, GrowthMode::Gradient),
        )
        .unwrap();
        e.init(&mut m).unwrap();
        let density = 1.0 - e.sparsity();
        let initial_exploration = e.exploration_rate();
        assert!((initial_exploration - density).abs() < 0.02);
        for step in 0..=100 {
            fill_grads(&mut m, 7000 + step as u64);
            e.before_optim(step, &mut m).unwrap();
            e.after_optim(step, &mut m).unwrap();
        }
        let final_exploration = e.exploration_rate();
        assert!(
            final_exploration > initial_exploration + 0.05,
            "exploration did not grow: {initial_exploration} -> {final_exploration}"
        );
        // Instantaneous density is unchanged (constant trajectory) even
        // though the explored union has grown.
        assert!((1.0 - e.sparsity() - density).abs() < 0.02);
    }

    #[test]
    fn exec_plans_track_mask_updates() {
        let mut m = model();
        let mut e = DynamicEngine::with_label(
            "RigL",
            cfg(SparsityTrajectory::Constant, GrowthMode::Gradient),
        )
        .unwrap();
        e.set_density_threshold(0.25);
        e.init(&mut m).unwrap();
        // 90% sparse → 10% dense → every masked layer gets a plan whose
        // pattern mirrors its mask exactly.
        let masks = e.mask_set().unwrap().clone();
        let mut planned = 0;
        m.for_each_param(&mut |p| {
            if let Some(pat) = p.exec_pattern().unwrap() {
                planned += 1;
                assert_eq!(pat.nnz(), masks.get(&p.name).unwrap().count_nonzero());
            }
        });
        assert_eq!(planned, 2);

        // Drive through an update round; the plans must follow the rewiring.
        fill_grads(&mut m, 321);
        e.before_optim(10, &mut m).unwrap();
        assert_eq!(e.history().len(), 1, "step 10 should rewire");
        let masks = e.mask_set().unwrap().clone();
        m.for_each_param(&mut |p| {
            if let Some(pat) = p.exec_pattern().unwrap() {
                let mask = masks.get(&p.name).unwrap();
                assert_eq!(pat.nnz(), mask.count_nonzero());
                // Spot-check the pattern indexes exactly the active positions.
                let md = mask.as_slice();
                let cols = pat.cols();
                for r in 0..pat.rows() {
                    for &c in pat.row(r) {
                        assert_ne!(md[r * cols + c as usize], 0.0);
                    }
                }
            }
        });

        // A negative threshold clears every plan on the next rewiring.
        e.set_density_threshold(-1.0);
        fill_grads(&mut m, 322);
        e.before_optim(20, &mut m).unwrap();
        m.for_each_param(&mut |p| assert!(p.plan.is_none()));
    }

    #[test]
    fn linear_trajectory_interpolates() {
        let state = LayerState {
            name: "x".into(),
            num_weights: 100,
            initial_sparsity: 0.6,
            final_sparsity: 0.9,
        };
        let s = state.target_sparsity(SparsityTrajectory::LinearIncrease, 0.5);
        assert!((s - 0.75).abs() < 1e-12);
        let c = state.target_sparsity(SparsityTrajectory::CubicIncrease, 0.5);
        // Eq. 4's (1−p)³ front-loads the sparsification, so the cubic
        // trajectory is *ahead* of linear mid-schedule.
        assert!((c - 0.8625).abs() < 1e-12);
        assert!(c > s);
    }
}
