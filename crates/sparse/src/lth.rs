//! Lottery Ticket Hypothesis baseline — iterative magnitude pruning (IMP)
//! with weight rewinding (paper references \[6, 10\]).
//!
//! LTH trains in *rounds*: train to (partial) convergence, prune the
//! lowest-magnitude fraction of surviving weights, rewind the survivors to
//! their initial values, and retrain. Sparsity therefore ramps up over rounds
//! while early rounds are nearly dense — the training-cost weakness the
//! paper's Fig. 1/Fig. 5 highlight.

use std::collections::BTreeMap;

use ndsnn_snn::layers::Layer;
use ndsnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::engine::{collect_layer_shapes, SparseEngine};
use crate::error::{Result, SparseError};
use crate::kernels::top_magnitude_mask;
use crate::mask::MaskSet;

/// LTH / IMP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LthConfig {
    /// Final sparsity after the last round.
    pub final_sparsity: f64,
    /// Number of prune-rewind rounds. With geometric scheduling each round
    /// multiplies the density by `(1 − θ_f)^(1/rounds)` (≈ the classic
    /// "prune 20% per round" for typical settings).
    pub rounds: usize,
    /// Whether to rewind surviving weights to their initial values after
    /// pruning (true = the original LTH recipe).
    pub rewind: bool,
}

impl LthConfig {
    /// Validates and constructs.
    pub fn new(final_sparsity: f64, rounds: usize) -> Result<Self> {
        if !(0.0..1.0).contains(&final_sparsity) {
            return Err(SparseError::InvalidConfig(format!(
                "final_sparsity must be in [0,1), got {final_sparsity}"
            )));
        }
        if rounds == 0 {
            return Err(SparseError::InvalidConfig("rounds must be >= 1".into()));
        }
        Ok(LthConfig {
            final_sparsity,
            rounds,
            rewind: true,
        })
    }

    /// Sparsity after round `r` (geometric density decay):
    /// `θ_r = 1 − (1 − θ_f)^(r / rounds)`.
    pub fn sparsity_after_round(&self, r: usize) -> f64 {
        let r = r.min(self.rounds);
        1.0 - (1.0 - self.final_sparsity).powf(r as f64 / self.rounds as f64)
    }
}

/// Drives iterative magnitude pruning across training rounds.
///
/// As a [`SparseEngine`] it freezes the current round's mask (masking
/// gradients and weights each step). The trainer calls
/// [`LthController::advance_round`] between rounds to prune + rewind.
pub struct LthController {
    config: LthConfig,
    masks: MaskSet,
    initial_weights: BTreeMap<String, Tensor>,
    round: usize,
    initialized: bool,
}

impl std::fmt::Debug for LthController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LthController")
            .field("config", &self.config)
            .field("round", &self.round)
            .finish()
    }
}

impl LthController {
    /// Creates a controller.
    pub fn new(config: LthConfig) -> Self {
        LthController {
            config,
            masks: MaskSet::new(),
            initial_weights: BTreeMap::new(),
            round: 0,
            initialized: false,
        }
    }

    /// The controller configuration.
    pub fn config(&self) -> &LthConfig {
        &self.config
    }

    /// Completed pruning rounds.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Prunes to the next round's sparsity and (optionally) rewinds surviving
    /// weights to their initial values. Call after each training round.
    pub fn advance_round(&mut self, model: &mut dyn Layer) -> Result<()> {
        if !self.initialized {
            return Err(SparseError::InvalidState(
                "LthController::advance_round before init".into(),
            ));
        }
        if self.round >= self.config.rounds {
            return Err(SparseError::InvalidState(format!(
                "all {} LTH rounds already completed",
                self.config.rounds
            )));
        }
        self.round += 1;
        let theta = self.config.sparsity_after_round(self.round);
        let masks = &mut self.masks;
        let initial = &self.initial_weights;
        let rewind = self.config.rewind;
        model.for_each_param(&mut |p| {
            if !p.is_sparsifiable() {
                return;
            }
            // Magnitude pruning among survivors: masked-out weights are zero,
            // so they can only be re-selected if the keep budget exceeds the
            // active count (which never happens on a decreasing-density
            // schedule).
            let keep = ((p.len() as f64) * (1.0 - theta)).round() as usize;
            let mask = top_magnitude_mask(&p.value, keep);
            if rewind {
                if let Some(w0) = initial.get(&p.name) {
                    p.value = w0.clone();
                }
            }
            for (w, &m) in p.value.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                if m == 0.0 {
                    *w = 0.0;
                }
            }
            masks.insert(p.name.clone(), mask);
        });
        Ok(())
    }
}

impl SparseEngine for LthController {
    fn name(&self) -> &str {
        "LTH"
    }

    fn init(&mut self, model: &mut dyn Layer) -> Result<()> {
        self.initial_weights.clear();
        self.masks = MaskSet::new();
        let shapes = collect_layer_shapes(model);
        let initial = &mut self.initial_weights;
        let masks = &mut self.masks;
        model.for_each_param(&mut |p| {
            if p.is_sparsifiable() {
                initial.insert(p.name.clone(), p.value.clone());
                masks.insert(p.name.clone(), Tensor::ones(p.value.dims()));
            }
        });
        debug_assert_eq!(shapes.len(), self.masks.len());
        self.round = 0;
        self.initialized = true;
        Ok(())
    }

    fn before_optim(&mut self, _step: usize, model: &mut dyn Layer) -> Result<()> {
        if !self.initialized {
            return Err(SparseError::InvalidState(
                "LthController::before_optim before init".into(),
            ));
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsnn_snn::layers::{Linear, Sequential};
    use rand::{rngs::StdRng, SeedableRng};

    fn model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(150);
        Sequential::new("m")
            .with(Box::new(
                Linear::new("fc1", 20, 30, false, &mut rng).unwrap(),
            ))
            .with(Box::new(
                Linear::new("fc2", 30, 10, false, &mut rng).unwrap(),
            ))
    }

    #[test]
    fn geometric_round_schedule() {
        let cfg = LthConfig::new(0.99, 4).unwrap();
        assert_eq!(cfg.sparsity_after_round(0), 0.0);
        let s4 = cfg.sparsity_after_round(4);
        assert!((s4 - 0.99).abs() < 1e-12);
        // Strictly increasing.
        let mut prev = -1.0;
        for r in 0..=4 {
            let s = cfg.sparsity_after_round(r);
            assert!(s > prev);
            prev = s;
        }
        // Clamped beyond the last round.
        assert_eq!(cfg.sparsity_after_round(9), s4);
    }

    #[test]
    fn starts_dense() {
        let mut m = model();
        let mut c = LthController::new(LthConfig::new(0.9, 3).unwrap());
        c.init(&mut m).unwrap();
        assert_eq!(c.sparsity(), 0.0);
        assert_eq!(c.round(), 0);
    }

    #[test]
    fn rounds_prune_and_rewind() {
        let mut m = model();
        let mut c = LthController::new(LthConfig::new(0.9, 2).unwrap());
        c.init(&mut m).unwrap();
        let w0: Tensor = {
            let mut t = None;
            m.for_each_param(&mut |p| {
                if p.name == "fc1.weight" && t.is_none() {
                    t = Some(p.value.clone());
                }
            });
            t.unwrap()
        };
        // Simulate training drift.
        m.for_each_param(&mut |p| p.value.map_in_place(|w| w * 1.5 + 0.01));
        c.advance_round(&mut m).unwrap();
        let expect1 = c.config().sparsity_after_round(1);
        assert!((c.sparsity() - expect1).abs() < 0.01);
        // Surviving weights were rewound to initial values.
        let mut ok = true;
        m.for_each_param(&mut |p| {
            if p.name == "fc1.weight" {
                let mask = c.mask_set().unwrap().get("fc1.weight").unwrap();
                for i in 0..p.len() {
                    if mask.as_slice()[i] == 1.0 {
                        ok &= (p.value.as_slice()[i] - w0.as_slice()[i]).abs() < 1e-6;
                    } else {
                        ok &= p.value.as_slice()[i] == 0.0;
                    }
                }
            }
        });
        assert!(ok, "rewind failed");
        c.advance_round(&mut m).unwrap();
        assert!((c.sparsity() - 0.9).abs() < 0.01);
        // No more rounds allowed.
        assert!(c.advance_round(&mut m).is_err());
    }

    #[test]
    fn masks_are_nested_across_rounds() {
        let mut m = model();
        let mut c = LthController::new(LthConfig::new(0.95, 3).unwrap());
        c.init(&mut m).unwrap();
        c.advance_round(&mut m).unwrap();
        let m1 = c.mask_set().unwrap().get("fc1.weight").unwrap().clone();
        c.advance_round(&mut m).unwrap();
        let m2 = c.mask_set().unwrap().get("fc1.weight").unwrap().clone();
        // Every weight active in round 2 was active in round 1.
        for (a, b) in m1.as_slice().iter().zip(m2.as_slice()) {
            assert!(!(*b == 1.0 && *a == 0.0), "mask not nested");
        }
    }

    #[test]
    fn no_rewind_variant_keeps_trained_weights() {
        let mut m = model();
        let mut cfg = LthConfig::new(0.5, 1).unwrap();
        cfg.rewind = false;
        let mut c = LthController::new(cfg);
        c.init(&mut m).unwrap();
        m.for_each_param(&mut |p| p.value.fill(2.0));
        c.advance_round(&mut m).unwrap();
        let mut survivors_are_2 = true;
        m.for_each_param(&mut |p| {
            if p.is_sparsifiable() {
                for &w in p.value.as_slice() {
                    if w != 0.0 {
                        survivors_are_2 &= w == 2.0;
                    }
                }
            }
        });
        assert!(survivors_are_2);
    }

    #[test]
    fn validation() {
        assert!(LthConfig::new(1.0, 3).is_err());
        assert!(LthConfig::new(0.9, 0).is_err());
        let mut c = LthController::new(LthConfig::new(0.9, 1).unwrap());
        let mut m = model();
        assert!(c.advance_round(&mut m).is_err()); // before init
    }
}
