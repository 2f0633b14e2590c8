//! Optimizers and learning-rate schedules.

use ndsnn_tensor::parallel::{parallel_for_chunks, worker_threads};
use ndsnn_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::error::{Result, SnnError};
use crate::layers::Layer;

/// Minimum parameter-tensor elements before the SGD update loop splits
/// across the worker pool.
const PAR_MIN_PARAMS: usize = 1 << 14;

/// One chunk of the parallel SGD update: `(chunk_index, (velocity slice,
/// weight slice))`.
type SgdChunk<'a> = (usize, (&'a mut [f32], &'a mut [f32]));

/// SGD hyper-parameters. Paper §IV.A: momentum 0.9, weight decay 5e-4,
/// initial learning rate 0.3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Base learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay (applied to the gradient, PyTorch-style).
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.3,
            momentum: 0.9,
            weight_decay: 5e-4,
        }
    }
}

/// SGD with momentum and weight decay.
///
/// Velocity buffers are keyed by parameter visit order, which the [`Layer`]
/// contract guarantees is deterministic.
#[derive(Debug)]
pub struct Sgd {
    config: SgdConfig,
    lr: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            lr: config.lr,
            velocity: Vec::new(),
        }
    }

    /// Current (possibly scheduled) learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (used by schedulers).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// The momentum (velocity) buffers in parameter visit order. Empty
    /// until the first [`Sgd::step`]. Exposed for full-run-state
    /// checkpointing: resuming without velocity silently changes the
    /// trajectory of every subsequent update.
    pub fn velocity(&self) -> &[Tensor] {
        &self.velocity
    }

    /// Replaces the velocity buffers (crash-safe resume). The buffers must
    /// be in the same parameter visit order they were exported in; shape
    /// checks happen lazily on the next [`Sgd::step`].
    pub fn set_velocity(&mut self, velocity: Vec<Tensor>) {
        self.velocity = velocity;
    }

    /// Applies one update step to every parameter of `model`.
    ///
    /// `v ← μ·v + (g + λ·w)`, `w ← w − η·v`.
    pub fn step(&mut self, model: &mut dyn Layer) -> Result<()> {
        let cfg = self.config;
        let lr = self.lr;
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        let mut failure: Option<SnnError> = None;
        model.for_each_param(&mut |p| {
            if failure.is_some() {
                return;
            }
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(p.value.shape().clone()));
            }
            let v = &mut velocity[idx];
            if v.dims() != p.value.dims() {
                failure = Some(SnnError::InvalidState(format!(
                    "optimizer state shape changed for {}",
                    p.name
                )));
                return;
            }
            let vd = v.as_mut_slice();
            let wd = p.value.as_mut_slice();
            let gd = p.grad.as_slice();
            // Elementwise over independent coordinates, so any chunking is
            // bit-identical to the serial update.
            let n = wd.len();
            let workers = worker_threads(n / PAR_MIN_PARAMS).max(1);
            let per = n.div_ceil(workers).max(1);
            let chunks: Vec<SgdChunk> = vd
                .chunks_mut(per)
                .zip(wd.chunks_mut(per))
                .enumerate()
                .collect();
            parallel_for_chunks(chunks, |ci, (vc, wc)| {
                let start = ci * per;
                for j in 0..vc.len() {
                    let g = gd[start + j] + cfg.weight_decay * wc[j];
                    vc[j] = cfg.momentum * vc[j] + g;
                    wc[j] -= lr * vc[j];
                }
            });
            idx += 1;
        });
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Cosine-annealing learning-rate schedule (Loshchilov & Hutter, SGDR —
/// paper reference \[24\]; also reused for the death-rate schedule, Eq. 5).
///
/// `lr(t) = lr_min + ½·(lr_max − lr_min)·(1 + cos(π·t/T))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CosineSchedule {
    /// Value at `t = 0`.
    pub max: f32,
    /// Value at `t = total`.
    pub min: f32,
    /// Horizon `T` (steps or epochs, caller's choice).
    pub total: usize,
}

impl CosineSchedule {
    /// Creates a schedule from `max` down to `min` over `total` steps.
    pub fn new(max: f32, min: f32, total: usize) -> Self {
        CosineSchedule { max, min, total }
    }

    /// The scheduled value at step `t` (clamped at the horizon).
    pub fn at(&self, t: usize) -> f32 {
        if self.total == 0 {
            return self.min;
        }
        let t = t.min(self.total) as f32 / self.total as f32;
        self.min + 0.5 * (self.max - self.min) * (1.0 + (std::f32::consts::PI * t).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Sequential};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sgd_moves_against_gradient() {
        let mut rng = StdRng::seed_from_u64(50);
        let mut net =
            Sequential::new("n").with(Box::new(Linear::new("fc", 2, 1, false, &mut rng).unwrap()));
        let mut before = Tensor::zeros([1]);
        net.for_each_param(&mut |p| {
            before = p.value.clone();
            p.grad.fill(1.0);
        });
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        });
        opt.step(&mut net).unwrap();
        net.for_each_param(&mut |p| {
            for (b, a) in before.as_slice().iter().zip(p.value.as_slice()) {
                assert!((b - 0.1 - a).abs() < 1e-6);
            }
        });
    }

    #[test]
    fn momentum_accumulates() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut net =
            Sequential::new("n").with(Box::new(Linear::new("fc", 1, 1, false, &mut rng).unwrap()));
        net.for_each_param(&mut |p| {
            p.value.fill(0.0);
            p.grad.fill(1.0);
        });
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
        });
        opt.step(&mut net).unwrap();
        net.for_each_param(&mut |p| p.grad.fill(1.0));
        opt.step(&mut net).unwrap();
        // v1 = 1, w = -1; v2 = 0.5 + 1 = 1.5, w = -2.5.
        net.for_each_param(&mut |p| assert!((p.value.as_slice()[0] + 2.5).abs() < 1e-6));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut rng = StdRng::seed_from_u64(52);
        let mut net =
            Sequential::new("n").with(Box::new(Linear::new("fc", 1, 1, false, &mut rng).unwrap()));
        net.for_each_param(&mut |p| {
            p.value.fill(2.0);
            p.grad.fill(0.0);
        });
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        });
        opt.step(&mut net).unwrap();
        // g = 0 + 0.5*2 = 1; w = 2 - 0.1 = 1.9.
        net.for_each_param(&mut |p| assert!((p.value.as_slice()[0] - 1.9).abs() < 1e-6));
    }

    #[test]
    fn cosine_schedule_endpoints_and_midpoint() {
        let s = CosineSchedule::new(1.0, 0.0, 100);
        assert!((s.at(0) - 1.0).abs() < 1e-6);
        assert!((s.at(100) - 0.0).abs() < 1e-6);
        assert!((s.at(50) - 0.5).abs() < 1e-6);
        assert!((s.at(200) - 0.0).abs() < 1e-6); // clamped past horizon
                                                 // Monotone decreasing.
        let mut prev = f32::INFINITY;
        for t in 0..=100 {
            let v = s.at(t);
            assert!(v <= prev + 1e-6);
            prev = v;
        }
    }

    #[test]
    fn zero_total_schedule() {
        let s = CosineSchedule::new(1.0, 0.25, 0);
        assert_eq!(s.at(0), 0.25);
    }
}
