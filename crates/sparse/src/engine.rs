//! The sparse-training engine interface and shared plumbing.

use ndsnn_snn::layers::Layer;

use crate::distribution::LayerShape;
use crate::dynamic::UpdateEvent;
use crate::error::{Result, SparseError};
use crate::mask::MaskSet;

/// A full snapshot of an engine's mutable internals, sufficient to resume a
/// run bit-identically after a crash: the current masks, the explored-position
/// union, the engine RNG stream position, and the drop-and-grow history.
///
/// Engines without internal state (dense) export an empty snapshot; engines
/// whose state cannot yet be captured (LTH, ADMM) return `None`
/// from [`SparseEngine::export_snapshot`] so callers can refuse to write
/// checkpoints that would silently resume wrong.
#[derive(Debug, Clone, Default)]
pub struct EngineSnapshot {
    /// Current binary masks, keyed by parameter name.
    pub masks: MaskSet,
    /// Union of every position ever active (ITOP coverage).
    pub explored: MaskSet,
    /// The engine RNG state (`rand::rngs::StdRng` words).
    pub rng_state: [u64; 4],
    /// Mask-update history since init.
    pub history: Vec<UpdateEvent>,
}

/// A sparse-training strategy plugged into the training loop.
///
/// The trainer drives every engine with the same protocol per iteration `t`:
///
/// 1. compute gradients (BPTT) — gradients are *dense* at this point,
/// 2. [`SparseEngine::before_optim`]`(t)` — the engine may update masks using
///    weights + dense gradients (drop-and-grow), add regularization gradients
///    (ADMM), and must mask gradients so only active weights are updated,
/// 3. optimizer step,
/// 4. [`SparseEngine::after_optim`]`(t)` — the engine re-applies masks so
///    momentum cannot leak value into dropped weights.
pub trait SparseEngine: Send {
    /// Short method name (matches the paper's table rows, e.g. `"NDSNN"`).
    fn name(&self) -> &str;

    /// Builds initial masks from the model and sparsifies the weights.
    fn init(&mut self, model: &mut dyn Layer) -> Result<()>;

    /// Hook between gradient computation and the optimizer step.
    fn before_optim(&mut self, step: usize, model: &mut dyn Layer) -> Result<()>;

    /// Hook after the optimizer step.
    fn after_optim(&mut self, step: usize, model: &mut dyn Layer) -> Result<()>;

    /// Current overall sparsity of the sparsifiable weights (0 for dense
    /// training phases).
    fn sparsity(&self) -> f64;

    /// The engine's masks, when it maintains them.
    fn mask_set(&self) -> Option<&MaskSet> {
        None
    }

    /// Drop-and-grow history, when the engine records one.
    fn history(&self) -> &[UpdateEvent] {
        &[]
    }

    /// Drains the nanoseconds spent updating masks and rebuilding execution
    /// plans since the last call (0 for engines without mask maintenance).
    /// The trainer folds this into its `mask_update_ns` phase counter.
    fn drain_update_ns(&mut self) -> u64 {
        0
    }

    /// Exports the engine's mutable internals for crash-safe checkpointing,
    /// or `None` when the engine does not support exact resume yet.
    fn export_snapshot(&self) -> Option<EngineSnapshot> {
        None
    }

    /// Restores internals exported by [`SparseEngine::export_snapshot`],
    /// leaving the engine exactly as it was at export time (including any
    /// derived execution plans installed into `model`).
    fn restore_snapshot(
        &mut self,
        _snapshot: EngineSnapshot,
        _model: &mut dyn Layer,
    ) -> Result<()> {
        Err(SparseError::InvalidState(format!(
            "engine {} does not support checkpoint resume",
            self.name()
        )))
    }
}

/// Baseline engine: fully dense training (the paper's "Dense" rows).
#[derive(Debug, Default)]
pub struct DenseEngine;

impl DenseEngine {
    /// Creates the dense no-op engine.
    pub fn new() -> Self {
        DenseEngine
    }
}

impl SparseEngine for DenseEngine {
    fn name(&self) -> &str {
        "Dense"
    }

    fn init(&mut self, _model: &mut dyn Layer) -> Result<()> {
        Ok(())
    }

    fn before_optim(&mut self, _step: usize, _model: &mut dyn Layer) -> Result<()> {
        Ok(())
    }

    fn after_optim(&mut self, _step: usize, _model: &mut dyn Layer) -> Result<()> {
        Ok(())
    }

    fn sparsity(&self) -> f64 {
        0.0
    }

    fn export_snapshot(&self) -> Option<EngineSnapshot> {
        Some(EngineSnapshot::default())
    }

    fn restore_snapshot(
        &mut self,
        _snapshot: EngineSnapshot,
        _model: &mut dyn Layer,
    ) -> Result<()> {
        Ok(())
    }
}

/// Collects the shapes of all sparsifiable parameters in visit order.
pub fn collect_layer_shapes(model: &mut dyn Layer) -> Vec<LayerShape> {
    let mut shapes = Vec::new();
    model.for_each_param(&mut |p| {
        if p.is_sparsifiable() {
            shapes.push(LayerShape {
                name: p.name.clone(),
                dims: p.value.dims().to_vec(),
            });
        }
    });
    shapes
}

/// Configures the model's spike-sparsity-aware execution: every consumer
/// layer dispatches its forward/weight-gradient matmuls through the
/// multiply-free gather kernels whenever a timestep's realized spike density
/// falls below `threshold` (negative forces dense, `>= 1.0` forces gather).
/// Complements the weight-side [`crate::kernels::install_exec_plans`]: weight
/// plans gate on *parameter* sparsity once per update round, this gates on
/// *activation* sparsity per timestep. Both dispatches are bit-identical to
/// dense, so the setting never changes training results.
pub fn configure_spike_execution(model: &mut dyn Layer, threshold: f64) {
    model.set_spike_density_threshold(threshold);
}

/// Configures the model's active-set sparse-gradient backward: spiking
/// layers emit per-timestep surrogate-active index lists, and every consumer
/// layer restricts its `dX` to them whenever a timestep's realized backward
/// density falls below `threshold` (negative disables emission and forces
/// the dense backward, `>= 1.0` forces the gather whenever a set arrives).
/// `tau` is the active-window membership threshold on `|φ'(v − ϑ)|`: at the
/// default `0.0` the restricted backward is bit-identical to dense (only
/// exact-zero surrogate factors are skipped); positive values additionally
/// drop the surrogate's small tails in exchange for a bounded gradient
/// error. The backward twin of [`configure_spike_execution`].
pub fn configure_grad_execution(model: &mut dyn Layer, threshold: f64, tau: f32) {
    model.set_grad_execution(threshold, tau);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsnn_snn::layers::{Linear, Sequential};
    use rand::{rngs::StdRng, SeedableRng};

    fn model() -> Sequential {
        let mut rng = StdRng::seed_from_u64(100);
        Sequential::new("m")
            .with(Box::new(
                Linear::new("fc1", 32, 64, true, &mut rng).unwrap(),
            ))
            .with(Box::new(
                Linear::new("fc2", 64, 10, true, &mut rng).unwrap(),
            ))
    }

    #[test]
    fn dense_engine_is_noop() {
        let mut m = model();
        let mut e = DenseEngine::new();
        e.init(&mut m).unwrap();
        e.before_optim(0, &mut m).unwrap();
        e.after_optim(0, &mut m).unwrap();
        assert_eq!(e.sparsity(), 0.0);
        assert!(e.mask_set().is_none());
        let mut nz = 0;
        m.for_each_param(&mut |p| nz += p.value.count_nonzero());
        assert!(nz > 2000, "dense engine must not sparsify");
    }

    #[test]
    fn collect_shapes_only_weights() {
        let mut m = model();
        let shapes = collect_layer_shapes(&mut m);
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].name, "fc1.weight");
        assert_eq!(shapes[0].dims, vec![64, 32]);
    }
}
