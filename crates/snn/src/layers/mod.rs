//! Spiking network layers and the [`Layer`] trait.
//!
//! Layers process one timestep at a time: the network driver calls
//! [`Layer::forward`] for `t = 0..T` (caching whatever the backward pass
//! needs) and then [`Layer::backward`] for `t = T−1..0`, which implements
//! Backpropagation Through Time (paper Eq. 2). Stateful layers (LIF) carry
//! membrane potential across forward steps and the error signal
//! `ε[t] = ∂L/∂v[t]` across backward steps.

mod batchnorm;
mod container;
mod conv;
mod flatten;
mod lif;
mod linear;
mod plif;
mod pool;
mod residual;

pub use batchnorm::BatchNorm;
pub use container::Sequential;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use lif::{LifConfig, LifLayer, ResetMode};
pub use linear::Linear;
pub use plif::{PlifConfig, PlifLayer};
pub use pool::{AvgPool2d, MaxPool2d};
pub use residual::BasicBlock;

use ndsnn_tensor::{Csr, Tensor};

use crate::error::Result;
use crate::param::Param;

/// Spike activity counters for one layer (or an aggregate over layers).
///
/// `rate()` is the *average spike rate* `R` used by the paper's training-cost
/// metric (§IV.C): spikes emitted divided by neuron-timestep opportunities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpikeStats {
    /// Total spikes emitted.
    pub spikes: u64,
    /// Total neuron × timestep opportunities.
    pub neuron_steps: u64,
}

impl SpikeStats {
    /// Average spike rate in `[0, 1]`; 0 when no activity was recorded.
    pub fn rate(&self) -> f64 {
        if self.neuron_steps == 0 {
            0.0
        } else {
            self.spikes as f64 / self.neuron_steps as f64
        }
    }

    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: SpikeStats) {
        self.spikes += other.spikes;
        self.neuron_steps += other.neuron_steps;
    }
}

/// Spike-execution counters for a consumer layer (or an aggregate): how the
/// spike-sparsity-aware kernels actually dispatched, and what activation
/// density they saw. All fields are totals since the last
/// [`Layer::reset_spike_exec_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpikeExecStats {
    /// Wall-clock nanoseconds spent inside spike-gather kernel dispatches.
    pub kernel_ns: u64,
    /// Timestep dispatches routed through the gather kernels.
    pub gather_steps: u64,
    /// Timestep dispatches that fell back to dense (or weight-sparse)
    /// execution despite a usable spike batch.
    pub dense_steps: u64,
    /// Fired entries across all spike batches this layer received.
    pub nnz: u64,
    /// Total entries (fired + silent) across those batches.
    pub elems: u64,
}

impl SpikeExecStats {
    /// Realized spike density over every batch seen, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.elems == 0 {
            0.0
        } else {
            self.nnz as f64 / self.elems as f64
        }
    }

    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: SpikeExecStats) {
        self.kernel_ns += other.kernel_ns;
        self.gather_steps += other.gather_steps;
        self.dense_steps += other.dense_steps;
        self.nnz += other.nnz;
        self.elems += other.elems;
    }
}

/// Wall-clock phase counters for the layer-internal kernels that are not
/// separately visible to the trainer's coarse forward/backward split: the
/// fused neuron updates (LIF/PLIF membrane + surrogate backward) and the
/// normalization kernels. All values are totals since the last
/// [`Layer::reset_phase_ns`]; containers report the sum over children.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerPhaseNs {
    /// Nanoseconds inside LIF/PLIF membrane-update and surrogate-backward
    /// kernels (forward and backward combined).
    pub neuron_ns: u64,
    /// Nanoseconds inside BatchNorm forward and backward kernels.
    pub norm_ns: u64,
}

impl LayerPhaseNs {
    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: LayerPhaseNs) {
        self.neuron_ns += other.neuron_ns;
        self.norm_ns += other.norm_ns;
    }
}

/// One node of a network's compute walk, emitted by
/// [`Layer::collect_compute`] in forward order. Pairing each [`Consumer`]
/// with the nearest preceding [`Emitter`] reconstructs which measured spike
/// rate scales that layer's MACs — the realized-`R` FLOP accounting of the
/// paper's Eq. 6–7.
///
/// [`Consumer`]: ComputeSite::Consumer
/// [`Emitter`]: ComputeSite::Emitter
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputeSite {
    /// A conv/linear layer: its weight count and output positions per sample
    /// (`H·W` for conv, 1 for linear). Its input rate is the rate of the
    /// nearest preceding emitter, or the analog-input rate if there is none.
    Consumer {
        /// Layer name.
        name: String,
        /// Total weights.
        weights: usize,
        /// Output spatial positions per sample, from the last forward pass
        /// (0 when the layer never ran).
        output_positions: usize,
    },
    /// A spiking layer (LIF/PLIF) whose measured [`SpikeStats`] rate governs
    /// every consumer up to the next emitter.
    Emitter {
        /// Layer name (matches the [`Layer::spike_stats`] per-layer key).
        name: String,
    },
}

/// A differentiable, possibly stateful network layer driven one timestep at a
/// time.
///
/// # Contract
/// - `forward(input, t)` must be called with consecutive `t = 0, 1, …` after
///   a [`Layer::reset_state`].
/// - `backward(grad, t)` must be called with the same `t` values in *reverse*
///   order, after the full forward sweep, and only in training mode.
/// - Parameter gradients accumulate across `backward` calls (Eq. 2c);
///   [`LayerExt::zero_grad`] clears them.
pub trait Layer: Send {
    /// Diagnostic name (used for parameter naming and reports).
    fn name(&self) -> &str;

    /// Computes this layer's output for timestep `step`.
    fn forward(&mut self, input: &Tensor, step: usize) -> Result<Tensor>;

    /// [`Layer::forward`] with sparse metadata threaded between layers — the
    /// one sparse forward entry point. Both kinds of metadata are index-only
    /// [`Csr`] lists over this layer's input viewed as `[batch, features]`:
    ///
    /// - `spikes`, when present, certifies that `input` is binary
    ///   (`0.0`/`1.0`) and carries its fired indices; consumers (`Linear`,
    ///   `Conv2d`) may then dispatch through the multiply-free gather kernels
    ///   — bit-identical to dense, see [`ndsnn_tensor::ops::spike`].
    /// - `active`, when present, lists the per-timestep *gradient-active*
    ///   neurons of the nearest upstream spiking population, mapped into this
    ///   layer's input space. A consumer captures it: during backward, its
    ///   input gradient is consumed upstream only through that population's
    ///   `∂L/∂o · φ'(x)` product, so `dX` rows outside the active set
    ///   multiply into exact zeros and may be skipped (see
    ///   [`ndsnn_tensor::ops::grad`]).
    ///
    /// The returned pair describes this layer's *output*. Spike sources
    /// (LIF/PLIF) emit fresh spikes and a fresh active set for their own
    /// input space; binarity preservers (`Flatten`, `MaxPool2d`) forward
    /// spikes; index-preserving layers (`Flatten`) pass the active set
    /// through and pools remap it through their gradient routing. The
    /// default drops both — the safe fallback that forces dense execution
    /// downstream (correct for layers like BatchNorm whose output is real
    /// valued and whose backward densifies gradients).
    fn forward_active(
        &mut self,
        input: &Tensor,
        spikes: Option<Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<(Tensor, Option<Csr>, Option<Csr>)> {
        let _ = (spikes, active);
        Ok((self.forward(input, step)?, None, None))
    }

    /// Propagates `grad_out` (∂L/∂output at `step`) to ∂L/∂input, adding any
    /// parameter gradients.
    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor>;

    /// Clears temporal state and cached activations (call before each batch).
    fn reset_state(&mut self);

    /// Visits every trainable parameter in a deterministic order.
    fn for_each_param(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Visits every non-trainable state buffer (e.g. batch-norm running
    /// statistics) that checkpoints must persist, in a deterministic order.
    fn for_each_buffer(&mut self, _f: &mut dyn FnMut(&str, &mut Tensor)) {}

    /// Switches between training (cache for backward) and evaluation mode.
    fn set_training(&mut self, _training: bool) {}

    /// Spike counters accumulated since the last
    /// [`Layer::reset_spike_stats`]. Non-spiking layers report zeros.
    fn spike_stats(&self) -> SpikeStats {
        SpikeStats::default()
    }

    /// Resets spike counters.
    fn reset_spike_stats(&mut self) {}

    /// Sets the spike-density threshold for consumer layers: a timestep
    /// whose batch density is strictly below it dispatches through the
    /// gather kernels, at or above it falls back to dense. Negative forces
    /// dense everywhere; `>= 1.0` forces the gather path. Containers
    /// recurse; non-consumers ignore it.
    fn set_spike_density_threshold(&mut self, _threshold: f64) {}

    /// Spike-execution counters accumulated since the last
    /// [`Layer::reset_spike_exec_stats`]. Non-consumer layers report zeros.
    fn spike_exec_stats(&self) -> SpikeExecStats {
        SpikeExecStats::default()
    }

    /// Resets spike-execution counters.
    fn reset_spike_exec_stats(&mut self) {}

    /// Configures the active-set backward: `threshold` is the active-set
    /// density below which consumers dispatch their `dX` through the gather
    /// kernels (negative forces the dense backward and stops emitters from
    /// collecting index lists; `>= 1.0` forces the gather path whenever an
    /// active set exists), `tau` is the surrogate-magnitude tolerance for
    /// membership (`0.0` = exact mode, bit-identical losses). Containers
    /// recurse; layers without a role in the backward ignore it.
    fn set_grad_execution(&mut self, _threshold: f64, _tau: f32) {}

    /// Active-set backward execution counters accumulated since the last
    /// [`Layer::reset_grad_exec_stats`] — same shape as the forward
    /// [`SpikeExecStats`], but counting backward `dX` dispatches and the
    /// realized *gradient* density. Non-consumer layers report zeros.
    fn grad_exec_stats(&self) -> SpikeExecStats {
        SpikeExecStats::default()
    }

    /// Resets active-set backward execution counters.
    fn reset_grad_exec_stats(&mut self) {}

    /// Layer-internal phase timings accumulated since the last
    /// [`Layer::reset_phase_ns`]. Layers without instrumented kernels report
    /// zeros; containers report the sum over children.
    fn phase_ns(&self) -> LayerPhaseNs {
        LayerPhaseNs::default()
    }

    /// Resets the layer-internal phase timings.
    fn reset_phase_ns(&mut self) {}

    /// Appends this layer's [`ComputeSite`]s in forward order. Layers with
    /// negligible MACs (BN, pooling, flatten) contribute nothing; containers
    /// recurse, ordering parallel branches so the nearest-preceding-emitter
    /// pairing stays correct.
    fn collect_compute(&self, _out: &mut Vec<ComputeSite>) {}

    /// Structural self-description for model freezing (see
    /// [`crate::describe::LayerDesc`]). The default reports the layer as
    /// [`Opaque`](crate::describe::LayerDesc::Opaque), which makes inference
    /// compilers reject the network loudly instead of mis-executing a layer
    /// they cannot replay.
    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::Opaque {
            name: self.name().to_string(),
        }
    }
}

/// Extension helpers available on every layer.
pub trait LayerExt: Layer {
    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.for_each_param(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalar parameters.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.len());
        n
    }
}

impl<L: Layer + ?Sized> LayerExt for L {}
