//! Spiking 2-D convolution layer.

use ndsnn_tensor::ops::conv::{
    conv2d_backward, conv2d_forward, Conv2dGeometry, ConvBackward, ConvWeight,
};
use ndsnn_tensor::ops::grad::grad_density_threshold_from_env;
use ndsnn_tensor::ops::spike::spike_density_threshold_from_env;
use ndsnn_tensor::ops::tile::{BiasRow, NoEpilogue};
use ndsnn_tensor::scratch::ScratchPool;
use ndsnn_tensor::{Csr, Tensor};
use rand::Rng;
use std::time::Instant;

use crate::error::{Result, SnnError};
use crate::layers::{ComputeSite, Layer, SpikeExecStats};
use crate::param::{Param, ParamKind};

/// A 2-D convolution applied independently at every timestep.
///
/// The weight is the primary sparsification target of the NDSNN drop-and-grow
/// schedule; its shape `(F, C, KH, KW)` matches the memory-footprint analysis
/// of paper §III.D (each of the `F` filters is one CSR row after reshaping).
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    geometry: Conv2dGeometry,
    weight: Param,
    bias: Option<Param>,
    input_cache: Vec<Tensor>,
    /// Per-step record of whether the spike-gather dispatch was chosen, so
    /// the backward `dW` pass takes the matching multiply-free path.
    spike_gather_cache: Vec<bool>,
    /// Per-step gradient active sets received via [`Layer::forward_active`]:
    /// the input positions the upstream population can actually consume, to
    /// which the backward `dX` may be restricted.
    active_cache: Vec<Option<Csr>>,
    /// Packed transpose of the weight for the active-set `dX` gather, built
    /// lazily at the first active backward step of a batch and reused for
    /// every remaining timestep — weights only change between batches, and
    /// [`Layer::reset_state`] (called at the start of every pass) drops the
    /// cache before they can.
    packed_wt: Option<Csr<f32>>,
    spike_threshold: f64,
    grad_threshold: f64,
    exec: SpikeExecStats,
    grad_exec: SpikeExecStats,
    /// Output spatial positions per sample (`H_out·W_out`) from the last
    /// forward pass — geometry alone cannot supply it because the output
    /// size depends on the input size. Feeds [`Layer::collect_compute`].
    out_positions: usize,
    training: bool,
    /// im2col/col2im workspaces, allocated once and reused across every
    /// timestep and epoch this layer runs.
    scratch: ScratchPool,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights.
    pub fn new(
        name: impl Into<String>,
        geometry: Conv2dGeometry,
        with_bias: bool,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if geometry.in_channels == 0 || geometry.out_channels == 0 || geometry.kernel_h == 0 {
            return Err(SnnError::InvalidConfig(format!(
                "conv geometry has zero extent: {geometry:?}"
            )));
        }
        let name = name.into();
        let weight = Param::new(
            format!("{name}.weight"),
            ndsnn_tensor::init::kaiming_uniform(geometry.weight_dims(), rng),
            ParamKind::Weight,
        );
        let bias = with_bias.then(|| {
            Param::new(
                format!("{name}.bias"),
                Tensor::zeros([geometry.out_channels]),
                ParamKind::Bias,
            )
        });
        Ok(Conv2d {
            name,
            geometry,
            weight,
            bias,
            input_cache: Vec::new(),
            spike_gather_cache: Vec::new(),
            active_cache: Vec::new(),
            packed_wt: None,
            spike_threshold: spike_density_threshold_from_env(),
            grad_threshold: grad_density_threshold_from_env(),
            exec: SpikeExecStats::default(),
            grad_exec: SpikeExecStats::default(),
            out_positions: 0,
            training: true,
            scratch: ScratchPool::new(),
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geometry
    }

    /// Shared forward body: [`Layer::forward`] passes `spikes = None`. The
    /// spike kernels pack each sample's fired pixels into its im2col operand
    /// themselves, so the spike list itself is only consulted for binarity
    /// certification, density and stats.
    ///
    /// Dispatch: a certified-binary input below the spike density threshold
    /// takes the spike kernel, which walks the installed weight plan's live
    /// weights at the fired taps, or every non-zero weight without a plan.
    /// Otherwise a layer with a weight plan takes the plan, and everything
    /// else runs dense.
    fn forward_impl(
        &mut self,
        input: &Tensor,
        spikes: Option<&Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<Tensor> {
        let usable = spikes.is_some_and(|sb| {
            input.rank() == 4
                && sb.rows() == input.dims()[0]
                && sb.rows() * sb.cols() == input.len()
        });
        let mut gather = false;
        if let Some(sb) = spikes.filter(|_| usable) {
            self.exec.nnz += sb.nnz() as u64;
            self.exec.elems += (sb.rows() * sb.cols()) as u64;
            gather = sb.density() < self.spike_threshold;
        }
        let t0 = Instant::now();
        let (w, g, pool) = (&self.weight.value, &self.geometry, &self.scratch);
        let weight = match self.weight.exec_pattern()? {
            Some(pat) => ConvWeight::Plan(w, pat),
            None => ConvWeight::Dense(w),
        };
        let out = match &self.bias {
            Some(b) => {
                conv2d_forward(input, weight, g, gather, &BiasRow(b.value.as_slice()), pool)?
            }
            None => conv2d_forward(input, weight, g, gather, &NoEpilogue, pool)?,
        };
        if gather {
            self.exec.kernel_ns += t0.elapsed().as_nanos() as u64;
            self.exec.gather_steps += 1;
        } else if usable {
            self.exec.dense_steps += 1;
        }
        self.out_positions = out.dims()[2] * out.dims()[3];
        if self.training {
            debug_assert_eq!(step, self.input_cache.len(), "non-sequential forward");
            let active_usable = active.as_ref().is_some_and(|ab| {
                input.rank() == 4
                    && ab.rows() == input.dims()[0]
                    && ab.rows() * ab.cols() == input.len()
            });
            self.input_cache.push(input.clone());
            self.spike_gather_cache.push(gather);
            self.active_cache.push(active.filter(|_| active_usable));
        }
        Ok(out)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, step: usize) -> Result<Tensor> {
        self.forward_impl(input, None, None, step)
    }

    fn forward_active(
        &mut self,
        input: &Tensor,
        spikes: Option<Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<(Tensor, Option<Csr>, Option<Csr>)> {
        // Consumes both: the spikes feed the forward/dW gathers, the active
        // set is captured for the backward dX restriction. The conv output is
        // not binary.
        Ok((
            self.forward_impl(input, spikes.as_ref(), active, step)?,
            None,
            None,
        ))
    }

    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor> {
        let x = self.input_cache.get(step).ok_or_else(|| {
            SnnError::InvalidState(format!(
                "{} backward at step {step} without cached input",
                self.name
            ))
        })?;
        // The dW gather composes with an installed weight plan (dW stays
        // dense-valued either way), so replay the forward's spike decision.
        let gather = self.spike_gather_cache.get(step).copied().unwrap_or(false);
        let ab = self
            .active_cache
            .get(step)
            .and_then(|o| o.as_ref())
            .filter(|ab| ab.rows() == grad_out.dims()[0]);
        if let Some(ab) = ab {
            self.grad_exec.nnz += ab.nnz() as u64;
            self.grad_exec.elems += (ab.rows() * ab.cols()) as u64;
        }
        let active = ab.filter(|ab| ab.density() < self.grad_threshold);
        if active.is_some() && self.packed_wt.is_none() {
            self.packed_wt = Some(Csr::from_dense_transposed(
                self.geometry.out_channels,
                self.geometry.col_rows(),
                self.weight.value.as_slice(),
            ));
        }
        let active = active.map(|ab| (ab, self.packed_wt.as_ref().expect("packed above")));
        let dispatch = ConvBackward {
            weight_plan: self.weight.exec_pattern()?,
            spike_gather_dw: gather,
            active_dx: active,
        };
        let t0 = Instant::now();
        let grads = conv2d_backward(
            x,
            &self.weight.value,
            grad_out,
            &self.geometry,
            &dispatch,
            &self.scratch,
        )?;
        let elapsed = t0.elapsed().as_nanos() as u64;
        if gather {
            self.exec.kernel_ns += elapsed;
            self.exec.gather_steps += 1;
        }
        if active.is_some() {
            // Attributed wholesale: the fused backward call computes dW and
            // dBias too, but the dX col2im chain it replaces dominates it.
            self.grad_exec.kernel_ns += elapsed;
            self.grad_exec.gather_steps += 1;
        } else if ab.is_some() {
            self.grad_exec.dense_steps += 1;
        }
        self.weight.grad.add_assign(&grads.weight_grad)?;
        if let Some(bias) = &mut self.bias {
            bias.grad.add_assign(&grads.bias_grad)?;
        }
        Ok(grads.input_grad)
    }

    fn reset_state(&mut self) {
        self.input_cache.clear();
        self.spike_gather_cache.clear();
        self.active_cache.clear();
        self.packed_wt = None;
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(bias) = &mut self.bias {
            f(bias);
        }
    }

    fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    fn set_spike_density_threshold(&mut self, threshold: f64) {
        self.spike_threshold = threshold;
    }

    fn set_grad_execution(&mut self, threshold: f64, _tau: f32) {
        self.grad_threshold = threshold;
    }

    fn spike_exec_stats(&self) -> SpikeExecStats {
        self.exec
    }

    fn reset_spike_exec_stats(&mut self) {
        self.exec = SpikeExecStats::default();
    }

    fn grad_exec_stats(&self) -> SpikeExecStats {
        self.grad_exec
    }

    fn reset_grad_exec_stats(&mut self) {
        self.grad_exec = SpikeExecStats::default();
    }

    fn collect_compute(&self, out: &mut Vec<ComputeSite>) {
        out.push(ComputeSite::Consumer {
            name: self.name.clone(),
            weights: self.weight.value.len(),
            output_positions: self.out_positions,
        });
    }

    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::Conv2d {
            name: self.name.clone(),
            geometry: self.geometry,
            weight: self.weight.value.clone(),
            bias: self.bias.as_ref().map(|b| b.value.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerExt;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = Conv2dGeometry::square(3, 8, 3, 1, 1);
        let mut conv = Conv2d::new("c1", g, false, &mut rng).unwrap();
        let x = ndsnn_tensor::init::uniform([2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, 0).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        let gx = conv.backward(&Tensor::ones(y.shape().clone()), 0).unwrap();
        assert_eq!(gx.dims(), x.dims());
        let mut total = 0;
        conv.for_each_param(&mut |p| total += p.len());
        assert_eq!(total, 8 * 3 * 3 * 3);
        assert_eq!(conv.num_params(), total);
    }

    #[test]
    fn weight_gradient_accumulates_across_timesteps() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = Conv2dGeometry::square(1, 1, 1, 1, 0);
        let mut conv = Conv2d::new("c", g, false, &mut rng).unwrap();
        let x = Tensor::ones([1, 1, 2, 2]);
        conv.forward(&x, 0).unwrap();
        conv.forward(&x, 1).unwrap();
        let gy = Tensor::ones([1, 1, 2, 2]);
        conv.backward(&gy, 1).unwrap();
        conv.backward(&gy, 0).unwrap();
        let mut grad_sum = 0.0;
        conv.for_each_param(&mut |p| grad_sum = p.grad.sum());
        // 1×1 conv over 4 pixels, 2 timesteps → dW = 8.
        assert!((grad_sum - 8.0).abs() < 1e-5);
    }

    #[test]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = Conv2dGeometry::square(1, 1, 1, 1, 0);
        let mut conv = Conv2d::new("c", g, false, &mut rng).unwrap();
        assert!(conv.backward(&Tensor::ones([1, 1, 1, 1]), 0).is_err());
    }

    #[test]
    fn eval_mode_skips_cache() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = Conv2dGeometry::square(1, 2, 3, 1, 1);
        let mut conv = Conv2d::new("c", g, false, &mut rng).unwrap();
        conv.set_training(false);
        let x = Tensor::ones([1, 1, 4, 4]);
        conv.forward(&x, 0).unwrap();
        assert!(conv.backward(&Tensor::ones([1, 2, 4, 4]), 0).is_err());
    }
}
