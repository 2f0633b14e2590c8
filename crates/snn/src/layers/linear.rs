//! Fully-connected layer.

use ndsnn_tensor::ops::grad::{gather_gy_wt, grad_density_threshold_from_env};
use ndsnn_tensor::ops::matmul::{matmul, matmul_a_bt_epilogue, matmul_at_b};
use ndsnn_tensor::ops::reduce::sum_axis0;
use ndsnn_tensor::ops::spike::{gather_at_b, gather_xwt, spike_density_threshold_from_env};
use ndsnn_tensor::ops::spmm::{sp_gy_w, sp_xwt};
use ndsnn_tensor::ops::tile::{BiasCol, NoEpilogue};
use ndsnn_tensor::{Csr, Tensor};
use rand::Rng;
use std::time::Instant;

use crate::error::{Result, SnnError};
use crate::layers::{ComputeSite, Layer, SpikeExecStats};
use crate::param::{Param, ParamKind};

/// A linear (fully-connected) layer `y = x·Wᵀ + b` applied per timestep.
///
/// Weight shape is `(out_features, in_features)`, matching PyTorch, so the
/// sparse-training engines treat each row as one output neuron's fan-in.
#[derive(Debug)]
pub struct Linear {
    name: String,
    weight: Param,
    bias: Option<Param>,
    input_cache: Vec<Tensor>,
    /// Per-step spike lists received via [`Layer::forward_active`]; lets the
    /// backward pass gather `dW` over fired columns of the cached input.
    spike_cache: Vec<Option<Csr>>,
    /// Per-step gradient active sets received via [`Layer::forward_active`]:
    /// the columns of `dX` the upstream population can actually consume.
    active_cache: Vec<Option<Csr>>,
    /// Packed transpose of the weight for the active-set `dX` gather, built
    /// lazily at the first active backward step of a batch and reused for the
    /// remaining timesteps; [`Layer::reset_state`] drops it before the
    /// optimizer can touch the weights.
    packed_wt: Option<Csr<f32>>,
    spike_threshold: f64,
    grad_threshold: f64,
    exec: SpikeExecStats,
    grad_exec: SpikeExecStats,
    training: bool,
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform weights and zero bias.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        with_bias: bool,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(SnnError::InvalidConfig(format!(
                "linear features must be nonzero, got {in_features}x{out_features}"
            )));
        }
        let name = name.into();
        let weight = Param::new(
            format!("{name}.weight"),
            ndsnn_tensor::init::kaiming_uniform([out_features, in_features], rng),
            ParamKind::Weight,
        );
        let bias = with_bias.then(|| {
            Param::new(
                format!("{name}.bias"),
                Tensor::zeros([out_features]),
                ParamKind::Bias,
            )
        });
        Ok(Linear {
            name,
            weight,
            bias,
            input_cache: Vec::new(),
            spike_cache: Vec::new(),
            active_cache: Vec::new(),
            packed_wt: None,
            spike_threshold: spike_density_threshold_from_env(),
            grad_threshold: grad_density_threshold_from_env(),
            exec: SpikeExecStats::default(),
            grad_exec: SpikeExecStats::default(),
            training: true,
        })
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// True when `list` (spikes or an active set) describes exactly this
    /// step's `input` tensor, so the gather kernels may substitute for the
    /// dense matmuls, or the backward `dX` may be restricted to its columns.
    fn describes_input(&self, input: &Tensor, list: Option<&Csr>) -> bool {
        list.is_some_and(|l| {
            input.rank() == 2
                && l.dims() == (input.dims()[0], input.dims()[1])
                && l.cols() == self.in_features()
        })
    }

    /// Shared forward body: [`Layer::forward`] passes `spikes = None` and
    /// `active = None`.
    fn forward_impl(
        &mut self,
        input: &Tensor,
        spikes: Option<Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<Tensor> {
        let usable = self.describes_input(input, spikes.as_ref());
        if let Some(sb) = spikes.as_ref().filter(|_| usable) {
            self.exec.nnz += sb.nnz() as u64;
            self.exec.elems += (sb.rows() * sb.cols()) as u64;
        }
        // y(B×Out) = x(B×In) · Wᵀ(In×Out); row-sparse when a plan is
        // installed (weight sparsity beats spike sparsity at the engine's
        // operating points, so the plan wins), spike-gather when the batch is
        // sparse enough, dense otherwise.
        let mut bias_fused = false;
        let mut out = match self.weight.exec_pattern()? {
            Some(pat) => {
                if input.rank() != 2 || input.dims()[1] != pat.cols() {
                    return Err(SnnError::InvalidState(format!(
                        "{}: input {:?} incompatible with {}x{} weight",
                        self.name,
                        input.dims(),
                        pat.rows(),
                        pat.cols()
                    )));
                }
                if usable {
                    self.exec.dense_steps += 1;
                }
                let b = input.dims()[0];
                let mut y = Tensor::zeros([b, pat.rows()]);
                sp_xwt(
                    pat,
                    self.weight.value.as_slice(),
                    input.as_slice(),
                    y.as_mut_slice(),
                    b,
                );
                y
            }
            None => match spikes
                .as_ref()
                .filter(|sb| usable && sb.density() < self.spike_threshold)
            {
                Some(sb) => {
                    let t0 = Instant::now();
                    let b = input.dims()[0];
                    let mut y = Tensor::zeros([b, self.out_features()]);
                    gather_xwt(
                        sb,
                        self.weight.value.as_slice(),
                        y.as_mut_slice(),
                        self.out_features(),
                    );
                    self.exec.kernel_ns += t0.elapsed().as_nanos() as u64;
                    self.exec.gather_steps += 1;
                    y
                }
                None => {
                    // Dense path: the bias rides the GEMM as a fused
                    // per-tile epilogue (columns are output features), one
                    // pass over the output instead of two. Identical values:
                    // the add still happens after each element's full k
                    // accumulation.
                    if usable {
                        self.exec.dense_steps += 1;
                    }
                    let y = match &self.bias {
                        Some(bias) => matmul_a_bt_epilogue(
                            input,
                            &self.weight.value,
                            &BiasCol(bias.value.as_slice()),
                        )?,
                        None => matmul_a_bt_epilogue(input, &self.weight.value, &NoEpilogue)?,
                    };
                    bias_fused = self.bias.is_some();
                    y
                }
            },
        };
        if let Some(bias) = self.bias.as_ref().filter(|_| !bias_fused) {
            let (b, k) = (out.dims()[0], out.dims()[1]);
            let od = out.as_mut_slice();
            for i in 0..b {
                for (o, &bv) in od[i * k..(i + 1) * k].iter_mut().zip(bias.value.as_slice()) {
                    *o += bv;
                }
            }
        }
        if self.training {
            debug_assert_eq!(step, self.input_cache.len(), "non-sequential forward");
            let active_usable = self.describes_input(input, active.as_ref());
            self.input_cache.push(input.clone());
            // Cached even when the forward used the weight plan: the dW
            // gather is independent of the forward dispatch.
            self.spike_cache.push(spikes.filter(|_| usable));
            self.active_cache.push(active.filter(|_| active_usable));
        }
        Ok(out)
    }
}

impl Layer for Linear {
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
        // set is captured for the backward dX restriction. The (real-valued)
        // output is not binary.
        Ok((self.forward_impl(input, spikes, active, step)?, None, None))
    }

    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor> {
        let x = self.input_cache.get(step).ok_or_else(|| {
            SnnError::InvalidState(format!(
                "{} backward at step {step} without cached input",
                self.name
            ))
        })?;
        // dW(Out×In) += gyᵀ(Out×B) · x(B×In) — always dense-valued, so
        // drop/grow decisions that read gradients are unchanged by either
        // sparse dispatch. When this step's input arrived as a sparse spike
        // batch, only fired columns of x can contribute: gather them.
        let sb = self
            .spike_cache
            .get(step)
            .and_then(|o| o.as_ref())
            .filter(|sb| sb.density() < self.spike_threshold);
        let dw = match sb {
            Some(sb) => {
                let t0 = Instant::now();
                let out = self.out_features();
                let mut dw = Tensor::zeros([out, self.in_features()]);
                gather_at_b(grad_out.as_slice(), sb, dw.as_mut_slice(), out);
                self.exec.kernel_ns += t0.elapsed().as_nanos() as u64;
                self.exec.gather_steps += 1;
                dw
            }
            None => matmul_at_b(grad_out, x)?,
        };
        self.weight.grad.add_assign(&dw)?;
        if let Some(bias) = &mut self.bias {
            bias.grad.add_assign(&sum_axis0(grad_out)?)?;
        }
        // dx(B×In) = gy(B×Out) · W(Out×In). Three-way dispatch: the
        // active-set gather computes only the columns the upstream spiking
        // population consumes (it wins when the realized backward density is
        // below the grad threshold and also exploits masked weights via its
        // zero skip); otherwise row-sparse when a plan is installed, dense
        // last. All three are bit-identical on the computed entries.
        let ab = self
            .active_cache
            .get(step)
            .and_then(|o| o.as_ref())
            .filter(|ab| ab.rows() == grad_out.dims()[0]);
        if let Some(ab) = ab {
            self.grad_exec.nnz += ab.nnz() as u64;
            self.grad_exec.elems += (ab.rows() * ab.cols()) as u64;
        }
        match ab.filter(|ab| ab.density() < self.grad_threshold) {
            Some(ab) => {
                let t0 = Instant::now();
                let (out, inf) = (self.out_features(), self.in_features());
                // Packed transpose makes each active column's reduction a
                // contiguous walk over the *unmasked* weights only; packed
                // once per batch and reused across the BPTT timesteps
                // (weights only change between batches).
                if self.packed_wt.is_none() {
                    self.packed_wt = Some(Csr::from_dense_transposed(
                        out,
                        inf,
                        self.weight.value.as_slice(),
                    ));
                }
                let pwt = self.packed_wt.as_ref().expect("packed above");
                let b = grad_out.dims()[0];
                let mut dx = Tensor::zeros([b, inf]);
                gather_gy_wt(ab, pwt, grad_out.as_slice(), dx.as_mut_slice());
                self.grad_exec.kernel_ns += t0.elapsed().as_nanos() as u64;
                self.grad_exec.gather_steps += 1;
                Ok(dx)
            }
            None => {
                if ab.is_some() {
                    self.grad_exec.dense_steps += 1;
                }
                match self.weight.exec_pattern()? {
                    Some(pat) => {
                        let b = grad_out.dims()[0];
                        let mut dx = Tensor::zeros([b, pat.cols()]);
                        sp_gy_w(
                            pat,
                            self.weight.value.as_slice(),
                            grad_out.as_slice(),
                            dx.as_mut_slice(),
                            b,
                        );
                        Ok(dx)
                    }
                    None => Ok(matmul(grad_out, &self.weight.value)?),
                }
            }
        }
    }

    fn reset_state(&mut self) {
        self.input_cache.clear();
        self.spike_cache.clear();
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
            output_positions: 1,
        });
    }

    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::Linear {
            name: self.name.clone(),
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
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new("fc", 3, 2, true, &mut rng).unwrap();
        l.for_each_param(&mut |p| {
            if p.kind == ParamKind::Weight {
                p.value = Tensor::from_vec([2, 3], vec![1., 0., -1., 2., 2., 2.]).unwrap();
            } else {
                p.value = Tensor::from_slice(&[0.5, -0.5]);
            }
        });
        let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = l.forward(&x, 0).unwrap();
        assert_eq!(y.as_slice(), &[1.0 - 3.0 + 0.5, 12.0 - 0.5]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new("fc", 4, 3, true, &mut rng).unwrap();
        let x = ndsnn_tensor::init::uniform([2, 4], -1.0, 1.0, &mut rng);
        // Loss = sum(y), grad_out = ones.
        let y = l.forward(&x, 0).unwrap();
        let gy = Tensor::ones(y.shape().clone());
        let gx = l.backward(&gy, 0).unwrap();
        let eps = 1e-3;
        // Weight gradient check.
        let mut weights = Vec::new();
        l.for_each_param(&mut |p| weights.push((p.name.clone(), p.value.clone(), p.grad.clone())));
        for (name, value, grad) in &weights {
            for idx in [0usize, value.len() / 2, value.len() - 1] {
                let mut lp = Linear::new("fc", 4, 3, true, &mut StdRng::seed_from_u64(2)).unwrap();
                let mut lm = Linear::new("fc", 4, 3, true, &mut StdRng::seed_from_u64(2)).unwrap();
                lp.for_each_param(&mut |p| {
                    if &p.name == name {
                        p.value.as_mut_slice()[idx] += eps;
                    }
                });
                lm.for_each_param(&mut |p| {
                    if &p.name == name {
                        p.value.as_mut_slice()[idx] -= eps;
                    }
                });
                let fp = lp.forward(&x, 0).unwrap().sum();
                let fm = lm.forward(&x, 0).unwrap().sum();
                let fd = (fp - fm) / (2.0 * eps);
                assert!(
                    (fd - grad.as_slice()[idx]).abs() < 1e-2,
                    "{name}[{idx}]: fd={fd} an={}",
                    grad.as_slice()[idx]
                );
            }
        }
        // Input gradient check.
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let mut l2 = Linear::new("fc", 4, 3, true, &mut StdRng::seed_from_u64(2)).unwrap();
            let fp = l2.forward(&xp, 0).unwrap().sum();
            l2.reset_state();
            let fm = l2.forward(&xm, 0).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn gradient_accumulates_over_steps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new("fc", 2, 2, false, &mut rng).unwrap();
        let x = Tensor::ones([1, 2]);
        let gy = Tensor::ones([1, 2]);
        l.forward(&x, 0).unwrap();
        l.forward(&x, 1).unwrap();
        l.backward(&gy, 1).unwrap();
        l.backward(&gy, 0).unwrap();
        let mut gsum = 0.0;
        l.for_each_param(&mut |p| gsum += p.grad.sum());
        assert!((gsum - 8.0).abs() < 1e-5); // each of 4 weights gets 1.0 per step
        l.zero_grad();
        let mut gsum2 = 0.0;
        l.for_each_param(&mut |p| gsum2 += p.grad.sum());
        assert_eq!(gsum2, 0.0);
    }

    #[test]
    fn zero_features_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(Linear::new("fc", 0, 2, true, &mut rng).is_err());
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new("fc", 3, 4, true, &mut rng).unwrap();
        assert_eq!(l.num_params(), 12 + 4);
    }
}
