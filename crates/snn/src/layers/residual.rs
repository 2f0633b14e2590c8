//! Residual basic block for spiking ResNets.

use ndsnn_tensor::ops::conv::Conv2dGeometry;
use ndsnn_tensor::{Csr, Tensor};
use rand::Rng;

use crate::error::Result;
use crate::layers::{
    BatchNorm, ComputeSite, Conv2d, Layer, LayerPhaseNs, LifConfig, LifLayer, SpikeExecStats,
    SpikeStats,
};
use crate::param::Param;

/// The spiking ResNet basic block used by ResNet-19:
///
/// ```text
/// x ──conv1──bn1──lif1──conv2──bn2──(+)──lif_out──▶
/// └──────(identity or conv_down+bn_down)──┘
/// ```
///
/// The residual sum happens on membrane *currents* (pre-activation), and the
/// block output is spiking — the structure from "Deep Residual Learning in
/// Spiking Neural Networks" (Fang et al., 2021), which the paper's ResNet-19
/// baseline follows.
pub struct BasicBlock {
    name: String,
    conv1: Conv2d,
    bn1: BatchNorm,
    lif1: LifLayer,
    conv2: Conv2d,
    bn2: BatchNorm,
    downsample: Option<(Conv2d, BatchNorm)>,
    lif_out: LifLayer,
}

impl std::fmt::Debug for BasicBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BasicBlock")
            .field("name", &self.name)
            .field("downsample", &self.downsample.is_some())
            .finish()
    }
}

impl BasicBlock {
    /// Creates a basic block. When `stride > 1` or channel counts differ, a
    /// 1×1 strided convolution + BN projects the skip connection.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        lif: LifConfig,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let name = name.into();
        let conv1 = Conv2d::new(
            format!("{name}.conv1"),
            Conv2dGeometry::square(in_channels, out_channels, 3, stride, 1),
            false,
            rng,
        )?;
        let bn1 = BatchNorm::new(format!("{name}.bn1"), out_channels, rng)?;
        // The block's convolutions run the dense backward and the block emits
        // no active set, so its populations never collect one.
        let mut lif1 = LifLayer::new(format!("{name}.lif1"), lif)?;
        lif1.set_grad_execution(-1.0, 0.0);
        let conv2 = Conv2d::new(
            format!("{name}.conv2"),
            Conv2dGeometry::square(out_channels, out_channels, 3, 1, 1),
            false,
            rng,
        )?;
        let bn2 = BatchNorm::new(format!("{name}.bn2"), out_channels, rng)?;
        let downsample = if stride != 1 || in_channels != out_channels {
            Some((
                Conv2d::new(
                    format!("{name}.down.conv"),
                    Conv2dGeometry::square(in_channels, out_channels, 1, stride, 0),
                    false,
                    rng,
                )?,
                BatchNorm::new(format!("{name}.down.bn"), out_channels, rng)?,
            ))
        } else {
            None
        };
        let mut lif_out = LifLayer::new(format!("{name}.lif_out"), lif)?;
        lif_out.set_grad_execution(-1.0, 0.0);
        Ok(BasicBlock {
            name,
            conv1,
            bn1,
            lif1,
            conv2,
            bn2,
            downsample,
            lif_out,
        })
    }
}

impl Layer for BasicBlock {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, step: usize) -> Result<Tensor> {
        Ok(self.forward_active(input, None, None, step)?.0)
    }

    fn forward_active(
        &mut self,
        input: &Tensor,
        spikes: Option<Csr>,
        _active: Option<Csr>,
        step: usize,
    ) -> Result<(Tensor, Option<Csr>, Option<Csr>)> {
        // The block input feeds two consumers (conv1 and the downsample
        // conv), so the incoming spikes are cloned for the skip path. lif1's
        // emission feeds conv2; lif_out's emission is the block output. No
        // active set enters or leaves the block: its convolutions run the
        // dense backward.
        let skip_spikes = match &self.downsample {
            Some(_) => spikes.clone(),
            None => None,
        };
        let (a, _, _) = self.conv1.forward_active(input, spikes, None, step)?;
        let b = self.bn1.forward(&a, step)?;
        let (c, c_spikes, _) = self.lif1.forward_active(&b, None, None, step)?;
        let (d, _, _) = self.conv2.forward_active(&c, c_spikes, None, step)?;
        let mut e = self.bn2.forward(&d, step)?;
        let skip = match &mut self.downsample {
            Some((conv, bn)) => {
                let (s, _, _) = conv.forward_active(input, skip_spikes, None, step)?;
                bn.forward(&s, step)?
            }
            None => input.clone(),
        };
        e.add_assign(&skip)?;
        let (out, out_spikes, _) = self.lif_out.forward_active(&e, None, None, step)?;
        Ok((out, out_spikes, None))
    }

    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor> {
        let g_pre = self.lif_out.backward(grad_out, step)?;
        // Main path.
        let g_d = self.bn2.backward(&g_pre, step)?;
        let g_c = self.conv2.backward(&g_d, step)?;
        let g_b = self.lif1.backward(&g_c, step)?;
        let g_a = self.bn1.backward(&g_b, step)?;
        let mut g_x = self.conv1.backward(&g_a, step)?;
        // Skip path.
        let g_skip = match &mut self.downsample {
            Some((conv, bn)) => {
                let g = bn.backward(&g_pre, step)?;
                conv.backward(&g, step)?
            }
            None => g_pre,
        };
        g_x.add_assign(&g_skip)?;
        Ok(g_x)
    }

    fn reset_state(&mut self) {
        self.conv1.reset_state();
        self.bn1.reset_state();
        self.lif1.reset_state();
        self.conv2.reset_state();
        self.bn2.reset_state();
        if let Some((conv, bn)) = &mut self.downsample {
            conv.reset_state();
            bn.reset_state();
        }
        self.lif_out.reset_state();
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.for_each_param(f);
        self.bn1.for_each_param(f);
        self.conv2.for_each_param(f);
        self.bn2.for_each_param(f);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.for_each_param(f);
            bn.for_each_param(f);
        }
    }

    fn for_each_buffer(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.bn1.for_each_buffer(f);
        self.bn2.for_each_buffer(f);
        if let Some((_, bn)) = &mut self.downsample {
            bn.for_each_buffer(f);
        }
    }

    fn set_training(&mut self, training: bool) {
        self.conv1.set_training(training);
        self.bn1.set_training(training);
        self.lif1.set_training(training);
        self.conv2.set_training(training);
        self.bn2.set_training(training);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.set_training(training);
            bn.set_training(training);
        }
        self.lif_out.set_training(training);
    }

    fn spike_stats(&self) -> SpikeStats {
        let mut s = self.lif1.spike_stats();
        s.merge(self.lif_out.spike_stats());
        s
    }

    fn reset_spike_stats(&mut self) {
        self.lif1.reset_spike_stats();
        self.lif_out.reset_spike_stats();
    }

    fn set_spike_density_threshold(&mut self, threshold: f64) {
        self.conv1.set_spike_density_threshold(threshold);
        self.conv2.set_spike_density_threshold(threshold);
        if let Some((conv, _)) = &mut self.downsample {
            conv.set_spike_density_threshold(threshold);
        }
    }

    fn spike_exec_stats(&self) -> SpikeExecStats {
        let mut s = self.conv1.spike_exec_stats();
        s.merge(self.conv2.spike_exec_stats());
        if let Some((conv, _)) = &self.downsample {
            s.merge(conv.spike_exec_stats());
        }
        s
    }

    fn reset_spike_exec_stats(&mut self) {
        self.conv1.reset_spike_exec_stats();
        self.conv2.reset_spike_exec_stats();
        if let Some((conv, _)) = &mut self.downsample {
            conv.reset_spike_exec_stats();
        }
    }

    fn phase_ns(&self) -> LayerPhaseNs {
        let mut p = self.bn1.phase_ns();
        p.merge(self.bn2.phase_ns());
        p.merge(self.lif1.phase_ns());
        p.merge(self.lif_out.phase_ns());
        if let Some((_, bn)) = &self.downsample {
            p.merge(bn.phase_ns());
        }
        p
    }

    fn reset_phase_ns(&mut self) {
        self.bn1.reset_phase_ns();
        self.bn2.reset_phase_ns();
        self.lif1.reset_phase_ns();
        self.lif_out.reset_phase_ns();
        if let Some((_, bn)) = &mut self.downsample {
            bn.reset_phase_ns();
        }
    }

    fn collect_compute(&self, out: &mut Vec<ComputeSite>) {
        // conv1 and the downsample conv both read the *block input*, so both
        // are listed before lif1 — the nearest-preceding-emitter pairing then
        // assigns them the block's input rate, and conv2 gets lif1's rate.
        self.conv1.collect_compute(out);
        if let Some((conv, _)) = &self.downsample {
            conv.collect_compute(out);
        }
        self.lif1.collect_compute(out);
        self.conv2.collect_compute(out);
        self.lif_out.collect_compute(out);
    }

    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::Residual {
            name: self.name.clone(),
            main: vec![
                self.conv1.describe(),
                self.bn1.describe(),
                self.lif1.describe(),
                self.conv2.describe(),
                self.bn2.describe(),
            ],
            shortcut: match &self.downsample {
                Some((conv, bn)) => vec![conv.describe(), bn.describe()],
                None => Vec::new(),
            },
            lif_out: Box::new(self.lif_out.describe()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerExt;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn identity_block_shapes() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut blk = BasicBlock::new("blk", 8, 8, 1, LifConfig::default(), &mut rng).unwrap();
        let x = ndsnn_tensor::init::uniform([2, 8, 6, 6], 0.0, 1.0, &mut rng);
        let y = blk.forward(&x, 0).unwrap();
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
        // Output is binary spikes.
        assert!(y.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        let gx = blk.backward(&Tensor::ones(y.shape().clone()), 0).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn downsample_block_shapes() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut blk = BasicBlock::new("blk", 4, 8, 2, LifConfig::default(), &mut rng).unwrap();
        let x = ndsnn_tensor::init::uniform([1, 4, 8, 8], 0.0, 1.0, &mut rng);
        let y = blk.forward(&x, 0).unwrap();
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
        let gx = blk.backward(&Tensor::ones(y.shape().clone()), 0).unwrap();
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn params_include_downsample() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut id_blk = BasicBlock::new("a", 4, 4, 1, LifConfig::default(), &mut rng).unwrap();
        let mut ds_blk = BasicBlock::new("b", 4, 8, 2, LifConfig::default(), &mut rng).unwrap();
        assert!(ds_blk.num_params() > id_blk.num_params());
        let mut names = Vec::new();
        ds_blk.for_each_param(&mut |p| names.push(p.name.clone()));
        assert!(names.iter().any(|n| n.contains("down.conv")));
    }

    #[test]
    fn gradient_flows_through_skip() {
        // Zero the main-path convs: gradient must still reach the input via
        // the identity skip.
        let mut rng = StdRng::seed_from_u64(43);
        let mut blk = BasicBlock::new("blk", 2, 2, 1, LifConfig::default(), &mut rng).unwrap();
        blk.for_each_param(&mut |p| {
            if p.name.contains("conv") {
                p.value.fill(0.0);
            }
        });
        let x = Tensor::full([1, 2, 3, 3], 2.0); // strong input → lif_out fires
        let y = blk.forward(&x, 0).unwrap();
        let gx = blk.backward(&Tensor::ones(y.shape().clone()), 0).unwrap();
        assert!(gx.sq_norm() > 0.0, "no gradient through skip connection");
    }
}
