//! Layer composition.

use ndsnn_tensor::{Csr, Tensor};

use crate::error::Result;
use crate::layers::{ComputeSite, Layer, LayerPhaseNs, SpikeExecStats, SpikeStats};
use crate::param::Param;

/// A chain of layers executed in order per timestep.
///
/// Backward runs the chain in reverse. Spike statistics aggregate over all
/// spiking children, which is exactly the network-average spike rate `R` the
/// paper's training-cost metric needs.
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("name", &self.name)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Builder-style append.
    pub fn with(mut self, layer: Box<dyn Layer>) -> Self {
        self.push(layer);
        self
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no children.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Per-layer spike statistics (name, stats) for spiking children.
    pub fn spike_stats_per_layer(&self) -> Vec<(String, SpikeStats)> {
        self.layers
            .iter()
            .map(|l| (l.name().to_string(), l.spike_stats()))
            .filter(|(_, s)| s.neuron_steps > 0)
            .collect()
    }

    /// Per-layer active-set backward statistics (name, stats) for children
    /// that saw at least one gradient active set.
    pub fn grad_exec_stats_per_layer(&self) -> Vec<(String, SpikeExecStats)> {
        self.layers
            .iter()
            .map(|l| (l.name().to_string(), l.grad_exec_stats()))
            .filter(|(_, s)| s.elems > 0 || s.gather_steps > 0)
            .collect()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, step: usize) -> Result<Tensor> {
        // Thread sparse metadata between children even on the plain entry
        // point: emitters hand fired-index lists straight to consumers, so
        // the whole network benefits without the training loop changing. Active
        // sets ride along for free when the grad execution is off (emitters
        // only collect them when it is enabled for them).
        Ok(self.forward_active(input, None, None, step)?.0)
    }

    fn forward_active(
        &mut self,
        input: &Tensor,
        spikes: Option<Csr>,
        active: Option<Csr>,
        step: usize,
    ) -> Result<(Tensor, Option<Csr>, Option<Csr>)> {
        let mut x = input.clone();
        let mut sb = spikes;
        let mut ab = active;
        for layer in &mut self.layers {
            let (y, next_sb, next_ab) = layer.forward_active(&x, sb, ab, step)?;
            x = y;
            sb = next_sb;
            ab = next_ab;
        }
        Ok((x, sb, ab))
    }

    fn backward(&mut self, grad_out: &Tensor, step: usize) -> Result<Tensor> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g, step)?;
        }
        Ok(g)
    }

    fn reset_state(&mut self) {
        for layer in &mut self.layers {
            layer.reset_state();
        }
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.for_each_param(f);
        }
    }

    fn for_each_buffer(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.for_each_buffer(f);
        }
    }

    fn set_training(&mut self, training: bool) {
        for layer in &mut self.layers {
            layer.set_training(training);
        }
    }

    fn spike_stats(&self) -> SpikeStats {
        let mut total = SpikeStats::default();
        for layer in &self.layers {
            total.merge(layer.spike_stats());
        }
        total
    }

    fn reset_spike_stats(&mut self) {
        for layer in &mut self.layers {
            layer.reset_spike_stats();
        }
    }

    fn set_spike_density_threshold(&mut self, threshold: f64) {
        for layer in &mut self.layers {
            layer.set_spike_density_threshold(threshold);
        }
    }

    fn spike_exec_stats(&self) -> SpikeExecStats {
        let mut total = SpikeExecStats::default();
        for layer in &self.layers {
            total.merge(layer.spike_exec_stats());
        }
        total
    }

    fn reset_spike_exec_stats(&mut self) {
        for layer in &mut self.layers {
            layer.reset_spike_exec_stats();
        }
    }

    fn set_grad_execution(&mut self, threshold: f64, tau: f32) {
        for layer in &mut self.layers {
            layer.set_grad_execution(threshold, tau);
        }
    }

    fn grad_exec_stats(&self) -> SpikeExecStats {
        let mut total = SpikeExecStats::default();
        for layer in &self.layers {
            total.merge(layer.grad_exec_stats());
        }
        total
    }

    fn reset_grad_exec_stats(&mut self) {
        for layer in &mut self.layers {
            layer.reset_grad_exec_stats();
        }
    }

    fn phase_ns(&self) -> LayerPhaseNs {
        let mut total = LayerPhaseNs::default();
        for layer in &self.layers {
            total.merge(layer.phase_ns());
        }
        total
    }

    fn reset_phase_ns(&mut self) {
        for layer in &mut self.layers {
            layer.reset_phase_ns();
        }
    }

    fn collect_compute(&self, out: &mut Vec<ComputeSite>) {
        for layer in &self.layers {
            layer.collect_compute(out);
        }
    }

    fn describe(&self) -> crate::describe::LayerDesc {
        crate::describe::LayerDesc::Sequential {
            name: self.name.clone(),
            children: self.layers.iter().map(|l| l.describe()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{LifConfig, LifLayer, Linear};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn chains_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(30);
        let mut net = Sequential::new("net")
            .with(Box::new(Linear::new("fc1", 4, 8, true, &mut rng).unwrap()))
            .with(Box::new(
                LifLayer::new("lif1", LifConfig::default()).unwrap(),
            ))
            .with(Box::new(Linear::new("fc2", 8, 2, true, &mut rng).unwrap()));
        let x = Tensor::ones([3, 4]);
        let y = net.forward(&x, 0).unwrap();
        assert_eq!(y.dims(), &[3, 2]);
        let gx = net.backward(&Tensor::ones([3, 2]), 0).unwrap();
        assert_eq!(gx.dims(), &[3, 4]);
    }

    #[test]
    fn aggregates_spike_stats() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut net = Sequential::new("net")
            .with(Box::new(Linear::new("fc1", 2, 4, false, &mut rng).unwrap()))
            .with(Box::new(
                LifLayer::new("lif1", LifConfig::default()).unwrap(),
            ));
        let x = Tensor::full([1, 2], 10.0);
        net.forward(&x, 0).unwrap();
        let stats = net.spike_stats();
        assert_eq!(stats.neuron_steps, 4);
        let per_layer = net.spike_stats_per_layer();
        assert_eq!(per_layer.len(), 1);
        assert_eq!(per_layer[0].0, "lif1");
        net.reset_spike_stats();
        assert_eq!(net.spike_stats().neuron_steps, 0);
    }

    #[test]
    fn param_visit_order_is_stable() {
        let mut rng = StdRng::seed_from_u64(32);
        let mut net = Sequential::new("net")
            .with(Box::new(Linear::new("a", 2, 2, true, &mut rng).unwrap()))
            .with(Box::new(Linear::new("b", 2, 2, true, &mut rng).unwrap()));
        let mut names = Vec::new();
        net.for_each_param(&mut |p| names.push(p.name.clone()));
        assert_eq!(names, vec!["a.weight", "a.bias", "b.weight", "b.bias"]);
    }
}
