//! The configurations, weights and images the parity suites share.

use std::collections::BTreeMap;

use ndsnn::checkpoint::{restore_params_from_map, snapshot_params};
use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn::trainer::build_network;
use ndsnn_snn::layers::Layer;
use ndsnn_snn::models::Architecture;
use ndsnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub fn cfg_for(arch: Architecture) -> RunConfig {
    let mut cfg = Profile::Smoke.run_config(arch, DatasetKind::Cifar10, MethodSpec::Dense);
    cfg.timesteps = 2;
    cfg.image_size = cfg.image_size.max(ndsnn::trainer::min_image_size(cfg.arch));
    cfg
}

/// Freshly initialized parameters with ~`sparsity` of every weight zeroed
/// by a deterministic modulo pattern, the kept entries scaled by
/// `1/(1 − sparsity)`, and each BatchNorm shift set to 0.3, 0.5 or 0.7 by
/// channel. Left as initialized, a 90%-sparse network is silent past its
/// first LIF layer and the deep VGG-16 layers stay silent even dense, so
/// every later conv would compare an all-zero input; with these, every LIF
/// layer fires on the test images ([`assert_fires`]).
pub fn sparse_params(cfg: &RunConfig, sparsity: f64) -> BTreeMap<String, Tensor> {
    let mut net = build_network(cfg).expect("build network");
    let mut params = snapshot_params(&mut net.layers);
    let keep_every = (1.0 / (1.0 - sparsity)).round() as usize;
    let scale = (1.0 / (1.0 - sparsity)) as f32;
    for (name, t) in params.iter_mut() {
        if name.ends_with(".weight") {
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                if i % keep_every != 0 {
                    *v = 0.0;
                } else {
                    *v *= scale;
                }
            }
        } else if name.ends_with(".beta") {
            for (c, v) in t.as_mut_slice().iter_mut().enumerate() {
                *v = 0.3 + 0.2 * (c % 3) as f32;
            }
        }
    }
    params
}

pub fn test_images(cfg: &RunConfig, batch: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = [batch, 3, cfg.image_size, cfg.image_size];
    ndsnn_tensor::init::uniform(dims, 0.0, 1.0, &mut rng)
}

/// The training graph on `params` fires in every LIF layer at a rate
/// strictly between 0 and 1 on `images` (a residual block reports its two
/// LIF layers together), so every conv past the first sees spikes.
pub fn assert_fires(cfg: &RunConfig, params: &BTreeMap<String, Tensor>, images: &Tensor) {
    let mut net = build_network(cfg).expect("build network");
    restore_params_from_map(&mut net.layers, params).expect("restore params");
    net.layers.set_training(false);
    net.forward(images).expect("training forward");
    let rates = net.layers.spike_stats_per_layer();
    assert!(!rates.is_empty(), "{:?}: no LIF layer ran", cfg.arch);
    for (name, s) in &rates {
        let fires = s.spikes > 0 && s.spikes < s.neuron_steps;
        assert!(
            fires,
            "{:?} {name}: {} of {}",
            cfg.arch, s.spikes, s.neuron_steps
        );
    }
}
