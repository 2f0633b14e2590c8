//! Synthetic sparse-network substrates for the quantization gates.
//!
//! The quant parity gate needs a Small VGG-16 whose deep LIF layers
//! actually fire: a freshly initialized net is useless twice over —
//! masked init weights are too small to drive spikes through thirteen
//! layers, and the strided modulo mask the older parity tests use
//! collapses onto whole 3×3-kernel columns (every `keep_every`-th flat
//! index with `keep_every | 9` keeps exactly one kernel column), which on
//! the Small profile's tiny feature maps structurally zeroes deep
//! pre-activations. This module builds the substrate those tests share:
//!
//! 1. **ERK masking** with an unstructured seeded-hash mask — the pattern
//!    real pruning produces — at the paper's per-layer densities;
//! 2. **spike-rate gain**: kept entries scale by `sqrt(1/density) ·
//!    INIT_GAIN`, standing in for trained weight magnitudes so every LIF
//!    layer fires in the 20–50% band;
//! 3. optional **QAT snapping**: quantizable weights are rounded onto a
//!    per-output-channel int8 grid whose scale is a power of two, with the
//!    row maximum pinned to ±127·scale. Quantization-aware training
//!    converges to exactly such grids, and the choice makes the int8 path
//!    *bit-exact*: `q·2^k` is exact in f32, binary-spike partial sums stay
//!    integral below 2^24, so the f32 reference and the i32 gather-add
//!    kernels produce identical bits and the argmax-agreement gate proves
//!    end-to-end execution correctness instead of sampling the chaotic
//!    spike-flip amplification an *untrained* net exhibits under lossy
//!    rounding (measured: 63% agreement at ERK 80% — see DESIGN.md §15).

use std::collections::BTreeMap;

use ndsnn::checkpoint::snapshot_params;
use ndsnn::config::RunConfig;
use ndsnn::trainer::build_network;
use ndsnn_sparse::distribution::{layer_densities, Distribution, LayerShape};
use ndsnn_tensor::Tensor;

/// Kept-weight gain multiplier on top of the `sqrt(1/density)` variance
/// correction (see module docs).
pub const INIT_GAIN: f32 = 6.0;

/// Rounds every output-channel row of `t` onto an int8 grid with a
/// power-of-two scale, pinning the row's largest-magnitude entry to
/// ±127·scale so the artifact quantizer recovers the exact same scale.
fn snap_rows_pow2(t: &mut Tensor) {
    let dims = t.dims().to_vec();
    let rows = dims[0];
    let cols: usize = dims[1..].iter().product();
    let s = t.as_mut_slice();
    for r in 0..rows {
        let row = &mut s[r * cols..(r + 1) * cols];
        let (mut imax, mut absmax) = (0usize, 0.0f32);
        for (i, v) in row.iter().enumerate() {
            if v.abs() > absmax {
                absmax = v.abs();
                imax = i;
            }
        }
        if absmax == 0.0 {
            continue;
        }
        let scale = (absmax / 127.0).log2().ceil().exp2();
        for v in row.iter_mut() {
            *v = (*v / scale).round().clamp(-127.0, 127.0) * scale;
        }
        row[imax] = row[imax].signum() * 127.0 * scale;
    }
}

/// Freshly initialized parameters for `cfg`, ERK-masked to `sparsity` and
/// gain-rescaled; with `qat_snap` the quantizable weights (everything but
/// the first conv, which the compile-time walk never quantizes) are
/// snapped onto their int8 grid.
pub fn erk_sparse_params(
    cfg: &RunConfig,
    sparsity: f64,
    qat_snap: bool,
) -> BTreeMap<String, Tensor> {
    let mut net = build_network(cfg).expect("build network");
    let mut params = snapshot_params(&mut net.layers);
    let shapes: Vec<LayerShape> = params
        .iter()
        .filter(|(n, _)| n.ends_with(".weight"))
        .map(|(n, t)| LayerShape {
            name: n.clone(),
            dims: t.dims().to_vec(),
        })
        .collect();
    let densities = layer_densities(Distribution::Erk, &shapes, sparsity).expect("ERK densities");
    let by_name: BTreeMap<&str, f64> = shapes
        .iter()
        .map(|s| s.name.as_str())
        .zip(densities.iter().copied())
        .collect();
    for (name, t) in params.iter_mut() {
        let Some(&d) = by_name.get(name.as_str()) else {
            continue;
        };
        let gain = (1.0 / d as f32).sqrt() * INIT_GAIN;
        // Unstructured deterministic mask: one LCG step per entry, keep
        // with probability `d`. Seeded by the name length only so the same
        // layer shape always gets the same mask.
        let mut h = 0xcbf29ce484222325u64 ^ name.len() as u64;
        for v in t.as_mut_slice().iter_mut() {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (h >> 33) as f64 / (1u64 << 31) as f64 >= d {
                *v = 0.0;
            } else {
                *v *= gain;
            }
        }
        if qat_snap && !name.ends_with("conv0.weight") {
            snap_rows_pow2(t);
        }
    }
    params
}
