//! Every input the benchmark feeds the program, derived from `--seed`.
//!
//! Nothing here calls into the program's own traffic or synthetic-model
//! helpers: if those change, the workload must not change with them. The
//! one program call is `build_network`, whose freshly initialized weights are
//! the raw material the ERK masks and QAT snapping are applied to.

use std::collections::BTreeMap;
use std::time::Duration;

use ndsnn::checkpoint::snapshot_params;
use ndsnn::config::RunConfig;
use ndsnn::trainer::build_network;
use ndsnn_sparse::distribution::{layer_densities, Distribution, LayerShape};
use ndsnn_tensor::Tensor;

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, tag)`; distinct tags give independent streams.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stream tags, so no two inputs of one run share a stream.
pub mod tag {
    pub const ARRIVALS: u64 = 1;
    pub const ROUTING: u64 = 2;
    pub const IMAGES: u64 = 3;
    pub const F32_MASK: u64 = 4;
    pub const INT8_MASK: u64 = 5;
}

/// `n` request images of `len` pixels each, uniform in `[0, 1)`.
pub fn images(seed: u64, n: usize, len: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed, tag::IMAGES);
    (0..n)
        .map(|_| (0..len).map(|_| rng.next_f64() as f32).collect())
        .collect()
}

/// Open-loop Poisson arrival times at `rate_rps`, covering `[0, span)`.
pub fn poisson_arrivals(seed: u64, rate_rps: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed, tag::ARRIVALS);
    let end = span.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_rps;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// One model index per request, drawn with probability proportional to
/// `weights`.
pub fn routing(seed: u64, n: usize, weights: &[f64]) -> Vec<usize> {
    let mut rng = Rng::new(seed, tag::ROUTING);
    let total: f64 = weights.iter().sum();
    (0..n)
        .map(|_| {
            let mut u = rng.next_f64() * total;
            for (i, w) in weights.iter().enumerate() {
                if u < *w {
                    return i;
                }
                u -= w;
            }
            weights.len() - 1
        })
        .collect()
}

/// Kept-weight gain on top of the `sqrt(1/density)` variance correction:
/// without it masked init weights are too small to make the deep LIF
/// layers of an untrained network fire, and every request would be the
/// same trivial all-silent forward.
const KEPT_GAIN: f32 = 6.0;

/// Freshly initialized parameters for `cfg`, masked to the ERK per-layer
/// densities for `sparsity` with a mask drawn from `(seed, mask_tag)`, and
/// gain-rescaled. With `qat_snap` every weight row is rounded onto an int8
/// grid with a power-of-two scale, the grid quantization-aware training
/// converges to; on it the int8 kernels are exact, so an int8 artifact must
/// reproduce the f32 artifact's logits bit for bit.
pub fn erk_params(
    cfg: &RunConfig,
    sparsity: f64,
    seed: u64,
    mask_tag: u64,
    qat_snap: bool,
) -> Result<BTreeMap<String, Tensor>, String> {
    let mut net = build_network(cfg).map_err(|e| e.to_string())?;
    let mut params = snapshot_params(&mut net.layers);
    let shapes: Vec<LayerShape> = params
        .iter()
        .filter(|(n, _)| n.ends_with(".weight"))
        .map(|(n, t)| LayerShape {
            name: n.clone(),
            dims: t.dims().to_vec(),
        })
        .collect();
    let densities =
        layer_densities(Distribution::Erk, &shapes, sparsity).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed, mask_tag);
    for (shape, density) in shapes.iter().zip(densities) {
        let t = params
            .get_mut(&shape.name)
            .expect("shapes come from params");
        let gain = (1.0 / density as f32).sqrt() * KEPT_GAIN;
        for v in t.as_mut_slice() {
            if rng.next_f64() < density {
                *v *= gain;
            } else {
                *v = 0.0;
            }
        }
        if qat_snap {
            snap_rows_pow2(t);
        }
    }
    Ok(params)
}

/// Rounds every output row of `t` onto `q · 2^k` with `|q| ≤ 127`, pinning
/// the row's largest entry to `±127 · 2^k` so a quantizer that takes the row
/// maximum over 127 recovers exactly that scale.
fn snap_rows_pow2(t: &mut Tensor) {
    let rows = t.dims()[0];
    let cols = t.len() / rows.max(1);
    for row in t.as_mut_slice().chunks_mut(cols.max(1)) {
        let Some((imax, absmax)) = row
            .iter()
            .map(|v| v.abs())
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            continue;
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use ndsnn::config::{DatasetKind, MethodSpec};
    use ndsnn::profile::Profile;
    use ndsnn_snn::models::Architecture;

    fn smoke_cfg() -> RunConfig {
        Profile::Smoke.run_config(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let span = Duration::from_secs(2);
        assert_eq!(
            poisson_arrivals(7, 200.0, span),
            poisson_arrivals(7, 200.0, span)
        );
        assert_ne!(
            poisson_arrivals(7, 200.0, span),
            poisson_arrivals(8, 200.0, span)
        );
        assert_eq!(routing(7, 500, &[2.0, 1.0]), routing(7, 500, &[2.0, 1.0]));
        assert_ne!(routing(7, 500, &[2.0, 1.0]), routing(8, 500, &[2.0, 1.0]));
        assert_eq!(images(7, 3, 16), images(7, 3, 16));
        assert_ne!(images(7, 3, 16), images(8, 3, 16));

        let cfg = smoke_cfg();
        let a = erk_params(&cfg, 0.8, 7, tag::INT8_MASK, true).unwrap();
        let b = erk_params(&cfg, 0.8, 7, tag::INT8_MASK, true).unwrap();
        let c = erk_params(&cfg, 0.8, 8, tag::INT8_MASK, true).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_match_rate_and_routing_matches_weights() {
        let arrivals = poisson_arrivals(3, 500.0, Duration::from_secs(20));
        let n = arrivals.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        let picks = routing(3, 30_000, &[2.0, 1.0]);
        let first = picks.iter().filter(|&&m| m == 0).count() as f64 / 30_000.0;
        assert!((first - 2.0 / 3.0).abs() < 0.02, "{first}");
    }

    #[test]
    fn erk_masks_hit_the_target_sparsity_on_a_pow2_grid() {
        let cfg = smoke_cfg();
        let params = erk_params(&cfg, 0.8, 1, tag::INT8_MASK, true).unwrap();
        let (mut zeros, mut total) = (0usize, 0usize);
        for (name, t) in &params {
            if !name.ends_with(".weight") {
                continue;
            }
            total += t.len();
            zeros += t.as_slice().iter().filter(|&&v| v == 0.0).count();
            let cols = t.len() / t.dims()[0];
            for row in t.as_slice().chunks(cols) {
                let max = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                if max > 0.0 {
                    let scale = max / 127.0;
                    assert_eq!(scale, scale.log2().round().exp2(), "{name}");
                    assert!(row.iter().all(|v| (v / scale).fract() == 0.0), "{name}");
                }
            }
        }
        let sparsity = zeros as f64 / total as f64;
        assert!((sparsity - 0.8).abs() < 0.05, "sparsity {sparsity}");
    }
}
