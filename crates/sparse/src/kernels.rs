//! Drop-and-grow mask kernels.
//!
//! These implement the paper's Algorithm 1 primitives:
//! `ArgDrop(W, ArgTopK(−|W|, D))` — deactivate the `D` smallest-magnitude
//! active weights ("neuron death"), and
//! `ArgGrow(W, ArgTopK(|Grad|·(M==0), G))` — activate the `G` highest-
//! gradient-magnitude inactive positions ("neuron birth"). SET grows
//! uniformly at random instead.

use ndsnn_snn::layers::Layer;
use ndsnn_tensor::ops::topk::{par_bottom_k_indices_where, par_top_k_indices_where};
use ndsnn_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::mask::MaskSet;

/// Default weight density below which the execution engine dispatches a
/// masked layer through the row-sparse kernels instead of dense GEMM.
///
/// Row-sparse gather costs an index load per active element, so it only pays
/// off once most of the dense work would be wasted multiplies; ~25% density
/// is where the two paths break even on the blocked kernels.
pub const DEFAULT_DENSITY_THRESHOLD: f64 = 0.25;

/// Reads the `NDSNN_DENSITY_THRESHOLD` override, falling back to
/// [`DEFAULT_DENSITY_THRESHOLD`] when unset or unparseable. Set it to a
/// negative value to force dense execution everywhere, or to `1.0` (or more)
/// to force the sparse path for every masked layer.
pub fn density_threshold_from_env() -> f64 {
    ndsnn_tensor::env::density_threshold("NDSNN_DENSITY_THRESHOLD", DEFAULT_DENSITY_THRESHOLD)
}

/// Installs (or clears) sparse execution plans on the model's sparsifiable
/// weights: a layer whose mask density is strictly below `threshold` gets an
/// index-only [`Csr`](ndsnn_tensor::Csr) of its mask in the orientation its
/// kernels walk ([`Param::plan_from_mask`](ndsnn_snn::Param::plan_from_mask):
/// a conv weight's plan is its column view); everything else runs dense.
///
/// Called once after mask initialization, again after every drop-and-grow
/// round, and at restore — the pattern is index-only, so it stays valid
/// across optimizer steps in between and is never rebuilt per step.
/// Returns the number of plans installed.
pub fn install_exec_plans(model: &mut dyn Layer, masks: &MaskSet, threshold: f64) -> usize {
    let mut installed = 0usize;
    model.for_each_param(&mut |param| {
        if !param.is_sparsifiable() {
            return;
        }
        let plan = masks.get(&param.name).and_then(|mask| {
            let n = mask.len();
            if n == 0 {
                return None;
            }
            let density = mask.count_nonzero() as f64 / n as f64;
            if density >= threshold {
                return None;
            }
            Some(param.plan_from_mask(mask.as_slice()))
        });
        installed += plan.is_some() as usize;
        param.plan = plan;
    });
    installed
}

/// Creates a random binary mask of `shape` with exactly
/// `round(density · n)` ones.
pub fn random_mask(shape: &[usize], density: f64, rng: &mut impl Rng) -> Tensor {
    let mut mask = Tensor::zeros(shape);
    let n = mask.len();
    let ones = ((density.clamp(0.0, 1.0)) * n as f64).round() as usize;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let md = mask.as_mut_slice();
    for &i in idx.iter().take(ones) {
        md[i] = 1.0;
    }
    mask
}

/// Drops (sets mask to 0 and weight to 0) the `count` active weights with the
/// smallest magnitude. Returns how many were actually dropped (bounded by the
/// number of active weights).
pub fn drop_by_magnitude(weight: &mut Tensor, mask: &mut Tensor, count: usize) -> usize {
    debug_assert_eq!(weight.dims(), mask.dims());
    let md = mask.as_slice();
    let wd = weight.as_slice();
    let victims = par_bottom_k_indices_where(md.len(), count, |i| md[i] != 0.0, |i| wd[i].abs());
    let dropped = victims.len();
    let md = mask.as_mut_slice();
    let wd = weight.as_mut_slice();
    for i in victims {
        md[i] = 0.0;
        wd[i] = 0.0;
    }
    dropped
}

/// Grows (sets mask to 1) the `count` inactive positions with the largest
/// gradient magnitude — the RigL/NDSNN growth rule. Newly grown weights
/// start at zero (they acquire value from subsequent updates). Returns how
/// many were actually grown.
pub fn grow_by_gradient(
    grad: &Tensor,
    weight: &mut Tensor,
    mask: &mut Tensor,
    count: usize,
) -> usize {
    debug_assert_eq!(weight.dims(), mask.dims());
    debug_assert_eq!(weight.dims(), grad.dims());
    let md = mask.as_slice();
    let gd = grad.as_slice();
    let births = par_top_k_indices_where(md.len(), count, |i| md[i] == 0.0, |i| gd[i].abs());
    let grown = births.len();
    let md = mask.as_mut_slice();
    let wd = weight.as_mut_slice();
    for i in births {
        md[i] = 1.0;
        wd[i] = 0.0;
    }
    grown
}

/// Grows `count` inactive positions chosen uniformly at random — the SET
/// growth rule. Returns how many were grown.
pub fn grow_random(
    weight: &mut Tensor,
    mask: &mut Tensor,
    count: usize,
    rng: &mut impl Rng,
) -> usize {
    debug_assert_eq!(weight.dims(), mask.dims());
    let md = mask.as_slice();
    let mut inactive: Vec<usize> = (0..md.len()).filter(|&i| md[i] == 0.0).collect();
    inactive.shuffle(rng);
    let grown = count.min(inactive.len());
    let md = mask.as_mut_slice();
    let wd = weight.as_mut_slice();
    for &i in inactive.iter().take(grown) {
        md[i] = 1.0;
        wd[i] = 0.0;
    }
    grown
}

/// Builds a mask keeping only the `keep` largest-magnitude weights — the
/// one-shot magnitude pruning used by LTH rounds and ADMM projection.
pub fn top_magnitude_mask(weight: &Tensor, keep: usize) -> Tensor {
    let wd = weight.as_slice();
    let keepers = par_top_k_indices_where(wd.len(), keep, |_| true, |i| wd[i].abs());
    let mut mask = Tensor::zeros(weight.dims());
    let md = mask.as_mut_slice();
    for i in keepers {
        md[i] = 1.0;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn random_mask_density() {
        let mut rng = StdRng::seed_from_u64(90);
        let m = random_mask(&[10, 10], 0.3, &mut rng);
        assert_eq!(m.count_nonzero(), 30);
        assert!(m.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn random_mask_extremes() {
        let mut rng = StdRng::seed_from_u64(91);
        assert_eq!(random_mask(&[5, 5], 0.0, &mut rng).count_nonzero(), 0);
        assert_eq!(random_mask(&[5, 5], 1.0, &mut rng).count_nonzero(), 25);
        // Out-of-range densities are clamped.
        assert_eq!(random_mask(&[5, 5], 2.0, &mut rng).count_nonzero(), 25);
    }

    #[test]
    fn drop_removes_smallest_magnitude() {
        let mut w = Tensor::from_slice(&[0.1, -5.0, 0.01, 3.0, -0.02]);
        let mut m = Tensor::ones([5]);
        let dropped = drop_by_magnitude(&mut w, &mut m, 2);
        assert_eq!(dropped, 2);
        assert_eq!(m.as_slice(), &[1.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(w.as_slice()[2], 0.0);
        assert_eq!(w.as_slice()[4], 0.0);
    }

    #[test]
    fn drop_ignores_inactive() {
        // Index 0 has tiny magnitude but is already inactive.
        let mut w = Tensor::from_slice(&[0.001, 2.0, 1.0]);
        let mut m = Tensor::from_slice(&[0.0, 1.0, 1.0]);
        let dropped = drop_by_magnitude(&mut w, &mut m, 1);
        assert_eq!(dropped, 1);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 0.0]); // index 2 (|1.0|) dropped
    }

    #[test]
    fn drop_bounded_by_active_count() {
        let mut w = Tensor::from_slice(&[1.0, 2.0]);
        let mut m = Tensor::from_slice(&[1.0, 0.0]);
        assert_eq!(drop_by_magnitude(&mut w, &mut m, 10), 1);
        assert_eq!(m.count_nonzero(), 0);
    }

    #[test]
    fn grow_selects_highest_gradient() {
        let g = Tensor::from_slice(&[0.1, -9.0, 0.5, 4.0]);
        let mut w = Tensor::from_slice(&[7.0, 0.0, 0.0, 0.0]);
        let mut m = Tensor::from_slice(&[1.0, 0.0, 0.0, 0.0]);
        let grown = grow_by_gradient(&g, &mut w, &mut m, 2);
        assert_eq!(grown, 2);
        assert_eq!(m.as_slice(), &[1.0, 1.0, 0.0, 1.0]);
        // New weights start at zero; existing weight untouched.
        assert_eq!(w.as_slice(), &[7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn grow_random_only_touches_inactive() {
        let mut rng = StdRng::seed_from_u64(92);
        let mut w = Tensor::from_slice(&[3.0, 0.0, 0.0, 0.0]);
        let mut m = Tensor::from_slice(&[1.0, 0.0, 0.0, 0.0]);
        let grown = grow_random(&mut w, &mut m, 2, &mut rng);
        assert_eq!(grown, 2);
        assert_eq!(m.count_nonzero(), 3);
        assert_eq!(m.as_slice()[0], 1.0);
        assert_eq!(w.as_slice()[0], 3.0);
    }

    #[test]
    fn grow_bounded_by_inactive_count() {
        let mut rng = StdRng::seed_from_u64(93);
        let mut w = Tensor::from_slice(&[1.0, 1.0]);
        let mut m = Tensor::ones([2]);
        assert_eq!(grow_random(&mut w, &mut m, 5, &mut rng), 0);
        let g = Tensor::from_slice(&[1.0, 1.0]);
        assert_eq!(grow_by_gradient(&g, &mut w, &mut m, 5), 0);
    }

    #[test]
    fn top_magnitude_mask_keeps_largest() {
        let w = Tensor::from_slice(&[0.5, -3.0, 0.1, 2.0]);
        let m = top_magnitude_mask(&w, 2);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn install_exec_plans_respects_threshold() {
        use ndsnn_snn::layers::{Linear, Sequential};
        let mut rng = StdRng::seed_from_u64(95);
        let mut m = Sequential::new("m")
            .with(Box::new(
                Linear::new("fc1", 20, 10, false, &mut rng).unwrap(),
            ))
            .with(Box::new(
                Linear::new("fc2", 10, 10, false, &mut rng).unwrap(),
            ));
        let mut masks = MaskSet::new();
        masks.insert("fc1.weight", random_mask(&[10, 20], 0.1, &mut rng));
        masks.insert("fc2.weight", random_mask(&[10, 10], 0.9, &mut rng));
        masks.apply_to_weights(&mut m);

        // Only the 10%-dense layer crosses the 25% threshold.
        assert_eq!(install_exec_plans(&mut m, &masks, 0.25), 1);
        m.for_each_param(&mut |p| match p.name.as_str() {
            "fc1.weight" => {
                let pat = p.exec_pattern().unwrap().expect("fc1 should be sparse");
                assert_eq!(pat.nnz(), masks.get("fc1.weight").unwrap().count_nonzero());
            }
            "fc2.weight" => assert!(p.plan.is_none()),
            _ => {}
        });

        // A negative threshold forces dense everywhere and clears old plans.
        assert_eq!(install_exec_plans(&mut m, &masks, -1.0), 0);
        m.for_each_param(&mut |p| assert!(p.plan.is_none()));

        // Threshold above 1.0 forces the sparse path for every masked layer.
        assert_eq!(install_exec_plans(&mut m, &masks, 1.5), 2);
    }

    #[test]
    fn density_threshold_default() {
        // The env var is unset in the test environment.
        assert_eq!(density_threshold_from_env(), DEFAULT_DENSITY_THRESHOLD);
    }

    #[test]
    fn drop_then_grow_conserves_target() {
        // Mimic one NDSNN round on one layer.
        let mut rng = StdRng::seed_from_u64(94);
        let mut w = ndsnn_tensor::init::uniform([20, 20], -1.0, 1.0, &mut rng);
        let mut m = random_mask(&[20, 20], 0.5, &mut rng);
        ndsnn_tensor::Tensor::mul_assign(&mut w, &m).unwrap();
        let pre = m.count_nonzero(); // 200
        let dropped = drop_by_magnitude(&mut w, &mut m, 40);
        assert_eq!(dropped, 40);
        let g = ndsnn_tensor::init::uniform([20, 20], -1.0, 1.0, &mut rng);
        let target_active = 180; // decreasing-density schedule wants fewer than 200
        let to_grow = target_active - (pre - dropped);
        let grown = grow_by_gradient(&g, &mut w, &mut m, to_grow);
        assert_eq!(grown, 20);
        assert_eq!(m.count_nonzero(), target_active);
    }
}
