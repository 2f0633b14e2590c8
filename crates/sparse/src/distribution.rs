//! Layer-wise sparsity distributions.
//!
//! Given a global target sparsity θ, a distribution decides each layer's
//! sparsity θˡ so the weighted average hits θ. The paper uses ERK
//! (Erdős–Rényi-Kernel, from SET/RigL — references [23, 25]): layer density
//! is proportional to `(n_in + n_out + kh + kw) / (n_in·n_out·kh·kw)`,
//! which keeps small layers denser than large ones.

use serde::{Deserialize, Serialize};

use crate::error::{Result, SparseError};

/// Which layer-wise distribution to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Distribution {
    /// Erdős–Rényi-Kernel scaling (paper default).
    #[default]
    Erk,
    /// Same sparsity for every layer.
    Uniform,
}

/// A layer's weight-shape summary used to compute its ERK score.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerShape {
    /// Parameter name (matches `Param::name`).
    pub name: String,
    /// Weight dimensions (`[out, in]` or `[out_c, in_c, kh, kw]`).
    pub dims: Vec<usize>,
}

impl LayerShape {
    /// Total weight count.
    pub fn num_weights(&self) -> usize {
        self.dims.iter().product()
    }

    /// Raw ERK density score: `sum(dims) / prod(dims)`.
    ///
    /// For a conv layer `(F, C, KH, KW)` this is
    /// `(F + C + KH + KW) / (F·C·KH·KW)` — the paper's §III.C scaling
    /// `1 − (n^{l−1} + n^l + w^l + h^l)/(n^{l−1}·n^l·w^l·h^l)` expressed as a
    /// density proportion. For a linear layer it reduces to the Erdős–Rényi
    /// score `(in + out)/(in·out)`.
    pub fn erk_score(&self) -> f64 {
        let sum: usize = self.dims.iter().sum();
        let prod = self.num_weights();
        if prod == 0 {
            0.0
        } else {
            sum as f64 / prod as f64
        }
    }
}

/// Computes per-layer densities that average (weighted by layer size) to
/// `1 − sparsity`.
///
/// ERK may assign a raw density above 1.0 to small layers; those layers are
/// fixed at fully dense and the remaining budget is redistributed, iterating
/// until feasible (the standard RigL implementation).
pub fn layer_densities(
    dist: Distribution,
    layers: &[LayerShape],
    sparsity: f64,
) -> Result<Vec<f64>> {
    if !(0.0..=1.0).contains(&sparsity) {
        return Err(SparseError::InvalidConfig(format!(
            "sparsity must be in [0,1], got {sparsity}"
        )));
    }
    if layers.is_empty() {
        return Ok(Vec::new());
    }
    let density = 1.0 - sparsity;
    match dist {
        Distribution::Uniform => Ok(vec![density; layers.len()]),
        Distribution::Erk => {
            let n: Vec<f64> = layers.iter().map(|l| l.num_weights() as f64).collect();
            let raw: Vec<f64> = layers.iter().map(|l| l.erk_score()).collect();
            let total: f64 = n.iter().sum();
            let target_nonzero = density * total;
            let mut dense = vec![false; layers.len()];
            loop {
                // Solve eps: sum_dense N_l + eps * sum_sparse N_l*raw_l = target.
                let dense_nonzero: f64 = n
                    .iter()
                    .zip(&dense)
                    .filter(|(_, &d)| d)
                    .map(|(nl, _)| nl)
                    .sum();
                let sparse_weighted: f64 = n
                    .iter()
                    .zip(&raw)
                    .zip(&dense)
                    .filter(|(_, &d)| !d)
                    .map(|((nl, rl), _)| nl * rl)
                    .sum();
                if sparse_weighted <= 0.0 {
                    // Everything dense; only consistent if target >= total.
                    break;
                }
                let eps = (target_nonzero - dense_nonzero) / sparse_weighted;
                // Find the worst violator (density > 1).
                let mut worst: Option<(usize, f64)> = None;
                for (i, &r) in raw.iter().enumerate() {
                    if dense[i] {
                        continue;
                    }
                    let d = eps * r;
                    if d > 1.0 + 1e-12 {
                        match worst {
                            Some((_, wd)) if d <= wd => {}
                            _ => worst = Some((i, d)),
                        }
                    }
                }
                match worst {
                    Some((i, _)) => dense[i] = true,
                    None => {
                        // Feasible: emit densities.
                        let out: Vec<f64> = raw
                            .iter()
                            .zip(&dense)
                            .map(|(&r, &d)| if d { 1.0 } else { (eps * r).clamp(0.0, 1.0) })
                            .collect();
                        return Ok(out);
                    }
                }
            }
            Ok(vec![1.0; layers.len()])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<LayerShape> {
        vec![
            LayerShape {
                name: "conv1".into(),
                dims: vec![16, 3, 3, 3],
            },
            LayerShape {
                name: "conv2".into(),
                dims: vec![64, 64, 3, 3],
            },
            LayerShape {
                name: "fc".into(),
                dims: vec![10, 512],
            },
        ]
    }

    fn overall(densities: &[f64], layers: &[LayerShape]) -> f64 {
        let total: f64 = layers.iter().map(|l| l.num_weights() as f64).sum();
        let nonzero: f64 = densities
            .iter()
            .zip(layers)
            .map(|(d, l)| d * l.num_weights() as f64)
            .sum();
        nonzero / total
    }

    #[test]
    fn uniform_assigns_same_density() {
        let d = layer_densities(Distribution::Uniform, &shapes(), 0.9).unwrap();
        assert!(d.iter().all(|&x| (x - 0.1).abs() < 1e-12));
    }

    #[test]
    fn erk_hits_overall_density() {
        for target in [0.5, 0.8, 0.9, 0.95, 0.99] {
            let layers = shapes();
            let d = layer_densities(Distribution::Erk, &layers, target).unwrap();
            let got = overall(&d, &layers);
            assert!(
                (got - (1.0 - target)).abs() < 1e-9,
                "target sparsity {target}: overall density {got}"
            );
        }
    }

    #[test]
    fn erk_keeps_small_layers_denser() {
        let layers = shapes();
        let d = layer_densities(Distribution::Erk, &layers, 0.9).unwrap();
        // conv1 is much smaller than conv2 → higher density.
        assert!(d[0] > d[1], "small layer not denser: {d:?}");
    }

    #[test]
    fn erk_caps_at_one_and_redistributes() {
        // Extreme: a tiny layer plus a huge one at modest sparsity → tiny
        // layer pinned dense.
        let layers = vec![
            LayerShape {
                name: "tiny".into(),
                dims: vec![2, 2],
            },
            LayerShape {
                name: "huge".into(),
                dims: vec![1000, 1000],
            },
        ];
        let d = layer_densities(Distribution::Erk, &layers, 0.5).unwrap();
        assert!(
            (d[0] - 1.0).abs() < 1e-12,
            "tiny layer should be dense: {d:?}"
        );
        let got = overall(&d, &layers);
        assert!((got - 0.5).abs() < 1e-9);
        assert!(d.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn monotone_in_target() {
        // Higher global sparsity → every layer at least as sparse.
        let layers = shapes();
        let d90 = layer_densities(Distribution::Erk, &layers, 0.90).unwrap();
        let d99 = layer_densities(Distribution::Erk, &layers, 0.99).unwrap();
        for (a, b) in d90.iter().zip(&d99) {
            assert!(
                b <= a,
                "density increased with sparsity: {d90:?} vs {d99:?}"
            );
        }
    }

    #[test]
    fn invalid_sparsity_rejected() {
        assert!(layer_densities(Distribution::Erk, &shapes(), 1.5).is_err());
        assert!(layer_densities(Distribution::Erk, &shapes(), -0.1).is_err());
    }

    #[test]
    fn empty_layers_ok() {
        assert!(layer_densities(Distribution::Erk, &[], 0.9)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn erk_score_formula() {
        let l = LayerShape {
            name: "c".into(),
            dims: vec![4, 2, 3, 3],
        };
        assert!((l.erk_score() - (4.0 + 2.0 + 3.0 + 3.0) / 72.0).abs() < 1e-12);
    }
}
