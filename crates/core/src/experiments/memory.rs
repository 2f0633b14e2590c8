//! §III.D memory-footprint analysis: the analytic model over sparsity and
//! timesteps, cross-checked against actual CSR measurements of a trained
//! sparse model.

use ndsnn_metrics::table::TextTable;
use ndsnn_snn::models::Architecture;
use ndsnn_sparse::memory::{dense_footprint_bits, footprint_bits_approx, Precision};
use ndsnn_tensor::Csr;
use serde::{Deserialize, Serialize};

use crate::config::{DatasetKind, MethodSpec};
use crate::error::Result;
use crate::profile::Profile;
use crate::trainer::build_network;

/// One row of the footprint table.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FootprintRow {
    /// Sparsity θ.
    pub sparsity: f64,
    /// Timesteps t.
    pub timesteps: usize,
    /// Model-defined footprint (bits) from the analytic approximation.
    pub model_bits: f64,
    /// Ratio vs the dense model.
    pub vs_dense: f64,
}

/// Analytic footprint sweep for a parameter count `n`.
pub fn footprint_sweep(n: usize, sparsities: &[f64], timesteps: &[usize]) -> Vec<FootprintRow> {
    let p = Precision::fp32_training();
    let mut rows = Vec::new();
    for &t in timesteps {
        let dense = dense_footprint_bits(n, t, p);
        for &s in sparsities {
            let bits = footprint_bits_approx(n, s, t, p);
            rows.push(FootprintRow {
                sparsity: s,
                timesteps: t,
                model_bits: bits,
                vs_dense: bits / dense,
            });
        }
    }
    rows
}

/// Measured CSR statistics of one trained model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CsrMeasurement {
    /// Total weights.
    pub total_weights: usize,
    /// Non-zeros stored.
    pub nnz: usize,
    /// Actual CSR bits (FP32 values, 16-bit indices).
    pub csr_bits: u64,
    /// Dense storage bits for the same weights.
    pub dense_bits: u64,
    /// Analytic model prediction for the measured sparsity (weights-only,
    /// i.e. `t = 0`).
    pub model_bits: f64,
}

/// Sparsifies a VGG-16 to exactly `sparsity` (RigL-style ERK masks) and
/// measures the real CSR footprint of its weights, validating the analytic
/// model against actual storage.
pub fn measure_sparse_model(profile: Profile, sparsity: f64) -> Result<CsrMeasurement> {
    let cfg = profile.run_config(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Rigl { sparsity },
    );
    let mut net = build_network(&cfg)?;
    let mut engine = crate::trainer::build_engine(&cfg, 8)?;
    engine.init(&mut net.layers)?;
    let p = Precision::fp32_training();
    let mut total_weights = 0usize;
    let mut nnz = 0usize;
    let mut csr_bits = 0u64;
    use ndsnn_snn::layers::Layer;
    net.layers.for_each_param(&mut |param| {
        if !param.is_sparsifiable() {
            return;
        }
        total_weights += param.len();
        let csr = Csr::from_weight(&param.value);
        if let Ok(csr) = csr {
            nnz += csr.nnz();
            csr_bits += csr.storage_bits(p.weight_bits, p.index_bits);
        }
    });
    let measured_sparsity = 1.0 - nnz as f64 / total_weights.max(1) as f64;
    Ok(CsrMeasurement {
        total_weights,
        nnz,
        csr_bits,
        dense_bits: total_weights as u64 * p.weight_bits as u64,
        model_bits: footprint_bits_approx(total_weights, measured_sparsity, 0, p),
    })
}

/// Renders the analytic sweep as a table.
pub fn render_sweep(rows: &[FootprintRow]) -> String {
    let mut table =
        TextTable::new("§III.D — training memory footprint (FP32 weights+grads, 16-bit indices)")
            .header(&["sparsity", "timesteps", "footprint (Mbit)", "vs dense"]);
    for r in rows {
        table.row(vec![
            format!("{:.2}", r.sparsity),
            format!("{}", r.timesteps),
            format!("{:.2}", r.model_bits / 1e6),
            format!("{:.3}", r.vs_dense),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_and_monotonicity() {
        let rows = footprint_sweep(1_000_000, &[0.0, 0.5, 0.9, 0.99], &[2, 5]);
        assert_eq!(rows.len(), 8);
        // For fixed t, footprint decreases with sparsity.
        for w in rows[..4].windows(2) {
            assert!(w[1].model_bits < w[0].model_bits);
        }
        // θ=0 sparse format costs more than dense.
        assert!(rows[0].vs_dense > 1.0);
        assert!(rows[3].vs_dense < 0.05);
        let rendered = render_sweep(&rows);
        assert!(rendered.contains("vs dense"));
    }

    #[test]
    fn csr_measurement_matches_model() {
        let m = measure_sparse_model(Profile::Smoke, 0.8).unwrap();
        assert!(m.total_weights > 0);
        let measured_sparsity = 1.0 - m.nnz as f64 / m.total_weights as f64;
        assert!(
            (measured_sparsity - 0.8).abs() < 0.05,
            "mask sparsity off target: {measured_sparsity}"
        );
        // Values+indices model (t=0) vs actual CSR bits: within 10%
        // (row-pointer overhead is the only difference).
        let rel = (m.csr_bits as f64 - m.model_bits).abs() / m.model_bits;
        assert!(rel < 0.1, "model mismatch: {rel}");
    }
}
