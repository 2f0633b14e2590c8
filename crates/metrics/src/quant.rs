//! Quantization accuracy and artifact-size accounting.
//!
//! The int8 inference path trades exact f32 logits for smaller artifacts and
//! multiply-free kernels, so it needs its own scorecard: how far did the
//! logits move, did any argmax flip, and how many bytes did each layer
//! actually save under its chosen index encoding. This module computes both
//! halves from plain slices/rows so it stays independent of the infer crate's
//! artifact types (the infer side converts into [`SizeRow`]s).

use serde::Serialize;

use crate::table::TextTable;

/// Logit drift between a quantized forward and its f32 reference.
///
/// Computed over a full eval set laid out as `batch × classes` row-major
/// slices; argmax agreement uses first-max-wins tie-breaking on both sides so
/// exact ties cannot flip agreement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DriftStats {
    /// Number of samples compared.
    pub samples: usize,
    /// Largest `|quant - reference|` over every logit.
    pub max_abs_drift: f64,
    /// Mean `|quant - reference|` over every logit.
    pub mean_abs_drift: f64,
    /// Fraction of samples whose argmax matches the reference, in `[0, 1]`.
    pub argmax_agreement: f64,
}

/// Index of the first maximum in one logit row (first-max-wins on ties).
fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Compares quantized logits against the f32 reference.
///
/// Both slices are `batch × classes` row-major and must have identical
/// lengths; an empty eval set yields zero drift and full agreement.
///
/// # Panics
/// If the slice lengths differ or are not a multiple of `classes`.
pub fn drift_stats(reference: &[f32], quantized: &[f32], classes: usize) -> DriftStats {
    assert_eq!(
        reference.len(),
        quantized.len(),
        "drift_stats: logit slices must match"
    );
    assert!(classes > 0, "drift_stats: classes must be positive");
    assert_eq!(
        reference.len() % classes,
        0,
        "drift_stats: logits must be batch x classes"
    );
    let samples = reference.len() / classes;
    let mut max_abs = 0.0f64;
    let mut sum_abs = 0.0f64;
    let mut agree = 0usize;
    for (r_row, q_row) in reference
        .chunks_exact(classes)
        .zip(quantized.chunks_exact(classes))
    {
        for (&r, &q) in r_row.iter().zip(q_row.iter()) {
            let d = (f64::from(q) - f64::from(r)).abs();
            max_abs = max_abs.max(d);
            sum_abs += d;
        }
        if argmax(r_row) == argmax(q_row) {
            agree += 1;
        }
    }
    DriftStats {
        samples,
        max_abs_drift: max_abs,
        mean_abs_drift: if reference.is_empty() {
            0.0
        } else {
            sum_abs / reference.len() as f64
        },
        argmax_agreement: if samples == 0 {
            1.0
        } else {
            agree as f64 / samples as f64
        },
    }
}

/// One layer's artifact-size accounting row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SizeRow {
    /// Layer name from the artifact manifest.
    pub name: String,
    /// Bytes this layer's weights occupy in the f32 artifact.
    pub f32_bytes: usize,
    /// Bytes the same weights occupy after compression.
    pub compressed_bytes: usize,
    /// Index encoding label (`"bitmap"`, `"delta"`, or `"f32"` for layers
    /// the quantizer kept in float).
    pub encoding: String,
    /// Relative L2 reconstruction error of the quantized weights.
    pub rel_error: f64,
}

impl SizeRow {
    /// Compression ratio `f32_bytes / compressed_bytes` (0 when empty).
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.f32_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Whole-artifact size summary aggregated over [`SizeRow`]s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SizeSummary {
    /// Total f32 weight bytes.
    pub f32_bytes: usize,
    /// Total compressed weight bytes.
    pub compressed_bytes: usize,
    /// Aggregate compression ratio.
    pub ratio: f64,
    /// Number of layers actually quantized (encoding != "f32").
    pub quantized_layers: usize,
    /// Total layers accounted.
    pub total_layers: usize,
}

/// Sums per-layer rows into a whole-artifact summary.
pub fn size_summary(rows: &[SizeRow]) -> SizeSummary {
    let f32_bytes: usize = rows.iter().map(|r| r.f32_bytes).sum();
    let compressed_bytes: usize = rows.iter().map(|r| r.compressed_bytes).sum();
    SizeSummary {
        f32_bytes,
        compressed_bytes,
        ratio: if compressed_bytes == 0 {
            0.0
        } else {
            f32_bytes as f64 / compressed_bytes as f64
        },
        quantized_layers: rows.iter().filter(|r| r.encoding != "f32").count(),
        total_layers: rows.len(),
    }
}

/// Renders the per-layer size table plus a totals row.
pub fn size_table(title: &str, rows: &[SizeRow]) -> String {
    let mut t = TextTable::new(title).header(&[
        "layer",
        "encoding",
        "f32 bytes",
        "compressed",
        "ratio",
        "rel err",
    ]);
    for r in rows {
        t.row(vec![
            r.name.clone(),
            r.encoding.clone(),
            r.f32_bytes.to_string(),
            r.compressed_bytes.to_string(),
            format!("{:.2}x", r.ratio()),
            format!("{:.4}", r.rel_error),
        ]);
    }
    let total = size_summary(rows);
    t.row(vec![
        "TOTAL".to_string(),
        format!("{}/{} quant", total.quantized_layers, total.total_layers),
        total.f32_bytes.to_string(),
        total.compressed_bytes.to_string(),
        format!("{:.2}x", total.ratio),
        String::new(),
    ]);
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_on_identical_logits_is_zero_with_full_agreement() {
        let logits = [0.5f32, -1.0, 2.0, 3.0, 0.0, -2.0];
        let s = drift_stats(&logits, &logits, 3);
        assert_eq!(s.samples, 2);
        assert_eq!(s.max_abs_drift, 0.0);
        assert_eq!(s.mean_abs_drift, 0.0);
        assert_eq!(s.argmax_agreement, 1.0);
    }

    #[test]
    fn drift_counts_argmax_flips_and_magnitudes() {
        let reference = [1.0f32, 0.0, 0.0, 1.0];
        // First sample drifts but keeps its argmax; second flips it.
        let quantized = [0.9f32, 0.0, 1.0, 0.5];
        let s = drift_stats(&reference, &quantized, 2);
        assert_eq!(s.samples, 2);
        // Inputs round-trip through f32, so 0.1 is only approximate.
        assert!((s.max_abs_drift - 1.0).abs() < 1e-6);
        assert!((s.mean_abs_drift - (0.1 + 1.0 + 0.5) / 4.0).abs() < 1e-6);
        assert_eq!(s.argmax_agreement, 0.5);
    }

    #[test]
    fn drift_ties_break_first_max_on_both_sides() {
        // Both rows tie between class 0 and 1; first-max-wins agrees.
        let reference = [2.0f32, 2.0];
        let quantized = [3.0f32, 3.0];
        let s = drift_stats(&reference, &quantized, 2);
        assert_eq!(s.argmax_agreement, 1.0);
    }

    #[test]
    fn empty_eval_set_is_neutral() {
        let s = drift_stats(&[], &[], 4);
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean_abs_drift, 0.0);
        assert_eq!(s.argmax_agreement, 1.0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_slices_panic() {
        drift_stats(&[1.0], &[1.0, 2.0], 1);
    }

    fn rows() -> Vec<SizeRow> {
        vec![
            SizeRow {
                name: "c1".to_string(),
                f32_bytes: 4000,
                compressed_bytes: 4000,
                encoding: "f32".to_string(),
                rel_error: 0.0,
            },
            SizeRow {
                name: "c2".to_string(),
                f32_bytes: 8000,
                compressed_bytes: 1000,
                encoding: "delta".to_string(),
                rel_error: 0.01,
            },
        ]
    }

    #[test]
    fn summary_aggregates_bytes_and_quantized_count() {
        let s = size_summary(&rows());
        assert_eq!(s.f32_bytes, 12_000);
        assert_eq!(s.compressed_bytes, 5_000);
        assert!((s.ratio - 2.4).abs() < 1e-12);
        assert_eq!(s.quantized_layers, 1);
        assert_eq!(s.total_layers, 2);
    }

    #[test]
    fn table_renders_layers_and_totals() {
        let out = size_table("sizes", &rows());
        assert!(out.contains("c2"));
        assert!(out.contains("8.00x"));
        assert!(out.contains("TOTAL"));
        assert!(out.contains("1/2 quant"));
    }

    #[test]
    fn empty_rows_ratio_is_zero() {
        let s = size_summary(&[]);
        assert_eq!(s.ratio, 0.0);
        let r = SizeRow {
            name: "e".to_string(),
            f32_bytes: 0,
            compressed_bytes: 0,
            encoding: "f32".to_string(),
            rel_error: 0.0,
        };
        assert_eq!(r.ratio(), 0.0);
    }
}
