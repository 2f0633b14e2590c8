//! Row-sparse matrix products over a packed sparsity *pattern*.
//!
//! The NDSNN drop-and-grow schedule keeps masked weights exactly zero in the
//! dense tensor, so a layer's sparsity is a property of its *mask*, not of
//! the float values: the mask only changes every ΔT iterations while the
//! active values change every optimizer step. The plan is therefore an
//! index-only [`Csr`] of the mask ([`Csr::from_mask`]); the kernels
//! gather current values from the dense weight at use time. Packing is
//! amortized across all the iterations between mask updates, and the kernels
//! never read a stale weight.
//!
//! The conv kernels [`sp_mm`] and [`sp_mm_t`] read the plan's *column view*
//! ([`Csr::from_mask_transposed`]: row `c` lists the live rows of weight
//! column `c`), the view the spike kernel of [`crate::ops::spike`] walks per
//! fired col row, so a conv layer keeps one plan. Walking a column view
//! down the row-major weight would stride, so a caller gathers the live
//! values once per call ([`plan_values`]) and every sample reads them
//! contiguously. The per-element chains do not depend on the orientation:
//! each output element still sums its live terms in ascending order. The
//! linear kernels read the row view ([`Csr::from_mask`]); a frozen model
//! has no stale values to avoid, so its linear layers run a value-carrying
//! `Csr<f32>` ([`csr_xwt`]) and its convs that weight's column view with
//! values ([`Csr::column_view`]).
//!
//! Kernels accumulate (`out +=`), matching the dense kernels in
//! [`crate::ops::matmul`]; callers pass zeroed outputs for plain products.

use crate::ops::matmul::for_output_row_ranges;
use crate::Csr;

/// Gathers the live values of a dense row-major weight `w` in the entry
/// order of `pat`, its column view (`cols × rows` for a `rows × cols`
/// weight): `vals[k]` is the weight at entry `k` of `pat`. `vals` is
/// cleared first, so a pooled buffer can be reused. The plan stays
/// index-only; values are read from the live weight at each call.
pub fn plan_values(pat: &Csr, w: &[f32], vals: &mut Vec<f32>) {
    let cols = pat.rows();
    debug_assert_eq!(w.len(), pat.rows() * pat.cols());
    vals.clear();
    for c in 0..cols {
        vals.extend(pat.row(c).iter().map(|&r| w[r as usize * cols + c]));
    }
}

/// Row `c` of the column view `pat`: each live row index of weight column
/// `c` with its value (from [`plan_values`], or a frozen weight's
/// [`Csr::column_view`]), ascending.
pub(crate) fn live_row<'a, V: Copy>(
    pat: &'a Csr,
    vals: &'a [V],
    c: usize,
) -> impl Iterator<Item = (usize, V)> + 'a {
    let span = pat.row_ptr()[c] as usize..pat.row_ptr()[c + 1] as usize;
    let rows = pat.idx()[span.clone()].iter().map(|&r| r as usize);
    rows.zip(vals[span].iter().copied())
}

/// `out(rows × n) += W · b(cols × n)` where `W` is the dense `rows × cols`
/// weight read through `pat`, the `cols × rows` column view of its
/// pattern, with live values `vals` ([`plan_values`]). Each output element
/// sums its live terms in ascending column order.
///
/// Serial by design: the convolution layers call it per sample from inside
/// already-parallel workers.
pub fn sp_mm(pat: &Csr, vals: &[f32], b: &[f32], out: &mut [f32], n: usize) {
    let (cols, rows) = pat.dims();
    debug_assert_eq!(vals.len(), pat.nnz());
    debug_assert_eq!(b.len(), cols * n);
    debug_assert_eq!(out.len(), rows * n);
    for c in 0..cols {
        let brow = &b[c * n..(c + 1) * n];
        for (r, wv) in live_row(pat, vals, c) {
            if wv == 0.0 {
                // Freshly grown connections sit at zero until updated.
                continue;
            }
            let orow = &mut out[r * n..(r + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += wv * bv;
            }
        }
    }
}

/// `out(cols × n) += Wᵀ · b(rows × n)` — the input-gradient product of a
/// pattern-sparse weight, through the same column view and live values as
/// [`sp_mm`]. Each output element sums its live terms in ascending row
/// order. Serial, for the same reason as [`sp_mm`].
pub fn sp_mm_t(pat: &Csr, vals: &[f32], b: &[f32], out: &mut [f32], n: usize) {
    let (cols, rows) = pat.dims();
    debug_assert_eq!(vals.len(), pat.nnz());
    debug_assert_eq!(b.len(), rows * n);
    debug_assert_eq!(out.len(), cols * n);
    for c in 0..cols {
        let orow = &mut out[c * n..(c + 1) * n];
        for (r, wv) in live_row(pat, vals, c) {
            if wv == 0.0 {
                continue;
            }
            let brow = &b[r * n..(r + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += wv * bv;
            }
        }
    }
}

/// `y(batch × rows) += x(batch × cols) · Wᵀ` — the linear-layer forward with
/// a pattern-sparse weight. Threads over batch samples (disjoint `y` rows).
///
/// The `x == 0.0` skip serves spiking inputs (mostly-zero activations riding
/// on an already-sparse weight); it is exact for the same reason as the
/// dense-kernel zero-skips (see [`crate::ops::spike`]): the accumulator is
/// `+0.0`-seeded, so dropped `±0.0` terms cannot change it.
pub fn sp_xwt(pat: &Csr, w: &[f32], x: &[f32], y: &mut [f32], batch: usize) {
    debug_assert_eq!(w.len(), pat.rows() * pat.cols());
    debug_assert_eq!(x.len(), batch * pat.cols());
    debug_assert_eq!(y.len(), batch * pat.rows());
    for_output_row_ranges(
        y,
        batch,
        pat.rows(),
        batch * pat.nnz(),
        |s0, count, y_rows| {
            for s in 0..count {
                let xrow = &x[(s0 + s) * pat.cols()..(s0 + s + 1) * pat.cols()];
                let yrow = &mut y_rows[s * pat.rows()..(s + 1) * pat.rows()];
                for (r, yv) in yrow.iter_mut().enumerate() {
                    let wrow = &w[r * pat.cols()..(r + 1) * pat.cols()];
                    let mut acc = 0.0f32;
                    for &ci in pat.row(r) {
                        let xv = xrow[ci as usize];
                        if xv == 0.0 {
                            continue;
                        }
                        acc += wrow[ci as usize] * xv;
                    }
                    *yv += acc;
                }
            }
        },
    );
}

/// [`sp_xwt`] over a frozen value-carrying weight: `y(batch × rows) +=
/// x(batch × cols) · Wᵀ` with `W` in CSR — the frozen linear-layer forward,
/// on the same row partition.
///
/// Bit-identical to [`crate::ops::matmul::matmul_a_bt`] and to [`sp_xwt`]
/// on the equivalent dense weight: per output element the stored terms are
/// accumulated in ascending-column order into a `+0.0`-seeded register, and
/// the terms CSR does not store are exact dense zeros whose `±0.0`
/// contributions cannot change such a chain (the zero-skip argument of
/// [`crate::ops::spike`]). The `x == 0.0` skip serves spiking activations.
pub fn csr_xwt(w: &Csr<f32>, x: &[f32], y: &mut [f32], batch: usize) {
    let (rows, cols) = w.dims();
    debug_assert_eq!(x.len(), batch * cols);
    debug_assert_eq!(y.len(), batch * rows);
    for_output_row_ranges(y, batch, rows, batch * w.nnz(), |s0, count, y_rows| {
        for s in 0..count {
            let xrow = &x[(s0 + s) * cols..(s0 + s + 1) * cols];
            let yrow = &mut y_rows[s * rows..(s + 1) * rows];
            for (r, yv) in yrow.iter_mut().enumerate() {
                let (cis, vals) = w.row_entries(r);
                let mut acc = 0.0f32;
                for (&ci, &wv) in cis.iter().zip(vals) {
                    let xv = xrow[ci as usize];
                    if xv == 0.0 {
                        continue;
                    }
                    acc += wv * xv;
                }
                *yv += acc;
            }
        }
    });
}

/// `dx(batch × cols) += gy(batch × rows) · W` — the linear-layer input
/// gradient with a pattern-sparse weight. Threads over batch samples.
///
/// The zero-skip on `gy` matters on the BPTT hot path, where the upstream
/// gradient passes through spike surrogates and carries many exact zeros.
pub fn sp_gy_w(pat: &Csr, w: &[f32], gy: &[f32], dx: &mut [f32], batch: usize) {
    debug_assert_eq!(w.len(), pat.rows() * pat.cols());
    debug_assert_eq!(gy.len(), batch * pat.rows());
    debug_assert_eq!(dx.len(), batch * pat.cols());
    for_output_row_ranges(
        dx,
        batch,
        pat.cols(),
        batch * pat.nnz(),
        |s0, count, dx_rows| {
            for s in 0..count {
                let gyrow = &gy[(s0 + s) * pat.rows()..(s0 + s + 1) * pat.rows()];
                let dxrow = &mut dx_rows[s * pat.cols()..(s + 1) * pat.cols()];
                for (r, &g) in gyrow.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    let wrow = &w[r * pat.cols()..(r + 1) * pat.cols()];
                    for &ci in pat.row(r) {
                        dxrow[ci as usize] += g * wrow[ci as usize];
                    }
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::{matmul, matmul_a_bt};
    use crate::Tensor;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A random weight/mask pair with ~`density` active entries; the weight
    /// is already masked (inactive values zero) like a trained sparse layer.
    fn masked_weight(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> (Tensor, Tensor) {
        let mut w = crate::init::uniform([rows, cols], -1.0, 1.0, rng);
        let mut mask = Tensor::zeros([rows, cols]);
        for (mv, wv) in mask.as_mut_slice().iter_mut().zip(w.as_mut_slice()) {
            if rng.gen_bool(density) {
                *mv = 1.0;
            } else {
                *wv = 0.0;
            }
        }
        (w, mask)
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g - w).abs() <= 1e-4 * (1.0 + w.abs()),
                "sparse {g} vs dense {w}"
            );
        }
    }

    #[test]
    fn sp_mm_matches_dense_matmul() {
        let mut rng = StdRng::seed_from_u64(20);
        let (w, mask) = masked_weight(12, 30, 0.15, &mut rng);
        let pat = Csr::from_mask_transposed(12, 30, mask.as_slice());
        let mut vals = Vec::new();
        plan_values(&pat, w.as_slice(), &mut vals);
        let b = crate::init::uniform([30, 17], -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; 12 * 17];
        sp_mm(&pat, &vals, b.as_slice(), &mut out, 17);
        let want = matmul(&w, &b).unwrap();
        assert_close(&out, want.as_slice());
    }

    #[test]
    fn sp_mm_t_matches_dense_transpose_product() {
        let mut rng = StdRng::seed_from_u64(21);
        let (w, mask) = masked_weight(9, 25, 0.2, &mut rng);
        let pat = Csr::from_mask_transposed(9, 25, mask.as_slice());
        let mut vals = Vec::new();
        plan_values(&pat, w.as_slice(), &mut vals);
        let b = crate::init::uniform([9, 13], -1.0, 1.0, &mut rng);
        let mut out = vec![0.0f32; 25 * 13];
        sp_mm_t(&pat, &vals, b.as_slice(), &mut out, 13);
        let want = matmul(&w.transpose2d().unwrap(), &b).unwrap();
        assert_close(&out, want.as_slice());
    }

    #[test]
    fn sp_xwt_matches_dense_linear_forward() {
        let mut rng = StdRng::seed_from_u64(22);
        let (w, mask) = masked_weight(20, 40, 0.1, &mut rng);
        let pat = Csr::from_mask(20, 40, mask.as_slice());
        let x = crate::init::uniform([7, 40], -1.0, 1.0, &mut rng);
        let mut y = vec![0.0f32; 7 * 20];
        sp_xwt(&pat, w.as_slice(), x.as_slice(), &mut y, 7);
        let want = matmul_a_bt(&x, &w).unwrap();
        assert_close(&y, want.as_slice());
    }

    #[test]
    fn sp_gy_w_matches_dense_input_grad() {
        let mut rng = StdRng::seed_from_u64(23);
        let (w, mask) = masked_weight(16, 28, 0.12, &mut rng);
        let pat = Csr::from_mask(16, 28, mask.as_slice());
        let mut gy = crate::init::uniform([5, 16], -1.0, 1.0, &mut rng);
        // Exact zeros exercise the gy skip branch.
        for v in gy.as_mut_slice().iter_mut().step_by(4) {
            *v = 0.0;
        }
        let mut dx = vec![0.0f32; 5 * 28];
        sp_gy_w(&pat, w.as_slice(), gy.as_slice(), &mut dx, 5);
        let want = matmul(&gy, &w).unwrap();
        assert_close(&dx, want.as_slice());
    }

    #[test]
    fn grown_at_zero_weight_included_in_pattern() {
        // Mask active but weight value zero (a freshly grown connection):
        // the pattern must carry the position so later weight updates take
        // effect without a repack.
        let mut w = Tensor::zeros([2, 3]);
        let mask = Tensor::from_vec([2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        let pat = Csr::from_mask(2, 3, mask.as_slice());
        assert_eq!(pat.nnz(), 2);
        let x = Tensor::ones([1, 3]);
        let mut y = vec![0.0f32; 2];
        sp_xwt(&pat, w.as_slice(), x.as_slice(), &mut y, 1);
        assert_eq!(y, vec![0.0, 0.0]);
        // The optimizer updates the grown weight; the same pattern sees it.
        w.as_mut_slice()[0] = 2.5;
        sp_xwt(&pat, w.as_slice(), x.as_slice(), &mut y, 1);
        assert_eq!(y, vec![2.5, 0.0]);
    }
}
