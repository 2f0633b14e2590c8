//! The frozen-model CSR kernels.
//!
//! The paper's memory-footprint analysis (§III.D) assumes CSR for sparse
//! weights: reshaping a 4-D conv weight `(F, C, KH, KW)` to a 2-D matrix of
//! `F` rows by `C·K²` columns, the index overhead is one column index per
//! non-zero plus `F + 1` row pointers — [`Csr::from_weight`] and
//! [`Csr::storage_bits`].
//!
//! During *training* the value array would go stale every optimizer step, so
//! the execution engine uses an index-only [`Csr`] plan over the live dense
//! weight instead. A *frozen* model has no such staleness: the inference
//! compiler (`ndsnn-infer`) packs each masked weight into a value-carrying
//! `Csr<f32>` once, and the [`csr_xwt`] / [`csr_mm`] kernels here execute it
//! directly — the same accumulation order as the dense and pattern-sparse
//! kernels, so results stay bit-identical across every dispatch choice.

use ndsnn_tensor::ops::matmul::for_output_row_ranges;
use ndsnn_tensor::Csr;

/// `y(batch × rows) += x(batch × cols) · Wᵀ` with `W` in CSR — the frozen
/// linear-layer forward. Threads over batch samples (disjoint `y` rows) on
/// the same row partition as the dense and pattern-sparse kernels.
///
/// Bit-identical to [`ndsnn_tensor::ops::matmul::matmul_a_bt`] and to
/// [`ndsnn_tensor::ops::spmm::sp_xwt`] on the equivalent dense weight: per
/// output element the stored terms are accumulated in ascending-column order
/// into a `+0.0`-seeded register, and the terms CSR does not store are exact
/// dense zeros whose `±0.0` contributions cannot change such a chain (the
/// zero-skip argument of [`ndsnn_tensor::ops::spike`]). The `x == 0.0` skip
/// serves spiking activations, exactly as in `sp_xwt`.
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

/// `out(rows × n) += W · b(cols × n)` with `W` in CSR — the frozen im2col
/// convolution GEMM. Serial by design: the inference executor calls it per
/// sample from inside already-parallel workers, exactly like
/// [`ndsnn_tensor::ops::spmm::sp_mm`].
///
/// Bit-identical to `sp_mm` (and hence to the blocked dense GEMM) on the
/// equivalent dense weight: rows outermost, stored columns ascending, each
/// scaling the same `b` row into the same output row — the `wv == 0.0` skip
/// is kept for artifacts that store explicit zeros.
pub fn csr_mm(w: &Csr<f32>, b: &[f32], out: &mut [f32], n: usize) {
    let (rows, cols) = w.dims();
    debug_assert_eq!(b.len(), cols * n);
    debug_assert_eq!(out.len(), rows * n);
    for r in 0..rows {
        let orow = &mut out[r * n..(r + 1) * n];
        let (cis, vals) = w.row_entries(r);
        for (&ci, &wv) in cis.iter().zip(vals) {
            if wv == 0.0 {
                continue;
            }
            let brow = &b[ci as usize * n..(ci as usize + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += wv * bv;
            }
        }
    }
}

/// [`csr_mm`] with the `b` operand already packed row-wise — the
/// doubly-sparse frozen conv GEMM, exploiting weight sparsity (CSR) *and*
/// activation sparsity (spiking inputs) in one kernel.
///
/// `b` row `c`'s non-zeros are given as output positions
/// `pos[ptr[c]..ptr[c+1]]` with values `vals[ptr[c]..ptr[c+1]]` (the layout
/// [`ndsnn_tensor::ops::conv::im2col_packed`] emits, so the dense im2col
/// buffer never has to exist); every stored weight entry then scales only
/// the fired positions of its column's row instead of streaming all `n`.
///
/// Bit-identical to [`csr_mm`] on the equivalent dense `b` (and hence to the
/// dense GEMM): per output element the stored-weight terms still accumulate
/// in ascending-column order into a `+0.0`-seeded slot, each position is
/// touched at most once per column, and every elided term is an exact
/// `±0.0` product that cannot change such a chain (the zero-skip argument
/// of [`ndsnn_tensor::ops::spike`], identical to the `x == 0.0` skip in
/// [`csr_xwt`]).
pub fn csr_mm_packed(
    w: &Csr<f32>,
    ptr: &[u32],
    pos: &[u32],
    vals: &[f32],
    out: &mut [f32],
    n: usize,
) {
    let (rows, cols) = w.dims();
    debug_assert_eq!(ptr.len(), cols + 1);
    debug_assert_eq!(pos.len(), vals.len());
    debug_assert_eq!(out.len(), rows * n);
    for r in 0..rows {
        let orow = &mut out[r * n..(r + 1) * n];
        let (cis, wvs) = w.row_entries(r);
        for (&ci, &wv) in cis.iter().zip(wvs) {
            if wv == 0.0 {
                continue;
            }
            let (s, e) = (ptr[ci as usize] as usize, ptr[ci as usize + 1] as usize);
            for k in s..e {
                orow[pos[k] as usize] += wv * vals[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsnn_tensor::Tensor;

    /// Dense reference for the kernel tests: small pseudo-random matrices via
    /// a fixed LCG, thresholded to ~70 % zeros so the skip paths execute.
    fn lcg_matrix(rows: usize, cols: usize, seed: &mut u64, sparse: bool) -> Vec<f32> {
        (0..rows * cols)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (*seed >> 33) as f32 / (1u64 << 31) as f32 - 0.5;
                if sparse && (*seed >> 20) % 10 < 7 {
                    0.0
                } else {
                    u
                }
            })
            .collect()
    }

    #[test]
    fn csr_xwt_bitwise_matches_dense_and_pattern() {
        use ndsnn_tensor::ops::matmul::matmul_a_bt;
        use ndsnn_tensor::ops::spmm::sp_xwt;
        let (batch, rows, cols) = (3, 5, 7);
        let mut seed = 0x5EED_0001u64;
        let w = lcg_matrix(rows, cols, &mut seed, true);
        let x = lcg_matrix(batch, cols, &mut seed, true);
        let wt = Tensor::from_vec([rows, cols], w.clone()).unwrap();
        let xt = Tensor::from_vec([batch, cols], x.clone()).unwrap();
        let csr = Csr::from_dense(rows, cols, &w);

        let y_dense = matmul_a_bt(&xt, &wt).unwrap();
        let y_dense = y_dense.as_slice();
        let mut y_pat = vec![0.0f32; batch * rows];
        let mut y_csr = vec![0.0f32; batch * rows];
        let pat = Csr::from_mask(rows, cols, &w);
        sp_xwt(&pat, &w, &x, &mut y_pat, batch);
        csr_xwt(&csr, &x, &mut y_csr, batch);
        for i in 0..y_dense.len() {
            assert_eq!(
                y_csr[i].to_bits(),
                y_dense[i].to_bits(),
                "csr vs dense at {i}"
            );
            assert_eq!(
                y_csr[i].to_bits(),
                y_pat[i].to_bits(),
                "csr vs pattern at {i}"
            );
        }
    }

    #[test]
    fn csr_xwt_thread_count_invariant() {
        use ndsnn_tensor::parallel::{run_serial, set_thread_override};
        // Large enough to clear PAR_MIN_MACS when threads are available.
        let (batch, rows, cols) = (8, 64, 600);
        let mut seed = 0xFACEu64;
        let w = lcg_matrix(rows, cols, &mut seed, true);
        let x = lcg_matrix(batch, cols, &mut seed, true);
        let csr = Csr::from_dense(rows, cols, &w);
        let mut y_serial = vec![0.0f32; batch * rows];
        run_serial(|| csr_xwt(&csr, &x, &mut y_serial, batch));
        set_thread_override(Some(4));
        let mut y_par = vec![0.0f32; batch * rows];
        csr_xwt(&csr, &x, &mut y_par, batch);
        set_thread_override(None);
        for i in 0..y_serial.len() {
            assert_eq!(
                y_par[i].to_bits(),
                y_serial[i].to_bits(),
                "thread divergence at {i}"
            );
        }
    }

    #[test]
    fn csr_mm_bitwise_matches_dense_and_pattern() {
        use ndsnn_tensor::ops::matmul::matmul_into;
        use ndsnn_tensor::ops::spmm::{plan_values, sp_mm};
        let (rows, cols, n) = (5, 6, 9);
        let mut seed = 0x5EED_0002u64;
        let w = lcg_matrix(rows, cols, &mut seed, true);
        let b = lcg_matrix(cols, n, &mut seed, false);
        let csr = Csr::from_dense(rows, cols, &w);

        let mut o_dense = lcg_matrix(rows, n, &mut seed, false);
        let mut o_pat = o_dense.clone();
        let mut o_csr = o_dense.clone();
        matmul_into(&w, &b, &mut o_dense, rows, cols, n);
        let pat = Csr::from_mask_transposed(rows, cols, &w);
        let mut vals = Vec::new();
        plan_values(&pat, &w, &mut vals);
        sp_mm(&pat, &vals, &b, &mut o_pat, n);
        csr_mm(&csr, &b, &mut o_csr, n);
        for i in 0..o_dense.len() {
            assert_eq!(
                o_csr[i].to_bits(),
                o_dense[i].to_bits(),
                "csr vs dense at {i}"
            );
            assert_eq!(
                o_csr[i].to_bits(),
                o_pat[i].to_bits(),
                "csr vs pattern at {i}"
            );
        }
    }

    #[test]
    fn csr_mm_packed_bitwise_matches_csr_mm() {
        let (rows, cols, n) = (6, 9, 11);
        let mut seed = 0x5EED_0003u64;
        let w = lcg_matrix(rows, cols, &mut seed, true);
        let csr = Csr::from_dense(rows, cols, &w);
        // Spike-like b at several densities, including a fully dense row,
        // an all-zero b (everything elided) and negative weights against
        // zero activations (the ±0.0 products the skip argument covers).
        for density in [0.0, 0.1, 0.5, 1.0] {
            let mut b = lcg_matrix(cols, n, &mut seed, false);
            for (i, v) in b.iter_mut().enumerate() {
                if (i % 10) as f64 >= density * 10.0 {
                    *v = 0.0;
                }
            }
            // Row 0 stays fully dense.
            for v in b[..n].iter_mut() {
                if *v == 0.0 {
                    *v = -0.5;
                }
            }
            // Pack b row-wise, the layout im2col_packed produces.
            let (mut ptr, mut pos, mut vals) = (vec![0u32], Vec::new(), Vec::new());
            for row in b.chunks_exact(n) {
                for (p, &v) in row.iter().enumerate() {
                    if v != 0.0 {
                        pos.push(p as u32);
                        vals.push(v);
                    }
                }
                ptr.push(pos.len() as u32);
            }
            let mut o_ref = vec![0.0f32; rows * n];
            let mut o_packed = vec![0.0f32; rows * n];
            csr_mm(&csr, &b, &mut o_ref, n);
            csr_mm_packed(&csr, &ptr, &pos, &vals, &mut o_packed, n);
            for i in 0..o_ref.len() {
                assert_eq!(
                    o_packed[i].to_bits(),
                    o_ref[i].to_bits(),
                    "packed vs csr_mm at {i}, density {density}"
                );
            }
        }
    }
}
