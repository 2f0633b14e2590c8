//! Integer gather-add kernels for quantized multiply-free inference.
//!
//! Spiking activations are exactly 0/1, so a forward GEMM against a
//! per-channel symmetric int8 weight needs no multiplies at all: every fired
//! input position contributes its raw `i8` weight to an `i32` accumulator,
//! and one f32 multiply per *output element* (`scale[row] · acc`) converts
//! the integer sum back to the real scale at the epilogue — the
//! "requantize-at-epilogue" step. Integer addition is associative and exact,
//! so any work partition (threads, chunking) produces bit-identical
//! accumulators, and the single f32 requantize multiply per element is
//! order-free — quantized logits are bit-identical at every
//! `NDSNN_THREADS` setting by construction, not by accumulation-order
//! discipline.
//!
//! The linear kernel here takes the weight as a [`Csr<i8>`] plus one f32
//! scale per row, so the artifact layer in `ndsnn-infer` can own the
//! storage format while the arithmetic lives with the other kernels. The
//! int8 convolution is no separate kernel: [`crate::ops::conv`]'s forward
//! walks the weight's column view over each sample's fired col rows with
//! the same spike walk training uses
//! ([`crate::ops::spike::spike_conv_fwd`], accumulating `i32`), then calls
//! [`requantize_rows`]. Accumulator overflow is excluded by a bound checked
//! where weights are quantized: a row of `nnz` int8 terms is bounded by
//! `nnz · 127`, and the quantizer refuses rows with more than
//! [`MAX_QUANT_ROW_NNZ`] stored entries.

use crate::ops::matmul::for_output_row_ranges;
use crate::Csr;

/// Maximum stored entries per quantized weight row: `2^24 · 127 < 2^31`, so
/// an `i32` accumulator can never overflow even if every term saturates.
pub const MAX_QUANT_ROW_NNZ: usize = 1 << 24;

/// `y(batch × rows) += scale[r] · Σ_{c ∈ nz(r), x[c] ≠ 0} q[r, c]` — the
/// quantized frozen linear forward over binary (spike) activations.
///
/// The inner loop is multiply-free: fired columns contribute their raw `i8`
/// weight to an `i32` accumulator (any non-zero activation counts as a
/// spike — the compiler only quantizes layers whose inputs are guaranteed
/// binary). One f32 multiply per output element requantizes at the end.
/// Threads over batch samples on the same row partition as the f32 kernels
/// ([`for_output_row_ranges`]); integer accumulation makes the result
/// trivially thread-count invariant.
pub fn csr_xwt_i8(w: &Csr<i8>, scales: &[f32], x: &[f32], y: &mut [f32], batch: usize) {
    let (rows, cols) = w.dims();
    debug_assert_eq!(scales.len(), rows);
    debug_assert_eq!(x.len(), batch * cols);
    debug_assert_eq!(y.len(), batch * rows);
    for_output_row_ranges(y, batch, rows, batch * w.nnz(), |s0, count, y_rows| {
        for s in 0..count {
            let xrow = &x[(s0 + s) * cols..(s0 + s + 1) * cols];
            let yrow = &mut y_rows[s * rows..(s + 1) * rows];
            for (r, yv) in yrow.iter_mut().enumerate() {
                let (cis, qs) = w.row_entries(r);
                let mut acc = 0i32;
                for (&ci, &qv) in cis.iter().zip(qs) {
                    if xrow[ci as usize] != 0.0 {
                        acc += i32::from(qv);
                    }
                }
                *yv += scales[r] * acc as f32;
            }
        }
    });
}

/// Requantize-at-epilogue: `out[r·n + j] = scale[r] · acc[r·n + j]` — the
/// only floating-point arithmetic in the quantized forward. One multiply per
/// output element, no accumulation, so the result is independent of
/// evaluation order; callers apply their fused affine/LIF epilogue on the
/// f32 output right after, exactly where the f32 path applies it.
pub fn requantize_rows(acc: &[i32], scales: &[f32], out: &mut [f32], n: usize) {
    debug_assert_eq!(acc.len(), out.len());
    debug_assert_eq!(acc.len(), scales.len() * n.max(1));
    for (r, (arow, orow)) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)).enumerate() {
        let s = scales[r];
        for (o, &a) in orow.iter_mut().zip(arow) {
            *o = s * a as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense f32 reference for the binary-activation product:
    /// `y[s][r] = scale[r] · Σ_c q[r][c] · 1[x[s][c] ≠ 0]` computed in f64
    /// integer space then converted exactly like the kernel.
    fn reference_xwt(
        qd: &[i32],
        scales: &[f32],
        x: &[f32],
        batch: usize,
        rows: usize,
        cols: usize,
    ) -> Vec<f32> {
        let mut y = vec![0.0f32; batch * rows];
        for s in 0..batch {
            for r in 0..rows {
                let mut acc = 0i32;
                for c in 0..cols {
                    if x[s * cols + c] != 0.0 {
                        acc += qd[r * cols + c];
                    }
                }
                y[s * rows + r] += scales[r] * acc as f32;
            }
        }
        y
    }

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// Builds a sparse int8 matrix in both dense (i32) and CSR form.
    fn sparse_i8(rows: usize, cols: usize, seed: &mut u64) -> (Vec<i32>, Csr<i8>) {
        let mut dense = vec![0i32; rows * cols];
        let mut row_ptr = vec![0u32];
        let mut col_indices = Vec::new();
        let mut q = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if lcg(seed) % 10 < 3 {
                    let v = (lcg(seed) % 255) as i32 - 127;
                    dense[r * cols + c] = v;
                    col_indices.push(c as u32);
                    q.push(v as i8);
                }
            }
            row_ptr.push(q.len() as u32);
        }
        let w = Csr::from_parts(rows, cols, row_ptr, col_indices, q).unwrap();
        (dense, w)
    }

    #[test]
    fn xwt_i8_matches_dense_reference() {
        let (batch, rows, cols) = (3, 5, 17);
        let mut seed = 0xABCDu64;
        let (dense, w) = sparse_i8(rows, cols, &mut seed);
        let scales: Vec<f32> = (0..rows).map(|r| 0.01 + r as f32 * 0.003).collect();
        // Binary spikes at ~30% density.
        let x: Vec<f32> = (0..batch * cols)
            .map(|_| f32::from(u8::from(lcg(&mut seed) % 10 < 3)))
            .collect();
        let mut y = vec![0.0f32; batch * rows];
        csr_xwt_i8(&w, &scales, &x, &mut y, batch);
        let want = reference_xwt(&dense, &scales, &x, batch, rows, cols);
        for (a, b) in y.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn xwt_i8_thread_count_invariant() {
        use crate::parallel::{run_serial, set_thread_override};
        let (batch, rows, cols) = (8, 64, 600);
        let mut seed = 0xFEEDu64;
        let (_, w) = sparse_i8(rows, cols, &mut seed);
        let scales: Vec<f32> = (0..rows).map(|r| 0.004 + r as f32 * 0.001).collect();
        let x: Vec<f32> = (0..batch * cols)
            .map(|_| f32::from(u8::from(lcg(&mut seed).is_multiple_of(4))))
            .collect();
        let mut y_serial = vec![0.0f32; batch * rows];
        run_serial(|| csr_xwt_i8(&w, &scales, &x, &mut y_serial, batch));
        set_thread_override(Some(4));
        let mut y_par = vec![0.0f32; batch * rows];
        csr_xwt_i8(&w, &scales, &x, &mut y_par, batch);
        set_thread_override(None);
        for (i, (a, b)) in y_par.iter().zip(&y_serial).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "thread divergence at {i}");
        }
    }

    #[test]
    fn accumulator_bound_excludes_overflow() {
        // The quantizer's row-nnz cap times the int8 max stays inside i32.
        let worst = (MAX_QUANT_ROW_NNZ as i64) * 127;
        assert!(worst < i64::from(i32::MAX));
    }
}
