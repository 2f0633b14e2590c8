//! Spike-sparsity-aware binary gather kernels.
//!
//! LIF/PLIF layers emit tensors whose entries are *exactly* `0.0` or `1.0`.
//! Downstream products therefore never need multiplies: a row of spikes
//! selects a subset of weight columns, and the product is a gather-accumulate
//! over the fired indices. An index-only [`Csr`] packs those fired indices per
//! batch row (the same layout as a weight plan, but over *activations*), and
//! the kernels here consume it.
//!
//! ## Bit-identity with the dense kernels
//!
//! Every gather kernel runs the *same floating-point operation sequence* as
//! its dense counterpart in [`crate::ops::matmul`], so results are
//! bit-identical, not merely close:
//!
//! - fired indices are stored ascending, and each gather accumulates in
//!   ascending-index order — the order the dense kernel visits them;
//! - a fired term contributes `1.0 · w == w`, exactly the dense product;
//! - an unfired term contributes `±0.0`, which the dense kernels either skip
//!   (their `== 0.0` branches) or add into an accumulator chain seeded at
//!   `+0.0`. Such a chain can never hold `-0.0` (`+0.0 + -0.0 == +0.0`, and
//!   cancellation of non-zeros rounds to `+0.0`), and `x + ±0.0 == x` for
//!   every other `x`, so dropping the zero terms is an exact no-op.
//!
//! The only caveat is non-finite data: `0.0 · ∞ = NaN`, so skipping a zero
//! term differs if weights or gradients are infinite. Training guards against
//! non-finite values (the core health monitor), matching the assumption the
//! existing dense zero-skips already make.
//!
//! ## Density fallback
//!
//! Gathers pay an index load per fired element, so they lose to the blocked
//! dense kernels once most elements fire. Layers consult
//! [`spike_density_threshold_from_env`] (`NDSNN_SPIKE_DENSITY_THRESHOLD`)
//! per timestep and fall back to dense when a batch fires densely — the same
//! scheme PR 1 uses for weight sparsity (`NDSNN_DENSITY_THRESHOLD`).

use crate::scratch::ScratchPool;
use crate::Csr;

/// Default spike density below which layers dispatch through the gather
/// kernels; at or above it they run the dense blocked kernels.
///
/// Chosen to match the weight-sparsity crossover
/// (`ndsnn-sparse::kernels::DEFAULT_DENSITY_THRESHOLD`): an index load per
/// fired element breaks even with blocked dense GEMM around one fired
/// element in four. The paper's measured spike rates (Fig. 5, `R ≈ 0.1–0.25`)
/// sit below this on every benchmark network.
pub const DEFAULT_SPIKE_DENSITY_THRESHOLD: f64 = 0.25;

/// Reads the `NDSNN_SPIKE_DENSITY_THRESHOLD` override, falling back to
/// [`DEFAULT_SPIKE_DENSITY_THRESHOLD`] when unset or unparseable. Set it to a
/// negative value to force dense execution everywhere, or to `1.0` (or more)
/// to force the gather path for every binary timestep.
pub fn spike_density_threshold_from_env() -> f64 {
    crate::env::density_threshold(
        "NDSNN_SPIKE_DENSITY_THRESHOLD",
        DEFAULT_SPIKE_DENSITY_THRESHOLD,
    )
}

/// `y(rows × out) += spikes(rows × cols) · Wᵀ` with `W` `out × cols` — the
/// linear-layer forward as a gather over fired input columns.
///
/// Bit-identical to [`crate::ops::matmul::matmul_a_bt`] on the equivalent
/// dense spike tensor: per output element the fired weights are accumulated
/// in ascending-index order into a `+0.0`-seeded register, exactly the
/// zero-skipped dense loop. Threads over batch rows like the dense kernel;
/// per-row work is independent, so the split never changes results.
pub fn gather_xwt(sb: &Csr, w: &[f32], y: &mut [f32], out_features: usize) {
    let cols = sb.cols();
    debug_assert_eq!(w.len(), out_features * cols);
    debug_assert_eq!(y.len(), sb.rows() * out_features);
    super::matmul::for_output_row_ranges(
        y,
        sb.rows(),
        out_features,
        sb.nnz() * out_features,
        |s0, count, y_rows| {
            for s in 0..count {
                let fired = sb.row(s0 + s);
                let yrow = &mut y_rows[s * out_features..(s + 1) * out_features];
                for (o, yv) in yrow.iter_mut().enumerate() {
                    let wrow = &w[o * cols..(o + 1) * cols];
                    let mut acc = 0.0f32;
                    for &k in fired {
                        acc += wrow[k as usize];
                    }
                    *yv += acc;
                }
            }
        },
    );
}

/// `dW(out × cols) += gyᵀ · spikes` with `gy` `rows × out` — the weight
/// gradient `g · xᵀ` gathering only fired columns of the cached input spikes.
///
/// Bit-identical to [`crate::ops::matmul::matmul_at_b`]: samples outermost,
/// then output rows with the same `gy == 0.0` skip, then fired columns
/// ascending — each contributing `g · 1.0 == g`. Threads over `dW` rows
/// (output features) like the dense kernel.
pub fn gather_at_b(gy: &[f32], sb: &Csr, c: &mut [f32], out_features: usize) {
    let cols = sb.cols();
    debug_assert_eq!(gy.len(), sb.rows() * out_features);
    debug_assert_eq!(c.len(), out_features * cols);
    super::matmul::for_output_row_ranges(
        c,
        out_features,
        cols,
        sb.nnz() * out_features,
        |i0, rows, c_rows| {
            for p in 0..sb.rows() {
                let fired = sb.row(p);
                if fired.is_empty() {
                    continue;
                }
                let gyrow = &gy[p * out_features + i0..p * out_features + i0 + rows];
                for (i, &g) in gyrow.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    let crow = &mut c_rows[i * cols..(i + 1) * cols];
                    for &k in fired {
                        crow[k as usize] += g;
                    }
                }
            }
        },
    );
}

/// Forward im2col convolution GEMM over a *binary* column buffer:
/// `out(F × spatial) += W(F × cr) · col(cr × spatial)` as a gather over the
/// fired rows of each output position.
///
/// Builds a per-position fired-row list (CSC of `col`, indices from `pool`),
/// then accumulates `W[f, r]` over fired `r` ascending with the dense
/// kernel's `W == 0.0` skip — the op sequence of
/// [`crate::ops::matmul::matmul_into`] on the same buffers, so results are
/// bit-identical. Serial by design: the conv layers call it per sample from
/// inside already-parallel workers, like
/// [`sp_mm`](crate::ops::spmm::sp_mm).
///
/// # Panics
/// Debug-asserts `col` is binary; release builds treat any non-zero as fired
/// (callers certify binarity via the incoming spike [`Csr`]).
pub fn gather_conv_fwd(
    w: &[f32],
    col: &[f32],
    out: &mut [f32],
    f_out: usize,
    cr: usize,
    spatial: usize,
    pool: &ScratchPool,
) {
    debug_assert_eq!(w.len(), f_out * cr);
    debug_assert_eq!(col.len(), cr * spatial);
    debug_assert_eq!(out.len(), f_out * spatial);
    debug_assert!(col.iter().all(|&v| v == 0.0 || v == 1.0));
    // Two row-major passes build the CSC lists: count per position, prefix
    // sum, then fill with a per-position cursor. Row-major scans keep the
    // large `col` buffer streaming instead of striding.
    let mut ptr = pool.take_u32();
    ptr.resize(spatial + 1, 0);
    for row in col.chunks_exact(spatial) {
        for (p, &v) in row.iter().enumerate() {
            if v != 0.0 {
                ptr[p + 1] += 1;
            }
        }
    }
    for p in 0..spatial {
        ptr[p + 1] += ptr[p];
    }
    let mut cursor = pool.take_u32();
    cursor.extend_from_slice(&ptr[..spatial]);
    let mut idx = pool.take_u32();
    idx.resize(ptr[spatial] as usize, 0);
    for (r, row) in col.chunks_exact(spatial).enumerate() {
        for (p, &v) in row.iter().enumerate() {
            if v != 0.0 {
                idx[cursor[p] as usize] = r as u32;
                cursor[p] += 1;
            }
        }
    }
    for f in 0..f_out {
        let wrow = &w[f * cr..(f + 1) * cr];
        let orow = &mut out[f * spatial..(f + 1) * spatial];
        for (p, ov) in orow.iter_mut().enumerate() {
            let fired = &idx[ptr[p] as usize..ptr[p + 1] as usize];
            let mut acc = 0.0f32;
            for &r in fired {
                let wv = wrow[r as usize];
                if wv == 0.0 {
                    continue;
                }
                acc += wv;
            }
            *ov += acc;
        }
    }
    pool.give_u32(idx);
    pool.give_u32(cursor);
    pool.give_u32(ptr);
}

/// Weight gradient of an im2col convolution over a *binary* column buffer:
/// `wg(F × cr) += gy(F × spatial) · colᵀ` as a gather over the fired
/// positions of each column row.
///
/// Builds per-row fired-position lists (CSR of `col`, one streaming pass,
/// indices from `pool`), then accumulates `gy[f, p]` over fired `p` ascending
/// — the op sequence of the dense `dW` loop in
/// [`crate::ops::conv::conv2d_backward`], so results are
/// bit-identical. Serial by design (called per sample from parallel block
/// workers).
///
/// # Panics
/// Debug-asserts `col` is binary, like [`gather_conv_fwd`].
pub fn gather_conv_dw(
    gy: &[f32],
    col: &[f32],
    wg: &mut [f32],
    f_out: usize,
    cr: usize,
    spatial: usize,
    pool: &ScratchPool,
) {
    debug_assert_eq!(gy.len(), f_out * spatial);
    debug_assert_eq!(col.len(), cr * spatial);
    debug_assert_eq!(wg.len(), f_out * cr);
    debug_assert!(col.iter().all(|&v| v == 0.0 || v == 1.0));
    let mut idx = pool.take_u32();
    let mut ptr = pool.take_u32();
    ptr.push(0);
    for row in col.chunks_exact(spatial) {
        for (p, &v) in row.iter().enumerate() {
            if v != 0.0 {
                idx.push(p as u32);
            }
        }
        ptr.push(idx.len() as u32);
    }
    for f in 0..f_out {
        let gyrow = &gy[f * spatial..(f + 1) * spatial];
        let wrow = &mut wg[f * cr..(f + 1) * cr];
        for (r, wv) in wrow.iter_mut().enumerate() {
            let fired = &idx[ptr[r] as usize..ptr[r + 1] as usize];
            let mut acc = 0.0f32;
            for &p in fired {
                acc += gyrow[p as usize];
            }
            *wv += acc;
        }
    }
    pool.give_u32(idx);
    pool.give_u32(ptr);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::{matmul_a_bt, matmul_at_b, matmul_into};
    use crate::parallel::run_serial;
    use crate::Tensor;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn spike_tensor(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> Tensor {
        let mut t = Tensor::zeros([rows, cols]);
        for v in t.as_mut_slice() {
            if rng.gen_bool(density) {
                *v = 1.0;
            }
        }
        t
    }

    #[test]
    fn batch_from_flat_indices_matches_scan() {
        let mut rng = StdRng::seed_from_u64(70);
        let t = spike_tensor(5, 17, 0.3, &mut rng);
        let flat: Vec<u32> = t
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == 1.0)
            .map(|(i, _)| i as u32)
            .collect();
        let a = Csr::from_flat_indices(5, 17, flat);
        let b = Csr::from_binary(5, 17, t.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gather_xwt_bit_identical_to_dense_across_densities() {
        let mut rng = StdRng::seed_from_u64(71);
        let w = crate::init::uniform([12, 33], -1.0, 1.0, &mut rng);
        for density in [0.0, 0.05, 0.5, 1.0] {
            let x = spike_tensor(7, 33, density, &mut rng);
            let sb = Csr::from_binary(7, 33, x.as_slice()).unwrap();
            let dense = matmul_a_bt(&x, &w).unwrap();
            let mut y = vec![0.0f32; 7 * 12];
            gather_xwt(&sb, w.as_slice(), &mut y, 12);
            assert_eq!(y, dense.as_slice(), "density {density}");
        }
    }

    #[test]
    fn gather_at_b_bit_identical_to_dense_across_densities() {
        let mut rng = StdRng::seed_from_u64(72);
        let mut gy = crate::init::uniform([9, 14], -1.0, 1.0, &mut rng);
        // Exact zeros in gy exercise the shared skip branch.
        for v in gy.as_mut_slice().iter_mut().step_by(5) {
            *v = 0.0;
        }
        for density in [0.0, 0.05, 0.5, 1.0] {
            let x = spike_tensor(9, 27, density, &mut rng);
            let sb = Csr::from_binary(9, 27, x.as_slice()).unwrap();
            let dense = matmul_at_b(&gy, &x).unwrap();
            let mut c = vec![0.0f32; 14 * 27];
            gather_at_b(gy.as_slice(), &sb, &mut c, 14);
            assert_eq!(c, dense.as_slice(), "density {density}");
        }
    }

    #[test]
    fn gather_conv_fwd_bit_identical_to_blocked_gemm() {
        let mut rng = StdRng::seed_from_u64(73);
        // cr crosses the 64-block boundary so the blocked reference exercises
        // multiple pb blocks; a masked weight exercises the shared W skip.
        let (f_out, cr, spatial) = (6, 130, 45);
        let mut w = crate::init::uniform([f_out, cr], -1.0, 1.0, &mut rng);
        for v in w.as_mut_slice().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let pool = ScratchPool::new();
        for density in [0.0, 0.05, 0.5, 1.0] {
            let col = spike_tensor(cr, spatial, density, &mut rng);
            let mut dense = vec![0.0f32; f_out * spatial];
            matmul_into(w.as_slice(), col.as_slice(), &mut dense, f_out, cr, spatial);
            let mut got = vec![0.0f32; f_out * spatial];
            gather_conv_fwd(
                w.as_slice(),
                col.as_slice(),
                &mut got,
                f_out,
                cr,
                spatial,
                &pool,
            );
            assert_eq!(got, dense, "density {density}");
        }
        // Index buffers were returned to the pool.
        assert_eq!(pool.idle_u32_buffers(), 3);
    }

    #[test]
    fn gather_conv_dw_bit_identical_to_dense_loop() {
        let mut rng = StdRng::seed_from_u64(74);
        let (f_out, cr, spatial) = (5, 21, 38);
        let mut gy = crate::init::uniform([f_out, spatial], -1.0, 1.0, &mut rng);
        for v in gy.as_mut_slice().iter_mut().step_by(7) {
            *v = 0.0;
        }
        let pool = ScratchPool::new();
        for density in [0.0, 0.05, 0.5, 1.0] {
            let col = spike_tensor(cr, spatial, density, &mut rng);
            // The dense dW chain of `reference::conv2d_backward`.
            let mut dense = vec![0.0f32; f_out * cr];
            for f in 0..f_out {
                let gyrow = &gy.as_slice()[f * spatial..(f + 1) * spatial];
                let wrow = &mut dense[f * cr..(f + 1) * cr];
                for (r, wv) in wrow.iter_mut().enumerate() {
                    let crow = &col.as_slice()[r * spatial..(r + 1) * spatial];
                    let mut acc = 0.0f32;
                    for (gv, cv) in gyrow.iter().zip(crow) {
                        acc += gv * cv;
                    }
                    *wv += acc;
                }
            }
            let mut got = vec![0.0f32; f_out * cr];
            gather_conv_dw(
                gy.as_slice(),
                col.as_slice(),
                &mut got,
                f_out,
                cr,
                spatial,
                &pool,
            );
            assert_eq!(got, dense, "density {density}");
        }
        assert_eq!(pool.idle_u32_buffers(), 2);
    }

    #[test]
    fn threaded_gathers_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(75);
        // 96·512 spikes × 96 outputs clears PAR_MIN_MACS when dense; the
        // gather threads on its own nnz-based work estimate.
        let x = spike_tensor(96, 512, 0.3, &mut rng);
        let sb = Csr::from_binary(96, 512, x.as_slice()).unwrap();
        let w = crate::init::uniform([96, 512], -1.0, 1.0, &mut rng);
        let gy = crate::init::uniform([96, 96], -1.0, 1.0, &mut rng);

        let (y_ser, c_ser) = run_serial(|| {
            let mut y = vec![0.0f32; 96 * 96];
            gather_xwt(&sb, w.as_slice(), &mut y, 96);
            let mut c = vec![0.0f32; 96 * 512];
            gather_at_b(gy.as_slice(), &sb, &mut c, 96);
            (y, c)
        });
        let mut y = vec![0.0f32; 96 * 96];
        gather_xwt(&sb, w.as_slice(), &mut y, 96);
        assert_eq!(y, y_ser);
        let mut c = vec![0.0f32; 96 * 512];
        gather_at_b(gy.as_slice(), &sb, &mut c, 96);
        assert_eq!(c, c_ser);
    }

    #[test]
    fn env_threshold_default() {
        // The variable is unset in the test environment.
        if std::env::var("NDSNN_SPIKE_DENSITY_THRESHOLD").is_err() {
            assert_eq!(
                spike_density_threshold_from_env(),
                DEFAULT_SPIKE_DENSITY_THRESHOLD
            );
        }
    }
}
