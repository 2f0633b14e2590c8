//! Active-set sparse-gradient kernels for the BPTT backward pass.
//!
//! Surrogate gradients have bounded support: a neuron whose membrane
//! potential sits outside the surrogate's active window contributes an
//! *exact* zero to every downstream product (Perez-Nieves & Goodman, "Sparse
//! Spiking Gradient Descent"). Where LIF/PLIF evaluate the surrogate they
//! also emit a per-timestep active set — an index-only [`Csr`] of the
//! neurons with `|φ'(v)| > τ` (τ defaults to `0.0`, membership is then
//! exactly "derivative is non-zero"). The producing layer's *input-gradient*
//! `dX` is consumed downstream only through the `dldo · φ'(x)` product of
//! that receiver population, so `dX` need only be computed at the receiver's
//! active positions; everything else stays `0.0` and multiplies into `±0.0`
//! exactly as the dense value would have.
//!
//! ## Bit-identity with the dense backward
//!
//! The gather kernels run the *same floating-point operation sequence* as
//! the dense/pattern paths they replace, restricted to the active rows:
//!
//! - per computed element the reduction index (`out` features for linear,
//!   `F` then ascending `(kh, kw)` taps for conv) is walked ascending — the
//!   order of the tiled GEMM's fixed ascending-k accumulation and of
//!   `col2im`'s tap loop;
//! - zero factors (`gy == 0.0`, masked weights) are skipped; a `+0.0`-seeded
//!   accumulator chain is unchanged by dropping `±0.0` terms (see
//!   [`crate::ops::spike`] for the full argument);
//! - *uncomputed* elements stay `+0.0` where the dense value may be any
//!   `x`; the receiver multiplies both by an exact surrogate zero, so the
//!   difference is confined to the sign of zero products, which cannot
//!   propagate into any non-zero value, loss, or firing decision.
//!
//! Losses, parameters and spike trains are therefore bit-identical to the
//! dense backward at any `NDSNN_THREADS`; only `to_bits` of exact-zero
//! gradient entries may differ — the contract the zero-skipping kernels have
//! documented since the spike-gather PR.

use crate::ops::conv::Conv2dGeometry;
use crate::Csr;

/// Default active-set density below which consumer layers dispatch the
/// backward `dX` through the gather kernels; at or above it they run the
/// dense/pattern path. Matches the forward crossovers
/// (`NDSNN_DENSITY_THRESHOLD` / `NDSNN_SPIKE_DENSITY_THRESHOLD`): an index
/// load per active element breaks even with the blocked kernels around one
/// element in four.
pub const DEFAULT_GRAD_DENSITY_THRESHOLD: f64 = 0.25;

/// Default surrogate-derivative magnitude below which a neuron is *inactive*
/// for gradient purposes. `0.0` means membership is exactly `φ'(x) != 0.0`,
/// which preserves bit-identity; positive values trade a bounded amount of
/// dropped gradient mass (each dropped entry has `|φ'| ≤ τ`) for a smaller
/// active set.
pub const DEFAULT_GRAD_ACTIVE_THRESHOLD: f64 = 0.0;

/// Reads the `NDSNN_GRAD_DENSITY_THRESHOLD` override, falling back to
/// [`DEFAULT_GRAD_DENSITY_THRESHOLD`] when unset or unparseable. Negative
/// forces the dense backward everywhere; `>= 1.0` forces the gather path for
/// every timestep that has an active set.
pub fn grad_density_threshold_from_env() -> f64 {
    crate::env::density_threshold(
        "NDSNN_GRAD_DENSITY_THRESHOLD",
        DEFAULT_GRAD_DENSITY_THRESHOLD,
    )
}

/// Reads the `NDSNN_GRAD_ACTIVE_THRESHOLD` tolerance τ, falling back to
/// [`DEFAULT_GRAD_ACTIVE_THRESHOLD`] (exact mode) when unset, unparseable or
/// negative (a negative tolerance cannot widen a `|φ'| > τ` test beyond
/// exactness).
pub fn grad_active_threshold_from_env() -> f64 {
    crate::env::parse_f64("NDSNN_GRAD_ACTIVE_THRESHOLD")
        .filter(|v| *v >= 0.0)
        .unwrap_or(DEFAULT_GRAD_ACTIVE_THRESHOLD)
}

/// Transposes a row-major `rows × cols` matrix into `wt` (`cols × rows`).
///
/// The gather kernels walk one *column* of the original weight per active
/// neuron; a one-off transpose per backward call makes those walks
/// contiguous. Pure data movement — no arithmetic, so no numeric effect.
pub fn transpose_into(w: &[f32], rows: usize, cols: usize, wt: &mut [f32]) {
    debug_assert_eq!(w.len(), rows * cols);
    debug_assert_eq!(wt.len(), rows * cols);
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        for (c, &v) in row.iter().enumerate() {
            wt[c * rows + r] = v;
        }
    }
}

/// Linear input gradient restricted to the receiver's active set:
/// `dx[s, c] += Σ_o gy[s, o] · W[o, c]` for every active column `c` of
/// sample `s` only. `pwt` is the packed transposed weight
/// ([`Csr::from_dense_transposed`] of the `out × cols` weight, so masked
/// weights cost nothing and the gather composes weight density with
/// activity); `dx` must be zeroed.
///
/// Per computed element the reduction runs `o` ascending with the
/// `gy == 0.0` skip of [`sp_gy_w`](crate::ops::spmm::sp_gy_w); masked
/// weights are compressed out of `pwt` in the same ascending order, so
/// computed entries match the dense/pattern path bit-for-bit modulo `±0.0`
/// (see the module docs). Threads over batch samples (disjoint `dx` rows)
/// like the dense kernel.
pub fn gather_gy_wt(ab: &Csr, pwt: &Csr<f32>, gy: &[f32], dx: &mut [f32]) {
    let cols = ab.cols();
    let out_features = pwt.cols();
    debug_assert_eq!(pwt.rows(), cols);
    debug_assert_eq!(gy.len(), ab.rows() * out_features);
    debug_assert_eq!(dx.len(), ab.rows() * cols);
    super::matmul::for_output_row_ranges(
        dx,
        ab.rows(),
        cols,
        ab.nnz() * out_features,
        |s0, count, dx_rows| {
            for s in 0..count {
                let gyrow = &gy[(s0 + s) * out_features..(s0 + s + 1) * out_features];
                let dxrow = &mut dx_rows[s * cols..(s + 1) * cols];
                for &c in ab.row(s0 + s) {
                    let (os, wvs) = pwt.row_entries(c as usize);
                    let mut acc = 0.0f32;
                    for (&o, &wv) in os.iter().zip(wvs) {
                        let g = gyrow[o as usize];
                        if g == 0.0 {
                            continue;
                        }
                        acc += g * wv;
                    }
                    dxrow[c as usize] += acc;
                }
            }
        },
    );
}

/// Conv input gradient for one sample restricted to `need` — the ascending
/// sample-relative flat pixel indices (in `C·H·W` space) the receiver
/// population is gradient-active at.
///
/// Replaces the `dCol = Wᵀ·gy` product *and* the `col2im` scatter: for each
/// needed pixel the kernel taps are visited in ascending `(kh, kw)` order
/// (the `col2im` loop order) and each tap is an ascending-`f` dot of the
/// packed transposed weight row `pwt[r]` with the position's spatial-major
/// gradient row `gyt[pos]` (`spatial × F`) — the ascending-k order of the
/// dense GEMM / [`sp_mm_t`](crate::ops::spmm::sp_mm_t); masked weights are
/// compressed out of `pwt` in that same order, so the walk is the dense
/// reduction with its `w == 0.0` terms deleted. Serial by design: the conv
/// layer calls it per sample from inside already-parallel block workers.
#[allow(clippy::too_many_arguments)]
pub fn gather_conv_dx(
    pwt: &Csr<f32>,
    gyt: &[f32],
    need: &[u32],
    g: &Conv2dGeometry,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    dx: &mut [f32],
) {
    let f_out = g.out_channels;
    let cr = g.col_rows();
    debug_assert_eq!(pwt.rows(), cr);
    debug_assert_eq!(pwt.cols(), f_out);
    debug_assert_eq!(gyt.len(), oh * ow * f_out);
    debug_assert_eq!(dx.len(), g.in_channels * h * w);
    let plane = h * w;
    for &p in need {
        let p = p as usize;
        let c = p / plane;
        let rem = p % plane;
        let (y, x) = (rem / w, rem % w);
        let mut total = 0.0f32;
        for kh in 0..g.kernel_h {
            let ty = y + g.padding;
            if ty < kh {
                continue;
            }
            let dy = ty - kh;
            if !dy.is_multiple_of(g.stride) {
                continue;
            }
            let oy = dy / g.stride;
            if oy >= oh {
                continue;
            }
            for kw in 0..g.kernel_w {
                let tx = x + g.padding;
                if tx < kw {
                    continue;
                }
                let dx_off = tx - kw;
                if !dx_off.is_multiple_of(g.stride) {
                    continue;
                }
                let ox = dx_off / g.stride;
                if ox >= ow {
                    continue;
                }
                let r = (c * g.kernel_h + kh) * g.kernel_w + kw;
                let (fs, wvs) = pwt.row_entries(r);
                let pos = oy * ow + ox;
                let grow = &gyt[pos * f_out..(pos + 1) * f_out];
                let mut acc = 0.0f32;
                for (&f, &wv) in fs.iter().zip(wvs) {
                    acc += wv * grow[f as usize];
                }
                // One add per kernel tap — the `col2im` accumulation chain.
                total += acc;
            }
        }
        dx[p] += total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::{conv2d_backward, Conv2dGeometry, ConvBackward};
    use crate::ops::matmul::matmul;
    use crate::parallel::run_serial;
    use crate::scratch::ScratchPool;
    use crate::Tensor;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn dense_backward(
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        g: &Conv2dGeometry,
    ) -> crate::ops::conv::Conv2dGrads {
        let pool = ScratchPool::new();
        conv2d_backward(input, weight, grad_out, g, &ConvBackward::default(), &pool).unwrap()
    }

    fn active_from_mask(rows: usize, cols: usize, keep: impl Fn(usize) -> bool) -> Csr {
        let flat: Vec<u32> = (0..rows * cols)
            .filter(|&i| keep(i))
            .map(|i| i as u32)
            .collect();
        Csr::from_flat_indices(rows, cols, flat)
    }

    #[test]
    fn transpose_round_trips() {
        let w: Vec<f32> = (0..12).map(|v| v as f32).collect();
        let mut wt = vec![0.0f32; 12];
        transpose_into(&w, 3, 4, &mut wt);
        let mut back = vec![0.0f32; 12];
        transpose_into(&wt, 4, 3, &mut back);
        assert_eq!(w, back);
        assert_eq!(wt[0], 0.0);
        assert_eq!(wt[1], 4.0); // wt[c=0][r=1] == w[1][0]
    }

    #[test]
    fn linear_gather_full_active_bit_identical_to_dense() {
        let mut rng = StdRng::seed_from_u64(80);
        let (b, out, cols) = (5, 12, 30);
        let mut w = crate::init::uniform([out, cols], -1.0, 1.0, &mut rng);
        // Masked weights exercise the wv skip; exact zeros in gy the g skip.
        for v in w.as_mut_slice().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let mut gy = crate::init::uniform([b, out], -1.0, 1.0, &mut rng);
        for v in gy.as_mut_slice().iter_mut().step_by(4) {
            *v = 0.0;
        }
        let pwt = Csr::from_dense_transposed(out, cols, w.as_slice());
        let ab = active_from_mask(b, cols, |_| true);
        let mut dx = vec![0.0f32; b * cols];
        gather_gy_wt(&ab, &pwt, gy.as_slice(), &mut dx);
        let want = matmul(&gy, &w).unwrap();
        assert_eq!(dx, want.as_slice());
    }

    #[test]
    fn linear_gather_partial_matches_dense_on_active_zero_elsewhere() {
        let mut rng = StdRng::seed_from_u64(81);
        let (b, out, cols) = (4, 9, 21);
        let w = crate::init::uniform([out, cols], -1.0, 1.0, &mut rng);
        let gy = crate::init::uniform([b, out], -1.0, 1.0, &mut rng);
        let pwt = Csr::from_dense_transposed(out, cols, w.as_slice());
        let ab = active_from_mask(b, cols, |i| i % 3 == 1);
        let mut dx = vec![0.0f32; b * cols];
        gather_gy_wt(&ab, &pwt, gy.as_slice(), &mut dx);
        let want = matmul(&gy, &w).unwrap();
        for (i, (&got, &w)) in dx.iter().zip(want.as_slice()).enumerate() {
            if i % 3 == 1 {
                assert_eq!(got, w, "active entry {i}");
            } else {
                assert_eq!(got, 0.0, "inactive entry {i} must stay zero");
            }
        }
    }

    #[test]
    fn conv_gather_full_active_bit_identical_to_dense() {
        let mut rng = StdRng::seed_from_u64(82);
        let g = Conv2dGeometry::square(3, 4, 3, 1, 1);
        let (b, h, w) = (2, 6, 5);
        let (oh, ow) = g.output_hw(h, w).unwrap();
        let input = crate::init::uniform([b, 3, h, w], -1.0, 1.0, &mut rng);
        let mut weight = crate::init::uniform([4, 3, 3, 3], -1.0, 1.0, &mut rng);
        for v in weight.as_mut_slice().iter_mut().step_by(2) {
            *v = 0.0;
        }
        let grad_out = crate::init::uniform([b, 4, oh, ow], -1.0, 1.0, &mut rng);
        let want = dense_backward(&input, &weight, &grad_out, &g);

        let (cr, spatial, f) = (g.col_rows(), oh * ow, g.out_channels);
        let pwt = Csr::from_dense_transposed(f, cr, weight.as_slice());
        let in_stride = 3 * h * w;
        let mut dx = vec![0.0f32; b * in_stride];
        let need: Vec<u32> = (0..in_stride as u32).collect();
        for s in 0..b {
            let gy = &grad_out.as_slice()[s * f * spatial..(s + 1) * f * spatial];
            let mut gyt = vec![0.0f32; spatial * f];
            transpose_into(gy, f, spatial, &mut gyt);
            gather_conv_dx(
                &pwt,
                &gyt,
                &need,
                &g,
                h,
                w,
                oh,
                ow,
                &mut dx[s * in_stride..(s + 1) * in_stride],
            );
        }
        assert_eq!(dx, want.input_grad.as_slice());
    }

    #[test]
    fn conv_gather_strided_unpadded_geometry() {
        let mut rng = StdRng::seed_from_u64(83);
        let g = Conv2dGeometry::square(2, 3, 3, 2, 0);
        let (h, w) = (7, 9);
        let (oh, ow) = g.output_hw(h, w).unwrap();
        let input = crate::init::uniform([1, 2, h, w], -1.0, 1.0, &mut rng);
        let weight = crate::init::uniform([3, 2, 3, 3], -1.0, 1.0, &mut rng);
        let grad_out = crate::init::uniform([1, 3, oh, ow], -1.0, 1.0, &mut rng);
        let want = dense_backward(&input, &weight, &grad_out, &g);
        let (cr, spatial, f) = (g.col_rows(), oh * ow, g.out_channels);
        let pwt = Csr::from_dense_transposed(f, cr, weight.as_slice());
        let mut gyt = vec![0.0f32; spatial * f];
        transpose_into(grad_out.as_slice(), f, spatial, &mut gyt);
        let need: Vec<u32> = (0..(2 * h * w) as u32).collect();
        let mut dx = vec![0.0f32; 2 * h * w];
        gather_conv_dx(&pwt, &gyt, &need, &g, h, w, oh, ow, &mut dx);
        assert_eq!(dx, want.input_grad.as_slice());
    }

    #[test]
    fn conv_gather_partial_matches_dense_on_needed_pixels() {
        let mut rng = StdRng::seed_from_u64(84);
        let g = Conv2dGeometry::square(3, 5, 3, 1, 1);
        let (h, w) = (4, 4);
        let (oh, ow) = g.output_hw(h, w).unwrap();
        let input = crate::init::uniform([1, 3, h, w], -1.0, 1.0, &mut rng);
        let weight = crate::init::uniform([5, 3, 3, 3], -1.0, 1.0, &mut rng);
        let grad_out = crate::init::uniform([1, 5, oh, ow], -1.0, 1.0, &mut rng);
        let want = dense_backward(&input, &weight, &grad_out, &g);
        let (cr, spatial, f) = (g.col_rows(), oh * ow, g.out_channels);
        let pwt = Csr::from_dense_transposed(f, cr, weight.as_slice());
        let mut gyt = vec![0.0f32; spatial * f];
        transpose_into(grad_out.as_slice(), f, spatial, &mut gyt);
        let in_elems = 3 * h * w;
        let need: Vec<u32> = (0..in_elems as u32).filter(|i| i % 5 < 2).collect();
        let mut dx = vec![0.0f32; in_elems];
        gather_conv_dx(&pwt, &gyt, &need, &g, h, w, oh, ow, &mut dx);
        for (i, &got) in dx.iter().enumerate() {
            if i % 5 < 2 {
                assert_eq!(got, want.input_grad.as_slice()[i], "needed pixel {i}");
            } else {
                assert_eq!(got, 0.0, "unneeded pixel {i} must stay zero");
            }
        }
    }

    #[test]
    fn threaded_linear_gather_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(85);
        let (b, out, cols) = (64, 96, 512);
        let w = crate::init::uniform([out, cols], -1.0, 1.0, &mut rng);
        let gy = crate::init::uniform([b, out], -1.0, 1.0, &mut rng);
        let pwt = Csr::from_dense_transposed(out, cols, w.as_slice());
        let mut rng2 = StdRng::seed_from_u64(86);
        let mask: Vec<bool> = (0..b * cols).map(|_| rng2.gen_bool(0.2)).collect();
        let ab = active_from_mask(b, cols, |i| mask[i]);
        let ser = run_serial(|| {
            let mut dx = vec![0.0f32; b * cols];
            gather_gy_wt(&ab, &pwt, gy.as_slice(), &mut dx);
            dx
        });
        let mut dx = vec![0.0f32; b * cols];
        gather_gy_wt(&ab, &pwt, gy.as_slice(), &mut dx);
        assert_eq!(dx, ser);
    }

    #[test]
    fn env_knob_defaults() {
        if std::env::var("NDSNN_GRAD_DENSITY_THRESHOLD").is_err() {
            assert_eq!(
                grad_density_threshold_from_env(),
                DEFAULT_GRAD_DENSITY_THRESHOLD
            );
        }
        if std::env::var("NDSNN_GRAD_ACTIVE_THRESHOLD").is_err() {
            assert_eq!(
                grad_active_threshold_from_env(),
                DEFAULT_GRAD_ACTIVE_THRESHOLD
            );
        }
    }

    #[test]
    fn empty_need_set_leaves_dx_zero() {
        let g = Conv2dGeometry::square(1, 1, 3, 1, 1);
        let pwt = Csr::from_dense_transposed(1, 9, &[1.0f32; 9]);
        let gyt = vec![1.0f32; 16];
        let mut dx = vec![0.0f32; 16];
        gather_conv_dx(&pwt, &gyt, &[], &g, 4, 4, 4, 4, &mut dx);
        assert!(dx.iter().all(|&v| v == 0.0));
    }
}
