//! Spike-sparsity-aware binary gather kernels.
//!
//! LIF/PLIF layers emit tensors whose entries are *exactly* `0.0` or `1.0`.
//! Downstream products therefore never need multiplies: a row of spikes
//! selects a subset of weight columns, and the product is a gather-accumulate
//! over the fired indices. An index-only [`Csr`] packs those fired indices per
//! batch row (the same layout as a weight plan, but over *activations*), and
//! the linear kernels here consume it.
//!
//! The conv kernels ([`spike_conv_fwd`], [`spike_conv_fwd_dense`],
//! [`spike_conv_dw`]) consume one sample's *packed operand* instead
//! ([`PackedSpikes`]): [`im2col_packed`]'s per-col-row lists of fired
//! output positions, built straight from the input's fired pixels. A
//! padding tap or a silent pixel never gets an entry, so the kernels walk
//! only the col rows that have one — at a 1×1 input under padding 1, eight
//! of nine taps read padding and never appear. The forward walk is the one
//! sparse conv forward of the crate: training runs it over a weight plan,
//! the frozen executor over an f32 or int8 weight's column view
//! (accumulating int8 into `i32`, see [`crate::ops::quant`]).
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

use std::ops::AddAssign;

use crate::ops::conv::{im2col_packed, Conv2dGeometry};
use crate::ops::spmm::live_row;
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

/// One sample's im2col matrix over a binary input, packed by
/// [`im2col_packed`]: col row `r`'s fired output positions, ascending, plus
/// the ascending list of col rows that have at least one. A padding tap or
/// a silent pixel never has an entry. The buffers come from a
/// [`ScratchPool`] ([`PackedSpikes::take`]) and go back to it
/// ([`PackedSpikes::give`]); one operand is repacked sample after sample.
#[derive(Debug)]
pub struct PackedSpikes {
    ptr: Vec<u32>,
    pos: Vec<u32>,
    rows: Vec<u32>,
}

impl PackedSpikes {
    /// An empty operand over buffers from `pool`.
    pub fn take(pool: &ScratchPool) -> Self {
        PackedSpikes {
            ptr: pool.take_u32(),
            pos: pool.take_u32(),
            rows: pool.take_u32(),
        }
    }

    /// Packs one `(C, H, W)` sample, replacing the previous contents. Every
    /// non-zero pixel counts as a spike: the caller certifies the input
    /// binary (or, for int8 weights, wants exactly that reading).
    #[allow(clippy::too_many_arguments)] // im2col's signature + the pool
    pub fn pack(
        &mut self,
        sample: &[f32],
        g: &Conv2dGeometry,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        pool: &ScratchPool,
    ) {
        im2col_packed(sample, g, h, w, oh, ow, &mut self.ptr, &mut self.pos, pool);
        self.rows.clear();
        self.rows.extend(
            self.ptr
                .windows(2)
                .enumerate()
                .filter(|(_, span)| span[0] < span[1])
                .map(|(r, _)| r as u32),
        );
    }

    /// Returns the buffers to `pool`.
    pub fn give(self, pool: &ScratchPool) {
        pool.give_u32(self.ptr);
        pool.give_u32(self.pos);
        pool.give_u32(self.rows);
    }

    /// Col rows (`C·KH·KW`).
    fn col_rows(&self) -> usize {
        self.ptr.len() - 1
    }

    /// The ascending fired output positions of col row `r`.
    fn fired(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.pos[self.ptr[r] as usize..self.ptr[r + 1] as usize]
    }
}

/// Forward convolution of one sample over its packed spike operand:
/// `out(F × spatial) += W(F × cr) · col(cr × spatial)`, with `W` given as
/// its column view `cols` (`cr × F`, the live filters of each col row,
/// ascending) and their values `vals` in entry order: a training plan with
/// its [`plan_values`](crate::ops::spmm::plan_values), or a frozen f32 or
/// int8 weight's [`crate::Csr::column_view`] (int8 sums into `A = i32`).
///
/// Only col rows with a fired position are walked, in ascending order, and
/// each live weight `W[f, r]` is added at `r`'s positions, skipping stored
/// zeros: each output element sums its terms in ascending `r` from the zero
/// of a zeroed `out` — for f32 the chain of the dense tiles, so the bits
/// match them (the module doc shows why dropped `±0.0` terms are no-ops),
/// for int8 an exact integer sum. The work is live weights × fired taps.
/// Serial: the conv forward calls it per sample from parallel workers.
pub fn spike_conv_fwd<V, A>(cols: &Csr, vals: &[V], x: &PackedSpikes, out: &mut [A], spatial: usize)
where
    V: Copy + PartialEq + Default,
    A: Copy + AddAssign + From<V>,
{
    debug_assert_eq!(cols.rows(), x.col_rows());
    debug_assert_eq!(vals.len(), cols.nnz());
    debug_assert_eq!(out.len(), cols.cols() * spatial);
    for &r in &x.rows {
        let at = x.fired(r);
        for (f, wv) in live_row(cols, vals, r as usize) {
            if wv == V::default() {
                // Freshly grown connections sit at zero until updated.
                continue;
            }
            let (orow, wv) = (&mut out[f * spatial..(f + 1) * spatial], A::from(wv));
            for &p in at {
                orow[p as usize] += wv;
            }
        }
    }
}

/// [`spike_conv_fwd`] over every filter of a dense row-major `W(F × cr)`,
/// skipping `W == 0`: the spike walk of a layer without a weight plan.
/// Filter-major keeps one weight row and one output row hot; each element's
/// chain is still ascending in `r`, so the bits are the same.
pub fn spike_conv_fwd_dense(w: &[f32], x: &PackedSpikes, out: &mut [f32], spatial: usize) {
    let cr = x.col_rows();
    debug_assert_eq!(w.len() / cr.max(1) * spatial, out.len());
    for (wrow, orow) in w.chunks_exact(cr).zip(out.chunks_exact_mut(spatial)) {
        for &r in &x.rows {
            let wv = wrow[r as usize];
            if wv == 0.0 {
                continue;
            }
            for &p in x.fired(r) {
                orow[p as usize] += wv;
            }
        }
    }
}

/// Weight gradient of one sample over its packed spike operand (see
/// [`spike_conv_fwd`]): `wg(F × cr) += gy(F × spatial) · colᵀ`.
///
/// For each col row `r` with a fired position and every filter `f`, sums
/// `gy[f, p]` over `r`'s positions in ascending order from `+0.0`, then
/// does `wg[f, r] += acc` — the per-element chain of the dense `dW`, so
/// results are bit-identical to it. Rows with no fired position are skipped,
/// which is exact: `wg` starts at `+0.0` and only ever receives sums seeded
/// at `+0.0`, so it never holds `−0.0`, and adding the skipped `+0.0` would
/// change nothing. `wg` stays dense-valued: live and masked weights alike
/// receive their gradient. Serial by design (called per sample from
/// parallel block workers).
pub fn spike_conv_dw(gy: &[f32], x: &PackedSpikes, wg: &mut [f32], f_out: usize, spatial: usize) {
    let cr = x.col_rows();
    debug_assert_eq!(gy.len(), f_out * spatial);
    debug_assert_eq!(wg.len(), f_out * cr);
    for (gyrow, wrow) in gy.chunks_exact(spatial).zip(wg.chunks_exact_mut(cr)) {
        for &r in &x.rows {
            let mut acc = 0.0f32;
            for &p in x.fired(r) {
                acc += gyrow[p as usize];
            }
            wrow[r as usize] += acc;
        }
    }
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

    /// Row-compresses a binary `cr × spatial` col buffer into the packed
    /// operand `im2col_packed` emits: per row, ascending fired positions.
    fn pack_rows(col: &Tensor, spatial: usize) -> PackedSpikes {
        let (mut ptr, mut pos, mut rows) = (vec![0u32], Vec::new(), Vec::new());
        for (r, row) in col.as_slice().chunks_exact(spatial).enumerate() {
            pos.extend((0..spatial as u32).filter(|&p| row[p as usize] != 0.0));
            if pos.len() as u32 > *ptr.last().unwrap() {
                rows.push(r as u32);
            }
            ptr.push(pos.len() as u32);
        }
        PackedSpikes { ptr, pos, rows }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn spike_conv_fwd_bit_identical_to_dense_gemm() {
        let mut rng = StdRng::seed_from_u64(73);
        let (f_out, cr, spatial) = (6, 130, 45);
        // A third of the weight is masked off the plan; a few live entries
        // sit at zero like freshly grown connections.
        let mut w = crate::init::uniform([f_out, cr], -1.0, 1.0, &mut rng);
        let mut mask = vec![1.0f32; f_out * cr];
        for (i, (wv, m)) in w.as_mut_slice().iter_mut().zip(&mut mask).enumerate() {
            if i % 3 == 0 {
                (*wv, *m) = (0.0, 0.0);
            } else if i % 7 == 0 {
                *wv = 0.0;
            }
        }
        let plan = Csr::from_mask_transposed(f_out, cr, &mask);
        let mut live = Vec::new();
        crate::ops::spmm::plan_values(&plan, w.as_slice(), &mut live);
        for density in [0.0, 0.05, 0.5, 1.0] {
            let col = spike_tensor(cr, spatial, density, &mut rng);
            let x = pack_rows(&col, spatial);
            let mut dense = vec![0.0f32; f_out * spatial];
            matmul_into(w.as_slice(), col.as_slice(), &mut dense, f_out, cr, spatial);
            for with_plan in [false, true] {
                let mut got = vec![0.0f32; f_out * spatial];
                if with_plan {
                    spike_conv_fwd(&plan, &live, &x, &mut got, spatial);
                } else {
                    spike_conv_fwd_dense(w.as_slice(), &x, &mut got, spatial);
                }
                assert_eq!(
                    bits(&got),
                    bits(&dense),
                    "density {density}, plan {with_plan}"
                );
            }
        }
    }

    #[test]
    fn spike_conv_dw_bit_identical_to_dense_loop() {
        let mut rng = StdRng::seed_from_u64(74);
        let (f_out, cr, spatial) = (5, 21, 38);
        let mut gy = crate::init::uniform([f_out, spatial], -1.0, 1.0, &mut rng);
        for v in gy.as_mut_slice().iter_mut().step_by(7) {
            *v = 0.0;
        }
        for density in [0.0, 0.05, 0.5, 1.0] {
            let col = spike_tensor(cr, spatial, density, &mut rng);
            let x = pack_rows(&col, spatial);
            // The dense dW chain of `reference::conv2d_backward`, over two
            // samples so the skipped rows must leave earlier sums alone.
            let mut dense = vec![0.0f32; f_out * cr];
            let mut got = vec![0.0f32; f_out * cr];
            for _ in 0..2 {
                for f in 0..f_out {
                    let gyrow = &gy.as_slice()[f * spatial..(f + 1) * spatial];
                    for r in 0..cr {
                        let crow = &col.as_slice()[r * spatial..(r + 1) * spatial];
                        let mut acc = 0.0f32;
                        for (gv, cv) in gyrow.iter().zip(crow) {
                            acc += gv * cv;
                        }
                        dense[f * cr + r] += acc;
                    }
                }
                spike_conv_dw(gy.as_slice(), &x, &mut got, f_out, spatial);
            }
            assert_eq!(bits(&got), bits(&dense), "density {density}");
        }
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
