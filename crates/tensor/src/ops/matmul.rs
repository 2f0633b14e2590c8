//! Matrix multiplication kernels.
//!
//! All three products needed by backpropagation (`A·B`, `Aᵀ·B`, `A·Bᵀ`)
//! route through the tiled micro-kernel core in [`crate::ops::tile`]: the
//! transposed variants are just [`tile::PanelA`]/[`tile::PanelB`] layout
//! choices, so no transposed copy is ever materialized. Parallel dispatch is
//! over output *tiles* (not rows), gated by the minimum-work heuristic
//! (`NDSNN_MIN_TILE_WORK`) so small products stay serial.
//!
//! Every per-element accumulation is a `+0.0`-seeded ascending-k chain
//! regardless of the thread count or tile partition — the chain of the naive
//! [`crate::reference`] kernels — so results are bit-identical across
//! `NDSNN_THREADS` and to the reference, as the tests below assert.

use crate::error::{Result, TensorError};
use crate::ops::tile::{self, gemm_tiled, NoEpilogue, PanelA, PanelB, TileEpilogue};
use crate::parallel::{parallel_for_chunks, worker_threads};
use crate::tensor::Tensor;

/// Minimum multiply-add count (`m·k·n`) before a row-range product is worth
/// threading; below this, waking the pool workers costs more than it buys.
const PAR_MIN_MACS: usize = 1 << 17;

fn check2d(t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// Splits `c` (an `m×n` output) into per-worker row ranges and runs
/// `body(row0, rows, c_rows)` on each, threading only when the product has
/// enough work (`macs = m·k·n`) and more than one worker is available.
///
/// `body` must compute rows `row0..row0+rows` of the output exactly as the
/// serial kernel would — the partition carries no state, so any row split
/// yields bit-identical results.
///
/// Public so out-of-crate sparse kernels (the CSR inference spmv in
/// `ndsnn-sparse`) thread over the *same* row partition as the dense and
/// pattern-sparse kernels here, keeping the whole dispatch family
/// bit-identical at every thread count.
pub fn for_output_row_ranges<F>(c: &mut [f32], m: usize, n: usize, macs: usize, body: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    if m == 0 || n == 0 {
        return;
    }
    let workers = worker_threads(m);
    if workers <= 1 || macs < PAR_MIN_MACS {
        body(0, m, c);
        return;
    }
    let rows_per = m.div_ceil(workers);
    let chunks: Vec<(usize, &mut [f32])> = c.chunks_mut(rows_per * n).enumerate().collect();
    parallel_for_chunks(chunks, |ci, c_rows| {
        body(ci * rows_per, c_rows.len() / n, c_rows);
    });
}

/// `C = A(m×k) · B(k×n)`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = check2d(a)?;
    let (kb, n) = check2d(b)?;
    if k != kb {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: kb,
        });
    }
    let mut c = Tensor::zeros([m, n]);
    matmul_into(a.as_slice(), b.as_slice(), c.as_mut_slice(), m, k, n);
    Ok(c)
}

/// `C = Aᵀ(k×m)ᵀ... ` i.e. `C(m×n) = Aᵀ · B` where `A` is `k×m`, `B` is `k×n`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = check2d(a)?;
    let (kb, n) = check2d(b)?;
    if k != kb {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: m,
            rhs_rows: kb,
        });
    }
    let mut c = Tensor::zeros([m, n]);
    gemm_tiled(
        PanelA::Cols(a.as_slice()),
        PanelB::Rows(b.as_slice()),
        c.as_mut_slice(),
        m,
        k,
        n,
        &NoEpilogue,
        tile::tile_scratch(),
    );
    Ok(c)
}

/// `C(m×n) = A(m×k) · Bᵀ` where `B` is `n×k`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    matmul_a_bt_epilogue(a, b, &NoEpilogue)
}

/// `C(m×n) = A(m×k) · Bᵀ` (`B` is `n×k`) with a fused per-tile epilogue —
/// the linear layers fuse their bias add here ([`tile::BiasCol`], columns
/// are output features) instead of a second pass over the output.
pub fn matmul_a_bt_epilogue<E: TileEpilogue>(a: &Tensor, b: &Tensor, epi: &E) -> Result<Tensor> {
    let (m, k) = check2d(a)?;
    let (n, kb) = check2d(b)?;
    if k != kb {
        return Err(TensorError::MatmulDimMismatch {
            lhs_cols: k,
            rhs_rows: kb,
        });
    }
    let mut c = Tensor::zeros([m, n]);
    gemm_tiled(
        PanelA::Rows(a.as_slice()),
        PanelB::Cols(b.as_slice()),
        c.as_mut_slice(),
        m,
        k,
        n,
        epi,
        tile::tile_scratch(),
    );
    Ok(c)
}

/// Tiled `C += A·B` on raw row-major slices.
///
/// `a` is `m×k`, `b` is `k×n`, `c` is `m×n`. Exposed for kernels that drive
/// GEMM over raw workspaces (the sparse engine's dense fallbacks, col
/// buffers). Dispatches over tiles for large products; called from inside an
/// already-parallel region it runs inline (the nested-parallelism guard in
/// [`crate::parallel`]).
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_tiled(
        PanelA::Rows(a),
        PanelB::Rows(b),
        c,
        m,
        k,
        n,
        &NoEpilogue,
        tile::tile_scratch(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.dims() == b.dims()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn blocked_matches_naive_nonsquare() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let a = crate::init::uniform([70, 130], -1.0, 1.0, &mut rng);
        let b = crate::init::uniform([130, 65], -1.0, 1.0, &mut rng);
        let want = reference::matmul(a.as_slice(), b.as_slice(), 70, 130, 65);
        assert_eq!(matmul(&a, &b).unwrap().as_slice(), &want[..]);
    }

    #[test]
    fn transposed_variants_match() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let a = crate::init::uniform([40, 30], -1.0, 1.0, &mut rng);
        let b = crate::init::uniform([40, 20], -1.0, 1.0, &mut rng);
        // A^T B via explicit transpose
        let want = matmul(&a.transpose2d().unwrap(), &b).unwrap();
        assert!(approx_eq(&matmul_at_b(&a, &b).unwrap(), &want, 1e-4));

        let c = crate::init::uniform([25, 30], -1.0, 1.0, &mut rng);
        let a2 = crate::init::uniform([10, 30], -1.0, 1.0, &mut rng);
        let want2 = matmul(&a2, &c.transpose2d().unwrap()).unwrap();
        assert!(approx_eq(&matmul_a_bt(&a2, &c).unwrap(), &want2, 1e-4));
    }

    /// Direct naive references for the transposed kernels — the existing test
    /// above routes through `matmul`, which would hide a shared bug.
    #[test]
    fn transposed_variants_match_naive_triple_loop() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        // Include exact zeros so zero products ride the chain.
        let mut a = crate::init::uniform([33, 47], -1.0, 1.0, &mut rng);
        for v in a.as_mut_slice().iter_mut().step_by(3) {
            *v = 0.0;
        }
        let b = crate::init::uniform([33, 21], -1.0, 1.0, &mut rng);
        let want = reference::matmul_at_b(a.as_slice(), b.as_slice(), 47, 33, 21);
        assert_eq!(matmul_at_b(&a, &b).unwrap().as_slice(), &want[..]);

        let a2 = crate::init::uniform([17, 29], -1.0, 1.0, &mut rng);
        let b2 = crate::init::uniform([23, 29], -1.0, 1.0, &mut rng);
        let want2 = reference::matmul_a_bt(a2.as_slice(), b2.as_slice(), 17, 29, 23);
        assert_eq!(matmul_a_bt(&a2, &b2).unwrap().as_slice(), &want2[..]);
    }

    /// Products big enough to actually thread must equal both the serial
    /// run and the naive reference bit-for-bit (disjoint output tiles,
    /// identical accumulation order).
    #[test]
    fn threaded_products_bit_identical_to_serial() {
        use crate::parallel::run_serial;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        // 96·80·96 ≈ 737k MACs — clears PAR_MIN_MACS.
        let a = crate::init::uniform([96, 80], -1.0, 1.0, &mut rng);
        let b = crate::init::uniform([80, 96], -1.0, 1.0, &mut rng);
        let at = a.transpose2d().unwrap(); // 80×96
        let bt = b.transpose2d().unwrap(); // 96×80
        let (ad, bd) = (a.as_slice(), b.as_slice());

        let want = reference::matmul(ad, bd, 96, 80, 96);
        assert_eq!(matmul(&a, &b).unwrap().as_slice(), &want[..]);
        assert_eq!(run_serial(|| matmul(&a, &b)).unwrap().as_slice(), &want[..]);

        let want = reference::matmul_at_b(at.as_slice(), bd, 96, 80, 96);
        assert_eq!(matmul_at_b(&at, &b).unwrap().as_slice(), &want[..]);
        assert_eq!(
            run_serial(|| matmul_at_b(&at, &b)).unwrap().as_slice(),
            &want[..]
        );

        let want = reference::matmul_a_bt(ad, bt.as_slice(), 96, 80, 96);
        assert_eq!(matmul_a_bt(&a, &bt).unwrap().as_slice(), &want[..]);
        assert_eq!(
            run_serial(|| matmul_a_bt(&a, &bt)).unwrap().as_slice(),
            &want[..]
        );
    }

    #[test]
    fn dim_mismatch_rejected() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch {
                lhs_cols: 3,
                rhs_rows: 4
            })
        ));
    }

    #[test]
    fn degenerate_dims_ok() {
        let a = Tensor::zeros([0, 5]);
        let b = Tensor::zeros([5, 4]);
        assert_eq!(matmul(&a, &b).unwrap().dims(), &[0, 4]);
        let c = Tensor::zeros([3, 0]);
        let d = Tensor::zeros([0, 2]);
        assert_eq!(matmul(&c, &d).unwrap().dims(), &[3, 2]);
    }
}
