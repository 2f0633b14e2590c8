//! Property tests pinning the tiled kernel core's bit-identity contract.
//!
//! The tiled GEMM/conv core promises the *same f32 operation sequence* as
//! the naive [`ndsnn_tensor::reference`] kernels, for every shape (including
//! ragged edges that exercise panel zero-padding), every thread count, and
//! with or without a fused epilogue. These tests check `to_bits()` equality
//! — not an epsilon — against the reference at threads {1, 2, 4} under
//! forced tile-parallel dispatch.

use std::sync::Mutex;

use ndsnn_tensor::ops::conv::{
    conv2d_backward, conv2d_forward, Conv2dGeometry, ConvBackward, ConvWeight,
};
use ndsnn_tensor::ops::matmul::{matmul, matmul_a_bt, matmul_a_bt_epilogue, matmul_at_b};
use ndsnn_tensor::ops::tile::{
    set_min_tile_work_override, AffineRow, BiasCol, BiasRow, NoEpilogue,
};
use ndsnn_tensor::parallel::set_thread_override;
use ndsnn_tensor::reference;
use ndsnn_tensor::scratch::ScratchPool;
use ndsnn_tensor::{Csr, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The thread/min-work overrides are process globals; property tests run on
/// multiple test threads, so every test that flips them holds this lock.
static OVERRIDES: Mutex<()> = Mutex::new(());

/// RAII reset so a failing case does not leak forced-parallel dispatch into
/// other tests.
struct ForceTiling;

impl ForceTiling {
    fn new(threads: usize) -> ForceTiling {
        set_thread_override(Some(threads));
        set_min_tile_work_override(Some(0));
        ForceTiling
    }
}

impl Drop for ForceTiling {
    fn drop(&mut self) {
        set_thread_override(None);
        set_min_tile_work_override(None);
    }
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) -> std::result::Result<(), TestCaseError> {
    prop_assert!(got.len() == want.len(), "{}: length mismatch", label);
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "{}: bit divergence at {} ({} vs {})",
            label,
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three tiled matmul entry points must be bit-identical to the
    /// reference on arbitrary (odd) shapes, serial and under forced
    /// tile-parallel dispatch.
    #[test]
    fn tiled_matmul_bit_identical_to_reference(
        m in 1usize..90, k in 1usize..70, n in 1usize..90, seed in 0u64..1000,
    ) {
        let _guard = OVERRIDES.lock().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ndsnn_tensor::init::uniform([m, k], -1.0, 1.0, &mut rng);
        let b = ndsnn_tensor::init::uniform([k, n], -1.0, 1.0, &mut rng);
        let at = a.transpose2d().unwrap();
        let bt = b.transpose2d().unwrap();
        let want = reference::matmul(a.as_slice(), b.as_slice(), m, k, n);
        let want_at_b = reference::matmul_at_b(at.as_slice(), b.as_slice(), m, k, n);
        let want_a_bt = reference::matmul_a_bt(a.as_slice(), bt.as_slice(), m, k, n);

        for threads in [1usize, 2, 4] {
            let _force = ForceTiling::new(threads);
            assert_bits("matmul", matmul(&a, &b).unwrap().as_slice(), &want)?;
            assert_bits("matmul_at_b", matmul_at_b(&at, &b).unwrap().as_slice(), &want_at_b)?;
            assert_bits("matmul_a_bt", matmul_a_bt(&a, &bt).unwrap().as_slice(), &want_a_bt)?;
        }
    }

    /// Implicit-GEMM conv forward (with bias) and backward must be
    /// bit-identical to the reference on odd geometries, serial and under
    /// forced tile-parallel dispatch.
    #[test]
    fn tiled_conv_fwd_bwd_bit_identical_to_reference(
        b in 1usize..5, cin in 1usize..4, f in 1usize..6,
        hw in 5usize..10, stride in 1usize..3, padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        let _guard = OVERRIDES.lock().unwrap();
        let g = Conv2dGeometry::square(cin, f, 3, stride, padding);
        prop_assume!(g.output_hw(hw, hw).is_ok());
        let mut rng = StdRng::seed_from_u64(seed);
        let x = ndsnn_tensor::init::uniform([b, cin, hw, hw], -1.0, 1.0, &mut rng);
        let w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let bias = ndsnn_tensor::init::uniform([f], -1.0, 1.0, &mut rng);
        let pool = ScratchPool::new();

        let want_fwd = reference::conv2d_forward(&x, &w, Some(bias.as_slice()), &g);
        let gy = ndsnn_tensor::init::uniform(want_fwd.shape().clone(), -1.0, 1.0, &mut rng);
        let want_bwd = reference::conv2d_backward(&x, &w, &gy, &g);

        for threads in [1usize, 2, 4] {
            let _force = ForceTiling::new(threads);
            let epi = BiasRow(bias.as_slice());
            let fwd = conv2d_forward(&x, ConvWeight::Dense(&w), &g, false, &epi, &pool).unwrap();
            assert_bits("conv fwd", fwd.as_slice(), want_fwd.as_slice())?;
            let bwd = conv2d_backward(&x, &w, &gy, &g, &ConvBackward::default(), &pool).unwrap();
            assert_bits("conv dW", bwd.weight_grad.as_slice(), want_bwd.weight_grad.as_slice())?;
            assert_bits("conv dX", bwd.input_grad.as_slice(), want_bwd.input_grad.as_slice())?;
            assert_bits("conv db", bwd.bias_grad.as_slice(), want_bwd.bias_grad.as_slice())?;
        }
    }

    /// A fused epilogue must produce exactly the bits of the unfused
    /// kernel-then-post-pass sequence: the epilogue runs after each output
    /// element's full k-accumulation, precisely where the post pass ran.
    #[test]
    fn fused_epilogues_bit_identical_to_unfused(
        m in 1usize..40, k in 1usize..50, n in 1usize..40, seed in 0u64..1000,
    ) {
        let _guard = OVERRIDES.lock().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ndsnn_tensor::init::uniform([m, k], -1.0, 1.0, &mut rng);
        let bt = ndsnn_tensor::init::uniform([n, k], -1.0, 1.0, &mut rng);
        let bias = ndsnn_tensor::init::uniform([n], -1.0, 1.0, &mut rng);

        let g = Conv2dGeometry::square(2, 3, 3, 1, 1);
        let x = ndsnn_tensor::init::uniform([2, 2, 7, 7], -1.0, 1.0, &mut rng);
        let w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let cbias = ndsnn_tensor::init::uniform([3], -1.0, 1.0, &mut rng);
        let pool = ScratchPool::new();

        for threads in [1usize, 2, 4] {
            let _force = ForceTiling::new(threads);

            // Linear: fused per-column bias vs unfused matmul + bias pass.
            let fused = matmul_a_bt_epilogue(&a, &bt, &BiasCol(bias.as_slice())).unwrap();
            let mut unfused = matmul_a_bt(&a, &bt).unwrap();
            for row in unfused.as_mut_slice().chunks_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias.as_slice()) {
                    *o += bv;
                }
            }
            assert_bits("BiasCol", fused.as_slice(), unfused.as_slice())?;

            // Conv: fused per-channel bias vs unfused conv + bias pass.
            let fused = conv2d_forward(
                &x, ConvWeight::Dense(&w), &g, false, &BiasRow(cbias.as_slice()), &pool,
            ).unwrap();
            let mut unfused =
                conv2d_forward(&x, ConvWeight::Dense(&w), &g, false, &NoEpilogue, &pool).unwrap();
            for (i, v) in unfused.as_mut_slice().iter_mut().enumerate() {
                *v += cbias.as_slice()[i / 49 % 3];
            }
            assert_bits("BiasRow", fused.as_slice(), unfused.as_slice())?;
        }
    }

    /// The sparse forward kernels apply the epilogue per output-channel row
    /// of each sample, after the full accumulation: on a binary input and a
    /// weight that is zero off its plan, `WeightPlan` and `SpikeGather` (with
    /// and without the plan) with a frozen-BatchNorm affine (conv bias folded
    /// in) must give the bits of `Dense` with the same epilogue fused per
    /// tile.
    #[test]
    fn sparse_conv_kernels_with_affine_epilogue_bit_identical_to_dense(
        b in 1usize..4, cin in 1usize..4, f in 1usize..6, density_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let _guard = OVERRIDES.lock().unwrap();
        let density = [0.0, 0.1, 0.5, 1.0][density_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Conv2dGeometry::square(cin, f, 3, 1, 1);
        let x = Tensor::from_vec(
            [b, cin, 6, 6],
            (0..b * cin * 36).map(|_| f32::from(rng.gen_bool(density))).collect(),
        )
        .unwrap();
        let mut w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let mask: Vec<f32> = (0..w.len()).map(|_| f32::from(rng.gen_bool(0.3))).collect();
        for (wv, m) in w.as_mut_slice().iter_mut().zip(&mask) {
            *wv *= m;
        }
        let pat = Csr::from_mask_transposed(f, g.col_rows(), &mask);
        let per_channel = |lo: f32, hi: f32, rng: &mut StdRng| {
            ndsnn_tensor::init::uniform([f], lo, hi, rng).as_slice().to_vec()
        };
        let bias = per_channel(-1.0, 1.0, &mut rng);
        let mean = per_channel(-1.0, 1.0, &mut rng);
        let inv_std = per_channel(0.5, 2.0, &mut rng);
        let gamma = per_channel(-2.0, 2.0, &mut rng);
        let beta = per_channel(-1.0, 1.0, &mut rng);
        let epi = AffineRow {
            bias: Some(&bias),
            mean: &mean,
            inv_std: &inv_std,
            gamma: &gamma,
            beta: &beta,
        };
        let pool = ScratchPool::new();

        for threads in [1usize, 2, 4] {
            let _force = ForceTiling::new(threads);
            let dense = conv2d_forward(&x, ConvWeight::Dense(&w), &g, false, &epi, &pool).unwrap();
            for (label, weight, spikes) in [
                ("weight plan", ConvWeight::Plan(&w, &pat), false),
                ("spike gather", ConvWeight::Dense(&w), true),
                ("spike gather over the plan", ConvWeight::Plan(&w, &pat), true),
            ] {
                let got = conv2d_forward(&x, weight, &g, spikes, &epi, &pool).unwrap();
                assert_bits(label, got.as_slice(), dense.as_slice())?;
            }
        }
    }
}

/// A deliberately ragged shape (every dimension coprime to the 8/64/256
/// block sizes) under forced parallelism — the canonical regression shape
/// for panel-edge zero padding.
#[test]
fn ragged_shape_under_forced_parallelism() {
    let _guard = OVERRIDES.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let (m, k, n) = (131, 259, 67);
    let a = ndsnn_tensor::init::uniform([m, k], -1.0, 1.0, &mut rng);
    let b = ndsnn_tensor::init::uniform([k, n], -1.0, 1.0, &mut rng);
    let want = reference::matmul(a.as_slice(), b.as_slice(), m, k, n);
    for threads in [1usize, 2, 4] {
        let _force = ForceTiling::new(threads);
        let c = matmul(&a, &b).unwrap();
        assert!(
            c.as_slice()
                .iter()
                .zip(&want)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "threads={threads} diverged from the reference"
        );
    }
}
