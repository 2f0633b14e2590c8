//! Property-based tests for the tensor substrate.

use ndsnn_tensor::ops::conv::{
    conv2d_backward, conv2d_forward, Conv2dGeometry, ConvBackward, ConvWeight,
};
use ndsnn_tensor::ops::matmul::{matmul, matmul_a_bt, matmul_at_b};
use ndsnn_tensor::ops::reduce::{cross_entropy_with_grad, softmax};
use ndsnn_tensor::ops::tile::NoEpilogue;
use ndsnn_tensor::ops::topk::{bottom_k_indices, top_k_indices};
use ndsnn_tensor::scratch::ScratchPool;
use ndsnn_tensor::{serialize, Tensor};
use proptest::collection::vec;
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|x| x)
}

fn tensor_1d(max_len: usize) -> impl Strategy<Value = Tensor> {
    vec(finite_f32(), 1..=max_len).prop_map(|d| Tensor::from_slice(&d))
}

/// Dense forward with no epilogue.
fn fwd(x: &Tensor, w: &Tensor, g: &Conv2dGeometry) -> ndsnn_tensor::Result<Tensor> {
    conv2d_forward(
        x,
        ConvWeight::Dense(w),
        g,
        false,
        &NoEpilogue,
        &ScratchPool::new(),
    )
}

/// Dense backward.
fn bwd(
    x: &Tensor,
    w: &Tensor,
    gy: &Tensor,
    g: &Conv2dGeometry,
) -> ndsnn_tensor::Result<ndsnn_tensor::ops::conv::Conv2dGrads> {
    conv2d_backward(x, w, gy, g, &ConvBackward::default(), &ScratchPool::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_round_trips(t in tensor_1d(256)) {
        let back = serialize::decode(serialize::encode(&t)).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn add_commutes(d in vec((finite_f32(), finite_f32()), 1..128)) {
        let a = Tensor::from_slice(&d.iter().map(|p| p.0).collect::<Vec<_>>());
        let b = Tensor::from_slice(&d.iter().map(|p| p.1).collect::<Vec<_>>());
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn scale_distributes_over_add(d in vec((finite_f32(), finite_f32()), 1..64), s in -10.0f32..10.0) {
        let a = Tensor::from_slice(&d.iter().map(|p| p.0).collect::<Vec<_>>());
        let b = Tensor::from_slice(&d.iter().map(|p| p.1).collect::<Vec<_>>());
        let lhs = a.add(&b).unwrap().scale(s);
        let rhs = a.scale(s).add(&b.scale(s)).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn sparsity_in_unit_interval(t in tensor_1d(128)) {
        let s = t.sparsity();
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(t.count_nonzero() + (t.len() as f64 * s).round() as usize, t.len());
    }

    #[test]
    fn matmul_associates_with_identity(m in 1usize..8, k in 1usize..8, data in vec(finite_f32(), 64)) {
        let a = Tensor::from_vec([m, k], data[..m*k].to_vec()).unwrap();
        let mut eye = Tensor::zeros([k, k]);
        for i in 0..k { eye.set(&[i, i], 1.0); }
        let prod = matmul(&a, &eye).unwrap();
        prop_assert_eq!(prod, a);
    }

    #[test]
    fn transposed_matmuls_agree(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        data in vec(finite_f32(), 72),
    ) {
        prop_assume!(data.len() >= m*k + k*n);
        let a = Tensor::from_vec([m, k], data[..m*k].to_vec()).unwrap();
        let b = Tensor::from_vec([k, n], data[m*k..m*k+k*n].to_vec()).unwrap();
        let c = matmul(&a, &b).unwrap();
        let c2 = matmul_at_b(&a.transpose2d().unwrap(), &b).unwrap();
        let c3 = matmul_a_bt(&a, &b.transpose2d().unwrap()).unwrap();
        for ((x, y), z) in c.as_slice().iter().zip(c2.as_slice()).zip(c3.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-2 * (1.0 + x.abs()), "{} vs {}", x, y);
            prop_assert!((x - z).abs() <= 1e-2 * (1.0 + x.abs()), "{} vs {}", x, z);
        }
    }

    #[test]
    fn softmax_is_distribution(b in 1usize..5, k in 1usize..8, data in vec(-20.0f32..20.0, 40)) {
        prop_assume!(data.len() >= b * k);
        let logits = Tensor::from_vec([b, k], data[..b*k].to_vec()).unwrap();
        let p = softmax(&logits).unwrap();
        for i in 0..b {
            let row = &p.as_slice()[i*k..(i+1)*k];
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_nonnegative(b in 1usize..5, k in 2usize..8, data in vec(-5.0f32..5.0, 40), seed in 0usize..1000) {
        prop_assume!(data.len() >= b * k);
        let logits = Tensor::from_vec([b, k], data[..b*k].to_vec()).unwrap();
        let labels: Vec<usize> = (0..b).map(|i| (seed + i) % k).collect();
        let (loss, grad) = cross_entropy_with_grad(&logits, &labels).unwrap();
        prop_assert!(loss >= 0.0);
        prop_assert!(grad.all_finite());
        // Each row of the gradient sums to ~0 (softmax minus one-hot).
        for i in 0..b {
            let s: f32 = grad.as_slice()[i*k..(i+1)*k].iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    #[test]
    fn topk_selects_extremes(data in vec(finite_f32(), 2..100), k in 1usize..20) {
        let k = k.min(data.len());
        let top = top_k_indices(&data, k);
        prop_assert_eq!(top.len(), k);
        let bottom = bottom_k_indices(&data, k);
        // Every selected top value >= every unselected value.
        let min_top = top.iter().map(|&i| data[i]).fold(f32::INFINITY, f32::min);
        let max_bot = bottom.iter().map(|&i| data[i]).fold(f32::NEG_INFINITY, f32::max);
        for (i, &v) in data.iter().enumerate() {
            if !top.contains(&i) {
                prop_assert!(v <= min_top + 1e-6);
            }
            if !bottom.contains(&i) {
                prop_assert!(v >= max_bot - 1e-6);
            }
        }
    }

    #[test]
    fn conv_is_linear_in_input(
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Conv2dGeometry::square(2, 3, 3, 1, 1);
        let x = ndsnn_tensor::init::uniform([1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let y = ndsnn_tensor::init::uniform([1, 2, 5, 5], -1.0, 1.0, &mut rng);
        let w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let fxy = fwd(&x.add(&y).unwrap(), &w, &g).unwrap();
        let fx = fwd(&x, &w, &g).unwrap();
        let fy = fwd(&y, &w, &g).unwrap();
        let sum = fx.add(&fy).unwrap();
        for (a, b) in fxy.as_slice().iter().zip(sum.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
        }
    }

    /// Threaded matmuls must be bit-identical to `NDSNN_THREADS=1` on random
    /// shapes: workers own disjoint output-row ranges and run the same
    /// per-row loop, so the accumulation order never depends on the thread
    /// count. Shapes range past the parallel threshold (`m·k·n ≥ 2¹⁷`) so
    /// both the inline and the threaded dispatch are exercised.
    #[test]
    fn threaded_matmuls_bit_identical_to_serial(
        m in 1usize..80, k in 1usize..80, n in 1usize..80, seed in 0u64..1000,
    ) {
        use ndsnn_tensor::parallel::run_serial;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ndsnn_tensor::init::uniform([m, k], -1.0, 1.0, &mut rng);
        let b = ndsnn_tensor::init::uniform([k, n], -1.0, 1.0, &mut rng);
        let at = a.transpose2d().unwrap();
        let bt = b.transpose2d().unwrap();

        let threaded = matmul(&a, &b).unwrap();
        let serial = run_serial(|| matmul(&a, &b)).unwrap();
        prop_assert_eq!(threaded.as_slice(), serial.as_slice());

        let threaded = matmul_at_b(&at, &b).unwrap();
        let serial = run_serial(|| matmul_at_b(&at, &b)).unwrap();
        prop_assert_eq!(threaded.as_slice(), serial.as_slice());

        let threaded = matmul_a_bt(&a, &bt).unwrap();
        let serial = run_serial(|| matmul_a_bt(&a, &bt)).unwrap();
        prop_assert_eq!(threaded.as_slice(), serial.as_slice());
    }

    /// Same bit-identity guarantee for the sample-parallel convolution:
    /// forward workers write disjoint outputs; backward blocks are fixed by
    /// the batch size and reduce in block order regardless of threads.
    #[test]
    fn threaded_conv_bit_identical_to_serial(
        b in 1usize..12, cin in 1usize..4, f in 1usize..5, seed in 0u64..500,
    ) {
        use ndsnn_tensor::parallel::run_serial;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Conv2dGeometry::square(cin, f, 3, 1, 1);
        let x = ndsnn_tensor::init::uniform([b, cin, 7, 7], -1.0, 1.0, &mut rng);
        let w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);

        let y = fwd(&x, &w, &g).unwrap();
        let y_serial = run_serial(|| fwd(&x, &w, &g)).unwrap();
        prop_assert_eq!(y.as_slice(), y_serial.as_slice());

        let gy = ndsnn_tensor::init::uniform(y.shape().clone(), -1.0, 1.0, &mut rng);
        let grads = bwd(&x, &w, &gy, &g).unwrap();
        let grads_serial = run_serial(|| bwd(&x, &w, &gy, &g)).unwrap();
        prop_assert_eq!(grads.input_grad.as_slice(), grads_serial.input_grad.as_slice());
        prop_assert_eq!(grads.weight_grad.as_slice(), grads_serial.weight_grad.as_slice());
        prop_assert_eq!(grads.bias_grad.as_slice(), grads_serial.bias_grad.as_slice());
    }

    #[test]
    fn conv_gradient_is_adjoint(seed in 0u64..500) {
        // <conv(x), gy> == <x, conv_backward_input(gy)> for linear conv.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Conv2dGeometry::square(2, 2, 3, 2, 1);
        let x = ndsnn_tensor::init::uniform([2, 2, 6, 6], -1.0, 1.0, &mut rng);
        let w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let y = fwd(&x, &w, &g).unwrap();
        let gy = ndsnn_tensor::init::uniform(y.shape().clone(), -1.0, 1.0, &mut rng);
        let grads = bwd(&x, &w, &gy, &g).unwrap();
        let lhs = y.dot(&gy).unwrap();
        let rhs = x.dot(&grads.input_grad).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The spike-gather forward must be bit-identical to the dense matmul on
    /// binary activations at every density, including the degenerate all-zero
    /// and all-one batches. (The CI matrix runs this under NDSNN_THREADS=1
    /// and =4; the serial comparison below covers the split independently.)
    #[test]
    fn spike_gather_forward_bit_identical_to_dense(
        b in 1usize..10,
        cols in 1usize..96,
        out in 1usize..48,
        density_sel in 0usize..4,
        seed in 0u64..500,
    ) {
        use ndsnn_tensor::ops::spike::gather_xwt;
        use ndsnn_tensor::parallel::run_serial;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let density = [0.0, 0.05, 0.5, 1.0][density_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let spikes = Tensor::from_vec(
            [b, cols],
            (0..b * cols)
                .map(|_| f32::from(rng.gen::<f64>() < density))
                .collect(),
        )
        .unwrap();
        let w = ndsnn_tensor::init::uniform([out, cols], -1.0, 1.0, &mut rng);
        let sb = ndsnn_tensor::Csr::from_binary(b, cols, spikes.as_slice()).unwrap();
        prop_assert_eq!(sb.nnz(), spikes.count_nonzero());

        let dense = matmul_a_bt(&spikes, &w).unwrap();
        let mut y = vec![0.0f32; b * out];
        gather_xwt(&sb, w.as_slice(), &mut y, out);
        prop_assert_eq!(dense.as_slice(), &y[..]);

        let mut y_serial = vec![0.0f32; b * out];
        run_serial(|| gather_xwt(&sb, w.as_slice(), &mut y_serial, out));
        prop_assert_eq!(&y_serial[..], &y[..]);
    }

    /// The spike-gather weight-gradient (`dW = gyᵀ·x` over fired columns of
    /// x) must be bit-identical to the dense matmul at every density.
    #[test]
    fn spike_gather_weight_grad_bit_identical_to_dense(
        b in 1usize..10,
        cols in 1usize..96,
        out in 1usize..48,
        density_sel in 0usize..4,
        seed in 0u64..500,
    ) {
        use ndsnn_tensor::ops::spike::gather_at_b;
        use ndsnn_tensor::parallel::run_serial;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let density = [0.0, 0.05, 0.5, 1.0][density_sel];
        let mut rng = StdRng::seed_from_u64(seed);
        let spikes = Tensor::from_vec(
            [b, cols],
            (0..b * cols)
                .map(|_| f32::from(rng.gen::<f64>() < density))
                .collect(),
        )
        .unwrap();
        let gy = ndsnn_tensor::init::uniform([b, out], -1.0, 1.0, &mut rng);
        let sb = ndsnn_tensor::Csr::from_binary(b, cols, spikes.as_slice()).unwrap();

        let dense = matmul_at_b(&gy, &spikes).unwrap();
        let mut dw = vec![0.0f32; out * cols];
        gather_at_b(gy.as_slice(), &sb, &mut dw, out);
        prop_assert_eq!(dense.as_slice(), &dw[..]);

        let mut dw_serial = vec![0.0f32; out * cols];
        run_serial(|| gather_at_b(gy.as_slice(), &sb, &mut dw_serial, out));
        prop_assert_eq!(&dw_serial[..], &dw[..]);
    }

    /// The conv spike path (forward and dW over the packed operand) must be
    /// bit-identical to the reference on binary inputs at every density,
    /// with and without a weight plan, at 1 and 2 threads. Input edges of
    /// 1–3 pixels under padding make most im2col taps read padding, the
    /// shape of Small VGG-16's conv7–12 (1×1 under padding 1).
    #[test]
    fn spike_gather_conv_bit_identical_to_dense(
        b in 1usize..5,
        cin in 1usize..4,
        f in 1usize..5,
        edges in (0usize..4, 0usize..4),
        stride in 1usize..3,
        padding in 0usize..2,
        planned in 0usize..2,
        density_sel in 0usize..4,
        seed in 0u64..300,
    ) {
        use ndsnn_tensor::ops::tile::BiasRow;
        use ndsnn_tensor::parallel::set_thread_override;
        use ndsnn_tensor::{reference, Csr};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let density = [0.0, 0.05, 0.5, 1.0][density_sel];
        let (h, w_in) = ([1, 2, 3, 6][edges.0], [1, 2, 3, 6][edges.1]);
        // A 3×3 kernel wherever it fits the padded input, else 1×1.
        let fits = h.min(w_in) + 2 * padding >= 3;
        let g = Conv2dGeometry::square(cin, f, if fits { 3 } else { 1 }, stride, padding);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec(
            [b, cin, h, w_in],
            (0..b * cin * h * w_in)
                .map(|_| f32::from(rng.gen::<f64>() < density))
                .collect(),
        )
        .unwrap();
        let mut w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let bias = ndsnn_tensor::init::uniform([f], -1.0, 1.0, &mut rng);
        let plan = (planned == 1).then(|| {
            let mask: Vec<f32> = (0..w.len()).map(|_| f32::from(rng.gen_bool(0.1))).collect();
            for (wv, m) in w.as_mut_slice().iter_mut().zip(&mask) {
                *wv *= m;
            }
            Csr::from_mask_transposed(f, g.col_rows(), &mask)
        });
        let want = reference::conv2d_forward(&x, &w, Some(bias.as_slice()), &g);
        let gy = ndsnn_tensor::init::uniform(want.shape().clone(), -1.0, 1.0, &mut rng);
        let want_grads = reference::conv2d_backward(&x, &w, &gy, &g);
        let dispatch = ConvBackward {
            weight_plan: plan.as_ref(),
            spike_gather_dw: true,
            ..ConvBackward::default()
        };
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let pool = ScratchPool::new();
        for threads in [1usize, 2] {
            set_thread_override(Some(threads));
            let weight = plan.as_ref().map_or(ConvWeight::Dense(&w), |p| ConvWeight::Plan(&w, p));
            let got = conv2d_forward(&x, weight, &g, true, &BiasRow(bias.as_slice()), &pool);
            let grads = conv2d_backward(&x, &w, &gy, &g, &dispatch, &pool);
            set_thread_override(None);
            let (got, grads) = (got.unwrap(), grads.unwrap());
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(bits(&grads.weight_grad), bits(&want_grads.weight_grad));
            prop_assert_eq!(bits(&grads.bias_grad), bits(&want_grads.bias_grad));
            prop_assert_eq!(bits(&grads.input_grad), bits(&want_grads.input_grad));
        }
    }
}
