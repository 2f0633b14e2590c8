//! Micro-benchmarks of the computational kernels underneath the paper's
//! pipeline: LIF stepping, convolution, matmul under weight sparsity, the
//! drop/grow selection primitives, and CSR conversion.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ndsnn_snn::layers::{Layer, LifConfig, LifLayer};
use ndsnn_sparse::kernels::{drop_by_magnitude, grow_by_gradient, random_mask};
use ndsnn_tensor::ops::conv::{
    conv2d_backward, conv2d_forward, Conv2dGeometry, Conv2dGrads, ConvBackward, ConvKernel,
};
use ndsnn_tensor::ops::matmul::{matmul, matmul_a_bt};
use ndsnn_tensor::ops::spmm::{sp_gy_w, sp_xwt};
use ndsnn_tensor::ops::tile::NoEpilogue;
use ndsnn_tensor::parallel::run_serial;
use ndsnn_tensor::scratch::ScratchPool;
use ndsnn_tensor::{Csr, Tensor};
use rand::{rngs::StdRng, SeedableRng};

fn conv_fwd(
    x: &Tensor,
    w: &Tensor,
    g: &Conv2dGeometry,
    kernel: ConvKernel,
    pool: &ScratchPool,
) -> Tensor {
    conv2d_forward(x, w, g, kernel, &NoEpilogue, pool).unwrap()
}

fn conv_bwd(
    x: &Tensor,
    w: &Tensor,
    gy: &Tensor,
    g: &Conv2dGeometry,
    d: &ConvBackward,
    pool: &ScratchPool,
) -> Conv2dGrads {
    conv2d_backward(x, w, gy, g, d, pool).unwrap()
}

fn bench_lif(c: &mut Criterion) {
    let mut group = c.benchmark_group("lif");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for n in [1 << 10, 1 << 14] {
        let input = Tensor::full([n], 0.8);
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            let mut lif = LifLayer::new("lif", LifConfig::default()).unwrap();
            let mut t = 0usize;
            b.iter(|| {
                if t > 64 {
                    lif.reset_state();
                    t = 0;
                }
                let out = lif.forward(black_box(&input), t).unwrap();
                t += 1;
                black_box(out)
            });
        });
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    let g = Conv2dGeometry::square(16, 16, 3, 1, 1);
    let input = ndsnn_tensor::init::uniform([4, 16, 16, 16], 0.0, 1.0, &mut rng);
    let weight = ndsnn_tensor::init::uniform(g.weight_dims(), -0.2, 0.2, &mut rng);
    let pool = ScratchPool::new();
    let dense = ConvBackward::default();
    group.bench_function("forward_16c_16px_b4", |b| {
        b.iter(|| {
            conv_fwd(
                black_box(&input),
                black_box(&weight),
                &g,
                ConvKernel::Dense,
                &pool,
            )
        })
    });
    let out = conv_fwd(&input, &weight, &g, ConvKernel::Dense, &pool);
    let gy = Tensor::ones(out.shape().clone());
    group.bench_function("backward_16c_16px_b4", |b| {
        b.iter(|| {
            conv_bwd(
                black_box(&input),
                black_box(&weight),
                &gy,
                &g,
                &dense,
                &pool,
            )
        })
    });
    group.finish();
}

fn bench_sparse_matmul(c: &mut Criterion) {
    // The dense-kernel-with-zeros speedup the masked weights rely on:
    // the matmul kernel skips zero multiplicands.
    let mut group = c.benchmark_group("matmul_weight_sparsity");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(2);
    let x = ndsnn_tensor::init::uniform([64, 256], -1.0, 1.0, &mut rng);
    for sparsity in [0.0f64, 0.9, 0.99] {
        let mut w = ndsnn_tensor::init::uniform([256, 256], -1.0, 1.0, &mut rng);
        let mask = random_mask(&[256, 256], 1.0 - sparsity, &mut rng);
        w.mul_assign(&mask).unwrap();
        group.bench_with_input(
            BenchmarkId::new("dense_kernel", format!("{sparsity:.2}")),
            &sparsity,
            |b, _| b.iter(|| matmul(black_box(&x), black_box(&w)).unwrap()),
        );
        // Production sparse path for comparison: the index-only Csr plan
        // and `sp_xwt`, exactly what the training engine dispatches.
        let wt = w.transpose2d().unwrap();
        let pat = Csr::from_mask(256, 256, wt.as_slice());
        let xv: Vec<f32> = x.as_slice()[..256].to_vec();
        group.bench_with_input(
            BenchmarkId::new("row_pattern_spmv", format!("{sparsity:.2}")),
            &sparsity,
            |b, _| {
                let mut y = vec![0.0f32; 256];
                b.iter(|| {
                    sp_xwt(
                        black_box(&pat),
                        black_box(wt.as_slice()),
                        black_box(&xv),
                        &mut y,
                        1,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_drop_grow(c: &mut Criterion) {
    let mut group = c.benchmark_group("drop_grow");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(3);
    for n in [1usize << 14, 1 << 18] {
        group.bench_with_input(BenchmarkId::new("round", n), &n, |b, &n| {
            let side = (n as f64).sqrt() as usize;
            let weight0 = ndsnn_tensor::init::uniform([side, side], -1.0, 1.0, &mut rng);
            let grad = ndsnn_tensor::init::uniform([side, side], -1.0, 1.0, &mut rng);
            let mask0 = random_mask(&[side, side], 0.2, &mut rng);
            b.iter(|| {
                let mut weight = weight0.clone();
                let mut mask = mask0.clone();
                let k = side * side / 50;
                let dropped = drop_by_magnitude(&mut weight, &mut mask, k);
                let grown = grow_by_gradient(&grad, &mut weight, &mut mask, dropped);
                black_box((dropped, grown))
            });
        });
    }
    group.finish();
}

fn bench_csr_conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(4);
    let mut w = ndsnn_tensor::init::uniform([512, 512], -1.0, 1.0, &mut rng);
    let mask = random_mask(&[512, 512], 0.05, &mut rng);
    w.mul_assign(&mask).unwrap();
    group.bench_function("from_dense_512x512_95pct", |b| {
        b.iter(|| Csr::from_weight(black_box(&w)).unwrap())
    });
    group.finish();
}

fn bench_exec_engine(c: &mut Criterion) {
    // The execution-engine dispatch the trainer uses: dense blocked GEMM vs
    // the row-sparse pattern kernels on the same masked weight, at the two
    // sparsity levels the paper's Table I studies.
    let mut group = c.benchmark_group("exec_engine");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    let (batch, inf, outf) = (64usize, 256usize, 256usize);
    let x = ndsnn_tensor::init::uniform([batch, inf], -1.0, 1.0, &mut rng);
    let gy = ndsnn_tensor::init::uniform([batch, outf], -1.0, 1.0, &mut rng);
    for sparsity in [0.9f64, 0.99] {
        let mut w = ndsnn_tensor::init::uniform([outf, inf], -1.0, 1.0, &mut rng);
        let mask = random_mask(&[outf, inf], 1.0 - sparsity, &mut rng);
        w.mul_assign(&mask).unwrap();
        let pat = Csr::from_mask(outf, inf, mask.as_slice());
        let tag = format!("{sparsity:.2}");
        group.bench_with_input(
            BenchmarkId::new("linear_fwd_dense", &tag),
            &sparsity,
            |b, _| b.iter(|| matmul_a_bt(black_box(&x), black_box(&w)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("linear_fwd_sparse", &tag),
            &sparsity,
            |b, _| {
                b.iter(|| {
                    let mut y = vec![0.0f32; batch * outf];
                    sp_xwt(&pat, w.as_slice(), black_box(x.as_slice()), &mut y, batch);
                    black_box(y)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("linear_dx_sparse", &tag),
            &sparsity,
            |b, _| {
                b.iter(|| {
                    let mut dx = vec![0.0f32; batch * inf];
                    sp_gy_w(&pat, w.as_slice(), black_box(gy.as_slice()), &mut dx, batch);
                    black_box(dx)
                })
            },
        );

        // Conv-as-GEMM dispatch on a mid-size layer.
        let g = Conv2dGeometry::square(32, 32, 3, 1, 1);
        let input = ndsnn_tensor::init::uniform([4, 32, 12, 12], 0.0, 1.0, &mut rng);
        let mut cw = ndsnn_tensor::init::uniform(g.weight_dims(), -0.2, 0.2, &mut rng);
        let cmask = random_mask(&g.weight_dims(), 1.0 - sparsity, &mut rng);
        cw.mul_assign(&cmask).unwrap();
        let cpat = Csr::from_mask(g.out_channels, g.col_rows(), cmask.as_slice());
        let pool = ScratchPool::new();
        group.bench_with_input(
            BenchmarkId::new("conv_fwd_dense", &tag),
            &sparsity,
            |b, _| b.iter(|| conv_fwd(black_box(&input), &cw, &g, ConvKernel::Dense, &pool)),
        );
        group.bench_with_input(
            BenchmarkId::new("conv_fwd_sparse", &tag),
            &sparsity,
            |b, _| {
                b.iter(|| {
                    conv_fwd(
                        black_box(&input),
                        &cw,
                        &g,
                        ConvKernel::WeightPlan(&cpat),
                        &pool,
                    )
                })
            },
        );
        let out = conv_fwd(&input, &cw, &g, ConvKernel::Dense, &pool);
        let cgy = Tensor::ones(out.shape().clone());
        let dense = ConvBackward::default();
        let plan = ConvBackward {
            weight_plan: Some(&cpat),
            ..ConvBackward::default()
        };
        group.bench_with_input(
            BenchmarkId::new("conv_bwd_dense", &tag),
            &sparsity,
            |b, _| b.iter(|| conv_bwd(black_box(&input), &cw, &cgy, &g, &dense, &pool)),
        );
        group.bench_with_input(
            BenchmarkId::new("conv_bwd_sparse", &tag),
            &sparsity,
            |b, _| b.iter(|| conv_bwd(black_box(&input), &cw, &cgy, &g, &plan, &pool)),
        );
    }
    group.finish();
}

fn bench_threading(c: &mut Criterion) {
    // 1-thread vs N-thread dispatch of the same kernels (results are
    // bit-identical; see the thread-identity property tests).
    let mut group = c.benchmark_group("threads");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(6);
    let a = ndsnn_tensor::init::uniform([256, 256], -1.0, 1.0, &mut rng);
    let b2 = ndsnn_tensor::init::uniform([256, 256], -1.0, 1.0, &mut rng);
    group.bench_function("matmul_256_serial", |b| {
        b.iter(|| run_serial(|| matmul(black_box(&a), black_box(&b2)).unwrap()))
    });
    group.bench_function("matmul_256_threaded", |b| {
        b.iter(|| matmul(black_box(&a), black_box(&b2)).unwrap())
    });

    let g = Conv2dGeometry::square(16, 16, 3, 1, 1);
    let input = ndsnn_tensor::init::uniform([8, 16, 16, 16], 0.0, 1.0, &mut rng);
    let weight = ndsnn_tensor::init::uniform(g.weight_dims(), -0.2, 0.2, &mut rng);
    let pool = ScratchPool::new();
    let dense = ConvBackward::default();
    let out = conv_fwd(&input, &weight, &g, ConvKernel::Dense, &pool);
    let gy = Tensor::ones(out.shape().clone());
    group.bench_function("conv_bwd_serial", |b| {
        b.iter(|| run_serial(|| conv_bwd(black_box(&input), &weight, &gy, &g, &dense, &pool)))
    });
    group.bench_function("conv_bwd_threaded", |b| {
        b.iter(|| conv_bwd(black_box(&input), &weight, &gy, &g, &dense, &pool))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lif,
    bench_conv,
    bench_sparse_matmul,
    bench_drop_grow,
    bench_csr_conversion,
    bench_exec_engine,
    bench_threading
);
criterion_main!(benches);
