//! End-to-end bit-identity of the active-set sparse-gradient backward.
//!
//! With a compact-support surrogate (Rectangle) at active threshold 0, the
//! per-timestep active sets are exactly the neurons whose pseudo-derivative
//! is nonzero, so restricting every consumer's `dX` to them multiplies only
//! exact-zero factors out of the BPTT chain: forcing the active path on
//! (`threshold = 1.5`) and off (`threshold = -1.0`) must produce equal
//! outputs and parameter gradients — at any worker-thread count, since the
//! gather kernels accumulate in the same fixed ascending order as dense.

use ndsnn_snn::layers::{
    AvgPool2d, BasicBlock, BatchNorm, Conv2d, Flatten, Layer, LifConfig, LifLayer, Linear,
    MaxPool2d, PlifConfig, PlifLayer, Sequential,
};
use ndsnn_snn::surrogate::Surrogate;
use ndsnn_tensor::ops::conv::Conv2dGeometry;
use ndsnn_tensor::parallel::set_thread_override;
use ndsnn_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

fn lif_cfg() -> LifConfig {
    LifConfig {
        surrogate: Surrogate::Rectangle { width: 1.0 },
        ..Default::default()
    }
}

/// A VGG-style spiking stack: after each LIF, the next conv/linear receives
/// that population's active set (MaxPool maps it through its argmax routing,
/// Flatten passes it along).
fn conv_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new("net")
        .with(Box::new(
            Conv2d::new("c1", Conv2dGeometry::square(2, 4, 3, 1, 1), false, &mut rng).unwrap(),
        ))
        .with(Box::new(BatchNorm::new("bn1", 4, &mut rng).unwrap()))
        .with(Box::new(LifLayer::new("lif1", lif_cfg()).unwrap()))
        .with(Box::new(MaxPool2d::new("pool1", 2)))
        .with(Box::new(
            Conv2d::new("c2", Conv2dGeometry::square(4, 4, 3, 1, 1), true, &mut rng).unwrap(),
        ))
        .with(Box::new(LifLayer::new("lif2", lif_cfg()).unwrap()))
        .with(Box::new(Flatten::new("flat")))
        .with(Box::new(
            Linear::new("fc", 4 * 4 * 4, 5, true, &mut rng).unwrap(),
        ))
}

/// LeNet-style stack with AvgPool (window-union active mapping) and PLIF
/// emitters (trainable decay; always detaches its reset, so it emits without
/// the detach gate LIF needs).
fn avg_plif_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new("net")
        .with(Box::new(
            Conv2d::new("c1", Conv2dGeometry::square(2, 4, 3, 1, 1), true, &mut rng).unwrap(),
        ))
        .with(Box::new(
            PlifLayer::new(
                "plif1",
                PlifConfig {
                    surrogate: Surrogate::Rectangle { width: 1.0 },
                    ..Default::default()
                },
            )
            .unwrap(),
        ))
        .with(Box::new(AvgPool2d::new("pool1", 2)))
        .with(Box::new(
            Conv2d::new("c2", Conv2dGeometry::square(4, 4, 3, 1, 1), false, &mut rng).unwrap(),
        ))
        .with(Box::new(LifLayer::new("lif2", lif_cfg()).unwrap()))
        .with(Box::new(Flatten::new("flat")))
        .with(Box::new(
            Linear::new("fc", 4 * 4 * 4, 3, true, &mut rng).unwrap(),
        ))
}

/// Residual topology: the block's internal join densifies (BasicBlock keeps
/// the trait default and drops incoming active sets), which must degrade to
/// dense execution, never to wrong gradients.
fn res_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new("net")
        .with(Box::new(
            Conv2d::new(
                "stem",
                Conv2dGeometry::square(2, 4, 3, 1, 1),
                false,
                &mut rng,
            )
            .unwrap(),
        ))
        .with(Box::new(LifLayer::new("lif0", lif_cfg()).unwrap()))
        .with(Box::new(
            BasicBlock::new("blk", 4, 8, 2, lif_cfg(), &mut rng).unwrap(),
        ))
        .with(Box::new(Flatten::new("flat")))
        .with(Box::new(
            Linear::new("fc", 8 * 3 * 3, 3, true, &mut rng).unwrap(),
        ))
}

/// Runs `t_steps` of forward + backward and returns (outputs, gradients).
fn run_net(net: &mut Sequential, inputs: &[Tensor]) -> (Vec<Tensor>, Vec<Tensor>) {
    net.reset_state();
    let mut outs = Vec::new();
    for (t, x) in inputs.iter().enumerate() {
        outs.push(net.forward(x, t).unwrap());
    }
    for t in (0..inputs.len()).rev() {
        let g = Tensor::ones(outs[t].shape().clone());
        net.backward(&g, t).unwrap();
    }
    let mut grads = Vec::new();
    net.for_each_param(&mut |p| grads.push(p.grad.clone()));
    (outs, grads)
}

/// Numeric equality (`==`, so a `±0.0` sign difference passes — skipping a
/// multiplication by an exact-zero surrogate factor may flip a zero's sign
/// but can never reach a nonzero value).
fn assert_identical(a: (Vec<Tensor>, Vec<Tensor>), b: (Vec<Tensor>, Vec<Tensor>)) {
    for (t, (x, y)) in a.0.iter().zip(&b.0).enumerate() {
        assert_eq!(x.as_slice(), y.as_slice(), "output differs at step {t}");
    }
    assert_eq!(a.1.len(), b.1.len());
    for (i, (x, y)) in a.1.iter().zip(&b.1).enumerate() {
        assert_eq!(x.as_slice(), y.as_slice(), "gradient {i} differs");
    }
}

fn check_net(mk: &dyn Fn(u64) -> Sequential, seed: u64, inputs: &[Tensor]) {
    let mut active = mk(seed);
    active.set_grad_execution(1.5, 0.0);
    let got = run_net(&mut active, inputs);
    let exec = active.grad_exec_stats();
    assert!(
        exec.gather_steps > 0,
        "active path never dispatched: {exec:?}"
    );
    assert!(
        exec.nnz < exec.elems,
        "active sets covered everything ({exec:?}) — the restriction was never real"
    );

    let mut dense = mk(seed);
    dense.set_grad_execution(-1.0, 0.0);
    let want = run_net(&mut dense, inputs);
    let dexec = dense.grad_exec_stats();
    assert_eq!(
        dexec.gather_steps, 0,
        "dense-forced net used active gathers"
    );
    assert_eq!(dexec.elems, 0, "negative threshold must disable emission");

    assert_identical(got, want);
}

#[test]
fn conv_net_active_backward_identical_to_dense() {
    let mut rng = StdRng::seed_from_u64(77);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| ndsnn_tensor::init::uniform([3, 2, 8, 8], -0.5, 1.5, &mut rng))
        .collect();
    check_net(&conv_net, 7, &inputs);
}

#[test]
fn avg_pool_plif_active_backward_identical_to_dense() {
    let mut rng = StdRng::seed_from_u64(79);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| ndsnn_tensor::init::uniform([2, 2, 8, 8], -0.5, 1.5, &mut rng))
        .collect();
    check_net(&avg_plif_net, 11, &inputs);
}

#[test]
fn residual_net_active_backward_identical_to_dense() {
    let mut rng = StdRng::seed_from_u64(78);
    let inputs: Vec<Tensor> = (0..2)
        .map(|_| ndsnn_tensor::init::uniform([2, 2, 6, 6], -0.5, 1.5, &mut rng))
        .collect();
    // The residual block drops active sets, so the stem conv runs dense —
    // but the classifier head downstream of lif0→fc chain may still gather.
    let mut active = res_net(9);
    active.set_grad_execution(1.5, 0.0);
    let got = run_net(&mut active, &inputs);

    let mut dense = res_net(9);
    dense.set_grad_execution(-1.0, 0.0);
    let want = run_net(&mut dense, &inputs);

    assert_identical(got, want);
}

/// A mid threshold makes the per-timestep realized active density pick the
/// dispatch, so a drive ramp crosses the boundary mid-sequence — results
/// must stay equal to forced-dense execution on both sides of the crossover.
#[test]
fn grad_threshold_crossover_is_identical() {
    let b = 4;
    let feats = 64;
    let t_steps = 4;
    // A near-zero decay makes the membrane essentially stateless, so each
    // step's active density is set directly by its drive: neuron i sits
    // inside the surrogate window at step t iff i % 4 <= t, ramping the
    // density 25% → 100% across the sequence and crossing the 50% threshold
    // mid-run.
    let inputs: Vec<Tensor> = (0..t_steps)
        .map(|t| {
            Tensor::from_vec(
                [b, feats],
                (0..b * feats)
                    .map(|i| {
                        if i % t_steps <= t {
                            1.0 // v ≈ ϑ: inside the window (and fires)
                        } else {
                            -5.0 // far below: surrogate exactly zero
                        }
                    })
                    .collect(),
            )
            .unwrap()
        })
        .collect();
    let mk = || {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = LifConfig {
            alpha: 1e-6,
            ..lif_cfg()
        };
        Sequential::new("net")
            .with(Box::new(LifLayer::new("lif", cfg).unwrap()))
            .with(Box::new(
                Linear::new("fc", feats, 8, true, &mut rng).unwrap(),
            ))
    };

    let mut mid = mk();
    mid.set_grad_execution(0.5, 0.0);
    let got = run_net(&mut mid, &inputs);
    let exec = mid.grad_exec_stats();
    assert!(
        exec.gather_steps > 0 && exec.dense_steps > 0,
        "expected a crossover (both dispatches), got {exec:?}"
    );

    let mut dense = mk();
    dense.set_grad_execution(-1.0, 0.0);
    let want = run_net(&mut dense, &inputs);

    assert_identical(got, want);
}

/// The gather kernels visit their fixed ascending accumulation order at any
/// worker count, so the active backward must be bit-identical across thread
/// overrides too, not just numerically equal.
#[test]
fn active_backward_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(91);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| ndsnn_tensor::init::uniform([3, 2, 8, 8], -0.5, 1.5, &mut rng))
        .collect();

    set_thread_override(Some(1));
    let mut serial = conv_net(13);
    serial.set_grad_execution(1.5, 0.0);
    let want = run_net(&mut serial, &inputs);

    set_thread_override(Some(4));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut pooled = conv_net(13);
        pooled.set_grad_execution(1.5, 0.0);
        let got = run_net(&mut pooled, &inputs);
        assert!(pooled.grad_exec_stats().gather_steps > 0);
        for (t, (x, y)) in got.0.iter().zip(&want.0).enumerate() {
            for (i, (a, b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "output bit diverged at t={t} i={i}"
                );
            }
        }
        for (g, (x, y)) in got.1.iter().zip(&want.1).enumerate() {
            for (i, (a, b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "grad bit diverged at g={g} i={i}");
            }
        }
    }));
    set_thread_override(None);
    if let Err(e) = outcome {
        std::panic::resume_unwind(e);
    }
}

/// Tolerance mode (`tau > 0`) is *allowed* to deviate — but the deviation
/// must stay bounded: every dropped contribution carried `|φ'| <= tau`, so
/// gradients stay finite and close to the exact ones.
#[test]
fn tolerance_mode_stays_bounded() {
    let mut rng = StdRng::seed_from_u64(55);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| ndsnn_tensor::init::uniform([3, 2, 8, 8], -0.5, 1.5, &mut rng))
        .collect();

    // Gaussian tails make tau > 0 genuinely drop small-but-nonzero factors.
    let mk = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new("net")
            .with(Box::new(
                Conv2d::new("c1", Conv2dGeometry::square(2, 4, 3, 1, 1), false, &mut rng).unwrap(),
            ))
            .with(Box::new(
                LifLayer::new(
                    "lif1",
                    LifConfig {
                        surrogate: Surrogate::Gaussian { sigma: 0.4 },
                        ..Default::default()
                    },
                )
                .unwrap(),
            ))
            .with(Box::new(Flatten::new("flat")))
            .with(Box::new(
                Linear::new("fc", 4 * 8 * 8, 5, true, &mut rng).unwrap(),
            ))
    };

    let mut exact = mk(3);
    exact.set_grad_execution(-1.0, 0.0);
    let want = run_net(&mut exact, &inputs);

    let mut tol = mk(3);
    tol.set_grad_execution(1.5, 1e-3);
    let got = run_net(&mut tol, &inputs);

    for (i, (x, y)) in got.1.iter().zip(&want.1).enumerate() {
        let mut max_abs = 0.0f32;
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!(a.is_finite(), "gradient {i} went non-finite");
            max_abs = max_abs.max((a - b).abs());
        }
        // Dropped mass per element is bounded by tau times the incoming
        // gradient magnitudes; at this scale that stays well under 1.
        assert!(max_abs < 1.0, "gradient {i} deviated by {max_abs}");
    }
}

/// At τ > 0 even atan's tails leave the active window, and both backward
/// paths give the `dldo·φ′` term `0.0` there, so forcing the active set on
/// or off still changes no value — for PLIF and LIF emitters alike.
#[test]
fn tau_window_applies_on_both_paths() {
    let atan_net = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let geometry = |cin| Conv2dGeometry::square(cin, 4, 3, 1, 1);
        Sequential::new("net")
            .with(Box::new(
                Conv2d::new("c1", geometry(2), true, &mut rng).unwrap(),
            ))
            .with(Box::new(
                PlifLayer::new("plif1", PlifConfig::default()).unwrap(),
            ))
            .with(Box::new(
                Conv2d::new("c2", geometry(4), false, &mut rng).unwrap(),
            ))
            .with(Box::new(
                LifLayer::new("lif2", LifConfig::default()).unwrap(),
            ))
            .with(Box::new(Flatten::new("flat")))
            .with(Box::new(
                Linear::new("fc", 4 * 8 * 8, 3, true, &mut rng).unwrap(),
            ))
    };
    let mut rng = StdRng::seed_from_u64(80);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| ndsnn_tensor::init::uniform([2, 2, 8, 8], -0.5, 1.5, &mut rng))
        .collect();
    let run = |threshold: f64, tau: f32| {
        let mut net = atan_net(13);
        net.set_grad_execution(threshold, tau);
        let got = run_net(&mut net, &inputs);
        (got, net.grad_exec_stats().gather_steps)
    };
    let (active, steps) = run(1.5, 0.1);
    assert!(steps > 0, "active path never dispatched");
    let (dense, dense_steps) = run(-1.0, 0.1);
    assert_eq!(dense_steps, 0, "dense-forced net used active gathers");
    let (exact, _) = run(-1.0, 0.0);
    let grads = |r: &(Vec<Tensor>, Vec<Tensor>)| -> Vec<Vec<f32>> {
        r.1.iter().map(|g| g.as_slice().to_vec()).collect()
    };
    assert_ne!(grads(&exact), grads(&dense), "τ 0.1 dropped no term");
    assert_identical(active, dense);
}
