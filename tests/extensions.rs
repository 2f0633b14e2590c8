//! Integration tests for the beyond-the-paper extensions: checkpointing
//! through the full training pipeline, the ITOP exploration metric and
//! sparse-dispatch bit-identity.

use ndsnn::checkpoint;
use ndsnn::config::{DatasetKind, MethodSpec};
use ndsnn::profile::Profile;
use ndsnn::trainer::{build_datasets, build_engine, build_network};
use ndsnn_data::loader::BatchLoader;
use ndsnn_snn::layers::Layer;
use ndsnn_snn::models::Architecture;
use ndsnn_snn::optim::Sgd;
use ndsnn_sparse::dynamic::{DynamicConfig, DynamicEngine, GrowthMode, SparsityTrajectory};
use ndsnn_sparse::engine::SparseEngine;
use ndsnn_sparse::schedule::UpdateSchedule;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ndsnn-ext-test-{}-{name}", std::process::id()))
}

/// Train a sparse model, checkpoint weights + masks, reload into a fresh
/// network, and verify the reloaded model produces identical predictions.
#[test]
fn checkpoint_preserves_trained_sparse_model_exactly() {
    let cfg = Profile::Smoke.run_config(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Rigl { sparsity: 0.8 },
    );
    let (train, test) = build_datasets(&cfg);
    let loader = BatchLoader::eval(cfg.batch_size);

    let mut net = build_network(&cfg).unwrap();
    let mut engine = build_engine(&cfg, 32).unwrap();
    engine.init(&mut net.layers).unwrap();
    let mut opt = Sgd::new(cfg.sgd);
    let mut step = 0;
    for epoch in 0..2 {
        for batch in loader.epoch(&train, epoch) {
            net.train_batch(&batch.images, &batch.labels).unwrap();
            engine.before_optim(step, &mut net.layers).unwrap();
            opt.step(&mut net.layers).unwrap();
            engine.after_optim(step, &mut net.layers).unwrap();
            step += 1;
        }
    }
    let model_path = tmp("model");
    let mask_path = tmp("masks");
    checkpoint::save_model(&mut net.layers, &model_path).unwrap();
    checkpoint::save_masks(engine.mask_set().unwrap(), &mask_path).unwrap();

    let mut reloaded = build_network(&cfg).unwrap();
    checkpoint::load_model(&mut reloaded.layers, &model_path).unwrap();
    let masks = checkpoint::load_masks(&mask_path).unwrap();
    masks.apply_to_weights(&mut reloaded.layers);

    // Identical logits on the test set (eval mode, deterministic).
    net.layers.set_training(false);
    reloaded.layers.set_training(false);
    let batch = &loader.epoch(&test, 0)[0];
    let a = net.forward(&batch.images).unwrap();
    let b = reloaded.forward(&batch.images).unwrap();
    assert_eq!(a, b, "reloaded model diverges from the original");

    std::fs::remove_file(model_path).ok();
    std::fs::remove_file(mask_path).ok();
}

/// The trained-model weight sparsity survives a checkpoint round trip.
#[test]
fn mask_checkpoint_preserves_sparsity() {
    let cfg = Profile::Smoke.run_config(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.5,
            final_sparsity: 0.85,
        },
    );
    let mut net = build_network(&cfg).unwrap();
    let mut engine = build_engine(&cfg, 16).unwrap();
    engine.init(&mut net.layers).unwrap();
    let path = tmp("sparsity-masks");
    checkpoint::save_masks(engine.mask_set().unwrap(), &path).unwrap();
    let loaded = checkpoint::load_masks(&path).unwrap();
    assert!(
        (loaded.overall_sparsity() - engine.sparsity()).abs() < 1e-12,
        "sparsity changed across checkpoint"
    );
    std::fs::remove_file(path).ok();
}

/// Every sparse dispatch is a pure execution-strategy change. Each arm
/// trains the same NDSNN run (θ 0.7→0.9, drop-and-grow every 2 steps) with
/// the weight-plan, spike-gather and active-set dispatches forced off,
/// forced on, or at their shipped defaults, on 1 or 2 kernel threads. Every
/// dispatch keeps each output element's accumulation chain, so within a
/// surrogate all arms must give the same per-batch loss bits, drop/grow
/// history and mask bits as the all-dense single-thread arm. The active set
/// only engages under a compact-support surrogate (`rect` has exact-zero
/// derivatives outside its window), so only `rect` arms force it. A forced
/// dispatch must also have run, so no arm passes by falling back to dense.
#[test]
fn sparse_dispatch_matches_dense_trajectory() {
    use ndsnn_snn::surrogate::Surrogate;
    use ndsnn_sparse::distribution::Distribution;
    use ndsnn_sparse::engine::{configure_grad_execution, configure_spike_execution};
    use ndsnn_sparse::kernels::DEFAULT_DENSITY_THRESHOLD as W_DEF;
    use ndsnn_tensor::ops::grad::DEFAULT_GRAD_DENSITY_THRESHOLD as G_DEF;
    use ndsnn_tensor::ops::spike::DEFAULT_SPIKE_DENSITY_THRESHOLD as S_DEF;
    use ndsnn_tensor::parallel::set_thread_override;

    const OFF: f64 = -1.0;
    const ON: f64 = 1.5;
    let atan = Surrogate::Atan;
    let rect = Surrogate::Rectangle { width: 1.0 };
    // (surrogate, weight-plan, spike-gather and active-set thresholds,
    // threads). The first arm of each surrogate is its reference.
    let arms: [(Surrogate, f64, f64, f64, usize); 8] = [
        (atan, OFF, OFF, OFF, 1),
        (atan, ON, OFF, OFF, 1),
        (atan, ON, ON, OFF, 1),
        (atan, W_DEF, S_DEF, G_DEF, 2),
        (rect, OFF, OFF, OFF, 1),
        (rect, ON, ON, ON, 1),
        (rect, ON, ON, ON, 2),
        (rect, W_DEF, S_DEF, G_DEF, 2),
    ];
    let mut cfg = Profile::Smoke.run_config(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.7,
            final_sparsity: 0.9,
        },
    );
    let (train, _) = build_datasets(&cfg);
    let config = DynamicConfig {
        initial_sparsity: 0.7,
        final_sparsity: 0.9,
        trajectory: SparsityTrajectory::CubicIncrease,
        death_initial: 0.3,
        death_min: 0.1,
        update: UpdateSchedule::new(0, 2, 8).unwrap(),
        growth: GrowthMode::Gradient,
        distribution: Distribution::Erk,
        seed: 3,
    };

    // Per-batch loss bits, (step, dropped, grown) history, mask bits.
    type Trace = (
        Vec<u32>,
        Vec<(usize, usize, usize)>,
        Vec<(String, Vec<u32>)>,
    );
    let mut reference: Option<(Surrogate, Trace)> = None;
    for (arm, &(surrogate, weight, spike, grad, threads)) in arms.iter().enumerate() {
        cfg.surrogate = surrogate;
        let mut net = build_network(&cfg).unwrap();
        let mut engine = DynamicEngine::with_label("NDSNN", config).unwrap();
        engine.set_density_threshold(weight);
        engine.init(&mut net.layers).unwrap();
        configure_spike_execution(&mut net.layers, spike);
        configure_grad_execution(&mut net.layers, grad, 0.0);
        set_thread_override(Some(threads));
        let loader = BatchLoader::eval(cfg.batch_size);
        let mut opt = Sgd::new(cfg.sgd);
        let mut losses = Vec::new();
        let mut step = 0;
        for epoch in 0..3 {
            for batch in loader.epoch(&train, epoch) {
                let stats = net.train_batch(&batch.images, &batch.labels).unwrap();
                losses.push(stats.loss.to_bits());
                engine.before_optim(step, &mut net.layers).unwrap();
                opt.step(&mut net.layers).unwrap();
                engine.after_optim(step, &mut net.layers).unwrap();
                step += 1;
            }
        }
        set_thread_override(None);

        let mut plans = 0u64;
        net.layers
            .for_each_param(&mut |p| plans += u64::from(p.plan.is_some()));
        let dispatches = [
            ("weight plans", weight, plans),
            (
                "spike gathers",
                spike,
                net.layers.spike_exec_stats().gather_steps,
            ),
            (
                "active-set dX",
                grad,
                net.layers.grad_exec_stats().gather_steps,
            ),
        ];
        for (what, threshold, count) in dispatches {
            if threshold == ON {
                assert!(count > 0, "arm {arm}: forced {what} never ran");
            } else if threshold == OFF {
                assert_eq!(count, 0, "arm {arm}: disabled {what} ran");
            }
        }

        let history = engine
            .history()
            .iter()
            .map(|e| (e.step, e.dropped, e.grown))
            .collect();
        let masks = engine
            .mask_set()
            .unwrap()
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.as_slice().iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect();
        let trace: Trace = (losses, history, masks);
        match &reference {
            Some((s, want)) if *s == surrogate => {
                assert_eq!(want.0, trace.0, "arm {arm}: loss bits diverged");
                assert_eq!(want.1, trace.1, "arm {arm}: drop/grow decisions diverged");
                assert!(want.2 == trace.2, "arm {arm}: mask bits diverged");
            }
            _ => reference = Some((surrogate, trace)),
        }
    }
}

/// ITOP through the public engine API: exploration strictly exceeds the
/// instantaneous density after enough drop-and-grow rounds.
#[test]
fn exploration_exceeds_density_on_real_model() {
    use ndsnn_sparse::distribution::Distribution;
    let cfg =
        Profile::Smoke.run_config(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense);
    let (train, _) = build_datasets(&cfg);
    let mut net = build_network(&cfg).unwrap();
    let update = UpdateSchedule::new(0, 1, 25).unwrap();
    let mut engine = DynamicEngine::with_label(
        "RigL",
        DynamicConfig {
            initial_sparsity: 0.8,
            final_sparsity: 0.8,
            trajectory: SparsityTrajectory::Constant,
            death_initial: 0.3,
            death_min: 0.1,
            update,
            growth: GrowthMode::Gradient,
            distribution: Distribution::Erk,
            seed: 3,
        },
    )
    .unwrap();
    engine.init(&mut net.layers).unwrap();
    let loader = BatchLoader::eval(cfg.batch_size);
    let mut opt = Sgd::new(cfg.sgd);
    let mut step = 0;
    for epoch in 0..6 {
        for batch in loader.epoch(&train, epoch) {
            net.train_batch(&batch.images, &batch.labels).unwrap();
            engine.before_optim(step, &mut net.layers).unwrap();
            opt.step(&mut net.layers).unwrap();
            engine.after_optim(step, &mut net.layers).unwrap();
            step += 1;
        }
    }
    let density = 1.0 - engine.sparsity();
    let explored = engine.exploration_rate();
    assert!(
        explored > density + 0.02,
        "no in-time overparameterization: density {density}, explored {explored}"
    );
}
