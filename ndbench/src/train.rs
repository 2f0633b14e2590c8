//! The training workloads: VGG-16 on CIFAR-10 shapes, batch 32, T = 2.
//!
//! The untraced run times `trainer::run_with_data`, the path users run.
//! The traced run drives the public calls `run_with_data` makes, step by
//! step and in the same order, with spans around each; its epoch losses
//! must equal the untraced run's bit for bit, which proves the mirror
//! exercises what the trainer does.

use std::time::Instant;

use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn::trainer::{build_datasets, build_engine, build_network, run_with_data, RunResult};
use ndsnn_data::augment::AugmentConfig;
use ndsnn_data::dataset::InMemoryDataset;
use ndsnn_data::loader::BatchLoader;
use ndsnn_metrics::meters::{AccuracyMeter, AvgMeter};
use ndsnn_snn::layers::{Layer, SpikeExecStats};
use ndsnn_snn::models::Architecture;
use ndsnn_snn::optim::{CosineSchedule, Sgd};
use ndsnn_snn::surrogate::Surrogate;
use ndsnn_sparse::engine::{configure_grad_execution, configure_spike_execution};
use ndsnn_tensor::ops::grad::{grad_active_threshold_from_env, grad_density_threshold_from_env};
use ndsnn_tensor::ops::spike::spike_density_threshold_from_env;

use crate::stats::{median, nearest_rank};
use crate::trace::{SpanId, Tracer};
use crate::workload::{Checks, Outcome, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// NDSNN θ 0.7 → 0.9 with the default atan surrogate.
    Ndsnn,
    /// No masks: the sparse engine and weight plans do nothing.
    Dense,
    /// NDSNN with the compact-support rectangle surrogate, the one setting
    /// where the active-set backward takes the gather path.
    Active,
}

const FINAL_SPARSITY: f64 = 0.9;

pub fn config(kind: Kind, profile: Profile, seed: u64) -> RunConfig {
    let method = match kind {
        Kind::Dense => MethodSpec::Dense,
        Kind::Ndsnn | Kind::Active => MethodSpec::Ndsnn {
            initial_sparsity: 0.7,
            final_sparsity: FINAL_SPARSITY,
        },
    };
    let mut cfg = profile.run_config(Architecture::Vgg16, DatasetKind::Cifar10, method);
    cfg.seed = seed;
    if kind == Kind::Active {
        cfg.surrogate = Surrogate::Rectangle { width: 1.0 };
    }
    cfg
}

pub fn run(kind: Kind, seed: u64, scale: Scale, tracer: &mut Tracer) -> Result<Outcome, String> {
    if tracer.enabled() {
        traced(kind, seed, scale, tracer)
    } else {
        untraced(kind, seed, scale)
    }
}

/// A program error as this benchmark's error type.
fn sn<T, E: std::fmt::Display>(r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

fn steps_per_run(cfg: &RunConfig) -> usize {
    cfg.train_samples.div_ceil(cfg.batch_size) * cfg.epochs
}

/// The set-up a training run pays before its first step: data generation,
/// network build, engine build and mask initialization. Returns its
/// seconds and the datasets, which the timed run then reuses.
fn timed_setup(cfg: &RunConfig) -> Result<(f64, InMemoryDataset, InMemoryDataset), String> {
    let t = Instant::now();
    let (train, test) = build_datasets(cfg);
    let mut net = sn(build_network(cfg))?;
    let mut engine = sn(build_engine(cfg, steps_per_run(cfg)))?;
    sn(engine.init(&mut net.layers))?;
    Ok((t.elapsed().as_secs_f64(), train, test))
}

/// Checks that a finished run did the work the workload claims: every
/// epoch and step ran, the method reached its sparsity, and the backward
/// took the path the surrogate implies.
fn check_run(kind: Kind, cfg: &RunConfig, r: &RunResult, checks: &mut Checks) {
    let seed = cfg.seed;
    checks.check(
        "train.epochs_finite",
        r.epochs.len() == cfg.epochs && r.epochs.iter().all(|e| e.train_loss.is_finite()),
        || {
            format!(
                "seed {seed}: {} epochs, losses {:?}",
                r.epochs.len(),
                r.epochs
            )
        },
    );
    checks.check(
        "train.steps",
        r.timings.batches as usize == steps_per_run(cfg),
        || format!("seed {seed}: {} steps", r.timings.batches),
    );
    let target = if kind == Kind::Dense {
        0.0
    } else {
        FINAL_SPARSITY
    };
    checks.check(
        "train.final_sparsity",
        (r.final_sparsity - target).abs() <= 0.05,
        || format!("seed {seed}: {} vs target {target}", r.final_sparsity),
    );
    let t = &r.timings;
    let dispatches = t.grad_gather_steps + t.grad_dense_steps;
    let (ok, what) = match kind {
        Kind::Active => (
            t.grad_gather_steps * 2 > dispatches,
            "most backward dispatches on the active-set gather path",
        ),
        Kind::Ndsnn | Kind::Dense => (t.grad_elems == 0, "no active sets with the atan surrogate"),
    };
    checks.check("train.backward_path", ok, || {
        format!(
            "seed {seed}: expected {what}; gather {} dense {} elems {}",
            t.grad_gather_steps, t.grad_dense_steps, t.grad_elems
        )
    });
}

fn untraced(kind: Kind, seed: u64, scale: Scale) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = Instant::now();
    let (mut setups, mut walls_ms, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let cfg = config(kind, scale.profile, seed.wrapping_add(out.reps as u64));
        let (setup_s, train, test) = timed_setup(&cfg)?;
        setups.push(setup_s);
        let t = Instant::now();
        let result = run_with_data(&cfg, &train, &test);
        let wall = t.elapsed().as_secs_f64();
        out.reps += 1;
        out.attempted += 1;
        match result {
            Ok(r) => {
                check_run(kind, &cfg, &r, &mut out.checks);
                walls_ms.push(wall * 1e3);
                rates.push((cfg.train_samples * cfg.epochs) as f64 / wall);
            }
            Err(e) => {
                out.failed += 1;
                out.checks
                    .check("train.run", false, || format!("seed {}: {e}", cfg.seed));
                walls_ms.push(f64::INFINITY);
            }
        }
        // Stop when another repetition would overrun the time budget.
        let rep_s = start.elapsed().as_secs_f64() / out.reps as f64;
        if out.reps >= scale.min_train_reps && start.elapsed().as_secs_f64() + rep_s > scale.seconds
        {
            break;
        }
    }
    while setups.len() < scale.setup_reps {
        let cfg = config(kind, scale.profile, seed.wrapping_add(setups.len() as u64));
        setups.push(timed_setup(&cfg)?.0);
    }
    let m = &mut out.metrics;
    m.insert("setup_s", median(&setups).expect("at least one set-up"));
    m.insert("samples_per_s", median(&rates).unwrap_or(0.0));
    m.insert(
        "latency_p50_ms",
        nearest_rank(&walls_ms, 50.0).expect("a run"),
    );
    m.insert(
        "latency_p99_ms",
        nearest_rank(&walls_ms, 99.0).expect("a run"),
    );
    Ok(out)
}

/// Everything the traced loop accumulates besides spans.
#[derive(Debug, Default)]
struct Counters {
    forward_ns: u64,
    backward_ns: u64,
    neuron_ns: u64,
    norm_ns: u64,
    mask_update_ns: u64,
    spike: SpikeExecStats,
    grad: SpikeExecStats,
}

/// Per-epoch values the traced loop must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct EpochBits {
    train_loss: u64,
    train_acc: u64,
    test_acc: u64,
    sparsity: u64,
}

fn bits(loss: f64, acc: f64, test: f64, sparsity: f64) -> EpochBits {
    EpochBits {
        train_loss: loss.to_bits(),
        train_acc: acc.to_bits(),
        test_acc: test.to_bits(),
        sparsity: sparsity.to_bits(),
    }
}

/// Name of the first parameter with a non-finite gradient (`grads`) or
/// value: the trainer's health scan, repeated so its cost stays in the loop.
fn nonfinite(model: &mut dyn Layer, grads: bool) -> Option<String> {
    let mut bad = None;
    model.for_each_param(&mut |p| {
        let t = if grads { &p.grad } else { &p.value };
        if bad.is_none() && !t.all_finite() {
            bad = Some(p.name.clone());
        }
    });
    bad
}

/// Mirror of `trainer::run_with_data` for a method without checkpoints,
/// resume or fault injection, with a span around every public call.
fn traced_loop(
    cfg: &RunConfig,
    train: &InMemoryDataset,
    test: &InMemoryDataset,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<(Vec<EpochBits>, usize, SpanId), String> {
    let mut net = sn(build_network(cfg))?;
    configure_spike_execution(
        &mut net.layers,
        cfg.spike_density_threshold
            .unwrap_or_else(spike_density_threshold_from_env),
    );
    configure_grad_execution(
        &mut net.layers,
        cfg.grad_density_threshold
            .unwrap_or_else(grad_density_threshold_from_env),
        grad_active_threshold_from_env() as f32,
    );
    let loader = BatchLoader::new(
        cfg.batch_size,
        true,
        AugmentConfig {
            crop_padding: (cfg.image_size / 8).min(4),
            flip_prob: 0.5,
            noise_std: 0.0,
        },
        cfg.seed ^ 0xDA7A,
    );
    let eval_loader = BatchLoader::eval(cfg.batch_size);
    let total_steps = loader.batches_per_epoch(train) * cfg.epochs;
    let mut engine = sn(build_engine(cfg, total_steps))?;
    sn(engine.init(&mut net.layers))?;
    let mut opt = Sgd::new(cfg.sgd);
    let schedule = CosineSchedule::new(cfg.sgd.lr, 0.0, cfg.epochs.max(1));
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut step = 0usize;

    let run = tr.begin("train.loop");
    for epoch in 0..cfg.epochs {
        opt.set_lr(schedule.at(epoch));
        net.reset_spike_stats();
        let mut loss_meter = AvgMeter::new();
        let mut acc_meter = AccuracyMeter::new();
        let batches = tr.span("data.epoch", || loader.epoch(train, epoch));
        for batch in batches {
            let step_span = tr.begin("train.step");
            let (stats, fwd, bwd) = sn(tr.span("snn.train_batch", || {
                net.train_batch_instrumented(&batch.images, &batch.labels)
            }))?;
            tr.span("snn.exec_stats", || {
                c.spike.merge(net.layers.spike_exec_stats());
                net.layers.reset_spike_exec_stats();
                c.grad.merge(net.layers.grad_exec_stats());
                net.layers.reset_grad_exec_stats();
                let phase = net.layers.phase_ns();
                net.layers.reset_phase_ns();
                c.neuron_ns += phase.neuron_ns;
                c.norm_ns += phase.norm_ns;
            });
            c.forward_ns += fwd;
            c.backward_ns += bwd;
            if !stats.loss.is_finite() {
                return Err(format!("non-finite loss at step {step}"));
            }
            if let Some(name) = tr.span("trainer.health", || nonfinite(&mut net.layers, true)) {
                return Err(format!("non-finite gradient in {name} at step {step}"));
            }
            sn(tr.span("sparse.before_optim", || {
                engine.before_optim(step, &mut net.layers)
            }))?;
            sn(tr.span("snn.optim_step", || opt.step(&mut net.layers)))?;
            sn(tr.span("sparse.after_optim", || {
                engine.after_optim(step, &mut net.layers)
            }))?;
            c.mask_update_ns += tr.span("sparse.drain_update", || engine.drain_update_ns());
            loss_meter.update(stats.loss as f64, stats.total as u64);
            acc_meter.update(stats.correct, stats.total);
            step += 1;
            if let Some(name) = tr.span("trainer.health", || nonfinite(&mut net.layers, false)) {
                return Err(format!("non-finite weight in {name} at step {step}"));
            }
            tr.end(step_span);
        }
        let sparsity = engine.sparsity();
        let mut test_meter = AccuracyMeter::new();
        for batch in eval_loader.epoch(test, 0) {
            let stats = sn(tr.span("snn.eval_batch", || {
                net.eval_batch(&batch.images, &batch.labels)
            }))?;
            test_meter.update(stats.correct, stats.total);
        }
        net.layers.reset_spike_exec_stats();
        net.layers.reset_grad_exec_stats();
        epochs.push(bits(
            loss_meter.mean(),
            acc_meter.percent(),
            test_meter.percent(),
            sparsity,
        ));
    }
    tr.end(run);
    Ok((epochs, engine.history().len(), run))
}

fn traced(kind: Kind, seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome {
        reps: 2,
        attempted: 2,
        ..Outcome::default()
    };
    let cfg = config(kind, scale.profile, seed);
    let (train, test) = build_datasets(&cfg);

    let t = Instant::now();
    let reference = sn(run_with_data(&cfg, &train, &test))?;
    let untraced_s = t.elapsed().as_secs_f64();
    check_run(kind, &cfg, &reference, &mut out.checks);

    let mut c = Counters::default();
    let t = Instant::now();
    let (epochs, rounds, loop_span) = traced_loop(&cfg, &train, &test, tr, &mut c)?;
    let traced_s = t.elapsed().as_secs_f64();

    let expected: Vec<EpochBits> = reference
        .epochs
        .iter()
        .map(|e| bits(e.train_loss, e.train_acc, e.test_acc, e.sparsity))
        .collect();
    out.checks
        .check("train.traced_bit_equal", epochs == expected, || {
            format!("traced epochs {epochs:?} != run_with_data epochs {expected:?}")
        });

    let step_ms = tr.ms("train.step");
    let steps = step_ms.len().max(1) as f64;
    let per_step = |ns: u64| ns as f64 / 1e6 / steps;
    let share = |s: &SpikeExecStats| {
        let n = s.gather_steps + s.dense_steps;
        if n == 0 {
            0.0
        } else {
            s.gather_steps as f64 / n as f64
        }
    };
    let eval_ms = tr.ms("snn.eval_batch");
    let samples = (cfg.train_samples * cfg.epochs) as f64;
    let m = &mut out.metrics;
    m.insert(
        "data.epoch_ms",
        tr.total_ms("data.epoch") / cfg.epochs as f64,
    );
    m.insert("snn.forward_ms", per_step(c.forward_ns));
    m.insert("snn.backward_ms", per_step(c.backward_ns));
    m.insert("snn.neuron_ms", per_step(c.neuron_ns));
    m.insert("snn.norm_ms", per_step(c.norm_ns));
    m.insert("snn.optim_step_ms", tr.total_ms("snn.optim_step") / steps);
    m.insert(
        "snn.eval_batch_ms",
        eval_ms.iter().sum::<f64>() / eval_ms.len().max(1) as f64,
    );
    m.insert("snn.spike_density", c.spike.density());
    m.insert("snn.grad_density", c.grad.density());
    m.insert("tensor.spike_gather_ms", per_step(c.spike.kernel_ns));
    m.insert("tensor.spike_gather_share", share(&c.spike));
    m.insert("tensor.grad_gather_ms", per_step(c.grad.kernel_ns));
    m.insert("tensor.grad_gather_share", share(&c.grad));
    m.insert(
        "sparse.before_optim_ms",
        tr.total_ms("sparse.before_optim") / steps,
    );
    m.insert(
        "sparse.after_optim_ms",
        tr.total_ms("sparse.after_optim") / steps,
    );
    m.insert("sparse.mask_update_ms", per_step(c.mask_update_ns));
    m.insert("sparse.update_rounds", rounds as f64);
    m.insert(
        "train.step_p50_ms",
        nearest_rank(&step_ms, 50.0).unwrap_or(0.0),
    );
    m.insert(
        "train.step_p90_ms",
        nearest_rank(&step_ms, 90.0).unwrap_or(0.0),
    );
    m.insert("train.coverage", tr.leaf_coverage(loop_span));
    m.insert(
        "train.trace_overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
    );
    m.insert("train.test_acc_pct", reference.final_test_acc);
    m.insert(
        "metrics.achieved_gflop_s",
        reference.flops.realized * samples / untraced_s / 1e9,
    );
    Ok(out)
}
