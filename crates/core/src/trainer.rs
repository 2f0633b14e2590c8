//! The training loop binding network, sparse engine, data and metrics.
//!
//! Crash safety (DESIGN.md §8): [`run_recoverable`] adds periodic full-state
//! NDCKPT2 checkpoints, bit-identical resume, a numeric health monitor with
//! configurable fault policies, and a deterministic fault-injection harness
//! for tests. [`run`] / [`run_with_data`] are the same loop with default
//! [`RecoveryOptions`] (no checkpoint directory, abort-on-fault).

use std::collections::{BTreeMap, BTreeSet};

use ndsnn_data::augment::AugmentConfig;
use ndsnn_data::dataset::InMemoryDataset;
use ndsnn_data::loader::BatchLoader;
use ndsnn_data::synthetic::{generate, SyntheticConfig};
use ndsnn_metrics::cost::{
    training_flops_report, ActivityTrace, TrainingFlops, ASSUMED_SPIKE_RATE,
};
use ndsnn_metrics::flops::LayerCompute;
use ndsnn_metrics::meters::{AccuracyMeter, AvgMeter, EpochRecord};
use ndsnn_snn::layers::{ComputeSite, Layer, LifConfig, SpikeStats};
use ndsnn_snn::models::{Architecture, ModelConfig};
use ndsnn_snn::network::SpikingNetwork;
use ndsnn_snn::optim::{CosineSchedule, Sgd};
use ndsnn_sparse::admm::{AdmmConfig, AdmmEngine};
use ndsnn_sparse::dynamic::UpdateEvent;
use ndsnn_sparse::engine::{
    configure_grad_execution, configure_spike_execution, DenseEngine, SparseEngine,
};
use ndsnn_sparse::lth::{LthConfig, LthController};
use ndsnn_sparse::ndsnn::{ndsnn_engine, NdsnnConfig};
use ndsnn_sparse::rigl::{rigl_engine, RiglConfig};
use ndsnn_sparse::schedule::UpdateSchedule;
use ndsnn_sparse::set::{set_engine, SetConfig};
use ndsnn_tensor::ops::grad::{grad_active_threshold_from_env, grad_density_threshold_from_env};
use ndsnn_tensor::ops::spike::spike_density_threshold_from_env;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::checkpoint;
use crate::config::{DatasetKind, MethodSpec, RunConfig};
use crate::error::{NdsnnError, Result};
use crate::profile::PhaseTimings;
use crate::recovery::{
    decode_snapshot, encode_snapshot, FaultAction, FaultEvent, FaultKind, FaultPolicy,
    RecoveryOptions, RunSnapshot,
};

/// Outcome of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// The configuration that produced this result.
    pub config: RunConfig,
    /// Method label (Table I row family).
    pub label: String,
    /// Per-epoch training trace.
    pub epochs: Vec<EpochRecord>,
    /// Test accuracy after the final epoch, in percent.
    pub final_test_acc: f64,
    /// Best test accuracy over all epochs, in percent.
    pub best_test_acc: f64,
    /// Spike-rate/sparsity trace for the §IV.C cost model.
    pub activity: ActivityTrace,
    /// Trainable parameter count of the (dense) model.
    pub num_params: usize,
    /// Weight sparsity at the end of training.
    pub final_sparsity: f64,
    /// Average spike rate per spiking layer over the final training epoch —
    /// the per-layer view of the §IV.C activity analysis.
    pub layer_spike_rates: Vec<(String, f64)>,
    /// Per-sample training FLOPs, reported at both the assumed constant
    /// spike rate and the measured (realized) per-layer rates of the final
    /// epoch (paper Eq. 6–7).
    pub flops: TrainingFlops,
    /// Accumulated per-phase wall-clock timings over all training batches.
    pub timings: PhaseTimings,
    /// Drop-and-grow mask-update history (empty for methods without one).
    pub mask_history: Vec<UpdateEvent>,
    /// FNV-1a digest of the final mask topology (0 when the method keeps no
    /// masks) — lets tests assert two runs ended on the exact same topology.
    pub mask_digest: u64,
    /// Live (nonzero) sparsifiable weights at the end of training.
    pub final_live_weights: usize,
    /// Numeric/injected faults observed during the run and how each was
    /// handled.
    pub faults: Vec<FaultEvent>,
    /// Optimizer step the run resumed from, when it was resumed or rolled
    /// back from a checkpoint.
    pub resumed_from_step: Option<usize>,
}

impl RunResult {
    /// Serializes the full result (config, per-epoch trace, activity) to a
    /// compact JSON string for archival alongside the CSV exports.
    pub fn to_json(&self) -> String {
        ndsnn_metrics::json::to_string(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

/// Generates the synthetic train/test datasets for a run configuration.
pub fn build_datasets(cfg: &RunConfig) -> (InMemoryDataset, InMemoryDataset) {
    let base = match cfg.dataset {
        DatasetKind::Cifar10 => SyntheticConfig::cifar10_like(cfg.train_samples, cfg.test_samples),
        DatasetKind::Cifar100 => {
            SyntheticConfig::cifar100_like(cfg.train_samples, cfg.test_samples)
        }
        DatasetKind::TinyImageNet => {
            SyntheticConfig::tiny_imagenet_like(cfg.train_samples, cfg.test_samples)
        }
    };
    let synth = base
        .with_image_size(cfg.image_size)
        .with_num_classes(cfg.num_classes);
    generate(&synth)
}

/// Builds the spiking network described by the configuration.
pub fn build_network(cfg: &RunConfig) -> Result<SpikingNetwork> {
    let model_cfg = ModelConfig {
        in_channels: 3,
        image_size: cfg.image_size,
        num_classes: cfg.num_classes,
        width_mult: cfg.width_mult,
        lif: LifConfig {
            surrogate: cfg.surrogate,
            ..Default::default()
        },
        neuron: cfg.neuron,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let layers = model_cfg.build(cfg.arch, &mut rng)?;
    Ok(SpikingNetwork::new(
        layers,
        cfg.timesteps,
        cfg.encoding,
        cfg.seed ^ 0xE4C0DE,
    )?)
}

/// Builds the sparse engine for the configured method.
///
/// `total_steps` is the total optimizer-step count (epochs × batches), which
/// dynamic methods use to place their mask-update horizon.
pub fn build_engine(cfg: &RunConfig, total_steps: usize) -> Result<Box<dyn SparseEngine>> {
    // Clamp ΔT so at least a few drop-and-grow rounds fit inside the mask
    // horizon even on very short (smoke-scale) runs.
    let delta_t = cfg.delta_t.max(1).min((total_steps / 4).max(1));
    let horizon = (((total_steps as f64) * cfg.update_horizon) as usize).max(delta_t + 1);
    let update =
        UpdateSchedule::new(0, delta_t, horizon).map_err(|e| NdsnnError::Sparse(e.to_string()))?;
    Ok(match cfg.method {
        MethodSpec::Dense => Box::new(DenseEngine::new()),
        MethodSpec::Ndsnn {
            initial_sparsity,
            final_sparsity,
        } => {
            let mut c = NdsnnConfig::new(initial_sparsity, final_sparsity, update);
            c.seed = cfg.seed ^ 0x5EED;
            Box::new(ndsnn_engine(c)?)
        }
        MethodSpec::Set { sparsity } => {
            let mut c = SetConfig::new(sparsity, update);
            c.seed = cfg.seed ^ 0x5EED;
            Box::new(set_engine(c)?)
        }
        MethodSpec::Rigl { sparsity } => {
            let mut c = RiglConfig::new(sparsity, update);
            c.seed = cfg.seed ^ 0x5EED;
            Box::new(rigl_engine(c)?)
        }
        MethodSpec::Lth {
            final_sparsity,
            rounds,
        } => Box::new(LthController::new(LthConfig::new(final_sparsity, rounds)?)),
        MethodSpec::Admm { target_sparsity } => {
            // ADMM phase: first 60% of steps; masked retraining afterwards.
            let retrain_start = ((total_steps as f64) * 0.6).max(1.0) as usize;
            let mut c = AdmmConfig::new(target_sparsity, retrain_start)?;
            c.projection_interval = cfg.delta_t.max(1);
            Box::new(AdmmEngine::new(c))
        }
    })
}

/// Runs a full training experiment, generating the data internally.
pub fn run(cfg: &RunConfig) -> Result<RunResult> {
    let (train, test) = build_datasets(cfg);
    run_with_data(cfg, &train, &test)
}

/// Runs a full training experiment on caller-provided datasets (lets
/// experiment grids share generated data across methods).
pub fn run_with_data(
    cfg: &RunConfig,
    train: &InMemoryDataset,
    test: &InMemoryDataset,
) -> Result<RunResult> {
    run_recoverable(cfg, train, test, &RecoveryOptions::default())
}

/// [`run_with_data`] with crash safety: periodic full-state NDCKPT2
/// checkpoints every [`RunConfig::checkpoint_every`] optimizer steps,
/// resume-from-checkpoint (bit-identical at any `NDSNN_THREADS`), the
/// numeric health monitor, and deterministic fault injection for tests.
pub fn run_recoverable(
    cfg: &RunConfig,
    train: &InMemoryDataset,
    test: &InMemoryDataset,
    recovery: &RecoveryOptions,
) -> Result<RunResult> {
    if cfg.epochs == 0 {
        return Err(NdsnnError::InvalidConfig("epochs must be >= 1".into()));
    }
    let fingerprint = ndsnn_metrics::json::to_string(cfg)
        .map_err(|e| NdsnnError::InvalidConfig(format!("config not serializable: {e}")))?;

    // Resume: load the newest valid generation; corrupt ones are skipped and
    // surfaced as fault events rather than failing the run.
    let mut carried: Vec<FaultEvent> = Vec::new();
    let mut resume_snapshot: Option<RunSnapshot> = None;
    if recovery.resume {
        let dir = recovery.dir.as_ref().ok_or_else(|| {
            NdsnnError::InvalidConfig("resume requested without a checkpoint directory".into())
        })?;
        let (loaded, skipped) = checkpoint::load_latest_valid(dir)?;
        for path in skipped {
            carried.push(FaultEvent {
                step: 0,
                epoch: 0,
                kind: FaultKind::CorruptCheckpoint,
                action: FaultAction::Noted,
                detail: format!("skipped invalid generation {}", path.display()),
            });
        }
        if let Some((_, entries)) = loaded {
            let snap = decode_snapshot(&entries)?;
            check_fingerprint(&snap, &fingerprint)?;
            resume_snapshot = Some(snap);
        }
    }

    // Injections fire at most once per call even when rollback replays the
    // same step, so a deterministic fault cannot loop forever.
    let mut fired: BTreeSet<(u8, usize)> = BTreeSet::new();
    let mut rollbacks = 0usize;
    loop {
        let attempt = run_attempt(
            cfg,
            train,
            test,
            recovery,
            &fingerprint,
            resume_snapshot.take(),
            std::mem::take(&mut carried),
            &mut fired,
        );
        match attempt {
            Ok(result) => return Ok(result),
            Err(AttemptFail::Hard(e)) => return Err(e),
            Err(AttemptFail::Rollback(mut faults)) => {
                rollbacks += 1;
                if rollbacks > recovery.health.max_rollbacks {
                    return Err(NdsnnError::NumericFault(format!(
                        "run rolled back {rollbacks} times (limit {}); aborting",
                        recovery.health.max_rollbacks
                    )));
                }
                let dir = recovery.dir.as_ref().ok_or_else(|| {
                    NdsnnError::NumericFault(
                        "rollback requested without a checkpoint directory".into(),
                    )
                })?;
                let (loaded, skipped) = checkpoint::load_latest_valid(dir)?;
                for path in skipped {
                    faults.push(FaultEvent {
                        step: 0,
                        epoch: 0,
                        kind: FaultKind::CorruptCheckpoint,
                        action: FaultAction::Noted,
                        detail: format!("skipped invalid generation {}", path.display()),
                    });
                }
                let (_, entries) = loaded.ok_or_else(|| {
                    NdsnnError::NumericFault(
                        "rollback requested but no valid checkpoint generation exists".into(),
                    )
                })?;
                let mut snap = decode_snapshot(&entries)?;
                check_fingerprint(&snap, &fingerprint)?;
                snap.lr *= recovery.health.lr_dampen;
                snap.lr_scale *= recovery.health.lr_dampen;
                // The attempt's fault list is a superset of the on-disk one.
                snap.faults = faults;
                resume_snapshot = Some(snap);
            }
        }
    }
}

/// Why one training attempt stopped: a hard error to surface, or a fault the
/// outer loop should answer with a checkpoint rollback.
enum AttemptFail {
    Hard(NdsnnError),
    Rollback(Vec<FaultEvent>),
}

impl<E: Into<NdsnnError>> From<E> for AttemptFail {
    fn from(e: E) -> Self {
        AttemptFail::Hard(e.into())
    }
}

fn check_fingerprint(snap: &RunSnapshot, fingerprint: &str) -> Result<()> {
    if snap.fingerprint != fingerprint {
        return Err(NdsnnError::InvalidConfig(
            "checkpoint was written by a different run configuration".into(),
        ));
    }
    Ok(())
}

/// Picks the reaction actually taken for a fault: rollback needs a
/// checkpoint to return to, and a non-finite weight cannot be healed by
/// skipping the batch (the damage is already in the parameters).
fn effective_policy(kind: FaultKind, policy: FaultPolicy, have_ckpt: bool) -> FaultPolicy {
    let fallback = match kind {
        FaultKind::NonFiniteWeight => FaultPolicy::Abort,
        _ => FaultPolicy::SkipBatch,
    };
    match policy {
        FaultPolicy::Abort => FaultPolicy::Abort,
        FaultPolicy::RollbackAndDampen if have_ckpt => FaultPolicy::RollbackAndDampen,
        FaultPolicy::RollbackAndDampen | FaultPolicy::SkipBatch => fallback,
    }
}

/// Name of the first parameter whose gradient (`grads`) or value contains a
/// non-finite element, if any.
fn first_nonfinite(model: &mut dyn Layer, grads: bool) -> Option<String> {
    let mut bad = None;
    model.for_each_param(&mut |p| {
        if bad.is_none() {
            let t = if grads { &p.grad } else { &p.value };
            if !t.all_finite() {
                bad = Some(p.name.clone());
            }
        }
    });
    bad
}

/// Fault-injection helper: writes NaN into the first sparsifiable gradient.
fn poison_first_grad(model: &mut dyn Layer) {
    let mut done = false;
    model.for_each_param(&mut |p| {
        if !done && p.is_sparsifiable() {
            if let Some(v) = p.grad.as_mut_slice().first_mut() {
                *v = f32::NAN;
                done = true;
            }
        }
    });
}

/// Live per-layer spike counters merged with checkpointed offsets (layer
/// counters restart at zero after a resume; the offsets carry the counts
/// accumulated before the checkpoint).
fn merged_layer_stats(
    net: &SpikingNetwork,
    offsets: &[(String, SpikeStats)],
) -> Vec<(String, SpikeStats)> {
    let mut per = net.layers.spike_stats_per_layer();
    for (name, off) in offsets {
        match per.iter_mut().find(|(n, _)| n == name) {
            Some((_, s)) => s.merge(*off),
            None => per.push((name.clone(), *off)),
        }
    }
    per
}

/// One training attempt: runs from the given snapshot (or from scratch) to
/// completion, a hard error, or a rollback request.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    cfg: &RunConfig,
    train: &InMemoryDataset,
    test: &InMemoryDataset,
    recovery: &RecoveryOptions,
    fingerprint: &str,
    resume: Option<RunSnapshot>,
    carried: Vec<FaultEvent>,
    fired: &mut BTreeSet<(u8, usize)>,
) -> std::result::Result<RunResult, AttemptFail> {
    let health = recovery.health;
    let mut net = build_network(cfg)?;
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
    let num_params = net.num_params();
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
    let batches_per_epoch = loader.batches_per_epoch(train);
    let total_steps = batches_per_epoch * cfg.epochs;
    let mut engine = match cfg.method {
        MethodSpec::Lth {
            final_sparsity,
            rounds,
        } => EngineKind::Lth(LthController::new(LthConfig::new(final_sparsity, rounds)?)),
        _ => EngineKind::Generic(build_engine(cfg, total_steps)?),
    };

    let ckpt_enabled = cfg.checkpoint_every > 0 && recovery.dir.is_some();
    if ckpt_enabled && engine.as_engine().export_snapshot().is_none() {
        return Err(AttemptFail::Hard(NdsnnError::InvalidConfig(format!(
            "method {} does not support full-state checkpointing",
            cfg.method.label()
        ))));
    }

    // LTH trains in segments: `rounds` prune-rewind rounds then a final
    // segment at the target sparsity.
    let lth_rounds = match cfg.method {
        MethodSpec::Lth { rounds, .. } => rounds,
        _ => 0,
    };
    let segments = lth_rounds + 1;
    let epochs_per_segment = (cfg.epochs / segments).max(1);

    let mut opt = Sgd::new(cfg.sgd);
    let lr_schedule = CosineSchedule::new(cfg.sgd.lr, 0.0, epochs_per_segment.max(1));

    let mut records = Vec::with_capacity(cfg.epochs);
    let mut activity = ActivityTrace::new(engine.as_engine().name());
    let mut best_test = 0.0f64;
    let mut final_test = 0.0f64;
    let mut step = 0usize;
    let mut layer_rates: Vec<(String, f64)> = Vec::new();
    // Per-consumer surrogate-active backward totals (nnz, elems), summed
    // across every training batch; feeds the FLOPs report's backward
    // densities.
    let mut grad_layer_totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut timings = PhaseTimings::default();
    let mut loss_meter = AvgMeter::new();
    let mut acc_meter = AccuracyMeter::new();
    let mut spike_offsets: Vec<(String, SpikeStats)> = Vec::new();
    let mut loss_window: Vec<f64> = Vec::new();
    let mut faults: Vec<FaultEvent> = Vec::new();
    let mut lr_scale = 1.0f32;
    let mut start_epoch = 0usize;
    let mut next_batch = 0usize;
    let mut last_ckpt_step: Option<usize> = None;
    let resumed_from_step = resume.as_ref().map(|s| s.step);

    match resume {
        Some(snap) => {
            checkpoint::restore_params_from_map(&mut net.layers, &snap.params)?;
            engine
                .as_engine()
                .restore_snapshot(snap.engine, &mut net.layers)
                .map_err(NdsnnError::from)?;
            opt.set_velocity(snap.velocity);
            opt.set_lr(snap.lr);
            net.set_encoder_rng_state(snap.encoder_rng);
            step = snap.step;
            start_epoch = snap.epoch;
            next_batch = snap.next_batch;
            records = snap.records;
            activity = snap.activity;
            loss_meter = snap.loss_meter;
            acc_meter = snap.acc_meter;
            spike_offsets = snap.spike_offsets;
            loss_window = snap.loss_window;
            timings = snap.timings;
            best_test = snap.best_test;
            final_test = snap.final_test;
            lr_scale = snap.lr_scale;
            faults = snap.faults;
            last_ckpt_step = Some(snap.step);
        }
        None => engine.as_engine().init(&mut net.layers)?,
    }
    faults.extend(carried);

    let mut epoch = start_epoch;
    while epoch < cfg.epochs {
        let seg_epoch = epoch % epochs_per_segment;
        // Epoch-start resets run only when the epoch begins fresh — a
        // mid-epoch resume keeps the restored meters/LR and skips into the
        // batch stream instead.
        if next_batch == 0 {
            // Segment boundary: advance LTH round (prune + rewind), restart
            // optimizer state and LR schedule.
            if epoch > 0 && seg_epoch == 0 && lth_rounds > 0 {
                if let Some(lth) = engine.as_lth() {
                    if lth.round() < lth_rounds {
                        lth.advance_round(&mut net.layers)?;
                        opt = Sgd::new(cfg.sgd);
                    }
                }
            }
            opt.set_lr(lr_schedule.at(seg_epoch) * lr_scale);
            net.reset_spike_stats();
            loss_meter.reset();
            acc_meter.reset();
            spike_offsets.clear();
        }
        for (bi, batch) in loader.epoch(train, epoch).into_iter().enumerate() {
            if bi < next_batch {
                continue;
            }
            let (mut stats, forward_ns, backward_ns) = net
                .train_batch_instrumented(&batch.images, &batch.labels)
                .map_err(|e| NdsnnError::Snn(e.to_string()))?;
            // Drain the spike-execution counters every batch (they survive
            // in `timings`, which checkpoints carry across resumes).
            let spike_exec = net.layers.spike_exec_stats();
            net.layers.reset_spike_exec_stats();
            timings.spike_gather_ns += spike_exec.kernel_ns;
            timings.spike_gather_steps += spike_exec.gather_steps;
            timings.spike_dense_steps += spike_exec.dense_steps;
            timings.spike_nnz += spike_exec.nnz;
            timings.spike_elems += spike_exec.elems;
            for (name, g) in net.layers.grad_exec_stats_per_layer() {
                let slot = grad_layer_totals.entry(name).or_insert((0u64, 0u64));
                slot.0 += g.nnz;
                slot.1 += g.elems;
            }
            let grad_exec = net.layers.grad_exec_stats();
            net.layers.reset_grad_exec_stats();
            timings.grad_gather_ns += grad_exec.kernel_ns;
            timings.grad_gather_steps += grad_exec.gather_steps;
            timings.grad_dense_steps += grad_exec.dense_steps;
            timings.grad_nnz += grad_exec.nnz;
            timings.grad_elems += grad_exec.elems;
            let phase = net.layers.phase_ns();
            net.layers.reset_phase_ns();
            timings.neuron_ns += phase.neuron_ns;
            timings.norm_ns += phase.norm_ns;
            // `this_step` is the post-increment counter: the checkpoint id
            // and the step named by the fault plan.
            let this_step = step + 1;

            // --- fault injection (test harness) ---
            let plan = &recovery.fault_plan;
            if plan.nan_loss_at_steps.contains(&this_step) && fired.insert((0, this_step)) {
                stats.loss = f32::NAN;
            }
            if plan.nan_grad_at_steps.contains(&this_step) && fired.insert((1, this_step)) {
                poison_first_grad(&mut net.layers);
            }
            if let Some(&(_, factor)) = plan
                .inflate_loss_at_steps
                .iter()
                .find(|&&(s, _)| s == this_step)
            {
                if fired.insert((2, this_step)) {
                    stats.loss *= factor as f32;
                }
            }

            // --- numeric health: pre-update checks ---
            let mut fault: Option<(FaultKind, String)> = None;
            if !stats.loss.is_finite() {
                fault = Some((
                    FaultKind::NonFiniteLoss,
                    format!("loss = {} ({})", stats.loss, cfg.describe()),
                ));
            }
            if fault.is_none()
                && health.divergence_window > 0
                && loss_window.len() >= health.divergence_window
            {
                let mean = loss_window.iter().sum::<f64>() / loss_window.len() as f64;
                if mean > 0.0 && f64::from(stats.loss) > health.divergence_factor * mean {
                    fault = Some((
                        FaultKind::LossDivergence,
                        format!(
                            "loss {} exceeds {} x recent mean {mean:.4}",
                            stats.loss, health.divergence_factor
                        ),
                    ));
                }
            }
            if fault.is_none() && health.check_grads {
                if let Some(name) = first_nonfinite(&mut net.layers, true) {
                    fault = Some((
                        FaultKind::NonFiniteGrad,
                        format!("non-finite gradient in {name}"),
                    ));
                }
            }

            if let Some((kind, detail)) = fault {
                match effective_policy(kind, health.policy, last_ckpt_step.is_some()) {
                    FaultPolicy::Abort => {
                        return Err(AttemptFail::Hard(NdsnnError::NumericFault(format!(
                            "{detail} at step {this_step} (epoch {epoch})"
                        ))));
                    }
                    FaultPolicy::RollbackAndDampen => {
                        faults.push(FaultEvent {
                            step: this_step,
                            epoch,
                            kind,
                            action: FaultAction::RolledBack,
                            detail,
                        });
                        return Err(AttemptFail::Rollback(faults));
                    }
                    FaultPolicy::SkipBatch => {
                        faults.push(FaultEvent {
                            step: this_step,
                            epoch,
                            kind,
                            action: FaultAction::SkippedBatch,
                            detail,
                        });
                        // The step counter still advances so the drop-and-grow
                        // schedule stays aligned with the uninterrupted run.
                        step = this_step;
                        continue;
                    }
                }
            }

            let t0 = std::time::Instant::now();
            engine.as_engine().before_optim(step, &mut net.layers)?;
            let t1 = std::time::Instant::now();
            opt.step(&mut net.layers)?;
            let t_mid = std::time::Instant::now();
            engine.as_engine().after_optim(step, &mut net.layers)?;
            timings.forward_ns += forward_ns;
            timings.backward_ns += backward_ns;
            timings.pack_ns += (t1 - t0).as_nanos() as u64;
            timings.optim_ns += t1.elapsed().as_nanos() as u64;
            timings.optim_step_ns += (t_mid - t1).as_nanos() as u64;
            timings.mask_update_ns += engine.as_engine().drain_update_ns();
            timings.batches += 1;
            loss_meter.update(stats.loss as f64, stats.total as u64);
            acc_meter.update(stats.correct, stats.total);
            if health.divergence_window > 0 {
                loss_window.push(f64::from(stats.loss));
                if loss_window.len() > health.divergence_window {
                    let excess = loss_window.len() - health.divergence_window;
                    loss_window.drain(..excess);
                }
            }
            step = this_step;

            // --- numeric health: post-update weight check ---
            if health.check_weights {
                if let Some(name) = first_nonfinite(&mut net.layers, false) {
                    let kind = FaultKind::NonFiniteWeight;
                    let detail = format!("non-finite weight in {name} after optimizer step");
                    match effective_policy(kind, health.policy, last_ckpt_step.is_some()) {
                        FaultPolicy::RollbackAndDampen => {
                            faults.push(FaultEvent {
                                step: this_step,
                                epoch,
                                kind,
                                action: FaultAction::RolledBack,
                                detail,
                            });
                            return Err(AttemptFail::Rollback(faults));
                        }
                        _ => {
                            return Err(AttemptFail::Hard(NdsnnError::NumericFault(format!(
                                "{detail} at step {this_step} (epoch {epoch})"
                            ))));
                        }
                    }
                }
            }

            // --- periodic checkpoint ---
            if ckpt_enabled && this_step.is_multiple_of(cfg.checkpoint_every) {
                let dir = recovery.dir.as_ref().expect("ckpt_enabled implies dir");
                let engine_snap = engine.as_engine().export_snapshot().ok_or_else(|| {
                    NdsnnError::InvalidConfig("engine lost checkpoint support mid-run".into())
                })?;
                let snap = RunSnapshot {
                    fingerprint: fingerprint.to_string(),
                    step: this_step,
                    epoch,
                    next_batch: bi + 1,
                    lr: opt.lr(),
                    lr_scale,
                    best_test,
                    final_test,
                    encoder_rng: net.encoder_rng_state(),
                    params: checkpoint::snapshot_params(&mut net.layers),
                    velocity: opt.velocity().to_vec(),
                    engine: engine_snap,
                    records: records.clone(),
                    activity: activity.clone(),
                    loss_meter,
                    acc_meter,
                    spike_offsets: merged_layer_stats(&net, &spike_offsets),
                    loss_window: loss_window.clone(),
                    timings,
                    faults: faults.clone(),
                };
                checkpoint::write_generation(
                    dir,
                    this_step,
                    &encode_snapshot(&snap),
                    recovery.keep_generations,
                )?;
                last_ckpt_step = Some(this_step);
            }

            // --- scheduled kill (fault-injection harness) ---
            if plan.kill_at_step == Some(this_step) && fired.insert((3, this_step)) {
                return Err(AttemptFail::Hard(NdsnnError::Injected(format!(
                    "scheduled kill after step {this_step}"
                ))));
            }
        }
        next_batch = 0;

        let mut agg = net.spike_stats();
        for (_, off) in &spike_offsets {
            agg.merge(*off);
        }
        let train_rate = agg.rate();
        if epoch + 1 == cfg.epochs {
            layer_rates = merged_layer_stats(&net, &spike_offsets)
                .into_iter()
                .map(|(name, s)| (name, s.rate()))
                .collect();
        }
        let sparsity = engine.as_engine().sparsity();
        activity.push(train_rate, sparsity);

        // Evaluate.
        let mut test_meter = AccuracyMeter::new();
        for batch in eval_loader.epoch(test, 0) {
            let stats = net
                .eval_batch(&batch.images, &batch.labels)
                .map_err(|e| NdsnnError::Snn(e.to_string()))?;
            test_meter.update(stats.correct, stats.total);
        }
        // Evaluation runs the same spike path; keep its counters out of the
        // training-phase totals. (Eval never emits active sets — layers are
        // out of training mode — but reset grad counters too for symmetry.)
        net.layers.reset_spike_exec_stats();
        net.layers.reset_grad_exec_stats();
        final_test = test_meter.percent();
        best_test = best_test.max(final_test);
        records.push(EpochRecord {
            epoch,
            train_loss: loss_meter.mean(),
            train_acc: acc_meter.percent(),
            test_acc: final_test,
            sparsity,
            spike_rate: train_rate,
            lr: opt.lr() as f64,
        });
        epoch += 1;
    }

    // Final checkpoint: persist the fully-trained state even when the run
    // length is not a multiple of `checkpoint_every`, so exporters (e.g. the
    // inference compiler) always find a generation matching the last step.
    if ckpt_enabled && last_ckpt_step != Some(step) {
        let dir = recovery.dir.as_ref().expect("ckpt_enabled implies dir");
        let engine_snap = engine.as_engine().export_snapshot().ok_or_else(|| {
            NdsnnError::InvalidConfig("engine lost checkpoint support mid-run".into())
        })?;
        let snap = RunSnapshot {
            fingerprint: fingerprint.to_string(),
            step,
            epoch: cfg.epochs,
            next_batch: 0,
            lr: opt.lr(),
            lr_scale,
            best_test,
            final_test,
            encoder_rng: net.encoder_rng_state(),
            params: checkpoint::snapshot_params(&mut net.layers),
            velocity: opt.velocity().to_vec(),
            engine: engine_snap,
            records: records.clone(),
            activity: activity.clone(),
            loss_meter,
            acc_meter,
            spike_offsets: merged_layer_stats(&net, &spike_offsets),
            loss_window: loss_window.clone(),
            timings,
            faults: faults.clone(),
        };
        checkpoint::write_generation(
            dir,
            step,
            &encode_snapshot(&snap),
            recovery.keep_generations,
        )?;
    }

    // Measure the weights' actual sparsity (not just the mask's claim),
    // recording the per-layer densities for the FLOPs report.
    let mut nonzero = 0usize;
    let mut total = 0usize;
    let mut weight_density: Vec<(String, f64)> = Vec::new();
    net.layers.for_each_param(&mut |p| {
        if p.is_sparsifiable() {
            let nz = p.value.count_nonzero();
            nonzero += nz;
            total += p.len();
            weight_density.push((p.name.clone(), nz as f64 / p.len().max(1) as f64));
        }
    });
    let final_sparsity = if total == 0 {
        0.0
    } else {
        1.0 - nonzero as f64 / total as f64
    };

    // Training-FLOPs report (satellite of §IV.C): walk the network's compute
    // sites in forward order, pairing each conv/linear with the measured rate
    // of the nearest preceding spike emitter — the first consumer sees the
    // analog (direct-encoded) input at the assumed rate. Emitters inside
    // composite blocks fall back to the block's aggregate rate.
    let mut sites = Vec::new();
    net.layers.collect_compute(&mut sites);
    let mut flop_layers = Vec::new();
    let mut flop_densities = Vec::new();
    let mut flop_rates = Vec::new();
    let mut flop_bwd_densities = Vec::new();
    let mut current_rate = ASSUMED_SPIKE_RATE;
    for site in sites {
        match site {
            ComputeSite::Emitter { name } => {
                current_rate = layer_rates
                    .iter()
                    .find(|(n, _)| *n == name || name.starts_with(&format!("{n}.")))
                    .map(|(_, r)| *r)
                    .unwrap_or(ASSUMED_SPIKE_RATE);
            }
            ComputeSite::Consumer {
                name,
                weights,
                output_positions,
            } => {
                let d = weight_density
                    .iter()
                    .find(|(n, _)| *n == format!("{name}.weight"))
                    .map(|(_, d)| *d)
                    .unwrap_or(1.0);
                // A consumer that never saw an active set ran its dX dense.
                let bwd = grad_layer_totals
                    .get(&name)
                    .filter(|(_, elems)| *elems > 0)
                    .map(|(nnz, elems)| *nnz as f64 / *elems as f64)
                    .unwrap_or(1.0);
                flop_layers.push(LayerCompute {
                    name,
                    weights,
                    output_positions,
                });
                flop_densities.push(d);
                flop_rates.push(current_rate);
                flop_bwd_densities.push(bwd);
            }
        }
    }
    let flops = training_flops_report(
        &flop_layers,
        &flop_densities,
        &flop_rates,
        &flop_bwd_densities,
        cfg.timesteps,
    );

    let mask_digest = engine
        .as_engine()
        .mask_set()
        .map(|m| m.digest())
        .unwrap_or(0);
    let mask_history = engine.as_engine().history().to_vec();

    Ok(RunResult {
        config: *cfg,
        label: activity.label.clone(),
        epochs: records,
        final_test_acc: final_test,
        best_test_acc: best_test,
        activity,
        num_params,
        final_sparsity,
        layer_spike_rates: layer_rates,
        flops,
        timings,
        mask_history,
        mask_digest,
        final_live_weights: nonzero,
        faults,
        resumed_from_step,
    })
}

/// Engine holder that keeps LTH concrete (its `advance_round` is not on the
/// `SparseEngine` trait).
enum EngineKind {
    Generic(Box<dyn SparseEngine>),
    Lth(LthController),
}

impl EngineKind {
    fn as_engine(&mut self) -> &mut dyn SparseEngine {
        match self {
            EngineKind::Generic(e) => e.as_mut(),
            EngineKind::Lth(e) => e,
        }
    }

    fn as_lth(&mut self) -> Option<&mut LthController> {
        match self {
            EngineKind::Lth(e) => Some(e),
            EngineKind::Generic(_) => None,
        }
    }
}

/// Convenience: total parameter count of a run's architecture at a given
/// width, without training.
pub fn count_params(cfg: &RunConfig) -> Result<usize> {
    let mut net = build_network(cfg)?;
    Ok(net.num_params())
}

/// Convenience: run a dense baseline matching `cfg` (same everything, dense
/// method) — used by the cost experiments for the `R_d` denominator.
pub fn dense_twin(cfg: &RunConfig) -> RunConfig {
    RunConfig {
        method: MethodSpec::Dense,
        ..*cfg
    }
}

/// Minimum image edge length an architecture can ingest (LeNet-5's two
/// valid-padding conv+pool stages require 16 pixels).
pub fn min_image_size(arch: Architecture) -> usize {
    match arch {
        Architecture::Lenet5 => 16,
        _ => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    fn smoke(method: MethodSpec) -> RunConfig {
        Profile::Smoke.run_config(Architecture::Vgg16, DatasetKind::Cifar10, method)
    }

    #[test]
    fn dense_smoke_run_completes() {
        let cfg = smoke(MethodSpec::Dense);
        let result = run(&cfg).unwrap();
        assert_eq!(result.epochs.len(), cfg.epochs);
        assert_eq!(result.final_sparsity, 0.0);
        assert!(result.final_test_acc >= 0.0);
        assert!(result.num_params > 0);
        assert!(result.epochs.iter().all(|e| e.train_loss.is_finite()));
        // Phase timings cover every training batch.
        assert_eq!(
            result.timings.batches as usize,
            result.epochs.len() * (cfg.train_samples / cfg.batch_size)
        );
        assert!(result.timings.forward_ns > 0);
        assert!(result.timings.backward_ns > 0);
        assert!(result.timings.mean_batch_ns() > 0);
    }

    #[test]
    fn ndsnn_smoke_run_reaches_target_sparsity() {
        let cfg = smoke(MethodSpec::Ndsnn {
            initial_sparsity: 0.5,
            final_sparsity: 0.9,
        });
        let result = run(&cfg).unwrap();
        assert!(
            (result.final_sparsity - 0.9).abs() < 0.05,
            "final sparsity {}",
            result.final_sparsity
        );
        // Sparsity increased over epochs.
        let first = result.epochs.first().unwrap().sparsity;
        let last = result.epochs.last().unwrap().sparsity;
        assert!(last >= first);
    }

    #[test]
    fn lth_smoke_run_advances_rounds() {
        let mut cfg = smoke(MethodSpec::Lth {
            final_sparsity: 0.8,
            rounds: 1,
        });
        cfg.epochs = 2; // one round segment + final segment
        let result = run(&cfg).unwrap();
        assert!(
            (result.final_sparsity - 0.8).abs() < 0.05,
            "final sparsity {}",
            result.final_sparsity
        );
        // First epoch dense, later sparse — the Fig. 1 trajectory.
        assert_eq!(result.epochs[0].sparsity, 0.0);
        assert!(result.epochs[1].sparsity > 0.7);
    }

    #[test]
    fn spike_rates_recorded() {
        let cfg = smoke(MethodSpec::Dense);
        let result = run(&cfg).unwrap();
        assert!(result
            .activity
            .epochs
            .iter()
            .all(|e| (0.0..=1.0).contains(&e.spike_rate)));
        assert!(
            result.activity.epochs.iter().any(|e| e.spike_rate > 0.0),
            "no spikes recorded at all"
        );
    }

    #[test]
    fn zero_epochs_rejected() {
        let mut cfg = smoke(MethodSpec::Dense);
        cfg.epochs = 0;
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn flops_report_uses_realized_rates() {
        let cfg = smoke(MethodSpec::Dense);
        let result = run(&cfg).unwrap();
        assert!(result.flops.assumed > 0.0);
        assert!(result.flops.realized > 0.0);
        // Spiking layers fire well below the assumed constant, so the
        // realized estimate must come in under the assumed one.
        assert!(
            result.flops.realized < result.flops.assumed,
            "realized {} vs assumed {}",
            result.flops.realized,
            result.flops.assumed
        );
        assert!((0.0..=1.0).contains(&result.flops.realized_rate));
        // Consumers saw spike batches during training.
        assert!(result.timings.spike_elems > 0);
        assert!(result.timings.realized_spike_density() > 0.0);
        // Both estimates land in the archived JSON.
        let json = result.to_json();
        assert!(json.contains("\"assumed\""));
        assert!(json.contains("\"realized\""));
    }

    #[test]
    fn spike_density_threshold_config_switches_dispatch_bit_identically() {
        let mut gather_cfg = smoke(MethodSpec::Dense);
        gather_cfg.spike_density_threshold = Some(1.5);
        let gather = run(&gather_cfg).unwrap();
        assert!(
            gather.timings.spike_gather_steps > 0,
            "forced-gather run never used the spike kernels: {:?}",
            gather.timings
        );

        let mut dense_cfg = smoke(MethodSpec::Dense);
        dense_cfg.spike_density_threshold = Some(-1.0);
        let dense = run(&dense_cfg).unwrap();
        assert_eq!(dense.timings.spike_gather_steps, 0);
        assert!(dense.timings.spike_dense_steps > 0);

        // The gather kernels are exact: both runs follow the same numeric
        // trajectory bit for bit (the config field is execution-only, so it
        // is excluded from the loss comparison, not from the JSON).
        assert_eq!(gather.epochs.len(), dense.epochs.len());
        for (g, d) in gather.epochs.iter().zip(&dense.epochs) {
            assert_eq!(g.train_loss, d.train_loss, "loss diverged");
            assert_eq!(g.train_acc, d.train_acc);
            assert_eq!(g.test_acc, d.test_acc);
        }
    }

    #[test]
    fn grad_density_threshold_config_switches_dispatch_bit_identically() {
        // Rectangle has compact support, so neurons outside the window are
        // *exactly* inactive and the restricted backward must replay the
        // dense trajectory bit for bit. (The default Atan surrogate never
        // reaches zero, so it would legitimately emit nothing.)
        let surrogate = ndsnn_snn::surrogate::Surrogate::Rectangle { width: 1.0 };
        let mut gather_cfg = smoke(MethodSpec::Dense);
        gather_cfg.surrogate = surrogate;
        gather_cfg.grad_density_threshold = Some(1.5);
        let gather = run(&gather_cfg).unwrap();
        assert!(
            gather.timings.grad_gather_steps > 0,
            "forced-gather run never restricted a backward: {:?}",
            gather.timings
        );
        assert!(gather.timings.grad_elems > 0);
        let density = gather.timings.realized_backward_density();
        assert!(
            (0.0..1.0).contains(&density),
            "active window covered everything: {density}"
        );
        // The measured density also reaches the FLOPs report.
        assert!(gather.flops.realized_backward_density < 1.0);

        let mut dense_cfg = smoke(MethodSpec::Dense);
        dense_cfg.surrogate = surrogate;
        dense_cfg.grad_density_threshold = Some(-1.0);
        let dense = run(&dense_cfg).unwrap();
        assert_eq!(dense.timings.grad_gather_steps, 0);
        assert_eq!(
            dense.timings.grad_elems, 0,
            "negative threshold must disable emission entirely"
        );
        assert_eq!(dense.flops.realized_backward_density, 1.0);
        // Same trajectory, same rates — only the dX share of the active
        // estimate shrinks with the measured backward density.
        assert!(
            gather.flops.realized_active < dense.flops.realized_active,
            "active-backward FLOPs did not shrink: {} vs {}",
            gather.flops.realized_active,
            dense.flops.realized_active
        );

        assert_eq!(gather.epochs.len(), dense.epochs.len());
        for (g, d) in gather.epochs.iter().zip(&dense.epochs) {
            assert_eq!(g.train_loss, d.train_loss, "loss diverged");
            assert_eq!(g.train_acc, d.train_acc);
            assert_eq!(g.test_acc, d.test_acc);
        }
    }

    #[test]
    fn run_result_json_export() {
        let cfg = smoke(MethodSpec::Dense);
        let result = run(&cfg).unwrap();
        let json = result.to_json();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"best_test_acc\""));
        assert!(json.contains("\"epochs\""));
        assert!(json.contains("\"Dense\""));
    }

    #[test]
    fn dense_twin_strips_method() {
        let cfg = smoke(MethodSpec::Set { sparsity: 0.9 });
        let twin = dense_twin(&cfg);
        assert_eq!(twin.method, MethodSpec::Dense);
        assert_eq!(twin.seed, cfg.seed);
    }
}
