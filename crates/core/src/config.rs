//! Experiment configuration types.

use ndsnn_snn::encoder::Encoding;
use ndsnn_snn::models::{Architecture, NeuronKind};
use ndsnn_snn::optim::SgdConfig;
use ndsnn_snn::surrogate::Surrogate;
use serde::{Deserialize, Serialize};

/// Which dataset family an experiment targets (paper §IV.A). All are
/// generated synthetically with matching tensor shapes — see DESIGN.md's
/// substitution table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// 3×32×32, 10 classes.
    Cifar10,
    /// 3×32×32, 100 classes.
    Cifar100,
    /// 3×64×64, 200 classes.
    TinyImageNet,
}

impl DatasetKind {
    /// Human-readable name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Cifar10 => "CIFAR-10",
            DatasetKind::Cifar100 => "CIFAR-100",
            DatasetKind::TinyImageNet => "Tiny-ImageNet",
        }
    }

    /// Paper-scale class count.
    pub fn num_classes(&self) -> usize {
        match self {
            DatasetKind::Cifar10 => 10,
            DatasetKind::Cifar100 => 100,
            DatasetKind::TinyImageNet => 200,
        }
    }

    /// Paper-scale image edge length.
    pub fn image_size(&self) -> usize {
        match self {
            DatasetKind::Cifar10 | DatasetKind::Cifar100 => 32,
            DatasetKind::TinyImageNet => 64,
        }
    }
}

/// Which sparse-training method to run — one per row family in Table I,
/// plus the ADMM comparator of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MethodSpec {
    /// Fully dense training.
    Dense,
    /// The paper's method (Eq. 4–9).
    Ndsnn {
        /// Initial sparsity θᵢ.
        initial_sparsity: f64,
        /// Final sparsity θ_f.
        final_sparsity: f64,
    },
    /// SET-SNN: constant sparsity, random growth.
    Set {
        /// Constant sparsity.
        sparsity: f64,
    },
    /// RigL-SNN: constant sparsity, gradient growth.
    Rigl {
        /// Constant sparsity.
        sparsity: f64,
    },
    /// LTH-SNN: iterative magnitude pruning with rewinding.
    Lth {
        /// Final sparsity after the last round.
        final_sparsity: f64,
        /// Number of prune-rewind rounds.
        rounds: usize,
    },
    /// ADMM train-prune-retrain.
    Admm {
        /// Target sparsity.
        target_sparsity: f64,
    },
}

impl MethodSpec {
    /// Row label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            MethodSpec::Dense => "Dense",
            MethodSpec::Ndsnn { .. } => "NDSNN",
            MethodSpec::Set { .. } => "SET",
            MethodSpec::Rigl { .. } => "RigL",
            MethodSpec::Lth { .. } => "LTH",
            MethodSpec::Admm { .. } => "ADMM",
        }
    }

    /// The method's final sparsity (0 for dense).
    pub fn final_sparsity(&self) -> f64 {
        match *self {
            MethodSpec::Dense => 0.0,
            MethodSpec::Ndsnn { final_sparsity, .. } => final_sparsity,
            MethodSpec::Set { sparsity } => sparsity,
            MethodSpec::Rigl { sparsity } => sparsity,
            MethodSpec::Lth { final_sparsity, .. } => final_sparsity,
            MethodSpec::Admm { target_sparsity } => target_sparsity,
        }
    }
}

/// A complete training-run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Network architecture.
    pub arch: Architecture,
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Sparse-training method.
    pub method: MethodSpec,
    /// Simulation timesteps `T` (paper default 5; Fig. 4 uses 2).
    pub timesteps: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Optimizer settings.
    pub sgd: SgdConfig,
    /// Input encoding.
    pub encoding: Encoding,
    /// Master seed (model init, topology, shuffling).
    pub seed: u64,
    /// Channel width multiplier (1.0 = paper scale).
    pub width_mult: f64,
    /// Image edge length actually used (profile may shrink it).
    pub image_size: usize,
    /// Class count actually used.
    pub num_classes: usize,
    /// Training samples generated.
    pub train_samples: usize,
    /// Test samples generated.
    pub test_samples: usize,
    /// Drop-and-grow period ΔT in *batches* (dynamic methods).
    pub delta_t: usize,
    /// Fraction of total steps after which mask updates stop (dynamic
    /// methods); 0.75 is the RigL-family convention.
    pub update_horizon: f64,
    /// Spiking neuron family (paper: fixed-decay LIF).
    pub neuron: NeuronKind,
    /// Surrogate pseudo-derivative for the Heaviside backward (paper Eq. 3:
    /// arctangent). Compact-support windows (`Rectangle`, `Gaussian`) are
    /// what make the active-set sparse backward effective — the heavy-tailed
    /// defaults never produce exact-zero derivatives, so their backward is
    /// structurally dense.
    pub surrogate: Surrogate,
    /// Write a full-state checkpoint every this many optimizer steps
    /// (0 disables periodic checkpointing). Takes effect only when a
    /// checkpoint directory is supplied via
    /// [`crate::recovery::RecoveryOptions`].
    pub checkpoint_every: usize,
    /// Spike-density threshold for the activation-sparsity-aware kernels: a
    /// timestep whose realized spike density falls strictly below it runs
    /// the multiply-free gather path (bit-identical to dense). `None` defers
    /// to `NDSNN_SPIKE_DENSITY_THRESHOLD` (default 0.25); negative forces
    /// dense execution, `>= 1.0` forces the gather path.
    pub spike_density_threshold: Option<f64>,
    /// Backward-density threshold for the active-set sparse-gradient BPTT
    /// backward: a timestep whose realized surrogate-active density falls
    /// strictly below it restricts `dX` to the active neurons (bit-identical
    /// to dense at active threshold 0). `None` defers to
    /// `NDSNN_GRAD_DENSITY_THRESHOLD` (default 0.25); negative disables
    /// active-set emission entirely, `>= 1.0` forces the gather path.
    pub grad_density_threshold: Option<f64>,
}

impl RunConfig {
    /// Display string `"<method> <arch> <dataset> @ θ=<s>"`.
    pub fn describe(&self) -> String {
        format!(
            "{} {} {} @ θ={:.2} T={}",
            self.method.label(),
            self.arch.label(),
            self.dataset.label(),
            self.method.final_sparsity(),
            self.timesteps
        )
    }
}

/// Typed accessors for every `NDSNN_*` environment knob.
///
/// Each knob is parsed exactly once per call through the shared primitives
/// in [`ndsnn_tensor::env`] — trim, parse, fall back to the documented
/// default on unset/garbage — so no subsystem grows its own ad-hoc parser.
/// The knob names are exported as constants so docs, tests and CLI help
/// never drift from the strings the runtime actually reads.
pub mod env {
    use crate::recovery::FaultPolicy;

    /// Worker-thread count for the parallel kernels (`0`/`1` disable
    /// threading). Resolved *once* per process by the worker pool; see
    /// [`ndsnn_tensor::parallel::worker_threads`].
    pub const THREADS: &str = "NDSNN_THREADS";
    /// Weight-density threshold below which masked layers dispatch through
    /// the row-sparse kernels.
    pub const DENSITY_THRESHOLD: &str = "NDSNN_DENSITY_THRESHOLD";
    /// Spike-density threshold below which binary timesteps dispatch through
    /// the gather kernels.
    pub const SPIKE_DENSITY_THRESHOLD: &str = "NDSNN_SPIKE_DENSITY_THRESHOLD";
    /// Backward-density threshold below which a timestep's `dX` is restricted
    /// to the surrogate-active neuron set.
    pub const GRAD_DENSITY_THRESHOLD: &str = "NDSNN_GRAD_DENSITY_THRESHOLD";
    /// Active-window membership threshold on `|φ'(v − ϑ)|`; `0` (the
    /// default) keeps the sparse backward bit-identical to dense.
    pub const GRAD_ACTIVE_THRESHOLD: &str = "NDSNN_GRAD_ACTIVE_THRESHOLD";
    /// Numeric-fault reaction policy (`abort` / `skip` / `rollback`).
    pub const FAULT_POLICY: &str = "NDSNN_FAULT_POLICY";
    /// Maximum requests coalesced into one forward pass by the serving
    /// runtime.
    pub const INFER_BATCH: &str = "NDSNN_INFER_BATCH";
    /// Microseconds the serving runtime waits for a batch to fill before
    /// flushing a partial one.
    pub const INFER_MAX_WAIT_US: &str = "NDSNN_INFER_MAX_WAIT_US";
    /// Admission-queue capacity of the serving runtime: requests beyond it
    /// are shed instead of queueing without bound.
    pub const INFER_QUEUE_CAP: &str = "NDSNN_INFER_QUEUE_CAP";
    /// Load-shed policy when the admission queue is full: `reject-new`
    /// (refuse the arriving request) or `drop-oldest` (evict the
    /// longest-queued request in its favor). Parsed by the serving runtime.
    pub const INFER_SHED_POLICY: &str = "NDSNN_INFER_SHED_POLICY";
    /// Default per-request deadline in microseconds; a request still queued
    /// when its deadline passes is answered `DeadlineExceeded` without
    /// burning a forward pass. `0` disables the default deadline.
    pub const INFER_DEADLINE_US: &str = "NDSNN_INFER_DEADLINE_US";
    /// Milliseconds a server shutdown waits for queued requests to drain
    /// before failing the remainder and joining the dispatcher.
    pub const INFER_DRAIN_MS: &str = "NDSNN_INFER_DRAIN_MS";
    /// Minimum multiply-adds per parallel tile task in the tiled GEMM/conv
    /// core; problems below it run serially (thread wakeup used to cost a
    /// 256³ matmul 35%). Resolved once per process.
    pub const MIN_TILE_WORK: &str = "NDSNN_MIN_TILE_WORK";
    /// Whether the inference compiler int8-quantizes eligible layers into an
    /// NDINF2 artifact (`1`/`true`/`on` enable; anything else keeps f32).
    pub const INFER_QUANT: &str = "NDSNN_INFER_QUANT";
    /// Resident-byte budget for the multi-model registry: the sum of
    /// encoded artifact bytes the registry may keep loaded. `0` (the
    /// default) means unlimited. Registration past the budget evicts
    /// least-recently-used unpinned models; if nothing evictable remains
    /// the registration is refused and the registry is unchanged.
    pub const FLEET_BUDGET_BYTES: &str = "NDSNN_FLEET_BUDGET_BYTES";
    /// Maximum number of *named* models resident in the registry at once,
    /// clamped to at least 1. Distinct names sharing one content digest
    /// each count against the cap (the bytes are shared, the names are
    /// not).
    pub const FLEET_MAX_MODELS: &str = "NDSNN_FLEET_MAX_MODELS";
    /// Total dispatcher worker threads a serving fleet carves into
    /// per-model shards (weighted by model popularity, every shard gets
    /// at least one). `0` (the default) means one worker per model.
    pub const FLEET_SHARD_THREADS: &str = "NDSNN_FLEET_SHARD_THREADS";

    /// Default for [`min_tile_work`] (`2^25` multiply-adds).
    pub const DEFAULT_MIN_TILE_WORK: usize = ndsnn_tensor::ops::tile::DEFAULT_MIN_TILE_WORK;
    /// Default for [`infer_batch`].
    pub const DEFAULT_INFER_BATCH: usize = 8;
    /// Default for [`infer_max_wait_us`].
    pub const DEFAULT_INFER_MAX_WAIT_US: u64 = 500;
    /// Default for [`infer_queue_cap`].
    pub const DEFAULT_INFER_QUEUE_CAP: usize = 256;
    /// Default for [`infer_deadline_us`] (`0`: no default deadline).
    pub const DEFAULT_INFER_DEADLINE_US: u64 = 0;
    /// Default for [`infer_drain_ms`].
    pub const DEFAULT_INFER_DRAIN_MS: u64 = 2000;
    /// Default for [`fleet_budget_bytes`] (`0`: unlimited).
    pub const DEFAULT_FLEET_BUDGET_BYTES: u64 = 0;
    /// Default for [`fleet_max_models`].
    pub const DEFAULT_FLEET_MAX_MODELS: usize = 64;
    /// Default for [`fleet_shard_threads`] (`0`: one worker per model).
    pub const DEFAULT_FLEET_SHARD_THREADS: usize = 0;

    /// `NDSNN_THREADS`: the *requested* worker-thread count, `None` when
    /// unset (the pool then uses the available parallelism). Note the pool
    /// caches its resolution once per process; this accessor re-reads the
    /// environment and is for reporting/config plumbing, not dispatch.
    pub fn threads() -> Option<usize> {
        ndsnn_tensor::env::parse_usize(THREADS)
    }

    /// `NDSNN_DENSITY_THRESHOLD`, default 0.25. Negative forces dense
    /// execution; `>= 1.0` forces the row-sparse path.
    pub fn density_threshold() -> f64 {
        ndsnn_sparse::kernels::density_threshold_from_env()
    }

    /// `NDSNN_SPIKE_DENSITY_THRESHOLD`, default 0.25. Negative forces dense
    /// execution; `>= 1.0` forces the gather path.
    pub fn spike_density_threshold() -> f64 {
        ndsnn_tensor::ops::spike::spike_density_threshold_from_env()
    }

    /// `NDSNN_GRAD_DENSITY_THRESHOLD`, default 0.25. Negative disables
    /// active-set emission (forces the dense backward); `>= 1.0` forces the
    /// gather path whenever an active set is available.
    pub fn grad_density_threshold() -> f64 {
        ndsnn_tensor::ops::grad::grad_density_threshold_from_env()
    }

    /// `NDSNN_GRAD_ACTIVE_THRESHOLD`, default 0.0 (bit-identity mode).
    /// Negative or non-finite values fall back to the default; positive
    /// values trade bounded gradient error for a smaller active set.
    pub fn grad_active_threshold() -> f64 {
        ndsnn_tensor::ops::grad::grad_active_threshold_from_env()
    }

    /// `NDSNN_FAULT_POLICY`, default [`FaultPolicy::Abort`].
    pub fn fault_policy() -> FaultPolicy {
        FaultPolicy::from_env()
    }

    /// `NDSNN_INFER_BATCH`, default [`DEFAULT_INFER_BATCH`], clamped to
    /// at least 1 (a zero-sized batch would stall the queue forever).
    pub fn infer_batch() -> usize {
        ndsnn_tensor::env::parse_usize(INFER_BATCH)
            .unwrap_or(DEFAULT_INFER_BATCH)
            .max(1)
    }

    /// `NDSNN_INFER_MAX_WAIT_US`, default [`DEFAULT_INFER_MAX_WAIT_US`].
    /// Zero is allowed: flush every request immediately (latency-optimal,
    /// throughput-pessimal).
    pub fn infer_max_wait_us() -> u64 {
        ndsnn_tensor::env::parse_u64(INFER_MAX_WAIT_US).unwrap_or(DEFAULT_INFER_MAX_WAIT_US)
    }

    /// `NDSNN_INFER_QUEUE_CAP`, default [`DEFAULT_INFER_QUEUE_CAP`], clamped
    /// to at least 1 (a zero-capacity queue could never admit anything).
    pub fn infer_queue_cap() -> usize {
        ndsnn_tensor::env::parse_usize(INFER_QUEUE_CAP)
            .unwrap_or(DEFAULT_INFER_QUEUE_CAP)
            .max(1)
    }

    /// `NDSNN_INFER_SHED_POLICY`: the raw (trimmed) policy string, `None`
    /// when unset. The serving runtime owns the `reject-new` / `drop-oldest`
    /// vocabulary and falls back to `reject-new` on anything it does not
    /// recognize.
    pub fn infer_shed_policy_raw() -> Option<String> {
        ndsnn_tensor::env::raw(INFER_SHED_POLICY).map(|s| s.trim().to_string())
    }

    /// `NDSNN_INFER_DEADLINE_US`, default [`DEFAULT_INFER_DEADLINE_US`].
    /// `0` means "no default deadline"; per-call overrides in the serving
    /// API take precedence either way.
    pub fn infer_deadline_us() -> u64 {
        ndsnn_tensor::env::parse_u64(INFER_DEADLINE_US).unwrap_or(DEFAULT_INFER_DEADLINE_US)
    }

    /// `NDSNN_INFER_DRAIN_MS`, default [`DEFAULT_INFER_DRAIN_MS`]. Zero is
    /// allowed: shutdown fails all still-queued requests immediately (the
    /// in-flight batch always completes).
    pub fn infer_drain_ms() -> u64 {
        ndsnn_tensor::env::parse_u64(INFER_DRAIN_MS).unwrap_or(DEFAULT_INFER_DRAIN_MS)
    }

    /// `NDSNN_MIN_TILE_WORK`, default [`DEFAULT_MIN_TILE_WORK`]. `0` forces
    /// tile-parallel dispatch for every problem size. Like `NDSNN_THREADS`
    /// the tiled core resolves it once per process, so this accessor reports
    /// the *effective* value (including any test override), not a re-read.
    pub fn min_tile_work() -> usize {
        ndsnn_tensor::ops::tile::min_tile_work()
    }

    /// `NDSNN_INFER_QUANT`, default `false`. Accepts `1`/`true`/`on`/`yes`
    /// (case-insensitive) as enabled; every other value — including garbage
    /// — keeps quantization off, the safe default.
    pub fn infer_quant() -> bool {
        ndsnn_tensor::env::raw(INFER_QUANT).is_some_and(|s| {
            matches!(
                s.trim().to_ascii_lowercase().as_str(),
                "1" | "true" | "on" | "yes"
            )
        })
    }

    /// `NDSNN_FLEET_BUDGET_BYTES`, default [`DEFAULT_FLEET_BUDGET_BYTES`]
    /// (`0`: unlimited). Unparsable values fall back to the default.
    pub fn fleet_budget_bytes() -> u64 {
        ndsnn_tensor::env::parse_u64(FLEET_BUDGET_BYTES).unwrap_or(DEFAULT_FLEET_BUDGET_BYTES)
    }

    /// `NDSNN_FLEET_MAX_MODELS`, default [`DEFAULT_FLEET_MAX_MODELS`],
    /// clamped to at least 1 (a registry that can hold zero models could
    /// never serve anything).
    pub fn fleet_max_models() -> usize {
        ndsnn_tensor::env::parse_usize(FLEET_MAX_MODELS)
            .unwrap_or(DEFAULT_FLEET_MAX_MODELS)
            .max(1)
    }

    /// `NDSNN_FLEET_SHARD_THREADS`, default
    /// [`DEFAULT_FLEET_SHARD_THREADS`]. `0` means "one dispatcher worker
    /// per model"; positive totals are divided across shards by popularity
    /// weight with every shard keeping at least one worker.
    pub fn fleet_shard_threads() -> usize {
        ndsnn_tensor::env::parse_usize(FLEET_SHARD_THREADS).unwrap_or(DEFAULT_FLEET_SHARD_THREADS)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        // One test per knob. Each touches only its own variable, so the
        // parallel test threads never contend on a shared name; every test
        // restores the environment before returning.

        #[test]
        fn infer_quant_knob() {
            std::env::set_var(INFER_QUANT, " TRUE ");
            assert!(infer_quant());
            std::env::set_var(INFER_QUANT, "1");
            assert!(infer_quant());
            std::env::set_var(INFER_QUANT, "0");
            assert!(!infer_quant());
            std::env::set_var(INFER_QUANT, "maybe?");
            assert!(!infer_quant(), "garbage must fall back to off");
            std::env::remove_var(INFER_QUANT);
            assert!(!infer_quant());
        }

        #[test]
        fn threads_knob() {
            std::env::set_var(THREADS, " 3 ");
            assert_eq!(threads(), Some(3));
            std::env::set_var(THREADS, "many");
            assert_eq!(threads(), None);
            std::env::remove_var(THREADS);
            assert_eq!(threads(), None);
        }

        #[test]
        fn density_threshold_knob() {
            std::env::set_var(DENSITY_THRESHOLD, "0.5");
            assert_eq!(density_threshold(), 0.5);
            std::env::set_var(DENSITY_THRESHOLD, "NaN");
            assert_eq!(
                density_threshold(),
                ndsnn_sparse::kernels::DEFAULT_DENSITY_THRESHOLD
            );
            std::env::remove_var(DENSITY_THRESHOLD);
            assert_eq!(
                density_threshold(),
                ndsnn_sparse::kernels::DEFAULT_DENSITY_THRESHOLD
            );
        }

        #[test]
        fn spike_density_threshold_knob() {
            std::env::set_var(SPIKE_DENSITY_THRESHOLD, "-1");
            assert_eq!(spike_density_threshold(), -1.0);
            std::env::set_var(SPIKE_DENSITY_THRESHOLD, "garbage");
            assert_eq!(
                spike_density_threshold(),
                ndsnn_tensor::ops::spike::DEFAULT_SPIKE_DENSITY_THRESHOLD
            );
            std::env::remove_var(SPIKE_DENSITY_THRESHOLD);
            assert_eq!(
                spike_density_threshold(),
                ndsnn_tensor::ops::spike::DEFAULT_SPIKE_DENSITY_THRESHOLD
            );
        }

        #[test]
        fn grad_density_threshold_knob() {
            // Force-dense and force-sparse extremes round-trip unclamped.
            std::env::set_var(GRAD_DENSITY_THRESHOLD, "-1");
            assert_eq!(grad_density_threshold(), -1.0);
            std::env::set_var(GRAD_DENSITY_THRESHOLD, "1.5");
            assert_eq!(grad_density_threshold(), 1.5);
            std::env::set_var(GRAD_DENSITY_THRESHOLD, "0.4");
            assert_eq!(grad_density_threshold(), 0.4);
            std::env::set_var(GRAD_DENSITY_THRESHOLD, "garbage");
            assert_eq!(
                grad_density_threshold(),
                ndsnn_tensor::ops::grad::DEFAULT_GRAD_DENSITY_THRESHOLD
            );
            std::env::remove_var(GRAD_DENSITY_THRESHOLD);
            assert_eq!(
                grad_density_threshold(),
                ndsnn_tensor::ops::grad::DEFAULT_GRAD_DENSITY_THRESHOLD
            );
        }

        #[test]
        fn grad_active_threshold_knob() {
            std::env::set_var(GRAD_ACTIVE_THRESHOLD, "0.01");
            assert_eq!(grad_active_threshold(), 0.01);
            // Negative and garbage both fall back: the membership test is
            // |φ'| > τ, so a negative τ would silently mean "everything".
            std::env::set_var(GRAD_ACTIVE_THRESHOLD, "-0.5");
            assert_eq!(
                grad_active_threshold(),
                ndsnn_tensor::ops::grad::DEFAULT_GRAD_ACTIVE_THRESHOLD
            );
            std::env::set_var(GRAD_ACTIVE_THRESHOLD, "inf");
            assert_eq!(
                grad_active_threshold(),
                ndsnn_tensor::ops::grad::DEFAULT_GRAD_ACTIVE_THRESHOLD
            );
            std::env::remove_var(GRAD_ACTIVE_THRESHOLD);
            assert_eq!(
                grad_active_threshold(),
                ndsnn_tensor::ops::grad::DEFAULT_GRAD_ACTIVE_THRESHOLD
            );
        }

        #[test]
        fn fault_policy_knob() {
            std::env::set_var(FAULT_POLICY, "rollback");
            assert_eq!(fault_policy(), FaultPolicy::RollbackAndDampen);
            std::env::set_var(FAULT_POLICY, "SKIP");
            assert_eq!(fault_policy(), FaultPolicy::SkipBatch);
            std::env::set_var(FAULT_POLICY, "whatever");
            assert_eq!(fault_policy(), FaultPolicy::Abort);
            std::env::remove_var(FAULT_POLICY);
            assert_eq!(fault_policy(), FaultPolicy::Abort);
        }

        #[test]
        fn infer_batch_knob() {
            std::env::set_var(INFER_BATCH, "32");
            assert_eq!(infer_batch(), 32);
            std::env::set_var(INFER_BATCH, "0");
            assert_eq!(infer_batch(), 1, "zero batch must clamp to 1");
            std::env::set_var(INFER_BATCH, "-4");
            assert_eq!(infer_batch(), DEFAULT_INFER_BATCH);
            std::env::remove_var(INFER_BATCH);
            assert_eq!(infer_batch(), DEFAULT_INFER_BATCH);
        }

        #[test]
        fn min_tile_work_knob() {
            use ndsnn_tensor::ops::tile::set_min_tile_work_override;
            // The env read is cached once per process (like NDSNN_THREADS),
            // so exercise the accessor through the test override rather than
            // racing other tests on the cached resolution.
            set_min_tile_work_override(Some(7));
            assert_eq!(min_tile_work(), 7);
            set_min_tile_work_override(Some(0));
            assert_eq!(min_tile_work(), 0, "zero forces tile-parallel dispatch");
            set_min_tile_work_override(None);
            assert_eq!(min_tile_work(), DEFAULT_MIN_TILE_WORK);
        }

        #[test]
        fn infer_queue_cap_knob() {
            std::env::set_var(INFER_QUEUE_CAP, "64");
            assert_eq!(infer_queue_cap(), 64);
            std::env::set_var(INFER_QUEUE_CAP, "0");
            assert_eq!(infer_queue_cap(), 1, "zero capacity must clamp to 1");
            std::env::set_var(INFER_QUEUE_CAP, "unbounded");
            assert_eq!(infer_queue_cap(), DEFAULT_INFER_QUEUE_CAP);
            std::env::remove_var(INFER_QUEUE_CAP);
            assert_eq!(infer_queue_cap(), DEFAULT_INFER_QUEUE_CAP);
        }

        #[test]
        fn infer_shed_policy_knob() {
            std::env::set_var(INFER_SHED_POLICY, " drop-oldest ");
            assert_eq!(infer_shed_policy_raw().as_deref(), Some("drop-oldest"));
            std::env::remove_var(INFER_SHED_POLICY);
            assert_eq!(infer_shed_policy_raw(), None);
        }

        #[test]
        fn infer_deadline_knob() {
            std::env::set_var(INFER_DEADLINE_US, "2500");
            assert_eq!(infer_deadline_us(), 2500);
            std::env::set_var(INFER_DEADLINE_US, "forever");
            assert_eq!(infer_deadline_us(), DEFAULT_INFER_DEADLINE_US);
            std::env::remove_var(INFER_DEADLINE_US);
            assert_eq!(infer_deadline_us(), DEFAULT_INFER_DEADLINE_US);
        }

        #[test]
        fn infer_drain_knob() {
            std::env::set_var(INFER_DRAIN_MS, "100");
            assert_eq!(infer_drain_ms(), 100);
            std::env::set_var(INFER_DRAIN_MS, "0");
            assert_eq!(infer_drain_ms(), 0, "zero drain is a valid policy");
            std::env::remove_var(INFER_DRAIN_MS);
            assert_eq!(infer_drain_ms(), DEFAULT_INFER_DRAIN_MS);
        }

        #[test]
        fn fleet_budget_bytes_knob() {
            std::env::set_var(FLEET_BUDGET_BYTES, "1048576");
            assert_eq!(fleet_budget_bytes(), 1_048_576);
            std::env::set_var(FLEET_BUDGET_BYTES, "0");
            assert_eq!(fleet_budget_bytes(), 0, "zero means unlimited");
            std::env::set_var(FLEET_BUDGET_BYTES, "a-lot");
            assert_eq!(fleet_budget_bytes(), DEFAULT_FLEET_BUDGET_BYTES);
            std::env::remove_var(FLEET_BUDGET_BYTES);
            assert_eq!(fleet_budget_bytes(), DEFAULT_FLEET_BUDGET_BYTES);
        }

        #[test]
        fn fleet_max_models_knob() {
            std::env::set_var(FLEET_MAX_MODELS, "8");
            assert_eq!(fleet_max_models(), 8);
            std::env::set_var(FLEET_MAX_MODELS, "0");
            assert_eq!(fleet_max_models(), 1, "zero models must clamp to 1");
            std::env::set_var(FLEET_MAX_MODELS, "-3");
            assert_eq!(fleet_max_models(), DEFAULT_FLEET_MAX_MODELS);
            std::env::remove_var(FLEET_MAX_MODELS);
            assert_eq!(fleet_max_models(), DEFAULT_FLEET_MAX_MODELS);
        }

        #[test]
        fn fleet_shard_threads_knob() {
            std::env::set_var(FLEET_SHARD_THREADS, "12");
            assert_eq!(fleet_shard_threads(), 12);
            std::env::set_var(FLEET_SHARD_THREADS, "0");
            assert_eq!(fleet_shard_threads(), 0, "zero means one per model");
            std::env::set_var(FLEET_SHARD_THREADS, "auto");
            assert_eq!(fleet_shard_threads(), DEFAULT_FLEET_SHARD_THREADS);
            std::env::remove_var(FLEET_SHARD_THREADS);
            assert_eq!(fleet_shard_threads(), DEFAULT_FLEET_SHARD_THREADS);
        }

        #[test]
        fn infer_max_wait_knob() {
            std::env::set_var(INFER_MAX_WAIT_US, "1000");
            assert_eq!(infer_max_wait_us(), 1000);
            std::env::set_var(INFER_MAX_WAIT_US, "0");
            assert_eq!(infer_max_wait_us(), 0, "zero wait is a valid policy");
            std::env::set_var(INFER_MAX_WAIT_US, "1.5");
            assert_eq!(infer_max_wait_us(), DEFAULT_INFER_MAX_WAIT_US);
            std::env::remove_var(INFER_MAX_WAIT_US);
            assert_eq!(infer_max_wait_us(), DEFAULT_INFER_MAX_WAIT_US);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(DatasetKind::Cifar10.label(), "CIFAR-10");
        assert_eq!(DatasetKind::TinyImageNet.num_classes(), 200);
        assert_eq!(DatasetKind::Cifar100.image_size(), 32);
        assert_eq!(
            MethodSpec::Ndsnn {
                initial_sparsity: 0.7,
                final_sparsity: 0.95
            }
            .label(),
            "NDSNN"
        );
    }

    #[test]
    fn final_sparsity_extraction() {
        assert_eq!(MethodSpec::Dense.final_sparsity(), 0.0);
        assert_eq!(MethodSpec::Set { sparsity: 0.9 }.final_sparsity(), 0.9);
        assert_eq!(
            MethodSpec::Lth {
                final_sparsity: 0.99,
                rounds: 5
            }
            .final_sparsity(),
            0.99
        );
    }
}
