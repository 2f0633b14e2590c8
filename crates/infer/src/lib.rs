//! Frozen-model sparse inference for the NDSNN reproduction.
//!
//! Training produces checkpoints full of state that serving never needs:
//! optimizer velocity, growth/prune bookkeeping, activation caches, RNG
//! streams. This crate closes the train→serve gap in three pieces:
//!
//! - [`compile`](mod@compile) — rebuilds the trained network from its
//!   [`ndsnn::config::RunConfig`] + parameter snapshot, folds BatchNorm
//!   into frozen per-channel affine epilogues, packs masked weights into
//!   CSR ([`ndsnn_tensor::Csr`], run by the [`ndsnn_sparse::csr`] kernels)
//!   below a density threshold, and emits a
//!   checksummed **NDINF1** [`artifact::Artifact`];
//! - [`exec`] — a forward-only [`exec::Executor`] that replays the frozen
//!   graph **bit-identically** to the training graph's eval forward (same
//!   kernels or loops with identical accumulation order), with preallocated
//!   membrane state and per-op latency counters;
//! - [`serve`] — a supervised serving control plane ([`serve::Server`]):
//!   one dispatcher thread owns the executor, coalesces concurrent
//!   requests under a max-batch/max-wait [`serve::BatchPolicy`], and wraps
//!   the hot path in a fault-tolerant admission layer — bounded queue with
//!   [`serve::ShedPolicy`] load shedding, per-request deadlines, NaN/Inf
//!   input rejection, `catch_unwind` executor supervision with automatic
//!   rebuild from the frozen artifact, and bounded drain on shutdown.
//!   Every admitted request gets exactly one typed reply; batching and
//!   executor restarts never change any request's bits. A seeded
//!   [`serve::ServeFaultPlan`] drives deterministic chaos tests.
//! - [`registry`] / [`fleet`] / [`router`] — the multi-model layer: a
//!   [`registry::ModelRegistry`] holds many artifacts resident as shared
//!   `Arc`s (content-digest deduplicated, byte-budgeted, LRU pin/evict);
//!   a [`fleet::Fleet`] carves a worker budget into per-model [`serve`]
//!   shards by popularity weight so each model degrades independently;
//!   a [`router::Router`] admits requests by model name, answering
//!   unknown names synchronously so they never touch any shard.
//!
//! The bit-identity claim is load-bearing: it makes the artifact a drop-in
//! replacement for training-graph evaluation (accuracy numbers carry over
//! exactly) and is pinned by the `parity` integration tests across
//! `NDSNN_THREADS` settings.

#![warn(missing_docs)]

pub mod artifact;
pub mod compile;
pub mod error;
pub mod exec;
pub mod fleet;
pub mod quant;
pub mod registry;
pub mod router;
pub mod serve;

pub use artifact::{store_encoded_bytes, Artifact, Manifest, Op, WeightStore};
pub use compile::{compile, compile_from_checkpoint_dir, compile_snapshot, lower, CompileOptions};
pub use error::{InferError, Result};
pub use exec::Executor;
pub use fleet::{assign_workers, Fleet, FleetModel, FleetOptions};
pub use quant::{
    quantize_artifact, IndexEncoding, LayerQuantRow, QuantOptions, QuantWeight,
    DEFAULT_QUANT_MAX_REL_ERROR,
};
pub use registry::{content_digest, ModelInfo, ModelRegistry, RegistryOptions};
pub use router::{Router, RouterModelStats, RouterStats};
pub use serve::{
    BatchPolicy, HealthState, InferReply, ServeFaultPlan, ServeOptions, ServeStats, Server,
    ShedPolicy,
};
