//! # ndsnn-sparse
//!
//! Sparse-training substrate for the NDSNN (DAC 2023) reproduction: the
//! paper's drop-and-grow framework and every baseline it compares against.
//!
//! - [`mask`]: binary masks and [`mask::MaskSet`] bookkeeping,
//! - [`distribution`]: ERK / uniform layer-wise sparsity allocation,
//! - [`schedule`]: the cubic decreasing-density schedule (paper Eq. 4), the
//!   cosine death-ratio schedule (Eq. 5), and update timing,
//! - [`kernels`]: `ArgDrop`/`ArgGrow` primitives from Algorithm 1,
//! - [`engine`]: the [`engine::SparseEngine`] trait all methods implement,
//! - [`dynamic`]: the shared drop-and-grow core,
//! - [`ndsnn`]: **the paper's contribution** — decreasing-density dynamic
//!   sparse training,
//! - [`set`], [`rigl`]: constant-sparsity dynamic baselines,
//! - [`lth`]: iterative magnitude pruning with rewinding,
//! - [`admm`]: train-prune-retrain via ADMM,
//! - [`csr`], [`memory`]: frozen-weight CSR kernels and the §III.D
//!   memory-footprint model.
//!
//! ## Example: run one NDSNN drop-and-grow round
//! ```
//! use ndsnn_sparse::engine::SparseEngine;
//! use ndsnn_sparse::ndsnn::{ndsnn_engine, NdsnnConfig};
//! use ndsnn_sparse::schedule::UpdateSchedule;
//! use ndsnn_snn::layers::{Layer, Linear, Sequential};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new("m")
//!     .with(Box::new(Linear::new("fc", 32, 32, false, &mut rng).unwrap()));
//! let update = UpdateSchedule::new(0, 10, 101).unwrap();
//! let mut engine = ndsnn_engine(NdsnnConfig::new(0.6, 0.95, update)).unwrap();
//! engine.init(&mut model).unwrap();
//! assert!((engine.sparsity() - 0.6).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod admm;
pub mod csr;
pub mod distribution;
pub mod dynamic;
pub mod engine;
mod error;
pub mod kernels;
pub mod lth;
pub mod mask;
pub mod memory;
pub mod ndsnn;
pub mod rigl;
pub mod schedule;
pub mod set;

pub use error::{Result, SparseError};
