//! # ndsnn-tensor
//!
//! Dense `f32` tensor substrate for the NDSNN (Neurogenesis Dynamics-inspired
//! Spiking Neural Network training acceleration, DAC 2023) reproduction.
//!
//! The paper's reference implementation runs on PyTorch tensors; this crate
//! provides the equivalent primitives in pure Rust:
//!
//! - [`Tensor`]: contiguous row-major `f32` storage with elementwise ops,
//!   reductions and (de)serialization,
//! - [`ops::matmul`]: cache-blocked matrix products (plain and transposed
//!   variants used by backprop),
//! - [`ops::conv`]: im2col-based 2-D convolution with full backward passes,
//! - [`ops::pool`]: average/max/global pooling with backward passes,
//! - [`ops::reduce`]: softmax, cross-entropy (with gradient), accuracy,
//! - [`Csr`]: the one compressed-sparse-row type behind every sparse
//!   operand (spike batches, gradient active sets, weight plans, packed and
//!   frozen weights),
//! - [`ops::topk`]: bounded-heap partial selection used by the drop-and-grow
//!   sparse training schedules,
//! - [`init`]: seeded Kaiming/Xavier/uniform/normal initializers,
//! - [`parallel`]: persistent worker-pool parallelism with deterministic
//!   chunking (honors `NDSNN_THREADS`; bit-identical at any thread count),
//! - [`reference`](mod@reference): deliberately naive matmul and conv
//!   kernels, the oracle the fast kernels are tested bit-for-bit against.
//!
//! Everything is deterministic given an RNG seed, which the experiment
//! harness relies on for reproducibility.
//!
//! ## Example
//! ```
//! use ndsnn_tensor::{Tensor, ops::matmul::matmul};
//! let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
//! let b = Tensor::from_vec([2, 2], vec![0.0, 1.0, 1.0, 0.0]).unwrap();
//! let c = matmul(&a, &b).unwrap();
//! assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
//! ```

#![warn(missing_docs)]

mod csr;
pub mod env;
mod error;
pub mod init;
pub mod ops;
pub mod parallel;
pub mod reference;
pub mod scratch;
pub mod serialize;
mod shape;
mod tensor;

pub use csr::Csr;
pub use error::{Result, TensorError};
pub use shape::Shape;
pub use tensor::Tensor;
