//! # ndsnn-snn
//!
//! Spiking-neural-network substrate for the NDSNN (DAC 2023) reproduction:
//! everything the paper's PyTorch + SpikingJelly stack provided, in pure
//! Rust.
//!
//! - [`surrogate`]: pseudo-derivatives for the Heaviside spike function,
//!   including the paper's `1/(1+π²x²)` (Eq. 3),
//! - [`layers`]: timestep-driven layers (LIF, Conv2d, Linear, BatchNorm,
//!   pooling, residual [`layers::BasicBlock`]) implementing BPTT (Eq. 2),
//! - [`models`]: VGG-16 / ResNet-19 / LeNet-5 builders with a width
//!   multiplier for scaled experiments,
//! - [`network`]: the [`network::SpikingNetwork`] driver (forward over `T`
//!   timesteps, time-averaged logit readout, BPTT backward),
//! - [`optim`]: SGD with momentum/weight decay + cosine annealing,
//! - [`encoder`]: direct (constant-current) and Poisson input coding.
//!
//! Spike activity is metered by every LIF layer ([`layers::SpikeStats`]), which
//! feeds the paper's spike-rate-normalized training-cost metric (§IV.C).
//!
//! ## Example: train a toy spiking MLP
//! ```
//! use ndsnn_snn::layers::{LifConfig, LifLayer, Linear, Sequential};
//! use ndsnn_snn::network::SpikingNetwork;
//! use ndsnn_snn::encoder::Encoding;
//! use ndsnn_snn::optim::{Sgd, SgdConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let layers = Sequential::new("mlp")
//!     .with(Box::new(Linear::new("fc1", 4, 16, true, &mut rng).unwrap()))
//!     .with(Box::new(LifLayer::new("lif", LifConfig::default()).unwrap()))
//!     .with(Box::new(Linear::new("fc2", 16, 2, true, &mut rng).unwrap()));
//! let mut net = SpikingNetwork::new(layers, 4, Encoding::Direct, 0).unwrap();
//! let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 0.0 });
//! let x = ndsnn_tensor::init::uniform([8, 4], 0.0, 1.0, &mut rng);
//! let labels = vec![0, 1, 0, 1, 0, 1, 0, 1];
//! let stats = net.train_batch(&x, &labels).unwrap();
//! opt.step(&mut net.layers).unwrap();
//! assert!(stats.loss.is_finite());
//! ```

#![warn(missing_docs)]

pub mod describe;
pub mod encoder;
mod error;
pub mod layers;
pub mod models;
pub mod network;
pub mod optim;
mod param;
pub mod surrogate;

pub use error::{Result, SnnError};
pub use param::{Param, ParamKind};
