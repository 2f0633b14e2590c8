//! # ndsnn-metrics
//!
//! Metrics and reporting for the NDSNN (DAC 2023) reproduction:
//!
//! - [`meters`]: running loss/accuracy meters and per-epoch records,
//! - [`cost`]: the spike-rate-normalized training-cost model of paper §IV.C
//!   (`[R_s × density] / R_d`, summed over epochs) behind the headline
//!   "NDSNN costs 40.89% of LTH" numbers (Fig. 5),
//! - [`flops`]: sparse- and spike-aware FLOP accounting,
//! - [`table`]: aligned text tables / CSV for regenerating Tables I–III,
//! - [`quant`]: logit-drift / argmax-agreement scoring and per-layer
//!   artifact-size accounting for the int8 inference path,
//! - [`fleet`]: per-model latency rollups and the nearest-rank
//!   percentile the serving reports use,
//! - [`series`]: CSV + ASCII line charts for regenerating Figures 1/4/5.
//!
//! ## Example: compute a relative training cost
//! ```
//! use ndsnn_metrics::cost::{relative_training_cost, ActivityTrace};
//! let mut dense = ActivityTrace::new("Dense");
//! let mut nd = ActivityTrace::new("NDSNN");
//! for epoch in 0..10 {
//!     dense.push(0.25, 0.0);
//!     nd.push(0.22, 0.9); // sparse model, slightly lower spike rate
//! }
//! let c = relative_training_cost(&nd, &dense);
//! assert!(c < 0.12); // roughly 0.22·0.1/0.25
//! ```

#![warn(missing_docs)]

pub mod confusion;
pub mod cost;
pub mod fleet;
pub mod flops;
pub mod json;
pub mod meters;
pub mod quant;
pub mod series;
pub mod table;
