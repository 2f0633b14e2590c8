//! Compiles a trained model into a frozen NDINF1 [`Artifact`].
//!
//! The compiler rebuilds the training network from its [`RunConfig`],
//! restores the checkpointed parameters, walks the structural description
//! ([`ndsnn_snn::describe`]) and lowers every layer into a frozen op:
//!
//! - masked Linear/Conv2d weights pack into CSR when their density falls
//!   below [`CompileOptions::density_threshold`], else stay dense;
//! - BatchNorm folds into a per-channel affine epilogue holding the running
//!   statistics and a precomputed `inv_std = 1/√(var+ε)` — the *same* f32
//!   expression the training layer's eval forward computes, so nothing is
//!   rounded differently (full value-folding into two constants would be);
//! - PLIF layers freeze their learned decay into a plain LIF op (bit-exact,
//!   see [`ndsnn_snn::describe::LayerDesc::Lif`]);
//! - training-only state (optimizer, masks, caches, exec plans) is dropped.
//!
//! Models the frozen executor cannot replay exactly are rejected up front:
//! Poisson encoding (consumes an RNG stream the artifact does not carry)
//! and any layer describing itself as `Opaque`.

use std::collections::BTreeMap;
use std::path::Path;

use ndsnn::checkpoint::{self, crc32};
use ndsnn::config::RunConfig;
use ndsnn::recovery::{decode_snapshot, RunSnapshot};
use ndsnn::trainer::build_network;
use ndsnn_snn::describe::LayerDesc;
use ndsnn_snn::encoder::Encoding;
use ndsnn_snn::layers::{Layer, ResetMode};
use ndsnn_tensor::{Csr, Tensor};

use crate::artifact::{Artifact, Manifest, Op, WeightStore};
use crate::error::{InferError, Result};

/// Knobs controlling how a model is lowered.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Weight-density threshold below which a layer's weight packs into
    /// CSR. Negative keeps everything dense; `>= 1.0` packs everything.
    pub density_threshold: f64,
    /// When set, a post-lowering pass int8-quantizes every layer the
    /// binary-input walk proves eligible (see
    /// [`crate::quant::quantize_artifact`]), producing an NDINF2 artifact.
    /// `None` keeps the pure-f32 NDINF1 output byte-for-byte unchanged.
    pub quantize: Option<crate::quant::QuantOptions>,
}

impl Default for CompileOptions {
    /// Defers to `NDSNN_DENSITY_THRESHOLD` (default 0.25), matching the
    /// training engine's own sparse-dispatch threshold; quantization
    /// follows `NDSNN_INFER_QUANT` (default off).
    fn default() -> Self {
        CompileOptions {
            density_threshold: ndsnn::config::env::density_threshold(),
            quantize: ndsnn::config::env::infer_quant().then(crate::quant::QuantOptions::default),
        }
    }
}

fn unsupported(msg: impl std::fmt::Display) -> InferError {
    InferError::Unsupported(msg.to_string())
}

/// Accumulates per-layer densities and the mask digest while lowering.
struct Lowering {
    threshold: f64,
    densities: Vec<(String, f64)>,
    digest: u64,
    first_conv_in: Option<usize>,
}

impl Lowering {
    fn pack_weight(&mut self, name: &str, weight: &Tensor) -> Result<WeightStore> {
        let nz = weight.as_slice().iter().filter(|&&v| v != 0.0).count();
        let density = nz as f64 / weight.len().max(1) as f64;
        self.densities.push((name.to_string(), density));
        // Digest the nonzero bitmap so two artifacts share `mask_digest`
        // iff their pruning masks agree layer for layer.
        let bitmap: Vec<u8> = weight
            .as_slice()
            .iter()
            .map(|&v| u8::from(v != 0.0))
            .collect();
        self.digest = self.digest.rotate_left(13) ^ u64::from(crc32(&bitmap));
        Ok(if density < self.threshold {
            WeightStore::Csr(Csr::from_weight(weight)?)
        } else {
            WeightStore::Dense(weight.clone())
        })
    }

    fn lower_into(&mut self, desc: &LayerDesc, out: &mut Vec<Op>) -> Result<()> {
        match desc {
            LayerDesc::Sequential { children, .. } => {
                for child in children {
                    self.lower_into(child, out)?;
                }
            }
            LayerDesc::Linear { name, weight, bias } => {
                if weight.rank() != 2 {
                    return Err(unsupported(format!("{name}: linear weight is not rank 2")));
                }
                let (of, inf) = (weight.dims()[0], weight.dims()[1]);
                let store = self.pack_weight(name, weight)?;
                out.push(Op::Linear {
                    name: name.clone(),
                    out_features: of,
                    in_features: inf,
                    weight: store,
                    bias: bias.clone(),
                });
            }
            LayerDesc::Conv2d {
                name,
                geometry,
                weight,
                bias,
            } => {
                if self.first_conv_in.is_none() {
                    self.first_conv_in = Some(geometry.in_channels);
                }
                let store = self.pack_weight(name, weight)?;
                out.push(Op::Conv2d {
                    name: name.clone(),
                    geometry: *geometry,
                    weight: store,
                    bias: bias.clone(),
                });
            }
            LayerDesc::BatchNorm {
                name,
                gamma,
                beta,
                running_mean,
                running_var,
                eps,
            } => {
                // Precompute inv_std with the exact expression the training
                // eval forward uses per channel; everything else is stored
                // verbatim, so the frozen epilogue is bit-identical.
                let inv_std: Vec<f32> = running_var
                    .as_slice()
                    .iter()
                    .map(|&var| 1.0 / (var + eps).sqrt())
                    .collect();
                out.push(Op::Affine {
                    name: name.clone(),
                    mean: running_mean.as_slice().to_vec(),
                    inv_std,
                    gamma: gamma.as_slice().to_vec(),
                    beta: beta.as_slice().to_vec(),
                });
            }
            LayerDesc::Lif { name, config } => {
                out.push(Op::Lif {
                    name: name.clone(),
                    alpha: config.alpha,
                    v_threshold: config.v_threshold,
                    hard_reset: matches!(config.reset, ResetMode::Hard),
                });
            }
            LayerDesc::AvgPool2d { name, kernel } => out.push(Op::AvgPool2d {
                name: name.clone(),
                kernel: *kernel,
            }),
            LayerDesc::MaxPool2d { name, kernel } => out.push(Op::MaxPool2d {
                name: name.clone(),
                kernel: *kernel,
            }),
            LayerDesc::Flatten { name } => out.push(Op::Flatten { name: name.clone() }),
            LayerDesc::GlobalAvgPool { name } => out.push(Op::GlobalAvgPool { name: name.clone() }),
            LayerDesc::Residual {
                name,
                main,
                shortcut,
                lif_out,
            } => {
                let mut m = Vec::new();
                for child in main {
                    self.lower_into(child, &mut m)?;
                }
                let mut s = Vec::new();
                for child in shortcut {
                    self.lower_into(child, &mut s)?;
                }
                let mut lo = Vec::new();
                self.lower_into(lif_out, &mut lo)?;
                if lo.len() != 1 {
                    return Err(unsupported(format!(
                        "{name}: residual output must lower to one op, got {}",
                        lo.len()
                    )));
                }
                out.push(Op::Residual {
                    name: name.clone(),
                    main: m,
                    shortcut: s,
                    lif_out: Box::new(lo.remove(0)),
                });
            }
            LayerDesc::Opaque { name } => {
                return Err(unsupported(format!(
                    "layer {name} does not support freezing (describe() returned Opaque)"
                )));
            }
        }
        Ok(())
    }
}

/// Lowers a structural description into frozen ops — the compiler's core,
/// exposed so tests can fold hand-built layer stacks (e.g. the BN-folding
/// property tests) without a full [`RunConfig`].
pub fn lower(desc: &LayerDesc, opts: &CompileOptions) -> Result<Vec<Op>> {
    let mut lowering = Lowering {
        threshold: opts.density_threshold,
        densities: Vec::new(),
        digest: 0,
        first_conv_in: None,
    };
    let mut ops = Vec::new();
    lowering.lower_into(desc, &mut ops)?;
    Ok(ops)
}

/// Compiles a parameter map (as produced by
/// [`ndsnn::checkpoint::snapshot_params`]) into a frozen artifact.
///
/// The network is rebuilt from `cfg` exactly as training builds it, the
/// parameters are restored (missing or shape-mismatched entries are
/// errors), and the layer stack is lowered in forward order.
pub fn compile(
    cfg: &RunConfig,
    params: &BTreeMap<String, Tensor>,
    opts: &CompileOptions,
) -> Result<Artifact> {
    if cfg.encoding != Encoding::Direct {
        return Err(unsupported(
            "only Direct encoding can be frozen: Poisson consumes an RNG stream \
             the artifact does not carry",
        ));
    }
    let mut net = build_network(cfg)?;
    checkpoint::restore_params_from_map(&mut net.layers, params)?;
    let desc = net.layers.describe();
    if let Some(name) = desc.find_opaque() {
        return Err(unsupported(format!(
            "layer {name} does not support freezing (describe() returned Opaque)"
        )));
    }

    let mut lowering = Lowering {
        threshold: opts.density_threshold,
        densities: Vec::new(),
        digest: 0,
        first_conv_in: None,
    };
    let mut ops = Vec::new();
    lowering.lower_into(&desc, &mut ops)?;
    if ops.is_empty() {
        return Err(unsupported("network lowered to zero ops"));
    }

    let config_json = ndsnn_metrics::json::to_string(cfg)
        .map_err(|e| unsupported(format!("config not serializable: {e}")))?;
    let art = Artifact {
        manifest: Manifest {
            arch: cfg.arch.label().to_string(),
            timesteps: cfg.timesteps,
            in_channels: lowering.first_conv_in.unwrap_or(3),
            image_size: cfg.image_size,
            num_classes: cfg.num_classes,
            mask_digest: lowering.digest,
            config_json,
            densities: lowering.densities,
        },
        ops,
    };
    match &opts.quantize {
        Some(qopts) => Ok(crate::quant::quantize_artifact(&art, qopts)?.0),
        None => Ok(art),
    }
}

/// Compiles a full training [`RunSnapshot`] (strips everything but the
/// parameters).
pub fn compile_snapshot(
    cfg: &RunConfig,
    snap: &RunSnapshot,
    opts: &CompileOptions,
) -> Result<Artifact> {
    compile(cfg, &snap.params, opts)
}

/// Loads the newest valid NDCKPT2 generation under `dir` and compiles it.
///
/// Returns [`InferError::InvalidArtifact`] when the directory holds no
/// loadable generation.
pub fn compile_from_checkpoint_dir(
    cfg: &RunConfig,
    dir: &Path,
    opts: &CompileOptions,
) -> Result<Artifact> {
    let (loaded, _skipped) = checkpoint::load_latest_valid(dir)
        .map_err(|e| InferError::Io(format!("{}: {e}", dir.display())))?;
    let (_step, entries) = loaded.ok_or_else(|| {
        InferError::InvalidArtifact(format!(
            "{}: no valid checkpoint generation to compile",
            dir.display()
        ))
    })?;
    let snap = decode_snapshot(&entries).map_err(|e| InferError::InvalidArtifact(e.to_string()))?;
    compile_snapshot(cfg, &snap, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsnn::config::{DatasetKind, MethodSpec};
    use ndsnn::profile::Profile;
    use ndsnn_snn::models::Architecture;

    fn tiny_cfg() -> RunConfig {
        let mut cfg = Profile::Smoke.run_config(
            Architecture::Lenet5,
            DatasetKind::Cifar10,
            MethodSpec::Dense,
        );
        cfg.timesteps = 2;
        cfg.image_size = cfg.image_size.max(ndsnn::trainer::min_image_size(cfg.arch));
        cfg
    }

    fn params_for(cfg: &RunConfig) -> BTreeMap<String, Tensor> {
        let mut net = build_network(cfg).unwrap();
        checkpoint::snapshot_params(&mut net.layers)
    }

    #[test]
    fn compile_lenet_produces_forward_order_ops() {
        let cfg = tiny_cfg();
        let art = compile(&cfg, &params_for(&cfg), &CompileOptions::default()).unwrap();
        assert_eq!(art.manifest.arch, "LeNet-5");
        assert_eq!(art.manifest.timesteps, 2);
        assert_eq!(art.manifest.num_classes, cfg.num_classes);
        assert_eq!(art.manifest.in_channels, 3);
        // Every weighted layer reported a density.
        assert!(!art.manifest.densities.is_empty());
        assert!(art
            .manifest
            .densities
            .iter()
            .all(|(_, d)| (0.0..=1.0).contains(d)));
        // Random dense init stays dense under the default threshold.
        assert!(art.ops.iter().all(|op| match op {
            Op::Linear { weight, .. } | Op::Conv2d { weight, .. } => !weight.is_sparse(),
            _ => true,
        }));
    }

    #[test]
    fn poisson_encoding_is_rejected() {
        let mut cfg = tiny_cfg();
        cfg.encoding = Encoding::Poisson;
        let params = params_for(&tiny_cfg());
        let err = compile(&cfg, &params, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, InferError::Unsupported(_)), "{err}");
    }

    #[test]
    fn sparse_weights_pack_to_csr_and_change_the_digest() {
        let cfg = tiny_cfg();
        let mut params = params_for(&cfg);
        let dense_art = compile(&cfg, &params, &CompileOptions::default()).unwrap();
        // Zero out 95% of every conv/linear weight.
        for (name, t) in params.iter_mut() {
            if name.ends_with(".weight") {
                let s = t.as_mut_slice();
                for (i, v) in s.iter_mut().enumerate() {
                    if i % 20 != 0 {
                        *v = 0.0;
                    }
                }
            }
        }
        let art = compile(&cfg, &params, &CompileOptions::default()).unwrap();
        assert!(art.ops.iter().any(|op| match op {
            Op::Linear { weight, .. } | Op::Conv2d { weight, .. } => weight.is_sparse(),
            _ => false,
        }));
        assert!(art.manifest.densities.iter().any(|(_, d)| *d < 0.25));
        assert_ne!(art.manifest.mask_digest, dense_art.manifest.mask_digest);
        // Artifact round-trips through its binary form.
        let back = Artifact::decode(&art.encode()).unwrap();
        assert_eq!(back, art);
    }

    #[test]
    fn resnet_lowering_produces_residual_ops() {
        let mut cfg = tiny_cfg();
        cfg.arch = Architecture::Resnet19;
        cfg.image_size = 8;
        cfg.width_mult = 0.0625;
        let art = compile(&cfg, &params_for(&cfg), &CompileOptions::default()).unwrap();
        assert!(art.ops.iter().any(|op| matches!(op, Op::Residual { .. })));
    }
}
