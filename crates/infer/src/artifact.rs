//! The NDINF1/NDINF2 frozen-model artifact formats.
//!
//! An artifact is a checksummed NDCKPT2 blob container
//! ([`ndsnn::checkpoint::encode_blobs`]) holding two entries:
//!
//! - `manifest` — format magic + version, architecture label, timesteps,
//!   input geometry, the training config's JSON fingerprint, a digest of the
//!   weight masks, and per-layer weight densities;
//! - `graph` — the frozen op list, in forward order, with weights packed
//!   dense or CSR and BatchNorm folded into per-channel affine epilogues
//!   (running statistics + precomputed `1/√(var+ε)`).
//!
//! Every scalar goes through the bit-exact [`ndsnn::recovery::BlobWriter`]
//! codec, so a decoded artifact reproduces the compiler's output bit for
//! bit; both container and blob layers treat input as hostile (truncation,
//! bad op codes, malformed CSR and checksum mismatches are errors, never
//! panics).
//!
//! **Versioning is content-driven.** An artifact whose every weight is f32
//! encodes as NDINF1 version 1, byte for byte what pre-quantization builds
//! produced (pinned by the `ndinf1_bytes_stable` property test). Only when
//! at least one op carries a [`WeightStore::QuantCsr`] weight does the
//! manifest write the `NDINF2` magic and version 2 — and a version-1
//! artifact smuggling the quantized store kind is a decode error, so old
//! readers can never mis-parse new sections silently.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

use ndsnn::checkpoint::{decode_blobs, encode_blobs, write_atomic};
use ndsnn::recovery::{BlobReader, BlobWriter};
use ndsnn_tensor::ops::conv::Conv2dGeometry;
use ndsnn_tensor::{Csr, Tensor};

use crate::error::{InferError, Result};
use crate::quant::{self, IndexEncoding, QuantWeight};

/// Magic string opening the manifest blob (all-f32 artifacts).
pub const NDINF_MAGIC: &str = "NDINF1";
/// Version written alongside [`NDINF_MAGIC`].
pub const NDINF_VERSION: u64 = 1;
/// Magic string for artifacts carrying at least one quantized weight.
pub const NDINF2_MAGIC: &str = "NDINF2";
/// Version written alongside [`NDINF2_MAGIC`].
pub const NDINF2_VERSION: u64 = 2;

/// Frozen weight storage: dense below the sparsity worth packing, CSR
/// above, or per-channel int8 CSR for quantized (NDINF2) layers.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightStore {
    /// Dense tensor in the layer's native shape (`(Out, In)` linear,
    /// `(F, C, KH, KW)` conv).
    Dense(Tensor),
    /// CSR over the 2-D view (`Out × In` linear, `F × (C·KH·KW)` conv).
    Csr(CsrWeight),
    /// Per-channel symmetric int8 CSR over the same 2-D view, with a
    /// density-selected compressed index encoding on disk.
    QuantCsr(QuantWeight),
}

/// A frozen f32 weight in CSR over its 2-D kernel view. A convolution
/// reads it through its column view ([`Csr::column_view`]), built on first
/// use and kept with the weight, so every executor over one artifact — a
/// serving worker, its restarts, a direct check — shares one copy.
#[derive(Debug, Clone)]
pub struct CsrWeight {
    csr: Csr<f32>,
    cols: OnceLock<(Csr, Vec<f32>)>,
}

/// Equal weights: the column view is derived from the CSR.
impl PartialEq for CsrWeight {
    fn eq(&self, other: &Self) -> bool {
        self.csr == other.csr
    }
}

impl From<Csr<f32>> for CsrWeight {
    fn from(csr: Csr<f32>) -> Self {
        CsrWeight {
            csr,
            cols: OnceLock::new(),
        }
    }
}

impl CsrWeight {
    /// The weight over the 2-D kernel view.
    pub fn csr(&self) -> &Csr<f32> {
        &self.csr
    }

    /// The column view and its values, built once per weight.
    pub fn column_view(&self) -> (&Csr, &[f32]) {
        let (cols, vals) = self.cols.get_or_init(|| self.csr.column_view());
        (cols, vals)
    }
}

impl WeightStore {
    /// Fraction of nonzero weights in `[0, 1]`.
    pub fn density(&self) -> f64 {
        match self {
            WeightStore::Dense(t) => {
                let nz = t.as_slice().iter().filter(|&&v| v != 0.0).count();
                nz as f64 / t.len().max(1) as f64
            }
            WeightStore::Csr(m) => m.csr().density(),
            WeightStore::QuantCsr(q) => q.csr().density(),
        }
    }

    /// True when packed (f32 or int8) CSR.
    pub fn is_sparse(&self) -> bool {
        matches!(self, WeightStore::Csr(_) | WeightStore::QuantCsr(_))
    }

    /// True when the weight is int8-quantized.
    pub fn is_quantized(&self) -> bool {
        matches!(self, WeightStore::QuantCsr(_))
    }
}

/// One frozen operation of the inference graph, in forward order.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `y = x·Wᵀ (+ b)` per timestep.
    Linear {
        /// Layer name (matches the training graph).
        name: String,
        /// Output feature count (CSR rows).
        out_features: usize,
        /// Input feature count (CSR cols).
        in_features: usize,
        /// Frozen weight.
        weight: WeightStore,
        /// Optional bias of length `out_features`.
        bias: Option<Tensor>,
    },
    /// 2-D convolution per timestep.
    Conv2d {
        /// Layer name.
        name: String,
        /// Convolution geometry.
        geometry: Conv2dGeometry,
        /// Frozen weight (dense rank-4 or CSR over `F × (C·KH·KW)`).
        weight: WeightStore,
        /// Optional bias of length `out_channels`.
        bias: Option<Tensor>,
    },
    /// Folded BatchNorm: per channel `out = γ·(x − μ)·inv_std + β`, with
    /// `inv_std = 1/√(var + ε)` precomputed at compile time by the exact
    /// expression the training graph's eval forward uses.
    Affine {
        /// Source BatchNorm layer name.
        name: String,
        /// Frozen running mean, one per channel.
        mean: Vec<f32>,
        /// Precomputed `1/√(var + ε)`, one per channel.
        inv_std: Vec<f32>,
        /// Scale γ, one per channel.
        gamma: Vec<f32>,
        /// Shift β, one per channel.
        beta: Vec<f32>,
    },
    /// LIF membrane update + spike emission (PLIF layers freeze their
    /// learned decay into `alpha` at compile time — bit-exact, see
    /// `ndsnn_snn::describe`).
    Lif {
        /// Layer name.
        name: String,
        /// Membrane decay α.
        alpha: f32,
        /// Firing threshold ϑ.
        v_threshold: f32,
        /// True for the zeroing ("hard") reset; false for subtractive.
        hard_reset: bool,
    },
    /// Non-overlapping `k × k` average pooling.
    AvgPool2d {
        /// Layer name.
        name: String,
        /// Kernel edge (stride equals kernel).
        kernel: usize,
    },
    /// Non-overlapping `k × k` max pooling.
    MaxPool2d {
        /// Layer name.
        name: String,
        /// Kernel edge (stride equals kernel).
        kernel: usize,
    },
    /// `(B, …) → (B, prod)` reshape.
    Flatten {
        /// Layer name.
        name: String,
    },
    /// `(B, C, H, W) → (B, C)` spatial mean.
    GlobalAvgPool {
        /// Layer name.
        name: String,
    },
    /// A residual basic block: `lif_out(main(x) + shortcut(x))`, with
    /// `shortcut` empty meaning identity.
    Residual {
        /// Block name.
        name: String,
        /// Main path (conv1 → bn-affine1 → lif1 → conv2 → bn-affine2).
        main: Vec<Op>,
        /// Downsample path (conv → bn-affine), or empty for identity.
        shortcut: Vec<Op>,
        /// Output spike layer applied after the add.
        lif_out: Box<Op>,
    },
}

impl Op {
    /// The op's layer name.
    pub fn name(&self) -> &str {
        match self {
            Op::Linear { name, .. }
            | Op::Conv2d { name, .. }
            | Op::Affine { name, .. }
            | Op::Lif { name, .. }
            | Op::AvgPool2d { name, .. }
            | Op::MaxPool2d { name, .. }
            | Op::Flatten { name }
            | Op::GlobalAvgPool { name }
            | Op::Residual { name, .. } => name,
        }
    }
}

/// Artifact metadata: what the graph computes and where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Architecture label (`VGG-16`, `ResNet-19`, `LeNet-5`).
    pub arch: String,
    /// Simulation timesteps `T` the logits are averaged over.
    pub timesteps: usize,
    /// Input channel count.
    pub in_channels: usize,
    /// Input image edge length.
    pub image_size: usize,
    /// Output class count.
    pub num_classes: usize,
    /// Digest folding the CRC32 of every weight's nonzero bitmap, in
    /// forward order — two artifacts share it iff their masks agree.
    pub mask_digest: u64,
    /// JSON fingerprint of the training [`ndsnn::config::RunConfig`]
    /// (provenance/display only; the executor never parses it).
    pub config_json: String,
    /// Per-weighted-layer `(name, density)` in forward order.
    pub densities: Vec<(String, f64)>,
}

/// A frozen, self-contained inference model.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Metadata.
    pub manifest: Manifest,
    /// The op list, in forward order.
    pub ops: Vec<Op>,
}

fn bad(msg: impl std::fmt::Display) -> InferError {
    InferError::InvalidArtifact(msg.to_string())
}

fn encode_f32s(w: &mut BlobWriter, vs: &[f32]) {
    w.put_usize(vs.len());
    for &v in vs {
        w.put_f32(v);
    }
}

fn decode_f32s(r: &mut BlobReader<'_>) -> Result<Vec<f32>> {
    let n = r.get_count(4).map_err(bad)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_f32().map_err(bad)?);
    }
    Ok(out)
}

fn encode_store(w: &mut BlobWriter, store: &WeightStore) {
    match store {
        WeightStore::Dense(t) => {
            w.put_u8(0);
            w.put_tensor(t);
        }
        WeightStore::Csr(m) => {
            let m = m.csr();
            w.put_u8(1);
            let (rows, cols) = m.dims();
            w.put_usize(rows);
            w.put_usize(cols);
            encode_f32s(w, m.val());
            w.put_usize(m.idx().len());
            for &c in m.idx() {
                w.put_u32(c);
            }
            w.put_usize(m.row_ptr().len());
            for &p in m.row_ptr() {
                w.put_u32(p);
            }
        }
        WeightStore::QuantCsr(q) => {
            w.put_u8(2);
            let (rows, cols) = q.csr().dims();
            let (encoding, indices) = q.encode_indices();
            w.put_usize(rows);
            w.put_usize(cols);
            w.put_u8(encoding.tag());
            encode_f32s(w, q.scales());
            // int8 values travel as their two's-complement byte patterns;
            // row_ptr is never serialized — it re-derives from the index
            // stream, so the two can't disagree.
            let bytes: Vec<u8> = q.csr().val().iter().map(|&v| v as u8).collect();
            w.put_bytes(&bytes);
            w.put_bytes(indices);
        }
    }
}

/// Exact serialized byte length of one weight store — the honest unit the
/// per-layer size tables and the ≥4× compression gate are measured in.
pub fn store_encoded_bytes(store: &WeightStore) -> usize {
    let mut w = BlobWriter::new();
    encode_store(&mut w, store);
    w.finish().len()
}

/// `quant_ok` is true only for version-2 manifests: a version-1 artifact
/// carrying the quantized store kind is corrupt by definition.
fn decode_store(r: &mut BlobReader<'_>, quant_ok: bool) -> Result<WeightStore> {
    match r.get_u8().map_err(bad)? {
        0 => Ok(WeightStore::Dense(r.get_tensor().map_err(bad)?)),
        1 => {
            let rows = r.get_usize().map_err(bad)?;
            let cols = r.get_usize().map_err(bad)?;
            let values = decode_f32s(r)?;
            let ni = r.get_count(4).map_err(bad)?;
            let mut col_indices = Vec::with_capacity(ni);
            for _ in 0..ni {
                col_indices.push(r.get_u32().map_err(bad)?);
            }
            let np = r.get_count(4).map_err(bad)?;
            let mut row_ptr = Vec::with_capacity(np);
            for _ in 0..np {
                row_ptr.push(r.get_u32().map_err(bad)?);
            }
            // from_parts re-validates every CSR invariant, so a corrupted
            // artifact cannot smuggle an out-of-bounds index to the kernels.
            Ok(WeightStore::Csr(
                Csr::from_parts(rows, cols, row_ptr, col_indices, values)
                    .map_err(bad)?
                    .into(),
            ))
        }
        2 if quant_ok => {
            let rows = r.get_usize().map_err(bad)?;
            let cols = r.get_usize().map_err(bad)?;
            rows.checked_mul(cols)
                .ok_or_else(|| bad("quant weight grid overflows"))?;
            let encoding = IndexEncoding::from_tag(r.get_u8().map_err(bad)?)?;
            let scales = decode_f32s(r)?;
            let values: Vec<i8> = r
                .get_bytes()
                .map_err(bad)?
                .into_iter()
                .map(|b| b as i8)
                .collect();
            let stream = r.get_bytes().map_err(bad)?;
            let (row_ptr, col_indices) =
                quant::decode_index_stream(encoding, rows, cols, values.len(), &stream)?;
            // Every invariant the integer kernels rely on is re-validated:
            // range and ascent by the CSR, scale/occupancy agreement and the
            // row cap by the quantized weight.
            let csr = Csr::from_parts(rows, cols, row_ptr, col_indices, values).map_err(bad)?;
            Ok(WeightStore::QuantCsr(QuantWeight::new(csr, scales)?))
        }
        2 => Err(bad("quantized weight store in a version-1 artifact")),
        k => Err(bad(format!("unknown weight storage kind {k}"))),
    }
}

fn encode_bias(w: &mut BlobWriter, bias: &Option<Tensor>) {
    match bias {
        Some(t) => {
            w.put_u8(1);
            w.put_tensor(t);
        }
        None => w.put_u8(0),
    }
}

/// Decodes an optional bias of `width` elements (the op's output features or
/// channels). The executor adds it per output row, so any other length
/// would index past its end or silently drop entries.
fn decode_bias(r: &mut BlobReader<'_>, width: usize) -> Result<Option<Tensor>> {
    match r.get_u8().map_err(bad)? {
        0 => Ok(None),
        1 => {
            let bias = r.get_tensor().map_err(bad)?;
            if bias.len() != width {
                return Err(bad(format!(
                    "bias of length {} for {width} outputs",
                    bias.len()
                )));
            }
            Ok(Some(bias))
        }
        k => Err(bad(format!("bad bias flag {k}"))),
    }
}

fn encode_op(w: &mut BlobWriter, op: &Op) {
    match op {
        Op::Linear {
            name,
            out_features,
            in_features,
            weight,
            bias,
        } => {
            w.put_u8(0);
            w.put_str(name);
            w.put_usize(*out_features);
            w.put_usize(*in_features);
            encode_store(w, weight);
            encode_bias(w, bias);
        }
        Op::Conv2d {
            name,
            geometry,
            weight,
            bias,
        } => {
            w.put_u8(1);
            w.put_str(name);
            w.put_usize(geometry.in_channels);
            w.put_usize(geometry.out_channels);
            w.put_usize(geometry.kernel_h);
            w.put_usize(geometry.kernel_w);
            w.put_usize(geometry.stride);
            w.put_usize(geometry.padding);
            encode_store(w, weight);
            encode_bias(w, bias);
        }
        Op::Affine {
            name,
            mean,
            inv_std,
            gamma,
            beta,
        } => {
            w.put_u8(2);
            w.put_str(name);
            encode_f32s(w, mean);
            encode_f32s(w, inv_std);
            encode_f32s(w, gamma);
            encode_f32s(w, beta);
        }
        Op::Lif {
            name,
            alpha,
            v_threshold,
            hard_reset,
        } => {
            w.put_u8(3);
            w.put_str(name);
            w.put_f32(*alpha);
            w.put_f32(*v_threshold);
            w.put_u8(u8::from(*hard_reset));
        }
        Op::AvgPool2d { name, kernel } => {
            w.put_u8(4);
            w.put_str(name);
            w.put_usize(*kernel);
        }
        Op::MaxPool2d { name, kernel } => {
            w.put_u8(5);
            w.put_str(name);
            w.put_usize(*kernel);
        }
        Op::Flatten { name } => {
            w.put_u8(6);
            w.put_str(name);
        }
        Op::GlobalAvgPool { name } => {
            w.put_u8(7);
            w.put_str(name);
        }
        Op::Residual {
            name,
            main,
            shortcut,
            lif_out,
        } => {
            w.put_u8(8);
            w.put_str(name);
            w.put_usize(main.len());
            for op in main {
                encode_op(w, op);
            }
            w.put_usize(shortcut.len());
            for op in shortcut {
                encode_op(w, op);
            }
            encode_op(w, lif_out);
        }
    }
}

/// Decodes one op; `depth` bounds Residual nesting so a malicious artifact
/// cannot trigger unbounded recursion. `quant_ok` gates the quantized store
/// kind to version-2 manifests.
fn decode_op(r: &mut BlobReader<'_>, depth: usize, quant_ok: bool) -> Result<Op> {
    if depth > 4 {
        return Err(bad("op nesting too deep"));
    }
    let code = r.get_u8().map_err(bad)?;
    let name = r.get_str().map_err(bad)?;
    Ok(match code {
        0 => {
            let out_features = r.get_usize().map_err(bad)?;
            Op::Linear {
                name,
                out_features,
                in_features: r.get_usize().map_err(bad)?,
                weight: decode_store(r, quant_ok)?,
                bias: decode_bias(r, out_features)?,
            }
        }
        1 => {
            let in_channels = r.get_usize().map_err(bad)?;
            let out_channels = r.get_usize().map_err(bad)?;
            let kernel_h = r.get_usize().map_err(bad)?;
            let kernel_w = r.get_usize().map_err(bad)?;
            let stride = r.get_usize().map_err(bad)?;
            let padding = r.get_usize().map_err(bad)?;
            Op::Conv2d {
                name,
                geometry: Conv2dGeometry {
                    in_channels,
                    out_channels,
                    kernel_h,
                    kernel_w,
                    stride,
                    padding,
                },
                weight: decode_store(r, quant_ok)?,
                bias: decode_bias(r, out_channels)?,
            }
        }
        2 => Op::Affine {
            name,
            mean: decode_f32s(r)?,
            inv_std: decode_f32s(r)?,
            gamma: decode_f32s(r)?,
            beta: decode_f32s(r)?,
        },
        3 => Op::Lif {
            name,
            alpha: r.get_f32().map_err(bad)?,
            v_threshold: r.get_f32().map_err(bad)?,
            hard_reset: r.get_u8().map_err(bad)? != 0,
        },
        4 => Op::AvgPool2d {
            name,
            kernel: r.get_usize().map_err(bad)?,
        },
        5 => Op::MaxPool2d {
            name,
            kernel: r.get_usize().map_err(bad)?,
        },
        6 => Op::Flatten { name },
        7 => Op::GlobalAvgPool { name },
        8 => {
            let nm = r.get_count(2).map_err(bad)?;
            let mut main = Vec::with_capacity(nm);
            for _ in 0..nm {
                main.push(decode_op(r, depth + 1, quant_ok)?);
            }
            let ns = r.get_count(2).map_err(bad)?;
            let mut shortcut = Vec::with_capacity(ns);
            for _ in 0..ns {
                shortcut.push(decode_op(r, depth + 1, quant_ok)?);
            }
            let lif_out = Box::new(decode_op(r, depth + 1, quant_ok)?);
            Op::Residual {
                name,
                main,
                shortcut,
                lif_out,
            }
        }
        k => return Err(bad(format!("unknown op code {k}"))),
    })
}

/// The structural binary-input walk: for every op in pre-order (a
/// `Residual` before its main, shortcut and output children — the order of
/// the executor's per-op counters), whether its input is certainly 0/1
/// spikes. Raw input images are not; `Lif` output is; `MaxPool2d` and
/// `Flatten` preserve binariness; `AvgPool2d`, `GlobalAvgPool`, `Affine`
/// and weighted layers destroy it; a `Residual` block's output is its
/// `lif_out` spike layer's. The quantizer quantizes only the layers it
/// marks, and the executor runs their sparse convolutions on the spike
/// walk.
pub(crate) fn binary_inputs(ops: &[Op]) -> Vec<bool> {
    fn walk(ops: &[Op], mut binary: bool, out: &mut Vec<bool>) -> bool {
        for op in ops {
            out.push(binary);
            binary = match op {
                Op::Lif { .. } => true,
                Op::MaxPool2d { .. } | Op::Flatten { .. } => binary,
                Op::Residual {
                    main,
                    shortcut,
                    lif_out,
                    ..
                } => {
                    walk(main, binary, out);
                    walk(shortcut, binary, out);
                    // The add of main + shortcut is not binary; the block's
                    // output is whatever its spike layer emits.
                    walk(std::slice::from_ref(lif_out), false, out)
                }
                _ => false,
            };
        }
        binary
    }
    let mut out = Vec::new();
    walk(ops, false, &mut out);
    out
}

/// Whether an op (or any of a Residual's children) carries an int8 weight.
fn op_has_quant(op: &Op) -> bool {
    match op {
        Op::Linear { weight, .. } | Op::Conv2d { weight, .. } => weight.is_quantized(),
        Op::Residual {
            main,
            shortcut,
            lif_out,
            ..
        } => {
            main.iter().any(op_has_quant)
                || shortcut.iter().any(op_has_quant)
                || op_has_quant(lif_out)
        }
        _ => false,
    }
}

impl Artifact {
    /// True when any op carries an int8-quantized weight — the condition
    /// that switches serialization to NDINF2.
    pub fn is_quantized(&self) -> bool {
        self.ops.iter().any(op_has_quant)
    }

    /// Serializes the artifact into NDINF1 or NDINF2 bytes (an NDCKPT2
    /// container, so every entry carries a CRC32). All-f32 artifacts write
    /// version 1, byte for byte what pre-quantization builds produced;
    /// artifacts with any quantized weight write the NDINF2 magic and
    /// version 2.
    pub fn encode(&self) -> Vec<u8> {
        let m = &self.manifest;
        let mut mw = BlobWriter::new();
        if self.is_quantized() {
            mw.put_str(NDINF2_MAGIC);
            mw.put_u64(NDINF2_VERSION);
        } else {
            mw.put_str(NDINF_MAGIC);
            mw.put_u64(NDINF_VERSION);
        }
        mw.put_str(&m.arch);
        mw.put_usize(m.timesteps);
        mw.put_usize(m.in_channels);
        mw.put_usize(m.image_size);
        mw.put_usize(m.num_classes);
        mw.put_u64(m.mask_digest);
        mw.put_str(&m.config_json);
        mw.put_usize(m.densities.len());
        for (name, d) in &m.densities {
            mw.put_str(name);
            mw.put_f64(*d);
        }

        let mut gw = BlobWriter::new();
        gw.put_usize(self.ops.len());
        for op in &self.ops {
            encode_op(&mut gw, op);
        }

        let mut entries = BTreeMap::new();
        entries.insert("manifest".to_string(), mw.finish());
        entries.insert("graph".to_string(), gw.finish());
        encode_blobs(&entries)
    }

    /// Decodes NDINF1/NDINF2 bytes, verifying container checksums, the
    /// manifest magic/version pairing and every structural invariant of the
    /// graph (quantized weight sections are only legal under version 2).
    pub fn decode(data: &[u8]) -> Result<Artifact> {
        let entries = decode_blobs(data).map_err(bad)?;
        let blob = |name: &str| -> Result<&Vec<u8>> {
            entries
                .get(name)
                .ok_or_else(|| bad(format!("missing entry {name}")))
        };

        let mut mr = BlobReader::new(blob("manifest")?);
        let magic = mr.get_str().map_err(bad)?;
        let version = mr.get_u64().map_err(bad)?;
        match (magic.as_str(), version) {
            (NDINF_MAGIC, NDINF_VERSION) | (NDINF2_MAGIC, NDINF2_VERSION) => {}
            _ => {
                return Err(bad(format!(
                    "unsupported artifact magic/version {magic:?} v{version}"
                )))
            }
        }
        let quant_ok = version >= NDINF2_VERSION;
        let arch = mr.get_str().map_err(bad)?;
        let timesteps = mr.get_usize().map_err(bad)?;
        let in_channels = mr.get_usize().map_err(bad)?;
        let image_size = mr.get_usize().map_err(bad)?;
        let num_classes = mr.get_usize().map_err(bad)?;
        let mask_digest = mr.get_u64().map_err(bad)?;
        let config_json = mr.get_str().map_err(bad)?;
        let nd = mr.get_count(9).map_err(bad)?;
        let mut densities = Vec::with_capacity(nd);
        for _ in 0..nd {
            let name = mr.get_str().map_err(bad)?;
            let d = mr.get_f64().map_err(bad)?;
            densities.push((name, d));
        }
        mr.finish().map_err(bad)?;
        if timesteps == 0 {
            return Err(bad("timesteps must be >= 1"));
        }

        let mut gr = BlobReader::new(blob("graph")?);
        let nops = gr.get_count(2).map_err(bad)?;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            ops.push(decode_op(&mut gr, 0, quant_ok)?);
        }
        gr.finish().map_err(bad)?;

        Ok(Artifact {
            manifest: Manifest {
                arch,
                timesteps,
                in_channels,
                image_size,
                num_classes,
                mask_digest,
                config_json,
                densities,
            },
            ops,
        })
    }

    /// Writes the artifact to `path` atomically (temp + fsync + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        write_atomic(path.as_ref(), &self.encode()).map_err(|e| InferError::Io(e.to_string()))
    }

    /// Reads and decodes an artifact from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Artifact> {
        let data = std::fs::read(path.as_ref()).map_err(|e| InferError::Io(e.to_string()))?;
        Artifact::decode(&data)
    }

    /// Flat input length one sample must have (`C·H·W`).
    pub fn sample_len(&self) -> usize {
        self.manifest.in_channels * self.manifest.image_size * self.manifest.image_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifact() -> Artifact {
        let w = Tensor::from_vec([2, 4], vec![0.5, 0.0, -1.5, 0.0, 0.0, 2.0, 0.0, 0.25]).unwrap();
        let conv_w = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 0.0, 0.0, -2.0]).unwrap();
        Artifact {
            manifest: Manifest {
                arch: "VGG-16".to_string(),
                timesteps: 3,
                in_channels: 1,
                image_size: 4,
                num_classes: 2,
                mask_digest: 0xDEAD_BEEF,
                config_json: "{\"seed\":7}".to_string(),
                densities: vec![("conv".to_string(), 0.5), ("fc".to_string(), 0.5)],
            },
            ops: vec![
                Op::Conv2d {
                    name: "conv".to_string(),
                    geometry: Conv2dGeometry {
                        in_channels: 1,
                        out_channels: 1,
                        kernel_h: 2,
                        kernel_w: 2,
                        stride: 1,
                        padding: 0,
                    },
                    weight: WeightStore::Csr(Csr::from_weight(&conv_w).unwrap().into()),
                    bias: None,
                },
                Op::Affine {
                    name: "bn".to_string(),
                    mean: vec![0.5],
                    inv_std: vec![2.0],
                    gamma: vec![1.5],
                    beta: vec![-0.25],
                },
                Op::Lif {
                    name: "lif".to_string(),
                    alpha: 0.5,
                    v_threshold: 1.0,
                    hard_reset: false,
                },
                Op::Residual {
                    name: "block".to_string(),
                    main: vec![Op::Flatten {
                        name: "f".to_string(),
                    }],
                    shortcut: vec![],
                    lif_out: Box::new(Op::Lif {
                        name: "lo".to_string(),
                        alpha: 0.25,
                        v_threshold: 1.0,
                        hard_reset: true,
                    }),
                },
                Op::Linear {
                    name: "fc".to_string(),
                    out_features: 2,
                    in_features: 4,
                    weight: WeightStore::Dense(w),
                    bias: Some(Tensor::from_slice(&[0.1, -0.1])),
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let art = sample_artifact();
        let back = Artifact::decode(&art.encode()).unwrap();
        assert_eq!(back, art);
    }

    #[test]
    fn bit_flips_never_decode_to_a_different_artifact() {
        let art = sample_artifact();
        let bytes = art.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            if let Ok(decoded) = Artifact::decode(&bad) {
                assert_eq!(decoded, art, "undetected corruption at byte {i}");
            }
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample_artifact().encode();
        for cut in 0..bytes.len() {
            assert!(Artifact::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_op_code_rejected() {
        // Hand-build a graph blob with an invalid op code behind a valid
        // manifest.
        let art = sample_artifact();
        let mut gw = BlobWriter::new();
        gw.put_usize(1);
        gw.put_u8(99);
        gw.put_str("mystery");
        let mut mw = BlobWriter::new();
        mw.put_str(NDINF_MAGIC);
        mw.put_u64(NDINF_VERSION);
        mw.put_str(&art.manifest.arch);
        mw.put_usize(art.manifest.timesteps);
        mw.put_usize(art.manifest.in_channels);
        mw.put_usize(art.manifest.image_size);
        mw.put_usize(art.manifest.num_classes);
        mw.put_u64(art.manifest.mask_digest);
        mw.put_str(&art.manifest.config_json);
        mw.put_usize(0);
        let mut entries = BTreeMap::new();
        entries.insert("manifest".to_string(), mw.finish());
        entries.insert("graph".to_string(), gw.finish());
        let err = Artifact::decode(&encode_blobs(&entries)).unwrap_err();
        assert!(err.to_string().contains("unknown op code"), "{err}");
    }

    #[test]
    fn save_load_round_trip() {
        let art = sample_artifact();
        let path = std::env::temp_dir().join(format!("ndinf-test-{}.ndinf", std::process::id()));
        art.save(&path).unwrap();
        let back = Artifact::load(&path).unwrap();
        assert_eq!(back, art);
        std::fs::remove_file(path).ok();
    }

    /// The walk flags every op in the executor's counter order, a
    /// residual block's children after it: spikes reach the block's convs
    /// and whatever follows a LIF or max-pool, nothing past an affine, an
    /// average or the block's add.
    #[test]
    fn binary_walk_flags_each_op_in_counter_order() {
        let lif = || Op::Lif {
            name: "lif".to_string(),
            alpha: 0.5,
            v_threshold: 1.0,
            hard_reset: false,
        };
        let (flat, avg) = (
            Op::Flatten { name: "f".into() },
            Op::GlobalAvgPool { name: "g".into() },
        );
        let ops = vec![
            flat.clone(),
            lif(),
            Op::MaxPool2d {
                name: "m".into(),
                kernel: 2,
            },
            Op::Residual {
                name: "block".to_string(),
                main: vec![flat.clone(), avg.clone(), lif(), flat.clone()],
                shortcut: vec![flat.clone()],
                lif_out: Box::new(lif()),
            },
            lif(),
            avg,
            flat,
        ];
        let want = [
            false, false, true, true, // flatten, lif, max-pool, block
            true, true, false, true,  // main
            true,  // shortcut
            false, // lif_out after the add
            true, true, false, // lif, average, flatten
        ];
        assert_eq!(binary_inputs(&ops), want);
    }

    #[test]
    fn corrupt_csr_in_artifact_rejected() {
        // Encode a CSR with an out-of-range column index by hand; decode
        // must refuse via from_parts validation.
        let mut gw = BlobWriter::new();
        gw.put_usize(1);
        gw.put_u8(0); // Linear
        gw.put_str("fc");
        gw.put_usize(1);
        gw.put_usize(2);
        gw.put_u8(1); // CSR store
        gw.put_usize(1); // rows
        gw.put_usize(2); // cols
        gw.put_usize(1); // values
        gw.put_f32(1.0);
        gw.put_usize(1); // col_indices
        gw.put_u32(7); // out of range
        gw.put_usize(2); // row_ptr
        gw.put_u32(0);
        gw.put_u32(1);
        gw.put_u8(0); // no bias
        let mut mw = BlobWriter::new();
        mw.put_str(NDINF_MAGIC);
        mw.put_u64(NDINF_VERSION);
        mw.put_str("LeNet-5");
        mw.put_usize(1);
        mw.put_usize(1);
        mw.put_usize(1);
        mw.put_usize(2);
        mw.put_u64(0);
        mw.put_str("{}");
        mw.put_usize(0);
        let mut entries = BTreeMap::new();
        entries.insert("manifest".to_string(), mw.finish());
        entries.insert("graph".to_string(), gw.finish());
        let err = Artifact::decode(&encode_blobs(&entries)).unwrap_err();
        assert!(err.to_string().contains("invalid CSR"), "{err}");
    }
}
