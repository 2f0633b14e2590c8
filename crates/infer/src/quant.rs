//! Per-channel symmetric int8 weight quantization and compressed index
//! encodings for NDINF2 artifacts.
//!
//! # Quantization scheme
//!
//! Each weighted layer is viewed as its 2-D kernel matrix (`Out × In` for
//! linear, `F × (C·KH·KW)` for conv — the same view the CSR packing uses).
//! Every output row `r` gets one symmetric scale `s_r = max|w_r| / 127`;
//! stored entries are `q = round(w / s_r)` clamped to `[-127, 127]` (−128 is
//! never produced, keeping the grid symmetric). Entries that round to zero
//! are dropped from the index set. Reconstruction is `ŵ = s_r · q`; the
//! layer's relative L2 reconstruction error `‖w − ŵ‖₂ / ‖w‖₂` is measured at
//! compile time and layers above [`QuantOptions::max_rel_error`] keep their
//! f32 store — the NDINF1 fallback.
//!
//! # Why this is multiply-free
//!
//! Only layers whose input is *guaranteed binary* (0/1 spikes, proven by a
//! compile-time walk over the frozen graph — see [`quantize_artifact`]) are
//! quantized, so the forward product needs no multiplies: each fired input
//! position adds its raw `i8` weight into an `i32` accumulator
//! ([`ndsnn_tensor::ops::quant`]), and one f32 multiply per output element
//! (`s_r · acc`) requantizes at the epilogue, exactly where the affine/LIF
//! fusion already runs. Integer accumulation is exact, so quantized logits
//! are bit-identical at every thread count.
//!
//! # Index encodings
//!
//! The writer serializes the column-index set of each quantized layer as
//! whichever of two encodings is smaller for that set, with ties going to
//! delta-varint ([`QuantWeight::encoding`]):
//!
//! - **bitmap** — `rows·cols` bits, one per position (wins when dense);
//! - **delta-varint** — per row: LEB128 entry count, first column, then
//!   LEB128 gaps to the previous column (wins when sparse).
//!
//! The reader also accepts **absolute** — per row: LEB128 entry count then
//! little-endian `u32` columns — so artifacts that carry it still load. The
//! writer never needs it, because it is never smaller than delta-varint:
//! both start each row with the same count varint, and every later
//! delta-varint value is a column or a gap below `cols`. `cols` is at most
//! `2^24` (the quantizer refuses wider rows and the decoder caps dims at
//! [`MAX_QUANT_DIM`]), so each such value takes at most 4 bytes, the fixed
//! size of an absolute index.
//!
//! All three decode back to identical CSR parts; decoding treats input as
//! hostile (truncation, trailing bytes, overlong varints, column overflow,
//! non-canonical bitmap padding and count mismatches are errors, never
//! panics or out-of-range indices).

use ndsnn_tensor::ops::quant::MAX_QUANT_ROW_NNZ;
use ndsnn_tensor::Csr;

use crate::artifact::{store_encoded_bytes, Artifact, Op, WeightStore};
use crate::error::{InferError, Result};

/// Default relative-L2 reconstruction error above which a layer keeps its
/// f32 store instead of quantizing. Per-channel int8 on trained weights
/// lands well below this; the threshold exists to catch pathological
/// distributions (a single huge outlier flattening the rest of a row).
pub const DEFAULT_QUANT_MAX_REL_ERROR: f64 = 0.05;

/// Structural cap on either dimension of a quantized weight grid. Real
/// layers are thousands of rows/columns; the cap's job is to bound the
/// buffers a *decoder* sizes from attacker-controlled dimension fields.
pub const MAX_QUANT_DIM: usize = 1 << 24;

fn bad(msg: impl std::fmt::Display) -> InferError {
    InferError::InvalidArtifact(msg.to_string())
}

/// How a quantized layer's column-index set is serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexEncoding {
    /// One bit per weight position.
    Bitmap,
    /// Per row: varint count, varint first column, varint gaps.
    DeltaVarint,
    /// Per row: varint count, little-endian `u32` columns. Read, never
    /// written.
    Absolute,
}

impl IndexEncoding {
    /// Serialization tag.
    pub fn tag(self) -> u8 {
        match self {
            IndexEncoding::Bitmap => 0,
            IndexEncoding::DeltaVarint => 1,
            IndexEncoding::Absolute => 2,
        }
    }

    /// Inverse of [`IndexEncoding::tag`]; unknown tags are decode errors.
    pub fn from_tag(tag: u8) -> Result<IndexEncoding> {
        match tag {
            0 => Ok(IndexEncoding::Bitmap),
            1 => Ok(IndexEncoding::DeltaVarint),
            2 => Ok(IndexEncoding::Absolute),
            t => Err(bad(format!("unknown index encoding tag {t}"))),
        }
    }

    /// Human-readable name (used in size tables).
    pub fn label(self) -> &'static str {
        match self {
            IndexEncoding::Bitmap => "bitmap",
            IndexEncoding::DeltaVarint => "delta",
            IndexEncoding::Absolute => "absolute",
        }
    }
}

/// Knobs controlling artifact quantization.
#[derive(Debug, Clone, Copy)]
pub struct QuantOptions {
    /// Per-layer relative-L2 reconstruction error above which the layer
    /// keeps its f32 store.
    pub max_rel_error: f64,
}

impl Default for QuantOptions {
    fn default() -> Self {
        QuantOptions {
            max_rel_error: DEFAULT_QUANT_MAX_REL_ERROR,
        }
    }
}

// ---------------------------------------------------------------------------
// LEB128 varints (u32, ≤ 5 bytes, canonical-length not required but bounded)

fn put_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn varint_len(v: u32) -> usize {
    let bits = 32 - v.max(1).leading_zeros() as usize;
    bits.div_ceil(7)
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let mut v: u32 = 0;
    for i in 0..5 {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| bad("truncated varint in index stream"))?;
        *pos += 1;
        let payload = u32::from(byte & 0x7F);
        if i == 4 && payload > 0x0F {
            return Err(bad("varint overflows u32"));
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(bad("varint longer than 5 bytes"))
}

// ---------------------------------------------------------------------------
// QuantWeight

/// A per-channel symmetric int8 weight in CSR form.
///
/// In memory the index set is always expanded CSR so the gather-add kernels
/// run the same regardless of how the artifact serialized it; the on-disk
/// form ([`QuantWeight::encoding`]) is a function of the index set alone.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantWeight {
    csr: Csr<i8>,
    scales: Vec<f32>,
}

impl QuantWeight {
    /// Wraps an int8 CSR (whose structure [`Csr::from_parts`] already
    /// validated) after checking the quant-specific invariants the kernels
    /// rely on (hostile-input safe): one finite non-negative scale per row,
    /// positive exactly on non-empty rows, values in `[-127, 127]`, and the
    /// per-row entry cap that excludes `i32` accumulator overflow.
    pub fn new(csr: Csr<i8>, scales: Vec<f32>) -> Result<QuantWeight> {
        if scales.len() != csr.rows() {
            return Err(bad(format!(
                "quant scales length {} != rows {}",
                scales.len(),
                csr.rows()
            )));
        }
        for (r, &s) in scales.iter().enumerate() {
            let (cols, values) = csr.row_entries(r);
            if cols.len() > MAX_QUANT_ROW_NNZ {
                return Err(bad(format!(
                    "quant row {r} has {} entries (cap {MAX_QUANT_ROW_NNZ})",
                    cols.len()
                )));
            }
            if !s.is_finite() || s < 0.0 {
                return Err(bad(format!("quant scale {s} out of range at row {r}")));
            }
            if (s == 0.0) != cols.is_empty() {
                return Err(bad(format!(
                    "quant scale/occupancy mismatch at row {r} (scale {s}, {} entries)",
                    cols.len()
                )));
            }
            if values.contains(&i8::MIN) {
                return Err(bad(format!("quant value -128 at row {r} breaks symmetry")));
            }
        }
        Ok(QuantWeight { csr, scales })
    }

    /// The int8 weight over the 2-D kernel view.
    pub fn csr(&self) -> &Csr<i8> {
        &self.csr
    }

    /// Per-row requantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The index encoding the writer uses: bitmap when its section is
    /// strictly smaller than the delta-varint stream, delta-varint
    /// otherwise. Measured without building either.
    pub fn encoding(&self) -> IndexEncoding {
        let m = &self.csr;
        let mut delta_len = 0;
        for_each_delta(m, |v| delta_len += varint_len(v));
        if (m.rows() * m.cols()).div_ceil(8) < delta_len {
            IndexEncoding::Bitmap
        } else {
            IndexEncoding::DeltaVarint
        }
    }

    /// Reconstructed f32 value at `(r, c)` (`scale · q`, zero off-index) —
    /// test/diagnostic helper, not a kernel.
    pub fn dequantize_at(&self, r: usize, c: usize) -> f32 {
        let (cols, values) = self.csr.row_entries(r);
        match cols.binary_search(&(c as u32)) {
            Ok(i) => self.scales[r] * f32::from(values[i]),
            Err(_) => 0.0,
        }
    }

    /// The serialized column-index set in [`QuantWeight::encoding`].
    pub fn encode_indices(&self) -> (IndexEncoding, Vec<u8>) {
        let encoding = self.encoding();
        let bytes = if encoding == IndexEncoding::Bitmap {
            encode_bitmap(&self.csr)
        } else {
            encode_delta_varint(&self.csr)
        };
        (encoding, bytes)
    }
}

/// Visits the delta-varint values of `m` in stream order: per row, its
/// entry count, then its first column and the gap to each later one.
fn for_each_delta(m: &Csr<i8>, mut f: impl FnMut(u32)) {
    for r in 0..m.rows() {
        let row = m.row(r);
        f(row.len() as u32);
        let mut prev: Option<u32> = None;
        for &c in row {
            f(prev.map_or(c, |p| c - p));
            prev = Some(c);
        }
    }
}

fn encode_bitmap(m: &Csr<i8>) -> Vec<u8> {
    let (rows, cols) = m.dims();
    let mut bits = vec![0u8; (rows * cols).div_ceil(8)];
    for r in 0..rows {
        for &c in m.row(r) {
            let bit = r * cols + c as usize;
            bits[bit / 8] |= 1 << (bit % 8);
        }
    }
    bits
}

fn encode_delta_varint(m: &Csr<i8>) -> Vec<u8> {
    let mut out = Vec::new();
    for_each_delta(m, |v| put_varint(&mut out, v));
    out
}

/// Decodes an index stream back to CSR parts `(row_ptr, idx)`, checking
/// that it describes exactly `nnz` entries over a `rows × cols` grid and
/// consumes every byte.
/// All failure modes are typed errors: truncation, trailing bytes, columns
/// out of range or not strictly ascending (delta 0 after the first entry),
/// accumulated-delta overflow past `cols`, overlong varints, non-zero
/// padding bits in the bitmap tail, and per-row counts past the overflow
/// cap.
pub fn decode_index_stream(
    encoding: IndexEncoding,
    rows: usize,
    cols: usize,
    nnz: usize,
    bytes: &[u8],
) -> Result<(Vec<u32>, Vec<u32>)> {
    // Structural cap before any allocation: a corrupt `rows`/`cols` field
    // must not size a buffer (real layers are thousands of rows, the cap is
    // 16M). Without this, a flipped bit in the dims aborts on allocation.
    if rows > MAX_QUANT_DIM || cols > MAX_QUANT_DIM {
        return Err(bad(format!(
            "quant index grid {rows}x{cols} exceeds the structural cap"
        )));
    }
    let mut col_indices = Vec::with_capacity(nnz.min(bytes.len().saturating_mul(8)));
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0u32);
    match encoding {
        IndexEncoding::Bitmap => {
            let used = rows
                .checked_mul(cols)
                .ok_or_else(|| bad("bitmap grid overflows"))?;
            let want = used.div_ceil(8);
            if bytes.len() != want {
                return Err(bad(format!(
                    "bitmap section is {} bytes, geometry needs {want}",
                    bytes.len()
                )));
            }
            // Padding bits past rows·cols must be zero: a canonical encoder
            // never sets them, so anything else is corruption.
            if used % 8 != 0 && bytes[used / 8] >> (used % 8) != 0 {
                return Err(bad("bitmap has non-zero padding bits"));
            }
            for r in 0..rows {
                for c in 0..cols {
                    let bit = r * cols + c;
                    if bytes[bit / 8] >> (bit % 8) & 1 == 1 {
                        col_indices.push(c as u32);
                    }
                }
                row_ptr.push(col_indices.len() as u32);
            }
        }
        IndexEncoding::DeltaVarint | IndexEncoding::Absolute => {
            let mut pos = 0usize;
            for r in 0..rows {
                let count = get_varint(bytes, &mut pos)? as usize;
                if count > cols || count > MAX_QUANT_ROW_NNZ {
                    return Err(bad(format!("row {r} claims {count} entries over {cols}")));
                }
                let mut col: u64 = 0;
                for i in 0..count {
                    let raw = if encoding == IndexEncoding::DeltaVarint {
                        get_varint(bytes, &mut pos)?
                    } else {
                        let end = pos
                            .checked_add(4)
                            .filter(|&e| e <= bytes.len())
                            .ok_or_else(|| bad("truncated absolute index"))?;
                        let v = u32::from_le_bytes(bytes[pos..end].try_into().expect("4 bytes"));
                        pos = end;
                        v
                    };
                    col = match encoding {
                        // First entry is the column itself; later deltas are
                        // gaps and must be ≥ 1 (equal columns are invalid).
                        IndexEncoding::DeltaVarint if i == 0 => u64::from(raw),
                        IndexEncoding::DeltaVarint if raw == 0 => {
                            return Err(bad(format!("zero delta at row {r}")))
                        }
                        IndexEncoding::DeltaVarint => col + u64::from(raw),
                        _ if i > 0 && u64::from(raw) <= col => {
                            return Err(bad(format!("absolute columns not ascending at row {r}")))
                        }
                        _ => u64::from(raw),
                    };
                    if col >= cols as u64 {
                        return Err(bad(format!("column {col} overflows {cols} at row {r}")));
                    }
                    col_indices.push(col as u32);
                }
                row_ptr.push(col_indices.len() as u32);
            }
            if pos != bytes.len() {
                return Err(bad(format!(
                    "{} trailing bytes after index stream",
                    bytes.len() - pos
                )));
            }
        }
    }
    if col_indices.len() != nnz {
        return Err(bad(format!(
            "index stream describes {} entries, weight carries {nnz}",
            col_indices.len()
        )));
    }
    Ok((row_ptr, col_indices))
}

// ---------------------------------------------------------------------------
// Quantization

/// Quantizes a frozen f32 store into int8 CSR and reports the relative-L2
/// reconstruction error.
pub fn quantize_store(store: &WeightStore) -> Result<(QuantWeight, f64)> {
    let (rows, cols, entries) = store_rows(store)?;
    if cols > MAX_QUANT_ROW_NNZ {
        return Err(InferError::Unsupported(format!(
            "kernel view has {cols} columns; int8 accumulation is only exact up to \
             {MAX_QUANT_ROW_NNZ}"
        )));
    }
    let mut scales = Vec::with_capacity(rows);
    let mut values = Vec::new();
    let mut col_indices = Vec::new();
    let mut row_ptr = vec![0u32];
    let (mut err_sq, mut norm_sq) = (0.0f64, 0.0f64);
    for row in &entries {
        let max_abs = row.iter().fold(0.0f32, |m, &(_, w)| m.max(w.abs()));
        let scale = max_abs / 127.0;
        let mut kept = 0usize;
        for &(c, w) in row {
            norm_sq += f64::from(w) * f64::from(w);
            let q = (w / scale).round().clamp(-127.0, 127.0) as i32;
            let rec = scale * q as f32;
            let e = f64::from(w) - f64::from(rec);
            err_sq += e * e;
            if q != 0 {
                values.push(q as i8);
                col_indices.push(c);
                kept += 1;
            }
        }
        scales.push(if kept == 0 { 0.0 } else { scale });
        row_ptr.push(values.len() as u32);
    }
    let rel_error = if norm_sq == 0.0 {
        0.0
    } else {
        (err_sq / norm_sq).sqrt()
    };
    let csr = Csr::from_parts(rows, cols, row_ptr, col_indices, values).map_err(bad)?;
    Ok((QuantWeight::new(csr, scales)?, rel_error))
}

/// Nonzero `(col, value)` entries per kernel-view row of an f32 store.
#[allow(clippy::type_complexity)]
fn store_rows(store: &WeightStore) -> Result<(usize, usize, Vec<Vec<(u32, f32)>>)> {
    match store {
        WeightStore::Dense(t) => {
            let d = t.dims();
            if d.is_empty() {
                return Err(InferError::Unsupported("rank-0 weight".to_string()));
            }
            let rows = d[0];
            let cols = t.len() / rows.max(1);
            let data = t.as_slice();
            let entries = (0..rows)
                .map(|r| {
                    data[r * cols..(r + 1) * cols]
                        .iter()
                        .enumerate()
                        .filter(|(_, &w)| w != 0.0)
                        .map(|(c, &w)| (c as u32, w))
                        .collect()
                })
                .collect();
            Ok((rows, cols, entries))
        }
        WeightStore::Csr(m) => {
            let entries = (0..m.rows())
                .map(|r| {
                    let (cis, vs) = m.row_entries(r);
                    cis.iter().copied().zip(vs.iter().copied()).collect()
                })
                .collect();
            Ok((m.rows(), m.cols(), entries))
        }
        WeightStore::QuantCsr(_) => Err(InferError::Unsupported(
            "store is already quantized".to_string(),
        )),
    }
}

/// Per-layer outcome of [`quantize_artifact`]: what the weight cost as f32,
/// what it costs now, and why (or why not) it quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerQuantRow {
    /// Layer name.
    pub name: String,
    /// Serialized bytes of the original f32 store.
    pub f32_bytes: usize,
    /// Serialized bytes of the store the layer ended up with.
    pub bytes: usize,
    /// `bitmap` / `delta` for quantized layers, `f32` for layers that kept
    /// their original store.
    pub encoding: String,
    /// Relative-L2 reconstruction error of the int8 grid (0 for layers that
    /// were never candidates).
    pub rel_error: f64,
    /// True when the layer's store was replaced with int8 CSR.
    pub quantized: bool,
}

impl LayerQuantRow {
    /// `f32_bytes / bytes` — how much smaller this layer's weight got.
    pub fn ratio(&self) -> f64 {
        self.f32_bytes as f64 / self.bytes.max(1) as f64
    }
}

/// Quantizes every eligible weighted layer of a frozen artifact, returning
/// the (possibly) NDINF2 artifact plus one [`LayerQuantRow`] per weighted
/// layer.
///
/// Eligibility is decided by a compile-time **binary-input walk**: the
/// multiply-free gather-add kernels are only exact when a layer's input is
/// guaranteed to be 0/1 spikes, so the walk tracks that property through
/// the graph — raw input images are *not* binary (the first conv always
/// keeps f32); `Lif` output is binary; `MaxPool2d` and `Flatten` preserve
/// binariness; `AvgPool2d`, `GlobalAvgPool`, `Affine` and weighted layers
/// destroy it; a `Residual` block's output is its `lif_out` spike layer.
/// An eligible layer still falls back to f32 when its reconstruction error
/// exceeds [`QuantOptions::max_rel_error`].
///
/// The manifest (densities, mask digest, provenance) is carried over
/// unchanged: quantization is a storage/kernels decision, not a different
/// model.
pub fn quantize_artifact(
    art: &Artifact,
    opts: &QuantOptions,
) -> Result<(Artifact, Vec<LayerQuantRow>)> {
    let mut rows = Vec::new();
    let (ops, _) = quantize_ops(&art.ops, false, opts, &mut rows)?;
    Ok((
        Artifact {
            manifest: art.manifest.clone(),
            ops,
        },
        rows,
    ))
}

fn quantize_ops(
    ops: &[Op],
    mut binary: bool,
    opts: &QuantOptions,
    rows: &mut Vec<LayerQuantRow>,
) -> Result<(Vec<Op>, bool)> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        let (new_op, b) = quantize_op(op, binary, opts, rows)?;
        out.push(new_op);
        binary = b;
    }
    Ok((out, binary))
}

fn maybe_quantize(
    name: &str,
    weight: &WeightStore,
    binary_in: bool,
    opts: &QuantOptions,
    rows: &mut Vec<LayerQuantRow>,
) -> Result<WeightStore> {
    let f32_bytes = store_encoded_bytes(weight);
    let (store, encoding, rel_error, quantized) = if weight.is_quantized() {
        (weight.clone(), "int8".to_string(), 0.0, true)
    } else if !binary_in {
        (weight.clone(), "f32".to_string(), 0.0, false)
    } else {
        match quantize_store(weight) {
            Ok((qw, rel)) if rel <= opts.max_rel_error => {
                let label = qw.encoding().label().to_string();
                (WeightStore::QuantCsr(qw), label, rel, true)
            }
            // Above the quality threshold (or too wide for exact i32
            // accumulation): keep the f32 store, report why.
            Ok((_, rel)) => (weight.clone(), "f32".to_string(), rel, false),
            Err(InferError::Unsupported(_)) => (weight.clone(), "f32".to_string(), 0.0, false),
            Err(e) => return Err(e),
        }
    };
    rows.push(LayerQuantRow {
        name: name.to_string(),
        f32_bytes,
        bytes: store_encoded_bytes(&store),
        encoding,
        rel_error,
        quantized,
    });
    Ok(store)
}

fn quantize_op(
    op: &Op,
    binary_in: bool,
    opts: &QuantOptions,
    rows: &mut Vec<LayerQuantRow>,
) -> Result<(Op, bool)> {
    Ok(match op {
        Op::Linear {
            name,
            out_features,
            in_features,
            weight,
            bias,
        } => (
            Op::Linear {
                name: name.clone(),
                out_features: *out_features,
                in_features: *in_features,
                weight: maybe_quantize(name, weight, binary_in, opts, rows)?,
                bias: bias.clone(),
            },
            false,
        ),
        Op::Conv2d {
            name,
            geometry,
            weight,
            bias,
        } => (
            Op::Conv2d {
                name: name.clone(),
                geometry: *geometry,
                weight: maybe_quantize(name, weight, binary_in, opts, rows)?,
                bias: bias.clone(),
            },
            false,
        ),
        Op::Lif { .. } => (op.clone(), true),
        Op::MaxPool2d { .. } | Op::Flatten { .. } => (op.clone(), binary_in),
        Op::Affine { .. } | Op::AvgPool2d { .. } | Op::GlobalAvgPool { .. } => (op.clone(), false),
        Op::Residual {
            name,
            main,
            shortcut,
            lif_out,
        } => {
            let (m, _) = quantize_ops(main, binary_in, opts, rows)?;
            let (s, _) = quantize_ops(shortcut, binary_in, opts, rows)?;
            // The add of main + shortcut is not binary; the block's output
            // is whatever its spike layer emits.
            let (lo, lo_binary) = quantize_op(lif_out, false, opts, rows)?;
            (
                Op::Residual {
                    name: name.clone(),
                    main: m,
                    shortcut: s,
                    lif_out: Box::new(lo),
                },
                lo_binary,
            )
        }
    })
}

/// Expands a quantized weight back to an f32 [`Csr`] (`scale · q` per stored
/// entry) — the reference the drift harness compares against, and a
/// debugging aid; serving never calls this.
pub fn dequantize_to_csr(qw: &QuantWeight) -> Result<Csr<f32>> {
    let m = qw.csr();
    let values = (0..m.rows())
        .flat_map(|r| m.row_entries(r).1.iter().map(move |&q| (r, q)))
        .map(|(r, q)| qw.scales()[r] * f32::from(q))
        .collect();
    Csr::from_parts(
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        m.idx().to_vec(),
        values,
    )
    .map_err(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsnn_tensor::Tensor;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_store(rows: usize, cols: usize, keep_pct: u64, seed: u64) -> WeightStore {
        let mut s = seed;
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                if lcg(&mut s) % 100 < keep_pct {
                    (lcg(&mut s) % 2000) as f32 / 1000.0 - 1.0
                } else {
                    0.0
                }
            })
            .collect();
        WeightStore::Dense(Tensor::from_vec([rows, cols], data).unwrap())
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u32, 1, 127, 128, 16383, 16384, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len mismatch for {v}");
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // Overlong: 6 continuation bytes.
        let mut pos = 0;
        assert!(get_varint(&[0x80; 6], &mut pos).is_err());
        // 5-byte varint with payload past bit 31.
        let mut pos = 0;
        assert!(get_varint(&[0x80, 0x80, 0x80, 0x80, 0x10], &mut pos).is_err());
        // Truncated mid-varint.
        let mut pos = 0;
        assert!(get_varint(&[0x80], &mut pos).is_err());
    }

    /// Absolute index rows: the reader accepts them, the writer never
    /// produces them.
    fn encode_absolute(m: &Csr<i8>) -> Vec<u8> {
        let mut out = Vec::new();
        for r in 0..m.rows() {
            let row = m.row(r);
            put_varint(&mut out, row.len() as u32);
            for &c in row {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Every index stream the reader accepts for `m`, with its encoding.
    fn all_streams(m: &Csr<i8>) -> [(IndexEncoding, Vec<u8>); 3] {
        [
            (IndexEncoding::Bitmap, encode_bitmap(m)),
            (IndexEncoding::DeltaVarint, encode_delta_varint(m)),
            (IndexEncoding::Absolute, encode_absolute(m)),
        ]
    }

    #[test]
    fn every_encoding_round_trips_indices() {
        for keep in [3, 40, 97] {
            let store = random_store(7, 33, keep, 0x51EE + keep);
            let (qw, _) = quantize_store(&store).unwrap();
            let m = qw.csr();
            for (enc, bytes) in all_streams(m) {
                let (rp, cis) = decode_index_stream(enc, 7, 33, m.nnz(), &bytes).unwrap();
                assert_eq!(cis, m.idx(), "{enc:?} cols at keep={keep}");
                assert_eq!(rp, m.row_ptr(), "{enc:?} row_ptr at keep={keep}");
            }
        }
    }

    #[test]
    fn auto_selection_tracks_density() {
        // Near-dense → bitmap; sparse → delta-varint.
        let (dense, _) = quantize_store(&random_store(8, 64, 95, 1)).unwrap();
        assert_eq!(dense.encoding(), IndexEncoding::Bitmap);
        let (sparse, _) = quantize_store(&random_store(8, 64, 5, 2)).unwrap();
        assert_eq!(sparse.encoding(), IndexEncoding::DeltaVarint);
        // The widest row the quantizer accepts, holding only its last
        // column: count 1, then column 2^24 − 1 as a 4-byte varint, which
        // ties the 4-byte absolute index and goes to delta-varint.
        let cols = MAX_QUANT_ROW_NNZ;
        let widest =
            Csr::from_parts(1, cols, vec![0, 1], vec![cols as u32 - 1], vec![1.0]).unwrap();
        let (wide, _) = quantize_store(&WeightStore::Csr(widest)).unwrap();
        assert_eq!(
            wide.encode_indices(),
            (IndexEncoding::DeltaVarint, vec![1, 0xFF, 0xFF, 0xFF, 0x07])
        );
        // The written section is the smallest of the three, absolute included.
        for qw in [&dense, &sparse, &wide] {
            let written = qw.encode_indices().1.len();
            for (enc, bytes) in all_streams(qw.csr()) {
                assert!(
                    written <= bytes.len(),
                    "{enc:?}: {} < {written}",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn quantization_error_is_bounded_and_reported() {
        let store = random_store(16, 48, 30, 7);
        let (qw, rel) = quantize_store(&store).unwrap();
        // Per-channel int8 on uniform-ish weights sits far below 1%.
        assert!(rel < 0.01, "rel error {rel}");
        // Reconstruction agrees with dequantize_at within the rounding step.
        if let WeightStore::Dense(t) = &store {
            let (rows, cols) = qw.csr().dims();
            for r in 0..rows {
                let scale = qw.scales()[r];
                for c in 0..cols {
                    let w = t.as_slice()[r * cols + c];
                    let rec = qw.dequantize_at(r, c);
                    assert!(
                        (w - rec).abs() <= scale * 0.5 + f32::EPSILON,
                        "({r},{c}): {w} vs {rec}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_rows_get_zero_scale_and_no_entries() {
        let t = Tensor::from_vec([2, 3], vec![0.0, 0.0, 0.0, 1.0, 0.0, -0.5]).unwrap();
        let (qw, rel) = quantize_store(&WeightStore::Dense(t)).unwrap();
        assert_eq!(qw.scales()[0], 0.0);
        assert!(qw.scales()[1] > 0.0);
        assert_eq!(qw.csr().row_ptr(), &[0, 0, 2]);
        assert!(rel < 0.01);
    }

    #[test]
    fn from_parts_rejects_broken_invariants() {
        let ok = || {
            (
                vec![0.5f32, 0.25],
                vec![3i8, -4, 7],
                vec![0u32, 2, 1],
                vec![0u32, 2, 3],
            )
        };
        let build = |scales, values, cis, rp| {
            let csr = Csr::from_parts(2, 4, rp, cis, values).map_err(bad)?;
            QuantWeight::new(csr, scales)
        };
        let (s, v, c, r) = ok();
        assert!(build(s, v, c, r).is_ok());
        // Scale count mismatch.
        let (_, v, c, r) = ok();
        assert!(build(vec![0.5], v, c, r).is_err());
        // Negative / non-finite scale.
        let (_, v, c, r) = ok();
        assert!(build(vec![-0.5, 0.25], v, c, r).is_err());
        let (_, v, c, r) = ok();
        assert!(build(vec![f32::NAN, 0.25], v, c, r).is_err());
        // Zero scale on an occupied row.
        let (_, v, c, r) = ok();
        assert!(build(vec![0.0, 0.25], v, c, r).is_err());
        // Column out of range.
        let (s, v, _, r) = ok();
        assert!(build(s, v, vec![0, 9, 1], r).is_err());
        // Columns not strictly ascending within a row.
        let (s, v, _, r) = ok();
        assert!(build(s, v, vec![2, 2, 1], r).is_err());
        // -128 value.
        let (s, _, c, r) = ok();
        assert!(build(s, vec![3, i8::MIN, 7], c, r).is_err());
        // row_ptr not covering values.
        let (s, v, c, _) = ok();
        assert!(build(s, v, c, vec![0, 2, 2]).is_err());
    }

    #[test]
    fn hostile_index_streams_are_rejected() {
        let store = random_store(5, 19, 35, 42);
        let (qw, _) = quantize_store(&store).unwrap();
        let (rows, cols) = qw.csr().dims();
        let nnz = qw.csr().nnz();
        for (enc, bytes) in all_streams(qw.csr()) {
            // Truncation at every offset either errors or (never) matches.
            for cut in 0..bytes.len() {
                assert!(
                    decode_index_stream(enc, rows, cols, nnz, &bytes[..cut]).is_err(),
                    "{enc:?} accepted truncation at {cut}"
                );
            }
            // Trailing garbage.
            let mut long = bytes.clone();
            long.push(0x00);
            assert!(decode_index_stream(enc, rows, cols, nnz, &long).is_err());
            // Wrong nnz claim.
            assert!(decode_index_stream(enc, rows, cols, nnz + 1, &bytes).is_err());
        }
        // Delta overflow: a gap that pushes the column past `cols`.
        let mut evil = Vec::new();
        put_varint(&mut evil, 2); // row 0: two entries
        put_varint(&mut evil, 5); // col 5
        put_varint(&mut evil, 1000); // col 1005 > 19
        for _ in 1..rows {
            put_varint(&mut evil, 0);
        }
        assert!(decode_index_stream(IndexEncoding::DeltaVarint, rows, cols, 2, &evil).is_err());
        // Zero delta (duplicate column).
        let mut dup = Vec::new();
        put_varint(&mut dup, 2);
        put_varint(&mut dup, 5);
        put_varint(&mut dup, 0);
        for _ in 1..rows {
            put_varint(&mut dup, 0);
        }
        assert!(decode_index_stream(IndexEncoding::DeltaVarint, rows, cols, 2, &dup).is_err());
        // Bitmap with non-zero padding bits.
        let mut pad = encode_bitmap(qw.csr());
        let used = rows * cols;
        if used % 8 != 0 {
            let last = pad.len() - 1;
            pad[last] |= 1 << 7;
            assert!(decode_index_stream(IndexEncoding::Bitmap, rows, cols, nnz, &pad).is_err());
        }
    }

    #[test]
    fn dequantize_to_csr_matches_pointwise() {
        let store = random_store(6, 21, 40, 99);
        let (qw, _) = quantize_store(&store).unwrap();
        let csr = dequantize_to_csr(&qw).unwrap();
        let (rows, cols) = qw.csr().dims();
        for r in 0..rows {
            let (cis, vs) = csr.row_entries(r);
            for (&c, &v) in cis.iter().zip(vs) {
                assert_eq!(v.to_bits(), qw.dequantize_at(r, c as usize).to_bits());
            }
            for c in 0..cols {
                if !cis.contains(&(c as u32)) {
                    assert_eq!(qw.dequantize_at(r, c), 0.0);
                }
            }
        }
    }

    #[test]
    fn binary_walk_gates_quantization() {
        use crate::artifact::{Artifact, Manifest, Op};
        use ndsnn_tensor::ops::conv::Conv2dGeometry;
        let conv = |name: &str| Op::Conv2d {
            name: name.to_string(),
            geometry: Conv2dGeometry::square(1, 2, 3, 1, 1),
            weight: random_store(2, 9, 60, 7),
            bias: None,
        };
        let lif = |name: &str| Op::Lif {
            name: name.to_string(),
            alpha: 0.5,
            v_threshold: 1.0,
            hard_reset: false,
        };
        let art = Artifact {
            manifest: Manifest {
                arch: "test".to_string(),
                timesteps: 1,
                in_channels: 1,
                image_size: 4,
                num_classes: 2,
                mask_digest: 0,
                config_json: "{}".to_string(),
                densities: vec![],
            },
            ops: vec![
                conv("c1"), // raw image input: stays f32
                lif("l1"),
                conv("c2"), // binary input: quantizes
                lif("l2"),
                Op::MaxPool2d {
                    name: "mp".to_string(),
                    kernel: 2,
                }, // preserves binariness
                conv("c3"), // spikes through max-pool: quantizes
                lif("l3"),
                Op::AvgPool2d {
                    name: "ap".to_string(),
                    kernel: 2,
                }, // averages destroy binariness
                conv("c4"), // not binary: stays f32
                lif("l4"),
                Op::Flatten {
                    name: "fl".to_string(),
                },
                Op::Linear {
                    name: "fc".to_string(),
                    out_features: 4,
                    in_features: 32,
                    weight: random_store(4, 32, 80, 9),
                    bias: None,
                }, // binary through flatten: quantizes
            ],
        };
        let (qart, rows) = quantize_artifact(&art, &QuantOptions::default()).unwrap();
        let by_name: std::collections::BTreeMap<_, _> =
            rows.iter().map(|r| (r.name.as_str(), r)).collect();
        assert!(!by_name["c1"].quantized, "first conv sees raw images");
        assert!(by_name["c2"].quantized);
        assert!(by_name["c3"].quantized, "max-pool preserves binariness");
        assert!(!by_name["c4"].quantized, "avg-pool output is not binary");
        assert!(by_name["fc"].quantized, "flatten preserves binariness");
        assert!(qart.is_quantized());
        assert_eq!(qart.manifest, art.manifest);
        // Quantized rows report their on-disk encoding and shrink.
        for r in rows.iter().filter(|r| r.quantized) {
            assert!(["bitmap", "delta"].contains(&r.encoding.as_str()));
            assert!(
                r.bytes < r.f32_bytes,
                "{}: {} !< {}",
                r.name,
                r.bytes,
                r.f32_bytes
            );
        }
        for r in rows.iter().filter(|r| !r.quantized) {
            assert_eq!(r.encoding, "f32");
            assert_eq!(r.bytes, r.f32_bytes);
        }
    }
}
