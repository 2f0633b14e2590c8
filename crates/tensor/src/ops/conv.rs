//! 2-D convolution as implicit GEMM over tiles.
//!
//! Layouts follow the deep-learning convention used by the paper's PyTorch
//! stack: activations are `(B, C, H, W)`, weights are `(F, C, KH, KW)` where
//! `F` is the number of filters (output channels). The dense forward and
//! backward passes are *implicit GEMM*: the tiled core
//! ([`crate::ops::tile`]) packs its right-hand panels straight out of the
//! input sample through an [`Im2colLayout`], so no dense col buffer is ever
//! materialized — forward is `W · im2col(x)`, the weight gradient is
//! `gy · im2col(x)ᵀ`, and the col gradient is `Wᵀ · gy` read through a
//! transposed weight *layout* instead of a transposed copy. The sparse
//! paths still lower explicitly (their kernels walk compressed structures,
//! not tiles) and stay bit-identical to the dense core: a weight read
//! through its column view ([`ConvWeight`] — a training plan, or a frozen
//! f32 or int8 weight) runs [`sp_mm`] over an [`im2col`] buffer, and a
//! binary input is lowered only to its packed operand ([`im2col_packed`])
//! for the spike walk ([`spike_conv_fwd`], [`spike_conv_dw`]). This is the
//! only sparse conv forward: training and the frozen executor both call
//! [`conv2d_forward`].

use crate::error::{Result, TensorError};
use crate::ops::grad::{gather_conv_dx, transpose_into};
use crate::ops::layout::Im2colLayout;
use crate::ops::quant::requantize_rows;
use crate::ops::spike::{spike_conv_dw, spike_conv_fwd, spike_conv_fwd_dense, PackedSpikes};
use crate::ops::spmm::{plan_values, sp_mm, sp_mm_t};
use crate::ops::tile::{conv_fwd_tiled, gemm_tiled, NoEpilogue, PanelA, PanelB, TileEpilogue};
use crate::parallel::SharedSlice;
use crate::scratch::ScratchPool;
use crate::tensor::Tensor;
use crate::Csr;

/// Upper bound on the number of sample blocks the backward pass splits a
/// batch into. The partition depends only on the batch size — never on the
/// thread count — so block-partial gradients reduce in a fixed order and the
/// result is bit-identical for any `NDSNN_THREADS` setting. The bound also
/// caps transient memory: at most this many partial `dW` buffers are alive.
/// [`crate::reference::conv2d_backward`] reduces through the same blocks.
/// The sparse forward paths split a batch the same way so each block takes
/// its workspace once; there the partition has no numeric effect.
pub(crate) const BWD_MAX_BLOCKS: usize = 8;

/// Static geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (filters).
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along height and width.
    pub stride: usize,
    /// Zero padding on each border.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Square-kernel convenience constructor.
    pub fn square(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dGeometry {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for an input of `h × w`.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let eff_h = h + 2 * self.padding;
        let eff_w = w + 2 * self.padding;
        if self.kernel_h > eff_h || self.kernel_w > eff_w || self.stride == 0 {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {}x{} stride {} does not fit padded input {}x{}",
                self.kernel_h, self.kernel_w, self.stride, eff_h, eff_w
            )));
        }
        Ok((
            (eff_h - self.kernel_h) / self.stride + 1,
            (eff_w - self.kernel_w) / self.stride + 1,
        ))
    }

    /// Rows of the im2col matrix (`C·KH·KW`).
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Weight tensor shape `(F, C, KH, KW)`.
    pub fn weight_dims(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels,
            self.kernel_h,
            self.kernel_w,
        ]
    }
}

/// Lowers one `(C, H, W)` sample (given as a flat slice) into an im2col
/// buffer of shape `(C·KH·KW, OH·OW)` stored row-major in `col`.
pub fn im2col(
    input: &[f32],
    g: &Conv2dGeometry,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    debug_assert_eq!(input.len(), g.in_channels * h * w);
    debug_assert_eq!(col.len(), g.col_rows() * oh * ow);
    let ow_total = oh * ow;
    for c in 0..g.in_channels {
        let chan = &input[c * h * w..(c + 1) * h * w];
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                let row_idx = (c * g.kernel_h + kh) * g.kernel_w + kw;
                let out_row = &mut col[row_idx * ow_total..(row_idx + 1) * ow_total];
                for oy in 0..oh {
                    let iy = (oy * g.stride + kh) as isize - g.padding as isize;
                    let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        dst.iter_mut().for_each(|v| *v = 0.0);
                        continue;
                    }
                    let src_row = &chan[iy as usize * w..(iy as usize + 1) * w];
                    for (ox, v) in dst.iter_mut().enumerate() {
                        let ix = (ox * g.stride + kw) as isize - g.padding as isize;
                        *v = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            src_row[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Packed-sparse [`im2col`]: emits only the non-zero entries of the im2col
/// matrix, built directly from the input's non-zero pixels without ever
/// materializing the dense `(C·KH·KW, OH·OW)` buffer.
///
/// On return, row `r`'s entries span `pos[ptr[r]..ptr[r+1]]` (output
/// positions `oy·OW + ox`, ascending within each row), with `ptr` holding
/// `col_rows + 1` offsets. Only positions are packed: the spike walk adds
/// each weight once per position, so a pixel's value is never read. Both
/// vectors are cleared and refilled; pass pooled buffers to amortize the
/// allocations. Exactly the positions a row-wise compression of
/// [`im2col`]'s output would keep, at cost `O(nnz(input) · KH·KW)` instead
/// of `O(C·KH·KW · OH·OW)` — the payoff for spiking activations that are
/// mostly zeros.
#[allow(clippy::too_many_arguments)] // im2col's signature + the two packed output vectors
pub fn im2col_packed(
    input: &[f32],
    g: &Conv2dGeometry,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    ptr: &mut Vec<u32>,
    pos: &mut Vec<u32>,
    pool: &ScratchPool,
) {
    debug_assert_eq!(input.len(), g.in_channels * h * w);
    let cr = g.col_rows();
    ptr.clear();
    ptr.resize(cr + 1, 0);
    // A pixel (c, iy, ix) lands in col row r = (c·KH + kh)·KW + kw at output
    // position (oy, ox) iff oy·stride + kh − pad == iy (and likewise for x).
    // Both passes visit pixels in row-major order, so positions within a row
    // come out ascending, exactly like compressing im2col's rows.
    fn each_entry<F: FnMut(usize, u32)>(
        g: &Conv2dGeometry,
        oh: usize,
        ow: usize,
        c: usize,
        iy: usize,
        ix: usize,
        f: &mut F,
    ) {
        for kh in 0..g.kernel_h {
            let oy_num = iy + g.padding;
            if oy_num < kh {
                break;
            }
            let oy_s = oy_num - kh;
            if !oy_s.is_multiple_of(g.stride) {
                continue;
            }
            let oy = oy_s / g.stride;
            if oy >= oh {
                continue;
            }
            for kw in 0..g.kernel_w {
                let ox_num = ix + g.padding;
                if ox_num < kw {
                    break;
                }
                let ox_s = ox_num - kw;
                if !ox_s.is_multiple_of(g.stride) {
                    continue;
                }
                let ox = ox_s / g.stride;
                if ox >= ow {
                    continue;
                }
                f(
                    (c * g.kernel_h + kh) * g.kernel_w + kw,
                    (oy * ow + ox) as u32,
                );
            }
        }
    }
    for c in 0..g.in_channels {
        let chan = &input[c * h * w..(c + 1) * h * w];
        for iy in 0..h {
            for ix in 0..w {
                if chan[iy * w + ix] != 0.0 {
                    each_entry(g, oh, ow, c, iy, ix, &mut |r, _| ptr[r + 1] += 1);
                }
            }
        }
    }
    for r in 0..cr {
        ptr[r + 1] += ptr[r];
    }
    let total = ptr[cr] as usize;
    pos.clear();
    pos.resize(total, 0);
    let mut cursor = pool.take_u32();
    cursor.extend_from_slice(&ptr[..cr]);
    for c in 0..g.in_channels {
        let chan = &input[c * h * w..(c + 1) * h * w];
        for iy in 0..h {
            for ix in 0..w {
                if chan[iy * w + ix] != 0.0 {
                    each_entry(g, oh, ow, c, iy, ix, &mut |r, p| {
                        pos[cursor[r] as usize] = p;
                        cursor[r] += 1;
                    });
                }
            }
        }
    }
    pool.give_u32(cursor);
}

/// Scatters an im2col-shaped gradient back onto a `(C, H, W)` input gradient
/// (accumulating where receptive fields overlap).
pub fn col2im(
    col: &[f32],
    g: &Conv2dGeometry,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    input_grad: &mut [f32],
) {
    debug_assert_eq!(input_grad.len(), g.in_channels * h * w);
    debug_assert_eq!(col.len(), g.col_rows() * oh * ow);
    let ow_total = oh * ow;
    for c in 0..g.in_channels {
        let chan = &mut input_grad[c * h * w..(c + 1) * h * w];
        for kh in 0..g.kernel_h {
            for kw in 0..g.kernel_w {
                let row_idx = (c * g.kernel_h + kh) * g.kernel_w + kw;
                let src_row = &col[row_idx * ow_total..(row_idx + 1) * ow_total];
                for oy in 0..oh {
                    let iy = (oy * g.stride + kh) as isize - g.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = &mut chan[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kw) as isize - g.padding as isize;
                        if ix >= 0 && ix < w as isize {
                            dst_row[ix as usize] += src_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

/// A weight plan must be the `(C·KH·KW) × F` column view of the weight.
fn check_pattern(pat: &Csr, g: &Conv2dGeometry, cr: usize) -> Result<()> {
    if pat.rows() != cr || pat.cols() != g.out_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![pat.rows(), pat.cols()],
            rhs: vec![cr, g.out_channels],
        });
    }
    Ok(())
}

fn check_input(input: &Tensor, g: &Conv2dGeometry) -> Result<(usize, usize, usize)> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input.rank(),
        });
    }
    let d = input.dims();
    if d[1] != g.in_channels {
        return Err(TensorError::InvalidGeometry(format!(
            "input has {} channels, geometry expects {}",
            d[1], g.in_channels
        )));
    }
    Ok((d[0], d[2], d[3]))
}

fn check_weight(weight: &Tensor, g: &Conv2dGeometry) -> Result<()> {
    if weight.dims() != g.weight_dims() {
        return Err(TensorError::ShapeMismatch {
            lhs: weight.dims().to_vec(),
            rhs: g.weight_dims().to_vec(),
        });
    }
    Ok(())
}

/// The weight operand of a forward convolution. Every choice produces the
/// bits of the dense tiles over the equivalent dense weight.
#[derive(Debug, Clone, Copy)]
pub enum ConvWeight<'a> {
    /// The live dense `(F, C, KH, KW)` weight: implicit-GEMM tiles with the
    /// epilogue fused per tile, or on a spike input the walk over every
    /// filter ([`spike_conv_fwd_dense`]).
    Dense(&'a Tensor),
    /// The live dense weight read through its plan: the index-only column
    /// view ([`Csr::from_mask_transposed`]) of the weight viewed as
    /// `F × (C·KH·KW)`, so `(C·KH·KW) × F`. The dense weight stays the
    /// source of truth for values and must be zero off the plan; its live
    /// values are gathered once per call ([`plan_values`]), after which it
    /// runs as [`ConvWeight::Cols`].
    Plan(&'a Tensor, &'a Csr),
    /// A column view as in [`ConvWeight::Plan`] and its values in entry
    /// order: a frozen f32 weight's ([`Csr::column_view`]).
    Cols(&'a Csr, &'a [f32]),
    /// A frozen int8 weight's column view, its values, and one requantize
    /// scale per filter: `i32` sums over the packed operand whatever
    /// `spikes` says (any non-zero input is a spike, as in
    /// [`crate::ops::quant::csr_xwt_i8`]), then [`requantize_rows`].
    Int8(&'a Csr, &'a [i8], &'a [f32]),
}

/// Forward convolution `(B, C, H, W) -> (B, F, OH, OW)`:
/// `out[s] = epi(W · im2col(x[s]))`, the epilogue's `row` being the output
/// channel.
///
/// `spikes` certifies the input binary: each sample is then packed to its
/// fired col rows ([`PackedSpikes`]) and [`spike_conv_fwd`] adds each live
/// weight at its row's fired taps — the walk training and frozen serving
/// share. Otherwise a column view runs [`im2col`] + [`sp_mm`], and a dense
/// weight the tiles. `epi` carries the bias ([`crate::ops::tile::BiasRow`],
/// or [`NoEpilogue`]) or the executor's frozen affine and LIF threshold
/// ([`crate::ops::tile::AffineRow`], [`crate::ops::tile::AffineLifRow`]);
/// every path applies it after each element's full accumulation, so the
/// path never changes a bit. The sparse paths run at most `BWD_MAX_BLOCKS`
/// sample blocks in parallel, each taking its workspaces from `pool` once.
pub fn conv2d_forward(
    input: &Tensor,
    weight: ConvWeight<'_>,
    g: &Conv2dGeometry,
    spikes: bool,
    epi: &impl TileEpilogue,
    pool: &ScratchPool,
) -> Result<Tensor> {
    let (b, h, w) = check_input(input, g)?;
    let (oh, ow) = g.output_hw(h, w)?;
    let (cr, spatial) = (g.col_rows(), oh * ow);
    let mut out = Tensor::zeros([b, g.out_channels, oh, ow]);
    let in_stride = g.in_channels * h * w;
    let out_stride = g.out_channels * spatial;
    if let (ConvWeight::Dense(wt), false) = (weight, spikes) {
        check_weight(wt, g)?;
        let layout = Im2colLayout::new(g, h, w, oh, ow);
        let (x, o) = (input.as_slice(), out.as_mut_slice());
        conv_fwd_tiled(
            wt.as_slice(),
            x,
            &layout,
            b,
            in_stride,
            o,
            out_stride,
            epi,
            pool,
        );
        return Ok(out);
    }
    // The plan's live values, gathered once for every sample.
    let mut live = pool.take(0);
    let weight = match weight {
        ConvWeight::Dense(wt) => {
            check_weight(wt, g)?;
            weight
        }
        ConvWeight::Plan(wt, pat) => {
            check_weight(wt, g)?;
            check_pattern(pat, g, cr)?;
            plan_values(pat, wt.as_slice(), &mut live);
            ConvWeight::Cols(pat, &live)
        }
        ConvWeight::Cols(pat, _) | ConvWeight::Int8(pat, ..) => {
            check_pattern(pat, g, cr)?;
            weight
        }
    };
    let int8 = matches!(weight, ConvWeight::Int8(..));
    let walk = spikes || int8;
    // Samples write disjoint output slices, so sample blocks parallelize
    // across cores (inline on single-core hosts; see `crate::parallel`).
    let in_data = input.as_slice();
    let block = b.div_ceil(BWD_MAX_BLOCKS).max(1);
    let chunks: Vec<(usize, &mut [f32])> = out
        .as_mut_slice()
        .chunks_mut((block * out_stride).max(1))
        .enumerate()
        .collect();
    crate::parallel::parallel_for_chunks(chunks, |bi, out_block| {
        let mut packed = walk.then(|| PackedSpikes::take(pool));
        // im2col writes every element (padding included), so stale pooled
        // contents are fine.
        let mut col = (!walk).then(|| pool.take(cr * spatial));
        let mut acc = int8.then(|| pool.take_i32_zeroed(out_stride));
        for (i, out_chunk) in out_block.chunks_mut(out_stride.max(1)).enumerate() {
            let s = bi * block + i;
            let sample = &in_data[s * in_stride..(s + 1) * in_stride];
            if let Some(x) = packed.as_mut() {
                x.pack(sample, g, h, w, oh, ow, pool);
            }
            match (weight, packed.as_ref(), col.as_mut(), acc.as_mut()) {
                (ConvWeight::Dense(wt), Some(x), ..) => {
                    spike_conv_fwd_dense(wt.as_slice(), x, out_chunk, spatial)
                }
                (ConvWeight::Cols(pat, vals), Some(x), ..) => {
                    spike_conv_fwd(pat, vals, x, out_chunk, spatial)
                }
                (ConvWeight::Cols(pat, vals), None, Some(col), _) => {
                    im2col(sample, g, h, w, oh, ow, col);
                    sp_mm(pat, vals, col, out_chunk, spatial);
                }
                (ConvWeight::Int8(pat, q, scales), Some(x), _, Some(acc)) => {
                    acc.fill(0);
                    spike_conv_fwd(pat, q, x, acc, spatial);
                    requantize_rows(acc, scales, out_chunk, spatial);
                }
                _ => unreachable!("tiles returned early and plans run as column views"),
            }
            if !epi.is_noop() {
                for (f, row) in out_chunk.chunks_mut(spatial).enumerate() {
                    epi.apply(f, 0, row);
                }
            }
        }
        if let Some(x) = packed {
            x.give(pool);
        }
        if let Some(col) = col {
            pool.give(col);
        }
        if let Some(acc) = acc {
            pool.give_i32(acc);
        }
    });
    pool.give(live);
    Ok(out)
}

/// Gradients of a convolution.
#[derive(Debug)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, shaped like the input.
    pub input_grad: Tensor,
    /// Gradient with respect to the weight, shaped like the weight.
    /// This is the *accumulated* gradient over the batch.
    pub weight_grad: Tensor,
    /// Gradient with respect to the bias (length `F`).
    pub bias_grad: Tensor,
}

/// Epilogue for the per-sample dW staging GEMM: folds each finished output
/// tile of the staging buffer into the running block accumulator `acc`
/// (`*wv += sv`, the exact chain of the fold loop it replaces) and resets
/// the staging element to `0.0` so the next sample's `C += A·B` again starts
/// from zero — all while the tile is cache-hot, saving two full passes over
/// the weight-sized staging buffer per sample.
struct FoldAndRezero<'a> {
    acc: SharedSlice<'a, f32>,
    /// Row stride (output columns) shared by the staging buffer and `acc`.
    n: usize,
}

impl TileEpilogue for FoldAndRezero<'_> {
    fn apply(&self, row: usize, j0: usize, seg: &mut [f32]) {
        // SAFETY: tiles partition the output, `acc` mirrors its layout, and
        // the epilogue visits each output element exactly once per call.
        let dst = unsafe { self.acc.slice_mut(row * self.n + j0, seg.len()) };
        for (wv, sv) in dst.iter_mut().zip(seg.iter_mut()) {
            *wv += *sv;
            *sv = 0.0;
        }
    }
}

/// The dispatches of a backward convolution. They compose freely;
/// [`ConvBackward::default()`] is the dense backward.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvBackward<'a> {
    /// The weight plan's column view, as in [`ConvWeight::Plan`]: the
    /// col-gradient product `Wᵀ·gy` runs over live weights only
    /// ([`sp_mm_t`]).
    pub weight_plan: Option<&'a Csr>,
    /// The input is binary spikes: `dW = gy · colᵀ` walks each sample's
    /// packed operand ([`im2col_packed`], [`spike_conv_dw`]), rebuilt from
    /// the input, so only col rows with a fired position are visited.
    pub spike_gather_dw: bool,
    /// The receiver population's per-timestep active set (a `b × C·H·W`
    /// index-only [`Csr`] over the conv *input*) and the caller's
    /// [`Csr::from_dense_transposed`] pack of this weight viewed as
    /// `F × (C·KH·KW)`: `dX` is computed only at active pixels
    /// ([`gather_conv_dx`]) and stays `0.0` elsewhere.
    pub active_dx: Option<(&'a Csr, &'a Csr<f32>)>,
}

/// Backward convolution. `grad_out` is `(B, F, OH, OW)`; `weight` must have
/// the geometry's dims.
///
/// The batch is split into at most `BWD_MAX_BLOCKS` (8) contiguous sample
/// blocks. Each worker owns a block: it writes the block's `input_grad`
/// slice directly (disjoint by construction) and accumulates `dW`/`dBias`
/// into block-private partials, which are then reduced in ascending block
/// order. Because the partition depends only on the batch size, the
/// floating-point reduction order — and therefore the result — is identical
/// for any thread count. Workspaces come from `pool`.
///
/// The dispatches in `dispatch` never change a bit on their preconditions
/// (a weight zero off its plan, a binary input). The spike-gather `dW` is
/// dense-valued, so drop/grow decisions that read gradients are unchanged by
/// it, and `dBias` is always computed dense. The active-set `dX` replaces
/// the `dCol` product and `col2im` scatter: in the dense accumulation order
/// at active input pixels, `0.0` elsewhere — exact for downstream consumers
/// that multiply `dX` by the surrogate derivative (see
/// [`crate::ops::grad`]). Its packed transpose is taken by reference so
/// callers can amortize one pack across every timestep of a BPTT backward
/// (weights only change between batches); it composes with a weight plan
/// through the kernels' masked-weight zero skip.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    g: &Conv2dGeometry,
    dispatch: &ConvBackward<'_>,
    pool: &ScratchPool,
) -> Result<Conv2dGrads> {
    let ConvBackward {
        weight_plan: pattern,
        spike_gather_dw: spike_gather,
        active_dx: active,
    } = *dispatch;
    let (b, h, w) = check_input(input, g)?;
    check_weight(weight, g)?;
    let (oh, ow) = g.output_hw(h, w)?;
    if grad_out.dims() != [b, g.out_channels, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.dims().to_vec(),
            rhs: vec![b, g.out_channels, oh, ow],
        });
    }
    let (cr, spatial) = (g.col_rows(), oh * ow);
    if let Some(pat) = pattern {
        check_pattern(pat, g, cr)?;
    }
    if let Some((ab, pwt)) = active {
        if ab.rows() != b || ab.cols() != g.in_channels * h * w {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![ab.rows(), ab.cols()],
                rhs: vec![b, g.in_channels * h * w],
            });
        }
        if pwt.rows() != cr || pwt.cols() != g.out_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![pwt.rows(), pwt.cols()],
                rhs: vec![cr, g.out_channels],
            });
        }
    }
    let mut input_grad = Tensor::zeros(input.shape().clone());
    let mut weight_grad = Tensor::zeros(weight.shape().clone());
    let mut bias_grad = Tensor::zeros([g.out_channels]);
    let in_stride = g.in_channels * h * w;
    let out_stride = g.out_channels * spatial;
    let wlen = g.out_channels * cr;

    let layout = Im2colLayout::new(g, h, w, oh, ow);
    let w_data = weight.as_slice();
    let in_data = input.as_slice();
    let gy_data = grad_out.as_slice();

    if b == 0 {
        return Ok(Conv2dGrads {
            input_grad,
            weight_grad,
            bias_grad,
        });
    }
    // The plan's live values, gathered once for every sample's `dCol`.
    let mut live = pool.take(0);
    if let (Some(pat), None) = (pattern, active) {
        plan_values(pat, w_data, &mut live);
    }
    let block = b.div_ceil(BWD_MAX_BLOCKS).max(1);
    let nblocks = b.div_ceil(block);
    // One (dW, dBias) partial per block, filled by the workers and reduced
    // below in block order.
    type GradPartial = Option<(Vec<f32>, Vec<f32>)>;
    let mut partials: Vec<GradPartial> = (0..nblocks).map(|_| None).collect();
    let chunks: Vec<(usize, (&mut [f32], &mut GradPartial))> = input_grad
        .as_mut_slice()
        .chunks_mut(block * in_stride)
        .zip(partials.iter_mut())
        .enumerate()
        .collect();
    crate::parallel::parallel_for_chunks(chunks, |bi, (ig_chunk, slot)| {
        let s0 = bi * block;
        let samples = ig_chunk.len() / in_stride.max(1);
        // The spike dW kernel walks each sample's packed operand; the dense
        // path packs its panels straight from the input sample.
        let mut packed = spike_gather.then(|| PackedSpikes::take(pool));
        // The active-set path never materializes the col gradient; it tapers
        // straight into the needed input pixels instead.
        let mut col_grad = (active.is_none()).then(|| pool.take(cr * spatial));
        let mut gyt = active.map(|_| pool.take(spatial * g.out_channels));
        let mut wg = pool.take_zeroed(wlen);
        // Per-sample dW staging: the tiled GEMM computes the sample's full
        // contribution from zero, then the fused epilogue folds it into the
        // running `wg` with one add per element — the exact `wv += acc`
        // chain of the reference's per-(f,r) dot loop, so block partials
        // stay bit-identical — and restores the staging to zero for the next
        // sample while the tile is still cache-hot. That fusion replaces
        // two extra `wlen`-sized passes (a `fill(0.0)` and a separate fold
        // loop), which dominate the dW cost at small spatial sizes.
        let mut wg_sample = (!spike_gather).then(|| pool.take_zeroed(wlen));
        let mut bg = vec![0.0f32; g.out_channels];
        for s in 0..samples {
            let sample = &in_data[(s0 + s) * in_stride..(s0 + s + 1) * in_stride];
            let gy = &gy_data[(s0 + s) * out_stride..(s0 + s + 1) * out_stride];
            // dW += gy (F × spatial) · im2col(x)ᵀ (spatial × cr)
            if let Some(x) = packed.as_mut() {
                x.pack(sample, g, h, w, oh, ow, pool);
                spike_conv_dw(gy, x, &mut wg, g.out_channels, spatial);
            } else {
                let wg_sample = wg_sample.as_mut().expect("dense dW takes staging");
                gemm_tiled(
                    PanelA::Rows(gy),
                    PanelB::Im2colT(&layout, sample),
                    wg_sample,
                    g.out_channels,
                    spatial,
                    cr,
                    &FoldAndRezero {
                        acc: SharedSlice::new(&mut wg),
                        n: cr,
                    },
                    pool,
                );
            }
            // dBias
            for f in 0..g.out_channels {
                bg[f] += gy[f * spatial..(f + 1) * spatial].iter().sum::<f32>();
            }
            match (active, gyt.as_mut()) {
                (Some((ab, pwt)), Some(gyt)) => {
                    // dX at the receiver's active pixels only — no dCol
                    // product, no col2im scatter.
                    transpose_into(gy, g.out_channels, spatial, gyt);
                    gather_conv_dx(
                        pwt,
                        gyt,
                        ab.row(s0 + s),
                        g,
                        h,
                        w,
                        oh,
                        ow,
                        &mut ig_chunk[s * in_stride..(s + 1) * in_stride],
                    );
                }
                _ => {
                    // dCol = Wᵀ (cr × F) · gy (F × spatial), then scatter
                    // with col2im. The dense product reads the row-major
                    // weight through a transposed panel layout — no `wt`
                    // copy.
                    let col_grad = col_grad.as_mut().expect("dense path takes a col buffer");
                    col_grad.fill(0.0);
                    match pattern {
                        Some(pat) => sp_mm_t(pat, &live, gy, col_grad, spatial),
                        None => gemm_tiled(
                            PanelA::Cols(w_data),
                            PanelB::Rows(gy),
                            col_grad,
                            cr,
                            g.out_channels,
                            spatial,
                            &NoEpilogue,
                            pool,
                        ),
                    }
                    col2im(
                        col_grad,
                        g,
                        h,
                        w,
                        oh,
                        ow,
                        &mut ig_chunk[s * in_stride..(s + 1) * in_stride],
                    );
                }
            }
        }
        if let Some(packed) = packed {
            packed.give(pool);
        }
        if let Some(col_grad) = col_grad {
            pool.give(col_grad);
        }
        if let Some(gyt) = gyt {
            pool.give(gyt);
        }
        if let Some(wg_sample) = wg_sample {
            pool.give(wg_sample);
        }
        *slot = Some((wg, bg));
    });

    let wg_total = weight_grad.as_mut_slice();
    let bg_total = bias_grad.as_mut_slice();
    for slot in partials {
        let (wg, bg) = slot.expect("every block produced a partial");
        for (t, v) in wg_total.iter_mut().zip(&wg) {
            *t += v;
        }
        for (t, v) in bg_total.iter_mut().zip(&bg) {
            *t += v;
        }
        pool.give(wg);
    }
    pool.give(live);
    Ok(Conv2dGrads {
        input_grad,
        weight_grad,
        bias_grad,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::tile::BiasRow;
    use crate::reference;
    use rand::{rngs::StdRng, SeedableRng};

    fn fwd(input: &Tensor, weight: &Tensor, g: &Conv2dGeometry) -> Result<Tensor> {
        conv2d_forward(
            input,
            ConvWeight::Dense(weight),
            g,
            false,
            &NoEpilogue,
            &ScratchPool::new(),
        )
    }

    fn bwd(x: &Tensor, w: &Tensor, gy: &Tensor, g: &Conv2dGeometry) -> Result<Conv2dGrads> {
        conv2d_backward(x, w, gy, g, &ConvBackward::default(), &ScratchPool::new())
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn im2col_packed_matches_compressed_im2col() {
        let mut rng = StdRng::seed_from_u64(0x51);
        let geoms = [
            Conv2dGeometry::square(3, 4, 3, 1, 1),
            Conv2dGeometry::square(2, 4, 3, 2, 1),
            Conv2dGeometry::square(1, 2, 1, 1, 0),
            Conv2dGeometry {
                in_channels: 2,
                out_channels: 3,
                kernel_h: 3,
                kernel_w: 2,
                stride: 2,
                padding: 2,
            },
        ];
        let pool = ScratchPool::new();
        for g in geoms {
            let (h, w) = (7, 6);
            let (oh, ow) = g.output_hw(h, w).unwrap();
            for density in [0.0, 0.3, 1.0] {
                let mut input = crate::init::uniform([1, g.in_channels, h, w], -1.0, 1.0, &mut rng);
                for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                    if (i % 10) as f64 >= density * 10.0 {
                        *v = 0.0;
                    }
                }
                let mut col = vec![0.0; g.col_rows() * oh * ow];
                im2col(input.as_slice(), &g, h, w, oh, ow, &mut col);
                let (mut ptr, mut pos) = (Vec::new(), Vec::new());
                im2col_packed(
                    input.as_slice(),
                    &g,
                    h,
                    w,
                    oh,
                    ow,
                    &mut ptr,
                    &mut pos,
                    &pool,
                );
                assert_eq!(ptr.len(), g.col_rows() + 1);
                let (mut eptr, mut epos) = (vec![0u32], Vec::new());
                for row in col.chunks_exact(oh * ow) {
                    epos.extend((0..oh * ow).filter(|&p| row[p] != 0.0).map(|p| p as u32));
                    eptr.push(epos.len() as u32);
                }
                assert_eq!(ptr, eptr, "geometry {g:?} density {density}");
                assert_eq!(pos, epos, "geometry {g:?} density {density}");
            }
        }
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = Conv2dGeometry::square(3, 5, 3, 1, 1);
        let input = crate::init::uniform([2, 3, 7, 6], -1.0, 1.0, &mut rng);
        let weight = crate::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let got = fwd(&input, &weight, &g).unwrap();
        let want = reference::conv2d_forward(&input, &weight, None, &g);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn forward_strided() {
        let mut rng = StdRng::seed_from_u64(43);
        let g = Conv2dGeometry::square(2, 4, 3, 2, 1);
        let input = crate::init::uniform([1, 2, 8, 8], -1.0, 1.0, &mut rng);
        let weight = crate::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let got = fwd(&input, &weight, &g).unwrap();
        assert_eq!(got.dims(), &[1, 4, 4, 4]);
        let want = reference::conv2d_forward(&input, &weight, None, &g);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn bias_broadcasts_per_channel() {
        let g = Conv2dGeometry::square(1, 2, 1, 1, 0);
        let input = Tensor::ones([1, 1, 2, 2]);
        let weight = Tensor::from_vec(g.weight_dims(), vec![1.0, -1.0]).unwrap();
        let bias = [10.0, 20.0];
        let pool = ScratchPool::new();
        let out = conv2d_forward(
            &input,
            ConvWeight::Dense(&weight),
            &g,
            false,
            &BiasRow(&bias),
            &pool,
        )
        .unwrap();
        assert_eq!(out.get(&[0, 0, 0, 0]), 11.0);
        assert_eq!(out.get(&[0, 1, 1, 1]), 19.0);
    }

    /// Finite-difference check of both weight and input gradients.
    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(44);
        let g = Conv2dGeometry::square(2, 3, 3, 1, 1);
        let input = crate::init::uniform([2, 2, 5, 5], -1.0, 1.0, &mut rng);
        let weight = crate::init::uniform(g.weight_dims(), -0.5, 0.5, &mut rng);
        // Loss = sum(conv(input, weight)), so grad_out = ones.
        let (oh, ow) = g.output_hw(5, 5).unwrap();
        let grad_out = Tensor::ones([2, 3, oh, ow]);
        let grads = bwd(&input, &weight, &grad_out, &g).unwrap();

        let eps = 1e-3;
        let loss = |wt: &Tensor, inp: &Tensor| -> f32 { fwd(inp, wt, &g).unwrap().sum() };
        // Spot-check several weight coordinates.
        for &idx in &[0usize, 7, 20, weight.len() - 1] {
            let mut wp = weight.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = weight.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&wp, &input) - loss(&wm, &input)) / (2.0 * eps);
            let an = grads.weight_grad.as_slice()[idx];
            assert!((fd - an).abs() < 2e-2, "weight[{idx}]: fd={fd} an={an}");
        }
        // Spot-check several input coordinates.
        for &idx in &[0usize, 13, 49, input.len() - 1] {
            let mut ip = input.clone();
            ip.as_mut_slice()[idx] += eps;
            let mut im = input.clone();
            im.as_mut_slice()[idx] -= eps;
            let fd = (loss(&weight, &ip) - loss(&weight, &im)) / (2.0 * eps);
            let an = grads.input_grad.as_slice()[idx];
            assert!((fd - an).abs() < 2e-2, "input[{idx}]: fd={fd} an={an}");
        }
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the two lowerings must be
        // adjoint linear maps for backprop to be correct.
        let mut rng = StdRng::seed_from_u64(45);
        let g = Conv2dGeometry::square(2, 1, 3, 2, 1);
        let (h, w) = (6, 5);
        let (oh, ow) = g.output_hw(h, w).unwrap();
        let x = crate::init::uniform([2 * h * w], -1.0, 1.0, &mut rng);
        let y = crate::init::uniform([g.col_rows() * oh * ow], -1.0, 1.0, &mut rng);
        let mut cx = vec![0.0; g.col_rows() * oh * ow];
        im2col(x.as_slice(), &g, h, w, oh, ow, &mut cx);
        let lhs: f32 = cx.iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let mut xty = vec![0.0; 2 * h * w];
        col2im(y.as_slice(), &g, h, w, oh, ow, &mut xty);
        let rhs: f32 = xty.iter().zip(x.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// A reused pool must give the bits of a fresh one (only the workspace
    /// source differs) and actually recycle buffers across calls.
    #[test]
    fn pooled_conv_bit_identical_and_reuses_scratch() {
        let mut rng = StdRng::seed_from_u64(46);
        let g = Conv2dGeometry::square(3, 4, 3, 1, 1);
        let input = crate::init::uniform([6, 3, 9, 9], -1.0, 1.0, &mut rng);
        let weight = crate::init::uniform(g.weight_dims(), -0.5, 0.5, &mut rng);
        let bias = crate::init::uniform([4], -0.1, 0.1, &mut rng);
        let epi = BiasRow(bias.as_slice());
        let (oh, ow) = g.output_hw(9, 9).unwrap();
        let grad_out = crate::init::uniform([6, 4, oh, ow], -1.0, 1.0, &mut rng);
        let dense = ConvBackward::default();

        // Serial, so the pool's peak demand is fixed: threaded, it depends on
        // how many sample blocks happen to hold buffers at once, and a later
        // call that sees more concurrency may legitimately grow the pool.
        crate::parallel::run_serial(|| {
            let pool = ScratchPool::new();
            for _ in 0..3 {
                let tiles = ConvWeight::Dense(&weight);
                let out = conv2d_forward(&input, tiles, &g, false, &epi, &pool).unwrap();
                let fresh =
                    conv2d_forward(&input, tiles, &g, false, &epi, &ScratchPool::new()).unwrap();
                assert_eq!(out.as_slice(), fresh.as_slice());

                let grads = conv2d_backward(&input, &weight, &grad_out, &g, &dense, &pool).unwrap();
                let fresh = bwd(&input, &weight, &grad_out, &g).unwrap();
                assert_eq!(grads.input_grad.as_slice(), fresh.input_grad.as_slice());
                assert_eq!(grads.weight_grad.as_slice(), fresh.weight_grad.as_slice());
                assert_eq!(grads.bias_grad.as_slice(), fresh.bias_grad.as_slice());
            }
            // All taken buffers were returned; subsequent calls reuse them.
            assert!(pool.idle_buffers() > 0);
            let retained = pool.retained_capacity();
            let _ = conv2d_backward(&input, &weight, &grad_out, &g, &dense, &pool).unwrap();
            assert_eq!(
                pool.retained_capacity(),
                retained,
                "steady-state backward must not grow the pool"
            );
        });
    }

    /// The weight-plan dispatch must reproduce the dense result bit for bit
    /// on a masked weight: the skipped terms are exact zero products on a
    /// `+0.0`-seeded ascending chain.
    #[test]
    fn exec_with_pattern_matches_dense_on_masked_weight() {
        let mut rng = StdRng::seed_from_u64(47);
        let g = Conv2dGeometry::square(3, 6, 3, 1, 1);
        let input = crate::init::uniform([3, 3, 8, 8], -1.0, 1.0, &mut rng);
        let mut weight = crate::init::uniform(g.weight_dims(), -0.5, 0.5, &mut rng);
        // Keep ~30% of the weight; the rest is masked to exact zero.
        let mut mask = vec![0.0f32; weight.len()];
        for (i, m) in mask.iter_mut().enumerate() {
            if i % 10 < 3 {
                *m = 1.0;
            }
        }
        for (wv, m) in weight.as_mut_slice().iter_mut().zip(&mask) {
            *wv *= m;
        }
        let pat = Csr::from_mask_transposed(g.out_channels, g.col_rows(), &mask);
        let pool = ScratchPool::new();
        let (oh, ow) = g.output_hw(8, 8).unwrap();
        let grad_out = crate::init::uniform([3, 6, oh, ow], -1.0, 1.0, &mut rng);
        let plan = ConvBackward {
            weight_plan: Some(&pat),
            ..ConvBackward::default()
        };

        let dense = fwd(&input, &weight, &g).unwrap();
        let planned = ConvWeight::Plan(&weight, &pat);
        let sparse = conv2d_forward(&input, planned, &g, false, &NoEpilogue, &pool).unwrap();
        assert_eq!(bits(&sparse), bits(&dense));

        let dg = bwd(&input, &weight, &grad_out, &g).unwrap();
        let sg = conv2d_backward(&input, &weight, &grad_out, &g, &plan, &pool).unwrap();
        assert_eq!(bits(&sg.input_grad), bits(&dg.input_grad));
        assert_eq!(bits(&sg.weight_grad), bits(&dg.weight_grad));
        assert_eq!(bits(&sg.bias_grad), bits(&dg.bias_grad));

        // A pattern whose shape disagrees with the geometry is rejected, and
        // so is the row view: plans are the column view.
        let row_view = Csr::from_mask(g.out_channels, g.col_rows(), &mask);
        for spikes in [false, true] {
            let planned = ConvWeight::Plan(&weight, &row_view);
            assert!(conv2d_forward(&input, planned, &g, spikes, &NoEpilogue, &pool).is_err());
        }
        let bad = Csr::from_mask(1, 2, &[1.0, 0.0]);
        let bad_plan = ConvBackward {
            weight_plan: Some(&bad),
            ..ConvBackward::default()
        };
        let planned = ConvWeight::Plan(&weight, &bad);
        assert!(conv2d_forward(&input, planned, &g, false, &NoEpilogue, &pool).is_err());
        assert!(conv2d_backward(&input, &weight, &grad_out, &g, &bad_plan, &pool).is_err());
    }

    /// The spike dispatch must equal dense execution bit-for-bit on a binary
    /// input — forward output (bias epilogue included) and all three
    /// gradients, without a weight plan and with one on a masked weight.
    #[test]
    fn exec_with_spike_gather_bit_identical_on_binary_input() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(48);
        let g = Conv2dGeometry::square(3, 6, 3, 1, 1);
        let mut input = Tensor::zeros([4, 3, 8, 8]);
        for v in input.as_mut_slice() {
            if rng.gen_bool(0.2) {
                *v = 1.0;
            }
        }
        let weight = crate::init::uniform(g.weight_dims(), -0.5, 0.5, &mut rng);
        let mask: Vec<f32> = (0..weight.len()).map(|i| f32::from(i % 4 == 1)).collect();
        let plan = Csr::from_mask_transposed(g.out_channels, g.col_rows(), &mask);
        let mut masked = weight.clone();
        for (wv, m) in masked.as_mut_slice().iter_mut().zip(&mask) {
            *wv *= m;
        }
        let bias = crate::init::uniform([6], -0.1, 0.1, &mut rng);
        let epi = BiasRow(bias.as_slice());
        let (oh, ow) = g.output_hw(8, 8).unwrap();
        let grad_out = crate::init::uniform([4, 6, oh, ow], -1.0, 1.0, &mut rng);
        let pool = ScratchPool::new();

        for (w, plan) in [(&weight, None), (&masked, Some(&plan))] {
            let dense = conv2d_forward(&input, ConvWeight::Dense(w), &g, false, &epi, &pool);
            let weight = plan.map_or(ConvWeight::Dense(w), |p| ConvWeight::Plan(w, p));
            let spike = conv2d_forward(&input, weight, &g, true, &epi, &pool).unwrap();
            let dense = dense.unwrap();
            assert_eq!(bits(&spike), bits(&dense));

            let gather = ConvBackward {
                weight_plan: plan,
                spike_gather_dw: true,
                ..ConvBackward::default()
            };
            let dg = bwd(&input, w, &grad_out, &g).unwrap();
            let sg = conv2d_backward(&input, w, &grad_out, &g, &gather, &pool).unwrap();
            assert_eq!(bits(&sg.weight_grad), bits(&dg.weight_grad));
            assert_eq!(bits(&sg.input_grad), bits(&dg.input_grad));
            assert_eq!(bits(&sg.bias_grad), bits(&dg.bias_grad));
        }
    }

    #[test]
    fn invalid_geometry_rejected() {
        let g = Conv2dGeometry::square(1, 1, 9, 1, 0);
        let input = Tensor::zeros([1, 1, 4, 4]);
        let weight = Tensor::zeros(g.weight_dims());
        assert!(fwd(&input, &weight, &g).is_err());

        // A weight smaller or larger than the geometry's dims is a shape
        // error in both directions — never a panic in the tile packer, never
        // a wrongly shaped gradient.
        let g = Conv2dGeometry::square(2, 3, 3, 1, 1);
        let x = Tensor::zeros([1, 2, 5, 5]);
        let gy = Tensor::zeros([1, 3, 5, 5]);
        for dims in [[3, 2, 2, 2], [4, 2, 3, 3]] {
            let w = Tensor::zeros(dims);
            assert!(matches!(
                fwd(&x, &w, &g),
                Err(TensorError::ShapeMismatch { .. })
            ));
            assert!(matches!(
                bwd(&x, &w, &gy, &g),
                Err(TensorError::ShapeMismatch { .. })
            ));
        }
    }
}
