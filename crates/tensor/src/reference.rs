//! Deliberately naive reference kernels: the oracle every fast dense path
//! is differentially tested against.
//!
//! Plain index loops — no tiling, no packing, no scratch pool, no threads,
//! no sparsity. Each function performs one fixed f32 operation sequence, and
//! that sequence *is* the bit-identity contract of the fast kernels
//! (`tests/tile_identity.rs` asserts `to_bits` equality at any thread count):
//!
//! - every product element is a `+0.0`-seeded chain of `acc += a·b` in
//!   ascending shared-dimension order;
//! - a bias is added to the finished element;
//! - conv `dX` scatters the col gradient `Wᵀ·gy` onto the input in
//!   [`crate::ops::conv::col2im`]'s order (`c, kh, kw` then `oy, ox`
//!   ascending);
//! - conv `dW`/`dBias` sum per-sample contributions within each sample
//!   block, then the block partials in block order. The batch splits into at
//!   most `BWD_MAX_BLOCKS` contiguous blocks sized from the batch alone; the
//!   partition is part of the contract because f32 addition does not
//!   associate.
//!
//! Slow by design and panicking on shapes that disagree: use it in tests.

use crate::ops::conv::{Conv2dGeometry, Conv2dGrads, BWD_MAX_BLOCKS};
use crate::tensor::Tensor;

/// `C(m×n) = A(m×k) · B(k×n)`, all row-major.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    product(m, k, n, |i, p| a[i * k + p], |p, j| b[p * n + j])
}

/// `C(m×n) = Aᵀ · B` with `A` stored `k×m` and `B` `k×n`.
pub fn matmul_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    product(m, k, n, |i, p| a[p * m + i], |p, j| b[p * n + j])
}

/// `C(m×n) = A · Bᵀ` with `A` `m×k` and `B` stored `n×k`.
pub fn matmul_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    product(m, k, n, |i, p| a[i * k + p], |p, j| b[j * k + p])
}

fn product(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// A convolution's shapes, checked against its geometry. Col rows
/// `r = (c·KH + kh)·KW + kw` and output positions `p = oy·OW + ox` index the
/// implicit im2col matrix, exactly as [`crate::ops::conv::im2col`] lays it
/// out.
struct ConvShape<'g> {
    g: &'g Conv2dGeometry,
    b: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

impl<'g> ConvShape<'g> {
    fn new(g: &'g Conv2dGeometry, input: &Tensor, weight: &Tensor) -> ConvShape<'g> {
        let d = input.dims();
        assert!(input.rank() == 4 && d[1] == g.in_channels, "input {d:?}");
        assert_eq!(weight.dims(), g.weight_dims(), "weight shape");
        let (oh, ow) = g.output_hw(d[2], d[3]).expect("kernel fits the input");
        ConvShape {
            g,
            b: d[0],
            h: d[2],
            w: d[3],
            oh,
            ow,
        }
    }

    fn spatial(&self) -> usize {
        self.oh * self.ow
    }

    /// Flat input index that col row `r` reads at output position `p` of
    /// sample `s`, or `None` in the zero padding.
    fn input_index(&self, s: usize, r: usize, p: usize) -> Option<usize> {
        let g = self.g;
        let (c, kh, kw) = (
            r / (g.kernel_h * g.kernel_w),
            r / g.kernel_w % g.kernel_h,
            r % g.kernel_w,
        );
        let (oy, ox) = (p / self.ow, p % self.ow);
        let iy = (oy * g.stride + kh).checked_sub(g.padding)?;
        let ix = (ox * g.stride + kw).checked_sub(g.padding)?;
        (iy < self.h && ix < self.w).then(|| ((s * g.in_channels + c) * self.h + iy) * self.w + ix)
    }

    /// im2col entry `(r, p)` of sample `s`.
    fn col(&self, x: &[f32], s: usize, r: usize, p: usize) -> f32 {
        self.input_index(s, r, p).map_or(0.0, |i| x[i])
    }
}

/// Forward convolution `(B, C, H, W) -> (B, F, OH, OW)`: each output is the
/// chain over col rows `r` of `W[f, r] · im2col(x[s])[r, p]` (`0.0` in the
/// padding), then `+ bias[f]`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
) -> Tensor {
    let sh = ConvShape::new(g, input, weight);
    let (f_n, cr, sp) = (g.out_channels, g.col_rows(), sh.spatial());
    let (x, w) = (input.as_slice(), weight.as_slice());
    let mut out = Tensor::zeros([sh.b, f_n, sh.oh, sh.ow]);
    let od = out.as_mut_slice();
    for s in 0..sh.b {
        for f in 0..f_n {
            for p in 0..sp {
                let mut acc = 0.0f32;
                for r in 0..cr {
                    acc += w[f * cr + r] * sh.col(x, s, r, p);
                }
                if let Some(bias) = bias {
                    acc += bias[f];
                }
                od[(s * f_n + f) * sp + p] = acc;
            }
        }
    }
    out
}

/// Backward convolution for `grad_out` `(B, F, OH, OW)`.
///
/// Per sample: `dW[f, r]` gains the chain over `p` of
/// `gy[f, p] · im2col(x)[r, p]`, `dBias[f]` the chain over `p` of
/// `gy[f, p]`, and `dX` the col gradient `Σ_f W[f, r] · gy[f, p]` scattered
/// in col2im order. `dW`/`dBias` reduce through the sample blocks described
/// in the module docs.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    g: &Conv2dGeometry,
) -> Conv2dGrads {
    let sh = ConvShape::new(g, input, weight);
    let (f_n, cr, sp) = (g.out_channels, g.col_rows(), sh.spatial());
    assert_eq!(grad_out.dims(), [sh.b, f_n, sh.oh, sh.ow], "grad_out shape");
    let (x, w, gy) = (input.as_slice(), weight.as_slice(), grad_out.as_slice());
    let mut input_grad = Tensor::zeros(input.shape().clone());
    let mut weight_grad = Tensor::zeros(weight.shape().clone());
    let mut bias_grad = Tensor::zeros([f_n]);
    let block = sh.b.div_ceil(BWD_MAX_BLOCKS).max(1);
    for s0 in (0..sh.b).step_by(block) {
        let mut dw = vec![0.0f32; f_n * cr];
        let mut db = vec![0.0f32; f_n];
        for s in s0..(s0 + block).min(sh.b) {
            let gy = &gy[s * f_n * sp..(s + 1) * f_n * sp];
            for f in 0..f_n {
                for r in 0..cr {
                    let mut acc = 0.0f32;
                    for p in 0..sp {
                        acc += gy[f * sp + p] * sh.col(x, s, r, p);
                    }
                    dw[f * cr + r] += acc;
                }
                let mut acc = 0.0f32;
                for p in 0..sp {
                    acc += gy[f * sp + p];
                }
                db[f] += acc;
            }
            let dx = input_grad.as_mut_slice();
            for r in 0..cr {
                for p in 0..sp {
                    let mut acc = 0.0f32;
                    for f in 0..f_n {
                        acc += w[f * cr + r] * gy[f * sp + p];
                    }
                    if let Some(i) = sh.input_index(s, r, p) {
                        dx[i] += acc;
                    }
                }
            }
        }
        for (t, v) in weight_grad.as_mut_slice().iter_mut().zip(&dw) {
            *t += v;
        }
        for (t, v) in bias_grad.as_mut_slice().iter_mut().zip(&db) {
            *t += v;
        }
    }
    Conv2dGrads {
        input_grad,
        weight_grad,
        bias_grad,
    }
}
