//! Trainable parameters.

use ndsnn_tensor::{Csr, Tensor};

use crate::error::{Result, SnnError};

/// Role of a parameter, used by the sparse-training engines to decide what is
/// eligible for masking.
///
/// Following the paper (and the RigL/SET literature), only multi-dimensional
/// *weights* are sparsified; biases and normalization affine parameters stay
/// dense — they are a negligible fraction of the parameter count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Convolution or linear weight — eligible for sparsification.
    Weight,
    /// Bias vector — always dense.
    Bias,
    /// Normalization scale (γ) or shift (β) — always dense.
    Norm,
}

/// A trainable tensor together with its accumulated gradient.
///
/// Gradients accumulate across BPTT timesteps (paper Eq. 2c sums over `t`);
/// [`Param::zero_grad`] resets them between batches.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable identifier, e.g. `"features.conv3.weight"`.
    pub name: String,
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient, always the same shape as `value`.
    pub grad: Tensor,
    /// Role of this parameter.
    pub kind: ParamKind,
    /// Sparse execution plan, installed by the sparse-training engines when
    /// this weight's density drops below the configured threshold: the
    /// index-only pattern of the weight's mask, shaped
    /// [`Param::plan_dims`] and built by [`Param::plan_from_mask`]. Values
    /// are always gathered from the dense [`Param::value`] at use time, so
    /// the plan stays valid across optimizer steps and only needs rebuilding
    /// when the mask changes. `None` means dense execution.
    pub plan: Option<Csr>,
}

impl Param {
    /// Creates a parameter with a zeroed gradient buffer.
    pub fn new(name: impl Into<String>, value: Tensor, kind: ParamKind) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param {
            name: name.into(),
            value,
            grad,
            kind,
            plan: None,
        }
    }

    /// The installed sparse pattern, validated against
    /// [`Param::plan_dims`]. Layers call this at every dispatch point so a
    /// stale plan fails loudly instead of misindexing.
    pub fn exec_pattern(&self) -> Result<Option<&Csr>> {
        let Some(plan) = &self.plan else {
            return Ok(None);
        };
        let (rows, cols) = self.plan_dims();
        if plan.dims() != (rows, cols) {
            return Err(SnnError::InvalidState(format!(
                "{}: exec plan {}x{} does not match weight viewed as {rows}x{cols}",
                self.name,
                plan.rows(),
                plan.cols()
            )));
        }
        Ok(Some(plan))
    }

    /// The weight viewed as a 2-D matrix, `dims[0] × rest`: `Out × In` for
    /// a linear weight, `F × (C·KH·KW)` for a conv weight.
    fn matrix_dims(&self) -> (usize, usize) {
        let rows = *self.value.dims().first().unwrap_or(&0);
        (rows, self.value.len().checked_div(rows).unwrap_or(0))
    }

    /// Whether this is a conv weight `(F, C, KH, KW)`, whose plan is the
    /// column view.
    fn plans_by_column(&self) -> bool {
        self.value.rank() == 4
    }

    /// Shape of this weight's plan, in the orientation its layer's kernels
    /// walk. A linear weight is planned by row, `Out × In`. A conv weight is
    /// planned by column, `(C·KH·KW) × F`: row `r` lists the filters live at
    /// im2col row `r`, which is what the spike kernel needs per fired col
    /// row; the conv plan kernels read the same view.
    pub fn plan_dims(&self) -> (usize, usize) {
        let (rows, cols) = self.matrix_dims();
        if self.plans_by_column() {
            (cols, rows)
        } else {
            (rows, cols)
        }
    }

    /// Packs the plan of `mask`, a binary tensor shaped like this weight,
    /// in the orientation of [`Param::plan_dims`].
    pub fn plan_from_mask(&self, mask: &[f32]) -> Csr {
        debug_assert_eq!(mask.len(), self.value.len());
        let (rows, cols) = self.matrix_dims();
        if self.plans_by_column() {
            Csr::from_mask_transposed(rows, cols, mask)
        } else {
            Csr::from_mask(rows, cols, mask)
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Whether the sparse-training engines may mask this parameter.
    pub fn is_sparsifiable(&self) -> bool {
        self.kind == ParamKind::Weight && self.value.rank() >= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new("w", Tensor::ones([2, 2]), ParamKind::Weight);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.grad.dims(), p.value.dims());
        assert!(p.is_sparsifiable());
    }

    #[test]
    fn bias_not_sparsifiable() {
        let p = Param::new("b", Tensor::ones([8]), ParamKind::Bias);
        assert!(!p.is_sparsifiable());
        let n = Param::new("gamma", Tensor::ones([8, 8]), ParamKind::Norm);
        assert!(!n.is_sparsifiable());
    }

    #[test]
    fn exec_pattern_validates_shape() {
        let mut p = Param::new("w", Tensor::ones([2, 3]), ParamKind::Weight);
        assert!(p.exec_pattern().unwrap().is_none());
        p.plan = Some(Csr::from_mask(2, 3, &[1., 0., 1., 0., 1., 0.]));
        assert_eq!(p.exec_pattern().unwrap().unwrap().nnz(), 3);
        // Conv weight: the column view, rows = col rows, cols = filters.
        let mut c = Param::new("cw", Tensor::ones([2, 1, 2, 2]), ParamKind::Weight);
        assert_eq!(c.plan_dims(), (4, 2));
        let mask = [1., 0., 0., 1., 0., 1., 1., 1.];
        c.plan = Some(c.plan_from_mask(&mask));
        assert!(c.exec_pattern().is_ok());
        assert_eq!(c.exec_pattern().unwrap().unwrap().row(3), &[0, 1]);
        // Mismatched plans fail loudly, the row view of a conv weight too.
        c.plan = Some(Csr::from_mask(2, 3, &[1.0; 6]));
        assert!(c.exec_pattern().is_err());
        c.plan = Some(Csr::from_mask(2, 4, &mask));
        assert!(c.exec_pattern().is_err());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new("w", Tensor::ones([3]), ParamKind::Bias);
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
