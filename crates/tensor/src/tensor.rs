//! The dense `f32` tensor type.

use serde::{Deserialize, Serialize};

use crate::error::{Result, TensorError};
use crate::shape::Shape;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// This is the single numeric container used throughout the NDSNN
/// reproduction: weights, gradients, activations, masks (0.0/1.0 valued) and
/// spike trains (0.0/1.0 valued) are all `Tensor`s. The layout is always
/// contiguous row-major, so element `data[shape.offset(idx)]` is the value at
/// multi-index `idx`.
///
/// # Examples
/// ```
/// use ndsnn_tensor::Tensor;
/// let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat buffer, validating the element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.num_elements() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::from([data.len()]),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics in debug builds if the index is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the value at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        self.shape.check_reshape(&shape)?;
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise into a new tensor.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other)?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Combines elementwise in place: `self[i] = f(self[i], other[i])`.
    pub fn zip_in_place(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a = f(*a, b);
        }
        Ok(())
    }

    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise addition in place.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.zip_in_place(other, |a, b| a + b)
    }

    /// `self += alpha * other` (AXPY), the workhorse of gradient accumulation.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.zip_in_place(other, |a, b| a + alpha * b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a * b)
    }

    /// Elementwise product in place.
    pub fn mul_assign(&mut self, other: &Tensor) -> Result<()> {
        self.zip_in_place(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        self.map_in_place(|x| x * s);
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements; 0.0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `f32::INFINITY` for empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Number of non-zero elements.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Fraction of elements equal to zero (the *sparsity ratio* of the paper).
    ///
    /// Returns 0.0 for empty tensors.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.count_nonzero() as f64 / self.data.len() as f64
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>() as f32
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32)
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            let row = &self.data[i * c..(i + 1) * c];
            for (j, &v) in row.iter().enumerate() {
                out.data[j * r + i] = v;
            }
        }
        Ok(out)
    }

    /// True if all elements are finite (no NaN/inf) — used by training-loop
    /// sanity checks and property tests.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(t.get(&[0, 2]), 2.0);
        assert_eq!(t.get(&[1, 1]), 4.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(matches!(
            Tensor::from_vec([2, 2], vec![1.0]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 1
            })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let g = Tensor::from_slice(&[2.0, 4.0]);
        a.axpy(0.5, &g).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[-1.0, 0.0, 2.0, 3.0]);
        assert_eq!(t.sum(), 4.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.count_nonzero(), 3);
        assert!((t.sparsity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn transpose_round_trip() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.get(&[2, 1]), 6.0);
        assert_eq!(tt.transpose2d().unwrap(), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.reshape([2, 2]).unwrap();
        assert_eq!(r.get(&[1, 0]), 3.0);
        assert!(t.reshape([3]).is_err());
    }

    #[test]
    fn finite_detection() {
        let mut t = Tensor::ones([3]);
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
    }
}
