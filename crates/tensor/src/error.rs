//! Error types for tensor operations.

use std::fmt;

/// Errors produced by tensor construction and shape-sensitive operations.
///
/// Operations that can fail on user-provided shapes return
/// `Result<_, TensorError>`; hot-path kernels that are only reachable with
/// already-validated shapes use debug assertions instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by a shape does not match the data
    /// buffer supplied.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors that must share a shape do not.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// A reshape requested a different total element count.
    InvalidReshape {
        /// Source shape.
        from: Vec<usize>,
        /// Requested shape.
        to: Vec<usize>,
    },
    /// The operation requires a tensor of a particular rank.
    RankMismatch {
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the tensor supplied.
        actual: usize,
    },
    /// Inner dimensions of a matrix product disagree.
    MatmulDimMismatch {
        /// Columns of the left matrix.
        lhs_cols: usize,
        /// Rows of the right matrix.
        rhs_rows: usize,
    },
    /// A convolution/pooling geometry is impossible (e.g. kernel larger than
    /// padded input).
    InvalidGeometry(String),
    /// An axis index is out of bounds for the tensor rank.
    AxisOutOfBounds {
        /// The offending axis.
        axis: usize,
        /// Rank of the tensor.
        rank: usize,
    },
    /// Deserialization found malformed bytes.
    Corrupt(String),
    /// Raw CSR parts violate the compressed-sparse-row invariant.
    InvalidCsr(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "data length mismatch: shape requires {expected} elements, got {actual}"
            ),
            TensorError::ShapeMismatch { lhs, rhs } => {
                write!(f, "shape mismatch: {lhs:?} vs {rhs:?}")
            }
            TensorError::InvalidReshape { from, to } => {
                write!(
                    f,
                    "cannot reshape {from:?} into {to:?}: element counts differ"
                )
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "rank mismatch: expected rank {expected}, got {actual}")
            }
            TensorError::MatmulDimMismatch { lhs_cols, rhs_rows } => write!(
                f,
                "matmul inner dimension mismatch: lhs has {lhs_cols} cols, rhs has {rhs_rows} rows"
            ),
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::AxisOutOfBounds { axis, rank } => {
                write!(f, "axis {axis} out of bounds for rank {rank}")
            }
            TensorError::Corrupt(msg) => write!(f, "corrupt tensor encoding: {msg}"),
            TensorError::InvalidCsr(msg) => write!(f, "invalid CSR: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used across the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;
