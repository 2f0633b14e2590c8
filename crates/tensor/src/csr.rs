//! One compressed-sparse-row type for every sparse operand.
//!
//! The paper stores sparse weights in CSR (§III.D) and feeds binary spikes
//! into them; the active-set backward (Perez-Nieves & Goodman) adds
//! per-timestep lists of gradient-active neurons. All of them are the same
//! shape — rows of ascending `u32` column indices, optionally with a value
//! per index — so all of them are a [`Csr<V>`]:
//!
//! | operand | type | built by |
//! |---|---|---|
//! | fired spikes of one timestep | `Csr` | [`Csr::from_flat_indices`], [`Csr::from_binary`] |
//! | gradient-active neurons | `Csr` | [`Csr::from_flat_indices`] |
//! | weight execution plan (mask pattern) | `Csr` | [`Csr::from_mask`], [`Csr::from_mask_transposed`] |
//! | packed transposed weight | `Csr<f32>` | [`Csr::from_dense_transposed`] |
//! | frozen inference weight | `Csr<f32>` | [`Csr::from_dense`], [`Csr::from_weight`] |
//! | int8 frozen weight | `Csr<i8>` | [`Csr::from_parts`] |
//! | frozen conv weight's column view | `Csr` + values | [`Csr::column_view`] |
//!
//! Every constructor establishes the invariant the kernels index by:
//! `row_ptr` has `rows + 1` non-decreasing entries from `0` to `nnz`, `val`
//! and `idx` have `nnz` entries, and each row's indices are strictly
//! ascending and below `cols`. Builders over in-process data debug-assert
//! it; [`Csr::from_parts`], the entry point for bytes from outside the
//! program, checks it and returns an error instead of panicking.
//!
//! Activation batches view a tensor as `rows × cols` = batch samples ×
//! flattened per-sample features — a reshape, so a `(B, C, H, W)` spike map
//! and its flattened form share one `Csr`.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// A `rows × cols` sparse matrix in CSR layout with `u32` indices and one
/// `V` per stored entry (`V = ()` for index-only patterns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<V = ()> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<V>,
}

/// Checks the CSR invariant over raw parts, with no arithmetic that can
/// overflow on hostile dimensions.
fn check(rows: usize, cols: usize, row_ptr: &[u32], idx: &[u32], nval: usize) -> Result<()> {
    let bad = |msg: String| Err(TensorError::InvalidCsr(msg));
    if cols > u32::MAX as usize {
        return bad(format!("column count {cols} overflows u32"));
    }
    let Some(want) = rows.checked_add(1) else {
        return bad(format!("row count {rows} overflows"));
    };
    if row_ptr.len() != want {
        return bad(format!(
            "row_ptr has {} entries, want {rows} + 1",
            row_ptr.len()
        ));
    }
    if row_ptr[0] != 0 {
        return bad(format!("row_ptr[0] = {}, want 0", row_ptr[0]));
    }
    if nval != idx.len() {
        return bad(format!("{nval} values vs {} indices", idx.len()));
    }
    if row_ptr[rows] as usize != idx.len() {
        return bad(format!(
            "row_ptr ends at {} but {} indices are stored",
            row_ptr[rows],
            idx.len()
        ));
    }
    for (r, span) in row_ptr.windows(2).enumerate() {
        let (s, e) = (span[0] as usize, span[1] as usize);
        if s > e || e > idx.len() {
            return bad(format!("row_ptr not monotone within nnz at row {r}"));
        }
        let row = &idx[s..e];
        if !row.windows(2).all(|w| w[0] < w[1]) {
            return bad(format!("row {r} indices not strictly ascending"));
        }
        if row.last().is_some_and(|&c| c as usize >= cols) {
            return bad(format!("row {r} index out of range"));
        }
    }
    Ok(())
}

impl<V> Csr<V> {
    /// Builds a matrix from raw parts, checking every invariant the kernels
    /// rely on. This is the deserialization entry point for inference
    /// artifacts, so the input is treated as hostile: every violation is an
    /// error, never a panic or a silently wrong product.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u32>,
        idx: Vec<u32>,
        val: Vec<V>,
    ) -> Result<Self> {
        check(rows, cols, &row_ptr, &idx, val.len())?;
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            idx,
            val,
        })
    }

    /// Wraps parts built in-process, debug-asserting the invariant.
    fn trusted(rows: usize, cols: usize, row_ptr: Vec<u32>, idx: Vec<u32>, val: Vec<V>) -> Self {
        debug_assert_eq!(check(rows, cols, &row_ptr, &idx, val.len()), Ok(()));
        Csr {
            rows,
            cols,
            row_ptr,
            idx,
            val,
        }
    }

    /// Packs the non-zero entries of a row-major `rows × cols` slice, storing
    /// `value(v)` for each.
    fn pack(rows: usize, cols: usize, data: &[f32], mut value: impl FnMut(f32) -> V) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        row_ptr.push(0u32);
        for r in 0..rows {
            for (c, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                if v != 0.0 {
                    idx.push(c as u32);
                    val.push(value(v));
                }
            }
            row_ptr.push(idx.len() as u32);
        }
        Self::trusted(rows, cols, row_ptr, idx, val)
    }

    /// Packs the non-zero entries of the *transpose* of a row-major
    /// `rows × cols` slice, storing `value(v)` for each: the result is
    /// `cols × rows`, row `c` listing the non-zero rows of column `c`,
    /// ascending.
    fn pack_transposed(
        rows: usize,
        cols: usize,
        data: &[f32],
        mut value: impl FnMut(f32) -> V,
    ) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        let nnz = data.iter().filter(|v| **v != 0.0).count();
        let mut val = Vec::with_capacity(nnz);
        let mut idx = Vec::with_capacity(nnz);
        let mut row_ptr = Vec::with_capacity(cols + 1);
        row_ptr.push(0u32);
        for c in 0..cols {
            for r in 0..rows {
                let v = data[r * cols + c];
                if v != 0.0 {
                    val.push(value(v));
                    idx.push(r as u32);
                }
            }
            row_ptr.push(idx.len() as u32);
        }
        Self::trusted(cols, rows, row_ptr, idx, val)
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Stored fraction of `rows · cols`, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// The `rows + 1` row pointers.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Every stored index, ascending within each row.
    pub fn idx(&self) -> &[u32] {
        &self.idx
    }

    /// Every stored value, aligned with [`Csr::idx`].
    pub fn val(&self) -> &[V] {
        &self.val
    }

    /// Ascending indices of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.idx[self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize]
    }

    /// Ascending indices of row `r` and their values.
    #[inline]
    pub fn row_entries(&self, r: usize) -> (&[u32], &[V]) {
        let span = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
        (&self.idx[span.clone()], &self.val[span])
    }

    /// Storage size in bits given value precision `b_w` and index precision
    /// `b_idx` (paper §III.D): `nnz·b_w + nnz·b_idx + (rows+1)·b_idx`.
    pub fn storage_bits(&self, b_w: u32, b_idx: u32) -> u64 {
        let nnz = self.nnz() as u64;
        nnz * u64::from(b_w) + nnz * u64::from(b_idx) + (self.rows as u64 + 1) * u64::from(b_idx)
    }
}

impl<V: Copy> Csr<V> {
    /// The column view of a row-view matrix: the index-only pattern of its
    /// `cols × rows` transpose (row `c` lists the rows storing column `c`,
    /// ascending) and the stored values in that pattern's entry order —
    /// the operand shape of a training plan with its gathered values.
    /// One counting pass, `O(nnz + rows + cols)`, with no dense
    /// intermediate.
    pub fn column_view(&self) -> (Csr, Vec<V>) {
        let nnz = self.nnz();
        let mut row_ptr = vec![0u32; self.cols + 1];
        for &c in &self.idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let (mut idx, mut src) = (vec![0u32; nnz], vec![0u32; nnz]);
        // Rows ascend in the outer loop, so each column's rows come out
        // ascending.
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = &mut next[self.idx[k as usize] as usize];
                (idx[*slot as usize], src[*slot as usize]) = (r as u32, k);
                *slot += 1;
            }
        }
        let val = src.iter().map(|&k| self.val[k as usize]).collect();
        let pattern = Csr::trusted(self.cols, self.rows, row_ptr, idx, vec![(); nnz]);
        (pattern, val)
    }
}

impl Csr {
    /// Builds an index list from *ascending* flat indices into the row-major
    /// `rows × cols` tensor — the natural output of a kernel that walks the
    /// activation buffer once (the fused LIF/PLIF scan, the pool remaps).
    ///
    /// # Panics
    /// Debug-asserts that the indices are strictly ascending and in range.
    pub fn from_flat_indices(rows: usize, cols: usize, flat: Vec<u32>) -> Csr {
        debug_assert!(
            flat.windows(2).all(|w| w[0] < w[1]),
            "indices not ascending"
        );
        debug_assert!(flat.last().is_none_or(|&i| (i as usize) < rows * cols));
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        let mut seen = 0usize;
        let mut idx = flat;
        for r in 0..rows {
            let row_end = ((r + 1) * cols) as u64;
            while seen < idx.len() && u64::from(idx[seen]) < row_end {
                seen += 1;
            }
            row_ptr.push(seen as u32);
        }
        // Rebase global flat indices to per-row column indices.
        for r in 0..rows {
            let base = (r * cols) as u32;
            for v in &mut idx[row_ptr[r] as usize..row_ptr[r + 1] as usize] {
                *v -= base;
            }
        }
        let val = vec![(); idx.len()];
        Csr::trusted(rows, cols, row_ptr, idx, val)
    }

    /// Scans a row-major `rows × cols` slice, packing the positions of `1.0`
    /// entries. Returns `None` if any entry is neither `0.0` nor `1.0` — the
    /// caller's binarity assumption failed and dense kernels must be used.
    pub fn from_binary(rows: usize, cols: usize, data: &[f32]) -> Option<Csr> {
        let mut binary = true;
        let csr = Csr::pack(rows, cols, data, |v| binary &= v == 1.0);
        binary.then_some(csr)
    }

    /// Packs the non-zero positions of a row-major `rows × cols` mask — the
    /// index-only execution plan of a masked weight. Values are gathered
    /// from the live dense weight at use time, so the plan stays valid across
    /// optimizer steps and only needs rebuilding when the mask changes. Any
    /// non-zero mask entry is active (the mask convention is binary, but
    /// this does not require it).
    pub fn from_mask(rows: usize, cols: usize, mask: &[f32]) -> Csr {
        Csr::pack(rows, cols, mask, |_| ())
    }

    /// Packs the non-zero positions of the *transpose* of a row-major
    /// `rows × cols` mask: the result is `cols × rows`, row `c` listing the
    /// live rows of column `c`, ascending. This is the column view of a
    /// conv weight plan — per im2col row, the filters that are live there —
    /// built once per mask change, like [`Csr::from_mask`].
    pub fn from_mask_transposed(rows: usize, cols: usize, mask: &[f32]) -> Csr {
        Csr::pack_transposed(rows, cols, mask, |_| ())
    }
}

impl Csr<f32> {
    /// Packs the non-zero entries of a row-major `rows × cols` matrix,
    /// treating exact zeros as holes.
    pub fn from_dense(rows: usize, cols: usize, data: &[f32]) -> Csr<f32> {
        Csr::pack(rows, cols, data, |v| v)
    }

    /// Packs a weight tensor viewed as the 2-D kernel matrix `dims[0] × rest`
    /// — `Out × In` for linear, `F × (C·KH·KW)` for conv, the layout of
    /// paper §III.D.
    pub fn from_weight(t: &Tensor) -> Result<Csr<f32>> {
        if t.rank() < 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: t.rank(),
            });
        }
        let rows = t.dims()[0];
        Ok(Csr::from_dense(rows, t.len() / rows.max(1), t.as_slice()))
    }

    /// Packs the *transpose* of a row-major `rows × cols` matrix `w`, so the
    /// result is `cols × rows`: row `c` holds the non-zero entries of column
    /// `c` of `w`, ascending in `r`.
    ///
    /// This is the operand of the active-set backward gathers, which walk
    /// one weight column per active neuron: packing once per backward call
    /// (`O(rows · cols)`, the cost of the transpose it replaces) makes those
    /// walks contiguous and skips masked weights, and walking a row
    /// ascending reproduces the dense kernels' ascending-`r` order with its
    /// `w == 0.0` skip, so the packing has no numeric effect.
    pub fn from_dense_transposed(rows: usize, cols: usize, w: &[f32]) -> Csr<f32> {
        Csr::pack_transposed(rows, cols, w, |v| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> Tensor {
        Tensor::from_vec(
            [3, 4],
            vec![
                1.0, 0.0, 2.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                0.0, 3.0, 0.0, 4.0,
            ],
        )
        .unwrap()
    }

    fn to_dense(m: &Csr<f32>) -> Vec<f32> {
        let mut out = vec![0.0f32; m.rows() * m.cols()];
        for r in 0..m.rows() {
            let (cs, vs) = m.row_entries(r);
            for (&c, &v) in cs.iter().zip(vs) {
                out[r * m.cols() + c as usize] = v;
            }
        }
        out
    }

    #[test]
    fn round_trips_dense() {
        let t = sample();
        let m = Csr::from_weight(&t).unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.dims(), (3, 4));
        assert_eq!(to_dense(&m), t.as_slice());
    }

    #[test]
    fn empty_row_handled() {
        let m = Csr::from_weight(&sample()).unwrap();
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.row(1), &[] as &[u32]);
    }

    #[test]
    fn conv_weight_reshape() {
        let mut w = Tensor::zeros([2, 3, 2, 2]);
        w.as_mut_slice()[0] = 5.0;
        w.as_mut_slice()[23] = -1.0;
        let m = Csr::from_weight(&w).unwrap();
        assert_eq!(m.dims(), (2, 12));
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row_entries(1), (&[11u32][..], &[-1.0f32][..]));
    }

    #[test]
    fn rank_checks() {
        assert!(Csr::from_weight(&Tensor::zeros([4])).is_err());
        assert!(Csr::from_weight(&Tensor::zeros([2, 2])).is_ok());
    }

    #[test]
    fn storage_bits_formula() {
        let m = Csr::from_weight(&sample()).unwrap();
        // 4 nnz × (32 + 16) + 4 ptrs × 16 = 192 + 64 = 256.
        assert_eq!(m.storage_bits(32, 16), 4 * 48 + 4 * 16);
    }

    #[test]
    fn fully_sparse_and_fully_dense() {
        let z = Csr::from_dense(2, 2, &[0.0; 4]);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.density(), 0.0);
        assert_eq!(to_dense(&z), vec![0.0; 4]);
        let d = Csr::from_dense(2, 2, &[1.0; 4]);
        assert_eq!(d.nnz(), 4);
        assert_eq!(d.density(), 1.0);
    }

    #[test]
    fn from_binary_packs_fired_positions() {
        let m = Csr::from_binary(2, 3, &[1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (2, 3, 3));
        assert_eq!(m.row(0), &[0]);
        assert_eq!(m.row(1), &[0, 1]);
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_binary_rejects_non_binary() {
        assert!(Csr::from_binary(1, 3, &[1.0, 0.5, 0.0]).is_none());
        assert!(Csr::from_binary(1, 2, &[-1.0, 0.0]).is_none());
        assert!(Csr::from_binary(1, 2, &[f32::NAN, 0.0]).is_none());
        // Negative zero is a silent neuron, not a violation.
        assert!(Csr::from_binary(1, 2, &[-0.0, 1.0]).is_some());
    }

    #[test]
    fn from_flat_indices_rebases_per_row() {
        let m = Csr::from_flat_indices(2, 3, vec![0, 3, 4]);
        assert_eq!((m.rows(), m.cols(), m.nnz()), (2, 3, 3));
        assert_eq!(m.row(0), &[0]);
        assert_eq!(m.row(1), &[0, 1]);
        // Trailing empty rows still get pointers.
        let tail = Csr::from_flat_indices(3, 2, vec![1]);
        assert_eq!(tail.row_ptr(), &[0, 1, 1, 1]);
    }

    #[test]
    fn from_mask_packs_nonzeros_per_row() {
        let pat = Csr::from_mask(3, 3, &[1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        assert_eq!(pat.nnz(), 4);
        assert_eq!(pat.row(0), &[0, 2]);
        assert_eq!(pat.row(1), &[] as &[u32]);
        assert_eq!(pat.row(2), &[1, 2]);
        assert!((pat.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn transposed_pack_compresses_masked_columns() {
        // w (2 × 3): [[1, 0, 2], [0, 0, 3]] — the packed view is 3 × 2.
        let pwt = Csr::from_dense_transposed(2, 3, &[1.0, 0.0, 2.0, 0.0, 0.0, 3.0]);
        assert_eq!(pwt.dims(), (3, 2));
        assert_eq!(pwt.nnz(), 3);
        assert_eq!(pwt.row_entries(0), (&[0u32][..], &[1.0f32][..]));
        assert_eq!(pwt.row_entries(1), (&[][..], &[][..]));
        assert_eq!(pwt.row_entries(2), (&[0u32, 1][..], &[2.0f32, 3.0][..]));
    }

    /// Pins the frozen storage (values) to the training execution plan
    /// (index-only): the same matrix yields the same structure, and the
    /// production `sp_xwt` kernel over the plan reproduces the dense
    /// product — so footprint numbers reported from CSR describe exactly
    /// what executes.
    #[test]
    fn structure_agrees_with_execution_row_pattern() {
        let t = sample();
        let stored = Csr::from_weight(&t).unwrap();
        let plan = Csr::from_mask(3, 4, t.as_slice());
        assert_eq!(stored.row_ptr(), plan.row_ptr());
        assert_eq!(stored.idx(), plan.idx());
        let mut y = vec![0.0f32; 3];
        crate::ops::spmm::sp_xwt(&plan, t.as_slice(), &[1.0, 2.0, 3.0, 4.0], &mut y, 1);
        assert_eq!(y, vec![7.0, 0.0, 22.0]);
    }

    #[test]
    fn from_parts_round_trips() {
        let t = sample();
        let a = Csr::from_weight(&t).unwrap();
        let b = Csr::from_parts(
            3,
            4,
            a.row_ptr().to_vec(),
            a.idx().to_vec(),
            a.val().to_vec(),
        )
        .unwrap();
        assert_eq!(a, b);
        assert!((b.density() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_rejects_hostile_input() {
        let parts = |rows, cols, ptr: &[u32], idx: &[u32], nval: usize| {
            Csr::from_parts(rows, cols, ptr.to_vec(), idx.to_vec(), vec![1.0f32; nval])
        };
        // Wrong row_ptr length.
        assert!(parts(2, 2, &[0, 0], &[], 0).is_err());
        // row_ptr must start at zero.
        assert!(parts(1, 2, &[1, 1], &[0], 1).is_err());
        // values/indices length mismatch.
        assert!(parts(1, 2, &[0, 2], &[0, 1], 1).is_err());
        // Last row_ptr must equal nnz.
        assert!(parts(1, 2, &[0, 2], &[0], 1).is_err());
        // Decreasing range.
        assert!(parts(2, 2, &[1, 0, 1], &[0], 1).is_err());
        // A row overshooting nnz before a later row comes back down.
        assert!(parts(2, 2, &[0, 5, 1], &[0], 1).is_err());
        // Non-ascending (duplicate) index within a row.
        assert!(parts(1, 3, &[0, 2], &[1, 1], 2).is_err());
        // Index out of bounds.
        assert!(parts(1, 2, &[0, 1], &[2], 1).is_err());
        // Column count past u32 indices.
        assert!(parts(1, u32::MAX as usize + 1, &[0, 0], &[], 0).is_err());
        // `rows + 1` overflows: must be an error, not a panic.
        assert!(parts(usize::MAX, 4, &[], &[], 0).is_err());
        let err = parts(usize::MAX, 4, &[], &[], 0).unwrap_err();
        assert!(err.to_string().contains("invalid CSR"), "{err}");
    }

    /// A random 0/1 matrix as `(rows, cols, data)`.
    fn binary_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
        (1usize..9, 1usize..13).prop_flat_map(|(rows, cols)| {
            vec(0u8..2, rows * cols)
                .prop_map(move |bits| (rows, cols, bits.into_iter().map(f32::from).collect()))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn constructors_agree_on_one_structure(m in binary_matrix()) {
            let (rows, cols, data) = m;
            let flat = data
                .iter()
                .enumerate()
                .filter(|(_, &v)| v == 1.0)
                .map(|(i, _)| i as u32)
                .collect();
            let a = Csr::from_flat_indices(rows, cols, flat);
            let b = Csr::from_binary(rows, cols, &data).unwrap();
            let c = Csr::from_mask(rows, cols, &data);
            let d = Csr::from_parts(
                rows,
                cols,
                c.row_ptr().to_vec(),
                c.idx().to_vec(),
                c.val().to_vec(),
            )
            .unwrap();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &c);
            prop_assert_eq!(&a, &d);
            let valued = Csr::from_dense(rows, cols, &data);
            prop_assert_eq!(valued.row_ptr(), a.row_ptr());
            prop_assert_eq!(valued.idx(), a.idx());

            // The transposed pack is the pattern of the transpose.
            let mut t = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for col in 0..cols {
                    t[col * rows + r] = data[r * cols + col];
                }
            }
            let packed = Csr::from_dense_transposed(rows, cols, &data);
            prop_assert_eq!(&packed, &Csr::from_dense(cols, rows, &t));
            let pattern = Csr::from_mask(cols, rows, &t);
            prop_assert_eq!(packed.row_ptr(), pattern.row_ptr());
            prop_assert_eq!(packed.idx(), pattern.idx());
            prop_assert_eq!(&Csr::from_mask_transposed(rows, cols, &data), &pattern);
            // So is the column view, which carries the values along.
            let (view, vals) = valued.column_view();
            prop_assert_eq!(&view, &pattern);
            prop_assert_eq!(&vals[..], packed.val());
        }
    }

    /// A `rows × cols` matrix with ~70% exact zeros, so the skips execute.
    fn sparse_matrix(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
        use rand::Rng;
        (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    0.0
                } else {
                    rng.gen_range(-0.5..0.5)
                }
            })
            .collect()
    }

    /// The frozen value-carrying weight runs the plan's chain: `csr_xwt`
    /// matches the dense product and `sp_xwt` over the index-only plan.
    #[test]
    fn csr_xwt_bitwise_matches_dense_and_pattern() {
        use crate::ops::spmm::{csr_xwt, sp_xwt};
        use rand::SeedableRng;
        let (batch, rows, cols) = (3, 5, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_0001);
        let (w, x) = (
            sparse_matrix(rows, cols, &mut rng),
            sparse_matrix(batch, cols, &mut rng),
        );
        let dense = crate::ops::matmul::matmul_a_bt(
            &Tensor::from_vec([batch, cols], x.clone()).unwrap(),
            &Tensor::from_vec([rows, cols], w.clone()).unwrap(),
        )
        .unwrap();
        let (mut y_pat, mut y_csr) = (vec![0.0f32; batch * rows], vec![0.0f32; batch * rows]);
        sp_xwt(&Csr::from_mask(rows, cols, &w), &w, &x, &mut y_pat, batch);
        csr_xwt(&Csr::from_dense(rows, cols, &w), &x, &mut y_csr, batch);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_csr), bits(dense.as_slice()), "csr vs dense");
        assert_eq!(bits(&y_csr), bits(&y_pat), "csr vs pattern");
    }

    #[test]
    fn csr_xwt_thread_count_invariant() {
        use crate::ops::spmm::csr_xwt;
        use crate::parallel::{run_serial, set_thread_override};
        use rand::SeedableRng;
        // Large enough to clear PAR_MIN_MACS when threads are available.
        let (batch, rows, cols) = (8, 64, 600);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xFACE);
        let csr = Csr::from_dense(rows, cols, &sparse_matrix(rows, cols, &mut rng));
        let x = sparse_matrix(batch, cols, &mut rng);
        let mut y_serial = vec![0.0f32; batch * rows];
        run_serial(|| csr_xwt(&csr, &x, &mut y_serial, batch));
        set_thread_override(Some(4));
        let mut y_par = vec![0.0f32; batch * rows];
        csr_xwt(&csr, &x, &mut y_par, batch);
        set_thread_override(None);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_par), bits(&y_serial), "thread divergence");
    }
}
