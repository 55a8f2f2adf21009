//! Compressed sparse row (CSR) matrix.
//!
//! The storage layout is exactly the one Algorithm 2 of the paper protects:
//! three arrays `Val ∈ R^{nnz}`, `Colid ∈ N^{nnz}` and `Rowidx ∈ N^{n+1}`
//! (named `val`, `colid`, `rowptr` here; the paper indexes rows from 1, we
//! index from 0). The fault injector corrupts these arrays directly through
//! the `*_mut` accessors, so the invariants documented on [`CsrMatrix::new`]
//! are *not* guaranteed to hold on a corrupted instance; use
//! [`CsrMatrix::validate`] to re-check them.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::multivec::MultiVec;
use crate::Result;

/// Rows per cache band of the row-band kernels: wide enough to amortize
/// loop overhead, small enough that a band's `rowptr`/`colid`/`val`
/// stay cache-resident while [`CsrMatrix::spmm_into`] re-traverses the
/// band once per 4-column group of the right-hand-side block.
const ROW_BAND: usize = 256;

/// Right-hand sides processed per fused traversal in the SpMM kernels
/// (bounded so the per-row accumulators stay in registers).
const RHS_BLOCK: usize = 4;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Row pointer array (`Rowidx` in the paper), length `n_rows + 1`.
    rowptr: Vec<usize>,
    /// Column indices (`Colid` in the paper), length `nnz`.
    colid: Vec<usize>,
    /// Nonzero values (`Val` in the paper), length `nnz`.
    val: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix after validating the invariants:
    ///
    /// * `rowptr.len() == n_rows + 1`, `rowptr[0] == 0`,
    ///   `rowptr[n_rows] == val.len()`, monotone non-decreasing;
    /// * `colid.len() == val.len()`;
    /// * every column index is `< n_cols`.
    pub fn new(
        n_rows: usize,
        n_cols: usize,
        rowptr: Vec<usize>,
        colid: Vec<usize>,
        val: Vec<f64>,
    ) -> Result<Self> {
        let m = Self {
            n_rows,
            n_cols,
            rowptr,
            colid,
            val,
        };
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSR matrix without validation. Used by trusted generators
    /// and by the fault injector when *deliberately* producing corrupted
    /// instances.
    pub fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        rowptr: Vec<usize>,
        colid: Vec<usize>,
        val: Vec<f64>,
    ) -> Self {
        Self {
            n_rows,
            n_cols,
            rowptr,
            colid,
            val,
        }
    }

    /// Re-checks all structural invariants; `Ok(())` iff the instance is a
    /// well-formed CSR matrix.
    pub fn validate(&self) -> Result<()> {
        if self.rowptr.len() != self.n_rows + 1 {
            return Err(SparseError::MalformedRowPtr {
                detail: format!(
                    "rowptr has length {}, expected {}",
                    self.rowptr.len(),
                    self.n_rows + 1
                ),
            });
        }
        if self.rowptr[0] != 0 {
            return Err(SparseError::MalformedRowPtr {
                detail: format!("rowptr[0] = {}, expected 0", self.rowptr[0]),
            });
        }
        // Length == n_rows + 1 was verified above, so the last entry
        // is addressable directly.
        if self.rowptr[self.n_rows] != self.val.len() {
            return Err(SparseError::MalformedRowPtr {
                detail: format!(
                    "rowptr[n] = {}, expected nnz = {}",
                    self.rowptr[self.n_rows],
                    self.val.len()
                ),
            });
        }
        if self.rowptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::MalformedRowPtr {
                detail: "rowptr is not monotone non-decreasing".into(),
            });
        }
        if self.colid.len() != self.val.len() {
            return Err(SparseError::DimensionMismatch {
                detail: format!(
                    "colid has {} entries, val has {}",
                    self.colid.len(),
                    self.val.len()
                ),
            });
        }
        if let Some(&bad) = self.colid.iter().find(|&&c| c >= self.n_cols) {
            return Err(SparseError::IndexOutOfBounds {
                index: bad,
                bound: self.n_cols,
            });
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// `true` iff the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Fill ratio `nnz / (n_rows · n_cols)`.
    pub fn density(&self) -> f64 {
        if self.n_rows == 0 || self.n_cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n_rows as f64 * self.n_cols as f64)
    }

    /// Number of machine words occupied by the three CSR arrays
    /// (`Val` + `Colid` + `Rowidx`), the quantity the paper's fault model
    /// scales the error rate by.
    pub fn memory_words(&self) -> usize {
        2 * self.nnz() + self.n_rows + 1
    }

    /// Machine words the three arrays keep *reserved* (capacity, not
    /// length): what a retained image buffer costs between uses.
    pub fn capacity_words(&self) -> usize {
        self.rowptr.capacity() + self.colid.capacity() + self.val.capacity()
    }

    /// Row pointer array (read-only).
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column index array (read-only).
    #[inline]
    pub fn colid(&self) -> &[usize] {
        &self.colid
    }

    /// Value array (read-only).
    #[inline]
    pub fn val(&self) -> &[f64] {
        &self.val
    }

    /// Mutable row pointer array — exposed for fault injection and ABFT
    /// correction only.
    #[inline]
    pub fn rowptr_mut(&mut self) -> &mut [usize] {
        &mut self.rowptr
    }

    /// Mutable column index array — exposed for fault injection and ABFT
    /// correction only.
    #[inline]
    pub fn colid_mut(&mut self) -> &mut [usize] {
        &mut self.colid
    }

    /// Mutable value array — exposed for fault injection and ABFT
    /// correction only.
    #[inline]
    pub fn val_mut(&mut self) -> &mut [f64] {
        &mut self.val
    }

    /// The half-open range of storage positions for row `i`.
    ///
    /// # Panics
    /// Panics if `i >= n_rows`.
    #[inline]
    pub fn row_range(&self, i: usize) -> std::ops::Range<usize> {
        self.rowptr[i]..self.rowptr[i + 1]
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.row_range(i);
        self.colid[r.clone()]
            .iter()
            .copied()
            .zip(self.val[r].iter().copied())
    }

    /// Value at `(i, j)`, or `0.0` if not stored. Linear in the row length.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i)
            .find(|&(c, _)| c == j)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Sparse matrix–vector product `y ← A·x` into a caller-provided buffer.
    ///
    /// This is the *unprotected* kernel; the ABFT-protected version lives in
    /// `ftcg-abft::spmv` and reproduces this loop with checksum accumulation.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "spmv: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                acc += self.val[k] * x[self.colid[k]];
            }
            *yi = acc;
        }
    }

    /// Allocating convenience wrapper around [`CsrMatrix::spmv_into`].
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Cache-blocked row-band `y ← A·x`: rows are processed four at a
    /// time with one independent accumulator chain per row, so the four
    /// serial floating-point add chains overlap in the pipeline instead
    /// of serializing on one accumulator's latency. **Bit-identical** to
    /// [`CsrMatrix::spmv_into`]: each row's entries are summed in the
    /// same ascending storage order into its own accumulator — only the
    /// interleaving of *independent* rows changes, which no output cell
    /// observes.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_rowband_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "spmv: y length mismatch");
        let (colid, val) = (&self.colid[..], &self.val[..]);
        let mut i = 0;
        while i + 4 <= self.n_rows {
            let s = [
                self.rowptr[i],
                self.rowptr[i + 1],
                self.rowptr[i + 2],
                self.rowptr[i + 3],
            ];
            let e = self.rowptr[i + 4];
            let lens = [s[1] - s[0], s[2] - s[1], s[3] - s[2], e - s[3]];
            let m = lens[0].min(lens[1]).min(lens[2]).min(lens[3]);
            let mut acc = [0.0f64; 4];
            // Lockstep section: all four rows have at least `m` entries.
            for j in 0..m {
                let k = [s[0] + j, s[1] + j, s[2] + j, s[3] + j];
                acc[0] += val[k[0]] * x[colid[k[0]]];
                acc[1] += val[k[1]] * x[colid[k[1]]];
                acc[2] += val[k[2]] * x[colid[k[2]]];
                acc[3] += val[k[3]] * x[colid[k[3]]];
            }
            // Per-row tails, still in ascending storage order.
            for (lane, a) in acc.iter_mut().enumerate() {
                for k in s[lane] + m..s[lane] + lens[lane] {
                    *a += val[k] * x[colid[k]];
                }
            }
            y[i..i + 4].copy_from_slice(&acc);
            i += 4;
        }
        for (i, yi) in y.iter_mut().enumerate().skip(i) {
            let mut acc = 0.0;
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                acc += val[k] * x[colid[k]];
            }
            *yi = acc;
        }
    }

    /// Fused multi-RHS product `Y ← A·X` (the batched form of
    /// [`CsrMatrix::spmv_into`]): one traversal of the matrix band
    /// serves up to [`RHS_BLOCK`] right-hand sides, and row bands keep
    /// the CSR arrays cache-resident across the column groups.
    ///
    /// **Determinism:** each output column is computed as the exact
    /// floating-point sum `spmv_into` computes for that column alone —
    /// same entries, same ascending storage order, bit for bit (see the
    /// [`MultiVec`] contract).
    ///
    /// # Panics
    /// Panics if `x.n() != n_cols`, `y.n() != n_rows`, or the column
    /// counts differ.
    pub fn spmm_into(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.n(), self.n_cols, "spmm: x row count mismatch");
        assert_eq!(y.n(), self.n_rows, "spmm: y row count mismatch");
        assert_eq!(x.k(), y.k(), "spmm: column count mismatch");
        let (n, nc, k) = (self.n_rows, self.n_cols, x.k());
        let (colid, val) = (&self.colid[..], &self.val[..]);
        let xd = x.data();
        let yd = y.data_mut();
        for lo in (0..n).step_by(ROW_BAND) {
            let hi = (lo + ROW_BAND).min(n);
            let mut cb = 0;
            while cb < k {
                let w = (k - cb).min(RHS_BLOCK);
                for i in lo..hi {
                    let mut acc = [0.0f64; RHS_BLOCK];
                    for kk in self.rowptr[i]..self.rowptr[i + 1] {
                        let v = val[kk];
                        let j = colid[kk];
                        for (c, a) in acc.iter_mut().enumerate().take(w) {
                            *a += v * xd[(cb + c) * nc + j];
                        }
                    }
                    for (c, a) in acc.iter().enumerate().take(w) {
                        yd[(cb + c) * n + i] = *a;
                    }
                }
                cb += w;
            }
        }
    }

    /// Defensive fused multi-RHS product `Y ← A·X` — the batched form of
    /// [`CsrMatrix::spmv_clamped_into`], applying the same clamping rule
    /// per entry ([`CsrMatrix::row_range_clamped`] bounds, out-of-range
    /// columns skipped). On a well-formed matrix each column is
    /// bit-identical to the clamped single-vector product, which is
    /// itself bit-identical to the plain one.
    ///
    /// # Panics
    /// Panics if `x.n() != n_cols`, `y.n() != n_rows`, or the column
    /// counts differ (buffers are caller state, not corruptible matrix
    /// data).
    pub fn spmm_clamped_into(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.n(), self.n_cols, "spmm_clamped: x row count mismatch");
        assert_eq!(y.n(), self.n_rows, "spmm_clamped: y row count mismatch");
        assert_eq!(x.k(), y.k(), "spmm_clamped: column count mismatch");
        let (n, nc, k) = (self.n_rows, self.n_cols, x.k());
        let (colid, val) = (&self.colid[..], &self.val[..]);
        let xd = x.data();
        let yd = y.data_mut();
        for lo in (0..n).step_by(ROW_BAND) {
            let hi = (lo + ROW_BAND).min(n);
            let mut cb = 0;
            while cb < k {
                let w = (k - cb).min(RHS_BLOCK);
                for i in lo..hi {
                    let mut acc = [0.0f64; RHS_BLOCK];
                    for kk in self.row_range_clamped(i) {
                        let j = colid[kk];
                        if j < nc {
                            let v = val[kk];
                            for (c, a) in acc.iter_mut().enumerate().take(w) {
                                *a += v * xd[(cb + c) * nc + j];
                            }
                        }
                    }
                    for (c, a) in acc.iter().enumerate().take(w) {
                        yd[(cb + c) * n + i] = *a;
                    }
                }
                cb += w;
            }
        }
    }

    /// `y ← A·x` with the ABFT output probe accumulated in the same
    /// pass: returns `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]` (see
    /// [`fused::probe_of`](crate::fused::probe_of)). The product runs
    /// the row-band kernel ([`CsrMatrix::spmv_rowband_into`], itself
    /// bit-identical to [`CsrMatrix::spmv_into`]); each row's output is
    /// folded into the probe chains the moment it is finalized, and rows
    /// finalize in ascending index order, so the probe is bit-identical
    /// to a separate `probe_of(y)` sweep — without re-reading `y`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_with_probe_into(&self, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        assert_eq!(x.len(), self.n_cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "spmv: y length mismatch");
        let (colid, val) = (&self.colid[..], &self.val[..]);
        let mut p0 = -0.0;
        let mut p1 = -0.0;
        let mut i = 0;
        while i + 4 <= self.n_rows {
            let s = [
                self.rowptr[i],
                self.rowptr[i + 1],
                self.rowptr[i + 2],
                self.rowptr[i + 3],
            ];
            let e = self.rowptr[i + 4];
            let lens = [s[1] - s[0], s[2] - s[1], s[3] - s[2], e - s[3]];
            let m = lens[0].min(lens[1]).min(lens[2]).min(lens[3]);
            let mut acc = [0.0f64; 4];
            for j in 0..m {
                let k = [s[0] + j, s[1] + j, s[2] + j, s[3] + j];
                acc[0] += val[k[0]] * x[colid[k[0]]];
                acc[1] += val[k[1]] * x[colid[k[1]]];
                acc[2] += val[k[2]] * x[colid[k[2]]];
                acc[3] += val[k[3]] * x[colid[k[3]]];
            }
            for (lane, a) in acc.iter_mut().enumerate() {
                for k in s[lane] + m..s[lane] + lens[lane] {
                    *a += val[k] * x[colid[k]];
                }
            }
            y[i..i + 4].copy_from_slice(&acc);
            for (lane, a) in acc.iter().enumerate() {
                p0 += a;
                p1 += (i + lane + 1) as f64 * a;
            }
            i += 4;
        }
        for (i, yi) in y.iter_mut().enumerate().skip(i) {
            let mut acc = 0.0;
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                acc += val[k] * x[colid[k]];
            }
            *yi = acc;
            p0 += acc;
            p1 += (i + 1) as f64 * acc;
        }
        [p0, p1]
    }

    /// Defensive `y ← A·x` with the ABFT output probe accumulated in
    /// the same pass — the clamped counterpart of
    /// [`CsrMatrix::spmv_with_probe_into`]: the product is bit-identical
    /// to [`CsrMatrix::spmv_clamped_rowband_into`] and the returned
    /// probe to a separate
    /// [`fused::probe_of`](crate::fused::probe_of)`(y)` sweep, with rows
    /// folded into the probe chains in ascending index order as they
    /// finalize.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows` (the output buffer is caller
    /// state, not corruptible matrix data).
    pub fn spmv_clamped_probe_into(&self, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        assert_eq!(y.len(), self.n_rows, "spmv_clamped: y length mismatch");
        let (colid, val) = (&self.colid[..], &self.val[..]);
        let mut p0 = -0.0;
        let mut p1 = -0.0;
        let mut i = 0;
        while i + 4 <= self.n_rows {
            let r = [
                self.row_range_clamped(i),
                self.row_range_clamped(i + 1),
                self.row_range_clamped(i + 2),
                self.row_range_clamped(i + 3),
            ];
            let m = r[0].len().min(r[1].len()).min(r[2].len()).min(r[3].len());
            let mut acc = [0.0f64; 4];
            for j in 0..m {
                for (lane, a) in acc.iter_mut().enumerate() {
                    let k = r[lane].start + j;
                    let c = colid[k];
                    if c < x.len() {
                        *a += val[k] * x[c];
                    }
                }
            }
            for (lane, a) in acc.iter_mut().enumerate() {
                for k in r[lane].start + m..r[lane].end {
                    let c = colid[k];
                    if c < x.len() {
                        *a += val[k] * x[c];
                    }
                }
            }
            y[i..i + 4].copy_from_slice(&acc);
            for (lane, a) in acc.iter().enumerate() {
                p0 += a;
                p1 += (i + lane + 1) as f64 * a;
            }
            i += 4;
        }
        while i < self.n_rows {
            let acc = self.row_product_clamped(x, i);
            y[i] = acc;
            p0 += acc;
            p1 += (i + 1) as f64 * acc;
            i += 1;
        }
        [p0, p1]
    }

    /// Fused multi-RHS product with per-column ABFT probes: `probes[c]`
    /// receives the probe of output column `c`, accumulated as the
    /// column's rows are written. The outputs are bit-identical to
    /// [`CsrMatrix::spmm_into`] and each probe to a separate
    /// [`fused::probe_of`](crate::fused::probe_of) over that column —
    /// within every column the traversal finalizes rows in ascending
    /// index order (row bands outer, ascending; rows inside each band
    /// ascending), so each column's probe chains accumulate in exactly
    /// the separate sweep's order.
    ///
    /// # Panics
    /// Panics on the [`CsrMatrix::spmm_into`] dimension mismatches or
    /// if `probes.len() != x.k()`.
    pub fn spmm_with_probe_into(&self, x: &MultiVec, y: &mut MultiVec, probes: &mut [[f64; 2]]) {
        assert_eq!(x.n(), self.n_cols, "spmm: x row count mismatch");
        assert_eq!(y.n(), self.n_rows, "spmm: y row count mismatch");
        assert_eq!(x.k(), y.k(), "spmm: column count mismatch");
        assert_eq!(probes.len(), x.k(), "spmm: probe count mismatch");
        let (n, nc, k) = (self.n_rows, self.n_cols, x.k());
        let (colid, val) = (&self.colid[..], &self.val[..]);
        let xd = x.data();
        let yd = y.data_mut();
        for p in probes.iter_mut() {
            *p = [-0.0, -0.0];
        }
        for lo in (0..n).step_by(ROW_BAND) {
            let hi = (lo + ROW_BAND).min(n);
            let mut cb = 0;
            while cb < k {
                let w = (k - cb).min(RHS_BLOCK);
                for i in lo..hi {
                    let mut acc = [0.0f64; RHS_BLOCK];
                    for kk in self.rowptr[i]..self.rowptr[i + 1] {
                        let v = val[kk];
                        let j = colid[kk];
                        for (c, a) in acc.iter_mut().enumerate().take(w) {
                            *a += v * xd[(cb + c) * nc + j];
                        }
                    }
                    for (c, a) in acc.iter().enumerate().take(w) {
                        yd[(cb + c) * n + i] = *a;
                        probes[cb + c][0] += *a;
                        probes[cb + c][1] += (i + 1) as f64 * *a;
                    }
                }
                cb += w;
            }
        }
    }

    /// Storage range of row `i` with the defensive clamping rule: both
    /// bounds clamped to `[0, nnz]`, an inverted range treated as an
    /// empty row. The one canonical clamp shared by the ABFT kernel
    /// (`ftcg-abft`), the pluggable backends (`ftcg-kernels`) and the
    /// defensive BCSR/SELL converters — change it here, never locally.
    #[inline]
    pub fn row_range_clamped(&self, i: usize) -> std::ops::Range<usize> {
        let nnz = self.val.len();
        let start = self.rowptr[i].min(nnz);
        let end = self.rowptr[i + 1].min(nnz);
        if start < end {
            start..end
        } else {
            0..0
        }
    }

    /// Product of row `i` with `x` that tolerates corrupted structure:
    /// the row range follows [`CsrMatrix::row_range_clamped`] and
    /// out-of-range column indices are skipped. On a well-formed matrix
    /// this visits exactly the entries [`CsrMatrix::spmv_into`] visits,
    /// in the same order.
    #[inline]
    pub fn row_product_clamped(&self, x: &[f64], i: usize) -> f64 {
        let mut acc = 0.0;
        for k in self.row_range_clamped(i) {
            let j = self.colid[k];
            if j < x.len() {
                acc += self.val[k] * x[j];
            }
        }
        acc
    }

    /// Defensive `y ← A·x` built on [`CsrMatrix::row_product_clamped`];
    /// never panics on corrupted `rowptr`/`colid` contents.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows` (the output buffer is caller state,
    /// not corruptible matrix data).
    pub fn spmv_clamped_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n_rows, "spmv_clamped: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_product_clamped(x, i);
        }
    }

    /// Defensive products of the row band `rows` into `y` (one output
    /// per row of the band), with the row-band interleaving of
    /// [`CsrMatrix::spmv_rowband_into`]: four clamped rows advance in
    /// lockstep, each summing into its own accumulator in ascending
    /// storage order with the [`CsrMatrix::row_product_clamped`] skip
    /// rule — bit-identical to calling `row_product_clamped` per row.
    /// The building block both the serial and the parallel defensive
    /// row-band products share.
    ///
    /// # Panics
    /// Panics if `rows.end > n_rows` or `y.len() != rows.len()`.
    pub fn row_band_product_clamped(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        assert!(rows.end <= self.n_rows, "row band out of range");
        assert_eq!(y.len(), rows.len(), "row band: y length mismatch");
        let (colid, val) = (&self.colid[..], &self.val[..]);
        let mut i = rows.start;
        let mut o = 0;
        while i + 4 <= rows.end {
            let r = [
                self.row_range_clamped(i),
                self.row_range_clamped(i + 1),
                self.row_range_clamped(i + 2),
                self.row_range_clamped(i + 3),
            ];
            let m = r[0].len().min(r[1].len()).min(r[2].len()).min(r[3].len());
            let mut acc = [0.0f64; 4];
            // Lockstep section: every lane has at least `m` entries.
            for j in 0..m {
                for (lane, a) in acc.iter_mut().enumerate() {
                    let k = r[lane].start + j;
                    let c = colid[k];
                    if c < x.len() {
                        *a += val[k] * x[c];
                    }
                }
            }
            // Per-lane tails, same order and skip rule.
            for (lane, a) in acc.iter_mut().enumerate() {
                for k in r[lane].start + m..r[lane].end {
                    let c = colid[k];
                    if c < x.len() {
                        *a += val[k] * x[c];
                    }
                }
            }
            y[o..o + 4].copy_from_slice(&acc);
            i += 4;
            o += 4;
        }
        while i < rows.end {
            y[o] = self.row_product_clamped(x, i);
            i += 1;
            o += 1;
        }
    }

    /// Defensive `y ← A·x` through the cache-blocked row-band kernel —
    /// the same outputs as [`CsrMatrix::spmv_clamped_into`], bit for bit
    /// (see [`CsrMatrix::row_band_product_clamped`]), with four
    /// independent accumulator chains in flight.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows`.
    pub fn spmv_clamped_rowband_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n_rows, "spmv_clamped: y length mismatch");
        self.row_band_product_clamped(0..self.n_rows, x, y);
    }

    /// Copies the *value* array of `src` into this matrix in place — the
    /// fast restore path when only `Val` may differ. The two matrices
    /// must share one sparsity pattern; the pattern equality itself is a
    /// `debug_assert` (it costs a full `rowptr`/`colid` comparison, too
    /// expensive for a release-mode hot path that upholds the invariant
    /// by construction).
    ///
    /// # Panics
    /// Panics if the dimensions or `nnz` differ; debug-panics if the
    /// sparsity patterns (`rowptr`/`colid`) differ.
    pub fn copy_values_from(&mut self, src: &CsrMatrix) {
        assert_eq!(
            (self.n_rows, self.n_cols),
            (src.n_rows, src.n_cols),
            "copy_values_from: dimension mismatch"
        );
        assert_eq!(
            self.val.len(),
            src.val.len(),
            "copy_values_from: nnz mismatch"
        );
        debug_assert!(
            self.rowptr == src.rowptr && self.colid == src.colid,
            "copy_values_from: sparsity patterns differ"
        );
        self.val.copy_from_slice(&src.val);
    }

    /// Restores the full image of `src` — all three CSR arrays — into
    /// this matrix in place, without allocating. This is the rollback
    /// path of the resilient executor: the destination may carry
    /// arbitrary bit corruption in `val`, `colid` *and* `rowptr` (so no
    /// pattern check is possible), but fault injection never changes
    /// array *lengths*, which is all this requires.
    ///
    /// # Panics
    /// Panics if the dimensions or array lengths differ (use
    /// [`CsrMatrix::assign_from`] for reshaping copies).
    pub fn copy_image_from(&mut self, src: &CsrMatrix) {
        assert_eq!(
            (self.n_rows, self.n_cols),
            (src.n_rows, src.n_cols),
            "copy_image_from: dimension mismatch"
        );
        assert_eq!(
            self.val.len(),
            src.val.len(),
            "copy_image_from: nnz mismatch"
        );
        self.rowptr.copy_from_slice(&src.rowptr);
        self.colid.copy_from_slice(&src.colid);
        self.val.copy_from_slice(&src.val);
    }

    /// `clone_from` that reuses the existing allocations whatever the
    /// shapes: after the call `self == src` bit for bit, and no heap
    /// allocation happened if this matrix's buffers already had enough
    /// capacity. A buffer that is too small grows to *exactly* the new
    /// length — amortised doubling would leave a retained image at up
    /// to twice the largest matrix it ever held.
    pub fn assign_from(&mut self, src: &CsrMatrix) {
        fn assign<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
            dst.clear();
            dst.reserve_exact(src.len());
            dst.extend_from_slice(src);
        }
        self.n_rows = src.n_rows;
        self.n_cols = src.n_cols;
        assign(&mut self.rowptr, &src.rowptr);
        assign(&mut self.colid, &src.colid);
        assign(&mut self.val, &src.val);
    }

    /// Transpose-vector product `y ← Aᵀ·x` into a caller-provided buffer.
    /// Needed by CGNE/BiCG variants.
    ///
    /// # Panics
    /// Panics if `x.len() != n_rows` or `y.len() != n_cols`.
    pub fn spmv_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_rows, "spmv_t: x length mismatch");
        assert_eq!(y.len(), self.n_cols, "spmv_t: y length mismatch");
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                y[self.colid[k]] += self.val[k] * xi;
            }
        }
    }

    /// Defensive transpose-vector product `y ← Aᵀ·x` that tolerates
    /// corrupted structure: row ranges follow
    /// [`CsrMatrix::row_range_clamped`] and out-of-range column indices
    /// are skipped. On a well-formed matrix this visits exactly the
    /// entries [`CsrMatrix::spmv_transpose_into`] visits, in the same
    /// order — bit-identical output.
    ///
    /// # Panics
    /// Panics if `x.len() != n_rows` or `y.len() != n_cols` (caller
    /// state, not corruptible matrix data).
    pub fn spmv_transpose_clamped_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_rows, "spmv_t_clamped: x length mismatch");
        assert_eq!(y.len(), self.n_cols, "spmv_t_clamped: y length mismatch");
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            for k in self.row_range_clamped(i) {
                let j = self.colid[k];
                if j < y.len() {
                    y[j] += self.val[k] * xi;
                }
            }
        }
    }

    /// Returns the transposed matrix in CSR form (counting sort over columns).
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut rowptr_t = vec![0usize; self.n_cols + 1];
        for &c in &self.colid {
            rowptr_t[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            rowptr_t[i + 1] += rowptr_t[i];
        }
        let mut colid_t = vec![0usize; nnz];
        let mut val_t = vec![0.0; nnz];
        let mut next = rowptr_t.clone();
        for i in 0..self.n_rows {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                let c = self.colid[k];
                let dst = next[c];
                colid_t[dst] = i;
                val_t[dst] = self.val[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            rowptr: rowptr_t,
            colid: colid_t,
            val: val_t,
        }
    }

    /// `true` iff `A == Aᵀ` up to absolute tolerance `tol` on every entry.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        for i in 0..self.n_rows {
            for (j, v) in self.row(i) {
                if (v - t.get(i, j)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Extracts the diagonal as a dense vector (zeros where absent).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn diag(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n_rows];
        self.diag_into(&mut out);
        out
    }

    /// Writes the diagonal into a caller-provided buffer (zeros where
    /// absent) — the allocation-free form of [`CsrMatrix::diag`].
    ///
    /// # Panics
    /// Panics if the matrix is not square or `out.len() != n_rows`.
    pub fn diag_into(&self, out: &mut [f64]) {
        assert!(self.is_square(), "diag: matrix must be square");
        assert_eq!(out.len(), self.n_rows, "diag: output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.get(i, i);
        }
    }

    /// Matrix 1-norm: maximum absolute column sum (eq. 8 of the paper).
    pub fn norm1(&self) -> f64 {
        let mut colsum = vec![0.0_f64; self.n_cols];
        for (k, &c) in self.colid.iter().enumerate() {
            colsum[c] += self.val[k].abs();
        }
        colsum.into_iter().fold(0.0, f64::max)
    }

    /// Matrix ∞-norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| self.row(i).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Per-column plain sums `Σᵢ aᵢⱼ` (the unshifted checksum of eq. 1).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.n_cols];
        for (k, &c) in self.colid.iter().enumerate() {
            s[c] += self.val[k];
        }
        s
    }

    /// `true` iff the matrix is strictly diagonally dominant by rows —
    /// the restriction Shantharam et al. need and the paper's shifted
    /// checksums remove.
    pub fn is_strictly_diagonally_dominant(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.n_rows {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (j, v) in self.row(i) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            if diag <= off {
                return false;
            }
        }
        true
    }

    /// Maximum number of nonzeros in any column (`n'` in Theorem 2's
    /// error analysis of the norm computation).
    pub fn max_col_nnz(&self) -> usize {
        let mut counts = vec![0usize; self.n_cols];
        for &c in &self.colid {
            counts[c] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Converts to a COO (triplet) representation.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            for (j, v) in self.row(i) {
                coo.push(i, j, v);
            }
        }
        coo
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> CsrMatrix {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            rowptr: (0..=n).collect(),
            colid: (0..n).collect(),
            val: vec![1.0; n],
        }
    }

    /// Dense row-major rendering (test/debug helper; O(n·m) memory).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.n_cols]; self.n_rows];
        for (i, row) in d.iter_mut().enumerate() {
            for (j, v) in self.row(i) {
                row[j] = v;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 test matrix:
    /// [ 4 1 0 ]
    /// [ 1 3 1 ]
    /// [ 0 1 2 ]
    fn sample() -> CsrMatrix {
        CsrMatrix::new(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![4.0, 1.0, 1.0, 3.0, 1.0, 1.0, 2.0],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_ok() {
        let m = sample();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.nnz(), 7);
        assert!(m.is_square());
    }

    #[test]
    fn new_rejects_bad_rowptr_len() {
        let e = CsrMatrix::new(3, 3, vec![0, 2, 7], vec![0; 7], vec![0.0; 7]);
        assert!(matches!(e, Err(SparseError::MalformedRowPtr { .. })));
    }

    #[test]
    fn new_rejects_nonzero_first_rowptr() {
        let e = CsrMatrix::new(1, 1, vec![1, 1], vec![], vec![]);
        assert!(matches!(e, Err(SparseError::MalformedRowPtr { .. })));
    }

    #[test]
    fn new_rejects_wrong_last_rowptr() {
        let e = CsrMatrix::new(1, 1, vec![0, 2], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::MalformedRowPtr { .. })));
    }

    #[test]
    fn new_rejects_decreasing_rowptr() {
        let e = CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::MalformedRowPtr { .. })));
    }

    #[test]
    fn new_rejects_colid_out_of_bounds() {
        let e = CsrMatrix::new(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn new_rejects_len_mismatch() {
        let e = CsrMatrix::new(1, 2, vec![0, 1], vec![0, 1], vec![1.0]);
        assert!(matches!(e, Err(SparseError::DimensionMismatch { .. })));
    }

    #[test]
    fn validate_detects_corruption() {
        let mut m = sample();
        m.colid_mut()[0] = 99;
        assert!(m.validate().is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let y = m.spmv(&x);
        assert_eq!(y, vec![6.0, 10.0, 8.0]);
    }

    #[test]
    fn spmv_with_probe_is_bit_identical_to_separate_sweeps() {
        for n in [1, 3, 4, 7, 50] {
            let m = crate::gen::random_spd(n, 0.3, n as u64 + 5).unwrap();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
            let mut y_ref = vec![0.0; n];
            m.spmv_into(&x, &mut y_ref);
            let want = crate::fused::probe_of(&y_ref);
            let mut y = vec![0.0; n];
            let probe = m.spmv_with_probe_into(&x, &mut y);
            for i in 0..n {
                assert_eq!(y[i].to_bits(), y_ref[i].to_bits(), "n={n} row {i}");
            }
            assert_eq!(probe[0].to_bits(), want[0].to_bits(), "n={n} probe[0]");
            assert_eq!(probe[1].to_bits(), want[1].to_bits(), "n={n} probe[1]");
        }
    }

    #[test]
    fn spmv_clamped_probe_is_bit_identical_to_separate_sweeps() {
        let m = crate::gen::random_spd(41, 0.15, 77).unwrap();
        let x: Vec<f64> = (0..41).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut y_ref = vec![0.0; 41];
        m.spmv_clamped_into(&x, &mut y_ref);
        let want = crate::fused::probe_of(&y_ref);
        let mut y = vec![0.0; 41];
        let probe = m.spmv_clamped_probe_into(&x, &mut y);
        assert_eq!(y, y_ref);
        assert_eq!(probe[0].to_bits(), want[0].to_bits());
        assert_eq!(probe[1].to_bits(), want[1].to_bits());
    }

    #[test]
    fn spmv_clamped_probe_survives_corruption() {
        // Corrupt structure and a value: the fused kernel must match the
        // separate clamped product + probe sweeps bit for bit, not panic.
        let mut m = crate::gen::random_spd(30, 0.2, 13).unwrap();
        m.colid_mut()[4] = 999;
        m.rowptr_mut()[7] = usize::MAX / 2;
        m.val_mut()[9] = f64::NAN;
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut y_ref = vec![0.0; 30];
        m.spmv_clamped_into(&x, &mut y_ref);
        let want = crate::fused::probe_of(&y_ref);
        let mut y = vec![0.0; 30];
        let probe = m.spmv_clamped_probe_into(&x, &mut y);
        for i in 0..30 {
            assert_eq!(y[i].to_bits(), y_ref[i].to_bits(), "row {i}");
        }
        assert_eq!(probe[0].to_bits(), want[0].to_bits());
        assert_eq!(probe[1].to_bits(), want[1].to_bits());
    }

    #[test]
    fn spmm_with_probe_matches_spmm_and_column_probes() {
        let m = crate::gen::random_spd(33, 0.2, 31).unwrap();
        let k = 5;
        let mut x = MultiVec::zeros(33, k);
        for c in 0..k {
            for (i, v) in x.col_mut(c).iter_mut().enumerate() {
                *v = ((i + 11 * c) as f64 * 0.23).sin();
            }
        }
        let mut y_ref = MultiVec::zeros(33, k);
        m.spmm_into(&x, &mut y_ref);
        let mut y = MultiVec::zeros(33, k);
        let mut probes = vec![[1.0; 2]; k]; // dirty: kernel must reset
        m.spmm_with_probe_into(&x, &mut y, &mut probes);
        for (c, probe) in probes.iter().enumerate() {
            let want = crate::fused::probe_of(y_ref.col(c));
            for i in 0..33 {
                assert_eq!(
                    y.col(c)[i].to_bits(),
                    y_ref.col(c)[i].to_bits(),
                    "col {c} row {i}"
                );
            }
            assert_eq!(probe[0].to_bits(), want[0].to_bits(), "col {c} probe[0]");
            assert_eq!(probe[1].to_bits(), want[1].to_bits(), "col {c} probe[1]");
        }
    }

    #[test]
    fn spmv_identity_is_noop() {
        let id = CsrMatrix::identity(4);
        let x = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(id.spmv(&x), x.to_vec());
    }

    #[test]
    #[should_panic(expected = "x length mismatch")]
    fn spmv_rejects_wrong_x() {
        sample().spmv_into(&[1.0], &mut [0.0; 3]);
    }

    #[test]
    fn spmv_transpose_matches_transpose_spmv() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y1 = vec![0.0; 3];
        m.spmv_transpose_into(&x, &mut y1);
        let y2 = m.transpose().spmv(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn clamped_transpose_matches_plain_on_clean_matrix() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let mut plain = vec![0.0; 3];
        m.spmv_transpose_into(&x, &mut plain);
        let mut clamped = vec![0.0; 3];
        m.spmv_transpose_clamped_into(&x, &mut clamped);
        assert_eq!(plain, clamped);
    }

    #[test]
    fn clamped_transpose_survives_corruption() {
        let mut m = sample();
        m.rowptr_mut()[1] = usize::MAX; // wild range
        m.colid_mut()[0] = 1 << 40; // wild column
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv_transpose_clamped_into(&x, &mut y); // must not panic
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose().to_dense(), m.to_dense());
    }

    #[test]
    fn transpose_rectangular() {
        // 2x3 matrix [1 0 2; 0 3 0]
        let m = CsrMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
    }

    #[test]
    fn symmetric_sample() {
        assert!(sample().is_symmetric(0.0));
    }

    #[test]
    fn asymmetric_detected() {
        let m = CsrMatrix::new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 5.0, 1.0]).unwrap();
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn diag_extraction() {
        assert_eq!(sample().diag(), vec![4.0, 3.0, 2.0]);
    }

    #[test]
    fn norms() {
        let m = sample();
        // column sums of abs: [5, 5, 3] -> norm1 = 5
        assert_eq!(m.norm1(), 5.0);
        // row sums of abs: [5, 5, 3] -> norm_inf = 5
        assert_eq!(m.norm_inf(), 5.0);
    }

    #[test]
    fn column_sums_match() {
        assert_eq!(sample().column_sums(), vec![5.0, 5.0, 3.0]);
    }

    #[test]
    fn diagonal_dominance() {
        assert!(sample().is_strictly_diagonally_dominant());
        // Laplacian-like row sums equal diag -> NOT strict.
        let m = CsrMatrix::new(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![1.0, -1.0, -1.0, 1.0],
        )
        .unwrap();
        assert!(!m.is_strictly_diagonally_dominant());
    }

    #[test]
    fn get_missing_is_zero() {
        assert_eq!(sample().get(0, 2), 0.0);
    }

    #[test]
    fn density_and_words() {
        let m = sample();
        assert!((m.density() - 7.0 / 9.0).abs() < 1e-15);
        assert_eq!(m.memory_words(), 2 * 7 + 3 + 1);
    }

    #[test]
    fn max_col_nnz_counts() {
        assert_eq!(sample().max_col_nnz(), 3); // column 1 has 3 entries
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        let back = m.to_coo().to_csr();
        assert_eq!(back.to_dense(), m.to_dense());
    }

    #[test]
    fn copy_values_from_restores_values() {
        let pristine = sample();
        let mut live = pristine.clone();
        live.val_mut()[2] = -7.5;
        live.val_mut()[6] = f64::NAN;
        live.copy_values_from(&pristine);
        assert_eq!(live, pristine);
    }

    #[test]
    #[should_panic(expected = "nnz mismatch")]
    fn copy_values_from_rejects_nnz_mismatch() {
        let mut a = sample();
        let b = CsrMatrix::identity(3);
        a.copy_values_from(&b);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn copy_values_from_rejects_dimension_mismatch() {
        let mut a = CsrMatrix::identity(4);
        let b = CsrMatrix::identity(5);
        a.copy_values_from(&b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sparsity patterns differ")]
    fn copy_values_from_debug_checks_pattern() {
        let mut a = sample();
        a.colid_mut()[0] = 1; // same lengths, different pattern
        let pristine = sample();
        a.copy_values_from(&pristine);
    }

    #[test]
    fn copy_image_from_heals_corrupted_structure() {
        let pristine = sample();
        let mut live = pristine.clone();
        live.rowptr_mut()[1] = usize::MAX;
        live.colid_mut()[3] = 1 << 50;
        live.val_mut()[0] = f64::INFINITY;
        assert!(live.validate().is_err());
        live.copy_image_from(&pristine);
        assert_eq!(live, pristine);
        assert!(live.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "nnz mismatch")]
    fn copy_image_from_rejects_length_mismatch() {
        let mut a = sample();
        let b = CsrMatrix::identity(3);
        a.copy_image_from(&b);
    }

    #[test]
    fn assign_from_reshapes_and_matches_clone() {
        let small = CsrMatrix::identity(2);
        let big = sample();
        let mut buf = small.clone();
        buf.assign_from(&big);
        assert_eq!(buf, big);
        // Shrinking works too and keeps equality exact.
        buf.assign_from(&small);
        assert_eq!(buf, small);
    }

    #[test]
    fn assign_from_grows_exactly_and_keeps_the_high_water_mark() {
        // Shapes chosen so amortised doubling would overshoot: 10 → 11
        // rows must reserve 12 + 2·11 words, not twice the old buffers.
        let mut buf = CsrMatrix::identity(10);
        let big = CsrMatrix::identity(11);
        buf.assign_from(&big);
        assert_eq!(buf, big);
        assert_eq!(buf.capacity_words(), big.memory_words());
        // A smaller image reuses the buffers: capacity stays put.
        buf.assign_from(&CsrMatrix::identity(3));
        assert_eq!(buf.capacity_words(), big.memory_words());
    }

    #[test]
    fn diag_into_matches_diag() {
        let m = sample();
        let mut out = vec![99.0; 3];
        m.diag_into(&mut out);
        assert_eq!(out, m.diag());
        assert_eq!(out, vec![4.0, 3.0, 2.0]);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        let y = m.spmv(&[]);
        assert!(y.is_empty());
    }

    fn det_x(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() * 1.5).collect()
    }

    #[test]
    fn rowband_spmv_is_bit_identical_to_reference() {
        // Sizes straddling the 4-row quads and the 256-row band edge.
        for n in [1usize, 3, 4, 5, 7, 64, 255, 256, 257] {
            let a = crate::gen::random_spd(n, 0.08, n as u64).unwrap();
            let x = det_x(n);
            let want = a.spmv(&x);
            let mut got = vec![0.0; n];
            a.spmv_rowband_into(&x, &mut got);
            assert!(
                want.iter()
                    .zip(&got)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n = {n}"
            );
            let mut clamped = vec![0.0; n];
            a.spmv_clamped_rowband_into(&x, &mut clamped);
            assert!(
                want.iter()
                    .zip(&clamped)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "clamped, n = {n}"
            );
        }
    }

    #[test]
    fn rowband_clamped_matches_scalar_clamped_on_corruption() {
        let mut a = crate::gen::poisson2d(9).unwrap(); // 81 rows
        a.rowptr_mut()[10] = usize::MAX;
        a.rowptr_mut()[40] = 2; // inverted range
        a.colid_mut()[17] = 1 << 45;
        let x = det_x(81);
        let mut want = vec![0.0; 81];
        a.spmv_clamped_into(&x, &mut want);
        let mut got = vec![0.0; 81];
        a.spmv_clamped_rowband_into(&x, &mut got);
        assert!(want
            .iter()
            .zip(&got)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn spmm_columns_are_bit_identical_to_spmv() {
        let n = 300; // crosses a row-band boundary
        let a = crate::gen::random_spd(n, 0.03, 11).unwrap();
        for k in [1usize, 2, 3, 4, 5, 8] {
            let mut x = MultiVec::zeros(n, k);
            for c in 0..k {
                let xc: Vec<f64> = (0..n).map(|i| ((i + 31 * c) as f64 * 0.29).cos()).collect();
                x.col_mut(c).copy_from_slice(&xc);
            }
            let mut y = MultiVec::zeros(n, k);
            a.spmm_into(&x, &mut y);
            let mut yc = MultiVec::zeros(n, k);
            a.spmm_clamped_into(&x, &mut yc);
            for c in 0..k {
                let want = a.spmv(x.col(c));
                assert!(
                    want.iter()
                        .zip(y.col(c))
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "k = {k}, col {c}"
                );
                assert!(
                    want.iter()
                        .zip(yc.col(c))
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "clamped, k = {k}, col {c}"
                );
            }
        }
    }

    #[test]
    fn spmm_clamped_matches_per_column_clamped_on_corruption() {
        let mut a = crate::gen::poisson2d(8).unwrap(); // 64 rows
        a.rowptr_mut()[5] = usize::MAX;
        a.colid_mut()[9] = 1 << 33;
        let k = 3;
        let mut x = MultiVec::zeros(64, k);
        for c in 0..k {
            let xc: Vec<f64> = (0..64)
                .map(|i| ((i * (c + 2)) as f64 * 0.11).sin())
                .collect();
            x.col_mut(c).copy_from_slice(&xc);
        }
        let mut y = MultiVec::zeros(64, k);
        a.spmm_clamped_into(&x, &mut y);
        for c in 0..k {
            let mut want = vec![0.0; 64];
            a.spmv_clamped_into(x.col(c), &mut want);
            assert!(want
                .iter()
                .zip(y.col(c))
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
