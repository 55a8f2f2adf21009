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
use crate::order::{RowOrder, LANES};
use crate::Result;

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

/// Window offsets in natural order: the visit order of a window the
/// [`RowOrder`] does not cover.
const NATURAL: [u32; RowOrder::WINDOW] = {
    let mut a = [0u32; RowOrder::WINDOW];
    let mut i = 0u32;
    while (i as usize) < a.len() {
        a[i as usize] = i;
        i += 1;
    }
    a
};

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

    /// The one defensive traversal. [`LANES`] clamped rows advance in
    /// lockstep, each summing into its own accumulator in ascending
    /// storage order with the [`CsrMatrix::row_product_clamped`] skip
    /// rule, so the serial floating-point add chains overlap in the
    /// pipeline while every row's sum stays bit-identical to
    /// `row_product_clamped`.
    ///
    /// Two things keep the lanes busy. Each lane's `colid`/`val`
    /// sub-slices are cut once per band — the lockstep prefix to the
    /// band's shortest row, then the per-lane tails — so the only check
    /// left per nonzero is the clamp `c < x.len()`, which is the
    /// defensive check itself. And rows are *visited* in `order`
    /// ([`RowOrder`]: sorted by pristine length inside
    /// [`RowOrder::WINDOW`]-row windows), so the rows of a band have one
    /// length: no tails, and one trip count per band for the branch
    /// predictor. Row ranges are always read from the live `rowptr`; a
    /// stale order only brings the tails back.
    ///
    /// Finished rows of a window are parked in a stack buffer and handed
    /// to `sink(row, value)` in ascending row order. The order applies
    /// to the windows `rows` covers whole; it is ignored (natural order)
    /// for partial windows and when it was built for another row count.
    #[inline(always)]
    fn row_band_clamped_each(
        &self,
        rows: std::ops::Range<usize>,
        order: &RowOrder,
        x: &[f64],
        mut sink: impl FnMut(usize, f64),
    ) {
        const WINDOW: usize = RowOrder::WINDOW;
        // `Val` sets the clamp, as in `row_range_clamped`; the row
        // pointer is read as `lo[i]..hi[i]`.
        let val = &self.val[..];
        let colid = &self.colid[..val.len()];
        let (lo, hi) = (&self.rowptr[..self.n_rows], &self.rowptr[1..=self.n_rows]);
        // Row `i`'s clamped entries: `get` is `None` exactly where
        // `row_range_clamped` yields the empty row.
        let row = |i: usize| {
            let range = lo[i]..hi[i].min(val.len());
            (
                colid.get(range.clone()).unwrap_or_default(),
                val.get(range).unwrap_or_default(),
            )
        };
        let product = |c: &[usize], v: &[f64], acc: &mut f64| {
            for (&col, &w) in c.iter().zip(v) {
                if col < x.len() {
                    *acc += w * x[col];
                }
            }
        };
        let perm = order.for_rows(self.n_rows);
        // Finished rows of the window, parked at `row % WINDOW`.
        let mut out = [0.0f64; WINDOW];
        let mut w0 = rows.start;
        while w0 < rows.end {
            let w1 = rows.end.min((w0 / WINDOW + 1) * WINDOW);
            let len = w1 - w0;
            // The window's rows in visit order, as window offsets; the
            // order applies to whole windows only.
            let whole = w0.is_multiple_of(WINDOW) && (len == WINDOW || w1 == self.n_rows);
            let visit = match perm {
                Some(perm) if whole => &perm[w0..w1],
                _ => &NATURAL[..len],
            };
            let mut bands = visit.chunks_exact(LANES);
            for band in &mut bands {
                let i: [usize; LANES] =
                    std::array::from_fn(|lane| w0 + band[lane] as usize % WINDOW);
                let r: [(&[usize], &[f64]); LANES] = std::array::from_fn(|lane| row(i[lane]));
                let m = r.iter().map(|(c, _)| c.len()).min().unwrap_or(0);
                let head: [(&[usize], &[f64]); LANES] =
                    std::array::from_fn(|lane| (&r[lane].0[..m], &r[lane].1[..m]));
                let mut acc = [0.0f64; LANES];
                // Lockstep section: every lane has at least `m` entries.
                for j in 0..m {
                    for (lane, a) in acc.iter_mut().enumerate() {
                        let col = head[lane].0[j];
                        if col < x.len() {
                            *a += head[lane].1[j] * x[col];
                        }
                    }
                }
                // Per-lane tails, same order and skip rule.
                for (lane, a) in acc.iter_mut().enumerate() {
                    product(&r[lane].0[m..], &r[lane].1[m..], a);
                    out[i[lane] % WINDOW] = *a;
                }
            }
            for &e in bands.remainder() {
                let i = w0 + e as usize % WINDOW;
                let (c, v) = row(i);
                let mut acc = 0.0;
                product(c, v, &mut acc);
                out[i % WINDOW] = acc;
            }
            for i in w0..w1 {
                sink(i, out[i % WINDOW]);
            }
            w0 = w1;
        }
    }

    /// Defensive products of the row band `rows` into `y` (one output
    /// per row of the band) through the one lockstep traversal, rows
    /// visited in natural order — bit-identical to calling
    /// [`CsrMatrix::row_product_clamped`] per row. The building block
    /// the parallel defensive product and ONLINE-DETECTION's residual
    /// check share.
    ///
    /// # Panics
    /// Panics if `rows.end > n_rows` or `y.len() != rows.len()`.
    pub fn row_band_product_clamped(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        assert!(rows.end <= self.n_rows, "row band out of range");
        assert_eq!(y.len(), rows.len(), "row band: y length mismatch");
        let base = rows.start;
        self.row_band_clamped_each(rows, &RowOrder::new(), x, |i, v| y[i - base] = v);
    }

    /// Defensive `y ← A·x` through the lockstep traversal, rows visited
    /// in natural order — the same outputs as
    /// [`CsrMatrix::spmv_clamped_into`], bit for bit, with several
    /// independent accumulator chains in flight.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows`.
    pub fn spmv_clamped_rowband_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_clamped_ordered_into(&RowOrder::new(), x, y);
    }

    /// [`CsrMatrix::spmv_clamped_rowband_into`] with rows visited in
    /// `order`: the same `y`, bit for bit, whatever the order holds
    /// (see [`RowOrder`]); an order built from this matrix's pristine
    /// row lengths makes it faster.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows`.
    pub fn spmv_clamped_ordered_into(&self, order: &RowOrder, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n_rows, "spmv_clamped: y length mismatch");
        self.row_band_clamped_each(0..self.n_rows, order, x, |i, v| y[i] = v);
    }

    /// Defensive `y ← A·x` with the ABFT output probe
    /// `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]` accumulated in the same pass: the product
    /// is bit-identical to [`CsrMatrix::spmv_clamped_rowband_into`] (the
    /// same traversal) and the returned probe to a separate
    /// [`fused::probe_of`](crate::fused::probe_of)`(y)` sweep, with rows
    /// folded into the probe chains in ascending index order as their
    /// window finishes — without re-reading `y`.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows` (the output buffer is caller
    /// state, not corruptible matrix data).
    pub fn spmv_clamped_probe_into(&self, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        self.spmv_clamped_probe_ordered_into(&RowOrder::new(), x, y)
    }

    /// [`CsrMatrix::spmv_clamped_probe_into`] with rows visited in
    /// `order`: the same `y` and probe, bit for bit, whatever the order
    /// holds (see [`RowOrder`]).
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows`.
    pub fn spmv_clamped_probe_ordered_into(
        &self,
        order: &RowOrder,
        x: &[f64],
        y: &mut [f64],
    ) -> [f64; 2] {
        assert_eq!(y.len(), self.n_rows, "spmv_clamped: y length mismatch");
        let mut p0 = -0.0;
        let mut p1 = -0.0;
        // Rows arrive in ascending order from 0, so the weight `i + 1`
        // is counted in `f64` (exact below 2⁵³ rows) instead of being
        // converted from `usize` once per row.
        let mut weight = 0.0;
        self.row_band_clamped_each(0..self.n_rows, order, x, |i, v| {
            weight += 1.0;
            debug_assert_eq!(weight, (i + 1) as f64);
            y[i] = v;
            p0 += v;
            p1 += weight * v;
        });
        [p0, p1]
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The structural corruption the row-band tests share, applied to
    /// every word the matrix is large enough to have.
    fn corrupt_structure(a: &mut CsrMatrix) {
        if let Some(w) = a.rowptr_mut().get_mut(10) {
            *w = usize::MAX;
        }
        if let Some(w) = a.rowptr_mut().get_mut(40) {
            *w = 2; // inverted range
        }
        if let Some(w) = a.colid_mut().get_mut(17) {
            *w = 1 << 45;
        }
    }

    /// Every entry point of the one traversal against the scalar clamped
    /// reference, rows visited in natural order and in `order`.
    fn assert_traversal_matches_reference(a: &CsrMatrix, order: &RowOrder, what: &str) {
        let n = a.n_rows();
        let x = det_x(a.n_cols());
        let mut want = vec![0.0; n];
        a.spmv_clamped_into(&x, &mut want);
        let want_probe = crate::fused::probe_of(&want);
        let mut banded = vec![0.0; n];
        a.spmv_clamped_rowband_into(&x, &mut banded);
        assert_eq!(bits(&banded), bits(&want), "rowband, {what}");
        let mut ordered = vec![0.0; n];
        a.spmv_clamped_ordered_into(order, &x, &mut ordered);
        assert_eq!(bits(&ordered), bits(&want), "ordered, {what}");
        for (name, order) in [("natural", &RowOrder::new()), ("ordered", order)] {
            let mut probed = vec![0.0; n];
            let probe = a.spmv_clamped_probe_ordered_into(order, &x, &mut probed);
            assert_eq!(bits(&probed), bits(&want), "{name} probe y, {what}");
            assert_eq!(bits(&probe), bits(&want_probe), "{name} probe, {what}");
        }
    }

    #[test]
    fn rowband_spmv_is_bit_identical_to_reference() {
        // Sizes below the lane count and straddling lanes and windows;
        // the order is built from the clean matrix and stays in use
        // after the structure is corrupted.
        for n in [1usize, 2, 3, 4, 5, 7, 63, 64, 65, 130, 255, 256, 257] {
            let mut a = crate::gen::random_spd(n, 0.08, n as u64).unwrap();
            let mut order = RowOrder::new();
            order.rebuild(&a);
            for corrupt in [false, true] {
                if corrupt {
                    corrupt_structure(&mut a);
                } else {
                    let x = det_x(n);
                    let mut want = vec![0.0; n];
                    a.spmv_clamped_into(&x, &mut want);
                    assert_eq!(bits(&want), bits(&a.spmv(&x)), "n = {n}");
                }
                assert_traversal_matches_reference(
                    &a,
                    &order,
                    &format!("n = {n}, corrupt = {corrupt}"),
                );
            }
        }
    }

    #[test]
    fn ordered_traversal_survives_ragged_rows_and_foreign_orders() {
        // Empty rows, short rows and one row far longer than the rest of
        // its window, so the window is sorted and its bands are ragged.
        let n = 150;
        let lens: Vec<usize> = (0..n)
            .map(|i| if i == 70 { 140 } else { (i * 7) % 6 })
            .collect();
        let mut rowptr = vec![0usize];
        let mut colid = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            colid.extend((0..len).map(|k| (i + 3 * k) % n));
            rowptr.push(colid.len());
        }
        let val: Vec<f64> = (0..colid.len()).map(|k| ((k % 17) as f64) - 8.25).collect();
        let mut a = CsrMatrix::new(n, n, rowptr, colid, val).unwrap();
        let mut order = RowOrder::new();
        order.rebuild(&a);
        assert_ne!(order.as_slice()[127], 127, "the long row's window sorts");
        assert_traversal_matches_reference(&a, &order, "ragged");

        // Orders that were not built for this matrix: another matrix of
        // the same order, and the wrong length.
        let mut foreign = RowOrder::new();
        foreign.rebuild(&crate::gen::random_spd(n, 0.05, 3).unwrap());
        assert_ne!(foreign, order);
        assert_traversal_matches_reference(&a, &foreign, "foreign order");
        foreign.rebuild(&CsrMatrix::identity(n + 1));
        assert_traversal_matches_reference(&a, &foreign, "wrong length");

        // Corruption after the order was built: wild, inverted and
        // overlapping ranges, wild columns.
        a.rowptr_mut()[70] = usize::MAX;
        a.rowptr_mut()[20] = 400; // rows 19.. overlap what follows
        a.rowptr_mut()[100] = 1; // inverted
        a.colid_mut()[33] = n;
        a.colid_mut()[200] = usize::MAX;
        assert_traversal_matches_reference(&a, &order, "ragged, corrupted");
    }

    #[test]
    fn rowband_clamped_matches_scalar_clamped_on_corruption() {
        let mut a = crate::gen::poisson2d(9).unwrap(); // 81 rows
        corrupt_structure(&mut a);
        let x = det_x(81);
        let mut want = vec![0.0; 81];
        a.spmv_clamped_into(&x, &mut want);
        let mut got = vec![0.0; 81];
        a.spmv_clamped_rowband_into(&x, &mut got);
        assert_eq!(bits(&got), bits(&want));
    }
}
