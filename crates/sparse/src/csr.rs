//! Compressed sparse row (CSR) matrix.
//!
//! The storage layout is exactly the one Algorithm 2 of the paper protects:
//! three arrays `Val ∈ R^{nnz}`, `Colid ∈ N^{nnz}` and `Rowidx ∈ N^{n+1}`
//! (named `val`, `colid`, `rowptr` here; the paper indexes rows from 1, we
//! index from 0). The fault injector corrupts these arrays through
//! [`CsrWords::write`] (on a `CsrMatrix`, the `*_mut` accessors; a
//! resilient solve writes into an overlay over its pristine matrix
//! instead), so the invariants documented on [`CsrMatrix::new`] are
//! *not* guaranteed to hold on a corrupted instance; use
//! [`CsrMatrix::validate`] to re-check them.
//!
//! `Colid` and `Rowidx` hold 32-bit words: a stored entry costs 12 bytes
//! (an `f64` and a `u32`) and a row 4, where `usize` indices cost 16 and
//! 8. Every index a well-formed matrix stores is below its *index bound*
//! `max(n_cols, nnz + 1)`, and every constructor rejects a bound above
//! [`MAX_INDEX_BOUND`] = 2³⁰ with [`SparseError::IndexWidth`]. That
//! leaves two spare bits in each word, and it is the largest bound for
//! which the fault model's index bit range (the bound's bit width plus
//! one bit that can push an index past it) still fits the word, so an
//! injected flip always lands on a bit the word has.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::order::{RowOrder, LANES};
use crate::overlay::CsrWords;
use crate::Result;

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Row pointer array (`Rowidx` in the paper), length `n_rows + 1`.
    rowptr: Vec<u32>,
    /// Column indices (`Colid` in the paper), length `nnz`.
    colid: Vec<u32>,
    /// Nonzero values (`Val` in the paper), length `nnz`.
    val: Vec<f64>,
}

/// The largest index bound `max(n_cols, nnz + 1)` a [`CsrMatrix`] may
/// have (see the module docs).
pub const MAX_INDEX_BOUND: usize = 1 << 30;

/// `Ok` iff a matrix with `n_cols` columns and `nnz` stored entries fits
/// 32-bit indices: its index bound `max(n_cols, nnz + 1)` is at most
/// [`MAX_INDEX_BOUND`]. Depends on the dimensions alone, so every
/// constructor checks it before it allocates the index arrays.
pub(crate) fn check_index_bound(n_cols: usize, nnz: usize) -> Result<()> {
    let bound = n_cols.max(nnz.saturating_add(1));
    if bound > MAX_INDEX_BOUND {
        return Err(SparseError::IndexWidth { bound });
    }
    Ok(())
}

/// `v` as an index word. Callers convert only values below an index
/// bound that [`check_index_bound`] accepted, so the error is a typed
/// backstop, not an expected outcome.
pub(crate) fn index_word(v: usize) -> Result<u32> {
    u32::try_from(v).map_err(|_| SparseError::IndexWidth {
        bound: v.saturating_add(1),
    })
}

/// Bytes of `vals` values and `colids + rowptrs` index words.
fn array_bytes(vals: usize, colids: usize, rowptrs: usize) -> usize {
    vals * std::mem::size_of::<f64>() + (colids + rowptrs) * std::mem::size_of::<u32>()
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        Self::from_parts_unchecked(
            self.n_rows,
            self.n_cols,
            self.rowptr.clone(),
            self.colid.clone(),
            self.val.clone(),
        )
    }

    /// Copies `src` into this matrix's own buffers, whatever the shapes:
    /// no allocation when they are already large enough (a retained
    /// checkpoint buffer saving the same matrix again).
    fn clone_from(&mut self, src: &Self) {
        self.n_rows = src.n_rows;
        self.n_cols = src.n_cols;
        self.rowptr.clone_from(&src.rowptr);
        self.colid.clone_from(&src.colid);
        self.val.clone_from(&src.val);
    }
}

/// Storage range `start..end` under the defensive clamping rule: both
/// bounds clamped to `[0, nnz]`, an inverted range treated as an empty
/// row. The one canonical clamp, shared by [`CsrMatrix`] and the
/// overlay's live row pointer (`ci.sh` fails on a second `.min(nnz)`
/// under `crates/*/src`).
#[inline]
pub(crate) fn clamped_range(start: u32, end: u32, nnz: usize) -> std::ops::Range<usize> {
    let start = (start as usize).min(nnz);
    let end = (end as usize).min(nnz);
    if start < end {
        start..end
    } else {
        0..0
    }
}

impl Default for CsrMatrix {
    /// The `0 × 0` matrix (one row pointer, no entries).
    fn default() -> Self {
        Self::from_parts_unchecked(0, 0, vec![0], Vec::new(), Vec::new())
    }
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
    /// * every column index is `< n_cols`;
    /// * the index bound `max(n_cols, nnz + 1)` is at most
    ///   [`MAX_INDEX_BOUND`] ([`SparseError::IndexWidth`] otherwise).
    pub fn new(
        n_rows: usize,
        n_cols: usize,
        rowptr: Vec<u32>,
        colid: Vec<u32>,
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
        rowptr: Vec<u32>,
        colid: Vec<u32>,
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
        check_index_bound(self.n_cols, self.val.len())?;
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
        if self.rowptr[self.n_rows] as usize != self.val.len() {
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
        if let Some(&bad) = self.colid.iter().find(|&&c| c as usize >= self.n_cols) {
            return Err(SparseError::IndexOutOfBounds {
                index: bad as usize,
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

    /// Bytes of the three CSR arrays (`Val` + `Colid` + `Rowidx`):
    /// 12 per stored entry plus 4 per row pointer — what a copy of the
    /// image moves.
    pub fn image_bytes(&self) -> usize {
        array_bytes(self.val.len(), self.colid.len(), self.rowptr.len())
    }

    /// Bytes the three arrays keep *reserved* (capacity, not length):
    /// what a retained image buffer costs between uses.
    pub fn capacity_bytes(&self) -> usize {
        array_bytes(
            self.val.capacity(),
            self.colid.capacity(),
            self.rowptr.capacity(),
        )
    }

    /// [`CsrMatrix::image_bytes`] in 8-byte words, rounded up. The fault
    /// model counts words differently — one per entry of each array,
    /// whatever its width (`ftcg-fault`'s memory layout).
    pub fn memory_words(&self) -> usize {
        self.image_bytes().div_ceil(8)
    }

    /// Row pointer array (read-only).
    #[inline]
    pub fn rowptr(&self) -> &[u32] {
        &self.rowptr
    }

    /// Column index array (read-only).
    #[inline]
    pub fn colid(&self) -> &[u32] {
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
    pub fn rowptr_mut(&mut self) -> &mut [u32] {
        &mut self.rowptr
    }

    /// Mutable column index array — exposed for fault injection and ABFT
    /// correction only.
    #[inline]
    pub fn colid_mut(&mut self) -> &mut [u32] {
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
        self.rowptr[i] as usize..self.rowptr[i + 1] as usize
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.row_range(i);
        self.colid[r.clone()]
            .iter()
            .map(|&c| c as usize)
            .zip(self.val[r].iter().copied())
    }

    /// Value at `(i, j)`, or `0.0` if not stored. Linear in the row length.
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i)
            .find(|&(c, _)| c == j)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Sparse matrix–vector product `y ← A·x` into a caller-provided buffer.
    ///
    /// This is the *unprotected* kernel; protected products run the
    /// clamped traversals below and are verified by `ftcg-abft`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "spmv: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_range(i) {
                acc += self.val[k] * x[self.colid[k] as usize];
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
    /// empty row. The one canonical clamp shared by the defensive
    /// traversals and the ABFT checksum recomputation and correction
    /// (`ftcg-abft`) — change it here, never locally.
    #[inline]
    pub fn row_range_clamped(&self, i: usize) -> std::ops::Range<usize> {
        clamped_range(self.rowptr[i], self.rowptr[i + 1], self.val.len())
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
            let j = self.colid[k] as usize;
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
    /// Finished rows of a window are parked in a stack buffer, handed
    /// to `refresh(window, buffer)` (which may overwrite any of them:
    /// the overlay's flipped rows, `crate::overlay`) and then to
    /// `sink(row, value)` in ascending row order. The order applies to
    /// the windows `rows` covers whole; it is ignored (natural order)
    /// for partial windows and when it was built for another row count.
    #[inline(always)]
    pub(crate) fn row_band_clamped_each(
        &self,
        rows: std::ops::Range<usize>,
        order: &RowOrder,
        x: &[f64],
        mut refresh: impl FnMut(std::ops::Range<usize>, &mut [f64; RowOrder::WINDOW]),
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
            let range = lo[i] as usize..(hi[i] as usize).min(val.len());
            (
                colid.get(range.clone()).unwrap_or_default(),
                val.get(range).unwrap_or_default(),
            )
        };
        let product = |c: &[u32], v: &[f64], acc: &mut f64| {
            for (&col, &w) in c.iter().zip(v) {
                let col = col as usize;
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
                let r: [(&[u32], &[f64]); LANES] = std::array::from_fn(|lane| row(i[lane]));
                let m = r.iter().map(|(c, _)| c.len()).min().unwrap_or(0);
                let head: [(&[u32], &[f64]); LANES] =
                    std::array::from_fn(|lane| (&r[lane].0[..m], &r[lane].1[..m]));
                let mut acc = [0.0f64; LANES];
                // Lockstep section: every lane has at least `m` entries.
                for j in 0..m {
                    for (lane, a) in acc.iter_mut().enumerate() {
                        let col = head[lane].0[j] as usize;
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
            refresh(w0..w1, &mut out);
            for i in w0..w1 {
                sink(i, out[i % WINDOW]);
            }
            w0 = w1;
        }
    }

    /// Defensive products of the row band `rows` into `y` (one output
    /// per row of the band) through the one lockstep traversal, rows
    /// visited in `order` where the band covers whole
    /// [`RowOrder::WINDOW`]-row windows — bit-identical to calling
    /// [`CsrMatrix::row_product_clamped`] per row, whatever the order
    /// holds. ONLINE-DETECTION's residual check runs it a window at a
    /// time, in the order the solve's products use.
    ///
    /// # Panics
    /// Panics if `rows.end > n_rows` or `y.len() != rows.len()`.
    pub fn row_band_product_clamped(
        &self,
        rows: std::ops::Range<usize>,
        order: &RowOrder,
        x: &[f64],
        y: &mut [f64],
    ) {
        CsrWords::row_band_product_clamped(self, rows, order, x, y);
    }

    /// Defensive `y ← A·x` through the lockstep traversal, rows visited
    /// in `order` — the same outputs as [`CsrMatrix::spmv_clamped_into`],
    /// bit for bit, with several independent accumulator chains in
    /// flight, whatever the order holds (see [`RowOrder`]; an empty
    /// `RowOrder::new()` is natural order); an order built from this
    /// matrix's pristine row lengths makes it faster.
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows`.
    pub fn spmv_clamped_ordered_into(&self, order: &RowOrder, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.n_rows, "spmv_clamped: y length mismatch");
        CsrWords::row_band_product_clamped(self, 0..self.n_rows, order, x, y);
    }

    /// Defensive `y ← A·x` with the ABFT output probe
    /// `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]` accumulated in the same pass: the product
    /// is bit-identical to [`CsrMatrix::spmv_clamped_ordered_into`] (the
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
        CsrWords::spmv_clamped_probe_ordered_into(self, order, x, y)
    }

    /// Restores the full image of `src` — all three CSR arrays — into
    /// this matrix in place, without allocating: the destination may
    /// carry arbitrary bit corruption in `val`, `colid` *and* `rowptr`,
    /// but fault injection never changes array *lengths*, which is all
    /// this requires. No solve restores an image (a rollback clears the
    /// overlay's flips, `crate::overlay`); the benchmark's
    /// `sparse.image_restore` and `checkpoint.restore` probes are the
    /// only callers, and it leaves with the benchmark PR that retires
    /// them.
    ///
    /// # Panics
    /// Panics if the dimensions or array lengths differ.
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

    /// Transpose-vector product `y ← Aᵀ·x` into a caller-provided buffer.
    /// Its only caller is the benchmark's `sparse.spmv_transpose` probe.
    ///
    /// # Panics
    /// Panics if `x.len() != n_rows` or `y.len() != n_cols`.
    pub fn spmv_transpose_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_rows, "spmv_t: x length mismatch");
        assert_eq!(y.len(), self.n_cols, "spmv_t: y length mismatch");
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            for k in self.row_range(i) {
                y[self.colid[k] as usize] += self.val[k] * xi;
            }
        }
    }

    /// Returns the transposed matrix in CSR form (counting sort over
    /// columns); [`SparseError::IndexWidth`] if the transpose's index
    /// bound `max(n_rows, nnz + 1)` exceeds [`MAX_INDEX_BOUND`].
    pub fn transpose(&self) -> Result<CsrMatrix> {
        let nnz = self.nnz();
        check_index_bound(self.n_rows, nnz)?;
        let mut rowptr_t = vec![0u32; self.n_cols + 1];
        for &c in &self.colid {
            rowptr_t[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            rowptr_t[i + 1] += rowptr_t[i];
        }
        let mut colid_t = vec![0u32; nnz];
        let mut val_t = vec![0.0; nnz];
        let mut next = rowptr_t.clone();
        for i in 0..self.n_rows {
            let row = index_word(i)?;
            for k in self.row_range(i) {
                let c = self.colid[k] as usize;
                let dst = next[c] as usize;
                colid_t[dst] = row;
                val_t[dst] = self.val[k];
                next[c] += 1;
            }
        }
        Ok(CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            rowptr: rowptr_t,
            colid: colid_t,
            val: val_t,
        })
    }

    /// `true` iff `A == Aᵀ` up to absolute tolerance `tol` on every entry:
    /// every stored `aᵢⱼ` is within `tol` of `aⱼᵢ` (`0.0` if not stored).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        !(0..self.n_rows).any(|i| self.row(i).any(|(j, v)| (v - self.get(j, i)).abs() > tol))
    }

    /// Extracts the diagonal as a dense vector (zeros where absent).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn diag(&self) -> Vec<f64> {
        assert!(self.is_square(), "diag: matrix must be square");
        (0..self.n_rows).map(|i| self.get(i, i)).collect()
    }

    /// Matrix 1-norm: maximum absolute column sum (eq. 8 of the paper).
    pub fn norm1(&self) -> f64 {
        let mut colsum = vec![0.0_f64; self.n_cols];
        for (&c, v) in self.colid.iter().zip(&self.val) {
            colsum[c as usize] += v.abs();
        }
        colsum.into_iter().fold(0.0, f64::max)
    }

    /// Per-column plain sums `Σᵢ aᵢⱼ` (the unshifted checksum of eq. 1).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.n_cols];
        for (&c, v) in self.colid.iter().zip(&self.val) {
            s[c as usize] += v;
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
    pub fn identity(n: usize) -> Result<CsrMatrix> {
        crate::gen::diagonal(&vec![1.0; n])
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
        m.rowptr_mut()[7] = u32::MAX / 2;
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
        let id = CsrMatrix::identity(4).unwrap();
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
        let y2 = m.transpose().unwrap().spmv(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose().unwrap();
        assert_eq!(t.transpose().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn transpose_rectangular() {
        // 2x3 matrix [1 0 2; 0 3 0]
        let m = CsrMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        let t = m.transpose().unwrap();
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
        // 12 B per stored entry, 4 B per row pointer.
        assert_eq!(m.image_bytes(), 12 * 7 + 4 * (3 + 1));
        assert_eq!(m.memory_words(), 100usize.div_ceil(8));
        assert_eq!(m.capacity_bytes(), m.image_bytes());
    }

    #[test]
    fn constructors_reject_an_index_bound_past_32_bits() {
        // A 1 × (2³⁰ + 1) empty matrix: the bound comes from the
        // dimensions alone, no index array is allocated.
        let wide = MAX_INDEX_BOUND + 1;
        let e = CsrMatrix::new(1, wide, vec![0, 0], vec![], vec![]);
        assert_eq!(e, Err(SparseError::IndexWidth { bound: wide }));
        assert!(CsrMatrix::new(1, MAX_INDEX_BOUND, vec![0, 0], vec![], vec![]).is_ok());
        let tall = CsrMatrix::from_parts_unchecked(wide, 1, vec![0; 2], vec![], vec![]);
        assert_eq!(
            tall.transpose(),
            Err(SparseError::IndexWidth { bound: wide })
        );
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        let back = m.to_coo().to_csr().unwrap();
        assert_eq!(back.to_dense(), m.to_dense());
    }

    #[test]
    fn copy_image_from_heals_corrupted_structure() {
        let pristine = sample();
        let mut live = pristine.clone();
        live.rowptr_mut()[1] = u32::MAX;
        live.colid_mut()[3] = 1 << 31;
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
        let b = CsrMatrix::identity(3).unwrap();
        a.copy_image_from(&b);
    }

    #[test]
    fn clone_from_reshapes_and_matches_clone() {
        let small = CsrMatrix::identity(2).unwrap();
        let big = sample();
        let mut buf = small.clone();
        buf.clone_from(&big);
        assert_eq!(buf, big);
        // Shrinking works too and keeps equality exact.
        buf.clone_from(&small);
        assert_eq!(buf, small);
    }

    #[test]
    fn clone_from_keeps_the_high_water_mark() {
        let mut buf = CsrMatrix::identity(10).unwrap();
        let big = CsrMatrix::identity(11).unwrap();
        buf.clone_from(&big);
        assert_eq!(buf, big);
        let bytes = buf.capacity_bytes();
        assert!(bytes >= big.image_bytes());
        // A smaller image reuses the buffers: capacity stays put.
        let ptr = buf.val().as_ptr();
        buf.clone_from(&CsrMatrix::identity(3).unwrap());
        assert_eq!((buf.capacity_bytes(), buf.val().as_ptr()), (bytes, ptr));
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
            *w = u32::MAX;
        }
        if let Some(w) = a.rowptr_mut().get_mut(40) {
            *w = 2; // inverted range
        }
        if let Some(w) = a.colid_mut().get_mut(17) {
            *w = 1 << 31;
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
        a.spmv_clamped_ordered_into(&RowOrder::new(), &x, &mut banded);
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
        let mut rowptr = vec![0u32];
        let mut colid = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            colid.extend((0..len).map(|k| ((i + 3 * k) % n) as u32));
            rowptr.push(colid.len() as u32);
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
        foreign.rebuild(&CsrMatrix::identity(n + 1).unwrap());
        assert_traversal_matches_reference(&a, &foreign, "wrong length");

        // Corruption after the order was built: wild, inverted and
        // overlapping ranges, wild columns.
        a.rowptr_mut()[70] = u32::MAX;
        a.rowptr_mut()[20] = 400; // rows 19.. overlap what follows
        a.rowptr_mut()[100] = 1; // inverted
        a.colid_mut()[33] = n as u32;
        a.colid_mut()[200] = u32::MAX;
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
        a.spmv_clamped_ordered_into(&RowOrder::new(), &x, &mut got);
        assert_eq!(bits(&got), bits(&want));
    }
}
