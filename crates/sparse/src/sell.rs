//! SELL-C-σ (sliced ELLPACK) storage.
//!
//! Rows are grouped into *chunks* of `C` consecutive storage positions;
//! each chunk is stored column-major (`val[off + j*C + lane]`) and
//! padded to the length of its longest row, so all `C` lanes advance in
//! lockstep — the layout SIMD/GPU SpMV kernels vectorize over. Before
//! chunking, rows are sorted by descending length inside windows of `σ`
//! rows (`σ = 1` disables sorting), which packs similar-length rows into
//! the same chunk and bounds the padding overhead.
//!
//! Per row, entries keep their original CSR order, so each output value
//! is the same floating-point sum [`CsrMatrix::spmv_into`] computes —
//! only the row *visit* order changes, which no output cell observes.

use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::Result;

/// A sparse matrix in SELL-C-σ format.
#[derive(Debug, Clone, PartialEq)]
pub struct SellCSigma {
    n_rows: usize,
    n_cols: usize,
    /// Chunk height `C`.
    chunk: usize,
    /// Sorting window `σ` (in rows).
    sigma: usize,
    /// `perm[pos]` = original row stored at position `pos`.
    perm: Vec<usize>,
    /// Stored entries per position (true row length, no padding).
    rowlen: Vec<usize>,
    /// Chunk offsets into `colid`/`val`, length `n_chunks + 1`.
    chunkptr: Vec<usize>,
    /// Column indices, column-major per chunk, padding lanes 0.
    colid: Vec<usize>,
    /// Values, column-major per chunk, padding lanes 0.0.
    val: Vec<f64>,
    /// Logical stored entries.
    nnz: usize,
}

impl SellCSigma {
    /// Converts a CSR matrix into SELL-C-σ.
    ///
    /// Returns an error for `chunk == 0` or `sigma == 0`.
    pub fn from_csr(a: &CsrMatrix, chunk: usize, sigma: usize) -> Result<SellCSigma> {
        if chunk == 0 || sigma == 0 {
            return Err(SparseError::DimensionMismatch {
                detail: format!(
                    "SELL-C-σ needs chunk >= 1 and sigma >= 1, got C={chunk} σ={sigma}"
                ),
            });
        }
        Ok(Self::convert(a, chunk, sigma, false))
    }

    /// Defensive conversion for possibly corrupted CSR structure (same
    /// clamping contract as [`crate::bcsr::BcsrMatrix::from_csr_clamped`]).
    ///
    /// # Panics
    /// Panics if `chunk == 0` or `sigma == 0` (trusted callers only).
    pub fn from_csr_clamped(a: &CsrMatrix, chunk: usize, sigma: usize) -> SellCSigma {
        assert!(chunk >= 1 && sigma >= 1, "need C >= 1 and σ >= 1");
        Self::convert(a, chunk, sigma, true)
    }

    fn convert(a: &CsrMatrix, chunk: usize, sigma: usize, clamped: bool) -> SellCSigma {
        let n_rows = a.n_rows();
        let n_cols = a.n_cols();
        // Clamped per-row entry lists (cheap views for the trusted path;
        // the clamp itself is the canonical `row_range_clamped` rule).
        let row_entries = |i: usize| -> (usize, usize) {
            if clamped {
                let r = a.row_range_clamped(i);
                (r.start, r.end)
            } else {
                (a.rowptr()[i], a.rowptr()[i + 1])
            }
        };
        // Row lengths computed once up front: the σ-window sort below
        // evaluates keys repeatedly, and the defensive path's length is
        // an O(row) scan.
        let lens: Vec<usize> = (0..n_rows)
            .map(|i| {
                let (start, end) = row_entries(i);
                if clamped {
                    (start..end).filter(|&k| a.colid()[k] < n_cols).count()
                } else {
                    end - start
                }
            })
            .collect();
        // σ-windowed sort by descending row length (stable: equal-length
        // rows keep their original order — deterministic layout).
        let mut perm: Vec<usize> = (0..n_rows).collect();
        if sigma > 1 {
            for window in perm.chunks_mut(sigma) {
                window.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
            }
        }
        let rowlen: Vec<usize> = perm.iter().map(|&i| lens[i]).collect();
        let n_chunks = n_rows.div_ceil(chunk);
        let mut chunkptr = Vec::with_capacity(n_chunks + 1);
        chunkptr.push(0usize);
        let mut colid = Vec::new();
        let mut val = Vec::new();
        let mut nnz = 0usize;
        for ck in 0..n_chunks {
            let pos_lo = ck * chunk;
            let pos_hi = (pos_lo + chunk).min(n_rows);
            let width = rowlen[pos_lo..pos_hi].iter().copied().max().unwrap_or(0);
            let off = colid.len();
            colid.resize(off + width * chunk, 0usize);
            val.resize(off + width * chunk, 0.0f64);
            for (lane, pos) in (pos_lo..pos_hi).enumerate() {
                let i = perm[pos];
                let (start, end) = row_entries(i);
                let mut j = 0usize;
                for k in start..end {
                    let c = a.colid()[k];
                    if clamped && c >= n_cols {
                        continue;
                    }
                    colid[off + j * chunk + lane] = c;
                    val[off + j * chunk + lane] = a.val()[k];
                    j += 1;
                }
                debug_assert_eq!(j, rowlen[pos]);
                nnz += j;
            }
            chunkptr.push(colid.len());
        }
        SellCSigma {
            n_rows,
            n_cols,
            chunk,
            sigma,
            perm,
            rowlen,
            chunkptr,
            colid,
            val,
            nnz,
        }
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

    /// Chunk height `C`.
    #[inline]
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Sorting window `σ`.
    #[inline]
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Logical stored entries (excluding padding).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of allocated lanes that are padding; 0.0 when empty.
    pub fn padding_ratio(&self) -> f64 {
        if self.val.is_empty() {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.val.len() as f64
    }

    /// `y ← A·x`.
    ///
    /// Chunk heights 4 and 8 dispatch to unrolled fixed-C lane kernels
    /// (`spmv_fixed`); other heights use the generic loop.
    /// Both paths are bit-identical (per-lane ascending-`j` sums).
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "sell spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "sell spmv: y length mismatch");
        match self.chunk {
            4 => self.spmv_fixed::<4>(x, y),
            8 => self.spmv_fixed::<8>(x, y),
            _ => self.spmv_generic(x, y),
        }
    }

    /// The generic per-lane product loop (any chunk height) — the
    /// reference the fixed-C kernels are verified against.
    fn spmv_generic(&self, x: &[f64], y: &mut [f64]) {
        let c = self.chunk;
        let n_chunks = self.chunkptr.len() - 1;
        for ck in 0..n_chunks {
            let pos_lo = ck * c;
            let pos_hi = (pos_lo + c).min(self.n_rows);
            let off = self.chunkptr[ck];
            for (lane, pos) in (pos_lo..pos_hi).enumerate() {
                let mut acc = 0.0;
                for j in 0..self.rowlen[pos] {
                    let k = off + j * c + lane;
                    acc += self.val[k] * x[self.colid[k]];
                }
                y[self.perm[pos]] = acc;
            }
        }
    }

    /// Unrolled, padding-aware fixed-C lane kernel. Full chunks advance
    /// all `C` lanes in lockstep over the shared prefix `min(rowlen)` —
    /// the column-major layout makes each `j`-step a contiguous load of
    /// `C` values, the shape the autovectorizer turns into SIMD lanes —
    /// then finish each lane's tail separately. Padding lanes
    /// (`j >= rowlen`) are **never multiplied**: under fault injection a
    /// padded `0.0 × corrupted-∞` would manufacture a NaN the reference
    /// kernel does not compute. Per lane the accumulation stays the
    /// ascending-`j` chain of the generic loop, so outputs are
    /// bit-identical.
    fn spmv_fixed<const C: usize>(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(self.chunk, C);
        let n_chunks = self.chunkptr.len() - 1;
        for ck in 0..n_chunks {
            let pos_lo = ck * C;
            let off = self.chunkptr[ck];
            if pos_lo + C <= self.n_rows {
                let rl = &self.rowlen[pos_lo..pos_lo + C];
                let mut m = rl[0];
                for &l in &rl[1..] {
                    m = m.min(l);
                }
                let mut acc = [0.0f64; C];
                // Lockstep section over the shared prefix.
                for j in 0..m {
                    let base = off + j * C;
                    let vs = &self.val[base..base + C];
                    let cs = &self.colid[base..base + C];
                    for lane in 0..C {
                        acc[lane] += vs[lane] * x[cs[lane]];
                    }
                }
                // Guarded tails: each lane finishes its own entries.
                for (lane, a) in acc.iter_mut().enumerate() {
                    for j in m..rl[lane] {
                        let k = off + j * C + lane;
                        *a += self.val[k] * x[self.colid[k]];
                    }
                }
                for (lane, a) in acc.iter().enumerate() {
                    y[self.perm[pos_lo + lane]] = *a;
                }
            } else {
                // Ragged final chunk: generic per-lane loop.
                for (lane, pos) in (pos_lo..self.n_rows).enumerate() {
                    let mut acc = 0.0;
                    for j in 0..self.rowlen[pos] {
                        let k = off + j * C + lane;
                        acc += self.val[k] * x[self.colid[k]];
                    }
                    y[self.perm[pos]] = acc;
                }
            }
        }
    }

    /// Converts back to CSR, undoing the σ-window permutation. Stored
    /// entries are reproduced exactly (padding dropped).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n_rows];
        let c = self.chunk;
        let n_chunks = self.chunkptr.len() - 1;
        for ck in 0..n_chunks {
            let pos_lo = ck * c;
            let pos_hi = (pos_lo + c).min(self.n_rows);
            let off = self.chunkptr[ck];
            for (lane, pos) in (pos_lo..pos_hi).enumerate() {
                let row = &mut rows[self.perm[pos]];
                for j in 0..self.rowlen[pos] {
                    let k = off + j * c + lane;
                    row.push((self.colid[k], self.val[k]));
                }
            }
        }
        let mut rowptr = Vec::with_capacity(self.n_rows + 1);
        rowptr.push(0usize);
        let mut colid = Vec::with_capacity(self.nnz);
        let mut val = Vec::with_capacity(self.nnz);
        for row in rows {
            for (j, v) in row {
                colid.push(j);
                val.push(v);
            }
            rowptr.push(colid.len());
        }
        CsrMatrix::from_parts_unchecked(self.n_rows, self.n_cols, rowptr, colid, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip_preserves_triplets() {
        let a = gen::random_spd(80, 0.06, 3).unwrap();
        for (c, s) in [(1usize, 1usize), (4, 1), (8, 32), (8, 80), (16, 4)] {
            let sell = SellCSigma::from_csr(&a, c, s).unwrap();
            let back = sell.to_csr();
            assert_eq!(back.rowptr(), a.rowptr(), "C={c} σ={s}");
            assert_eq!(back.colid(), a.colid(), "C={c} σ={s}");
            assert_eq!(back.val(), a.val(), "C={c} σ={s}");
        }
    }

    #[test]
    fn spmv_matches_csr_bitwise() {
        for seed in 0..5u64 {
            let a = gen::random_spd(130, 0.05, seed).unwrap();
            let x: Vec<f64> = (0..130).map(|i| (i as f64 * 0.23).sin()).collect();
            let want = a.spmv(&x);
            for (c, s) in [(4usize, 1usize), (8, 32), (8, 130)] {
                let sell = SellCSigma::from_csr(&a, c, s).unwrap();
                let mut y = vec![0.0; 130];
                sell.spmv_into(&x, &mut y);
                assert_eq!(y, want, "seed {seed} C={c} σ={s}");
            }
        }
    }

    #[test]
    fn sorting_reduces_padding_on_skewed_rows() {
        // Arrow matrix: first row dense, rest sparse — unsorted chunks
        // pad every lane of the first chunk to the dense width.
        let n = 64;
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for j in 0..n {
            coo.push(0, j, 1.0);
            coo.push(j, j, 2.0);
        }
        let a = coo.to_csr();
        let unsorted = SellCSigma::from_csr(&a, 8, 1).unwrap();
        let sorted = SellCSigma::from_csr(&a, 8, n).unwrap();
        assert!(sorted.padding_ratio() <= unsorted.padding_ratio());
        // Both still compute the same product.
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        unsorted.spmv_into(&x, &mut y1);
        sorted.spmv_into(&x, &mut y2);
        assert_eq!(y1, a.spmv(&x));
        assert_eq!(y2, a.spmv(&x));
    }

    #[test]
    fn clamped_conversion_survives_corruption() {
        let mut a = gen::poisson2d(4).unwrap();
        a.rowptr_mut()[3] = usize::MAX;
        a.colid_mut()[7] = 1 << 33;
        let sell = SellCSigma::from_csr_clamped(&a, 4, 16); // must not panic
        let mut y = vec![0.0; 16];
        sell.spmv_into(&[1.0; 16], &mut y);
    }

    #[test]
    fn rejects_bad_parameters() {
        let a = gen::tridiagonal(4, 2.0, -1.0).unwrap();
        assert!(SellCSigma::from_csr(&a, 0, 1).is_err());
        assert!(SellCSigma::from_csr(&a, 4, 0).is_err());
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let sell = SellCSigma::from_csr(&a, 8, 32).unwrap();
        assert_eq!(sell.nnz(), 0);
        assert_eq!(sell.padding_ratio(), 0.0);
        let mut y = vec![];
        sell.spmv_into(&[], &mut y);
    }

    #[test]
    fn fixed_c_kernels_are_bit_identical_to_generic() {
        // Sizes exercising full chunks and ragged final chunks for both
        // fixed-C specializations.
        for n in [3usize, 4, 7, 8, 9, 31, 32, 65, 130] {
            let a = gen::random_spd(n, 0.1, n as u64 + 1).unwrap();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).cos()).collect();
            for (c, s) in [(4usize, 1usize), (4, 16), (8, 1), (8, 32)] {
                let sell = SellCSigma::from_csr(&a, c, s).unwrap();
                let mut fixed = vec![0.0; n];
                sell.spmv_into(&x, &mut fixed); // dispatches to spmv_fixed
                let mut generic = vec![0.0; n];
                sell.spmv_generic(&x, &mut generic);
                assert!(
                    fixed
                        .iter()
                        .zip(&generic)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n = {n}, C = {c}, σ = {s}"
                );
            }
        }
    }

    #[test]
    fn fixed_c_never_multiplies_padding() {
        // A padded lane whose x gather would hit an Inf must not leak a
        // NaN through 0.0 × Inf: build a skewed matrix (row 0 long) and
        // poison x everywhere except the columns row 1 references.
        let n = 8;
        let mut coo = crate::coo::CooMatrix::new(n, n);
        for j in 0..n {
            coo.push(0, j, 1.0);
        }
        for i in 1..n {
            coo.push(i, i, 2.0);
        }
        let a = coo.to_csr();
        let sell = SellCSigma::from_csr(&a, 8, 1).unwrap();
        assert!(sell.padding_ratio() > 0.0);
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        sell.spmv_into(&x, &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
        assert_eq!(y[0], n as f64);
    }
}
