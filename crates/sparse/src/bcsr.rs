//! Blocked compressed sparse row (BCSR) storage.
//!
//! Entries are grouped into dense `b × b` register blocks (`b ∈ 1..=4`,
//! typically 2 or 4): each stored block is a dense tile whose absent
//! lanes are padded with explicit zeros, so the inner product loop is
//! branch-free and the working set per block row fits in registers. A
//! per-block occupancy bitmask remembers which lanes are *stored*
//! entries, which makes the CSR↔BCSR conversion an exact roundtrip of
//! the `(row, col, value)` triplets even when a value happens to be
//! zero.
//!
//! The product accumulates each row's contributions in ascending column
//! order (padding lanes add an exact `±0.0`), so on a column-sorted CSR
//! input the result matches [`CsrMatrix::spmv_into`] to the last bit for
//! finite inputs.

use crate::csr::{index_word, CsrMatrix};
use crate::error::SparseError;
use crate::Result;

/// A sparse matrix in blocked CSR format with `b × b` dense blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BcsrMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Block edge length (`1..=4`; `b*b` lanes must fit the `u16` mask).
    b: usize,
    /// Number of block rows, `ceil(n_rows / b)`.
    n_block_rows: usize,
    /// Block-row pointer array, length `n_block_rows + 1`.
    blockptr: Vec<usize>,
    /// Block-column index per stored block.
    blockcol: Vec<usize>,
    /// Dense block storage, row-major within each block
    /// (`val[blk*b*b + r*b + c]`), absent lanes zero-padded.
    val: Vec<f64>,
    /// Occupancy bitmask per block: bit `r*b + c` set iff that lane is a
    /// stored CSR entry (as opposed to padding).
    mask: Vec<u16>,
    /// Logical stored entries (sum of mask popcounts).
    nnz: usize,
}

impl BcsrMatrix {
    /// Converts a CSR matrix into BCSR with `b × b` blocks.
    ///
    /// Duplicate `(row, col)` entries are accumulated. Returns an error
    /// for `b == 0` or `b > 4`.
    #[expect(
        clippy::expect_used,
        reason = "invariant: the two-pass conversion inserts every j/b into cols before the fill pass does its binary_search; no error path exists in the infallible converter"
    )]
    pub fn from_csr(a: &CsrMatrix, b: usize) -> Result<BcsrMatrix> {
        if b == 0 || b > 4 {
            return Err(SparseError::DimensionMismatch {
                detail: format!("BCSR block edge must be in 1..=4, got {b}"),
            });
        }
        let n_rows = a.n_rows();
        let n_cols = a.n_cols();
        let n_block_rows = n_rows.div_ceil(b);
        let mut blockptr = Vec::with_capacity(n_block_rows + 1);
        blockptr.push(0usize);
        let mut blockcol = Vec::new();
        let mut val = Vec::new();
        let mut mask = Vec::new();
        let mut nnz = 0usize;
        // Scratch: block columns present in the current block row.
        let mut cols: Vec<usize> = Vec::new();
        for br in 0..n_block_rows {
            let row_lo = br * b;
            let row_hi = (row_lo + b).min(n_rows);
            cols.clear();
            for i in row_lo..row_hi {
                for k in a.row_range(i) {
                    cols.push(a.colid()[k] as usize / b);
                }
            }
            cols.sort_unstable();
            cols.dedup();
            let base_blk = blockcol.len();
            blockcol.extend_from_slice(&cols);
            val.resize(val.len() + cols.len() * b * b, 0.0);
            mask.resize(mask.len() + cols.len(), 0u16);
            for i in row_lo..row_hi {
                for k in a.row_range(i) {
                    let j = a.colid()[k] as usize;
                    let slot = cols
                        .binary_search(&(j / b))
                        .expect("invariant: first pass recorded every block column of this row");
                    let blk = base_blk + slot;
                    let lane = (i - row_lo) * b + (j % b);
                    val[blk * b * b + lane] += a.val()[k];
                    if mask[blk] & (1 << lane) == 0 {
                        mask[blk] |= 1 << lane;
                        nnz += 1;
                    }
                }
            }
            blockptr.push(blockcol.len());
        }
        Ok(BcsrMatrix {
            n_rows,
            n_cols,
            b,
            n_block_rows,
            blockptr,
            blockcol,
            val,
            mask,
            nnz,
        })
    }

    /// `y ← A·x`.
    ///
    /// Block edges 2 and 4 dispatch to fully unrolled register-blocked
    /// kernels (`spmv_fixed`); other edges use the generic
    /// loop. Both paths are bit-identical (per row, blocks ascending and
    /// lanes in ascending column order, one sequential add chain).
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "bcsr spmv: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "bcsr spmv: y length mismatch");
        match self.b {
            2 => self.spmv_fixed::<2>(x, y),
            4 => self.spmv_fixed::<4>(x, y),
            _ => self.spmv_generic(x, y),
        }
    }

    /// The generic block-row product loop (any block edge) — the
    /// reference the fixed-edge kernels are verified against.
    fn spmv_generic(&self, x: &[f64], y: &mut [f64]) {
        let b = self.b;
        let mut acc = [0.0f64; 4];
        for br in 0..self.n_block_rows {
            let row_lo = br * b;
            let rows = b.min(self.n_rows - row_lo);
            acc[..rows].fill(0.0);
            for blk in self.blockptr[br]..self.blockptr[br + 1] {
                let col_lo = self.blockcol[blk] * b;
                let cols = b.min(self.n_cols - col_lo);
                let base = blk * b * b;
                for (r, a) in acc.iter_mut().enumerate().take(rows) {
                    let lanes = &self.val[base + r * b..base + r * b + cols];
                    let xs = &x[col_lo..col_lo + cols];
                    let mut s = *a;
                    for (v, xv) in lanes.iter().zip(xs) {
                        s += v * xv;
                    }
                    *a = s;
                }
            }
            y[row_lo..row_lo + rows].copy_from_slice(&acc[..rows]);
        }
    }

    /// Register-blocked fixed-edge kernel (`B ∈ {2, 4}`). Interior
    /// blocks load `x[col_lo..col_lo+B]` into a register tile once and
    /// run a fully unrolled `B × B` multiply-accumulate — the dense FMA
    /// shape register blocking exists for — while boundary blocks
    /// (partial rows or columns at the matrix edge) fall back to the
    /// generic bounded loop. Padding lanes participate exactly as in the
    /// generic kernel (an explicit `±0.0` add in sequence), and every
    /// row keeps one sequential accumulation chain in ascending column
    /// order, so outputs are bit-identical to
    /// [`BcsrMatrix::spmv_generic`].
    #[expect(
        clippy::expect_used,
        reason = "invariant: the interior-block branch is guarded by col_lo + B <= n_cols, so the slice-to-array conversion cannot fail in the hot microkernel"
    )]
    fn spmv_fixed<const B: usize>(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(self.b, B);
        for br in 0..self.n_block_rows {
            let row_lo = br * B;
            if row_lo + B > self.n_rows {
                // Partial final block row: generic bounded loop.
                let rows = self.n_rows - row_lo;
                let mut acc = [0.0f64; B];
                for blk in self.blockptr[br]..self.blockptr[br + 1] {
                    let col_lo = self.blockcol[blk] * B;
                    let cols = B.min(self.n_cols - col_lo);
                    let base = blk * B * B;
                    for (r, a) in acc.iter_mut().enumerate().take(rows) {
                        for c in 0..cols {
                            *a += self.val[base + r * B + c] * x[col_lo + c];
                        }
                    }
                }
                y[row_lo..row_lo + rows].copy_from_slice(&acc[..rows]);
                continue;
            }
            let mut acc = [0.0f64; B];
            for blk in self.blockptr[br]..self.blockptr[br + 1] {
                let col_lo = self.blockcol[blk] * B;
                let base = blk * B * B;
                if col_lo + B <= self.n_cols {
                    // Interior block: register tile, fully unrolled.
                    let xs: &[f64; B] = x[col_lo..col_lo + B]
                        .try_into()
                        .expect("invariant: interior block slice is exactly B wide");
                    let vs = &self.val[base..base + B * B];
                    for (r, a) in acc.iter_mut().enumerate() {
                        let row = &vs[r * B..(r + 1) * B];
                        let mut s = *a;
                        for c in 0..B {
                            s += row[c] * xs[c];
                        }
                        *a = s;
                    }
                } else {
                    // Partial final block column.
                    let cols = self.n_cols - col_lo;
                    for (r, a) in acc.iter_mut().enumerate() {
                        for c in 0..cols {
                            *a += self.val[base + r * B + c] * x[col_lo + c];
                        }
                    }
                }
            }
            y[row_lo..row_lo + B].copy_from_slice(&acc);
        }
    }

    /// Converts back to CSR (column-sorted; padding lanes dropped, stored
    /// entries kept even when their value is zero).
    pub fn to_csr(&self) -> Result<CsrMatrix> {
        let b = self.b;
        let mut rowptr = Vec::with_capacity(self.n_rows + 1);
        rowptr.push(0u32);
        let mut colid = Vec::with_capacity(self.nnz);
        let mut val = Vec::with_capacity(self.nnz);
        for br in 0..self.n_block_rows {
            let row_lo = br * b;
            let rows = b.min(self.n_rows - row_lo);
            for r in 0..rows {
                for blk in self.blockptr[br]..self.blockptr[br + 1] {
                    let col_lo = self.blockcol[blk] * b;
                    for c in 0..b {
                        let lane = r * b + c;
                        if self.mask[blk] & (1 << lane) != 0 {
                            colid.push(index_word(col_lo + c)?);
                            val.push(self.val[blk * b * b + lane]);
                        }
                    }
                }
                rowptr.push(index_word(colid.len())?);
            }
        }
        Ok(CsrMatrix::from_parts_unchecked(
            self.n_rows,
            self.n_cols,
            rowptr,
            colid,
            val,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> CsrMatrix {
        // [ 4 1 0 ]
        // [ 1 3 1 ]
        // [ 0 1 2 ]
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
    fn roundtrip_preserves_triplets() {
        let a = sample();
        for b in [1usize, 2, 3, 4] {
            let blocked = BcsrMatrix::from_csr(&a, b).unwrap();
            let back = blocked.to_csr().unwrap();
            assert_eq!(back.rowptr(), a.rowptr(), "b={b}");
            assert_eq!(back.colid(), a.colid(), "b={b}");
            assert_eq!(back.val(), a.val(), "b={b}");
        }
    }

    #[test]
    fn spmv_matches_csr_bitwise() {
        for seed in 0..5u64 {
            let a = gen::random_spd(120, 0.05, seed).unwrap();
            let x: Vec<f64> = (0..120).map(|i| (i as f64 * 0.31).cos()).collect();
            let want = a.spmv(&x);
            for b in [2usize, 4] {
                let blocked = BcsrMatrix::from_csr(&a, b).unwrap();
                let mut y = vec![0.0; 120];
                blocked.spmv_into(&x, &mut y);
                assert_eq!(y, want, "seed {seed} b {b}");
            }
        }
    }

    #[test]
    fn ragged_dimension_handled() {
        // 5x5 with b=2: last block row/col are partial.
        let a = gen::poisson2d(5).unwrap(); // order 25
        let blocked = BcsrMatrix::from_csr(&a, 2).unwrap();
        assert_eq!(blocked.nnz, a.nnz());
        let x = vec![1.0; 25];
        let mut y = vec![0.0; 25];
        blocked.spmv_into(&x, &mut y);
        assert_eq!(y, a.spmv(&x));
    }

    #[test]
    fn fixed_edge_kernels_are_bit_identical_to_generic() {
        for n in [3usize, 4, 5, 7, 8, 9, 30, 63, 64, 65] {
            let a = gen::random_spd(n, 0.2, n as u64).unwrap();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.47).sin() + 0.5).collect();
            for b in [2usize, 4] {
                let blocked = BcsrMatrix::from_csr(&a, b).unwrap();
                let mut fixed = vec![0.0; n];
                let mut generic = vec![0.0; n];
                blocked.spmv_into(&x, &mut fixed);
                blocked.spmv_generic(&x, &mut generic);
                for i in 0..n {
                    assert_eq!(
                        fixed[i].to_bits(),
                        generic[i].to_bits(),
                        "n {n} b {b} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_zero_survives_roundtrip() {
        let a = CsrMatrix::new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![1.0, 0.0, 3.0]).unwrap();
        let back = BcsrMatrix::from_csr(&a, 2).unwrap().to_csr().unwrap();
        assert_eq!(back.rowptr(), a.rowptr());
        assert_eq!(back.colid(), a.colid());
        assert_eq!(back.val(), a.val());
    }

    #[test]
    fn rejects_bad_block_size() {
        let a = sample();
        assert!(BcsrMatrix::from_csr(&a, 0).is_err());
        assert!(BcsrMatrix::from_csr(&a, 5).is_err());
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let blocked = BcsrMatrix::from_csr(&a, 2).unwrap();
        assert_eq!(blocked.nnz, 0);
        assert!(blocked.val.is_empty());
        let mut y = vec![];
        blocked.spmv_into(&[], &mut y);
    }
}
