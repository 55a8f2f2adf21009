//! Coordinate (triplet) format, used for assembly and MatrixMarket I/O.

use crate::csr::CsrMatrix;

/// A matrix under assembly as unordered `(row, col, value)` triplets.
///
/// Duplicate coordinates are *summed* on conversion to CSR, matching the
/// usual finite-element assembly convention and the MatrixMarket spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `n_rows × n_cols` triplet matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix with room for `cap` triplets.
    pub(crate) fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Appends a triplet.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n_rows, "coo push: row {i} out of bounds");
        assert!(j < self.n_cols, "coo push: col {j} out of bounds");
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Appends a triplet and, when off-diagonal, its mirror `(j, i, v)`.
    /// Convenience for symmetric MatrixMarket files.
    pub(crate) fn push_sym(&mut self, i: usize, j: usize, v: f64) {
        self.push(i, j, v);
        if i != j {
            self.push(j, i, v);
        }
    }

    /// Converts to CSR, summing duplicates and sorting columns within rows.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row.
        let mut rowptr = vec![0usize; self.n_rows + 1];
        for &i in &self.rows {
            rowptr[i + 1] += 1;
        }
        for i in 0..self.n_rows {
            rowptr[i + 1] += rowptr[i];
        }
        let nnz = self.vals.len();
        let mut colid = vec![0usize; nnz];
        let mut val = vec![0.0; nnz];
        let mut next = rowptr.clone();
        for k in 0..nnz {
            let i = self.rows[k];
            let dst = next[i];
            colid[dst] = self.cols[k];
            val[dst] = self.vals[k];
            next[i] += 1;
        }
        // Sort within each row and merge duplicates.
        let mut out_rowptr = vec![0usize; self.n_rows + 1];
        let mut out_colid = Vec::with_capacity(nnz);
        let mut out_val = Vec::with_capacity(nnz);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for i in 0..self.n_rows {
            scratch.clear();
            scratch.extend(
                colid[rowptr[i]..rowptr[i + 1]]
                    .iter()
                    .copied()
                    .zip(val[rowptr[i]..rowptr[i + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < scratch.len() {
                let (c, mut v) = scratch[k];
                let mut k2 = k + 1;
                while k2 < scratch.len() && scratch[k2].0 == c {
                    v += scratch[k2].1;
                    k2 += 1;
                }
                out_colid.push(c);
                out_val.push(v);
                k = k2;
            }
            out_rowptr[i + 1] = out_colid.len();
        }
        CsrMatrix::from_parts_unchecked(self.n_rows, self.n_cols, out_rowptr, out_colid, out_val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_converts() {
        let coo = CooMatrix::new(2, 2);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.rowptr(), &[0, 0, 0]);
    }

    #[test]
    fn push_and_convert_sorted() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 3.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 2.0);
        let csr = coo.to_csr();
        assert_eq!(csr.rowptr(), &[0, 1, 3]);
        assert_eq!(csr.colid(), &[1, 0, 2]); // sorted within row 1
        assert_eq!(csr.val(), &[1.0, 2.0, 3.0]);
        csr.validate().unwrap();
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.5);
        coo.push(0, 0, 2.5);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), 4.0);
    }

    #[test]
    fn push_sym_mirrors_offdiagonal() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 1, 2.0);
        coo.push_sym(2, 2, 5.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 1), 2.0);
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(2, 2), 5.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_rejects_bad_row() {
        CooMatrix::new(1, 1).push(1, 0, 1.0);
    }

    #[test]
    fn with_capacity_reserves() {
        let coo = CooMatrix::with_capacity(4, 4, 16);
        assert_eq!((coo.n_rows, coo.n_cols, coo.vals.len()), (4, 4, 0));
        assert!(coo.vals.capacity() >= 16);
    }
}
