//! Structural statistics of sparse matrices, used by the experiment
//! reports (EXPERIMENTS.md lists these for each substituted matrix) and
//! by the fault model (memory footprint).

use crate::csr::CsrMatrix;

/// Summary of a matrix's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Order (rows; the test set is square).
    pub(crate) n: usize,
    /// Stored nonzeros.
    pub(crate) nnz: usize,
    /// Fill ratio `nnz / n²`.
    pub(crate) density: f64,
    /// Minimum row nonzero count.
    pub(crate) min_row_nnz: usize,
    /// Maximum row nonzero count.
    pub(crate) max_row_nnz: usize,
    /// Mean row nonzero count.
    pub(crate) avg_row_nnz: f64,
    /// Half bandwidth `max |i − j|` over stored entries.
    pub(crate) bandwidth: usize,
    /// Whether the matrix is symmetric to 1e-12.
    pub(crate) symmetric: bool,
    /// Whether strictly diagonally dominant.
    pub(crate) diagonally_dominant: bool,
    /// Words the fault model counts in the CSR arrays, one per entry of
    /// each, whatever its width: `2·nnz + n + 1`, the matrix's share of
    /// `M` (`ftcg-fault`'s memory layout; not the bytes, see
    /// [`CsrMatrix::image_bytes`]).
    pub fault_words: usize,
}

impl MatrixStats {
    /// Computes all statistics in one pass over the structure (plus the
    /// transpose for the symmetry check).
    pub fn compute(a: &CsrMatrix) -> Self {
        let n = a.n_rows();
        let mut min_row = usize::MAX;
        let mut max_row = 0usize;
        let mut bandwidth = 0usize;
        for i in 0..n {
            let cnt = a.row_range(i).len();
            min_row = min_row.min(cnt);
            max_row = max_row.max(cnt);
            for (j, _) in a.row(i) {
                bandwidth = bandwidth.max(i.abs_diff(j));
            }
        }
        if n == 0 {
            min_row = 0;
        }
        Self {
            n,
            nnz: a.nnz(),
            density: a.density(),
            min_row_nnz: min_row,
            max_row_nnz: max_row,
            avg_row_nnz: if n == 0 {
                0.0
            } else {
                a.nnz() as f64 / n as f64
            },
            bandwidth,
            symmetric: a.is_symmetric(1e-12),
            diagonally_dominant: a.is_strictly_diagonally_dominant(),
            fault_words: 2 * a.nnz() + n + 1,
        }
    }

    /// One-line human-readable rendering for reports.
    pub fn summary_line(&self) -> String {
        format!(
            "n={} nnz={} density={:.3e} rows[{}..{}] avg={:.2} bw={} sym={} dd={}",
            self.n,
            self.nnz,
            self.density,
            self.min_row_nnz,
            self.max_row_nnz,
            self.avg_row_nnz,
            self.bandwidth,
            self.symmetric,
            self.diagonally_dominant
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_poisson2d() {
        let a = gen::poisson2d(5).unwrap();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.n, 25);
        assert_eq!(s.min_row_nnz, 3); // corner
        assert_eq!(s.max_row_nnz, 5); // interior
        assert_eq!(s.bandwidth, 5); // grid stride
        assert!(s.symmetric);
        assert!(!s.diagonally_dominant); // weakly dominant only
        assert_eq!(s.fault_words, 2 * a.nnz() + a.n_rows() + 1);
    }

    #[test]
    fn stats_of_tridiagonal() {
        let a = gen::tridiagonal(8, 4.0, -1.0).unwrap();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.bandwidth, 1);
        assert!(s.diagonally_dominant);
        assert!((s.avg_row_nnz - (3.0 * 8.0 - 2.0) / 8.0).abs() < 1e-12);
    }

    #[test]
    fn summary_line_contains_fields() {
        let a = gen::tridiagonal(4, 3.0, -1.0).unwrap();
        let line = MatrixStats::compute(&a).summary_line();
        assert!(line.contains("n=4"));
        assert!(line.contains("bw=1"));
    }

    #[test]
    fn stats_of_empty() {
        let a = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.n, 0);
        assert_eq!(s.min_row_nnz, 0);
        assert_eq!(s.avg_row_nnz, 0.0);
    }
}
