//! Matrix checksum construction (`COMPUTECHECKSUMS` in Algorithm 2).
//!
//! All quantities here are computed **once per matrix** in reliable
//! memory (selective reliability), then reused across every SpMxV with
//! that matrix — the paper notes this amortization is "crucial when
//! talking about the performances of the checksumming techniques".

use ftcg_sparse::{CsrMatrix, CsrWords};

use crate::weights::weights;

/// Precomputed checksums of a CSR matrix for the dual-weight scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixChecksums {
    /// Matrix order (square matrices; CG context).
    pub(crate) n: usize,
    /// Weighted column sums `C[r][j] = Σᵢ w_r(i)·aᵢⱼ` (unshifted).
    pub(crate) col: [Vec<f64>; 2],
    /// Row-pointer checksums `cr_r = Σᵢ₌₀ⁿ w_r(i)·Rowidx_i`, exact.
    pub(crate) rowptr: [u128; 2],
    /// `‖A‖₁` (maximum absolute column sum), for the tolerance bound.
    pub norm1: f64,
}

impl MatrixChecksums {
    /// Computes all checksums in two passes over the matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square (the CG setting).
    pub(crate) fn compute(a: &CsrMatrix) -> Self {
        assert!(a.is_square(), "checksums: matrix must be square");
        Self {
            n: a.n_rows(),
            col: Self::weighted_column_sums(a),
            rowptr: a.rowptr_sums(),
            norm1: a.norm1(),
        }
    }

    /// Weighted column sums of the matrix *as currently stored* — the
    /// `C′ = WᵀA` recomputation step of the correction procedure. The
    /// traversal order matches [`MatrixChecksums::compute`] exactly, so on
    /// an uncorrupted matrix the result is bitwise identical to
    /// [`MatrixChecksums::col`], making column classification exact.
    ///
    /// Robust to corrupted structure: row ranges follow
    /// [`CsrWords::row_range_clamped`] and out-of-range column indices
    /// are skipped. Rows are read through [`CsrWords::entries`]: base
    /// slices where no word is flipped.
    pub(crate) fn weighted_column_sums(a: &impl CsrWords) -> [Vec<f64>; 2] {
        let n = a.base().n_cols();
        let mut col = [vec![0.0; n], vec![0.0; n]];
        for i in 0..a.base().n_rows() {
            let w = weights(i);
            a.entries(a.row_range_clamped(i), |_, j, v| {
                let j = j as usize;
                if j < n {
                    for (c, w) in col.iter_mut().zip(w) {
                        c[j] += w * v;
                    }
                }
            });
        }
        col
    }
}

/// Chooses the smallest `k ∈ {0, 1, 2, …}` such that every `c_j + k` is
/// bounded away from zero (relative to the magnitude of `c`), per the
/// paper's shifting construction.
pub(crate) fn choose_shift(c: &[f64]) -> f64 {
    let scale = c.iter().fold(1.0_f64, |m, &v| m.max(v.abs()));
    let floor = 1e-12 * scale;
    let mut k = 0.0_f64;
    'outer: loop {
        for &v in c {
            if (v + k).abs() <= floor {
                k += 1.0;
                continue 'outer;
            }
        }
        return k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    #[test]
    fn column_checksums_match_definition() {
        let a = gen::random_spd(40, 0.1, 3).unwrap();
        let cs = MatrixChecksums::compute(&a);
        let dense = a.to_dense();
        #[expect(
            clippy::needless_range_loop,
            reason = "j indexes a column across every row of the dense matrix"
        )]
        for j in 0..40 {
            let c0: f64 = (0..40).map(|i| dense[i][j]).sum();
            let c1: f64 = (0..40).map(|i| (i + 1) as f64 * dense[i][j]).sum();
            assert!((cs.col[0][j] - c0).abs() < 1e-9 * (1.0 + c0.abs()));
            assert!((cs.col[1][j] - c1).abs() < 1e-7 * (1.0 + c1.abs()));
        }
    }

    #[test]
    fn rowptr_checksum_exact() {
        let a = gen::poisson2d(6).unwrap();
        let cs = MatrixChecksums::compute(&a);
        let want0: u128 = a.rowptr().iter().map(|&p| p as u128).sum();
        let want1: u128 = a
            .rowptr()
            .iter()
            .enumerate()
            .map(|(i, &p)| (i as u128 + 1) * p as u128)
            .sum();
        assert_eq!(cs.rowptr[0], want0);
        assert_eq!(cs.rowptr[1], want1);
        assert_eq!(a.rowptr_sums()[0], want0);
    }

    #[test]
    fn recompute_is_bitwise_identical_on_clean_matrix() {
        let a = gen::random_spd(64, 0.08, 9).unwrap();
        let cs = MatrixChecksums::compute(&a);
        let c2 = MatrixChecksums::weighted_column_sums(&a);
        for (r, row) in c2.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(cs.col[r][j].to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn recompute_differs_after_val_corruption() {
        let a = gen::random_spd(30, 0.1, 5).unwrap();
        let cs = MatrixChecksums::compute(&a);
        let mut b = a.clone();
        b.val_mut()[7] += 1.0;
        let c2 = MatrixChecksums::weighted_column_sums(&b);
        let ndiff = (0..30).filter(|&j| c2[0][j] != cs.col[0][j]).count();
        assert_eq!(ndiff, 1, "val corruption must perturb exactly one column");
    }

    #[test]
    fn recompute_survives_corrupt_structure() {
        let a = gen::poisson2d(4).unwrap();
        let mut b = a.clone();
        b.rowptr_mut()[3] = u32::MAX; // wild pointer
        b.colid_mut()[0] = 10_000; // wild column
        let c = MatrixChecksums::weighted_column_sums(&b); // must not panic
        assert_eq!(c[0].len(), 16);
    }

    #[test]
    fn shift_zero_when_no_zero_columns() {
        // Strictly diagonally dominant with positive diagonal ⇒ positive
        // column sums for w1? Not necessarily, but this instance is fine.
        let a = gen::tridiagonal(10, 4.0, 1.0).unwrap();
        let cs = MatrixChecksums::compute(&a);
        assert_eq!(choose_shift(&cs.col[0]), 0.0);
    }

    #[test]
    fn shift_fixes_laplacian_zero_columns() {
        let a = gen::graph_laplacian(20, 40, 0.0, 1).unwrap();
        let cs = MatrixChecksums::compute(&a);
        // Laplacian: every plain column sum is zero, so the shift must move.
        let k = choose_shift(&cs.col[0]);
        assert!(k >= 1.0);
        for j in 0..20 {
            assert!((cs.col[0][j] + k).abs() > 1e-9);
        }
    }

    #[test]
    fn choose_shift_handles_mixed_values() {
        assert_eq!(choose_shift(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(choose_shift(&[0.0, 2.0]), 1.0);
        // -1 would collide at k=1, so k=2 is chosen.
        assert_eq!(choose_shift(&[0.0, -1.0]), 2.0);
        assert_eq!(choose_shift(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular() {
        let a = ftcg_sparse::CsrMatrix::new(1, 2, vec![0, 1], vec![1], vec![1.0]).unwrap();
        MatrixChecksums::compute(&a);
    }
}
