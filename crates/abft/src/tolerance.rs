//! Floating-point tolerance for the checksum equality tests.
//!
//! Theorem 2 of the paper: with recursive summation,
//! `|fl((cᵀA)x) − fl(cᵀ(Ax))| ≤ 2·γ₂ₙ·|cᵀ|·|A|·|x|`, which is relaxed to
//! the computable norm bound (eq. 9)
//! `2·γ₂ₙ·n·‖cᵀ‖∞·‖A‖₁·‖x‖∞`.
//!
//! Using this bound as the comparison threshold guarantees **no false
//! positives** (a non-faulty run never trips the test), at the cost of
//! false negatives for perturbations below the threshold — which the
//! paper argues (citing Elliott et al.) are too small to prevent
//! convergence. Both properties are pinned as claims C3 and C4 in
//! `tests/paper_claims.rs`.

/// Machine epsilon for `f64` (unit roundoff `u = 2⁻⁵³`).
pub(crate) const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// Higham's `γ_n = n·u / (1 − n·u)`, the standard accumulated rounding
/// factor for `n` operations.
///
/// # Panics
/// Panics if `n·u ≥ 1` (no meaningful bound exists).
pub(crate) fn gamma(n: usize) -> f64 {
    let nu = n as f64 * UNIT_ROUNDOFF;
    assert!(nu < 1.0, "gamma: n too large for a meaningful bound");
    nu / (1.0 - nu)
}

/// Precomputed tolerance factory for a fixed matrix and weight row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ToleranceBound {
    /// Matrix order.
    pub(crate) n: usize,
    /// `2·γ₂ₙ·n·‖cᵀ‖∞·‖A‖₁` — everything in eq. (9) except `‖x‖∞`,
    /// computable once per matrix.
    pub(crate) factor: f64,
}

impl ToleranceBound {
    /// Builds the bound for a matrix of order `n` with 1-norm `norm1_a`,
    /// for a checksum/weight vector with ∞-norm `weight_norm_inf`.
    pub(crate) fn new(n: usize, norm1_a: f64, weight_norm_inf: f64) -> Self {
        let factor = 2.0 * gamma(2 * n) * n as f64 * weight_norm_inf * norm1_a;
        Self { n, factor }
    }

    /// The threshold for a particular input vector: `factor · ‖x‖∞`.
    #[inline]
    pub(crate) fn threshold(&self, x_norm_inf: f64) -> f64 {
        self.factor * x_norm_inf
    }

    /// `true` iff a residue of magnitude `d` must be a genuine error
    /// (exceeds the rounding bound) for an input with the given ∞-norm.
    #[inline]
    pub(crate) fn is_error(&self, d: f64, x_norm_inf: f64) -> bool {
        !d.is_finite() || d.abs() > self.threshold(x_norm_inf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::{gen, vector};

    #[test]
    fn gamma_small_n() {
        // γ_1 ≈ u
        assert!((gamma(1) - UNIT_ROUNDOFF).abs() < 1e-20);
        // γ grows monotonically
        assert!(gamma(10) < gamma(100));
        assert!(gamma(100) < gamma(10_000));
    }

    #[test]
    fn gamma_is_approximately_nu() {
        let g = gamma(1000);
        let nu = 1000.0 * UNIT_ROUNDOFF;
        assert!((g - nu).abs() / nu < 1e-10);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn gamma_rejects_huge_n() {
        gamma(1usize << 54);
    }

    #[test]
    fn threshold_scales_with_x() {
        let t = ToleranceBound::new(100, 8.0, 1.0);
        assert_eq!(t.threshold(2.0), 2.0 * t.threshold(1.0));
        assert_eq!(t.threshold(0.0), 0.0);
    }

    #[test]
    fn nan_and_inf_always_error() {
        let t = ToleranceBound::new(10, 1.0, 1.0);
        assert!(t.is_error(f64::NAN, 1.0));
        assert!(t.is_error(f64::INFINITY, 1.0));
    }

    #[test]
    fn no_false_positive_on_real_kernel() {
        // The defining property: for a fault-free SpMxV, the difference
        // between (wᵀA)x and wᵀ(Ax) stays below the bound.
        for seed in 0..20u64 {
            let a = gen::random_spd(80, 0.06, seed).unwrap();
            let n = a.n_rows();
            let x: Vec<f64> = (0..n)
                .map(|i| ((i as f64) * 0.7 + seed as f64).sin() * 3.0)
                .collect();
            let y = a.spmv(&x);
            for (r, wni) in [(0usize, 1.0), (1usize, n as f64)] {
                let w = |i: usize| crate::weights::weight(r, i);
                // wᵀ(Ax)
                let lhs: f64 = y.iter().enumerate().map(|(i, &v)| w(i) * v).sum();
                // (wᵀA)x
                let c = crate::checksum::MatrixChecksums::weighted_column_sums(&a);
                let rhs: f64 = c[r].iter().zip(x.iter()).map(|(a, b)| a * b).sum();
                let t = ToleranceBound::new(n, a.norm1(), wni);
                assert!(
                    !t.is_error(lhs - rhs, vector::norm_inf(&x)),
                    "false positive at seed {seed} row {r}: |{lhs} - {rhs}| vs {}",
                    t.threshold(vector::norm_inf(&x))
                );
            }
        }
    }

    #[test]
    fn large_injected_error_exceeds_bound() {
        let a = gen::random_spd(50, 0.08, 1).unwrap();
        let t = ToleranceBound::new(50, a.norm1(), 1.0);
        // A sign-bit flip of a typical entry produces an O(1) residue,
        // far above the O(n²·u) rounding bound.
        assert!(t.is_error(1.0, 1.0));
        assert!(!t.is_error(1e-18, 1.0));
    }
}
