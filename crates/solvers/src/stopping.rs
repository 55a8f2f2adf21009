//! Stopping criteria for the iterative solvers.

use ftcg_sparse::CsrMatrix;

/// When to declare convergence on the residual norm `‖rᵢ‖₂`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingCriterion {
    /// The paper's Algorithm 1, line 4: stop when
    /// `‖rᵢ‖ ≤ ε·(‖A‖·‖r₀‖ + ‖b‖)` (we use `‖A‖₁` for `‖A‖`).
    Paper {
        /// The tolerance `ε`.
        eps: f64,
    },
    /// Standard relative criterion `‖rᵢ‖ ≤ ε·‖b‖`.
    RelativeB {
        /// The tolerance `ε`.
        eps: f64,
    },
    /// Absolute criterion `‖rᵢ‖ ≤ ε`.
    Absolute {
        /// The threshold.
        eps: f64,
    },
}

impl StoppingCriterion {
    /// Resolves the criterion into a fixed threshold on `‖r‖₂` for a
    /// given system (evaluated once, in reliable mode).
    pub fn threshold(&self, a: &CsrMatrix, b_norm: f64, r0_norm: f64) -> f64 {
        match *self {
            StoppingCriterion::Paper { eps } => eps * (a.norm1() * r0_norm + b_norm),
            StoppingCriterion::RelativeB { eps } => eps * b_norm,
            StoppingCriterion::Absolute { eps } => eps,
        }
    }

    /// Reasonable default: relative 1e-8.
    pub(crate) fn default_relative() -> Self {
        StoppingCriterion::RelativeB { eps: 1e-8 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    #[test]
    fn paper_threshold_formula() {
        let a = gen::tridiagonal(5, 4.0, -1.0).unwrap();
        let c = StoppingCriterion::Paper { eps: 1e-6 };
        let t = c.threshold(&a, 2.0, 3.0);
        assert!((t - 1e-6 * (a.norm1() * 3.0 + 2.0)).abs() < 1e-18);
    }

    #[test]
    fn relative_ignores_matrix() {
        let a = gen::tridiagonal(5, 4.0, -1.0).unwrap();
        let c = StoppingCriterion::RelativeB { eps: 1e-4 };
        assert_eq!(c.threshold(&a, 10.0, 99.0), 1e-3);
    }

    #[test]
    fn absolute_is_constant() {
        let a = gen::tridiagonal(5, 4.0, -1.0).unwrap();
        let c = StoppingCriterion::Absolute { eps: 0.5 };
        assert_eq!(c.threshold(&a, 10.0, 99.0), 0.5);
    }
}
