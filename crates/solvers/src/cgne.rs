//! CGNE — conjugate gradients on the normal equations `AAᵀy = b`,
//! `x = Aᵀy`.
//!
//! Listed by the paper among the solvers its techniques extend to; CGNE
//! is interesting for the ABFT layer because every iteration performs a
//! sparse *transpose* product `Aᵀv` as well, exercising the column-
//! oriented code paths.

use ftcg_checkpoint::SolverState;
use ftcg_sparse::{fused, vector, CsrMatrix};

use crate::cg::{CgConfig, SolveStats};
use crate::machine::{CanonVec, IterativeSolver, PlainContext, StepContext, StepResult};
use crate::verify::{verify_online_residual, OnlineTolerances, OnlineVerdict};

/// CGNE as a steppable state machine.
///
/// Each iteration performs one forward product `q = A·p` (verified by
/// the ABFT schemes) and one transpose product `z = Aᵀ·r` (defensive in
/// resilient mode, but *not* checksum-verified — the paper's checksums
/// protect the row space). The cross-iteration scalar `‖Aᵀr‖²` is a
/// deterministic function of `r` and the matrix image, so snapshots
/// need only the canonical vectors and restore recomputes it against
/// the restored matrix, bit-identically at iteration boundaries.
#[derive(Debug, Clone)]
pub struct CgneMachine {
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    z: Vec<f64>,
    rtr: f64,
    rnorm: f64,
}

impl CgneMachine {
    fn from_residual(x: Vec<f64>, r: Vec<f64>, b: &[f64], ctx: &mut dyn StepContext) -> Self {
        let n = b.len();
        // p = Aᵀ r
        let mut p = vec![0.0; n];
        ctx.product_transpose(&r, &mut p);
        let rtr = vector::norm2_sq(&p); // ‖Aᵀr‖²
        let rnorm = vector::norm2(&r);
        CgneMachine {
            b: b.to_vec(),
            x,
            r,
            p,
            q: vec![0.0; n],
            z: vec![0.0; n],
            rtr,
            rnorm,
        }
    }

    /// Starts from an arbitrary `x0` with `r₀ = b − A·x₀` and
    /// `p₀ = Aᵀ·r₀` through `ctx`.
    pub fn start(b: &[f64], x0: &[f64], ctx: &mut dyn StepContext) -> Self {
        let mut x = x0.to_vec();
        // r = b − A x (residual of the original system)
        let mut r = b.to_vec();
        let mut ax = vec![0.0; b.len()];
        ctx.product(&mut x, &mut ax);
        vector::sub_assign(&mut r, &ax);
        Self::from_residual(x, r, b, ctx)
    }

    /// Starts from `x₀ = 0`, `r₀ = b` (resilient initialization); the
    /// initial transpose product runs against the pristine `a0`.
    pub fn start_zero(a0: &CsrMatrix, b: &[f64]) -> Self {
        let mut ctx = ZeroInitCtx(a0);
        Self::from_residual(vec![0.0; b.len()], b.to_vec(), b, &mut ctx)
    }
}

/// Transpose-only context for [`CgneMachine::start_zero`] (the pristine
/// matrix is trusted at setup time, like the ABFT checksum build).
struct ZeroInitCtx<'a>(&'a CsrMatrix);

impl StepContext for ZeroInitCtx<'_> {
    #[expect(
        clippy::unreachable,
        reason = "invariant: the zero-start branch never requests a forward product from the step context (pinned bitwise by solver_regression.rs)"
    )]
    fn product(&mut self, _x: &mut [f64], _y: &mut [f64]) -> crate::machine::ProductStatus {
        unreachable!("zero-start CGNE needs no forward product")
    }

    fn product_transpose(&mut self, x: &[f64], y: &mut [f64]) -> crate::machine::ProductStatus {
        self.0.spmv_transpose_into(x, y);
        crate::machine::ProductStatus::Trusted
    }
}

impl IterativeSolver for CgneMachine {
    fn name(&self) -> &'static str {
        "cgne"
    }

    fn n(&self) -> usize {
        self.x.len()
    }

    fn residual_norm(&self) -> f64 {
        self.rnorm
    }

    fn step(&mut self, ctx: &mut dyn StepContext) -> StepResult {
        let n = self.x.len();
        if self.rtr == 0.0 || !self.rtr.is_finite() {
            return StepResult::Breakdown;
        }
        if ctx.product(&mut self.p, &mut self.q).rejected() {
            // q = A p
            return StepResult::Rejected;
        }
        let qq = vector::norm2_sq(&self.q);
        if qq == 0.0 || !qq.is_finite() {
            return StepResult::Breakdown;
        }
        let alpha = self.rtr / qq;
        // x ← x + α p, r ← r − α q and ‖r‖₂² in one sweep; r is not
        // touched again this step, so the fused norm is exactly the
        // step-end `vector::norm2(&r)` it replaces.
        let rnorm_sq =
            fused::axpy2_norm2_sq(alpha, &self.p, &mut self.x, -alpha, &self.q, &mut self.r);
        // z = Aᵀ r
        if ctx.product_transpose(&self.r, &mut self.z).rejected() {
            return StepResult::Rejected;
        }
        let rtr_new = vector::norm2_sq(&self.z);
        let beta = rtr_new / self.rtr;
        self.rtr = rtr_new;
        for i in 0..n {
            self.p[i] = self.z[i] + beta * self.p[i];
        }
        self.rnorm = rnorm_sq.sqrt();
        StepResult::Done
    }

    fn vector(&self, which: CanonVec) -> &[f64] {
        match which {
            CanonVec::Direction => &self.p,
            CanonVec::Product => &self.q,
            CanonVec::Residual => &self.r,
            CanonVec::Iterate => &self.x,
        }
    }

    fn vector_mut(&mut self, which: CanonVec) -> &mut [f64] {
        match which {
            CanonVec::Direction => &mut self.p,
            CanonVec::Product => &mut self.q,
            CanonVec::Residual => &mut self.r,
            CanonVec::Iterate => &mut self.x,
        }
    }

    fn snapshot_into(&self, iteration: usize, into: &mut SolverState) {
        into.store_vectors(
            iteration,
            &self.x,
            &self.r,
            &self.p,
            self.rnorm * self.rnorm,
        );
    }

    fn reset_zero(&mut self, a0: &CsrMatrix, b: &[f64]) {
        assert_eq!(b.len(), self.x.len(), "cgne reset: b length mismatch");
        self.b.copy_from_slice(b);
        self.x.fill(0.0);
        self.r.copy_from_slice(b);
        // p₀ = Aᵀ·r₀ against the pristine matrix — the constructor's
        // trusted-setup transpose product, same FP operations.
        a0.spmv_transpose_into(&self.r, &mut self.p);
        self.q.fill(0.0);
        self.z.fill(0.0);
        self.rtr = vector::norm2_sq(&self.p);
        self.rnorm = vector::norm2(&self.r);
    }

    fn restore(&mut self, st: &SolverState, a: &CsrMatrix) {
        self.x.copy_from_slice(&st.x);
        self.r.copy_from_slice(&st.r);
        self.p.copy_from_slice(&st.p);
        // ‖Aᵀr‖² is recomputed against the restored matrix image — the
        // clamped traversal visits exactly the entries the plain one
        // does on a well-formed matrix, and never panics on a corrupted
        // one.
        a.spmv_transpose_clamped_into(&self.r, &mut self.z);
        self.rtr = vector::norm2_sq(&self.z);
        self.rnorm = vector::norm2(&self.r);
    }

    fn verify_state(&self, a: &CsrMatrix, norm1_a: f64, tol: &OnlineTolerances) -> OnlineVerdict {
        // CGNE directions are AᵀA-conjugate, not A-conjugate: only the
        // recomputed-residual test applies.
        verify_online_residual(
            a,
            &self.b,
            &self.x,
            &self.r,
            &[&self.p, &self.q],
            norm1_a,
            tol,
        )
    }
}

/// Solves `Ax = b` for nonsingular square `A` via the normal equations,
/// with the serial CSR products (forward and transpose).
///
/// # Panics
/// Panics on dimension mismatch or non-square matrix.
pub fn cgne_solve(a: &CsrMatrix, b: &[f64], x0: &[f64], cfg: &CgConfig) -> SolveStats {
    assert!(a.is_square(), "cgne: matrix must be square");
    let n = a.n_rows();
    assert_eq!(b.len(), n, "cgne: b length mismatch");
    assert_eq!(x0.len(), n, "cgne: x0 length mismatch");

    let mut ctx = PlainContext { a };
    let mut m = CgneMachine::start(b, x0, &mut ctx);
    let threshold = cfg
        .stopping
        .threshold(a, vector::norm2(b), vector::norm2(&m.r));

    let mut it = 0usize;
    while m.residual_norm() > threshold && it < cfg.max_iters {
        if m.step(&mut ctx) != StepResult::Done {
            break;
        }
        it += 1;
    }

    SolveStats {
        converged: m.residual_norm() <= threshold,
        residual_norm: m.residual_norm(),
        iterations: it,
        x: m.x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::{gen, CooMatrix};

    #[test]
    fn solves_spd_system() {
        let a = gen::tridiagonal(40, 4.0, -1.0).unwrap();
        let xstar: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = a.spmv(&xstar);
        let cfg = CgConfig {
            max_iters: 100_000,
            ..CgConfig::default()
        };
        let s = cgne_solve(&a, &b, &vec![0.0; 40], &cfg);
        assert!(s.converged);
        assert!(vector::max_abs_diff(&s.x, &xstar) < 1e-4);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let n = 30;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 6.0);
            if i + 1 < n {
                coo.push(i, i + 1, 1.0);
            }
            if i >= 2 {
                coo.push(i, i - 2, -0.5);
            }
        }
        let a = coo.to_csr();
        let xstar: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let b = a.spmv(&xstar);
        let cfg = CgConfig {
            max_iters: 100_000,
            ..CgConfig::default()
        };
        let s = cgne_solve(&a, &b, &vec![0.0; n], &cfg);
        assert!(s.converged, "{s:?}");
        assert!(vector::max_abs_diff(&s.x, &xstar) < 1e-4);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::tridiagonal(10, 4.0, -1.0).unwrap();
        let s = cgne_solve(&a, &[0.0; 10], &[0.0; 10], &CgConfig::default());
        assert_eq!(s.iterations, 0);
        assert!(s.converged);
    }

    #[test]
    fn identity_fast() {
        let a = CsrMatrix::identity(7);
        let s = cgne_solve(&a, &[3.0; 7], &[0.0; 7], &CgConfig::default());
        assert!(s.converged);
        assert!(s.iterations <= 2);
    }
}
