//! BiCGSTAB for general (non-symmetric) systems.
//!
//! Section 3 of the paper notes the ABFT techniques apply to "any
//! iterative solver that use sparse matrix vector multiplies and vector
//! operations … CGNE, BiCG, BiCGstab". This is the standard
//! van der Vorst BiCGSTAB; each iteration performs two SpMxV that the
//! ABFT layer can protect exactly like CG's one.

use ftcg_checkpoint::SolverState;
use ftcg_sparse::{fused, vector, CsrMatrix};

use crate::cg::{CgConfig, SolveStats};
use crate::machine::{CanonVec, IterativeSolver, PlainContext, StepContext, StepResult};
use crate::verify::{verify_online_residual, OnlineTolerances, OnlineVerdict};

/// BiCGSTAB as a steppable state machine.
///
/// Two forward products run per iteration — both are checksum-verified
/// under the ABFT schemes ([`verified_products`] = 2). The half-step
/// early exit consults the stopping threshold handed over by
/// [`IterativeSolver::set_threshold`]. The shadow residual `r̂ = r₀`
/// lives in reliable memory (it is constant for the whole solve), so
/// snapshots need only the canonical vectors: `ρ` is recomputed as
/// `r̂ᵀr` on restore, bit-identically to the recurrence value at any
/// iteration boundary.
///
/// [`verified_products`]: IterativeSolver::verified_products
#[derive(Debug, Clone)]
pub struct BicgstabMachine {
    b: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    rhat: Vec<f64>,
    p: Vec<f64>,
    v: Vec<f64>,
    s: Vec<f64>,
    t: Vec<f64>,
    rho: f64,
    rnorm: f64,
    threshold: f64,
}

impl BicgstabMachine {
    fn from_residual(b: &[f64], x: Vec<f64>, r: Vec<f64>) -> Self {
        let n = b.len();
        let rhat = r.clone(); // shadow residual
        let p = r.clone();
        let rho = vector::dot(&rhat, &r);
        let rnorm = vector::norm2(&r);
        BicgstabMachine {
            b: b.to_vec(),
            x,
            r,
            rhat,
            p,
            v: vec![0.0; n],
            s: vec![0.0; n],
            t: vec![0.0; n],
            rho,
            rnorm,
            threshold: 0.0,
        }
    }

    /// Starts from an arbitrary `x0` with `r₀ = b − A·x₀` through `ctx`.
    pub fn start(b: &[f64], x0: &[f64], ctx: &mut dyn StepContext) -> Self {
        let mut x = x0.to_vec();
        let mut r = b.to_vec();
        let mut ax = vec![0.0; b.len()];
        ctx.product(&mut x, &mut ax);
        vector::sub_assign(&mut r, &ax);
        Self::from_residual(b, x, r)
    }

    /// Starts from `x₀ = 0`, `r₀ = b` (resilient initialization).
    pub fn start_zero(b: &[f64]) -> Self {
        Self::from_residual(b, vec![0.0; b.len()], b.to_vec())
    }
}

impl IterativeSolver for BicgstabMachine {
    fn name(&self) -> &'static str {
        "bicgstab"
    }

    fn n(&self) -> usize {
        self.x.len()
    }

    fn residual_norm(&self) -> f64 {
        self.rnorm
    }

    fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    fn verified_products(&self) -> usize {
        2
    }

    fn step(&mut self, ctx: &mut dyn StepContext) -> StepResult {
        if self.rho == 0.0 || !self.rho.is_finite() {
            return StepResult::Breakdown;
        }
        if ctx.product(&mut self.p, &mut self.v).rejected() {
            return StepResult::Rejected;
        }
        let rhat_v = vector::dot(&self.rhat, &self.v);
        if rhat_v == 0.0 || !rhat_v.is_finite() {
            return StepResult::Breakdown;
        }
        let alpha = self.rho / rhat_v;
        // s ← r − α v fused with ‖s‖₂² (each s[i] read post-update, so
        // both results match the separate loop + norm2 bit for bit).
        let snorm_sq = fused::sub_scaled_norm2_sq(&self.r, alpha, &self.v, &mut self.s);
        if snorm_sq.sqrt() <= self.threshold {
            // Half-step exit: already converged at the intermediate
            // residual. `ρ` stays stale, which is fine — the driver
            // stops (or, in resilient mode, verifies and then stops)
            // before it is read again.
            vector::axpy(alpha, &self.p, &mut self.x);
            self.r.copy_from_slice(&self.s);
            // r is bitwise s, so ‖r‖₂ is the norm already computed.
            self.rnorm = snorm_sq.sqrt();
            return StepResult::Done;
        }
        if ctx.product(&mut self.s, &mut self.t).rejected() {
            return StepResult::Rejected;
        }
        // ⟨t, t⟩ and ⟨t, s⟩ share one sweep.
        let (tt, ts) = fused::dot2(&self.t, &self.t, &self.t, &self.s);
        if tt == 0.0 {
            return StepResult::Breakdown;
        }
        let omega = ts / tt;
        if omega == 0.0 || !omega.is_finite() {
            return StepResult::Breakdown;
        }
        // x += α p + ω s, r = s − ω t and ⟨r̂, r⟩ in one sweep.
        let rho_new = fused::step_update_dot(
            alpha,
            &self.p,
            omega,
            &self.s,
            &self.t,
            &mut self.x,
            &mut self.r,
            &self.rhat,
        );
        let beta = (rho_new / self.rho) * (alpha / omega);
        self.rho = rho_new;
        // p = r + β (p − ω v) fused with ‖r‖₂².
        let rnorm_sq = fused::dir_update_norm2_sq(&self.r, beta, omega, &self.v, &mut self.p);
        self.rnorm = rnorm_sq.sqrt();
        StepResult::Done
    }

    fn vector(&self, which: CanonVec) -> &[f64] {
        match which {
            CanonVec::Direction => &self.p,
            CanonVec::Product => &self.v,
            CanonVec::Residual => &self.r,
            CanonVec::Iterate => &self.x,
        }
    }

    fn vector_mut(&mut self, which: CanonVec) -> &mut [f64] {
        match which {
            CanonVec::Direction => &mut self.p,
            CanonVec::Product => &mut self.v,
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

    fn reset_zero(&mut self, _a0: &CsrMatrix, b: &[f64]) {
        assert_eq!(b.len(), self.x.len(), "bicgstab reset: b length mismatch");
        self.b.copy_from_slice(b);
        self.x.fill(0.0);
        self.r.copy_from_slice(b);
        self.rhat.copy_from_slice(&self.r);
        self.p.copy_from_slice(&self.r);
        self.v.fill(0.0);
        self.s.fill(0.0);
        self.t.fill(0.0);
        self.rho = vector::dot(&self.rhat, &self.r);
        self.rnorm = vector::norm2(&self.r);
        self.threshold = 0.0;
    }

    fn restore(&mut self, st: &SolverState, _a: &CsrMatrix) {
        self.x.copy_from_slice(&st.x);
        self.r.copy_from_slice(&st.r);
        self.p.copy_from_slice(&st.p);
        // At every full-iteration boundary ρ == r̂ᵀr by the recurrence,
        // so recomputing it reproduces the checkpointed trajectory bit
        // for bit (the shadow residual is constant reliable state).
        self.rho = vector::dot(&self.rhat, &self.r);
        self.rnorm = vector::norm2(&self.r);
    }

    fn verify_state(&self, a: &CsrMatrix, norm1_a: f64, tol: &OnlineTolerances) -> OnlineVerdict {
        // BiCGStab directions are not A-conjugate: only the recomputed
        // residual test applies.
        verify_online_residual(
            a,
            &self.b,
            &self.x,
            &self.r,
            &[&self.p, &self.v],
            norm1_a,
            tol,
        )
    }
}

/// Solves `Ax = b` (general square `A`) with BiCGSTAB and the serial
/// CSR product.
///
/// # Panics
/// Panics on dimension mismatch or non-square matrix.
pub fn bicgstab_solve(a: &CsrMatrix, b: &[f64], x0: &[f64], cfg: &CgConfig) -> SolveStats {
    assert!(a.is_square(), "bicgstab: matrix must be square");
    let n = a.n_rows();
    assert_eq!(b.len(), n, "bicgstab: b length mismatch");
    assert_eq!(x0.len(), n, "bicgstab: x0 length mismatch");

    let mut ctx = PlainContext { a };
    let mut m = BicgstabMachine::start(b, x0, &mut ctx);
    let threshold = cfg
        .stopping
        .threshold(a, vector::norm2(b), vector::norm2(&m.r));
    m.set_threshold(threshold);

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
        let a = gen::random_spd(80, 0.06, 3).unwrap();
        let b: Vec<f64> = (0..80).map(|i| (i as f64 * 0.17).sin()).collect();
        let s = bicgstab_solve(&a, &b, &vec![0.0; 80], &CgConfig::default());
        assert!(s.converged, "{s:?}");
        assert!(vector::max_abs_diff(&a.spmv(&s.x), &b) < 1e-6);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        // Diagonally dominant non-symmetric matrix (CG would fail here).
        let n = 50;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 5.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.5); // asymmetric couplings
            }
            if i >= 1 {
                coo.push(i, i - 1, -0.5);
            }
        }
        let a = coo.to_csr();
        assert!(!a.is_symmetric(1e-12));
        let xstar: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let b = a.spmv(&xstar);
        let s = bicgstab_solve(&a, &b, &vec![0.0; n], &CgConfig::default());
        assert!(s.converged);
        assert!(vector::max_abs_diff(&s.x, &xstar) < 1e-5);
    }

    #[test]
    fn identity_converges_instantly() {
        let a = CsrMatrix::identity(6);
        let b = vec![2.0; 6];
        let s = bicgstab_solve(&a, &b, &[0.0; 6], &CgConfig::default());
        assert!(s.converged);
        assert!(s.iterations <= 2);
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::tridiagonal(10, 4.0, -1.0).unwrap();
        let s = bicgstab_solve(&a, &[0.0; 10], &[0.0; 10], &CgConfig::default());
        assert_eq!(s.iterations, 0);
        assert!(s.converged);
    }

    #[test]
    fn respects_iteration_cap() {
        let a = gen::poisson2d(14).unwrap();
        let n = a.n_rows();
        let cfg = CgConfig {
            max_iters: 2,
            ..CgConfig::default()
        };
        let s = bicgstab_solve(&a, &vec![1.0; n], &vec![0.0; n], &cfg);
        assert!(s.iterations <= 2);
    }
}
