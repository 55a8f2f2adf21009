//! Jacobi (diagonal) preconditioned conjugate gradients.
//!
//! The paper's conclusion singles out diagonal preconditioners as
//! directly compatible with the ABFT protection (the preconditioner
//! application is a pointwise product, protectable by TMR like the other
//! vector operations).

use ftcg_checkpoint::SolverState;
use ftcg_sparse::{fused, vector, CsrMatrix};

use crate::cg::{CgConfig, SolveStats};
use crate::machine::{CanonVec, IterativeSolver, PlainContext, StepContext, StepResult};
use crate::verify::{verify_online, OnlineTolerances, OnlineVerdict};

/// Jacobi-preconditioned CG as a steppable state machine.
///
/// The inverse diagonal `M⁻¹` is read once from the matrix handed to
/// the constructor (the *pristine* matrix in resilient runs: the
/// preconditioner is part of the reliable setup phase, like the ABFT
/// checksums).
#[derive(Debug, Clone)]
pub(crate) struct PcgMachine {
    b: Vec<f64>,
    minv: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    q: Vec<f64>,
    rz: f64,
    rnorm: f64,
}

impl PcgMachine {
    fn jacobi_inverse(a: &CsrMatrix) -> Vec<f64> {
        let diag = a.diag();
        assert!(
            diag.iter().all(|&d| d != 0.0),
            "pcg: zero diagonal entry, Jacobi preconditioner undefined"
        );
        diag.iter().map(|&d| 1.0 / d).collect()
    }

    fn from_residual(a: &CsrMatrix, b: &[f64], x: Vec<f64>, r: Vec<f64>) -> Self {
        let n = b.len();
        let minv = Self::jacobi_inverse(a);
        // z = M⁻¹ r
        let z: Vec<f64> = r.iter().zip(minv.iter()).map(|(rv, m)| rv * m).collect();
        let p = z.clone();
        let rz = vector::dot(&r, &z);
        let rnorm = vector::norm2(&r);
        PcgMachine {
            b: b.to_vec(),
            minv,
            x,
            r,
            z,
            p,
            q: vec![0.0; n],
            rz,
            rnorm,
        }
    }

    /// Starts from an arbitrary `x0` with `r₀ = b − A·x₀` through `ctx`.
    ///
    /// # Panics
    /// Panics on a zero diagonal entry (Jacobi undefined).
    pub(crate) fn start(a: &CsrMatrix, b: &[f64], x0: &[f64], ctx: &mut dyn StepContext) -> Self {
        let mut x = x0.to_vec();
        let mut r = b.to_vec();
        let mut ax = vec![0.0; b.len()];
        ctx.product(&mut x, &mut ax);
        vector::sub_assign(&mut r, &ax);
        Self::from_residual(a, b, x, r)
    }

    /// Starts from `x₀ = 0`, `r₀ = b` (resilient initialization; `a0`
    /// must be the pristine matrix).
    ///
    /// # Panics
    /// Panics on a zero diagonal entry (Jacobi undefined).
    pub(crate) fn start_zero(a0: &CsrMatrix, b: &[f64]) -> Self {
        Self::from_residual(a0, b, vec![0.0; b.len()], b.to_vec())
    }
}

impl IterativeSolver for PcgMachine {
    fn name(&self) -> &'static str {
        "pcg"
    }

    fn n(&self) -> usize {
        self.x.len()
    }

    fn residual_norm(&self) -> f64 {
        self.rnorm
    }

    fn step(&mut self, ctx: &mut dyn StepContext) -> StepResult {
        if ctx.product(&mut self.p, &mut self.q).rejected() {
            return StepResult::Rejected;
        }
        let pq = vector::dot(&self.p, &self.q);
        if pq <= 0.0 || !pq.is_finite() {
            return StepResult::Breakdown;
        }
        let alpha = self.rz / pq;
        // x ← x + α p, r ← r − α q, z ← M⁻¹ r and ⟨r, z⟩ in one sweep;
        // each element of r/z is read after its update, so all four
        // results are bit-identical to the separate calls.
        let rz_new = fused::axpy2_precond_dot(
            alpha,
            &self.p,
            &mut self.x,
            -alpha,
            &self.q,
            &mut self.r,
            &self.minv,
            &mut self.z,
        );
        let beta = rz_new / self.rz;
        self.rz = rz_new;
        // p ← z + β p fused with ‖r‖₂² (independent chains).
        let rnorm_sq = fused::xpay_norm2_sq(&self.z, beta, &mut self.p, &self.r);
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
        assert_eq!(b.len(), self.x.len(), "pcg reset: b length mismatch");
        self.b.copy_from_slice(b);
        // Re-read M⁻¹ from the pristine matrix — same operations as the
        // constructor's `jacobi_inverse` (1.0 / aᵢᵢ, in order).
        a0.diag_into(&mut self.minv);
        assert!(
            self.minv.iter().all(|&d| d != 0.0),
            "pcg: zero diagonal entry, Jacobi preconditioner undefined"
        );
        for m in &mut self.minv {
            *m = 1.0 / *m;
        }
        self.x.fill(0.0);
        self.r.copy_from_slice(b);
        for i in 0..self.z.len() {
            self.z[i] = self.r[i] * self.minv[i];
        }
        self.p.copy_from_slice(&self.z);
        self.q.fill(0.0);
        self.rz = vector::dot(&self.r, &self.z);
        self.rnorm = vector::norm2(&self.r);
    }

    fn restore(&mut self, st: &SolverState, _a: &CsrMatrix) {
        self.x.copy_from_slice(&st.x);
        self.r.copy_from_slice(&st.r);
        self.p.copy_from_slice(&st.p);
        // z and rz are pointwise/dot functions of the restored r — the
        // same FP operations the step would have left behind.
        for i in 0..self.z.len() {
            self.z[i] = self.r[i] * self.minv[i];
        }
        self.rz = vector::dot(&self.r, &self.z);
        self.rnorm = vector::norm2(&self.r);
    }

    fn verify_state(&self, a: &CsrMatrix, norm1_a: f64, tol: &OnlineTolerances) -> OnlineVerdict {
        // PCG's successive directions are A-conjugate exactly like CG's,
        // so both of Chen's tests apply unchanged.
        verify_online(a, &self.b, &self.x, &self.r, &self.p, &self.q, norm1_a, tol)
    }
}

/// Solves `Ax = b` with Jacobi-preconditioned CG and the serial CSR
/// product.
///
/// # Panics
/// Panics on dimension mismatch, non-square `A`, or a zero diagonal
/// entry (Jacobi undefined).
pub fn pcg_jacobi_solve(a: &CsrMatrix, b: &[f64], x0: &[f64], cfg: &CgConfig) -> SolveStats {
    assert!(a.is_square(), "pcg: matrix must be square");
    let n = a.n_rows();
    assert_eq!(b.len(), n, "pcg: b length mismatch");
    assert_eq!(x0.len(), n, "pcg: x0 length mismatch");

    let mut ctx = PlainContext { a };
    let mut m = PcgMachine::start(a, b, x0, &mut ctx);
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
    use ftcg_sparse::gen;

    #[test]
    fn solves_same_system_as_cg() {
        let a = gen::random_spd(100, 0.05, 11).unwrap();
        let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).cos()).collect();
        let s = pcg_jacobi_solve(&a, &b, &vec![0.0; 100], &CgConfig::default());
        assert!(s.converged);
        let err = vector::max_abs_diff(&a.spmv(&s.x), &b);
        assert!(err < 1e-6, "true residual {err}");
    }

    #[test]
    fn helps_on_badly_scaled_systems() {
        // Scale a tridiagonal system's rows/cols wildly: Jacobi fixes it.
        let n = 60;
        let base = gen::tridiagonal(n, 4.0, -1.0).unwrap();
        let scale: Vec<f64> = (0..n).map(|i| 10f64.powi((i % 5) as i32)).collect();
        // D A D (symmetric scaling keeps SPD)
        let mut coo = ftcg_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            for (j, v) in base.row(i) {
                coo.push(i, j, scale[i] * v * scale[j]);
            }
        }
        let a = coo.to_csr().unwrap();
        let b = vec![1.0; n];
        let cfg = CgConfig {
            max_iters: 100_000,
            ..CgConfig::default()
        };
        let plain = crate::cg::cg_solve(&a, &b, &vec![0.0; n], &cfg);
        let pre = pcg_jacobi_solve(&a, &b, &vec![0.0; n], &cfg);
        assert!(pre.converged);
        assert!(
            pre.iterations <= plain.iterations,
            "pcg {} should not exceed cg {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn identity_preconditioner_matches_cg_exactly() {
        // With unit diagonal, PCG reduces to CG.
        let a = gen::graph_laplacian(40, 80, 1.0, 2).unwrap();
        // Laplacian + I has diagonal = degree + 1 (not unit), so build a
        // unit-diagonal SPD instead: I + small symmetric perturbation.
        let id = CsrMatrix::identity(20).unwrap();
        let b = vec![1.0; 20];
        let s1 = pcg_jacobi_solve(&id, &b, &[0.0; 20], &CgConfig::default());
        let s2 = crate::cg::cg_solve(&id, &b, &[0.0; 20], &CgConfig::default());
        assert_eq!(s1.iterations, s2.iterations);
        let _ = a;
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn rejects_zero_diagonal() {
        let a = gen::diagonal(&[1.0, 0.0, 2.0]).unwrap();
        pcg_jacobi_solve(&a, &[1.0; 3], &[0.0; 3], &CgConfig::default());
    }

    #[test]
    fn zero_rhs_immediate() {
        let a = gen::tridiagonal(8, 4.0, -1.0).unwrap();
        let s = pcg_jacobi_solve(&a, &[0.0; 8], &[0.0; 8], &CgConfig::default());
        assert_eq!(s.iterations, 0);
        assert!(s.converged);
    }
}
