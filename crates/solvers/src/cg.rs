//! The Conjugate Gradient method (Algorithm 1 of the paper).
//!
//! The algorithm lives in the steppable [`CgMachine`] (see
//! [`crate::machine`]); [`cg_solve`] is a thin wrapper driving the
//! machine with the serial CSR product — it computes exactly the sums
//! the historical inlined loop computed, bit for bit. The machine's
//! ONLINE-DETECTION check, Chen's stability tests on its own vectors
//! (`CgMachine::verify_state`), lives beside the tests' thresholds in
//! `crate::verify`.

use ftcg_checkpoint::SolverState;
use ftcg_sparse::{fused, vector, CsrMatrix};

use crate::machine::{PlainContext, StepContext, StepResult};
use crate::stopping::StoppingCriterion;

/// Configuration of the plain solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Convergence criterion.
    pub stopping: StoppingCriterion,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for CgConfig {
    fn default() -> Self {
        Self {
            stopping: StoppingCriterion::default_relative(),
            max_iters: 10_000,
        }
    }
}

/// Outcome of a plain solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the stopping criterion was met.
    pub converged: bool,
    /// Final recursive residual norm `‖r‖₂`.
    pub residual_norm: f64,
}

/// The CG recurrence as a steppable state machine (see
/// [`crate::machine`]).
///
/// Its four vectors — the iterate `x`, the recursive residual `r`, the
/// search direction `p` (input of the step's product) and the product
/// `q = A·p` — are what the paper's fault model strikes besides the
/// matrix arrays; the resilient executor flips their bits in place.
/// [`CgMachine::snapshot_into`] / [`restore`](CgMachine::restore)
/// round-trip `x`, `r`, `p` and `‖r‖₂²` through
/// [`SolverState`], so resuming at a chunk boundary reproduces the
/// uninterrupted trajectory bit for bit.
#[derive(Debug, Clone, Default)]
pub struct CgMachine {
    pub(crate) b: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) r: Vec<f64>,
    pub(crate) p: Vec<f64>,
    pub(crate) q: Vec<f64>,
    rnorm_sq: f64,
}

impl CgMachine {
    /// Starts from an arbitrary `x0`, computing `r₀ = b − A·x₀` through
    /// `ctx` (the wrapper's path — today's exact FP operations).
    pub(crate) fn start(b: &[f64], x0: &[f64], ctx: &mut dyn StepContext) -> Self {
        let n = b.len();
        let mut x = x0.to_vec();
        // r0 = b − A x0
        let mut r = b.to_vec();
        let mut ax = vec![0.0; n];
        ctx.product(&mut x, &mut ax);
        vector::sub_assign(&mut r, &ax);
        let p = r.clone();
        let rnorm_sq = vector::norm2_sq(&r);
        CgMachine {
            b: b.to_vec(),
            x,
            r,
            p,
            q: vec![0.0; n],
            rnorm_sq,
        }
    }

    /// Starts from `x₀ = 0` with `r₀ = b` taken verbatim (the resilient
    /// drivers' historical initialization — no initial product).
    pub fn start_zero(b: &[f64]) -> Self {
        let mut m = CgMachine::default();
        m.reset_zero(b);
        m
    }

    /// Re-initializes the machine for a fresh zero-start solve of
    /// `b`, resized in place to `b.len()`: afterwards every field is
    /// bit-identical to [`CgMachine::start_zero`]'s, and a machine that
    /// has held a system at least this large allocates nothing.
    /// [`SolverWorkspace`](crate::SolverWorkspace) calls this at every
    /// reset, the first step of a resilient solve.
    pub(crate) fn reset_zero(&mut self, b: &[f64]) {
        for v in [&mut self.b, &mut self.r, &mut self.p] {
            v.clear();
            v.extend_from_slice(b);
        }
        for v in [&mut self.x, &mut self.q] {
            v.clear();
            v.resize(b.len(), 0.0);
        }
        self.rnorm_sq = vector::norm2_sq(b);
    }

    /// The iterate, residual, direction and product vectors
    /// `[x, r, p, q]`.
    pub fn vectors(&self) -> [&[f64]; 4] {
        [&self.x, &self.r, &self.p, &self.q]
    }

    /// The recursive residual norm driving the stopping test — exactly
    /// the quantity the historical loop compared against the threshold.
    pub fn residual_norm(&self) -> f64 {
        self.rnorm_sq.sqrt()
    }

    /// Advances one iteration. Its one sparse product, `q ← A·p`, is
    /// the first thing it does, routed through `ctx`.
    pub fn step(&mut self, ctx: &mut dyn StepContext) -> StepResult {
        let n = self.x.len();
        if ctx.product(&mut self.p, &mut self.q).rejected() {
            return StepResult::Rejected;
        }
        let pq = vector::dot(&self.p, &self.q);
        if pq <= 0.0 || !pq.is_finite() {
            // Breakdown: A not SPD (or severe ill-conditioning).
            return StepResult::Breakdown;
        }
        let alpha = self.rnorm_sq / pq;
        // x ← x + α p, r ← r − α q and ‖r‖₂² in one sweep — the fused
        // op reads each r[i] after its update, so the three results are
        // bit-identical to the separate axpy/axpy/norm2_sq calls.
        let new_rnorm_sq =
            fused::axpy2_norm2_sq(alpha, &self.p, &mut self.x, -alpha, &self.q, &mut self.r);
        let beta = new_rnorm_sq / self.rnorm_sq;
        self.rnorm_sq = new_rnorm_sq;
        // p ← r + β p
        for i in 0..n {
            self.p[i] = self.r[i] + beta * self.p[i];
        }
        StepResult::Done
    }

    /// Captures `x`, `r`, `p` and `‖r‖₂²` at a verified chunk boundary
    /// *into a retained buffer*: pure `copy_from_slice` into `into`'s
    /// existing allocations (zero heap traffic once the buffer has seen
    /// this problem size). Vectors only: `into`'s matrix is left alone
    /// — the matrix of a checkpoint is the caller's reliable input. The
    /// resilient executor checkpoints through this into a
    /// [`ftcg_checkpoint::SnapshotSlot`].
    pub fn snapshot_into(&self, iteration: usize, into: &mut SolverState) {
        into.store_vectors(iteration, &self.x, &self.r, &self.p, self.rnorm_sq);
    }

    /// Restores a snapshot taken by [`CgMachine::snapshot_into`]
    /// (bit-identical at chunk boundaries).
    pub fn restore(&mut self, st: &SolverState) {
        self.x.copy_from_slice(&st.x);
        self.r.copy_from_slice(&st.r);
        self.p.copy_from_slice(&st.p);
        self.rnorm_sq = st.rnorm_sq;
    }
}

/// Solves `Ax = b` for SPD `A` by conjugate gradients, starting from
/// `x0`, with the serial CSR product.
///
/// # Panics
/// Panics on dimension mismatches or a non-square matrix.
pub fn cg_solve(a: &CsrMatrix, b: &[f64], x0: &[f64], cfg: &CgConfig) -> SolveStats {
    assert!(a.is_square(), "cg: matrix must be square");
    let n = a.n_rows();
    assert_eq!(b.len(), n, "cg: b length mismatch");
    assert_eq!(x0.len(), n, "cg: x0 length mismatch");

    let mut ctx = PlainContext { a };
    let mut m = CgMachine::start(b, x0, &mut ctx);
    let threshold = cfg
        .stopping
        .threshold(a, vector::norm2(b), m.residual_norm());

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

    fn check_solution(a: &CsrMatrix, b: &[f64], stats: &SolveStats, tol: f64) {
        assert!(stats.converged, "did not converge: {stats:?}");
        let ax = a.spmv(&stats.x);
        let err = vector::max_abs_diff(&ax, b);
        assert!(err < tol, "true residual {err} above {tol}");
    }

    #[test]
    fn solves_identity() {
        let a = CsrMatrix::identity(5).unwrap();
        let b = vec![1.0, -2.0, 3.0, 0.5, 4.0];
        let s = cg_solve(&a, &b, &[0.0; 5], &CgConfig::default());
        assert!(s.iterations <= 2);
        check_solution(&a, &b, &s, 1e-10);
    }

    #[test]
    fn solves_tridiagonal() {
        let a = gen::tridiagonal(50, 4.0, -1.0).unwrap();
        let b = vec![1.0; 50];
        let s = cg_solve(&a, &b, &[0.0; 50], &CgConfig::default());
        check_solution(&a, &b, &s, 1e-6);
    }

    #[test]
    fn solves_poisson2d() {
        let a = gen::poisson2d(12).unwrap();
        let n = a.n_rows();
        let xstar: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.spmv(&xstar);
        let s = cg_solve(&a, &b, &vec![0.0; n], &CgConfig::default());
        assert!(s.converged);
        let err = vector::max_abs_diff(&s.x, &xstar);
        assert!(err < 1e-5, "solution error {err}");
    }

    #[test]
    fn solves_random_spd() {
        let a = gen::random_spd(120, 0.05, 5).unwrap();
        let b: Vec<f64> = (0..120).map(|i| (i as f64 * 0.2).sin()).collect();
        let s = cg_solve(&a, &b, &vec![0.0; 120], &CgConfig::default());
        check_solution(&a, &b, &s, 1e-6);
    }

    #[test]
    fn warm_start_converges_faster() {
        let a = gen::poisson2d(10).unwrap();
        let n = a.n_rows();
        let xstar: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let b = a.spmv(&xstar);
        let cold = cg_solve(&a, &b, &vec![0.0; n], &CgConfig::default());
        // start very close to the solution
        let near: Vec<f64> = xstar.iter().map(|v| v + 1e-6).collect();
        let warm = cg_solve(&a, &b, &near, &CgConfig::default());
        assert!(warm.iterations < cold.iterations);
    }

    #[test]
    fn respects_max_iters() {
        let a = gen::poisson2d(16).unwrap();
        let n = a.n_rows();
        let b = vec![1.0; n];
        let cfg = CgConfig {
            max_iters: 3,
            ..CgConfig::default()
        };
        let s = cg_solve(&a, &b, &vec![0.0; n], &cfg);
        assert_eq!(s.iterations, 3);
        assert!(!s.converged);
    }

    #[test]
    fn paper_stopping_criterion_works() {
        let a = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let b = vec![1.0; 30];
        let cfg = CgConfig {
            stopping: StoppingCriterion::Paper { eps: 1e-12 },
            ..CgConfig::default()
        };
        let s = cg_solve(&a, &b, &[0.0; 30], &cfg);
        assert!(s.converged);
    }

    #[test]
    fn zero_rhs_is_immediate() {
        let a = gen::tridiagonal(10, 4.0, -1.0).unwrap();
        let s = cg_solve(&a, &[0.0; 10], &[0.0; 10], &CgConfig::default());
        assert_eq!(s.iterations, 0);
        assert!(s.converged);
        assert_eq!(s.x, vec![0.0; 10]);
    }

    #[test]
    fn residual_decreases_monotonically_for_cg_energy_norm() {
        // CG's 2-norm residual is not strictly monotone, but final must be
        // far below initial.
        let a = gen::random_spd(80, 0.06, 9).unwrap();
        let b = vec![1.0; 80];
        let s = cg_solve(&a, &b, &vec![0.0; 80], &CgConfig::default());
        assert!(s.residual_norm < 1e-6 * vector::norm2(&b));
    }

    #[test]
    fn non_spd_breaks_down_gracefully() {
        // Indefinite diagonal: CG must stop without panicking.
        let a = gen::diagonal(&[1.0, -1.0, 2.0]).unwrap();
        let s = cg_solve(&a, &[1.0, 1.0, 1.0], &[0.0; 3], &CgConfig::default());
        // Either converged by luck or broke down; both acceptable, no panic.
        assert!(s.iterations <= CgConfig::default().max_iters);
    }
}
