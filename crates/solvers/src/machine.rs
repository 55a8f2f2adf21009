//! Steppable solver state machines.
//!
//! Every iterative solver in this crate is implemented twice over the
//! same core: a *state machine* ([`IterativeSolver`]) that advances one
//! iteration per [`IterativeSolver::step`] call, and a thin `*_solve`
//! wrapper that drives the machine in a loop. The
//! wrappers execute exactly the floating-point operations (in exactly
//! the order) of the historical monolithic loops — bit for bit — while
//! the machine form is what the
//! [resilient executor](crate::resilient) composes with verification,
//! checkpointing and rollback.
//!
//! The machine surface is deliberately small:
//!
//! * [`IterativeSolver::step`] runs one iteration, routing every sparse
//!   product through a caller-supplied [`StepContext`] (the plain CSR
//!   product for the wrappers, a defensive + checksum-verified product
//!   for the resilient executor);
//! * [`IterativeSolver::vector`] / [`vector_mut`](IterativeSolver::vector_mut)
//!   expose the four *canonical* vectors ([`CanonVec`]) every solver
//!   shares — the fault-injection and verification surface;
//! * [`IterativeSolver::snapshot`] / [`restore`](IterativeSolver::restore)
//!   round-trip through [`ftcg_checkpoint::SolverState`]: the snapshot
//!   stores only the canonical vectors, and `restore` recomputes any
//!   solver-private recurrence state (PCG's `z`/`rz`) from them
//!   deterministically, so resuming at a chunk boundary reproduces the
//!   uninterrupted trajectory bit for bit.

use ftcg_checkpoint::SolverState;
use ftcg_sparse::CsrMatrix;

use crate::verify::{OnlineTolerances, OnlineVerdict};

/// The canonical vectors every solver exposes — the paper's fault model
/// strikes these (plus the matrix arrays), whatever the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanonVec {
    /// The search direction `p` (input of the verified product).
    Direction,
    /// The last verified product output `q = A·p`.
    Product,
    /// The recursive residual `r`.
    Residual,
    /// The iterate `x`.
    Iterate,
}

/// What one [`IterativeSolver::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// One productive iteration completed.
    Done,
    /// Numerical breakdown: the recurrence cannot continue (non-SPD
    /// pivot, zero denominator, non-finite scalar).
    Breakdown,
    /// A [`StepContext::product`] was rejected by verification; the
    /// state is mid-iteration garbage and must be rolled back.
    Rejected,
}

/// Verdict a [`StepContext`] returns for one product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductStatus {
    /// The output may be used.
    Trusted,
    /// Verification rejected the output; abort the step.
    Rejected,
}

impl ProductStatus {
    /// `true` for [`ProductStatus::Rejected`].
    pub(crate) fn rejected(&self) -> bool {
        matches!(self, ProductStatus::Rejected)
    }
}

/// The product oracle a step routes its sparse product through.
///
/// Wrappers use [`PlainContext`] (the plain CSR product, never
/// rejecting);
/// the resilient executor substitutes a defensive, checksum-verified
/// product over the live (corruptible) matrix image.
pub trait StepContext {
    /// Forward product `y ← A·x`. `x` is mutable because ABFT forward
    /// *correction* may repair a corrupted input in place.
    fn product(&mut self, x: &mut [f64], y: &mut [f64]) -> ProductStatus;
}

/// The wrappers' [`StepContext`]: the serial CSR product of `a`. Never
/// rejects.
pub struct PlainContext<'a> {
    /// The matrix every product reads.
    pub a: &'a CsrMatrix,
}

impl StepContext for PlainContext<'_> {
    fn product(&mut self, x: &mut [f64], y: &mut [f64]) -> ProductStatus {
        self.a.spmv_into(x, y);
        ProductStatus::Trusted
    }
}

/// A solver expressed as a steppable state machine (see the module
/// docs). Object-safe: the resilient executor holds `Box<dyn
/// IterativeSolver>` chosen at runtime from a [`SolverKind`].
pub trait IterativeSolver {
    /// Canonical short name (`cg`, `pcg`).
    fn name(&self) -> &'static str;

    /// Problem size `n`.
    fn n(&self) -> usize;

    /// The recursive residual norm driving the stopping test — exactly
    /// the quantity the historical loop compared against the threshold.
    fn residual_norm(&self) -> f64;

    /// Advances one iteration. Its one sparse product, `q ← A·p`, is
    /// the first thing it does, routed through `ctx`.
    fn step(&mut self, ctx: &mut dyn StepContext) -> StepResult;

    /// Read access to a canonical vector.
    fn vector(&self, which: CanonVec) -> &[f64];

    /// Write access to a canonical vector (the fault-injection
    /// surface).
    fn vector_mut(&mut self, which: CanonVec) -> &mut [f64];

    /// Captures the canonical state at a verified chunk boundary
    /// (allocating convenience over
    /// [`IterativeSolver::snapshot_into`]).
    fn snapshot(&self, iteration: usize) -> SolverState {
        let mut st = SolverState::empty();
        self.snapshot_into(iteration, &mut st);
        st
    }

    /// Captures the canonical state *into a retained buffer* — contents
    /// bit-identical to [`IterativeSolver::snapshot`], but pure
    /// `copy_from_slice` into `into`'s existing allocations (zero heap
    /// traffic once the buffer has seen this problem size). Vectors
    /// only: `into`'s matrix is left alone — the matrix of a checkpoint
    /// is the caller's reliable input, which `restore` is handed. The
    /// resilient executor checkpoints through this into a
    /// [`ftcg_checkpoint::SnapshotSlot`].
    fn snapshot_into(&self, iteration: usize, into: &mut SolverState);

    /// Re-initializes the machine for a fresh zero-start solve over
    /// `(a0, b)`, reusing its retained buffers: afterwards every state
    /// field is bit-identical to a machine freshly built by
    /// [`SolverKind::start_zero`], so one instance reused across
    /// Monte-Carlo repetitions reproduces the fresh-allocation
    /// trajectories exactly. [`SolverWorkspace`](crate::SolverWorkspace)
    /// calls this when it checks a retained machine out for the next
    /// repetition.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the machine's `n` (workspaces
    /// key machines by problem size, so a mismatch is a caller bug).
    fn reset_zero(&mut self, a0: &CsrMatrix, b: &[f64]);

    /// Restores a snapshot, recomputing solver-private recurrence state
    /// from the canonical vectors and the restored matrix `a`
    /// (bit-identical at chunk boundaries; see the module docs).
    fn restore(&mut self, st: &SolverState, a: &CsrMatrix);

    /// The ONLINE-DETECTION stability verification: Chen's two tests
    /// (A-conjugacy of successive directions + recomputed residual),
    /// which hold for CG and PCG alike.
    fn verify_state(&self, a: &CsrMatrix, norm1_a: f64, tol: &OnlineTolerances) -> OnlineVerdict;
}

/// Runtime identity of a solver — the campaign axis next to scheme and
/// α. Parsed from CLI flags and campaign specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Conjugate gradients (Algorithm 1 of the paper).
    #[default]
    Cg,
    /// Jacobi-preconditioned CG.
    Pcg,
}

/// Why the two solvers without a paper behind them are gone, phrased to
/// follow "was removed in" ([`SolverKind::parse`] puts the name in
/// front).
pub const SOLVERS_REMOVED: &str = "the two-solver change: only cg (the paper's Algorithm 1) \
     and pcg (its preconditioned follow-up) run under the protocol";

impl SolverKind {
    /// All solvers, in presentation order.
    pub const ALL: [SolverKind; 2] = [SolverKind::Cg, SolverKind::Pcg];

    /// Canonical label; [`SolverKind::parse`] of the label returns the
    /// same kind.
    pub fn label(&self) -> &'static str {
        match self {
            SolverKind::Cg => "cg",
            SolverKind::Pcg => "pcg",
        }
    }

    /// Parses a solver name (`cg`, `pcg` | `pcg-jacobi`). A removed
    /// solver's name fails with [`SOLVERS_REMOVED`].
    pub fn parse(s: &str) -> Result<SolverKind, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "cg" => Ok(SolverKind::Cg),
            "pcg" | "pcg-jacobi" => Ok(SolverKind::Pcg),
            removed @ ("bicgstab" | "cgne") => {
                Err(format!("`{removed}` was removed in {SOLVERS_REMOVED}"))
            }
            other => Err(format!("unknown solver `{other}` (cg | pcg)")),
        }
    }

    /// Builds the machine for a resilient solve: `x₀ = 0`, `r₀ = b`
    /// taken verbatim (the historical drivers' initialization — no
    /// initial product). Preconditioner/checksum-style setup reads the
    /// *pristine* matrix `a0` (the paper's reliable setup phase).
    pub fn start_zero(&self, a0: &CsrMatrix, b: &[f64]) -> Box<dyn IterativeSolver> {
        match self {
            SolverKind::Cg => Box::new(crate::cg::CgMachine::start_zero(b)),
            SolverKind::Pcg => Box::new(crate::pcg::PcgMachine::start_zero(a0, b)),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_label_roundtrip() {
        for kind in SolverKind::ALL {
            assert_eq!(SolverKind::parse(kind.label()).unwrap(), kind);
        }
        assert_eq!(SolverKind::parse("PCG-Jacobi").unwrap(), SolverKind::Pcg);
        assert!(SolverKind::parse("gmres").is_err());
        assert!(SolverKind::parse("").is_err());
    }

    #[test]
    fn removed_solvers_point_at_the_two_solver_change() {
        for name in ["bicgstab", "cgne", " BiCGStab "] {
            let e = SolverKind::parse(name).unwrap_err();
            let want = name.trim().to_ascii_lowercase();
            assert_eq!(e, format!("`{want}` was removed in {SOLVERS_REMOVED}"));
        }
    }

    #[test]
    fn default_is_cg() {
        assert_eq!(SolverKind::default(), SolverKind::Cg);
        assert_eq!(SolverKind::default().label(), "cg");
    }

    #[test]
    fn start_zero_builds_every_machine() {
        let a = ftcg_sparse::gen::tridiagonal(10, 4.0, -1.0).unwrap();
        let b = vec![1.0; 10];
        for kind in SolverKind::ALL {
            let m = kind.start_zero(&a, &b);
            assert_eq!(m.n(), 10);
            assert_eq!(m.name(), kind.label());
            assert!(m.residual_norm() > 0.0);
            assert_eq!(m.vector(CanonVec::Iterate), &[0.0; 10]);
            assert_eq!(m.vector(CanonVec::Residual), &b[..]);
        }
    }
}
