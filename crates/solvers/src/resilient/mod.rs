//! Resilient solves: one scheme-generic executor over steppable solver
//! state machines.
//!
//! The paper's protocol (Section 4) is solver-agnostic: work proceeds
//! in *chunks* ending with a verification; after `s` verified chunks a
//! checkpoint is taken — so a checkpoint is only ever taken right after
//! a passing verification and **the last checkpoint is always valid**
//! (claim C1). On detection the executor restores the last checkpoint
//! (or the initial state) and re-executes; ABFT-CORRECTION additionally
//! repairs single errors in place and only rolls back when correction
//! fails.
//!
//! The implementation mirrors that factoring:
//!
//! * [`executor`] — the one protocol loop, generic over both axes:
//!   which solver iterates and how iterations are verified;
//! * [`scheme`] — the [`VerificationScheme`] trait with the paper's
//!   three instantiations ([`AbftDetection`], [`AbftCorrection`],
//!   [`OnlineDetection`]);
//! * the solver axis is any [`IterativeSolver`](crate::machine)
//!   state machine — CG, PCG, BiCGStab and CGNE all compose with every
//!   scheme × checkpoint policy ([`ResilientConfig::solver`] picks
//!   one).
//!
//! Every forward product is the one defensive CSR traversal
//! ([`CsrMatrix::spmv_clamped_probe_ordered_into`]) over the live image:
//! the CSR arrays are what the faults hit, so no other format could be
//! read without first being re-derived from them.
//!
//! Time is accounted in units of `Titer ≡ 1` (the paper's
//! normalization) through `SimTime`: under the ABFT schemes each
//! executed iteration costs `1 + n·Tverif` where `n` is the number of
//! checksum-verified products it actually ran (1 for CG/PCG/CGNE, up
//! to 2 for BiCGStab); ONLINE-DETECTION pays `Tverif` only at chunk
//! ends. Checkpoints cost `Tcp`, rollbacks `Trec`.

pub mod executor;
pub mod scheme;

use ftcg_checkpoint::ResilienceCosts;
use ftcg_fault::ledger::FaultLedger;
use ftcg_fault::Injector;
use ftcg_model::{CostProfile, Scheme};
use ftcg_sparse::{vector, CsrMatrix};
use ftcg_telemetry::{NoopRecorder, Recorder};

pub use scheme::{AbftCorrection, AbftDetection, OnlineDetection, VerificationScheme};

use crate::machine::SolverKind;
use crate::stopping::StoppingCriterion;
use crate::verify::OnlineTolerances;
use crate::workspace::SolverWorkspace;

/// A rejected resilient configuration (the typed form surfaced by the
/// CLI and the campaign engine instead of a silent clamp).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilientConfigError {
    /// `s = 0`: a frame must contain at least one verified chunk.
    ZeroCheckpointInterval,
    /// `d = 0`: a chunk must contain at least one iteration.
    ZeroVerifInterval,
}

impl std::fmt::Display for ResilientConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResilientConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint interval s must be >= 1 (got 0)")
            }
            ResilientConfigError::ZeroVerifInterval => {
                write!(f, "verification interval d must be >= 1 (got 0)")
            }
        }
    }
}

impl std::error::Error for ResilientConfigError {}

/// Configuration of a resilient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientConfig {
    /// Which scheme drives verification/recovery.
    pub scheme: Scheme,
    /// Which solver iterates under the protocol.
    pub solver: SolverKind,
    /// Chunks per frame (`s`): checkpoint every `s` verified chunks.
    pub checkpoint_interval: usize,
    /// Iterations per chunk (`d`): ONLINE-DETECTION verifies every `d`
    /// iterations; the ABFT schemes verify every iteration and ignore
    /// this field.
    pub verif_interval: usize,
    /// Cost parameters for simulated-time accounting.
    pub costs: ResilienceCosts,
    /// Convergence criterion.
    pub stopping: StoppingCriterion,
    /// Cap on *productive* iterations (the solver's iteration count).
    pub max_productive_iters: usize,
    /// Cap on total executed iterations including re-execution (runaway
    /// guard at extreme fault rates).
    pub max_executed_iters: usize,
    /// Thresholds for the stability tests (ONLINE-DETECTION only).
    pub online_tol: OnlineTolerances,
}

impl ResilientConfig {
    /// A reasonable configuration for the given scheme with interval
    /// `s`, solving with CG under the scheme's
    /// [`CostProfile::DEFAULT`] costs.
    ///
    /// # Panics
    /// Panics if `checkpoint_interval == 0` — use
    /// [`ResilientConfig::try_new`] to get the typed error instead.
    pub fn new(scheme: Scheme, checkpoint_interval: usize) -> Self {
        Self::try_new(scheme, checkpoint_interval)
            .expect("checkpoint interval must be >= 1 (see ResilientConfig::try_new)")
    }

    /// Like [`ResilientConfig::new`] but rejects a zero interval with a
    /// typed error instead of panicking (historically the zero was
    /// silently clamped to 1, masking bad specs).
    pub fn try_new(
        scheme: Scheme,
        checkpoint_interval: usize,
    ) -> Result<Self, ResilientConfigError> {
        if checkpoint_interval == 0 {
            return Err(ResilientConfigError::ZeroCheckpointInterval);
        }
        Ok(Self {
            scheme,
            solver: SolverKind::Cg,
            checkpoint_interval,
            verif_interval: 1,
            costs: CostProfile::DEFAULT.for_scheme(scheme),
            stopping: StoppingCriterion::default_relative(),
            max_productive_iters: 10_000,
            max_executed_iters: 200_000,
            online_tol: OnlineTolerances::default(),
        })
    }

    /// The model-optimal configuration of `scheme` at `alpha` expected
    /// faults per iteration: intervals `(s, d)` from the one planner,
    /// [`ftcg_model::plan`], with `costs` both planned and accounted.
    pub fn model_optimal(scheme: Scheme, alpha: f64, costs: ResilienceCosts) -> Self {
        let (s, d) = ftcg_model::plan(scheme, alpha, &costs);
        let mut cfg = Self::new(scheme, s);
        cfg.verif_interval = d;
        cfg.costs = costs;
        cfg
    }

    /// Checks the interval invariants, returning the typed error a
    /// front end can surface (`solve_resilient` enforces the same
    /// invariants with a panic).
    pub fn validate(&self) -> Result<(), ResilientConfigError> {
        if self.checkpoint_interval == 0 {
            return Err(ResilientConfigError::ZeroCheckpointInterval);
        }
        if self.verif_interval == 0 {
            return Err(ResilientConfigError::ZeroVerifInterval);
        }
        Ok(())
    }
}

/// Statistics and results of a resilient solve.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Whether the stopping criterion was met.
    pub converged: bool,
    /// Iteration count of the final state (rollbacks rewind it).
    pub productive_iterations: usize,
    /// Total iterations executed, including re-executed work.
    pub executed_iterations: usize,
    /// Simulated time in `Titer` units: iterations + verifications +
    /// checkpoints + recoveries.
    pub simulated_time: f64,
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// Rollbacks performed.
    pub rollbacks: usize,
    /// Single errors repaired forward by ABFT.
    pub forward_corrections: usize,
    /// Vector-replica faults outvoted by TMR.
    pub tmr_corrections: usize,
    /// Verification failures (each triggers a rollback).
    pub detections: usize,
    /// Checksum product verifications run (the ABFT schemes check every
    /// forward product; BiCGStab runs two per full iteration, so its
    /// `Tverif` bill is `tverif × product_checks`, not `tverif ×
    /// executed`). Zero under ONLINE-DETECTION, whose products run
    /// unverified.
    pub product_checks: usize,
    /// Chunk-boundary verifications run (one per chunk end reached —
    /// priced at [`VerificationScheme::chunk_cost`] each, which is zero
    /// for the ABFT schemes and `tverif` for ONLINE-DETECTION).
    pub chunk_checks: usize,
    /// Ground-truth fault ledger.
    pub ledger: FaultLedger,
    /// True final residual `‖b − A·x‖₂` computed against the *pristine*
    /// input matrix (reporting only; the solver never sees it).
    pub true_residual: f64,
}

/// Simulated-time ledger.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimTime {
    pub total: f64,
}

impl SimTime {
    pub fn add(&mut self, t: f64) {
        self.total += t;
    }
}

/// Mutable run counters shared by the executor and its contexts.
#[derive(Debug, Default)]
pub(crate) struct RunStats {
    pub executed: usize,
    pub checkpoints: usize,
    pub rollbacks: usize,
    pub forward_corrections: usize,
    pub tmr_corrections: usize,
    pub detections: usize,
    pub product_checks: usize,
    pub chunk_checks: usize,
}

/// Solves `Ax = b` (zero initial guess) under the configured resilience
/// scheme and solver, optionally with fault injection. Without an
/// injector the run is fault-free (useful to measure pure overheads).
///
/// Allocates a fresh [`SolverWorkspace`] per call; repetition loops
/// should hold one workspace and call [`solve_resilient_in`] instead —
/// same results bit for bit, no per-repetition heap traffic.
pub fn solve_resilient(
    a: &CsrMatrix,
    b: &[f64],
    cfg: &ResilientConfig,
    injector: Option<&mut Injector>,
) -> ResilientOutcome {
    let mut ws = SolverWorkspace::new();
    solve_resilient_in(a, b, cfg, injector, &mut ws)
}

/// [`solve_resilient`] drawing every solve-scoped buffer — the solver
/// machine, the corruptible matrix image, the checkpoint slot, the TMR
/// shadows — from a caller-retained [`SolverWorkspace`]. Reusing one
/// workspace across repetitions produces bit-identical
/// [`ResilientOutcome`]s to fresh-allocation solves (the workspace
/// reuse contract; see [`crate::workspace`]) while keeping the hot
/// path off the allocator entirely.
pub fn solve_resilient_in(
    a: &CsrMatrix,
    b: &[f64],
    cfg: &ResilientConfig,
    injector: Option<&mut Injector>,
    ws: &mut SolverWorkspace,
) -> ResilientOutcome {
    solve_resilient_recorded(a, b, cfg, injector, ws, &mut NoopRecorder)
}

/// [`solve_resilient_in`] with a telemetry [`Recorder`] observing the
/// executor's phases and protocol events.
///
/// The recorder is strictly an observer: it never influences control
/// flow, so the returned [`ResilientOutcome`] is bit-identical to an
/// un-instrumented solve. The executor is generic over the recorder
/// type — passing [`NoopRecorder`] monomorphizes every telemetry call
/// to nothing (which is exactly what [`solve_resilient_in`] does), and
/// an [`ActiveRecorder`](ftcg_telemetry::ActiveRecorder) records
/// without allocating (see the `Recorder` contract in
/// [`ftcg_telemetry::recorder`]).
pub fn solve_resilient_recorded<R: Recorder>(
    a: &CsrMatrix,
    b: &[f64],
    cfg: &ResilientConfig,
    injector: Option<&mut Injector>,
    ws: &mut SolverWorkspace,
    rec: &mut R,
) -> ResilientOutcome {
    assert!(a.is_square(), "resilient solve: matrix must be square");
    assert_eq!(b.len(), a.n_rows(), "resilient solve: b length mismatch");
    if let Err(e) = cfg.validate() {
        panic!("resilient solve: {e}");
    }
    let (solver, image, arena, order) = ws.checkout(cfg.solver, a, b);
    match cfg.scheme {
        Scheme::OnlineDetection => executor::run_executor(
            a,
            b,
            cfg,
            injector,
            OnlineDetection::new(a),
            solver,
            image,
            arena,
            order,
            rec,
        ),
        Scheme::AbftDetection => executor::run_executor(
            a,
            b,
            cfg,
            injector,
            AbftDetection::new(a),
            solver,
            image,
            arena,
            order,
            rec,
        ),
        Scheme::AbftCorrection => executor::run_executor(
            a,
            b,
            cfg,
            injector,
            AbftCorrection::new(a),
            solver,
            image,
            arena,
            order,
            rec,
        ),
    }
}

/// Tracks whether the latest checkpoint can still be trusted.
///
/// A verification can pass while the state carries a *sub-tolerance*
/// corruption (the price of the rigorous no-false-positive bound); that
/// corruption is then checkpointed and may cross the detection threshold
/// many iterations later as the Krylov directions rotate. Rolling back
/// to the tainted checkpoint then re-detects forever. The tell-tale is a
/// detection with **zero faults injected since the last restore** —
/// replay is deterministic, so the failure must come from the restored
/// state itself — in which case the executor escalates to the paper's
/// first-frame recovery: "we recover by reading initial data again".
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EscalationGuard {
    /// Faults injected since the last restore (since the start of the
    /// solve before the first one); a checkpoint does not reset it.
    pub faults_since_restore: usize,
    /// Consecutive rollbacks without a new checkpoint (hard safety cap).
    pub consecutive_rollbacks: usize,
}

impl EscalationGuard {
    /// Hard cap on consecutive rollbacks before forcing a restart even
    /// when new faults kept arriving (extremely high rates).
    const MAX_CONSECUTIVE: usize = 25;

    /// `true` when the next rollback should restart from the input data.
    pub fn must_escalate(&self) -> bool {
        self.faults_since_restore == 0 || self.consecutive_rollbacks >= Self::MAX_CONSECUTIVE
    }

    /// Note an iteration's injected fault count.
    pub fn note_faults(&mut self, n: usize) {
        self.faults_since_restore += n;
    }

    /// Note that a fresh checkpoint was taken (verified progress).
    pub fn note_checkpoint(&mut self) {
        self.consecutive_rollbacks = 0;
    }

    /// Note a restore; returns ready-to-count state for the replay.
    pub fn note_restore(&mut self) {
        self.faults_since_restore = 0;
        self.consecutive_rollbacks += 1;
    }
}

/// Computes the true residual norm against the pristine matrix.
pub(crate) fn true_residual(a0: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = b.to_vec();
    let ax = a0.spmv(x);
    vector::sub_assign(&mut r, &ax);
    vector::norm2(&r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_rejects_zero_interval() {
        let e = ResilientConfig::try_new(Scheme::AbftCorrection, 0);
        assert_eq!(e, Err(ResilientConfigError::ZeroCheckpointInterval));
        assert!(e.unwrap_err().to_string().contains(">= 1"));
        assert!(ResilientConfig::try_new(Scheme::AbftCorrection, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "checkpoint interval must be >= 1")]
    fn new_panics_on_zero_interval() {
        let _ = ResilientConfig::new(Scheme::AbftDetection, 0);
    }

    #[test]
    fn validate_rejects_zero_intervals() {
        let mut cfg = ResilientConfig::new(Scheme::OnlineDetection, 5);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.verif_interval = 0;
        assert_eq!(cfg.validate(), Err(ResilientConfigError::ZeroVerifInterval));
        cfg.verif_interval = 1;
        cfg.checkpoint_interval = 0;
        assert_eq!(
            cfg.validate(),
            Err(ResilientConfigError::ZeroCheckpointInterval)
        );
    }

    #[test]
    fn default_solver_is_cg() {
        let cfg = ResilientConfig::new(Scheme::AbftCorrection, 10);
        assert_eq!(cfg.solver, SolverKind::Cg);
    }
}
