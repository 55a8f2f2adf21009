//! Per-worker reusable job memory: the [`JobWorkspace`].
//!
//! The campaign pool gives every worker thread one `JobWorkspace` for
//! the lifetime of the job stream (see
//! [`run_indices_ctx`](crate::pool::run_indices_ctx)). Each repetition
//! draws its solver machine, corruptible matrix image, checkpoint slot
//! and ABFT shadows from the workspace instead of allocating them —
//! across a campaign of thousands of repetitions this removes the
//! dominant per-job heap traffic (most prominently the full-matrix
//! clone every repetition used to pay).
//!
//! What a worker retains follows the *largest* matrix it has solved,
//! not the number of distinct ones: one matrix image (the live one;
//! checkpoints hold vectors only) plus O(n) vectors, every
//! buffer shared by all job shapes at its high-water capacity (see
//! "Retention and scope" in [`ftcg_solvers::workspace`]). A campaign's
//! memory is therefore its matrices plus `threads ×` that.
//!
//! Reuse is *observable only through throughput*: workspace checkout
//! resets every buffer bit-identically to fresh allocation, so
//! campaign artifacts are byte-identical whichever worker (and
//! therefore whichever warm workspace) a job lands on. The engine's
//! determinism tests pin this.

use ftcg_solvers::SolverWorkspace;
use ftcg_telemetry::ActiveRecorder;

/// Reusable per-worker memory for the campaign job stream (see the
/// module docs). One per worker thread; never shared.
#[derive(Debug, Default)]
pub struct JobWorkspace {
    solver: SolverWorkspace,
    recorder: Option<ActiveRecorder>,
    worker: u64,
}

impl JobWorkspace {
    /// An empty workspace stamped with the owning worker's ordinal
    /// (used only to label metrics-sidecar span records).
    pub(crate) fn for_worker(worker: u64) -> Self {
        JobWorkspace {
            worker,
            ..Self::default()
        }
    }

    /// The owning worker's ordinal (0 for single-context use).
    pub(crate) fn worker(&self) -> u64 {
        self.worker
    }

    /// The solver-side arena to pass to
    /// [`ftcg_solvers::resilient::solve_resilient_in`].
    pub(crate) fn solver_workspace(&mut self) -> &mut SolverWorkspace {
        &mut self.solver
    }

    /// The worker's telemetry recorder, created (with its fixed-size
    /// event ring and histograms) on first use and retained for the
    /// rest of the job stream. Instrumented campaigns `reset` it per
    /// job; uninstrumented ones never pay for it.
    pub(crate) fn recorder(&mut self) -> &mut ActiveRecorder {
        self.recorder.get_or_insert_with(ActiveRecorder::new)
    }

    /// Both arenas at once — the shape
    /// [`solve_resilient_recorded`](ftcg_solvers::resilient::solve_resilient_recorded)
    /// wants (split borrows of one workspace).
    pub(crate) fn solver_and_recorder(&mut self) -> (&mut SolverWorkspace, &mut ActiveRecorder) {
        (
            &mut self.solver,
            self.recorder.get_or_insert_with(ActiveRecorder::new),
        )
    }
}
