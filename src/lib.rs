#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! # ftcg — fault-tolerant Conjugate Gradient
//!
//! A full reproduction of *Fasi, Robert & Uçar, "Combining backward and
//! forward recovery to cope with silent errors in iterative solvers"*
//! (PDSEC 2015): ABFT-protected sparse matrix–vector products that
//! detect up to two silent errors and correct one **in place** (forward
//! recovery), combined with verified checkpointing (backward recovery),
//! plus the abstract performance model that picks the optimal
//! checkpoint/verification intervals.
//!
//! ## Quick start
//!
//! ```
//! use ftcg::prelude::*;
//!
//! // An SPD system.
//! let a = gen::poisson2d(12).unwrap();
//! let b = vec![1.0; a.n_rows()];
//!
//! // Solve under silent-error injection with forward+backward recovery.
//! let report = ResilientCg::new(&a)
//!     .scheme(Scheme::AbftCorrection)
//!     .fault_alpha(1.0 / 16.0) // expected faults per iteration
//!     .seed(42)
//!     .solve(&b);
//!
//! assert!(report.converged);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | `ftcg-sparse` | CSR/COO, the defensive CSR traversal every protected product runs, MatrixMarket I/O, SPD generators (BCSR/SELL-C-σ and parallel SpMxV only serve the benchmark's format probes) |
//! | `ftcg-fault` | bit-flip injection, exponential/Poisson arrivals, fault ledger |
//! | `ftcg-abft` | single-checksum detection and dual-checksum detect-2/correct-1 SpMxV, TMR-replicated vector state, FP tolerance |
//! | `ftcg-checkpoint` | solver-state snapshots, the double-buffered `SnapshotSlot`, the (`Tcp`, `Trec`, `Tverif`) cost triple |
//! | `ftcg-model` | expected frame time (eq. 5), the one interval planner `plan` (eq. 6) and its two cost profiles |
//! | `ftcg-solvers` | steppable CG and PCG state machines + the resilient executor for the paper's three schemes |
//! | `ftcg-engine` | concurrent campaign engine: declarative sweeps, worker pool, JSONL/CSV sinks |
//! | `ftcg-sim` | Table 1 / Figure 1 experiment harness (engine campaigns) and reports |
//! | `ftcg-telemetry` | zero-overhead recorders, deterministic event traces, phase-timing sidecars, the one report fold, Perfetto export |
//!
//! This package also builds the `ftcg` binary, the command-line front
//! end (`ftcg help`), which keeps `ftcg bench`'s store of `benchmark/`
//! results (`BENCH_*.json` recording and regression gating) to itself.

#![warn(missing_docs)]

pub use ftcg_abft as abft;
pub use ftcg_checkpoint as checkpoint;
pub use ftcg_engine as engine;
pub use ftcg_model as model;
pub use ftcg_sim as sim;
pub use ftcg_solvers as solvers;
pub use ftcg_sparse as sparse;
pub use ftcg_telemetry as telemetry;

use ftcg_engine::inject::paper_injector;
use ftcg_model::{CostProfile, Scheme};
use ftcg_solvers::resilient::{solve_resilient, ResilientConfig, ResilientOutcome};
use ftcg_solvers::SolverKind;
use ftcg_sparse::CsrMatrix;

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::ResilientCg;
    pub use ftcg_engine::{
        run_campaign, CampaignResult, CampaignSpec, ConfigSummary, DefaultResolver,
    };
    pub use ftcg_model::Scheme;
    pub use ftcg_solvers::resilient::{ResilientConfig, ResilientOutcome};
    pub use ftcg_solvers::{cg_solve, CgConfig, SolverKind, StoppingCriterion};
    pub use ftcg_sparse::{gen, io, vector, CooMatrix, CsrMatrix};
}

/// High-level builder for a resilient solve (named for its historical
/// CG default; [`ResilientCg::solver`] swaps in PCG — both solvers
/// compose with every scheme).
///
/// Defaults: CG under ABFT-CORRECTION, no fault injection unless
/// [`ResilientCg::fault_alpha`] is set. Always: model-optimal intervals
/// for the configured fault rate, the scheme's [`CostProfile::DEFAULT`]
/// resilience costs (the campaigns' profile, not the Table 1 / Figure 1
/// harness's [`CostProfile::PAPER_LIKE`]), relative 1e-8 stopping and
/// the [`ResilientConfig`] iteration caps.
#[derive(Debug, Clone)]
pub struct ResilientCg<'a> {
    a: &'a CsrMatrix,
    scheme: Scheme,
    solver: SolverKind,
    alpha: Option<f64>,
    seed: u64,
}

impl<'a> ResilientCg<'a> {
    /// Starts a builder for the given SPD matrix.
    pub fn new(a: &'a CsrMatrix) -> Self {
        Self {
            a,
            scheme: Scheme::AbftCorrection,
            solver: SolverKind::Cg,
            alpha: None,
            seed: 0,
        }
    }

    /// Selects the resilience scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Selects the solver iterating under the protocol: CG (the
    /// default, the paper's Algorithm 1) or Jacobi-preconditioned CG.
    /// The builder keeps its historical name.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Enables fault injection at `alpha` expected faults per iteration.
    pub fn fault_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite());
        self.alpha = Some(alpha);
        self
    }

    /// Seeds the fault injector (deterministic runs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resolves the configuration this builder would run with.
    pub fn config(&self) -> ResilientConfig {
        let costs = CostProfile::DEFAULT.for_scheme(self.scheme);
        let alpha = self.alpha.unwrap_or(0.0);
        let mut cfg = ResilientConfig::model_optimal(self.scheme, alpha, costs);
        cfg.solver = self.solver;
        cfg
    }

    /// Runs the solve.
    pub fn solve(&self, b: &[f64]) -> ResilientOutcome {
        let cfg = self.config();
        match self.alpha {
            Some(alpha) if alpha > 0.0 => {
                let mut inj = paper_injector(self.a, alpha, self.seed);
                solve_resilient(self.a, b, &cfg, Some(&mut inj))
            }
            _ => solve_resilient(self.a, b, &cfg, None),
        }
    }

    /// Runs the solve with a telemetry [`Recorder`] threaded through the
    /// executor's hot path (phase timers, protocol events). The numeric
    /// result is bit-identical to [`solve`](Self::solve) — recording
    /// never influences control flow.
    ///
    /// [`Recorder`]: ftcg_telemetry::Recorder
    pub fn solve_recorded<R: ftcg_telemetry::Recorder>(
        &self,
        b: &[f64],
        rec: &mut R,
    ) -> ResilientOutcome {
        use ftcg_solvers::resilient::solve_resilient_recorded;
        let cfg = self.config();
        let mut ws = ftcg_solvers::SolverWorkspace::new();
        match self.alpha {
            Some(alpha) if alpha > 0.0 => {
                let mut inj = paper_injector(self.a, alpha, self.seed);
                solve_resilient_recorded(self.a, b, &cfg, Some(&mut inj), &mut ws, rec)
            }
            _ => solve_resilient_recorded(self.a, b, &cfg, None, &mut ws, rec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    #[test]
    fn builder_defaults_solve() {
        let a = gen::poisson2d(10).unwrap();
        let b = vec![1.0; 100];
        let out = ResilientCg::new(&a).solve(&b);
        assert!(out.converged);
        assert!(out.ledger.is_empty());
    }

    #[test]
    fn builder_with_faults_converges() {
        let a = gen::random_spd(150, 0.04, 1).unwrap();
        let b = vec![1.0; 150];
        let out = ResilientCg::new(&a)
            .scheme(Scheme::AbftCorrection)
            .fault_alpha(1.0 / 16.0)
            .seed(7)
            .solve(&b);
        assert!(out.converged);
        assert!(out.true_residual < 1e-5);
    }

    #[test]
    fn auto_interval_scales_with_rate() {
        let a = gen::random_spd(100, 0.05, 2).unwrap();
        let low = ResilientCg::new(&a).fault_alpha(1e-4).config();
        let high = ResilientCg::new(&a).fault_alpha(0.2).config();
        assert!(low.checkpoint_interval > high.checkpoint_interval);
    }

    #[test]
    fn online_scheme_picks_d() {
        let a = gen::random_spd(100, 0.05, 3).unwrap();
        let cfg = ResilientCg::new(&a)
            .scheme(Scheme::OnlineDetection)
            .fault_alpha(0.01)
            .config();
        assert!(cfg.verif_interval > 1);
        assert_eq!(
            cfg.costs,
            CostProfile::DEFAULT.for_scheme(Scheme::OnlineDetection)
        );
    }

    #[test]
    fn costs_do_not_depend_on_call_order() {
        let a = gen::random_spd(100, 0.05, 3).unwrap();
        let plain = ResilientCg::new(&a).fault_alpha(1.0 / 16.0);
        // Leaving ONLINE-DETECTION restores the ABFT costs.
        let back = plain
            .clone()
            .scheme(Scheme::OnlineDetection)
            .scheme(Scheme::AbftCorrection);
        assert_eq!(back.config(), plain.config());
    }

    #[test]
    fn builder_solver_axis_solves_under_faults() {
        let a = gen::random_spd(120, 0.05, 8).unwrap();
        let b = vec![1.0; 120];
        for kind in SolverKind::ALL {
            let out = ResilientCg::new(&a)
                .solver(kind)
                .fault_alpha(1.0 / 16.0)
                .seed(3)
                .solve(&b);
            assert!(out.converged, "{kind}");
            assert!(out.true_residual < 1e-5, "{kind}");
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = gen::random_spd(100, 0.05, 5).unwrap();
        let b = vec![1.0; 100];
        let mk = || ResilientCg::new(&a).fault_alpha(0.1).seed(99).solve(&b);
        let o1 = mk();
        let o2 = mk();
        assert_eq!(o1.x, o2.x);
        assert_eq!(o1.simulated_time, o2.simulated_time);
    }
}
