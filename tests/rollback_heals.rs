//! Rollbacks heal the matrix instead of re-arming the fault.
//!
//! A checkpoint's matrix is the caller's pristine input, so a matrix
//! word that slipped under the checksum tolerance (or a forward
//! "corrected" value that is only approximately right) is gone after
//! the first rollback. Were it to survive — frozen into a checkpoint,
//! back on every rollback, tripping the checksum again a few iterations
//! later until an escalation throws the whole solve away — these seeds
//! show 5 escalations and 2418 wasted iterations.
//!
//! The counts repeat bit for bit (seeded injector, deterministic
//! executor).

use ftcg::engine::grid::plan_config;
use ftcg::engine::inject::paper_injector;
use ftcg::engine::IntervalPolicy;
use ftcg::prelude::*;
use ftcg::sim::matrices::by_id;
use ftcg::solvers::resilient::solve_resilient_recorded;
use ftcg::solvers::SolverWorkspace;
use ftcg::telemetry::{Event, EventKind, Recorder};

#[derive(Default)]
struct EscalationCounter(usize);

impl Recorder for EscalationCounter {
    fn event(&mut self, event: Event) {
        if event.kind == EventKind::Escalate {
            self.0 += 1;
        }
    }
}

#[test]
fn storm_escalations_and_wasted_iterations_are_pinned() {
    const ALPHA: f64 = 1.0 / 8.0;
    let spec = by_id(2213).expect("paper matrix #2213");
    let a = spec.generate(32);
    let b = spec.rhs(a.n_rows());
    let mut ws = SolverWorkspace::new();
    let mut escalations = EscalationCounter::default();
    let mut wasted = 0;
    for scheme in Scheme::ALL {
        let cfg = plan_config(scheme, ALPHA, IntervalPolicy::ModelOptimal, 10_000);
        for seed in 1..=8 {
            let mut inj = paper_injector(&a, ALPHA, seed);
            let out =
                solve_resilient_recorded(&a, &b, &cfg, Some(&mut inj), &mut ws, &mut escalations);
            assert!(out.converged, "{} seed {seed}", scheme.name());
            wasted += out.executed_iterations - out.productive_iterations;
        }
    }
    assert_eq!((escalations.0, wasted), (0, 1297));
}
