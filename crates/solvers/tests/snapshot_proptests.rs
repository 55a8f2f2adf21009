//! Property tests for the CG state machine: a snapshot taken at any
//! iteration boundary, restored into a **fresh** machine, must
//! reproduce the uninterrupted trajectory bit for bit. This is the
//! contract the resilient executor's checkpoint/rollback relies on.
//!
//! Since the workspace-arena refactor the suite also pins the *reuse
//! contract*: solves drawing every buffer from a warm, dirty
//! [`SolverWorkspace`] must produce bit-identical outcomes to
//! fresh-allocation solves, for every scheme and under fault
//! injection.

use ftcg_checkpoint::SolverState;
use ftcg_fault::paper_injector;
use ftcg_model::Scheme;
use ftcg_solvers::machine::{PlainContext, StepResult};
use ftcg_solvers::resilient::{solve_resilient, solve_resilient_in, ResilientConfig};
use ftcg_solvers::{CgMachine, SolverWorkspace};
use ftcg_sparse::{gen, CsrMatrix};
use proptest::prelude::*;

fn system(n: usize, density_mil: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = gen::random_spd(n, density_mil as f64 / 1000.0, seed).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.29).sin()).collect();
    (a, b)
}

/// Runs `total` steps; captures a [`SolverState`] after `cut` of them;
/// resumes a fresh machine from the snapshot and steps the remaining
/// `total − cut`. Both endpoints must agree bit for bit.
fn assert_resume_is_bitexact(a: &CsrMatrix, b: &[f64], cut: usize, total: usize) {
    let mut ctx = PlainContext { a };

    let mut reference = CgMachine::start_zero(b);
    let mut snapshot: Option<SolverState> = None;
    for it in 0..total {
        if it == cut {
            let mut st = SolverState::empty();
            reference.snapshot_into(it, &mut st);
            snapshot = Some(st);
        }
        if reference.step(&mut ctx) != StepResult::Done {
            // Breakdown (e.g. residual hit exact zero): nothing further
            // to compare beyond this point.
            return;
        }
    }
    let snapshot = snapshot.expect("cut < total");

    let mut resumed = CgMachine::start_zero(b);
    resumed.restore(&snapshot);
    for _ in cut..total {
        assert_eq!(resumed.step(&mut ctx), StepResult::Done, "resumed");
    }

    let names = ["x", "r", "p", "q"];
    for ((want, got), name) in reference
        .vectors()
        .into_iter()
        .zip(resumed.vectors())
        .zip(names)
    {
        for i in 0..want.len() {
            assert_eq!(
                want[i].to_bits(),
                got[i].to_bits(),
                "{name}[{i}] diverged after resume at {cut}/{total}"
            );
        }
    }
    assert_eq!(
        reference.residual_norm().to_bits(),
        resumed.residual_norm().to_bits(),
        "residual norm diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Resume mid-solve reproduces the uninterrupted trajectory.
    #[test]
    fn snapshot_restore_step_is_deterministic(
        n in 30usize..90,
        density_mil in 40usize..90,
        seed in 0u64..500,
        cut in 1usize..8,
        extra in 1usize..8,
    ) {
        let (a, b) = system(n, density_mil, seed);
        assert_resume_is_bitexact(&a, &b, cut, cut + extra);
    }

    /// A snapshot round-trips through `SolverState` unchanged: the
    /// canonical vectors stored are exactly the machine's, and nothing
    /// of the matrix is (a checkpoint's matrix is the pristine input).
    #[test]
    fn snapshot_captures_canonical_vectors(
        n in 20usize..60,
        seed in 0u64..200,
        steps in 1usize..6,
    ) {
        let (a, b) = system(n, 60, seed);
        let mut ctx = PlainContext { a: &a };
        let mut m = CgMachine::start_zero(&b);
        for _ in 0..steps {
            if m.step(&mut ctx) != StepResult::Done {
                break;
            }
        }
        let mut st = SolverState::empty();
        m.snapshot_into(steps, &mut st);
        let [x, r, p, _] = m.vectors();
        prop_assert_eq!(st.iteration, steps);
        prop_assert_eq!(st.x.as_slice(), x);
        prop_assert_eq!(st.r.as_slice(), r);
        prop_assert_eq!(st.p.as_slice(), p);
        prop_assert_eq!(st.size_words(), 3 * n + 1 + 2);
    }
}

/// Asserts two resilient outcomes agree bit for bit (solution vector
/// included) and in every counter.
fn assert_outcomes_bitexact(
    label: &str,
    fresh: &ftcg_solvers::ResilientOutcome,
    reused: &ftcg_solvers::ResilientOutcome,
) {
    assert_eq!(fresh.converged, reused.converged, "{label}: converged");
    assert_eq!(
        fresh.productive_iterations, reused.productive_iterations,
        "{label}: productive"
    );
    assert_eq!(
        fresh.executed_iterations, reused.executed_iterations,
        "{label}: executed"
    );
    assert_eq!(
        fresh.simulated_time.to_bits(),
        reused.simulated_time.to_bits(),
        "{label}: simulated time"
    );
    assert_eq!(
        fresh.checkpoints, reused.checkpoints,
        "{label}: checkpoints"
    );
    assert_eq!(fresh.rollbacks, reused.rollbacks, "{label}: rollbacks");
    assert_eq!(
        fresh.forward_corrections, reused.forward_corrections,
        "{label}: forward corrections"
    );
    assert_eq!(
        fresh.tmr_corrections, reused.tmr_corrections,
        "{label}: tmr corrections"
    );
    assert_eq!(fresh.detections, reused.detections, "{label}: detections");
    assert_eq!(
        fresh.true_residual.to_bits(),
        reused.true_residual.to_bits(),
        "{label}: true residual"
    );
    assert_eq!(fresh.x.len(), reused.x.len(), "{label}: x length");
    for i in 0..fresh.x.len() {
        assert_eq!(
            fresh.x[i].to_bits(),
            reused.x[i].to_bits(),
            "{label}: x[{i}] diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Workspace-reuse solves are bit-identical to fresh-allocation
    /// solves for every scheme, under fault injection —
    /// the reuse contract of the zero-allocation pipeline. The shared
    /// workspace is deliberately *dirty*: every combination in the grid
    /// reuses the same one, in sequence, and each outcome must still
    /// match its independently fresh-allocated twin.
    #[test]
    fn workspace_reuse_is_bitexact(
        n in 30usize..70,
        density_mil in 40usize..90,
        seed in 0u64..300,
        s in 2usize..8,
    ) {
        let (a, b) = system(n, density_mil, seed);
        let mut ws = SolverWorkspace::new();
        for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection, Scheme::OnlineDetection] {
            let mut cfg = ResilientConfig::new(scheme, s);
            cfg.max_productive_iters = 40;
            cfg.max_executed_iters = 400;
            let alpha = 1.0 / 16.0;
            let mut inj = paper_injector(&a, alpha, seed ^ 0x5eed);
            let fresh = solve_resilient(&a, &b, &cfg, Some(&mut inj));
            let mut inj = paper_injector(&a, alpha, seed ^ 0x5eed);
            let reused = solve_resilient_in(&a, &b, &cfg, Some(&mut inj), &mut ws);
            assert_outcomes_bitexact(&format!("{scheme:?}"), &fresh, &reused);
        }
        // One workspace served the whole grid: one image of the one
        // shape (the live one) and the empty row pointer (4 B) of the
        // checkpoint buffer.
        prop_assert_eq!(ws.retained_image_bytes(), a.image_bytes() + 4);
    }

    /// One workspace reshaped large → small → large (its image, slot
    /// vectors and shadows shrink and regrow inside their high-water
    /// capacity) stays bit-identical to fresh workspaces, under fault
    /// injection, for every scheme.
    #[test]
    fn reshaped_workspace_is_bitexact(
        n_small in 30usize..50,
        n_large in 60usize..90,
        density_mil in 40usize..90,
        seed in 0u64..300,
        s in 2usize..8,
    ) {
        let large = system(n_large, density_mil, seed);
        let small = system(n_small, density_mil, seed + 1);
        let mut ws = SolverWorkspace::new();
        for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection, Scheme::OnlineDetection] {
            for (step, (a, b)) in [&large, &small, &large].into_iter().enumerate() {
                let mut cfg = ResilientConfig::new(scheme, s);
                cfg.max_productive_iters = 40;
                cfg.max_executed_iters = 400;
                let stream = seed ^ step as u64;
                let mut inj = paper_injector(a, 1.0 / 16.0, stream);
                let fresh = solve_resilient(a, b, &cfg, Some(&mut inj));
                let mut inj = paper_injector(a, 1.0 / 16.0, stream);
                let reused = solve_resilient_in(a, b, &cfg, Some(&mut inj), &mut ws);
                assert_outcomes_bitexact(
                    &format!("{scheme:?} × n {} (step {step})", a.n_rows()),
                    &fresh,
                    &reused,
                );
            }
        }
        // Sized by the large system alone.
        prop_assert_eq!(ws.retained_image_bytes(), large.0.image_bytes() + 4);
    }
}

/// Deterministic spot-check on a structured matrix (fast, not random):
/// resume at several cut points of a longer run.
#[test]
fn poisson_resume_points_are_bitexact() {
    let a = gen::poisson2d(9).unwrap();
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.17).cos()).collect();
    for cut in [1usize, 3, 7] {
        assert_resume_is_bitexact(&a, &b, cut, cut + 5);
    }
}
