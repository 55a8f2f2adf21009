//! The workspace's memory bound on the paper's own test set: one worker
//! cycling the nine Table 1 matrices under all three schemes retains
//! no matrix image — the live matrix is the caller's `a0` plus its
//! flips, and checkpoints hold vectors only — and one row visit order
//! of 4 bytes per row of the matrix with the most rows.

use ftcg_model::Scheme;
use ftcg_sim::matrices::PAPER_MATRICES;
use ftcg_solvers::resilient::{solve_resilient_in, ResilientConfig};
use ftcg_solvers::SolverWorkspace;

#[test]
fn nine_matrices_retain_one_high_water_image() {
    let systems: Vec<_> = PAPER_MATRICES
        .iter()
        .map(|spec| {
            let a = spec.generate(16);
            let b = spec.rhs(a.n_rows());
            (a, b)
        })
        .collect();
    let mut ws = SolverWorkspace::new();
    for (a, b) in &systems {
        for scheme in [
            Scheme::OnlineDetection,
            Scheme::AbftDetection,
            Scheme::AbftCorrection,
        ] {
            let mut cfg = ResilientConfig::new(scheme, 4);
            cfg.max_productive_iters = 30; // several checkpoints into the one slot buffer
            let out = solve_resilient_in(a, b, &cfg, None, &mut ws);
            assert!(out.checkpoints >= 2, "{scheme:?}: {}", out.checkpoints);
        }
    }

    // No matrix words: every solve read its matrix as the caller's own
    // `a0` plus its flips, and the checkpoint buffer holds vectors and
    // the empty row pointer (4 B) of a `0 × 0` matrix — whatever the
    // size of the largest matrix.
    let most = |f: fn(&ftcg_sparse::CsrMatrix) -> usize| systems.iter().map(|(a, _)| f(a)).max();
    assert_eq!(ws.retained_image_bytes(), 4);

    // The defensive product's row order: one buffer per worker at 4 B
    // per row of the tallest matrix, nothing per shape class.
    let most_rows = most(|a| a.n_rows()).unwrap();
    assert_eq!(ws.retained_order_bytes(), 4 * most_rows);
}
