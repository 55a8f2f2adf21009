//! The workspace's memory bound on the paper's own test set: one worker
//! cycling the nine Table 1 matrices under all three schemes retains
//! one image of the *largest* matrix — the live one; checkpoints hold
//! vectors only — not a set of images per matrix, and one row visit
//! order of 4 bytes per row of the matrix with the most rows.

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

    // Each array of a buffer sits at the longest it has had to hold, and
    // the longest row pointer and the longest value array belong to
    // different matrices of the set.
    // A row pointer or column index is 4 bytes, a value 8.
    let most = |f: fn(&ftcg_sparse::CsrMatrix) -> usize| systems.iter().map(|(a, _)| f(a)).max();
    let high_water = 4 * most(|a| a.n_rows() + 1).unwrap() + 12 * most(|a| a.nnz()).unwrap();
    let largest = most(|a| a.image_bytes()).unwrap();
    let sum: usize = systems.iter().map(|(a, _)| a.image_bytes()).sum();

    let retained = ws.retained_image_bytes();
    assert!(
        retained >= largest,
        "the largest matrix needs its image: {retained} < {largest}"
    );
    assert!(
        retained <= high_water + 4,
        "retained {retained} B exceeds one high-water image ({high_water} B)"
    );
    assert!(
        retained < sum,
        "retained {retained} B is not below one image of each matrix ({sum} B)"
    );

    // The defensive product's row order: one buffer per worker at 4 B
    // per row of the tallest matrix, nothing per shape class.
    let most_rows = most(|a| a.n_rows()).unwrap();
    assert_eq!(ws.retained_order_bytes(), 4 * most_rows);
}
