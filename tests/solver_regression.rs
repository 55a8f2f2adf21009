//! Bit-identity regression suite for the steppable-solver refactor.
//!
//! CG's historical monolithic loop is kept here verbatim (the
//! pre-refactor implementation) and compared against today's
//! machine-driven `cg_solve` on the paper's Table 1 test set:
//! `SolveStats` must match **bit for bit** — iterations, convergence
//! flag, residual-norm bits and every component of `x`.

use ftcg::prelude::*;
use ftcg::sim::PAPER_MATRICES;
use ftcg::solvers::{CgConfig, SolveStats};
use ftcg::sparse::vector;

// ---------------------------------------------------------------------
// The pre-refactor loop, copied verbatim (asserts elided).
// ---------------------------------------------------------------------

fn legacy_cg(a: &CsrMatrix, b: &[f64], x0: &[f64], cfg: &CgConfig) -> SolveStats {
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut r = b.to_vec();
    let ax = a.spmv(&x);
    vector::sub_assign(&mut r, &ax);
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rnorm_sq = vector::norm2_sq(&r);
    let threshold = cfg.stopping.threshold(a, vector::norm2(b), rnorm_sq.sqrt());
    let mut it = 0usize;
    while rnorm_sq.sqrt() > threshold && it < cfg.max_iters {
        a.spmv_into(&p, &mut q);
        let pq = vector::dot(&p, &q);
        if pq <= 0.0 || !pq.is_finite() {
            break;
        }
        let alpha = rnorm_sq / pq;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &q, &mut r);
        let new_rnorm_sq = vector::norm2_sq(&r);
        let beta = new_rnorm_sq / rnorm_sq;
        rnorm_sq = new_rnorm_sq;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        it += 1;
    }
    SolveStats {
        converged: rnorm_sq.sqrt() <= threshold,
        residual_norm: rnorm_sq.sqrt(),
        iterations: it,
        x,
    }
}

// ---------------------------------------------------------------------
// The comparison harness.
// ---------------------------------------------------------------------

fn assert_bit_identical(name: &str, id: u32, legacy: &SolveStats, current: &SolveStats) {
    assert_eq!(legacy.iterations, current.iterations, "{name} paper:{id}");
    assert_eq!(legacy.converged, current.converged, "{name} paper:{id}");
    assert_eq!(
        legacy.residual_norm.to_bits(),
        current.residual_norm.to_bits(),
        "{name} paper:{id}"
    );
    assert_eq!(legacy.x.len(), current.x.len(), "{name} paper:{id}");
    for (i, (l, c)) in legacy.x.iter().zip(&current.x).enumerate() {
        assert_eq!(
            l.to_bits(),
            c.to_bits(),
            "{name} paper:{id}: x[{i}] differs"
        );
    }
}

/// Table 1 suite at reduced scale, plus warm starts and a tight cap —
/// exercising the convergence, max-iters and warm-start paths of the
/// wrapper against its pre-refactor loop.
#[test]
fn machine_wrappers_match_legacy_loops_on_table1_suite() {
    for spec in &PAPER_MATRICES {
        let a = spec.generate(48);
        let n = a.n_rows();
        let b = spec.rhs(n);
        let zero = vec![0.0; n];
        let warm: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let capped = CgConfig {
            max_iters: 7,
            ..CgConfig::default()
        };
        for (x0, cfg) in [
            (&zero, &CgConfig::default()),
            (&warm, &CgConfig::default()),
            (&zero, &capped),
        ] {
            assert_bit_identical(
                "cg",
                spec.id,
                &legacy_cg(&a, &b, x0, cfg),
                &cg_solve(&a, &b, x0, cfg),
            );
        }
    }
}
