//! Chen's stability tests for ONLINE-DETECTION (Section 3.1).
//!
//! The verification run every `d` iterations consists of:
//!
//! * an **orthogonality check** on `p_{i+1}` and `q = A·pᵢ`, computing
//!   `pᵀ_{i+1}q / (‖p_{i+1}‖·‖q‖)` — cheap (two norms and a dot);
//! * a **residual check** recomputing `b − A·xᵢ` and comparing it to the
//!   recursive residual `rᵢ` — the dominant cost, one extra SpMxV.
//!
//! Thresholds are relative to machine precision scaled by the problem
//! size; fault-free CG keeps both quantities many orders of magnitude
//! below them (no false positives), while bit flips that matter push
//! them far above (tested below and in `ftcg-sim`).

use ftcg_sparse::{vector, CsrMatrix, RowOrder};

/// Thresholds for the two stability tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OnlineTolerances {
    /// Bound on `|pᵀq|/(‖p‖‖q‖)` (A-conjugacy drift).
    pub(crate) orthogonality: f64,
    /// Bound on `‖(b − Ax) − r‖ / (‖A‖₁‖x‖∞ + ‖b‖∞)` (residual drift).
    pub(crate) residual: f64,
}

impl Default for OnlineTolerances {
    fn default() -> Self {
        Self {
            orthogonality: 1e-8,
            residual: 1e-10,
        }
    }
}

/// Result of one online verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OnlineVerdict {
    /// Measured orthogonality ratio.
    pub(crate) orthogonality: f64,
    /// Measured scaled residual drift.
    pub(crate) residual_drift: f64,
    /// `true` iff at least one test tripped.
    pub(crate) detected: bool,
}

/// The residual test: recomputes `b − A·x` defensively and returns the
/// scaled drift against the recursive residual `r` (the dominant
/// `Tverif` cost of the verification). The product visits rows in
/// `order`, the solve's own, and is consumed one [`RowOrder::WINDOW`]
/// of rows at a time from a stack buffer, so a chunk verification
/// allocates nothing; per element and in order these are the
/// operations of `max_abs_diff(b − A·x, r)`.
fn residual_drift(
    a: &CsrMatrix,
    order: &RowOrder,
    b: &[f64],
    x: &[f64],
    r: &[f64],
    norm1_a: f64,
) -> f64 {
    let n = a.n_rows();
    let mut band = [0.0_f64; RowOrder::WINDOW];
    let mut drift = 0.0_f64;
    for start in (0..n).step_by(band.len()) {
        let end = n.min(start + band.len());
        let ax = &mut band[..end - start];
        a.row_band_product_clamped(start..end, order, x, ax);
        for (i, axi) in (start..end).zip(ax.iter()) {
            drift = drift.max(((b[i] - axi) - r[i]).abs());
        }
    }
    let scale = norm1_a * vector::norm_inf(x) + vector::norm_inf(b);
    if scale > 0.0 {
        drift / scale
    } else {
        drift
    }
}

/// Runs both stability tests. `p_next` is the search direction *after*
/// the update (which should be A-conjugate to the previous one), `q` the
/// last SpMxV output. The residual check recomputes `b − A·x` (the
/// dominant cost the model charges as `Tverif`).
/// `norm1_a` must be the 1-norm of the *clean* matrix, computed once at
/// setup: the working matrix may be corrupted (wild column indices), so
/// recomputing the norm here would be both unsafe and meaningless.
/// `order` is the row visit order of the solve's products (it changes
/// no bit of the verdict).
#[expect(
    clippy::too_many_arguments,
    reason = "Chen's two tests read the system, its row order, the three iteration vectors and the clean norm in one call"
)]
pub(crate) fn verify_online(
    a: &CsrMatrix,
    order: &RowOrder,
    b: &[f64],
    x: &[f64],
    r: &[f64],
    p_next: &[f64],
    q: &[f64],
    norm1_a: f64,
    tol: &OnlineTolerances,
) -> OnlineVerdict {
    let n = a.n_rows();
    assert_eq!(x.len(), n);
    assert_eq!(r.len(), n);

    // Orthogonality: p_{i+1} ⟂ q (A-conjugacy of successive directions).
    let pq = vector::dot(p_next, q);
    let denom = vector::norm2(p_next) * vector::norm2(q);
    let orthogonality = if denom > 0.0 { (pq / denom).abs() } else { 0.0 };

    // Residual: recompute b − A·x defensively and compare to r.
    let residual_drift = residual_drift(a, order, b, x, r, norm1_a);

    // `f64::max` ignores NaN operands, so non-finite corruption must be
    // screened explicitly (a flipped exponent bit easily produces Inf/NaN).
    let any_nonfinite = x
        .iter()
        .chain(r.iter())
        .chain(p_next.iter())
        .chain(q.iter())
        .any(|v| !v.is_finite());
    let detected = any_nonfinite
        || !orthogonality.is_finite()
        || !residual_drift.is_finite()
        || orthogonality > tol.orthogonality
        || residual_drift > tol.residual;
    OnlineVerdict {
        orthogonality,
        residual_drift,
        detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::CgConfig;
    use ftcg_sparse::gen;

    /// Runs a few clean CG iterations and returns (x, r, p, q) mid-run.
    fn clean_cg_state(
        a: &CsrMatrix,
        b: &[f64],
        iters: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = a.n_rows();
        let mut x = vec![0.0; n];
        let mut r = b.to_vec();
        let mut p = r.clone();
        let mut q = vec![0.0; n];
        let mut rns = vector::norm2_sq(&r);
        for _ in 0..iters {
            a.spmv_into(&p, &mut q);
            let alpha = rns / vector::dot(&p, &q);
            vector::axpy(alpha, &p, &mut x);
            vector::axpy(-alpha, &q, &mut r);
            let new = vector::norm2_sq(&r);
            let beta = new / rns;
            rns = new;
            for i in 0..n {
                p[i] = r[i] + beta * p[i];
            }
        }
        (x, r, p, q)
    }

    /// Chen's two tests on the image `m` of `clean`, with the clean
    /// norm, the default tolerances and natural row order.
    fn verdict(
        m: &CsrMatrix,
        clean: &CsrMatrix,
        b: &[f64],
        x: &[f64],
        r: &[f64],
        p: &[f64],
        q: &[f64],
    ) -> OnlineVerdict {
        let tol = OnlineTolerances::default();
        verify_online(m, &RowOrder::new(), b, x, r, p, q, clean.norm1(), &tol)
    }

    #[test]
    fn clean_run_passes() {
        let a = gen::random_spd(60, 0.08, 2).unwrap();
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        for iters in [1usize, 3, 10, 25] {
            let (x, r, p, q) = clean_cg_state(&a, &b, iters);
            let v = verdict(&a, &a, &b, &x, &r, &p, &q);
            assert!(!v.detected, "false positive after {iters} iters: {v:?}");
        }
    }

    #[test]
    fn detects_x_corruption() {
        let a = gen::random_spd(60, 0.08, 3).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let (mut x, r, p, q) = clean_cg_state(&a, &b, 5);
        x[10] += 1.0;
        let v = verdict(&a, &a, &b, &x, &r, &p, &q);
        assert!(v.detected);
        assert!(v.residual_drift > 1e-6);
    }

    #[test]
    fn detects_r_corruption() {
        let a = gen::random_spd(60, 0.08, 4).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let (x, mut r, p, q) = clean_cg_state(&a, &b, 5);
        r[0] -= 0.5;
        let v = verdict(&a, &a, &b, &x, &r, &p, &q);
        assert!(v.detected);
    }

    #[test]
    fn detects_matrix_corruption() {
        let a = gen::random_spd(60, 0.08, 5).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let (x, r, p, q) = clean_cg_state(&a, &b, 5);
        let mut bad = a.clone();
        bad.val_mut()[7] += 1.0;
        // Recomputed residual uses the corrupted matrix: drift appears.
        let v = verdict(&bad, &a, &b, &x, &r, &p, &q);
        assert!(v.detected);
    }

    #[test]
    fn detects_p_corruption_via_orthogonality() {
        let a = gen::random_spd(60, 0.08, 6).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let (x, r, mut p, q) = clean_cg_state(&a, &b, 5);
        p[3] += 10.0; // break A-conjugacy
        let v = verdict(&a, &a, &b, &x, &r, &p, &q);
        assert!(v.detected);
        assert!(v.orthogonality > 1e-8);
    }

    #[test]
    fn nan_always_detected() {
        let a = gen::random_spd(30, 0.1, 7).unwrap();
        let b: Vec<f64> = vec![1.0; 30];
        let (mut x, r, p, q) = clean_cg_state(&a, &b, 3);
        x[0] = f64::NAN;
        let v = verdict(&a, &a, &b, &x, &r, &p, &q);
        assert!(v.detected);
    }

    #[test]
    fn survives_corrupt_structure() {
        let a = gen::random_spd(30, 0.1, 8).unwrap();
        let b: Vec<f64> = vec![1.0; 30];
        let (x, r, p, q) = clean_cg_state(&a, &b, 3);
        let mut bad = a.clone();
        bad.rowptr_mut()[5] = u32::MAX;
        // Must not panic; must detect.
        let v = verdict(&bad, &a, &b, &x, &r, &p, &q);
        assert!(v.detected);
    }

    #[test]
    fn banded_residual_drift_matches_the_full_vector_formulation() {
        // Reference: the whole product into a vector, then the sweeps.
        let reference = |a: &CsrMatrix, b: &[f64], x: &[f64], r: &[f64], norm1_a: f64| {
            let mut true_r = vec![0.0; a.n_rows()];
            a.spmv_clamped_into(x, &mut true_r);
            for i in 0..true_r.len() {
                true_r[i] = b[i] - true_r[i];
            }
            let drift = vector::max_abs_diff(&true_r, r);
            let scale = norm1_a * vector::norm_inf(x) + vector::norm_inf(b);
            if scale > 0.0 {
                drift / scale
            } else {
                drift
            }
        };
        // Orders around the band length, clean and corrupted images, rows
        // visited in natural order and in the length-sorted order of the
        // clean matrix (as the workspace builds it for the solve).
        let mut sorted_windows = 0;
        for n in [1usize, 63, 64, 65, 150, 256] {
            let a = gen::random_spd(n, (8.0 / n as f64).min(0.5), n as u64).unwrap();
            let mut sorted = RowOrder::new();
            sorted.rebuild(&a);
            sorted_windows += sorted
                .as_slice()
                .chunks(RowOrder::WINDOW)
                .filter(|w| w.windows(2).any(|p| p[0] > p[1]))
                .count();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
            let (x, r, _, _) = clean_cg_state(&a, &b, 4);
            let mut wild = a.clone();
            wild.colid_mut()[0] = u32::MAX;
            let last = wild.rowptr().len() - 1;
            wild.rowptr_mut()[last / 2] = u32::MAX;
            let mut nan = a.clone();
            nan.val_mut()[n / 2] = f64::NAN;
            for m in [&a, &wild, &nan] {
                let want = reference(m, &b, &x, &r, a.norm1());
                for order in [&RowOrder::new(), &sorted] {
                    let got = residual_drift(m, order, &b, &x, &r, a.norm1());
                    assert_eq!(got.to_bits(), want.to_bits(), "n {n}: {got} vs {want}");
                }
            }
        }
        assert!(sorted_windows > 0, "no window was reordered");
    }

    #[test]
    fn tolerances_default_sane() {
        let t = OnlineTolerances::default();
        assert!(t.orthogonality > 0.0 && t.orthogonality < 1e-4);
        assert!(t.residual > 0.0 && t.residual < 1e-6);
    }

    #[test]
    fn converged_state_passes() {
        // After full convergence the checks must still pass (q stale but
        // orthogonality ratio remains tiny relative to norms).
        let a = gen::tridiagonal(40, 4.0, -1.0).unwrap();
        let b = vec![1.0; 40];
        let s = crate::cg::cg_solve(&a, &b, &vec![0.0; 40], &CgConfig::default());
        let mut r = b.clone();
        let ax = a.spmv(&s.x);
        vector::sub_assign(&mut r, &ax);
        let (x2, r2, p2, q2) = clean_cg_state(&a, &b, 30);
        let v = verdict(&a, &a, &b, &x2, &r2, &p2, &q2);
        assert!(!v.detected, "{v:?}");
        let _ = (s, r);
    }
}
