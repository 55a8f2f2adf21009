//! Chen's stability tests for ONLINE-DETECTION (Section 3.1).
//!
//! The verification run every `d` iterations,
//! [`CgMachine::verify_state`], reads the machine's own vectors and
//! consists of:
//!
//! * an **orthogonality check** on `p_{i+1}` and `q = A·pᵢ`, computing
//!   `pᵀ_{i+1}q / (‖p_{i+1}‖·‖q‖)` — cheap (a dot and two norms, one
//!   sweep over `p` and `q`);
//! * a **residual check** recomputing `b − A·xᵢ` and comparing it to the
//!   recursive residual `rᵢ` — the dominant cost, one extra SpMxV.
//!
//! Each test compares against one fixed threshold,
//! [`ORTHOGONALITY_TOL`] and [`RESIDUAL_TOL`]: relative to machine
//! precision scaled by the problem size, fault-free CG keeps both
//! quantities many orders of magnitude below them (no false positives),
//! while bit flips that matter push them far above (tested below and in
//! `ftcg-sim`).

use ftcg_sparse::{vector, CsrMatrix, RowOrder};

use crate::CgMachine;

/// Bound on `|pᵀq|/(‖p‖‖q‖)` (A-conjugacy drift).
pub(crate) const ORTHOGONALITY_TOL: f64 = 1e-8;

/// Bound on `‖(b − Ax) − r‖ / (‖A‖₁‖x‖∞ + ‖b‖∞)` (residual drift).
pub(crate) const RESIDUAL_TOL: f64 = 1e-10;

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

/// `(pᵀq, pᵀp, qᵀq)` in one sweep: three independent chains, each from
/// `0.0` in ascending order, so each equals its own [`vector::dot`] bit
/// for bit (and `pᵀp.sqrt()` equals [`vector::norm2`]).
fn dot_and_squares(p: &[f64], q: &[f64]) -> (f64, f64, f64) {
    assert_eq!(p.len(), q.len(), "dot: length mismatch");
    let (mut pq, mut pp, mut qq) = (0.0, 0.0, 0.0);
    for (a, b) in p.iter().zip(q) {
        pq += a * b;
        pp += a * a;
        qq += b * b;
    }
    (pq, pp, qq)
}

impl CgMachine {
    /// The ONLINE-DETECTION stability verification: Chen's two tests on
    /// the machine's state. `p` is the search direction *after* the
    /// update (which should be A-conjugate to the previous one), `q` the
    /// last SpMxV output; the residual check recomputes `b − A·x`
    /// against `a` (the dominant cost the model charges as `Tverif`),
    /// its product visiting rows in `order`, the solve's own (it changes
    /// no bit of the verdict).
    ///
    /// `norm1_a` must be the 1-norm of the *clean* matrix, computed once
    /// at setup: the working matrix may be corrupted (wild column
    /// indices), so recomputing the norm here would be both unsafe and
    /// meaningless.
    pub(crate) fn verify_state(
        &self,
        a: &CsrMatrix,
        order: &RowOrder,
        norm1_a: f64,
    ) -> OnlineVerdict {
        let (b, x, r, p_next, q) = (&self.b, &self.x, &self.r, &self.p, &self.q);
        let n = a.n_rows();
        assert_eq!(x.len(), n);
        assert_eq!(r.len(), n);

        // Orthogonality: p_{i+1} ⟂ q (A-conjugacy of successive directions).
        let (pq, pp, qq) = dot_and_squares(p_next, q);
        let denom = pp.sqrt() * qq.sqrt();
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
            || orthogonality > ORTHOGONALITY_TOL
            || residual_drift > RESIDUAL_TOL;
        OnlineVerdict {
            orthogonality,
            residual_drift,
            detected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{PlainContext, StepResult};
    use ftcg_sparse::gen;

    /// A real CG machine on `a·x = b` from the zero start, stepped
    /// `iters` times with the plain product (fewer if it stops early).
    fn stepped(a: &CsrMatrix, b: &[f64], iters: usize) -> CgMachine {
        let mut m = CgMachine::start_zero(b);
        let mut ctx = PlainContext { a };
        for _ in 0..iters {
            if m.step(&mut ctx) != StepResult::Done {
                break;
            }
        }
        m
    }

    /// Chen's two tests of `m` against the image `img` of `clean`, with
    /// the clean norm and natural row order.
    fn verdict(m: &CgMachine, img: &CsrMatrix, clean: &CsrMatrix) -> OnlineVerdict {
        m.verify_state(img, &RowOrder::new(), clean.norm1())
    }

    #[test]
    fn clean_run_passes() {
        let a = gen::random_spd(60, 0.08, 2).unwrap();
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        for iters in [1usize, 3, 10, 25] {
            let v = verdict(&stepped(&a, &b, iters), &a, &a);
            assert!(!v.detected, "false positive after {iters} iters: {v:?}");
        }
    }

    #[test]
    fn detects_x_corruption() {
        let a = gen::random_spd(60, 0.08, 3).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let mut m = stepped(&a, &b, 5);
        m.x[10] += 1.0;
        let v = verdict(&m, &a, &a);
        assert!(v.detected);
        assert!(v.residual_drift > 1e-6);
    }

    #[test]
    fn detects_r_corruption() {
        let a = gen::random_spd(60, 0.08, 4).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let mut m = stepped(&a, &b, 5);
        m.r[0] -= 0.5;
        let v = verdict(&m, &a, &a);
        assert!(v.detected);
    }

    #[test]
    fn detects_matrix_corruption() {
        let a = gen::random_spd(60, 0.08, 5).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let m = stepped(&a, &b, 5);
        let mut bad = a.clone();
        bad.val_mut()[7] += 1.0;
        // Recomputed residual uses the corrupted matrix: drift appears.
        let v = verdict(&m, &bad, &a);
        assert!(v.detected);
    }

    #[test]
    fn detects_p_corruption_via_orthogonality() {
        let a = gen::random_spd(60, 0.08, 6).unwrap();
        let b: Vec<f64> = vec![1.0; 60];
        let mut m = stepped(&a, &b, 5);
        m.p[3] += 10.0; // break A-conjugacy
        let v = verdict(&m, &a, &a);
        assert!(v.detected);
        assert!(v.orthogonality > 1e-8);
    }

    #[test]
    fn nan_always_detected() {
        let a = gen::random_spd(30, 0.1, 7).unwrap();
        let b: Vec<f64> = vec![1.0; 30];
        let mut m = stepped(&a, &b, 3);
        m.x[0] = f64::NAN;
        let v = verdict(&m, &a, &a);
        assert!(v.detected);
    }

    #[test]
    fn survives_corrupt_structure() {
        let a = gen::random_spd(30, 0.1, 8).unwrap();
        let b: Vec<f64> = vec![1.0; 30];
        let m = stepped(&a, &b, 3);
        let mut bad = a.clone();
        bad.rowptr_mut()[5] = u32::MAX;
        // Must not panic; must detect.
        let v = verdict(&m, &bad, &a);
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
            let m = stepped(&a, &b, 4);
            let (x, r) = (&m.x, &m.r);
            let mut wild = a.clone();
            wild.colid_mut()[0] = u32::MAX;
            let last = wild.rowptr().len() - 1;
            wild.rowptr_mut()[last / 2] = u32::MAX;
            let mut nan = a.clone();
            nan.val_mut()[n / 2] = f64::NAN;
            for img in [&a, &wild, &nan] {
                let want = reference(img, &b, x, r, a.norm1());
                for order in [&RowOrder::new(), &sorted] {
                    let got = residual_drift(img, order, &b, x, r, a.norm1());
                    assert_eq!(got.to_bits(), want.to_bits(), "n {n}: {got} vs {want}");
                }
            }
        }
        assert!(sorted_windows > 0, "no window was reordered");
    }

    #[test]
    fn one_sweep_matches_the_separate_dot_and_norms_bit_for_bit() {
        let wavy = |n: usize, k: f64| -> Vec<f64> {
            (0..n)
                .map(|i| (i as f64 * k).sin() * 10f64.powi(i as i32 % 7 - 3))
                .collect()
        };
        let (p, q) = (wavy(257, 0.37), wavy(257, 1.9));
        let mut cases = vec![(p.clone(), q.clone()), (Vec::new(), Vec::new())];
        let mut nan = p.clone();
        nan[100] = f64::NAN;
        cases.push((nan, q.clone()));
        let mut inf = q.clone();
        inf[5] = f64::INFINITY;
        cases.push((p.clone(), inf));
        // Every product `-0.0`: a chain from `0.0` ends at `+0.0` (from
        // `-0.0` it would end at `-0.0`), as `dot`'s does.
        cases.push((vec![-0.0; 9], vec![1.0; 9]));
        cases.push((vec![-0.0; 9], vec![-0.0; 9]));
        assert_eq!(dot_and_squares(&[-0.0; 9], &[1.0; 9]).0.to_bits(), 0);
        for (p, q) in &cases {
            let (pq, pp, qq) = dot_and_squares(p, q);
            assert_eq!(pq.to_bits(), vector::dot(p, q).to_bits());
            assert_eq!(pp.sqrt().to_bits(), vector::norm2(p).to_bits());
            assert_eq!(qq.sqrt().to_bits(), vector::norm2(q).to_bits());
        }
    }

    #[test]
    fn tolerances_default_sane() {
        assert_eq!(ORTHOGONALITY_TOL, 1e-8);
        assert_eq!(RESIDUAL_TOL, 1e-10);
    }

    #[test]
    fn converged_state_passes() {
        // After full convergence the checks must still pass (q stale but
        // orthogonality ratio remains tiny relative to norms).
        let a = gen::tridiagonal(40, 4.0, -1.0).unwrap();
        let b = vec![1.0; 40];
        let m = stepped(&a, &b, 30);
        assert!(m.residual_norm() < 1e-10, "{}", m.residual_norm());
        let v = verdict(&m, &a, &a);
        assert!(!v.detected, "{v:?}");
    }
}
