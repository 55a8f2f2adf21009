//! The ABFT-protected sparse matrix–vector product (Algorithm 2), the
//! mechanism behind ABFT-CORRECTION.
//!
//! Workflow per product (the resilient executor in `ftcg-solvers`
//! orchestrates these steps around fault injection):
//!
//! 1. [`ProtectedSpmv::spmv`] — the defensive CSR kernel `y ← Ax`,
//!    [`CsrWords::row_products`], which never panics on corrupted
//!    structure (clamped row ranges, skipped out-of-range column
//!    indices). The executor runs the same traversal itself, fused with
//!    the output probe, and hands the probe to
//!    [`ProtectedSpmv::verify_probed`];
//! 2. [`ProtectedSpmv::verify`] — evaluates the three residue tests of
//!    Algorithm 2 line 23: `dr` (row-pointer checksum, exact integers),
//!    `dx` (output vs. column checksums, floating point with the
//!    Theorem 2 tolerance), `dx′` (input vs. its reliable copy, exact);
//! 3. [`ProtectedSpmv::correct`] (in [`crate::correct`]) — attempts
//!    single-error localization and in-place repair of the CSR arrays,
//!    the input or the output, then re-verifies (clean residues come
//!    back [`SpmvOutcome::Clean`], untouched).
//!
//! The setup is the checksums and one Theorem 2 tolerance per weight
//! row, both rows' norms from [`crate::weights`]; the localization
//! slack is a constant there, not a field.

use ftcg_sparse::{fused, vector, CsrMatrix, CsrWords, RowOrder};

use crate::checksum::MatrixChecksums;
use crate::correct::CorrectionReport;
use crate::tolerance::ToleranceBound;
use crate::weights;

/// Reliable snapshot of the input vector taken *before* the unreliable
/// window (the auxiliary copy `x′` of Algorithm 2, held in reliable
/// memory under the selective-reliability model).
#[derive(Debug, Clone, PartialEq)]
pub struct XRef {
    /// The trusted copy `x′`.
    pub(crate) xcopy: Vec<f64>,
}

impl XRef {
    /// Captures a trusted copy of `x`.
    pub fn capture(x: &[f64]) -> Self {
        Self { xcopy: x.to_vec() }
    }

    /// An empty reference, the starting point for a retained buffer
    /// that [`XRef::store`] sizes on first use.
    pub fn empty() -> Self {
        Self { xcopy: Vec::new() }
    }

    /// Re-captures `x` into this buffer — bit-identical contents to
    /// [`XRef::capture`], but reusing the existing allocation (the
    /// resilient executor re-captures the direction vector every
    /// iteration; this keeps that off the allocator).
    pub fn store(&mut self, x: &[f64]) {
        self.xcopy.clear();
        self.xcopy.extend_from_slice(x);
    }
}

/// Residues of the three verification tests.
#[derive(Debug, Clone, PartialEq)]
pub struct TestResults {
    /// `dr_r = cr_r − sr_r`: row-pointer checksum residues (exact).
    pub(crate) dr: [i128; 2],
    /// `dx_r = Σᵢ w_r(i)·ỹᵢ − Σⱼ C_rj·x̃ⱼ`: output-checksum residues.
    pub(crate) dx: [f64; 2],
    /// Whether `dx` exceeds the rounding tolerance.
    pub(crate) dx_fails: bool,
    /// `dx′_r = Σᵢ w_r(i)·(x̃ᵢ − x′ᵢ)`: input-copy residues (exact zero
    /// when the input is intact).
    pub(crate) dxp: [f64; 2],
    /// Whether `dx′` is nonzero (or non-finite).
    pub(crate) dxp_fails: bool,
    /// `‖x̃‖∞` at verification time (reused by correction).
    pub(crate) x_norm_inf: f64,
}

impl TestResults {
    /// `true` iff all three tests passed.
    pub fn clean(&self) -> bool {
        self.dr == [0, 0] && !self.dx_fails && !self.dxp_fails
    }
}

/// Outcome of a protected product.
#[derive(Debug, Clone, PartialEq)]
pub enum SpmvOutcome {
    /// All tests passed; `y` is trusted.
    Clean,
    /// A single error was localized and repaired in place; `y`, `x` and
    /// the matrix are all trusted again (forward recovery).
    Corrected(CorrectionReport),
    /// Errors detected but not correctable (or the scheme is
    /// detection-only); the caller must roll back.
    Detected(TestResults),
}

impl SpmvOutcome {
    /// `true` for [`SpmvOutcome::Clean`] or [`SpmvOutcome::Corrected`].
    pub fn is_trusted(&self) -> bool {
        !matches!(self, SpmvOutcome::Detected(_))
    }
}

/// The dual-checksum protected SpMxV of Algorithm 2 (detects up to two
/// errors, corrects one).
#[derive(Debug, Clone)]
pub struct ProtectedSpmv {
    pub(crate) checks: MatrixChecksums,
    pub(crate) tol: [ToleranceBound; 2],
}

impl ProtectedSpmv {
    /// Precomputes checksums and tolerances for a matrix
    /// (`COMPUTECHECKSUMS`; reliable, done once per matrix).
    pub fn new(a: &CsrMatrix) -> Self {
        let checks = MatrixChecksums::compute(a);
        let n = checks.n;
        let tol = weights::weight_norms_inf(n).map(|w| ToleranceBound::new(n, checks.norm1, w));
        Self { checks, tol }
    }

    /// The precomputed checksums.
    pub fn checksums(&self) -> &MatrixChecksums {
        &self.checks
    }

    /// Defensive kernel `y ← Ax` ([`CsrWords::row_products`], natural
    /// order).
    ///
    /// # Panics
    /// Panics if `y.len() != n_rows`.
    pub fn spmv(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), a.n_rows(), "spmv_clamped: y length mismatch");
        a.row_products(0..y.len(), &RowOrder::new(), x, |i, v| y[i] = v);
    }

    /// Evaluates the three residue tests of Algorithm 2 line 23 against
    /// the current state of `a` (a matrix or an overlay, [`CsrWords`]),
    /// `x` and `y`.
    pub fn verify(&self, a: &impl CsrWords, x: &[f64], xref: &XRef, y: &[f64]) -> TestResults {
        assert_eq!(y.len(), self.checks.n, "verify: y length mismatch");
        // One pass over `y` replaces the two weighted output sweeps:
        // [`fused::probe_of`]'s chains are bit-identical to
        // `Σᵢ w_r(i)·ỹᵢ` for the paper's weight rows w₁(i)=1,
        // w₂(i)=i+1 (see [`crate::weights`]).
        let lhs = fused::probe_of(y);
        self.verify_core(a, x, xref, &lhs)
    }

    /// [`ProtectedSpmv::verify`] with the weighted output sums
    /// `Σᵢ w_r(i)·ỹᵢ` taken from a fused product probe instead of
    /// sweeping `y` again.
    ///
    /// `probe` must be the probe of the product output this call is
    /// verifying (see [`ftcg_sparse::fused::probe_of`]). The residues
    /// are then bit-for-bit what [`ProtectedSpmv::verify`] would return
    /// for that `y`, without any O(n) sweep over the output.
    pub fn verify_probed(
        &self,
        a: &impl CsrWords,
        x: &[f64],
        xref: &XRef,
        probe: &[f64; 2],
    ) -> TestResults {
        self.verify_core(a, x, xref, probe)
    }

    /// Shared tail of the two `verify` entry points: the exact `dr` and
    /// `dx′` tests plus a single fused pass over `x̃` computing both
    /// checksummed right-hand sides. `dr` reads the live row-pointer sums
    /// ([`CsrWords::rowptr_sums`]: O(flips) on an overlay). Each reduction chain keeps its
    /// original element order, so residues are bit-identical to the
    /// separate-sweep formulation; `‖x̃‖∞` stays its own sweep — a
    /// `max` fold vectorizes alone but serializes a fused loop when
    /// interleaved with the strict FP sum chains.
    fn verify_core(
        &self,
        a: &impl CsrWords,
        x: &[f64],
        xref: &XRef,
        lhs: &[f64; 2],
    ) -> TestResults {
        let n = self.checks.n;
        assert_eq!(x.len(), n, "verify: x length mismatch");
        assert_eq!(xref.xcopy.len(), n, "verify: xref length mismatch");

        // dr: exact integer row-pointer test.
        let sr = a.rowptr_sums();
        let dr = [
            (self.checks.rowptr[0] as i128).wrapping_sub(sr[0] as i128),
            (self.checks.rowptr[1] as i128).wrapping_sub(sr[1] as i128),
        ];

        // dx: weighted output sums vs. checksummed input. One pass over
        // x̃ feeds both rhs chains (from -0.0, matching `Iterator::sum`).
        let mut rhs = [-0.0f64; 2];
        for (i, &xv) in x.iter().enumerate() {
            rhs[0] += self.checks.col[0][i] * xv;
            rhs[1] += self.checks.col[1][i] * xv;
        }
        let x_norm_inf = vector::norm_inf(x);
        let dx = [lhs[0] - rhs[0], lhs[1] - rhs[1]];
        let dx_fails = (0..2).any(|r| self.tol[r].is_error(dx[r], x_norm_inf));

        // dx′: input vs. reliable copy — exact (identical bits ⇒ exact 0).
        let mut dxp = [0.0f64; 2];
        for (i, (&xi, &xr)) in x.iter().zip(xref.xcopy.iter()).enumerate() {
            if xi.to_bits() != xr.to_bits() {
                let diff = xi - xr;
                let w = weights::weights(i);
                dxp[0] += w[0] * diff;
                dxp[1] += w[1] * diff;
                // NaN-safe: a flip to NaN yields NaN residues below.
                if !diff.is_finite() {
                    dxp[0] = f64::NAN;
                    dxp[1] = f64::NAN;
                    break;
                }
            }
        }
        let dxp_fails = dxp[0] != 0.0 || dxp[1] != 0.0 || !dxp[0].is_finite();

        TestResults {
            dr,
            dx,
            dx_fails,
            dxp,
            dxp_fails,
            x_norm_inf,
        }
    }

    /// Detection-only protected product: kernel + verification, no
    /// correction (building block for tests and for schemes that manage
    /// correction themselves).
    pub fn spmv_detect(&self, a: &CsrMatrix, x: &[f64], xref: &XRef, y: &mut [f64]) -> SpmvOutcome {
        self.spmv(a, x, y);
        let res = self.verify(a, x, xref, y);
        if res.clean() {
            SpmvOutcome::Clean
        } else {
            SpmvOutcome::Detected(res)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    fn setup(n: usize, seed: u64) -> (CsrMatrix, ProtectedSpmv, Vec<f64>, XRef) {
        let a = gen::random_spd(n, 0.08, seed).unwrap();
        let p = ProtectedSpmv::new(&a);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).cos() * 2.0).collect();
        let xref = XRef::capture(&x);
        (a, p, x, xref)
    }

    #[test]
    fn clean_product_verifies_clean() {
        for seed in 0..10 {
            let (a, p, x, xref) = setup(60, seed);
            let mut y = vec![0.0; 60];
            let out = p.spmv_detect(&a, &x, &xref, &mut y);
            assert_eq!(out, SpmvOutcome::Clean, "seed {seed}");
            assert_eq!(y, a.spmv(&x), "defensive kernel must match plain kernel");
        }
    }

    #[test]
    fn xref_store_matches_capture() {
        let x = [1.0, -2.5, f64::MIN_POSITIVE, 0.0];
        let fresh = XRef::capture(&x);
        let mut retained = XRef::empty();
        retained.store(&x);
        assert_eq!(retained, fresh);
        // Re-store over live contents (the per-iteration path).
        let y = [9.0, 8.0, 7.0, 6.0];
        retained.store(&y);
        assert_eq!(retained, XRef::capture(&y));
    }

    #[test]
    fn defensive_matches_plain_on_clean_matrix() {
        let a = gen::poisson2d(7).unwrap();
        let p = ProtectedSpmv::new(&a);
        let x: Vec<f64> = (0..49).map(|i| i as f64 * 0.1).collect();
        let mut y1 = vec![0.0; 49];
        p.spmv(&a, &x, &mut y1);
        assert_eq!(y1, a.spmv(&x));
    }

    #[test]
    fn defensive_survives_wild_rowptr() {
        let a = gen::poisson2d(4).unwrap();
        let p = ProtectedSpmv::new(&a);
        let mut b = a.clone();
        b.rowptr_mut()[5] = u32::MAX;
        let x = vec![1.0; 16];
        let mut y = vec![0.0; 16];
        p.spmv(&b, &x, &mut y); // must not panic
    }

    #[test]
    fn defensive_survives_wild_colid() {
        let a = gen::poisson2d(4).unwrap();
        let p = ProtectedSpmv::new(&a);
        let mut b = a.clone();
        b.colid_mut()[3] = 1 << 31;
        let x = vec![1.0; 16];
        let mut y = vec![0.0; 16];
        p.spmv(&b, &x, &mut y); // must not panic
    }

    #[test]
    fn detects_val_corruption() {
        let (a, p, x, xref) = setup(50, 1);
        let mut b = a.clone();
        b.val_mut()[10] += 0.5;
        let mut y = vec![0.0; 50];
        let out = p.spmv_detect(&b, &x, &xref, &mut y);
        match out {
            SpmvOutcome::Detected(res) => {
                assert!(res.dx_fails);
                assert_eq!(res.dr, [0, 0]);
                assert!(!res.dxp_fails);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn detects_colid_corruption() {
        let (a, p, x, xref) = setup(50, 2);
        let mut b = a.clone();
        // redirect an off-diagonal entry to a different column
        let k = 5;
        let old = b.colid()[k];
        b.colid_mut()[k] = (old + 7) % 50;
        let mut y = vec![0.0; 50];
        let out = p.spmv_detect(&b, &x, &xref, &mut y);
        assert!(matches!(out, SpmvOutcome::Detected(_)));
    }

    #[test]
    fn detects_rowptr_corruption_exactly() {
        let (a, p, x, xref) = setup(50, 3);
        let mut b = a.clone();
        b.rowptr_mut()[13] += 2;
        let mut y = vec![0.0; 50];
        let out = p.spmv_detect(&b, &x, &xref, &mut y);
        match out {
            SpmvOutcome::Detected(res) => {
                // dr = [−δ, −(t+1)·δ] with δ=2, t=13 (0-based)
                assert_eq!(res.dr, [-2, -28]);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn detects_x_corruption_via_dxp() {
        let (a, p, mut x, xref) = setup(50, 4);
        x[17] += 1.25;
        let mut y = vec![0.0; 50];
        let out = p.spmv_detect(&a, &x, &xref, &mut y);
        match out {
            SpmvOutcome::Detected(res) => {
                assert!(res.dxp_fails);
                // dx must pass: y is consistent with the (corrupted) x.
                assert!(!res.dx_fails, "dx should be consistent: {:?}", res.dx);
                // residues localize the error (up to one rounding of the
                // perturbed entry)
                assert!((res.dxp[0] - 1.25).abs() < 1e-12);
                assert!((res.dxp[1] - 18.0 * 1.25).abs() < 1e-12);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn detects_output_corruption() {
        let (a, p, x, xref) = setup(50, 5);
        let mut y = vec![0.0; 50];
        p.spmv(&a, &x, &mut y);
        y[31] += 3.0; // computation/output error
        let res = p.verify(&a, &x, &xref, &y);
        assert!(res.dx_fails);
        assert!((res.dx[0] - 3.0).abs() < 1e-8);
        assert!((res.dx[1] - 32.0 * 3.0).abs() < 1e-6);
    }

    #[test]
    fn detects_nan_in_x() {
        let (a, p, mut x, xref) = setup(30, 6);
        x[0] = f64::NAN;
        let mut y = vec![0.0; 30];
        let out = p.spmv_detect(&a, &x, &xref, &mut y);
        assert!(matches!(out, SpmvOutcome::Detected(_)));
    }

    #[test]
    fn no_false_positives_across_many_products() {
        // Claim C3: the tolerance never flags a fault-free product.
        let (a, p, _, _) = setup(80, 7);
        for s in 0..50u64 {
            let x: Vec<f64> = (0..80)
                .map(|i| ((i as f64 + s as f64) * 0.77).sin() * (s as f64 + 1.0))
                .collect();
            let xref = XRef::capture(&x);
            let mut y = vec![0.0; 80];
            let out = p.spmv_detect(&a, &x, &xref, &mut y);
            assert_eq!(out, SpmvOutcome::Clean, "false positive at {s}");
        }
    }

    fn assert_results_bits(plain: &TestResults, probed: &TestResults) {
        assert_eq!(plain.dr, probed.dr, "dr differs");
        for r in 0..2 {
            assert_eq!(plain.dx[r].to_bits(), probed.dx[r].to_bits(), "dx[{r}]");
            assert_eq!(plain.dxp[r].to_bits(), probed.dxp[r].to_bits(), "dxp[{r}]");
        }
        assert_eq!(plain.dx_fails, probed.dx_fails);
        assert_eq!(plain.dxp_fails, probed.dxp_fails);
        assert_eq!(
            plain.x_norm_inf.to_bits(),
            probed.x_norm_inf.to_bits(),
            "x_norm_inf"
        );
    }

    #[test]
    fn verify_probed_is_bit_identical_to_verify() {
        use ftcg_sparse::fused;
        for seed in 0..6 {
            let (a, p, x, xref) = setup(40, seed);
            let mut y = vec![0.0; 40];
            p.spmv(&a, &x, &mut y);

            // Clean plus one corruption per protected array; every case
            // must give bit-identical residues through both entry points.
            let mut cases: Vec<(CsrMatrix, Vec<f64>, Vec<f64>)> = Vec::new();
            cases.push((a.clone(), x.clone(), y.clone()));
            let mut b = a.clone();
            b.val_mut()[6] += 0.5;
            cases.push((b, x.clone(), y.clone()));
            let mut b = a.clone();
            b.rowptr_mut()[8] += 1;
            cases.push((b, x.clone(), y.clone()));
            let mut xc = x.clone();
            xc[3] += 1.25;
            cases.push((a.clone(), xc, y.clone()));
            let mut yc = y.clone();
            yc[0] = -0.0;
            yc[21] = f64::INFINITY;
            cases.push((a.clone(), x.clone(), yc));

            for (b, xc, yc) in &cases {
                let plain = p.verify(b, xc, &xref, yc);
                let probed = p.verify_probed(b, xc, &xref, &fused::probe_of(yc));
                assert_results_bits(&plain, &probed);
            }
        }
    }

    #[test]
    fn rowptr_weighted_sum_handles_huge_values() {
        let words =
            CsrMatrix::from_parts_unchecked(2, 0, vec![u32::MAX, u32::MAX, 0], vec![], vec![]);
        let s = words.rowptr_sums();
        // no panic; exact arithmetic on the widest word values
        assert_eq!(s[0], (u32::MAX as u128) + (u32::MAX as u128));
        assert_eq!(s[1], (u32::MAX as u128) + 2 * (u32::MAX as u128));
    }

    #[test]
    fn outcome_trust_classification() {
        assert!(SpmvOutcome::Clean.is_trusted());
        let res = TestResults {
            dr: [1, 1],
            dx: [0.0, 0.0],
            dx_fails: false,
            dxp: [0.0, 0.0],
            dxp_fails: false,
            x_norm_inf: 1.0,
        };
        assert!(!SpmvOutcome::Detected(res).is_trusted());
    }
}
