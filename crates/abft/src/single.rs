//! The single-checksum, detection-only ABFT SpMxV — the mechanism behind
//! the ABFT-DETECTION scheme, and our implementation of the paper's
//! improvement over Shantharam et al.
//!
//! Shantharam et al. protect `y ← Ax` with the plain column-sum checksum
//! `c_j = Σᵢ aᵢⱼ` and an auxiliary copy `x′`, but require `A` strictly
//! diagonally dominant so no checksum column is zero — otherwise an error
//! in an `x` entry whose column sums to zero is invisible. Section 3.2 of
//! the paper removes the restriction by **shifting**: `ĉ_j = c_j + k`
//! with `k` chosen so all `ĉ_j ≠ 0`, balanced by the auxiliary output
//! checksum `y_{n+1} = k·Σᵢ x̃ᵢ` (Theorem 1). The three tests are:
//!
//! * (i)  `ĉᵀx̃  = Σᵢ ỹᵢ + k·Σᵢ x̃ᵢ` — fails for errors in `A`/`y`;
//! * (ii) `ĉᵀx′ = Σᵢ ỹᵢ + k·Σᵢ x̃ᵢ` — fails (additionally) for errors
//!   in `x̃`, *provided* `ĉ_e ≠ 0` — exactly what the shift guarantees;
//! * (iii) `sr = cr` — exact integer test on `Rowidx`.
//!
//! The unshifted variant is kept accessible (`with_shift(false)`) so the
//! zero-column-sum failure mode can be demonstrated (see the tests and
//! `examples/zero_column_sums.rs`).

use ftcg_sparse::{vector, CsrMatrix};

use crate::checksum::{choose_shift, rowptr_sum};
use crate::spmv::XRef;
use crate::tolerance::ToleranceBound;

/// Outcome of a detection-only protected product.
#[derive(Debug, Clone, PartialEq)]
pub enum SingleOutcome {
    /// All tests passed.
    Clean,
    /// At least one test failed; the caller must roll back.
    Detected {
        /// Residue of test (i).
        d1: f64,
        /// Residue of test (ii).
        d2: f64,
        /// Residue of test (iii) (exact).
        dr: i128,
    },
}

impl SingleOutcome {
    /// `true` iff the product may be trusted.
    pub fn is_trusted(&self) -> bool {
        matches!(self, SingleOutcome::Clean)
    }
}

/// Precomputed single-checksum protection for a fixed matrix.
#[derive(Debug, Clone)]
pub struct SingleChecksum {
    n: usize,
    /// Shifted column checksums `ĉ_j = Σᵢ aᵢⱼ + k`.
    c: Vec<f64>,
    /// The shift constant `k`.
    k: f64,
    /// Exact row-pointer checksum `cr = Σᵢ Rowidx_i`.
    cr: u128,
    tol: ToleranceBound,
}

impl SingleChecksum {
    /// Builds the (shifted) checksums for `a`.
    pub fn new(a: &CsrMatrix) -> Self {
        Self::with_shift(a, true)
    }

    /// Builds checksums with or without the shift — `false` reproduces
    /// the vulnerable Shantharam et al. construction for the ablation.
    pub fn with_shift(a: &CsrMatrix, shifted: bool) -> Self {
        assert!(a.is_square(), "single checksum: matrix must be square");
        let n = a.n_rows();
        let mut c = a.column_sums();
        let k = if shifted { choose_shift(&c) } else { 0.0 };
        for v in &mut c {
            *v += k;
        }
        let cr = rowptr_sum(a.rowptr());
        let tol = ToleranceBound::new(n, a.norm1() + k.abs(), 1.0);
        Self { n, c, k, cr, tol }
    }

    /// The shift constant in use.
    pub fn shift(&self) -> f64 {
        self.k
    }

    /// Evaluates tests (i), (ii), (iii) of Theorem 1.
    pub fn verify(&self, a: &CsrMatrix, x: &[f64], xref: &XRef, y: &[f64]) -> SingleOutcome {
        assert_eq!(y.len(), self.n, "verify: y length mismatch");
        // Output checksum Σ ỹᵢ (the auxiliary y_{n+1} contribution).
        let sum_y: f64 = y.iter().sum();
        self.verify_core(a, x, xref, sum_y)
    }

    /// [`SingleChecksum::verify`] with the output checksum `Σᵢ ỹᵢ` taken
    /// from a fused product probe instead of a separate sweep over `y`.
    ///
    /// `probe` must be the probe of the product output this call is
    /// verifying (see [`ftcg_sparse::fused::probe_of`]; `probe[0]` is
    /// bit-identical to `y.iter().sum::<f64>()`). The outcome is then
    /// bit-for-bit the outcome [`SingleChecksum::verify`] would return
    /// for that `y`, with one fewer O(n) sweep on the hot path.
    pub fn verify_probed(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        xref: &XRef,
        probe: &[f64; 2],
    ) -> SingleOutcome {
        self.verify_core(a, x, xref, probe[0])
    }

    /// Shared tail of the two `verify` entry points: everything after
    /// the `Σ ỹᵢ` sweep, with the three remaining sum chains (Σ x̃ᵢ,
    /// ĉᵀx̃, ĉᵀx′) fused into one pass. Each chain keeps its original
    /// element order, so residues are bit-identical to the
    /// separate-sweep formulation; the `‖·‖∞` reductions stay separate
    /// sweeps on purpose — `max` folds vectorize on their own but
    /// serialize a fused loop when interleaved with the strict FP sum
    /// chains.
    fn verify_core(&self, a: &CsrMatrix, x: &[f64], xref: &XRef, sum_y: f64) -> SingleOutcome {
        assert_eq!(x.len(), self.n, "verify: x length mismatch");
        assert_eq!(xref.xcopy.len(), self.n, "verify: xref length mismatch");

        // Test (iii): exact integer row-pointer checksum.
        let sr = rowptr_sum(a.rowptr());
        let dr = (self.cr as i128).wrapping_sub(sr as i128);

        // One pass for the three sum chains: Σ x̃ᵢ, test (i)'s ĉᵀx̃ and
        // test (ii)'s ĉᵀx′. Each chain starts from -0.0, matching
        // `Iterator::sum` exactly.
        let mut sum_x = -0.0f64;
        let mut lhs1 = -0.0f64;
        let mut lhs2 = -0.0f64;
        for ((&xv, &cv), &xpv) in x.iter().zip(&self.c).zip(&xref.xcopy) {
            sum_x += xv;
            lhs1 += cv * xv;
            lhs2 += cv * xpv;
        }
        let xni = vector::norm_inf(x).max(vector::norm_inf(&xref.xcopy));

        // Common right-hand side: Σ ỹᵢ + k·Σ x̃ᵢ (the auxiliary y_{n+1}).
        let rhs = sum_y + self.k * sum_x;
        let d1 = lhs1 - rhs;
        let d2 = lhs2 - rhs;
        if dr != 0 || self.tol.is_error(d1, xni) || self.tol.is_error(d2, xni) {
            SingleOutcome::Detected { d1, d2, dr }
        } else {
            SingleOutcome::Clean
        }
    }

    /// Defensive kernel ([`CsrMatrix::spmv_clamped_into`]) +
    /// verification in one call.
    pub fn spmv_detect(
        &self,
        a: &CsrMatrix,
        x: &[f64],
        xref: &XRef,
        y: &mut [f64],
    ) -> SingleOutcome {
        a.spmv_clamped_into(x, y);
        self.verify(a, x, xref, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    fn setup(n: usize, seed: u64) -> (CsrMatrix, SingleChecksum, Vec<f64>, XRef) {
        let a = gen::random_spd(n, 0.08, seed).unwrap();
        let s = SingleChecksum::new(&a);
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.53).sin() + 1.2).collect();
        let xref = XRef::capture(&x);
        (a, s, x, xref)
    }

    #[test]
    fn clean_product_passes() {
        for seed in 0..10 {
            let (a, s, x, xref) = setup(60, seed);
            let mut y = vec![0.0; 60];
            assert_eq!(
                s.spmv_detect(&a, &x, &xref, &mut y),
                SingleOutcome::Clean,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn detects_val_error() {
        let (a, s, x, xref) = setup(50, 1);
        let mut b = a.clone();
        b.val_mut()[4] += 1.0;
        let mut y = vec![0.0; 50];
        assert!(!s.spmv_detect(&b, &x, &xref, &mut y).is_trusted());
    }

    #[test]
    fn detects_colid_error() {
        let (a, s, x, xref) = setup(50, 2);
        let mut b = a.clone();
        let k = 3;
        b.colid_mut()[k] = (b.colid()[k] + 11) % 50;
        let mut y = vec![0.0; 50];
        assert!(!s.spmv_detect(&b, &x, &xref, &mut y).is_trusted());
    }

    #[test]
    fn detects_rowptr_error_exactly() {
        let (a, s, x, xref) = setup(50, 3);
        let mut b = a.clone();
        b.rowptr_mut()[9] += 1;
        let mut y = vec![0.0; 50];
        match s.spmv_detect(&b, &x, &xref, &mut y) {
            SingleOutcome::Detected { dr, .. } => assert_eq!(dr, -1),
            SingleOutcome::Clean => panic!("missed rowptr error"),
        }
    }

    #[test]
    fn detects_x_error() {
        let (a, s, mut x, xref) = setup(50, 4);
        x[13] += 2.0;
        let mut y = vec![0.0; 50];
        let out = s.spmv_detect(&a, &x, &xref, &mut y);
        match out {
            SingleOutcome::Detected { d1, d2, .. } => {
                // (i) consistent, (ii) catches the input error.
                assert!(d2.abs() > d1.abs());
            }
            SingleOutcome::Clean => panic!("missed x error"),
        }
    }

    #[test]
    fn detects_output_error() {
        let (a, s, x, xref) = setup(50, 5);
        let mut y = vec![0.0; 50];
        a.spmv_clamped_into(&x, &mut y);
        y[7] -= 4.0;
        assert!(!s.verify(&a, &x, &xref, &y).is_trusted());
    }

    #[test]
    fn unshifted_misses_x_error_in_zero_sum_column() {
        // The exact failure mode motivating the paper's shift: a graph
        // Laplacian has all-zero column sums; without the shift an input
        // error is invisible to the checksum tests.
        let a = gen::graph_laplacian(30, 60, 0.0, 7).unwrap();
        let unshifted = SingleChecksum::with_shift(&a, false);
        assert_eq!(unshifted.shift(), 0.0);
        let x: Vec<f64> = (0..30).map(|i| 0.5 + (i as f64) * 0.01).collect();
        let xref = XRef::capture(&x);
        let mut xc = x.clone();
        xc[11] += 1000.0; // large, would corrupt the solve badly
        let mut y = vec![0.0; 30];
        let out = unshifted.spmv_detect(&a, &xc, &xref, &mut y);
        assert!(
            out.is_trusted(),
            "unshifted checksum should MISS this error (that is the bug)"
        );
    }

    #[test]
    fn shifted_catches_x_error_in_zero_sum_column() {
        let a = gen::graph_laplacian(30, 60, 0.0, 7).unwrap();
        let shifted = SingleChecksum::new(&a);
        assert!(shifted.shift() >= 1.0);
        let x: Vec<f64> = (0..30).map(|i| 0.5 + (i as f64) * 0.01).collect();
        let xref = XRef::capture(&x);
        let mut xc = x.clone();
        xc[11] += 1000.0;
        let mut y = vec![0.0; 30];
        let out = shifted.spmv_detect(&a, &xc, &xref, &mut y);
        assert!(!out.is_trusted(), "shifted checksum must catch the error");
    }

    #[test]
    fn no_false_positives_many_products() {
        let (a, s, _, _) = setup(80, 6);
        for run in 0..50u64 {
            let x: Vec<f64> = (0..80)
                .map(|i| ((i as f64 - run as f64) * 0.9).cos() * (1.0 + run as f64))
                .collect();
            let xref = XRef::capture(&x);
            let mut y = vec![0.0; 80];
            assert!(
                s.spmv_detect(&a, &x, &xref, &mut y).is_trusted(),
                "false positive at run {run}"
            );
        }
    }

    #[test]
    fn no_false_positive_on_shifted_laplacian() {
        let a = gen::graph_laplacian(40, 90, 0.0, 9).unwrap();
        let s = SingleChecksum::new(&a);
        for run in 0..20u64 {
            let x: Vec<f64> = (0..40).map(|i| ((i + run as usize) as f64).sin()).collect();
            let xref = XRef::capture(&x);
            let mut y = vec![0.0; 40];
            assert!(s.spmv_detect(&a, &x, &xref, &mut y).is_trusted());
        }
    }

    fn assert_outcome_bits(plain: &SingleOutcome, probed: &SingleOutcome) {
        match (plain, probed) {
            (SingleOutcome::Clean, SingleOutcome::Clean) => {}
            (
                SingleOutcome::Detected { d1, d2, dr },
                SingleOutcome::Detected {
                    d1: e1,
                    d2: e2,
                    dr: er,
                },
            ) => {
                assert_eq!(d1.to_bits(), e1.to_bits(), "d1 bits differ");
                assert_eq!(d2.to_bits(), e2.to_bits(), "d2 bits differ");
                assert_eq!(dr, er, "dr differs");
            }
            other => panic!("outcomes diverge: {other:?}"),
        }
    }

    #[test]
    fn verify_probed_is_bit_identical_to_verify() {
        use ftcg_sparse::fused;
        for seed in 0..6 {
            let (a, s, x, xref) = setup(40, seed);
            let mut y = vec![0.0; 40];
            a.spmv_clamped_into(&x, &mut y);

            // Clean plus one corruption per protected array; every case
            // must give bit-identical residues through both entry points.
            let mut cases: Vec<(CsrMatrix, Vec<f64>, Vec<f64>)> = Vec::new();
            cases.push((a.clone(), x.clone(), y.clone()));
            let mut b = a.clone();
            b.val_mut()[2] += 0.75;
            cases.push((b, x.clone(), y.clone()));
            let mut b = a.clone();
            b.rowptr_mut()[11] += 3;
            cases.push((b, x.clone(), y.clone()));
            let mut xc = x.clone();
            xc[9] = f64::NAN;
            cases.push((a.clone(), xc, y.clone()));
            let mut yc = y.clone();
            yc[0] = -0.0;
            yc[17] += 2.0;
            cases.push((a.clone(), x.clone(), yc));

            for (b, xc, yc) in &cases {
                let plain = s.verify(b, xc, &xref, yc);
                let probed = s.verify_probed(b, xc, &xref, &fused::probe_of(yc));
                assert_outcome_bits(&plain, &probed);
            }
        }
    }

    #[test]
    fn detects_nan_input() {
        let (a, s, mut x, xref) = setup(30, 8);
        x[0] = f64::NAN;
        let mut y = vec![0.0; 30];
        assert!(!s.spmv_detect(&a, &x, &xref, &mut y).is_trusted());
    }
}
