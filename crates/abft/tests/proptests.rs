//! Property tests for the ABFT layer: every *single* injected fault in
//! the protected region must be either corrected (dual scheme), detected
//! (single scheme), or provably below the rounding tolerance — never a
//! silent large corruption.

use ftcg_abft::{ProtectedSpmv, SingleChecksum, SpmvOutcome, XRef};
use ftcg_fault::target::VectorId;
use ftcg_fault::{paper_injector, FaultEvent, FaultTarget, Injector};
use ftcg_sparse::{gen, vector, CsrMatrix};
use proptest::prelude::*;

fn make_matrix(seed: u64) -> CsrMatrix {
    gen::random_spd(40, 0.08, seed).unwrap()
}

fn make_x(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + seed as f64) * 0.61).sin() * 2.0 + 0.3)
        .collect()
}

/// Applies one matrix/vector-x fault drawn by the real injector.
fn apply_fault(e: &FaultEvent, a: &mut CsrMatrix, x: &mut [f64]) -> bool {
    match e.target {
        FaultTarget::Vector(VectorId::P) => {
            // model "input vector" faults on x
            let v = &mut x[e.offset % x.len()];
            *v = f64::from_bits(v.to_bits() ^ (1u64 << e.bit));
            true
        }
        FaultTarget::Vector(_) => false,
        _ => Injector::apply_to_matrix(e, a),
    }
}

/// One to five flips as `(region, word, bit)` draws, mapped onto a
/// matrix by [`full_range_event`].
fn full_range_flips() -> impl Strategy<Value = Vec<(u8, usize, u32)>> {
    proptest::collection::vec((0u8..4, 0usize..1 << 20, 0u32..64), 1..6)
}

/// A flip of `Val`, `Colid`, `Rowidx` or the input vector `x` (as
/// `VectorId::P`), anywhere in the word: every bit of a 32-bit index,
/// not just the in-bounds range the paper's injector draws from — the
/// nastiest case for kernel safety.
fn full_range_event(a: &CsrMatrix, region: u8, word: usize, bit: u32) -> FaultEvent {
    let (target, len, bits) = match region {
        0 => (FaultTarget::MatrixVal, a.nnz(), 64),
        1 => (FaultTarget::MatrixColid, a.nnz(), 32),
        2 => (FaultTarget::MatrixRowidx, a.n_rows() + 1, 32),
        _ => (FaultTarget::Vector(VectorId::P), a.n_rows(), 64),
    };
    FaultEvent {
        target,
        offset: word % len,
        bit: bit % bits,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dual scheme: any single injected fault leads to a trusted outcome
    /// (corrected or provably-below-tolerance) or a detection — and when
    /// the outcome is trusted, the result is numerically clean.
    #[test]
    fn single_fault_never_silently_corrupts(mseed in 0u64..20, fseed in 0u64..500) {
        let a = make_matrix(mseed);
        let n = a.n_rows();
        let p = ProtectedSpmv::new(&a);
        let x0 = make_x(n, mseed);
        let xref = XRef::capture(&x0);
        let clean_y = a.spmv(&x0);

        let mut inj = paper_injector(&a, 1.0, fseed);

        let mut b = a.clone();
        let mut x = x0.clone();
        let e = inj.draw_event();
        if !apply_fault(&e, &mut b, &mut x) {
            return Ok(()); // fault targeted an unmodeled vector; skip
        }

        let mut y = vec![0.0; n];
        let out = p.spmv_correct(&mut b, &mut x, &xref, &mut y);
        match out {
            SpmvOutcome::Clean => {
                // Below tolerance: the perturbation must be small.
                let err = vector::max_abs_diff(&y, &clean_y);
                let bound = p.checksums().norm1 * vector::norm_inf(&x0);
                prop_assert!(
                    err <= 1e-6 * (1.0 + bound),
                    "undetected error too large: {err} (event {e:?})"
                );
            }
            SpmvOutcome::Corrected(_) => {
                let err = vector::max_abs_diff(&y, &clean_y);
                prop_assert!(
                    err <= 1e-7 * (1.0 + vector::norm_inf(&clean_y)),
                    "mis-correction: {err} (event {e:?})"
                );
            }
            SpmvOutcome::Detected(_) => {
                // Acceptable conservative fallback (caller rolls back).
            }
        }
    }

    /// Single-checksum scheme: same guarantee at detection level.
    #[test]
    fn single_scheme_detects_or_below_tolerance(mseed in 0u64..20, fseed in 0u64..500) {
        let a = make_matrix(mseed);
        let n = a.n_rows();
        let s = SingleChecksum::new(&a);
        let x0 = make_x(n, mseed + 1000);
        let xref = XRef::capture(&x0);
        let clean_y = a.spmv(&x0);

        let mut inj = paper_injector(&a, 1.0, fseed);

        let mut b = a.clone();
        let mut x = x0.clone();
        let e = inj.draw_event();
        if !apply_fault(&e, &mut b, &mut x) {
            return Ok(());
        }

        let mut y = vec![0.0; n];
        let out = s.spmv_detect(&b, &x, &xref, &mut y);
        if out.is_trusted() {
            let err = vector::max_abs_diff(&y, &clean_y);
            let bound = a.norm1() * vector::norm_inf(&x0);
            prop_assert!(
                err <= 1e-6 * (1.0 + bound),
                "undetected error too large: {err} (event {e:?})"
            );
        }
    }

    /// The defensive kernel never panics, whatever the corruption.
    #[test]
    fn defensive_kernel_total(mseed in 0u64..10, flips in full_range_flips()) {
        let a = make_matrix(mseed);
        let n = a.n_rows();
        let mut b = a.clone();
        let mut x = make_x(n, mseed);
        for (region, word, bit) in flips {
            let e = full_range_event(&a, region, word, bit);
            apply_fault(&e, &mut b, &mut x);
        }
        let p = ProtectedSpmv::new(&a);
        let mut y = vec![0.0; n];
        p.spmv(&b, &x, &mut y); // must not panic
        let xref = XRef::capture(&make_x(n, mseed));
        let _ = p.verify(&b, &x, &xref, &y); // must not panic either
    }

    /// Correction restores row-pointer corruption bit-exactly for every
    /// position and every small delta.
    #[test]
    fn rowptr_repair_exact(mseed in 0u64..8, t_frac in 0.0f64..1.0, delta in 1i64..64) {
        let a = make_matrix(mseed);
        let n = a.n_rows();
        let p = ProtectedSpmv::new(&a);
        let x0 = make_x(n, mseed);
        let xref = XRef::capture(&x0);
        let t = ((n as f64 * t_frac) as usize).min(n);
        let mut b = a.clone();
        b.rowptr_mut()[t] = (b.rowptr()[t] as i64 + delta).max(0) as u32;
        if b.rowptr() == a.rowptr() {
            return Ok(());
        }
        let mut x = x0.clone();
        let mut y = vec![0.0; n];
        let out = p.spmv_correct(&mut b, &mut x, &xref, &mut y);
        prop_assert!(matches!(out, SpmvOutcome::Corrected(_)), "{out:?}");
        prop_assert_eq!(b.rowptr(), a.rowptr());
    }
}
