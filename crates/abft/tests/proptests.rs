//! Property tests for the ABFT layer: every *single* injected fault in
//! the protected region must be either corrected (dual scheme), detected
//! (single scheme), or provably below the rounding tolerance — never a
//! silent large corruption. Each case also runs on an overlay of the
//! same flips over the clean matrix (`CsrOverlay`), which must match the
//! materialized corrupted matrix bit for bit: product and probe, the
//! residues of both schemes, and what a correction returns and writes.

use ftcg_abft::{ProtectedSpmv, SingleChecksum, SpmvOutcome, XRef};
use ftcg_fault::target::VectorId;
use ftcg_fault::{paper_injector, FaultEvent, FaultTarget, Injector};
use ftcg_sparse::{gen, vector, CsrMatrix, CsrOverlay, CsrWord, CsrWords, Flips, RowOrder};
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
fn apply_fault(e: &FaultEvent, a: &mut impl CsrWords, x: &mut [f64]) -> bool {
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every word of `o` reads as the word of `m` at its address.
fn assert_same_words(o: &impl CsrWords, m: &CsrMatrix) {
    let words = (0..m.nnz())
        .flat_map(|k| [CsrWord::Val(k), CsrWord::Colid(k)])
        .chain((0..=m.n_rows()).map(CsrWord::Rowidx));
    for at in words {
        assert_eq!(o.read(at), m.read(at), "{at:?}");
    }
    assert_eq!(o.rowptr_sums(), m.rowptr_sums());
}

/// The protected product on the overlay `o` and on the materialized
/// corrupted matrix `m` (inputs `xo` and `xm`, equal): the product and
/// its probe, both schemes' residues and, when the dual residues fail,
/// the correction's outcome, the `x`/`y` it leaves and the matrix words
/// it writes — each pair equal bit for bit. Returns `m`'s outcome and
/// output.
fn assert_overlay_matches(
    p: &ProtectedSpmv,
    s: &SingleChecksum,
    o: &mut CsrOverlay,
    m: &mut CsrMatrix,
    (xo, xm): (&mut [f64], &mut [f64]),
    xref: &XRef,
) -> (SpmvOutcome, Vec<f64>) {
    let n = m.n_rows();
    let mut order = RowOrder::new();
    order.rebuild(o.base());
    let (mut yo, mut ym) = (vec![0.0; n], vec![0.0; n]);
    let po = o.spmv_clamped_probe_ordered_into(&order, xo, &mut yo);
    m.spmv_clamped_into(xm, &mut ym);
    assert_eq!(bits(&yo), bits(&ym), "product");
    assert_eq!(bits(&po), bits(&ftcg_sparse::fused::probe_of(&ym)), "probe");
    let res_o = p.verify_probed(o, xo, xref, &po);
    let res_m = p.verify(m, xm, xref, &ym);
    // `Debug` renders every residue bit of a non-NaN float.
    assert_eq!(format!("{res_o:?}"), format!("{res_m:?}"), "dual residues");
    let single = (
        s.verify_probed(o, xo, xref, &po),
        s.verify(m, xm, xref, &ym),
    );
    assert_eq!(
        format!("{:?}", single.0),
        format!("{:?}", single.1),
        "single residues"
    );
    let out = if res_m.clean() {
        SpmvOutcome::Clean
    } else {
        let out_o = p.correct(o, xo, xref, &mut yo, &res_o);
        let out_m = p.correct(m, xm, xref, &mut ym, &res_m);
        assert_eq!(format!("{out_o:?}"), format!("{out_m:?}"), "correction");
        assert_eq!(bits(&yo), bits(&ym), "corrected output");
        assert_eq!(bits(xo), bits(xm), "corrected input");
        out_m
    };
    assert_same_words(o, m);
    (out, ym)
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
        let mut flips = Flips::new();
        let mut overlay = CsrOverlay::new(&a, &mut flips);
        let mut x = x0.clone();
        let mut xo = x0.clone();
        let e = inj.draw_event();
        if !apply_fault(&e, &mut b, &mut x) {
            return Ok(()); // fault targeted an unmodeled vector; skip
        }
        apply_fault(&e, &mut overlay, &mut xo);

        let mut bo = b.clone();
        let mut xm = x.clone();
        let mut y = vec![0.0; n];
        let out = p.spmv_correct(&mut b, &mut x, &xref, &mut y);
        let s = SingleChecksum::new(&a);
        let (out_m, ym) = assert_overlay_matches(&p, &s, &mut overlay, &mut bo, (&mut xo, &mut xm), &xref);
        prop_assert_eq!(format!("{out:?}"), format!("{out_m:?}"));
        prop_assert_eq!(bits(&y), bits(&ym));
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

    /// The defensive kernel never panics, whatever the corruption, and
    /// an overlay of the same flips reads, multiplies, checks and
    /// repairs exactly as the corrupted matrix does.
    #[test]
    fn defensive_kernel_total(mseed in 0u64..10, flips in full_range_flips()) {
        let a = make_matrix(mseed);
        let n = a.n_rows();
        let mut b = a.clone();
        let mut store = Flips::new();
        let mut overlay = CsrOverlay::new(&a, &mut store);
        let mut x = make_x(n, mseed);
        let mut xo = x.clone();
        for (region, word, bit) in flips {
            let e = full_range_event(&a, region, word, bit);
            apply_fault(&e, &mut b, &mut x);
            apply_fault(&e, &mut overlay, &mut xo);
        }
        let p = ProtectedSpmv::new(&a);
        let mut y = vec![0.0; n];
        p.spmv(&b, &x, &mut y); // must not panic
        let xref = XRef::capture(&make_x(n, mseed));
        let _ = p.verify(&b, &x, &xref, &y); // must not panic either
        let s = SingleChecksum::new(&a);
        assert_overlay_matches(&p, &s, &mut overlay, &mut b, (&mut xo, &mut x), &xref);
    }

    /// Wild structure on an overlay — `u32::MAX`, inverted and
    /// overlapping `Rowidx` words, out-of-range `Colid` words, NaN
    /// `Val` words, one to four of them — against the materialized
    /// matrix, with the input intact so a single flip is repairable.
    #[test]
    fn overlay_of_wild_flips_matches_the_materialized_matrix(
        mseed in 0u64..10,
        hits in proptest::collection::vec((0usize..4, 0usize..1 << 20, 0usize..1 << 20), 1..5),
    ) {
        let a = make_matrix(mseed);
        let (n, nnz) = (a.n_rows(), a.nnz());
        let mut m = a.clone();
        let mut store = Flips::new();
        let mut overlay = CsrOverlay::new(&a, &mut store);
        for (kind, at, to) in hits {
            let (at, word) = match kind {
                0 => (CsrWord::Rowidx(at % (n + 1)), u64::from(u32::MAX)),
                // inverted / overlapping
                1 => (CsrWord::Rowidx(at % (n + 1)), (to % (nnz + 2)) as u64),
                2 => (CsrWord::Colid(at % nnz), (n + to) as u64),
                _ => (CsrWord::Val(at % nnz), f64::NAN.to_bits()),
            };
            m.write(at, word);
            overlay.write(at, word);
        }
        let x = make_x(n, mseed);
        let xref = XRef::capture(&x);
        let (p, s) = (ProtectedSpmv::new(&a), SingleChecksum::new(&a));
        let (mut xo, mut xm) = (x.clone(), x);
        assert_overlay_matches(&p, &s, &mut overlay, &mut m, (&mut xo, &mut xm), &xref);
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
        let mut store = Flips::new();
        let mut overlay = CsrOverlay::new(&a, &mut store);
        overlay.write(CsrWord::Rowidx(t), u64::from(b.rowptr()[t]));
        let mut bo = b.clone();
        let mut x = x0.clone();
        let mut y = vec![0.0; n];
        let out = p.spmv_correct(&mut b, &mut x, &xref, &mut y);
        prop_assert!(matches!(out, SpmvOutcome::Corrected(_)), "{out:?}");
        prop_assert_eq!(b.rowptr(), a.rowptr());
        // On the overlay the repaired word is `a`'s again: no flip left.
        let s = SingleChecksum::new(&a);
        let (mut xo, mut xm) = (x0.clone(), x0.clone());
        assert_overlay_matches(&p, &s, &mut overlay, &mut bo, (&mut xo, &mut xm), &xref);
        prop_assert!(overlay.flips().is_empty());
    }
}
