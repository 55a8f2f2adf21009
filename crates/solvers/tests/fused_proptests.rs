//! Property tests for the fused hot-path sweeps.
//!
//! Two layers of the bit-exactness contract from
//! `ftcg_sparse::fused` are pinned here:
//!
//! 1. **Op level** — every fused one-pass kernel produces exactly the
//!    bits of the separate `vector::` sweeps it replaces, on generated
//!    vectors that include the awkward corners (`±0.0`, `NaN`, `±∞`,
//!    subnormal-scale and huge magnitudes). The in-crate unit tests
//!    check hand-picked vectors; these properties search the space.
//! 2. **Solve level** — per scheme under real fault
//!    injection, a resilient solve through the fused machine, the
//!    probe-carrying product, and the
//!    probed verifiers is bit-reproducible: an identical injector seed
//!    on a dirty, previously-used workspace replays the exact outcome
//!    of a fresh-workspace solve, counters and iterate included. If a
//!    fused sweep ever read stale state, depended on buffer history, or
//!    the probe path diverged from the plain checksum sweeps, the
//!    replay would split at the first differing bit.

use ftcg_fault::paper_injector;
use ftcg_model::Scheme;
use ftcg_solvers::resilient::{solve_resilient_in, ResilientConfig};
use ftcg_solvers::{ResilientOutcome, SolverWorkspace};
use ftcg_sparse::{fused, gen, vector};
use proptest::prelude::*;

/// Generated element: mostly finite sign-mixed values across many
/// binades, salted with the IEEE-754 corner cases.
fn element() -> impl Strategy<Value = f64> {
    (0u8..14, -1.0e3f64..1.0e3).prop_map(|(tag, v)| match tag {
        0..=7 => v,
        8 | 9 => v * 1.0e-303, // subnormal scale
        10 => 0.0,
        11 => -0.0,
        12 => f64::NAN,
        _ => {
            if v < 0.0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        }
    })
}

fn vecs(k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (0usize..64).prop_flat_map(move |n| {
        proptest::collection::vec(proptest::collection::vec(element(), n), k)
    })
}

fn scalar() -> impl Strategy<Value = f64> {
    (0u8..8, -4.0f64..4.0).prop_map(|(tag, v)| match tag {
        0..=5 => v,
        6 => 0.0,
        _ => -0.0,
    })
}

/// Bit equality, except any NaN matches any NaN: Rust does not fix
/// which NaN bit pattern an invalid operation produces (a const-folded
/// `∞ + (−∞)` and the executed `addsd` can disagree on the sign bit),
/// so the fused contract's bit-identity only covers non-NaN results.
fn bits_eq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert!(bits_eq(a, b), "{what}: {a} vs {b}");
}

fn assert_bits_vec(a: &[f64], b: &[f64], what: &str) {
    for i in 0..a.len() {
        assert!(bits_eq(a[i], b[i]), "{what}[{i}]: {} vs {}", a[i], b[i]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `probe_of` reproduces the ABFT checksum chains (`.sum()` from
    /// `-0.0`, weights `1` and `i+1`) on arbitrary inputs.
    #[test]
    fn probe_matches_checksum_sweeps(v in vecs(1)) {
        let y = &v[0];
        let p = fused::probe_of(y);
        let want0: f64 = y.iter().sum();
        let want1: f64 = y.iter().enumerate().map(|(i, &v)| (i + 1) as f64 * v).sum();
        assert_bits(p[0], want0, "probe[0]");
        assert_bits(p[1], want1, "probe[1]");
    }

    /// `axpy2_norm2_sq` ≡ `axpy; axpy; norm2_sq` — the CG tail.
    #[test]
    fn axpy2_norm2_sq_matches_separate_sweeps(
        v in vecs(4),
        a in scalar(),
        c in scalar(),
    ) {
        let (p, q) = (&v[0], &v[1]);
        let mut x = v[2].clone();
        let mut r = v[3].clone();
        let (mut x_ref, mut r_ref) = (x.clone(), r.clone());
        let got = fused::axpy2_norm2_sq(a, p, &mut x, c, q, &mut r);
        vector::axpy(a, p, &mut x_ref);
        vector::axpy(c, q, &mut r_ref);
        assert_bits_vec(&x, &x_ref, "x");
        assert_bits_vec(&r, &r_ref, "r");
        assert_bits(got, vector::norm2_sq(&r_ref), "norm2_sq");
    }

    /// `xpay_norm2_sq` ≡ the `y = x + b·y` loop + `norm2_sq(v)`.
    #[test]
    fn xpay_norm2_sq_matches_separate_sweeps(v in vecs(3), b in scalar()) {
        let (x, w) = (&v[0], &v[1]);
        let mut y = v[2].clone();
        let mut y_ref = y.clone();
        let got = fused::xpay_norm2_sq(x, b, &mut y, w);
        for i in 0..y_ref.len() {
            y_ref[i] = x[i] + b * y_ref[i];
        }
        assert_bits_vec(&y, &y_ref, "y");
        assert_bits(got, vector::norm2_sq(w), "norm2_sq");
    }

}

fn assert_outcome_bitexact(label: &str, x: &ResilientOutcome, y: &ResilientOutcome) {
    assert_eq!(x.converged, y.converged, "{label}: converged");
    assert_eq!(
        x.productive_iterations, y.productive_iterations,
        "{label}: productive"
    );
    assert_eq!(
        x.executed_iterations, y.executed_iterations,
        "{label}: executed"
    );
    assert_eq!(
        x.simulated_time.to_bits(),
        y.simulated_time.to_bits(),
        "{label}: simulated time"
    );
    assert_eq!(x.checkpoints, y.checkpoints, "{label}: checkpoints");
    assert_eq!(x.rollbacks, y.rollbacks, "{label}: rollbacks");
    assert_eq!(x.detections, y.detections, "{label}: detections");
    assert_eq!(
        x.true_residual.to_bits(),
        y.true_residual.to_bits(),
        "{label}: true residual"
    );
    assert_bits_vec(&x.x, &y.x, label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Solve-level replay: for every scheme under
    /// fault injection, a second solve with an identical injector seed
    /// on the (now dirty) workspace reproduces the first outcome bit
    /// for bit — the fused sweeps, probe-carrying products and probed
    /// verifiers leave no history behind.
    #[test]
    fn fused_solves_replay_bitexact_across_the_grid(
        n in 30usize..70,
        density_mil in 40usize..90,
        seed in 0u64..300,
        s in 2usize..8,
    ) {
        const ALPHA: f64 = 1.0 / 16.0;
        let a = gen::random_spd(n, density_mil as f64 / 1000.0, seed).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.29).sin()).collect();
        let mut fresh = SolverWorkspace::new();
        let mut dirty = SolverWorkspace::new();
        for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection, Scheme::OnlineDetection] {
            let mut cfg = ResilientConfig::new(scheme, s);
            cfg.max_productive_iters = 30;
            cfg.max_executed_iters = 300;
            let mut inj = paper_injector(&a, ALPHA, seed ^ 0xf00d);
            let first = solve_resilient_in(&a, &b, &cfg, Some(&mut inj), &mut fresh);
            let mut inj = paper_injector(&a, ALPHA, seed ^ 0xf00d);
            let replay = solve_resilient_in(&a, &b, &cfg, Some(&mut inj), &mut dirty);
            assert_outcome_bitexact(&format!("{scheme:?}"), &first, &replay);
        }
    }
}
