//! The paper's qualitative claims C1–C5, each stated on its test below,
//! verified programmatically across the crates.

use ftcg::abft::{ProtectedSpmv, SingleChecksum, SpmvOutcome, XRef};
use ftcg::engine::inject::paper_injector;
use ftcg::prelude::*;
use ftcg::solvers::resilient::{solve_resilient, ResilientConfig};

fn system(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = gen::random_spd(n, 0.05, seed).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.23).cos()).collect();
    (a, b)
}

/// C1 — the last checkpoint is always valid: any number of rollbacks
/// later, the run still converges to the right solution, because
/// checkpoints are only taken behind passing verifications.
#[test]
fn c1_checkpoints_always_valid() {
    let (a, b) = system(150, 1);
    // High fault rate to force many rollbacks.
    let mut cfg = ResilientConfig::new(Scheme::AbftDetection, 6);
    cfg.max_executed_iters = 100_000;
    let mut failures = 0;
    let mut total_rollbacks = 0usize;
    for seed in 0..10 {
        let mut inj = paper_injector(&a, 0.3, seed);
        let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
        if !out.converged {
            failures += 1;
            continue;
        }
        // A seed can get lucky (few faults, none detected); the claim is
        // about runs that DID roll back, so require rollbacks only where
        // detections happened and assert plenty of coverage in aggregate.
        assert_eq!(
            out.rollbacks, out.detections,
            "seed {seed}: every detection must trigger a rollback"
        );
        total_rollbacks += out.rollbacks;
        let rel = out.true_residual / b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            rel < 1e-6,
            "seed {seed}: corrupted state survived rollback: {rel}"
        );
    }
    assert!(failures <= 2, "{failures}/10 runs failed to converge");
    assert!(
        total_rollbacks >= 10,
        "alpha=0.3 should exercise many rollbacks, saw {total_rollbacks}"
    );
}

/// C2 — forward recovery lets ABFT-CORRECTION checkpoint less often
/// (larger model-optimal s) and roll back (almost) never at moderate
/// rates.
#[test]
fn c2_correction_needs_fewer_checkpoints_and_rollbacks() {
    use ftcg::model::optimize;
    use ftcg::model::ResilienceCosts;
    let costs = ResilienceCosts::new(2.0, 2.0, 0.15);
    let alpha = 1.0 / 16.0;
    let s_det = optimize::optimal_abft_interval(Scheme::AbftDetection, alpha, 1.0, &costs, 2000).s;
    let s_cor = optimize::optimal_abft_interval(Scheme::AbftCorrection, alpha, 1.0, &costs, 2000).s;
    assert!(
        s_cor > s_det,
        "model: correction s {s_cor} !> detection s {s_det}"
    );

    let (a, b) = system(200, 2);
    let mut det_rb = 0usize;
    let mut cor_rb = 0usize;
    for seed in 0..6 {
        let mut inj = paper_injector(&a, alpha, seed);
        det_rb += solve_resilient(
            &a,
            &b,
            &ResilientConfig::new(Scheme::AbftDetection, s_det),
            Some(&mut inj),
        )
        .rollbacks;
        let mut inj = paper_injector(&a, alpha, seed);
        cor_rb += solve_resilient(
            &a,
            &b,
            &ResilientConfig::new(Scheme::AbftCorrection, s_cor),
            Some(&mut inj),
        )
        .rollbacks;
    }
    assert!(
        cor_rb * 3 <= det_rb.max(1),
        "correction rollbacks {cor_rb} should be far below detection's {det_rb}"
    );
}

/// C3 — the Theorem 2 tolerance yields zero false positives: thousands
/// of fault-free products never trip any test of either scheme.
#[test]
fn c3_no_false_positives() {
    for seed in 0..5u64 {
        let a = gen::random_spd(120, 0.06, seed).unwrap();
        let dual = ProtectedSpmv::new(&a);
        let single = SingleChecksum::new(&a);
        for trial in 0..200u64 {
            let scale = 10f64.powi((trial % 7) as i32 - 3);
            let x: Vec<f64> = (0..120)
                .map(|i| ((i as f64 + trial as f64) * 0.61).sin() * scale)
                .collect();
            let xref = XRef::capture(&x);
            let mut y = vec![0.0; 120];
            assert_eq!(
                dual.spmv_detect(&a, &x, &xref, &mut y),
                SpmvOutcome::Clean,
                "dual false positive: seed {seed} trial {trial}"
            );
            assert!(
                single.spmv_detect(&a, &x, &xref, &mut y).is_trusted(),
                "single false positive: seed {seed} trial {trial}"
            );
        }
    }
}

/// C4 — undetected (below-threshold) bit flips do not prevent
/// convergence to the correct solution.
#[test]
fn c4_sub_threshold_flips_harmless() {
    let (a, b) = system(150, 3);
    // Low mantissa bits only: perturbations far below the tolerance.
    let mut survived = 0;
    for seed in 0..5u64 {
        let mut am = a.clone();
        // Flip 20 low mantissa bits around the matrix.
        for k in 0..20usize {
            let pos = (seed as usize * 37 + k * 101) % am.nnz();
            let bit = (k % 8) as u32; // bits 0..8 of the mantissa
            let v = &mut am.val_mut()[pos];
            *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
        }
        let out = ftcg::ResilientCg::new(&am).solve(&b);
        if out.converged && out.true_residual < 1e-5 {
            survived += 1;
        }
    }
    assert_eq!(survived, 5, "sub-threshold perturbations must not break CG");
}

/// C5 — single-error correction restores bit-exact state for structure
/// and input-vector faults, and exact recomputation for outputs.
#[test]
fn c5_correction_exactness() {
    let a = gen::random_spd(100, 0.06, 4).unwrap();
    let p = ProtectedSpmv::new(&a);
    let x0: Vec<f64> = (0..100).map(|i| (i as f64 * 0.41).sin() + 1.1).collect();
    let xref = XRef::capture(&x0);
    let clean_y = a.spmv(&x0);

    // Rowidx: bit-exact.
    let mut am = a.clone();
    am.rowptr_mut()[33] ^= 0b100;
    let mut xm = x0.clone();
    let mut y = vec![0.0; 100];
    assert!(matches!(
        p.spmv_correct(&mut am, &mut xm, &xref, &mut y),
        SpmvOutcome::Corrected(_)
    ));
    assert_eq!(am.rowptr(), a.rowptr());
    assert_eq!(y, clean_y);

    // Colid: bit-exact.
    let mut am = a.clone();
    let old = am.colid()[50];
    am.colid_mut()[50] = (old + 17) % 100;
    let mut y = vec![0.0; 100];
    let out = p.spmv_correct(&mut am, &mut xm, &xref, &mut y);
    assert!(matches!(out, SpmvOutcome::Corrected(_)), "{out:?}");
    assert_eq!(am.colid()[50], old);
    assert_eq!(y, clean_y);

    // Input: bit-exact restore from the reliable copy.
    let mut am = a.clone();
    let mut xm = x0.clone();
    xm[70] = f64::from_bits(xm[70].to_bits() ^ (1 << 62));
    let mut y = vec![0.0; 100];
    assert!(matches!(
        p.spmv_correct(&mut am, &mut xm, &xref, &mut y),
        SpmvOutcome::Corrected(_)
    ));
    assert_eq!(xm[70].to_bits(), x0[70].to_bits());
    assert_eq!(y, clean_y);

    // Val: exact to checksum rounding. The paper's construction cannot
    // do better: the repaired value is solved from the floating-point
    // column checksum minus the column's other entries.
    let mut am = a.clone();
    let true_val = am.val()[20];
    am.val_mut()[20] += 3.25;
    let mut y = vec![0.0; 100];
    assert!(matches!(
        p.spmv_correct(&mut am, &mut xm, &xref, &mut y),
        SpmvOutcome::Corrected(_)
    ));
    assert!((am.val()[20] - true_val).abs() < 1e-10 * (1.0 + true_val.abs()));
}

/// The headline comparison: at moderate-to-high fault rates the
/// correction scheme's simulated time beats both others; at very low
/// rates ONLINE-DETECTION's cheap iterations make the three comparable.
#[test]
fn headline_scheme_ordering() {
    let (a, b) = system(220, 5);
    let mean_time = |scheme: Scheme, alpha: f64| {
        let mut total = 0.0;
        let reps = 12;
        for seed in 0..reps {
            let cfg = ftcg::ResilientCg::new(&a)
                .scheme(scheme)
                .fault_alpha(alpha)
                .config();
            let mut inj = paper_injector(&a, alpha, 40 + seed);
            total += solve_resilient(&a, &b, &cfg, Some(&mut inj)).simulated_time;
        }
        total / reps as f64
    };
    let alpha = 1.0 / 16.0; // moderate rate: the paper's sweet spot
    let t_online = mean_time(Scheme::OnlineDetection, alpha);
    let t_det = mean_time(Scheme::AbftDetection, alpha);
    let t_cor = mean_time(Scheme::AbftCorrection, alpha);
    assert!(
        t_cor < t_online && t_cor < t_det,
        "ABFT-CORRECTION ({t_cor:.1}) must win at alpha=1/16: online {t_online:.1}, detection {t_det:.1}"
    );
}

/// Regression: a sub-tolerance matrix corruption that slips into a
/// checkpoint and only becomes detectable later must not livelock the
/// rollback loop — the driver escalates to re-reading the initial data
/// (the paper's first-frame recovery) and still converges.
#[test]
fn tainted_checkpoint_escalates_instead_of_livelocking() {
    let spec = ftcg::sim::matrices::by_id(2213).unwrap();
    let a = spec.generate(64);
    let b = spec.rhs(a.n_rows());
    // Seeds found adversarial before the escalation guard existed.
    let mut worst_exec = 0usize;
    for seed in 0..30u64 {
        let cfg = ftcg::ResilientCg::new(&a)
            .scheme(Scheme::AbftDetection)
            .fault_alpha(0.01)
            .config();
        let mut inj = paper_injector(&a, 0.01, 1_000_000 + seed);
        let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
        assert!(
            out.converged,
            "seed {seed}: rollbacks={} exec={}",
            out.rollbacks, out.executed_iterations
        );
        worst_exec = worst_exec.max(out.executed_iterations);
        assert!(
            out.executed_iterations < 20 * out.productive_iterations.max(50),
            "seed {seed}: livelock signature ({} executed for {} productive)",
            out.executed_iterations,
            out.productive_iterations
        );
    }
    assert!(worst_exec > 0);
}
