//! End-to-end tests of the resilient executor: CG under every scheme
//! must survive fault injection.

use ftcg_fault::paper_injector;
use ftcg_model::Scheme;
use ftcg_solvers::resilient::{solve_resilient, ResilientConfig};
use ftcg_sparse::{gen, vector, CsrMatrix};

fn test_system(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = gen::random_spd(n, 0.05, seed).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    (a, b)
}

fn config(scheme: Scheme) -> ResilientConfig {
    let mut cfg = ResilientConfig::new(scheme, 8);
    if scheme == Scheme::OnlineDetection {
        cfg.verif_interval = 4;
    }
    cfg
}

#[test]
fn every_solver_converges_fault_free_under_every_scheme() {
    let (a, b) = test_system(150, 1);
    for scheme in Scheme::ALL {
        let out = solve_resilient(&a, &b, &config(scheme), None);
        assert!(out.converged, "{scheme:?}");
        assert_eq!(out.rollbacks, 0, "{scheme:?}");
        assert_eq!(out.detections, 0, "{scheme:?}");
        assert_eq!(out.executed_iterations, out.productive_iterations);
        let rel = out.true_residual / vector::norm2(&b);
        assert!(rel < 1e-6, "{scheme:?}: residual {rel}");
    }
}

#[test]
fn fault_free_resilient_matches_plain_solver_iterations() {
    // With no faults the executor is the plain machine plus protocol
    // bookkeeping: the productive trajectory must be the plain one.
    use ftcg_solvers::{cg_solve, CgConfig};
    let (a, b) = test_system(140, 2);
    let plain = cg_solve(&a, &b, &vec![0.0; 140], &CgConfig::default());
    let out = solve_resilient(&a, &b, &config(Scheme::AbftCorrection), None);
    assert_eq!(out.productive_iterations, plain.iterations);
    assert_eq!(out.x, plain.x);
}

#[test]
fn abft_correction_protects_every_solver() {
    let (a, b) = test_system(150, 3);
    let mut total_faults = 0usize;
    for seed in 0..4 {
        let mut inj = paper_injector(&a, 1.0 / 16.0, seed);
        let out = solve_resilient(&a, &b, &config(Scheme::AbftCorrection), Some(&mut inj));
        assert!(out.converged, "seed {seed}");
        let rel = out.true_residual / vector::norm2(&b);
        assert!(rel < 1e-6, "seed {seed}: residual {rel}");
        total_faults += out.ledger.len();
    }
    assert!(total_faults > 0, "rate too low to exercise recovery");
}

#[test]
fn abft_detection_protects_every_solver() {
    let (a, b) = test_system(150, 4);
    for seed in 0..4 {
        let mut inj = paper_injector(&a, 1.0 / 16.0, seed);
        let out = solve_resilient(&a, &b, &config(Scheme::AbftDetection), Some(&mut inj));
        assert!(out.converged, "seed {seed}");
        let rel = out.true_residual / vector::norm2(&b);
        assert!(rel < 1e-6, "seed {seed}: residual {rel}");
    }
}

#[test]
fn online_detection_protects_every_solver() {
    let (a, b) = test_system(150, 5);
    for seed in 0..4 {
        let mut inj = paper_injector(&a, 1.0 / 32.0, seed);
        let out = solve_resilient(&a, &b, &config(Scheme::OnlineDetection), Some(&mut inj));
        assert!(out.converged, "seed {seed}");
        let rel = out.true_residual / vector::norm2(&b);
        assert!(rel < 1e-6, "seed {seed}: residual {rel}");
    }
}

#[test]
fn abft_time_accounting_charges_one_verified_product_per_iteration() {
    // Fault-free ABFT run: each executed iteration runs exactly one
    // verified product, so time = executed·(1 + Tverif) + ck·Tcp.
    let (a, b) = test_system(120, 11);
    let cfg = config(Scheme::AbftDetection);
    let out = solve_resilient(&a, &b, &cfg, None);
    assert!(out.converged);
    assert_eq!(out.product_checks, out.executed_iterations);
    let want = out.executed_iterations as f64 * (1.0 + cfg.costs.tverif)
        + out.checkpoints as f64 * cfg.costs.tcp;
    assert!(
        (out.simulated_time - want).abs() < 1e-9,
        "time {} vs {want}",
        out.simulated_time
    );
}

#[test]
fn online_never_false_positives_fault_free() {
    // Chen's stability tests must stay silent on clean runs — a false
    // positive would rollback-loop forever.
    let (a, b) = test_system(200, 6);
    let mut cfg = config(Scheme::OnlineDetection);
    cfg.verif_interval = 2; // verify often
    let out = solve_resilient(&a, &b, &cfg, None);
    assert!(out.converged);
    assert_eq!(out.detections, 0, "clean run false positive");
}

#[test]
fn every_solver_is_deterministic_given_seed() {
    let (a, b) = test_system(120, 7);
    for scheme in Scheme::ALL {
        let cfg = config(scheme);
        let mut i1 = paper_injector(&a, 1.0 / 8.0, 77);
        let o1 = solve_resilient(&a, &b, &cfg, Some(&mut i1));
        let mut i2 = paper_injector(&a, 1.0 / 8.0, 77);
        let o2 = solve_resilient(&a, &b, &cfg, Some(&mut i2));
        assert_eq!(o1.x, o2.x, "{scheme:?}");
        assert_eq!(o1.simulated_time, o2.simulated_time, "{scheme:?}");
        assert_eq!(o1.rollbacks, o2.rollbacks, "{scheme:?}");
    }
}

#[test]
fn high_fault_rate_terminates_for_every_solver() {
    let (a, b) = test_system(80, 10);
    let mut cfg = config(Scheme::AbftDetection);
    cfg.max_executed_iters = 2_000;
    let mut inj = paper_injector(&a, 0.9, 33);
    let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
    assert!(out.executed_iterations <= 2_000);
}
