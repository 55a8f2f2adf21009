//! Cross-crate end-to-end tests: generators → injection → resilient
//! solve → reporting, through the public `ftcg` facade.

use ftcg::prelude::*;
use ftcg::sim::{report, table1, PAPER_MATRICES};

#[test]
fn quickstart_flow_all_schemes() {
    let a = gen::poisson2d(20).unwrap();
    let n = a.n_rows();
    let xstar: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.25).collect();
    let b = a.spmv(&xstar);
    for scheme in Scheme::ALL {
        let out = ftcg::ResilientCg::new(&a)
            .scheme(scheme)
            .fault_alpha(1.0 / 32.0)
            .seed(11)
            .solve(&b);
        assert!(out.converged, "{}", scheme.name());
        let err = out
            .x
            .iter()
            .zip(xstar.iter())
            .map(|(u, v)| (u - v).abs())
            .fold(0.0_f64, f64::max);
        assert!(err < 1e-4, "{}: error {err}", scheme.name());
    }
}

#[test]
fn matrix_market_roundtrip_through_solver() {
    // Write a generated matrix to .mtx, read it back, solve.
    let a = gen::random_spd(120, 0.06, 3).unwrap();
    let dir = std::env::temp_dir().join("ftcg_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sys.mtx");
    io::write_matrix_market_file(&path, &a).unwrap();
    let a2 = io::read_matrix_market_file(&path).unwrap();
    assert_eq!(a.to_dense(), a2.to_dense());
    let b = vec![1.0; 120];
    let out = ftcg::ResilientCg::new(&a2).fault_alpha(0.05).solve(&b);
    assert!(out.converged);
    std::fs::remove_file(&path).ok();
}

#[test]
fn paper_matrix_miniatures_solve_under_faults() {
    // A miniature of every Table 1 matrix must converge under the
    // Table 1 fault rate with the correction scheme.
    for spec in PAPER_MATRICES.iter() {
        let a = spec.generate(64);
        let b = spec.rhs(a.n_rows());
        let out = ftcg::ResilientCg::new(&a)
            .scheme(Scheme::AbftCorrection)
            .fault_alpha(1.0 / 16.0)
            .seed(spec.id as u64)
            .solve(&b);
        assert!(out.converged, "matrix #{}", spec.id);
        assert!(
            out.true_residual / b.iter().map(|v| v * v).sum::<f64>().sqrt() < 1e-6,
            "matrix #{}: residual {}",
            spec.id,
            out.true_residual
        );
    }
}

#[test]
fn table1_quick_run_produces_full_report() {
    let params = table1::Table1Params {
        scale: 64,
        reps: 4,
        sweep: &[5, 15],
        threads: 4,
        ..table1::Table1Params::default()
    };
    let specs = &PAPER_MATRICES[..2];
    let rows = table1::run_table1(specs, &params);
    assert_eq!(rows.len(), 4); // 2 matrices × 2 schemes
    let md = report::table1_markdown(&rows);
    assert!(md.contains("ABFT-CORRECTION"));
    let csv = report::table1_csv(&rows);
    assert_eq!(csv.lines().count(), 5);
}

#[test]
fn plain_and_resilient_agree_fault_free() {
    let a = gen::random_spd(150, 0.05, 9).unwrap();
    let b: Vec<f64> = (0..150).map(|i| (i as f64 * 0.21).sin() + 2.0).collect();
    let plain = cg_solve(&a, &b, &vec![0.0; 150], &CgConfig::default());
    let resilient = ftcg::ResilientCg::new(&a).solve(&b);
    assert!(plain.converged && resilient.converged);
    // Same arithmetic, same iterates: solutions agree to rounding.
    let diff = plain
        .x
        .iter()
        .zip(resilient.x.iter())
        .map(|(u, v)| (u - v).abs())
        .fold(0.0_f64, f64::max);
    assert!(
        diff < 1e-10,
        "fault-free resilient CG must match plain CG, diff {diff}"
    );
    assert_eq!(plain.iterations, resilient.productive_iterations);
}
