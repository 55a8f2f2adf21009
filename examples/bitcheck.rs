//! Prints bit-exact fingerprints of plain and resilient solves
//! (used to compare refactors against the historical implementation).

use ftcg::model::Scheme;
use ftcg::prelude::*;
use ftcg::solvers::resilient::{solve_resilient, ResilientConfig};
use ftcg::solvers::{cg_solve, CgConfig};

fn bits(v: &[f64]) -> u64 {
    v.iter().fold(0u64, |acc, x| {
        acc.rotate_left(7) ^ x.to_bits() ^ acc.wrapping_mul(0x9E3779B97F4A7C15)
    })
}

fn main() {
    let a = gen::random_spd(150, 0.05, 9).unwrap();
    let b: Vec<f64> = (0..150).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();

    for (name, s) in [
        (
            "cg",
            cg_solve(&a, &b, &vec![0.0; 150], &CgConfig::default()),
        ),
        (
            "pcg",
            ftcg::solvers::pcg_jacobi_solve(&a, &b, &vec![0.0; 150], &CgConfig::default()),
        ),
    ] {
        println!(
            "plain {name}: it={} conv={} res={:016x} x={:016x}",
            s.iterations,
            s.converged,
            s.residual_norm.to_bits(),
            bits(&s.x)
        );
    }

    for scheme in Scheme::ALL {
        for alpha in [0.0, 1.0 / 16.0, 1.0 / 8.0, 0.5] {
            for seed in 0..6u64 {
                let mut cfg = ResilientConfig::new(scheme, 7);
                if scheme == Scheme::OnlineDetection {
                    cfg.verif_interval = 4;
                }
                let out = if alpha > 0.0 {
                    let mut inj = ftcg::engine::inject::paper_injector(&a, alpha, seed);
                    solve_resilient(&a, &b, &cfg, Some(&mut inj))
                } else {
                    solve_resilient(&a, &b, &cfg, None)
                };
                println!(
                    "{scheme:?} a={alpha} s={seed}: conv={} prod={} exec={} t={:016x} ck={} rb={} fc={} tc={} det={} faults={} x={:016x}",
                    out.converged,
                    out.productive_iterations,
                    out.executed_iterations,
                    out.simulated_time.to_bits(),
                    out.checkpoints,
                    out.rollbacks,
                    out.forward_corrections,
                    out.tmr_corrections,
                    out.detections,
                    out.ledger.len(),
                    bits(&out.x)
                );
            }
        }
    }
}
