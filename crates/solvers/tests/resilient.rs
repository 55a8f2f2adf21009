//! End-to-end tests of the three resilient schemes under fault injection.

use ftcg_fault::paper_injector;
use ftcg_model::Scheme;
use ftcg_solvers::resilient::{solve_resilient, ResilientConfig};
use ftcg_sparse::{gen, vector, CsrMatrix};

fn test_system(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let a = gen::random_spd(n, 0.05, seed).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
    (a, b)
}

fn solves_correctly(_a: &CsrMatrix, b: &[f64], out: &ftcg_solvers::resilient::ResilientOutcome) {
    assert!(
        out.converged,
        "did not converge: rollbacks={} detections={}",
        out.rollbacks, out.detections
    );
    let rel = out.true_residual / vector::norm2(b);
    assert!(
        rel < 1e-6,
        "true residual too large: {rel} (undetected faults: {})",
        out.ledger.summary().undetected
    );
}

#[test]
fn all_schemes_converge_fault_free() {
    let (a, b) = test_system(150, 1);
    for scheme in Scheme::ALL {
        let cfg = ResilientConfig::new(scheme, 10);
        let out = solve_resilient(&a, &b, &cfg, None);
        solves_correctly(&a, &b, &out);
        assert_eq!(out.rollbacks, 0, "{scheme:?}");
        assert_eq!(out.detections, 0, "{scheme:?}: no faults, no detections");
        assert!(out.ledger.is_empty());
        assert_eq!(out.executed_iterations, out.productive_iterations);
    }
}

#[test]
fn fault_free_abft_takes_periodic_checkpoints() {
    let (a, b) = test_system(120, 2);
    let cfg = ResilientConfig::new(Scheme::AbftCorrection, 5);
    let out = solve_resilient(&a, &b, &cfg, None);
    assert!(out.converged);
    // roughly one checkpoint per 5 iterations
    let expected = out.productive_iterations / 5;
    assert!(
        out.checkpoints + 1 >= expected && out.checkpoints <= expected + 1,
        "{} checkpoints for {} iterations",
        out.checkpoints,
        out.productive_iterations
    );
}

#[test]
fn abft_correction_survives_moderate_fault_rate() {
    let (a, b) = test_system(150, 3);
    let cfg = ResilientConfig::new(Scheme::AbftCorrection, 14);
    // A single short run can get zero faults (the per-run expectation is
    // only ~1.5), so require strikes in aggregate across the seeds.
    let mut total_faults = 0usize;
    for seed in 0..5 {
        let mut inj = paper_injector(&a, 1.0 / 16.0, seed);
        let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
        solves_correctly(&a, &b, &out);
        total_faults += out.ledger.len();
    }
    assert!(
        total_faults > 0,
        "at alpha=1/16 across five runs some faults must strike"
    );
}

#[test]
fn abft_detection_survives_moderate_fault_rate() {
    let (a, b) = test_system(150, 4);
    let cfg = ResilientConfig::new(Scheme::AbftDetection, 10);
    for seed in 0..5 {
        let mut inj = paper_injector(&a, 1.0 / 16.0, seed);
        let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
        solves_correctly(&a, &b, &out);
    }
}

#[test]
fn online_detection_survives_moderate_fault_rate() {
    let (a, b) = test_system(150, 5);
    let mut cfg = ResilientConfig::new(Scheme::OnlineDetection, 4);
    cfg.verif_interval = 4;
    for seed in 0..5 {
        let mut inj = paper_injector(&a, 1.0 / 32.0, seed);
        let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
        solves_correctly(&a, &b, &out);
    }
}

#[test]
fn correction_rolls_back_less_than_detection() {
    // Claim C2: forward recovery avoids most rollbacks.
    let (a, b) = test_system(200, 6);
    let mut det_rollbacks = 0usize;
    let mut cor_rollbacks = 0usize;
    let mut cor_corrections = 0usize;
    for seed in 0..8 {
        let mut inj = paper_injector(&a, 1.0 / 8.0, seed);
        let out = solve_resilient(
            &a,
            &b,
            &ResilientConfig::new(Scheme::AbftDetection, 10),
            Some(&mut inj),
        );
        det_rollbacks += out.rollbacks;
        let mut inj = paper_injector(&a, 1.0 / 8.0, seed);
        let out = solve_resilient(
            &a,
            &b,
            &ResilientConfig::new(Scheme::AbftCorrection, 10),
            Some(&mut inj),
        );
        cor_rollbacks += out.rollbacks;
        cor_corrections += out.forward_corrections + out.tmr_corrections;
    }
    assert!(
        cor_rollbacks < det_rollbacks,
        "correction {cor_rollbacks} rollbacks vs detection {det_rollbacks}"
    );
    assert!(cor_corrections > 0, "correction scheme never corrected");
}

#[test]
fn rollback_restores_exact_progress() {
    // After any run, productive_iterations must equal the fault-free CG
    // iteration count when every error was rolled back or corrected
    // exactly (undetected sub-tolerance flips may change it slightly).
    let (a, b) = test_system(100, 7);
    let clean = solve_resilient(
        &a,
        &b,
        &ResilientConfig::new(Scheme::AbftCorrection, 8),
        None,
    );
    let mut inj = paper_injector(&a, 1.0 / 16.0, 11);
    let faulty = solve_resilient(
        &a,
        &b,
        &ResilientConfig::new(Scheme::AbftCorrection, 8),
        Some(&mut inj),
    );
    assert!(faulty.converged);
    let diff = (clean.productive_iterations as i64 - faulty.productive_iterations as i64).abs();
    assert!(
        diff <= clean.productive_iterations as i64 / 2 + 5,
        "productive iterations far apart: clean {} vs faulty {}",
        clean.productive_iterations,
        faulty.productive_iterations
    );
}

#[test]
fn executed_time_grows_with_fault_rate() {
    let (a, b) = test_system(150, 8);
    let cfg = ResilientConfig::new(Scheme::AbftDetection, 10);
    let mut times = Vec::new();
    for alpha in [1.0 / 256.0, 1.0 / 16.0, 1.0 / 4.0] {
        // average over seeds to damp variance
        let mut total = 0.0;
        for seed in 0..6 {
            let mut inj = paper_injector(&a, alpha, 100 + seed);
            let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
            total += out.simulated_time;
        }
        times.push(total / 6.0);
    }
    assert!(
        times[0] < times[2],
        "time should grow with fault rate: {times:?}"
    );
}

#[test]
fn ledger_accounts_every_fault() {
    let (a, b) = test_system(120, 9);
    let mut inj = paper_injector(&a, 1.0 / 8.0, 21);
    let out = solve_resilient(
        &a,
        &b,
        &ResilientConfig::new(Scheme::AbftCorrection, 10),
        Some(&mut inj),
    );
    let s = out.ledger.summary();
    assert_eq!(s.pending, 0, "all faults must be classified at run end");
    assert_eq!(
        s.total,
        s.corrected + s.rolled_back + s.undetected,
        "classification must partition the ledger"
    );
}

#[test]
fn high_fault_rate_still_terminates() {
    // At alpha close to 1 the run may not converge, but it must stop at
    // the executed-iterations cap without panicking.
    let (a, b) = test_system(80, 10);
    let mut cfg = ResilientConfig::new(Scheme::AbftDetection, 5);
    cfg.max_executed_iters = 2_000;
    let mut inj = paper_injector(&a, 0.9, 33);
    let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
    assert!(out.executed_iterations <= 2_000);
}

#[test]
fn online_verifies_only_at_chunk_ends() {
    let (a, b) = test_system(100, 11);
    let mut cfg = ResilientConfig::new(Scheme::OnlineDetection, 3);
    cfg.verif_interval = 5;
    let out = solve_resilient(&a, &b, &cfg, None);
    assert!(out.converged);
    // Simulated time = iterations + verifications·tverif + checkpoints·tcp.
    let n_ver = (out.productive_iterations / 5) as f64 + 1.0; // + convergence check
    let expect = out.productive_iterations as f64
        + n_ver * cfg.costs.tverif
        + out.checkpoints as f64 * cfg.costs.tcp;
    assert!(
        (out.simulated_time - expect).abs() <= cfg.costs.tverif * 3.0,
        "time {} vs expected {expect}",
        out.simulated_time
    );
}

#[test]
fn works_on_poisson_grid() {
    let a = gen::poisson2d(14).unwrap();
    let n = a.n_rows();
    let xstar: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
    let b = a.spmv(&xstar);
    let cfg = ResilientConfig::new(Scheme::AbftCorrection, 12);
    let mut inj = paper_injector(&a, 1.0 / 16.0, 5);
    let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
    assert!(out.converged);
    let err = vector::max_abs_diff(&out.x, &xstar);
    assert!(err < 1e-4, "solution error {err}");
}

#[test]
fn deterministic_given_seed() {
    let (a, b) = test_system(100, 12);
    let cfg = ResilientConfig::new(Scheme::AbftCorrection, 10);
    let mut i1 = paper_injector(&a, 1.0 / 8.0, 77);
    let o1 = solve_resilient(&a, &b, &cfg, Some(&mut i1));
    let mut i2 = paper_injector(&a, 1.0 / 8.0, 77);
    let o2 = solve_resilient(&a, &b, &cfg, Some(&mut i2));
    assert_eq!(o1.simulated_time, o2.simulated_time);
    assert_eq!(o1.x, o2.x);
    assert_eq!(o1.rollbacks, o2.rollbacks);
}

#[test]
fn kernel_backends_survive_faults_with_abft() {
    // ABFT checksum verification composes with the defensive CSR
    // product: it reads the live (corrupted) image, so detection and
    // recovery still deliver a correct solve.
    let (a, b) = test_system(150, 10);
    let mut total_faults = 0usize;
    for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection] {
        let cfg = ResilientConfig::new(scheme, 8);
        let mut inj = paper_injector(&a, 1.0 / 8.0, 77);
        let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
        solves_correctly(&a, &b, &out);
        total_faults += out.ledger.len();
    }
    assert!(total_faults > 0, "fault rate too low to exercise recovery");
}

#[test]
fn verification_counters_split_products_from_chunks() {
    let (a, b) = test_system(150, 11);
    // CG under ABFT: exactly one checksum-verified product per executed
    // iteration; the free per-iteration chunk checks are counted too.
    let cfg = ResilientConfig::new(Scheme::AbftDetection, 10);
    let out = solve_resilient(&a, &b, &cfg, None);
    assert!(out.converged);
    assert_eq!(out.product_checks, out.executed_iterations);
    assert_eq!(out.chunk_checks, out.executed_iterations);

    // ONLINE-DETECTION never verifies products; it pays only at chunk
    // ends (one check per chunk boundary reached).
    let mut cfg = ResilientConfig::new(Scheme::OnlineDetection, 4);
    cfg.verif_interval = 6;
    let out = solve_resilient(&a, &b, &cfg, None);
    assert!(out.converged);
    assert_eq!(out.product_checks, 0);
    assert!(out.chunk_checks >= out.executed_iterations / 6);
    assert!(out.chunk_checks <= out.executed_iterations / 6 + 1);
}

#[test]
fn simulated_time_reconciles_with_verification_counters() {
    // The split counters make the time bill exactly reconstructible:
    //   time = executed·1 + tverif·product_checks
    //        + chunk_cost·chunk_checks + tcp·checkpoints + trec·rollbacks
    // where chunk_cost is tverif for ONLINE-DETECTION and 0 for ABFT.
    let (a, b) = test_system(150, 12);
    for scheme in Scheme::ALL {
        let mut cfg = ResilientConfig::new(scheme, 6);
        cfg.verif_interval = 4;
        let mut inj = paper_injector(&a, 1.0 / 8.0, 55);
        let out = solve_resilient(&a, &b, &cfg, Some(&mut inj));
        let chunk_cost = match scheme {
            Scheme::OnlineDetection => cfg.costs.tverif,
            _ => 0.0,
        };
        let expected = out.executed_iterations as f64
            + cfg.costs.tverif * out.product_checks as f64
            + chunk_cost * out.chunk_checks as f64
            + cfg.costs.tcp * out.checkpoints as f64
            + cfg.costs.trec * out.rollbacks as f64;
        let err = (out.simulated_time - expected).abs();
        assert!(
            err < 1e-9 * expected.max(1.0),
            "{scheme:?}: simulated {} vs reconstructed {expected}",
            out.simulated_time
        );
    }
}

#[test]
fn recorded_solve_is_bit_identical_and_events_match_counters() {
    use ftcg_solvers::resilient::solve_resilient_recorded;
    use ftcg_solvers::SolverWorkspace;
    use ftcg_telemetry::{ActiveRecorder, EventKind};

    let (a, b) = test_system(150, 13);
    for scheme in Scheme::ALL {
        let mut cfg = ResilientConfig::new(scheme, 6);
        cfg.verif_interval = 4;
        let mut inj = paper_injector(&a, 1.0 / 8.0, 99);
        let plain = solve_resilient(&a, &b, &cfg, Some(&mut inj));

        let mut inj = paper_injector(&a, 1.0 / 8.0, 99);
        let mut ws = SolverWorkspace::new();
        let mut rec = ActiveRecorder::new();
        let traced = solve_resilient_recorded(&a, &b, &cfg, Some(&mut inj), &mut ws, &mut rec);

        // The recorder is an observer: outcomes are bit-identical.
        assert_eq!(plain.x, traced.x, "{scheme:?}");
        assert_eq!(
            plain.simulated_time.to_bits(),
            traced.simulated_time.to_bits(),
            "{scheme:?}"
        );
        assert_eq!(plain.rollbacks, traced.rollbacks);
        assert_eq!(plain.detections, traced.detections);
        assert_eq!(plain.product_checks, traced.product_checks);
        assert_eq!(plain.chunk_checks, traced.chunk_checks);

        // Every counter has its event-stream counterpart.
        let tele = rec.drain(0);
        assert_eq!(tele.dropped, 0, "{scheme:?}");
        let count = |k: EventKind| tele.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::Fault), traced.ledger.len(), "{scheme:?}");
        assert_eq!(count(EventKind::Rollback), traced.rollbacks, "{scheme:?}");
        assert_eq!(
            count(EventKind::Checkpoint),
            traced.checkpoints,
            "{scheme:?}"
        );
        assert_eq!(count(EventKind::Detect), traced.detections, "{scheme:?}");
        assert_eq!(
            tele.events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::CorrectForward | EventKind::CorrectTmr))
                .map(|e| e.b as usize)
                .sum::<usize>(),
            traced.forward_corrections + traced.tmr_corrections,
            "{scheme:?}"
        );
        assert_eq!(count(EventKind::Converged), traced.converged as usize);
        // Phases were actually timed.
        use ftcg_telemetry::Phase;
        assert_eq!(
            tele.hist[Phase::Step.index()].count() as usize,
            traced.executed_iterations
        );
        assert_eq!(
            tele.hist[Phase::ProductCheck.index()].count() as usize,
            traced.product_checks
        );
        assert_eq!(
            tele.hist[Phase::ChunkVerify.index()].count() as usize,
            traced.chunk_checks
        );
        assert!(tele.phase_ns[Phase::Step.index()] > 0);
    }
}

#[test]
fn tmr_outcomes_match_a_pinned_earlier_build() {
    use ftcg_model::CostProfile;
    use ftcg_solvers::resilient::solve_resilient_recorded;
    use ftcg_solvers::SolverWorkspace;
    use ftcg_telemetry::event::via;
    use ftcg_telemetry::{ActiveRecorder, EventKind};

    // Campaign-shaped solves on a 9-unknown grid at fault rates high
    // enough for replica collisions: the TMR vote's corrections and its
    // collision detections, pinned against an earlier build whose
    // executor voted three stored replicas element by element.
    let a = gen::poisson2d(3).unwrap();
    let b: Vec<f64> = (0..a.n_rows())
        .map(|i| 1.0 + (i as f64 * 0.37).sin())
        .collect();
    let mut ws = SolverWorkspace::new();
    let mut rec = ActiveRecorder::new();
    let mut got = Vec::new();
    for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection] {
        for alpha in [0.5, 1.0] {
            let cfg = ResilientConfig::model_optimal(
                scheme,
                alpha,
                CostProfile::DEFAULT.for_scheme(scheme),
            );
            let mut sums = [0usize; 5];
            for seed in 0..2000 {
                let mut inj = paper_injector(&a, alpha, seed);
                rec.reset();
                let out = solve_resilient_recorded(&a, &b, &cfg, Some(&mut inj), &mut ws, &mut rec);
                let tele = rec.drain(0);
                assert_eq!(tele.dropped, 0);
                sums[0] += out.tmr_corrections;
                sums[1] += out.detections;
                sums[2] += out.rollbacks;
                sums[3] += out.executed_iterations;
                sums[4] += tele
                    .events
                    .iter()
                    .filter(|e| e.kind == EventKind::Detect && e.a == via::TMR)
                    .count();
            }
            got.push(sums);
        }
    }
    // [tmr_corrections, detections, rollbacks, executed_iterations,
    // Detect events via TMR], summed over the seeds, per (scheme, α).
    assert_eq!(
        got,
        [
            [965, 5546, 5546, 17413, 1],
            [1676, 11371, 11371, 21407, 8],
            [929, 4087, 857, 12502, 1],
            [1805, 7435, 2680, 13721, 8],
        ]
    );
    assert!(got.iter().map(|g| g[4]).sum::<usize>() >= 1);
}
