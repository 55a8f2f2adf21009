//! Ablation A4: the abstract model (eq. 5) against the simulator.
//!
//! The model assumes **every** error in a chunk is caught by the
//! verification and forces a rollback. Two implementation realities make
//! the paper-default injector *gentler* than the model: TMR absorbs
//! `r`/`x` faults without rollback, and flips below the floating-point
//! tolerance go (harmlessly) undetected. The *calibrated* injector
//! (matrix-only targets, high-bit flips) removes both effects, so the
//! simulated mean must track eq. (5) closely; with the paper-default
//! injector the model is an upper bound.

use std::sync::Arc;

use ftcg::engine::inject::paper_injector;
use ftcg::engine::InjectorSpec::{self, Calibrated, Paper};
use ftcg::engine::{run_configs, ConfigJob};
use ftcg::model::ResilienceCosts;
use ftcg::model::{expected_frame_time, CostProfile, Scheme};
use ftcg::prelude::*;
use ftcg::solvers::resilient::{solve_resilient, ResilientConfig};

fn system(n: usize, seed: u64) -> (Arc<CsrMatrix>, Arc<Vec<f64>>) {
    let a = gen::random_spd(n, 0.04, seed).unwrap();
    let b: Vec<f64> = (0..n).map(|i| 1.5 + (i as f64 * 0.19).sin()).collect();
    (Arc::new(a), Arc::new(b))
}

/// Summary of `reps` repetitions of `cfg` at rate `alpha`: a one-config
/// engine campaign whose per-repetition fault seeds derive from `seed`.
fn run(
    (a, b): &(Arc<CsrMatrix>, Arc<Vec<f64>>),
    cfg: &ResilientConfig,
    alpha: f64,
    injector: InjectorSpec,
    reps: usize,
    seed: u64,
) -> ConfigSummary {
    let job = ConfigJob::new(
        "v",
        Arc::clone(a),
        Arc::clone(b),
        cfg.clone(),
        alpha,
        injector,
    );
    run_configs("model-validation", seed, reps, 4, vec![job], None)
        .summaries
        .remove(0)
}

/// The model-optimal configuration the Table 1 harness runs.
fn paper_like(scheme: Scheme, alpha: f64) -> ResilientConfig {
    ResilientConfig::model_optimal(scheme, alpha, CostProfile::PAPER_LIKE.for_scheme(scheme))
}

/// Predicted total time for `iters` productive iterations at interval `s`.
fn model_total_time(
    scheme: Scheme,
    iters: usize,
    s: usize,
    alpha: f64,
    costs: &ResilienceCosts,
) -> f64 {
    let q = scheme.chunk_success(alpha, 1.0);
    let frames = iters as f64 / s as f64;
    frames * expected_frame_time(s, 1.0, costs, q)
}

#[test]
fn simulated_time_tracks_model_with_calibrated_faults() {
    let sys = system(200, 1);
    let costs = ResilienceCosts::new(2.0, 2.0, 0.1);
    let alpha = 1.0 / 16.0;
    for s in [4usize, 10, 25] {
        let mut cfg = ResilientConfig::new(Scheme::AbftDetection, s);
        cfg.costs = costs;
        let sum = run(&sys, &cfg, alpha, Calibrated, 40, 500);
        let clean = solve_resilient(&sys.0, &sys.1, &cfg, None);
        let predicted = model_total_time(
            Scheme::AbftDetection,
            clean.productive_iterations,
            s,
            alpha,
            &costs,
        );
        let ratio = sum.time.mean / predicted;
        assert!(
            (0.8..1.25).contains(&ratio),
            "s={s}: simulated {} vs model {predicted} (ratio {ratio})",
            sum.time.mean
        );
    }
}

#[test]
fn model_upper_bounds_paper_default_injection() {
    // With TMR absorbing vector faults and sub-threshold flips invisible,
    // the model's pessimistic q makes it an upper bound (with slack for
    // 40-rep noise).
    let sys = system(200, 2);
    let costs = ResilienceCosts::new(2.0, 2.0, 0.1);
    let alpha = 1.0 / 8.0;
    for s in [5usize, 14] {
        let mut cfg = ResilientConfig::new(Scheme::AbftDetection, s);
        cfg.costs = costs;
        let sum = run(&sys, &cfg, alpha, Paper, 40, 900);
        let clean = solve_resilient(&sys.0, &sys.1, &cfg, None);
        let predicted = model_total_time(
            Scheme::AbftDetection,
            clean.productive_iterations,
            s,
            alpha,
            &costs,
        );
        assert!(
            sum.time.mean <= predicted * 1.10,
            "s={s}: simulated {} should not exceed model {predicted}",
            sum.time.mean
        );
    }
}

#[test]
fn correction_scheme_tracks_its_success_probability() {
    // ABFT-CORRECTION under calibrated single faults: an iteration only
    // rolls back when >= 2 faults strike, i.e. q = e^{-a}(1+a).
    let sys = system(200, 3);
    let costs = ResilienceCosts::new(2.0, 2.0, 0.2);
    let alpha = 0.25; // high rate so double faults actually occur
    let s = 10;
    let mut cfg = ResilientConfig::new(Scheme::AbftCorrection, s);
    cfg.costs = costs;
    let sum = run(&sys, &cfg, alpha, Calibrated, 40, 1300);
    let clean = solve_resilient(&sys.0, &sys.1, &cfg, None);
    let predicted = model_total_time(
        Scheme::AbftCorrection,
        clean.productive_iterations,
        s,
        alpha,
        &costs,
    );
    let ratio = sum.time.mean / predicted;
    assert!(
        (0.75..1.3).contains(&ratio),
        "simulated {} vs model {predicted} (ratio {ratio})",
        sum.time.mean
    );
    // And it must roll back far less than the detection scheme would.
    let mut det_cfg = ResilientConfig::new(Scheme::AbftDetection, s);
    det_cfg.costs = costs;
    let det = run(&sys, &det_cfg, alpha, Calibrated, 40, 1300);
    assert!(sum.mean_rollbacks < det.mean_rollbacks / 2.0);
}

#[test]
fn model_optimal_interval_is_near_empirical_optimum() {
    // The Table 1 claim in miniature, under calibrated injection and the
    // planner and profile the Table 1 harness runs: s̃ costs at most ~12%
    // more than the best swept interval.
    let sys = system(180, 4);
    let alpha = 1.0 / 16.0;
    let model = paper_like(Scheme::AbftDetection, alpha);
    let eval = |s: usize| {
        let mut cfg = model.clone();
        cfg.checkpoint_interval = s;
        run(&sys, &cfg, alpha, Calibrated, 48, 7000).time.mean
    };
    let s_model = model.checkpoint_interval;
    let t_model = eval(s_model);
    let mut best = f64::INFINITY;
    for s in [2usize, 4, 6, 8, 10, 14, 18, 24, 32] {
        best = best.min(eval(s));
    }
    let loss = (t_model - best) / best * 100.0;
    assert!(
        loss < 12.0,
        "loss of trusting the model: {loss:.1}% (s_model={s_model})"
    );
}

#[test]
fn correction_beats_detection_at_table1_rate() {
    // The central comparative claim at α = 1/16 with each scheme at its
    // model-optimal interval as the Table 1 harness plans it, under the
    // paper-default injector.
    let sys = system(220, 5);
    let alpha = 1.0 / 16.0;
    let t_det = run(
        &sys,
        &paper_like(Scheme::AbftDetection, alpha),
        alpha,
        Paper,
        40,
        100,
    );
    let t_cor = run(
        &sys,
        &paper_like(Scheme::AbftCorrection, alpha),
        alpha,
        Paper,
        40,
        100,
    );
    let (t_det, t_cor) = (t_det.time.mean, t_cor.time.mean);
    assert!(
        t_cor < t_det,
        "ABFT-CORRECTION {t_cor} should beat ABFT-DETECTION {t_det} at alpha=1/16"
    );
}

#[test]
fn injector_calibration_matches_alpha() {
    // The normalized-MTBF x-axis of Figure 1 is only meaningful if the
    // injector really produces alpha faults per iteration on average.
    let (a, _) = system(150, 6);
    for alpha in [0.5, 1.0 / 16.0, 1.0 / 128.0] {
        let mut inj = paper_injector(&a, alpha, 3);
        let iters = 60_000;
        let total: usize = (0..iters).map(|_| inj.plan_iteration().len()).sum();
        let emp = total as f64 / iters as f64;
        assert!(
            (emp - alpha).abs() < 0.12 * alpha + 2e-4,
            "alpha {alpha}: empirical {emp}"
        );
    }
}
