//! Repetition runner: executes a resilient solve many times with
//! distinct seeds (50 in the paper) and aggregates statistics.
//!
//! Since the campaign engine landed, this module is a thin veneer over
//! [`ftcg_engine::pool`]: repetitions are indexed jobs on the
//! work-stealing pool, results come back in repetition order (so the
//! aggregate is independent of thread scheduling), each worker reuses
//! one [`JobWorkspace`] across its whole repetition stream (zero
//! per-repetition allocation of matrix images / solver state,
//! bit-identical results), and the injector configurations live in
//! [`ftcg_engine::inject`] (re-exported here for compatibility).

use std::path::Path;

use ftcg_engine::aggregate::{JobMetrics, SummaryStats};
use ftcg_engine::{
    fold_outcome, run_configs_sharded, CampaignResult, ConfigJob, EngineError, JobWorkspace,
    RunOptions,
};
use ftcg_fault::Injector;
use ftcg_solvers::resilient::{solve_resilient_in, ResilientConfig};
use ftcg_sparse::CsrMatrix;

pub use ftcg_engine::inject::{calibrated_injector, paper_injector};

/// Runs one programmatic campaign, optionally crash-safe and
/// instrumented — the Table 1 / Figure 1 harnesses run each (matrix,
/// scheme) campaign through it.
///
/// With `journal` set, jobs are journaled as they complete and an
/// existing journal from a killed run is replayed so only the remainder
/// executes (auto-resume — the manifest's grid fingerprint still rejects
/// a stale journal from a different campaign). `trace` and `metrics`
/// add the deterministic event trace and the phase-timing sidecar under
/// the same auto-resume discipline. With all three `None` this is
/// exactly [`ftcg_engine::run_configs`]. Either way the folded summaries
/// are byte-identical to an uninterrupted in-memory run without sinks:
/// aggregation folds records by job index, never by completion order,
/// and recording never influences the solve.
#[allow(clippy::too_many_arguments)]
pub fn run_configs_instrumented(
    name: &str,
    campaign_seed: u64,
    reps: usize,
    threads: usize,
    configs: Vec<ConfigJob>,
    journal: Option<&Path>,
    trace: Option<&Path>,
    metrics: Option<&Path>,
) -> Result<CampaignResult, EngineError> {
    let opts = RunOptions {
        journal,
        trace,
        metrics,
        resume: true,
        ..RunOptions::default()
    };
    let outcome = run_configs_sharded(name, campaign_seed, reps, threads, &configs, &opts)?;
    fold_outcome(name, reps, &configs, outcome)
}

/// Aggregate over repetitions of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Repetitions executed.
    pub reps: usize,
    /// Mean simulated execution time (`Titer` units).
    pub mean_time: f64,
    /// Sample standard deviation of the simulated time.
    pub std_time: f64,
    /// Minimum / maximum simulated time.
    pub min_time: f64,
    /// Maximum simulated time.
    pub max_time: f64,
    /// Mean executed iterations.
    pub mean_executed: f64,
    /// Mean rollbacks per run.
    pub mean_rollbacks: f64,
    /// Mean forward corrections per run (ABFT-CORRECTION).
    pub mean_corrections: f64,
    /// Mean injected faults per run.
    pub mean_faults: f64,
    /// Fraction of repetitions that converged.
    pub convergence_rate: f64,
}

/// Like [`run_many`] but with a custom injector factory (seed → injector).
#[allow(clippy::too_many_arguments)]
pub fn run_many_with<F>(
    a: &CsrMatrix,
    b: &[f64],
    cfg: &ResilientConfig,
    make_injector: F,
    reps: usize,
    base_seed: u64,
    threads: usize,
) -> RunSummary
where
    F: Fn(u64) -> Injector + Sync,
{
    assert!(reps >= 1);
    let threads = threads.clamp(1, reps);
    let rows: Vec<JobMetrics> = ftcg_engine::pool::run_indexed_ctx(
        threads,
        reps,
        JobWorkspace::new,
        |ws, i| {
            let mut inj = make_injector(base_seed + i as u64);
            JobMetrics::from(&solve_resilient_in(
                a,
                b,
                cfg,
                Some(&mut inj),
                ws.solver_workspace(),
            ))
        },
        None,
    )
    .into_iter()
    .map(|r| r.expect("runner worker panicked"))
    .collect();
    summarize(&rows)
}

/// Runs `reps` independent repetitions (seeds `base_seed..base_seed+reps`)
/// and aggregates. Repetitions are spread over `threads` workers.
#[allow(clippy::too_many_arguments)]
pub fn run_many(
    a: &CsrMatrix,
    b: &[f64],
    cfg: &ResilientConfig,
    alpha: f64,
    reps: usize,
    base_seed: u64,
    threads: usize,
) -> RunSummary {
    run_many_with(
        a,
        b,
        cfg,
        |seed| paper_injector(a, alpha, seed),
        reps,
        base_seed,
        threads,
    )
}

/// Folds repetition metrics into a [`RunSummary`], reusing the engine's
/// order statistics for the time column (one stats implementation in
/// the workspace).
fn summarize(rows: &[JobMetrics]) -> RunSummary {
    let nf = rows.len() as f64;
    let mean = |f: &dyn Fn(&JobMetrics) -> f64| rows.iter().map(f).sum::<f64>() / nf;
    let times: Vec<f64> = rows.iter().map(|m| m.simulated_time).collect();
    let time = SummaryStats::from_values(&times);
    RunSummary {
        reps: rows.len(),
        mean_time: time.mean,
        std_time: time.std,
        min_time: time.min,
        max_time: time.max,
        mean_executed: mean(&|m| m.executed_iterations as f64),
        mean_rollbacks: mean(&|m| m.rollbacks as f64),
        mean_corrections: mean(&|m| m.corrections as f64),
        mean_faults: mean(&|m| m.faults as f64),
        convergence_rate: rows.iter().filter(|m| m.converged).count() as f64 / nf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_model::Scheme;
    use ftcg_sparse::gen;

    fn system() -> (CsrMatrix, Vec<f64>) {
        let a = gen::random_spd(150, 0.04, 5).unwrap();
        let b: Vec<f64> = (0..150).map(|i| 1.0 + (i as f64 * 0.4).sin()).collect();
        (a, b)
    }

    #[test]
    fn aggregates_are_consistent() {
        let (a, b) = system();
        let cfg = ResilientConfig::new(Scheme::AbftCorrection, 12);
        let s = run_many(&a, &b, &cfg, 1.0 / 16.0, 8, 0, 4);
        assert_eq!(s.reps, 8);
        // Mean is compared with an ulp-scale slack: when every rep takes
        // the same time, naive summation can put the mean a few ulps
        // above the max.
        let eps = 1e-12 * s.max_time.max(1.0);
        assert!(s.min_time <= s.mean_time + eps && s.mean_time <= s.max_time + eps);
        assert!(s.std_time >= 0.0);
        assert!(s.convergence_rate > 0.9, "rate {}", s.convergence_rate);
        assert!(s.mean_faults > 0.0);
    }

    #[test]
    fn parallel_equals_serial() {
        let (a, b) = system();
        let cfg = ResilientConfig::new(Scheme::AbftDetection, 10);
        let s1 = run_many(&a, &b, &cfg, 1.0 / 8.0, 6, 3, 1);
        let s4 = run_many(&a, &b, &cfg, 1.0 / 8.0, 6, 3, 4);
        // Indexed results: thread count must not change anything at all.
        assert_eq!(s1, s4);
    }

    #[test]
    fn journaled_run_matches_in_memory_run_and_auto_resumes() {
        use ftcg_engine::{run_configs, InjectorSpec};
        use ftcg_model::Scheme as S;
        use std::sync::Arc;

        let a = Arc::new(gen::poisson2d(8).unwrap());
        let rhs = Arc::new(vec![1.0; a.n_rows()]);
        let mk = || {
            vec![ConfigJob::new(
                "poisson2d:8",
                Arc::clone(&a),
                Arc::clone(&rhs),
                ResilientConfig::new(S::AbftCorrection, 8),
                1.0 / 16.0,
                InjectorSpec::Paper,
            )]
        };
        let dir = std::env::temp_dir().join(format!("ftcg-sim-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.jsonl");
        let _ = std::fs::remove_file(&path);
        let run = |seed, path| run_configs_instrumented("e", seed, 4, 2, mk(), path, None, None);
        let plain = run_configs("e", 3, 4, 2, mk(), None);
        let journaled = run(3, Some(&path)).unwrap();
        assert_eq!(plain.summaries, journaled.summaries);
        // Drop the trailing records (simulated kill) and re-run: the
        // auto-resume replays the survivors and the result still
        // matches bit for bit.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let resumed = run(3, Some(&path)).unwrap();
        assert_eq!(plain.summaries, resumed.summaries);
        // A stale journal (different campaign seed) is rejected loudly.
        assert!(run(4, Some(&path)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn higher_alpha_costs_more_time() {
        let (a, b) = system();
        let cfg = ResilientConfig::new(Scheme::AbftDetection, 10);
        let slow = run_many(&a, &b, &cfg, 0.25, 10, 0, 4);
        let fast = run_many(&a, &b, &cfg, 1.0 / 512.0, 10, 0, 4);
        assert!(
            slow.mean_time > fast.mean_time,
            "{} !> {}",
            slow.mean_time,
            fast.mean_time
        );
    }
}
