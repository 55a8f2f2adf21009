//! Per-configuration aggregation.
//!
//! Each finished repetition keeps one [`JobMetrics`] — the heavy solve
//! output (the iterate itself) is dropped at the job boundary, so a
//! campaign's memory footprint is O(configs × reps) scalars however
//! large the matrices are. `fold` places every repetition in its
//! (configuration, repetition) slot and summarizes in repetition order,
//! which makes every statistic independent of thread scheduling and
//! arrival order: same spec + seed ⇒ identical summaries, byte for byte.

use ftcg_solvers::resilient::ResilientOutcome;

use crate::grid::ConfigJob;

/// The scalars kept from one resilient solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMetrics {
    /// Simulated time (`Titer` units).
    pub(crate) simulated_time: f64,
    /// Total executed iterations (including re-execution).
    pub executed_iterations: usize,
    /// Rollbacks performed.
    pub rollbacks: usize,
    /// Forward corrections (ABFT in-place + TMR outvotes).
    pub corrections: usize,
    /// Faults injected.
    pub faults: usize,
    /// Whether the stopping criterion was met.
    pub converged: bool,
    /// True residual against the pristine system.
    pub true_residual: f64,
}

impl From<&ResilientOutcome> for JobMetrics {
    fn from(out: &ResilientOutcome) -> Self {
        JobMetrics {
            simulated_time: out.simulated_time,
            executed_iterations: out.executed_iterations,
            rollbacks: out.rollbacks,
            corrections: out.forward_corrections + out.tmr_corrections,
            faults: out.ledger.len(),
            converged: out.converged,
            true_residual: out.true_residual,
        }
    }
}

/// Order statistics summary of one metric across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for a single repetition).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest-rank on the sorted sample).
    pub(crate) p50: f64,
    /// 90th percentile (nearest-rank).
    pub(crate) p90: f64,
}

impl SummaryStats {
    /// Computes stats over `values` (empty input yields all zeros).
    ///
    /// Percentiles use the **nearest-rank** definition: the p-th
    /// percentile of `n` sorted values is the element at 1-based rank
    /// `⌈p·n⌉` — for `[1, 2, 3, 4]`, p50 is `2` (rank ⌈2.0⌉ = 2), not
    /// the midpoint and not `3`.
    ///
    /// NaN inputs never panic here: the sort is total (`f64::total_cmp`,
    /// NaN ordered last), so a NaN poisons `mean`/`max` (and possibly
    /// the upper percentiles) visibly instead of aborting. The campaign
    /// layer keeps NaN out entirely by journaling NaN-poisoned
    /// repetitions as failures.
    pub(crate) fn from_values(values: &[f64]) -> SummaryStats {
        if values.is_empty() {
            return SummaryStats {
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p90: 0.0,
            };
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0);
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| {
            // Nearest-rank: smallest 1-based rank r with r ≥ p·n.
            let rank = (p * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        SummaryStats {
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: pct(0.50),
            p90: pct(0.90),
        }
    }
}

/// One output row: a configuration with its aggregated repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSummary {
    /// Campaign name.
    pub(crate) campaign: String,
    /// Matrix label.
    pub matrix: String,
    /// Matrix order.
    pub(crate) n: usize,
    /// Scheme name (paper spelling, e.g. `ABFT-CORRECTION`).
    pub scheme: String,
    /// Expected faults per iteration.
    pub alpha: f64,
    /// Checkpoint interval `s`.
    pub s: usize,
    /// Verification interval `d`.
    pub d: usize,
    /// Repetitions that completed (requested minus panicked).
    pub reps: usize,
    /// Repetitions lost to panics.
    pub panics: usize,
    /// Simulated execution time.
    pub time: SummaryStats,
    /// Executed iterations.
    pub(crate) executed: SummaryStats,
    /// Mean rollbacks per repetition.
    pub mean_rollbacks: f64,
    /// Mean forward corrections per repetition.
    pub(crate) mean_corrections: f64,
    /// Mean injected faults per repetition.
    pub mean_faults: f64,
    /// Fraction of completed repetitions that converged.
    pub convergence_rate: f64,
    /// Worst true residual across completed repetitions.
    pub max_true_residual: f64,
}

/// Folds the completed repetitions `(job index, metrics)` of a campaign
/// of `configs.len()` × `reps` jobs (job index `config × reps + rep`)
/// into per-configuration summaries, in configuration order. A
/// repetition with no entry counts as a panic. Any arrival order
/// produces the same summaries. The caller guarantees each index is in
/// range and given at most once.
pub(crate) fn fold<'a>(
    campaign: &str,
    reps: usize,
    configs: &[ConfigJob],
    done: impl IntoIterator<Item = (usize, &'a JobMetrics)>,
) -> Vec<ConfigSummary> {
    let mut slots = vec![vec![None; reps]; configs.len()];
    for (idx, m) in done {
        slots[idx / reps][idx % reps] = Some(*m);
    }
    slots
        .iter()
        .zip(configs)
        .map(|(rows, job)| summarize(campaign, reps, rows, job))
        .collect()
}

fn summarize(
    campaign: &str,
    requested: usize,
    rows: &[Option<JobMetrics>],
    job: &ConfigJob,
) -> ConfigSummary {
    let done: Vec<&JobMetrics> = rows.iter().flatten().collect();
    let nf = done.len() as f64;
    let mean = |f: &dyn Fn(&JobMetrics) -> f64| {
        if done.is_empty() {
            0.0
        } else {
            done.iter().map(|m| f(m)).sum::<f64>() / nf
        }
    };
    let times: Vec<f64> = done.iter().map(|m| m.simulated_time).collect();
    let executed: Vec<f64> = done.iter().map(|m| m.executed_iterations as f64).collect();
    ConfigSummary {
        campaign: campaign.to_string(),
        matrix: job.key.matrix.clone(),
        n: job.key.n,
        scheme: job.key.scheme.name().to_string(),
        alpha: job.key.alpha,
        s: job.key.s,
        d: job.key.d,
        reps: done.len(),
        panics: requested - done.len(),
        time: SummaryStats::from_values(&times),
        executed: SummaryStats::from_values(&executed),
        mean_rollbacks: mean(&|m| m.rollbacks as f64),
        mean_corrections: mean(&|m| m.corrections as f64),
        mean_faults: mean(&|m| m.faults as f64),
        convergence_rate: if done.is_empty() {
            0.0
        } else {
            done.iter().filter(|m| m.converged).count() as f64 / nf
        },
        // NaN-propagating max: a diverged repetition (NaN residual) must
        // poison this column, not vanish — `f64::max` would ignore it.
        max_true_residual: done.iter().map(|m| m.true_residual).fold(0.0, |a, b| {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = SummaryStats::from_values(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p50, 2.0); // nearest-rank ⌈0.5·4⌉ = 2 ⇒ sorted[1]
        assert_eq!(s.p90, 4.0); // ⌈0.9·4⌉ = 4 ⇒ sorted[3]
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentile_both_parities() {
        // Even n: the doc'd nearest-rank rank ⌈p·n⌉, not the historical
        // round(p·(n−1)) (which returned sorted[2] = 3.0 here).
        let even = SummaryStats::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.p50, 2.0);
        // Odd n: nearest-rank picks the true middle element.
        let odd = SummaryStats::from_values(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(odd.p50, 3.0); // ⌈2.5⌉ = 3 ⇒ sorted[2]
        assert_eq!(odd.p90, 5.0); // ⌈4.5⌉ = 5 ⇒ sorted[4]
                                  // n = 10 at p90: ⌈9.0⌉ = 9 ⇒ the 9th smallest, not the max.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(SummaryStats::from_values(&ten).p90, 9.0);
    }

    #[test]
    fn nan_values_poison_visibly_instead_of_panicking() {
        // Pre-fix this panicked in the sort ("must not be NaN") after
        // all compute was spent. NaN now sorts last and poisons the
        // affected columns visibly.
        let s = SummaryStats::from_values(&[1.0, f64::NAN, 3.0]);
        assert!(s.mean.is_nan());
        assert!(s.max.is_nan());
        assert_eq!(s.min, 1.0);
    }

    #[test]
    fn stats_single_and_empty() {
        let one = SummaryStats::from_values(&[7.0]);
        assert_eq!(one.mean, 7.0);
        assert_eq!(one.std, 0.0);
        assert_eq!(one.p90, 7.0);
        let none = SummaryStats::from_values(&[]);
        assert_eq!(none.mean, 0.0);
        assert_eq!(none.max, 0.0);
    }

    #[test]
    fn push_order_does_not_change_summary() {
        use crate::{ConfigJob, InjectorSpec};
        use ftcg_model::Scheme;
        use ftcg_solvers::resilient::ResilientConfig;
        use ftcg_sparse::gen;
        use std::sync::Arc;

        let a = Arc::new(gen::poisson2d(4).unwrap());
        let rhs = Arc::new(vec![1.0; a.n_rows()]);
        let job = ConfigJob::new(
            "poisson2d:4",
            a,
            rhs,
            ResilientConfig::new(Scheme::AbftDetection, 5),
            0.1,
            InjectorSpec::Paper,
        );
        let m = |t: f64| JobMetrics {
            simulated_time: t,
            executed_iterations: (t * 10.0) as usize,
            rollbacks: 1,
            corrections: 0,
            faults: 2,
            converged: true,
            true_residual: 1e-9,
        };
        let (m1, m2, m3) = (m(1.0), m(2.0), m(3.0));
        let cfgs = vec![job];
        let fwd = fold("c", 3, &cfgs, [(0, &m1), (1, &m2), (2, &m3)]);
        let rev = fold("c", 3, &cfgs, [(2, &m3), (0, &m1), (1, &m2)]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn missing_reps_count_as_panics() {
        use crate::{ConfigJob, InjectorSpec};
        use ftcg_model::Scheme;
        use ftcg_solvers::resilient::ResilientConfig;
        use ftcg_sparse::gen;
        use std::sync::Arc;

        let a = Arc::new(gen::poisson2d(4).unwrap());
        let rhs = Arc::new(vec![1.0; a.n_rows()]);
        let job = ConfigJob::new(
            "poisson2d:4",
            a,
            rhs,
            ResilientConfig::new(Scheme::AbftDetection, 5),
            0.0,
            InjectorSpec::None,
        );
        let only = JobMetrics {
            simulated_time: 5.0,
            executed_iterations: 50,
            rollbacks: 0,
            corrections: 0,
            faults: 0,
            converged: true,
            true_residual: 1e-10,
        };
        let rows = fold("c", 4, &[job], [(1, &only)]);
        assert_eq!(rows[0].reps, 1);
        assert_eq!(rows[0].panics, 3);
        assert_eq!(rows[0].convergence_rate, 1.0);
    }
}
