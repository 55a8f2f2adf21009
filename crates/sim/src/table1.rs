//! Table 1 — experimental validation of the performance model.
//!
//! For each matrix, at `λ_word = 1/(16·M)` (i.e. `α = 1/16`), and for
//! both ABFT schemes:
//!
//! * `s̃` — checkpoint interval predicted by the model (eq. 6 with the
//!   `CostProfile::PAPER_LIKE` costs, which every swept interval is
//!   also accounted with);
//! * `Eₜ(s̃)` — mean simulated time over `reps` repetitions at `s̃`;
//! * `s*` — empirically best interval over a sweep;
//! * `Eₜ(s*)` — its mean time;
//! * `l = (Eₜ(s̃) − Eₜ(s*))/Eₜ(s*)·100` — the loss of trusting the model.

use std::sync::Arc;

use ftcg_engine::{ConfigJob, InjectorSpec};
use ftcg_model::{CostProfile, Scheme};
use ftcg_solvers::resilient::ResilientConfig;
use ftcg_sparse::CsrMatrix;

use crate::matrices::MatrixSpec;
use crate::runner::{run_checked, ArtifactDirs};

/// Result row for one (matrix, scheme) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Entry {
    /// Paper matrix id.
    pub(crate) id: u32,
    /// Actual order used (after scaling).
    pub(crate) n: usize,
    /// Actual density.
    pub(crate) density: f64,
    /// Scheme.
    pub(crate) scheme: Scheme,
    /// Model-optimal interval `s̃`.
    pub s_model: usize,
    /// Mean time at `s̃`.
    pub(crate) time_model: f64,
    /// Empirically best interval `s*`.
    pub s_best: usize,
    /// Mean time at `s*`.
    pub(crate) time_best: f64,
    /// Loss `l` in percent.
    pub loss_pct: f64,
}

/// Experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Params {
    /// Matrix scale divisor (1 = paper-size; 16 = miniature).
    pub scale: usize,
    /// Repetitions per configuration (paper: 50).
    pub reps: usize,
    /// Expected faults per iteration (paper: 1/16).
    pub alpha: f64,
    /// Candidate intervals swept for the empirical `s*`.
    pub sweep: &'static [usize],
    /// Worker threads for the repetition runner.
    pub threads: usize,
    /// Log directories of the (matrix, scheme) interval-sweep campaigns
    /// (`table1-<id>-<scheme>.*`).
    pub dirs: ArtifactDirs,
}

impl Default for Table1Params {
    fn default() -> Self {
        Self {
            scale: 16,
            reps: 50,
            alpha: 1.0 / 16.0,
            sweep: &[1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 25, 30, 40],
            threads: 4,
            dirs: ArtifactDirs::default(),
        }
    }
}

/// Builds the campaign for one (matrix, scheme) entry: one
/// configuration per candidate interval, with `s̃` always first.
pub(crate) fn entry_campaign(
    spec: &MatrixSpec,
    a: &Arc<CsrMatrix>,
    scheme: Scheme,
    params: &Table1Params,
) -> Vec<ConfigJob> {
    let costs = CostProfile::PAPER_LIKE.for_scheme(scheme);
    let model = ResilientConfig::model_optimal(scheme, params.alpha, costs);
    let s_model = model.checkpoint_interval;
    let b = Arc::new(spec.rhs(a.n_rows()));
    let mut intervals = vec![s_model];
    intervals.extend(params.sweep.iter().copied().filter(|&s| s != s_model));
    intervals
        .into_iter()
        .map(|s| {
            let mut cfg = model.clone();
            cfg.checkpoint_interval = s;
            ConfigJob::new(
                format!("paper:{}", spec.id),
                Arc::clone(a),
                Arc::clone(&b),
                cfg,
                params.alpha,
                InjectorSpec::Paper,
            )
        })
        .collect()
}

/// Runs the Table 1 experiment for one matrix and one scheme: the
/// interval sweep is a single engine campaign (one configuration per
/// candidate `s`, concurrent across the worker pool).
pub(crate) fn run_entry(
    spec: &MatrixSpec,
    a: &Arc<CsrMatrix>,
    scheme: Scheme,
    params: &Table1Params,
) -> Table1Entry {
    let result = run_checked(
        "table1",
        &format!("table1-{}-{}", spec.id, scheme.name()),
        10_000 + spec.id as u64,
        params.reps,
        params.threads,
        entry_campaign(spec, a, scheme, params),
        &params.dirs,
    );
    let s_model = result.summaries[0].s;
    let time_model = result.summaries[0].time.mean;
    let (mut s_best, mut time_best) = (s_model, time_model);
    for row in &result.summaries[1..] {
        if row.time.mean < time_best {
            s_best = row.s;
            time_best = row.time.mean;
        }
    }
    Table1Entry {
        id: spec.id,
        n: a.n_rows(),
        density: a.density(),
        scheme,
        s_model,
        time_model,
        s_best,
        time_best,
        loss_pct: (time_model - time_best) / time_best * 100.0,
    }
}

/// Runs the full Table 1 over the given matrix specs.
pub fn run_table1(specs: &[MatrixSpec], params: &Table1Params) -> Vec<Table1Entry> {
    let mut rows = Vec::new();
    for spec in specs {
        let a = Arc::new(spec.generate(params.scale));
        for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection] {
            rows.push(run_entry(spec, &a, scheme, params));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::by_id;
    use crate::report::table1_csv;

    fn quick_params() -> Table1Params {
        Table1Params {
            scale: 48,
            reps: 6,
            alpha: 1.0 / 16.0,
            sweep: &[4, 10, 20],
            threads: 4,
            ..Table1Params::default()
        }
    }

    #[test]
    fn entry_has_consistent_fields() {
        let spec = by_id(2213).unwrap();
        let a = Arc::new(spec.generate(48));
        let e = run_entry(&spec, &a, Scheme::AbftCorrection, &quick_params());
        assert_eq!(e.id, 2213);
        assert!(e.s_model >= 1);
        assert!(e.time_model > 0.0 && e.time_best > 0.0);
        // By construction time_best <= time_model, so loss >= 0.
        assert!(e.time_best <= e.time_model);
        assert!(e.loss_pct >= 0.0);
    }

    #[test]
    fn model_interval_in_sweep_ballpark() {
        // The model's s̃ for α=1/16 should be in the paper's 10–20 range
        // (Table 1 reports s̃ ∈ [10, 18]).
        let spec = by_id(341).unwrap();
        let a = Arc::new(spec.generate(48));
        let params = Table1Params::default();
        let s = entry_campaign(&spec, &a, Scheme::AbftDetection, &params)[0]
            .key
            .s;
        assert!((3..=60).contains(&s), "s̃={s} implausible for Table 1");
    }

    /// The `PAPER_LIKE` planning path end to end: rows captured from an
    /// earlier build.
    #[test]
    fn csv_matches_a_pinned_earlier_build() {
        let params = Table1Params {
            scale: 64,
            reps: 3,
            threads: 2,
            ..Table1Params::default()
        };
        let csv = table1_csv(&run_table1(&[by_id(2213).unwrap()], &params));
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(
            rows,
            [
                "2213,400,6.950000e-2,ABFT-DETECTION,6,371.933333,12,343.200000,8.3722",
                "2213,400,6.950000e-2,ABFT-CORRECTION,41,288.533333,25,278.266667,3.6895",
            ]
        );
    }
}
