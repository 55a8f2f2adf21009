//! Table 1 — experimental validation of the performance model.
//!
//! For each matrix, at `λ_word = 1/(16·M)` (i.e. `α = 1/16`), and for
//! both ABFT schemes:
//!
//! * `s̃` — checkpoint interval predicted by the model (eq. 6 with the
//!   measured cost profile);
//! * `Eₜ(s̃)` — mean simulated time over `reps` repetitions at `s̃`;
//! * `s*` — empirically best interval over a sweep;
//! * `Eₜ(s*)` — its mean time;
//! * `l = (Eₜ(s̃) − Eₜ(s*))/Eₜ(s*)·100` — the loss of trusting the model.

use std::sync::Arc;

use ftcg_engine::{ConfigJob, InjectorSpec};
use ftcg_model::{optimize, Scheme};
use ftcg_solvers::resilient::ResilientConfig;
use ftcg_solvers::SolverKind;
use ftcg_sparse::CsrMatrix;

use crate::matrices::MatrixSpec;
use crate::measure::{resolve_costs, CostMode, MeasuredCosts};

/// Result row for one (matrix, scheme) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Entry {
    /// Paper matrix id.
    pub id: u32,
    /// Actual order used (after scaling).
    pub n: usize,
    /// Actual density.
    pub density: f64,
    /// Scheme.
    pub scheme: Scheme,
    /// Model-optimal interval `s̃`.
    pub s_model: usize,
    /// Mean time at `s̃`.
    pub time_model: f64,
    /// Empirically best interval `s*`.
    pub s_best: usize,
    /// Mean time at `s*`.
    pub time_best: f64,
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
    /// Cost-parameter instantiation.
    pub cost_mode: CostMode,
    /// Solver iterating under the protocol (experiment dimension; the
    /// paper's tables use CG).
    pub solver: SolverKind,
    /// Crash-safety: when set, each (matrix, scheme) interval-sweep
    /// campaign journals to `<dir>/table1-<id>-<scheme>.jsonl` and
    /// auto-resumes from it, so a killed Table 1 run re-executes only
    /// the missing repetitions. Results are byte-identical either way.
    pub journal_dir: Option<std::path::PathBuf>,
    /// When set, each (matrix, scheme) campaign writes its
    /// deterministic protocol-event trace to
    /// `<dir>/table1-<id>-<scheme>.trace.jsonl`.
    pub trace_dir: Option<std::path::PathBuf>,
    /// When set, each (matrix, scheme) campaign writes its phase-timing
    /// sidecar to `<dir>/table1-<id>-<scheme>.metrics.jsonl`.
    pub metrics_dir: Option<std::path::PathBuf>,
}

impl Default for Table1Params {
    fn default() -> Self {
        Self {
            scale: 16,
            reps: 50,
            alpha: 1.0 / 16.0,
            sweep: &[1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 25, 30, 40],
            threads: 4,
            cost_mode: CostMode::PaperLike,
            solver: SolverKind::Cg,
            journal_dir: None,
            trace_dir: None,
            metrics_dir: None,
        }
    }
}

fn scheme_config(
    scheme: Scheme,
    s: usize,
    costs: &MeasuredCosts,
    solver: SolverKind,
) -> ResilientConfig {
    let mut cfg = ResilientConfig::new(scheme, s);
    cfg.costs = costs.for_scheme(scheme);
    cfg.solver = solver;
    cfg
}

/// Builds the campaign for one (matrix, scheme) entry: one
/// configuration per candidate interval, with `s̃` always first.
pub fn entry_campaign(
    spec: &MatrixSpec,
    a: &Arc<CsrMatrix>,
    costs: &MeasuredCosts,
    scheme: Scheme,
    params: &Table1Params,
) -> Vec<ConfigJob> {
    let model_costs = costs.for_scheme(scheme);
    let s_model = optimize::optimal_abft_interval(scheme, params.alpha, 1.0, &model_costs, 4000).s;
    let b = Arc::new(spec.rhs(a.n_rows()));
    let mut intervals = vec![s_model];
    intervals.extend(params.sweep.iter().copied().filter(|&s| s != s_model));
    intervals
        .into_iter()
        .map(|s| {
            ConfigJob::new(
                format!("paper:{}", spec.id),
                Arc::clone(a),
                Arc::clone(&b),
                scheme_config(scheme, s, costs, params.solver),
                params.alpha,
                InjectorSpec::Paper,
            )
        })
        .collect()
}

/// Runs the Table 1 experiment for one matrix and one scheme: the
/// interval sweep is a single engine campaign (one configuration per
/// candidate `s`, concurrent across the worker pool).
pub fn run_entry(
    spec: &MatrixSpec,
    a: &Arc<CsrMatrix>,
    costs: &MeasuredCosts,
    scheme: Scheme,
    params: &Table1Params,
) -> Table1Entry {
    let configs = entry_campaign(spec, a, costs, scheme, params);
    let stem = format!("table1-{}-{}", spec.id, scheme.name());
    let journal = params
        .journal_dir
        .as_ref()
        .map(|dir| dir.join(format!("{stem}.jsonl")));
    let trace = params
        .trace_dir
        .as_ref()
        .map(|dir| dir.join(format!("{stem}.trace.jsonl")));
    let metrics = params
        .metrics_dir
        .as_ref()
        .map(|dir| dir.join(format!("{stem}.metrics.jsonl")));
    let result = crate::runner::run_configs_instrumented(
        "table1",
        10_000 + spec.id as u64,
        params.reps,
        params.threads,
        configs,
        journal.as_deref(),
        trace.as_deref(),
        metrics.as_deref(),
    )
    .unwrap_or_else(|e| {
        panic!(
            "table1 journal for matrix {} / {}: {e}",
            spec.id,
            scheme.name()
        )
    });
    // Panicked repetitions would silently skew (or zero) the means and
    // could even be picked as the "best" interval; fail loudly like the
    // pre-engine runner did.
    assert_eq!(
        result.panics,
        0,
        "table1: {} repetition(s) panicked for matrix {} / {}",
        result.panics,
        spec.id,
        scheme.name()
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
        let costs = resolve_costs(params.cost_mode, &a, 9);
        for scheme in [Scheme::AbftDetection, Scheme::AbftCorrection] {
            rows.push(run_entry(spec, &a, &costs, scheme, params));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::by_id;

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
        let costs = resolve_costs(CostMode::PaperLike, &a, 3);
        let e = run_entry(&spec, &a, &costs, Scheme::AbftCorrection, &quick_params());
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
        let a = spec.generate(48);
        let costs = resolve_costs(CostMode::PaperLike, &a, 3);
        let model_costs = costs.for_scheme(Scheme::AbftDetection);
        let s = optimize::optimal_abft_interval(
            Scheme::AbftDetection,
            1.0 / 16.0,
            1.0,
            &model_costs,
            4000,
        )
        .s;
        assert!((3..=60).contains(&s), "s̃={s} implausible for Table 1");
    }
}
