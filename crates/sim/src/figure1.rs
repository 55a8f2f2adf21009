//! Figure 1 — execution time of the three schemes against the normalized
//! MTBF `1/α`.
//!
//! For each matrix and each point of a logarithmic `1/α` grid (the paper
//! plots `10²…10⁴⁺`), every scheme runs `reps` repetitions at its
//! model-optimal intervals: `s̃` from eq. 6 for the ABFT schemes, the
//! joint `(d, s)` optimum for ONLINE-DETECTION (standing in for Chen's
//! closed form, which our abstract model subsumes).

use std::sync::Arc;

use ftcg_engine::{ConfigJob, InjectorSpec};
use ftcg_kernels::KernelSpec;
use ftcg_model::{optimize, Scheme};
use ftcg_solvers::resilient::ResilientConfig;
use ftcg_solvers::SolverKind;
use ftcg_sparse::CsrMatrix;

use crate::matrices::MatrixSpec;
use crate::measure::{resolve_costs, CostMode, MeasuredCosts};

/// One point of one curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Point {
    /// Normalized MTBF `1/α`.
    pub mtbf: f64,
    /// Mean simulated execution time.
    pub mean_time: f64,
    /// Standard deviation across repetitions.
    pub std_time: f64,
    /// Chosen checkpoint interval `s`.
    pub s: usize,
    /// Chosen verification interval `d` (1 for ABFT schemes).
    pub d: usize,
}

/// One sub-plot: a matrix with its three curves.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Panel {
    /// Paper matrix id.
    pub id: u32,
    /// Actual order used.
    pub n: usize,
    /// Curves per scheme, in `Scheme::ALL` order.
    pub curves: [(Scheme, Vec<Figure1Point>); 3],
}

/// Experiment parameters.
///
/// On the MTBF grid: the physically meaningful variable is *expected
/// faults per run* = `iterations / MTBF`. The paper's full-size matrices
/// run for thousands of CG iterations, so its `1/α ∈ [10², 10⁴⁺]` axis
/// spans ~10 faults/run down to ~0.1. The scaled miniatures run for a
/// few hundred iterations, so the default grid is shifted one decade
/// down to cover the same faults-per-run range; `scale = 1` with the
/// paper's grid reproduces the original axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Params {
    /// Matrix scale divisor.
    pub scale: usize,
    /// Repetitions per point (paper: 50).
    pub reps: usize,
    /// Normalized MTBF grid (`1/α` values).
    pub mtbf_grid: Vec<f64>,
    /// Worker threads.
    pub threads: usize,
    /// Cost-parameter instantiation.
    pub cost_mode: CostMode,
    /// SpMV backend for every solve.
    pub kernel: KernelSpec,
    /// Solver iterating under the protocol (the paper plots CG).
    pub solver: SolverKind,
    /// Crash-safety: when set, each (matrix, scheme) curve campaign
    /// journals to `<dir>/figure1-<id>-<scheme>.jsonl` and auto-resumes
    /// from it, so a killed Figure 1 run re-executes only the missing
    /// repetitions. Results are byte-identical either way.
    pub journal_dir: Option<std::path::PathBuf>,
    /// When set, each (matrix, scheme) curve campaign writes its
    /// deterministic protocol-event trace to
    /// `<dir>/figure1-<id>-<scheme>.trace.jsonl`.
    pub trace_dir: Option<std::path::PathBuf>,
    /// When set, each (matrix, scheme) curve campaign writes its
    /// phase-timing sidecar to `<dir>/figure1-<id>-<scheme>.metrics.jsonl`.
    pub metrics_dir: Option<std::path::PathBuf>,
}

impl Default for Figure1Params {
    fn default() -> Self {
        Self {
            scale: 16,
            reps: 50,
            mtbf_grid: log_grid(2e1, 2e4, 7),
            threads: 4,
            cost_mode: CostMode::PaperLike,
            kernel: KernelSpec::Csr,
            solver: SolverKind::Cg,
            journal_dir: None,
            trace_dir: None,
            metrics_dir: None,
        }
    }
}

/// Logarithmically spaced grid from `lo` to `hi` with `points` entries.
pub fn log_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2 && lo > 0.0 && hi > lo);
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..points)
        .map(|i| (llo + (lhi - llo) * i as f64 / (points - 1) as f64).exp())
        .collect()
}

/// Chooses the model-optimal configuration of `scheme` at rate `alpha`.
pub fn optimal_config(scheme: Scheme, alpha: f64, costs: &MeasuredCosts) -> ResilientConfig {
    let model_costs = costs.for_scheme(scheme);
    let mut cfg;
    match scheme {
        Scheme::OnlineDetection => {
            let plan = optimize::optimal_online_interval(alpha, 1.0, &model_costs, 64, 1000);
            cfg = ResilientConfig::new(scheme, plan.s);
            cfg.verif_interval = plan.d;
        }
        _ => {
            let opt = optimize::optimal_abft_interval(scheme, alpha, 1.0, &model_costs, 4000);
            cfg = ResilientConfig::new(scheme, opt.s);
        }
    }
    cfg.costs = model_costs;
    cfg
}

/// Builds one scheme's curve campaign: one configuration per MTBF grid
/// point at the scheme's model-optimal intervals.
///
/// Each scheme runs as its *own* campaign with the same campaign seed,
/// so configuration `gi` (the grid point) draws identical fault streams
/// under every scheme — the common-random-numbers pairing the paper's
/// scheme comparison relies on for variance reduction.
pub fn curve_campaign(
    spec: &MatrixSpec,
    a: &Arc<CsrMatrix>,
    costs: &MeasuredCosts,
    scheme: Scheme,
    params: &Figure1Params,
) -> Vec<ConfigJob> {
    let b = Arc::new(spec.rhs(a.n_rows()));
    // Pin `auto` once per matrix: every grid point runs (and reports)
    // the same concrete backend.
    let kernel = params.kernel.resolve(a);
    params
        .mtbf_grid
        .iter()
        .map(|&mtbf| {
            let alpha = 1.0 / mtbf;
            let mut cfg = optimal_config(scheme, alpha, costs);
            cfg.kernel = kernel;
            cfg.solver = params.solver;
            ConfigJob::new(
                format!("paper:{}", spec.id),
                Arc::clone(a),
                Arc::clone(&b),
                cfg,
                alpha,
                InjectorSpec::Paper,
            )
        })
        .collect()
}

/// Runs one matrix's panel: one engine campaign per scheme (all grid
/// points concurrent on the worker pool), fault streams paired across
/// schemes via a shared campaign seed.
pub fn run_panel(spec: &MatrixSpec, params: &Figure1Params) -> Figure1Panel {
    let a = Arc::new(spec.generate(params.scale));
    let costs = resolve_costs(params.cost_mode, &a, 9);
    let campaign_seed = 1_000_000 + spec.id as u64;
    let mut curves: Vec<(Scheme, Vec<Figure1Point>)> = Vec::with_capacity(3);
    for scheme in Scheme::ALL {
        let configs = curve_campaign(spec, &a, &costs, scheme, params);
        let stem = format!("figure1-{}-{}", spec.id, scheme.name());
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
            "figure1",
            campaign_seed,
            params.reps,
            params.threads,
            configs,
            journal.as_deref(),
            trace.as_deref(),
            metrics.as_deref(),
        )
        .unwrap_or_else(|e| {
            panic!(
                "figure1 journal for matrix {} / {}: {e}",
                spec.id,
                scheme.name()
            )
        });
        // As in table1: a silently shrunken sample must not become a
        // plotted data point.
        assert_eq!(
            result.panics,
            0,
            "figure1: {} repetition(s) panicked for matrix {} / {}",
            result.panics,
            spec.id,
            scheme.name()
        );
        let points = result
            .summaries
            .iter()
            .zip(&params.mtbf_grid)
            .map(|(row, &mtbf)| Figure1Point {
                mtbf,
                mean_time: row.time.mean,
                std_time: row.time.std,
                s: row.s,
                d: row.d,
            })
            .collect();
        curves.push((scheme, points));
    }
    Figure1Panel {
        id: spec.id,
        n: a.n_rows(),
        curves: curves.try_into().expect("exactly three schemes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::by_id;

    #[test]
    fn log_grid_properties() {
        let g = log_grid(100.0, 10_000.0, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 100.0).abs() < 1e-9);
        assert!((g[4] - 10_000.0).abs() < 1e-6);
        // log-spacing: constant ratio
        let r = g[1] / g[0];
        for w in g.windows(2) {
            assert!((w[1] / w[0] - r).abs() < 1e-9);
        }
    }

    #[test]
    fn optimal_config_shapes() {
        let a = by_id(341).unwrap().generate(64);
        let costs = resolve_costs(CostMode::PaperLike, &a, 3);
        let online = optimal_config(Scheme::OnlineDetection, 0.01, &costs);
        assert!(online.verif_interval >= 1);
        let abft = optimal_config(Scheme::AbftCorrection, 0.01, &costs);
        assert_eq!(abft.verif_interval, 1);
        assert!(abft.checkpoint_interval >= 1);
    }

    #[test]
    fn quick_panel_has_expected_shape() {
        let spec = by_id(2213).unwrap();
        let params = Figure1Params {
            scale: 48,
            reps: 4,
            mtbf_grid: vec![50.0, 5000.0],
            threads: 4,
            ..Figure1Params::default()
        };
        let panel = run_panel(&spec, &params);
        assert_eq!(panel.id, 2213);
        for (_, pts) in &panel.curves {
            assert_eq!(pts.len(), 2);
            // Higher MTBF (fewer faults) must not be slower on average
            // by a large factor.
            assert!(pts[1].mean_time <= pts[0].mean_time * 1.5);
            assert!(pts.iter().all(|p| p.mean_time > 0.0));
        }
    }
}
