//! Figure 1 — execution time of the three schemes against the normalized
//! MTBF `1/α`.
//!
//! For each matrix and each point of a logarithmic `1/α` grid (the paper
//! plots `10²…10⁴⁺`), every scheme runs `reps` repetitions at its
//! model-optimal intervals under the `CostProfile::PAPER_LIKE` costs:
//! `s̃` from eq. 6 for the ABFT schemes, the joint `(d, s)` optimum for
//! ONLINE-DETECTION (standing in for Chen's closed form, which our
//! abstract model subsumes).

use std::sync::Arc;

use ftcg_engine::{ConfigJob, InjectorSpec};
use ftcg_model::{CostProfile, Scheme};
use ftcg_solvers::resilient::ResilientConfig;
use ftcg_solvers::SolverKind;
use ftcg_sparse::CsrMatrix;

use crate::matrices::MatrixSpec;
use crate::runner::{run_checked, ArtifactDirs};

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
    /// Solver iterating under the protocol (the paper plots CG).
    pub solver: SolverKind,
    /// Log directories of the (matrix, scheme) curve campaigns
    /// (`figure1-<id>-<scheme>.*`).
    pub dirs: ArtifactDirs,
}

impl Default for Figure1Params {
    fn default() -> Self {
        Self {
            scale: 16,
            reps: 50,
            mtbf_grid: log_grid(2e1, 2e4, 7),
            threads: 4,
            solver: SolverKind::Cg,
            dirs: ArtifactDirs::default(),
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
    scheme: Scheme,
    params: &Figure1Params,
) -> Vec<ConfigJob> {
    let costs = CostProfile::PAPER_LIKE.for_scheme(scheme);
    let b = Arc::new(spec.rhs(a.n_rows()));
    params
        .mtbf_grid
        .iter()
        .map(|&mtbf| {
            let alpha = 1.0 / mtbf;
            let mut cfg = ResilientConfig::model_optimal(scheme, alpha, costs);
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
    let campaign_seed = 1_000_000 + spec.id as u64;
    let mut curves: Vec<(Scheme, Vec<Figure1Point>)> = Vec::with_capacity(3);
    for scheme in Scheme::ALL {
        let result = run_checked(
            "figure1",
            &format!("figure1-{}-{}", spec.id, scheme.name()),
            campaign_seed,
            params.reps,
            params.threads,
            curve_campaign(spec, &a, scheme, params),
            &params.dirs,
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
    use crate::report::figure1_csv;

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

    /// The `PAPER_LIKE` planning path under all three schemes: rows
    /// captured from an earlier build.
    #[test]
    fn csv_matches_a_pinned_earlier_build() {
        let params = Figure1Params {
            scale: 64,
            reps: 2,
            mtbf_grid: log_grid(20.0, 2e4, 3),
            threads: 2,
            ..Figure1Params::default()
        };
        let csv = figure1_csv(&[run_panel(&by_id(341).unwrap(), &params)]);
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(
            rows,
            [
                "341,400,ONLINE-DETECTION,20.0000,415.500000,31.819805,1,6",
                "341,400,ONLINE-DETECTION,632.4555,298.500000,31.819805,1,42",
                "341,400,ONLINE-DETECTION,20000.0000,219.000000,0.000000,4,64",
                "341,400,ABFT-DETECTION,20.0000,357.200000,39.315137,7,1",
                "341,400,ABFT-DETECTION,632.4555,269.500000,2.969848,47,1",
                "341,400,ABFT-DETECTION,20000.0000,236.500000,0.000000,268,1",
                "341,400,ABFT-CORRECTION,20.0000,270.200000,0.848528,51,1",
                "341,400,ABFT-CORRECTION,632.4555,258.000000,0.000000,1633,1",
                "341,400,ABFT-CORRECTION,20000.0000,258.000000,0.000000,4000,1",
            ]
        );
    }
}
