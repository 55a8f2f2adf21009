//! Expansion of a [`CampaignSpec`] into fully resolved configurations.

use std::sync::Arc;

use ftcg_model::{CostProfile, Scheme};
use ftcg_solvers::resilient::ResilientConfig;
use ftcg_solvers::SolverKind;
use ftcg_sparse::CsrMatrix;

use crate::spec::{CampaignSpec, IntervalPolicy, MatrixResolver};
use crate::EngineError;

/// Identity of one grid configuration (one summary row).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigKey {
    /// Matrix label (the source spec string).
    pub matrix: String,
    /// Matrix order actually used.
    pub n: usize,
    /// Resilience scheme.
    pub scheme: Scheme,
    /// Solver iterating under the protocol.
    pub solver: SolverKind,
    /// Expected faults per iteration.
    pub alpha: f64,
    /// Checkpoint interval `s`.
    pub s: usize,
    /// Verification interval `d`.
    pub d: usize,
}

/// Which fault model drives a configuration's injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectorSpec {
    /// No injection, whatever α says.
    None,
    /// The paper's full fault model (matrix arrays + CG vectors).
    Paper,
    /// Matrix-only, high-bit flips (model-validation ablation).
    Calibrated,
}

/// One fully resolved configuration, ready to run `reps` times.
#[derive(Debug, Clone)]
pub struct ConfigJob {
    /// Identity for reporting.
    pub key: ConfigKey,
    /// The (pristine) system matrix, shared across repetitions.
    pub matrix: Arc<CsrMatrix>,
    /// Right-hand side.
    pub rhs: Arc<Vec<f64>>,
    /// Solver/recovery configuration.
    pub cfg: ResilientConfig,
    /// Fault model.
    pub injector: InjectorSpec,
    /// Seed-derivation coordinate; `None` means "this config's own grid
    /// index". [`expand`] sets a *solver-free* coordinate so every
    /// solver variant at the same (matrix, scheme, α) point draws
    /// identical fault streams — the common-random-numbers pairing that
    /// makes solver columns comparable under injection.
    pub seed_group: Option<u64>,
}

impl ConfigJob {
    /// Builds a config job from its parts, deriving the key's interval
    /// fields from `cfg`.
    pub fn new(
        matrix_label: impl Into<String>,
        matrix: Arc<CsrMatrix>,
        rhs: Arc<Vec<f64>>,
        cfg: ResilientConfig,
        alpha: f64,
        injector: InjectorSpec,
    ) -> Self {
        let key = ConfigKey {
            matrix: matrix_label.into(),
            n: matrix.n_rows(),
            scheme: cfg.scheme,
            solver: cfg.solver,
            alpha,
            s: cfg.checkpoint_interval,
            d: cfg.verif_interval,
        };
        ConfigJob {
            key,
            matrix,
            rhs,
            cfg,
            injector,
            seed_group: None,
        }
    }
}

/// Resolves the scheme/α point into a [`ResilientConfig`] under the
/// given interval policy: [`ResilientConfig::model_optimal`] with the
/// scheme's [`CostProfile::DEFAULT`] costs (the planner and profile the
/// `ftcg::ResilientCg` builder uses too), then the `Fixed(s)` override
/// (which keeps ONLINE-DETECTION's planned `d`) and the iteration cap.
pub fn plan_config(
    scheme: Scheme,
    alpha: f64,
    interval: IntervalPolicy,
    max_iters: usize,
) -> ResilientConfig {
    let costs = CostProfile::DEFAULT.for_scheme(scheme);
    let mut cfg = ResilientConfig::model_optimal(scheme, alpha, costs);
    if let IntervalPolicy::Fixed(s) = interval {
        cfg.checkpoint_interval = s;
    }
    cfg.max_productive_iters = max_iters;
    cfg
}

/// Deterministic default right-hand side (same shape the benches use).
pub fn default_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i as f64 * 0.23).sin()).collect()
}

/// Expands a spec into its configuration list, resolving every matrix
/// once (grid order: matrices → schemes → alphas → solvers; this order
/// is the config-index order seed derivation and output rows use —
/// solvers innermost, so specs without that axis keep their historical
/// config indices and fault streams).
pub fn expand(
    spec: &CampaignSpec,
    resolver: &dyn MatrixResolver,
) -> Result<Vec<ConfigJob>, EngineError> {
    if spec.n_jobs() == 0 {
        return Err(EngineError::EmptyGrid);
    }
    let mut configs = Vec::with_capacity(spec.n_configs());
    // Solver-free coordinate: advances per (matrix, scheme, α) point so
    // every solver variant of a point shares one fault-stream seed
    // (paired streams — common random numbers).
    let mut point = 0u64;
    for source in &spec.matrices {
        let a = Arc::new(resolver.resolve(source)?);
        if !a.is_square() {
            return Err(EngineError::Matrix(format!(
                "{}: matrix must be square",
                source.label()
            )));
        }
        let rhs = Arc::new(default_rhs(a.n_rows()));
        for &scheme in &spec.schemes {
            for &alpha in &spec.alphas {
                for &solver in &spec.solvers {
                    let mut cfg = plan_config(scheme, alpha, spec.interval, spec.max_iters);
                    cfg.solver = solver;
                    let mut job = ConfigJob::new(
                        source.label(),
                        Arc::clone(&a),
                        Arc::clone(&rhs),
                        cfg,
                        alpha,
                        InjectorSpec::Paper,
                    );
                    job.seed_group = Some(point);
                    configs.push(job);
                }
                point += 1;
            }
        }
    }
    Ok(configs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DefaultResolver;

    #[test]
    fn expansion_order_and_size() {
        let spec = CampaignSpec::parse(
            "matrices = poisson2d:6, poisson2d:8\n\
             schemes = detection, correction\n\
             alphas = 0, 1/16\n\
             reps = 2\n",
        )
        .unwrap();
        let configs = expand(&spec, &DefaultResolver).unwrap();
        assert_eq!(configs.len(), 8);
        // matrices outermost, alphas innermost
        assert_eq!(configs[0].key.matrix, "poisson2d:6");
        assert_eq!(configs[0].key.alpha, 0.0);
        assert_eq!(configs[1].key.alpha, 1.0 / 16.0);
        assert_eq!(configs[4].key.matrix, "poisson2d:8");
        // matrices shared across configs of the same source
        assert!(Arc::ptr_eq(&configs[0].matrix, &configs[3].matrix));
        assert!(!Arc::ptr_eq(&configs[0].matrix, &configs[4].matrix));
    }

    #[test]
    fn model_optimal_interval_scales_with_alpha() {
        let low = plan_config(
            Scheme::AbftCorrection,
            1e-4,
            IntervalPolicy::ModelOptimal,
            1000,
        );
        let high = plan_config(
            Scheme::AbftCorrection,
            0.2,
            IntervalPolicy::ModelOptimal,
            1000,
        );
        assert!(low.checkpoint_interval > high.checkpoint_interval);
    }

    #[test]
    fn fixed_interval_respected() {
        let cfg = plan_config(Scheme::AbftDetection, 0.1, IntervalPolicy::Fixed(9), 1000);
        assert_eq!(cfg.checkpoint_interval, 9);
        assert_eq!(cfg.verif_interval, 1);
    }

    #[test]
    fn online_gets_a_verification_interval() {
        let cfg = plan_config(
            Scheme::OnlineDetection,
            0.01,
            IntervalPolicy::ModelOptimal,
            1000,
        );
        assert!(cfg.verif_interval > 1);
        assert_eq!(
            cfg.costs,
            CostProfile::DEFAULT.for_scheme(Scheme::OnlineDetection)
        );
    }
}
