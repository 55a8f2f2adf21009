#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! # ftcg-engine — concurrent campaign execution
//!
//! The paper's evaluation is a grid sweep: {matrix × scheme × fault rate
//! α × 50 seeds}. This crate turns such sweeps — and any other workload
//! over resilient solves — into *campaigns*: declarative specifications
//! expanded into schedulable jobs, executed by a worker pool across all
//! cores, and folded by a streaming aggregator into per-configuration
//! summaries with JSONL/CSV sinks.
//!
//! * [`spec`] — [`CampaignSpec`]: the declarative grid (key=value
//!   text, or built programmatically), matrix sources, and the
//!   [`MatrixResolver`] extension point for custom matrix providers;
//! * [`grid`] — expansion of a spec into fully resolved
//!   [`ConfigJob`]s (model-optimal or fixed intervals per point);
//! * [`seedstream`] — SplitMix-style derivation of independent per-job
//!   RNG seeds from one campaign seed;
//! * `pool` — the executor: scoped worker threads claiming jobs in
//!   ascending order, progress callbacks and per-worker contexts;
//! * `workspace` — `JobWorkspace`: per-worker reusable solve memory
//!   (the CG machine, the flip list over the job's matrix, the
//!   checkpoint slot) reset
//!   bit-identically per repetition;
//! * [`inject`] — the paper's fault-injector configurations;
//! * `aggregate` — per-configuration statistics
//!   (mean/std/min/max/percentiles, convergence and correction rates);
//! * [`sink`] — deterministic JSONL and CSV renderers: the same spec
//!   and seed always produce byte-identical artifacts;
//! * [`journal`] — the job-journal record format (a durable log of
//!   `ftcg_telemetry::log`), `i/k` job-space shards, and the grid
//!   fingerprint that rejects stale journals;
//! * `campaign` — the orchestration entry points: [`run_campaign`]
//!   for a declarative spec, [`run_configs_sharded`] +
//!   [`fold_outcome`] for a list of configurations, the
//!   journaled/shardable [`run_campaign_sharded`], and the
//!   deterministic [`merge_journals`] fold.
//!
//! ## Example
//!
//! ```
//! use ftcg_engine::prelude::*;
//!
//! let spec = CampaignSpec::parse(
//!     "name = demo\n\
//!      seed = 7\n\
//!      reps = 4\n\
//!      matrices = poisson2d:12\n\
//!      schemes = detection, correction\n\
//!      alphas = 0, 1/16\n",
//! )
//! .unwrap();
//! let result = run_campaign(&spec, &DefaultResolver, None).unwrap();
//! assert_eq!(result.summaries.len(), 4); // 1 matrix × 2 schemes × 2 α
//! ```

#![warn(missing_docs)]

mod aggregate;
mod campaign;
pub mod grid;
pub mod inject;
pub mod journal;
mod pool;
pub mod seedstream;
pub mod sink;
pub mod spec;
mod workspace;

pub use aggregate::ConfigSummary;
pub use campaign::{
    fold_outcome, fold_records, merge_journals, run_campaign, run_campaign_sharded,
    run_configs_sharded, CampaignResult, RunOptions,
};
pub use ftcg_fault::InjectorSpec;
pub use grid::ConfigJob;
pub use journal::{JobRecord, Journal, JournalWriter, Shard};
pub use pool::WorkerObserver;
pub use spec::{CampaignSpec, DefaultResolver, IntervalPolicy, MatrixResolver, MatrixSource};

/// Everything a typical engine user needs.
pub mod prelude {
    pub use crate::aggregate::{ConfigSummary, SummaryStats};
    pub use crate::campaign::{
        merge_journals, run_campaign, run_campaign_sharded, CampaignResult, RunOptions,
        ShardOutcome,
    };
    pub use crate::grid::{ConfigJob, ConfigKey};
    pub use crate::journal::{JobRecord, Shard};
    pub use crate::spec::{
        CampaignSpec, DefaultResolver, IntervalPolicy, MatrixResolver, MatrixSource,
    };
    pub use crate::workspace::JobWorkspace;
    pub use crate::InjectorSpec;
}

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The campaign spec text could not be parsed.
    Spec(String),
    /// A matrix source could not be resolved or generated.
    Matrix(String),
    /// The expanded grid is empty (no matrices/schemes/alphas/reps).
    EmptyGrid,
    /// Campaign records do not cover the job space: a job is missing,
    /// duplicated, or out of range.
    Journal(String),
    /// A journal, trace or metrics sidecar could not be created, loaded,
    /// resumed, merged or appended.
    Telemetry(ftcg_telemetry::TelemetryError),
}

impl From<ftcg_telemetry::TelemetryError> for EngineError {
    fn from(e: ftcg_telemetry::TelemetryError) -> EngineError {
        EngineError::Telemetry(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Spec(m) => write!(f, "spec error: {m}"),
            EngineError::Matrix(m) => write!(f, "matrix error: {m}"),
            EngineError::EmptyGrid => write!(f, "campaign expands to an empty grid"),
            EngineError::Journal(m) => write!(f, "journal error: {m}"),
            EngineError::Telemetry(e) => write!(f, "log error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}
