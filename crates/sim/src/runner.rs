//! Runs the Table 1 / Figure 1 harness campaigns: one engine campaign
//! per (matrix, scheme), optionally journaled, traced and timed, and
//! checked for lost repetitions. Repetitions are indexed jobs on the
//! `ftcg-engine` worker pool and aggregate by job index, so the
//! summaries never depend on thread scheduling.

use std::path::PathBuf;

use ftcg_engine::{fold_outcome, run_configs_sharded, CampaignResult, ConfigJob, RunOptions};

/// Where a harness writes each (matrix, scheme) campaign's durable logs,
/// one file per campaign, named by its stem (`table1-<id>-<scheme>`,
/// `figure1-<id>-<scheme>`). Every log is opened under the auto-resume
/// rule, so a killed harness run re-executes only the missing
/// repetitions; the results are byte-identical either way.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArtifactDirs {
    /// Job journal: `<dir>/<stem>.jsonl`.
    pub journal: Option<PathBuf>,
    /// Deterministic protocol-event trace: `<dir>/<stem>.trace.jsonl`.
    pub trace: Option<PathBuf>,
    /// Phase-timing sidecar: `<dir>/<stem>.metrics.jsonl`.
    pub metrics: Option<PathBuf>,
}

/// Runs one harness campaign named `name` and returns its summaries,
/// with its logs under `dirs` (see [`ArtifactDirs`]).
///
/// A stale log (from a different campaign: the manifest's grid
/// fingerprint rejects it), any other log failure, or a panicked
/// repetition aborts the run: a silently shrunken sample would skew the
/// means, and could even be picked as the best interval.
#[expect(
    clippy::panic,
    reason = "experiment-harness boundary: a table1/figure1 journal, trace or sidecar failure mid-campaign has no recovery and must abort the run loudly"
)]
pub(crate) fn run_checked(
    name: &str,
    stem: &str,
    campaign_seed: u64,
    reps: usize,
    threads: usize,
    configs: Vec<ConfigJob>,
    dirs: &ArtifactDirs,
) -> CampaignResult {
    let path = |dir: &Option<PathBuf>, suffix: &str| {
        dir.as_ref().map(|d| d.join(format!("{stem}{suffix}")))
    };
    let journal = path(&dirs.journal, ".jsonl");
    let trace = path(&dirs.trace, ".trace.jsonl");
    let metrics = path(&dirs.metrics, ".metrics.jsonl");
    let opts = RunOptions {
        journal: journal.as_deref(),
        trace: trace.as_deref(),
        metrics: metrics.as_deref(),
        resume: true,
        ..RunOptions::default()
    };
    let result = run_configs_sharded(name, campaign_seed, reps, threads, &configs, &opts)
        .and_then(|outcome| fold_outcome(name, reps, &configs, outcome))
        .unwrap_or_else(|e| panic!("{stem}: harness campaign logs failed: {e}"));
    assert_eq!(
        result.panics, 0,
        "{stem}: {} repetition(s) panicked",
        result.panics
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_engine::InjectorSpec;
    use ftcg_model::Scheme;
    use ftcg_solvers::resilient::ResilientConfig;
    use ftcg_sparse::gen;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    #[test]
    fn journaled_run_matches_in_memory_run_and_auto_resumes() {
        let a = Arc::new(gen::poisson2d(8).unwrap());
        let rhs = Arc::new(vec![1.0; a.n_rows()]);
        let mk = || {
            vec![ConfigJob::new(
                "poisson2d:8",
                Arc::clone(&a),
                Arc::clone(&rhs),
                ResilientConfig::new(Scheme::AbftCorrection, 8),
                1.0 / 16.0,
                InjectorSpec::Paper,
            )]
        };
        let dir = std::env::temp_dir().join(format!("ftcg-sim-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.jsonl");
        let _ = std::fs::remove_file(&path);
        let dirs = ArtifactDirs {
            journal: Some(dir.clone()),
            ..ArtifactDirs::default()
        };
        let run = |seed| run_checked("e", "entry", seed, 4, 2, mk(), &dirs);
        let configs = mk();
        let unjournaled = run_configs_sharded("e", 3, 4, 2, &configs, &RunOptions::default());
        let plain = fold_outcome("e", 4, &configs, unjournaled.unwrap()).unwrap();
        let journaled = run(3);
        assert_eq!(plain.summaries, journaled.summaries);
        // Drop the trailing records (simulated kill) and re-run: the
        // auto-resume replays the survivors and the result still
        // matches bit for bit.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        let resumed = run(3);
        assert_eq!(plain.summaries, resumed.summaries);
        // A stale journal (different campaign seed) is rejected loudly.
        assert!(catch_unwind(AssertUnwindSafe(|| run(4))).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
