//! Campaign orchestration: spec → configs → jobs → pool → summaries.
//!
//! Execution is organized around the crash-safe journal (see
//! [`crate::journal`] and the durable-log discipline of
//! `ftcg_telemetry::log`): a campaign is a set of jobs identified by
//! *global job index* (`config × reps + rep`), each job is a pure
//! function of its configuration and derived seed, and a run executes
//! some subset of the index space — everything (the classic path), one
//! shard of `k` (`--shard i/k`), or the not-yet-journaled remainder
//! (`--resume`). Summaries are *folded* from `(job_index, record)`
//! pairs in index order, never in completion order, so every
//! decomposition of a campaign into threads, shards, processes, and
//! resumed sessions produces byte-identical artifacts.
//!
//! There is one execution entry point, [`run_configs_sharded`], over a
//! list of configurations; [`fold_outcome`] folds its full-coverage
//! outcome into a [`CampaignResult`]. [`run_campaign`] and
//! [`run_campaign_sharded`] expand a declarative spec first, and
//! programmatic callers (the `ftcg-sim` harness, the benchmark) call
//! the pair themselves.
#![expect(
    clippy::disallowed_methods,
    reason = "JobSpan wall-clock stamps go to the metrics sidecar only"
)]

use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, PoisonError};
use std::time::Instant;

use ftcg_fault::Injector;
use ftcg_solvers::resilient::{solve_resilient_in, solve_resilient_recorded};
use ftcg_telemetry::log::Header;
use ftcg_telemetry::metrics::MetricsWriter;
use ftcg_telemetry::{Event, JobSpan, Recorder, TelemetryError, TraceMeta, TraceWriter};

use crate::aggregate::{self, ConfigSummary, JobMetrics};
use crate::grid::{expand, ConfigJob};
use crate::journal::{self, fingerprint, JobRecord, JournalWriter, Shard};
use crate::pool::{effective_threads, run_indices_ctx, ProgressFn};
use crate::seedstream::derive_seed;
use crate::spec::{CampaignSpec, MatrixResolver};
use crate::workspace::JobWorkspace;
use crate::EngineError;

/// The outcome of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-configuration summaries, in grid order.
    pub summaries: Vec<ConfigSummary>,
    /// Jobs executed (configurations × repetitions).
    pub total_jobs: usize,
    /// Jobs lost to panics or NaN-poisoned metrics.
    pub panics: usize,
    /// Worker threads used (0 when folded from journals only).
    pub threads: usize,
    /// Wall-clock seconds (not part of any serialized artifact —
    /// artifacts stay byte-deterministic).
    pub elapsed_secs: f64,
}

/// How a campaign run is decomposed and journaled. The journal, trace
/// and sidecar are durable logs: `ftcg_telemetry::log` states how they
/// are created, appended, resumed and deduplicated, once for all three.
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    /// The slice of the job space this process runs.
    pub shard: Shard,
    /// Journal of finished jobs (replayed on resume). `None` keeps the
    /// classic in-memory-only path.
    pub journal: Option<&'a Path>,
    /// Open the logs under the resume rule: replay completed jobs and
    /// run only the remainder. Without it an existing log is an error.
    pub resume: bool,
    /// Progress callback over the jobs this process actually executes.
    pub progress: Option<ProgressFn<'a>>,
    /// Deterministic protocol-event trace, rewritten in canonical
    /// `(job, seq)` order when the run completes, which makes the file
    /// byte-identical across threads, shards, and resumes.
    pub trace: Option<&'a Path>,
    /// Non-deterministic phase-timing sidecar: per-job phase wall times
    /// and duration histograms, kept apart from the trace precisely
    /// because timings are not reproducible.
    pub metrics: Option<&'a Path>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            shard: Shard::FULL,
            journal: None,
            resume: false,
            progress: None,
            trace: None,
            metrics: None,
        }
    }
}

/// What one process contributed to a campaign: the records of its
/// shard (replayed + freshly executed), with the header identifying
/// the campaign they belong to.
#[derive(Debug)]
pub struct ShardOutcome {
    /// The identity and shard this run (and its journal, if any)
    /// carries.
    pub header: Header,
    /// All records this process knows for its shard, sorted by job
    /// index.
    pub records: Vec<(usize, JobRecord)>,
    /// Records replayed from the journal instead of executed.
    pub replayed: usize,
    /// Jobs actually executed by this process.
    pub executed: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

/// Runs one repetition of one configuration with a derived seed,
/// drawing all solve-scoped memory from the worker's retained
/// workspace (bit-identical to fresh allocation — the reuse contract).
fn run_one(job: &ConfigJob, seed: u64, ws: &mut JobWorkspace) -> JobMetrics {
    let a = job.matrix.as_ref();
    let mut inj = Injector::new(job.injector, a, job.key.alpha, seed);
    let out = solve_resilient_in(a, &job.rhs, &job.cfg, inj.as_mut(), ws.solver_workspace());
    JobMetrics::from(&out)
}

/// [`run_one`] with the worker's [`ActiveRecorder`] threaded through
/// the solve: resets the recorder, brackets the solve with
/// `job_start`/`job_finish` events, and leaves the drained-but-pending
/// telemetry in the recorder for the campaign loop to flush. Identical
/// solve results to [`run_one`] — the recorder never influences
/// control flow (pinned by the solvers crate's bit-identity test).
///
/// [`ActiveRecorder`]: ftcg_telemetry::ActiveRecorder
fn run_one_traced(job: &ConfigJob, seed: u64, ws: &mut JobWorkspace) -> JobMetrics {
    let a = job.matrix.as_ref();
    let (sw, rec) = ws.solver_and_recorder();
    rec.reset();
    rec.event(Event::job_start());
    let mut inj = Injector::new(job.injector, a, job.key.alpha, seed);
    let out = solve_resilient_recorded(a, &job.rhs, &job.cfg, inj.as_mut(), sw, rec);
    rec.finish_job(
        out.executed_iterations as u64,
        out.productive_iterations as u64,
        out.converged,
    );
    JobMetrics::from(&out)
}

/// Runs `write` on the log unless an earlier log append failed,
/// keeping the first failure: workers keep solving (results still come
/// back in memory) but stop appending, and the run errors out rather
/// than claim a durable artifact.
fn append_unless_failed<W>(
    first: &Mutex<Option<TelemetryError>>,
    log: &Mutex<W>,
    write: impl FnOnce(&mut W) -> Result<(), TelemetryError>,
) {
    // Poison means an append panicked mid-write, outside the job's
    // `catch_unwind`: that panic aborts the run once the pool joins,
    // and meanwhile nothing is appended after the torn write.
    let Ok(mut err) = first.lock() else { return };
    if err.is_none() {
        let Ok(mut log) = log.lock() else { return };
        *err = write(&mut log).err();
    }
}

/// Takes a lock's value after the pool has returned. Only a panic in an
/// append poisons a lock, and that panic propagates out of the pool, so
/// here the poison case cannot occur; it maps to the value all the same.
fn unpoisoned<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload to text, for the job's
/// [`Failed`](crate::journal::JobRecord::Failed) record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// A repetition whose aggregate metrics are non-finite is a *failed*
/// repetition (folded into the `panics` column), not a poison pill for
/// the whole campaign's statistics. `true_residual` is exempt: a NaN
/// residual on a diverged-but-completed solve deliberately poisons the
/// `max_true_residual` column only.
fn failure_reason(m: &JobMetrics) -> Option<String> {
    if !m.simulated_time.is_finite() {
        return Some(format!(
            "non-finite simulated_time ({}): NaN-poisoned metrics count as a \
             failed repetition",
            m.simulated_time
        ));
    }
    None
}

/// Executes one shard of a campaign's job space, optionally journaled.
///
/// Job results are deterministic functions of `(configs, campaign_seed,
/// job_index)`; neither the shard decomposition, the thread count, nor
/// a resume boundary can change a single record.
pub fn run_configs_sharded(
    name: &str,
    campaign_seed: u64,
    reps: usize,
    threads: usize,
    configs: &[ConfigJob],
    opts: &RunOptions<'_>,
) -> Result<ShardOutcome, EngineError> {
    let started = Instant::now();
    // reps = 0 would "succeed" with one all-zero row per configuration —
    // a complete-looking but fabricated result table. Fail loudly, like
    // the declarative path does via EmptyGrid.
    assert!(reps >= 1, "run_configs_sharded: reps must be >= 1");
    let total = configs.len() * reps;
    let header = Header {
        meta: TraceMeta {
            name: name.to_string(),
            fingerprint: fingerprint(name, campaign_seed, reps, configs),
            seed: campaign_seed,
            reps,
            total_jobs: total,
        },
        shard: Some([opts.shard.index, opts.shard.count]),
    };
    let (journal, replayed_records) = match opts.journal {
        Some(path) => {
            let (w, records) = JournalWriter::open(path, &header, opts.resume)?;
            (Some(Mutex::new(w)), records)
        }
        None => (None, Vec::new()),
    };
    // Trace and sidecar carry the shard-free campaign identity, so the
    // shard files of one campaign share a header and merge cleanly.
    let meta = &header.meta;
    let open_trace = |p| TraceWriter::open(p, meta, opts.resume).map(Mutex::new);
    let tracer = opts.trace.map(open_trace).transpose()?;
    let open_metrics = |p| MetricsWriter::open(p, meta, opts.resume).map(Mutex::new);
    let metrics = opts.metrics.map(open_metrics).transpose()?;
    // The loader bounds every replayed job index by the campaign's.
    let mut have = vec![false; total];
    replayed_records.iter().for_each(|&(j, _)| have[j] = true);
    let todo: Vec<usize> = opts
        .shard
        .job_indices(total)
        .into_iter()
        .filter(|&j| !have[j])
        .collect();
    let threads = effective_threads(threads, todo.len());
    let io_error: Mutex<Option<TelemetryError>> = Mutex::new(None);
    let traced = tracer.is_some() || metrics.is_some();
    // Each worker context gets a distinct ordinal, so metrics-sidecar
    // span records can name the worker that ran each job (the Perfetto
    // export's per-worker tracks). The ordinal labels timelines only —
    // it never reaches a deterministic artifact.
    let next_worker = AtomicU64::new(0);
    let results = run_indices_ctx(
        threads,
        &todo,
        || JobWorkspace::for_worker(next_worker.fetch_add(1, Ordering::Relaxed)),
        |ws, idx| {
            let config = idx / reps;
            let job = &configs[config];
            // Seeds derive from the job's seed group (its own index by
            // default): configs sharing a group draw identical fault
            // streams (common random numbers).
            let coord = job.seed_group.unwrap_or(config as u64);
            let seed = derive_seed(campaign_seed, coord, (idx % reps) as u64);
            let start_ns = started.elapsed().as_nanos() as u64;
            // The one panic boundary: a panic in the solve is caught
            // *here*, inside the job, so the failure reaches the journal
            // as a record — a resumed run must not re-run a
            // deterministically panicking repetition forever. A panic
            // past this point (a log append, an observer) aborts the
            // run instead of leaving memory and journal disagreeing.
            let (record, tele) = match catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    run_one_traced(job, seed, ws)
                } else {
                    run_one(job, seed, ws)
                }
            })) {
                Ok(m) => match failure_reason(&m) {
                    None => (JobRecord::Done(m), traced.then(|| ws.recorder().drain(idx))),
                    Some(reason) => (JobRecord::Failed(reason), None),
                },
                Err(payload) => (JobRecord::Failed(panic_message(payload.as_ref())), None),
            };
            // Trace block, sidecar line, journal record — the write
            // order `ftcg_telemetry::log` relies on. Failed jobs (panics,
            // NaN-poisoned metrics) write no telemetry; the recorder
            // resets at the next job's start.
            if let Some(mut tele) = tele {
                // Stamp the wall-clock execution window (sidecar only;
                // the trace appender never sees it).
                tele.span = Some(JobSpan {
                    worker: ws.worker(),
                    start_ns,
                    end_ns: started.elapsed().as_nanos() as u64,
                });
                if let Some(t) = &tracer {
                    append_unless_failed(&io_error, t, |t| t.append_job(idx, &tele.events));
                }
                if let Some(m) = &metrics {
                    append_unless_failed(&io_error, m, |m| m.append_job(&tele));
                }
            }
            if let Some(w) = &journal {
                append_unless_failed(&io_error, w, |w| w.append(idx, &record));
            }
            if let JobRecord::Done(m) = &record {
                if let Some(obs) = opts.progress {
                    obs.job_stats(m.faults as u64, m.rollbacks as u64);
                }
            }
            record
        },
        opts.progress,
    );
    if let Some(e) = unpoisoned(io_error.into_inner()) {
        return Err(e.into());
    }
    if let Some(t) = tracer {
        // The canonical (job, seq) order is what makes the on-disk trace
        // byte-identical across every threads × shards × resume
        // decomposition of the campaign.
        unpoisoned(t.into_inner()).canonicalize()?;
    }
    let replayed = replayed_records.len();
    let mut records = replayed_records;
    let executed = results.len();
    records.extend(todo.into_iter().zip(results));
    records.sort_by_key(|&(j, _)| j);
    Ok(ShardOutcome {
        header,
        records,
        replayed,
        executed,
        threads,
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

/// Folds a *complete* set of job records into per-configuration
/// summaries. Records are keyed by job index, so any arrival order —
/// any `{threads × shards}` decomposition, any resume boundary — folds
/// to identical summaries. Missing or duplicate indices are errors.
pub fn fold_records(
    name: &str,
    reps: usize,
    configs: &[ConfigJob],
    records: &[(usize, JobRecord)],
) -> Result<(Vec<ConfigSummary>, usize), EngineError> {
    let total = configs.len() * reps;
    let mut covered = vec![false; total];
    let mut panics = 0usize;
    for &(idx, ref record) in records {
        if idx >= total {
            return Err(EngineError::Journal(format!(
                "record for job {idx} out of range (campaign has {total} jobs)"
            )));
        }
        if std::mem::replace(&mut covered[idx], true) {
            return Err(EngineError::Journal(format!(
                "duplicate record for job {idx}"
            )));
        }
        if let JobRecord::Failed(_) = record {
            panics += 1;
        }
    }
    let missing = covered.iter().filter(|&&c| !c).count();
    if missing > 0 {
        let first = covered.iter().position(|&c| !c).unwrap_or(0);
        return Err(EngineError::Journal(format!(
            "incomplete campaign: {missing} of {total} jobs have no record \
             (first missing: job {first}); run the remaining shards or --resume"
        )));
    }
    let done = records.iter().filter_map(|(idx, record)| match record {
        JobRecord::Done(m) => Some((*idx, m)),
        JobRecord::Failed(_) => None,
    });
    Ok((aggregate::fold(name, reps, configs, done), panics))
}

/// Folds a full-coverage [`ShardOutcome`], given by value or by
/// reference, into a [`CampaignResult`].
pub fn fold_outcome(
    name: &str,
    reps: usize,
    configs: &[ConfigJob],
    outcome: impl Borrow<ShardOutcome>,
) -> Result<CampaignResult, EngineError> {
    let outcome = outcome.borrow();
    let (summaries, panics) = fold_records(name, reps, configs, &outcome.records)?;
    Ok(CampaignResult {
        summaries,
        total_jobs: outcome.header.meta.total_jobs,
        panics,
        threads: outcome.threads,
        elapsed_secs: outcome.elapsed_secs,
    })
}

/// Expands and executes a declarative campaign.
pub fn run_campaign(
    spec: &CampaignSpec,
    resolver: &dyn MatrixResolver,
    progress: Option<ProgressFn<'_>>,
) -> Result<CampaignResult, EngineError> {
    let configs = expand(spec, resolver)?;
    let opts = RunOptions {
        progress,
        ..RunOptions::default()
    };
    let outcome = run_configs_sharded(
        &spec.name,
        spec.seed,
        spec.reps,
        spec.threads,
        &configs,
        &opts,
    )?;
    fold_outcome(&spec.name, spec.reps, &configs, outcome)
}

/// Expands and executes a declarative campaign under [`RunOptions`]:
/// journaled, shardable, resumable. Returns this process's shard
/// outcome plus the folded campaign result when the shard covers the
/// whole job space (`shard.count == 1`); multi-shard runs fold later
/// via [`merge_journals`].
pub fn run_campaign_sharded(
    spec: &CampaignSpec,
    resolver: &dyn MatrixResolver,
    opts: &RunOptions<'_>,
) -> Result<(ShardOutcome, Option<CampaignResult>), EngineError> {
    let configs = expand(spec, resolver)?;
    let outcome = run_configs_sharded(
        &spec.name,
        spec.seed,
        spec.reps,
        spec.threads,
        &configs,
        opts,
    )?;
    let result = if opts.shard.count == 1 {
        Some(fold_outcome(&spec.name, spec.reps, &configs, &outcome)?)
    } else {
        None
    };
    Ok((outcome, result))
}

/// Folds shard journals into the campaign's deterministic artifacts.
///
/// Every journal must carry the manifest of the same campaign (grid
/// fingerprint, seed, shape); shard fields may differ and overlap.
/// Records are unioned by job index — identical duplicates (e.g. from
/// an overlapping re-run) are benign, conflicting ones are an error —
/// and the union must cover every job. The folded summaries are
/// byte-identical to a single-process run of the same spec.
pub fn merge_journals(
    spec: &CampaignSpec,
    resolver: &dyn MatrixResolver,
    paths: &[impl AsRef<Path>],
) -> Result<CampaignResult, EngineError> {
    let started = Instant::now();
    let configs = expand(spec, resolver)?;
    let total = spec.n_jobs();
    let campaign = TraceMeta {
        name: spec.name.clone(),
        fingerprint: fingerprint(&spec.name, spec.seed, spec.reps, &configs),
        seed: spec.seed,
        reps: spec.reps,
        total_jobs: total,
    };
    let records = journal::union(paths, campaign)?;
    let (summaries, panics) = fold_records(&spec.name, spec.reps, &configs, &records)?;
    Ok(CampaignResult {
        summaries,
        total_jobs: total,
        panics,
        threads: 0,
        elapsed_secs: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DefaultResolver;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::parse(
            "name = tiny\n\
             seed = 9\n\
             reps = 3\n\
             threads = 4\n\
             matrices = poisson2d:8\n\
             schemes = correction\n\
             alphas = 1/16\n",
        )
        .unwrap()
    }

    #[test]
    fn runs_and_aggregates() {
        let r = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        assert_eq!(r.total_jobs, 3);
        assert_eq!(r.panics, 0);
        assert_eq!(r.summaries.len(), 1);
        let s = &r.summaries[0];
        assert_eq!(s.reps, 3);
        assert!(s.time.mean > 0.0);
        assert!(s.convergence_rate > 0.0);
    }

    #[test]
    fn reruns_are_identical() {
        let a = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        let b = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        assert_eq!(a.summaries, b.summaries);
    }

    #[test]
    fn different_campaign_seeds_differ() {
        let mut spec2 = tiny_spec();
        spec2.seed = 10;
        let a = run_campaign(&tiny_spec(), &DefaultResolver, None).unwrap();
        let b = run_campaign(&spec2, &DefaultResolver, None).unwrap();
        assert_ne!(a.summaries, b.summaries);
    }

    #[test]
    fn shards_partition_the_work_and_fold_to_the_full_result() {
        let spec = tiny_spec();
        let full = run_campaign(&spec, &DefaultResolver, None).unwrap();
        let configs = expand(&spec, &DefaultResolver).unwrap();
        let mut records = Vec::new();
        for index in 0..3 {
            let opts = RunOptions {
                shard: Shard { index, count: 3 },
                ..RunOptions::default()
            };
            let out =
                run_configs_sharded(&spec.name, spec.seed, spec.reps, 1, &configs, &opts).unwrap();
            assert_eq!(out.executed, out.records.len());
            assert_eq!(out.replayed, 0);
            records.extend(out.records);
        }
        let (summaries, panics) = fold_records(&spec.name, spec.reps, &configs, &records).unwrap();
        assert_eq!(panics, 0);
        assert_eq!(summaries, full.summaries);
    }

    #[test]
    fn incomplete_records_are_rejected() {
        let spec = tiny_spec();
        let configs = expand(&spec, &DefaultResolver).unwrap();
        let opts = RunOptions {
            shard: Shard { index: 0, count: 2 },
            ..RunOptions::default()
        };
        let out =
            run_configs_sharded(&spec.name, spec.seed, spec.reps, 1, &configs, &opts).unwrap();
        let err = fold_records(&spec.name, spec.reps, &configs, &out.records).unwrap_err();
        match err {
            EngineError::Journal(m) => assert!(m.contains("incomplete"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn panicking_jobs_become_failed_records_not_aborts() {
        use crate::{ConfigJob, InjectorSpec};
        use ftcg_model::Scheme;
        use ftcg_solvers::resilient::ResilientConfig;
        use ftcg_sparse::gen;
        use std::sync::Arc;

        let a = Arc::new(gen::poisson2d(4).unwrap());
        // A wrong-length RHS makes the solve panic deterministically.
        let rhs = Arc::new(vec![1.0; 3]);
        let job = ConfigJob::new(
            "poisson2d:4",
            a,
            rhs,
            ResilientConfig::new(Scheme::AbftDetection, 5),
            0.0,
            InjectorSpec::None,
        );
        let out = run_configs_sharded(
            "p",
            0,
            2,
            1,
            std::slice::from_ref(&job),
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(out.records.len(), 2);
        assert!(out
            .records
            .iter()
            .all(|(_, r)| matches!(r, JobRecord::Failed(_))));
        let (summaries, panics) = fold_records("p", 2, &[job], &out.records).unwrap();
        assert_eq!(panics, 2);
        assert_eq!(summaries[0].reps, 0);
        assert_eq!(summaries[0].panics, 2);
    }

    #[test]
    fn journal_and_memory_agree_when_a_job_panics() {
        use crate::journal::Journal;
        use crate::InjectorSpec;
        use ftcg_model::Scheme;
        use ftcg_solvers::resilient::ResilientConfig;
        use ftcg_sparse::gen;
        use std::sync::Arc;

        let a = Arc::new(gen::poisson2d(4).unwrap());
        let config = |rhs_len| {
            ConfigJob::new(
                "poisson2d:4",
                Arc::clone(&a),
                Arc::new(vec![1.0; rhs_len]),
                ResilientConfig::new(Scheme::AbftDetection, 5),
                0.0,
                InjectorSpec::None,
            )
        };
        // The middle configuration's wrong-length RHS panics every
        // repetition; its neighbours solve.
        let configs = [config(16), config(3), config(16)];
        let dir = std::env::temp_dir().join(format!("ftcg-campaign-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);
        let opts = RunOptions {
            journal: Some(&path),
            ..RunOptions::default()
        };
        let out = run_configs_sharded("p", 0, 2, 2, &configs, &opts).unwrap();
        assert_eq!(out.threads, 2);
        let failed: Vec<usize> = out
            .records
            .iter()
            .filter(|(_, r)| matches!(r, JobRecord::Failed(_)))
            .map(|&(j, _)| j)
            .collect();
        assert_eq!(failed, vec![2, 3]);
        let mut journaled = Journal::load(&path).unwrap().records;
        journaled.sort_by_key(|&(j, _)| j);
        assert_eq!(journaled, out.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
