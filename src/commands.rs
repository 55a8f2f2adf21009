//! Subcommand implementations.

use ftcg::model::Scheme;
use ftcg::prelude::*;
use ftcg::sim::figure1::{log_grid, run_panel, Figure1Params};
use ftcg::sim::matrices::PaperMatrixResolver;
use ftcg::sim::report::{figure1_ascii, figure1_csv, table1_csv, table1_markdown};
use ftcg::sim::runner::ArtifactDirs;
use ftcg::sim::table1::{run_table1, Table1Params};
use ftcg::sim::PAPER_MATRICES;
use ftcg::sparse::stats::MatrixStats;
use ftcg::telemetry::log::{Header, JOURNAL, MERGE, METRICS};
use ftcg::telemetry::metrics::{JobPhases, MetricsFile, MetricsWriter};
use ftcg::telemetry::perfetto::perfetto_json;
use ftcg::telemetry::report::{
    fold_report, reconcile, render_analytics, render_phase_quantiles, render_report, JobCounts,
};
use ftcg::telemetry::{ActiveRecorder, Event, Recorder, Trace, TraceMeta, TraceWriter};
use ftcg_engine::{
    merge_journals, run_campaign_sharded, sink, spec, CampaignSpec, JobRecord, Journal, RunOptions,
    Shard,
};

use crate::args::{check_flags, matrix_source, parse_alpha, parse_strict, positionals, value};
use crate::progress::ProgressLine;

/// Top-level usage text.
pub(crate) const USAGE: &str = "\
ftcg — fault-tolerant Conjugate Gradient (Fasi, Robert & Uçar, PDSEC 2015)

USAGE:
  ftcg solve    (--matrix F.mtx | --gen SPEC) [--scheme S] [--alpha A]
                [--seed N] [--trace F] [--metrics F]
  ftcg stats    (--matrix F.mtx | --gen SPEC)
  ftcg campaign (--spec FILE | inline flags) [--out F.jsonl] [--csv F.csv]
                [--reps N] [--seed N] [--threads N] [--quiet]
                [--journal F.jsonl] [--resume] [--shard i/k]
                [--trace F.jsonl] [--metrics F.jsonl]
  ftcg merge    (--spec FILE | inline flags) JOURNAL... [--out F.jsonl]
                [--csv F.csv] [--reps N] [--seed N]
  ftcg report   FILE... [--spec FILE] [--perfetto OUT.json]
  ftcg bench record RESULT... --out BENCH.json [--label S] [--pr N]
  ftcg bench compare NEW.json BASE.json
  ftcg table1   [--scale N] [--reps N] [--threads N]
                [--journal-dir D] [--trace-dir D] [--metrics-dir D]
  ftcg figure1  [--scale N] [--reps N] [--points N] [--matrices N] [--threads N]
                [--journal-dir D] [--trace-dir D] [--metrics-dir D]

GENERATORS (--gen):
  poisson2d:K              5-point Laplacian on a KxK grid
  poisson3d:K              7-point Laplacian on a KxKxK grid
  random:N:DENSITY[:SEED]  strictly dominant random SPD
  illcond:N:DENS:COND[:S]  badly scaled SPD (paper-like convergence)
  paper:ID[:SCALE]         one of the nine Table 1 matrices (e.g. 341)

OPTIONS:
  --scheme   online | detection | correction (default: correction);
             the paper's full names work too (e.g. abft-correction)
  --alpha    expected faults/iteration, float or fraction (e.g. 1/16)
  --seed     injector / campaign seed (default 0)
  --threads  campaign/table1/figure1: engine worker-pool size
             (0 = all cores)
  The solver is CG, the paper's Algorithm 1. Every product runs the one
  defensive CSR traversal: the CSR arrays are what the faults hit. A
  flag outside a command's grammar, or given twice, is an error.

CAMPAIGNS:
  A campaign sweeps {matrices x schemes x alphas} with
  `--reps` repetitions per configuration, concurrently across worker
  threads, and aggregates per-configuration statistics. Same spec +
  seed => byte-identical JSONL/CSV output.

  --spec FILE   declarative spec: `key = value` lines
                (keys: name seed reps threads max_iters matrices
                schemes alphas interval; each at most once).
                `-` reads stdin.
  Inline flags instead of a file:
    --gen SPECS --schemes LIST --alphas LIST
    [--interval model|fixed:N] [--name S] [--max-iters N]
  --out F       write JSONL summaries (default: print to stdout)
  --csv F       also write CSV
  --quiet       suppress the progress ticker

CRASH SAFETY AND SCALE-OUT:
  --journal F   append-only per-job journal, flushed as jobs complete:
                a crash/kill costs at most the job in flight. The
                manifest line pins the grid fingerprint + seed, so a
                stale journal is rejected, never silently mixed in.
  --resume      replay completed jobs from the journal, run only the
                remainder. The resumed artifacts are byte-identical to
                an uninterrupted run. (Missing journal = fresh start,
                so one command line is crash-loop safe.)
  --shard i/k   run only shard i of k (job index mod k == i); requires
                --journal, forbids --out/--csv. k processes/machines
                with i = 0..k-1 split one spec; fold their journals
                with `ftcg merge`.
  ftcg merge    folds shard journals into the same byte-deterministic
                JSONL/CSV artifacts a single-process run of the spec
                produces. Journals are validated against the spec
                (fingerprint, seed, shape) and must cover every job.
  table1/figure1 accept --journal-dir D: one auto-resumed journal per
                (matrix, scheme) campaign under D — re-running after a
                crash skips finished repetitions.

OBSERVABILITY:
  --trace F     append-only protocol-event trace (JSONL): faults,
                detections, corrections, TMR votes, chunk verifies,
                checkpoints, rollbacks, escalations, per job. Keyed by
                (job, seq), never wall-clock, and canonicalized when
                the run completes, so the file is byte-identical across
                threads, shards, and kill/--resume cycles — and the
                campaign's JSONL/CSV artifacts are byte-identical with
                tracing on or off.
  --metrics F   non-deterministic sidecar: per-job phase wall times
                (step/product/checks/checkpoint/rollback) and
                log-scale duration histograms, one line per job.
                Separate file because timings are not reproducible.
  table1/figure1 take --trace-dir/--metrics-dir D: one trace/sidecar
                per (matrix, scheme) campaign under D, next to its
                journal.
  ftcg report   folds any mix of trace, metrics, and journal files
                into per-configuration event and phase-time tables
                (--spec labels rows with the campaign grid), phase
                duration quantiles (p50/p90/p99 from the sidecar's
                log-scale histograms), and protocol analytics computed
                from the deterministic trace alone (detection-latency
                distribution, rollback wasted work, empirical fault
                pressure — byte-identical across threads/shards/
                resume), and reconciles trace event counts against
                journal records — exits nonzero on any mismatch.
                --perfetto OUT.json additionally writes a Chrome
                trace_event timeline (per-worker tracks, phase spans,
                fault/detect/rollback instants) for ui.perfetto.dev or
                chrome://tracing.

PERFORMANCE OBSERVATORY (ftcg bench):
  Stores and compares what `bash benchmark/run.sh` measured
  (BENCHMARK.json names the metrics and bounds); it measures nothing.
  record F...    one recording: a sample per input (runs of one commit
                 on one host), headline their median, appended to
                 --out. An input is a full set (`run.sh --out F`: an
                 entry per workload) or the saved stdout of one run
                 (`run.sh --workload W --seed N`: one entry of the
                 metrics it printed). Units and directions come from
                 ./BENCHMARK.json, which every input must match
  compare A B    A's newest recording against B's latest entry of each
                 workload, sample k against sample k (equal sample
                 counts and seeds, or exit 2). An end-to-end metric is
                 worse (median past its bound => exit 1), unresolved
                 (B's IQR wider than the bound), better (>= 10 pairs,
                 >= 9/10 won, medians more than B's IQR apart) or same.
                 A higher failed share => exit 1. `spec`s that differ,
                 like every other error => exit 2. The pairs come from
                 scripts/pair.sh BASE NEW WORKLOAD PAIRS
";

fn load_matrix(args: &[String]) -> Result<CsrMatrix, String> {
    use ftcg_engine::MatrixResolver;
    let source = matrix_source(args)?;
    // One resolver everywhere: built-in generators + MatrixMarket files
    // + the paper's Table 1 test set (`paper:ID[:SCALE]`).
    PaperMatrixResolver
        .resolve(&source)
        .map_err(|e| e.to_string())
}

fn parse_scheme(args: &[String]) -> Result<Scheme, String> {
    // One scheme grammar for the whole workspace (accepts both the
    // short names and the paper's full spellings).
    spec::parse_scheme(value(args, "--scheme").unwrap_or("correction"))
        .map_err(|e| format!("--scheme: {e}"))
}

/// Parses a directory-valued flag (`--journal-dir`, `--trace-dir`,
/// `--metrics-dir`) for the experiment commands, creating the directory
/// so the per-(matrix, scheme) files have somewhere to land on first
/// use.
fn parse_dir_flag(args: &[String], flag: &str) -> Result<Option<std::path::PathBuf>, String> {
    match value(args, flag) {
        None => Ok(None),
        Some(d) => {
            std::fs::create_dir_all(d).map_err(|e| format!("{flag} {d}: {e}"))?;
            Ok(Some(std::path::PathBuf::from(d)))
        }
    }
}

/// The `--journal-dir` / `--trace-dir` / `--metrics-dir` flags of
/// `table1` and `figure1`.
fn parse_artifact_dirs(args: &[String]) -> Result<ArtifactDirs, String> {
    Ok(ArtifactDirs {
        journal: parse_dir_flag(args, "--journal-dir")?,
        trace: parse_dir_flag(args, "--trace-dir")?,
        metrics: parse_dir_flag(args, "--metrics-dir")?,
    })
}

/// The flags of `solve`, `stats`, `report`, `table1` and `figure1` as
/// `ftcg help` lists them; all take a value.
const SOLVE_FLAGS: [&str; 7] = [
    "--matrix",
    "--gen",
    "--scheme",
    "--alpha",
    "--seed",
    "--trace",
    "--metrics",
];
const STATS_FLAGS: [&str; 2] = ["--matrix", "--gen"];
const REPORT_FLAGS: [&str; 2] = ["--spec", "--perfetto"];
const TABLE1_FLAGS: [&str; 6] = [
    "--scale",
    "--reps",
    "--threads",
    "--journal-dir",
    "--trace-dir",
    "--metrics-dir",
];
const FIGURE1_FLAGS: [&str; 8] = [
    "--scale",
    "--reps",
    "--points",
    "--matrices",
    "--threads",
    "--journal-dir",
    "--trace-dir",
    "--metrics-dir",
];

/// `ftcg solve`.
pub(crate) fn solve(args: &[String]) -> Result<(), String> {
    check_flags(args, &SOLVE_FLAGS, &[])?;
    let seed: u64 = parse_strict(args, "--seed", 0)?;
    let alpha = match value(args, "--alpha") {
        Some(s) => parse_alpha(s).ok_or_else(|| format!("bad --alpha `{s}`"))?,
        None => 0.0,
    };
    let scheme = parse_scheme(args)?;
    let a = load_matrix(args)?;
    if !a.is_square() {
        return Err("matrix must be square".into());
    }
    let n = a.n_rows();
    let b = vec![1.0; n];
    let mut builder = ftcg::ResilientCg::new(&a).scheme(scheme).seed(seed);
    if alpha > 0.0 {
        builder = builder.fault_alpha(alpha);
    }
    let plan = builder.config();
    eprintln!(
        "solving: n={n} nnz={} scheme={} alpha={alpha} seed={seed} \
         s={} d={} tcp={} trec={} tverif={}",
        a.nnz(),
        scheme.name(),
        plan.checkpoint_interval,
        plan.verif_interval,
        plan.costs.tcp,
        plan.costs.trec,
        plan.costs.tverif,
    );
    let trace = value(args, "--trace").map(std::path::PathBuf::from);
    let metrics = value(args, "--metrics").map(std::path::PathBuf::from);
    let mut recorder = (trace.is_some() || metrics.is_some()).then(ActiveRecorder::new);
    let out = match recorder.as_mut() {
        Some(rec) => {
            rec.event(Event::job_start());
            let out = builder.solve_recorded(&b, rec);
            rec.finish_job(
                out.executed_iterations as u64,
                out.productive_iterations as u64,
                out.converged,
            );
            out
        }
        None => builder.solve(&b),
    };
    if let Some(rec) = recorder.as_mut() {
        // A one-job "campaign": job 0, rep 1, identified by the
        // injector seed. Unlike campaign traces these are one-shot
        // files, so an existing one is replaced, not resumed.
        let meta = TraceMeta {
            name: "solve".into(),
            fingerprint: 0,
            seed,
            reps: 1,
            total_jobs: 1,
        };
        let tele = rec.drain(0);
        if let Some(path) = &trace {
            let _ = std::fs::remove_file(path);
            let mut w = TraceWriter::create(path, &meta)?;
            w.append_job(0, &tele.events)?;
            w.canonicalize()?;
            eprintln!("wrote trace {}", path.display());
        }
        if let Some(path) = &metrics {
            let _ = std::fs::remove_file(path);
            MetricsWriter::create(path, &meta)?.append_job(&tele)?;
            eprintln!("wrote metrics {}", path.display());
        }
    }
    println!("converged            {}", out.converged);
    println!("productive iters     {}", out.productive_iterations);
    println!("executed iters       {}", out.executed_iterations);
    println!("simulated time       {:.1} Titer", out.simulated_time);
    println!("checkpoints          {}", out.checkpoints);
    println!("rollbacks            {}", out.rollbacks);
    println!(
        "corrections          {} (ABFT {}, TMR {})",
        out.forward_corrections + out.tmr_corrections,
        out.forward_corrections,
        out.tmr_corrections
    );
    println!("injected faults      {}", out.ledger.len());
    let s = out.ledger.summary();
    println!(
        "fault outcomes       corrected {} / rolled-back {} / undetected {}",
        s.corrected, s.rolled_back, s.undetected
    );
    println!("true residual        {:.3e}", out.true_residual);
    if !out.converged {
        return Err("did not converge".into());
    }
    Ok(())
}

/// `ftcg stats`.
pub(crate) fn stats(args: &[String]) -> Result<(), String> {
    check_flags(args, &STATS_FLAGS, &[])?;
    let a = load_matrix(args)?;
    let st = MatrixStats::compute(&a);
    println!("{}", st.summary_line());
    println!(
        "memory words (fault-model M contribution): {}",
        st.fault_words
    );
    Ok(())
}

/// Grid-axis flags: the inline alternative to a `--spec` file.
const GRID_FLAGS: [&str; 6] = [
    "--gen",
    "--schemes",
    "--alphas",
    "--interval",
    "--name",
    "--max-iters",
];

/// Every value-taking flag of the campaign/merge grammar (grid flags,
/// `campaign_spec` overrides, artifact/journal destinations). `ftcg
/// merge` skips exactly these (and their values) when collecting its
/// positional journal paths — one list, so a flag added to the grammar
/// can never be half-parsed as a journal path.
fn campaign_value_flags() -> Vec<&'static str> {
    let mut flags = GRID_FLAGS.to_vec();
    flags.extend([
        "--spec",
        "--reps",
        "--seed",
        "--threads",
        "--out",
        "--csv",
        "--journal",
        "--shard",
        "--trace",
        "--metrics",
    ]);
    flags
}

/// Value-less flags of the campaign/merge grammar.
const CAMPAIGN_SWITCHES: [&str; 2] = ["--quiet", "--resume"];

/// Rejects any `--flag` outside the campaign/merge grammar
/// ([`check_flags`]).
fn check_campaign_flags(args: &[String]) -> Result<(), String> {
    check_flags(args, &campaign_value_flags(), &CAMPAIGN_SWITCHES)
}

/// Reads and parses a `--spec` file (`-` = stdin).
fn read_spec_file(path: &str) -> Result<CampaignSpec, String> {
    let text = if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("--spec stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("--spec {path}: {e}"))?
    };
    CampaignSpec::parse(&text).map_err(|e| format!("--spec {path}: {e}"))
}

fn campaign_spec(args: &[String]) -> Result<CampaignSpec, String> {
    check_campaign_flags(args)?;
    let mut cs = if let Some(path) = value(args, "--spec") {
        // Grid flags only apply to inline campaigns; silently ignoring
        // them next to --spec would let users run the wrong grid.
        if let Some(flag) = GRID_FLAGS.iter().find(|f| args.iter().any(|a| a == *f)) {
            return Err(format!(
                "{flag} cannot be combined with --spec (edit the spec file instead; \
                 only --reps/--seed/--threads override a file)"
            ));
        }
        read_spec_file(path)?
    } else {
        // Inline flags. List flags use the engine's list grammar
        // (trimmed, trailing commas harmless) — same as spec files.
        let gens = value(args, "--gen")
            .ok_or_else(|| "need --spec FILE or --gen SPECS (try `ftcg help`)".to_string())?;
        let mut cs = CampaignSpec {
            matrices: spec::split_list(gens)
                .map(|s| spec::MatrixSource::parse(s).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?,
            ..CampaignSpec::default()
        };
        cs.name = value(args, "--name").unwrap_or("campaign").to_string();
        if let Some(list) = value(args, "--schemes") {
            cs.schemes = spec::split_list(list)
                .map(spec::parse_scheme)
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
        }
        if let Some(list) = value(args, "--alphas") {
            cs.alphas = spec::split_list(list)
                .map(spec::parse_alpha)
                .collect::<Result<_, _>>()
                .map_err(|e| e.to_string())?;
        }
        cs.max_iters = parse_strict(args, "--max-iters", cs.max_iters)?;
        if let Some(iv) = value(args, "--interval") {
            cs.interval = spec::parse_interval(iv).map_err(|e| e.to_string())?;
        }
        cs
    };
    // Command-line overrides apply to file specs too. A malformed value
    // is a hard error — silently running the spec's value would produce
    // an artifact the user believes came from different parameters.
    cs.reps = parse_strict(args, "--reps", cs.reps)?;
    cs.seed = parse_strict(args, "--seed", cs.seed)?;
    cs.threads = parse_strict(args, "--threads", cs.threads)?;
    Ok(cs)
}

/// Writes campaign summaries to `--out`/`--csv` (stdout by default).
fn write_artifacts(
    args: &[String],
    summaries: &[ftcg_engine::ConfigSummary],
) -> Result<(), String> {
    match value(args, "--out") {
        Some(path) => {
            sink::save_jsonl(path, summaries).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => {
            print!("{}", sink::jsonl_string(summaries));
        }
    }
    if let Some(path) = value(args, "--csv") {
        sink::save_csv(path, summaries).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// `ftcg campaign`.
pub(crate) fn campaign(args: &[String]) -> Result<(), String> {
    let cs = campaign_spec(args)?;
    let quiet = args.iter().any(|a| a == "--quiet");
    let resume = args.iter().any(|a| a == "--resume");
    let shard = match value(args, "--shard") {
        None => Shard::FULL,
        Some(s) => Shard::parse(s).map_err(|e| e.to_string())?,
    };
    let journal = value(args, "--journal").map(std::path::PathBuf::from);
    if resume && journal.is_none() {
        return Err("--resume requires --journal FILE (nothing to replay)".into());
    }
    if shard.count > 1 {
        if journal.is_none() {
            return Err(
                "--shard requires --journal FILE: a shard's artifact is its journal; \
                 fold the shards with `ftcg merge`"
                    .into(),
            );
        }
        if value(args, "--out").is_some() || value(args, "--csv").is_some() {
            return Err(
                "--out/--csv cannot be combined with --shard (partial summaries would \
                 not be the campaign's artifacts); fold the shard journals with \
                 `ftcg merge` instead"
                    .into(),
            );
        }
    }
    eprintln!(
        "campaign `{}`: {} configurations x {} reps = {} jobs (seed {}, shard {})",
        cs.name,
        cs.n_configs(),
        cs.reps,
        cs.n_jobs(),
        cs.seed,
        shard.label(),
    );
    let trace = value(args, "--trace").map(std::path::PathBuf::from);
    let metrics = value(args, "--metrics").map(std::path::PathBuf::from);
    let ticker = ProgressLine::new();
    let opts = RunOptions {
        shard,
        journal: journal.as_deref(),
        resume,
        progress: if quiet { None } else { Some(&ticker) },
        trace: trace.as_deref(),
        metrics: metrics.as_deref(),
    };
    let (outcome, folded) =
        run_campaign_sharded(&cs, &PaperMatrixResolver, &opts).map_err(|e| e.to_string())?;
    if let Some(path) = &journal {
        eprintln!(
            "journal {}: {} job(s) replayed, {} executed",
            path.display(),
            outcome.replayed,
            outcome.executed
        );
    }
    if let Some(path) = &trace {
        eprintln!("wrote trace {}", path.display());
    }
    if let Some(path) = &metrics {
        eprintln!("wrote metrics {}", path.display());
    }
    let failed = outcome
        .records
        .iter()
        .filter(|(_, r)| matches!(r, JobRecord::Failed(_)))
        .count();
    match folded {
        Some(result) => {
            write_artifacts(args, &result.summaries)?;
            eprintln!(
                "{} jobs on {} threads in {:.2}s",
                result.total_jobs, result.threads, result.elapsed_secs
            );
        }
        None => {
            eprintln!(
                "shard {} complete: {} of {} jobs journaled ({} threads, {:.2}s); \
                 fold all shards with `ftcg merge`",
                shard.label(),
                outcome.records.len(),
                outcome.header.meta.total_jobs,
                outcome.threads,
                outcome.elapsed_secs
            );
        }
    }
    // Degraded artifacts are still written (for debugging), but a
    // campaign with failed jobs is not a successful reproduction —
    // scripts must see a failing exit code.
    if failed > 0 {
        return Err(format!(
            "{failed} job(s) failed (panic or NaN-poisoned metrics); summaries cover \
             the surviving repetitions only"
        ));
    }
    Ok(())
}

/// `ftcg merge` — folds shard journals into the campaign's artifacts.
pub(crate) fn merge(args: &[String]) -> Result<(), String> {
    let cs = campaign_spec(args)?;
    // Journal paths are the positional arguments; every value flag
    // the campaign grammar understands is skipped with its value.
    let journals = positionals(args, &campaign_value_flags());
    if journals.is_empty() {
        return Err(
            "need at least one journal: ftcg merge --spec FILE shard0.jsonl shard1.jsonl ..."
                .into(),
        );
    }
    let merged = merge_journals(&cs, &PaperMatrixResolver, &journals).map_err(|e| e.to_string())?;
    write_artifacts(args, &merged.summaries)?;
    eprintln!(
        "merged {} journal(s) covering {} jobs",
        journals.len(),
        merged.total_jobs
    );
    if merged.panics > 0 {
        return Err(format!(
            "{} job(s) failed (panic or NaN-poisoned metrics); summaries cover the \
             surviving repetitions only",
            merged.panics
        ));
    }
    Ok(())
}

/// Builds one display label per configuration from the campaign spec,
/// validating the grid against the telemetry header identity.
fn report_labels(cs: Option<&CampaignSpec>, meta: &TraceMeta) -> Result<Vec<String>, String> {
    let Some(cs) = cs else {
        let n_configs = meta.total_jobs / meta.reps;
        return Ok((0..n_configs).map(|i| format!("config {i}")).collect());
    };
    let jobs = ftcg_engine::grid::expand(cs, &PaperMatrixResolver).map_err(|e| e.to_string())?;
    let fp = ftcg_engine::journal::fingerprint(&cs.name, cs.seed, cs.reps, &jobs);
    if fp != meta.fingerprint || cs.reps != meta.reps {
        return Err(format!(
            "spec does not match the telemetry files (spec fingerprint {fp:#018x}, \
             file header {:#018x}) — pass the spec the campaign actually ran",
            meta.fingerprint
        ));
    }
    Ok(jobs
        .iter()
        .map(|j| format!("{} {} a={}", j.key.matrix, j.key.scheme.name(), j.key.alpha))
        .collect())
}

/// `ftcg report` — folds traces, metrics sidecars, and journals into
/// per-configuration tables and reconciles trace counts against
/// journal records.
pub(crate) fn report(args: &[String]) -> Result<(), String> {
    use std::collections::BTreeMap;
    check_flags(args, &REPORT_FLAGS, &[])?;
    let spec = value(args, "--spec").map(read_spec_file).transpose()?;
    let files = positionals(args, &REPORT_FLAGS);
    if files.is_empty() {
        return Err(
            "need at least one file: ftcg report run.trace.jsonl [run.metrics.jsonl] \
             [run.jsonl] [--spec FILE]"
                .into(),
        );
    }
    // Classify each positional file by its header line; any mix of
    // traces (shards merge), metrics sidecars, and journals works.
    let mut traces: Vec<Trace> = Vec::new();
    let mut metrics_files: Vec<MetricsFile> = Vec::new();
    let mut journals: Vec<(&String, Journal)> = Vec::new();
    for path in &files {
        let p = std::path::Path::new(path);
        let bytes = std::fs::read(p).map_err(|e| format!("{path}: {e}"))?;
        let end = bytes
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(bytes.len());
        let head = String::from_utf8_lossy(&bytes[..end]);
        if head.contains("\"ftcg_trace\"") {
            traces.push(Trace::load(p)?);
        } else if head.contains("\"ftcg_metrics\"") {
            metrics_files.push(MetricsFile::load(p)?);
        } else if head.contains("\"ftcg_journal\"") {
            journals.push((path, Journal::load(p)?));
        } else {
            return Err(format!(
                "{path}: not a ftcg trace, metrics sidecar, or journal \
                 (unrecognized header line)"
            ));
        }
    }
    // Shard traces merge first-wins, sidecars last-wins (so overlapping
    // sidecars never double-count), and every file must name one
    // campaign.
    let merged_trace = (!traces.is_empty())
        .then(|| Trace::merge(traces))
        .transpose()?;
    let sidecar = (!metrics_files.is_empty())
        .then(|| MetricsFile::merge(metrics_files))
        .transpose()?;
    let meta = merged_trace
        .as_ref()
        .map(|t| &t.meta)
        .or(sidecar.as_ref().map(|m| &m.meta))
        .cloned()
        .ok_or("need at least one trace or metrics file (journals alone carry no telemetry)")?;
    let expected = Header::from(meta.clone());
    if let Some(m) = &sidecar {
        Header::from(m.meta.clone()).same_campaign(&METRICS, MERGE, &expected)?;
    }
    for (path, j) in &journals {
        j.header.same_campaign(&JOURNAL, path, &expected)?;
    }
    let metrics_jobs: &[JobPhases] = sidecar.as_ref().map_or(&[], |m| &m.jobs);
    let labels = report_labels(spec.as_ref(), &meta)?;
    let trace_events = match &merged_trace {
        Some(t) => t.parsed()?,
        None => Vec::new(),
    };
    let rows = fold_report(&labels, meta.reps, &trace_events, metrics_jobs)?;
    print!("{}", render_report(&rows));
    // Phase duration quantiles from the sidecars' per-job histograms
    // (p50/p90/p99 at log2-bucket resolution).
    if let Some(h) = sidecar.as_ref().and_then(|m| m.hist.as_ref()) {
        if h.iter().any(|d| !d.is_empty()) {
            print!("\n{}", render_phase_quantiles(h));
        }
    }
    // Protocol analytics need only the deterministic trace, so the
    // tables are byte-identical across any decomposition of the run.
    if merged_trace.is_some() {
        print!("\n{}", render_analytics(&rows));
    }
    // Perfetto / chrome://tracing timeline: trace instants placed
    // inside the sidecar's wall-clock job spans.
    if let Some(path) = value(args, "--perfetto") {
        let text = perfetto_json(&meta.name, &trace_events, metrics_jobs);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote perfetto timeline {path} (open in ui.perfetto.dev or chrome://tracing)");
    }
    // Reconcile trace event counts against journal records when both
    // sides are present; any disagreement is a failing exit code.
    if merged_trace.is_some() && !journals.is_empty() {
        let mut counts: BTreeMap<usize, JobCounts> = BTreeMap::new();
        for (_, j) in &journals {
            for (idx, rec) in &j.records {
                if let JobRecord::Done(m) = rec {
                    counts.insert(
                        *idx,
                        JobCounts {
                            faults: m.faults as u64,
                            rollbacks: m.rollbacks as u64,
                            corrections: m.corrections as u64,
                            converged: m.converged,
                        },
                    );
                }
            }
        }
        let rec = reconcile(&trace_events, &counts);
        eprintln!(
            "reconciliation: {} job(s) ok, {} skipped (ring overflow), {} mismatch(es)",
            rec.jobs_ok,
            rec.jobs_skipped,
            rec.mismatches.len()
        );
        if !rec.ok() {
            for m in rec.mismatches.iter().take(10) {
                eprintln!("  {m}");
            }
            if rec.mismatches.len() > 10 {
                eprintln!("  ... and {} more", rec.mismatches.len() - 10);
            }
            return Err("trace does not reconcile with the journal records".into());
        }
    }
    Ok(())
}

/// A count of `table1` and `figure1` that 0 makes meaningless: a
/// configuration with no repetition has no mean to report, a sweep of no
/// matrix is no experiment, and `--scale` divides the published order
/// (0 would run the paper-size matrices, hours of work, unasked).
fn parse_at_least_one(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match parse_strict(args, flag, default)? {
        0 => Err(format!("{flag} must be at least 1, got 0")),
        n => Ok(n),
    }
}

/// `ftcg table1`.
pub(crate) fn table1(args: &[String]) -> Result<(), String> {
    check_flags(args, &TABLE1_FLAGS, &[])?;
    // Field order is evaluation order: every value is checked before
    // the `--*-dir` flags create their directories.
    let params = Table1Params {
        scale: parse_at_least_one(args, "--scale", 32)?,
        reps: parse_at_least_one(args, "--reps", 20)?,
        threads: parse_strict(args, "--threads", 8)?,
        dirs: parse_artifact_dirs(args)?,
        ..Table1Params::default()
    };
    eprintln!(
        "Table 1: scale=1/{}, reps={}, alpha=1/16",
        params.scale, params.reps,
    );
    let rows = run_table1(&PAPER_MATRICES, &params);
    println!("{}", table1_markdown(&rows));
    std::fs::write("table1.csv", table1_csv(&rows)).map_err(|e| format!("table1.csv: {e}"))?;
    eprintln!("wrote table1.csv");
    // The paper's two headline observations on the collected rows.
    let max_gap = rows
        .iter()
        .map(|r| r.s_model.abs_diff(r.s_best))
        .max()
        .unwrap_or(0);
    eprintln!("max |s̃ − s*| = {max_gap} (paper: values are close)");
    let mean_loss = rows.iter().map(|r| r.loss_pct).sum::<f64>() / rows.len() as f64;
    eprintln!("mean loss l = {mean_loss:.2}% (paper: small on average, noisy outliers)");
    Ok(())
}

/// `ftcg figure1`.
pub(crate) fn figure1(args: &[String]) -> Result<(), String> {
    check_flags(args, &FIGURE1_FLAGS, &[])?;
    let points = parse_strict(args, "--points", 6)?;
    if points < 2 {
        return Err(format!("--points must be at least 2, got {points}"));
    }
    let n_matrices = parse_at_least_one(args, "--matrices", PAPER_MATRICES.len())?;
    let params = Figure1Params {
        scale: parse_at_least_one(args, "--scale", 32)?,
        reps: parse_at_least_one(args, "--reps", 20)?,
        mtbf_grid: log_grid(2e1, 2e4, points),
        threads: parse_strict(args, "--threads", 8)?,
        dirs: parse_artifact_dirs(args)?,
    };
    let mut panels = Vec::new();
    for spec in PAPER_MATRICES.iter().take(n_matrices) {
        eprintln!("running matrix #{} ...", spec.id);
        let panel = run_panel(spec, &params);
        println!("{}", figure1_ascii(&panel, 64, 14));
        panels.push(panel);
    }
    std::fs::write("figure1.csv", figure1_csv(&panels)).map_err(|e| format!("figure1.csv: {e}"))?;
    eprintln!("wrote figure1.csv");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn campaign_and_merge_reject_unknown_flag_names() {
        let good = sv(&[
            "--gen",
            "poisson2d:6",
            "--reps",
            "2",
            "--quiet",
            "--resume",
            "--journal",
            "j.jsonl",
            "shard0.jsonl",
        ]);
        assert_eq!(campaign_spec(&good).unwrap().reps, 2);
        let typo = sv(&["--gen", "poisson2d:6", "--repz", "50"]);
        let e = campaign_spec(&typo).unwrap_err();
        assert!(e.contains("`--repz`"), "{e}");
        // Both subcommands fail before touching any file.
        assert_eq!(campaign(&typo), Err(e.clone()));
        assert_eq!(merge(&typo), Err(e));
        // A flag's value is never mistaken for a flag name.
        assert!(campaign_spec(&sv(&["--gen", "poisson2d:6", "--name", "--odd"])).is_ok());
    }

    /// `cmd` fails on `unknown` (whose last flag is misspelt) and on
    /// `bad`, each time with a message naming the flag.
    fn rejects(
        cmd: fn(&[String]) -> Result<(), String>,
        unknown: &[&str],
        bad: &[&str],
        flag: &str,
    ) {
        let misspelt = unknown.iter().rev().find(|a| a.starts_with("--")).unwrap();
        let e = cmd(&sv(unknown)).unwrap_err();
        assert!(e.contains(&format!("`{misspelt}`")), "{unknown:?}: {e}");
        let e = cmd(&sv(bad)).unwrap_err();
        assert!(e.contains(flag), "{bad:?}: {e}");
    }

    #[test]
    fn leftover_batch_flag_fails_loudly() {
        // Repetitions always run one at a time: `--batch` is unknown
        // like any other flag, in campaign and merge alike.
        let args = sv(&["--gen", "poisson2d:6", "--batch", "4"]);
        let e = "unknown flag `--batch` (try `ftcg help`)".to_string();
        assert_eq!(campaign_spec(&args).unwrap_err(), e);
        assert_eq!(campaign(&args), Err(e.clone()));
        assert_eq!(merge(&args), Err(e));
    }

    #[test]
    fn the_other_subcommands_reject_unknown_flags_and_bad_values() {
        rejects(
            solve,
            &["--gen", "poisson2d:8", "--seeed", "3"],
            &["--gen", "poisson2d:8", "--seed", "x3"],
            "--seed `x3`",
        );
        rejects(
            stats,
            &["--gen", "poisson2d:8", "--bogus"],
            &["--gen", "poisson2d:x"],
            "--gen",
        );
        let spec = std::env::temp_dir().join(format!("ftcg-cli-{}.campaign", std::process::id()));
        std::fs::write(&spec, "not a spec\n").unwrap();
        let spec = spec.to_str().unwrap();
        rejects(
            report,
            &["t.jsonl", "--perfeto", "p.json"],
            &["t.jsonl", "--spec", spec],
            "--spec",
        );
        std::fs::remove_file(spec).unwrap();
        rejects(table1, &["--scael", "4"], &["--scale", "x"], "--scale `x`");
        rejects(
            figure1,
            &["--reps", "2", "--pionts", "3"],
            &["--points", "three"],
            "--points `three`",
        );
        // A grid needs two points; one would trip `log_grid`'s assert.
        let e = figure1(&sv(&["--points", "1"])).unwrap_err();
        assert!(e.contains("--points"), "{e}");
        // No repetition, or no matrix, is no experiment: refused before
        // any solve runs or any file is written.
        rejects(
            table1,
            &["--solver", "cg"],
            &["--reps", "0", "--scale", "64"],
            "--reps",
        );
        rejects(
            figure1,
            &["--kernel", "csr"],
            &["--reps", "0", "--scale", "64", "--matrices", "1"],
            "--reps",
        );
        let e = figure1(&sv(&["--matrices", "0"])).unwrap_err();
        assert!(e.contains("--matrices"), "{e}");
        // Scale 0 would divide the published order by nothing, i.e. run
        // the paper-size matrices for hours: refused the same way.
        for cmd in [table1 as Cmd, figure1] {
            assert_eq!(
                cmd(&sv(&["--scale", "0", "--reps", "1"])),
                Err("--scale must be at least 1, got 0".into())
            );
        }
    }

    type Cmd = fn(&[String]) -> Result<(), String>;

    /// Each command fails on its arguments, whose third word is a flag
    /// the command does not know, with the unknown-flag error.
    fn all_reject_as_unknown(cases: &[(Cmd, &[&str])]) {
        for (cmd, args) in cases {
            let e = cmd(&sv(args)).unwrap_err();
            assert_eq!(
                e,
                format!("unknown flag `{}` (try `ftcg help`)", args[2]),
                "{args:?}"
            );
        }
    }

    #[test]
    fn removed_kernel_flags_point_at_the_one_product() {
        // Every product runs the one defensive CSR traversal: the
        // backend flags, and `solve --threads`, are unknown like any
        // other, before any matrix is built or file written.
        all_reject_as_unknown(&[
            (solve, &["--gen", "poisson2d:6", "--kernel", "csr"]),
            (solve, &["--gen", "poisson2d:6", "--kernel", "list"]),
            (solve, &["--gen", "poisson2d:6", "--threads", "2"]),
            (stats, &["--gen", "poisson2d:6", "--kernel", "list"]),
            (table1, &["--reps", "2", "--kernel", "csr"]),
            (figure1, &["--reps", "2", "--kernel", "csr"]),
            (campaign, &["--gen", "poisson2d:6", "--kernels", "csr"]),
            (merge, &["--gen", "poisson2d:6", "--kernels", "csr"]),
        ]);
    }

    #[test]
    fn removed_solvers_point_at_the_two_solver_change() {
        // CG is the only solver: `--solver` and `--solvers` are unknown
        // whatever they name, `cg` included.
        all_reject_as_unknown(&[
            (solve, &["--gen", "poisson2d:6", "--solver", "bicgstab"]),
            (solve, &["--gen", "poisson2d:6", "--solver", "cg"]),
            (table1, &["--reps", "2", "--solver", "cgne"]),
            (figure1, &["--reps", "2", "--solver", "cg"]),
            (campaign, &["--gen", "poisson2d:6", "--solvers", "cg,cgne"]),
            (merge, &["--gen", "poisson2d:6", "--solvers", "cg,bicgstab"]),
        ]);
    }

    /// Values from other builds: the fingerprint and the first CSV row
    /// were recorded before the SpMV-backend axis went, the first JSONL
    /// line while the row was still rendered by a serde derive. They
    /// must not move, or journals written before no longer `--resume`
    /// and summaries stop comparing byte for byte.
    #[test]
    fn campaign_artifacts_match_a_pinned_earlier_build() {
        let dir = std::env::temp_dir().join(format!("ftcg-cli-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (journal, csv, out) = (path("pin.jsonl"), path("pin.csv"), path("pin.out"));
        let _ = std::fs::remove_file(&journal);
        campaign(&sv(&[
            "--gen",
            "poisson2d:8",
            "--schemes",
            "correction,detection",
            "--alphas",
            "1/16",
            "--reps",
            "2",
            "--seed",
            "7",
            "--name",
            "pin",
            "--quiet",
            "--journal",
            &journal,
            "--csv",
            &csv,
            "--out",
            &out,
        ]))
        .unwrap();
        let journal = std::fs::read_to_string(&journal).unwrap();
        let header = journal.lines().next().unwrap();
        assert!(
            header.contains(r#""fingerprint":"0x96a6a3097a7bb4a7""#),
            "{header}"
        );
        let csv = std::fs::read_to_string(&csv).unwrap();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().contains(",s,d,kernel,reps,"));
        assert_eq!(
            lines.next().unwrap(),
            "pin,poisson2d:8,64,ABFT-CORRECTION,cg,0.0625,44,1,csr,2,0,26.519999999999992,0,\
             26.519999999999992,26.519999999999992,26.519999999999992,26.519999999999992,\
             26,0,0.5,0.5,1,0.000000020253559264076476"
        );
        let jsonl = std::fs::read_to_string(&out).unwrap();
        assert_eq!(
            jsonl.lines().next().unwrap(),
            concat!(
                r#"{"campaign":"pin","matrix":"poisson2d:8","n":64,"scheme":"ABFT-CORRECTION","#,
                r#""solver":"cg","alpha":0.0625,"s":44,"d":1,"kernel":"csr","reps":2,"panics":0,"#,
                r#""time":{"mean":26.519999999999992,"std":0,"min":26.519999999999992,"#,
                r#""max":26.519999999999992,"p50":26.519999999999992,"p90":26.519999999999992},"#,
                r#""executed":{"mean":26,"std":0,"min":26,"max":26,"p50":26,"p90":26},"#,
                r#""mean_rollbacks":0,"mean_corrections":0.5,"mean_faults":0.5,"#,
                r#""convergence_rate":1,"max_true_residual":0.000000020253559264076476}"#
            )
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_value_flag_fails_instead_of_picking_one() {
        // `value` would read `poisson2d:4` and print n=16.
        let twice = sv(&["--gen", "poisson2d:4", "--gen", "poisson2d:40"]);
        assert_eq!(stats(&twice), Err("`--gen` given twice".into()));
        assert_eq!(solve(&twice), Err("`--gen` given twice".into()));
        let reps = sv(&["--gen", "poisson2d:4", "--reps", "2", "--reps", "3"]);
        assert_eq!(campaign_spec(&reps), Err("`--reps` given twice".into()));
    }
}
