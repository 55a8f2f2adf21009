//! Crash-truncation of the three durable logs at every byte offset.
//!
//! A kill can cut the journal, the trace or the metrics sidecar
//! anywhere — the campaign name is not ASCII, so some cuts split a
//! UTF-8 character. Whatever survives must load without a panic: a cut
//! inside the header line is the typed "empty" / "torn header" error,
//! and any later cut loads exactly the records on the complete lines
//! before it, flagging `torn_tail` precisely when a partial line was
//! dropped. And `--resume` from any cut converges on the uninterrupted
//! run's artifacts, byte for byte.

use std::path::{Path, PathBuf};

use ftcg_engine::grid::expand;
use ftcg_engine::{
    fold_outcome, fold_records, run_campaign_sharded, run_configs_sharded, sink, CampaignSpec,
    ConfigSummary, DefaultResolver, JobRecord, Journal, JournalWriter, RunOptions,
};
use ftcg_telemetry::metrics::{JobPhases, MetricsFile};
use ftcg_telemetry::trace::parse_event;
use ftcg_telemetry::{Phase, TelemetryError, Trace};

const SPEC: &str = "name     = α-cut\n\
                    seed     = 5\n\
                    reps     = 2\n\
                    threads  = 1\n\
                    matrices = poisson2d:8\n\
                    schemes  = detection, correction\n\
                    alphas   = 0, 1/16\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftcg-cut-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn logs<'a>(j: &'a Path, t: &'a Path, m: &'a Path, resume: bool) -> RunOptions<'a> {
    RunOptions {
        journal: Some(j),
        trace: Some(t),
        metrics: Some(m),
        resume,
        ..RunOptions::default()
    }
}

fn artifacts(summaries: &[ConfigSummary]) -> (String, String) {
    (sink::jsonl_string(summaries), sink::csv_string(summaries))
}

/// Every phase's merged histogram counts exactly the surviving lines'
/// calls — nothing a crash dropped, nothing a re-run duplicated.
fn hist_counts_calls(mf: &MetricsFile) -> bool {
    match &mf.hist {
        None => mf.jobs.is_empty(),
        Some(h) => Phase::ALL.iter().all(|p| {
            let calls: u64 = mf.jobs.iter().map(|j| j.calls[p.index()]).sum();
            h[p.index()].count() == calls
        }),
    }
}

/// One cut of a log: how many body lines survived whole, whether a
/// partial line follows them, and what the loader made of the prefix.
struct Cut<T, E> {
    at: usize,
    whole: usize,
    torn: bool,
    loaded: Result<T, E>,
}

/// Writes every prefix of the log at `path` to `scratch` and loads it.
/// Cuts inside the header line are checked against `header_error` and
/// not returned.
fn cuts<T, E: std::fmt::Debug>(
    path: &Path,
    scratch: &Path,
    load: impl Fn(&Path) -> Result<T, E>,
    header_error: impl Fn(usize, &E) -> bool,
) -> Vec<Cut<T, E>> {
    let bytes = std::fs::read(path).unwrap();
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut out = Vec::new();
    for at in 0..=bytes.len() {
        std::fs::write(scratch, &bytes[..at]).unwrap();
        let loaded = load(scratch);
        if at < header_len {
            match &loaded {
                Err(e) => assert!(header_error(at, e), "cut at {at}: {e:?}"),
                Ok(_) => panic!("cut at {at} inside the header loaded"),
            }
            continue;
        }
        let prefix = &bytes[..at];
        out.push(Cut {
            at,
            whole: prefix.iter().filter(|&&b| b == b'\n').count() - 1,
            torn: prefix.last() != Some(&b'\n'),
            loaded,
        });
    }
    out
}

#[test]
fn every_truncation_of_journal_trace_and_metrics_loads_its_complete_lines() {
    let dir = tmpdir("load");
    let (j, t, m) = (
        dir.join("j.jsonl"),
        dir.join("t.jsonl"),
        dir.join("m.jsonl"),
    );
    let cs = CampaignSpec::parse(SPEC).unwrap();
    run_campaign_sharded(&cs, &DefaultResolver, &logs(&j, &t, &m, false)).unwrap();
    let scratch = dir.join("cut.jsonl");

    let header_error = |at: usize, e: &TelemetryError| match e {
        TelemetryError::Empty { .. } => at == 0,
        TelemetryError::Header { msg, .. } => at > 0 && msg.starts_with("torn header line"),
        _ => false,
    };
    let full = Journal::load(&j).unwrap();
    assert_eq!(full.records.len(), cs.n_jobs());
    for cut in cuts(&j, &scratch, Journal::load, header_error) {
        let got = cut
            .loaded
            .unwrap_or_else(|e| panic!("journal cut at {}: {e}", cut.at));
        assert_eq!(got.torn_tail, cut.torn, "journal cut at {}", cut.at);
        let want: &[(usize, JobRecord)] = &full.records[..cut.whole];
        assert_eq!(got.records, want, "journal cut at {}", cut.at);
    }

    let full = Trace::load(&t).unwrap();
    for cut in cuts(&t, &scratch, Trace::load, header_error) {
        let got = cut
            .loaded
            .unwrap_or_else(|e| panic!("trace cut at {}: {e}", cut.at));
        assert_eq!(got.torn_tail, cut.torn, "trace cut at {}", cut.at);
        assert_eq!(
            got.lines,
            full.lines[..cut.whole],
            "trace cut at {}",
            cut.at
        );
    }

    let full = MetricsFile::load(&m).unwrap();
    assert_eq!(full.jobs.len(), cs.n_jobs());
    for cut in cuts(&m, &scratch, MetricsFile::load, header_error) {
        let got = cut
            .loaded
            .unwrap_or_else(|e| panic!("metrics cut at {}: {e}", cut.at));
        assert_eq!(got.torn_tail, cut.torn, "metrics cut at {}", cut.at);
        let want: &[JobPhases] = &full.jobs[..cut.whole];
        assert_eq!(got.jobs, want, "metrics cut at {}", cut.at);
        assert!(hist_counts_calls(&got), "metrics cut at {}", cut.at);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_recovers_a_journal_torn_inside_a_utf8_character() {
    let dir = tmpdir("utf8");
    let cs = CampaignSpec::parse(SPEC).unwrap();
    let configs = expand(&cs, &DefaultResolver).unwrap();
    let plain = RunOptions::default();
    let done = run_configs_sharded(&cs.name, cs.seed, cs.reps, 1, &configs, &plain).unwrap();
    let gold = artifacts(
        &fold_records(&cs.name, cs.reps, &configs, &done.records)
            .unwrap()
            .0,
    );

    // Four jobs journaled, then a kill inside the `σ` of a non-ASCII
    // `Failed` message (panic messages are journaled as raw UTF-8).
    let path = dir.join("j.jsonl");
    let mut w = JournalWriter::create(&path, &done.header).unwrap();
    for (job, record) in &done.records[..4] {
        w.append(*job, record).unwrap();
    }
    w.append(4, &JobRecord::Failed("σ-stall: residual ≥ tol".into()))
        .unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    let sigma = bytes.windows(2).position(|b| b == "σ".as_bytes()).unwrap();
    std::fs::write(&path, &bytes[..sigma + 1]).unwrap();

    let torn = Journal::load(&path).unwrap();
    assert!(torn.torn_tail);
    assert_eq!(torn.records, done.records[..4]);
    let opts = RunOptions {
        journal: Some(&path),
        resume: true,
        ..RunOptions::default()
    };
    let (outcome, folded) = run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
    assert_eq!(outcome.replayed, 4);
    assert_eq!(artifacts(&folded.unwrap().summaries), gold);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_from_journal_truncation_points_is_byte_identical() {
    let dir = tmpdir("resume");
    let cs = CampaignSpec::parse(SPEC).unwrap();
    let n = cs.n_jobs();
    let configs = expand(&cs, &DefaultResolver).unwrap();
    let run = |opts: &RunOptions<'_>| {
        let outcome = run_configs_sharded(&cs.name, cs.seed, cs.reps, 1, &configs, opts)?;
        fold_outcome(&cs.name, cs.reps, &configs, outcome)
    };
    // The uninterrupted run. One thread, so every log lands in job
    // order and job `i`'s sidecar line is line `i + 1`.
    let (j, t, m) = (
        dir.join("j.jsonl"),
        dir.join("t.jsonl"),
        dir.join("m.jsonl"),
    );
    let gold = artifacts(&run(&logs(&j, &t, &m, false)).unwrap().summaries);
    let gold_trace = std::fs::read_to_string(&t).unwrap();
    let journal = std::fs::read(&j).unwrap();
    let header_len = journal.iter().position(|&b| b == b'\n').unwrap() + 1;
    let trace_header = gold_trace.lines().next().unwrap();
    let mut blocks = vec![String::new(); n];
    for line in gold_trace.lines().skip(1) {
        blocks[parse_event(line).unwrap().0] += &format!("{line}\n");
    }
    let sidecar = std::fs::read_to_string(&m).unwrap();
    let sidecar: Vec<&str> = sidecar.lines().collect();
    for (i, line) in sidecar[1..].iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"job\":{i},")), "{line}");
    }

    let (rj, rt, rm) = (
        dir.join("r.jsonl"),
        dir.join("r.trace.jsonl"),
        dir.join("r.metrics.jsonl"),
    );
    // Every line boundary, plus three cuts inside every line (every
    // offset would take ~12 s under `cargo test`).
    let mut offsets = vec![journal.len()];
    let mut start = 0;
    for end in (0..journal.len()).filter(|&i| journal[i] == b'\n') {
        offsets.extend([start, start + 1, (start + end) / 2, end]);
        start = end + 1;
    }
    for at in offsets {
        let prefix = &journal[..at];
        let whole = prefix.iter().filter(|&&b| b == b'\n').count().max(1) - 1;
        let torn = prefix.last().is_some_and(|&b| b != b'\n');
        // Per job the write order is trace block → sidecar line →
        // journal record. A kill inside the journal header leaves no
        // telemetry yet; a torn record implies its job's telemetry; a
        // clean cut may or may not be followed by the next job's.
        let telemetry: Vec<Option<usize>> = if at < header_len {
            vec![None]
        } else if torn {
            vec![Some(whole + 1)]
        } else {
            vec![Some(whole), Some((whole + 1).min(n))]
        };
        for jobs in telemetry {
            std::fs::write(&rj, prefix).unwrap();
            let _ = std::fs::remove_file(&rt);
            let _ = std::fs::remove_file(&rm);
            if let Some(k) = jobs {
                let trace = format!("{trace_header}\n{}", blocks[..k].concat());
                std::fs::write(&rt, trace).unwrap();
                std::fs::write(&rm, sidecar[..=k].join("\n") + "\n").unwrap();
            }
            let got = run(&logs(&rj, &rt, &rm, true))
                .unwrap_or_else(|e| panic!("cut at {at} ({jobs:?}): {e}"));
            assert_eq!(artifacts(&got.summaries), gold, "cut at {at} ({jobs:?})");
            let trace = std::fs::read_to_string(&rt).unwrap();
            assert!(trace == gold_trace, "trace after cut at {at} ({jobs:?})");
            let mf = MetricsFile::load(&rm).unwrap();
            assert_eq!(mf.jobs.len(), n, "cut at {at} ({jobs:?})");
            assert!(hist_counts_calls(&mf), "cut at {at} ({jobs:?})");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
