//! Crash-truncation of the three durable logs at every byte offset.
//!
//! A kill can cut the journal, the trace or the metrics sidecar
//! anywhere. Whatever survives must load without a panic: a cut inside
//! the header line is the typed "empty" / "torn header" error, and any
//! later cut loads exactly the records on the complete lines before it,
//! flagging `torn_tail` precisely when a partial line was dropped.

use std::path::Path;

use ftcg_engine::{
    run_campaign_sharded, CampaignSpec, DefaultResolver, EngineError, JobRecord, Journal,
    RunOptions,
};
use ftcg_telemetry::metrics::{JobPhases, MetricsFile};
use ftcg_telemetry::{TelemetryError, Trace};

const SPEC: &str = "name     = cut\n\
                    seed     = 5\n\
                    reps     = 2\n\
                    threads  = 1\n\
                    matrices = poisson2d:8\n\
                    schemes  = detection, correction\n\
                    alphas   = 0, 1/16\n";

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
    assert!(bytes.is_ascii(), "a cut must never split a UTF-8 character");
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
    let dir = std::env::temp_dir().join(format!("ftcg-cut-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (j, t, m) = (
        dir.join("j.jsonl"),
        dir.join("t.jsonl"),
        dir.join("m.jsonl"),
    );
    for p in [&j, &t, &m] {
        let _ = std::fs::remove_file(p);
    }
    let opts = RunOptions {
        journal: Some(&j),
        trace: Some(&t),
        metrics: Some(&m),
        ..RunOptions::default()
    };
    let cs = CampaignSpec::parse(SPEC).unwrap();
    run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
    let scratch = dir.join("cut.jsonl");

    let full = Journal::load(&j).unwrap();
    assert_eq!(full.records.len(), cs.n_jobs());
    let torn_or_empty = |at: usize, e: &EngineError| match e {
        EngineError::Journal(msg) if at == 0 => msg.ends_with("empty journal"),
        EngineError::Journal(msg) => msg.contains("torn manifest line"),
        _ => false,
    };
    for cut in cuts(&j, &scratch, Journal::load, torn_or_empty) {
        let got = cut
            .loaded
            .unwrap_or_else(|e| panic!("journal cut at {}: {e}", cut.at));
        assert_eq!(got.torn_tail, cut.torn, "journal cut at {}", cut.at);
        let want: &[(usize, JobRecord)] = &full.records[..cut.whole];
        assert_eq!(got.records, want, "journal cut at {}", cut.at);
    }

    let header_error = |at: usize, e: &TelemetryError| match e {
        TelemetryError::Empty { .. } => at == 0,
        TelemetryError::Header { msg, .. } => at > 0 && msg.starts_with("torn header line"),
        _ => false,
    };
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

    // The sidecar's last line is the histogram summary, not a job.
    let full = MetricsFile::load(&m).unwrap();
    assert_eq!(full.jobs.len(), cs.n_jobs());
    assert!(full.hist.is_some());
    for cut in cuts(&m, &scratch, MetricsFile::load, header_error) {
        let got = cut
            .loaded
            .unwrap_or_else(|e| panic!("metrics cut at {}: {e}", cut.at));
        assert_eq!(got.torn_tail, cut.torn, "metrics cut at {}", cut.at);
        let jobs = cut.whole.min(full.jobs.len());
        let want: &[JobPhases] = &full.jobs[..jobs];
        assert_eq!(got.jobs, want, "metrics cut at {}", cut.at);
        assert_eq!(
            got.hist.is_some(),
            cut.whole > jobs,
            "metrics cut at {}",
            cut.at
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
