//! The non-deterministic metrics sidecar: per-job phase timings.
//!
//! Where the trace records *what happened* (deterministically), the
//! sidecar records *how long it took*: one JSONL line per job with
//! per-phase wall time, call counts and duration histograms (`hist_ns`:
//! per phase, the log2 bucket counts with trailing zeros trimmed). The
//! file is explicitly non-deterministic — timings differ run to run —
//! which is exactly why they are quarantined here instead of riding the
//! trace.
//!
//! Campaign runs also stamp each job line with an optional `span`
//! object (`worker`, `start_ns`, `end_ns` relative to run start) so
//! the Perfetto export can reconstruct per-worker timelines.
//!
//! The sidecar is a durable log ([`crate::log`] holds the discipline)
//! whose duplicate policy is *last wins*: a job re-run after a crash
//! re-appends its line, and the re-run's timings are the ones the
//! finished campaign spent. Because every job line carries its own
//! histograms (format version 2; version 1 kept them in a summary line
//! written at the end of a run), a killed-and-resumed run loses none of
//! them: the merged histograms always count exactly the surviving
//! lines' calls.

use std::path::Path;

use serde::json::{self, Value};

use crate::active::{JobSpan, JobTelemetry};
use crate::error::TelemetryError;
use crate::hist::DurationHist;
use crate::log::{self, read_u64, Entry, Header, Log, LogWriter, TraceMeta, METRICS};
use crate::recorder::Phase;

/// One job's phase breakdown, as recorded in the sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPhases {
    /// Global job index.
    pub job: usize,
    /// Per-phase accumulated wall time (ns), indexed by [`Phase::index`].
    pub ns: [u64; Phase::COUNT],
    /// Per-phase call counts, indexed by [`Phase::index`].
    pub calls: [u64; Phase::COUNT],
    /// Events the bounded trace ring dropped for this job.
    pub dropped: u64,
    /// Wall-clock execution window relative to run start, when the
    /// writing run recorded one (campaign runs do).
    pub span: Option<JobSpan>,
}

/// Per-phase duration histograms, indexed by [`Phase::index`].
type Hists = [DurationHist; Phase::COUNT];

/// What one sidecar line holds.
type JobLine = (JobPhases, Hists);

/// Renders a `{"phase":value,…}` object in [`Phase::ALL`] order.
fn phase_map<T>(values: &[T; Phase::COUNT], render: impl Fn(&T) -> String) -> String {
    let fields: Vec<String> = Phase::ALL
        .iter()
        .map(|p| format!("\"{}\":{}", p.name(), render(&values[p.index()])))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn parse_phase_map<T: Copy + Default>(
    v: &Value,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<[T; Phase::COUNT], String> {
    let mut out = [T::default(); Phase::COUNT];
    for p in Phase::ALL {
        out[p.index()] = v
            .get(p.name())
            .and_then(&read)
            .ok_or_else(|| format!("phase map missing or malformed `{}`", p.name()))?;
    }
    Ok(out)
}

/// A histogram as its bucket counts, trailing zeros trimmed.
fn render_hist(h: &DurationHist) -> String {
    let b = h.buckets();
    let last = b.iter().rposition(|&c| c != 0).map_or(0, |j| j + 1);
    let counts: Vec<String> = b[..last].iter().map(u64::to_string).collect();
    format!("[{}]", counts.join(","))
}

fn read_hist(v: &Value) -> Option<DurationHist> {
    let counts: Option<Vec<u64>> = v.as_arr()?.iter().map(read_u64).collect();
    DurationHist::from_buckets(&counts?)
}

/// Renders one job line (no trailing newline).
fn render_job(tele: &JobTelemetry) -> String {
    let span = match &tele.span {
        Some(s) => format!(
            ",\"span\":{{\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.worker, s.start_ns, s.end_ns
        ),
        None => String::new(),
    };
    format!(
        "{{\"job\":{},\"ns\":{},\"calls\":{},\"dropped\":{}{span},\"hist_ns\":{}}}",
        tele.job,
        phase_map(&tele.phase_ns, u64::to_string),
        phase_map(&tele.hist, |h| h.count().to_string()),
        tele.dropped,
        phase_map(&tele.hist, render_hist),
    )
}

fn parse_job(line: &str) -> Result<(usize, usize, JobLine), String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let field = |key: &str| v.get(key).ok_or_else(|| format!("missing `{key}`"));
    let count = |o: &Value, key: &str| {
        o.get(key)
            .and_then(read_u64)
            .ok_or_else(|| format!("missing or malformed `{key}`"))
    };
    let span = match v.get("span") {
        None => None,
        Some(s) => Some(JobSpan {
            worker: count(s, "worker")?,
            start_ns: count(s, "start_ns")?,
            end_ns: count(s, "end_ns")?,
        }),
    };
    let job = count(&v, "job")? as usize;
    let phases = JobPhases {
        job,
        ns: parse_phase_map(field("ns")?, read_u64)?,
        calls: parse_phase_map(field("calls")?, read_u64)?,
        dropped: count(&v, "dropped")?,
        span,
    };
    let hists = parse_phase_map(field("hist_ns")?, read_hist)?;
    Ok((job, 0, (phases, hists)))
}

/// A loaded metrics sidecar.
#[derive(Debug)]
pub struct MetricsFile {
    /// The campaign identity from the header line.
    pub meta: TraceMeta,
    /// Per-job phase breakdowns, last occurrence per job, file order.
    pub jobs: Vec<JobPhases>,
    /// Per-phase histograms merged over the lines in `jobs`; `None` when
    /// no job line survived.
    pub hist: Option<Hists>,
    /// Whether a torn final line was dropped.
    pub torn_tail: bool,
    /// The surviving lines, which [`merge`](Self::merge) re-merges.
    lines: Vec<Entry<JobLine>>,
}

impl MetricsFile {
    /// Loads a metrics sidecar.
    pub fn load(path: &Path) -> Result<MetricsFile, TelemetryError> {
        let log = Log::load(path, &METRICS, parse_job)?;
        Ok(MetricsFile::new(
            log.header.meta,
            log.entries,
            log.torn_tail,
        ))
    }

    /// Merges sidecars of one campaign: a job present in several keeps
    /// its last line, and the histograms re-merge from the surviving
    /// lines, so overlapping sidecars never double-count.
    pub fn merge(files: Vec<MetricsFile>) -> Result<MetricsFile, TelemetryError> {
        let torn_tail = files.iter().any(|f| f.torn_tail);
        let logs = files.into_iter().map(|f| (f.meta, f.lines));
        let (meta, lines) = log::merge(&METRICS, logs)?;
        Ok(MetricsFile::new(meta, lines, torn_tail))
    }

    fn new(meta: TraceMeta, lines: Vec<Entry<JobLine>>, torn_tail: bool) -> MetricsFile {
        let jobs = lines.iter().map(|e| e.value.0.clone()).collect();
        let hist = (!lines.is_empty()).then(|| {
            let mut acc = [DurationHist::new(); Phase::COUNT];
            for e in &lines {
                for (a, h) in acc.iter_mut().zip(&e.value.1) {
                    a.merge(h);
                }
            }
            acc
        });
        MetricsFile {
            meta,
            jobs,
            hist,
            torn_tail,
            lines,
        }
    }
}

/// An open metrics sidecar.
#[derive(Debug)]
pub struct MetricsWriter(LogWriter);

impl MetricsWriter {
    /// Creates a fresh sidecar at `path`; an existing file is
    /// [`TelemetryError::AlreadyExists`].
    pub fn create(path: &Path, meta: &TraceMeta) -> Result<MetricsWriter, TelemetryError> {
        Self::open(path, meta, false)
    }

    /// Opens a sidecar under the log open rule ([`LogWriter::open`]).
    pub fn open(
        path: &Path,
        meta: &TraceMeta,
        resume: bool,
    ) -> Result<MetricsWriter, TelemetryError> {
        let header = Header::from(meta.clone());
        let (w, _) = LogWriter::open(path, &METRICS, &header, resume, parse_job)?;
        Ok(MetricsWriter(w))
    }

    /// Appends one job's line: phase times, calls and histograms.
    pub fn append_job(&mut self, tele: &JobTelemetry) -> Result<(), TelemetryError> {
        self.0.append(&format!("{}\n", render_job(tele)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "unit".into(),
            fingerprint: 7,
            seed: 9,
            reps: 1,
            total_jobs: 3,
        }
    }

    fn tele(job: usize, step_ns: u64) -> JobTelemetry {
        let mut t = JobTelemetry {
            job,
            events: Vec::new(),
            dropped: 0,
            phase_ns: [0; Phase::COUNT],
            hist: [DurationHist::new(); Phase::COUNT],
            span: None,
        };
        t.phase_ns[Phase::Step.index()] = step_ns;
        for _ in 0..4 {
            t.hist[Phase::Step.index()].record(step_ns / 4);
        }
        t
    }

    /// Every phase's merged histogram counts exactly the surviving
    /// lines' calls.
    fn assert_hist_counts_calls(mf: &MetricsFile) {
        let hist = mf.hist.unwrap();
        for p in Phase::ALL {
            let calls: u64 = mf.jobs.iter().map(|j| j.calls[p.index()]).sum();
            assert_eq!(hist[p.index()].count(), calls, "{}", p.name());
        }
    }

    #[test]
    fn write_load_resume_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ftcg-metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("m.jsonl");
        let _ = std::fs::remove_file(&p);
        let m = meta();
        let mut w = MetricsWriter::create(&p, &m).unwrap();
        w.append_job(&tele(0, 4000)).unwrap();
        w.append_job(&tele(2, 8000)).unwrap();
        drop(w);

        let loaded = MetricsFile::load(&p).unwrap();
        assert_eq!(loaded.meta, m);
        assert_eq!(loaded.jobs.len(), 2);
        assert_eq!(loaded.jobs[0].ns[Phase::Step.index()], 4000);
        assert_eq!(loaded.jobs[1].calls[Phase::Step.index()], 4);
        assert_hist_counts_calls(&loaded);

        // Resume with a torn tail: tail dropped, and a duplicate job
        // line keeps the last occurrence — histograms included.
        let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
        f.write_all(b"{\"job\":1,\"ns\":{").unwrap();
        drop(f);
        let mut w = MetricsWriter::open(&p, &m, true).unwrap();
        w.append_job(&tele(1, 2000)).unwrap();
        w.append_job(&tele(2, 6000)).unwrap();
        drop(w);
        let loaded = MetricsFile::load(&p).unwrap();
        assert_eq!(loaded.jobs.len(), 3);
        let j2 = loaded.jobs.iter().find(|j| j.job == 2).unwrap();
        assert_eq!(j2.ns[Phase::Step.index()], 6000, "last occurrence wins");
        assert_hist_counts_calls(&loaded);

        // Overlapping sidecars merge last-wins without double-counting.
        let twice = MetricsFile::merge(vec![
            MetricsFile::load(&p).unwrap(),
            MetricsFile::load(&p).unwrap(),
        ])
        .unwrap();
        assert_eq!(twice.jobs, loaded.jobs);
        assert_eq!(twice.hist, loaded.hist);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn span_records_roundtrip_and_stay_optional() {
        let dir = std::env::temp_dir().join(format!("ftcg-span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("m.jsonl");
        let _ = std::fs::remove_file(&p);
        let m = meta();
        let mut w = MetricsWriter::create(&p, &m).unwrap();
        let mut spanned = tele(0, 4000);
        spanned.span = Some(JobSpan {
            worker: 2,
            start_ns: 1000,
            end_ns: 5500,
        });
        w.append_job(&spanned).unwrap();
        w.append_job(&tele(1, 2000)).unwrap(); // span-less line in the same file
        drop(w);
        let loaded = MetricsFile::load(&p).unwrap();
        assert_eq!(
            loaded.jobs[0].span,
            Some(JobSpan {
                worker: 2,
                start_ns: 1000,
                end_ns: 5500,
            })
        );
        assert_eq!(loaded.jobs[1].span, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
