//! Error-path contracts of the telemetry load paths: every way a trace
//! or metrics sidecar can be damaged on disk maps to a *matchable*
//! [`TelemetryError`] variant — never a panic, never a stringly error a
//! caller has to grep. Each test corrupts a real file the writers
//! produced and asserts the exact variant (and its payload) comes back.

use std::io::Write;
use std::path::PathBuf;

use ftcg_telemetry::hist::DurationHist;
use ftcg_telemetry::log::{Header, Kind, METRICS, TRACE};
use ftcg_telemetry::metrics::{MetricsFile, MetricsWriter};
use ftcg_telemetry::trace::{render_event, Trace, TraceWriter};
use ftcg_telemetry::{Event, JobTelemetry, Phase, TelemetryError, TraceMeta};

fn meta() -> TraceMeta {
    TraceMeta {
        name: "errtest".into(),
        fingerprint: 0x1234_5678,
        seed: 7,
        reps: 2,
        total_jobs: 4,
    }
}

fn header(kind: &Kind) -> String {
    Header::from(meta()).render(kind)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftcg-errtest-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn block(it: u64) -> Vec<Event> {
    vec![Event::job_start(), Event::job_finish(it, it, true, 0)]
}

fn tele(job: usize, step_ns: u64) -> JobTelemetry {
    let mut t = JobTelemetry {
        job,
        events: Vec::new(),
        dropped: 0,
        phase_ns: [0; Phase::COUNT],
        phase_calls: [0; Phase::COUNT],
        event_counts: [0; ftcg_telemetry::EventKind::COUNT],
        hist: [DurationHist::new(); Phase::COUNT],
        span: None,
    };
    t.phase_ns[Phase::Step.index()] = step_ns;
    t.phase_calls[Phase::Step.index()] = 2;
    t.hist[Phase::Step.index()].record(step_ns / 2);
    t
}

/// A valid two-job trace at `dir/name`, ready to be damaged.
fn write_trace(dir: &std::path::Path, name: &str) -> PathBuf {
    let p = dir.join(name);
    let mut w = TraceWriter::create(&p, &meta()).unwrap();
    w.append_job(0, &block(3)).unwrap();
    w.append_job(1, &block(5)).unwrap();
    p
}

#[test]
fn missing_and_empty_files_are_typed() {
    let dir = tmpdir("missing");
    let gone = dir.join("nope.jsonl");
    assert!(matches!(
        Trace::load(&gone).unwrap_err(),
        TelemetryError::Io { .. }
    ));
    assert!(matches!(
        MetricsFile::load(&gone).unwrap_err(),
        TelemetryError::Io { .. }
    ));
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let err = Trace::load(&empty).unwrap_err();
    match &err {
        TelemetryError::Empty { path } => assert!(path.contains("empty.jsonl")),
        other => panic!("wrong variant: {other:?}"),
    }
    assert!(matches!(
        MetricsFile::load(&empty).unwrap_err(),
        TelemetryError::Empty { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_or_alien_headers_are_typed() {
    let dir = tmpdir("header");
    // A crash during file creation leaves a header with no newline.
    let torn = dir.join("torn.jsonl");
    std::fs::write(&torn, "{\"ftcg_trace\":1,\"na").unwrap();
    assert!(matches!(
        Trace::load(&torn).unwrap_err(),
        TelemetryError::Header { .. }
    ));
    std::fs::write(&torn, "{\"ftcg_metrics\":1,\"na").unwrap();
    assert!(matches!(
        MetricsFile::load(&torn).unwrap_err(),
        TelemetryError::Header { .. }
    ));
    // A complete header of the *wrong* file kind is also a header error
    // (a metrics sidecar is not a trace), as is a future version.
    let alien = dir.join("alien.jsonl");
    std::fs::write(&alien, format!("{}\n", header(&METRICS))).unwrap();
    assert!(matches!(
        Trace::load(&alien).unwrap_err(),
        TelemetryError::Header { .. }
    ));
    let future = dir.join("future.jsonl");
    std::fs::write(&future, header(&TRACE).replacen(":1,", ":999,", 1) + "\n").unwrap();
    match Trace::load(&future).unwrap_err() {
        TelemetryError::Header { msg, .. } => assert!(msg.contains("999"), "{msg}"),
        other => panic!("wrong variant: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_header_with_zero_reps_is_a_header_error() {
    // `reps` divides job indices into configurations, so a header that
    // declares none is refused where it is read, for every log kind.
    let dir = tmpdir("zero-reps");
    let zero = |kind: &Kind| header(kind).replacen("\"reps\":2", "\"reps\":0", 1) + "\n";
    let p = dir.join("t.jsonl");
    std::fs::write(&p, zero(&TRACE)).unwrap();
    match Trace::load(&p).unwrap_err() {
        TelemetryError::Header { msg, .. } => assert!(msg.contains("`reps`"), "{msg}"),
        other => panic!("wrong variant: {other:?}"),
    }
    std::fs::write(&p, zero(&METRICS)).unwrap();
    assert!(matches!(
        MetricsFile::load(&p).unwrap_err(),
        TelemetryError::Header { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn malformed_body_lines_carry_their_byte_offset() {
    let dir = tmpdir("malformed");
    let p = write_trace(&dir, "t.jsonl");
    let good_len = std::fs::metadata(&p).unwrap().len() as usize;
    let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
    f.write_all(b"{\"job\":0,\"seq\":9,\"ev\":\"not_a_kind\"}\n")
        .unwrap();
    drop(f);
    match Trace::load(&p).unwrap_err() {
        TelemetryError::Malformed { offset, msg, .. } => {
            assert_eq!(offset, good_len, "offset points at the bad line");
            assert!(msg.contains("not_a_kind"), "{msg}");
        }
        other => panic!("wrong variant: {other:?}"),
    }
    // Same contract on the sidecar: a line missing a required field.
    let mp = dir.join("m.jsonl");
    let mut w = MetricsWriter::create(&mp, &meta()).unwrap();
    w.append_job(&tele(0, 4000)).unwrap();
    drop(w);
    let good_len = std::fs::metadata(&mp).unwrap().len() as usize;
    let mut f = std::fs::OpenOptions::new().append(true).open(&mp).unwrap();
    f.write_all(b"{\"job\":1}\n").unwrap();
    drop(f);
    match MetricsFile::load(&mp).unwrap_err() {
        TelemetryError::Malformed { offset, msg, .. } => {
            assert_eq!(offset, good_len);
            assert!(msg.contains("ns"), "{msg}");
        }
        other => panic!("wrong variant: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn out_of_range_jobs_are_rejected_with_the_declared_total() {
    let dir = tmpdir("range");
    let p = write_trace(&dir, "t.jsonl");
    let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
    let mut line = render_event(9, 0, &Event::job_start());
    line.push('\n');
    f.write_all(line.as_bytes()).unwrap();
    drop(f);
    match Trace::load(&p).unwrap_err() {
        TelemetryError::JobOutOfRange { job, total, .. } => {
            assert_eq!((job, total), (9, 4));
        }
        other => panic!("wrong variant: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn conflicting_duplicates_are_an_error_but_reruns_are_benign() {
    let dir = tmpdir("dup");
    let p = write_trace(&dir, "t.jsonl");
    // Byte-identical re-appended block (a crash replay): fine.
    let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
    for (seq, ev) in block(3).iter().enumerate() {
        let mut line = render_event(0, seq, ev);
        line.push('\n');
        f.write_all(line.as_bytes()).unwrap();
    }
    drop(f);
    assert_eq!(Trace::load(&p).unwrap().lines.len(), 4);
    // Same (job, seq) with different bytes: typed conflict.
    let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
    let mut line = render_event(0, 1, &Event::job_finish(99, 99, false, 0));
    line.push('\n');
    f.write_all(line.as_bytes()).unwrap();
    drop(f);
    assert!(matches!(
        Trace::load(&p).unwrap_err(),
        TelemetryError::ConflictingDuplicate { job: 0, seq: 1, .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_mismatched_campaigns_and_cross_shard_conflicts() {
    let dir = tmpdir("merge");
    assert!(matches!(
        Trace::merge(Vec::new()).unwrap_err(),
        TelemetryError::NoInput
    ));
    let p1 = write_trace(&dir, "a.jsonl");
    // A shard of a different campaign refuses to merge.
    let other = dir.join("other.jsonl");
    let mut m2 = meta();
    m2.fingerprint = 0x9999;
    let w = TraceWriter::create(&other, &m2).unwrap();
    drop(w);
    let err = Trace::merge(vec![
        Trace::load(&p1).unwrap(),
        Trace::load(&other).unwrap(),
    ])
    .unwrap_err();
    match err {
        TelemetryError::CampaignMismatch { path, .. } => assert_eq!(path, "<merge>"),
        other => panic!("wrong variant: {other:?}"),
    }
    // Two shards disagreeing on a (job, seq) line is a conflict tagged
    // with the merge pseudo-path.
    let p2 = dir.join("b.jsonl");
    let mut w = TraceWriter::create(&p2, &meta()).unwrap();
    w.append_job(0, &block(77)).unwrap();
    drop(w);
    match Trace::merge(vec![Trace::load(&p1).unwrap(), Trace::load(&p2).unwrap()]).unwrap_err() {
        TelemetryError::ConflictingDuplicate { path, job: 0, .. } => assert_eq!(path, "<merge>"),
        other => panic!("wrong variant: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn create_refuses_to_clobber_and_resume_refuses_alien_files() {
    let dir = tmpdir("clobber");
    let p = write_trace(&dir, "t.jsonl");
    assert!(matches!(
        TraceWriter::create(&p, &meta()).unwrap_err(),
        TelemetryError::AlreadyExists { .. }
    ));
    let mut m2 = meta();
    m2.name = "someone-else".into();
    assert!(matches!(
        TraceWriter::open(&p, &m2, true).unwrap_err(),
        TelemetryError::CampaignMismatch { .. }
    ));
    let mp = dir.join("m.jsonl");
    let w = MetricsWriter::create(&mp, &meta()).unwrap();
    drop(w);
    assert!(matches!(
        MetricsWriter::create(&mp, &meta()).unwrap_err(),
        TelemetryError::AlreadyExists { .. }
    ));
    assert!(matches!(
        MetricsWriter::open(&mp, &m2, true).unwrap_err(),
        TelemetryError::CampaignMismatch { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sidecar_torn_tail_drops_and_duplicate_jobs_last_win() {
    let dir = tmpdir("sidecar");
    let mp = dir.join("m.jsonl");
    let mut w = MetricsWriter::create(&mp, &meta()).unwrap();
    w.append_job(&tele(0, 4000)).unwrap();
    w.append_job(&tele(1, 6000)).unwrap();
    // A re-run of job 0 after a crash appends a second line: on load
    // the *last* occurrence wins (the re-run's timings are the ones the
    // completed campaign actually spent).
    w.append_job(&tele(0, 9000)).unwrap();
    drop(w);
    let mut f = std::fs::OpenOptions::new().append(true).open(&mp).unwrap();
    f.write_all(b"{\"job\":2,\"ns\":{\"st").unwrap();
    drop(f);
    let mf = MetricsFile::load(&mp).unwrap();
    assert!(mf.torn_tail);
    assert_eq!(mf.jobs.len(), 2);
    let j0 = mf.jobs.iter().find(|j| j.job == 0).unwrap();
    assert_eq!(j0.ns[Phase::Step.index()], 9000);
    // Resume truncates the torn tail away and keeps the file appendable.
    let mut w = MetricsWriter::open(&mp, &meta(), true).unwrap();
    w.append_job(&tele(2, 5000)).unwrap();
    drop(w);
    let mf = MetricsFile::load(&mp).unwrap();
    assert!(!mf.torn_tail);
    assert_eq!(mf.jobs.len(), 3);
    assert!(mf.hist.is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}
