//! The byte-deterministic event trace: its line format, merge and
//! canonical form.
//!
//! A trace is a durable log ([`crate::log`] holds the header, append,
//! torn-tail and resume discipline) whose records are protocol events
//! keyed by `(job, seq)` — the global job index and the event's position
//! in that job's drained ring. No line ever carries wall-clock data, so
//! the *canonical* form of a trace (lines sorted by `(job, seq)`) is
//! byte-identical for a given campaign across thread counts, shard
//! splits, and kill/resume cycles; timings live in the separate metrics
//! sidecar (see [`crate::metrics`]).

use std::path::Path;

use serde::json::{self, Value};

use crate::error::TelemetryError;
use crate::event::{target, via, Event, EventKind};
use crate::log::{self, read_u64, Entry, Header, Log, LogWriter, TraceMeta, TRACE};

/// Renders one event as a trace JSONL line (no trailing newline). The
/// field order is fixed per kind; this rendering *is* the byte-level
/// determinism contract.
pub fn render_event(job: usize, seq: usize, ev: &Event) -> String {
    let head = format!(
        "{{\"job\":{job},\"seq\":{seq},\"ev\":\"{}\"",
        ev.kind.name()
    );
    match ev.kind {
        EventKind::JobStart => format!("{head}}}"),
        EventKind::Fault => format!(
            "{head},\"it\":{},\"target\":\"{}\",\"at\":{},\"bit\":{}}}",
            ev.it,
            target::name(ev.a),
            ev.b,
            ev.c
        ),
        EventKind::Detect => format!("{head},\"it\":{},\"via\":\"{}\"}}", ev.it, via::name(ev.a)),
        EventKind::CorrectForward => format!("{head},\"it\":{}}}", ev.it),
        EventKind::CorrectTmr => format!("{head},\"it\":{},\"n\":{}}}", ev.it, ev.b),
        EventKind::ChunkVerify => {
            format!("{head},\"it\":{},\"ok\":{}}}", ev.it, ev.a == 1)
        }
        EventKind::Checkpoint | EventKind::Converged => {
            format!("{head},\"it\":{},\"at\":{}}}", ev.it, ev.a)
        }
        EventKind::Rollback => format!("{head},\"it\":{},\"to\":{}}}", ev.it, ev.a),
        EventKind::Escalate => format!("{head},\"it\":{}}}", ev.it),
        EventKind::JobFinish => format!(
            "{head},\"executed\":{},\"productive\":{},\"converged\":{},\"dropped\":{}}}",
            ev.it,
            ev.a,
            ev.b == 1,
            ev.c
        ),
    }
}

/// Parses one trace line back into `(job, seq, event)`. A line that does
/// not parse is [`TelemetryError::Malformed`] at offset 0 of no file;
/// loading a trace reports the real path and byte offset.
pub fn parse_event(line: &str) -> Result<(usize, usize, Event), TelemetryError> {
    parse_line(line).map_err(|msg| TelemetryError::Malformed {
        path: String::new(),
        offset: 0,
        msg,
    })
}

fn parse_line(line: &str) -> Result<(usize, usize, Event), String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let u = |key: &str| {
        v.get(key)
            .and_then(read_u64)
            .ok_or_else(|| format!("event missing `{key}`"))
    };
    let job = u("job")? as usize;
    let seq = u("seq")? as usize;
    let name = v
        .get("ev")
        .and_then(Value::as_str)
        .ok_or("event missing `ev`")?;
    let kind = EventKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown event kind `{name}`"))?;
    let b = |key: &str| match v.get(key) {
        Some(Value::Bool(x)) => Ok(*x as u64),
        _ => Err(format!("event missing boolean `{key}`")),
    };
    let s = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event missing `{key}`"))
    };
    let ev = match kind {
        EventKind::JobStart => Event::job_start(),
        EventKind::Fault => Event::fault(
            u("it")?,
            target::code(s("target")?).ok_or("unknown fault target")?,
            u("at")?,
            u("bit")?,
        ),
        EventKind::Detect => Event::detect(
            u("it")?,
            via::code(s("via")?).ok_or("unknown detector code")?,
        ),
        EventKind::CorrectForward => Event::correct_forward(u("it")?),
        EventKind::CorrectTmr => Event::correct_tmr(u("it")?, u("n")?),
        EventKind::ChunkVerify => Event::chunk_verify(u("it")?, b("ok")? == 1),
        EventKind::Checkpoint => Event::checkpoint(u("it")?, u("at")?),
        EventKind::Rollback => Event::rollback(u("it")?, u("to")?),
        EventKind::Escalate => Event::escalate(u("it")?),
        EventKind::Converged => Event::converged(u("it")?, u("at")?),
        EventKind::JobFinish => Event::job_finish(
            u("executed")?,
            u("productive")?,
            b("converged")? == 1,
            u("dropped")?,
        ),
    };
    Ok((job, seq, ev))
}

/// The loader's parser: validates the event, keeps only its key (the
/// line itself is the record).
fn parse_key(line: &str) -> Result<(usize, usize, ()), String> {
    parse_line(line).map(|(job, seq, _)| (job, seq, ()))
}

/// A loaded trace: header, deduplicated event lines, torn-tail flag.
#[derive(Debug)]
pub struct Trace {
    /// The campaign identity from the header line.
    pub meta: TraceMeta,
    /// Deduplicated event lines in file order.
    pub lines: Vec<Entry>,
    /// Whether a torn final line was dropped.
    pub torn_tail: bool,
}

impl Trace {
    /// Loads a trace. A job re-run after a crash re-appends its
    /// deterministic block, so a repeated `(job, seq)` line must be
    /// byte-identical.
    pub fn load(path: &Path) -> Result<Trace, TelemetryError> {
        let log = Log::load(path, &TRACE, parse_key)?;
        Ok(Trace {
            meta: log.header.meta,
            lines: log.entries,
            torn_tail: log.torn_tail,
        })
    }

    /// The canonical byte-deterministic rendering: header plus all
    /// event lines stably sorted by `(job, seq)`.
    pub fn canonical_string(&self) -> String {
        let mut sorted: Vec<&Entry> = self.lines.iter().collect();
        sorted.sort_by_key(|e| (e.job, e.seq));
        let mut out = Header::from(self.meta.clone()).render(&TRACE);
        out.push('\n');
        for e in sorted {
            out.push_str(&e.line);
            out.push('\n');
        }
        out
    }

    /// Parses every line into `(job, seq, event)` triples (file order).
    pub fn parsed(&self) -> Result<Vec<(usize, usize, Event)>, TelemetryError> {
        self.lines.iter().map(|e| parse_event(&e.line)).collect()
    }

    /// Merges shard traces of one campaign into a single trace.
    /// Headers must agree; overlapping `(job, seq)` lines must be
    /// byte-identical.
    pub fn merge(traces: Vec<Trace>) -> Result<Trace, TelemetryError> {
        let torn_tail = traces.iter().any(|t| t.torn_tail);
        let logs = traces.into_iter().map(|t| (t.meta, t.lines));
        let (meta, lines) = log::merge(&TRACE, logs)?;
        Ok(Trace {
            meta,
            lines,
            torn_tail,
        })
    }
}

/// An open trace. Each [`append_job`](Self::append_job) makes one job's
/// whole event block durable at once.
#[derive(Debug)]
pub struct TraceWriter(LogWriter);

impl TraceWriter {
    /// Creates a fresh trace at `path`; an existing file is
    /// [`TelemetryError::AlreadyExists`].
    pub fn create(path: &Path, meta: &TraceMeta) -> Result<TraceWriter, TelemetryError> {
        Self::open(path, meta, false)
    }

    /// Opens a trace under the log open rule ([`LogWriter::open`]).
    pub fn open(
        path: &Path,
        meta: &TraceMeta,
        resume: bool,
    ) -> Result<TraceWriter, TelemetryError> {
        let header = Header::from(meta.clone());
        let (w, _) = LogWriter::open(path, &TRACE, &header, resume, parse_key)?;
        Ok(TraceWriter(w))
    }

    /// Appends one job's event block, one line per event with `seq` =
    /// ring position.
    pub fn append_job(&mut self, job: usize, events: &[Event]) -> Result<(), TelemetryError> {
        let mut block = String::new();
        for (seq, ev) in events.iter().enumerate() {
            block.push_str(&render_event(job, seq, ev));
            block.push('\n');
        }
        self.0.append(&block)
    }

    /// Closes the trace and rewrites it in canonical form (lines sorted
    /// by `(job, seq)`, duplicates removed) via a sibling temp file and
    /// an atomic rename. After this, traces of the same campaign are
    /// directly byte-comparable.
    pub fn canonicalize(self) -> Result<(), TelemetryError> {
        let path = self.0.path.clone();
        drop(self);
        let trace = Trace::load(&path)?;
        let tmp = path.with_extension("canonical.tmp");
        std::fs::write(&tmp, trace.canonical_string()).map_err(|e| TelemetryError::io(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| TelemetryError::io(&path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "unit".into(),
            fingerprint: 0xdead_beef,
            seed: 18_446_744_073_709_551_615, // u64::MAX survives the string round-trip
            reps: 2,
            total_jobs: 4,
        }
    }

    #[test]
    fn header_roundtrip() {
        let m = meta();
        let header = |kind| Header::from(m.clone()).render(kind);
        let parse = |kind, line: &str| Header::parse(kind, line).map(|h| h.meta);
        assert_eq!(parse(&TRACE, &header(&TRACE)).unwrap(), m);
        assert_eq!(parse(&log::METRICS, &header(&log::METRICS)).unwrap(), m);
        assert!(parse(&TRACE, &header(&log::METRICS)).is_err());
    }

    #[test]
    fn event_render_parse_roundtrip() {
        let evs = [
            Event::job_start(),
            Event::fault(3, target::R, 17, 52),
            Event::detect(4, via::TMR),
            Event::correct_forward(5),
            Event::correct_tmr(6, 2),
            Event::chunk_verify(7, false),
            Event::checkpoint(8, 6),
            Event::rollback(9, 6),
            Event::escalate(10),
            Event::converged(11, 9),
            Event::job_finish(12, 9, true, 0),
        ];
        for (seq, ev) in evs.iter().enumerate() {
            let line = render_event(2, seq, ev);
            let (job, s, back) = parse_event(&line).unwrap();
            assert_eq!((job, s, &back), (2, seq, ev), "line: {line}");
        }
    }

    #[test]
    fn write_load_canonicalize_and_merge() {
        let dir = std::env::temp_dir().join(format!("ftcg-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("t1.jsonl");
        let p2 = dir.join("t2.jsonl");
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
        let m = meta();
        let block = |it| vec![Event::job_start(), Event::job_finish(it, it, true, 0)];

        // Shard 1 writes jobs 1 then 0 (completion order ≠ index order).
        let mut w = TraceWriter::create(&p1, &m).unwrap();
        w.append_job(1, &block(5)).unwrap();
        w.append_job(0, &block(3)).unwrap();
        // Shard 2 writes jobs 3, 2 — plus a duplicate of job 1.
        let mut w2 = TraceWriter::create(&p2, &m).unwrap();
        w2.append_job(3, &block(7)).unwrap();
        w2.append_job(1, &block(5)).unwrap();
        w2.append_job(2, &block(6)).unwrap();
        drop((w, w2));

        // A torn tail is dropped on load...
        let mut f = std::fs::OpenOptions::new().append(true).open(&p1).unwrap();
        f.write_all(b"{\"job\":2,\"seq\":0,\"ev\":\"job_st")
            .unwrap();
        drop(f);
        let t1 = Trace::load(&p1).unwrap();
        assert!(t1.torn_tail);
        assert_eq!(t1.lines.len(), 4);

        // ...and resume truncates it away and keeps appending.
        let mut w = TraceWriter::open(&p1, &m, true).unwrap();
        w.append_job(2, &block(6)).unwrap();
        w.append_job(3, &block(7)).unwrap();

        // Merge of the two shard traces == canonical full trace.
        let merged = Trace::merge(vec![Trace::load(&p1).unwrap(), Trace::load(&p2).unwrap()])
            .unwrap()
            .canonical_string();
        w.canonicalize().unwrap();
        let t1c = std::fs::read_to_string(&p1).unwrap();
        // p1 saw all four jobs, so its canonical form is the campaign's.
        assert_eq!(t1c, merged);
        // Canonical form is sorted by (job, seq).
        let jobs: Vec<usize> = Trace::load(&p1)
            .unwrap()
            .parsed()
            .unwrap()
            .iter()
            .map(|(j, _, _)| *j)
            .collect();
        assert_eq!(jobs, vec![0, 0, 1, 1, 2, 2, 3, 3]);

        // Conflicting duplicates are an error.
        let mut f = std::fs::OpenOptions::new().append(true).open(&p1).unwrap();
        f.write_all(render_event(0, 0, &Event::escalate(9)).as_bytes())
            .unwrap();
        f.write_all(b"\n").unwrap();
        drop(f);
        assert!(matches!(
            Trace::load(&p1).unwrap_err(),
            TelemetryError::ConflictingDuplicate { job: 0, seq: 0, .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
