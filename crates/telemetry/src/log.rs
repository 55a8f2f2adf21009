//! The durable-log layer: one on-disk discipline for the campaign
//! journal (`--journal`), the event trace (`--trace`, [`crate::trace`])
//! and the metrics sidecar (`--metrics`, [`crate::metrics`]). Those
//! modules keep only their record format — how one line renders and
//! parses; everything that makes a log survive `kill -9` lives here.
//!
//! # Crash discipline
//!
//! * **Shape.** A log is JSONL: one header line — the [`Kind`] key
//!   carrying the format version, the campaign identity ([`TraceMeta`])
//!   and, in journals, the shard — then one line per record.
//! * **Append.** Each append is one `write_all` of whole lines followed
//!   by a flush, so whatever a crash leaves on disk is a valid prefix
//!   plus at most one *torn tail*: an unterminated last line.
//! * **Load.** The file is read as bytes and split on `\n`. Only complete
//!   lines are decoded, so a torn tail — which may end inside a UTF-8
//!   character — is dropped without ever being decoded. A file with no
//!   byte is [`TelemetryError::Empty`], a header without its newline is
//!   [`TelemetryError::Header`], and a bad complete line is
//!   [`TelemetryError::Malformed`] at its byte offset.
//! * **Duplicates.** Records are keyed by `(job, seq)` (`seq` is 0 in
//!   per-job logs). A job re-run after a crash re-appends its lines, and
//!   the kind's `Dup` policy decides which survives — within one file
//!   on load, and across files on [`merge`].
//! * **Open** ([`LogWriter::open`]). Without resume, an existing file is
//!   [`TelemetryError::AlreadyExists`]: a log is never overwritten. With
//!   resume, a missing file or one with no complete line (killed before
//!   its header became durable) starts fresh, another campaign's file is
//!   [`TelemetryError::CampaignMismatch`], and otherwise the torn tail is
//!   truncated away and appending continues. One `--resume` command line
//!   is therefore idempotent across crashes at any point.
//! * **Order.** A campaign writes each finished job's trace block, then
//!   its sidecar line, then its journal record. A journal record thus
//!   implies durable telemetry, and a kill in between re-runs the job,
//!   whose re-appended lines deduplicate on load.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::json::{self, Value};

use crate::error::TelemetryError;

/// Which record survives when two lines share a `(job, seq)` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dup {
    /// The first occurrence wins, and a repeat must be byte-identical
    /// (a deterministic re-run); anything else is
    /// [`TelemetryError::ConflictingDuplicate`].
    FirstIdentical,
    /// The last occurrence wins, in the first one's position: a re-run's
    /// timings are the ones the finished campaign spent.
    LastWins,
}

/// One log format's identity on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    /// Header key whose value is the format version.
    pub(crate) key: &'static str,
    /// The one version this build reads and writes.
    pub version: u64,
    /// What messages call the file.
    pub(crate) what: &'static str,
    /// Whether the header carries a shard (journals only).
    pub(crate) sharded: bool,
    /// The duplicate policy.
    pub(crate) dup: Dup,
}

/// The campaign journal (`ftcg-engine`'s `journal` module).
pub const JOURNAL: Kind = Kind {
    key: "ftcg_journal",
    version: 1,
    what: "journal",
    sharded: true,
    dup: Dup::FirstIdentical,
};

/// The deterministic event trace ([`crate::trace`]).
pub const TRACE: Kind = Kind {
    key: "ftcg_trace",
    version: 1,
    what: "trace",
    sharded: false,
    dup: Dup::FirstIdentical,
};

/// The phase-timing sidecar ([`crate::metrics`]). Version 2 moved the
/// duration histograms from an end-of-run summary line into each job
/// line.
pub const METRICS: Kind = Kind {
    key: "ftcg_metrics",
    version: 2,
    what: "metrics sidecar",
    sharded: false,
    dup: Dup::LastWins,
};

/// The pseudo-path errors name when they arise across files.
pub const MERGE: &str = "<merge>";

/// The campaign identity every log header carries.
///
/// Shard-free on purpose: every shard of one campaign writes the same
/// trace and sidecar header, so shard files merge; journals add their
/// shard in [`Header::shard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Campaign name.
    pub name: String,
    /// FNV-1a fingerprint of the expanded grid.
    pub fingerprint: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Repetitions per configuration (job `j` runs configuration
    /// `j / reps`).
    pub reps: usize,
    /// Total jobs in the full campaign.
    pub total_jobs: usize,
}

/// A log's header line: the campaign identity plus, in journals, the
/// `[index, count]` shard that wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// The campaign identity.
    pub meta: TraceMeta,
    /// The writing shard (journals only).
    pub shard: Option<[usize; 2]>,
}

impl From<TraceMeta> for Header {
    fn from(meta: TraceMeta) -> Header {
        Header { meta, shard: None }
    }
}

impl Header {
    /// Renders the header line of a `kind` log (no trailing newline).
    pub fn render(&self, kind: &Kind) -> String {
        let m = &self.meta;
        // The seed is a decimal *string*: u64 seeds above 2^53 do not
        // survive a round-trip through an f64 JSON number.
        let mut line = format!(
            "{{\"{}\":{},\"name\":{},\"fingerprint\":\"{:#018x}\",\"seed\":\"{}\",\
             \"reps\":{},\"total_jobs\":{}",
            kind.key,
            kind.version,
            Value::Str(m.name.clone()),
            m.fingerprint,
            m.seed,
            m.reps,
            m.total_jobs,
        );
        if let Some([index, count]) = self.shard {
            line.push_str(&format!(",\"shard\":[{index},{count}]"));
        }
        line.push('}');
        line
    }

    /// Parses the header line of a `kind` log.
    pub(crate) fn parse(kind: &Kind, line: &str) -> Result<Header, String> {
        let v = json::parse(line).map_err(|e| format!("header line: {e}"))?;
        let Some(version) = v.get(kind.key).and_then(read_u64) else {
            let (what, key) = (kind.what, kind.key);
            return Err(format!("not a ftcg {what} (missing `{key}` version field)"));
        };
        if version != kind.version {
            let (what, supported) = (kind.what, kind.version);
            return Err(format!(
                "{what} version {version} is not the supported version {supported}"
            ));
        }
        let bad = |key: &str| format!("header field `{key}` is missing or malformed");
        let text = |key: &str| v.get(key).and_then(Value::as_str).ok_or_else(|| bad(key));
        let count = |key: &str| v.get(key).and_then(read_u64).ok_or_else(|| bad(key));
        let meta = TraceMeta {
            name: text("name")?.to_string(),
            fingerprint: u64::from_str_radix(text("fingerprint")?.trim_start_matches("0x"), 16)
                .map_err(|_| bad("fingerprint"))?,
            seed: text("seed")?.parse().map_err(|_| bad("seed"))?,
            reps: count("reps")? as usize,
            total_jobs: count("total_jobs")? as usize,
        };
        if meta.reps == 0 {
            return Err("header field `reps` must be positive".into());
        }
        let shard = match v.get("shard").and_then(Value::as_arr) {
            _ if !kind.sharded => None,
            Some([i, k]) => match (read_u64(i), read_u64(k)) {
                (Some(i), Some(k)) if i < k => Some([i as usize, k as usize]),
                _ => return Err(bad("shard")),
            },
            _ => return Err(bad("shard")),
        };
        Ok(Header { meta, shard })
    }

    /// `Ok` when `self`, read from `path`, names `expected`'s campaign
    /// (and shard, when both carry one); otherwise
    /// [`TelemetryError::CampaignMismatch`] naming each field that
    /// differs.
    pub fn same_campaign(
        &self,
        kind: &Kind,
        path: &str,
        expected: &Header,
    ) -> Result<(), TelemetryError> {
        let both_sharded = self.shard.is_some() && expected.shard.is_some();
        let fields = |h: &Header| {
            let (m, shard) = (&h.meta, h.shard.filter(|_| both_sharded));
            [
                ("name", m.name.clone()),
                ("fingerprint", format!("{:#018x}", m.fingerprint)),
                ("seed", m.seed.to_string()),
                ("reps", m.reps.to_string()),
                ("total_jobs", m.total_jobs.to_string()),
                (
                    "shard",
                    shard.map_or_else(String::new, |[i, k]| format!("{i}/{k}")),
                ),
            ]
        };
        let diffs: Vec<String> = fields(self)
            .into_iter()
            .zip(fields(expected))
            .filter(|(found, want)| found != want)
            .map(|((key, found), (_, want))| format!("{key} {found} (expected {want})"))
            .collect();
        if diffs.is_empty() {
            return Ok(());
        }
        let (what, diffs) = (kind.what, diffs.join(", "));
        Err(TelemetryError::CampaignMismatch {
            path: path.into(),
            msg: format!("{what} belongs to a different campaign: {diffs}"),
        })
    }
}

/// Reads a non-negative integer JSON number that an f64 holds exactly.
pub fn read_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= 9_007_199_254_740_992.0 => {
            Some(*f as u64)
        }
        _ => None,
    }
}

/// One complete record line: its `(job, seq)` key, its text, and what
/// the format parsed from it (nothing, in the trace: its lines are its
/// records).
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<R = ()> {
    /// Global job index.
    pub job: usize,
    /// Position within the job (0 in per-job logs).
    pub(crate) seq: usize,
    /// The line as written, without its newline.
    pub(crate) line: String,
    /// The parsed record.
    pub value: R,
}

/// A format's record-line parser: `(job, seq, record)`, or what is
/// wrong with the line.
pub(crate) type Parse<R> = fn(&str) -> Result<(usize, usize, R), String>;

/// Applies `dup` to `entries` in order, keeping first-occurrence order.
/// `path` names the file (or [`MERGE`]) in a conflict error.
fn dedupe<R>(
    dup: Dup,
    path: &str,
    entries: impl IntoIterator<Item = Entry<R>>,
) -> Result<Vec<Entry<R>>, TelemetryError> {
    let mut out: Vec<Entry<R>> = Vec::new();
    let mut at: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for e in entries {
        match at.get(&(e.job, e.seq)) {
            None => {
                at.insert((e.job, e.seq), out.len());
                out.push(e);
            }
            Some(&i) => match dup {
                Dup::LastWins => out[i] = e,
                Dup::FirstIdentical if out[i].line == e.line => {}
                Dup::FirstIdentical => {
                    return Err(TelemetryError::ConflictingDuplicate {
                        path: path.into(),
                        job: e.job,
                        seq: e.seq,
                    });
                }
            },
        }
    }
    Ok(out)
}

/// Merges the records of several loaded logs of one campaign under
/// `kind`'s duplicate policy. Every identity must equal the first one's;
/// the result is that identity and the surviving records.
pub fn merge<R>(
    kind: &Kind,
    logs: impl IntoIterator<Item = (TraceMeta, Vec<Entry<R>>)>,
) -> Result<(TraceMeta, Vec<Entry<R>>), TelemetryError> {
    let mut first: Option<Header> = None;
    let mut all = Vec::new();
    for (meta, entries) in logs {
        match &first {
            None => first = Some(Header::from(meta)),
            Some(h) => Header::from(meta).same_campaign(kind, MERGE, h)?,
        }
        all.extend(entries);
    }
    let meta = first.ok_or(TelemetryError::NoInput)?.meta;
    Ok((meta, dedupe(kind.dup, MERGE, all)?))
}

/// A loaded log.
#[derive(Debug)]
pub struct Log<R> {
    /// The header line.
    pub header: Header,
    /// Deduplicated record lines, in file order.
    pub entries: Vec<Entry<R>>,
    /// Whether a torn tail was dropped.
    pub torn_tail: bool,
    /// Byte length of the valid prefix: everything before the torn tail.
    valid_len: u64,
}

impl<R> Log<R> {
    /// Loads a `kind` log, parsing each complete record line with
    /// `parse` (the module docs give the rules).
    pub fn load(path: &Path, kind: &Kind, parse: Parse<R>) -> Result<Log<R>, TelemetryError> {
        let bytes = std::fs::read(path).map_err(|e| TelemetryError::io(path, e))?;
        Self::from_bytes(path, &bytes, kind, parse)
    }

    fn from_bytes(
        path: &Path,
        bytes: &[u8],
        kind: &Kind,
        parse: Parse<R>,
    ) -> Result<Log<R>, TelemetryError> {
        let p = path.display().to_string();
        // Complete lines with their byte offsets; `bytes[end..]` is the
        // torn tail.
        let mut lines = Vec::new();
        let mut end = 0;
        while let Some(n) = bytes[end..].iter().position(|&b| b == b'\n') {
            lines.push((end, &bytes[end..end + n]));
            end += n + 1;
        }
        let Some((&(_, head), body)) = lines.split_first() else {
            return Err(if bytes.is_empty() {
                TelemetryError::Empty { path: p }
            } else {
                TelemetryError::Header {
                    path: p,
                    msg: "torn header line (crash during file creation)".into(),
                }
            });
        };
        let header = std::str::from_utf8(head)
            .map_err(|e| format!("header line: {e}"))
            .and_then(|h| Header::parse(kind, h))
            .map_err(|msg| TelemetryError::Header {
                path: p.clone(),
                msg,
            })?;
        let total = header.meta.total_jobs;
        let mut entries = Vec::with_capacity(body.len());
        for &(offset, raw) in body {
            let malformed = |msg: String| TelemetryError::Malformed {
                path: p.clone(),
                offset,
                msg,
            };
            let line = std::str::from_utf8(raw).map_err(|e| malformed(e.to_string()))?;
            let (job, seq, value) = parse(line).map_err(malformed)?;
            if job >= total {
                return Err(TelemetryError::JobOutOfRange {
                    path: p.clone(),
                    job,
                    total,
                });
            }
            entries.push(Entry {
                job,
                seq,
                line: line.to_string(),
                value,
            });
        }
        Ok(Log {
            entries: dedupe(kind.dup, &p, entries)?,
            header,
            torn_tail: end < bytes.len(),
            valid_len: end as u64,
        })
    }
}

/// An open, append-only log.
#[derive(Debug)]
pub struct LogWriter {
    file: std::fs::File,
    pub(crate) path: PathBuf,
}

impl LogWriter {
    /// Opens a `kind` log at `path` under the open rule of the module
    /// docs. With `resume`, also returns the records that survived.
    pub fn open<R>(
        path: &Path,
        kind: &Kind,
        header: &Header,
        resume: bool,
        parse: Parse<R>,
    ) -> Result<(LogWriter, Vec<Entry<R>>), TelemetryError> {
        let io = |e: std::io::Error| TelemetryError::io(path, e);
        let mut options = std::fs::OpenOptions::new();
        options.append(true);
        if resume {
            match std::fs::read(path) {
                Ok(bytes) if bytes.contains(&b'\n') => {
                    let log = Log::from_bytes(path, &bytes, kind, parse)?;
                    log.header
                        .same_campaign(kind, &path.display().to_string(), header)?;
                    let file = options.open(path).map_err(io)?;
                    file.set_len(log.valid_len).map_err(io)?;
                    let w = LogWriter {
                        file,
                        path: path.to_path_buf(),
                    };
                    return Ok((w, log.entries));
                }
                // Killed before the header became durable: nothing to
                // replay, so start fresh.
                Ok(_) => std::fs::remove_file(path).map_err(io)?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io(e)),
            }
        }
        let file = options
            .create_new(true)
            .open(path)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::AlreadyExists => TelemetryError::AlreadyExists {
                    path: path.display().to_string(),
                },
                _ => io(e),
            })?;
        let mut w = LogWriter {
            file,
            path: path.to_path_buf(),
        };
        w.append(&format!("{}\n", header.render(kind)))?;
        Ok((w, Vec::new()))
    }

    /// Appends whole, newline-terminated `lines` with one `write_all`
    /// and flushes them.
    pub fn append(&mut self, lines: &str) -> Result<(), TelemetryError> {
        self.file
            .write_all(lines.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| TelemetryError::io(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "unit σ".into(),
            fingerprint: 0xdead_beef,
            seed: u64::MAX, // survives the decimal-string round-trip
            reps: 2,
            total_jobs: 4,
        }
    }

    #[test]
    fn headers_roundtrip_per_kind_and_render_as_before() {
        let sharded = Header {
            meta: meta(),
            shard: Some([1, 2]),
        };
        let line = sharded.render(&JOURNAL);
        assert_eq!(Header::parse(&JOURNAL, &line).unwrap(), sharded);
        assert!(
            line.ends_with(",\"total_jobs\":4,\"shard\":[1,2]}"),
            "{line}"
        );
        let plain = Header::from(meta());
        assert_eq!(
            plain.render(&TRACE),
            "{\"ftcg_trace\":1,\"name\":\"unit σ\",\"fingerprint\":\"0x00000000deadbeef\",\
             \"seed\":\"18446744073709551615\",\"reps\":2,\"total_jobs\":4}"
        );
        assert_eq!(
            Header::parse(&METRICS, &plain.render(&METRICS)).unwrap(),
            plain
        );
        // A header of another kind, or of another version, is refused.
        assert!(Header::parse(&TRACE, &plain.render(&METRICS)).is_err());
        let v1 = plain.render(&METRICS).replacen(":2,", ":1,", 1);
        assert!(Header::parse(&METRICS, &v1)
            .unwrap_err()
            .contains("version 1"));
        // A journal header needs a valid shard.
        assert!(Header::parse(&JOURNAL, &plain.render(&JOURNAL)).is_err());
        let bad = line.replace("[1,2]", "[2,2]");
        assert!(Header::parse(&JOURNAL, &bad).is_err());
    }

    #[test]
    fn mismatches_name_the_fields_that_differ() {
        let h = Header {
            meta: meta(),
            shard: Some([0, 2]),
        };
        assert!(h.same_campaign(&JOURNAL, "j", &h).is_ok());
        let mut other = h.clone();
        other.meta.seed = 3;
        other.shard = Some([1, 2]);
        match h.same_campaign(&JOURNAL, "j", &other).unwrap_err() {
            TelemetryError::CampaignMismatch { path, msg } => {
                assert_eq!(path, "j");
                assert!(msg.starts_with("journal belongs"), "{msg}");
                assert!(msg.contains("seed") && msg.contains("shard 0/2"), "{msg}");
                assert!(!msg.contains("fingerprint"), "{msg}");
            }
            e => panic!("{e:?}"),
        }
        // Without a shard on one side, shards are not compared.
        other.meta.seed = h.meta.seed;
        other.shard = None;
        assert!(h.same_campaign(&JOURNAL, "j", &other).is_ok());
    }

    #[test]
    fn dedupe_policies() {
        let e = |job, line: &str| Entry {
            job,
            seq: 0,
            line: line.into(),
            value: line.len(),
        };
        let first = dedupe(Dup::FirstIdentical, "p", [e(1, "a"), e(0, "b"), e(1, "a")]).unwrap();
        assert_eq!(first, vec![e(1, "a"), e(0, "b")]);
        let conflict = dedupe(Dup::FirstIdentical, "p", [e(1, "a"), e(1, "c")]).unwrap_err();
        assert!(matches!(
            conflict,
            TelemetryError::ConflictingDuplicate { job: 1, seq: 0, .. }
        ));
        let last = dedupe(Dup::LastWins, "p", [e(1, "a"), e(0, "b"), e(1, "cc")]).unwrap();
        assert_eq!(last, vec![e(1, "cc"), e(0, "b")]);
    }
}
