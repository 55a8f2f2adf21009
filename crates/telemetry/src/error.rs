//! Typed errors for the durable logs (see [`crate::log`]).
//!
//! Every failure mode a journal, trace or metrics sidecar can hit on
//! disk — torn headers, malformed lines, conflicting duplicates,
//! campaign mismatches — gets its own matchable variant, so callers (and
//! the error-path test suites) can assert *which* failure occurred
//! instead of grepping message strings. `Display` renders the
//! `path: message` shape, and a `From` impl keeps `?` working in
//! `Result<_, String>` call sites (the CLI).

/// A typed durable-log error (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// An I/O operation on the file failed.
    Io {
        /// File the operation targeted.
        path: String,
        /// The underlying I/O error message.
        msg: String,
    },
    /// The file exists but contains nothing at all.
    Empty {
        /// The empty file.
        path: String,
    },
    /// The header line is torn (no newline survived) or unparseable.
    Header {
        /// File whose header is bad.
        path: String,
        /// What was wrong with it.
        msg: String,
    },
    /// A body line failed to parse.
    Malformed {
        /// File the line lives in.
        path: String,
        /// Byte offset of the offending line.
        offset: usize,
        /// Parse failure detail.
        msg: String,
    },
    /// A line references a job outside the campaign's job space.
    JobOutOfRange {
        /// File the line lives in.
        path: String,
        /// The out-of-range job index.
        job: usize,
        /// Total jobs the campaign header declares.
        total: usize,
    },
    /// Two lines with the same `(job, seq)` key carry different bytes
    /// (`seq` is 0 in per-job logs).
    ConflictingDuplicate {
        /// File (or `<merge>` when detected across files).
        path: String,
        /// Job index of the conflicting lines.
        job: usize,
        /// Sequence number of the conflicting lines.
        seq: usize,
    },
    /// The file belongs to a different campaign than expected.
    CampaignMismatch {
        /// File (or `<merge>` when detected across files).
        path: String,
        /// Identity detail (names, fingerprints).
        msg: String,
    },
    /// Refusing to overwrite an existing file without `--resume`.
    AlreadyExists {
        /// The file that already exists.
        path: String,
    },
    /// No inputs were supplied where at least one is required.
    NoInput,
}

impl TelemetryError {
    /// Convenience constructor for [`TelemetryError::Io`].
    pub(crate) fn io(path: &std::path::Path, err: impl std::fmt::Display) -> TelemetryError {
        TelemetryError::Io {
            path: path.display().to_string(),
            msg: err.to_string(),
        }
    }
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::Io { path, msg } => write!(f, "{path}: {msg}"),
            TelemetryError::Empty { path } => write!(f, "{path}: empty file"),
            TelemetryError::Header { path, msg } => write!(f, "{path}: {msg}"),
            TelemetryError::Malformed { path, offset, msg } => {
                write!(f, "{path}: line at byte {offset}: {msg}")
            }
            TelemetryError::JobOutOfRange { path, job, total } => write!(
                f,
                "{path}: job {job} out of range (campaign has {total} jobs)"
            ),
            TelemetryError::ConflictingDuplicate { path, job, seq } => write!(
                f,
                "{path}: conflicting duplicate lines for job {job} seq {seq}"
            ),
            TelemetryError::CampaignMismatch { path, msg } => write!(f, "{path}: {msg}"),
            TelemetryError::AlreadyExists { path } => write!(
                f,
                "{path}: file already exists (pass --resume to continue it, or remove it)"
            ),
            TelemetryError::NoInput => write!(f, "no input files"),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Keeps `?` usable in `Result<_, String>` call sites (the CLI's
/// command closures).
impl From<TelemetryError> for String {
    fn from(e: TelemetryError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_path_and_detail() {
        let e = TelemetryError::Malformed {
            path: "t.jsonl".into(),
            offset: 90,
            msg: "event missing `job`".into(),
        };
        assert_eq!(
            e.to_string(),
            "t.jsonl: line at byte 90: event missing `job`"
        );
        let s: String = e.into();
        assert!(s.contains("byte 90"));
    }

    #[test]
    fn variants_are_matchable() {
        let e = TelemetryError::ConflictingDuplicate {
            path: "x".into(),
            job: 3,
            seq: 1,
        };
        match e {
            TelemetryError::ConflictingDuplicate { job, seq, .. } => {
                assert_eq!((job, seq), (3, 1));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
