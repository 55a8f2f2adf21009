//! The campaign journal's record format, and job-space sharding.
//!
//! A *journal* is a durable log (`ftcg_telemetry::log` holds the
//! discipline) of finished jobs, one record line per job, so `--resume`
//! re-runs exactly the jobs with no record. Its header, the
//! [`Manifest`], adds the writing shard to the campaign identity, whose
//! [`fingerprint`] of the expanded grid rejects a stale journal on
//! resume or merge — never a silent mix of two experiments.
//!
//! Journals are **not** the deterministic artifact: lines land in
//! completion order. The fold restores determinism by keying records on
//! *job index*, so any `{threads × shards}` decomposition — including a
//! kill-and-resume — produces byte-identical JSONL/CSV summaries (see
//! [`crate::campaign::merge_journals`]).

use std::path::Path;

use ftcg_telemetry::log::{self, read_u64, Entry, Header, Log, LogWriter, TraceMeta, JOURNAL};
use ftcg_telemetry::TelemetryError;
use serde::json::{self, Value};

use crate::aggregate::JobMetrics;
use crate::EngineError;
use crate::{ConfigJob, InjectorSpec};

/// A `i/k` partition of the job index space: shard `i` owns every job
/// index `j` with `j % k == i`. Round-robin keeps each shard's load
/// balanced across configurations, and the union of the `k` shards is
/// exactly the full job set, each index owned once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards the job space is split into.
    pub count: usize,
}

impl Default for Shard {
    fn default() -> Self {
        Shard::FULL
    }
}

impl Shard {
    /// The trivial partition: one shard owning every job.
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// Parses `i/k` (e.g. `0/4`). `i` must be below `k`.
    pub fn parse(s: &str) -> Result<Shard, EngineError> {
        let bad = || EngineError::Spec(format!("bad shard `{s}` (expected i/k with i < k)"));
        let (i, k) = s.trim().split_once('/').ok_or_else(bad)?;
        let index: usize = i.trim().parse().map_err(|_| bad())?;
        let count: usize = k.trim().parse().map_err(|_| bad())?;
        if count == 0 || index >= count {
            return Err(bad());
        }
        Ok(Shard { index, count })
    }

    /// The job indices this shard owns, out of `total` jobs.
    pub(crate) fn job_indices(&self, total: usize) -> Vec<usize> {
        (self.index..total).step_by(self.count).collect()
    }

    /// Canonical `i/k` rendering.
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }
}

/// The journaled outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRecord {
    /// The repetition completed with finite metrics.
    Done(JobMetrics),
    /// The repetition was lost — a panic inside the solve, or a
    /// non-finite aggregate metric (NaN poisoning counted as a failure
    /// rather than aborting the campaign). Folded into the `panics`
    /// column.
    Failed(String),
}

/// The identity line at the head of every journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name.
    pub name: String,
    /// FNV-1a fingerprint of the expanded grid (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Repetitions per configuration.
    pub reps: usize,
    /// Total jobs in the *full* campaign (all shards).
    pub total_jobs: usize,
    /// The shard the producing process ran.
    pub shard: Shard,
}

impl Manifest {
    /// The shard-free campaign identity, as trace and sidecar headers
    /// carry it.
    pub fn meta(&self) -> TraceMeta {
        TraceMeta {
            name: self.name.clone(),
            fingerprint: self.fingerprint,
            seed: self.seed,
            reps: self.reps,
            total_jobs: self.total_jobs,
        }
    }

    fn header(&self) -> Header {
        Header {
            meta: self.meta(),
            shard: Some([self.shard.index, self.shard.count]),
        }
    }

    fn from_header(h: Header) -> Manifest {
        // The journal header parser only accepts a valid shard.
        let [index, count] = h.shard.unwrap_or([0, 1]);
        let m = h.meta;
        Manifest {
            name: m.name,
            fingerprint: m.fingerprint,
            seed: m.seed,
            reps: m.reps,
            total_jobs: m.total_jobs,
            shard: Shard { index, count },
        }
    }
}

/// FNV-1a over the canonical description of an expanded grid: campaign
/// name, seed, reps, and every configuration's full identity (matrix,
/// order, scheme, α, intervals, seed-derivation group,
/// injector, iteration caps, cost model). Two specs that expand to the
/// same grid fingerprint identically however they were written
/// (key=value vs JSON, inline flags vs file); any change that would
/// alter a single job's result changes the fingerprint. The constants
/// `solver=cg` and `kernel=csr` are what the removed solver and
/// SpMV-backend axes wrote for every configuration that remains; they
/// stay so journals written before still `--resume`.
pub fn fingerprint(name: &str, seed: u64, reps: usize, configs: &[ConfigJob]) -> u64 {
    let mut text = format!(
        "ftcg-campaign v{}\nname={name}\nseed={seed}\nreps={reps}\n",
        JOURNAL.version
    );
    for (i, job) in configs.iter().enumerate() {
        let k = &job.key;
        let c = &job.cfg;
        let inj = match job.injector {
            InjectorSpec::None => "none",
            InjectorSpec::Paper => "paper",
            InjectorSpec::Calibrated => "calibrated",
        };
        text.push_str(&format!(
            "config {i}: matrix={}|n={}|scheme={}|solver=cg|alpha={}|s={}|d={}|kernel=csr\
             |group={:?}|inj={inj}|max_prod={}|max_exec={}|costs={},{},{}|stop={:?}\n",
            k.matrix,
            k.n,
            k.scheme.name(),
            k.alpha,
            k.s,
            k.d,
            job.seed_group,
            c.max_productive_iters,
            c.max_executed_iters,
            c.costs.tcp,
            c.costs.trec,
            c.costs.tverif,
            c.stopping,
        ));
    }
    fnv1a(text.as_bytes())
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders an `f64` for a journal line: finite values use Rust's
/// shortest-roundtrip formatting (parse-exact), non-finite values use
/// quoted sentinels (JSON has no NaN/∞ literals).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".into()
    } else if v > 0.0 {
        "\"inf\"".into()
    } else {
        "\"-inf\"".into()
    }
}

/// Reads an `f64` journal field written by [`fmt_f64`].
fn read_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        Value::Str(s) => match s.as_str() {
            "NaN" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        _ => None,
    }
}

/// Renders one job record as a JSONL line (without the newline).
pub(crate) fn record_line(job: usize, record: &JobRecord) -> String {
    match record {
        JobRecord::Done(m) => format!(
            "{{\"job\":{job},\"time\":{},\"executed\":{},\"rollbacks\":{},\
             \"corrections\":{},\"faults\":{},\"converged\":{},\"residual\":{}}}",
            fmt_f64(m.simulated_time),
            m.executed_iterations,
            m.rollbacks,
            m.corrections,
            m.faults,
            m.converged,
            fmt_f64(m.true_residual),
        ),
        JobRecord::Failed(msg) => {
            format!("{{\"job\":{job},\"failed\":{}}}", Value::Str(msg.clone()))
        }
    }
}

fn parse_record(line: &str) -> Result<(usize, usize, JobRecord), String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let u = |key: &str| {
        v.get(key)
            .and_then(read_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("record missing `{key}`"))
    };
    let job = u("job")?;
    if let Some(msg) = v.get("failed") {
        let msg = msg.as_str().ok_or("`failed` must be a string")?;
        return Ok((job, 0, JobRecord::Failed(msg.to_string())));
    }
    let f = |key: &str| {
        v.get(key)
            .and_then(read_f64)
            .ok_or_else(|| format!("record missing `{key}`"))
    };
    let converged = match v.get("converged") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("record missing `converged`".into()),
    };
    let metrics = JobMetrics {
        simulated_time: f("time")?,
        executed_iterations: u("executed")?,
        rollbacks: u("rollbacks")?,
        corrections: u("corrections")?,
        faults: u("faults")?,
        converged,
        true_residual: f("residual")?,
    };
    Ok((job, 0, JobRecord::Done(metrics)))
}

fn records(entries: Vec<Entry<JobRecord>>) -> Vec<(usize, JobRecord)> {
    entries.into_iter().map(|e| (e.job, e.value)).collect()
}

/// A loaded journal: manifest and replayed records.
#[derive(Debug)]
pub struct Journal {
    /// The identity line.
    pub manifest: Manifest,
    /// Replayed `(job_index, record)` pairs, in file (completion) order.
    pub records: Vec<(usize, JobRecord)>,
    /// Whether a torn final line was dropped.
    pub torn_tail: bool,
}

impl Journal {
    /// Loads a journal. A job re-run after a crash re-appends the same
    /// record, so a repeated job's line must be byte-identical.
    pub fn load(path: &Path) -> Result<Journal, TelemetryError> {
        let log = Log::load(path, &JOURNAL, parse_record)?;
        Ok(Journal {
            manifest: Manifest::from_header(log.header),
            records: records(log.entries),
            torn_tail: log.torn_tail,
        })
    }
}

/// The records of the journals at `paths` — any shards of the campaign
/// `expected` names — unioned under the journal's duplicate policy.
pub(crate) fn union(
    paths: &[impl AsRef<Path>],
    expected: TraceMeta,
) -> Result<Vec<(usize, JobRecord)>, TelemetryError> {
    let expected = Header::from(expected);
    let mut logs = Vec::new();
    for path in paths {
        let path = path.as_ref();
        let log = Log::load(path, &JOURNAL, parse_record)?;
        log.header
            .same_campaign(&JOURNAL, &path.display().to_string(), &expected)?;
        logs.push((log.header.meta, log.entries));
    }
    Ok(records(log::merge(&JOURNAL, logs)?.1))
}

/// An open journal. Each [`append`](Self::append) makes one record
/// durable.
#[derive(Debug)]
pub struct JournalWriter(LogWriter);

impl JournalWriter {
    /// Creates a fresh journal at `path`; an existing file is
    /// [`TelemetryError::AlreadyExists`] — stale journals must be
    /// resumed or removed explicitly.
    pub fn create(path: &Path, manifest: &Manifest) -> Result<JournalWriter, TelemetryError> {
        Ok(Self::open(path, manifest, false)?.0)
    }

    /// Opens a journal under the log open rule (resume requires the
    /// same campaign *and* shard); with `resume`, also returns the
    /// records that survived, in file order.
    pub(crate) fn open(
        path: &Path,
        manifest: &Manifest,
        resume: bool,
    ) -> Result<(JournalWriter, Vec<(usize, JobRecord)>), TelemetryError> {
        let (w, entries) =
            LogWriter::open(path, &JOURNAL, &manifest.header(), resume, parse_record)?;
        Ok((JournalWriter(w), records(entries)))
    }

    /// Appends one job record.
    pub fn append(&mut self, job: usize, record: &JobRecord) -> Result<(), TelemetryError> {
        self.0.append(&format!("{}\n", record_line(job, record)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(t: f64) -> JobMetrics {
        JobMetrics {
            simulated_time: t,
            executed_iterations: 101,
            rollbacks: 2,
            corrections: 1,
            faults: 3,
            converged: true,
            true_residual: 4.25e-9,
        }
    }

    fn manifest() -> Manifest {
        Manifest {
            name: "t".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
            seed: 9,
            reps: 5,
            total_jobs: 10,
            shard: Shard { index: 1, count: 2 },
        }
    }

    #[test]
    fn shard_parse_and_partition() {
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::FULL);
        let s = Shard::parse(" 2/3 ").unwrap();
        assert_eq!(s, Shard { index: 2, count: 3 });
        assert_eq!(s.job_indices(8), vec![2, 5]);
        assert!(Shard::parse("3/3").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
        // The k shards partition any job space exactly.
        let total = 17;
        let mut owned = vec![0usize; total];
        for i in 0..4 {
            for j in (Shard { index: i, count: 4 }).job_indices(total) {
                owned[j] += 1;
            }
        }
        assert!(owned.iter().all(|&c| c == 1));
    }

    fn roundtrip(m: &Manifest) -> Manifest {
        let dir = std::env::temp_dir().join(format!("ftcg-journal-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.jsonl", m.seed));
        let _ = std::fs::remove_file(&path);
        JournalWriter::create(&path, m).unwrap();
        let back = Journal::load(&path).unwrap().manifest;
        std::fs::remove_file(&path).unwrap();
        back
    }

    #[test]
    fn manifest_roundtrip() {
        let m = manifest();
        // The header renders byte-for-byte as journals always have.
        assert_eq!(
            m.header().render(&JOURNAL),
            "{\"ftcg_journal\":1,\"name\":\"t\",\"fingerprint\":\"0xdeadbeef01234567\",\
             \"seed\":\"9\",\"reps\":5,\"total_jobs\":10,\"shard\":[1,2]}"
        );
        assert_eq!(roundtrip(&m), m);
        // Seeds above 2^53 must survive: the JSON number model is f64,
        // so the seed travels as a decimal string.
        let big = Manifest {
            seed: (1u64 << 53) + 1,
            ..manifest()
        };
        assert_eq!(roundtrip(&big), big);
        let max = Manifest {
            seed: u64::MAX,
            ..manifest()
        };
        assert_eq!(roundtrip(&max), max);
    }

    #[test]
    fn record_roundtrip_including_nan_residual() {
        let mut m = metrics(12.625);
        let (j, _, r) = parse_record(&record_line(7, &JobRecord::Done(m))).unwrap();
        assert_eq!(j, 7);
        assert_eq!(r, JobRecord::Done(m));
        // NaN / inf survive via quoted sentinels (JSON has no literals).
        m.true_residual = f64::NAN;
        let (_, _, r) = parse_record(&record_line(0, &JobRecord::Done(m))).unwrap();
        match r {
            JobRecord::Done(back) => assert!(back.true_residual.is_nan()),
            other => panic!("{other:?}"),
        }
        m.true_residual = f64::INFINITY;
        let (_, _, r) = parse_record(&record_line(0, &JobRecord::Done(m))).unwrap();
        assert_eq!(
            r,
            JobRecord::Done(JobMetrics {
                true_residual: f64::INFINITY,
                ..m
            })
        );
        let fail = JobRecord::Failed("boom \"quoted\"".into());
        assert_eq!(parse_record(&record_line(3, &fail)).unwrap(), (3, 0, fail));
    }

    #[test]
    fn shortest_roundtrip_floats_are_exact() {
        // The journal contract: Display → parse is bit-exact for f64.
        for v in [1.0 / 3.0, 1e-308, 6.02e23, -0.1, f64::MIN_POSITIVE] {
            let (_, _, r) = parse_record(&record_line(
                0,
                &JobRecord::Done(JobMetrics {
                    simulated_time: v,
                    ..metrics(0.0)
                }),
            ))
            .unwrap();
            match r {
                JobRecord::Done(m) => assert_eq!(m.simulated_time.to_bits(), v.to_bits()),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn write_load_and_torn_tail_recovery() {
        let dir = std::env::temp_dir().join(format!("ftcg-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);
        let m = manifest();
        {
            let mut w = JournalWriter::create(&path, &m).unwrap();
            w.append(3, &JobRecord::Done(metrics(1.5))).unwrap();
            w.append(5, &JobRecord::Failed("panic".into())).unwrap();
        }
        // Creating over an existing journal is refused.
        assert!(matches!(
            JournalWriter::create(&path, &m),
            Err(TelemetryError::AlreadyExists { .. })
        ));
        let j = Journal::load(&path).unwrap();
        assert_eq!(j.manifest, m);
        assert_eq!(j.records.len(), 2);
        assert!(!j.torn_tail);
        // Simulate a crash mid-write: append half a line.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"job\":7,\"time\":1.0,\"exec").unwrap();
        }
        let j = Journal::load(&path).unwrap();
        assert!(j.torn_tail);
        assert_eq!(j.records.len(), 2, "torn line dropped");
        // Resume truncates the torn tail; the next append lands clean.
        {
            let (mut w, replayed) = JournalWriter::open(&path, &m, true).unwrap();
            assert_eq!(replayed, j.records);
            w.append(7, &JobRecord::Done(metrics(2.5))).unwrap();
        }
        let j = Journal::load(&path).unwrap();
        assert!(!j.torn_tail);
        assert_eq!(j.records.len(), 3);
        assert_eq!(j.records[2].0, 7);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_in_the_middle_is_an_error() {
        let dir = std::env::temp_dir().join(format!("ftcg-journal-mid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);
        let m = manifest();
        std::fs::write(
            &path,
            format!(
                "{}\ngarbage not json\n{}\n",
                m.header().render(&JOURNAL),
                record_line(1, &JobRecord::Done(metrics(1.0)))
            ),
        )
        .unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(TelemetryError::Malformed { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_records_identical_ok_conflicting_err() {
        let dir = std::env::temp_dir().join(format!("ftcg-journal-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);
        let m = manifest();
        let rec = record_line(4, &JobRecord::Done(metrics(1.0)));
        let head = m.header().render(&JOURNAL);
        std::fs::write(&path, format!("{head}\n{rec}\n{rec}\n")).unwrap();
        let j = Journal::load(&path).unwrap();
        assert_eq!(j.records.len(), 1, "identical duplicates deduplicated");
        let other = record_line(4, &JobRecord::Done(metrics(2.0)));
        std::fs::write(&path, format!("{head}\n{rec}\n{other}\n")).unwrap();
        assert!(matches!(
            Journal::load(&path),
            Err(TelemetryError::ConflictingDuplicate { job: 4, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn manifest_mismatches_are_described() {
        let m = manifest();
        let check = |other: &Manifest, shard: bool| {
            let mut expected = other.header();
            expected.shard = expected.shard.filter(|_| shard);
            match m.header().same_campaign(&JOURNAL, "j", &expected) {
                Ok(()) => String::new(),
                Err(TelemetryError::CampaignMismatch { msg, .. }) => msg,
                Err(e) => panic!("{e:?}"),
            }
        };
        assert!(check(&m, true).is_empty());
        let mut other = m.clone();
        other.fingerprint ^= 1;
        assert!(check(&other, false).contains("fingerprint"));
        let mut other = m.clone();
        other.seed += 1;
        assert!(check(&other, false).contains("seed"));
        let mut other = m.clone();
        other.shard = Shard::FULL;
        // Merge ignores the shard; resume does not.
        assert!(check(&other, false).is_empty());
        assert!(check(&other, true).contains("shard"));
    }

    #[test]
    fn fingerprint_is_sensitive_to_grid_identity() {
        use crate::spec::{CampaignSpec, DefaultResolver};
        let spec = CampaignSpec::parse(
            "name = f\nseed = 1\nreps = 2\nmatrices = poisson2d:6\nalphas = 0, 1/16\n",
        )
        .unwrap();
        let configs = crate::grid::expand(&spec, &DefaultResolver).unwrap();
        let base = fingerprint(&spec.name, spec.seed, spec.reps, &configs);
        assert_eq!(
            base,
            fingerprint(&spec.name, spec.seed, spec.reps, &configs)
        );
        assert_ne!(
            base,
            fingerprint(&spec.name, spec.seed + 1, spec.reps, &configs)
        );
        assert_ne!(base, fingerprint(&spec.name, spec.seed, 3, &configs));
        assert_ne!(base, fingerprint("other", spec.seed, spec.reps, &configs));
        // A different grid (dropping an alpha) changes the fingerprint.
        let mut narrow = spec.clone();
        narrow.alphas.pop();
        let narrow_configs = crate::grid::expand(&narrow, &DefaultResolver).unwrap();
        assert_ne!(
            base,
            fingerprint(&narrow.name, narrow.seed, narrow.reps, &narrow_configs)
        );
        // Threads are NOT part of the identity: any {threads × shards}
        // decomposition shares one journal family.
    }
}
