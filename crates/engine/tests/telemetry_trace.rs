//! End-to-end determinism of the telemetry layer: the canonical event
//! trace must be **byte-identical** across every decomposition of the
//! same campaign — any thread count, any shard split (after a merge),
//! and any kill-and-resume boundary — and turning telemetry on must
//! not perturb the campaign's JSONL/CSV artifacts by a single byte.

use std::path::{Path, PathBuf};

use ftcg_engine::journal::Shard;
use ftcg_engine::{run_campaign_sharded, sink, CampaignSpec, DefaultResolver, RunOptions};
use ftcg_telemetry::metrics::MetricsFile;
use ftcg_telemetry::{Trace, TraceMeta};

const SPEC: &str = "name     = ttest\n\
                    seed     = 23\n\
                    reps     = 3\n\
                    threads  = 1\n\
                    matrices = poisson2d:10\n\
                    schemes  = detection, correction\n\
                    alphas   = 0, 1/16\n";

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC).expect("spec parses")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftcg-ttest-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the spec with telemetry into `dir`, one shard of `shards` at a
/// time, and returns the canonical merged trace text.
fn traced_run(dir: &Path, threads: usize, shards: usize) -> String {
    let mut cs = spec();
    cs.threads = threads;
    let mut traces = Vec::new();
    for index in 0..shards {
        let journal = dir.join(format!("s{index}.jsonl"));
        let trace = dir.join(format!("s{index}.trace.jsonl"));
        let opts = RunOptions {
            shard: Shard {
                index,
                count: shards,
            },
            journal: Some(&journal),
            trace: Some(&trace),
            ..RunOptions::default()
        };
        run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
        traces.push(Trace::load(&trace).unwrap());
    }
    // The header is deliberately shard-free, so shard traces merge into
    // the campaign's one canonical trace.
    Trace::merge(traces).unwrap().canonical_string()
}

#[test]
fn trace_is_byte_identical_across_threads_and_shards() {
    let dir = tmpdir("grid");
    let mut golden: Option<String> = None;
    for (threads, shards) in [(1, 1), (4, 1), (2, 2)] {
        let sub = dir.join(format!("t{threads}s{shards}"));
        std::fs::create_dir_all(&sub).unwrap();
        let canonical = traced_run(&sub, threads, shards);
        match &golden {
            None => golden = Some(canonical),
            Some(g) => assert_eq!(&canonical, g, "trace differs at {threads}×{shards}"),
        }
    }
    // A single-shard run's on-disk file is already canonical (the run
    // rewrites it on completion), so the file bytes equal the golden.
    let on_disk = std::fs::read_to_string(dir.join("t1s1/s0.trace.jsonl")).unwrap();
    assert_eq!(on_disk, golden.unwrap());
    // Sanity on shape: one block per job, each starting with job_start
    // and ending with job_finish.
    let trace = Trace::load(&dir.join("t1s1/s0.trace.jsonl")).unwrap();
    let events = trace.parsed().unwrap();
    let jobs: std::collections::BTreeSet<usize> = events.iter().map(|(j, _, _)| *j).collect();
    assert_eq!(jobs.len(), spec().n_jobs());
    for &job in &jobs {
        let block: Vec<_> = events.iter().filter(|(j, _, _)| *j == job).collect();
        assert_eq!(block.first().unwrap().2.kind.name(), "job_start");
        assert_eq!(block.last().unwrap().2.kind.name(), "job_finish");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_then_resume_reproduces_the_trace() {
    let dir = tmpdir("resume");
    let golden = traced_run(&dir.join_and_create("gold"), 1, 1);

    let journal = dir.join("run.jsonl");
    let trace = dir.join("run.trace.jsonl");
    let opts = RunOptions {
        journal: Some(&journal),
        trace: Some(&trace),
        resume: true,
        ..RunOptions::default()
    };
    run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();

    // Simulate a kill: the journal keeps its manifest plus four records
    // (and a torn fifth), the trace keeps a prefix ending in a torn
    // line. The trace may legitimately be *ahead* of the journal — a
    // job's trace block is flushed before its journal record — so the
    // resumed run re-executes jobs whose blocks are already durable;
    // their re-appended blocks are byte-identical and dedupe on load.
    let jtext = std::fs::read_to_string(&journal).unwrap();
    let keep: Vec<&str> = jtext.lines().take(5).collect();
    let torn = &jtext.lines().nth(5).unwrap()[..12];
    std::fs::write(&journal, format!("{}\n{torn}", keep.join("\n"))).unwrap();
    // Trace blocks are flushed *before* journal records, so a real
    // crash leaves complete blocks for every journaled job (0..=3 here;
    // the file is canonical, so their lines are the contiguous prefix).
    let ttext = std::fs::read_to_string(&trace).unwrap();
    let header = ttext.lines().next().unwrap();
    let (tkeep, rest): (Vec<&str>, Vec<&str>) = ttext
        .lines()
        .skip(1)
        .partition(|l| ftcg_telemetry::trace::parse_event(l).unwrap().0 < 4);
    let ttorn = &rest[0][..7];
    std::fs::write(&trace, format!("{header}\n{}\n{ttorn}", tkeep.join("\n"))).unwrap();

    // Resume on a different thread count; the canonicalized trace must
    // still be byte-identical to the uninterrupted run's.
    let mut cs = spec();
    cs.threads = 4;
    let (outcome, _) = run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
    assert_eq!(outcome.replayed, 4);
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), golden);

    // Killed before the trace header became durable: resume starts the
    // trace fresh instead of erroring.
    let fresh = dir.join("fresh.trace.jsonl");
    std::fs::write(&fresh, "").unwrap();
    let fresh_journal = dir.join("fresh.jsonl");
    let opts = RunOptions {
        journal: Some(&fresh_journal),
        trace: Some(&fresh),
        resume: true,
        ..RunOptions::default()
    };
    run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();
    assert_eq!(std::fs::read_to_string(&fresh).unwrap(), golden);

    // Without --resume an existing trace refuses to be clobbered.
    let opts = RunOptions {
        journal: Some(&dir.join("other.jsonl")),
        trace: Some(&trace),
        ..RunOptions::default()
    };
    let err = run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn artifacts_are_byte_identical_with_telemetry_on_or_off() {
    let dir = tmpdir("inert");
    let plain = run_campaign_sharded(&spec(), &DefaultResolver, &RunOptions::default())
        .unwrap()
        .1
        .unwrap();
    let trace = dir.join("run.trace.jsonl");
    let metrics = dir.join("run.metrics.jsonl");
    let opts = RunOptions {
        trace: Some(&trace),
        metrics: Some(&metrics),
        ..RunOptions::default()
    };
    let traced = run_campaign_sharded(&spec(), &DefaultResolver, &opts)
        .unwrap()
        .1
        .unwrap();
    // The recorder must never influence outcomes: identical artifacts,
    // byte for byte.
    assert_eq!(
        sink::jsonl_string(&traced.summaries),
        sink::jsonl_string(&plain.summaries)
    );
    assert_eq!(
        sink::csv_string(&traced.summaries),
        sink::csv_string(&plain.summaries)
    );
    // The sidecar covers every job and carries nonzero step timings.
    let mf = MetricsFile::load(&metrics).unwrap();
    assert_eq!(mf.jobs.len(), spec().n_jobs());
    assert!(mf.hist.is_some());
    assert!(mf.jobs.iter().all(|j| j.ns.iter().sum::<u64>() > 0));
    // Trace and sidecar agree on the campaign identity.
    let t = Trace::load(&trace).unwrap();
    assert_eq!(t.meta, mf.meta);
    assert_eq!(
        t.meta,
        TraceMeta {
            name: "ttest".into(),
            fingerprint: t.meta.fingerprint,
            seed: 23,
            reps: 3,
            total_jobs: spec().n_jobs(),
        }
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn retired_batch_key_changes_no_artifact() {
    // `batch` is accepted for old spec files and ignored: with a width,
    // with `auto` and without the key, JSONL, CSV and the trace file
    // are the same bytes.
    let dir = tmpdir("batchkey");
    let mut golden: Option<(String, String, Vec<u8>)> = None;
    for (tag, extra) in [
        ("none", ""),
        ("four", "batch = 4\n"),
        ("auto", "batch = auto\n"),
    ] {
        let cs = CampaignSpec::parse(&format!("{SPEC}{extra}")).unwrap();
        let trace = dir.join(format!("{tag}.trace.jsonl"));
        let opts = RunOptions {
            trace: Some(&trace),
            ..RunOptions::default()
        };
        let result = run_campaign_sharded(&cs, &DefaultResolver, &opts)
            .unwrap()
            .1
            .unwrap();
        let got = (
            sink::jsonl_string(&result.summaries),
            sink::csv_string(&result.summaries),
            std::fs::read(&trace).unwrap(),
        );
        match &golden {
            None => golden = Some(got),
            Some(g) => assert!(*g == got, "artifacts differ with `{}`", extra.trim()),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

trait JoinAndCreate {
    fn join_and_create(&self, sub: &str) -> PathBuf;
}

impl JoinAndCreate for PathBuf {
    fn join_and_create(&self, sub: &str) -> PathBuf {
        let d = self.join(sub);
        std::fs::create_dir_all(&d).unwrap();
        d
    }
}
