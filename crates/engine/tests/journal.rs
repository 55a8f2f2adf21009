//! End-to-end crash-safety and scale-out determinism: the campaign
//! artifacts (JSONL and CSV) must be **byte-identical** across every
//! decomposition of the same spec — any thread count, any shard count,
//! any kill-and-resume boundary, and any merge order — because records
//! fold by job index, never by completion order.

use std::path::{Path, PathBuf};

use ftcg_engine::grid::expand;
use ftcg_engine::journal::{fingerprint, JournalWriter, Shard};
use ftcg_engine::{
    merge_journals, run_campaign, run_campaign_sharded, run_configs_sharded, sink, CampaignSpec,
    DefaultResolver, RunOptions,
};
use ftcg_telemetry::log::Header;
use ftcg_telemetry::TraceMeta;
use proptest::prelude::*;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(
        "name     = jtest\n\
         seed     = 11\n\
         reps     = 3\n\
         threads  = 1\n\
         matrices = poisson2d:10\n\
         schemes  = detection, correction\n\
         alphas   = 0, 1/16\n",
    )
    .expect("spec parses")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftcg-jtest-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The single-process single-thread reference artifacts.
fn golden() -> (String, String) {
    let r = run_campaign(&spec(), &DefaultResolver, None).unwrap();
    assert_eq!(r.panics, 0);
    (
        sink::jsonl_string(&r.summaries),
        sink::csv_string(&r.summaries),
    )
}

/// Runs the spec split into `shards` processes of `threads` workers
/// each (sequentially here — the journals make the processes
/// independent), merges the journals, and returns the artifacts.
fn run_decomposed(dir: &Path, threads: usize, shards: usize) -> (String, String) {
    let mut cs = spec();
    cs.threads = threads;
    let mut paths = Vec::new();
    for index in 0..shards {
        let path = dir.join(format!("shard-{index}-of-{shards}.jsonl"));
        let opts = RunOptions {
            shard: Shard {
                index,
                count: shards,
            },
            journal: Some(&path),
            ..RunOptions::default()
        };
        let (outcome, folded) = run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
        assert_eq!(outcome.replayed, 0);
        assert_eq!(folded.is_some(), shards == 1);
        paths.push(path);
    }
    let merged = merge_journals(&cs, &DefaultResolver, &paths).unwrap();
    assert_eq!(merged.panics, 0);
    (
        sink::jsonl_string(&merged.summaries),
        sink::csv_string(&merged.summaries),
    )
}

#[test]
fn artifacts_are_byte_identical_across_threads_and_shards() {
    let (gold_jsonl, gold_csv) = golden();
    let dir = tmpdir("grid");
    // The acceptance grid: {1×1, 1×4, 4×1, 2×2} threads × shards.
    for (threads, shards) in [(1, 1), (4, 1), (1, 4), (2, 2)] {
        let sub = dir.join(format!("t{threads}s{shards}"));
        std::fs::create_dir_all(&sub).unwrap();
        let (jsonl, csv) = run_decomposed(&sub, threads, shards);
        assert_eq!(jsonl, gold_jsonl, "JSONL differs at {threads}×{shards}");
        assert_eq!(csv, gold_csv, "CSV differs at {threads}×{shards}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_then_resume_reproduces_the_artifacts() {
    let (gold_jsonl, gold_csv) = golden();
    let dir = tmpdir("resume");
    let path = dir.join("run.jsonl");
    let opts = RunOptions {
        journal: Some(&path),
        ..RunOptions::default()
    };
    let (_, folded) = run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();
    assert_eq!(sink::jsonl_string(&folded.unwrap().summaries), gold_jsonl);
    // Simulate a kill mid-write: keep the manifest plus four records
    // and the torn first half of a fifth line.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().take(6).collect();
    let torn_half = &text.lines().nth(6).unwrap()[..10];
    std::fs::write(&path, format!("{}\n{torn_half}", keep.join("\n"))).unwrap();
    // Resume with a *different thread count*: replays the five valid
    // records, drops the torn line, executes the rest — and the folded
    // artifacts are still byte-identical to the uninterrupted run.
    let mut cs = spec();
    cs.threads = 4;
    let opts = RunOptions {
        journal: Some(&path),
        resume: true,
        ..RunOptions::default()
    };
    let (outcome, folded) = run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
    assert_eq!(outcome.replayed, 5);
    assert_eq!(outcome.executed, cs.n_jobs() - 5);
    let folded = folded.unwrap();
    assert_eq!(sink::jsonl_string(&folded.summaries), gold_jsonl);
    assert_eq!(sink::csv_string(&folded.summaries), gold_csv);
    // A second resume finds everything done and executes nothing.
    let (outcome, folded) = run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
    assert_eq!(outcome.executed, 0);
    assert_eq!(outcome.replayed, cs.n_jobs());
    assert_eq!(sink::jsonl_string(&folded.unwrap().summaries), gold_jsonl);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_recovers_from_a_crash_during_journal_creation() {
    // A kill *before the manifest line became durable* leaves an empty
    // (or torn-manifest) file; `--resume` must start fresh instead of
    // erroring forever — the whole point is one crash-loop-safe command.
    let (gold_jsonl, _) = golden();
    let dir = tmpdir("unstarted");
    let path = dir.join("run.jsonl");
    let opts = RunOptions {
        journal: Some(&path),
        resume: true,
        ..RunOptions::default()
    };
    // Empty file: killed right after open.
    std::fs::write(&path, "").unwrap();
    let (outcome, folded) = run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();
    assert_eq!(outcome.replayed, 0);
    assert_eq!(sink::jsonl_string(&folded.unwrap().summaries), gold_jsonl);
    // Torn manifest (no newline yet): same recovery.
    std::fs::write(&path, "{\"ftcg_journal\":1,\"na").unwrap();
    let (outcome, folded) = run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();
    assert_eq!(outcome.replayed, 0);
    assert_eq!(sink::jsonl_string(&folded.unwrap().summaries), gold_jsonl);
    // Without --resume, even an unstarted file refuses to be clobbered.
    std::fs::write(&path, "").unwrap();
    let no_resume = RunOptions {
        journal: Some(&path),
        ..RunOptions::default()
    };
    assert!(run_campaign_sharded(&spec(), &DefaultResolver, &no_resume).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_a_stale_journal() {
    let dir = tmpdir("stale");
    let path = dir.join("run.jsonl");
    let opts = RunOptions {
        journal: Some(&path),
        ..RunOptions::default()
    };
    run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();
    // Same journal, different seed ⇒ a different campaign.
    let mut reseeded = spec();
    reseeded.seed = 999;
    let opts = RunOptions {
        journal: Some(&path),
        resume: true,
        ..RunOptions::default()
    };
    let err = run_campaign_sharded(&reseeded, &DefaultResolver, &opts).unwrap_err();
    assert!(err.to_string().contains("journal"), "{err}");
    // And merging it against the reseeded spec is rejected too.
    assert!(merge_journals(&reseeded, &DefaultResolver, &[&path]).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any partition of the job records across any number of journals
    /// — balanced, lopsided, even empty journals — merges to the
    /// unsharded artifacts, byte for byte.
    #[test]
    fn merge_of_a_random_partition_equals_the_unsharded_output(
        assignment in proptest::collection::vec(0..4usize, 12..=12),
        n_journals in 1..=4usize,
    ) {
        let cs = spec();
        prop_assert_eq!(cs.n_jobs(), 12);
        let (gold_jsonl, gold_csv) = golden();
        // One full in-memory run supplies the records to scatter.
        let configs = expand(&cs, &DefaultResolver).unwrap();
        let outcome = run_configs_sharded(
            &cs.name, cs.seed, cs.reps, 2, &configs, &RunOptions::default(),
        ).unwrap();
        let dir = tmpdir("prop");
        let header = |index: usize| Header {
            meta: TraceMeta {
                name: cs.name.clone(),
                fingerprint: fingerprint(&cs.name, cs.seed, cs.reps, &configs),
                seed: cs.seed,
                reps: cs.reps,
                total_jobs: cs.n_jobs(),
            },
            shard: Some([index, n_journals]),
        };
        let mut writers = Vec::new();
        let mut paths = Vec::new();
        for j in 0..n_journals {
            let path = dir.join(format!("part-{j}.jsonl"));
            writers.push(JournalWriter::create(&path, &header(j)).unwrap());
            paths.push(path);
        }
        for (&(idx, ref record), &slot) in outcome.records.iter().zip(&assignment) {
            writers[slot % n_journals].append(idx, record).unwrap();
        }
        drop(writers);
        let merged = merge_journals(&cs, &DefaultResolver, &paths).unwrap();
        prop_assert_eq!(sink::jsonl_string(&merged.summaries), gold_jsonl);
        prop_assert_eq!(sink::csv_string(&merged.summaries), gold_csv);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
