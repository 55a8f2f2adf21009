//! Corruption harness for the three durable logs. Every body byte of a
//! journal, a trace and a metrics sidecar is overwritten in turn with
//! `b ^ 0x20`, `"`, `\n` and `0xFF`: each load returns `Ok` or a typed
//! line-level error — never a panic — and an invalid UTF-8 byte is
//! `Malformed` at the offset of the line holding it. Shard journals and
//! shard traces merge to the same artifacts in every order.

use std::path::{Path, PathBuf};

use ftcg_engine::journal::Shard;
use ftcg_engine::{
    merge_journals, run_campaign, run_campaign_sharded, sink, CampaignSpec, DefaultResolver,
    Journal, RunOptions,
};
use ftcg_telemetry::metrics::MetricsFile;
use ftcg_telemetry::{TelemetryError, Trace};

const SPEC: &str = "name     = corrupt\n\
                    seed     = 3\n\
                    reps     = 2\n\
                    threads  = 1\n\
                    matrices = poisson2d:6\n\
                    schemes  = detection, correction\n\
                    alphas   = 1/8\n";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftcg-corrupt-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Overwrites each body byte of the log at `path` in turn and loads the
/// damaged copy from `scratch`.
fn corrupt_each_body_byte<T>(
    path: &Path,
    scratch: &Path,
    load: impl Fn(&Path) -> Result<T, TelemetryError>,
) {
    let bytes = std::fs::read(path).unwrap();
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    for i in header_len..bytes.len() {
        let line_start = bytes[..i].iter().rposition(|&b| b == b'\n').unwrap() + 1;
        for sub in [bytes[i] ^ 0x20, b'"', b'\n', 0xFF] {
            let mut damaged = bytes.clone();
            damaged[i] = sub;
            std::fs::write(scratch, &damaged).unwrap();
            let at = format!("{}: byte {i} <- {sub:#04x}", path.display());
            // Only the last newline's 0xFF leaves every line valid: it
            // turns the last line into a torn tail.
            let invalid_utf8 = sub == 0xFF && i + 1 < bytes.len();
            match load(scratch) {
                Ok(_) => assert!(!invalid_utf8, "{at}: loaded"),
                Err(TelemetryError::Malformed { offset, .. }) if invalid_utf8 => {
                    assert_eq!(offset, line_start, "{at}")
                }
                Err(
                    TelemetryError::Malformed { .. }
                    | TelemetryError::JobOutOfRange { .. }
                    | TelemetryError::ConflictingDuplicate { .. },
                ) => assert!(!invalid_utf8, "{at}: not Malformed"),
                Err(e) => panic!("{at}: {e:?}"),
            }
        }
    }
}

#[test]
fn every_damaged_byte_is_ok_or_a_typed_line_error() {
    let dir = tmpdir("bytes");
    let (j, t, m) = (
        dir.join("j.jsonl"),
        dir.join("t.jsonl"),
        dir.join("m.jsonl"),
    );
    let opts = RunOptions {
        journal: Some(&j),
        trace: Some(&t),
        metrics: Some(&m),
        ..RunOptions::default()
    };
    let cs = CampaignSpec::parse(SPEC).unwrap();
    run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
    let scratch = dir.join("damaged.jsonl");
    corrupt_each_body_byte(&j, &scratch, Journal::load);
    corrupt_each_body_byte(&t, &scratch, Trace::load);
    corrupt_each_body_byte(&m, &scratch, MetricsFile::load);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_journals_and_traces_merge_identically_in_every_order() {
    let dir = tmpdir("merge");
    let cs = CampaignSpec::parse(SPEC).unwrap();
    let gold = run_campaign(&cs, &DefaultResolver, None).unwrap();
    let gold = (
        sink::jsonl_string(&gold.summaries),
        sink::csv_string(&gold.summaries),
    );
    // Two shards plus a full run that overlaps both.
    let shards = [
        Shard { index: 0, count: 2 },
        Shard { index: 1, count: 2 },
        Shard::FULL,
    ];
    let mut files = Vec::new();
    for (i, shard) in shards.into_iter().enumerate() {
        let (journal, trace) = (
            dir.join(format!("{i}.jsonl")),
            dir.join(format!("{i}.trace")),
        );
        let opts = RunOptions {
            shard,
            journal: Some(&journal),
            trace: Some(&trace),
            ..RunOptions::default()
        };
        run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
        files.push((journal, trace));
    }
    // The full run's trace is canonical on disk.
    let gold_trace = std::fs::read_to_string(&files[2].1).unwrap();
    let orders: [&[usize]; 8] = [
        &[0, 1],
        &[1, 0],
        &[0, 1, 2],
        &[0, 2, 1],
        &[1, 0, 2],
        &[1, 2, 0],
        &[2, 0, 1],
        &[2, 1, 0],
    ];
    for order in orders {
        let traces = order.iter().map(|&i| Trace::load(&files[i].1).unwrap());
        let merged = Trace::merge(traces.collect()).unwrap();
        assert!(merged.canonical_string() == gold_trace, "{order:?}");
        let journals: Vec<&PathBuf> = order.iter().map(|&i| &files[i].0).collect();
        let merged = merge_journals(&cs, &DefaultResolver, &journals).unwrap();
        let got = (
            sink::jsonl_string(&merged.summaries),
            sink::csv_string(&merged.summaries),
        );
        assert_eq!(got, gold, "{order:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
