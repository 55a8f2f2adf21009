//! End-to-end contracts of the observatory — `ftcg report`'s one fold
//! over the trace and the Perfetto export:
//!
//! * the trace-only report of a real campaign equals a checked-in
//!   fixture byte for byte;
//! * the protocol analytics tables are **byte-identical** across every
//!   decomposition of the same campaign — thread count, shard split,
//!   and a kill-and-resume boundary — because they are computed from
//!   the deterministic trace alone;
//! * the Perfetto export of a real campaign is structurally valid
//!   Chrome trace_event JSON: required keys per event phase, and the
//!   duration spans on each track nest properly (a child never leaks
//!   past its parent, siblings never overlap).

use std::path::{Path, PathBuf};

use ftcg::engine::journal::Shard;
use ftcg::engine::{run_campaign_sharded, CampaignSpec, DefaultResolver, RunOptions};
use ftcg::telemetry::metrics::MetricsFile;
use ftcg::telemetry::perfetto::perfetto_json;
use ftcg::telemetry::report::{fold_report, render_analytics, render_report, ConfigReport};
use ftcg::telemetry::Trace;
use serde::json::{self, Value};

/// A small grid that actually exercises the protocol: the nonzero-α
/// configurations inject faults, detect, roll back, and checkpoint.
fn spec() -> CampaignSpec {
    CampaignSpec::parse(
        "name     = obstest\n\
         seed     = 23\n\
         reps     = 3\n\
         threads  = 1\n\
         matrices = poisson2d:10\n\
         schemes  = detection, correction\n\
         alphas   = 0, 1/16\n",
    )
    .expect("spec parses")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ftcg-obstest-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the spec sharded into `dir` and returns the merged trace.
fn traced_run(dir: &Path, threads: usize, shards: usize) -> Trace {
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
    Trace::merge(traces).unwrap()
}

/// The trace folded by configuration, labelled as `ftcg report` labels
/// them without `--spec`.
fn fold(trace: &Trace) -> Vec<ConfigReport> {
    let labels: Vec<String> = (0..spec().n_configs())
        .map(|i| format!("config {i}"))
        .collect();
    fold_report(&labels, spec().reps, &trace.parsed().unwrap(), &[]).unwrap()
}

/// The rendered analytics tables for a merged trace.
fn analytics_text(trace: &Trace) -> String {
    render_analytics(&fold(trace))
}

#[test]
fn trace_only_report_matches_the_fixture() {
    // `tests/fixtures/report_obstest.txt` is the stdout of
    // `ftcg report run.trace.jsonl` for this campaign: no sidecar, no
    // `--spec`, so configurations are labelled `config N`.
    let dir = tmpdir("fixture");
    let rows = fold(&traced_run(&dir, 1, 1));
    let stdout = format!("{}\n{}", render_report(&rows), render_analytics(&rows));
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/report_obstest.txt");
    assert_eq!(stdout, std::fs::read_to_string(fixture).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analytics_are_byte_identical_across_decompositions() {
    let dir = tmpdir("grid");
    let mut golden: Option<String> = None;
    for (threads, shards) in [(1, 1), (4, 1), (2, 2)] {
        let sub = dir.join(format!("t{threads}s{shards}"));
        std::fs::create_dir_all(&sub).unwrap();
        let text = analytics_text(&traced_run(&sub, threads, shards));
        match &golden {
            None => golden = Some(text),
            Some(g) => assert_eq!(&text, g, "analytics differ at {threads}×{shards}"),
        }
    }
    let golden = golden.unwrap();
    // The tables actually carry protocol signal (the α=1/16 configs
    // fault and roll back), not just zeros.
    assert!(golden.contains("Detection latency"), "{golden}");
    assert!(golden.contains("Rollback waste"), "{golden}");
    assert!(golden.contains("Empirical fault pressure"), "{golden}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analytics_survive_a_kill_and_resume_boundary() {
    let dir = tmpdir("resume");
    let gold_dir = dir.join("gold");
    std::fs::create_dir_all(&gold_dir).unwrap();
    let golden = analytics_text(&traced_run(&gold_dir, 1, 1));

    let journal = dir.join("run.jsonl");
    let trace = dir.join("run.trace.jsonl");
    let opts = RunOptions {
        journal: Some(&journal),
        trace: Some(&trace),
        resume: true,
        ..RunOptions::default()
    };
    run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();

    // Simulate a kill after four durable jobs (plus a torn fifth journal
    // record and a torn trace line), exactly as a crash would leave the
    // files, then resume on a different thread count.
    let jtext = std::fs::read_to_string(&journal).unwrap();
    let keep: Vec<&str> = jtext.lines().take(5).collect();
    let torn = &jtext.lines().nth(5).unwrap()[..12];
    std::fs::write(&journal, format!("{}\n{torn}", keep.join("\n"))).unwrap();
    let ttext = std::fs::read_to_string(&trace).unwrap();
    let header = ttext.lines().next().unwrap();
    let (tkeep, rest): (Vec<&str>, Vec<&str>) = ttext
        .lines()
        .skip(1)
        .partition(|l| ftcg::telemetry::trace::parse_event(l).unwrap().0 < 4);
    let ttorn = &rest[0][..7];
    std::fs::write(&trace, format!("{header}\n{}\n{ttorn}", tkeep.join("\n"))).unwrap();

    let mut cs = spec();
    cs.threads = 4;
    run_campaign_sharded(&cs, &DefaultResolver, &opts).unwrap();
    let resumed = Trace::load(&trace).unwrap();
    assert_eq!(analytics_text(&resumed), golden);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pulls a required f64 field out of a trace event.
fn num(ev: &Value, key: &str) -> f64 {
    ev.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("event missing numeric `{key}`: {ev}"))
}

#[test]
fn perfetto_export_is_structurally_valid() {
    let dir = tmpdir("perfetto");
    let trace_path = dir.join("run.trace.jsonl");
    let metrics_path = dir.join("run.metrics.jsonl");
    let opts = RunOptions {
        trace: Some(&trace_path),
        metrics: Some(&metrics_path),
        ..RunOptions::default()
    };
    run_campaign_sharded(&spec(), &DefaultResolver, &opts).unwrap();
    let trace = Trace::load(&trace_path).unwrap();
    let metrics = MetricsFile::load(&metrics_path).unwrap();
    let text = perfetto_json(&trace.meta.name, &trace.parsed().unwrap(), &metrics.jobs);

    let doc = json::parse(&text).expect("perfetto output parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Per-track duration spans, for the nesting check below.
    let mut spans: std::collections::BTreeMap<i64, Vec<(f64, f64, String)>> =
        std::collections::BTreeMap::new();
    let (mut n_meta, mut n_spans, mut n_instants) = (0usize, 0usize, 0usize);
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .expect("every event has a phase");
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .expect("every event has a name")
            .to_string();
        let tid = num(ev, "tid") as i64;
        num(ev, "pid");
        match ph {
            "M" => {
                // Metadata names the process/track; no timestamp.
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata event `{name}`"
                );
                assert!(ev.get("args").and_then(|a| a.get("name")).is_some());
                n_meta += 1;
            }
            "X" => {
                let ts = num(ev, "ts");
                let dur = num(ev, "dur");
                assert!(ts >= 0.0 && dur >= 0.0, "negative span: {ev}");
                spans.entry(tid).or_default().push((ts, ts + dur, name));
                n_spans += 1;
            }
            "i" => {
                assert!(num(ev, "ts") >= 0.0);
                assert_eq!(ev.get("s").and_then(Value::as_str), Some("t"));
                n_instants += 1;
            }
            other => panic!("unexpected event phase `{other}`"),
        }
        match ph {
            "M" => {}
            _ => assert!(tid >= 0),
        }
    }
    assert!(n_meta >= 2, "process + at least one thread metadata");
    assert!(n_spans > 0, "campaign produced no spans");
    assert!(
        n_instants > 0,
        "fault-injecting configs produced no instants"
    );

    // Spans on each track must nest like a call stack: in emission
    // order, every span either fits inside the innermost open span or
    // starts at-or-after its end (a sibling); it never straddles one.
    for (tid, track) in &spans {
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for (start, end, name) in track {
            // A span's interval must be well-formed and monotonic w.r.t.
            // the open ancestors.
            while let Some(&(_, open_end)) = stack.last() {
                if *start >= open_end - 1e-9 {
                    stack.pop(); // the previous span closed before us
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    *start >= open_start - 1e-9 && *end <= open_end + 1e-9,
                    "span `{name}` [{start}, {end}] straddles its parent \
                     [{open_start}, {open_end}] on track {tid}"
                );
            }
            stack.push((*start, *end));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
