//! The one producer of `BENCH_*.json` entries: the importer of what
//! `benchmark/run.sh [--seed N] --out F` writes — one input shape,
//! `{host, seed, seconds, quick, workloads{W{attempted, failed,
//! end_to_end, per_layer, unbounded, digests}}}`.

use serde::json::{self, Value};

use crate::benchfile::{field, list, text, BenchEntry, Measurement};
use crate::host::HostInfo;

/// The result sections whose metrics `BENCHMARK.json` names (`unbounded`
/// and `digests` are the benchmark's own business).
const SECTIONS: [&str; 2] = ["end_to_end", "per_layer"];

/// A measurement to record: `(key, unit, lower_is_better)`.
type MetricDef<'a> = (&'a str, &'a str, bool);

/// The counters beside the sections, recorded after their metrics.
const COUNTS: [MetricDef; 2] = [("attempted", "count", false), ("failed", "count", true)];

fn members<'a>(v: &'a Value, key: &str) -> Result<&'a [(String, Value)], String> {
    match field(v, key)? {
        Value::Obj(pairs) => Ok(pairs),
        _ => Err(format!("`{key}` is not an object")),
    }
}

/// The contract's metrics in its own order, then [`COUNTS`].
fn contract_metrics(contract: &Value) -> Result<Vec<MetricDef<'_>>, String> {
    let mut defs = Vec::new();
    for section in SECTIONS {
        for m in list(contract, section)? {
            let name = text(m, "name")?;
            let lower_is_better = match text(m, "better")? {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("`{name}`: `better` is `{other}`")),
            };
            defs.push((name, text(m, "unit")?, lower_is_better));
        }
    }
    defs.extend(COUNTS);
    Ok(defs)
}

/// What an entry states once, so every input of a recording must share
/// it: the window that sizes the work, the host, the program.
fn provenance(run: &Value) -> Result<[(&'static str, String); 5], String> {
    let host = field(run, "host")?;
    Ok([
        ("seconds", field(run, "seconds")?.to_string()),
        ("quick", field(run, "quick")?.to_string()),
        ("host.nproc", field(host, "nproc")?.to_string()),
        ("host.commit", text(host, "commit")?.to_string()),
        ("host.rustc", text(host, "rustc")?.to_string()),
    ])
}

/// One workload of one result file: its values in `defs` order.
fn workload_values(w: &Value, defs: &[MetricDef]) -> Result<Vec<f64>, String> {
    let mut found = Vec::with_capacity(defs.len());
    for (count, ..) in COUNTS {
        found.push((count, field(w, count)?));
    }
    for section in SECTIONS {
        found.extend(members(w, section)?.iter().map(|(k, v)| (k.as_str(), v)));
    }
    if let Some((key, _)) = found.iter().find(|(k, _)| !defs.iter().any(|d| d.0 == *k)) {
        return Err(format!("metric `{key}` is not named in BENCHMARK.json"));
    }
    // `render` has no spelling for NaN or ±inf that `load` reads back
    // (the benchmark writes them as `null`): refuse them by name.
    defs.iter()
        .map(|&(name, ..)| match found.iter().find(|(k, _)| *k == name) {
            Some((_, Value::Num(x))) if x.is_finite() => Ok(*x),
            Some((_, other)) => Err(format!("`{name}` is not a finite number ({other})")),
            None => Err(format!("missing `{name}`")),
        })
        .collect()
}

/// Median of a non-empty sample list (mean of the two middle ones).
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

/// Turns `benchmark/run.sh --out` files into one [`BenchEntry`] per
/// workload of `contract` — the text of `BENCHMARK.json`, which
/// `benchmark/src/suite.rs` checks its own output against. It supplies
/// the workload list and every metric's unit and direction; a workload
/// or metric on one side only is an error naming it, so
/// producer/consumer drift is loud.
///
/// `results` are `(name, text)` pairs, the name only labelling errors.
/// Each — a run of one commit on one host, usually its own seed — is
/// one sample of every measurement, in argument order; the headline is
/// their median, the estimator the benchmark's driver compares. `suite`
/// is the workload name and `spec` what sizes its work (`workload`,
/// `seconds`, `quick`); `host.cores` is the file's `host.nproc` (`arch`
/// and `os` are the recording process's: the file carries neither);
/// commit, rustc and the seeds are appended to `label`, and the caller
/// stamps the `date` — nothing here reads a clock.
pub fn record_results(
    contract: &str,
    results: &[(impl AsRef<str>, impl AsRef<str>)],
    date: &str,
    label: &str,
    pr: Option<u64>,
) -> Result<Vec<BenchEntry>, String> {
    let in_contract = |e: String| format!("BENCHMARK.json: {e}");
    let contract = json::parse(contract).map_err(|e| in_contract(e.to_string()))?;
    let defs = contract_metrics(&contract).map_err(in_contract)?;
    let workloads = list(&contract, "workloads")
        .and_then(|ws| {
            ws.iter()
                .map(|w| text(w, "name"))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(in_contract)?;

    let mut runs = Vec::with_capacity(results.len());
    for (name, text) in results {
        let name = name.as_ref();
        let run = json::parse(text.as_ref()).map_err(|e| format!("{name}: {e}"))?;
        runs.push((name, run));
    }
    let Some((first_name, first)) = runs.first() else {
        return Err("no result file given".into());
    };
    let shared = provenance(first).map_err(|e| format!("{first_name}: {e}"))?;
    let mut seeds = Vec::with_capacity(runs.len());
    for (name, run) in &runs {
        let here = |e: String| format!("{name}: {e}");
        let mine = provenance(run).map_err(here)?;
        if let Some(((what, a), (_, b))) = shared.iter().zip(&mine).find(|(a, b)| a != b) {
            return Err(here(format!(
                "`{what}` is {b} but {first_name} has {a}: one recording is one window \
                 on one host at one commit"
            )));
        }
        seeds.push(field(run, "seed").map_err(here)?.to_string());
        for (w, _) in members(run, "workloads").map_err(here)? {
            if !workloads.contains(&w.as_str()) {
                return Err(here(format!("workload `{w}` is not in BENCHMARK.json")));
            }
        }
    }
    let [(_, seconds), (_, quick), (_, nproc), (_, commit), (_, rustc)] = &shared;
    let host = HostInfo {
        cores: nproc
            .parse()
            .map_err(|_| format!("{first_name}: `host.nproc` is {nproc}, not a core count"))?,
        ..HostInfo::detect()
    };
    let stamp = format!("commit {commit}, {rustc}, seeds {}", seeds.join(","));
    let label = if label.is_empty() {
        stamp
    } else {
        format!("{label} ({stamp})")
    };

    let mut entries = Vec::with_capacity(workloads.len());
    for w in workloads {
        let per_run = runs
            .iter()
            .map(|(name, run)| {
                field(run, "workloads")
                    .and_then(|ws| field(ws, w))
                    .and_then(|v| workload_values(v, &defs))
                    .map_err(|e| format!("{name}: workload `{w}`: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let measurements = defs
            .iter()
            .enumerate()
            .map(|(i, &(key, unit, lower_is_better))| {
                let samples: Vec<f64> = per_run.iter().map(|values| values[i]).collect();
                Measurement {
                    key: key.to_string(),
                    unit: unit.to_string(),
                    value: median(&samples),
                    samples,
                    lower_is_better,
                }
            })
            .collect();
        entries.push(BenchEntry {
            id: format!("{w}/{date}"),
            date: date.to_string(),
            label: label.clone(),
            pr,
            host: host.clone(),
            suite: w.to_string(),
            spec: format!("workload = {w}\nseconds = {seconds}\nquick = {quick}\n"),
            measurements,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchfile::BenchFile;
    use crate::diff::diff_entries;

    /// A checked-in file, read-only, relative to the repository root.
    fn checked_in(path: &str) -> String {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        std::fs::read_to_string(root.join(path)).unwrap()
    }

    /// `text` with its first `"key":value,` member replaced by `with`.
    fn replace_member(text: &str, key: &str, with: &str) -> String {
        let start = text.find(&format!("\"{key}\":")).unwrap();
        let end = start + text[start..].find(',').unwrap() + 1;
        format!("{}{with}{}", &text[..start], &text[end..])
    }

    fn import(results: &[(&str, &str)]) -> Result<Vec<BenchEntry>, String> {
        let contract = checked_in("BENCHMARK.json");
        record_results(&contract, results, "2026-10-02", "PR 11 baseline", Some(11))
    }

    #[test]
    fn first_result_file_imports_per_the_contract() {
        let first = checked_in("benchmark/results/first.json");
        let entries = import(&[("first.json", &first)]).unwrap();
        assert_eq!(entries.len(), 5);
        let contract = json::parse(&checked_in("BENCHMARK.json")).unwrap();
        for e in &entries {
            assert_eq!(e.measurements.len(), 5 + 74 + 2, "{}", e.id);
            assert_eq!(e.host.cores, 2);
            let stamp = "(commit f136394, rustc 1.95.0 (59807616e 2026-04-14), seeds 1)";
            assert_eq!(e.label, format!("PR 11 baseline {stamp}"));
            let sizing = "seconds = 15\nquick = false\n";
            assert_eq!(e.spec, format!("workload = {}\n{sizing}", e.suite));
            let named = SECTIONS.iter().flat_map(|s| list(&contract, s).unwrap());
            for (m, d) in e.measurements.iter().zip(named) {
                assert_eq!(m.key, text(d, "name").unwrap());
                assert_eq!(m.unit, text(d, "unit").unwrap());
                assert_eq!(m.lower_is_better, text(d, "better").unwrap() == "lower");
            }
            let (attempted, failed) = (&e.measurements[79], &e.measurements[80]);
            assert!(attempted.key == "attempted" && attempted.value > 0.0);
            assert!(failed.key == "failed" && failed.unit == "count" && failed.value == 0.0);
            let rows = diff_entries(e, e, 5.0);
            assert!(rows.len() == 81 && rows.iter().all(|r| r.delta == 0.0 && !r.regressed));
        }
        let file = BenchFile { entries };
        let back = BenchFile::from_value(&json::parse(&file.render()).unwrap()).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn drift_between_result_and_contract_names_the_metric() {
        let first = checked_in("benchmark/results/first.json");
        for (with, complaint) in [
            ("", "missing `abft.setup_ms`"),
            (
                "\"abft.setup_ms\":1,\"abft.bogus\":2,",
                "`abft.bogus` is not named",
            ),
            (
                "\"abft.setup_ms\":null,",
                "`abft.setup_ms` is not a finite number",
            ),
        ] {
            let broken = replace_member(&first, "abft.setup_ms", with);
            let e = import(&[("r.json", &broken)]).unwrap_err();
            assert!(e.starts_with("r.json: workload `campaign_t1`: "), "{e}");
            assert!(e.contains(complaint), "{e}");
        }
    }

    #[test]
    fn each_input_is_one_sample_and_the_headline_their_median() {
        let first = checked_in("benchmark/results/first.json");
        let second = replace_member(&first, "seed", "\"seed\":2,");
        let second = replace_member(&second, "overhead_ratio", "\"overhead_ratio\":2.5,");
        let entries = import(&[("a.json", &first), ("b.json", &second)]).unwrap();
        assert!(
            entries[0].label.ends_with("seeds 1,2)"),
            "{}",
            entries[0].label
        );
        let mut all = entries.iter().flat_map(|e| &e.measurements);
        assert!(all.all(|m| m.samples.len() == 2));
        let m = entries[0].measurement("overhead_ratio").unwrap();
        assert_eq!(m.samples, [1.5499523827421142, 2.5]);
        assert_eq!(m.value, (1.5499523827421142 + 2.5) / 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // A `--quick` run is not another sample of a 15 s recording.
        let quick = replace_member(&first, "seconds", "\"seconds\":1,");
        let e = import(&[("a.json", &first), ("q.json", &quick)]).unwrap_err();
        assert!(
            e.starts_with("q.json: `seconds` is 1 but a.json has 15"),
            "{e}"
        );
    }
}
