//! The one producer of `BENCH_*.json` entries: the importer of what
//! `benchmark/run.sh` writes — a full set (`--out F`: `{host, seed,
//! seconds, quick, workloads{W{attempted, failed, end_to_end, per_layer,
//! unbounded, digests}}}`), or the saved stdout of one run (`--workload W
//! --seed N`: `host:` and `run:` lines, then the last line `{correct,
//! attempted, failed, metrics{M{value, unit}}}`).

use serde::json::{self, Value};

use crate::bench::benchfile::{field, list, quartiles, text, BenchEntry, Measurement};
use crate::bench::host::HostInfo;

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

/// A contract metric's direction: `better` is `lower` (`true`) or `higher`.
pub(crate) fn lower_is_better(m: &Value) -> Result<bool, String> {
    match text(m, "better")? {
        "lower" => Ok(true),
        "higher" => Ok(false),
        other => Err(format!("`{}`: `better` is `{other}`", text(m, "name")?)),
    }
}

/// The contract's metrics in its own order, then [`COUNTS`].
fn contract_metrics(contract: &Value) -> Result<Vec<MetricDef<'_>>, String> {
    let mut defs = Vec::new();
    for section in SECTIONS {
        for m in list(contract, section)? {
            defs.push((text(m, "name")?, text(m, "unit")?, lower_is_better(m)?));
        }
    }
    defs.extend(COUNTS);
    Ok(defs)
}

/// The `input` of a full set; a one-run input names its workload.
const FULL_SET: &str = "a full set";

/// What an entry states once, so every input of a recording must share
/// it: the kind of input, the window that sizes the work, the host, the
/// program.
fn provenance(run: &Value) -> Result<[(&'static str, String); 6], String> {
    let host = field(run, "host")?;
    Ok([
        ("input", text(run, "input").unwrap_or(FULL_SET).into()),
        ("seconds", field(run, "seconds")?.to_string()),
        ("quick", field(run, "quick")?.to_string()),
        ("host.nproc", field(host, "nproc")?.to_string()),
        ("host.commit", text(host, "commit")?.to_string()),
        ("host.rustc", text(host, "rustc")?.to_string()),
    ])
}

/// The value of `key=` on the first `prefix` line of a run's stdout
/// that has one; a quoted value runs to its closing quote.
fn tag<'a>(out: &'a str, prefix: &str, key: &str) -> Result<&'a str, String> {
    let pat = format!(" {key}=");
    let mut lines = out.lines().filter_map(|l| l.strip_prefix(prefix));
    let rest = lines.find_map(|l| Some(l.split_once(&pat)?.1));
    let rest = rest.ok_or_else(|| format!("no `{key}=` on a `{prefix}` line"))?;
    let quoted = rest.strip_prefix('"').and_then(|q| q.split('"').next());
    Ok(quoted.unwrap_or_else(|| rest.split_whitespace().next().unwrap_or_default()))
}

/// The saved stdout of one run, as a full set of its one workload.
fn one_run(out: &str) -> Result<Value, String> {
    let result = json::parse(out.lines().last().unwrap_or_default());
    let result = result.map_err(|e| format!("last line: {e}"))?;
    if *field(&result, "correct")? != Value::Bool(true) {
        return Err("the run is not `\"correct\": true`, so it is no sample".into());
    }
    let mut w = vec![(SECTIONS[1].into(), Value::Obj(vec![]))];
    for (count, ..) in COUNTS {
        w.push((count.into(), field(&result, count)?.clone()));
    }
    let printed = members(&result, "metrics")?.iter();
    let printed = printed.map(|(name, m)| Ok((name.clone(), field(m, "value")?.clone())));
    let printed = Value::Obj(printed.collect::<Result<_, String>>()?);
    w.push((SECTIONS[0].into(), printed));
    let tag = |prefix, key| tag(out, prefix, key);
    let raw = |prefix, key| json::parse(tag(prefix, key)?).map_err(|e| format!("`{key}`: {e}"));
    let string = |key| tag("host:", key).map(|t| Value::Str(t.into()));
    let workload = tag("run:", "workload")?;
    let input = format!("one run of `{workload}`, trace={}", tag("run:", "trace")?);
    let host = vec![
        ("nproc".into(), raw("host:", "nproc")?),
        ("commit".into(), string("commit")?),
        ("rustc".into(), string("rustc")?),
    ];
    let workloads = vec![(workload.into(), Value::Obj(w))];
    Ok(Value::Obj(vec![
        ("input".into(), Value::Str(input)),
        ("host".into(), Value::Obj(host)),
        ("seed".into(), raw("host:", "seed")?),
        ("seconds".into(), raw("run:", "seconds")?),
        ("quick".into(), raw("run:", "quick")?),
        ("workloads".into(), Value::Obj(workloads)),
    ]))
}

/// One workload of one input: its values in `defs` order.
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

/// Turns `benchmark/run.sh` output into [`BenchEntry`]s: one per
/// workload with every metric from full sets, one with the metrics the
/// runs printed from one-run stdouts. `contract` is the text of
/// `BENCHMARK.json`, which supplies the workloads and every metric's
/// unit and direction; a workload or metric on one side only is an
/// error naming it, so producer/consumer drift is loud.
///
/// `results` are `(name, text)` pairs, the name only labelling errors.
/// Each — a run of one commit on one host, usually its own seed — is
/// one sample of every measurement, in argument order; the headline is
/// their median. `suite` is the workload and `spec` what sizes its work
/// (`workload`, `seconds`, `quick`); `host.cores` is the input's `nproc`
/// (`arch` and `os` are the recording process's); commit, rustc and the
/// seeds are appended to `label`; the caller stamps the `date`.
pub(crate) fn record_results(
    contract: &str,
    results: &[(impl AsRef<str>, impl AsRef<str>)],
    date: &str,
    label: &str,
    pr: Option<u64>,
) -> Result<Vec<BenchEntry>, String> {
    let in_contract = |e: String| format!("BENCHMARK.json: {e}");
    let contract = json::parse(contract).map_err(|e| in_contract(e.to_string()))?;
    let mut defs = contract_metrics(&contract).map_err(&in_contract)?;
    let names = list(&contract, "workloads").map_err(&in_contract)?;
    let names = names.iter().map(|w| text(w, "name"));
    let mut workloads = names.collect::<Result<Vec<_>, _>>().map_err(in_contract)?;

    let mut runs = Vec::with_capacity(results.len());
    for (name, text) in results {
        let (name, text) = (name.as_ref(), text.as_ref());
        let run = if text.starts_with("host:") {
            one_run(text)
        } else {
            json::parse(text).map_err(|e| e.to_string())
        };
        runs.push((name, run.map_err(|e| format!("{name}: {e}"))?));
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
                "`{what}` is {b} but {first_name} has {a}: one recording is one kind of \
                 input, one window, one host, one commit"
            )));
        }
        seeds.push(field(run, "seed").map_err(here)?.to_string());
        for (w, _) in members(run, "workloads").map_err(here)? {
            if !workloads.contains(&w.as_str()) {
                return Err(here(format!("workload `{w}` is not in BENCHMARK.json")));
            }
        }
    }
    if shared[0].1 != FULL_SET {
        // One run records its workload and the metrics it printed.
        let (w, printed) = &members(first, "workloads")?[0];
        let printed = members(printed, SECTIONS[0])?;
        workloads.retain(|c| c == w);
        defs.retain(|d| COUNTS.contains(d) || printed.iter().any(|(k, _)| k == d.0));
    }
    let [_, (_, seconds), (_, quick), (_, nproc), (_, commit), (_, rustc)] = &shared;
    let cores = nproc.parse();
    let cores =
        cores.map_err(|_| format!("{first_name}: `host.nproc` is {nproc}, not a core count"));
    let host = HostInfo {
        cores: cores?,
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
        let mut measurements = Vec::with_capacity(defs.len());
        for (i, &(key, unit, lower_is_better)) in defs.iter().enumerate() {
            let samples: Vec<f64> = per_run.iter().map(|values| values[i]).collect();
            let (key, unit, value) = (key.into(), unit.into(), quartiles(&samples)[1]);
            measurements.push(Measurement {
                key,
                unit,
                value,
                samples,
                lower_is_better,
            });
        }
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
    use crate::bench::benchfile::BenchFile;
    use crate::bench::paired::{bounded_metrics, judge};

    /// A checked-in file, read-only, relative to the repository root.
    fn checked_in(path: &str) -> String {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
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
            let (report, fails) = judge(e, e, &bounded_metrics(&contract).unwrap()).unwrap();
            assert!(!fails && report.matches(" same\n").count() == 5, "{report}");
        }
        let file = BenchFile { entries };
        let back = BenchFile::from_value(&json::parse(&file.render()).unwrap()).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn drift_between_result_and_contract_names_the_metric() {
        let first = checked_in("benchmark/results/first.json");
        let (setup, extra) = ("\"abft.setup_ms\"", "\"abft.setup_ms\":1,\"abft.bogus\":2,");
        for (with, complaint) in [
            ("", "missing `abft.setup_ms`"),
            (extra, "`abft.bogus` is not named"),
            (
                &format!("{setup}:null,"),
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
        let label = &entries[0].label;
        assert!(label.ends_with("seeds 1,2)"), "{label}");
        let mut all = entries.iter().flat_map(|e| &e.measurements);
        assert!(all.all(|m| m.samples.len() == 2));
        let m = entries[0].measurement("overhead_ratio").unwrap();
        assert_eq!(m.samples, [1.5499523827421142, 2.5]);
        assert_eq!(m.value, (1.5499523827421142 + 2.5) / 2.0);
        // A `--quick` run is not another sample of a 15 s recording.
        let quick = replace_member(&first, "seconds", "\"seconds\":1,");
        let e = import(&[("a.json", &first), ("q.json", &quick)]).unwrap_err();
        let refused = "q.json: `seconds` is 1 but a.json has 15";
        assert!(e.starts_with(refused), "{e}");
    }

    #[test]
    fn one_run_stdout_imports_as_one_entry_of_what_it_printed() {
        let out = checked_in("tests/fixtures/one_run_fault_free_quick.txt");
        let second = out.replace(" seed=1", " seed=2");
        let entries = import(&[("a.txt", &out), ("b.txt", &second)]).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.spec, "workload = fault_free\nseconds = 1\nquick = true\n");
        let stamp = "(commit b05f3c4, rustc 1.95.0 (59807616e 2026-04-14), seeds 1,2)";
        assert!(e.label.ends_with(stamp), "{}", e.label);
        let keys: Vec<_> = e.measurements.iter().map(|m| m.key.as_str()).collect();
        let printed = "setup_s unprotected_solve_ms overhead_ratio slowdown_p50 peak_rss_mb";
        assert_eq!(keys.join(" "), format!("{printed} attempted failed"));
        let setup = e.measurement("setup_s").unwrap();
        assert!(setup.value == 0.003694672 && setup.samples == [0.003694672; 2]);
        for (from, to, complaint) in [
            (
                "\"correct\":true",
                "\"correct\":false",
                "is not `\"correct\": true`",
            ),
            ("\"setup_s\":", "\"bogus_s\":", "`bogus_s` is not named"),
        ] {
            let e = import(&[("r.txt", &out.replace(from, to))]).unwrap_err();
            assert!(e.starts_with("r.txt: ") && e.contains(complaint), "{e}");
        }
        let first = checked_in("benchmark/results/first.json");
        let e = import(&[("a.json", &first), ("b.txt", &out)]).unwrap_err();
        let mixed = "`input` is one run of `fault_free`, trace=0 but a.json has a full set";
        assert!(e.starts_with(&format!("b.txt: {mixed}")), "{e}");
    }
}
