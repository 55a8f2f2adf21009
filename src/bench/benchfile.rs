//! The schema-versioned `BENCH_*.json` format.
//!
//! A bench file is
//!
//! ```json
//! {"ftcg_bench": 1, "entries": [ <entry>, ... ]}
//! ```
//!
//! and each entry records *one workload on one host*: identity (`id`,
//! `date`, `label`, optional `pr`), the `HostInfo`, the `suite`
//! (since PR 20 a `benchmark/` workload name), the `spec` that sizes
//! the work — two entries are comparable iff their `spec`s are equal —
//! and a flat list of `Measurement`s: `key`, `unit`, the headline
//! `value`, every raw sample (so a later diff can estimate noise), and
//! the direction (`lower_is_better`).
//!
//! Entries are written by [`crate::bench::record`] from the output of
//! `benchmark/run.sh`; the entries of the retired `ftcg bench` suites
//! (`quick`, `kernels`, …, min-of-N headlines) stay loadable history.

use std::path::Path;

use serde::json::{self, Value};

use crate::bench::host::HostInfo;

/// Bench file schema version.
pub(crate) const BENCH_VERSION: u64 = 1;

/// One measured quantity of an entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Measurement {
    /// Stable dotted key, e.g. `campaign.reps_per_sec`.
    pub(crate) key: String,
    /// Unit label, e.g. `reps/s`, `ns/iter`, `s`.
    pub(crate) unit: String,
    /// Headline value: the median of `samples` (one sample per
    /// benchmark run) in recorded entries; the retired suites wrote
    /// their best sample.
    pub(crate) value: f64,
    /// Every raw sample behind `value` (noise estimation in diffs).
    pub(crate) samples: Vec<f64>,
    /// Whether smaller values are better (times) or worse (rates).
    pub(crate) lower_is_better: bool,
}

impl Measurement {
    /// Smallest and largest sample (`(inf, -inf)` without samples).
    fn range(&self) -> (f64, f64) {
        let fold = |init, pick: fn(f64, f64) -> f64| self.samples.iter().copied().fold(init, pick);
        (
            fold(f64::INFINITY, f64::min),
            fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Relative spread of the samples as a percentage of the smallest
    /// one (`0` with fewer than two samples) — the diff's noise floor.
    pub(crate) fn noise_pct(&self) -> f64 {
        let (lo, hi) = self.range();
        if self.samples.len() < 2 || lo <= 0.0 {
            return 0.0;
        }
        (hi / lo - 1.0) * 100.0
    }

    /// Absolute spread of the samples, in `unit` (`0` with fewer than
    /// two) — the noise floor where a percentage has no base.
    pub(crate) fn noise_abs(&self) -> f64 {
        let (lo, hi) = self.range();
        (hi - lo).max(0.0)
    }
}

/// One workload (historically: one suite run) on one host.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BenchEntry {
    /// Stable identity, `"<suite>/<date>"` by convention.
    pub(crate) id: String,
    /// ISO date the entry was recorded.
    pub(crate) date: String,
    /// Free-form label (what changed in this PR).
    pub(crate) label: String,
    /// PR number, when known.
    pub(crate) pr: Option<u64>,
    /// The measuring machine.
    pub(crate) host: HostInfo,
    /// Workload name (`campaign_t1`, `fault_free`, …; historical
    /// entries: `quick`, `table1`, `kernels`, …).
    pub(crate) suite: String,
    /// What sizes the work; equal specs ⇔ comparable entries.
    pub(crate) spec: String,
    /// The measurements, in the producer's order.
    pub(crate) measurements: Vec<Measurement>,
}

impl BenchEntry {
    /// The entry's measurement with the given key.
    pub(crate) fn measurement(&self, key: &str) -> Option<&Measurement> {
        self.measurements.iter().find(|m| m.key == key)
    }
}

/// A loaded (or assembled) bench file.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct BenchFile {
    /// Entries in file order (append-only by convention).
    pub(crate) entries: Vec<BenchEntry>,
}

/// Formats an f64 as a JSON number (finite inputs only).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn render_measurement(m: &Measurement, out: &mut String, indent: &str) {
    out.push_str(indent);
    out.push_str(&format!(
        "{{\"key\":{},\"unit\":{},\"value\":{},\"samples\":[",
        Value::Str(m.key.clone()),
        Value::Str(m.unit.clone()),
        num(m.value)
    ));
    for (i, s) in m.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&num(*s));
    }
    out.push_str(&format!("],\"lower_is_better\":{}}}", m.lower_is_better));
}

fn render_entry(e: &BenchEntry, out: &mut String) {
    out.push_str("    {\n");
    out.push_str(&format!("      \"id\": {},\n", Value::Str(e.id.clone())));
    out.push_str(&format!(
        "      \"date\": {},\n",
        Value::Str(e.date.clone())
    ));
    out.push_str(&format!(
        "      \"label\": {},\n",
        Value::Str(e.label.clone())
    ));
    if let Some(pr) = e.pr {
        out.push_str(&format!("      \"pr\": {pr},\n"));
    }
    out.push_str(&format!("      \"host\": {},\n", e.host.to_json()));
    out.push_str(&format!(
        "      \"suite\": {},\n",
        Value::Str(e.suite.clone())
    ));
    out.push_str(&format!(
        "      \"spec\": {},\n",
        Value::Str(e.spec.clone())
    ));
    out.push_str("      \"measurements\": [\n");
    for (i, m) in e.measurements.iter().enumerate() {
        render_measurement(m, out, "        ");
        out.push_str(if i + 1 < e.measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("      ]\n");
    out.push_str("    }");
}

impl BenchFile {
    /// Renders the whole file (deterministic field order, one
    /// measurement per line — reviewable in diffs).
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"ftcg_bench\": {BENCH_VERSION},\n  \"entries\": [\n"
        ));
        for (i, e) in self.entries.iter().enumerate() {
            render_entry(e, &mut out);
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the file to disk.
    pub(crate) fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Loads a schema-versioned bench file.
    pub(crate) fn load(path: &Path) -> Result<BenchFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let version = v.get("ftcg_bench").and_then(Value::as_f64);
        match version {
            None => Err(format!(
                "{}: not a schema-versioned bench file (missing `ftcg_bench`)",
                path.display()
            )),
            Some(x) if x == BENCH_VERSION as f64 => {
                Self::from_value(&v).map_err(|e| format!("{}: {e}", path.display()))
            }
            Some(x) => Err(format!(
                "{}: bench schema version {x} is not the supported version {BENCH_VERSION}",
                path.display()
            )),
        }
    }

    /// Parses the schema-versioned shape from a JSON value.
    pub(crate) fn from_value(v: &Value) -> Result<BenchFile, String> {
        let mut entries = Vec::new();
        for e in list(v, "entries")? {
            let id = e.get("id").and_then(Value::as_str).unwrap_or("?");
            entries.push(parse_entry(e).map_err(|err| format!("entry `{id}`: {err}"))?);
        }
        Ok(BenchFile { entries })
    }

    /// The latest entry for a suite, if any (`compare`'s baseline).
    pub(crate) fn latest(&self, suite: &str) -> Option<&BenchEntry> {
        self.entries.iter().rev().find(|e| e.suite == suite)
    }
}

/// JSON member access with errors that name the member, shared by
/// this loader and the importer ([`crate::bench::record`]).
pub(crate) fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

pub(crate) fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

pub(crate) fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not a list"))
}

fn parse_entry(v: &Value) -> Result<BenchEntry, String> {
    let s = |key: &str| text(v, key).map(str::to_string);
    let mut measurements = Vec::new();
    for m in list(v, "measurements")? {
        let key = text(m, "key")?.to_string();
        let in_m = |e: String| format!("measurement `{key}`: {e}");
        let number = |x: &Value| {
            x.as_f64()
                .ok_or_else(|| in_m(format!("{x} is not a number")))
        };
        // The direction decides which way the gate fires: a missing or
        // mistyped one must not silently read as "higher is better".
        let Value::Bool(lower_is_better) = *field(m, "lower_is_better").map_err(in_m)? else {
            return Err(in_m("`lower_is_better` must be true or false".into()));
        };
        let samples = list(m, "samples").map_err(in_m)?;
        measurements.push(Measurement {
            unit: text(m, "unit").map_err(in_m)?.to_string(),
            value: number(field(m, "value").map_err(in_m)?)?,
            samples: samples.iter().map(number).collect::<Result<_, _>>()?,
            lower_is_better,
            key,
        });
    }
    Ok(BenchEntry {
        id: s("id")?,
        date: s("date")?,
        label: s("label")?,
        pr: match v.get("pr") {
            None | Some(Value::Null) => None,
            Some(p) => Some(
                p.as_f64()
                    .filter(|p| *p >= 0.0 && p.fract() == 0.0)
                    .ok_or_else(|| format!("`pr` {p} is not a non-negative integer"))?
                    as u64,
            ),
        },
        host: HostInfo::from_value(field(v, "host")?)?,
        suite: s("suite")?,
        spec: s("spec")?,
        measurements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> BenchEntry {
        BenchEntry {
            id: "quick/2026-08-08".into(),
            date: "2026-08-08".into(),
            label: "unit".into(),
            pr: Some(7),
            host: HostInfo {
                cores: 1,
                arch: "x86_64".into(),
                os: "linux".into(),
            },
            suite: "quick".into(),
            spec: "name = bench-quick\nseed = 42\n".into(),
            measurements: vec![Measurement {
                key: "campaign.elapsed_secs".into(),
                unit: "s".into(),
                value: 1.25,
                samples: vec![1.3, 1.25, 1.4],
                lower_is_better: true,
            }],
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let f = BenchFile {
            entries: vec![sample_entry()],
        };
        let text = f.render();
        assert!(text.starts_with("{\n  \"ftcg_bench\": 1"));
        let back = BenchFile::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.latest("quick").unwrap().id, "quick/2026-08-08");
        assert!(back.latest("table1").is_none());
    }

    #[test]
    fn noise_pct_is_sample_spread() {
        let m = sample_entry().measurements[0].clone();
        assert!((m.noise_pct() - 12.0).abs() < 1e-9, "{}", m.noise_pct());
        let single = Measurement {
            samples: vec![5.0],
            ..m
        };
        assert_eq!(single.noise_pct(), 0.0);
    }

    #[test]
    fn missing_or_mistyped_direction_is_a_load_error() {
        let text = BenchFile {
            entries: vec![sample_entry()],
        }
        .render();
        for broken in [
            text.replace(",\"lower_is_better\":true", ""),
            text.replace("\"lower_is_better\":true", "\"lower_is_better\":\"true\""),
        ] {
            assert_ne!(broken, text);
            let e = BenchFile::from_value(&json::parse(&broken).unwrap()).unwrap_err();
            assert!(e.contains("quick/2026-08-08"), "{e}");
            assert!(e.contains("campaign.elapsed_secs"), "{e}");
            assert!(e.contains("lower_is_better"), "{e}");
        }
    }

    #[test]
    fn pr_that_is_not_a_non_negative_integer_is_a_load_error() {
        let text = BenchFile {
            entries: vec![sample_entry()],
        }
        .render();
        for bad in ["-3", "2.5", "\"25\""] {
            let broken = text.replace("\"pr\": 7", &format!("\"pr\": {bad}"));
            assert_ne!(broken, text);
            let e = BenchFile::from_value(&json::parse(&broken).unwrap()).unwrap_err();
            assert!(e.contains("quick/2026-08-08"), "{e}");
            assert!(e.contains("`pr`"), "{e}");
        }
        let null = text.replace("\"pr\": 7", "\"pr\": null");
        let back = BenchFile::from_value(&json::parse(&null).unwrap()).unwrap();
        assert_eq!(back.entries[0].pr, None);
    }

    #[test]
    fn every_checked_in_bench_file_loads() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let names = std::fs::read_dir(root).unwrap();
        let names = names.map(|f| f.unwrap().file_name().into_string().unwrap());
        let bench: Vec<_> = names
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        assert!(bench.len() >= 3, "{bench:?}");
        for name in bench {
            let file = BenchFile::load(&root.join(&name)).unwrap();
            assert!(!file.entries.is_empty(), "{name}");
        }
    }
}
