//! The schema-versioned `BENCH_*.json` format: `{"ftcg_bench": 1,
//! "entries": [ <entry>, ... ]}`, each entry *one workload on one host*:
//! identity (`id`, `date`, `label`, optional `pr`), the `HostInfo`, the
//! `suite` (a `benchmark/` workload name), the `spec` that sizes the work
//! — two entries are comparable iff their `spec`s are equal — and a flat
//! list of `Measurement`s: `key`, `unit`, the headline `value`, every raw
//! sample (sample `k` of two recordings of the same seeds is pair `k` of
//! `compare`'s rule), and the direction (`lower_is_better`).
//!
//! [`crate::bench::record`] writes the entries; those of the retired
//! `ftcg bench` suites (`quick`, `kernels`, …, min-of-N headlines) stay
//! loadable history.

use std::path::Path;

use serde::json::{self, Value};

use crate::bench::host::HostInfo;

/// Bench file schema version.
pub(crate) const BENCH_VERSION: u64 = 1;

/// One measured quantity of an entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Measurement {
    /// Stable dotted key, e.g. `campaign.reps_per_sec`.
    pub(crate) key: String,
    /// Unit label, e.g. `reps/s`, `ns/iter`, `s`.
    pub(crate) unit: String,
    /// Headline value: the median of `samples` (one sample per
    /// benchmark run) in recorded entries; the retired suites wrote
    /// their best sample.
    pub(crate) value: f64,
    /// Every raw sample behind `value`, one per run, in run order.
    pub(crate) samples: Vec<f64>,
    /// Whether smaller values are better (times) or worse (rates).
    pub(crate) lower_is_better: bool,
}

/// One workload (historically: one suite run) on one host.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// First quartile, median and third quartile of a non-empty sample,
/// interpolated linearly between order statistics (`NaN`s when empty).
pub(crate) fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let last = s.len().saturating_sub(1);
    [0.25, 0.5, 0.75].map(|q| {
        let pos = q * last as f64;
        let (lo, f) = (pos.floor() as usize, pos.fract());
        // `a·(1 − f) + b·f`, so a median is `(a + b) / 2` to the bit.
        s.get(lo)
            .map_or(f64::NAN, |a| a * (1.0 - f) + s[(lo + 1).min(last)] * f)
    })
}

/// `items` one per line after `indent`, with commas between them.
fn block(items: impl Iterator<Item = String>, indent: &str) -> String {
    let lines: Vec<String> = items.map(|l| format!("{indent}{l}")).collect();
    if lines.is_empty() {
        String::new()
    } else {
        lines.join(",\n") + "\n"
    }
}

/// One measurement as one line of compact JSON.
fn render_measurement(m: &Measurement) -> String {
    let samples = m.samples.iter().map(|&s| Value::Num(s)).collect();
    Value::Obj(vec![
        ("key".into(), Value::Str(m.key.clone())),
        ("unit".into(), Value::Str(m.unit.clone())),
        ("value".into(), Value::Num(m.value)),
        ("samples".into(), Value::Arr(samples)),
        ("lower_is_better".into(), Value::Bool(m.lower_is_better)),
    ])
    .to_string()
}

fn render_entry(e: &BenchEntry) -> String {
    let s = |x: &str| Value::Str(x.to_string());
    let pr =
        e.pr.map_or(String::new(), |pr| format!("      \"pr\": {pr},\n"));
    format!(
        "{{\n      \"id\": {},\n      \"date\": {},\n      \"label\": {},\n{pr}      \
         \"host\": {},\n      \"suite\": {},\n      \"spec\": {},\n      \
         \"measurements\": [\n{}      ]\n    }}",
        s(&e.id),
        s(&e.date),
        s(&e.label),
        e.host.to_json(),
        s(&e.suite),
        s(&e.spec),
        block(e.measurements.iter().map(render_measurement), "        ")
    )
}

impl BenchFile {
    /// Renders the whole file (deterministic field order, one
    /// measurement per line — reviewable in diffs).
    pub(crate) fn render(&self) -> String {
        let entries = block(self.entries.iter().map(render_entry), "    ");
        format!("{{\n  \"ftcg_bench\": {BENCH_VERSION},\n  \"entries\": [\n{entries}  ]\n}}\n")
    }

    /// Loads a schema-versioned bench file.
    pub(crate) fn load(path: &Path) -> Result<BenchFile, String> {
        let here = |e: String| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(path).map_err(|e| here(e.to_string()))?;
        let v = json::parse(&text).map_err(|e| here(e.to_string()))?;
        match v.get("ftcg_bench").and_then(Value::as_f64) {
            None => Err(here(
                "not a schema-versioned bench file (missing `ftcg_bench`)".into(),
            )),
            Some(x) if x == BENCH_VERSION as f64 => Self::from_value(&v).map_err(here),
            Some(x) => Err(here(format!(
                "bench schema version {x} is not the supported version {BENCH_VERSION}"
            ))),
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

    /// Appends one recording's entries. Refused when the file already
    /// holds an entry with their stamp (date, label, PR): `compare` reads
    /// a recording as the entries stamped alike, so the two recordings
    /// would merge into one.
    pub(crate) fn append(&mut self, entries: Vec<BenchEntry>) -> Result<(), String> {
        let stamp = |e: &BenchEntry| (e.date.clone(), e.label.clone(), e.pr);
        if let Some(taken) = entries
            .iter()
            .find(|new| self.entries.iter().any(|old| stamp(old) == stamp(new)))
        {
            let pr = taken.pr.map_or_else(|| "none".into(), |pr| pr.to_string());
            return Err(format!(
                "a recording stamped date {}, label `{}`, PR {pr} is already there: the two \
                 would merge into one; give this one its own --label",
                taken.date, taken.label
            ));
        }
        self.entries.extend(entries);
        Ok(())
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
    let s = field(v, key)?.as_str();
    s.ok_or_else(|| format!("`{key}` is not a string"))
}

pub(crate) fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    let l = field(v, key)?.as_arr();
    l.ok_or_else(|| format!("`{key}` is not a list"))
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
            Some(p) => {
                let pr = p.as_f64().filter(|p| *p >= 0.0 && p.fract() == 0.0);
                Some(pr.ok_or_else(|| format!("`pr` {p} is not a non-negative integer"))? as u64)
            }
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

    fn sample_text() -> String {
        let entries = vec![sample_entry()];
        BenchFile { entries }.render()
    }

    #[test]
    fn render_parse_roundtrip() {
        let text = sample_text();
        assert!(text.starts_with("{\n  \"ftcg_bench\": 1"));
        let back = BenchFile::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.entries, [sample_entry()]);
        assert_eq!(back.latest("quick").unwrap().id, "quick/2026-08-08");
        assert!(back.latest("table1").is_none());
    }

    #[test]
    fn a_taken_stamp_is_refused_and_a_new_label_is_not() {
        let mut file = BenchFile::default();
        file.append(vec![sample_entry()]).unwrap();
        // The same date, label and PR: refused, and the file is unchanged.
        let mut other = sample_entry();
        other.suite = "fault_free".into();
        let err = file.append(vec![other.clone()]).unwrap_err();
        assert!(err.contains("--label") && err.contains("`unit`"), "{err}");
        assert_eq!(file.entries, vec![sample_entry()]);
        // Another label, PR or date is another recording.
        for change in [
            |e: &mut BenchEntry| e.label = "unit, again".into(),
            |e: &mut BenchEntry| e.pr = None,
            |e: &mut BenchEntry| e.date = "2026-08-09".into(),
        ] {
            let mut fresh = other.clone();
            change(&mut fresh);
            file.append(vec![fresh]).unwrap();
        }
        assert_eq!(file.entries.len(), 4);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        // Ten samples: positions 2.25, 4.5 and 6.75 of the sorted list.
        let ten = [7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 3.0, 8.0, 6.0, 5.0];
        assert_eq!(quartiles(&ten), [3.25, 5.5, 7.75]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.5, 2.0, 2.5]);
        assert_eq!(quartiles(&[1.5, 0.5]), [0.75, 1.0, 1.25]);
        // An even count's median is the mean of the middle two, bit for bit.
        assert_eq!(quartiles(&[0.2, 0.1])[1], (0.1 + 0.2) / 2.0);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn missing_or_mistyped_direction_is_a_load_error() {
        let text = sample_text();
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
        let text = sample_text();
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

    #[test]
    fn checked_in_bench_files_parse_as_an_earlier_build_did() {
        // FNV-1a of `json::parse(text).to_string()` per file, captured
        // with the character-at-a-time string parser `json::parse` had
        // before it copied whole runs: decoding must not drift. A file
        // that gains an entry is re-pinned from the printed digest once
        // its parse has been checked.
        const PINS: [(&str, u64); 5] = [
            ("BENCH_2026-07-27.json", 0x03b9_7998_7d9f_8d5f),
            ("BENCH_2026-08-08.json", 0x650e_2020_fe1e_3368),
            ("BENCH_2026-09-28.json", 0x1cf1_3722_9777_96b7),
            ("BENCH_2026-10-02.json", 0x93a0_a5d8_124a_59ed),
            ("BENCH_2026-10-17.json", 0x5f35_24f9_c61e_e6c9),
        ];
        let fnv1a = |s: &str| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        for (name, pin) in PINS {
            let text = std::fs::read_to_string(root.join(name)).unwrap();
            let digest = fnv1a(&json::parse(&text).unwrap().to_string());
            assert_eq!(digest, pin, "{name}: {digest:#018x}");
        }
    }
}
