//! Output sinks: JSONL and CSV renderers for campaign summaries.
//!
//! Both formats are deterministic functions of the summary rows — field
//! order is fixed, floats use Rust's shortest-roundtrip formatting — so
//! re-running a campaign with the same spec and seed produces
//! byte-identical artifacts (the engine's reproducibility contract,
//! asserted by the integration tests).

use std::io;
use std::path::Path;

use serde::json::Value;

use crate::aggregate::{ConfigSummary, SummaryStats};

/// Renders the JSONL document: one JSON object per row, keys in the
/// order of [`ConfigSummary`]'s fields. The `solver` and `kernel`
/// fields are the constants `cg` and `csr`: the one solver and the one
/// product, written so the format stays what earlier builds wrote.
pub fn jsonl_string(rows: &[ConfigSummary]) -> String {
    rows.iter().map(|r| format!("{}\n", row_value(r))).collect()
}

/// One row as a JSON object; `time` and `executed` nest as objects.
fn row_value(r: &ConfigSummary) -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let count = |n: usize| Value::Num(n as f64);
    obj([
        ("campaign", text(&r.campaign)),
        ("matrix", text(&r.matrix)),
        ("n", count(r.n)),
        ("scheme", text(&r.scheme)),
        ("solver", text("cg")),
        ("alpha", Value::Num(r.alpha)),
        ("s", count(r.s)),
        ("d", count(r.d)),
        ("kernel", text("csr")),
        ("reps", count(r.reps)),
        ("panics", count(r.panics)),
        ("time", stats_value(&r.time)),
        ("executed", stats_value(&r.executed)),
        ("mean_rollbacks", Value::Num(r.mean_rollbacks)),
        ("mean_corrections", Value::Num(r.mean_corrections)),
        ("mean_faults", Value::Num(r.mean_faults)),
        ("convergence_rate", Value::Num(r.convergence_rate)),
        ("max_true_residual", Value::Num(r.max_true_residual)),
    ])
}

fn stats_value(s: &SummaryStats) -> Value {
    obj([
        ("mean", Value::Num(s.mean)),
        ("std", Value::Num(s.std)),
        ("min", Value::Num(s.min)),
        ("max", Value::Num(s.max)),
        ("p50", Value::Num(s.p50)),
        ("p90", Value::Num(s.p90)),
    ])
}

fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Obj(pairs.map(|(k, v)| (k.to_string(), v)).into())
}

/// CSV column order.
const CSV_HEADER: &str = "campaign,matrix,n,scheme,solver,alpha,s,d,kernel,reps,panics,\
mean_time,std_time,min_time,max_time,p50_time,p90_time,\
mean_executed,mean_rollbacks,mean_corrections,mean_faults,\
convergence_rate,max_true_residual";

/// Renders the summary table as CSV with a header row; `solver` and
/// `kernel` are the constants [`jsonl_string`] writes.
pub fn csv_string(rows: &[ConfigSummary]) -> String {
    let mut out = format!("{CSV_HEADER}\n");
    for r in rows {
        out += &format!(
            "{},{},{},{},cg,{},{},{},csr,{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            csv_field(&r.campaign),
            csv_field(&r.matrix),
            r.n,
            csv_field(&r.scheme),
            r.alpha,
            r.s,
            r.d,
            r.reps,
            r.panics,
            r.time.mean,
            r.time.std,
            r.time.min,
            r.time.max,
            r.time.p50,
            r.time.p90,
            r.executed.mean,
            r.mean_rollbacks,
            r.mean_corrections,
            r.mean_faults,
            r.convergence_rate,
            r.max_true_residual,
        );
    }
    out
}

/// Saves JSONL to a file.
pub fn save_jsonl<P: AsRef<Path>>(path: P, rows: &[ConfigSummary]) -> io::Result<()> {
    std::fs::write(path, jsonl_string(rows))
}

/// Saves CSV to a file.
pub fn save_csv<P: AsRef<Path>>(path: P, rows: &[ConfigSummary]) -> io::Result<()> {
    std::fs::write(path, csv_string(rows))
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::SummaryStats;

    fn row() -> ConfigSummary {
        ConfigSummary {
            campaign: "c".into(),
            matrix: "poisson2d:8".into(),
            n: 64,
            scheme: "ABFT-CORRECTION".into(),
            alpha: 0.0625,
            s: 14,
            d: 1,
            reps: 4,
            panics: 0,
            time: SummaryStats::from_values(&[10.0, 11.0, 12.0, 13.0]),
            executed: SummaryStats::from_values(&[100.0, 100.0, 101.0, 99.0]),
            mean_rollbacks: 0.5,
            mean_corrections: 1.25,
            mean_faults: 2.0,
            convergence_rate: 1.0,
            max_true_residual: 3e-9,
        }
    }

    #[test]
    fn jsonl_is_parseable_and_ordered() {
        let text = jsonl_string(&[row(), row()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = serde::json::parse(lines[0]).unwrap();
        assert_eq!(v.get("matrix").unwrap().as_str(), Some("poisson2d:8"));
        assert_eq!(v.get("alpha").unwrap().as_f64(), Some(0.0625));
        assert_eq!(
            v.get("time").unwrap().get("mean").unwrap().as_f64(),
            Some(11.5)
        );
        // Deterministic field order: campaign is always the first key.
        assert!(lines[0].starts_with("{\"campaign\":"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let text = csv_string(&[row()]);
        let mut lines = text.lines();
        assert!(lines
            .next()
            .unwrap()
            .starts_with("campaign,matrix,n,scheme"));
        let data = lines.next().unwrap();
        assert!(data.contains("ABFT-CORRECTION"));
        assert_eq!(
            data.split(',').count(),
            CSV_HEADER.split(',').count(),
            "row arity must match header"
        );
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn rendering_is_deterministic() {
        let rows = vec![row()];
        assert_eq!(jsonl_string(&rows), jsonl_string(&rows));
        assert_eq!(csv_string(&rows), csv_string(&rows));
    }

    #[test]
    fn jsonl_line_matches_a_pinned_earlier_build() {
        // Captured from the serde-derive renderer this one replaced:
        // key order, integral floats without `.0`, NaN as `null` and
        // string escapes must not drift.
        let mut r = row();
        r.campaign = "q\"\\ α".into();
        r.max_true_residual = f64::NAN;
        assert_eq!(
            jsonl_string(&[r]),
            concat!(
                r#"{"campaign":"q\"\\ α","matrix":"poisson2d:8","n":64,"scheme":"ABFT-CORRECTION","#,
                r#""solver":"cg","alpha":0.0625,"s":14,"d":1,"kernel":"csr","reps":4,"panics":0,"#,
                r#""time":{"mean":11.5,"std":1.2909944487358056,"min":10,"max":13,"p50":11,"p90":13},"#,
                r#""executed":{"mean":100,"std":0.816496580927726,"min":99,"max":101,"p50":100,"p90":101},"#,
                r#""mean_rollbacks":0.5,"mean_corrections":1.25,"mean_faults":2,"convergence_rate":1,"#,
                r#""max_true_residual":null}"#,
                "\n"
            )
        );
    }
}
