//! Output sinks: JSONL and CSV renderers for campaign summaries.
//!
//! Both formats are deterministic functions of the summary rows — field
//! order is fixed, floats use Rust's shortest-roundtrip formatting — so
//! re-running a campaign with the same spec and seed produces
//! byte-identical artifacts (the engine's reproducibility contract,
//! asserted by the integration tests).

use std::io::{self, Write};
use std::path::Path;

use serde::Serialize;

use crate::aggregate::ConfigSummary;

/// Writes one JSON object per line.
pub fn write_jsonl<W: Write>(mut w: W, rows: &[ConfigSummary]) -> io::Result<()> {
    for row in rows {
        writeln!(w, "{}", row.to_json())?;
    }
    Ok(())
}

/// Renders the JSONL document to a string.
#[expect(
    clippy::expect_used,
    reason = "io::Write into Vec<u8> is infallible; the expect documents why the io::Result is irrelevant; the bytes were produced by write! of valid UTF-8 in this function; from_utf8 failure is unreachable"
)]
pub fn jsonl_string(rows: &[ConfigSummary]) -> String {
    let mut buf = Vec::new();
    write_jsonl(&mut buf, rows).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("JSON output is UTF-8")
}

/// CSV column order.
const CSV_HEADER: &str = "campaign,matrix,n,scheme,solver,alpha,s,d,kernel,reps,panics,\
mean_time,std_time,min_time,max_time,p50_time,p90_time,\
mean_executed,mean_rollbacks,mean_corrections,mean_faults,\
convergence_rate,max_true_residual";

/// Writes the summary table as CSV with a header row.
pub fn write_csv<W: Write>(mut w: W, rows: &[ConfigSummary]) -> io::Result<()> {
    writeln!(w, "{CSV_HEADER}")?;
    for r in rows {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(&r.campaign),
            csv_field(&r.matrix),
            r.n,
            csv_field(&r.scheme),
            csv_field(&r.solver),
            r.alpha,
            r.s,
            r.d,
            csv_field(&r.kernel),
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
        )?;
    }
    Ok(())
}

/// Renders the CSV document to a string.
#[expect(
    clippy::expect_used,
    reason = "io::Write into Vec<u8> is infallible; the expect documents why the io::Result is irrelevant; the bytes were produced by write! of valid UTF-8 in this function; from_utf8 failure is unreachable"
)]
pub fn csv_string(rows: &[ConfigSummary]) -> String {
    let mut buf = Vec::new();
    write_csv(&mut buf, rows).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
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
            solver: "cg".into(),
            alpha: 0.0625,
            s: 14,
            d: 1,
            kernel: "csr".into(),
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
}
