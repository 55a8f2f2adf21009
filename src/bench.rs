//! `ftcg bench` — the store and comparator of `benchmark/`'s output
//! (`ftcg help` has the grammar). It measures nothing itself: `record`
//! imports what `bash benchmark/run.sh --out F` wrote, `compare` diffs
//! two recorded files. Exit 0 when nothing regressed beyond the
//! noise-aware gate, 1 on a regression, 2 on any error.
//!
//! The store, which reads no clock and runs no solve:
//!
//! * [`record`] — the importer that turns `benchmark/run.sh --out`
//!   files into entries;
//! * [`benchfile`] — the schema-versioned `BENCH_*.json` format those
//!   entries are stored in;
//! * [`host`] — host identification stamped into every entry;
//! * [`diff`] — noise-aware entry comparison and the regression gate.

mod benchfile;
mod diff;
mod host;
mod record;

use std::path::Path;

use benchfile::{BenchEntry, BenchFile};
use diff::{any_regression, diff_entries, render_diff};
use record::record_results;

use crate::args::{check_flags, parse_strict, positionals, value};

const USAGE: &str = "usage: \
    ftcg bench record RESULT.json... --out BENCH_x.json [--label S] [--pr N]\n       \
    ftcg bench compare NEW.json BASELINE.json [--threshold PCT] [--warn-only]";

/// Default regression threshold in percent; the effective gate per
/// measurement is `max(threshold, 2 × observed sample spread)`.
const DEFAULT_THRESHOLD_PCT: f64 = 5.0;

/// The flags the pre-PR 20 grammar ran suites with, and where their
/// job went.
const REMOVED: [&str; 6] = [
    "--suite",
    "--runs",
    "--against",
    "--scale",
    "--reps",
    "--seed",
];
const SUCCESSOR: &str = "PR 20: run `bash benchmark/run.sh --out F`, then `ftcg bench record F`";

/// Today's UTC date as `YYYY-MM-DD`.
#[expect(clippy::disallowed_methods, reason = "bench entry dates")]
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_date(secs / 86_400)
}

/// The date `days` after 1970-01-01 (civil-from-days, no deps).
fn civil_date(days: u64) -> String {
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `ftcg bench record RESULT.json… --out BENCH_x.json [--label S] [--pr N]`.
fn record(args: &[String]) -> Result<bool, String> {
    const VALUE_FLAGS: [&str; 3] = ["--out", "--label", "--pr"];
    check_flags(args, &VALUE_FLAGS, &[], &REMOVED, SUCCESSOR)?;
    let paths = positionals(args, &VALUE_FLAGS);
    let (Some(out), false) = (value(args, "--out"), paths.is_empty()) else {
        return Err(USAGE.into());
    };
    let pr = value(args, "--pr")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --pr `{v}`")))
        .transpose()?;
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let contract =
        read("BENCHMARK.json").map_err(|e| format!("{e} (run from the repository root)"))?;
    let results = paths
        .iter()
        .map(|p| Ok((p, read(p)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let label = value(args, "--label").unwrap_or("");
    let entries = record_results(&contract, &results, &today_utc(), label, pr)?;
    let out_path = Path::new(out);
    let mut file = if out_path.exists() {
        BenchFile::load(out_path)?
    } else {
        BenchFile::default()
    };
    eprintln!(
        "{out}: +{} entries ({} run(s) each)",
        entries.len(),
        paths.len()
    );
    file.entries.extend(entries);
    file.save(out_path)?;
    Ok(false)
}

/// `ftcg bench compare NEW.json BASELINE.json [--threshold PCT] [--warn-only]`.
/// Returns whether a regression tripped the gate.
fn compare(args: &[String]) -> Result<bool, String> {
    const VALUE_FLAGS: [&str; 1] = ["--threshold"];
    check_flags(args, &VALUE_FLAGS, &["--warn-only"], &REMOVED, SUCCESSOR)?;
    let files = positionals(args, &VALUE_FLAGS);
    let [new_path, base_path] = files.as_slice() else {
        return Err(USAGE.into());
    };
    let threshold = parse_strict(args, "--threshold", DEFAULT_THRESHOLD_PCT)?;
    let new_file = BenchFile::load(Path::new(new_path))?;
    let baseline = BenchFile::load(Path::new(base_path))?;
    let last = new_file
        .entries
        .last()
        .ok_or_else(|| format!("{new_path}: no entries"))?;
    // A recording is the entries one `record` stamped alike.
    let same_stamp =
        |e: &&BenchEntry| (&e.date, &e.label, e.pr) == (&last.date, &last.label, last.pr);
    let mut regressed = false;
    for new in new_file.entries.iter().filter(same_stamp) {
        let Some(base) = baseline.latest(&new.suite) else {
            eprintln!(
                "warning: {base_path} has no entry for `{}`; nothing to compare",
                new.suite
            );
            continue;
        };
        if new.spec != base.spec {
            return Err(format!(
                "`{}` and `{}` did different work and cannot be compared:\n\
                 --- {new_path}\n{}--- {base_path}\n{}",
                new.id, base.id, new.spec, base.spec
            ));
        }
        let rows = diff_entries(new, base, threshold);
        println!("{}", render_diff(&rows, new, base));
        regressed |= any_regression(&rows);
    }
    Ok(regressed && !args.iter().any(|a| a == "--warn-only"))
}

/// `ftcg bench` entry point.
pub(crate) fn bench(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("migrate") => Err(format!("migrate was removed in {SUCCESSOR}")),
        // The old run mode had no mode word: `ftcg bench --suite quick`.
        _ => check_flags(args, &[], &[], &REMOVED, SUCCESSOR).and(Err(USAGE.into())),
    };
    match result {
        Ok(false) => 0,
        Ok(true) => {
            eprintln!("error: regression beyond the gate (see the tables above)");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_math() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(19_723), "2024-01-01"); // leap year boundary
        assert_eq!(civil_date(20_148), "2025-03-01");
        assert_eq!(civil_date(20_673), "2026-08-08");
    }
}
