//! `ftcg bench` — the store and comparator of `benchmark/`'s output
//! (`ftcg help` has the grammar). It measures nothing: [`record`]
//! imports what `benchmark/run.sh` wrote into the [`benchfile`] format,
//! stamped with the [`host`]; `compare` judges two recordings of the
//! same seeds by the [`paired`] rule. Exit 0 when no end-to-end metric
//! is worse beyond its bound and the failed share did not rise, 1 when
//! one is or it did, 2 on any error.

mod benchfile;
mod host;
mod paired;
mod record;

use std::path::Path;

use benchfile::{BenchEntry, BenchFile};
use paired::{bounded_metrics, judge};
use record::record_results;
use serde::json;

use crate::args::{check_flags, positionals, value};

const USAGE: &str = "usage: \
    ftcg bench record RESULT... --out BENCH_x.json [--label S] [--pr N]\n       \
    ftcg bench compare NEW.json BASE.json";

/// `BENCHMARK.json` of the working directory: the metrics, their
/// directions and bounds.
fn contract() -> Result<String, String> {
    std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
}

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

/// `ftcg bench record RESULT… --out BENCH_x.json [--label S] [--pr N]`.
fn record(args: &[String]) -> Result<bool, String> {
    const VALUE_FLAGS: [&str; 3] = ["--out", "--label", "--pr"];
    check_flags(args, &VALUE_FLAGS, &[])?;
    let paths = positionals(args, &VALUE_FLAGS);
    let (Some(out), false) = (value(args, "--out"), paths.is_empty()) else {
        return Err(USAGE.into());
    };
    let pr = value(args, "--pr").map(|v| v.parse::<u64>().map_err(|_| format!("bad --pr `{v}`")));
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let results = paths.iter().map(|p| Ok((p, read(p)?)));
    let results = results.collect::<Result<Vec<_>, String>>()?;
    let label = value(args, "--label").unwrap_or("");
    let entries = record_results(&contract()?, &results, &today_utc(), label, pr.transpose()?)?;
    let out_path = Path::new(out);
    let mut file = BenchFile::default();
    if out_path.exists() {
        file = BenchFile::load(out_path)?;
    }
    let (added, runs) = (entries.len(), paths.len());
    file.append(entries).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("{out}: +{added} entries ({runs} run(s) each)");
    std::fs::write(out_path, file.render()).map_err(|e| format!("{out}: {e}"))?;
    Ok(false)
}

/// `ftcg bench compare NEW.json BASE.json`. Returns whether the
/// comparison fails: an end-to-end metric worse beyond its bound, or a
/// rising failed share.
fn compare(args: &[String]) -> Result<bool, String> {
    check_flags(args, &[], &[])?;
    let files = positionals(args, &[]);
    let [new_path, base_path] = files.as_slice() else {
        return Err(USAGE.into());
    };
    let in_contract = |e: String| format!("BENCHMARK.json: {e}");
    let contract = json::parse(&contract()?).map_err(|e| in_contract(e.to_string()))?;
    let bounded = bounded_metrics(&contract).map_err(in_contract)?;
    let new_file = BenchFile::load(Path::new(new_path))?;
    let baseline = BenchFile::load(Path::new(base_path))?;
    let last = new_file.entries.last();
    let last = last.ok_or_else(|| format!("{new_path}: no entries"))?;
    // A recording is the entries one `record` stamped alike.
    let same_stamp =
        |e: &&BenchEntry| (&e.date, &e.label, e.pr) == (&last.date, &last.label, last.pr);
    let mut fails = false;
    for new in new_file.entries.iter().filter(same_stamp) {
        let suite = &new.suite;
        let Some(base) = baseline.latest(suite) else {
            eprintln!("warning: {base_path} has no entry for `{suite}`; nothing to compare");
            continue;
        };
        let (report, failed) = judge(new, base, &bounded)?;
        println!("{report}");
        fails |= failed;
    }
    Ok(fails)
}

/// `ftcg bench` entry point.
pub(crate) fn bench(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("compare") => compare(&args[1..]),
        // A stray flag is named; anything else gets the grammar.
        _ => check_flags(args, &[], &[]).and(Err(USAGE.into())),
    };
    match result {
        Ok(false) => 0,
        Ok(true) => {
            eprintln!("error: a bounded metric is worse, or the failed share rose (see above)");
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
