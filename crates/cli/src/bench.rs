//! `ftcg bench` — the self-measuring performance observatory.
//!
//! Three modes share one subcommand:
//!
//! * **run** (default): execute one of the standardized suites through
//!   the real pipeline and emit a schema-versioned [`BenchEntry`] —
//!   appended to `--out` (a `BENCH_*.json` file) or printed. With
//!   `--against BASELINE.json` the fresh entry is diffed against the
//!   baseline's latest entry for the same suite, and any regression
//!   beyond the noise-aware gate is a nonzero exit (unless
//!   `--warn-only`, the CI-advisory mode for noisy shared hosts).
//! * **migrate LEGACY.json**: convert a hand-written pre-schema bench
//!   file into schema-versioned entries, so `--against` works across
//!   the repository's whole measurement trajectory.
//! * **compare NEW.json BASELINE.json**: diff two already-recorded
//!   files without running anything — deterministic exit codes for
//!   scripts (self-vs-self is exactly zero delta).

use ftcg::obs::benchfile::{migrate_legacy, BenchEntry, BenchFile};
use ftcg::obs::diff::{any_regression, diff_entries, render_diff};
use ftcg::obs::host::HostInfo;
use ftcg::obs::suites::{
    kernels_suite, run_campaign_suite, solver_step_suite, telemetry_suite, SuiteResult,
};
use ftcg::sim::benchspec::{quick_bench_spec, table1_bench_spec};
use ftcg::sim::matrices::PaperMatrixResolver;

use crate::args::{parse_or, positionals, value};

/// Value-taking flags of the bench grammar (positionals skip these).
const BENCH_VALUE_FLAGS: [&str; 10] = [
    "--suite",
    "--runs",
    "--scale",
    "--reps",
    "--seed",
    "--out",
    "--against",
    "--threshold",
    "--label",
    "--pr",
];

/// Default regression threshold in percent; the effective gate per
/// measurement is `max(threshold, 2 × observed sample spread)`.
const DEFAULT_THRESHOLD_PCT: f64 = 5.0;

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no deps).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
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

/// Runs the named suite(s). `runs` is the min-of-N sample count.
fn run_suites(
    suite: &str,
    runs: usize,
    scale: usize,
    reps: usize,
    seed: u64,
) -> Result<Vec<SuiteResult>, String> {
    let quick = || run_campaign_suite("quick", &quick_bench_spec(seed), &PaperMatrixResolver, runs);
    let table1 = || {
        run_campaign_suite(
            "table1",
            &table1_bench_spec(scale, reps, seed),
            &PaperMatrixResolver,
            runs,
        )
    };
    // Micro-suite parameters are pinned (poisson2d(64), 150
    // iterations) so entries line up across PRs.
    let solver = || solver_step_suite(64, 150, runs.max(5));
    let telemetry = || telemetry_suite(64, 150, runs.max(5));
    let kernels = || kernels_suite(64, runs.max(5));
    match suite {
        "quick" => Ok(vec![quick()?]),
        "table1" => Ok(vec![table1()?]),
        "kernels" => Ok(vec![kernels()?]),
        "solver-step" => Ok(vec![solver()?]),
        "telemetry" => Ok(vec![telemetry()?]),
        "all" => Ok(vec![quick()?, kernels()?, solver()?, telemetry()?]),
        other => Err(format!(
            "unknown suite `{other}` (quick | table1 | kernels | solver-step | telemetry | all)"
        )),
    }
}

/// Diffs `new` against the baseline file's latest entry for the same
/// suite. Returns whether a regression tripped the gate; prints the
/// table either way.
fn gate_against(
    new: &BenchEntry,
    baseline: &BenchFile,
    threshold_pct: f64,
) -> Result<bool, String> {
    let Some(base) = baseline.latest(&new.suite).or_else(|| {
        // Legacy-migrated trajectories file some suites under different
        // names; fall back to any entry sharing measurement keys.
        baseline.entries.iter().rev().find(|e| {
            new.measurements
                .iter()
                .any(|m| e.measurement(&m.key).is_some())
        })
    }) else {
        eprintln!(
            "warning: baseline has no entry comparable to suite `{}`; nothing to gate",
            new.suite
        );
        return Ok(false);
    };
    let rows = diff_entries(new, base, threshold_pct);
    print!("{}", render_diff(&rows, new, base));
    Ok(any_regression(&rows))
}

/// `ftcg bench migrate LEGACY.json [--out F]` (default: in place).
fn migrate(args: &[String]) -> Result<(), String> {
    let files = positionals(args, &BENCH_VALUE_FLAGS);
    let [path] = files.as_slice() else {
        return Err("usage: ftcg bench migrate LEGACY.json [--out F.json]".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let migrated = migrate_legacy(&text)?;
    let out = value(args, "--out").unwrap_or(path);
    migrated.save(std::path::Path::new(out))?;
    eprintln!(
        "migrated {} -> {out} ({} schema-versioned entr{})",
        path,
        migrated.entries.len(),
        if migrated.entries.len() == 1 {
            "y"
        } else {
            "ies"
        }
    );
    Ok(())
}

/// `ftcg bench compare NEW.json BASELINE.json` — deterministic diff of
/// recorded files (no suite execution).
fn compare(args: &[String], warn_only: bool, threshold_pct: f64) -> Result<bool, String> {
    let files = positionals(args, &BENCH_VALUE_FLAGS);
    let [new_path, base_path] = files.as_slice() else {
        return Err("usage: ftcg bench compare NEW.json BASELINE.json [--threshold PCT]".into());
    };
    let new_file = BenchFile::load(std::path::Path::new(new_path))?;
    let baseline = BenchFile::load(std::path::Path::new(base_path))?;
    let new = new_file
        .entries
        .last()
        .ok_or_else(|| format!("{new_path}: no entries"))?;
    let regressed = gate_against(new, &baseline, threshold_pct)?;
    Ok(regressed && !warn_only)
}

/// `ftcg bench` entry point.
pub fn bench(args: &[String]) -> i32 {
    let warn_only = args.iter().any(|a| a == "--warn-only");
    let threshold = parse_or(args, "--threshold", DEFAULT_THRESHOLD_PCT);
    let result = (|| -> Result<bool, String> {
        match args.first().map(String::as_str) {
            Some("migrate") => {
                migrate(&args[1..])?;
                return Ok(false);
            }
            Some("compare") => return compare(&args[1..], warn_only, threshold),
            _ => {}
        }
        // Run mode. Load the baseline *before* the suite so a bad path
        // fails fast, not after minutes of measurement.
        let baseline = match value(args, "--against") {
            Some(p) => Some(BenchFile::load(std::path::Path::new(p))?),
            None => None,
        };
        let suite = value(args, "--suite").unwrap_or("quick");
        let runs: usize = parse_or(args, "--runs", 5);
        let scale: usize = parse_or(args, "--scale", 16);
        let reps: usize = parse_or(args, "--reps", 50);
        let seed: u64 = parse_or(args, "--seed", 1);
        let date = today_utc();
        let host = HostInfo::detect();
        eprintln!(
            "bench suite `{suite}`: {runs} run(s) on {} core(s) ({}, {})",
            host.cores, host.arch, host.os
        );
        let results = run_suites(suite, runs, scale, reps, seed)?;
        let entries: Vec<BenchEntry> = results
            .into_iter()
            .map(|r| BenchEntry {
                id: format!("{}/{date}", r.suite),
                date: date.clone(),
                label: value(args, "--label").unwrap_or("").to_string(),
                pr: value(args, "--pr").and_then(|p| p.parse().ok()),
                host: host.clone(),
                suite: r.suite,
                spec: r.spec,
                measurements: r.measurements,
            })
            .collect();
        // Gate before persisting, so the printed verdict refers to the
        // baseline the user named, never the file we are appending to.
        let mut regressed = false;
        if let Some(base) = &baseline {
            for e in &entries {
                regressed |= gate_against(e, base, threshold)?;
            }
        }
        match value(args, "--out") {
            Some(path) => {
                let p = std::path::Path::new(path);
                let mut file = if p.exists() {
                    BenchFile::load(p)?
                } else {
                    BenchFile::default()
                };
                file.entries.extend(entries);
                file.save(p)?;
                eprintln!("wrote {path} ({} entr{})", file.entries.len(), {
                    if file.entries.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                });
            }
            None => {
                print!("{}", BenchFile { entries }.render());
            }
        }
        Ok(regressed && !warn_only)
    })();
    match result {
        Ok(false) => 0,
        Ok(true) => {
            eprintln!("error: regression beyond the gate (see table above)");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_math() {
        // 2026-08-08 is 20_673 days after the epoch.
        let fmt = |days: u64| {
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
        };
        assert_eq!(fmt(0), "1970-01-01");
        assert_eq!(fmt(19_723), "2024-01-01"); // leap year boundary
        assert_eq!(fmt(20_148), "2025-03-01");
        assert_eq!(fmt(20_673), "2026-08-08");
        // today_utc agrees with the reference implementation above.
        let days = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_secs()
            / 86_400;
        assert_eq!(today_utc(), fmt(days));
    }

    #[test]
    fn unknown_suite_is_an_error() {
        assert!(run_suites("bogus", 1, 16, 1, 1).is_err());
    }
}
