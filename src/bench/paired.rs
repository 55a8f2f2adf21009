//! The verdict of `ftcg bench compare NEW BASE`. Sample `k` of a NEW
//! entry and of the BASE entry of its workload form pair `k`, so entries
//! pair only when they did the same work (`spec`), hold as many samples
//! and ran the seeds `record` stamped alike. Each end-to-end metric is
//! judged with its `better` and `bound` from `BENCHMARK.json`:
//!
//! * `worse` — NEW's median is worse than BASE's by more than the bound;
//! * `unresolved` — BASE's interquartile distance (IQR) is wider than the
//!   bound, unless every NEW sample beats every BASE sample;
//! * `better` — ≥ 10 pairs, NEW better in ≥ 9/10 of them (ties count for
//!   neither side), and the medians more than BASE's IQR apart;
//! * `same` — otherwise.
//!
//! A `worse` verdict or a higher Σ`failed` / Σ`attempted` in NEW fails
//! the comparison. Per-layer metrics print medians and win counts only.

use ftcg_telemetry::report::render_table;
use serde::json::Value;

use crate::bench::benchfile::{field, list, quartiles, text, BenchEntry};
use crate::bench::record::lower_is_better;

/// `BENCHMARK.json`'s end-to-end metrics: `(name, lower_is_better, bound)`.
pub(crate) fn bounded_metrics(contract: &Value) -> Result<Vec<(&str, bool, f64)>, String> {
    let bound = |m| {
        let bound = field(m, "bound")?.as_f64();
        bound.ok_or_else(|| "`bound` is not a number".to_string())
    };
    let metric = |m| Ok((text(m, "name")?, lower_is_better(m)?, bound(m)?));
    list(contract, "end_to_end")?.iter().map(metric).collect()
}

/// Pairs in which NEW is strictly better than BASE.
fn wins(base: &[f64], new: &[f64], lower_is_better: bool) -> usize {
    let better = |(b, n): (&f64, &f64)| if lower_is_better { n < b } else { n > b };
    base.iter().zip(new).filter(|&p| better(p)).count()
}

/// The rule for one bounded metric, one of the four verdicts above;
/// pair `k` is `(base[k], new[k])`.
fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    // Signed so that a positive difference is a worse NEW.
    let worse = |d: f64| if lower_is_better { d } else { -d };
    let [q1, median, q3] = quartiles(base);
    let (gap, iqr) = (worse(quartiles(new)[1] - median), q3 - q1);
    let tolerated = bound * median.abs();
    let separated = new
        .iter()
        .all(|&n| base.iter().all(|&b| worse(n - b) < 0.0));
    let pairs = base.len();
    if gap > tolerated {
        "worse"
    } else if iqr > tolerated && !separated {
        "unresolved"
    } else if pairs >= 10 && 10 * wins(base, new, lower_is_better) >= 9 * pairs && -gap > iqr {
        "better"
    } else {
        "same"
    }
}

/// The seeds `record` stamped at the end of a label.
fn seeds(label: &str) -> &str {
    let stamped = label.rsplit_once("seeds ");
    stamped.map_or("none", |(_, s)| s.trim_end_matches(')'))
}

/// How many pairs two entries form, or why they form none.
fn pair_count(new: &BenchEntry, base: &BenchEntry) -> Result<usize, String> {
    let refuse = |why: String| Err(format!("`{}` does not pair with BASE: {why}", new.id));
    let pairs = new.measurements.first().map_or(0, |m| m.samples.len());
    let mut all = new.measurements.iter().chain(&base.measurements);
    let (seeds, base_seeds) = (seeds(&new.label), seeds(&base.label));
    if new.spec != base.spec {
        let (spec, base_spec) = (&new.spec, &base.spec);
        refuse(format!(
            "they did different work:\n--- NEW\n{spec}--- BASE\n{base_spec}"
        ))
    } else if let Some(m) = all.find(|m| m.samples.len() != pairs) {
        let (key, n) = (&m.key, m.samples.len());
        refuse(format!("`{key}` has {n} samples where NEW has {pairs}"))
    } else if seeds != base_seeds {
        refuse(format!("NEW ran seeds {seeds} but BASE ran {base_seeds}"))
    } else {
        Ok(pairs)
    }
}

/// Σ`failed` and Σ`attempted` over an entry's samples.
fn failed_share(e: &BenchEntry) -> Option<[f64; 2]> {
    let sum = |key| Some(e.measurement(key)?.samples.iter().sum());
    Some([sum("failed")?, sum("attempted")?])
}

/// `x` to about four significant digits.
fn sig4(x: f64) -> String {
    let decimals = (3.0 - x.abs().log10().floor()).clamp(0.0, 6.0);
    format!("{x:.*}", decimals as usize)
}

/// NEW's value against BASE's, in percent.
fn change(base: f64, new: f64) -> String {
    let ratio = if new == base { 1.0 } else { new / base };
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Judges `new` against `base` by `bounded` (see [`bounded_metrics`]):
/// the tables `compare` prints, and whether the comparison fails.
pub(crate) fn judge(
    new: &BenchEntry,
    base: &BenchEntry,
    bounded: &[(&str, bool, f64)],
) -> Result<(String, bool), String> {
    let pairs = pair_count(new, base)?;
    let row = |cells: &str| cells.split('|').map(String::from).collect::<Vec<_>>();
    let head = "metric|unit|BASE|BASE IQR|NEW|change|NEW better|bound|verdict";
    let mut table = vec![row(head)];
    let mut per_pair: Vec<_> = (0..=pairs).map(|k| row(&k.to_string())).collect();
    per_pair[0] = row("pair");
    let mut fails = false;
    let shared = new.measurements.iter();
    for (m, b) in shared.filter_map(|m| Some((m, base.measurement(&m.key)?))) {
        let (samples, base_samples) = (&m.samples, &b.samples);
        let [q1, median, q3] = quartiles(base_samples);
        let new_median = quartiles(samples)[1];
        let won = wins(base_samples, samples, m.lower_is_better);
        let mut cells = vec![m.key.clone(), m.unit.clone(), sig4(median), sig4(q3 - q1)];
        cells.extend([
            sig4(new_median),
            change(median, new_median),
            format!("{won}/{pairs}"),
        ]);
        if let Some(&(_, lower, bound)) = bounded.iter().find(|d| d.0 == m.key) {
            let v = verdict(base_samples, samples, lower, bound);
            fails |= v == "worse";
            cells.extend([format!("{:.0}%", bound * 100.0), v.into()]);
            per_pair[0].push(m.key.clone());
            for (k, (b, n)) in base_samples.iter().zip(samples).enumerate() {
                per_pair[k + 1].push(change(*b, *n));
            }
        }
        table.push(cells);
    }
    let (id, base_id, seeds) = (&new.id, &base.id, seeds(&new.label));
    let mut report = format!("{id} (NEW) against {base_id} (BASE): {pairs} pairs, seeds {seeds}\n");
    report += &render_table(&table);
    let per_pair = render_table(&per_pair);
    report += &format!("\nNEW against BASE in each pair\n{per_pair}");
    if let Some(([nf, na], [bf, ba])) = failed_share(new).zip(failed_share(base)) {
        report += &format!("\nfailed share: BASE {bf}/{ba}, NEW {nf}/{na}\n");
        fails |= nf * ba > bf * na;
    }
    Ok((report, fails))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::benchfile::Measurement;

    /// Ten samples around 100: median 100, quartiles 97.25 and 102.75.
    const BASE: [f64; 10] = [95., 96., 97., 98., 99., 101., 102., 103., 104., 105.];

    fn shifted(by: f64) -> Vec<f64> {
        BASE.iter().map(|b| b + by).collect()
    }

    fn lower(base: &[f64], new: &[f64]) -> &'static str {
        verdict(base, new, true, 0.25)
    }

    #[test]
    fn the_four_verdicts_in_both_directions() {
        let scaled: Vec<f64> = BASE.iter().map(|b| b * 1.3).collect();
        assert_eq!(lower(&BASE, &scaled), "worse");
        assert_eq!(lower(&BASE, &shifted(-10.0)), "better");
        assert_eq!(lower(&BASE, &BASE), "same");
        // 25 % of the median is 25, the same as the bound allows.
        assert_eq!(lower(&BASE, &shifted(25.0)), "same");
        assert_eq!(verdict(&BASE, &scaled, false, 0.25), "better");
        assert_eq!(verdict(&BASE, &shifted(-30.0), false, 0.25), "worse");
        let wide: Vec<f64> = BASE.iter().map(|b| (b - 100.0) * 12.0 + 100.0).collect();
        assert_eq!(lower(&wide, &wide), "unresolved");
        // Fully separated: every NEW sample beats every BASE sample.
        assert_eq!(lower(&wide, &[33.0; 10]), "better");
        assert_eq!(lower(&wide, &[39.5; 10]), "same");
        assert_eq!(lower(&wide, &[40.0; 10]), "unresolved");
    }

    #[test]
    fn ties_count_for_neither_side_and_better_needs_ten_pairs_and_a_gap_past_the_iqr() {
        let mut new = shifted(-10.0);
        new[0] = BASE[0];
        assert_eq!(lower(&BASE, &new), "better");
        new[1] = BASE[1];
        assert_eq!(wins(&BASE, &new, true), 8);
        assert_eq!(lower(&BASE, &new), "same");
        assert_eq!(lower(&BASE[..9], &shifted(-50.0)[..9]), "same");
        // Nine wins, but the medians are 5 apart and BASE's IQR is 5.5.
        let mut new = shifted(-5.0);
        new[9] = BASE[9] + 5.0;
        assert_eq!(wins(&BASE, &new, true), 9);
        assert_eq!(lower(&BASE, &new), "same");
        let mut new = shifted(-6.0);
        new[9] = BASE[9] + 6.0;
        assert_eq!(lower(&BASE, &new), "better");
    }

    fn entry(seeds: &str, samples: &[(&str, Vec<f64>)]) -> BenchEntry {
        let measurements = samples.iter().map(|(key, samples)| Measurement {
            key: key.to_string(),
            samples: samples.clone(),
            lower_is_better: true,
            ..Measurement::default()
        });
        let label = format!("x (commit abc, rustc, seeds {seeds})");
        let (id, measurements) = ("fault_free/2026-10-19".into(), measurements.collect());
        BenchEntry {
            id,
            label,
            measurements,
            ..BenchEntry::default()
        }
    }

    #[test]
    fn a_rising_failed_share_fails_and_unpaired_recordings_are_refused() {
        let bounded = [("setup_s", true, 0.25)];
        let counts = |one_failed: f64| {
            let mut failed = vec![0.0; 10];
            failed[3] = one_failed;
            let m = [("setup_s", BASE.to_vec()), ("attempted", vec![20.0; 10])];
            entry("1,2", &[&m[..], &[("failed", failed)]].concat())
        };
        let (report, fails) = judge(&counts(0.0), &counts(0.0), &bounded).unwrap();
        assert!(!fails && report.contains(" same\n"), "{report}");
        let (report, fails) = judge(&counts(1.0), &counts(0.0), &bounded).unwrap();
        assert!(fails && report.contains("failed share: BASE 0/200, NEW 1/200"));
        assert!(!judge(&counts(0.0), &counts(1.0), &bounded).unwrap().1);

        let ten = entry("1,2", &[("setup_s", BASE.to_vec())]);
        let nine = entry("1,2", &[("setup_s", BASE[..9].to_vec())]);
        let e = judge(&ten, &nine, &bounded).unwrap_err();
        assert!(
            e.contains("`setup_s` has 9 samples where NEW has 10"),
            "{e}"
        );
        let e = judge(&ten, &entry("1,3", &[("setup_s", BASE.to_vec())]), &bounded);
        let e = e.unwrap_err();
        assert!(e.contains("NEW ran seeds 1,2 but BASE ran 1,3"), "{e}");
    }
}
