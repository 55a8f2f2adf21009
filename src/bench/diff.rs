//! Noise-aware bench diffing and the regression gate.
//!
//! `ftcg bench compare NEW BASE` compares an entry's measurements to a
//! baseline entry's, key by key. A raw percentage delta is meaningless
//! on a noisy box, so the gate only flags a measurement as regressed
//! when it moved in the *worse* direction by more than
//! `max(threshold, 2 × noise)`, where noise is the larger relative
//! sample spread of the two entries. Single-sample entries have zero
//! recorded noise and fall back to the plain threshold.
//!
//! A baseline at or below zero (a count that was 0, a sub-noise
//! overhead that read negative) has no percentage: its row carries the
//! absolute delta, gated at twice the larger *absolute* sample spread —
//! so a lower-is-better count that leaves 0 is a regression.

use ftcg_telemetry::report::render_table;

use crate::bench::benchfile::BenchEntry;

/// One compared measurement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DiffRow {
    /// Measurement key shared by both entries.
    pub(crate) key: String,
    /// Unit label (taken from the new entry).
    pub(crate) unit: String,
    /// Baseline headline value.
    pub(crate) old_value: f64,
    /// Fresh headline value.
    pub(crate) new_value: f64,
    /// `delta` and `noise` are percentages of a positive baseline
    /// (`true`) or absolute, in `unit` (`false`: baseline ≤ 0).
    pub(crate) relative: bool,
    /// Signed change: `new/old - 1` in percent, or `new - old`.
    pub(crate) delta: f64,
    /// Noise floor used for this row (same scale as `delta`).
    pub(crate) noise: f64,
    /// Moved in the worse direction beyond the gate.
    pub(crate) regressed: bool,
    /// Moved in the better direction beyond the gate.
    pub(crate) improved: bool,
}

/// Compares the fresh entry against a baseline entry.
///
/// Rows appear in the fresh entry's measurement order, one per shared
/// key; keys missing from the baseline are skipped (new measurements
/// are not regressions).
pub(crate) fn diff_entries(new: &BenchEntry, old: &BenchEntry, threshold_pct: f64) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    for m in &new.measurements {
        let Some(base) = old.measurement(&m.key) else {
            continue;
        };
        let relative = base.value > 0.0;
        let (delta, noise, gate) = if relative {
            let noise = m.noise_pct().max(base.noise_pct());
            let delta = (m.value / base.value - 1.0) * 100.0;
            (delta, noise, threshold_pct.max(2.0 * noise))
        } else {
            let noise = m.noise_abs().max(base.noise_abs());
            (m.value - base.value, noise, 2.0 * noise)
        };
        let worse = if m.lower_is_better { delta } else { -delta };
        rows.push(DiffRow {
            key: m.key.clone(),
            unit: m.unit.clone(),
            old_value: base.value,
            new_value: m.value,
            relative,
            delta,
            noise,
            regressed: worse > gate,
            improved: -worse > gate,
        });
    }
    rows
}

/// Whether any row trips the gate.
pub(crate) fn any_regression(rows: &[DiffRow]) -> bool {
    rows.iter().any(|r| r.regressed)
}

/// Renders the diff as an aligned table.
pub(crate) fn render_diff(rows: &[DiffRow], new: &BenchEntry, old: &BenchEntry) -> String {
    let mut out = format!("Bench diff: {} (new) vs {} (baseline)\n\n", new.id, old.id);
    if rows.is_empty() {
        out.push_str("no shared measurement keys\n");
        return out;
    }
    let header = ["measurement", "unit", "baseline", "new", "delta", "verdict"];
    let mut table = vec![header.map(String::from).to_vec()];
    for r in rows {
        let verdict = if r.regressed {
            "REGRESSED".to_string()
        } else if r.improved {
            "improved".to_string()
        } else if r.relative {
            format!("ok (noise {:.1}%)", r.noise)
        } else {
            format!("ok (noise ±{:.4})", r.noise)
        };
        table.push(vec![
            r.key.clone(),
            r.unit.clone(),
            format!("{:.4}", r.old_value),
            format!("{:.4}", r.new_value),
            if r.relative {
                format!("{:+.2}%", r.delta)
            } else {
                format!("{:+.4} abs", r.delta)
            },
            verdict,
        ]);
    }
    out.push_str(&render_table(&table));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::benchfile::Measurement;
    use crate::bench::host::HostInfo;

    fn entry(values: &[(&str, f64, Vec<f64>, bool)]) -> BenchEntry {
        BenchEntry {
            id: "quick/test".into(),
            date: "2026-08-08".into(),
            label: String::new(),
            pr: None,
            host: HostInfo {
                cores: 1,
                arch: "x".into(),
                os: "y".into(),
            },
            suite: "quick".into(),
            spec: String::new(),
            measurements: values
                .iter()
                .map(|(k, v, samples, lower)| Measurement {
                    key: (*k).into(),
                    unit: "u".into(),
                    value: *v,
                    samples: samples.clone(),
                    lower_is_better: *lower,
                })
                .collect(),
        }
    }

    #[test]
    fn self_diff_never_regresses() {
        let e = entry(&[
            ("a.time", 10.0, vec![10.0, 10.4], true),
            ("a.rate", 5.0, vec![5.0, 4.9], false),
        ]);
        let rows = diff_entries(&e, &e, 5.0);
        assert_eq!(rows.len(), 2);
        assert!(!any_regression(&rows));
        assert!(rows.iter().all(|r| r.delta == 0.0));
    }

    #[test]
    fn synthetic_regression_trips_gate_in_the_right_direction() {
        let old = entry(&[
            ("a.time", 10.0, vec![10.0], true),
            ("a.rate", 100.0, vec![100.0], false),
        ]);
        // Time doubled (worse), rate doubled (better).
        let new = entry(&[
            ("a.time", 20.0, vec![20.0], true),
            ("a.rate", 200.0, vec![200.0], false),
        ]);
        let rows = diff_entries(&new, &old, 5.0);
        assert!(rows[0].regressed && !rows[0].improved);
        assert!(rows[1].improved && !rows[1].regressed);
        assert!(any_regression(&rows));
        // Reversed: time halved, rate halved.
        let rows = diff_entries(&old, &new, 5.0);
        assert!(rows[0].improved && rows[1].regressed);
    }

    #[test]
    fn noise_widens_the_gate() {
        // 20% delta, but samples spread 15% -> gate is 30%, no flag.
        let old = entry(&[("a.time", 10.0, vec![10.0, 11.5], true)]);
        let new = entry(&[("a.time", 12.0, vec![12.0, 13.8], true)]);
        let rows = diff_entries(&new, &old, 5.0);
        assert!(!rows[0].regressed, "{rows:?}");
        assert!(rows[0].noise > 14.0);
        // Same delta with tight samples trips the 5% threshold.
        let old = entry(&[("a.time", 10.0, vec![10.0, 10.01], true)]);
        let new = entry(&[("a.time", 12.0, vec![12.0, 12.01], true)]);
        assert!(diff_entries(&new, &old, 5.0)[0].regressed);
    }

    #[test]
    fn zero_and_negative_baselines_keep_their_rows() {
        let old = entry(&[
            ("t.events_dropped", 0.0, vec![0.0], true),
            ("e.journal_overhead_pct", -3.7, vec![-3.7], true),
            ("a.forward_corrections", 0.0, vec![0.0, 0.0], false),
        ]);
        let new = entry(&[
            ("t.events_dropped", 512.0, vec![512.0], true),
            ("e.journal_overhead_pct", 40.0, vec![40.0], true),
            ("a.forward_corrections", 0.0, vec![0.0, 0.0], false),
        ]);
        let rows = diff_entries(&new, &old, 5.0);
        assert!(
            rows.len() == 3 && rows.iter().all(|r| !r.relative),
            "{rows:?}"
        );
        assert!(rows[0].regressed && rows[0].delta == 512.0);
        assert!(rows[1].regressed && (rows[1].delta - 43.7).abs() < 1e-12);
        assert!(!rows[2].regressed && !rows[2].improved);
        assert!(render_diff(&rows, &new, &old).contains("+512.0000 abs"));
        // A sub-noise negative overhead moving inside its own spread
        // is not a verdict.
        let old = entry(&[("e.pct", -1.0, vec![-3.0, -1.0, 2.0], true)]);
        let new = entry(&[("e.pct", 1.5, vec![0.5, 1.5, 4.0], true)]);
        let rows = diff_entries(&new, &old, 5.0);
        assert!(!rows[0].regressed && rows[0].noise == 5.0, "{rows:?}");
    }

    #[test]
    fn missing_keys_are_skipped() {
        let old = entry(&[("a.time", 10.0, vec![10.0], true)]);
        let new = entry(&[("b.time", 10.0, vec![10.0], true)]);
        assert!(diff_entries(&new, &old, 5.0).is_empty());
        let table = render_diff(&[], &new, &old);
        assert!(table.contains("no shared measurement keys"));
    }
}
