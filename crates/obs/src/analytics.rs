//! Protocol analytics derived from the deterministic trace alone.
//!
//! The trace records *iteration-stamped* protocol facts, so three
//! quantities the paper reasons about analytically can be measured
//! empirically without any wall clock — and, because every input is an
//! integer from the canonical trace, the rendered tables are
//! byte-identical across thread counts, shard splits, and kill/resume
//! cycles of the same campaign:
//!
//! * **Detection latency** — iterations between a fault landing and a
//!   detection firing. Faults and detections are paired FIFO within a
//!   job: each detection consumes the earliest still-unmatched fault.
//!   (The paper's model assumes detection at the *end of the chunk*;
//!   the distribution shows how far the implemented detectors are from
//!   that bound — ABFT product checks fire in the same iteration.)
//! * **Rollback waste** — executed iterations discarded per rollback:
//!   the distance from the checkpoint that saved the restored state to
//!   the rollback itself. This is the empirical counterpart of the
//!   model's re-execution term `sC/2 + Trec`.
//! * **Empirical fault pressure** — faults per executed iteration and
//!   its reciprocal, the observed mean iterations between faults
//!   (MTBF in iteration units), per configuration.

use std::collections::BTreeMap;

use ftcg_telemetry::report::render_table;
use ftcg_telemetry::{Event, EventKind};

/// Detection-latency distribution for one configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LatencyStats {
    /// Matched fault→detect pairs.
    pub(crate) count: u64,
    /// Faults never matched by a detection (undetected or masked).
    pub(crate) unmatched_faults: u64,
    /// Minimum latency in iterations.
    pub(crate) min: u64,
    /// Median latency (exact, lower-median of the sorted sample).
    pub(crate) p50: u64,
    /// Maximum latency in iterations.
    pub(crate) max: u64,
    /// Sum of latencies (mean = sum / count).
    pub(crate) sum: u64,
}

/// Rollback waste accounting for one configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WasteStats {
    /// Rollbacks observed (including escalations).
    pub(crate) rollbacks: u64,
    /// Of which escalations to the pristine initial data.
    pub(crate) escalations: u64,
    /// Total executed iterations discarded.
    pub(crate) wasted_iters: u64,
    /// Total executed iterations across the config's finished jobs.
    pub(crate) executed_iters: u64,
}

/// Fault pressure for one configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FaultStats {
    /// Faults injected.
    pub(crate) faults: u64,
    /// Executed iterations across finished jobs.
    pub(crate) executed_iters: u64,
    /// Finished jobs.
    pub(crate) jobs: u64,
}

/// All three analytics for one configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigAnalytics {
    /// Configuration label (from the spec grid).
    pub(crate) label: String,
    /// Detection-latency distribution.
    pub(crate) latency: LatencyStats,
    /// Rollback waste accounting.
    pub(crate) waste: WasteStats,
    /// Empirical fault pressure.
    pub(crate) faults: FaultStats,
}

/// Folds canonical trace events into per-configuration analytics.
/// Jobs map to configurations exactly as in the telemetry report:
/// job `j` runs configuration `j / reps`.
pub fn analyze(
    labels: &[String],
    reps: usize,
    trace_events: &[(usize, usize, Event)],
) -> Result<Vec<ConfigAnalytics>, String> {
    if reps == 0 {
        return Err("reps must be positive".into());
    }
    // Per-job state, keyed by job index (trace events arrive sorted by
    // (job, seq) in canonical form, but per-job maps keep this correct
    // for any order).
    #[derive(Default)]
    struct JobState {
        pending_faults: Vec<u64>, // fault `it`s awaiting a detection
        latencies: Vec<u64>,
        checkpoints: Vec<(u64, u64)>, // (productive saved, executed at commit)
        rollback_waste: u64,
        rollbacks: u64,
        escalations: u64,
        faults: u64,
        finish: Option<Event>,
    }
    let mut jobs: BTreeMap<usize, JobState> = BTreeMap::new();
    for (job, _, ev) in trace_events {
        let s = jobs.entry(*job).or_default();
        match ev.kind {
            EventKind::Fault => {
                s.faults += 1;
                s.pending_faults.push(ev.it);
            }
            // A detection with no pending fault can happen (e.g. a
            // numerical breakdown misread as corruption); it has no
            // latency to attribute.
            EventKind::Detect if !s.pending_faults.is_empty() => {
                let fault_it = s.pending_faults.remove(0);
                s.latencies.push(ev.it.saturating_sub(fault_it));
            }
            EventKind::Checkpoint => s.checkpoints.push((ev.a, ev.it)),
            EventKind::Rollback => {
                s.rollbacks += 1;
                // The waste is measured from the commit point of the
                // checkpoint actually restored (latest with matching
                // productive iteration); checkpoint 0 (initial state,
                // implicit) commits at executed iteration 0.
                let committed_at = s
                    .checkpoints
                    .iter()
                    .rev()
                    .find(|(saved, at)| *saved == ev.a && *at <= ev.it)
                    .map(|(_, at)| *at)
                    .unwrap_or(0);
                s.rollback_waste += ev.it - committed_at;
            }
            EventKind::Escalate => {
                s.rollbacks += 1;
                s.escalations += 1;
                s.rollback_waste += ev.it; // everything since the start
            }
            EventKind::JobFinish => s.finish = Some(*ev),
            _ => {}
        }
    }

    let mut rows: Vec<ConfigAnalytics> = labels
        .iter()
        .map(|l| ConfigAnalytics {
            label: l.clone(),
            ..Default::default()
        })
        .collect();
    // Latencies are pooled per config, then summarized once.
    let mut pooled: Vec<Vec<u64>> = vec![Vec::new(); labels.len()];
    for (job, s) in &jobs {
        let c = job / reps;
        let Some(row) = rows.get_mut(c) else {
            return Err(format!(
                "job {job} implies configuration {c}, but the spec has only {}",
                labels.len()
            ));
        };
        pooled[c].extend_from_slice(&s.latencies);
        row.latency.unmatched_faults += s.pending_faults.len() as u64;
        row.waste.rollbacks += s.rollbacks;
        row.waste.escalations += s.escalations;
        row.waste.wasted_iters += s.rollback_waste;
        row.faults.faults += s.faults;
        if let Some(fin) = s.finish {
            row.waste.executed_iters += fin.it;
            row.faults.executed_iters += fin.it;
            row.faults.jobs += 1;
        }
    }
    for (c, mut lat) in pooled.into_iter().enumerate() {
        lat.sort_unstable();
        let st = &mut rows[c].latency;
        st.count = lat.len() as u64;
        if let (Some(&min), Some(&max)) = (lat.first(), lat.last()) {
            st.min = min;
            st.max = max;
            st.p50 = lat[(lat.len() - 1) / 2];
            st.sum = lat.iter().sum();
        }
    }
    Ok(rows)
}

/// Renders the detection-latency table (iteration units).
pub(crate) fn render_latency(rows: &[ConfigAnalytics]) -> String {
    let mut table: Vec<Vec<String>> = vec![vec![
        "config".into(),
        "pairs".into(),
        "unmatched".into(),
        "min".into(),
        "p50".into(),
        "max".into(),
        "mean".into(),
    ]];
    for r in rows {
        let l = &r.latency;
        let mean = if l.count > 0 {
            format!("{:.2}", l.sum as f64 / l.count as f64)
        } else {
            "-".into()
        };
        let stat = |x: u64| {
            if l.count > 0 {
                x.to_string()
            } else {
                "-".into()
            }
        };
        table.push(vec![
            r.label.clone(),
            l.count.to_string(),
            l.unmatched_faults.to_string(),
            stat(l.min),
            stat(l.p50),
            stat(l.max),
            mean,
        ]);
    }
    let mut out =
        String::from("Detection latency (iterations from fault to detection, FIFO-paired)\n");
    out.push_str(&render_table(&table));
    out
}

/// Renders the rollback wasted-work table (iteration units).
pub(crate) fn render_waste(rows: &[ConfigAnalytics]) -> String {
    let mut table: Vec<Vec<String>> = vec![vec![
        "config".into(),
        "rollbacks".into(),
        "escalations".into(),
        "wasted iters".into(),
        "mean/rollback".into(),
        "% of executed".into(),
    ]];
    for r in rows {
        let w = &r.waste;
        let mean = if w.rollbacks > 0 {
            format!("{:.2}", w.wasted_iters as f64 / w.rollbacks as f64)
        } else {
            "-".into()
        };
        let share = if w.executed_iters > 0 {
            format!(
                "{:.2}",
                100.0 * w.wasted_iters as f64 / w.executed_iters as f64
            )
        } else {
            "-".into()
        };
        table.push(vec![
            r.label.clone(),
            w.rollbacks.to_string(),
            w.escalations.to_string(),
            w.wasted_iters.to_string(),
            mean,
            share,
        ]);
    }
    let mut out = String::from("Rollback waste (executed iterations discarded)\n");
    out.push_str(&render_table(&table));
    out
}

/// Renders the empirical fault-pressure table.
pub(crate) fn render_fault_rate(rows: &[ConfigAnalytics]) -> String {
    let mut table: Vec<Vec<String>> = vec![vec![
        "config".into(),
        "jobs".into(),
        "faults".into(),
        "executed iters".into(),
        "faults/iter".into(),
        "MTBF iters".into(),
    ]];
    for r in rows {
        let f = &r.faults;
        let rate = if f.executed_iters > 0 {
            format!("{:.6}", f.faults as f64 / f.executed_iters as f64)
        } else {
            "-".into()
        };
        let mtbf = if f.faults > 0 {
            format!("{:.1}", f.executed_iters as f64 / f.faults as f64)
        } else {
            "-".into()
        };
        table.push(vec![
            r.label.clone(),
            f.jobs.to_string(),
            f.faults.to_string(),
            f.executed_iters.to_string(),
            rate,
            mtbf,
        ]);
    }
    let mut out = String::from("Empirical fault pressure (from trace, iteration units)\n");
    out.push_str(&render_table(&table));
    out
}

/// All three analytics tables, blank-line separated.
pub fn render_analytics(rows: &[ConfigAnalytics]) -> String {
    format!(
        "{}\n{}\n{}",
        render_latency(rows),
        render_waste(rows),
        render_fault_rate(rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_telemetry::event::{target, via};

    fn seq(job: usize, evs: Vec<Event>) -> Vec<(usize, usize, Event)> {
        evs.into_iter()
            .enumerate()
            .map(|(s, e)| (job, s, e))
            .collect()
    }

    #[test]
    fn latency_pairs_fifo_within_job() {
        // Two faults at it 3 and 5; detections at it 5 and 9 ->
        // latencies 2 and 4.
        let evs = seq(
            0,
            vec![
                Event::job_start(),
                Event::fault(3, target::R, 0, 1),
                Event::fault(5, target::P, 0, 1),
                Event::detect(5, via::PRODUCT),
                Event::detect(9, via::CHUNK),
                Event::job_finish(20, 18, true, 0),
            ],
        );
        let rows = analyze(&["c".into()], 1, &evs).unwrap();
        let l = &rows[0].latency;
        assert_eq!((l.count, l.min, l.p50, l.max, l.sum), (2, 2, 2, 4, 6));
        assert_eq!(l.unmatched_faults, 0);
    }

    #[test]
    fn unmatched_faults_are_counted_not_paired() {
        let evs = seq(
            0,
            vec![
                Event::fault(3, target::X, 0, 1),
                Event::job_finish(10, 10, true, 0),
            ],
        );
        let rows = analyze(&["c".into()], 1, &evs).unwrap();
        assert_eq!(rows[0].latency.count, 0);
        assert_eq!(rows[0].latency.unmatched_faults, 1);
        // A detection with no pending fault contributes nothing.
        let evs = seq(0, vec![Event::detect(4, via::BREAKDOWN)]);
        let rows = analyze(&["c".into()], 1, &evs).unwrap();
        assert_eq!(rows[0].latency.count, 0);
    }

    #[test]
    fn rollback_waste_measures_from_checkpoint_commit() {
        let evs = seq(
            0,
            vec![
                Event::checkpoint(8, 8),   // saved productive 8 at executed 8
                Event::rollback(13, 8),    // waste 13 - 8 = 5
                Event::checkpoint(20, 16), // saved productive 16 at executed 20
                Event::rollback(27, 16),   // waste 27 - 20 = 7
                Event::rollback(30, 0),    // no checkpoint for 0 -> from start: 30
                Event::escalate(35),       // escalation: 35
                Event::job_finish(40, 20, false, 0),
            ],
        );
        let rows = analyze(&["c".into()], 1, &evs).unwrap();
        let w = &rows[0].waste;
        assert_eq!(w.rollbacks, 4);
        assert_eq!(w.escalations, 1);
        assert_eq!(w.wasted_iters, 5 + 7 + 30 + 35);
        assert_eq!(w.executed_iters, 40);
    }

    #[test]
    fn fault_rate_and_grouping_by_config() {
        let mut evs = seq(
            0,
            vec![
                Event::fault(1, target::R, 0, 1),
                Event::fault(2, target::R, 0, 1),
                Event::job_finish(10, 9, true, 0),
            ],
        );
        evs.extend(seq(1, vec![Event::job_finish(10, 10, true, 0)])); // same cfg, reps=2
        evs.extend(seq(2, vec![Event::job_finish(5, 5, true, 0)])); // cfg 1
        let rows = analyze(&["a".into(), "b".into()], 2, &evs).unwrap();
        assert_eq!(rows[0].faults.faults, 2);
        assert_eq!(rows[0].faults.executed_iters, 20);
        assert_eq!(rows[0].faults.jobs, 2);
        assert_eq!(rows[1].faults.faults, 0);
        let rendered = render_analytics(&rows);
        assert!(rendered.contains("Detection latency"));
        assert!(rendered.contains("Rollback waste"));
        assert!(rendered.contains("MTBF"));
        // Out-of-range job is an error, matching fold_report.
        assert!(analyze(&["a".into()], 1, &seq(3, vec![Event::job_start()])).is_err());
    }
}
