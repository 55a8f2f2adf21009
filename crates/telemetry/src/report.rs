//! Folding traces and metrics sidecars into per-config reports.
//!
//! This is the engine-free half of `ftcg report`: given parsed trace
//! events, sidecar phase lines, and the `(labels, reps)` shape of the
//! campaign grid, it folds everything by configuration (job `j` runs
//! configuration `j / reps`) in one pass over the trace, and reconciles
//! per-job trace event counts against externally supplied job counters
//! (the journal's, in the CLI).
//!
//! Besides event counts and phase times, the trace's iteration stamps
//! measure three quantities the paper reasons about analytically,
//! without any wall clock — so their tables are byte-identical across
//! thread counts, shard splits, and kill/resume cycles of one campaign:
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

use std::collections::{BTreeMap, VecDeque};

use crate::event::{Event, EventKind};
use crate::hist::DurationHist;
use crate::metrics::JobPhases;
use crate::recorder::Phase;
use crate::TelemetryError;

/// The pseudo-path a [`fold_report`] error names: the fold sees parsed
/// events, not the files they came from.
const REPORT: &str = "<report>";

/// Folded telemetry for one configuration of the grid.
#[derive(Debug, Clone)]
pub struct ConfigReport {
    /// Configuration label (from the spec grid, or `config N`).
    pub(crate) label: String,
    /// Jobs of this configuration seen in the trace.
    pub(crate) traced_jobs: usize,
    /// Jobs of this configuration seen in the metrics sidecar.
    pub(crate) timed_jobs: usize,
    /// Summed per-kind event counts, indexed by [`EventKind::index`].
    pub(crate) events: [u64; EventKind::COUNT],
    /// Summed per-phase wall time (ns), indexed by [`Phase::index`].
    pub(crate) phase_ns: [u64; Phase::COUNT],
    /// Summed per-phase call counts, indexed by [`Phase::index`].
    pub(crate) phase_calls: [u64; Phase::COUNT],
    /// Fault-to-detection latencies (iterations), sorted.
    pub(crate) latencies: Vec<u64>,
    /// Executed iterations discarded by rollbacks and escalations.
    pub(crate) wasted_iters: u64,
    /// Executed iterations summed over the finished jobs.
    pub(crate) executed_iters: u64,
}

impl ConfigReport {
    fn count(&self, kind: EventKind) -> u64 {
        self.events[kind.index()]
    }

    /// Rollbacks of any kind: to a checkpoint, or escalated to the
    /// pristine initial data.
    fn rollbacks(&self) -> u64 {
        self.count(EventKind::Rollback) + self.count(EventKind::Escalate)
    }

    /// Faults no detection consumed (undetected or masked): each
    /// latency is one fault paired with one detection.
    fn unmatched_faults(&self) -> u64 {
        self.count(EventKind::Fault) - self.latencies.len() as u64
    }
}

/// Folds trace events and sidecar lines into one row per configuration.
///
/// `labels` supplies one display label per configuration; a job at or
/// beyond `labels.len() * reps` (stale inputs) is
/// [`TelemetryError::JobOutOfRange`].
pub fn fold_report(
    labels: &[String],
    reps: usize,
    trace_events: &[(usize, usize, Event)],
    metrics_jobs: &[JobPhases],
) -> Result<Vec<ConfigReport>, TelemetryError> {
    let mut rows: Vec<ConfigReport> = labels
        .iter()
        .map(|l| ConfigReport {
            label: l.clone(),
            traced_jobs: 0,
            timed_jobs: 0,
            events: [0; EventKind::COUNT],
            phase_ns: [0; Phase::COUNT],
            phase_calls: [0; Phase::COUNT],
            latencies: Vec::new(),
            wasted_iters: 0,
            executed_iters: 0,
        })
        .collect();
    let total = labels.len().saturating_mul(reps);
    let config_of = |job: usize| -> Result<usize, TelemetryError> {
        if job >= total {
            return Err(TelemetryError::JobOutOfRange {
                path: REPORT.into(),
                job,
                total,
            });
        }
        Ok(job / reps)
    };
    // Per-job protocol state, keyed by job index (canonical traces
    // arrive sorted by (job, seq), but per-job state keeps the fold
    // correct for any order).
    #[derive(Default)]
    struct JobState {
        /// Iterations of the faults awaiting a detection.
        pending_faults: VecDeque<u64>,
        /// (productive iteration saved, executed iteration at commit).
        checkpoints: Vec<(u64, u64)>,
    }
    let mut jobs: BTreeMap<usize, JobState> = BTreeMap::new();
    for (job, _, ev) in trace_events {
        let row = &mut rows[config_of(*job)?];
        row.events[ev.kind.index()] += 1;
        let s = jobs.entry(*job).or_insert_with(|| {
            row.traced_jobs += 1;
            JobState::default()
        });
        match ev.kind {
            EventKind::Fault => s.pending_faults.push_back(ev.it),
            // A detection with no pending fault can happen (e.g. a
            // numerical breakdown misread as corruption); it has no
            // latency to attribute.
            EventKind::Detect => {
                if let Some(fault_it) = s.pending_faults.pop_front() {
                    row.latencies.push(ev.it.saturating_sub(fault_it));
                }
            }
            EventKind::Checkpoint => s.checkpoints.push((ev.a, ev.it)),
            EventKind::Rollback => {
                // The waste is measured from the commit point of the
                // checkpoint actually restored (latest with matching
                // productive iteration); checkpoint 0 (initial state,
                // implicit) commits at executed iteration 0.
                let committed_at = s
                    .checkpoints
                    .iter()
                    .rev()
                    .find(|(saved, at)| *saved == ev.a && *at <= ev.it)
                    .map_or(0, |(_, at)| *at);
                row.wasted_iters += ev.it - committed_at;
            }
            EventKind::Escalate => row.wasted_iters += ev.it, // everything since the start
            EventKind::JobFinish => row.executed_iters += ev.it,
            _ => {}
        }
    }
    for row in &mut rows {
        row.latencies.sort_unstable();
    }
    for jp in metrics_jobs {
        let c = config_of(jp.job)?;
        rows[c].timed_jobs += 1;
        for i in 0..Phase::COUNT {
            rows[c].phase_ns[i] += jp.ns[i];
            rows[c].phase_calls[i] += jp.calls[i];
        }
    }
    Ok(rows)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Renders the per-config report as an aligned ASCII table: one event
/// section (faults/detections/corrections/rollbacks/checkpoints) and
/// one phase-time section (ms, with share of total timed phase time).
pub fn render_report(rows: &[ConfigReport]) -> String {
    let mut out = String::new();
    let mut table: Vec<Vec<String>> = vec![vec![
        "config".into(),
        "jobs".into(),
        "faults".into(),
        "detects".into(),
        "corrections".into(),
        "rollbacks".into(),
        "escalations".into(),
        "checkpoints".into(),
        "converged".into(),
    ]];
    for r in rows {
        table.push(vec![
            r.label.clone(),
            r.traced_jobs.to_string(),
            r.count(EventKind::Fault).to_string(),
            r.count(EventKind::Detect).to_string(),
            (r.count(EventKind::CorrectForward) + r.count(EventKind::CorrectTmr)).to_string(),
            r.count(EventKind::Rollback).to_string(),
            r.count(EventKind::Escalate).to_string(),
            r.count(EventKind::Checkpoint).to_string(),
            r.count(EventKind::Converged).to_string(),
        ]);
    }
    out.push_str("Protocol events (from trace)\n");
    out.push_str(&render_table(&table));
    if rows.iter().any(|r| r.timed_jobs > 0) {
        let mut timing: Vec<Vec<String>> = vec![{
            let mut h = vec!["config".into(), "jobs".into()];
            h.extend(Phase::ALL.iter().map(|p| format!("{} ms", p.name())));
            h
        }];
        for r in rows {
            let mut row = vec![r.label.clone(), r.timed_jobs.to_string()];
            row.extend(Phase::ALL.iter().map(|p| fmt_ms(r.phase_ns[p.index()])));
            timing.push(row);
        }
        out.push_str("\nPhase wall time (from metrics sidecar; step includes its products)\n");
        out.push_str(&render_table(&timing));
    }
    out
}

/// Renders the detection-latency table (iteration units).
fn render_latency(rows: &[ConfigReport]) -> String {
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
        let lat = &r.latencies;
        let stat = |x: Option<&u64>| x.map_or_else(|| "-".into(), u64::to_string);
        let mean = if lat.is_empty() {
            "-".into()
        } else {
            format!("{:.2}", lat.iter().sum::<u64>() as f64 / lat.len() as f64)
        };
        table.push(vec![
            r.label.clone(),
            lat.len().to_string(),
            r.unmatched_faults().to_string(),
            stat(lat.first()),
            stat(lat.get(lat.len().saturating_sub(1) / 2)),
            stat(lat.last()),
            mean,
        ]);
    }
    let mut out =
        String::from("Detection latency (iterations from fault to detection, FIFO-paired)\n");
    out.push_str(&render_table(&table));
    out
}

/// Renders the rollback wasted-work table (iteration units).
fn render_waste(rows: &[ConfigReport]) -> String {
    let mut table: Vec<Vec<String>> = vec![vec![
        "config".into(),
        "rollbacks".into(),
        "escalations".into(),
        "wasted iters".into(),
        "mean/rollback".into(),
        "% of executed".into(),
    ]];
    for r in rows {
        let rollbacks = r.rollbacks();
        let mean = if rollbacks > 0 {
            format!("{:.2}", r.wasted_iters as f64 / rollbacks as f64)
        } else {
            "-".into()
        };
        let share = if r.executed_iters > 0 {
            format!(
                "{:.2}",
                100.0 * r.wasted_iters as f64 / r.executed_iters as f64
            )
        } else {
            "-".into()
        };
        table.push(vec![
            r.label.clone(),
            rollbacks.to_string(),
            r.count(EventKind::Escalate).to_string(),
            r.wasted_iters.to_string(),
            mean,
            share,
        ]);
    }
    let mut out = String::from("Rollback waste (executed iterations discarded)\n");
    out.push_str(&render_table(&table));
    out
}

/// Renders the empirical fault-pressure table.
fn render_fault_rate(rows: &[ConfigReport]) -> String {
    let mut table: Vec<Vec<String>> = vec![vec![
        "config".into(),
        "jobs".into(),
        "faults".into(),
        "executed iters".into(),
        "faults/iter".into(),
        "MTBF iters".into(),
    ]];
    for r in rows {
        let (faults, executed) = (r.count(EventKind::Fault), r.executed_iters);
        let rate = if executed > 0 {
            format!("{:.6}", faults as f64 / executed as f64)
        } else {
            "-".into()
        };
        let mtbf = if faults > 0 {
            format!("{:.1}", executed as f64 / faults as f64)
        } else {
            "-".into()
        };
        table.push(vec![
            r.label.clone(),
            r.count(EventKind::JobFinish).to_string(),
            faults.to_string(),
            executed.to_string(),
            rate,
            mtbf,
        ]);
    }
    let mut out = String::from("Empirical fault pressure (from trace, iteration units)\n");
    out.push_str(&render_table(&table));
    out
}

/// Renders the three protocol-analytics tables — detection latency,
/// rollback waste, empirical fault pressure — blank-line separated.
/// Every cell comes from the deterministic trace alone.
pub fn render_analytics(rows: &[ConfigReport]) -> String {
    format!(
        "{}\n{}\n{}",
        render_latency(rows),
        render_waste(rows),
        render_fault_rate(rows)
    )
}

/// Renders the merged per-phase duration quantiles (the sidecar's
/// summary histograms) as an aligned table. Each quantile is an *upper
/// bound* at log2-bucket resolution — a factor of two — which is the
/// precision the allocation-free recorder can afford; phases with no
/// recorded calls are omitted.
pub fn render_phase_quantiles(hists: &[DurationHist; Phase::COUNT]) -> String {
    let mut table: Vec<Vec<String>> = vec![vec![
        "phase".into(),
        "calls".into(),
        "p50 ns".into(),
        "p90 ns".into(),
        "p99 ns".into(),
    ]];
    for p in Phase::ALL {
        let h = &hists[p.index()];
        if h.is_empty() {
            continue;
        }
        let q = |x: f64| {
            h.quantile_upper_ns(x)
                .map_or_else(|| "-".to_string(), |v| v.to_string())
        };
        table.push(vec![
            p.name().to_string(),
            h.count().to_string(),
            q(0.50),
            q(0.90),
            q(0.99),
        ]);
    }
    let mut out =
        String::from("Phase duration quantiles (log2-bucket upper bounds, all timed jobs)\n");
    out.push_str(&render_table(&table));
    out
}

/// Renders rows as an aligned two-space-separated table (first column
/// left-aligned, the rest right-aligned). Shared by every report-style
/// renderer in the workspace so tables look uniform.
pub fn render_table(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut width = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            // Right-align numeric columns, left-align the label column.
            if i == 0 {
                out.push_str(&format!("{cell:<w$}", w = width[i]));
            } else {
                out.push_str(&format!("{cell:>w$}", w = width[i]));
            }
        }
        out.push('\n');
    }
    out
}

/// Externally supplied per-job counters to reconcile a trace against
/// (the journal's `JobMetrics`, in the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCounts {
    /// Faults injected.
    pub faults: u64,
    /// Rollbacks taken.
    pub rollbacks: u64,
    /// Corrections applied (forward + TMR elements).
    pub corrections: u64,
    /// Whether the solve converged.
    pub converged: bool,
}

/// The outcome of reconciling a trace against per-job counters.
#[derive(Debug, Clone, Default)]
pub struct Reconciliation {
    /// Jobs whose trace block and counters agreed.
    pub jobs_ok: usize,
    /// Jobs skipped because their ring overflowed (event counts are
    /// incomplete by construction; `dropped > 0` in `job_finish`).
    pub jobs_skipped: usize,
    /// Human-readable mismatch descriptions (empty means reconciled).
    pub mismatches: Vec<String>,
}

impl Reconciliation {
    /// Whether every checked job reconciled.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Checks, job by job, that the trace's event counts match the
/// externally recorded counters: every counted job must have a
/// complete trace block (`job_start` … `job_finish`) whose fault,
/// rollback, correction, and convergence counts agree.
pub fn reconcile(
    trace_events: &[(usize, usize, Event)],
    journal_counts: &BTreeMap<usize, JobCounts>,
) -> Reconciliation {
    #[derive(Default)]
    struct Tally {
        faults: u64,
        rollbacks: u64,
        corrections: u64,
        converged: u64,
        started: bool,
        finish: Option<Event>,
    }
    let mut per_job: BTreeMap<usize, Tally> = BTreeMap::new();
    for (job, _, ev) in trace_events {
        let t = per_job.entry(*job).or_default();
        match ev.kind {
            EventKind::JobStart => t.started = true,
            EventKind::Fault => t.faults += 1,
            EventKind::Rollback => t.rollbacks += 1,
            EventKind::CorrectForward | EventKind::CorrectTmr => t.corrections += ev.b,
            EventKind::Converged => t.converged += 1,
            EventKind::JobFinish => t.finish = Some(*ev),
            _ => {}
        }
    }
    let mut out = Reconciliation::default();
    for (&job, counts) in journal_counts {
        let Some(t) = per_job.get(&job) else {
            out.mismatches
                .push(format!("job {job}: journal record but no trace events"));
            continue;
        };
        let Some(finish) = t.finish else {
            out.mismatches
                .push(format!("job {job}: trace block has no job_finish"));
            continue;
        };
        if finish.c > 0 {
            out.jobs_skipped += 1; // ring overflow: counts incomplete
            continue;
        }
        let mut bad = Vec::new();
        if !t.started {
            bad.push("missing job_start".to_string());
        }
        if t.faults != counts.faults {
            bad.push(format!("faults {} != journal {}", t.faults, counts.faults));
        }
        if t.rollbacks != counts.rollbacks {
            bad.push(format!(
                "rollbacks {} != journal {}",
                t.rollbacks, counts.rollbacks
            ));
        }
        if t.corrections != counts.corrections {
            bad.push(format!(
                "corrections {} != journal {}",
                t.corrections, counts.corrections
            ));
        }
        if (finish.b == 1) != counts.converged || (t.converged > 0) != counts.converged {
            bad.push(format!(
                "converged {} != journal {}",
                finish.b == 1,
                counts.converged
            ));
        }
        if bad.is_empty() {
            out.jobs_ok += 1;
        } else {
            out.mismatches
                .push(format!("job {job}: {}", bad.join("; ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{target, via};

    fn trace_of(job: usize) -> Vec<(usize, usize, Event)> {
        let evs = vec![
            Event::job_start(),
            Event::fault(2, target::R, 3, 10),
            Event::detect(2, via::PRODUCT),
            Event::rollback(2, 1),
            Event::converged(6, 5),
            Event::job_finish(6, 5, true, 0),
        ];
        evs.into_iter()
            .enumerate()
            .map(|(seq, e)| (job, seq, e))
            .collect()
    }

    #[test]
    fn fold_groups_by_configuration() {
        let labels = vec!["cfg-a".to_string(), "cfg-b".to_string()];
        let mut events = trace_of(0);
        events.extend(trace_of(1)); // cfg-a (reps = 2)
        events.extend(trace_of(2)); // cfg-b
        let metrics = vec![JobPhases {
            job: 2,
            ns: [10; Phase::COUNT],
            calls: [1; Phase::COUNT],
            dropped: 0,
            span: None,
        }];
        let rows = fold_report(&labels, 2, &events, &metrics).unwrap();
        assert_eq!(rows[0].traced_jobs, 2);
        assert_eq!(rows[0].events[EventKind::Fault.index()], 2);
        assert_eq!(rows[1].traced_jobs, 1);
        assert_eq!(rows[1].timed_jobs, 1);
        assert_eq!(rows[1].phase_ns[Phase::Step.index()], 10);
        let rendered = render_report(&rows);
        assert!(rendered.contains("cfg-a"));
        assert!(rendered.contains("Phase wall time"));
        // Out-of-range jobs are an error.
        assert_eq!(
            fold_report(&labels, 2, &trace_of(4), &[]).unwrap_err(),
            TelemetryError::JobOutOfRange {
                path: REPORT.into(),
                job: 4,
                total: 4
            }
        );
    }

    fn seq(job: usize, evs: Vec<Event>) -> Vec<(usize, usize, Event)> {
        evs.into_iter()
            .enumerate()
            .map(|(s, e)| (job, s, e))
            .collect()
    }

    fn fold(labels: &[&str], reps: usize, events: &[(usize, usize, Event)]) -> Vec<ConfigReport> {
        let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        fold_report(&labels, reps, events, &[]).unwrap()
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
        let rows = fold(&["c"], 1, &evs);
        assert_eq!(rows[0].latencies, [2, 4]);
        assert_eq!(rows[0].unmatched_faults(), 0);
        let latency = render_analytics(&rows);
        let row: Vec<&str> = latency.lines().nth(2).unwrap().split_whitespace().collect();
        assert_eq!(row, ["c", "2", "0", "2", "2", "4", "3.00"]);
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
        let rows = fold(&["c"], 1, &evs);
        assert!(rows[0].latencies.is_empty());
        assert_eq!(rows[0].unmatched_faults(), 1);
        // A detection with no pending fault contributes nothing.
        let rows = fold(&["c"], 1, &seq(0, vec![Event::detect(4, via::BREAKDOWN)]));
        assert!(rows[0].latencies.is_empty());
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
        let rows = fold(&["c"], 1, &evs);
        let r = &rows[0];
        assert_eq!(r.rollbacks(), 4);
        assert_eq!(r.count(EventKind::Escalate), 1);
        assert_eq!(r.wasted_iters, 5 + 7 + 30 + 35);
        assert_eq!(r.executed_iters, 40);
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
        let rows = fold(&["a", "b"], 2, &evs);
        assert_eq!(rows[0].count(EventKind::Fault), 2);
        assert_eq!(rows[0].executed_iters, 20);
        assert_eq!(rows[0].count(EventKind::JobFinish), 2);
        assert_eq!(rows[1].count(EventKind::Fault), 0);
        let rendered = render_analytics(&rows);
        assert!(rendered.contains("Detection latency"));
        assert!(rendered.contains("Rollback waste"));
        assert!(rendered.contains("MTBF"));
    }

    #[test]
    fn phase_quantile_table_is_pinned() {
        let mut hists = [DurationHist::new(); Phase::COUNT];
        // 90 fast steps (100 ns → bucket 7, bound 128) and 10 slow ones
        // (100 µs → bucket 17, bound 131072); one 3 ns checkpoint.
        for _ in 0..90 {
            hists[Phase::Step.index()].record(100);
        }
        for _ in 0..10 {
            hists[Phase::Step.index()].record(100_000);
        }
        hists[Phase::Checkpoint.index()].record(3);
        let rendered = render_phase_quantiles(&hists);
        let step_row: Vec<&str> = rendered
            .lines()
            .find(|l| l.starts_with("step"))
            .unwrap()
            .split_whitespace()
            .collect();
        assert_eq!(step_row, ["step", "100", "128", "128", "131072"]);
        assert!(rendered.contains("checkpoint"));
        assert!(
            !rendered.contains("rollback"),
            "empty phases must be omitted"
        );
    }

    #[test]
    fn reconcile_matches_and_flags() {
        let events = trace_of(0);
        let good = JobCounts {
            faults: 1,
            rollbacks: 1,
            corrections: 0,
            converged: true,
        };
        let mut counts = BTreeMap::new();
        counts.insert(0, good);
        let rec = reconcile(&events, &counts);
        assert!(rec.ok(), "{:?}", rec.mismatches);
        assert_eq!(rec.jobs_ok, 1);

        counts.insert(0, JobCounts { faults: 3, ..good });
        assert!(!reconcile(&events, &counts).ok());

        counts.clear();
        counts.insert(7, good);
        let rec = reconcile(&events, &counts);
        assert!(rec.mismatches[0].contains("no trace events"));
    }
}
