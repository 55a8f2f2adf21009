//! Folding traces and metrics sidecars into per-config reports.
//!
//! This is the engine-free half of `ftcg report`: given parsed trace
//! events, sidecar phase lines, and the `(labels, reps)` shape of the
//! campaign grid, it folds everything by configuration (job `j` runs
//! configuration `j / reps`) into a phase-time/event table, and
//! reconciles per-job trace event counts against externally supplied
//! job counters (the journal's, in the CLI).

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};
use crate::hist::DurationHist;
use crate::metrics::JobPhases;
use crate::recorder::Phase;

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
}

/// Folds trace events and sidecar lines into one row per configuration.
///
/// `labels` supplies one display label per configuration; jobs at or
/// beyond `labels.len() * reps` are an error (stale inputs).
pub fn fold_report(
    labels: &[String],
    reps: usize,
    trace_events: &[(usize, usize, Event)],
    metrics_jobs: &[JobPhases],
) -> Result<Vec<ConfigReport>, String> {
    if reps == 0 {
        return Err("reps must be positive".into());
    }
    let mut rows: Vec<ConfigReport> = labels
        .iter()
        .map(|l| ConfigReport {
            label: l.clone(),
            traced_jobs: 0,
            timed_jobs: 0,
            events: [0; EventKind::COUNT],
            phase_ns: [0; Phase::COUNT],
            phase_calls: [0; Phase::COUNT],
        })
        .collect();
    let config_of = |job: usize| -> Result<usize, String> {
        let c = job / reps;
        if c >= labels.len() {
            return Err(format!(
                "job {job} implies configuration {c}, but the spec has only {}",
                labels.len()
            ));
        }
        Ok(c)
    };
    let mut traced_seen: std::collections::BTreeSet<usize> = Default::default();
    for (job, _, ev) in trace_events {
        let c = config_of(*job)?;
        rows[c].events[ev.kind.index()] += 1;
        if traced_seen.insert(*job) {
            rows[c].traced_jobs += 1;
        }
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
    let ev = |r: &ConfigReport, k: EventKind| r.events[k.index()];
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
            ev(r, EventKind::Fault).to_string(),
            ev(r, EventKind::Detect).to_string(),
            (ev(r, EventKind::CorrectForward) + ev(r, EventKind::CorrectTmr)).to_string(),
            ev(r, EventKind::Rollback).to_string(),
            ev(r, EventKind::Escalate).to_string(),
            ev(r, EventKind::Checkpoint).to_string(),
            ev(r, EventKind::Converged).to_string(),
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

    fn trace_of(job: usize) -> Vec<(usize, usize, Event)> {
        let evs = vec![
            Event::job_start(),
            Event::fault(2, crate::event::target::R, 3, 10),
            Event::detect(2, crate::event::via::PRODUCT),
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
        assert!(fold_report(&labels, 2, &trace_of(4), &[]).is_err());
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
