//! Chrome `trace_event` (Perfetto / `chrome://tracing`) export.
//!
//! Folds the two telemetry artifacts into one timeline file:
//!
//! * the **metrics sidecar** supplies each job's wall-clock span
//!   (`worker`, `start_ns`, `end_ns` relative to campaign start) and
//!   its per-phase time totals, which become an `X` (complete) span
//!   per job on a per-worker track, with phase child spans laid out
//!   inside it;
//! * the **deterministic trace** supplies the protocol instants —
//!   faults, detections, rollbacks, checkpoints, escalations,
//!   convergence — placed *proportionally* inside the job span by
//!   executed-iteration fraction (`it / executed`), since the trace
//!   carries no wall clock by design.
//!
//! Phase totals are aggregates, not per-call intervals, so the child
//! spans are a **time budget visualization**: `step` (with `product`
//! and `product_check` nested inside it) followed by the bookkeeping
//! phases back to back, clamped to the job span. The output is valid
//! Chrome JSON (`{"traceEvents": [...]}`) loadable in Perfetto's UI.
//!
//! Without span records (a pre-span sidecar, or trace-only input) jobs
//! fall back to one synthetic track, laid end to end.

use std::collections::BTreeMap;

use serde::json::Value;

use crate::event::{target, via};
use crate::metrics::JobPhases;
use crate::{Event, EventKind, Phase};

/// Microseconds with nanosecond resolution, the `ts`/`dur` unit of the
/// Chrome trace format.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

fn meta_event(name: &str, pid: u64, tid: u64, value: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
        Value::Str(name.to_string()),
        Value::Str(value.to_string())
    )
}

fn complete_event(name: &str, tid: u64, start_ns: u64, end_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{}{}}}",
        Value::Str(name.to_string()),
        us(start_ns),
        us(end_ns.saturating_sub(start_ns)),
        args
    )
}

fn instant_event(name: &str, tid: u64, ts_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}{}}}",
        Value::Str(name.to_string()),
        us(ts_ns),
        args
    )
}

/// One job's resolved placement on the timeline.
struct Placement {
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Renders the Chrome `trace_event` JSON for a campaign.
///
/// `campaign` names the process track; `trace_events` are canonical
/// `(job, seq, event)` triples; `metrics_jobs` the sidecar's per-job
/// phase lines (possibly empty). Deterministic given its inputs: jobs
/// are emitted in index order, phases in canonical [`Phase`] order.
pub fn perfetto_json(
    campaign: &str,
    trace_events: &[(usize, usize, Event)],
    metrics_jobs: &[JobPhases],
) -> String {
    let by_job: BTreeMap<usize, &JobPhases> = metrics_jobs.iter().map(|jp| (jp.job, jp)).collect();
    // Executed-iteration totals (instant placement denominators).
    let mut executed: BTreeMap<usize, u64> = BTreeMap::new();
    let mut trace_jobs: Vec<usize> = Vec::new();
    for (job, _, ev) in trace_events {
        if ev.kind == EventKind::JobFinish {
            executed.insert(*job, ev.it);
        }
        if trace_jobs.last() != Some(job) {
            trace_jobs.push(*job);
        }
    }

    // Resolve every job's placement. Jobs with a span record go on
    // their worker's track at their recorded offsets; the rest are laid
    // end to end on a synthetic track below the workers.
    let mut all_jobs: Vec<usize> = by_job.keys().copied().collect();
    for j in &trace_jobs {
        if !by_job.contains_key(j) {
            all_jobs.push(*j);
        }
    }
    all_jobs.sort_unstable();
    all_jobs.dedup();

    let fallback_tid = by_job
        .values()
        .filter_map(|jp| jp.span.as_ref())
        .map(|s| s.worker + 1)
        .max()
        .unwrap_or(0);
    let mut placements: BTreeMap<usize, Placement> = BTreeMap::new();
    let mut cursor = 0u64;
    for &job in &all_jobs {
        let jp = by_job.get(&job);
        if let Some(span) = jp.and_then(|jp| jp.span.as_ref()) {
            placements.insert(
                job,
                Placement {
                    tid: span.worker,
                    start_ns: span.start_ns,
                    end_ns: span.end_ns.max(span.start_ns),
                },
            );
        } else {
            // No wall-clock record: budget the job its summed phase
            // time (top-level phases only — step already contains the
            // product phases), or one synthetic microsecond per
            // executed iteration, so the track still reads left to
            // right.
            let budget = |jp: &JobPhases| {
                [
                    Phase::Step,
                    Phase::ChunkVerify,
                    Phase::Checkpoint,
                    Phase::Rollback,
                    Phase::TmrVote,
                ]
                .iter()
                .map(|p| jp.ns[p.index()])
                .sum::<u64>()
            };
            let dur = jp
                .map(|jp| budget(jp))
                .filter(|&d| d > 0)
                .or_else(|| executed.get(&job).map(|&e| e.max(1) * 1000))
                .unwrap_or(1000);
            placements.insert(
                job,
                Placement {
                    tid: fallback_tid,
                    start_ns: cursor,
                    end_ns: cursor + dur,
                },
            );
            cursor += dur;
        }
    }

    let mut events: Vec<String> = Vec::new();
    events.push(meta_event(
        "process_name",
        1,
        0,
        &format!("ftcg campaign {campaign}"),
    ));
    let worker_tids: std::collections::BTreeSet<u64> = by_job
        .values()
        .filter_map(|jp| jp.span.as_ref())
        .map(|s| s.worker)
        .collect();
    let mut tids: Vec<u64> = placements.values().map(|p| p.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let label = if worker_tids.contains(tid) {
            format!("worker {tid}")
        } else {
            "jobs (no span records)".to_string()
        };
        events.push(meta_event("thread_name", 1, *tid, &label));
    }

    for &job in &all_jobs {
        let p = &placements[&job];
        let exec = executed.get(&job).copied().unwrap_or(0);
        events.push(complete_event(
            &format!("job {job}"),
            p.tid,
            p.start_ns,
            p.end_ns,
            &format!(",\"args\":{{\"job\":{job},\"executed_iters\":{exec}}}"),
        ));
        // Phase budget spans inside the job span.
        if let Some(jp) = by_job.get(&job) {
            let clamp = |x: u64| x.min(p.end_ns);
            let t0 = p.start_ns;
            let ns = |ph: Phase| jp.ns[ph.index()];
            let step_end = clamp(t0 + ns(Phase::Step));
            if ns(Phase::Step) > 0 {
                events.push(complete_event("step", p.tid, t0, step_end, ""));
                let prod_end = (t0 + ns(Phase::Product)).min(step_end);
                if ns(Phase::Product) > 0 {
                    events.push(complete_event("product", p.tid, t0, prod_end, ""));
                }
                if ns(Phase::ProductCheck) > 0 {
                    let pc_end = (prod_end + ns(Phase::ProductCheck)).min(step_end);
                    events.push(complete_event("product_check", p.tid, prod_end, pc_end, ""));
                }
            }
            let mut cur = step_end;
            for ph in [
                Phase::ChunkVerify,
                Phase::Checkpoint,
                Phase::Rollback,
                Phase::TmrVote,
            ] {
                if ns(ph) == 0 {
                    continue;
                }
                let end = clamp(cur + ns(ph));
                if end > cur {
                    events.push(complete_event(ph.name(), p.tid, cur, end, ""));
                }
                cur = end;
            }
        }
    }

    // Protocol instants, placed proportionally by iteration fraction.
    for (job, _, ev) in trace_events {
        let Some(p) = placements.get(job) else {
            continue;
        };
        let args = match ev.kind {
            EventKind::Fault => format!(
                ",\"args\":{{\"it\":{},\"target\":{},\"bit\":{}}}",
                ev.it,
                Value::Str(target::name(ev.a).to_string()),
                ev.c
            ),
            EventKind::Detect => format!(
                ",\"args\":{{\"it\":{},\"via\":{}}}",
                ev.it,
                Value::Str(via::name(ev.a).to_string())
            ),
            EventKind::Checkpoint | EventKind::Converged => {
                format!(",\"args\":{{\"it\":{},\"at\":{}}}", ev.it, ev.a)
            }
            EventKind::Rollback => format!(",\"args\":{{\"it\":{},\"to\":{}}}", ev.it, ev.a),
            EventKind::Escalate => format!(",\"args\":{{\"it\":{}}}", ev.it),
            _ => continue, // job_start/finish/corrections: covered by the span
        };
        let exec = executed.get(job).copied().unwrap_or(0);
        let frac_ns = if exec > 0 {
            let dur = p.end_ns - p.start_ns;
            (dur as f64 * (ev.it.min(exec) as f64 / exec as f64)) as u64
        } else {
            0
        };
        events.push(instant_event(
            ev.kind.name(),
            p.tid,
            p.start_ns + frac_ns,
            &args,
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobSpan;
    use serde::json;

    fn phases(job: usize, span: Option<JobSpan>, step: u64, product: u64) -> JobPhases {
        let mut ns = [0u64; Phase::COUNT];
        ns[Phase::Step.index()] = step;
        ns[Phase::Product.index()] = product;
        ns[Phase::Checkpoint.index()] = 50;
        JobPhases {
            job,
            ns,
            calls: [1; Phase::COUNT],
            dropped: 0,
            span,
        }
    }

    #[test]
    fn spans_land_on_worker_tracks_and_parse() {
        let jobs = vec![
            phases(
                0,
                Some(JobSpan {
                    worker: 0,
                    start_ns: 0,
                    end_ns: 10_000,
                }),
                8_000,
                3_000,
            ),
            phases(
                1,
                Some(JobSpan {
                    worker: 1,
                    start_ns: 2_000,
                    end_ns: 9_000,
                }),
                5_000,
                2_000,
            ),
        ];
        let trace = vec![
            (0, 0, Event::job_start()),
            (0, 1, Event::fault(5, target::R, 0, 3)),
            (0, 2, Event::job_finish(10, 9, true, 0)),
        ];
        let text = perfetto_json("t1", &trace, &jobs);
        let v = json::parse(&text).expect("valid JSON");
        let evs = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        // Fault instant at it 5 of 10 executed -> midpoint of [0, 10µs].
        let fault = evs
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("fault"))
            .unwrap();
        assert_eq!(fault.get("ts").and_then(Value::as_f64), Some(5.0));
        assert_eq!(fault.get("tid").and_then(Value::as_f64), Some(0.0));
        // Job 1 is on worker 1's track.
        let job1 = evs
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("job 1"))
            .unwrap();
        assert_eq!(job1.get("tid").and_then(Value::as_f64), Some(1.0));
        assert_eq!(job1.get("ts").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn spanless_jobs_fall_back_to_one_sequential_track() {
        let jobs = vec![phases(0, None, 800, 300), phases(1, None, 200, 100)];
        let text = perfetto_json("t1", &[], &jobs);
        let v = json::parse(&text).unwrap();
        let evs = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let job = |n: &str| {
            evs.iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(n))
                .unwrap()
        };
        // Budget durations: job 0 = 800 + 50 = 850 ns = 0.85 µs; job 1
        // starts right after it on the same track.
        assert_eq!(job("job 0").get("ts").and_then(Value::as_f64), Some(0.0));
        assert_eq!(job("job 0").get("dur").and_then(Value::as_f64), Some(0.85));
        assert_eq!(job("job 1").get("ts").and_then(Value::as_f64), Some(0.85));
        assert_eq!(
            job("job 0").get("tid").and_then(Value::as_f64),
            job("job 1").get("tid").and_then(Value::as_f64),
        );
    }

    #[test]
    fn phase_spans_nest_inside_the_job_span() {
        let jobs = vec![phases(
            0,
            Some(JobSpan {
                worker: 3,
                start_ns: 1_000,
                end_ns: 11_000,
            }),
            9_000,
            4_000,
        )];
        let text = perfetto_json("t1", &[], &jobs);
        let v = json::parse(&text).unwrap();
        let evs = v.get("traceEvents").and_then(Value::as_arr).unwrap();
        let span = |n: &str| {
            let e = evs
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(n))
                .unwrap();
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let dur = e.get("dur").and_then(Value::as_f64).unwrap();
            (ts, ts + dur)
        };
        let (js, je) = span("job 0");
        let (ss, se) = span("step");
        let (ps, pe) = span("product");
        let (cs, ce) = span("checkpoint");
        assert!(js <= ss && se <= je);
        assert!(ss <= ps && pe <= se, "product inside step");
        assert!(cs >= se && ce <= je, "checkpoint after step, inside job");
    }
}
