//! `ftcg-benchmark`: the benchmark of record for the ftcg stack.
//!
//! Measures the stack from outside — timing calls into each crate's
//! public functions and recording spans through the public
//! `ftcg_telemetry::Recorder` trait implemented here — so nothing
//! outside `benchmark/` changes. Run it through `benchmark/run.sh`,
//! which builds it and checks the release profile first.
//!
//! ```text
//! ftcg-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one run of one workload in this process; the last line of
//!     standard output is the result as one JSON object
//! ftcg-benchmark [--seed N] [--seconds S] [--quick] [--check-repeat] [--out FILE]
//!     the full set: every workload untraced and traced, each in a
//!     fresh process, cross-checked, tabulated, written as JSON
//! ```

mod campaign;
mod direct;
mod host;
mod metrics;
mod probes;
mod spans;
mod stats;
mod suite;
mod workload;

use std::process::ExitCode;

use serde::json::Value;

use crate::host::Host;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::workload::{Gate, Kind, Plan, Size, Sizing, Workload};

/// What one run of one workload hands back.
pub struct RunReport {
    pub metrics: Metrics,
    pub gate: Gate,
    /// Every digest comparison inside the run agreed.
    pub consistent: bool,
    /// Per-round (direct) or per-pass (campaign) digests, for the
    /// comparisons across runs.
    pub digests: Vec<u64>,
    /// Measured and printed, but not a bounded metric (`solves_per_s`,
    /// `slowdown_p90`); carried on the `DETAIL` line for the records.
    pub unbounded: Vec<(&'static str, f64)>,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub quick: bool,
    pub check_repeat: bool,
    pub out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        check_repeat: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--out" => args.out = Some(value("--out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The traced run: span-traced direct rounds, the engine probe and the
/// micro-timings, merged into the per-layer metric set.
fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    sizing: &Sizing,
    host: &Host,
) -> Result<RunReport, String> {
    let mut m = Metrics::default();
    let (mut gate, mut consistent): (Gate, bool);
    let digests;
    match w.kind {
        Kind::Direct {
            matrices,
            size,
            alpha,
            pool,
        } => {
            let scale = sizing.scale(size);
            let plan = Plan::direct(matrices, scale, alpha, seed);
            let mut ws = direct::sized_workspace(&plan);
            // A traced round solves every job three times, so the budget
            // holds one round at published size and two or three below:
            // the pool's first slots (the same streams as the untraced
            // run's) are all it needs.
            let slots = pool.min(if size == Size::Full { 1 } else { 2 });
            let pool = direct::warm_up(&plan, &mut ws, seed, slots)?;
            let traced = direct::traced_rounds(
                &plan,
                &mut ws,
                &|round, job| pool.seed(round, job),
                pool.slots(),
                0.4 * seconds,
            );
            traced.ledger.print(traced.window_ns);
            traced.set_ledger_metrics(&mut m);
            traced.set_tally_metrics(&mut m);
            traced.set_direct_only_metrics(&mut m);
            m.set("telemetry.events_dropped", traced.events_dropped as f64);
            (gate, consistent) = (traced.gate, traced.consistent);
            digests = traced.digests.clone();

            // engine.*: the workload's matrices under ABFT-CORRECTION as
            // a one-repetition campaign.
            let sources: Vec<String> = matrices
                .iter()
                .map(|id| format!("paper:{id}:{scale}"))
                .collect();
            let text = format!(
                "name = bench-{}-engine\nseed = {seed}\nreps = 1\nthreads = 0\nbatch = auto\n\
                 matrices = {}\nschemes = correction\nalphas = {alpha}\n",
                w.name,
                sources.join(", ")
            );
            let t = std::time::Instant::now();
            let c = campaign::Campaign::from_text(&text)?;
            m.set("engine.expand_ms", t.elapsed().as_secs_f64() * 1e3);
            let c = c.screened(1)?;
            let probe = campaign::engine_probe(&c, 1, &mut m)?;
            gate.absorb(probe.plain.gate);
            consistent &= probe.consistent;
            probes::run(&plan.systems, alpha, seed, sizing, host, &mut m);
        }
        Kind::Campaign { threads } => {
            let t = std::time::Instant::now();
            let c = campaign::Campaign::table1(sizing, seed)?;
            m.set("engine.expand_ms", t.elapsed().as_secs_f64() * 1e3);
            let c = c.screened(threads)?;
            let probe = campaign::engine_probe(&c, threads, &mut m)?;
            probe.ledger.print(probe.window_ns);
            probe.set_campaign_metrics(&c, &mut m);
            (gate, consistent) = (probe.plain.gate, probe.consistent);
            digests = vec![probe.plain.digest];

            // What the artifacts cannot give comes from replaying the
            // repetition-0 jobs directly — which must reproduce the
            // engine's records.
            let (plan, seeds) = campaign::replica_plan(&c);
            let mut ws = direct::sized_workspace(&plan);
            let replay = direct::traced_rounds(&plan, &mut ws, &|_, job| seeds[job], 1, 0.0);
            replay.set_direct_only_metrics(&mut m);
            m.set(
                "telemetry.events_dropped",
                (probe.events_dropped + replay.events_dropped) as f64,
            );
            gate.absorb(replay.gate);
            consistent &= replay.consistent;
            if replay.job_counters != probe.plain.rep0 {
                println!(
                    "MISMATCH: direct replay of repetition 0 differs from the engine's records"
                );
                consistent = false;
            }
            probes::run(&plan.systems, 1.0 / 16.0, seed, sizing, host, &mut m);
        }
    }
    Ok(RunReport {
        metrics: m,
        gate,
        consistent,
        digests,
        unbounded: Vec::new(),
    })
}

/// One run of one workload; prints the result line last.
fn run_single(w: Workload, args: &Args) -> Result<ExitCode, String> {
    let sizing = Sizing::new(args.quick);
    let seconds = args.seconds.unwrap_or(if args.quick { 1.0 } else { 15.0 });
    let host = Host::detect();
    host.print(args.seed);
    println!(
        "run: workload={} trace={} seconds={seconds} quick={}",
        w.name,
        u8::from(args.trace),
        args.quick
    );
    if matches!(w.kind, Kind::Campaign { threads } if threads > host.nproc) {
        return Err(format!(
            "{} needs 2 cores and this host has {}; refusing to oversubscribe",
            w.name, host.nproc
        ));
    }
    let report = if args.trace {
        run_traced(w, args.seed, seconds, &sizing, &host)?
    } else {
        match w.kind {
            Kind::Campaign { threads } => {
                campaign::run_untraced(threads, args.seed, seconds, &sizing)?
            }
            Kind::Direct {
                matrices,
                size,
                alpha,
                pool,
            } => direct::run_untraced(
                matrices,
                sizing.scale(size),
                alpha,
                pool,
                args.seed,
                seconds,
                &sizing,
            )?,
        }
    };
    let defs: &[metrics::MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let values = report.metrics.ordered(defs)?;
    for ((name, unit, _), v) in &values {
        println!("metric: {name:<40} {v:>16.6} {unit}");
    }
    println!(
        "solves: attempted {} failed {} (failed_frac {})",
        report.gate.attempted,
        report.gate.failed,
        report.gate.failed as f64 / report.gate.attempted.max(1) as f64
    );
    let correct = report.consistent && report.gate.holds();
    let detail = Value::Obj(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("consistent".into(), Value::Bool(report.consistent)),
        (
            "unbounded".into(),
            Value::Obj(
                report
                    .unbounded
                    .iter()
                    .map(|&(name, v)| (name.to_string(), Value::Num(v)))
                    .collect(),
            ),
        ),
        (
            "digests".into(),
            Value::Arr(
                report
                    .digests
                    .iter()
                    .map(|d| Value::Str(format!("{d:016x}")))
                    .collect(),
            ),
        ),
    ]);
    println!("DETAIL {detail}");
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(report.gate.attempted as f64)),
        ("failed".into(), Value::Num(report.gate.failed as f64)),
        (
            "metrics".into(),
            Value::Obj(
                values
                    .iter()
                    .map(|((name, unit, _), v)| {
                        (
                            (*name).to_string(),
                            Value::Obj(vec![
                                ("value".into(), Value::Num(*v)),
                                ("unit".into(), Value::Str((*unit).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(name) => {
            let w = workload::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}` (one of: {})", names.join(", "))
            })?;
            run_single(w, &args)
        }
        None => suite::run(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ftcg-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
