//! Direct solves, engine bypassed: `solve_resilient_in` on one retained
//! `SolverWorkspace`, interleaved with unprotected `cg_solve` on the
//! same systems.
//!
//! A *round* visits every system once: its unprotected baseline solve
//! and its protected jobs. Consecutive rounds alternate which comes
//! first (ABBA), so warm-up and frequency drift reach both sides of
//! every ratio equally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ftcg_engine::inject::paper_injector;
use ftcg_model::Scheme;
use ftcg_solvers::resilient::{solve_resilient_in, solve_resilient_recorded, ResilientOutcome};
use ftcg_solvers::{cg_solve, CgConfig, SolveStats, SolverWorkspace};
use ftcg_telemetry::{ActiveRecorder, NoopRecorder, Recorder};

use crate::host::peak_rss_mb;
use crate::metrics::Metrics;
use crate::spans::{Ledger, SpanRecorder, K_CHECK, K_EXECUTOR, K_FOLD, K_UNPROTECTED};
use crate::stats::{fastest, median, quantile, undisturbed, Summary};
use crate::workload::{derive, Digest, Gate, Job, Plan, Sizing, System, RESIDUAL_GATE};
use crate::RunReport;

/// Seed-path tag of the protected jobs' fault streams.
const TAG_JOB: u64 = 1;

/// Spans kept per solve before the recorder starts dropping (about five
/// per executed iteration).
const SPAN_CAPACITY: usize = 1 << 21;

/// Candidate fault streams tried per pool entry before giving up (about
/// one stream in a thousand is screened out).
const SCREEN_ATTEMPTS: u64 = 8;

/// The fault streams of a direct workload: `slots` rounds' worth of
/// seeds, one per protected job, derived from `--seed` and *screened* —
/// each was solved once, untimed, and is kept only if that solve passed
/// the correctness gate. Round `r` of a run uses slot `r % slots`.
///
/// Screening exists because the paper's schemes admit escapes: one or two
/// fault streams in a thousand corrupt a solve past recovery (it stalls
/// at the iteration cap). The result line's `failed` must be 0 on every
/// run, so such a stream is not a usable input; solves are deterministic
/// in their seed, so a stream that passed once passes every time, and
/// the screening solves double as the protected warm-up.
pub struct FaultPool {
    slots: Vec<Vec<u64>>,
}

impl FaultPool {
    pub fn screen(
        plan: &Plan,
        ws: &mut SolverWorkspace,
        seed: u64,
        slots: usize,
    ) -> Result<FaultPool, String> {
        let started = Instant::now();
        let mut scratch = Vec::new();
        let mut rejected = 0usize;
        let mut pool = Vec::with_capacity(slots);
        for slot in 0..slots {
            let mut seeds = Vec::with_capacity(plan.jobs.len());
            for (ji, job) in plan.jobs.iter().enumerate() {
                let sys = &plan.systems[job.sys];
                let kept = (0..SCREEN_ATTEMPTS)
                    .map(|attempt| derive(seed, &[TAG_JOB, slot as u64, ji as u64, attempt]))
                    .find(|&s| {
                        let (_, out) = solve_protected(sys, job, s, ws, &mut NoopRecorder);
                        let kept = verdict(sys, &out, &mut scratch).is_ok();
                        rejected += usize::from(!kept);
                        kept
                    });
                seeds.push(kept.ok_or_else(|| {
                    format!(
                        "job {ji} on {} failed under {SCREEN_ATTEMPTS} fault streams in a row",
                        sys.label
                    )
                })?);
            }
            pool.push(seeds);
        }
        println!(
            "fault pool: {slots} round(s) of {} streams screened in {:.3} s (not counted), {rejected} screened out",
            plan.jobs.len(),
            started.elapsed().as_secs_f64()
        );
        Ok(FaultPool { slots: pool })
    }

    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The fault-stream seed of protected job `job` in round `round`.
    pub fn seed(&self, round: usize, job: usize) -> u64 {
        self.slots[round % self.slots.len()][job]
    }
}

/// Sizes a workspace for `plan`: one single-iteration solve per job
/// allocates every retained buffer (machine, matrix image, checkpoint
/// slot, checksum shadows) before anything is timed.
pub fn sized_workspace(plan: &Plan) -> SolverWorkspace {
    let mut ws = SolverWorkspace::new();
    for job in &plan.jobs {
        let sys = &plan.systems[job.sys];
        let mut cfg = job.cfg.clone();
        cfg.max_productive_iters = 1;
        std::hint::black_box(solve_resilient_in(&sys.a, &sys.b, &cfg, None, &mut ws));
    }
    ws
}

/// Everything a direct workload builds before its first timed solve.
fn set_up(ids: &[u32], scale: usize, alpha: f64, seed: u64) -> (Plan, SolverWorkspace) {
    let plan = Plan::direct(ids, scale, alpha, seed);
    let ws = sized_workspace(&plan);
    (plan, ws)
}

/// One protected solve: seconds, and the outcome unless it panicked.
fn solve_protected<R: Recorder>(
    sys: &System,
    job: &Job,
    seed: u64,
    ws: &mut SolverWorkspace,
    rec: &mut R,
) -> (f64, Option<ResilientOutcome>) {
    let mut injector = (job.alpha > 0.0).then(|| paper_injector(&sys.a, job.alpha, seed));
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        solve_resilient_recorded(&sys.a, &sys.b, &job.cfg, injector.as_mut(), ws, rec)
    }))
    .ok();
    (t.elapsed().as_secs_f64(), out)
}

/// One unprotected baseline solve: seconds and what it returned.
fn solve_unprotected(sys: &System) -> (f64, SolveStats) {
    let x0 = vec![0.0; sys.b.len()];
    let t = Instant::now();
    let stats = cg_solve(&sys.a, &sys.b, &x0, &CgConfig::default());
    (t.elapsed().as_secs_f64(), stats)
}

fn baseline_passes(sys: &System, stats: &SolveStats, scratch: &mut Vec<f64>) -> bool {
    stats.converged && sys.rel_residual(&stats.x, scratch) <= RESIDUAL_GATE
}

/// Whether a protected solve's answer is right, or why not.
fn verdict(
    sys: &System,
    out: &Option<ResilientOutcome>,
    scratch: &mut Vec<f64>,
) -> Result<(), String> {
    let Some(o) = out else {
        return Err("panicked".into());
    };
    let residual = sys.rel_residual(&o.x, scratch);
    if o.converged && residual <= RESIDUAL_GATE {
        Ok(())
    } else {
        Err(format!(
            "converged={} true relative residual {residual:e} after {} executed iterations",
            o.converged, o.executed_iterations
        ))
    }
}

fn passes(sys: &System, out: &Option<ResilientOutcome>, scratch: &mut Vec<f64>) -> bool {
    match verdict(sys, out, scratch) {
        Ok(()) => true,
        Err(why) => {
            println!("FAILED solve on {}: {why}", sys.label);
            false
        }
    }
}

fn outcome_digest(out: &Option<ResilientOutcome>) -> u64 {
    let mut d = Digest::default();
    match out {
        Some(o) => d.outcome(o),
        None => d.word(u64::MAX),
    }
    d.value()
}

/// Untimed warm-up: every system's baseline once, then the fault pool's
/// screening solves (every protected job at least once).
pub fn warm_up(
    plan: &Plan,
    ws: &mut SolverWorkspace,
    seed: u64,
    slots: usize,
) -> Result<FaultPool, String> {
    for sys in &plan.systems {
        std::hint::black_box(solve_unprotected(sys));
    }
    FaultPool::screen(plan, ws, seed, slots)
}

/// The untraced run of a direct workload.
pub fn run_untraced(
    ids: &[u32],
    scale: usize,
    alpha: f64,
    pool_slots: usize,
    seed: u64,
    seconds: f64,
    sizing: &Sizing,
) -> Result<RunReport, String> {
    let mut setups = Vec::new();
    let mut built = None;
    let setting_up = Instant::now();
    while sizing.more_setup(setups.len(), setting_up) {
        drop(built.take()); // release the previous instance before rebuilding
        let t = Instant::now();
        built = Some(set_up(ids, scale, alpha, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (plan, mut ws) = built.expect("at least one set-up run");
    let pool = warm_up(&plan, &mut ws, seed, pool_slots)?;

    let n_sys = plan.systems.len();
    let mut scratch = Vec::new();
    let mut unprot: Vec<Vec<f64>> = vec![Vec::new(); n_sys];
    // (job, seconds, executed iterations) per protected solve
    let mut prot: Vec<(usize, f64, usize)> = Vec::new();
    let mut digests = Vec::new();
    let mut gate = Gate::default();
    let started = Instant::now();
    let mut round = 0usize;
    while round < 2 || started.elapsed().as_secs_f64() < seconds {
        let baseline_first = round.is_multiple_of(2);
        let mut digest = Digest::default();
        for (si, sys) in plan.systems.iter().enumerate() {
            for baseline_now in [baseline_first, !baseline_first] {
                if baseline_now {
                    let (secs, stats) = solve_unprotected(sys);
                    unprot[si].push(secs);
                    gate.record(baseline_passes(sys, &stats, &mut scratch));
                    continue;
                }
                for (ji, job) in plan.jobs_of(si) {
                    let s = pool.seed(round, ji);
                    let (secs, out) = solve_protected(sys, job, s, &mut ws, &mut NoopRecorder);
                    let executed = out.as_ref().map_or(0, |o| o.executed_iterations);
                    prot.push((ji, secs, executed));
                    digest.word(outcome_digest(&out));
                    gate.record(passes(sys, &out, &mut scratch));
                }
            }
        }
        digests.push(digest.value());
        round += 1;
    }

    // Baselines and protected times are both reported undisturbed (see
    // `stats::fastest`); the raw medians are printed beside them.
    let base: Vec<f64> = unprot.iter().map(|s| fastest(s)).collect();
    let calm = undisturbed(&prot);
    let sys_of = |i: usize| plan.jobs[prot[i].0].sys;
    let slowdowns: Vec<f64> = (0..prot.len()).map(|i| calm[i] / base[sys_of(i)]).collect();
    let raw_slowdowns: Vec<f64> = (0..prot.len())
        .map(|i| prot[i].1 / median(&unprot[sys_of(i)]))
        .collect();
    let calm_total: f64 = calm.iter().sum();
    let raw_total: f64 = prot.iter().map(|p| p.1).sum();
    let base_total: f64 = (0..prot.len()).map(|i| base[sys_of(i)]).sum();

    println!("rounds: {round}, protected solves: {}", prot.len());
    for (sys, samples) in plan.systems.iter().zip(&unprot) {
        let ms: Vec<f64> = samples.iter().map(|s| s * 1e3).collect();
        println!("unprotected {} ms: {}", sys.label, Summary::of(&ms));
    }
    println!(
        "protected solves: {:.3} s measured, {:.3} s undisturbed estimate",
        raw_total, calm_total
    );
    println!(
        "per-solve slowdown, undisturbed: {}",
        Summary::of(&slowdowns)
    );
    println!(
        "per-solve slowdown, as measured: {}",
        Summary::of(&raw_slowdowns)
    );

    let mut m = Metrics::default();
    m.set("setup_s", fastest(&setups));
    let unbounded = vec![
        ("solves_per_s", prot.len() as f64 / calm_total),
        ("slowdown_p90", quantile(&slowdowns, 0.9)),
    ];
    println!(
        "not bounded: solves_per_s {:.4}  slowdown_p90 {:.4} (n={})",
        unbounded[0].1,
        unbounded[1].1,
        slowdowns.len()
    );
    m.set("unprotected_solve_ms", base.iter().sum::<f64>() * 1e3);
    m.set("overhead_ratio", calm_total / base_total);
    m.set("slowdown_p50", quantile(&slowdowns, 0.5));
    m.set("peak_rss_mb", peak_rss_mb());

    // Rounds on the same pool slot do identical work.
    let consistent = repeats_agree(&mut digests, pool.slots());
    Ok(RunReport {
        metrics: m,
        gate,
        consistent,
        digests,
        unbounded,
    })
}

/// Checks that every round's digest equals that of the first round on
/// the same pool slot, then keeps one digest per slot (what other runs
/// of the same seed compare against).
fn repeats_agree(digests: &mut Vec<u64>, slots: usize) -> bool {
    let agree = (slots..digests.len()).all(|r| digests[r] == digests[r % slots]);
    if !agree {
        println!("MISMATCH: rounds on the same fault-pool slot differ: {digests:x?}");
    }
    digests.truncate(slots);
    agree
}

/// Protocol counters summed over the traced protected solves.
#[derive(Debug, Default)]
pub struct Tally {
    pub solves: usize,
    pub productive: usize,
    pub executed: usize,
    pub executed_nnz: f64,
    pub rollbacks: usize,
    pub checkpoints: usize,
    pub detections: usize,
    pub forward_corrections: usize,
    /// Forward corrections and failed corrections under ABFT-CORRECTION.
    pub correction_forward: usize,
    pub correction_failed: usize,
    pub faults: usize,
    pub undetected: usize,
}

impl Tally {
    fn add(&mut self, job: &Job, nnz: usize, out: &ResilientOutcome) {
        self.solves += 1;
        self.productive += out.productive_iterations;
        self.executed += out.executed_iterations;
        self.executed_nnz += out.executed_iterations as f64 * nnz as f64;
        self.rollbacks += out.rollbacks;
        self.checkpoints += out.checkpoints;
        self.detections += out.detections;
        self.forward_corrections += out.forward_corrections;
        if job.cfg.scheme == Scheme::AbftCorrection {
            self.correction_forward += out.forward_corrections;
            self.correction_failed += out.detections;
        }
        self.faults += out.ledger.len();
        self.undetected += out.ledger.summary().undetected;
    }
}

fn frac(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the span-traced rounds of a plan produced.
pub struct Traced {
    pub ledger: Ledger,
    /// Wall of the traced sub-passes the ledger should sum to.
    pub window_ns: u64,
    pub tally: Tally,
    pub plain_secs: f64,
    pub traced_secs: f64,
    pub active_secs: f64,
    pub events: u64,
    pub events_dropped: u64,
    pub spans_dropped: u64,
    pub unprot_secs: f64,
    pub unprot_iters: usize,
    pub gate: Gate,
    pub consistent: bool,
    /// Per-round digests (same definition as the untraced run's).
    pub digests: Vec<u64>,
    /// `[executed, rollbacks, corrections, faults]` per job of round 0.
    pub job_counters: Vec<[usize; 4]>,
}

/// Runs rounds of `plan` until `budget_secs` has passed (at least one);
/// `seed_of(round, job)` repeats with period `slots` in `round`.
/// Each round has a *traced* sub-pass — baseline solves, protected
/// solves under the [`SpanRecorder`], checks — whose wall is the
/// ledger's window, and a *reference* sub-pass repeating every
/// protected job under the no-op and the active recorder, for the
/// tracing overheads. The two sub-passes alternate order.
pub fn traced_rounds(
    plan: &Plan,
    ws: &mut SolverWorkspace,
    seed_of: &dyn Fn(usize, usize) -> u64,
    slots: usize,
    budget_secs: f64,
) -> Traced {
    let n_jobs = plan.jobs.len();
    let mut tracer = Tracer {
        plan,
        ws,
        seed_of,
        spans: SpanRecorder::with_capacity(SPAN_CAPACITY),
        active: ActiveRecorder::new(),
        scratch: Vec::new(),
        traced_digests: vec![0; n_jobs],
        reference_digests: vec![(0, 0); n_jobs],
        out: Traced {
            ledger: Ledger::default(),
            window_ns: 0,
            tally: Tally::default(),
            plain_secs: 0.0,
            traced_secs: 0.0,
            active_secs: 0.0,
            events: 0,
            events_dropped: 0,
            spans_dropped: 0,
            unprot_secs: 0.0,
            unprot_iters: 0,
            gate: Gate::default(),
            consistent: true,
            digests: Vec::new(),
            job_counters: vec![[0; 4]; n_jobs],
        },
    };
    let started = Instant::now();
    let mut round = 0usize;
    while round == 0 || started.elapsed().as_secs_f64() < budget_secs {
        if round.is_multiple_of(2) {
            tracer.traced_pass(round);
            tracer.reference_pass(round);
        } else {
            tracer.reference_pass(round);
            tracer.traced_pass(round);
        }
        tracer.compare(round);
        round += 1;
    }
    tracer.out.events = tracer.spans.events;
    tracer.out.spans_dropped = tracer.spans.dropped;
    tracer.out.consistent &= repeats_agree(&mut tracer.out.digests, slots);
    tracer.out
}

struct Tracer<'a> {
    plan: &'a Plan,
    ws: &'a mut SolverWorkspace,
    seed_of: &'a dyn Fn(usize, usize) -> u64,
    spans: SpanRecorder,
    active: ActiveRecorder,
    scratch: Vec<f64>,
    /// Outcome digest of each job in the latest traced sub-pass, and
    /// `(no-op, active)` in the latest reference sub-pass.
    traced_digests: Vec<u64>,
    reference_digests: Vec<(u64, u64)>,
    out: Traced,
}

impl Tracer<'_> {
    /// Adds the time since `since` to a flat ledger row.
    fn flat(&mut self, kind: usize, since: Instant) {
        self.out
            .ledger
            .add_flat(kind, since.elapsed().as_nanos() as u64);
    }

    fn baseline(&mut self, sys: &System) {
        let (secs, stats) = solve_unprotected(sys);
        self.out.ledger.add_flat(K_UNPROTECTED, (secs * 1e9) as u64);
        let checking = Instant::now();
        let ok = baseline_passes(sys, &stats, &mut self.scratch);
        self.flat(K_CHECK, checking);
        self.out.unprot_secs += secs;
        self.out.unprot_iters += stats.iterations;
        self.out.gate.record(ok);
    }

    fn traced_job(&mut self, round: usize, ji: usize) -> u64 {
        let job = &self.plan.jobs[ji];
        let sys = &self.plan.systems[job.sys];
        let seed = (self.seed_of)(round, ji);
        // The harness adds the root span of the solve itself.
        let start_ns = self.spans.now_ns();
        let (secs, out) = solve_protected(sys, job, seed, self.ws, &mut self.spans);
        let end_ns = self.spans.now_ns();
        self.spans.push(K_EXECUTOR, start_ns, end_ns);
        self.out.traced_secs += secs;
        let folding = Instant::now();
        self.spans.drain_into(&mut self.out.ledger);
        self.flat(K_FOLD, folding);
        let checking = Instant::now();
        let ok = passes(sys, &out, &mut self.scratch);
        self.flat(K_CHECK, checking);
        self.out.gate.record(ok);
        if let Some(o) = &out {
            self.out.tally.add(job, sys.a.nnz(), o);
            if round == 0 {
                self.out.job_counters[ji] = [
                    o.executed_iterations,
                    o.rollbacks,
                    o.forward_corrections + o.tmr_corrections,
                    o.ledger.len(),
                ];
            }
        }
        outcome_digest(&out)
    }

    fn traced_pass(&mut self, round: usize) {
        let plan = self.plan;
        let window = Instant::now();
        let mut digest = Digest::default();
        for (si, sys) in plan.systems.iter().enumerate() {
            for baseline_now in [round.is_multiple_of(2), !round.is_multiple_of(2)] {
                if baseline_now {
                    self.baseline(sys);
                    continue;
                }
                for (ji, _) in plan.jobs_of(si) {
                    self.traced_digests[ji] = self.traced_job(round, ji);
                    digest.word(self.traced_digests[ji]);
                }
            }
        }
        self.out.window_ns += window.elapsed().as_nanos() as u64;
        self.out.digests.push(digest.value());
    }

    /// Every job again under the no-op and the active recorder (order
    /// alternating by job).
    fn reference_pass(&mut self, round: usize) {
        let plan = self.plan;
        for (ji, job) in plan.jobs.iter().enumerate() {
            let sys = &plan.systems[job.sys];
            let s = (self.seed_of)(round, ji);
            for variant in [ji % 2, 1 - ji % 2] {
                if variant == 0 {
                    let (secs, out) = solve_protected(sys, job, s, self.ws, &mut NoopRecorder);
                    self.out.plain_secs += secs;
                    self.reference_digests[ji].0 = outcome_digest(&out);
                } else {
                    self.active.reset();
                    let (secs, out) = solve_protected(sys, job, s, self.ws, &mut self.active);
                    self.out.active_secs += secs;
                    self.out.events_dropped += self.active.dropped();
                    self.reference_digests[ji].1 = outcome_digest(&out);
                }
            }
        }
    }

    /// The three variants of every job must have done identical work.
    fn compare(&mut self, round: usize) {
        for (ji, &(plain, active)) in self.reference_digests.iter().enumerate() {
            let traced = self.traced_digests[ji];
            if plain != traced || active != traced {
                println!(
                    "MISMATCH: round {round} job {ji}: traced {traced:x} plain {plain:x} active {active:x}"
                );
                self.out.consistent = false;
            }
        }
    }
}

impl Traced {
    /// The per-layer metrics that come from the span ledger itself.
    pub fn set_ledger_metrics(&self, m: &mut Metrics) {
        self.ledger.set_metrics(self.window_ns, m);
        m.set("bench.spans_dropped", self.spans_dropped as f64);
        m.set(
            "bench.span_overhead_pct",
            100.0 * (self.traced_secs / self.plain_secs - 1.0),
        );
    }

    /// The protocol counters, as sums over the traced protected solves.
    pub fn set_tally_metrics(&self, m: &mut Metrics) {
        let t = &self.tally;
        m.set("abft.detections", t.detections as f64);
        m.set("abft.forward_corrections", t.forward_corrections as f64);
        m.set("checkpoint.saves", t.checkpoints as f64);
        m.set("checkpoint.rollbacks", t.rollbacks as f64);
        m.set("fault.injected", t.faults as f64);
        m.set("solvers.executed_iters", t.executed as f64);
        m.set("solvers.productive_iters", t.productive as f64);
        m.set("solvers.useful_iter_frac", frac(t.productive, t.executed));
        m.set(
            "solvers.ns_per_exec_iter_nnz",
            self.traced_secs * 1e9 / t.executed_nnz,
        );
        m.set(
            "telemetry.events_per_solve",
            self.events as f64 / t.solves.max(1) as f64,
        );
    }

    /// The numbers only a direct solve can give, whatever the workload.
    pub fn set_direct_only_metrics(&self, m: &mut Metrics) {
        let t = &self.tally;
        m.set(
            "abft.correction_success_frac",
            frac(
                t.correction_forward,
                t.correction_forward + t.correction_failed,
            ),
        );
        m.set("fault.undetected_frac", frac(t.undetected, t.faults));
        m.set(
            "telemetry.active_overhead_pct",
            100.0 * (self.active_secs / self.plain_secs - 1.0),
        );
        m.set(
            "solvers.cg_unprotected_ns_per_iter",
            self.unprot_secs * 1e9 / self.unprot_iters.max(1) as f64,
        );
    }
}
