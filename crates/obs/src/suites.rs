//! The standardized, self-measuring bench suites behind `ftcg bench`.
//!
//! Each suite runs *the real pipeline* — the same campaign runner,
//! solver machines, and recorders the production commands use — and
//! returns plain [`Measurement`]s. Timing policy is min-of-N
//! throughout (the minimum absorbs scheduler noise far better than the
//! mean), with every raw sample kept so `ftcg bench --against` can
//! widen its regression gate by the observed spread.
//!
//! * [`run_campaign_suite`] — end-to-end campaign throughput with
//!   telemetry enabled, plus the per-phase time budget from the
//!   metrics sidecar of the best run;
//! * [`kernels_suite`] — per-nonzero cost of the prepared SpMV
//!   backends (reference CSR, fixed-C SELL-C-σ, register-blocked
//!   BCSR) and the one-pass sweeps against their separate-call
//!   compositions;
//! * [`solver_step_suite`] — per-iteration cost of the CG state
//!   machine against the historical inlined loop;
//! * [`telemetry_suite`] — recording overhead on the resilient hot
//!   path: baseline vs `NoopRecorder` vs `ActiveRecorder`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ftcg_engine::inject::paper_injector;
use ftcg_engine::{run_campaign_sharded, CampaignSpec, MatrixResolver, RunOptions};
use ftcg_kernels::{DefensiveProduct, KernelSpec};
use ftcg_model::Scheme;
use ftcg_solvers::resilient::{solve_resilient_in, solve_resilient_recorded, ResilientConfig};
use ftcg_solvers::{cg_solve_with, CgConfig, SolveStats, SolverWorkspace, StoppingCriterion};
use ftcg_sparse::{gen, vector, CsrMatrix, RowOrder};
use ftcg_telemetry::metrics::MetricsFile;
use ftcg_telemetry::{ActiveRecorder, NoopRecorder, Phase};

use crate::benchfile::Measurement;

/// What a suite measured, ready to wrap into a `BenchEntry`.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// Suite name.
    pub suite: String,
    /// The exact spec text (or parameter summary) the suite executed.
    pub spec: String,
    /// The measurements, in suite-defined order.
    pub measurements: Vec<Measurement>,
}

fn measurement(key: &str, unit: &str, samples: Vec<f64>, lower_is_better: bool) -> Measurement {
    // The headline is the *best* sample: min for times, max for rates.
    let value = if lower_is_better {
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    Measurement {
        key: key.to_string(),
        unit: unit.to_string(),
        value,
        samples,
        lower_is_better,
    }
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A private scratch directory for one suite run's telemetry files,
/// removed on drop (best effort).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let dir = std::env::temp_dir().join(format!(
            "ftcg-bench-{}-{}-{tag}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs a campaign spec `runs` times through the real sharded runner
/// with trace + metrics enabled, measuring end-to-end throughput and
/// the per-phase time budget (from the fastest run's sidecar).
pub fn run_campaign_suite(
    suite: &str,
    spec_text: &str,
    resolver: &dyn MatrixResolver,
    runs: usize,
) -> Result<SuiteResult, String> {
    if runs == 0 {
        return Err("bench needs at least one run".into());
    }
    let spec = CampaignSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let scratch = Scratch::new(suite)?;
    let mut elapsed: Vec<f64> = Vec::with_capacity(runs);
    let mut rates: Vec<f64> = Vec::with_capacity(runs);
    let mut phase_totals: Vec<[u64; Phase::COUNT]> = Vec::with_capacity(runs);
    for run in 0..runs {
        let trace = scratch.0.join(format!("run{run}.trace.jsonl"));
        let metrics = scratch.0.join(format!("run{run}.metrics.jsonl"));
        let opts = RunOptions {
            trace: Some(&trace),
            metrics: Some(&metrics),
            ..RunOptions::default()
        };
        let t0 = Instant::now();
        let (_, result) =
            run_campaign_sharded(&spec, resolver, &opts).map_err(|e| e.to_string())?;
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        let result = result.ok_or("unsharded campaign produced no merged result")?;
        if result.panics > 0 {
            return Err(format!(
                "bench campaign lost {} job(s) to panics; timings would be meaningless",
                result.panics
            ));
        }
        elapsed.push(dt);
        rates.push(result.total_jobs as f64 / dt);
        let mf = MetricsFile::load(&metrics).map_err(|e| e.to_string())?;
        let mut totals = [0u64; Phase::COUNT];
        for jp in &mf.jobs {
            for (t, ns) in totals.iter_mut().zip(jp.ns.iter()) {
                *t += ns;
            }
        }
        phase_totals.push(totals);
    }
    let mut measurements = vec![
        measurement("campaign.elapsed_secs", "s", elapsed.clone(), true),
        measurement("campaign.reps_per_sec", "reps/s", rates, false),
    ];
    // Phase budget: one measurement per phase that ever ran, samples
    // across runs (ms so the numbers stay readable in diff tables).
    for p in Phase::ALL {
        let samples: Vec<f64> = phase_totals
            .iter()
            .map(|t| t[p.index()] as f64 / 1e6)
            .collect();
        if samples.iter().any(|&x| x > 0.0) {
            measurements.push(measurement(
                &format!("phase.{}_total_ms", p.name()),
                "ms",
                samples,
                true,
            ));
        }
    }
    Ok(SuiteResult {
        suite: suite.to_string(),
        spec: spec_text.to_string(),
        measurements,
    })
}

/// Best-of-N per-iteration wall times in nanoseconds; returns every
/// sample (first element is *not* special — callers min/max as needed).
fn per_iter_samples<F: FnMut() -> usize>(n: usize, mut f: F) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        let iters = std::hint::black_box(f());
        out.push(t0.elapsed().as_nanos() as f64 / iters.max(1) as f64);
    }
    out
}

fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The pre-refactor CG loop, kept verbatim as the timing baseline the
/// state machine is compared against.
fn legacy_cg(a: &CsrMatrix, b: &[f64], x0: &[f64], cfg: &CgConfig) -> SolveStats {
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut r = b.to_vec();
    let ax = a.spmv(&x);
    vector::sub_assign(&mut r, &ax);
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rnorm_sq = vector::norm2_sq(&r);
    let threshold = cfg.stopping.threshold(a, vector::norm2(b), rnorm_sq.sqrt());
    let mut it = 0usize;
    while rnorm_sq.sqrt() > threshold && it < cfg.max_iters {
        a.spmv_into(&p, &mut q);
        let pq = vector::dot(&p, &q);
        if pq <= 0.0 || !pq.is_finite() {
            break;
        }
        let alpha = rnorm_sq / pq;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &q, &mut r);
        let new_rnorm_sq = vector::norm2_sq(&r);
        let beta = new_rnorm_sq / rnorm_sq;
        rnorm_sq = new_rnorm_sq;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        it += 1;
    }
    SolveStats {
        converged: rnorm_sq.sqrt() <= threshold,
        residual_norm: rnorm_sq.sqrt(),
        iterations: it,
        x,
    }
}

fn det_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i as f64 * 0.23).sin()).collect()
}

/// Per-iteration cost of the CG state machine vs the legacy inlined
/// loop, min-of-`reps` over `iters` full iterations on a Poisson grid.
///
/// The two loops are timed as *interleaved pairs* — one legacy run
/// immediately followed by one machine run per sample — after an
/// untimed warmup of each, and the overhead headline is the minimum
/// over the per-pair ratios. Back-to-back pairing means frequency
/// drift, page-cache warmup and scheduler interference hit both sides
/// of a ratio equally, which is what makes the overhead number stable
/// on noisy shared hosts (timing all legacy runs first and all machine
/// runs second let a mid-suite turbo transition swing the headline by
/// whole percents).
pub fn solver_step_suite(grid: usize, iters: usize, reps: usize) -> Result<SuiteResult, String> {
    let a = gen::poisson2d(grid).map_err(|e| e.to_string())?;
    let n = a.n_rows();
    let b = det_rhs(n);
    let x0 = vec![0.0; n];
    let cfg = CgConfig {
        stopping: StoppingCriterion::Absolute { eps: 0.0 },
        max_iters: iters,
    };
    let kernel = KernelSpec::Csr.prepare(&a).map_err(|e| e.to_string())?;
    let time_one = |f: &mut dyn FnMut() -> usize| {
        let t0 = Instant::now();
        let iters = std::hint::black_box(f());
        t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
    };
    let mut run_legacy = || legacy_cg(&a, &b, &x0, &cfg).iterations;
    let mut run_machine = || cg_solve_with(&a, &b, &x0, &cfg, kernel.as_ref()).iterations;
    // Untimed warmup: fault the pages in and let the branch predictors
    // settle before the first sample of either loop is recorded.
    std::hint::black_box(run_legacy());
    std::hint::black_box(run_machine());
    let mut legacy = Vec::with_capacity(reps);
    let mut machine = Vec::with_capacity(reps);
    for _ in 0..reps {
        legacy.push(time_one(&mut run_legacy));
        machine.push(time_one(&mut run_machine));
    }
    let best_ratio = legacy
        .iter()
        .zip(&machine)
        .map(|(l, m)| m / l)
        .fold(f64::INFINITY, f64::min);
    let overhead_pct = (best_ratio - 1.0) * 100.0;
    Ok(SuiteResult {
        suite: "solver-step".into(),
        spec: format!("poisson2d({grid}), {iters} iters, min of {reps}"),
        measurements: vec![
            measurement("solver.legacy_ns_per_iter", "ns/iter", legacy, true),
            measurement("solver.machine_ns_per_iter", "ns/iter", machine, true),
            measurement("solver.machine_overhead_pct", "%", vec![overhead_pct], true),
        ],
    })
}

/// SpMV microkernel suite: per-nonzero cost of each prepared backend
/// on one Poisson grid (reference CSR, the fixed-C SELL-C-σ kernels,
/// register-blocked BCSR).
///
/// Timing policy matches the other micro-suites: each backend gets an
/// untimed warmup product, every sample times a burst of products (so
/// one sample sits far above timer resolution), and the headline is
/// min-of-`reps`.
///
/// A `fused` measurement group compares the one-pass hot-path sweeps
/// against their separate-call compositions: the CG update tail
/// (`axpy` ×2 + `norm2_sq` vs `fused::axpy2_norm2_sq`, ns/iter) and
/// the ABFT checksum probe as the executor runs it
/// (`DefensiveProduct::product` + `probe_of` vs the one-pass
/// `DefensiveProduct::product_with_probe`, ns/nnz), each sampled as
/// interleaved pairs so drift hits both sides equally.
///
/// A `short_rows` group times the defensive traversal where its row
/// visit order matters: a `paper:752:16`-shaped matrix (8 ± 3 nonzeros
/// per row, the Poisson grid's rows all hold 5) — the textbook loop,
/// the defensive product with probe in natural order, and the same
/// visiting rows in the matrix's [`RowOrder`], as interleaved triples.
pub fn kernels_suite(grid: usize, reps: usize) -> Result<SuiteResult, String> {
    const INNER: usize = 16;
    let a = gen::poisson2d(grid).map_err(|e| e.to_string())?;
    let n = a.n_rows();
    let nnz = a.nnz().max(1) as f64;
    let x = det_rhs(n);
    let mut y = vec![0.0; n];
    let mut spmv_ns_per_nnz = |spec: KernelSpec| -> Result<Vec<f64>, String> {
        let p = spec.prepare(&a).map_err(|e| e.to_string())?;
        p.spmv_into(&x, &mut y);
        let samples = per_iter_samples(reps, || {
            for _ in 0..INNER {
                p.spmv_into(std::hint::black_box(&x), &mut y);
            }
            INNER
        });
        Ok(samples.into_iter().map(|ns| ns / nnz).collect())
    };
    let csr = spmv_ns_per_nnz(KernelSpec::Csr)?;
    let sell = spmv_ns_per_nnz(KernelSpec::Sell {
        chunk: 8,
        sigma: 32,
    })?;
    let bcsr = spmv_ns_per_nnz(KernelSpec::Bcsr { block: 2 })?;

    // Fused one-pass sweeps vs their separate-call composition: the CG
    // update tail (x += αp, r −= αq, ‖r‖₂²) as three `vector::` sweeps
    // against one `fused::axpy2_norm2_sq`, timed as interleaved pairs
    // on disjoint buffers so both sides see identical cache pressure.
    let alpha = 0.001;
    let pdir = det_rhs(n);
    let qdir: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).cos()).collect();
    let (mut xs, mut rs) = (vec![0.0; n], det_rhs(n));
    let (mut xs2, mut rs2) = (vec![0.0; n], det_rhs(n));
    let mut burst_separate = || {
        let t0 = Instant::now();
        for _ in 0..INNER {
            vector::axpy(alpha, &pdir, &mut xs);
            vector::axpy(-alpha, &qdir, &mut rs);
            std::hint::black_box(vector::norm2_sq(&rs));
        }
        t0.elapsed().as_nanos() as f64 / INNER as f64
    };
    let mut burst_fused = || {
        let t0 = Instant::now();
        for _ in 0..INNER {
            std::hint::black_box(ftcg_sparse::fused::axpy2_norm2_sq(
                alpha, &pdir, &mut xs2, -alpha, &qdir, &mut rs2,
            ));
        }
        t0.elapsed().as_nanos() as f64 / INNER as f64
    };
    std::hint::black_box(burst_separate());
    std::hint::black_box(burst_fused());
    let mut sweep_separate = Vec::with_capacity(reps);
    let mut sweep_fused = Vec::with_capacity(reps);
    for _ in 0..reps {
        sweep_separate.push(burst_separate());
        sweep_fused.push(burst_fused());
    }
    let sweep_speedup = min_of(&sweep_separate) / min_of(&sweep_fused);

    // ABFT probe, as the executor's hardened product runs it: the
    // defensive CSR product + a separate `probe_of` sweep vs the
    // one-pass `product_with_probe`, per nonzero, same pairing policy.
    let (mut y1, mut y2) = (vec![0.0; n], vec![0.0; n]);
    let mut dp_two_pass = DefensiveProduct::new(KernelSpec::Csr);
    let mut burst_two_pass = || {
        let t0 = Instant::now();
        for _ in 0..INNER {
            dp_two_pass.product(&a, std::hint::black_box(&x), &mut y1);
            std::hint::black_box(ftcg_sparse::fused::probe_of(&y1));
        }
        t0.elapsed().as_nanos() as f64 / INNER as f64 / nnz
    };
    let mut dp_fused = DefensiveProduct::new(KernelSpec::Csr);
    let mut burst_probe_fused = || {
        let t0 = Instant::now();
        for _ in 0..INNER {
            std::hint::black_box(dp_fused.product_with_probe(
                &a,
                std::hint::black_box(&x),
                &mut y2,
            ));
        }
        t0.elapsed().as_nanos() as f64 / INNER as f64 / nnz
    };
    std::hint::black_box(burst_two_pass());
    std::hint::black_box(burst_probe_fused());
    let mut probe_two_pass = Vec::with_capacity(reps);
    let mut probe_fused = Vec::with_capacity(reps);
    for _ in 0..reps {
        probe_two_pass.push(burst_two_pass());
        probe_fused.push(burst_probe_fused());
    }
    let probe_speedup = min_of(&probe_two_pass) / min_of(&probe_fused);

    // Short variable rows: what `MatrixSpec::generate(16)` builds for
    // paper matrix 752 (n = 74752 / 16, 8 nonzeros per row on average).
    let short =
        gen::random_spd_illcond(4672, 8.0 / 4672.0, 4.0e2, 752).map_err(|e| e.to_string())?;
    let short_nnz = short.nnz().max(1) as f64;
    let xs = det_rhs(short.n_rows());
    let mut ys = vec![0.0; short.n_rows()];
    let mut order = RowOrder::new();
    order.rebuild(&short);
    let mut natural = DefensiveProduct::new(KernelSpec::Csr);
    let mut ordered = DefensiveProduct::with_row_order(KernelSpec::Csr, &order);
    let mut burst_short = |which: usize| {
        let t0 = Instant::now();
        for _ in 0..INNER {
            let xs = std::hint::black_box(&xs);
            match which {
                0 => short.spmv_into(xs, &mut ys),
                1 => {
                    std::hint::black_box(natural.product_with_probe(&short, xs, &mut ys));
                }
                _ => {
                    std::hint::black_box(ordered.product_with_probe(&short, xs, &mut ys));
                }
            }
        }
        t0.elapsed().as_nanos() as f64 / INNER as f64 / short_nnz
    };
    let mut short_samples: [Vec<f64>; 3] = Default::default();
    for which in 0..3 {
        std::hint::black_box(burst_short(which)); // untimed warmup
    }
    for _ in 0..reps {
        for (which, samples) in short_samples.iter_mut().enumerate() {
            samples.push(burst_short(which));
        }
    }
    let [short_csr, short_natural, short_ordered] = short_samples;

    Ok(SuiteResult {
        suite: "kernels".into(),
        spec: format!(
            "poisson2d({grid}) + paper:752:16-shaped short rows, {INNER}-product bursts, min of {reps}"
        ),
        measurements: vec![
            measurement("kernels.csr_ns_per_nnz", "ns/nnz", csr, true),
            measurement("kernels.sell8_ns_per_nnz", "ns/nnz", sell, true),
            measurement("kernels.bcsr2_ns_per_nnz", "ns/nnz", bcsr, true),
            measurement(
                "kernels.sweep_separate_ns_per_iter",
                "ns/iter",
                sweep_separate,
                true,
            ),
            measurement(
                "kernels.sweep_fused_ns_per_iter",
                "ns/iter",
                sweep_fused,
                true,
            ),
            measurement(
                "kernels.sweep_fused_speedup",
                "x",
                vec![sweep_speedup],
                false,
            ),
            measurement(
                "kernels.probe_two_pass_ns_per_nnz",
                "ns/nnz",
                probe_two_pass,
                true,
            ),
            measurement(
                "kernels.probe_fused_ns_per_nnz",
                "ns/nnz",
                probe_fused,
                true,
            ),
            measurement(
                "kernels.probe_fused_speedup",
                "x",
                vec![probe_speedup],
                false,
            ),
            measurement(
                "kernels.short_rows_csr_ns_per_nnz",
                "ns/nnz",
                short_csr,
                true,
            ),
            measurement(
                "kernels.short_rows_probe_ns_per_nnz",
                "ns/nnz",
                short_natural,
                true,
            ),
            measurement(
                "kernels.short_rows_probe_ordered_ns_per_nnz",
                "ns/nnz",
                short_ordered,
                true,
            ),
        ],
    })
}

/// Recording overhead on the resilient executor's hot path: the
/// identical faulted solve as baseline, with an explicit
/// `NoopRecorder`, and with a live `ActiveRecorder`. Parameters match
/// the legacy bench file's hand-recorded `telemetry_overhead` entry,
/// so `--against` comparisons line up.
///
/// The three variants are timed as *interleaved triples* — one
/// baseline, one noop, one active solve per sampling round — after an
/// untimed warmup of each, and the overhead headlines are the minimum
/// over the per-round ratios (the `solver-step` pairing policy).
/// Sampling one variant after the other let frequency drift between
/// the baseline run and the recorder runs swing the overhead by whole
/// percents —
/// including below zero, which is how a no-op recorder once "sped up"
/// the solve by 2.5% in a recorded entry.
pub fn telemetry_suite(grid: usize, iters: usize, reps: usize) -> Result<SuiteResult, String> {
    const ALPHA: f64 = 1.0 / 16.0;
    const SEED: u64 = 42;
    let a = gen::poisson2d(grid).map_err(|e| e.to_string())?;
    let b = det_rhs(a.n_rows());
    let mut cfg = ResilientConfig::new(Scheme::AbftCorrection, 8);
    cfg.stopping = StoppingCriterion::Absolute { eps: 0.0 };
    cfg.max_productive_iters = iters;
    let mut ws = SolverWorkspace::new();
    let mut rec = ActiveRecorder::new();

    // One timed solve of the requested variant; per-iteration ns.
    let mut time_one = |variant: u8| -> f64 {
        let mut inj = paper_injector(&a, ALPHA, SEED);
        let t0 = Instant::now();
        let executed = match variant {
            0 => solve_resilient_in(&a, &b, &cfg, Some(&mut inj), &mut ws).executed_iterations,
            1 => {
                solve_resilient_recorded(&a, &b, &cfg, Some(&mut inj), &mut ws, &mut NoopRecorder)
                    .executed_iterations
            }
            _ => {
                rec.reset();
                solve_resilient_recorded(&a, &b, &cfg, Some(&mut inj), &mut ws, &mut rec)
                    .executed_iterations
            }
        };
        t0.elapsed().as_nanos() as f64 / std::hint::black_box(executed).max(1) as f64
    };
    // Untimed warmup of every variant: page faults, workspace growth
    // and branch predictors settle before the first recorded sample.
    for v in 0..3 {
        std::hint::black_box(time_one(v));
    }
    let mut baseline = Vec::with_capacity(reps);
    let mut noop = Vec::with_capacity(reps);
    let mut active = Vec::with_capacity(reps);
    for _ in 0..reps {
        baseline.push(time_one(0));
        noop.push(time_one(1));
        active.push(time_one(2));
    }
    let best_ratio = |with: &[f64]| {
        baseline
            .iter()
            .zip(with)
            .map(|(b, w)| w / b)
            .fold(f64::INFINITY, f64::min)
    };
    let noop_pct = (best_ratio(&noop) - 1.0) * 100.0;
    let active_pct = (best_ratio(&active) - 1.0) * 100.0;
    Ok(SuiteResult {
        suite: "telemetry".into(),
        spec: format!(
            "poisson2d({grid}), correction, alpha 1/16, {iters} productive iters, min of {reps}"
        ),
        measurements: vec![
            measurement("telemetry.baseline_ns_per_iter", "ns/iter", baseline, true),
            measurement("telemetry.noop_ns_per_iter", "ns/iter", noop, true),
            measurement("telemetry.active_ns_per_iter", "ns/iter", active, true),
            measurement("telemetry.noop_overhead_pct", "%", vec![noop_pct], true),
            measurement("telemetry.active_overhead_pct", "%", vec![active_pct], true),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_engine::DefaultResolver;

    #[test]
    fn campaign_suite_measures_real_runs() {
        let spec = "name = bench-unit\nseed = 7\nreps = 2\nthreads = 1\n\
                    matrices = poisson2d:8\nschemes = detection\nalphas = 0\n";
        let r = run_campaign_suite("unit", spec, &DefaultResolver, 2).unwrap();
        assert_eq!(r.suite, "unit");
        assert_eq!(r.spec, spec);
        let elapsed = r
            .measurements
            .iter()
            .find(|m| m.key == "campaign.elapsed_secs")
            .unwrap();
        assert_eq!(elapsed.samples.len(), 2);
        assert!(elapsed.value > 0.0 && elapsed.lower_is_better);
        assert_eq!(elapsed.value, min_of(&elapsed.samples));
        let rate = r
            .measurements
            .iter()
            .find(|m| m.key == "campaign.reps_per_sec")
            .unwrap();
        assert!(!rate.lower_is_better && rate.value > 0.0);
        // The real pipeline timed at least the step phase.
        assert!(
            r.measurements
                .iter()
                .any(|m| m.key == "phase.step_total_ms"),
            "{:?}",
            r.measurements.iter().map(|m| &m.key).collect::<Vec<_>>()
        );
        // Non-timing fields are reproducible run to run.
        let r2 = run_campaign_suite("unit", spec, &DefaultResolver, 2).unwrap();
        let shape = |r: &SuiteResult| {
            (
                r.suite.clone(),
                r.spec.clone(),
                r.measurements
                    .iter()
                    .map(|m| (m.key.clone(), m.unit.clone(), m.lower_is_better))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(shape(&r), shape(&r2));
    }

    #[test]
    fn micro_suites_produce_positive_timings() {
        let s = solver_step_suite(12, 20, 2).unwrap();
        assert_eq!(s.measurements.len(), 3);
        assert!(s.measurements[0].value > 0.0);
        assert_eq!(s.measurements[1].samples.len(), 2);
        // The paired-sample overhead headline is the min over per-pair
        // ratios of the recorded samples, not the ratio of the mins.
        let ratio: Vec<f64> = s.measurements[0]
            .samples
            .iter()
            .zip(&s.measurements[1].samples)
            .map(|(l, m)| (m / l - 1.0) * 100.0)
            .collect();
        assert_eq!(s.measurements[2].value, min_of(&ratio));
        let t = telemetry_suite(12, 20, 2).unwrap();
        assert_eq!(t.measurements.len(), 5);
        assert!(t.measurements[0].value > 0.0);
        assert!(t.measurements.iter().all(|m| m.lower_is_better));
    }

    #[test]
    fn kernels_suite_measures_every_backend() {
        let r = kernels_suite(12, 2).unwrap();
        assert_eq!(r.suite, "kernels");
        assert_eq!(r.measurements.len(), 12);
        for m in &r.measurements {
            assert!(m.value > 0.0, "{}", m.key);
            if m.lower_is_better {
                assert_eq!(m.samples.len(), 2, "{}", m.key);
            }
        }
        let keys: Vec<&str> = r.measurements.iter().map(|m| m.key.as_str()).collect();
        for key in [
            "kernels.sweep_separate_ns_per_iter",
            "kernels.sweep_fused_ns_per_iter",
            "kernels.sweep_fused_speedup",
            "kernels.probe_two_pass_ns_per_nnz",
            "kernels.probe_fused_ns_per_nnz",
            "kernels.probe_fused_speedup",
            "kernels.short_rows_csr_ns_per_nnz",
            "kernels.short_rows_probe_ns_per_nnz",
            "kernels.short_rows_probe_ordered_ns_per_nnz",
        ] {
            assert!(keys.contains(&key), "missing {key}");
        }
        let speedups = r.measurements.iter().filter(|m| !m.lower_is_better).count();
        assert_eq!(speedups, 2);
    }
}
