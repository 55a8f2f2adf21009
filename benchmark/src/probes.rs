//! Micro-timings: direct calls into each layer's public functions on
//! the workload's own matrices.
//!
//! Every timing is the median of `probe_samples` samples, each sample a
//! burst long enough to sit far above timer resolution. Rates (`ns per
//! nnz`, `GB/s`) are total time over total work across the workload's
//! matrices; absolute costs (`*_ms`, `*_us`, bytes) are sums over them;
//! the `sim.t*_iters` ratios are means.

use std::hint::black_box;
use std::time::Instant;

use ftcg_abft::{ProtectedSpmv, SingleChecksum, TmrVector, XRef};
use ftcg_checkpoint::SnapshotSlot;
use ftcg_engine::grid::plan_config;
use ftcg_engine::inject::paper_injector;
use ftcg_engine::IntervalPolicy;
use ftcg_kernels::{DefensiveProduct, KernelSpec};
use ftcg_model::Scheme;
use ftcg_sim::matrices::by_id;
use ftcg_sim::measure::measure_costs;
use ftcg_solvers::resilient::solve_resilient_in;
use ftcg_solvers::SolverWorkspace;
use ftcg_sparse::{fused, vector};

use crate::host::Host;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workload::{derive, Sizing, System, SCHEMES};

const TAG_PROBE: u64 = 3;

/// Median nanoseconds per call of `f`.
fn time_ns(sizing: &Sizing, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1) as u64;
    let inner = (sizing.probe_sample_ns / one).clamp(1, 1 << 20);
    let samples: Vec<f64> = (0..sizing.probe_samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds of a one-shot operation (no bursts: each call
/// builds something).
fn time_once_ns<T>(sizing: &Sizing, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..sizing.probe_samples.min(5))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// `(total ns, total work)` accumulators keyed by metric name.
#[derive(Default)]
struct Acc(Vec<(&'static str, f64, f64)>);

impl Acc {
    fn add(&mut self, name: &'static str, ns: f64, work: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(e) => {
                e.1 += ns;
                e.2 += work;
            }
            None => self.0.push((name, ns, work)),
        }
    }

    fn get(&self, name: &str) -> (f64, f64) {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0.0, 0.0), |&(_, ns, w)| (ns, w))
    }

    fn rate(&self, name: &str) -> f64 {
        let (ns, work) = self.get(name);
        ns / work
    }
}

/// Largest triad array. Hosts that report a socket-wide shared cache
/// (260 MiB on the recording VM) would otherwise ask for gigabytes, and
/// first-touch page faults there cost ~25 us each: 20 s per run.
const TRIAD_MAX_ARRAY_BYTES: u64 = 128 << 20;

/// STREAM-style triad `a ← b + s·c` on arrays of four times the
/// reported last-level cache, capped at [`TRIAD_MAX_ARRAY_BYTES`] each
/// and at a quarter of RAM in total; all sizes are printed.
/// Single-threaded, like the serial kernels it is the roof for. Returns
/// computed GB/s (24 bytes per element, write-allocate not counted).
fn stream_triad_gbps(host: &Host, sizing: &Sizing) -> f64 {
    let want = 4 * host.llc_bytes().max(8 << 20);
    let cap = (host.ram_bytes / 4 / 3).clamp(1 << 20, TRIAD_MAX_ARRAY_BYTES);
    let bytes = if sizing.quick { 4 << 20 } else { want.min(cap) };
    let n = (bytes / 8) as usize;
    println!(
        "stream triad: 3 arrays of {:.0} MiB (reported LLC {:.0} MiB, 4 x LLC = {:.0} MiB, cap {:.0} MiB each)",
        bytes as f64 / (1 << 20) as f64,
        host.llc_bytes() as f64 / (1 << 20) as f64,
        want as f64 / (1 << 20) as f64,
        cap as f64 / (1 << 20) as f64
    );
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut pass = |s: f64| {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        t.elapsed().as_secs_f64()
    };
    pass(1.0); // faults the pages in
    let secs: Vec<f64> = (0..3).map(|k| pass(2.0 + k as f64)).collect();
    24.0 * n as f64 / median(&secs) / 1e9
}

/// Runs every micro-timing on `systems` and sets the per-layer metrics
/// that come from them. `alpha` is the workload's fault rate (the
/// injector probe uses 1/16 where the workload injects nothing).
pub fn run(
    systems: &[System],
    alpha: f64,
    seed: u64,
    sizing: &Sizing,
    host: &Host,
    m: &mut Metrics,
) {
    let mut acc = Acc::default();
    let alpha_probe = if alpha > 0.0 { alpha } else { 1.0 / 16.0 };
    let (mut image_bytes, mut ckpt_bytes) = (0.0, 0.0);
    let mut costs = Vec::new();
    let mut corrections = (0usize, 0usize);
    for (si, sys) in systems.iter().enumerate() {
        let a = sys.a.as_ref();
        let (n, nnz) = (a.n_rows() as f64, a.nnz() as f64);
        let x: Vec<f64> = (0..a.n_rows())
            .map(|i| 1.0 + (i as f64 * 0.23).sin())
            .collect();
        let mut y = vec![0.0; a.n_rows()];

        // sparse: the raw traversals.
        acc.add(
            "sparse.spmv",
            time_ns(sizing, || a.spmv_into(black_box(&x), &mut y)),
            nnz,
        );
        acc.add(
            "sparse.spmv_clamped_probe",
            time_ns(sizing, || {
                black_box(a.spmv_clamped_probe_into(black_box(&x), &mut y));
            }),
            nnz,
        );
        acc.add(
            "sparse.spmv_transpose",
            time_ns(sizing, || a.spmv_transpose_into(black_box(&x), &mut y)),
            nnz,
        );
        // The CG step's BLAS-1 work: p·q, the fused x/r update with
        // ‖r‖², and the direction update.
        let (mut xs, mut rs, mut ps) = (vec![0.0; x.len()], x.clone(), x.clone());
        let q: Vec<f64> = x.iter().map(|v| v * 0.5).collect();
        acc.add(
            "sparse.fused_sweeps",
            time_ns(sizing, || {
                black_box(vector::dot(&ps, &q));
                black_box(fused::axpy2_norm2_sq(
                    1e-3, &ps, &mut xs, -1e-3, &q, &mut rs,
                ));
                black_box(fused::xpay_norm2_sq(&rs, 0.5, &mut ps, &q));
            }),
            n,
        );
        let mut image = a.clone();
        image_bytes += a.memory_words() as f64 * 8.0;
        acc.add(
            "sparse.image_restore",
            time_ns(sizing, || image.copy_image_from(black_box(a))),
            a.memory_words() as f64 * 8.0,
        );

        // kernels: prepare once, then the prepared products.
        for (prep, run, spec) in [
            ("kernels.prepare", "kernels.csr", KernelSpec::Csr),
            (
                "kernels.prepare_sell8",
                "kernels.sell8",
                KernelSpec::Sell {
                    chunk: 8,
                    sigma: 32,
                },
            ),
            (
                "kernels.prepare_bcsr2",
                "kernels.bcsr2",
                KernelSpec::Bcsr { block: 2 },
            ),
            ("", "kernels.csr_par_t2", KernelSpec::CsrPar { threads: 2 }),
        ] {
            if !prep.is_empty() {
                acc.add(
                    prep,
                    time_once_ns(sizing, || spec.prepare(a).map(|_| ())),
                    1.0,
                );
            }
            let prepared = spec
                .prepare(a)
                .expect("paper matrices convert to every format");
            acc.add(
                run,
                time_ns(sizing, || prepared.spmv_into(black_box(&x), &mut y)),
                nnz,
            );
        }
        let mut defensive = DefensiveProduct::new(KernelSpec::Csr);
        acc.add(
            "kernels.defensive_probe",
            time_ns(sizing, || {
                black_box(defensive.product_with_probe(a, black_box(&x), &mut y));
            }),
            nnz,
        );

        // abft: checksum set-up, the two verifications, one forward
        // correction, one TMR vote.
        acc.add(
            "abft.setup",
            time_once_ns(sizing, || (ProtectedSpmv::new(a), SingleChecksum::new(a))),
            1.0,
        );
        let (protected, single) = (ProtectedSpmv::new(a), SingleChecksum::new(a));
        let xref = XRef::capture(&x);
        a.spmv_into(&x, &mut y);
        acc.add(
            "abft.verify_single",
            time_ns(sizing, || {
                black_box(single.verify(a, &x, &xref, &y));
            }),
            n,
        );
        acc.add(
            "abft.verify_dual",
            time_ns(sizing, || {
                black_box(protected.verify(a, &x, &xref, &y));
            }),
            n,
        );
        let mut xc = x.clone();
        let mut correct_ns = Vec::new();
        for k in 0..sizing.probe_samples {
            let at = (derive(seed, &[TAG_PROBE, si as u64, k as u64]) % a.nnz() as u64) as usize;
            let old = image.val()[at];
            image.val_mut()[at] = old * 3.0 + 1.0;
            protected.spmv(&image, &xc, &mut y);
            let res = protected.verify(&image, &xc, &xref, &y);
            if !res.clean() {
                let t = Instant::now();
                let outcome = protected.correct(&mut image, &mut xc, &xref, &mut y, &res);
                correct_ns.push(t.elapsed().as_nanos() as f64);
                corrections.0 += usize::from(outcome.is_trusted());
                corrections.1 += 1;
            }
            image.copy_image_from(a);
            xc.copy_from_slice(&x);
        }
        if !correct_ns.is_empty() {
            acc.add("abft.correct", median(&correct_ns), 1.0);
        }
        let mut tmr = TmrVector::new(&x);
        acc.add(
            "abft.tmr_vote",
            time_ns(sizing, || {
                black_box(tmr.vote());
            }),
            n,
        );

        // checkpoint: one save into a retained slot, one restore.
        let mut slot = SnapshotSlot::new();
        let save = |slot: &mut SnapshotSlot| {
            slot.begin_save().store(0, &x, &q, &x, 1.0, a);
            slot.commit();
        };
        save(&mut slot);
        let bytes = slot.latest().expect("just saved").size_words() as f64 * 8.0;
        ckpt_bytes += bytes;
        acc.add(
            "checkpoint.save",
            time_ns(sizing, || save(&mut slot)),
            bytes,
        );
        let state = slot.latest().expect("just saved");
        let (mut xa, mut ra, mut pa) = (x.clone(), x.clone(), x.clone());
        acc.add(
            "checkpoint.restore",
            time_ns(sizing, || {
                xa.copy_from_slice(&state.x);
                ra.copy_from_slice(&state.r);
                pa.copy_from_slice(&state.p);
                image.copy_image_from(&state.matrix);
            }),
            1.0,
        );

        // fault, model: the per-iteration fault plan, the interval plan.
        let mut injector = paper_injector(a, alpha_probe, derive(seed, &[TAG_PROBE, si as u64]));
        acc.add(
            "fault.plan_iteration",
            time_ns(sizing, || {
                black_box(injector.plan_iteration());
            }),
            1.0,
        );
        acc.add(
            "model.optimal_interval",
            time_ns(sizing, || {
                for s in SCHEMES {
                    black_box(plan_config(
                        s,
                        alpha_probe,
                        IntervalPolicy::ModelOptimal,
                        10_000,
                    ));
                }
            }),
            SCHEMES.len() as f64,
        );

        // solvers: what the first checkout on a fresh workspace costs
        // beyond the same single-iteration solve on a warm one.
        let mut cfg = plan_config(
            Scheme::AbftCorrection,
            alpha_probe,
            IntervalPolicy::ModelOptimal,
            10_000,
        );
        cfg.max_productive_iters = 1;
        let cold = time_once_ns(sizing, || {
            let mut ws = SolverWorkspace::new();
            solve_resilient_in(a, &sys.b, &cfg, None, &mut ws);
            ws
        });
        let mut ws = SolverWorkspace::new();
        solve_resilient_in(a, &sys.b, &cfg, None, &mut ws);
        let warm = time_once_ns(sizing, || {
            solve_resilient_in(a, &sys.b, &cfg, None, &mut ws)
        });
        acc.add("solvers.workspace_warmup", (cold - warm).max(0.0), 1.0);

        // sim: generation, and the paper's cost parameters as measured.
        if let Some((id, scale)) = parse_paper_label(&sys.label) {
            let spec = by_id(id).expect("label came from the paper table");
            acc.add(
                "sim.generate",
                time_once_ns(sizing, || spec.generate(scale)),
                1.0,
            );
        }
        costs.push(measure_costs(a, if sizing.quick { 2 } else { 6 }));
    }

    let triad = stream_triad_gbps(host, sizing);
    let mean = |f: fn(&ftcg_sim::measure::MeasuredCosts) -> f64| {
        costs.iter().map(f).sum::<f64>() / costs.len() as f64
    };
    // Computed bytes of one CSR product: values and 8-byte column
    // indices, the row pointers, x read once and y written once.
    let spmv_bytes: f64 = systems
        .iter()
        .map(|s| 16.0 * s.a.nnz() as f64 + 8.0 * (3 * s.a.n_rows() + 1) as f64)
        .sum();
    let spmv_gbps = spmv_bytes / acc.get("kernels.csr").0;

    m.set("sparse.spmv_ns_per_nnz", acc.rate("sparse.spmv"));
    m.set(
        "sparse.spmv_clamped_probe_ns_per_nnz",
        acc.rate("sparse.spmv_clamped_probe"),
    );
    m.set(
        "sparse.spmv_transpose_ns_per_nnz",
        acc.rate("sparse.spmv_transpose"),
    );
    m.set(
        "sparse.fused_sweeps_ns_per_elem",
        acc.rate("sparse.fused_sweeps"),
    );
    m.set("sparse.stream_triad_gbps", triad);
    m.set(
        "sparse.image_restore_gbps",
        1.0 / acc.rate("sparse.image_restore"),
    );
    m.set("sparse.image_bytes", image_bytes);
    m.set("kernels.csr_ns_per_nnz", acc.rate("kernels.csr"));
    m.set("kernels.sell8_ns_per_nnz", acc.rate("kernels.sell8"));
    m.set("kernels.bcsr2_ns_per_nnz", acc.rate("kernels.bcsr2"));
    m.set(
        "kernels.csr_par_t2_ns_per_nnz",
        acc.rate("kernels.csr_par_t2"),
    );
    m.set("kernels.prepare_ms", acc.get("kernels.prepare").0 / 1e6);
    m.set(
        "kernels.prepare_sell8_ms",
        acc.get("kernels.prepare_sell8").0 / 1e6,
    );
    m.set(
        "kernels.prepare_bcsr2_ms",
        acc.get("kernels.prepare_bcsr2").0 / 1e6,
    );
    m.set(
        "kernels.defensive_probe_ns_per_nnz",
        acc.rate("kernels.defensive_probe"),
    );
    m.set("kernels.spmv_gbps", spmv_gbps);
    m.set("kernels.spmv_roof_frac", spmv_gbps / triad);
    m.set("abft.setup_ms", acc.get("abft.setup").0 / 1e6);
    m.set(
        "abft.verify_single_ns_per_row",
        acc.rate("abft.verify_single"),
    );
    m.set("abft.verify_dual_ns_per_row", acc.rate("abft.verify_dual"));
    m.set("abft.correct_us", acc.get("abft.correct").0 / 1e3);
    m.set("abft.tmr_vote_ns_per_elem", acc.rate("abft.tmr_vote"));
    m.set("checkpoint.save_us", acc.get("checkpoint.save").0 / 1e3);
    m.set(
        "checkpoint.restore_us",
        acc.get("checkpoint.restore").0 / 1e3,
    );
    m.set("checkpoint.bytes", ckpt_bytes);
    m.set("checkpoint.save_gbps", 1.0 / acc.rate("checkpoint.save"));
    m.set("fault.plan_iteration_ns", acc.rate("fault.plan_iteration"));
    m.set(
        "model.optimal_interval_us",
        acc.rate("model.optimal_interval") / 1e3,
    );
    m.set(
        "solvers.workspace_warmup_ms",
        acc.get("solvers.workspace_warmup").0 / 1e6,
    );
    m.set("sim.generate_ms", acc.get("sim.generate").0 / 1e6);
    m.set(
        "sim.titer_us",
        costs.iter().map(|c| c.titer_secs).sum::<f64>() * 1e6,
    );
    m.set("sim.tverif_detect_iters", mean(|c| c.tverif_detect));
    m.set("sim.tverif_correct_iters", mean(|c| c.tverif_correct));
    m.set("sim.tverif_online_iters", mean(|c| c.tverif_online));
    m.set("sim.tcp_iters", mean(|c| c.tcp));
    m.set("sim.trec_iters", mean(|c| c.trec));
    println!(
        "probe: single-fault forward corrections {} of {} trusted",
        corrections.0, corrections.1
    );
}

/// `paper:ID:SCALE` → `(ID, SCALE)`.
fn parse_paper_label(label: &str) -> Option<(u32, usize)> {
    let mut parts = label.strip_prefix("paper:")?.split(':');
    Some((parts.next()?.parse().ok()?, parts.next()?.parse().ok()?))
}
