//! The allocation gate: a counting global allocator proving the
//! zero-allocation claims of the workspace pipeline.
//!
//! Eight claims are pinned:
//!
//! 1. a plain CG machine step allocates nothing — the machine owns all
//!    its vectors and every kernel writes into caller buffers;
//! 2. a *steady-state* resilient CG iteration (no fault, no rollback;
//!    checkpoints included — they copy into retained slot buffers)
//!    allocates nothing: two fault-free solves on a warm workspace that
//!    differ only in their iteration budget (10 vs 60 productive
//!    iterations, checkpoints taken throughout) must perform exactly
//!    the same number of allocations;
//! 3. recording telemetry through a pre-allocated `ActiveRecorder`
//!    (phase timers, histograms, the bounded event ring) adds *zero*
//!    allocations to the warm solve — the `Recorder` contract's
//!    no-allocation-after-construction clause, enforced;
//! 4. the fused one-pass BLAS-1 sweep of the step (`axpy2_norm2_sq`)
//!    allocates nothing — the fusion rewrites may not introduce
//!    temporaries; claim 1's loop runs it, so claim 1 is its check;
//! 5. the fused product-with-probe verification path (hardened kernel
//!    computes the `[Σyᵢ, Σ(i+1)yᵢ]` probe in-pass, `verify_probed`
//!    consumes it) is allocation-free at steady state for both ABFT
//!    schemes — claim 2 pins the detection scheme, and a correction
//!    (`ProtectedSpmv::verify_probed`) solve must likewise show an
//!    iteration-count-invariant allocation count on a warm workspace;
//! 6. a steady-state ONLINE-DETECTION chunk — `d` unverified iterations
//!    and Chen's stability tests, whose recomputed residual is consumed
//!    band by band from a stack buffer — allocates nothing, by the same
//!    10-vs-60 technique;
//! 7. the workspace's buffers are shared by every shape and kept at
//!    their high-water capacity: once two shapes have each been solved,
//!    alternating between them allocates exactly what repeating each
//!    one does — no per-shape buffer is ever re-created. The row visit
//!    order of the defensive product is one of them: rebuilt at every
//!    `SolverWorkspace::reset`, 4 bytes per row of the largest matrix,
//!    never regrown by the same or a smaller matrix;
//! 8. generating a random SPD matrix (`gen::random_spd`, behind every
//!    paper matrix) peaks at no more than twice the live heap of the
//!    matrix it returns: the pair keys and the CSR arrays, with no
//!    triplet copy or second CSR beside them.
//!
//! The file holds a single `#[test]` on purpose: the counter is
//! process-global, and sibling tests running on other threads would
//! pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ftcg_model::Scheme;
use ftcg_solvers::machine::{PlainContext, StepResult};
use ftcg_solvers::resilient::{solve_resilient_in, solve_resilient_recorded, ResilientConfig};
use ftcg_solvers::{CgMachine, SolverWorkspace, StoppingCriterion};
use ftcg_sparse::gen;
use ftcg_telemetry::ActiveRecorder;

/// Counts heap allocations (alloc + realloc) while enabled, and keeps
/// the live and peak heap bytes at all times.
struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

#[expect(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; every method forwards its arguments unchanged to System and only counts"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns the number of
/// allocations it performed.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), out)
}

/// Runs `f`; returns how far the live heap rose above its level at the
/// call, at its highest.
fn peak_heap_growth<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (PEAK.load(Ordering::SeqCst) - base, out)
}

#[test]
fn steady_state_cg_iterations_allocate_nothing() {
    let a = gen::random_spd(120, 0.05, 9).unwrap();
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.23).sin()).collect();

    // Claims 1 and 4: the bare machine loop, its fused sweep included,
    // is allocation-free.
    let mut ctx = PlainContext { a: &a };
    let mut machine = CgMachine::start_zero(&b);
    for _ in 0..3 {
        assert_eq!(machine.step(&mut ctx), StepResult::Done); // warm-up
    }
    let (steps_allocs, _) = count_allocs(|| {
        for _ in 0..50 {
            assert_eq!(machine.step(&mut ctx), StepResult::Done);
        }
    });
    assert_eq!(
        steps_allocs, 0,
        "a plain CG machine step must not touch the allocator"
    );

    // Claim 2: steady-state executor iterations (checkpoints included)
    // are allocation-free — iteration count must not change the solve's
    // allocation count on a warm workspace.
    let cfg_for = |iters: usize| {
        let mut cfg = ResilientConfig::new(Scheme::AbftDetection, 2);
        // Never converges: every run exhausts exactly its budget.
        cfg.stopping = StoppingCriterion::Absolute { eps: 0.0 };
        cfg.max_productive_iters = iters;
        cfg.max_executed_iters = 10 * iters;
        cfg
    };
    let mut ws = SolverWorkspace::new();
    // Warm the workspace: first solve sizes every retained buffer.
    let warmup = solve_resilient_in(&a, &b, &cfg_for(60), None, &mut ws);
    assert_eq!(warmup.executed_iterations, 60);
    assert!(warmup.checkpoints > 0, "gate must cover checkpoint copies");

    let (short_allocs, short) =
        count_allocs(|| solve_resilient_in(&a, &b, &cfg_for(10), None, &mut ws));
    let (long_allocs, long) =
        count_allocs(|| solve_resilient_in(&a, &b, &cfg_for(60), None, &mut ws));
    assert_eq!(short.executed_iterations, 10);
    assert_eq!(long.executed_iterations, 60);
    assert!(long.checkpoints > short.checkpoints);
    assert_eq!(
        long_allocs,
        short_allocs,
        "50 extra steady-state iterations (with {} extra checkpoints) must \
         allocate nothing: {} allocs at 10 iters vs {} at 60",
        long.checkpoints - short.checkpoints,
        short_allocs,
        long_allocs
    );

    // Sanity: the warm path allocates strictly less than a cold one.
    let (cold_allocs, _) = count_allocs(|| {
        let mut fresh = SolverWorkspace::new();
        solve_resilient_in(&a, &b, &cfg_for(60), None, &mut fresh)
    });
    assert!(
        long_allocs < cold_allocs,
        "warm workspace ({long_allocs} allocs) must beat cold ({cold_allocs})"
    );

    // Claim 3: telemetry does not re-open the allocator. An active
    // recorder is pre-allocated at construction (counter arrays, fixed
    // histograms, bounded event ring); recording phases and events
    // through a whole resilient solve must leave the allocation count
    // exactly where the un-instrumented warm solve put it.
    let mut rec = ActiveRecorder::new();
    let warm_traced = solve_resilient_recorded(&a, &b, &cfg_for(60), None, &mut ws, &mut rec);
    assert_eq!(warm_traced.executed_iterations, 60);
    rec.reset();
    let (recorded_allocs, recorded) =
        count_allocs(|| solve_resilient_recorded(&a, &b, &cfg_for(60), None, &mut ws, &mut rec));
    assert_eq!(recorded.executed_iterations, 60);
    assert!(
        recorded.checkpoints > 0,
        "recorded gate must cover checkpoint events"
    );
    assert!(
        rec.dropped() == 0 && !rec.histogram(ftcg_telemetry::Phase::Step).is_empty(),
        "recorder must actually have recorded"
    );
    assert_eq!(
        recorded_allocs, long_allocs,
        "an active recorder must not add a single allocation to the warm \
         solve: {long_allocs} allocs un-instrumented vs {recorded_allocs} recorded"
    );

    // Claim 5: the correction scheme's fused-probe verification
    // (`ProtectedSpmv::verify_probed` fed by the kernel's in-pass
    // probe) is steady-state allocation-free, same 10-vs-60 technique
    // as claim 2.
    let corr_for = |iters: usize| {
        let mut cfg = ResilientConfig::new(Scheme::AbftCorrection, 2);
        cfg.stopping = StoppingCriterion::Absolute { eps: 0.0 };
        cfg.max_productive_iters = iters;
        cfg.max_executed_iters = 10 * iters;
        cfg
    };
    let warm_corr = solve_resilient_in(&a, &b, &corr_for(60), None, &mut ws);
    assert_eq!(warm_corr.executed_iterations, 60);
    let (cshort_allocs, cshort) =
        count_allocs(|| solve_resilient_in(&a, &b, &corr_for(10), None, &mut ws));
    let (clong_allocs, clong) =
        count_allocs(|| solve_resilient_in(&a, &b, &corr_for(60), None, &mut ws));
    assert_eq!(cshort.executed_iterations, 10);
    assert_eq!(clong.executed_iterations, 60);
    assert_eq!(
        clong_allocs, cshort_allocs,
        "50 extra probe-verified correction iterations must allocate \
         nothing: {cshort_allocs} allocs at 10 iters vs {clong_allocs} at 60"
    );

    // Claim 6: ONLINE-DETECTION chunks (d = 3 iterations, then Chen's
    // tests with the recomputed residual) are steady-state
    // allocation-free.
    let online_for = |iters: usize| {
        let mut cfg = ResilientConfig::new(Scheme::OnlineDetection, 2);
        cfg.verif_interval = 3;
        cfg.stopping = StoppingCriterion::Absolute { eps: 0.0 };
        cfg.max_productive_iters = iters;
        cfg.max_executed_iters = 10 * iters;
        cfg
    };
    let warm_online = solve_resilient_in(&a, &b, &online_for(60), None, &mut ws);
    assert_eq!(warm_online.executed_iterations, 60);
    let (oshort_allocs, oshort) =
        count_allocs(|| solve_resilient_in(&a, &b, &online_for(10), None, &mut ws));
    let (olong_allocs, olong) =
        count_allocs(|| solve_resilient_in(&a, &b, &online_for(60), None, &mut ws));
    assert_eq!(olong.rollbacks, 0, "a fault-free run must verify clean");
    assert!(olong.chunk_checks >= oshort.chunk_checks + 16);
    assert_eq!(
        olong_allocs,
        oshort_allocs,
        "{} extra ONLINE-DETECTION chunk verifications must allocate \
         nothing: {oshort_allocs} allocs at 10 iters vs {olong_allocs} at 60",
        olong.chunk_checks - oshort.chunk_checks
    );

    // Claim 7: one set of buffers serves every shape. `ws` has solved
    // the 120-row system under all three schemes; after one solve of a
    // smaller system (fewer rows *and* nonzeros), going back and forth
    // costs what staying put does.
    let a2 = gen::random_spd(90, 0.06, 4).unwrap();
    let b2: Vec<f64> = (0..90).map(|i| 1.0 + (i as f64 * 0.31).cos()).collect();
    assert!(a2.nnz() < a.nnz());
    let cfg = cfg_for(20);
    assert_eq!(ws.retained_order_bytes(), 4 * a.n_rows());
    solve_resilient_in(&a2, &b2, &cfg, None, &mut ws);
    assert_eq!(
        ws.retained_order_bytes(),
        4 * a.n_rows(),
        "a smaller matrix reuses the order buffer"
    );
    let mut run = |large: bool| {
        let (m, rhs) = if large { (&a, &b) } else { (&a2, &b2) };
        count_allocs(|| solve_resilient_in(m, rhs, &cfg, None, &mut ws)).0
    };
    run(true); // the shape switch itself is covered by the alternation
    let repeat_large = run(true);
    run(false);
    let repeat_small = run(false);
    let alternating = [run(true), run(false), run(true), run(false)];
    assert_eq!(
        alternating,
        [repeat_large, repeat_small, repeat_large, repeat_small],
        "switching shapes must not re-create a buffer"
    );
    assert_eq!(ws.retained_order_bytes(), 4 * a.n_rows());

    // Claim 8: generation holds the returned matrix plus its pair keys,
    // never a pair tree, a triplet copy and a second CSR beside it.
    let (peak, m) = peak_heap_growth(|| gen::random_spd(4000, 0.01, 7).unwrap());
    let matrix_bytes = 12 * m.nnz() + 4 * (m.n_rows() + 1);
    assert_eq!(matrix_bytes, m.image_bytes());
    assert!(
        peak <= 2 * matrix_bytes,
        "random_spd peaked at {peak} B of live heap, {:.2}x the {matrix_bytes} B matrix \
         it returns (at most 2x)",
        peak as f64 / matrix_bytes as f64
    );
}
