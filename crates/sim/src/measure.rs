//! Measures the real relative costs of the resilience machinery on a
//! given matrix: the `Tverif`/`Tcp`/`Trec` of the performance model in
//! units of one CG iteration.
//!
//! The paper takes these as abstract parameters. No planner reads these
//! measurements: every front end plans with a fixed
//! `ftcg_model::CostProfile`, and the benchmark reports the measured
//! values as its `sim.*_iters` per-layer metrics, which disagree with
//! both profiles.
#![expect(
    clippy::disallowed_methods,
    reason = "Tcp/Trec cost measurement harness"
)]

use std::time::Instant;

use ftcg_abft::{ProtectedSpmv, SingleChecksum, XRef};
use ftcg_sparse::{vector, CsrMatrix};

/// Measured per-matrix cost profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCosts {
    /// Raw CG iteration cost in seconds (SpMxV + 2 dots + 3 axpys).
    pub titer_secs: f64,
    /// Single-checksum verification overhead, in iterations.
    pub tverif_detect: f64,
    /// Dual-checksum verification overhead, in iterations.
    pub tverif_correct: f64,
    /// ONLINE-DETECTION verification (residual recompute + tests), iters.
    pub tverif_online: f64,
    /// Checkpoint cost (copy of the iteration vectors), iterations.
    pub tcp: f64,
    /// Recovery cost (vectors back, matrix image re-read from the
    /// pristine input), iterations.
    pub trec: f64,
}

fn time_it<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warm-up, then the fastest of `reps` individually timed calls:
    // the kernels are deterministic and interference (a preemption, a
    // cache eviction) only ever adds time, so the minimum is the
    // undisturbed cost. A mean lets one preempted call skew a ratio.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Measures all costs on the given matrix. `reps` controls timing
/// stability (10–50 is plenty; kernels are deterministic).
pub fn measure_costs(a: &CsrMatrix, reps: usize) -> MeasuredCosts {
    let n = a.n_rows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin() + 1.0).collect();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
    let mut y = vec![0.0; n];
    let mut w = x.clone();

    // Raw iteration: 1 SpMxV + 2 dots + 3 axpys.
    let titer = time_it(reps, || {
        a.spmv_into(&x, &mut y);
        let _ = std::hint::black_box(vector::dot(&x, &y));
        let _ = std::hint::black_box(vector::norm2_sq(&y));
        vector::axpy(0.5, &y, &mut w);
        vector::axpy(-0.5, &y, &mut w);
        vector::axpy(0.25, &x, &mut w);
    });

    // ABFT verifications (kernel excluded: overhead only).
    let protected = ProtectedSpmv::new(a);
    let single = SingleChecksum::new(a);
    let xref = XRef::capture(&x);
    a.spmv_into(&x, &mut y);
    let t_detect = time_it(reps, || {
        let _ = std::hint::black_box(single.verify(a, &x, &xref, &y));
    });
    let t_correct = time_it(reps, || {
        let _ = std::hint::black_box(protected.verify(a, &x, &xref, &y));
    });
    // TMR adds ~2 extra passes over the vector ops; charge that to the
    // ABFT schemes' verification overhead for honesty.
    let t_tmr_extra = time_it(reps, || {
        let _ = std::hint::black_box(vector::dot(&x, &y));
        let _ = std::hint::black_box(vector::dot(&x, &y));
        let _ = std::hint::black_box(vector::norm2_sq(&y));
        let _ = std::hint::black_box(vector::norm2_sq(&y));
    });

    // ONLINE-DETECTION verification: residual recompute (SpMxV) + tests.
    let t_online = time_it(reps, || {
        a.spmv_into(&w, &mut y);
        let mut drift = 0.0f64;
        for i in 0..n {
            drift = drift.max((b[i] - y[i]).abs());
        }
        let _ = std::hint::black_box(drift);
        let _ = std::hint::black_box(vector::dot(&x, &y));
    });

    // Checkpoint: copy the iteration vectors into the retained
    // snapshot buffer (the checkpoint's matrix is the pristine input
    // itself). Recovery: copy them back and restore the corruptible
    // image *in place* from the pristine matrix — exactly the
    // allocation-free paths the executor runs.
    let mut snapshot = ftcg_checkpoint::SolverState::empty();
    let t_cp = time_it(reps, || {
        snapshot.store_vectors(0, &x, &b, &w, 1.0);
    });
    let mut xa = x.clone();
    let mut ra = b.clone();
    let mut pa = w.clone();
    let mut am = a.clone();
    let t_rec = time_it(reps, || {
        xa.copy_from_slice(&snapshot.x);
        ra.copy_from_slice(&snapshot.r);
        pa.copy_from_slice(&snapshot.p);
        am.copy_image_from(a);
    });

    let per_iter = |t: f64| (t / titer).max(1e-6);
    MeasuredCosts {
        titer_secs: titer,
        tverif_detect: per_iter(t_detect + t_tmr_extra),
        tverif_correct: per_iter(t_correct + t_tmr_extra),
        tverif_online: per_iter(t_online),
        tcp: per_iter(t_cp),
        trec: per_iter(t_rec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    #[test]
    fn costs_have_sane_relative_order() {
        let a = gen::random_spd(1500, 0.008, 7).unwrap();
        let c = measure_costs(&a, 5);
        assert!(c.titer_secs > 0.0);
        // The dual checksum costs at least as much as the single one
        // (allow timing noise of 3x).
        assert!(c.tverif_correct > 0.0 && c.tverif_detect > 0.0);
        assert!(c.tverif_correct < 3.0 * (c.tverif_detect + 1.0));
        // Online verification contains a full SpMxV: roughly >= 0.2 iter.
        assert!(
            c.tverif_online > 0.1,
            "online verification {} should cost a large fraction of Titer",
            c.tverif_online
        );
        // ABFT checksum tests are cheaper than the online residual check.
        assert!(
            c.tverif_detect < c.tverif_online * 2.0,
            "detect {} vs online {}",
            c.tverif_detect,
            c.tverif_online
        );
        // A checkpoint copies three vectors; a recovery copies them
        // back *and* re-reads the whole matrix image.
        assert!(c.tcp > 0.0 && c.trec > 0.0);
        assert!(c.tcp < c.trec, "tcp {} vs trec {}", c.tcp, c.trec);
    }
}
