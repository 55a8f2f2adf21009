//! The two injector recipes the experiments use: the paper's fault
//! model and the calibrated matrix-only variant of the model-validation
//! ablation.

use ftcg_sparse::CsrMatrix;

use crate::bitflip::BitRange;
use crate::injector::{Injector, InjectorConfig};
use crate::mtbf::FaultRate;
use crate::target::MemoryLayout;

/// The memory layout / fault rate used by all experiments: matrix arrays
/// plus the four CG vectors, `α` faults per iteration in expectation.
pub fn paper_injector(a: &CsrMatrix, alpha: f64, seed: u64) -> Injector {
    let layout = MemoryLayout::with_vectors(a.nnz(), a.n_rows());
    let rate = FaultRate::from_alpha(alpha, layout.total_words());
    let cfg = InjectorConfig {
        rate,
        value_bits: BitRange::Full,
        index_bits: BitRange::for_index_bound(a.n_cols().max(a.nnz() + 1)),
        include_vectors: true,
    };
    Injector::for_matrix(cfg, a, seed)
}

/// A calibrated injector for model-validation experiments: faults strike
/// the matrix arrays only, and value flips are confined to the top bits,
/// so every fault is large and detectable — matching the abstract
/// model's assumption that any error in a chunk is caught by the
/// verification (ablation A4).
pub fn calibrated_injector(a: &CsrMatrix, alpha: f64, seed: u64) -> Injector {
    let layout = MemoryLayout::matrix_only(a.nnz(), a.n_rows());
    let rate = FaultRate::from_alpha(alpha, layout.total_words());
    let cfg = InjectorConfig {
        rate,
        value_bits: BitRange::High(12),
        index_bits: BitRange::for_index_bound(a.n_cols().max(a.nnz() + 1)),
        include_vectors: false,
    };
    Injector::for_matrix(cfg, a, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{FaultTarget, VectorId};
    use ftcg_sparse::gen;

    #[test]
    fn paper_injector_matches_alpha() {
        let a = gen::random_spd(60, 0.05, 1).unwrap();
        let mut inj = paper_injector(&a, 0.125, 3);
        let iters = 40_000;
        let total: usize = (0..iters).map(|_| inj.plan_iteration().len()).sum();
        let emp = total as f64 / iters as f64;
        assert!((emp - 0.125).abs() < 0.01, "empirical alpha {emp}");
    }

    #[test]
    fn calibrated_injector_is_matrix_only() {
        let a = gen::random_spd(60, 0.05, 2).unwrap();
        let mut inj = calibrated_injector(&a, 0.5, 3);
        for _ in 0..5_000 {
            for e in inj.plan_iteration() {
                assert!(e.target.is_matrix(), "vector fault {e:?}");
                if e.target == FaultTarget::MatrixVal {
                    assert!(e.bit >= 52, "value flip below the top 12 bits: {e:?}");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = gen::random_spd(80, 0.05, 3).unwrap();
        let mut i1 = paper_injector(&a, 0.5, 77);
        let mut i2 = paper_injector(&a, 0.5, 77);
        for _ in 0..50 {
            assert_eq!(i1.plan_iteration(), i2.plan_iteration());
        }
    }

    /// The campaign artifacts see the fault stream only through their
    /// results; this pins the stream itself: the first 32 events of one
    /// seeded paper injector, in draw order.
    #[test]
    fn paper_injector_stream_is_pinned() {
        use FaultTarget::{MatrixColid as Colid, MatrixRowidx as Rowidx, MatrixVal as Val, Vector};
        use VectorId::{P, Q, R, X};
        let want = [
            (Val, 29, 31),
            (Vector(P), 39, 16),
            (Val, 113, 3),
            (Val, 142, 55),
            (Vector(P), 31, 23),
            (Colid, 275, 5),
            (Val, 278, 50),
            (Colid, 15, 9),
            (Colid, 164, 0),
            (Val, 252, 51),
            (Vector(Q), 36, 57),
            (Rowidx, 12, 1),
            (Colid, 279, 0),
            (Val, 6, 27),
            (Val, 89, 60),
            (Val, 67, 32),
            (Vector(P), 36, 6),
            (Colid, 1, 9),
            (Val, 109, 41),
            (Colid, 81, 0),
            (Vector(X), 37, 7),
            (Colid, 223, 2),
            (Colid, 259, 8),
            (Rowidx, 8, 1),
            (Val, 211, 9),
            (Vector(Q), 23, 18),
            (Vector(Q), 7, 17),
            (Vector(R), 51, 41),
            (Vector(X), 20, 32),
            (Colid, 120, 5),
            (Val, 266, 5),
            (Val, 144, 50),
        ];
        let a = gen::poisson2d(8).unwrap();
        let mut inj = paper_injector(&a, 0.5, 77);
        let mut got = Vec::new();
        let mut iterations = 0;
        while got.len() < want.len() {
            got.extend(
                inj.plan_iteration()
                    .into_iter()
                    .map(|e| (e.target, e.offset, e.bit)),
            );
            iterations += 1;
        }
        got.truncate(want.len());
        assert_eq!(got, want);
        assert_eq!(iterations, 53);
    }
}
