//! The fault-model choice. The paper's model (Section 5.1) strikes
//! every bit of the matrix arrays and the four CG vectors; the one
//! ablation, the calibrated matrix-only model of the model-validation
//! experiments, strikes the matrix arrays only, with value flips in the
//! top bits. An [`InjectorSpec`] names one of them (or none), and
//! [`Injector::new`] builds it.

use ftcg_sparse::CsrMatrix;

use crate::injector::Injector;

/// Which fault model drives an injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectorSpec {
    /// No injection, whatever α says.
    None,
    /// The paper's full fault model: matrix arrays plus the four CG
    /// vectors, any bit of a value.
    Paper,
    /// Matrix arrays only, value flips confined to the top 12 bits, so
    /// every fault is large and detectable — the abstract model's
    /// assumption that any error in a chunk is caught by the
    /// verification (ablation A4).
    Calibrated,
}

/// The paper's fault model at `alpha` expected faults per iteration, for
/// callers that always inject: [`Injector::new`] with
/// [`InjectorSpec::Paper`], minus the `Option` (at `alpha = 0` it never
/// fires).
///
/// # Panics
/// Panics if `alpha` is negative or not finite.
pub fn paper_injector(a: &CsrMatrix, alpha: f64, seed: u64) -> Injector {
    Injector::drawing(false, a, alpha, seed)
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
    fn calibrated_model_is_matrix_only() {
        let a = gen::random_spd(60, 0.05, 2).unwrap();
        let mut inj = Injector::new(InjectorSpec::Calibrated, &a, 0.5, 3).unwrap();
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

    /// `paper_injector_stream_is_pinned` for the calibrated model,
    /// captured from the build before `Injector::new` replaced the
    /// per-model recipe functions.
    #[test]
    fn calibrated_stream_is_pinned() {
        use FaultTarget::{MatrixColid as Colid, MatrixRowidx as Rowidx, MatrixVal as Val};
        let want = [
            (Val, 21, 57),
            (Rowidx, 1, 2),
            (Val, 81, 52),
            (Val, 101, 62),
            (Colid, 284, 3),
            (Colid, 115, 5),
            (Val, 198, 61),
            (Val, 216, 62),
            (Colid, 35, 0),
            (Val, 180, 61),
            (Colid, 241, 9),
            (Colid, 132, 1),
            (Colid, 117, 0),
            (Val, 4, 57),
            (Val, 63, 63),
            (Val, 48, 58),
            (Colid, 287, 1),
            (Val, 206, 61),
            (Val, 78, 59),
            (Val, 264, 52),
            (Rowidx, 45, 1),
            (Colid, 77, 2),
            (Colid, 103, 8),
            (Colid, 129, 1),
            (Val, 151, 53),
            (Colid, 232, 3),
            (Colid, 220, 3),
            (Colid, 206, 7),
            (Rowidx, 33, 5),
            (Colid, 4, 5),
            (Val, 190, 52),
            (Val, 103, 61),
        ];
        let a = gen::poisson2d(8).unwrap();
        let mut inj = Injector::new(InjectorSpec::Calibrated, &a, 0.5, 77).unwrap();
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

    /// `Injector::new` builds nothing that would never strike, and
    /// `paper_injector` is its `Paper` instance.
    #[test]
    fn new_returns_none_when_nothing_strikes() {
        let a = gen::poisson2d(8).unwrap();
        for spec in [
            InjectorSpec::None,
            InjectorSpec::Paper,
            InjectorSpec::Calibrated,
        ] {
            assert!(Injector::new(spec, &a, 0.0, 1).is_none(), "{spec:?}");
        }
        assert!(Injector::new(InjectorSpec::None, &a, 0.5, 1).is_none());
        let mut new = Injector::new(InjectorSpec::Paper, &a, 0.5, 77).unwrap();
        let mut recipe = paper_injector(&a, 0.5, 77);
        for _ in 0..50 {
            assert_eq!(new.plan_iteration(), recipe.plan_iteration());
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be >= 0")]
    fn new_rejects_a_negative_alpha() {
        let a = gen::poisson2d(4).unwrap();
        let _ = Injector::new(InjectorSpec::Paper, &a, -0.5, 1);
    }
}
