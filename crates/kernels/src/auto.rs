//! The `auto` kernel's brain: a deterministic structural heuristic.
//!
//! The heuristic keys on the same quantities
//! [`MatrixStats`](ftcg_sparse::stats::MatrixStats) reports — order,
//! nonzeros, average/maximum row nnz — plus the 2×2/4×4 block fill
//! ratios ([`ftcg_sparse::bcsr::block_fill_ratio`]). `ftcg stats` prints
//! the resulting recommendation with its reason, so users can see *why*
//! a backend was chosen.

use ftcg_sparse::bcsr::block_fill_ratio;
use ftcg_sparse::CsrMatrix;

use crate::spec::KernelSpec;

/// A kernel choice with its justification.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The chosen backend.
    pub spec: KernelSpec,
    /// Human-readable reason (printed by `ftcg stats`).
    pub reason: String,
}

/// Below this order the conversion / thread-spawn overhead dominates a
/// product and serial CSR wins.
pub const SMALL_N: usize = 2048;
/// 4×4 blocking pays off above this fill ratio.
pub const BCSR4_MIN_FILL: f64 = 0.5;
/// 2×2 blocking pays off above this fill ratio.
pub const BCSR2_MIN_FILL: f64 = 0.6;
/// Rows count as "regular" (SELL-friendly, low padding) when the
/// maximum row length is within this factor of the average.
pub const SELL_MAX_SKEW: f64 = 3.0;

/// Deterministic recommendation from the structural statistics alone.
/// This is the exact decision procedure of the `auto` kernel; same
/// matrix ⇒ same choice, on every machine.
pub fn heuristic(
    n: usize,
    nnz: usize,
    avg_row_nnz: f64,
    max_row_nnz: usize,
    fill2: f64,
    fill4: f64,
) -> Recommendation {
    if n < SMALL_N || nnz < 8 * SMALL_N {
        return Recommendation {
            spec: KernelSpec::Csr,
            reason: format!(
                "n={n}, nnz={nnz}: too small to amortize conversion or threading \
                 (thresholds n≥{SMALL_N}, nnz≥{})",
                8 * SMALL_N
            ),
        };
    }
    if fill4 >= BCSR4_MIN_FILL {
        return Recommendation {
            spec: KernelSpec::Bcsr { block: 4 },
            reason: format!(
                "4x4 block fill ratio {fill4:.2} ≥ {BCSR4_MIN_FILL}: dense register tiles"
            ),
        };
    }
    if fill2 >= BCSR2_MIN_FILL {
        return Recommendation {
            spec: KernelSpec::Bcsr { block: 2 },
            reason: format!(
                "2x2 block fill ratio {fill2:.2} ≥ {BCSR2_MIN_FILL}: dense register tiles"
            ),
        };
    }
    if (max_row_nnz as f64) <= SELL_MAX_SKEW * avg_row_nnz.max(1.0) {
        return Recommendation {
            spec: KernelSpec::Sell {
                chunk: KernelSpec::DEFAULT_SELL_CHUNK,
                sigma: KernelSpec::DEFAULT_SELL_SIGMA,
            },
            reason: format!(
                "regular rows (max {max_row_nnz} ≤ {SELL_MAX_SKEW}×avg {avg_row_nnz:.1}): \
                 lockstep SELL lanes with low padding"
            ),
        };
    }
    Recommendation {
        spec: KernelSpec::CsrPar { threads: 0 },
        reason: format!(
            "irregular rows (max {max_row_nnz} > {SELL_MAX_SKEW}×avg {avg_row_nnz:.1}): \
             nnz-balanced row partitioning across threads"
        ),
    }
}

/// Recommends a backend for `a` (the `auto` kernel's decision).
pub fn recommend(a: &CsrMatrix) -> Recommendation {
    let n = a.n_rows();
    let nnz = a.nnz();
    let avg = if n == 0 { 0.0 } else { nnz as f64 / n as f64 };
    let max_row = (0..n).map(|i| a.row_range(i).len()).max().unwrap_or(0);
    let (fill2, fill4) = if nnz == 0 {
        (1.0, 1.0)
    } else {
        (block_fill_ratio(a, 2), block_fill_ratio(a, 4))
    };
    heuristic(n, nnz, avg, max_row, fill2, fill4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    #[test]
    fn small_matrices_stay_on_csr() {
        let a = gen::poisson2d(10).unwrap();
        let r = recommend(&a);
        assert_eq!(r.spec, KernelSpec::Csr);
        assert!(r.reason.contains("too small"));
    }

    #[test]
    fn heuristic_prefers_bcsr_on_dense_blocks() {
        let r = heuristic(100_000, 1_000_000, 10.0, 12, 0.9, 0.7);
        assert_eq!(r.spec, KernelSpec::Bcsr { block: 4 });
        let r = heuristic(100_000, 1_000_000, 10.0, 12, 0.8, 0.3);
        assert_eq!(r.spec, KernelSpec::Bcsr { block: 2 });
    }

    #[test]
    fn heuristic_prefers_sell_on_regular_rows() {
        let r = heuristic(100_000, 1_000_000, 10.0, 20, 0.2, 0.1);
        assert!(matches!(r.spec, KernelSpec::Sell { .. }), "{r:?}");
    }

    #[test]
    fn heuristic_prefers_threads_on_irregular_rows() {
        let r = heuristic(100_000, 1_000_000, 10.0, 5_000, 0.2, 0.1);
        assert_eq!(r.spec, KernelSpec::CsrPar { threads: 0 });
    }

    #[test]
    fn recommendation_is_deterministic() {
        let a = gen::random_spd(300, 0.03, 5).unwrap();
        assert_eq!(recommend(&a), recommend(&a));
    }
}
