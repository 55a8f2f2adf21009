//! Row-partitioned parallel SpMxV.
//!
//! Section 1 of the paper argues that in a message-passing implementation
//! every processor holds a block of rows plus the needed input-vector
//! entries, and that *local* detection/correction implies *global*
//! detection/correction. This module reproduces that structure on shared
//! memory: rows are split into contiguous blocks, one scoped thread per
//! block, each writing a disjoint slice of `y`. Only the
//! benchmark's `csr-par` probe (`ftcg-kernels`) runs on this
//! partitioning; protected solves run the serial defensive traversal.

use crate::csr::CsrMatrix;

/// A contiguous block of rows assigned to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlock {
    /// First row (inclusive).
    pub start: usize,
    /// Last row (exclusive).
    pub end: usize,
}

/// Splits `n_rows` into at most `n_blocks` contiguous blocks whose stored
/// nonzero counts are approximately balanced (greedy prefix partitioning of
/// the rowptr array — the same heuristic 1-D hypergraph partitioners use as
/// a baseline).
pub fn partition_rows_balanced(a: &CsrMatrix, n_blocks: usize) -> Vec<RowBlock> {
    let n = a.n_rows();
    if n == 0 || n_blocks == 0 {
        return Vec::new();
    }
    let n_blocks = n_blocks.min(n);
    let total = a.nnz();
    let target = (total as f64 / n_blocks as f64).max(1.0);
    let rowptr = a.rowptr();
    let mut blocks = Vec::with_capacity(n_blocks);
    let mut start = 0usize;
    for b in 0..n_blocks {
        if start >= n {
            break;
        }
        if b == n_blocks - 1 {
            blocks.push(RowBlock { start, end: n });
            break;
        }
        // An integer-valued goal: each `u32` prefix compares to it in
        // `f64` exactly as it would to the goal as an integer.
        let goal = ((b + 1) as f64 * target).round();
        // First row index whose prefix nnz reaches the goal.
        let mut end = match rowptr.binary_search_by(|&p| f64::from(p).total_cmp(&goal)) {
            Ok(i) => i,
            Err(i) => i,
        };
        end = end.clamp(start + 1, n - (n_blocks - b - 1));
        blocks.push(RowBlock { start, end });
        start = end;
    }
    blocks
}

/// Parallel `y ← A·x` over the given row blocks using scoped threads.
/// Each thread owns a disjoint `&mut` slice of `y`, so the kernel is
/// data-race free by construction.
///
/// # Panics
/// Panics on dimension mismatch or if blocks are not a disjoint,
/// increasing cover of `0..n_rows`, and re-raises a worker's panic
/// rather than return a half-written product vector.
pub fn spmv_parallel(a: &CsrMatrix, x: &[f64], y: &mut [f64], blocks: &[RowBlock]) {
    assert_eq!(x.len(), a.n_cols(), "spmv_parallel: x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "spmv_parallel: y length mismatch");
    validate_blocks(blocks, a.n_rows());
    if blocks.len() <= 1 {
        a.spmv_into(x, y);
        return;
    }
    // Carve y into per-block disjoint mutable slices.
    let mut slices: Vec<&mut [f64]> = Vec::with_capacity(blocks.len());
    let mut rest = y;
    let mut cursor = 0usize;
    for b in blocks {
        let (head, tail) = rest.split_at_mut(b.end - cursor);
        slices.push(head);
        rest = tail;
        cursor = b.end;
    }
    std::thread::scope(|scope| {
        for (b, ys) in blocks.iter().zip(slices) {
            scope.spawn(move || {
                for (local, i) in (b.start..b.end).enumerate() {
                    let mut acc = 0.0;
                    for k in a.row_range(i) {
                        acc += a.val()[k] * x[a.colid()[k] as usize];
                    }
                    ys[local] = acc;
                }
            });
        }
    });
}

/// Convenience: partition into `n_threads` balanced blocks and multiply.
///
/// Note this recomputes the partition on **every call** — fine for
/// one-off products, wasteful in a solver loop: `ftcg-kernels`' prepared
/// `csr-par` probe caches its blocks at preparation time instead.
pub fn spmv_parallel_auto(a: &CsrMatrix, x: &[f64], y: &mut [f64], n_threads: usize) {
    let blocks = partition_rows_balanced(a, n_threads.max(1));
    spmv_parallel(a, x, y, &blocks);
}

fn validate_blocks(blocks: &[RowBlock], n_rows: usize) {
    let mut cursor = 0usize;
    for b in blocks {
        assert_eq!(b.start, cursor, "blocks must tile rows contiguously");
        assert!(b.end >= b.start, "block end before start");
        cursor = b.end;
    }
    assert_eq!(cursor, n_rows, "blocks must cover all rows");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn partition_covers_all_rows() {
        let a = gen::poisson2d(10).unwrap();
        for nb in [1, 2, 3, 7, 100, 200] {
            let blocks = partition_rows_balanced(&a, nb);
            validate_blocks(&blocks, a.n_rows());
            assert!(blocks.len() <= nb.min(a.n_rows()));
        }
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let a = gen::random_spd(500, 0.02, 3).unwrap();
        let blocks = partition_rows_balanced(&a, 4);
        assert_eq!(blocks.len(), 4);
        let total = a.nnz() as f64;
        for b in &blocks {
            let nnz: usize = (b.start..b.end).map(|i| a.row_range(i).len()).sum();
            let share = nnz as f64 / total;
            assert!(
                share > 0.10 && share < 0.45,
                "block share {share} badly unbalanced"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = gen::random_spd(300, 0.03, 11).unwrap();
        let x: Vec<f64> = (0..a.n_cols()).map(|i| (i as f64 * 0.37).cos()).collect();
        let seq = a.spmv(&x);
        for nt in [1, 2, 3, 4, 8] {
            let mut y = vec![0.0; a.n_rows()];
            spmv_parallel_auto(&a, &x, &mut y, nt);
            assert_eq!(y, seq, "mismatch with {nt} threads");
        }
    }

    #[test]
    fn parallel_on_tiny_matrix() {
        let a = gen::tridiagonal(3, 2.0, -1.0).unwrap();
        let mut y = vec![0.0; 3];
        spmv_parallel_auto(&a, &[1.0, 1.0, 1.0], &mut y, 16);
        assert_eq!(y, a.spmv(&[1.0, 1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "cover all rows")]
    fn bad_blocks_rejected() {
        let a = gen::tridiagonal(4, 2.0, -1.0).unwrap();
        let mut y = vec![0.0; 4];
        // Missing last row.
        spmv_parallel(
            &a,
            &[0.0; 4],
            &mut y,
            &[RowBlock { start: 0, end: 2 }, RowBlock { start: 2, end: 3 }],
        );
    }

    #[test]
    fn single_block_falls_back() {
        let a = gen::poisson2d(4).unwrap();
        let x = vec![1.0; 16];
        let mut y = vec![0.0; 16];
        spmv_parallel(&a, &x, &mut y, &[RowBlock { start: 0, end: 16 }]);
        assert_eq!(y, a.spmv(&x));
    }
}
