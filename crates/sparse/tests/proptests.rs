//! Property-based tests for the sparse substrate.

use ftcg_sparse::{
    fused, gen, io, vector, BcsrMatrix, CooMatrix, CsrMatrix, CsrOverlay, CsrWord, CsrWords, Flips,
    RowOrder, SellCSigma,
};
use proptest::prelude::*;

/// Strategy: a random small COO matrix with valid coordinates.
fn coo_strategy(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    (1..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n, -100.0..100.0f64), 0..=max_nnz).prop_map(
            move |trips| {
                let mut coo = CooMatrix::new(n, n);
                for (i, j, v) in trips {
                    coo.push(i, j, v);
                }
                coo
            },
        )
    })
}

/// Strategy: a vector of the given length.
fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0..10.0f64, n..=n)
}

/// Strategy: a CSR matrix with ragged rows — empty ones, short ones and,
/// now and then, one far longer than the 64-row window it sits in — of
/// any order from below the lane count to a few windows.
fn ragged_csr_strategy() -> impl Strategy<Value = CsrMatrix> {
    (1usize..200, 0u64..1 << 32).prop_flat_map(|(n, salt)| {
        (
            proptest::collection::vec(0usize..10, n..=n),
            (0usize..2 * n, 100usize..260),
        )
            .prop_map(move |(mut lens, (long_row, long_len))| {
                if let Some(len) = lens.get_mut(long_row) {
                    *len = long_len;
                }
                let mut rowptr = vec![0u32];
                let mut colid = Vec::new();
                for (i, &len) in lens.iter().enumerate() {
                    colid.extend((0..len).map(|k| ((i * 31 + k * 7 + salt as usize) % n) as u32));
                    rowptr.push(colid.len() as u32);
                }
                let val = (0..colid.len())
                    .map(|k| ((k as u64 * 2654435761 + salt) % 1999) as f64 / 64.0 - 15.0)
                    .collect();
                CsrMatrix::new(n, n, rowptr, colid, val).unwrap()
            })
    })
}

/// `true` iff `order` permutes every 64-row window of `0..n` onto itself.
fn permutes_windows(order: &RowOrder, n: usize) -> bool {
    order.as_slice().len() == n
        && order
            .as_slice()
            .chunks(RowOrder::WINDOW)
            .enumerate()
            .all(|(w, window)| {
                let mut rows: Vec<usize> = window.iter().map(|&r| r as usize).collect();
                rows.sort_unstable();
                rows.into_iter()
                    .eq((w * RowOrder::WINDOW..).take(window.len()))
            })
}

proptest! {
    #[test]
    fn ordered_traversal_is_bit_identical_under_corruption(
        a in ragged_csr_strategy(),
        other in ragged_csr_strategy(),
        hits in proptest::collection::vec((0usize..4, 0usize..1 << 20, 0usize..1 << 20), 0..6),
        band in (0usize..1 << 20, 0usize..1 << 20),
    ) {
        let n = a.n_rows();
        // The pristine matrix under an overlay that takes every write
        // the materialized copy `a` takes.
        let clean = a.clone();
        let mut flips = Flips::new();
        let mut overlay = CsrOverlay::new(&clean, &mut flips);
        let mut a = a;
        // The order is built from the clean matrix ...
        let mut order = RowOrder::new();
        order.rebuild(&a);
        prop_assert!(permutes_windows(&order, n));
        // ... one for a different matrix of the same order (or, when the
        // orders differ, of the wrong length) stands in for a stale one ...
        let mut foreign = RowOrder::new();
        foreign.rebuild(&other);
        prop_assert!(permutes_windows(&foreign, other.n_rows()));
        let mut same_n = RowOrder::new();
        same_n.rebuild(&gen::random_spd(n.max(2), 0.1, n as u64).unwrap());
        // ... and the structure is corrupted afterwards.
        for (kind, at, to) in hits {
            let nnz = a.nnz();
            let write = match kind {
                0 => Some((CsrWord::Rowidx(at % (n + 1)), u64::from(u32::MAX))),
                // inverted / overlapping
                1 => Some((CsrWord::Rowidx(at % (n + 1)), (to % (nnz + 2)) as u64)),
                2 if nnz > 0 => Some((CsrWord::Colid(at % nnz), (n + to) as u64)),
                _ if nnz > 0 => Some((CsrWord::Val(at % nnz), f64::NAN.to_bits())),
                _ => None,
            };
            if let Some((at, bits)) = write {
                a.write(at, bits);
                overlay.write(at, bits);
            }
        }
        for at in (0..a.nnz())
            .flat_map(|k| [CsrWord::Val(k), CsrWord::Colid(k)])
            .chain((0..=n).map(CsrWord::Rowidx))
        {
            prop_assert_eq!(overlay.read(at), a.read(at), "{:?}", at);
        }
        prop_assert_eq!(overlay.rowptr_sums(), a.rowptr_sums());
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) * 0.25 - 3.0).collect();
        let mut want = vec![0.0; n];
        a.spmv_clamped_into(&x, &mut want);
        let want_probe = fused::probe_of(&want);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for order in [&RowOrder::new(), &order, &foreign, &same_n] {
            let mut y = vec![f64::NAN; n];
            a.row_products(0..n, order, &x, |i, v| y[i] = v);
            prop_assert_eq!(bits(&y), bits(&want));
            let mut y = vec![f64::NAN; n];
            let probe = a.spmv_clamped_probe_ordered_into(order, &x, &mut y);
            prop_assert_eq!(bits(&y), bits(&want));
            prop_assert_eq!(bits(&probe), bits(&want_probe));
            // The overlay: the same product, probe and band product.
            let mut y = vec![f64::NAN; n];
            overlay.row_products(0..n, order, &x, |i, v| y[i] = v);
            prop_assert_eq!(bits(&y), bits(&want));
            let mut y = vec![f64::NAN; n];
            let probe = overlay.spmv_clamped_probe_ordered_into(order, &x, &mut y);
            prop_assert_eq!(bits(&y), bits(&want));
            prop_assert_eq!(bits(&probe), bits(&want_probe));
            let (lo, hi) = (band.0 % (n + 1), band.1 % (n + 1));
            let rows = lo.min(hi)..lo.max(hi);
            let mut y = Vec::with_capacity(rows.len());
            overlay.row_products(rows.clone(), order, &x, |i, v| {
                assert_eq!(i, rows.start + y.len(), "rows in ascending order");
                y.push(v);
            });
            prop_assert_eq!(bits(&y), bits(&want[rows]));
        }
        overlay.clear();
        prop_assert!(overlay.flips().is_empty());
        // Rebuilding from the corrupted matrix still yields a permutation.
        order.rebuild(&a);
        prop_assert!(permutes_windows(&order, n));
    }

    #[test]
    fn csr_roundtrips_through_coo(coo in coo_strategy(20, 60)) {
        let a = coo.to_csr().unwrap();
        a.validate().unwrap();
        let back = a.to_coo().to_csr().unwrap();
        prop_assert_eq!(a.to_dense(), back.to_dense());
    }

    #[test]
    fn transpose_is_involution(coo in coo_strategy(15, 50)) {
        let a = coo.to_csr().unwrap();
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap().to_dense(), a.to_dense());
    }

    #[test]
    fn spmv_matches_dense_reference(coo in coo_strategy(12, 40)) {
        let a = coo.to_csr().unwrap();
        let n = a.n_cols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) * 0.3).collect();
        let y = a.spmv(&x);
        let dense = a.to_dense();
        for (i, row) in dense.iter().enumerate() {
            let want: f64 = row.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
            prop_assert!((y[i] - want).abs() <= 1e-9 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn spmv_is_linear(coo in coo_strategy(10, 30), alpha in -5.0..5.0f64) {
        let a = coo.to_csr().unwrap();
        let n = a.n_cols();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let ax = a.spmv(&x);
        let sx: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let asx = a.spmv(&sx);
        for i in 0..n {
            prop_assert!((asx[i] - alpha * ax[i]).abs() <= 1e-9 * (1.0 + ax[i].abs()));
        }
    }

    #[test]
    fn matrix_market_roundtrip(coo in coo_strategy(15, 40)) {
        let a = coo.to_csr().unwrap();
        let mut buf = Vec::new();
        io::write_matrix_market(&mut buf, &a).unwrap();
        let b = io::read_matrix_market(buf.as_slice()).unwrap();
        // Values serialized with 17 significant digits: exact for f64.
        prop_assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn dot_commutes(x in vec_strategy(16), y in vec_strategy(16)) {
        prop_assert_eq!(vector::dot(&x, &y), vector::dot(&y, &x));
    }

    #[test]
    fn cauchy_schwarz(x in vec_strategy(16), y in vec_strategy(16)) {
        let lhs = vector::dot(&x, &y).abs();
        let rhs = vector::norm2(&x) * vector::norm2(&y);
        prop_assert!(lhs <= rhs * (1.0 + 1e-12) + 1e-12);
    }

    #[test]
    fn triangle_inequality(x in vec_strategy(16), y in vec_strategy(16)) {
        let s: Vec<f64> = x.iter().zip(y.iter()).map(|(a, b)| a + b).collect();
        prop_assert!(vector::norm2(&s) <= vector::norm2(&x) + vector::norm2(&y) + 1e-12);
    }

    #[test]
    fn axpy_matches_definition(a in -3.0..3.0f64, x in vec_strategy(12), y in vec_strategy(12)) {
        let mut z = y.clone();
        vector::axpy(a, &x, &mut z);
        for i in 0..12 {
            prop_assert!((z[i] - (a * x[i] + y[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn random_spd_always_valid(n in 10usize..120, density in 0.01..0.2f64, seed in 0u64..1000) {
        let a = gen::random_spd(n, density, seed).unwrap();
        a.validate().unwrap();
        prop_assert!(a.is_symmetric(1e-13));
        prop_assert!(a.is_strictly_diagonally_dominant());
    }

    #[test]
    fn norm1_is_max_column_sum(coo in coo_strategy(10, 30)) {
        let a = coo.to_csr().unwrap();
        let dense = a.to_dense();
        let mut want = 0.0_f64;
        for j in 0..a.n_cols() {
            let s: f64 = dense.iter().map(|row| row[j].abs()).sum();
            want = want.max(s);
        }
        prop_assert!((a.norm1() - want).abs() <= 1e-9 * (1.0 + want));
    }

    #[test]
    fn parallel_spmv_equals_sequential(coo in coo_strategy(40, 200), nt in 1usize..6) {
        let a = coo.to_csr().unwrap();
        let x: Vec<f64> = (0..a.n_cols()).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let seq = a.spmv(&x);
        let mut par = vec![0.0; a.n_rows()];
        ftcg_sparse::parallel::spmv_parallel_auto(&a, &x, &mut par, nt);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn partition_tiles_rows_exactly(coo in coo_strategy(60, 300), nb in 1usize..12) {
        let a = coo.to_csr().unwrap();
        let blocks = ftcg_sparse::parallel::partition_rows_balanced(&a, nb);
        // Never more blocks than requested (or than rows).
        prop_assert!(blocks.len() <= nb.min(a.n_rows()));
        // Non-overlapping, increasing, exact cover of [0, n_rows).
        let mut cursor = 0usize;
        for b in &blocks {
            prop_assert_eq!(b.start, cursor, "gap or overlap at row {}", cursor);
            prop_assert!(b.end > b.start, "empty block");
            cursor = b.end;
        }
        prop_assert_eq!(cursor, a.n_rows());
    }

    #[test]
    fn bcsr_roundtrip_preserves_triplets(
        n in 10usize..150, density in 0.01..0.15f64, seed in 0u64..500, b in 1usize..=4
    ) {
        // Generator matrices are duplicate-free and column-sorted, so the
        // roundtrip must reproduce the (row, col, value) arrays exactly.
        let a = gen::random_spd(n, density, seed).unwrap();
        let back = BcsrMatrix::from_csr(&a, b).unwrap().to_csr().unwrap();
        prop_assert_eq!(back.rowptr(), a.rowptr());
        prop_assert_eq!(back.colid(), a.colid());
        prop_assert_eq!(back.val(), a.val());
    }

    #[test]
    fn sell_roundtrip_preserves_triplets(
        n in 10usize..150, density in 0.01..0.15f64, seed in 0u64..500,
        c in 1usize..12, sigma in 1usize..40
    ) {
        let a = gen::random_spd(n, density, seed).unwrap();
        let back = SellCSigma::from_csr(&a, c, sigma).unwrap().to_csr().unwrap();
        prop_assert_eq!(back.rowptr(), a.rowptr());
        prop_assert_eq!(back.colid(), a.colid());
        prop_assert_eq!(back.val(), a.val());
    }

    #[test]
    fn blocked_formats_spmv_match_csr(coo in coo_strategy(40, 150), b in 1usize..=4, c in 1usize..10) {
        // Arbitrary assembled matrices (possibly duplicate entries, any
        // column order): products must agree with the CSR reference up
        // to summation-order rounding.
        let a = coo.to_csr().unwrap();
        let x: Vec<f64> = (0..a.n_cols()).map(|i| ((i as f64) * 0.37).cos() * 3.0).collect();
        let want = a.spmv(&x);
        let scale: f64 = 1.0 + want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let blocked = BcsrMatrix::from_csr(&a, b).unwrap();
        let mut y = vec![0.0; a.n_rows()];
        blocked.spmv_into(&x, &mut y);
        for i in 0..a.n_rows() {
            prop_assert!((y[i] - want[i]).abs() <= 1e-12 * scale, "bcsr row {}", i);
        }
        let sell = SellCSigma::from_csr(&a, c, 4 * c).unwrap();
        sell.spmv_into(&x, &mut y);
        for i in 0..a.n_rows() {
            prop_assert!((y[i] - want[i]).abs() <= 1e-12 * scale, "sell row {}", i);
        }
    }

    #[test]
    fn partition_balances_nnz(n in 50usize..250, density in 0.02..0.1f64, seed in 0u64..200, nb in 2usize..9) {
        // Balance is only meaningful on matrices with work to split:
        // random SPD keeps every row non-empty (diagonal) and roughly
        // uniform, where the greedy prefix partitioning has slack
        // max_row_nnz per block. Bound each block by the ideal share
        // plus that slack (and require it not to be trivially empty).
        let a = gen::random_spd(n, density, seed).unwrap();
        let blocks = ftcg_sparse::parallel::partition_rows_balanced(&a, nb);
        let total = a.nnz();
        let ideal = total as f64 / blocks.len() as f64;
        let max_row: usize = (0..a.n_rows()).map(|i| a.row_range(i).len()).max().unwrap_or(0);
        for b in &blocks {
            let nnz: usize = (b.start..b.end).map(|i| a.row_range(i).len()).sum();
            prop_assert!(
                (nnz as f64) <= ideal + 2.0 * max_row as f64 + 1.0,
                "block [{}, {}) holds {} nnz, ideal {:.1} + slack {}",
                b.start, b.end, nnz, ideal, max_row
            );
        }
    }
}
