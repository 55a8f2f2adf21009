//! The probes' headline contract: every format agrees with the serial
//! CSR reference within [`KERNEL_RTOL`], on random SPD generator
//! matrices (property-based) and on structured ones.

use ftcg_kernels::KernelSpec;
use ftcg_sparse::{gen, BcsrMatrix, CsrMatrix, CsrWords, RowOrder, SellCSigma};
use proptest::prelude::*;

/// Relative tolerance (scaled by `‖y‖∞`) within which every format must
/// agree with the serial CSR product. The only deviation source is
/// floating-point summation order on non-column-sorted inputs.
const KERNEL_RTOL: f64 = 1e-10;

const ALL_SPECS: [KernelSpec; 6] = [
    KernelSpec::Csr,
    KernelSpec::CsrPar { threads: 0 },
    KernelSpec::CsrPar { threads: 3 },
    KernelSpec::Bcsr { block: 2 },
    KernelSpec::Bcsr { block: 4 },
    KernelSpec::Sell {
        chunk: 8,
        sigma: 32,
    },
];

fn assert_agrees(a: &CsrMatrix, spec: KernelSpec) {
    let x: Vec<f64> = (0..a.n_cols())
        .map(|i| 2.0 * (i as f64 * 0.37).cos() - 0.5)
        .collect();
    let want = a.spmv(&x);
    let scale = 1.0 + want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut got = vec![0.0; a.n_rows()];
    spec.prepare(a).unwrap().spmv_into(&x, &mut got);
    for i in 0..a.n_rows() {
        assert!(
            (got[i] - want[i]).abs() <= KERNEL_RTOL * scale,
            "{:?} row {}: {} vs {}",
            spec,
            i,
            got[i],
            want[i]
        );
    }
}

proptest! {
    #[test]
    fn all_kernels_match_reference_on_random_spd(
        n in 20usize..250, density in 0.01..0.12f64, seed in 0u64..400
    ) {
        let a = gen::random_spd(n, density, seed).unwrap();
        for spec in ALL_SPECS {
            assert_agrees(&a, spec);
        }
    }

    #[test]
    fn all_kernels_match_reference_on_laplacians(k in 3usize..18) {
        let a = gen::poisson2d(k).unwrap();
        for spec in ALL_SPECS {
            assert_agrees(&a, spec);
        }
    }

    // The unrolled microkernels (fixed-C SELL lanes, register-blocked
    // BCSR, row-band CSR) must agree with the scalar CSR reference to
    // the last bit on arbitrary generator matrices — they reorder
    // memory accesses, never the per-row accumulation chain.
    #[test]
    fn microkernels_are_bit_identical_to_reference(
        n in 20usize..200, density in 0.02..0.15f64, seed in 0u64..300
    ) {
        let a = gen::random_spd(n, density, seed).unwrap();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin() - 0.2).collect();
        let want = a.spmv(&x);
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want_bits = bits(&want);

        let mut y = vec![0.0; n];
        a.row_products(0..n, &RowOrder::new(), &x, |i, v| y[i] = v);
        prop_assert_eq!(bits(&y), want_bits.clone(), "csr row-band n={}", n);

        for (c, sigma) in [(4usize, 16usize), (8, 32)] {
            let s = SellCSigma::from_csr(&a, c, sigma).unwrap();
            s.spmv_into(&x, &mut y);
            prop_assert_eq!(bits(&y), want_bits.clone(), "sell C={} n={}", c, n);
        }
        for b in [2usize, 4] {
            let m = BcsrMatrix::from_csr(&a, b).unwrap();
            m.spmv_into(&x, &mut y);
            prop_assert_eq!(bits(&y), want_bits.clone(), "bcsr b={} n={}", b, n);
        }
    }
}

#[test]
fn ill_conditioned_generator_agrees_too() {
    // The Table 1 substitution generator — badly scaled SPD.
    let a = gen::random_spd_illcond(400, 0.02, 4.0e2, 341).unwrap();
    for spec in ALL_SPECS {
        assert_agrees(&a, spec);
    }
}
