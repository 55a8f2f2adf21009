//! The subsystem's headline contract: every backend agrees with the
//! serial CSR reference within [`ftcg_kernels::KERNEL_RTOL`], on random
//! SPD generator matrices (property-based) and on structured ones.

use ftcg_kernels::{KernelRegistry, KernelSpec, KERNEL_RTOL};
use ftcg_sparse::{gen, BcsrMatrix, CsrMatrix, SellCSigma};
use proptest::prelude::*;

const ALL_NAMES: [&str; 7] = [
    "csr",
    "csr-par",
    "csr-par:3",
    "bcsr:2",
    "bcsr:4",
    "sell:8:32",
    "auto",
];

fn assert_agrees(a: &CsrMatrix, name: &str) {
    let reg = KernelRegistry::builtin();
    let x: Vec<f64> = (0..a.n_cols())
        .map(|i| 2.0 * (i as f64 * 0.37).cos() - 0.5)
        .collect();
    let want = a.spmv(&x);
    let scale = 1.0 + want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let prepared = reg.get(name).unwrap().prepare(a).unwrap();
    let got = prepared.spmv(&x);
    for i in 0..a.n_rows() {
        assert!(
            (got[i] - want[i]).abs() <= KERNEL_RTOL * scale,
            "kernel {} row {}: {} vs {}",
            name,
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
        for name in ALL_NAMES {
            assert_agrees(&a, name);
        }
    }

    #[test]
    fn all_kernels_match_reference_on_laplacians(k in 3usize..18) {
        let a = gen::poisson2d(k).unwrap();
        for name in ALL_NAMES {
            assert_agrees(&a, name);
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
        a.spmv_clamped_rowband_into(&x, &mut y);
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

    #[test]
    fn spec_roundtrips_for_arbitrary_params(
        t in 0usize..17, b in 1usize..=4, c in 1usize..33, s in 1usize..129
    ) {
        for spec in [
            KernelSpec::CsrPar { threads: t },
            KernelSpec::Bcsr { block: b },
            KernelSpec::Sell { chunk: c, sigma: s },
        ] {
            prop_assert_eq!(KernelSpec::parse(&spec.label()).unwrap(), spec);
        }
    }
}

#[test]
fn ill_conditioned_generator_agrees_too() {
    // The Table 1 substitution generator — badly scaled SPD.
    let a = gen::random_spd_illcond(400, 0.02, 4.0e2, 341).unwrap();
    for name in ALL_NAMES {
        assert_agrees(&a, name);
    }
}
