#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! # ftcg-kernels — the benchmark's SpMV format probes
//!
//! No solve in the workspace chooses an SpMV backend. The paper's fault
//! model flips bits in the CSR arrays themselves, and its ABFT checks
//! verify each product's output against checksums of the pristine
//! matrix, so the only format a protected solve can read is the live
//! CSR image: every other format would be a copy re-derived after every
//! fault. Protected products run the ordered defensive CSR traversal of
//! `ftcg-sparse` ([`CsrMatrix::spmv_clamped_probe_ordered_into`]), plain
//! solves [`CsrMatrix::spmv_into`].
//!
//! What is left here is the surface the `benchmark/` package measures on
//! trusted matrices: [`KernelSpec`] names a format, [`KernelSpec::prepare`]
//! converts into it, and [`Prepared::spmv_into`] runs its product.
//! [`DefensiveProduct`] times the natural-order defensive CSR traversal.
//!
//! | spec | product |
//! |---|---|
//! | [`KernelSpec::Csr`] | serial CSR — [`CsrMatrix::spmv_into`] |
//! | [`KernelSpec::CsrPar`] | row-partitioned parallel CSR over `threads` workers (0 = all cores) |
//! | [`KernelSpec::Bcsr`] | blocked CSR with `block × block` register tiles (`1..=4`) |
//! | [`KernelSpec::Sell`] | SELL-C-σ sliced ELLPACK, chunk `C`, sorting window `σ` |
//!
//! Every format computes each output value as the same ordered
//! floating-point sum the serial CSR product computes (padding lanes
//! add exact zeros, σ-sorting permutes the row *visit* order only).

#![warn(missing_docs)]

use ftcg_sparse::parallel::{partition_rows_balanced, spmv_parallel, RowBlock};
use ftcg_sparse::{BcsrMatrix, CsrMatrix, SellCSigma, SparseError};

/// An SpMV storage format the benchmark probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSpec {
    /// Serial CSR (the reference).
    Csr,
    /// Parallel CSR; `threads == 0` means all available cores.
    CsrPar {
        /// Worker threads (0 = all cores).
        threads: usize,
    },
    /// Blocked CSR with `block × block` tiles.
    Bcsr {
        /// Block edge length (`1..=4`).
        block: usize,
    },
    /// SELL-C-σ.
    Sell {
        /// Chunk height `C`.
        chunk: usize,
        /// Sorting window `σ`.
        sigma: usize,
    },
}

impl KernelSpec {
    /// Converts (or partitions) a trusted matrix for repeated products in
    /// this format. Errors are the format constructors' own (a block
    /// edge outside `1..=4`, a zero chunk height or window).
    pub fn prepare(self, a: &CsrMatrix) -> Result<Prepared<'_>, SparseError> {
        Ok(Prepared(match self {
            KernelSpec::Csr => Format::Csr(a),
            KernelSpec::CsrPar { threads } => {
                let threads = match threads {
                    0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    t => t,
                };
                Format::CsrPar(a, partition_rows_balanced(a, threads))
            }
            KernelSpec::Bcsr { block } => Format::Bcsr(BcsrMatrix::from_csr(a, block)?),
            KernelSpec::Sell { chunk, sigma } => {
                Format::Sell(SellCSigma::from_csr(a, chunk, sigma)?)
            }
        }))
    }
}

/// A matrix prepared by [`KernelSpec::prepare`]. Opaque, so a parallel
/// row partition always belongs to the matrix it was built from.
#[derive(Debug, Clone)]
pub struct Prepared<'a>(Format<'a>);

#[derive(Debug, Clone)]
enum Format<'a> {
    Csr(&'a CsrMatrix),
    CsrPar(&'a CsrMatrix, Vec<RowBlock>),
    Bcsr(BcsrMatrix),
    Sell(SellCSigma),
}

impl Prepared<'_> {
    /// `y ← A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        match &self.0 {
            Format::Csr(a) => a.spmv_into(x, y),
            Format::CsrPar(a, blocks) if blocks.is_empty() => {
                assert_eq!(y.len(), a.n_rows(), "csr-par: y length mismatch");
            }
            Format::CsrPar(a, blocks) => spmv_parallel(a, x, y, blocks),
            Format::Bcsr(m) => m.spmv_into(x, y),
            Format::Sell(m) => m.spmv_into(x, y),
        }
    }
}

/// A benchmark-only handle on the natural-order defensive CSR traversal
/// ([`CsrMatrix::spmv_clamped_probe_into`]).
#[derive(Debug, Clone, Copy)]
pub struct DefensiveProduct;

impl DefensiveProduct {
    /// The defensive product. Only CSR can be read defensively — its
    /// arrays are the copy the faults hit — so every spec runs the one
    /// CSR traversal. The parameter leaves with the benchmark PR that
    /// drops the non-CSR probes.
    pub fn new(_spec: KernelSpec) -> Self {
        DefensiveProduct
    }

    /// `y ← A·x` against a possibly *corrupted* CSR image, with the ABFT
    /// output probe `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]` returned from the same pass.
    ///
    /// # Panics
    /// Panics if `y.len() != a.n_rows()`.
    pub fn product_with_probe(&mut self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        a.spmv_clamped_probe_into(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    const SPECS: [KernelSpec; 5] = [
        KernelSpec::Csr,
        KernelSpec::CsrPar { threads: 3 },
        KernelSpec::Bcsr { block: 2 },
        KernelSpec::Bcsr { block: 4 },
        KernelSpec::Sell {
            chunk: 8,
            sigma: 32,
        },
    ];

    #[test]
    fn every_builtin_matches_reference() {
        let a = gen::random_spd(200, 0.04, 7).unwrap();
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.41).sin() * 2.0).collect();
        let want = a.spmv(&x);
        for spec in SPECS {
            let mut y = vec![0.0; 200];
            spec.prepare(&a).unwrap().spmv_into(&x, &mut y);
            assert_eq!(y, want, "{spec:?}");
        }
    }

    #[test]
    fn prepare_returns_the_format_error() {
        let a = gen::poisson2d(4).unwrap();
        for bad in [
            KernelSpec::Bcsr { block: 5 },
            KernelSpec::Sell { chunk: 0, sigma: 1 },
        ] {
            assert!(
                matches!(bad.prepare(&a), Err(SparseError::DimensionMismatch { .. })),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn csr_par_empty_matrix() {
        let a = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let p = KernelSpec::CsrPar { threads: 4 }.prepare(&a).unwrap();
        let mut y = vec![];
        p.spmv_into(&[], &mut y);
    }

    fn probe(a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        DefensiveProduct::new(KernelSpec::Csr).product_with_probe(a, x, y)
    }

    #[test]
    fn defensive_products_match_clean_reference() {
        let a = gen::random_spd(150, 0.05, 2).unwrap();
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut y = vec![0.0; 150];
        probe(&a, &x, &mut y);
        assert_eq!(y, a.spmv(&x));
    }

    #[test]
    fn rowband_defensive_csr_is_bit_identical_to_scalar_clamped() {
        // The lockstep traversal must reproduce the scalar clamped
        // reference bit for bit, clean and corrupted.
        let mut a = gen::random_spd(230, 0.04, 17).unwrap();
        let x: Vec<f64> = (0..230).map(|i| (i as f64 * 0.23).sin() * 1.5).collect();
        for corrupt in [false, true] {
            if corrupt {
                a.rowptr_mut()[31] = u32::MAX;
                a.rowptr_mut()[100] = 5;
                a.colid_mut()[19] = 1 << 31;
            }
            let mut want = vec![0.0; 230];
            a.spmv_clamped_into(&x, &mut want);
            let mut y = vec![0.0; 230];
            probe(&a, &x, &mut y);
            for i in 0..230 {
                assert_eq!(
                    y[i].to_bits(),
                    want[i].to_bits(),
                    "corrupt {corrupt} row {i}"
                );
            }
        }
    }

    #[test]
    fn defensive_probe_matches_product_plus_sweep() {
        let mut a = gen::random_spd(120, 0.06, 23).unwrap();
        let x: Vec<f64> = (0..120).map(|i| (i as f64 * 0.19).sin() * 2.5).collect();
        for corrupt in [false, true] {
            if corrupt {
                a.rowptr_mut()[17] = u32::MAX;
                a.colid_mut()[5] = 1 << 31;
                a.val_mut()[8] = f64::INFINITY;
            }
            let mut want = vec![0.0; 120];
            a.spmv_clamped_into(&x, &mut want);
            let want_probe = ftcg_sparse::fused::probe_of(&want);
            let mut y = vec![0.0; 120];
            let got = probe(&a, &x, &mut y);
            for i in 0..120 {
                assert_eq!(
                    y[i].to_bits(),
                    want[i].to_bits(),
                    "corrupt {corrupt} row {i}"
                );
            }
            assert_eq!(got[0].to_bits(), want_probe[0].to_bits(), "{corrupt}");
            assert_eq!(got[1].to_bits(), want_probe[1].to_bits(), "{corrupt}");
        }
    }

    #[test]
    fn defensive_products_survive_corruption() {
        let mut a = gen::poisson2d(6).unwrap();
        a.rowptr_mut()[7] = u32::MAX;
        a.rowptr_mut()[20] = 3; // inverted range
        a.colid_mut()[11] = 1 << 31;
        let x = vec![1.0; 36];
        let mut want = vec![0.0; 36];
        a.spmv_clamped_into(&x, &mut want);
        let mut y = vec![0.0; 36];
        probe(&a, &x, &mut y); // must not panic
        assert_eq!(y, want);
    }
}
