//! The built-in backends and their prepared forms.

use ftcg_sparse::parallel::{partition_rows_balanced, spmv_parallel, RowBlock};
use ftcg_sparse::{BcsrMatrix, CsrMatrix, SellCSigma};

use crate::kernel::{PreparedSpmv, SpmvKernel};
use crate::spec::KernelSpec;
use crate::KernelError;

/// Resolves a thread-count request: 0 means all available cores.
pub(crate) fn effective_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------- csr

/// The serial CSR reference kernel (bit-for-bit today's behavior).
#[derive(Debug, Clone, Copy, Default)]
pub struct CsrSerial;

/// A CSR matrix prepared for serial products (a borrow — CSR needs no
/// conversion).
pub struct PreparedCsr<'a>(pub &'a CsrMatrix);

impl SpmvKernel for CsrSerial {
    fn name(&self) -> String {
        "csr".into()
    }

    fn description(&self) -> String {
        "serial CSR (reference; bit-for-bit the historical kernel)".into()
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        Ok(Box::new(PreparedCsr(a)))
    }
}

impl PreparedSpmv for PreparedCsr<'_> {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.spmv_into(x, y);
    }

    fn backend(&self) -> String {
        "csr".into()
    }

    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.0.n_cols()
    }
}

// ------------------------------------------------------------ csr-par

/// Row-partitioned parallel CSR over crossbeam scoped threads, reusing
/// `partition_rows_balanced` for nnz-balanced blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsrParallel {
    /// Worker threads; 0 = all available cores.
    pub threads: usize,
}

/// A CSR matrix with a precomputed balanced row partition.
pub struct PreparedCsrPar<'a> {
    a: &'a CsrMatrix,
    blocks: Vec<RowBlock>,
}

impl SpmvKernel for CsrParallel {
    fn name(&self) -> String {
        KernelSpec::CsrPar {
            threads: self.threads,
        }
        .label()
    }

    fn description(&self) -> String {
        format!(
            "row-partitioned parallel CSR ({} threads, nnz-balanced blocks)",
            if self.threads == 0 {
                "all".to_string()
            } else {
                self.threads.to_string()
            }
        )
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        let blocks = partition_rows_balanced(a, effective_threads(self.threads));
        Ok(Box::new(PreparedCsrPar { a, blocks }))
    }
}

impl PreparedSpmv for PreparedCsrPar<'_> {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        if self.blocks.is_empty() {
            assert_eq!(y.len(), self.a.n_rows(), "csr-par: y length mismatch");
            return;
        }
        spmv_parallel(self.a, x, y, &self.blocks);
    }

    fn backend(&self) -> String {
        format!("csr-par:{}", self.blocks.len().max(1))
    }

    fn n_rows(&self) -> usize {
        self.a.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.a.n_cols()
    }
}

// --------------------------------------------------------------- bcsr

/// Blocked CSR with `block × block` register tiles.
#[derive(Debug, Clone, Copy)]
pub struct BcsrKernel {
    /// Block edge length (`1..=4`).
    pub block: usize,
}

impl Default for BcsrKernel {
    fn default() -> Self {
        BcsrKernel { block: 2 }
    }
}

impl SpmvKernel for BcsrKernel {
    fn name(&self) -> String {
        KernelSpec::Bcsr { block: self.block }.label()
    }

    fn description(&self) -> String {
        format!(
            "blocked CSR with {0}x{0} register blocks (zero-padded dense tiles)",
            self.block
        )
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        let m =
            BcsrMatrix::from_csr(a, self.block).map_err(|e| KernelError::Format(e.to_string()))?;
        Ok(Box::new(m))
    }
}

impl PreparedSpmv for BcsrMatrix {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        BcsrMatrix::spmv_into(self, x, y);
    }

    fn backend(&self) -> String {
        format!("bcsr:{}", self.block_size())
    }

    fn n_rows(&self) -> usize {
        BcsrMatrix::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        BcsrMatrix::n_cols(self)
    }
}

// --------------------------------------------------------------- sell

/// SELL-C-σ sliced ELLPACK.
#[derive(Debug, Clone, Copy)]
pub struct SellKernel {
    /// Chunk height `C`.
    pub chunk: usize,
    /// Sorting window `σ` (1 disables sorting).
    pub sigma: usize,
}

impl Default for SellKernel {
    fn default() -> Self {
        SellKernel {
            chunk: KernelSpec::DEFAULT_SELL_CHUNK,
            sigma: KernelSpec::DEFAULT_SELL_SIGMA,
        }
    }
}

impl SpmvKernel for SellKernel {
    fn name(&self) -> String {
        KernelSpec::Sell {
            chunk: self.chunk,
            sigma: self.sigma,
        }
        .label()
    }

    fn description(&self) -> String {
        format!(
            "SELL-C-σ sliced ELLPACK (C={}, σ={}; padding-aware, lockstep lanes)",
            self.chunk, self.sigma
        )
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        let m = SellCSigma::from_csr(a, self.chunk, self.sigma)
            .map_err(|e| KernelError::Format(e.to_string()))?;
        Ok(Box::new(m))
    }
}

impl PreparedSpmv for SellCSigma {
    fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        SellCSigma::spmv_into(self, x, y);
    }

    fn backend(&self) -> String {
        format!("sell:{}:{}", self.chunk_size(), self.sigma())
    }

    fn n_rows(&self) -> usize {
        SellCSigma::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        SellCSigma::n_cols(self)
    }
}

// --------------------------------------------------------------- auto

/// Per-matrix backend selection by the structural heuristic
/// ([`crate::auto::recommend`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoKernel;

impl SpmvKernel for AutoKernel {
    fn name(&self) -> String {
        KernelSpec::Auto.label()
    }

    fn description(&self) -> String {
        "heuristic per-matrix backend choice (row-nnz profile + block fill)".into()
    }

    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        KernelSpec::Auto.resolve(a).prepare(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    fn reference(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
        a.spmv(x)
    }

    #[test]
    fn every_builtin_matches_reference() {
        let a = gen::random_spd(200, 0.04, 7).unwrap();
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.41).sin() * 2.0).collect();
        let want = reference(&a, &x);
        let kernels: Vec<Box<dyn SpmvKernel>> = vec![
            Box::new(CsrSerial),
            Box::new(CsrParallel { threads: 3 }),
            Box::new(BcsrKernel { block: 2 }),
            Box::new(BcsrKernel { block: 4 }),
            Box::new(SellKernel {
                chunk: 8,
                sigma: 32,
            }),
            Box::new(AutoKernel),
        ];
        for k in kernels {
            let p = k.prepare(&a).unwrap();
            assert_eq!(p.n_rows(), 200);
            assert_eq!(p.spmv(&x), want, "kernel {}", k.name());
        }
    }

    #[test]
    fn prepared_backend_labels_are_concrete() {
        let a = gen::poisson2d(20).unwrap();
        let p = AutoKernel.prepare(&a).unwrap();
        assert_ne!(p.backend(), "auto");
        let p = CsrSerial.prepare(&a).unwrap();
        assert_eq!(p.backend(), "csr");
    }

    #[test]
    fn csr_par_empty_matrix() {
        let a = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        let p = CsrParallel { threads: 4 }.prepare(&a).unwrap();
        let mut y = vec![];
        p.spmv_into(&[], &mut y);
    }
}
