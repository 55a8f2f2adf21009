//! The kernel abstraction: a two-phase `prepare` / `spmv_into` split.
//!
//! Preparation happens once per matrix (format conversion, partitioning,
//! autotuning) and is assumed to run on *trusted* data; the returned
//! [`PreparedSpmv`] is then invoked once per iteration on the hot path.
//! For products over possibly *corrupted* matrices (the resilient
//! executor's case) use [`crate::KernelSpec::product_defensive`], which
//! re-materializes the format defensively from the live CSR image.

use ftcg_sparse::CsrMatrix;

use crate::KernelError;

/// A named SpMV backend that can be selected at runtime through the
/// [`crate::KernelRegistry`].
pub trait SpmvKernel: Send + Sync {
    /// Registry name (also the label used in reports and campaign keys).
    fn name(&self) -> String;

    /// One-line human description for `--kernel list`.
    fn description(&self) -> String;

    /// Converts/partitions `a` into the backend's execution form.
    fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError>;
}

/// A matrix prepared for repeated products.
pub trait PreparedSpmv: Send + Sync {
    /// `y ← A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    fn spmv_into(&self, x: &[f64], y: &mut [f64]);

    /// Label of the concrete backend executing the products (for `auto`
    /// this is the resolved choice, not `auto`).
    fn backend(&self) -> String;

    /// Number of rows of the prepared matrix.
    fn n_rows(&self) -> usize;

    /// Number of columns of the prepared matrix.
    fn n_cols(&self) -> usize;

    /// Allocating convenience wrapper around
    /// [`PreparedSpmv::spmv_into`].
    fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows()];
        self.spmv_into(x, &mut y);
        y
    }
}
