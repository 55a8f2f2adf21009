//! The steppable form of the solver.
//!
//! CG is implemented once, as a *state machine*
//! ([`CgMachine`](crate::CgMachine)) that advances one iteration per
//! `step` call; [`cg_solve`](crate::cg_solve) is a thin wrapper that
//! drives the machine in a loop. The wrapper executes exactly the
//! floating-point operations (in exactly the order) of the historical
//! monolithic loop — bit for bit — while the machine form is what the
//! [resilient executor](crate::resilient) composes with verification,
//! checkpointing and rollback.
//!
//! A step routes its one sparse product through a caller-supplied
//! [`StepContext`]: the plain CSR product for the wrapper
//! ([`PlainContext`]), a defensive + checksum-verified product for the
//! resilient executor.

use ftcg_sparse::CsrMatrix;

/// What one `step` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// One productive iteration completed.
    Done,
    /// Numerical breakdown: the recurrence cannot continue (non-SPD
    /// pivot, zero denominator, non-finite scalar).
    Breakdown,
    /// A [`StepContext::product`] was rejected by verification; the
    /// state is mid-iteration garbage and must be rolled back.
    Rejected,
}

/// Verdict a [`StepContext`] returns for one product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductStatus {
    /// The output may be used.
    Trusted,
    /// Verification rejected the output; abort the step.
    Rejected,
}

impl ProductStatus {
    /// `true` for [`ProductStatus::Rejected`].
    pub(crate) fn rejected(&self) -> bool {
        matches!(self, ProductStatus::Rejected)
    }
}

/// The product oracle a step routes its sparse product through.
///
/// The wrapper uses [`PlainContext`] (the plain CSR product, never
/// rejecting); the resilient executor substitutes a defensive,
/// checksum-verified product over the live (corruptible) matrix image.
pub trait StepContext {
    /// Forward product `y ← A·x`. `x` is mutable because ABFT forward
    /// *correction* may repair a corrupted input in place.
    fn product(&mut self, x: &mut [f64], y: &mut [f64]) -> ProductStatus;
}

/// The wrapper's [`StepContext`]: the serial CSR product of `a`. Never
/// rejects.
pub struct PlainContext<'a> {
    /// The matrix every product reads.
    pub a: &'a CsrMatrix,
}

impl StepContext for PlainContext<'_> {
    fn product(&mut self, x: &mut [f64], y: &mut [f64]) -> ProductStatus {
        self.a.spmv_into(x, y);
        ProductStatus::Trusted
    }
}
