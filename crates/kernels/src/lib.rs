#![forbid(unsafe_code)]
//! # ftcg-kernels — pluggable SpMV backends
//!
//! Every CG iteration of the reproduction is dominated by one sparse
//! matrix–vector product. This crate makes that product a first-class
//! experiment dimension: a [`SpmvKernel`] trait with a [`KernelRegistry`]
//! for runtime selection by name, format-diverse backends, and an `auto`
//! kernel that picks a backend per matrix.
//!
//! ## Backends
//!
//! | name | backend |
//! |---|---|
//! | `csr` | serial CSR — the bit-for-bit reference (today's behavior) |
//! | `csr-par[:T]` | row-partitioned parallel CSR over `T` threads (0 = all cores), reusing `partition_rows_balanced` |
//! | `bcsr[:B]` | blocked CSR with `B×B` register blocks (`B ∈ 1..=4`, default 2) |
//! | `sell[:C[:S]]` | SELL-C-σ sliced ELLPACK, chunk `C` (default 8), sorting window `σ = S` (default 32) |
//! | `auto` | per-matrix heuristic over [`MatrixStats`]-style statistics (row-nnz profile, block fill ratio) |
//!
//! Every backend computes each output value as the same ordered
//! floating-point sum the serial CSR kernel computes (padding lanes
//! contribute exact zeros, σ-sorting permutes row *visit* order only),
//! so backends agree with the reference within [`KERNEL_RTOL`] — and
//! bit-for-bit on column-sorted inputs with finite data.
//!
//! ## Composing with ABFT verification
//!
//! The checksum tests of `ftcg-abft` (Algorithm 2, line 23) never look
//! inside the kernel: they compare the *output* `y` (and the input copy
//! `x′`) against checksums precomputed from the pristine matrix. Any
//! backend's product can therefore be verified unchanged — the
//! resilient executor in `ftcg-solvers` runs the selected backend
//! defensively against the live (corruptible) CSR image via
//! [`KernelSpec::product_defensive`] and feeds its output to the same
//! verification. Forward *correction*, by contrast, localizes errors in
//! the CSR arrays, so it stays CSR-specific regardless of the kernel
//! that produced `y`.
//!
//! [`MatrixStats`]: ftcg_sparse::stats::MatrixStats

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod auto;
pub mod backends;
pub mod kernel;
pub mod registry;
pub mod spec;

pub use auto::{recommend, Recommendation};
pub use backends::{AutoKernel, BcsrKernel, CsrParallel, CsrSerial, SellKernel};
pub use kernel::{PreparedSpmv, SpmvKernel};
pub use registry::KernelRegistry;
pub use spec::{DefensiveProduct, KernelSpec};

/// Relative tolerance (scaled by `‖y‖∞`) within which every backend
/// must agree with the serial CSR reference product. The only deviation
/// source is floating-point summation order on non-column-sorted
/// inputs; the test suites assert this bound on all Table 1 matrices.
pub const KERNEL_RTOL: f64 = 1e-10;

/// Kernel-subsystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The name does not match any registered kernel or spec grammar.
    UnknownKernel(String),
    /// A recognized kernel name with invalid parameters.
    BadSpec(String),
    /// The matrix could not be converted into the backend's format.
    Format(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnknownKernel(n) => write!(
                f,
                "unknown kernel `{n}` (csr | csr-par[:T] | bcsr[:B] | sell[:C[:S]] | auto)"
            ),
            KernelError::BadSpec(m) => write!(f, "bad kernel spec: {m}"),
            KernelError::Format(m) => write!(f, "format conversion failed: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}
