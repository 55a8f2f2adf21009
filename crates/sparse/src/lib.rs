#![forbid(unsafe_code)]
//! Sparse linear-algebra substrate for the `ftcg` reproduction of
//! Fasi, Robert & Uçar, *"Combining backward and forward recovery to cope
//! with silent errors in iterative solvers"* (PDSEC 2015).
//!
//! This crate provides everything below the resilience layer:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with the exact three-array
//!   layout the paper's ABFT scheme protects (`Val`, `Colid`, `Rowidx`),
//! * [`CooMatrix`] — triplet assembly (generators, MatrixMarket input),
//! * [`BcsrMatrix`] / [`SellCSigma`] — register-blocked and sliced-ELLPACK
//!   storage with exact CSR roundtrips, the formats behind the pluggable
//!   SpMV backends in `ftcg-kernels`,
//! * [`RowOrder`] — the length-sorted row visit order of the one defensive
//!   CSR traversal (SELL's σ-sorting without SELL's second copy),
//! * dense vector kernels ([`vector`]) used by the Conjugate Gradient solver,
//! * one-pass fused sweeps ([`fused`]) combining those kernels bit-identically,
//! * synthetic SPD matrix generators ([`gen`]) matched to the paper's test
//!   set from the UFL collection,
//! * MatrixMarket I/O ([`io`]) so real UFL files can be dropped in,
//! * a crossbeam-based parallel SpMxV ([`parallel`]) mirroring the paper's
//!   row-partitioned MPI discussion on shared memory.
//!
//! The crate is deliberately dependency-light and allocation-conscious: all
//! hot kernels (`spmv_into`, `dot`, `axpy`) write into caller-provided
//! buffers and never allocate.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod error;
pub mod fused;
pub mod gen;
pub mod io;
pub mod order;
pub mod parallel;
pub mod sell;
pub mod stats;
pub mod vector;

pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use order::RowOrder;
pub use sell::SellCSigma;

/// Convenience result alias for fallible sparse operations.
pub type Result<T> = std::result::Result<T, SparseError>;
