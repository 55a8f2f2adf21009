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
//!   storage with exact CSR roundtrips, measured by the benchmark's
//!   format probes only (no solve reads them: the faults hit the CSR
//!   arrays),
//! * [`RowOrder`] — the length-sorted row visit order of the one defensive
//!   CSR traversal (SELL's σ-sorting without SELL's second copy),
//! * dense vector kernels ([`vector`]) used by the Conjugate Gradient solver,
//! * one-pass fused sweeps ([`fused`]) combining those kernels bit-identically,
//! * synthetic SPD matrix generators ([`gen`]) matched to the paper's test
//!   set from the UFL collection,
//! * MatrixMarket I/O ([`io`]) so real UFL files can be dropped in,
//! * a row-partitioned parallel SpMxV ([`parallel`]) mirroring the paper's
//!   row-partitioned MPI discussion on shared memory (a benchmark probe
//!   too).
//!
//! The crate is deliberately dependency-light and allocation-conscious: all
//! hot kernels (`spmv_into`, `dot`, `axpy`) write into caller-provided
//! buffers and never allocate.

#![warn(missing_docs)]
// Index words are `u32`: a narrowing cast goes through `try_from` on a
// path with a typed error (or an `#[expect]` that says why it is exact),
// never through a silently truncating `as`. Tests build their corrupt
// inputs with `as`.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod bcsr;
mod coo;
mod csr;
mod error;
pub mod fused;
pub mod gen;
pub mod io;
mod order;
pub mod parallel;
mod sell;
pub mod stats;
pub mod vector;

pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csr::{CsrMatrix, MAX_INDEX_BOUND};
pub use error::SparseError;
pub use order::RowOrder;
pub use sell::SellCSigma;

/// Convenience result alias for fallible sparse operations.
pub type Result<T> = std::result::Result<T, SparseError>;
