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
//! Algorithm-based fault tolerance (ABFT) for the sparse matrix–vector
//! product, reproducing Section 3 of Fasi, Robert & Uçar (PDSEC 2015).
//!
//! Two protection levels are provided, matching the paper's two schemes:
//!
//! * [`single::SingleChecksum`] — the *detection-only* scheme used by
//!   ABFT-DETECTION: one (shifted) column-checksum vector, an auxiliary
//!   copy `x′` of the input, and a row-pointer checksum. Detects any
//!   single error in `Val`, `Colid`, `Rowidx`, `x` or the computed `y`,
//!   with no correction capability.
//! * [`spmv::ProtectedSpmv`] — the *detect-2 / correct-1* scheme used by
//!   ABFT-CORRECTION (Algorithm 2): two weighted checksum rows
//!   `Wᵀ = [1 … 1; 1 2 … n]`, which localize a single error (ratio of the
//!   two checksum residues) and correct it in place — forward recovery,
//!   no rollback.
//!
//! `ftcg-solvers` picks one of the two per product according to the
//! scheme (ONLINE-DETECTION, the paper's third scheme, verifies no
//! product and uses neither). Both rely on rules kept in exactly one
//! place: the product, the row recomputations of forward correction and
//! the column-checksum recomputation all read rows through the defensive
//! clamp of `ftcg-sparse` ([`CsrMatrix::row_range_clamped`] and the
//! traversals built on it), and both schemes' row-pointer tests use the
//! one exact checksum loop in `checksum`.
//!
//! [`CsrMatrix::row_range_clamped`]: ftcg_sparse::CsrMatrix::row_range_clamped
//!
//! Vector state is protected by triple modular redundancy instead
//! ([`tmr`]), as the paper argues ABFT on vector operations costs as much
//! as recomputation: the resilient executor records each fault in the
//! iterate or the residual as a flip in one of three replicas and
//! majority-votes the flips after every step ([`tmr::vote_flips`],
//! bit-for-bit the vote of three [`TmrVector`] replicas holding them).
//!
//! Floating-point comparisons use the rigorous bound of Theorem 2
//! (`tolerance`), which guarantees **no false positives**: a reported
//! error is a real error, never rounding noise.

#![warn(missing_docs)]
// Index words are `u32`: a narrowing cast goes through `try_from` on a
// path with a typed error (or an `#[expect]` that says why it is exact),
// never through a silently truncating `as`. Tests build their corrupt
// inputs with `as`.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

mod checksum;
mod correct;
mod single;
mod spmv;
pub mod tmr;
mod tolerance;
mod weights;

pub use single::SingleChecksum;
pub use spmv::{ProtectedSpmv, SpmvOutcome, XRef};
pub use tmr::TmrVector;
