#![forbid(unsafe_code)]
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
//! Vector state is protected by triple modular redundancy instead
//! ([`tmr`]), as the paper argues ABFT on vector operations costs as much
//! as recomputation: the resilient executor keeps the iterate and the
//! residual in three [`TmrVector`] replicas and majority-votes them after
//! every step.
//!
//! Floating-point comparisons use the rigorous bound of Theorem 2
//! ([`tolerance`]), which guarantees **no false positives**: a reported
//! error is a real error, never rounding noise.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod checksum;
pub mod correct;
pub mod single;
pub mod spmv;
pub mod tmr;
pub mod tolerance;
pub mod weights;

pub use checksum::MatrixChecksums;
pub use correct::{CorrectionKind, CorrectionReport};
pub use single::{SingleChecksum, SingleOutcome};
pub use spmv::{ProtectedSpmv, SpmvOutcome, XRef};
pub use tmr::TmrVector;
pub use tolerance::ToleranceBound;
