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
//! Silent-error injection substrate for the `ftcg` reproduction.
//!
//! Implements the fault model of Section 5.1 of the paper:
//!
//! * faults are **bit flips** striking either the sparse matrix arrays
//!   (`Val`, `Colid`, `Rowidx`) or any entry of the CG iteration vectors
//!   `r`, `q`, `p`, `x`;
//! * inter-arrival times are **exponential** with rate `λ`; per iteration
//!   (with `Titer` normalized to 1) each memory word gets at most one
//!   chance to fail, so the per-iteration fault count is Poisson with mean
//!   `λ·M` where `M` is the memory footprint in words;
//! * the rate is chosen as `λ = α / M` with `α ∈ (0, 1)` so that the
//!   expected number of iterations between faults, `1/α` (the paper's
//!   *normalized MTBF*), is independent of the matrix;
//! * **selective reliability**: checksum data and checksum computations
//!   are never targeted — only buffers explicitly registered with the
//!   injector can be struck.
//!
//! The model takes two forms, named by [`InjectorSpec`]: the paper's
//! (`Paper`) and the calibrated matrix-only ablation of the
//! model-validation experiments (`Calibrated`). [`Injector::new`] is the
//! one constructor; [`paper_injector`] is its `Paper` instance.

#![warn(missing_docs)]
// Index words are `u32`: a narrowing cast goes through `try_from` on a
// path with a typed error (or an `#[expect]` that says why it is exact),
// never through a silently truncating `as`. Tests build their corrupt
// inputs with `as`.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod bitflip;
mod inject;
pub mod injector;
pub mod ledger;
mod process;
pub mod target;

pub use inject::{paper_injector, InjectorSpec};
pub use injector::{FaultEvent, Injector};
pub use target::FaultTarget;
