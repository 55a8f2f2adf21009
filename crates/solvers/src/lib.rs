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
//! The paper's Conjugate Gradient with pluggable silent-error
//! resilience.
//!
//! One solver: CG, the paper's Algorithm 1, as a steppable state
//! machine ([`CgMachine`], see [`machine`]). The plain [`cg_solve`]
//! entry point is a thin wrapper that drives the machine bit-for-bit
//! identically to the historical monolithic loop. The [`resilient`]
//! module runs the machine under each of the paper's three schemes
//! through one executor:
//!
//! * **ONLINE-DETECTION** — Chen's periodic stability tests
//!   (orthogonality + recomputed residual) every `d` iterations,
//!   checkpoint every `s` chunks, rollback on detection;
//! * **ABFT-DETECTION** — single-checksum ABFT verification of every
//!   SpMxV (chunk = 1 iteration), rollback on detection;
//! * **ABFT-CORRECTION** — dual-checksum ABFT that corrects single
//!   errors *forward* and rolls back only when two or more errors strike
//!   one iteration.
//!
//! Repetition loops (Monte-Carlo campaigns) should hold a
//! [`SolverWorkspace`] and call [`resilient::solve_resilient_in`]: all
//! solve-scoped memory — the machine, the row order, the flips of the
//! live matrix, the checkpoint, the trusted input copy, the fault lists
//! — is then retained and reset in place across repetitions,
//! bit-identically to fresh allocation and with zero steady-state heap
//! traffic (see `workspace`).

#![warn(missing_docs)]

mod cg;
pub mod machine;
pub mod resilient;
mod stopping;
mod verify;
mod workspace;

pub use cg::{cg_solve, CgConfig, CgMachine, SolveStats};
pub use resilient::ResilientOutcome;
pub use stopping::StoppingCriterion;
pub use workspace::SolverWorkspace;
