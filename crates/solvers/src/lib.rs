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
//! Iterative solvers with pluggable silent-error resilience.
//!
//! Two solvers, each a steppable state machine
//! ([`machine::IterativeSolver`]): `cg`, the paper's Algorithm 1, and
//! [`pcg`], Jacobi-preconditioned CG (the authors' follow-up carries the
//! same backward/forward recovery to PCG). The plain `*_solve` entry
//! points are thin wrappers that drive the machine bit-for-bit
//! identically to the historical monolithic loops. The [`resilient`]
//! module runs either machine under each of the paper's three schemes
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
//! solve-scoped memory — machines, matrix images, checkpoints, ABFT
//! shadows — is then retained and reset in place across repetitions,
//! bit-identically to fresh allocation and with zero steady-state heap
//! traffic (see `workspace`).

#![warn(missing_docs)]

mod cg;
pub mod machine;
pub mod pcg;
pub mod resilient;
mod stopping;
mod verify;
mod workspace;

pub use cg::{cg_solve, CgConfig, SolveStats};
pub use machine::{CanonVec, SolverKind};
pub use pcg::pcg_jacobi_solve;
pub use resilient::{ResilientConfigError, ResilientOutcome};
pub use stopping::StoppingCriterion;
pub use workspace::SolverWorkspace;
