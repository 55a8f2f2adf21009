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
//! Backward recovery (checkpoint / rollback) substrate.
//!
//! All three schemes in the paper share the same checkpoint contents
//! (Section 3.1): the current iteration vectors **and the sparse matrix
//! `A`** — the paper's extension of Chen's method, needed because a
//! detected error may stem from corruption of `A` in data memory, in
//! which case a valid copy must be restored. `A` never legitimately
//! changes, so the resilient executor's checkpoints contain it *by
//! reference*: a save copies the vectors only
//! ([`SolverState::store_vectors`]) and every rollback restores the
//! matrix from the caller's reliable input.
//!
//! The crate holds the checkpointed state ([`SolverState`]) and the
//! rolling store of the one live checkpoint ([`SnapshotSlot`], one
//! retained buffer). The costs the planner charges for saving and
//! restoring, the (`Tcp`, `Trec`, `Tverif`) triple, live with the
//! planner as `ftcg_model::ResilienceCosts`.
//!
//! The driver enforces the key protocol invariant (claim C1, pinned by
//! `tests/paper_claims.rs`): *a checkpoint is only ever taken
//! immediately after a passing verification*, so the last checkpoint is
//! always valid.

#![warn(missing_docs)]

mod slot;
mod state;

pub use slot::SnapshotSlot;
pub use state::SolverState;
