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
//! The abstract performance model of Section 4.
//!
//! Execution is partitioned into *frames* of `s` *chunks*; each chunk is
//! `T` time units of work followed by a verification (cost `Tverif`),
//! each frame ends with a checkpoint (cost `Tcp`); a detected error costs
//! the work since the last checkpoint plus a recovery (`Trec`). With
//! chunk success probability `q`, the expected frame time is (eq. 5)
//!
//! ```text
//! E(s,T) = Tcp + (q⁻ˢ − 1)·Trec + (T + Tverif)·(1 − qˢ)/(qˢ·(1 − q))
//! ```
//!
//! and the model picks `s* = argmin E(s,T)/(s·T)` (eq. 6).
//!
//! Instantiations (Section 4.2): ONLINE-DETECTION has `T = d·Titer` and
//! `q = e^{−λT}`; ABFT-DETECTION has `T = Titer`, same `q`;
//! ABFT-CORRECTION has `T = Titer` and `q = e^{−λT}·(1 + λT)` — an
//! iteration survives zero *or one* error.
//!
//! [`plan`] solves eq. 6 for every front end: campaigns, the
//! `ResilientCg` builder and the Table 1 / Figure 1 harness differ only
//! in the [`CostProfile`] they feed it ([`CostProfile::DEFAULT`] or
//! [`CostProfile::PAPER_LIKE`]).

#![warn(missing_docs)]

mod cost;
mod frame;
pub mod optimize;
mod success;

pub use cost::{CostProfile, ResilienceCosts};
pub use frame::{expected_frame_time, expected_lost_time, overhead};
pub use optimize::plan;
pub use success::{q_correction, q_detection};

/// Which resilience scheme a model instantiation describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Chen's periodic verification (orthogonality + residual) + checkpoint.
    OnlineDetection,
    /// ABFT single-checksum detection each iteration + checkpoint.
    AbftDetection,
    /// ABFT dual-checksum detection/correction each iteration + checkpoint.
    AbftCorrection,
}

impl Scheme {
    /// All schemes, in the paper's presentation order.
    pub const ALL: [Scheme; 3] = [
        Scheme::OnlineDetection,
        Scheme::AbftDetection,
        Scheme::AbftCorrection,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::OnlineDetection => "ONLINE-DETECTION",
            Scheme::AbftDetection => "ABFT-DETECTION",
            Scheme::AbftCorrection => "ABFT-CORRECTION",
        }
    }

    /// Chunk success probability for fault rate `lambda` and chunk
    /// length `t` (Section 4.2).
    pub fn chunk_success(&self, lambda: f64, t: f64) -> f64 {
        match self {
            Scheme::OnlineDetection | Scheme::AbftDetection => q_detection(lambda, t),
            Scheme::AbftCorrection => q_correction(lambda, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_match_paper() {
        assert_eq!(Scheme::OnlineDetection.name(), "ONLINE-DETECTION");
        assert_eq!(Scheme::AbftDetection.name(), "ABFT-DETECTION");
        assert_eq!(Scheme::AbftCorrection.name(), "ABFT-CORRECTION");
    }

    #[test]
    fn correction_survives_more() {
        let (l, t) = (0.2, 1.0);
        assert!(
            Scheme::AbftCorrection.chunk_success(l, t) > Scheme::AbftDetection.chunk_success(l, t)
        );
    }
}
