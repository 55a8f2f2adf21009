//! The fault rate.
//!
//! `α ∈ (0, 1)` is the expected number of faults per CG iteration: the
//! paper sets `λ = α/M` per memory word and gives every word one chance
//! per iteration, so `E[faults/iter] = M·λ = α`. Its inverse `1/α` is
//! the *normalized MTBF* on Figure 1's x-axis; Table 1 uses
//! `λ = 1/(16M)`, i.e. `α = 1/16`.

/// Fault-rate parameterization over a memory footprint of `M` words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRate {
    /// Expected faults per iteration (`α`).
    pub(crate) alpha: f64,
    /// Memory footprint in words (`M`).
    pub(crate) memory_words: usize,
}

impl FaultRate {
    /// Builds from `α` directly.
    ///
    /// # Panics
    /// Panics if `alpha` is negative or not finite.
    pub fn from_alpha(alpha: f64, memory_words: usize) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be >= 0");
        Self {
            alpha,
            memory_words,
        }
    }

    /// Expected faults per iteration (`α`) — the total process rate with
    /// `Titer` normalized to 1, i.e. the `λ` of the performance model.
    pub(crate) fn per_iteration(&self) -> f64 {
        self.alpha
    }
}
