//! Resilience cost parameters, in units of one CG iteration (`Titer ≡ 1`,
//! as normalized in Section 5.1 of the paper).
//!
//! This is the bare triple; the profiles that supply its values per
//! scheme live next to the planner, as `ftcg_model::CostProfile`.

/// The cost parameters of the abstract performance model (Section 4.1):
/// checkpoint time `Tcp`, recovery time `Trec` and verification time
/// `Tverif`, all expressed as multiples of the raw iteration time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceCosts {
    /// Checkpoint cost `Tcp` (iterations).
    pub tcp: f64,
    /// Recovery/restore cost `Trec` (iterations).
    pub trec: f64,
    /// Per-verification cost `Tverif` (iterations).
    pub tverif: f64,
}

impl ResilienceCosts {
    /// Builds a cost model, validating non-negativity.
    ///
    /// # Panics
    /// Panics on negative or non-finite inputs.
    pub fn new(tcp: f64, trec: f64, tverif: f64) -> Self {
        assert!(
            tcp.is_finite() && trec.is_finite() && tverif.is_finite(),
            "costs must be finite"
        );
        assert!(
            tcp >= 0.0 && trec >= 0.0 && tverif >= 0.0,
            "costs must be non-negative"
        );
        Self { tcp, trec, tverif }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let c = ResilienceCosts::new(1.0, 2.0, 0.5);
        assert_eq!(c.tcp, 1.0);
        assert_eq!(c.trec, 2.0);
        assert_eq!(c.tverif, 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        ResilienceCosts::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        ResilienceCosts::new(f64::NAN, 0.0, 0.0);
    }
}
