//! The costs the planner is fed, in units of one raw iteration
//! (`Titer ≡ 1`, the normalisation of Section 5.1): the
//! (`Tcp`, `Trec`, `Tverif`) triple eq. 5 is written in,
//! [`ResilienceCosts`], and the profiles that supply it per scheme,
//! [`CostProfile`].
//!
//! Two profiles exist, and they disagree on the ABFT verification cost
//! (`Tverif` 0.02 against 0.1 / 0.2). Neither is what the machine
//! measures: `ftcg_sim::measure::measure_costs` (the benchmark's
//! `sim.*_iters` per-layer metrics) finds the checkpoint far cheaper and
//! ABFT verification dearer. Settling on one measured profile moves
//! every planned interval and simulated time, so it is a separate,
//! benchmarked change.

use crate::Scheme;

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

/// Checkpoint and recovery costs plus one verification cost per scheme;
/// [`CostProfile::for_scheme`] picks the triple eq. 6 is solved with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Checkpoint cost `Tcp` (iterations).
    pub(crate) tcp: f64,
    /// Recovery cost `Trec` (iterations).
    pub(crate) trec: f64,
    /// ABFT-DETECTION's single-checksum verification `Tverif`.
    pub(crate) tverif_detect: f64,
    /// ABFT-CORRECTION's dual-checksum verification `Tverif`.
    pub(crate) tverif_correct: f64,
    /// ONLINE-DETECTION's verification `Tverif` (a residual recompute:
    /// one extra SpMxV, about one iteration).
    pub(crate) tverif_online: f64,
}

impl CostProfile {
    /// The profile of campaigns (`plan_config`), the `ResilientCg`
    /// builder (`ftcg solve`) and a bare `ResilientConfig`: checkpoints
    /// and recoveries of a few iterations, a checksum test of 2 % of one.
    pub const DEFAULT: CostProfile = CostProfile {
        tcp: 2.0,
        trec: 2.0,
        tverif_detect: 0.02,
        tverif_correct: 0.02,
        tverif_online: 1.0,
    };

    /// The profile of the Table 1 / Figure 1 harness (`ftcg table1`,
    /// `ftcg figure1`): as [`CostProfile::DEFAULT`], but the checksum
    /// tests cost 10 % (single) and 20 % (dual) of an iteration.
    pub const PAPER_LIKE: CostProfile = CostProfile {
        tcp: 2.0,
        trec: 2.0,
        tverif_detect: 0.1,
        tverif_correct: 0.2,
        tverif_online: 1.0,
    };

    /// The (`Tcp`, `Trec`, `Tverif`) triple of `scheme`.
    pub fn for_scheme(&self, scheme: Scheme) -> ResilienceCosts {
        let tverif = match scheme {
            Scheme::OnlineDetection => self.tverif_online,
            Scheme::AbftDetection => self.tverif_detect,
            Scheme::AbftCorrection => self.tverif_correct,
        };
        ResilienceCosts::new(self.tcp, self.trec, tverif)
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

    #[test]
    fn online_verification_costlier_than_abft() {
        for profile in [CostProfile::DEFAULT, CostProfile::PAPER_LIKE] {
            let online = profile.for_scheme(Scheme::OnlineDetection).tverif;
            for abft in [Scheme::AbftDetection, Scheme::AbftCorrection] {
                assert!(online > profile.for_scheme(abft).tverif, "{abft:?}");
            }
        }
    }

    #[test]
    fn scheme_mapping() {
        let p = CostProfile::PAPER_LIKE;
        let online = p.for_scheme(Scheme::OnlineDetection);
        let det = p.for_scheme(Scheme::AbftDetection);
        let cor = p.for_scheme(Scheme::AbftCorrection);
        assert_eq!((online.tcp, online.trec), (p.tcp, p.trec));
        assert_eq!((det.tcp, det.trec), (cor.tcp, cor.trec));
        assert_eq!(
            [online.tverif, det.tverif, cor.tverif],
            [p.tverif_online, p.tverif_detect, p.tverif_correct]
        );
    }
}
