//! The cost profiles the planner is fed, in units of one raw iteration
//! (`Titer ≡ 1`, the normalisation of Section 5.1).
//!
//! Two profiles exist, and they disagree on the ABFT verification cost
//! (`Tverif` 0.02 against 0.1 / 0.2). Neither is what the machine
//! measures: `ftcg_sim::measure::measure_costs` (the benchmark's
//! `sim.*_iters` per-layer metrics) finds the checkpoint far cheaper and
//! ABFT verification dearer. Settling on one measured profile moves
//! every planned interval and simulated time, so it is a separate,
//! benchmarked change.

use ftcg_checkpoint::ResilienceCosts;

use crate::Scheme;

/// Checkpoint and recovery costs plus one verification cost per scheme;
/// [`CostProfile::for_scheme`] picks the triple eq. 6 is solved with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Checkpoint cost `Tcp` (iterations).
    pub tcp: f64,
    /// Recovery cost `Trec` (iterations).
    pub trec: f64,
    /// ABFT-DETECTION's single-checksum verification `Tverif`.
    pub tverif_detect: f64,
    /// ABFT-CORRECTION's dual-checksum verification `Tverif`.
    pub tverif_correct: f64,
    /// ONLINE-DETECTION's verification `Tverif` (a residual recompute:
    /// one extra SpMxV, about one iteration).
    pub tverif_online: f64,
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
