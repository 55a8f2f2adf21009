//! Numerical minimization of the model overhead (eq. 6).
//!
//! "The minimization is complicated and should be conducted numerically"
//! (Section 4.1) — the search spaces here are small (checkpoint interval
//! `s` up to a few thousand, verification interval `d` up to a few
//! hundred), so exhaustive scans are exact and instant.

use ftcg_checkpoint::ResilienceCosts;

use crate::frame::overhead;
use crate::success::q_detection;
use crate::Scheme;

/// An optimal checkpoint interval with its predicted overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Optimum {
    /// Number of chunks per frame (`s*`).
    pub s: usize,
    /// The minimized `E(s,T)/(sT)`.
    pub overhead: f64,
}

/// Scans `s ∈ 1..=s_max` for the minimizer of `E(s,T)/(sT)` at fixed
/// chunk length `t` and success probability `q`.
pub fn optimal_s(t: f64, costs: &ResilienceCosts, q: f64, s_max: usize) -> Optimum {
    assert!(s_max >= 1, "need at least one candidate");
    let mut best = Optimum {
        s: 1,
        overhead: overhead(1, t, costs, q),
    };
    for s in 2..=s_max {
        let o = overhead(s, t, costs, q);
        if o < best.overhead {
            best = Optimum { s, overhead: o };
        }
    }
    best
}

/// Model-optimal checkpoint interval for the two ABFT schemes, where a
/// chunk is one iteration (`T = Titer`). `lambda` is the fault rate per
/// iteration (`α`), `titer` the iteration cost (1 when normalized).
pub fn optimal_abft_interval(
    scheme: Scheme,
    lambda: f64,
    titer: f64,
    costs: &ResilienceCosts,
    s_max: usize,
) -> Optimum {
    assert!(
        scheme != Scheme::OnlineDetection,
        "use optimal_online_interval for ONLINE-DETECTION"
    );
    let q = scheme.chunk_success(lambda, titer);
    optimal_s(titer, costs, q, s_max)
}

/// Verification/checkpoint plan for ONLINE-DETECTION: verify every `d`
/// iterations, checkpoint every `s` chunks (`c = s` in Chen's notation,
/// checkpoint period `s·d` iterations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlinePlan {
    /// Iterations per chunk (`d*`).
    pub d: usize,
    /// Chunks per frame (`s*`, Chen's `c`).
    pub s: usize,
    /// The minimized overhead.
    pub overhead: f64,
}

/// Joint scan over `(d, s)` for ONLINE-DETECTION: chunk length
/// `T = d·titer`, success `q = e^{−λT}`.
pub fn optimal_online_interval(
    lambda: f64,
    titer: f64,
    costs: &ResilienceCosts,
    d_max: usize,
    s_max: usize,
) -> OnlinePlan {
    assert!(d_max >= 1 && s_max >= 1);
    let mut best = OnlinePlan {
        d: 1,
        s: 1,
        overhead: f64::INFINITY,
    };
    for d in 1..=d_max {
        let t = d as f64 * titer;
        let q = q_detection(lambda, t);
        let opt = optimal_s(t, costs, q, s_max);
        if opt.overhead < best.overhead {
            best = OnlinePlan {
                d,
                s: opt.s,
                overhead: opt.overhead,
            };
        }
    }
    best
}

/// Longest checkpoint interval [`plan`] scans for the ABFT schemes.
const ABFT_S_MAX: usize = 4000;
/// ONLINE-DETECTION's scan bounds for `d` and `s` in [`plan`].
const ONLINE_D_MAX: usize = 64;
const ONLINE_S_MAX: usize = 1000;

/// The planner: the model-optimal `(s, d)` of `scheme` at `alpha`
/// expected faults per iteration, with `Titer ≡ 1` and `costs` the
/// scheme's (`Tcp`, `Trec`, `Tverif`) triple. `d` is 1 for the ABFT
/// schemes, which verify every iteration.
///
/// Campaigns, the `ResilientCg` builder and the Table 1 / Figure 1
/// harness all plan through this function (via
/// `ResilientConfig::model_optimal`); only the cost triple they pass
/// differs (see [`crate::CostProfile`]). `alpha` is floored at `1e-9`,
/// so a fault-free run gets the longest interval scanned.
pub fn plan(scheme: Scheme, alpha: f64, costs: &ResilienceCosts) -> (usize, usize) {
    let alpha = alpha.max(1e-9);
    match scheme {
        Scheme::OnlineDetection => {
            let p = optimal_online_interval(alpha, 1.0, costs, ONLINE_D_MAX, ONLINE_S_MAX);
            (p.s, p.d)
        }
        _ => (
            optimal_abft_interval(scheme, alpha, 1.0, costs, ABFT_S_MAX).s,
            1,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::success::q_correction;
    use crate::CostProfile;

    fn costs() -> ResilienceCosts {
        ResilienceCosts::new(2.0, 2.0, 0.05)
    }

    #[test]
    fn optimal_s_is_global_minimum_of_scan() {
        let c = costs();
        let q = 0.995;
        let best = optimal_s(1.0, &c, q, 500);
        for s in 1..=500 {
            assert!(overhead(s, 1.0, &c, q) >= best.overhead - 1e-15);
        }
    }

    #[test]
    fn interval_shrinks_with_fault_rate() {
        let c = costs();
        let s_low = optimal_abft_interval(Scheme::AbftDetection, 1e-4, 1.0, &c, 5000).s;
        let s_high = optimal_abft_interval(Scheme::AbftDetection, 0.05, 1.0, &c, 5000).s;
        assert!(
            s_low > s_high,
            "fewer faults should allow longer frames: {s_low} vs {s_high}"
        );
    }

    #[test]
    fn correction_allows_longer_frames_than_detection() {
        // Claim C2: forward recovery increases chunk success, so the model
        // checkpoints less often.
        let c = costs();
        let lambda = 1.0 / 16.0; // Table 1 rate
        let det = optimal_abft_interval(Scheme::AbftDetection, lambda, 1.0, &c, 5000);
        let cor = optimal_abft_interval(Scheme::AbftCorrection, lambda, 1.0, &c, 5000);
        assert!(
            cor.s > det.s,
            "correction {} should exceed detection {}",
            cor.s,
            det.s
        );
        assert!(cor.overhead < det.overhead);
    }

    #[test]
    fn table1_magnitudes_plausible() {
        // At α = 1/16 with iteration-scale costs, the paper's Table 1
        // reports optimal intervals around 10–20 chunks.
        let c = costs();
        let det = optimal_abft_interval(Scheme::AbftDetection, 1.0 / 16.0, 1.0, &c, 5000);
        assert!(
            (4..=60).contains(&det.s),
            "detection interval {} outside plausible Table 1 range",
            det.s
        );
    }

    #[test]
    fn online_plan_verifies_less_often_than_abft() {
        // With Tverif ≈ Titer, verifying every iteration is wasteful; the
        // model must pick d > 1.
        let c = ResilienceCosts::new(2.0, 2.0, 1.0);
        let plan = optimal_online_interval(0.01, 1.0, &c, 200, 200);
        assert!(plan.d > 1, "expected d > 1, got {}", plan.d);
    }

    #[test]
    fn online_plan_is_global_minimum() {
        let c = ResilienceCosts::new(2.0, 2.0, 1.0);
        let plan = optimal_online_interval(0.02, 1.0, &c, 50, 100);
        for d in 1..=50usize {
            let t = d as f64;
            let q = q_detection(0.02, t);
            for s in 1..=100usize {
                assert!(overhead(s, t, &c, q) >= plan.overhead - 1e-12);
            }
        }
    }

    #[test]
    fn q_correction_used_for_correction_scheme() {
        let lambda = 0.1;
        let q = Scheme::AbftCorrection.chunk_success(lambda, 1.0);
        assert_eq!(q, q_correction(lambda, 1.0));
    }

    #[test]
    #[should_panic(expected = "optimal_online_interval")]
    fn abft_helper_rejects_online_scheme() {
        optimal_abft_interval(Scheme::OnlineDetection, 0.1, 1.0, &costs(), 10);
    }

    #[test]
    fn zero_rate_prefers_max_interval() {
        // Without faults the only cost is the checkpoint: amortize it over
        // as many chunks as allowed.
        let best = optimal_s(1.0, &costs(), 1.0, 300);
        assert_eq!(best.s, 300);
    }

    #[test]
    fn plan_shapes() {
        for profile in [CostProfile::DEFAULT, CostProfile::PAPER_LIKE] {
            let (s, d) = plan(
                Scheme::OnlineDetection,
                0.01,
                &profile.for_scheme(Scheme::OnlineDetection),
            );
            assert!(s >= 1 && d > 1, "online ({s}, {d})");
            for abft in [Scheme::AbftDetection, Scheme::AbftCorrection] {
                let (s, d) = plan(abft, 0.01, &profile.for_scheme(abft));
                assert!(s >= 1 && d == 1, "{abft:?} ({s}, {d})");
            }
        }
    }

    /// `(s, d)` per scheme, in `Scheme::ALL` order, for both profiles —
    /// values captured from an earlier build, so a planner change that
    /// moves any interval fails here.
    #[test]
    fn plan_matches_a_pinned_earlier_build() {
        let table = |profile: CostProfile, alpha: f64| {
            Scheme::ALL.map(|scheme| plan(scheme, alpha, &profile.for_scheme(scheme)))
        };
        let t1 = 1.0 / 16.0;
        assert_eq!(table(CostProfile::DEFAULT, t1), [(1, 6), (6, 1), (44, 1)]);
        assert_eq!(
            table(CostProfile::PAPER_LIKE, t1),
            [(1, 6), (6, 1), (41, 1)]
        );
        for profile in [CostProfile::DEFAULT, CostProfile::PAPER_LIKE] {
            assert_eq!(table(profile, 0.0), [(981, 64), (4000, 1), (4000, 1)]);
        }
    }
}
