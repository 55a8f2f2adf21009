//! Property tests for the performance model: structural invariants of
//! eq. (4)/(5) and the optimizers, over randomized parameters.

use ftcg_model::ResilienceCosts;
use ftcg_model::{
    expected_frame_time, expected_lost_time, optimize, overhead, q_correction, q_detection, Scheme,
};
use proptest::prelude::*;

fn costs_strategy() -> impl Strategy<Value = ResilienceCosts> {
    (0.1..10.0f64, 0.1..10.0f64, 0.001..2.0f64)
        .prop_map(|(tcp, trec, tv)| ResilienceCosts::new(tcp, trec, tv))
}

proptest! {
    /// The closed form (eq. 5) satisfies the defining recursion (eq. 4)
    /// for arbitrary parameters.
    #[test]
    fn closed_form_satisfies_recursion(
        s in 1usize..64,
        t in 0.1..8.0f64,
        q in 0.2..0.999_999f64,
        costs in costs_strategy(),
    ) {
        let e = expected_frame_time(s, t, &costs, q);
        let qs = q.powi(s as i32);
        let elost = expected_lost_time(s, t, costs.tverif, q);
        let rhs = qs * (s as f64 * (t + costs.tverif) + costs.tcp)
            + (1.0 - qs) * (elost + costs.trec + e);
        prop_assert!((e - rhs).abs() <= 1e-6 * e.max(1.0), "{e} vs {rhs}");
    }

    /// Expected frame time is monotone: more chunks cost more in
    /// absolute terms.
    #[test]
    fn frame_time_monotone_in_s(
        s in 1usize..40,
        q in 0.5..0.9999f64,
        costs in costs_strategy(),
    ) {
        let e1 = expected_frame_time(s, 1.0, &costs, q);
        let e2 = expected_frame_time(s + 1, 1.0, &costs, q);
        prop_assert!(e2 > e1);
    }

    /// Frame time decreases as the chunk success probability rises.
    #[test]
    fn frame_time_monotone_in_q(
        s in 1usize..40,
        q in 0.3..0.99f64,
        costs in costs_strategy(),
    ) {
        let e_low = expected_frame_time(s, 1.0, &costs, q);
        let e_high = expected_frame_time(s, 1.0, &costs, (q + 0.009).min(1.0));
        prop_assert!(e_high <= e_low + 1e-12);
    }

    /// Expected lost time stays within (0, frame work].
    #[test]
    fn lost_time_bounds(
        s in 1usize..64,
        t in 0.1..4.0f64,
        tv in 0.0..1.0f64,
        q in 0.2..0.999f64,
    ) {
        let lost = expected_lost_time(s, t, tv, q);
        prop_assert!(lost > 0.0);
        prop_assert!(lost <= s as f64 * (t + tv) * (1.0 + 1e-8));
    }

    /// The scanner's optimum really is the scan's minimum.
    #[test]
    fn optimal_s_is_minimum(
        q in 0.8..0.99999f64,
        costs in costs_strategy(),
    ) {
        let best = optimize::optimal_s(1.0, &costs, q, 300);
        for s in 1..=300 {
            prop_assert!(overhead(s, 1.0, &costs, q) >= best.overhead - 1e-12);
        }
    }

    /// Correction's success probability dominates detection's, strictly
    /// for any positive rate.
    #[test]
    fn correction_dominates(lambda in 1e-6..2.0f64, t in 0.1..10.0f64) {
        let qd = q_detection(lambda, t);
        let qc = q_correction(lambda, t);
        prop_assert!(qc > qd);
        prop_assert!(qc <= 1.0 && qd > 0.0);
    }

    /// Correction's optimal interval is never shorter than detection's.
    #[test]
    fn correction_interval_dominates(
        lambda in 1e-4..0.5f64,
        costs in costs_strategy(),
    ) {
        let sd = optimize::optimal_abft_interval(Scheme::AbftDetection, lambda, 1.0, &costs, 2000).s;
        let sc = optimize::optimal_abft_interval(Scheme::AbftCorrection, lambda, 1.0, &costs, 2000).s;
        prop_assert!(sc >= sd, "sc={sc} sd={sd}");
    }

    /// The online plan's overhead never beats an oracle that verifies
    /// for free (lower-bound sanity).
    #[test]
    fn online_overhead_sane(lambda in 1e-4..0.2f64, costs in costs_strategy()) {
        let plan = optimize::optimal_online_interval(lambda, 1.0, &costs, 48, 300);
        prop_assert!(plan.overhead >= 1.0);
        prop_assert!(plan.overhead.is_finite());
        prop_assert!(plan.d >= 1 && plan.s >= 1);
    }
}
