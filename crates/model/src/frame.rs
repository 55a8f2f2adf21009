//! Expected frame time — equations (4) and (5) of the paper.

use crate::ResilienceCosts;

/// Expected time lost when an error strikes somewhere in a frame of `s`
/// chunks (the `E(T_lost)` derivation of Section 4.1):
///
/// ```text
/// E(T_lost) = (T + Tverif)·(s·q^{s+1} − (s+1)·qˢ + 1)/((1 − qˢ)(1 − q))
/// ```
pub fn expected_lost_time(s: usize, t: f64, tverif: f64, q: f64) -> f64 {
    assert!(s >= 1, "frame needs at least one chunk");
    assert!(
        (0.0..1.0).contains(&q),
        "lost time undefined without errors"
    );
    let sf = s as f64;
    let qs = q.powi(s as i32);
    (t + tverif) * (sf * qs * q - (sf + 1.0) * qs + 1.0) / ((1.0 - qs) * (1.0 - q))
}

/// Expected completion time of one frame — the closed form (eq. 5):
///
/// ```text
/// E(s,T) = Tcp + (q⁻ˢ − 1)·Trec + (T + Tverif)·(1 − qˢ)/(qˢ(1 − q))
/// ```
///
/// The `q → 1` (fault-free) limit is handled exactly:
/// `E = s·(T + Tverif) + Tcp`.
pub fn expected_frame_time(s: usize, t: f64, costs: &ResilienceCosts, q: f64) -> f64 {
    assert!(s >= 1, "frame needs at least one chunk");
    assert!((0.0..=1.0).contains(&q), "q must be a probability");
    let sf = s as f64;
    if q >= 1.0 {
        return costs.tcp + sf * (t + costs.tverif);
    }
    let qs = q.powi(s as i32);
    costs.tcp + (1.0 / qs - 1.0) * costs.trec + (t + costs.tverif) * (1.0 - qs) / (qs * (1.0 - q))
}

/// The per-time-unit overhead the model minimizes (eq. 6):
/// `E(s,T)/(s·T)`. A value of `1.0` means zero overhead.
pub fn overhead(s: usize, t: f64, costs: &ResilienceCosts, q: f64) -> f64 {
    assert!(t > 0.0, "chunk length must be positive");
    expected_frame_time(s, t, costs, q) / (s as f64 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> ResilienceCosts {
        ResilienceCosts::new(2.0, 2.0, 0.1)
    }

    #[test]
    fn fault_free_limit_exact() {
        let e = expected_frame_time(5, 1.0, &costs(), 1.0);
        assert_eq!(e, 2.0 + 5.0 * 1.1);
    }

    #[test]
    fn closed_form_satisfies_recursion() {
        // eq. (4): E = qˢ(s(T+Tv) + Tcp) + (1−qˢ)(E_lost + Trec + E)
        let (s, t, q) = (6usize, 1.0, 0.95);
        let c = costs();
        let e = expected_frame_time(s, t, &c, q);
        let qs = q.powi(s as i32);
        let elost = expected_lost_time(s, t, c.tverif, q);
        let rhs = qs * (s as f64 * (t + c.tverif) + c.tcp) + (1.0 - qs) * (elost + c.trec + e);
        assert!(
            (e - rhs).abs() < 1e-9 * e,
            "closed form {e} vs recursion {rhs}"
        );
    }

    #[test]
    fn recursion_holds_across_parameters() {
        let c = costs();
        for s in [1usize, 2, 5, 20] {
            for q in [0.5, 0.9, 0.99, 0.9999] {
                for t in [0.5, 1.0, 4.0] {
                    let e = expected_frame_time(s, t, &c, q);
                    let qs = q.powi(s as i32);
                    let elost = expected_lost_time(s, t, c.tverif, q);
                    let rhs = qs * (s as f64 * (t + c.tverif) + c.tcp)
                        + (1.0 - qs) * (elost + c.trec + e);
                    assert!((e - rhs).abs() < 1e-7 * e.max(1.0), "s={s} q={q} t={t}");
                }
            }
        }
    }

    #[test]
    fn lost_time_bounded_by_frame_work() {
        // You can never lose more than the whole frame's work.
        for s in [1usize, 3, 10] {
            for q in [0.5, 0.9, 0.999] {
                let lost = expected_lost_time(s, 1.0, 0.1, q);
                assert!(lost > 0.0);
                // Slack: the closed form suffers cancellation as q → 1.
                assert!(
                    lost <= s as f64 * 1.1 * (1.0 + 1e-8),
                    "s={s} q={q} lost={lost}"
                );
            }
        }
    }

    #[test]
    fn lost_time_single_chunk_is_chunk_cost() {
        // With s=1, an error always loses exactly one chunk.
        let lost = expected_lost_time(1, 1.0, 0.1, 0.9);
        assert!((lost - 1.1).abs() < 1e-12);
    }

    #[test]
    fn frame_time_increases_with_fault_rate() {
        let c = costs();
        let e_safe = expected_frame_time(10, 1.0, &c, 0.999);
        let e_risky = expected_frame_time(10, 1.0, &c, 0.9);
        assert!(e_risky > e_safe);
    }

    #[test]
    fn frame_time_approaches_fault_free_as_q_to_1() {
        let c = costs();
        let e_limit = expected_frame_time(8, 1.0, &c, 1.0);
        let e_close = expected_frame_time(8, 1.0, &c, 1.0 - 1e-12);
        assert!((e_close - e_limit).abs() < 1e-6);
    }

    #[test]
    fn overhead_above_one() {
        // Overhead includes the checkpoint: always > 1 for positive costs.
        assert!(overhead(5, 1.0, &costs(), 0.99) > 1.0);
    }

    #[test]
    fn overhead_has_interior_minimum() {
        // For moderate fault rates the overhead is U-shaped in s: large s
        // amortizes checkpoints but loses more work per error.
        let c = costs();
        let q = 0.99;
        let o1 = overhead(1, 1.0, &c, q);
        let o10 = overhead(14, 1.0, &c, q);
        let o200 = overhead(600, 1.0, &c, q);
        assert!(o10 < o1, "o(14)={o10} should beat o(1)={o1}");
        assert!(o10 < o200, "o(14)={o10} should beat o(600)={o200}");
    }
}
