//! Chunk success probabilities (Section 4.2).

/// Success probability of a chunk of length `t` under a Poisson fault
/// process of rate `lambda` when the scheme only *detects*: the chunk
/// succeeds iff **zero** errors strike — `q = e^{−λt}`.
pub fn q_detection(lambda: f64, t: f64) -> f64 {
    assert!(lambda >= 0.0 && t >= 0.0, "rate and length must be >= 0");
    (-lambda * t).exp()
}

/// Success probability when the scheme corrects a single error: the
/// chunk succeeds iff **zero or one** error strikes —
/// `q = e^{−λt} + λt·e^{−λt}` (Section 4.2.3).
pub fn q_correction(lambda: f64, t: f64) -> f64 {
    assert!(lambda >= 0.0 && t >= 0.0, "rate and length must be >= 0");
    let lt = lambda * t;
    (-lt).exp() * (1.0 + lt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_zero_rate_is_certain() {
        assert_eq!(q_detection(0.0, 5.0), 1.0);
        assert_eq!(q_correction(0.0, 5.0), 1.0);
    }

    #[test]
    fn detection_matches_poisson_zero_term() {
        let (l, t) = (0.3, 2.0);
        assert!((q_detection(l, t) - (-0.6f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn correction_matches_poisson_first_two_terms() {
        let (l, t) = (0.3, 2.0);
        let want = (-0.6f64).exp() * (1.0 + 0.6);
        assert!((q_correction(l, t) - want).abs() < 1e-15);
    }

    #[test]
    fn correction_dominates_detection() {
        for &(l, t) in &[(0.01, 1.0), (0.5, 1.0), (1.0, 3.0)] {
            assert!(q_correction(l, t) > q_detection(l, t));
            assert!(q_correction(l, t) <= 1.0);
        }
    }

    #[test]
    fn probabilities_in_unit_interval() {
        for i in 0..50 {
            let l = 0.05 * i as f64;
            let q = q_correction(l, 1.0);
            assert!((0.0..=1.0).contains(&q), "q={q} at lambda={l}");
        }
    }
}
