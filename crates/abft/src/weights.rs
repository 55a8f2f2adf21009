//! The checksum weight vectors.
//!
//! Algorithm 2 fixes `Wᵀ = [1 1 … 1; 1 2 … n] ∈ R^{2×n}` (extended with an
//! `(n+1)`-st column for the row-pointer checksum). The first row is the
//! classic Huang–Abraham all-ones checksum; the second row carries the
//! *position*, so that for a single error the ratio of the two checksum
//! residues reveals where it struck:
//! if `y_d` is off by `δ`, the residues are `[δ, (d+1)·δ]` (0-based `d`)
//! and the ratio recovers `d`.
//!
//! The matrix has exactly two rows, so the weights of a position and
//! the norms of the rows are each one `[f64; 2]`, indexed by row; the
//! ratio test's slack is the one constant [`RATIO_EPS`].

/// The two weights at position `i`: `[w₁(i), w₂(i)] = [1, i + 1]` (the
/// 1-based position of entry `i`).
#[inline]
pub(crate) fn weights(i: usize) -> [f64; 2] {
    [1.0, (i + 1) as f64]
}

/// Infinity norms of the two weight rows over positions `0..n`,
/// `[1, n]` (they enter the Theorem 2 tolerance bound).
#[inline]
pub(crate) fn weight_norms_inf(n: usize) -> [f64; 2] {
    [1.0, n as f64]
}

/// The relative slack `eps` that ABFT-CORRECTION passes to
/// [`locate_from_ratio`]: the paper's "distance from an integer smaller
/// than a threshold ε".
pub(crate) const RATIO_EPS: f64 = 1e-4;

/// Recovers the 0-based error position from the two checksum residues
/// `d = [δ, (pos+1)·δ]`, if the ratio is close enough to an integer in
/// `1..=n`. Returns `None` when the residues are inconsistent with a
/// single error (paper: "otherwise, it just emits an error").
///
/// `eps` is a *relative* slack: the allowed distance from an integer is
/// `min(0.45, eps·(1 + |ratio|))`, so near-threshold residues (whose
/// ratio carries rounding noise proportional to the position) still
/// localize, while the distance can never be ambiguous between two
/// integers. A mis-localization on pathological inputs is harmless: the
/// correction layer re-verifies every repair and falls back to rollback.
pub(crate) fn locate_from_ratio(d0: f64, d1: f64, n: usize, eps: f64) -> Option<usize> {
    if d0 == 0.0 || !d0.is_finite() || !d1.is_finite() {
        return None;
    }
    let ratio = d1 / d0;
    let nearest = ratio.round();
    let slack = (eps * (1.0 + ratio.abs())).min(0.45);
    if (ratio - nearest).abs() > slack {
        return None;
    }
    if nearest < 1.0 || nearest > n as f64 {
        return None;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`nearest` is an integer in 1..=n, checked above, so the cast is exact"
    )]
    let position = nearest as usize;
    Some(position - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_rows() {
        assert_eq!(weights(0)[0], 1.0);
        assert_eq!(weights(100)[0], 1.0);
        assert_eq!(weights(0)[1], 1.0);
        assert_eq!(weights(9)[1], 10.0);
    }

    #[test]
    fn norms() {
        assert_eq!(weight_norms_inf(50)[0], 1.0);
        assert_eq!(weight_norms_inf(50)[1], 50.0);
    }

    #[test]
    fn locate_exact() {
        // error at 0-based position 3, magnitude 0.5
        let delta = 0.5;
        assert_eq!(locate_from_ratio(delta, 4.0 * delta, 10, 1e-8), Some(3));
    }

    #[test]
    fn locate_first_and_last() {
        assert_eq!(locate_from_ratio(1.0, 1.0, 10, 1e-8), Some(0));
        assert_eq!(locate_from_ratio(2.0, 20.0, 10, 1e-8), Some(9));
    }

    #[test]
    fn locate_rejects_zero_first_residue() {
        assert_eq!(locate_from_ratio(0.0, 3.0, 10, 1e-8), None);
    }

    #[test]
    fn locate_rejects_non_integer_ratio() {
        assert_eq!(locate_from_ratio(1.0, 3.4, 10, 1e-8), None);
    }

    #[test]
    fn locate_rejects_out_of_range() {
        assert_eq!(locate_from_ratio(1.0, 11.0, 10, 1e-8), None);
        assert_eq!(locate_from_ratio(1.0, 0.4, 10, 1e-8), None);
        assert_eq!(locate_from_ratio(1.0, -2.0, 10, 1e-8), None);
    }

    #[test]
    fn locate_rejects_nan_inf() {
        assert_eq!(locate_from_ratio(f64::NAN, 1.0, 10, 1e-8), None);
        assert_eq!(locate_from_ratio(1.0, f64::INFINITY, 10, 1e-8), None);
    }

    #[test]
    fn locate_tolerates_small_noise() {
        assert_eq!(locate_from_ratio(1.0, 5.0 + 1e-10, 10, 1e-8), Some(4));
    }
}
