//! Dense vector kernels used by the iterative solvers.
//!
//! These are the `axpy`, `dot` and norm operations that appear in
//! Algorithm 1 of the paper, written against slices.
//!
//! All kernels are sequential, allocation-free and panic on length
//! mismatch (programming error, not a data error).

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        acc += a * b;
    }
    acc
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm `‖x‖₂²` (what CG actually needs for `β`).
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Infinity norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// One norm `‖x‖₁`.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// `y ← a·x + y`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

/// `y ← x` (element copy; explicit name for readability at call sites).
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "copy: length mismatch");
    y.copy_from_slice(x);
}

/// `x ← x − y` elementwise.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn sub_assign(x: &mut [f64], y: &[f64]) {
    assert_eq!(x.len(), y.len(), "sub_assign: length mismatch");
    for (a, b) in x.iter_mut().zip(y.iter()) {
        *a -= b;
    }
}

/// Sum of all entries, `Σᵢ xᵢ`. Used by the ABFT output-checksum test.
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Weighted sum `Σᵢ wᵢ·xᵢ` with the paper's second weight row `wᵢ = i+1`
/// (1-based positions). Exposed here so both the checksum builder and the
/// TMR layer share one definition.
#[inline]
pub fn indexed_sum(x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (i, v) in x.iter().enumerate() {
        acc += (i + 1) as f64 * v;
    }
    acc
}

/// Maximum absolute componentwise difference `max_i |x_i − y_i|`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter()
        .zip(y.iter())
        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm2_sq_matches_dot() {
        let x = [1.5, -2.0, 0.25];
        assert_eq!(norm2_sq(&x), dot(&x, &x));
    }

    #[test]
    fn norm_inf_picks_largest_abs() {
        assert_eq!(norm_inf(&[1.0, -7.5, 3.0]), 7.5);
    }

    #[test]
    fn norm1_sums_abs() {
        assert_eq!(norm1(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    fn axpy_basic() {
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn axpy_zero_alpha_is_identity() {
        let mut y = [4.0, 5.0];
        axpy(0.0, &[9.0, 9.0], &mut y);
        assert_eq!(y, [4.0, 5.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [2.0, -4.0];
        scale(0.5, &mut x);
        assert_eq!(x, [1.0, -2.0]);
    }

    #[test]
    fn copy_duplicates() {
        let mut y = [0.0; 2];
        copy(&[1.0, 2.0], &mut y);
        assert_eq!(y, [1.0, 2.0]);
    }

    #[test]
    fn sub_assign_subtracts() {
        let mut x = [5.0, 5.0];
        sub_assign(&mut x, &[2.0, 3.0]);
        assert_eq!(x, [3.0, 2.0]);
    }

    #[test]
    fn sum_and_indexed_sum() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(sum(&x), 6.0);
        // 1*1 + 2*2 + 3*3 = 14
        assert_eq!(indexed_sum(&x), 14.0);
    }

    #[test]
    fn max_abs_diff_zero_for_equal() {
        let x = [1.0, 2.0];
        assert_eq!(max_abs_diff(&x, &x), 0.0);
        assert_eq!(max_abs_diff(&x, &[1.0, 4.0]), 2.0);
    }
}
