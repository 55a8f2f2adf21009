//! One-pass fusions of the per-iteration vector-op patterns.
//!
//! Every dot/axpy/norm in [`vector`](crate::vector) is its own memory
//! sweep; a solver iteration strings several of them over the same few
//! vectors back to back, so the hot path is bandwidth-bound on re-reads
//! of data that was just written. The kernels here combine those sweeps
//! into single passes — one loop body performs the updates *and* feeds
//! the reductions — eliminating whole traversals without changing a
//! single floating-point result.
//!
//! # The order-preservation contract
//!
//! Each fused kernel is **bit-for-bit identical** to the sequence of
//! separate [`vector`](crate::vector) calls it replaces, under three
//! rules the implementations obey and the unit/property suites pin:
//!
//! 1. **Same expressions.** Every element update uses the exact
//!    expression text of the separate kernel it absorbs (`*yi += a *
//!    xi`, `y[i] = x[i] + b * y[i]`, …) — never an algebraic
//!    rearrangement, so each element's value is computed by the same
//!    sequence of IEEE-754 operations.
//! 2. **Same chain order.** Every reduction accumulates into its own
//!    scalar in ascending element order, exactly the chain
//!    [`vector::dot`](crate::vector::dot) /
//!    [`vector::sum`](crate::vector::sum) /
//!    [`vector::indexed_sum`](crate::vector::indexed_sum) builds.
//!    Fusing loops interleaves *independent* chains; it never reorders
//!    any chain.
//! 3. **Reads see the updated element.** A reduction over a vector the
//!    same pass updates reads the element *after* its update — the
//!    value the separate follow-up sweep would have read, because the
//!    updates are elementwise (element `i`'s new value never depends on
//!    element `j ≠ i`).
//!
//! Rust's float semantics guarantee the rest: no FMA contraction, no
//! reassociation, so source order *is* machine order.
//!
//! The probe kernel ([`probe_of`]) extends the same
//! contract to the ABFT output checksums: `probe[0]` is the chain of
//! [`vector::sum`](crate::vector::sum) and `probe[1]` the chain of
//! [`vector::indexed_sum`](crate::vector::indexed_sum) (the paper's
//! dual checksum weights `1` and `i+1`), so an SpMV that accumulates
//! the probe while writing its outputs in ascending row order produces
//! the bits a separate checksum sweep would.

/// The ABFT output probe of `y`: `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]`, both chains in
/// ascending element order — bit-identical to the checksum sweeps the
/// ABFT layer runs over a product output: `y.iter().sum::<f64>()`
/// (= [`vector::sum`](crate::vector::sum)) and the dual-weight chain
/// `y.iter().enumerate().map(|(i, &v)| (i + 1) as f64 * v).sum::<f64>()`.
///
/// Both accumulators start from `-0.0`, the additive identity std's
/// float `Sum` uses (so a leading `-0.0` element survives the chain) —
/// which is why the second chain can differ in the last bit from
/// [`vector::indexed_sum`](crate::vector::indexed_sum) (an explicit
/// loop from `+0.0`) on all-negative-zero prefixes.
#[inline]
pub fn probe_of(y: &[f64]) -> [f64; 2] {
    let mut p0 = -0.0;
    let mut p1 = -0.0;
    for (i, v) in y.iter().enumerate() {
        p0 += v;
        p1 += (i + 1) as f64 * v;
    }
    [p0, p1]
}

/// Two dot products sharing one sweep: `(Σᵢ a1ᵢ·b1ᵢ, Σᵢ a2ᵢ·b2ᵢ)` —
/// bit-identical to `(vector::dot(a1, b1), vector::dot(a2, b2))`.
///
/// # Panics
/// Panics if the four slices differ in length.
#[inline]
pub fn dot2(a1: &[f64], b1: &[f64], a2: &[f64], b2: &[f64]) -> (f64, f64) {
    assert_eq!(a1.len(), b1.len(), "dot2: length mismatch");
    assert_eq!(a1.len(), a2.len(), "dot2: length mismatch");
    assert_eq!(a2.len(), b2.len(), "dot2: length mismatch");
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    for i in 0..a1.len() {
        acc1 += a1[i] * b1[i];
        acc2 += a2[i] * b2[i];
    }
    (acc1, acc2)
}

/// The CG/CGNE mid-step in one sweep: `x ← a·p + x`, `r ← c·q + r`,
/// returning `Σᵢ rᵢ²` over the updated `r` — bit-identical to
/// `vector::axpy(a, p, x); vector::axpy(c, q, r);
/// vector::norm2_sq(r)`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn axpy2_norm2_sq(a: f64, p: &[f64], x: &mut [f64], c: f64, q: &[f64], r: &mut [f64]) -> f64 {
    assert_eq!(p.len(), x.len(), "axpy2_norm2_sq: length mismatch");
    assert_eq!(q.len(), r.len(), "axpy2_norm2_sq: length mismatch");
    assert_eq!(x.len(), r.len(), "axpy2_norm2_sq: length mismatch");
    let mut acc = 0.0;
    for i in 0..x.len() {
        x[i] += a * p[i];
        r[i] += c * q[i];
        acc += r[i] * r[i];
    }
    acc
}

/// The PCG mid-step in one sweep: `x ← a·p + x`, `r ← c·q + r`,
/// `zᵢ ← rᵢ·minvᵢ`, returning `Σᵢ rᵢ·zᵢ` over the updated vectors —
/// bit-identical to `vector::axpy(a, p, x); vector::axpy(c, q, r);`
/// the pointwise `z[i] = r[i] * minv[i]` loop; `vector::dot(r, z)`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn axpy2_precond_dot(
    a: f64,
    p: &[f64],
    x: &mut [f64],
    c: f64,
    q: &[f64],
    r: &mut [f64],
    minv: &[f64],
    z: &mut [f64],
) -> f64 {
    assert_eq!(p.len(), x.len(), "axpy2_precond_dot: length mismatch");
    assert_eq!(q.len(), r.len(), "axpy2_precond_dot: length mismatch");
    assert_eq!(x.len(), r.len(), "axpy2_precond_dot: length mismatch");
    assert_eq!(minv.len(), r.len(), "axpy2_precond_dot: length mismatch");
    assert_eq!(z.len(), r.len(), "axpy2_precond_dot: length mismatch");
    let mut acc = 0.0;
    for i in 0..x.len() {
        x[i] += a * p[i];
        r[i] += c * q[i];
        z[i] = r[i] * minv[i];
        acc += r[i] * z[i];
    }
    acc
}

/// Direction update with residual norm in one sweep: `y ← x + b·y`,
/// returning `Σᵢ vᵢ²` — bit-identical to the `y[i] = x[i] + b * y[i]`
/// loop followed by `vector::norm2_sq(v)` (`v` untouched by the
/// update).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn xpay_norm2_sq(x: &[f64], b: f64, y: &mut [f64], v: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "xpay_norm2_sq: length mismatch");
    assert_eq!(v.len(), y.len(), "xpay_norm2_sq: length mismatch");
    let mut acc = 0.0;
    for i in 0..y.len() {
        y[i] = x[i] + b * y[i];
        acc += v[i] * v[i];
    }
    acc
}

/// BiCGStab's intermediate residual in one sweep: `sᵢ ← rᵢ − a·vᵢ`,
/// returning `Σᵢ sᵢ²` over the result — bit-identical to the
/// `s[i] = r[i] - a * v[i]` loop followed by `vector::norm2_sq(s)`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn sub_scaled_norm2_sq(r: &[f64], a: f64, v: &[f64], s: &mut [f64]) -> f64 {
    assert_eq!(r.len(), s.len(), "sub_scaled_norm2_sq: length mismatch");
    assert_eq!(v.len(), s.len(), "sub_scaled_norm2_sq: length mismatch");
    let mut acc = 0.0;
    for i in 0..s.len() {
        s[i] = r[i] - a * v[i];
        acc += s[i] * s[i];
    }
    acc
}

/// BiCGStab's iterate/residual update in one sweep:
/// `xᵢ ← xᵢ + a·pᵢ + w·sᵢ`, `rᵢ ← sᵢ − w·tᵢ`, returning `Σᵢ r̂ᵢ·rᵢ`
/// over the updated `r` — bit-identical to the two update loops
/// followed by `vector::dot(rhat, r)`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn step_update_dot(
    a: f64,
    p: &[f64],
    w: f64,
    s: &[f64],
    t: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    rhat: &[f64],
) -> f64 {
    assert_eq!(p.len(), x.len(), "step_update_dot: length mismatch");
    assert_eq!(s.len(), x.len(), "step_update_dot: length mismatch");
    assert_eq!(t.len(), r.len(), "step_update_dot: length mismatch");
    assert_eq!(x.len(), r.len(), "step_update_dot: length mismatch");
    assert_eq!(rhat.len(), r.len(), "step_update_dot: length mismatch");
    let mut acc = 0.0;
    for i in 0..x.len() {
        x[i] += a * p[i] + w * s[i];
        r[i] = s[i] - w * t[i];
        acc += rhat[i] * r[i];
    }
    acc
}

/// BiCGStab's direction update in one sweep:
/// `pᵢ ← rᵢ + b·(pᵢ − w·vᵢ)`, returning `Σᵢ rᵢ²` — bit-identical to
/// the `p[i] = r[i] + beta * (p[i] - omega * v[i])` loop followed by
/// `vector::norm2_sq(r)`.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dir_update_norm2_sq(r: &[f64], b: f64, w: f64, v: &[f64], p: &mut [f64]) -> f64 {
    assert_eq!(r.len(), p.len(), "dir_update_norm2_sq: length mismatch");
    assert_eq!(v.len(), p.len(), "dir_update_norm2_sq: length mismatch");
    let mut acc = 0.0;
    for i in 0..p.len() {
        p[i] = r[i] + b * (p[i] - w * v[i]);
        acc += r[i] * r[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// Deterministic, sign-mixed test vector.
    fn vec_of(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + seed as f64 * 0.37) * 0.83).sin() * ((i % 5) as f64 - 2.0))
            .collect()
    }

    fn assert_bits(a: f64, b: f64, what: &str) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }

    fn assert_bits_vec(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(
                a[i].to_bits(),
                b[i].to_bits(),
                "{what}[{i}]: {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    fn checksum_chains(y: &[f64]) -> [f64; 2] {
        // The exact sweeps the ABFT layer runs over a product output.
        [
            y.iter().sum::<f64>(),
            y.iter()
                .enumerate()
                .map(|(i, &v)| (i + 1) as f64 * v)
                .sum::<f64>(),
        ]
    }

    #[test]
    fn probe_matches_checksum_sweeps() {
        for n in [0, 1, 3, 17, 100] {
            let y = vec_of(n, 1);
            let p = probe_of(&y);
            let want = checksum_chains(&y);
            assert_bits(p[0], want[0], "probe[0]");
            assert_bits(p[0], vector::sum(&y), "probe[0] vs vector::sum");
            assert_bits(p[1], want[1], "probe[1]");
        }
    }

    #[test]
    fn probe_preserves_negative_zero_prefix() {
        // `.sum()` starts from -0.0 so a leading -0.0 survives; the
        // probe must reproduce that identity, where an explicit loop
        // from +0.0 (vector::indexed_sum) would flip the sign bit.
        let y = [-0.0, -0.0];
        let p = probe_of(&y);
        let want = checksum_chains(&y);
        assert_bits(p[0], want[0], "probe[0] -0.0");
        assert_bits(p[1], want[1], "probe[1] -0.0");
        assert_eq!(p[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn probe_handles_non_finite_values() {
        let mut y = vec_of(40, 2);
        y[7] = f64::NAN;
        y[19] = f64::INFINITY;
        let p = probe_of(&y);
        let want = checksum_chains(&y);
        assert_bits(p[0], want[0], "probe[0] non-finite");
        assert_bits(p[1], want[1], "probe[1] non-finite");
    }

    #[test]
    fn dot2_matches_two_dots() {
        let (a1, b1) = (vec_of(61, 4), vec_of(61, 5));
        let (a2, b2) = (vec_of(61, 6), vec_of(61, 7));
        let (d1, d2) = dot2(&a1, &b1, &a2, &b2);
        assert_bits(d1, vector::dot(&a1, &b1), "dot2.0");
        assert_bits(d2, vector::dot(&a2, &b2), "dot2.1");
    }

    #[test]
    fn axpy2_norm2_sq_matches_cg_mid_step() {
        let p = vec_of(71, 15);
        let q = vec_of(71, 16);
        let mut x = vec_of(71, 17);
        let mut r = vec_of(71, 18);
        let (mut x_ref, mut r_ref) = (x.clone(), r.clone());
        let alpha = 0.8125;
        let got = axpy2_norm2_sq(alpha, &p, &mut x, -alpha, &q, &mut r);
        vector::axpy(alpha, &p, &mut x_ref);
        vector::axpy(-alpha, &q, &mut r_ref);
        assert_bits_vec(&x, &x_ref, "axpy2 x");
        assert_bits_vec(&r, &r_ref, "axpy2 r");
        assert_bits(got, vector::norm2_sq(&r_ref), "axpy2 acc");
    }

    #[test]
    fn axpy2_precond_dot_matches_pcg_mid_step() {
        let p = vec_of(59, 19);
        let q = vec_of(59, 20);
        let minv: Vec<f64> = (0..59).map(|i| 1.0 / (2.0 + (i % 7) as f64)).collect();
        let mut x = vec_of(59, 21);
        let mut r = vec_of(59, 22);
        let mut z = vec![0.0; 59];
        let (mut x_ref, mut r_ref, mut z_ref) = (x.clone(), r.clone(), z.clone());
        let alpha = -1.1875;
        let got = axpy2_precond_dot(alpha, &p, &mut x, -alpha, &q, &mut r, &minv, &mut z);
        vector::axpy(alpha, &p, &mut x_ref);
        vector::axpy(-alpha, &q, &mut r_ref);
        for i in 0..59 {
            z_ref[i] = r_ref[i] * minv[i];
        }
        assert_bits_vec(&x, &x_ref, "pcg x");
        assert_bits_vec(&r, &r_ref, "pcg r");
        assert_bits_vec(&z, &z_ref, "pcg z");
        assert_bits(got, vector::dot(&r_ref, &z_ref), "pcg rz");
    }

    #[test]
    fn xpay_norm2_sq_matches_direction_update() {
        let x = vec_of(37, 23);
        let v = vec_of(37, 24);
        let mut y = vec_of(37, 25);
        let mut y_ref = y.clone();
        let beta = 0.4375;
        let got = xpay_norm2_sq(&x, beta, &mut y, &v);
        for i in 0..37 {
            y_ref[i] = x[i] + beta * y_ref[i];
        }
        assert_bits_vec(&y, &y_ref, "xpay y");
        assert_bits(got, vector::norm2_sq(&v), "xpay acc");
    }

    #[test]
    fn sub_scaled_norm2_sq_matches_bicgstab_s() {
        let r = vec_of(83, 26);
        let v = vec_of(83, 27);
        let mut s = vec![0.0; 83];
        let mut s_ref = vec![0.0; 83];
        let alpha = 2.03125;
        let got = sub_scaled_norm2_sq(&r, alpha, &v, &mut s);
        for i in 0..83 {
            s_ref[i] = r[i] - alpha * v[i];
        }
        assert_bits_vec(&s, &s_ref, "sub_scaled s");
        assert_bits(got, vector::norm2_sq(&s_ref), "sub_scaled acc");
    }

    #[test]
    fn step_update_dot_matches_bicgstab_updates() {
        let p = vec_of(67, 28);
        let s = vec_of(67, 29);
        let t = vec_of(67, 30);
        let rhat = vec_of(67, 31);
        let mut x = vec_of(67, 32);
        let mut r = vec_of(67, 33);
        let (mut x_ref, mut r_ref) = (x.clone(), r.clone());
        let (alpha, omega) = (0.71875, -0.28125);
        let got = step_update_dot(alpha, &p, omega, &s, &t, &mut x, &mut r, &rhat);
        for i in 0..67 {
            x_ref[i] += alpha * p[i] + omega * s[i];
        }
        for i in 0..67 {
            r_ref[i] = s[i] - omega * t[i];
        }
        assert_bits_vec(&x, &x_ref, "step_update x");
        assert_bits_vec(&r, &r_ref, "step_update r");
        assert_bits(got, vector::dot(&rhat, &r_ref), "step_update rho");
    }

    #[test]
    fn dir_update_norm2_sq_matches_bicgstab_p() {
        let r = vec_of(91, 34);
        let v = vec_of(91, 35);
        let mut p = vec_of(91, 36);
        let mut p_ref = p.clone();
        let (beta, omega) = (-0.59375, 1.15625);
        let got = dir_update_norm2_sq(&r, beta, omega, &v, &mut p);
        for i in 0..91 {
            p_ref[i] = r[i] + beta * (p_ref[i] - omega * v[i]);
        }
        assert_bits_vec(&p, &p_ref, "dir_update p");
        assert_bits(got, vector::norm2_sq(&r), "dir_update acc");
    }

    #[test]
    fn empty_vectors_are_fine() {
        assert_eq!(probe_of(&[]), [0.0, 0.0]);
        assert_eq!(dot2(&[], &[], &[], &[]), (0.0, 0.0));
        assert_eq!(axpy2_norm2_sq(1.0, &[], &mut [], 1.0, &[], &mut []), 0.0);
    }
}
