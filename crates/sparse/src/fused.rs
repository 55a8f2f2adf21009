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
//!    [`vector::dot`](crate::vector::dot) or a `.sum()` over the
//!    elements builds.
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
//! `Σᵢ yᵢ` and `probe[1]` the chain of `Σᵢ (i+1)·yᵢ` (the paper's
//! dual checksum weights `1` and `i+1`), so an SpMV that accumulates
//! the probe while writing its outputs in ascending row order produces
//! the bits a separate checksum sweep would.

/// The ABFT output probe of `y`: `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]`, both chains in
/// ascending element order — bit-identical to the checksum sweeps the
/// ABFT layer runs over a product output: `y.iter().sum::<f64>()` and
/// the dual-weight chain
/// `y.iter().enumerate().map(|(i, &v)| (i + 1) as f64 * v).sum::<f64>()`.
///
/// Both accumulators start from `-0.0`, the additive identity std's
/// float `Sum` uses (so a leading `-0.0` element survives the chain) —
/// which is why the second chain can differ in the last bit from an
/// explicit loop from `+0.0` on all-negative-zero prefixes.
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

/// The CG mid-step in one sweep: `x ← a·p + x`, `r ← c·q + r`,
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

/// Direction update with residual norm in one sweep: `y ← x + b·y`,
/// returning `Σᵢ vᵢ²` — bit-identical to the `y[i] = x[i] + b * y[i]`
/// loop followed by `vector::norm2_sq(v)` (`v` untouched by the
/// update). No solver calls it: the benchmark's fused-sweep probe
/// (`benchmark/src/probes.rs`) times it next to
/// [`axpy2_norm2_sq`].
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
            assert_bits(p[1], want[1], "probe[1]");
        }
    }

    #[test]
    fn probe_preserves_negative_zero_prefix() {
        // `.sum()` starts from -0.0 so a leading -0.0 survives; the
        // probe must reproduce that identity, where an explicit loop
        // from +0.0 would flip the sign bit.
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
    fn empty_vectors_are_fine() {
        assert_eq!(probe_of(&[]), [0.0, 0.0]);
        assert_eq!(axpy2_norm2_sq(1.0, &[], &mut [], 1.0, &[], &mut []), 0.0);
    }
}
