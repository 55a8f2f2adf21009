//! Stochastic arrival processes.
//!
//! The paper assumes exponentially distributed fault inter-arrival times
//! (Section 4.1), equivalently a Poisson process: the probability of
//! exactly `k` errors in time `T` is `(λT)^k/k! · e^{−λT}` (Section 4.2.3).
//! `rand_distr` is not in the allowed offline dependency set, so the
//! Poisson sampler is implemented directly (Knuth's product method — the
//! per-iteration means here are ≤ 1, where it is both exact and fast).

use rand::rngs::StdRng;
use rand::RngExt;

/// Largest `mean` accepted by [`poisson_count`]. Knuth's product method
/// is exact but O(mean); beyond this bound the iteration cap below
/// could truncate *legitimate* draws, so large means are rejected up
/// front instead of silently clipped (the fault model's per-iteration
/// means are `α ≤ 1`, three orders of magnitude below the bound).
pub(crate) const POISSON_MAX_MEAN: f64 = 1024.0;

/// Iteration cap of [`poisson_count`]. For any accepted `mean ≤`
/// [`POISSON_MAX_MEAN`], `P(K > 10_000)` is astronomically small
/// (< 10⁻³⁰⁰⁰), so reaching the cap proves a broken RNG or corrupted
/// state — it is reported loudly, never returned as a fabricated count.
pub(crate) const POISSON_COUNT_CAP: usize = 10_000;

/// Draws a `Poisson(mean)` count via Knuth's product-of-uniforms method.
///
/// Exact for any accepted mean; O(mean) expected iterations, which is
/// fine for the per-iteration means `α ≤ 1` used throughout the
/// experiments.
///
/// # Panics
/// Panics if `mean` is negative, not finite, or above
/// [`POISSON_MAX_MEAN`] (means that large would need a different
/// sampler — rejected loudly rather than sampled wrong). Also panics —
/// after a `debug_assert` in debug builds — if the draw exceeds
/// [`POISSON_COUNT_CAP`], which for accepted means is unreachable with
/// a working RNG: the historical behavior of returning the cap
/// silently fabricated a fault count.
#[expect(
    clippy::panic,
    reason = "deliberate loud failure: reaching the iteration cap provably means a broken RNG, and continuing would silently bias the fault process"
)]
pub(crate) fn poisson_count(rng: &mut StdRng, mean: f64) -> usize {
    assert!(mean >= 0.0 && mean.is_finite(), "mean must be >= 0");
    assert!(
        mean <= POISSON_MAX_MEAN,
        "poisson_count: mean {mean} exceeds the supported bound {POISSON_MAX_MEAN} \
         (Knuth's method would hit the iteration cap on legitimate draws)"
    );
    if mean == 0.0 {
        return 0;
    }
    let limit = (-mean).exp();
    let mut product: f64 = 1.0;
    let mut k = 0usize;
    loop {
        product *= rng.random::<f64>();
        if product <= limit {
            return k;
        }
        k += 1;
        if k > POISSON_COUNT_CAP {
            debug_assert!(
                false,
                "poisson_count: {k} iterations at mean {mean} — broken RNG?"
            );
            panic!(
                "poisson_count: exceeded {POISSON_COUNT_CAP} iterations at mean {mean}; \
                 the RNG is not producing usable uniforms"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    #[should_panic(expected = "exceeds the supported bound")]
    fn poisson_rejects_oversized_mean() {
        // A mean past the documented bound is rejected up front — the
        // old code would have silently capped legitimate draws instead.
        poisson_count(&mut rng(0), POISSON_MAX_MEAN * 2.0);
    }

    #[test]
    fn poisson_accepts_the_boundary_mean() {
        let k = poisson_count(&mut rng(8), POISSON_MAX_MEAN);
        // A draw at mean 1024 lands within a few standard deviations.
        assert!((700..=1400).contains(&k), "k = {k}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng(3);
        for _ in 0..100 {
            assert_eq!(poisson_count(&mut r, 0.0), 0);
        }
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut r = rng(4);
        let mean = 0.7;
        let n = 100_000;
        let counts: Vec<usize> = (0..n).map(|_| poisson_count(&mut r, mean)).collect();
        let emp_mean = counts.iter().sum::<usize>() as f64 / n as f64;
        let emp_var = counts
            .iter()
            .map(|&c| (c as f64 - emp_mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((emp_mean - mean).abs() < 0.02, "mean {emp_mean}");
        // Poisson: variance == mean.
        assert!((emp_var - mean).abs() < 0.03, "variance {emp_var}");
    }

    #[test]
    fn poisson_small_mean_mostly_zero_or_one() {
        let mut r = rng(5);
        let mean = 0.01;
        let n = 10_000;
        let twos = (0..n).filter(|_| poisson_count(&mut r, mean) >= 2).count();
        // P(k >= 2) ≈ mean²/2 = 5e-5; over 10k draws expect ~0.5 events.
        assert!(twos <= 5, "too many multi-fault draws: {twos}");
    }
}
