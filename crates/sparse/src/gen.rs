//! Synthetic SPD matrix generators.
//!
//! The paper evaluates on nine SPD matrices from the UFL Sparse Matrix
//! Collection with `n ∈ [17456, 74752]` and density below `1e−2`. Those
//! files are not redistributable inside this repository, so the experiment
//! harness (`ftcg-sim::matrices`) substitutes matrices produced here with
//! the *same order and density*. That preserves the evaluation because
//! the experiments depend on a matrix only through its order, its
//! nonzero count (which sets the fault rate) and SPD-ness; CG's
//! iteration count is matched separately by [`random_spd_illcond`].
//! All generators return validated [`CsrMatrix`] values
//! that are symmetric positive definite by construction (strict or weak
//! diagonal dominance with positive diagonal).
//!
//! The stencil and graph generators assemble through [`CooMatrix`].
//! [`random_spd`], which builds every paper matrix, does not: it
//! deduplicates its random draws as `u64` keys `i·n + j` (`i < j`) in a
//! flat open-addressing table, sorts the distinct keys once and writes
//! the CSR arrays directly at their final size. Ascending keys are
//! already CSR order: row `r` gets its lower entries from the mirrors of
//! the pairs `(c, r)` of earlier rows, by ascending `c`, then its
//! diagonal, then its own pairs `(r, c)` by ascending `c`. Set-up so
//! holds the returned matrix plus the compacted keys, at most twice the
//! matrix.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::Result;

/// 5-point finite-difference Laplacian on a `k × k` grid (`n = k²`).
///
/// The classic `[-1, -1, 4, -1, -1]` stencil: SPD, weakly diagonally
/// dominant, condition number `O(k²)`.
pub fn poisson2d(k: usize) -> Result<CsrMatrix> {
    if k == 0 {
        return Err(SparseError::InvalidArgument {
            detail: "poisson2d: grid dimension must be positive".into(),
        });
    }
    let n = k * k;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    for r in 0..k {
        for c in 0..k {
            let i = r * k + c;
            coo.push(i, i, 4.0);
            if r > 0 {
                coo.push(i, i - k, -1.0);
            }
            if r + 1 < k {
                coo.push(i, i + k, -1.0);
            }
            if c > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if c + 1 < k {
                coo.push(i, i + 1, -1.0);
            }
        }
    }
    Ok(coo.to_csr())
}

/// 7-point finite-difference Laplacian on a `k × k × k` grid (`n = k³`).
pub fn poisson3d(k: usize) -> Result<CsrMatrix> {
    if k == 0 {
        return Err(SparseError::InvalidArgument {
            detail: "poisson3d: grid dimension must be positive".into(),
        });
    }
    let n = k * k * k;
    let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
    let idx = |x: usize, y: usize, z: usize| (z * k + y) * k + x;
    for z in 0..k {
        for y in 0..k {
            for x in 0..k {
                let i = idx(x, y, z);
                coo.push(i, i, 6.0);
                if x > 0 {
                    coo.push(i, idx(x - 1, y, z), -1.0);
                }
                if x + 1 < k {
                    coo.push(i, idx(x + 1, y, z), -1.0);
                }
                if y > 0 {
                    coo.push(i, idx(x, y - 1, z), -1.0);
                }
                if y + 1 < k {
                    coo.push(i, idx(x, y + 1, z), -1.0);
                }
                if z > 0 {
                    coo.push(i, idx(x, y, z - 1), -1.0);
                }
                if z + 1 < k {
                    coo.push(i, idx(x, y, z + 1), -1.0);
                }
            }
        }
    }
    Ok(coo.to_csr())
}

/// Symmetric tridiagonal matrix with constant diagonal `d` and
/// off-diagonal `e`. SPD iff `d > 2|e|` (strict) — not enforced, callers
/// choosing eigenvalue edge cases is legitimate.
pub fn tridiagonal(n: usize, d: f64, e: f64) -> Result<CsrMatrix> {
    if n == 0 {
        return Err(SparseError::InvalidArgument {
            detail: "tridiagonal: order must be positive".into(),
        });
    }
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, d);
        if i > 0 {
            coo.push(i, i - 1, e);
        }
        if i + 1 < n {
            coo.push(i, i + 1, e);
        }
    }
    Ok(coo.to_csr())
}

/// Shifted graph Laplacian `L + σI` of a random undirected multigraph-free
/// graph with `n` vertices and approximately `edges` edges.
///
/// Laplacians have **zero column sums** — the exact case for which the
/// paper introduces shifted checksums (Section 3.2); with `σ = 0` this
/// generator produces a singular matrix useful for exercising that code
/// path, with `σ > 0` an SPD matrix.
pub fn graph_laplacian(n: usize, edges: usize, sigma: f64, seed: u64) -> Result<CsrMatrix> {
    if n < 2 {
        return Err(SparseError::InvalidArgument {
            detail: "graph_laplacian: need at least 2 vertices".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = std::collections::BTreeSet::new();
    // Ring backbone keeps the graph connected, then random chords.
    for v in 0..n {
        let w = (v + 1) % n;
        adj.insert((v.min(w), v.max(w)));
    }
    let mut attempts = 0usize;
    while adj.len() < edges && attempts < 20 * edges {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            adj.insert((u.min(v), u.max(v)));
        }
        attempts += 1;
    }
    let mut degree = vec![0usize; n];
    for &(u, v) in &adj {
        degree[u] += 1;
        degree[v] += 1;
    }
    let mut coo = CooMatrix::with_capacity(n, n, n + 2 * adj.len());
    for (v, &d) in degree.iter().enumerate() {
        coo.push(v, v, d as f64 + sigma);
    }
    for &(u, v) in &adj {
        coo.push(u, v, -1.0);
        coo.push(v, u, -1.0);
    }
    Ok(coo.to_csr())
}

/// Random SPD matrix of order `n` with density approximately `density`.
///
/// Builds a random symmetric off-diagonal pattern, draws values from
/// `U(−1, 0)` and sets each diagonal entry to (row absolute sum + `1.0`),
/// which makes the matrix strictly diagonally dominant with positive
/// diagonal, hence SPD. This is the generator the experiment harness uses
/// to match the UFL matrices' published `n` and density.
///
/// The pattern is drawn as upper-triangle pairs `(i, j)`, `i < j`, and
/// deduplicated as keys `i·n + j` in a flat open-addressing table
/// (`PairSet`). The distinct keys are then sorted once, and the CSR
/// arrays are allocated at their final size and filled in one pass over
/// them, with no triplet copy and no per-row sort: ascending keys visit
/// the pairs in ascending `(i, j)` order, so row `r` receives its lower
/// entries `(r, c)`, `c < r`, from the mirrors of the earlier rows'
/// pairs `(c, r)` by ascending `c`, then its diagonal, then its upper
/// entries `(r, c)` from its own pairs by ascending `c` — already CSR
/// order. Values are drawn in that same ascending pair order and each
/// diagonal is written when its row's last pair is done.
pub fn random_spd(n: usize, density: f64, seed: u64) -> Result<CsrMatrix> {
    if n == 0 {
        return Err(SparseError::InvalidArgument {
            detail: "random_spd: order must be positive".into(),
        });
    }
    if !(0.0..=1.0).contains(&density) {
        return Err(SparseError::InvalidArgument {
            detail: format!("random_spd: density {density} outside [0, 1]"),
        });
    }
    let order = n as u64;
    if order.checked_mul(order).is_none() {
        return Err(SparseError::InvalidArgument {
            detail: format!("random_spd: order {n} too large for a u64 pair key"),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Target nnz including the full diagonal.
    let target_nnz = ((n as f64) * (n as f64) * density).round() as usize;
    let offdiag_pairs = target_nnz.saturating_sub(n) / 2;
    let mut pattern = PairSet::with_capacity(offdiag_pairs);
    let mut attempts = 0usize;
    // Banded bias: most UFL discretization matrices are band-dominated;
    // draw 70% of chords within a band of width max(8, n/64).
    let band = (n / 64).max(8);
    while pattern.len < offdiag_pairs && attempts < 30 * offdiag_pairs.max(1) {
        attempts += 1;
        let i = rng.random_range(0..n);
        let j = if rng.random::<f64>() < 0.7 {
            let lo = i.saturating_sub(band);
            let hi = (i + band + 1).min(n);
            rng.random_range(lo..hi)
        } else {
            rng.random_range(0..n)
        };
        if i != j {
            pattern.insert(i.min(j) as u64 * order + i.max(j) as u64);
        }
    }
    let keys = pattern.into_sorted();

    // Row lengths: each pair lands in both of its rows, plus the diagonal.
    let mut rowptr = vec![0usize; n + 1];
    for (i, base, block) in row_blocks(&keys, n) {
        rowptr[i + 1] += 1 + block.len();
        for &k in block {
            rowptr[(k - base) as usize + 1] += 1;
        }
    }
    for i in 0..n {
        rowptr[i + 1] += rowptr[i];
    }
    let nnz = rowptr[n];
    let mut colid = vec![0usize; nnz];
    let mut val = vec![0.0_f64; nnz];
    let mut rowsum = vec![0.0_f64; n];
    // Where the next lower entry of each row goes: row `j` receives
    // `(j, i)` while row `i < j` is being filled.
    let mut lower = rowptr[..n].to_vec();
    for (i, base, block) in row_blocks(&keys, n) {
        // Rows before `i` have placed all of row `i`'s lower entries.
        let diag = lower[i];
        colid[diag] = i;
        for (p, &k) in (diag + 1..).zip(block) {
            let j = (k - base) as usize;
            let v = -rng.random::<f64>(); // U(-1, 0)
            colid[p] = j;
            val[p] = v;
            let q = lower[j];
            colid[q] = i;
            val[q] = v;
            lower[j] += 1;
            rowsum[i] += v.abs();
            rowsum[j] += v.abs();
        }
        // Row `i`'s sum is complete: its pairs `(c, i)` came with the
        // earlier rows, its pairs `(i, c)` with this one.
        val[diag] = rowsum[i] + 1.0;
    }
    Ok(CsrMatrix::from_parts_unchecked(n, n, rowptr, colid, val))
}

/// The distinct pair keys `i·n + j` drawn by [`random_spd`]: a flat
/// open-addressing table with linear probing, at most half full, in one
/// allocation of 8 B a slot. Its slot order never shows: the keys leave
/// it sorted.
struct PairSet {
    slots: Vec<u64>,
    /// `64 − log2(slots.len())`: the multiplicative hash keeps the top
    /// bits of `key · φ⁻¹·2⁶⁴`.
    shift: u32,
    /// Distinct keys held.
    len: usize,
}

impl PairSet {
    /// No key: `i·n + j < n² − n` for every pair of an order whose `n²`
    /// fits a `u64`.
    const EMPTY: u64 = u64::MAX;

    /// A table that stays at most half full with `cap` keys.
    fn with_capacity(cap: usize) -> Self {
        let slots = cap.saturating_mul(2).next_power_of_two().max(2);
        Self {
            slots: vec![Self::EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        }
    }

    /// Adds `key` unless present. The caller inserts at most the
    /// capacity it asked for, so an empty slot is always found.
    fn insert(&mut self, key: u64) {
        let mask = self.slots.len() - 1;
        let mut h = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[h];
            if *slot == key {
                return;
            }
            if *slot == Self::EMPTY {
                *slot = key;
                self.len += 1;
                return;
            }
            h = (h + 1) & mask;
        }
    }

    /// The keys in ascending order, compacted in place into an
    /// allocation of exactly their size.
    fn into_sorted(self) -> Vec<u64> {
        let mut keys = self.slots;
        keys.retain(|&k| k != Self::EMPTY);
        keys.shrink_to_fit();
        keys.sort_unstable();
        keys
    }
}

/// Splits ascending keys `i·n + j` into each row's block: yields
/// `(i, i·n, keys of row i)` for every `i < n`, so `key − i·n` is `j`.
fn row_blocks(keys: &[u64], n: usize) -> impl Iterator<Item = (usize, u64, &[u64])> {
    let mut rest = keys;
    (0..n).map(move |i| {
        let base = i as u64 * n as u64;
        let (block, tail) = rest.split_at(rest.partition_point(|&k| k < base + n as u64));
        rest = tail;
        (i, base, block)
    })
}

/// Random SPD matrix with a *controlled condition number*: same random
/// symmetric pattern as [`random_spd`], but the diagonal is set to
/// (row absolute sum + `slack`) with
/// `slack = mean_row_sum / cond_target`, so the Gershgorin spectrum is
/// roughly `[slack, 2·max_row_sum]` and CG needs `O(√cond)` iterations.
///
/// The paper's UFL test matrices make CG run for hundreds of iterations;
/// strictly dominant random matrices converge in a couple dozen, which
/// would starve the resilience experiments of faults. This generator is
/// what the experiment harness (`ftcg-sim::matrices`) uses.
pub fn random_spd_illcond(
    n: usize,
    density: f64,
    cond_target: f64,
    seed: u64,
) -> Result<CsrMatrix> {
    if cond_target.is_nan() || cond_target < 1.0 {
        return Err(SparseError::InvalidArgument {
            detail: format!("cond_target {cond_target} must be >= 1"),
        });
    }
    let mut base = random_spd(n, density, seed)?;
    // Symmetric diagonal scaling `B = D·A·D` with log-uniform `D`:
    // `d_i = 10^{-u_i·decades/2}`, `u_i ~ U(0,1)`. The base matrix is
    // well-conditioned (strictly dominant), so `cond(B) ≈ cond(D)² ≈
    // cond_target`, and — crucially — the spectrum is *spread* over the
    // whole range rather than having one small outlier (which CG would
    // absorb in a couple of iterations). This mimics the badly scaled
    // discretization matrices of the paper's UFL test set.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51ac_c0de);
    let decades = cond_target.log10();
    let d: Vec<f64> = (0..n)
        .map(|_| 10f64.powf(-rng.random::<f64>() * decades / 2.0))
        .collect();
    // Scaling keeps the pattern, so the values are rewritten in place.
    // `random_spd` peaks at under twice the matrix it returns; a second
    // assembly next to the live base (a triplet copy and its CSR) would
    // hold well over that and set the peak here instead.
    for i in 0..n {
        for k in base.row_range(i) {
            let (j, v) = (base.colid()[k], base.val()[k]);
            base.val_mut()[k] = d[i] * v * d[j];
        }
    }
    Ok(base)
}

/// Diagonal matrix with the given entries (utility for preconditioners
/// and tests).
pub fn diagonal(entries: &[f64]) -> CsrMatrix {
    let n = entries.len();
    CsrMatrix::from_parts_unchecked(n, n, (0..=n).collect(), (0..n).collect(), entries.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson2d_structure() {
        let a = poisson2d(3).unwrap();
        assert_eq!(a.n_rows(), 9);
        a.validate().unwrap();
        assert!(a.is_symmetric(0.0));
        // interior point has 5 entries
        assert_eq!(a.row(4).count(), 5);
        assert_eq!(a.get(4, 4), 4.0);
        assert_eq!(a.get(4, 1), -1.0);
    }

    #[test]
    fn poisson2d_rejects_zero() {
        assert!(poisson2d(0).is_err());
    }

    #[test]
    fn poisson3d_structure() {
        let a = poisson3d(3).unwrap();
        assert_eq!(a.n_rows(), 27);
        a.validate().unwrap();
        assert!(a.is_symmetric(0.0));
        // center point (1,1,1) has full 7-point stencil
        #[expect(clippy::identity_op, reason = "keeps the idx(1, 1, 1) shape readable")]
        let center = (1 * 3 + 1) * 3 + 1;
        assert_eq!(a.row(center).count(), 7);
        assert_eq!(a.get(center, center), 6.0);
    }

    #[test]
    fn tridiagonal_spd_when_dominant() {
        let a = tridiagonal(10, 4.0, -1.0).unwrap();
        a.validate().unwrap();
        assert!(a.is_strictly_diagonally_dominant());
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.nnz(), 3 * 10 - 2);
    }

    #[test]
    fn laplacian_zero_column_sums() {
        let a = graph_laplacian(20, 40, 0.0, 42).unwrap();
        a.validate().unwrap();
        assert!(a.is_symmetric(0.0));
        for s in a.column_sums() {
            assert!(
                s.abs() < 1e-12,
                "laplacian column sum should be zero, got {s}"
            );
        }
    }

    #[test]
    fn shifted_laplacian_is_dominant() {
        let a = graph_laplacian(20, 40, 1.0, 42).unwrap();
        assert!(a.is_strictly_diagonally_dominant());
    }

    #[test]
    fn random_spd_properties() {
        let a = random_spd(200, 0.02, 7).unwrap();
        a.validate().unwrap();
        assert!(a.is_symmetric(1e-14));
        assert!(a.is_strictly_diagonally_dominant());
        let d = a.density();
        assert!(
            (d - 0.02).abs() < 0.01,
            "density {d} too far from target 0.02"
        );
    }

    #[test]
    fn random_spd_deterministic_by_seed() {
        let a = random_spd(50, 0.05, 123).unwrap();
        let b = random_spd(50, 0.05, 123).unwrap();
        assert_eq!(a, b);
        let c = random_spd(50, 0.05, 124).unwrap();
        assert_ne!(a, c);
    }

    /// The route `random_spd` took before it filled CSR directly: the
    /// same draws into a `BTreeSet` of pairs, then triplets, then
    /// `to_csr`.
    fn random_spd_via_coo(n: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let target_nnz = ((n as f64) * (n as f64) * density).round() as usize;
        let offdiag_pairs = target_nnz.saturating_sub(n) / 2;
        let mut pattern = std::collections::BTreeSet::new();
        let mut attempts = 0usize;
        let band = (n / 64).max(8);
        while pattern.len() < offdiag_pairs && attempts < 30 * offdiag_pairs.max(1) {
            attempts += 1;
            let i = rng.random_range(0..n);
            let j = if rng.random::<f64>() < 0.7 {
                let lo = i.saturating_sub(band);
                let hi = (i + band + 1).min(n);
                rng.random_range(lo..hi)
            } else {
                rng.random_range(0..n)
            };
            if i != j {
                pattern.insert((i.min(j), i.max(j)));
            }
        }
        let mut rowsum = vec![0.0_f64; n];
        let mut coo = CooMatrix::with_capacity(n, n, n + 2 * pattern.len());
        for &(i, j) in &pattern {
            let v = -rng.random::<f64>();
            coo.push(i, j, v);
            coo.push(j, i, v);
            rowsum[i] += v.abs();
            rowsum[j] += v.abs();
        }
        for (i, &s) in rowsum.iter().enumerate() {
            coo.push(i, i, s + 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn random_spd_matches_coo_assembly() {
        let cases = [
            (1, 0.5, 1),
            (1, 1.0, 2),
            (2, 1.0, 3),
            (2, 0.3, 4),
            (10, 0.3, 5),
            (10, 1.0, 6),
            // Band of 8 either side: it covers most of each row.
            (63, 0.2, 7),
            (63, 1.0, 8),
            // The `MatrixSpec::generate` fill clamp.
            (400, 0.6, 341),
            (90, 0.0, 9),
            (1000, 0.01, 10),
        ];
        for (n, density, seed) in cases {
            let want = random_spd_via_coo(n, density, seed);
            let got = random_spd(n, density, seed).unwrap();
            got.validate().unwrap();
            assert_eq!(got.rowptr(), want.rowptr(), "n {n} density {density}");
            assert_eq!(got.colid(), want.colid(), "n {n} density {density}");
            let bits = |m: &CsrMatrix| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n {n} density {density}");
            if density == 1.0 {
                assert_eq!(got.nnz(), n * n, "n {n}: every pair is drawn");
            }
            if density == 0.0 {
                assert_eq!(got.nnz(), n, "n {n}: diagonal only");
            }
        }
    }

    #[test]
    fn random_spd_rejects_bad_density() {
        assert!(random_spd(10, 1.5, 0).is_err());
        assert!(random_spd(10, -0.1, 0).is_err());
        assert!(random_spd(0, 0.5, 0).is_err());
    }

    #[test]
    fn illcond_is_spd_with_spread_scales() {
        let a = random_spd_illcond(150, 0.05, 1000.0, 3).unwrap();
        a.validate().unwrap();
        assert!(a.is_symmetric(1e-13));
        // PD by congruence (D·SPD·D): probe xᵀAx > 0.
        for s in 0..4u64 {
            let x: Vec<f64> = (0..150)
                .map(|i| ((i as f64 + 0.5) * (s as f64 + 1.1)).sin())
                .collect();
            let q = crate::vector::dot(&x, &a.spmv(&x));
            assert!(q > 0.0, "xᵀAx = {q}");
        }
        // The diagonal spans roughly cond_target in dynamic range.
        let d = a.diag();
        let dmax = d.iter().fold(0.0_f64, |m, &v| m.max(v));
        let dmin = d.iter().fold(f64::INFINITY, |m, &v| m.min(v));
        assert!(
            dmax / dmin > 50.0,
            "diagonal dynamic range {:.1} too narrow",
            dmax / dmin
        );
    }

    #[test]
    fn illcond_in_place_scaling_matches_coo_assembly() {
        // The historical route: scale into a fresh COO, convert to CSR.
        for (n, density, seed) in [(40, 0.2, 1), (150, 0.05, 3), (400, 0.6, 341), (90, 0.0, 7)] {
            let cond = 4.0e2_f64;
            let base = random_spd(n, density, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51ac_c0de);
            let d: Vec<f64> = (0..n)
                .map(|_| 10f64.powf(-rng.random::<f64>() * cond.log10() / 2.0))
                .collect();
            let mut coo = CooMatrix::with_capacity(n, n, base.nnz());
            for i in 0..n {
                for (j, v) in base.row(i) {
                    coo.push(i, j, d[i] * v * d[j]);
                }
            }
            let want = coo.to_csr();
            let got = random_spd_illcond(n, density, cond, seed).unwrap();
            assert_eq!(got.rowptr(), want.rowptr(), "n {n} seed {seed}");
            assert_eq!(got.colid(), want.colid(), "n {n} seed {seed}");
            let bits = |m: &CsrMatrix| m.val().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n {n} seed {seed}");
        }
    }

    #[test]
    fn illcond_rejects_bad_cond() {
        assert!(random_spd_illcond(10, 0.2, 0.5, 0).is_err());
    }

    #[test]
    fn illcond_deterministic() {
        assert_eq!(
            random_spd_illcond(60, 0.08, 500.0, 9).unwrap(),
            random_spd_illcond(60, 0.08, 500.0, 9).unwrap()
        );
    }

    #[test]
    fn diagonal_matrix() {
        let d = diagonal(&[1.0, 2.0, 3.0]);
        d.validate().unwrap();
        assert_eq!(d.spmv(&[1.0, 1.0, 1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn generators_all_positive_definite_via_cholesky_probe() {
        // Cheap PD probe: xᵀAx > 0 for a handful of random-ish x.
        for a in [
            poisson2d(4).unwrap(),
            poisson3d(2).unwrap(),
            tridiagonal(16, 4.0, -1.0).unwrap(),
            random_spd(64, 0.1, 5).unwrap(),
            graph_laplacian(16, 30, 0.5, 5).unwrap(),
        ] {
            let n = a.n_rows();
            for s in 0..4u64 {
                let x: Vec<f64> = (0..n)
                    .map(|i| ((i as f64 + 1.3) * (s as f64 + 0.7)).sin())
                    .collect();
                let y = a.spmv(&x);
                let q = crate::vector::dot(&x, &y);
                assert!(q > 0.0, "xᵀAx = {q} not positive");
            }
        }
    }
}
