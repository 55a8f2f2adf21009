//! The paper's test set (Table 1, columns `id`, `n`, `density`), matched
//! by synthetic SPD generators.
//!
//! The UFL files themselves are not redistributable here; the experiments
//! depend on each matrix only through its order `n` (which sets the CG
//! work per iteration), its nonzero count (which sets the memory
//! footprint `M` and hence the fault rate `λ = α/M`) and SPD-ness. The
//! substitution preserves `n` exactly and density closely. A real `.mtx`
//! file runs through a campaign's `file:PATH` matrix source instead
//! (`ftcg campaign --gen file:PATH`, or `ftcg solve --matrix PATH`).
//!
//! Experiments run at a configurable **scale divisor**: `n` is divided
//! by it while keeping the nonzeros-per-row profile, so quick runs (test
//! suites, CI) use faithful miniatures and `scale = 1` reproduces the
//! full published sizes.

use ftcg_sparse::{gen, CsrMatrix};

/// One row of the paper's Table 1 test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixSpec {
    /// UFL collection id as printed in the paper.
    pub id: u32,
    /// Published order `n`.
    pub(crate) paper_n: usize,
    /// Published density.
    pub(crate) paper_density: f64,
}

impl MatrixSpec {
    /// Average nonzeros per row implied by the published numbers.
    pub(crate) fn avg_row_nnz(&self) -> f64 {
        self.paper_density * self.paper_n as f64
    }

    /// Generates the substituted matrix at `1/scale` of the published
    /// order (minimum order 400), keeping the per-row nonzero profile.
    ///
    /// The condition number is set so CG needs a few hundred iterations
    /// (like the paper's UFL matrices); with a quickly-converging matrix
    /// the MTBF grid of Figure 1 would see almost no faults per run.
    #[expect(
        clippy::expect_used,
        reason = "invariant: the paper-suite generator calls use hard-coded known-good parameters"
    )]
    pub fn generate(&self, scale: usize) -> CsrMatrix {
        let scale = scale.max(1);
        let n = (self.paper_n / scale).max(400);
        // Keep rows as dense as published, but never exceed 60% fill.
        let density = (self.avg_row_nnz() / n as f64).min(0.6);
        gen::random_spd_illcond(n, density, 4.0e2, self.id as u64)
            .expect("generator parameters are valid by construction")
    }

    /// A deterministic right-hand side exercising all modes.
    pub fn rhs(&self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 1.0 + ((i as f64) * 0.29 + self.id as f64).sin())
            .collect()
    }
}

/// The nine matrices of Table 1 / Figure 1, with the paper's published
/// `n` and density.
pub const PAPER_MATRICES: [MatrixSpec; 9] = [
    MatrixSpec {
        id: 341,
        paper_n: 23052,
        paper_density: 2.15e-3,
    },
    MatrixSpec {
        id: 752,
        paper_n: 74752,
        paper_density: 1.07e-4,
    },
    MatrixSpec {
        id: 924,
        paper_n: 60000,
        paper_density: 2.11e-4,
    },
    MatrixSpec {
        id: 1288,
        paper_n: 30401,
        paper_density: 5.10e-4,
    },
    MatrixSpec {
        id: 1289,
        paper_n: 36441,
        paper_density: 4.26e-4,
    },
    MatrixSpec {
        id: 1311,
        paper_n: 48962,
        paper_density: 2.14e-4,
    },
    MatrixSpec {
        id: 1312,
        paper_n: 40000,
        paper_density: 1.24e-4,
    },
    MatrixSpec {
        id: 1848,
        paper_n: 65025,
        paper_density: 2.44e-4,
    },
    MatrixSpec {
        id: 2213,
        paper_n: 20000,
        paper_density: 1.39e-3,
    },
];

/// Looks a spec up by paper id.
pub fn by_id(id: u32) -> Option<MatrixSpec> {
    PAPER_MATRICES.iter().copied().find(|m| m.id == id)
}

/// A campaign-engine [`MatrixResolver`](ftcg_engine::MatrixResolver)
/// that understands `paper:ID[:SCALE]` sources (the Table 1 test set)
/// on top of the engine's built-in generators, so declarative campaigns
/// can sweep the paper's matrices:
///
/// ```text
/// matrices = paper:341:32, paper:2213:32, poisson2d:40
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperMatrixResolver;

impl ftcg_engine::MatrixResolver for PaperMatrixResolver {
    fn resolve(
        &self,
        source: &ftcg_engine::MatrixSource,
    ) -> Result<CsrMatrix, ftcg_engine::EngineError> {
        if let ftcg_engine::MatrixSource::Named(name) = source {
            if let Some(rest) = name.strip_prefix("paper:") {
                let mut parts = rest.split(':');
                let id: u32 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(|| {
                    ftcg_engine::EngineError::Matrix(format!("bad paper source `{name}`"))
                })?;
                // The scale divides the published order: 0 is refused,
                // not run as the paper-size matrix.
                let scale: usize = match parts.next() {
                    None => 16,
                    Some(p) => p.parse().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        ftcg_engine::EngineError::Matrix(format!("bad paper scale in `{name}`"))
                    })?,
                };
                // Strict arity, matching the engine's source grammar:
                // trailing segments are a typo, not something to drop.
                if parts.next().is_some() {
                    return Err(ftcg_engine::EngineError::Matrix(format!(
                        "bad paper source `{name}` (expected paper:ID[:SCALE])"
                    )));
                }
                let spec = by_id(id).ok_or_else(|| {
                    ftcg_engine::EngineError::Matrix(format!("unknown paper matrix id {id}"))
                })?;
                return Ok(spec.generate(scale));
            }
        }
        ftcg_engine::DefaultResolver.resolve(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_matrices_match_paper_metadata() {
        assert_eq!(PAPER_MATRICES.len(), 9);
        // ranges quoted in Section 5.1
        for m in &PAPER_MATRICES {
            assert!((17456..=74752).contains(&m.paper_n), "id {}", m.id);
            assert!(m.paper_density < 1e-2, "id {}", m.id);
        }
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(by_id(341).unwrap().paper_n, 23052);
        assert_eq!(by_id(2213).unwrap().paper_n, 20000);
        assert!(by_id(9999).is_none());
    }

    #[test]
    fn scaled_generation_preserves_row_profile() {
        let spec = by_id(341).unwrap();
        let a = spec.generate(16);
        assert_eq!(a.n_rows(), 23052 / 16);
        let got = a.nnz() as f64 / a.n_rows() as f64;
        let want = spec.avg_row_nnz();
        assert!(
            (got - want).abs() / want < 0.35,
            "avg row nnz {got} vs paper {want}"
        );
        a.validate().unwrap();
        assert!(a.is_symmetric(1e-13));
    }

    #[test]
    fn all_specs_generate_valid_spd_miniatures() {
        for m in &PAPER_MATRICES {
            let a = m.generate(64);
            a.validate().unwrap();
            assert!(a.is_symmetric(1e-12), "id {}", m.id);
            assert!(a.n_rows() >= 400);
            // PD probe (the scaled matrices are no longer diagonally
            // dominant -- that is the point).
            let n = a.n_rows();
            let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
            let q: f64 = x.iter().zip(a.spmv(&x).iter()).map(|(u, v)| u * v).sum();
            assert!(q > 0.0, "id {}: quadratic form {q}", m.id);
        }
    }

    #[test]
    fn rhs_deterministic() {
        let m = by_id(924).unwrap();
        assert_eq!(m.rhs(100), m.rhs(100));
        assert!(m.rhs(10).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn resolver_rejects_bad_paper_sources() {
        use ftcg_engine::{EngineError, MatrixResolver, MatrixSource};
        let resolve = |name: &str| PaperMatrixResolver.resolve(&MatrixSource::Named(name.into()));
        for (name, what) in [
            ("paper:341:0", "bad paper scale in `paper:341:0`"),
            ("paper:341:x", "bad paper scale in `paper:341:x`"),
            ("paper:9999:64", "unknown paper matrix id 9999"),
        ] {
            match resolve(name) {
                Err(EngineError::Matrix(e)) => assert_eq!(e, what),
                other => panic!("{name}: {other:?}"),
            }
        }
        assert_eq!(
            resolve("paper:341:64").unwrap(),
            by_id(341).unwrap().generate(64)
        );
    }

    #[test]
    fn generation_deterministic() {
        let m = by_id(1312).unwrap();
        assert_eq!(m.generate(32), m.generate(32));
    }
}
