//! [`KernelSpec`] — the compact, comparable kernel identity that rides
//! inside solver configurations and campaign grids.
//!
//! The trait objects of [`crate::kernel`] are the extension surface;
//! this enum is the *plumbing* form: `Copy`, `PartialEq`, parseable from
//! the CLI/spec-file grammar, with a canonical label that round-trips
//! through [`KernelSpec::parse`].

use ftcg_sparse::{BcsrMatrix, CsrMatrix, RowOrder, SellCSigma};

use crate::backends::{
    effective_threads, AutoKernel, BcsrKernel, CsrParallel, CsrSerial, SellKernel,
};
use crate::kernel::{PreparedSpmv, SpmvKernel};
use crate::KernelError;

/// Identity of an SpMV backend (see the crate docs for the name
/// grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelSpec {
    /// Serial CSR (the reference).
    #[default]
    Csr,
    /// Parallel CSR; `threads == 0` means all available cores.
    CsrPar {
        /// Worker threads (0 = all cores).
        threads: usize,
    },
    /// Blocked CSR with `block × block` tiles.
    Bcsr {
        /// Block edge length (`1..=4`).
        block: usize,
    },
    /// SELL-C-σ.
    Sell {
        /// Chunk height `C`.
        chunk: usize,
        /// Sorting window `σ`.
        sigma: usize,
    },
    /// Per-matrix automatic choice.
    Auto,
}

impl KernelSpec {
    /// Default SELL chunk height `C`.
    pub const DEFAULT_SELL_CHUNK: usize = 8;
    /// Default SELL sorting window `σ`.
    pub const DEFAULT_SELL_SIGMA: usize = 32;
    /// Default BCSR block edge.
    pub const DEFAULT_BCSR_BLOCK: usize = 2;

    /// Parses a kernel name: `csr`, `csr-par[:T]`, `bcsr[:B]`,
    /// `sell[:C[:S]]`, `auto`.
    pub fn parse(s: &str) -> Result<KernelSpec, KernelError> {
        let s = s.trim();
        let parts: Vec<&str> = s.split(':').collect();
        let num = |i: usize, what: &str| -> Result<usize, KernelError> {
            parts[i]
                .trim()
                .parse()
                .map_err(|_| KernelError::BadSpec(format!("bad {what} in `{s}`")))
        };
        match (parts[0], parts.len()) {
            ("csr", 1) => Ok(KernelSpec::Csr),
            ("csr-par", 1) => Ok(KernelSpec::CsrPar { threads: 0 }),
            ("csr-par", 2) => Ok(KernelSpec::CsrPar {
                threads: num(1, "thread count")?,
            }),
            ("bcsr", 1) => Ok(KernelSpec::Bcsr {
                block: Self::DEFAULT_BCSR_BLOCK,
            }),
            ("bcsr", 2) => {
                let block = num(1, "block size")?;
                if !(1..=4).contains(&block) {
                    return Err(KernelError::BadSpec(format!(
                        "bcsr block must be 1..=4, got {block}"
                    )));
                }
                Ok(KernelSpec::Bcsr { block })
            }
            ("sell", 1) => Ok(KernelSpec::Sell {
                chunk: Self::DEFAULT_SELL_CHUNK,
                sigma: Self::DEFAULT_SELL_SIGMA,
            }),
            ("sell", 2 | 3) => {
                let chunk = num(1, "chunk height")?;
                let sigma = if parts.len() == 3 {
                    num(2, "sigma window")?
                } else {
                    Self::DEFAULT_SELL_SIGMA
                };
                if chunk == 0 || sigma == 0 {
                    return Err(KernelError::BadSpec(format!(
                        "sell needs C >= 1 and σ >= 1, got `{s}`"
                    )));
                }
                Ok(KernelSpec::Sell { chunk, sigma })
            }
            ("auto", 1) => Ok(KernelSpec::Auto),
            _ => Err(KernelError::UnknownKernel(s.to_string())),
        }
    }

    /// Canonical label; [`KernelSpec::parse`] of the label returns the
    /// same spec.
    pub fn label(&self) -> String {
        match self {
            KernelSpec::Csr => "csr".into(),
            KernelSpec::CsrPar { threads: 0 } => "csr-par".into(),
            KernelSpec::CsrPar { threads } => format!("csr-par:{threads}"),
            KernelSpec::Bcsr { block } => format!("bcsr:{block}"),
            KernelSpec::Sell { chunk, sigma } => format!("sell:{chunk}:{sigma}"),
            KernelSpec::Auto => "auto".into(),
        }
    }

    /// Fills an unspecified thread count (`csr-par` with `threads == 0`)
    /// with `threads`; other specs are unchanged.
    pub fn with_threads(self, threads: usize) -> KernelSpec {
        match self {
            KernelSpec::CsrPar { threads: 0 } if threads > 0 => KernelSpec::CsrPar { threads },
            other => other,
        }
    }

    /// Builds the backend implementing this spec.
    pub fn kernel(&self) -> Box<dyn SpmvKernel> {
        match *self {
            KernelSpec::Csr => Box::new(CsrSerial),
            KernelSpec::CsrPar { threads } => Box::new(CsrParallel { threads }),
            KernelSpec::Bcsr { block } => Box::new(BcsrKernel { block }),
            KernelSpec::Sell { chunk, sigma } => Box::new(SellKernel { chunk, sigma }),
            KernelSpec::Auto => Box::new(AutoKernel),
        }
    }

    /// Resolves `auto` into a concrete spec for the given (pristine)
    /// matrix; concrete specs return themselves.
    pub fn resolve(&self, a: &CsrMatrix) -> KernelSpec {
        match *self {
            KernelSpec::Auto => crate::auto::recommend(a).spec,
            concrete => concrete,
        }
    }

    /// Prepares a trusted matrix for repeated products under this spec.
    pub fn prepare<'a>(&self, a: &'a CsrMatrix) -> Result<Box<dyn PreparedSpmv + 'a>, KernelError> {
        self.kernel().prepare(a)
    }

    /// One defensive product `y ← A·x` against a possibly *corrupted*
    /// CSR image (one-shot convenience over [`DefensiveProduct`] —
    /// repeated callers should hold a `DefensiveProduct` so BCSR/SELL
    /// conversions are cached between products).
    ///
    /// # Panics
    /// Panics if `y.len() != a.n_rows()` (output buffers are caller
    /// state, not corruptible matrix data).
    pub fn product_defensive(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        DefensiveProduct::new(*self).product(a, x, y);
    }
}

/// A stateful defensive SpMV: products read the live (corruptible) CSR
/// image, and for the converted formats (BCSR, SELL-C-σ) the clamped
/// conversion is **cached** between calls so the hot path pays it only
/// when the image actually changed.
///
/// The CSR arrays stay the master copy of the unreliable data (the
/// fault injector flips their bits); non-CSR backends re-materialize
/// their format from the live image with the same clamping contract as
/// [`CsrMatrix::spmv_clamped_into`], so every backend sums exactly the
/// entries a defensive CSR traversal would visit and the ABFT checksum
/// tests apply to the output unchanged. `auto` falls back to clamped
/// serial CSR — resolve it against the pristine matrix first
/// ([`KernelSpec::resolve`]) to pin a concrete backend.
///
/// **Invalidation contract:** the caller must call
/// [`DefensiveProduct::invalidate`] after *anything* mutated the CSR
/// image — fault application to the matrix arrays, forward correction,
/// checkpoint rollback/restore. A stale cache silently computes the
/// product of the pre-mutation matrix.
///
/// The serial CSR path holds no copy and has no such duty. It visits
/// rows in the [`RowOrder`] it was given
/// ([`DefensiveProduct::with_row_order`]; natural order otherwise),
/// which changes no output bit: an order built from the pristine matrix
/// stays valid through every fault and rollback, and a mismatched one
/// only costs speed.
#[derive(Debug, Clone)]
pub struct DefensiveProduct<'o> {
    spec: KernelSpec,
    order: &'o RowOrder,
    cache: Option<CachedFormat>,
}

/// The order of a [`DefensiveProduct`] that was given none.
static NATURAL_ORDER: RowOrder = RowOrder::new();

#[derive(Debug, Clone)]
enum CachedFormat {
    Bcsr(BcsrMatrix),
    Sell(SellCSigma),
}

impl<'o> DefensiveProduct<'o> {
    /// A defensive product under `spec` with an empty cache, visiting
    /// rows in natural order.
    pub fn new(spec: KernelSpec) -> Self {
        Self::with_row_order(spec, &NATURAL_ORDER)
    }

    /// [`DefensiveProduct::new`] whose serial CSR products visit rows in
    /// `order` — built once from the pristine matrix
    /// ([`RowOrder::rebuild`]) by whoever owns the solve's memory.
    pub fn with_row_order(spec: KernelSpec, order: &'o RowOrder) -> Self {
        DefensiveProduct {
            spec,
            order,
            cache: None,
        }
    }

    /// The backend spec this product runs.
    pub fn spec(&self) -> KernelSpec {
        self.spec
    }

    /// Drops the cached converted format; the next product re-converts
    /// from the live CSR image. Must be called after every mutation of
    /// the matrix arrays (see the type-level invalidation contract).
    pub fn invalidate(&mut self) {
        self.cache = None;
    }

    /// `y ← A·x` (defensive; see the type docs).
    ///
    /// # Panics
    /// Panics if `y.len() != a.n_rows()`.
    pub fn product(&mut self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        match self.spec {
            // The lockstep traversal: bit-identical to
            // `spmv_clamped_into` (each row keeps one sequential chain)
            // with several rows of one length in flight, which breaks
            // the FP-add latency serialization of the scalar loop and
            // its per-row loop-exit mispredict.
            KernelSpec::Csr | KernelSpec::Auto => a.spmv_clamped_ordered_into(self.order, x, y),
            KernelSpec::CsrPar { threads } => spmv_clamped_parallel(a, x, y, threads),
            KernelSpec::Bcsr { block } => {
                if !matches!(self.cache, Some(CachedFormat::Bcsr(_))) {
                    self.cache = Some(CachedFormat::Bcsr(BcsrMatrix::from_csr_clamped(a, block)));
                }
                match &self.cache {
                    Some(CachedFormat::Bcsr(m)) => m.spmv_into(x, y),
                    _ => unreachable!("cache was just filled"),
                }
            }
            KernelSpec::Sell { chunk, sigma } => {
                if !matches!(self.cache, Some(CachedFormat::Sell(_))) {
                    self.cache = Some(CachedFormat::Sell(SellCSigma::from_csr_clamped(
                        a, chunk, sigma,
                    )));
                }
                match &self.cache {
                    Some(CachedFormat::Sell(m)) => m.spmv_into(x, y),
                    _ => unreachable!("cache was just filled"),
                }
            }
        }
    }

    /// `y ← A·x` with the ABFT output probe `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]`
    /// returned from the same call.
    ///
    /// The serial CSR path (also serving `auto`) folds the probe into
    /// the product traversal
    /// ([`CsrMatrix::spmv_clamped_probe_ordered_into`]); the parallel and
    /// converted-format paths run their product and a separate
    /// [`probe_of`](ftcg_sparse::fused::probe_of) sweep. `y` and the
    /// probe are bit-identical to [`DefensiveProduct::product`]
    /// followed by `probe_of(y)` in every case.
    ///
    /// # Panics
    /// Panics if `y.len() != a.n_rows()`.
    pub fn product_with_probe(&mut self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> [f64; 2] {
        match self.spec {
            KernelSpec::Csr | KernelSpec::Auto => {
                a.spmv_clamped_probe_ordered_into(self.order, x, y)
            }
            _ => {
                self.product(a, x, y);
                ftcg_sparse::fused::probe_of(y)
            }
        }
    }
}

/// Defensive parallel product: rows are split into equal-count blocks
/// (no dependence on the possibly corrupted `rowptr` for partitioning)
/// and each worker computes clamped row products into its disjoint
/// slice of `y`.
fn spmv_clamped_parallel(a: &CsrMatrix, x: &[f64], y: &mut [f64], threads: usize) {
    let n = a.n_rows();
    assert_eq!(y.len(), n, "csr-par defensive: y length mismatch");
    let t = effective_threads(threads).clamp(1, n.max(1));
    if t <= 1 || n == 0 {
        a.spmv_clamped_rowband_into(x, y);
        return;
    }
    let rows_per = n.div_ceil(t);
    crossbeam::scope(|scope| {
        for (bi, ys) in y.chunks_mut(rows_per).enumerate() {
            scope.spawn(move |_| {
                let base = bi * rows_per;
                let hi = base + ys.len();
                a.row_band_product_clamped(base..hi, x, ys);
            });
        }
    })
    .expect("defensive parallel spmv worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    #[test]
    fn parse_label_roundtrip() {
        for name in [
            "csr",
            "csr-par",
            "csr-par:4",
            "bcsr:2",
            "bcsr:4",
            "sell:8:32",
            "sell:16:4",
            "auto",
        ] {
            let spec = KernelSpec::parse(name).unwrap();
            assert_eq!(spec.label(), name);
            assert_eq!(KernelSpec::parse(&spec.label()).unwrap(), spec);
        }
        // Defaults expand to their canonical parameterized labels.
        assert_eq!(KernelSpec::parse("bcsr").unwrap().label(), "bcsr:2");
        assert_eq!(KernelSpec::parse("sell").unwrap().label(), "sell:8:32");
        assert_eq!(KernelSpec::parse("sell:16").unwrap().label(), "sell:16:32");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "ell",
            "bcsr:0",
            "bcsr:9",
            "sell:0",
            "csr-par:x",
            "auto:fast",
            "auto:bench",
            "csr:1",
        ] {
            assert!(KernelSpec::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn with_threads_only_fills_unset() {
        assert_eq!(
            KernelSpec::CsrPar { threads: 0 }.with_threads(6),
            KernelSpec::CsrPar { threads: 6 }
        );
        assert_eq!(
            KernelSpec::CsrPar { threads: 2 }.with_threads(6),
            KernelSpec::CsrPar { threads: 2 }
        );
        assert_eq!(KernelSpec::Csr.with_threads(6), KernelSpec::Csr);
    }

    #[test]
    fn resolve_pins_auto() {
        let a = gen::poisson2d(12).unwrap();
        let spec = KernelSpec::Auto.resolve(&a);
        assert_ne!(spec, KernelSpec::Auto);
        assert_eq!(KernelSpec::Csr.resolve(&a), KernelSpec::Csr);
    }

    #[test]
    fn defensive_products_match_clean_reference() {
        let a = gen::random_spd(150, 0.05, 2).unwrap();
        let x: Vec<f64> = (0..150).map(|i| (i as f64 * 0.13).cos()).collect();
        let want = a.spmv(&x);
        for spec in [
            KernelSpec::Csr,
            KernelSpec::CsrPar { threads: 3 },
            KernelSpec::Bcsr { block: 2 },
            KernelSpec::Bcsr { block: 4 },
            KernelSpec::Sell {
                chunk: 8,
                sigma: 32,
            },
        ] {
            let mut y = vec![0.0; 150];
            spec.product_defensive(&a, &x, &mut y);
            assert_eq!(y, want, "spec {}", spec.label());
        }
    }

    #[test]
    fn cached_defensive_product_tracks_mutations_after_invalidate() {
        let mut a = gen::poisson2d(8).unwrap();
        let x = vec![1.0; 64];
        for spec in [
            KernelSpec::Bcsr { block: 2 },
            KernelSpec::Sell {
                chunk: 4,
                sigma: 16,
            },
        ] {
            let mut dp = DefensiveProduct::new(spec);
            let mut y1 = vec![0.0; 64];
            dp.product(&a, &x, &mut y1); // fills the cache
            let mut y2 = vec![0.0; 64];
            dp.product(&a, &x, &mut y2); // served from cache
            assert_eq!(y1, y2, "{}", spec.label());
            // Mutate the image; after invalidate the product must see it.
            a.val_mut()[0] += 1.0;
            dp.invalidate();
            let mut y3 = vec![0.0; 64];
            dp.product(&a, &x, &mut y3);
            let mut want = vec![0.0; 64];
            a.spmv_clamped_into(&x, &mut want);
            assert_eq!(y3, want, "{}", spec.label());
            assert_ne!(y3, y1, "{}", spec.label());
            a.val_mut()[0] -= 1.0; // restore for the next spec
        }
    }

    #[test]
    fn rowband_defensive_csr_is_bit_identical_to_scalar_clamped() {
        // The serial and parallel defensive CSR paths both run the
        // row-band kernel; both must reproduce the scalar clamped
        // reference bit for bit, clean and corrupted.
        let mut a = gen::random_spd(230, 0.04, 17).unwrap();
        let x: Vec<f64> = (0..230).map(|i| (i as f64 * 0.23).sin() * 1.5).collect();
        for corrupt in [false, true] {
            if corrupt {
                a.rowptr_mut()[31] = usize::MAX;
                a.rowptr_mut()[100] = 5;
                a.colid_mut()[19] = 1 << 44;
            }
            let mut want = vec![0.0; 230];
            a.spmv_clamped_into(&x, &mut want);
            for spec in [KernelSpec::Csr, KernelSpec::CsrPar { threads: 3 }] {
                let mut y = vec![0.0; 230];
                spec.product_defensive(&a, &x, &mut y);
                for i in 0..230 {
                    assert_eq!(
                        y[i].to_bits(),
                        want[i].to_bits(),
                        "spec {} corrupt {corrupt} row {i}",
                        spec.label()
                    );
                }
            }
        }
    }

    #[test]
    fn defensive_probe_matches_product_plus_sweep() {
        let mut a = gen::random_spd(120, 0.06, 23).unwrap();
        let x: Vec<f64> = (0..120).map(|i| (i as f64 * 0.19).sin() * 2.5).collect();
        for corrupt in [false, true] {
            if corrupt {
                a.rowptr_mut()[17] = usize::MAX;
                a.colid_mut()[5] = 1 << 40;
                a.val_mut()[8] = f64::INFINITY;
            }
            for spec in [
                KernelSpec::Csr,
                KernelSpec::CsrPar { threads: 3 },
                KernelSpec::Bcsr { block: 2 },
                KernelSpec::Sell {
                    chunk: 8,
                    sigma: 32,
                },
            ] {
                let mut want = vec![0.0; 120];
                DefensiveProduct::new(spec).product(&a, &x, &mut want);
                let want_probe = ftcg_sparse::fused::probe_of(&want);
                let mut y = vec![0.0; 120];
                let probe = DefensiveProduct::new(spec).product_with_probe(&a, &x, &mut y);
                for i in 0..120 {
                    assert_eq!(
                        y[i].to_bits(),
                        want[i].to_bits(),
                        "spec {} corrupt {corrupt} row {i}",
                        spec.label()
                    );
                }
                assert_eq!(
                    probe[0].to_bits(),
                    want_probe[0].to_bits(),
                    "spec {} corrupt {corrupt}",
                    spec.label()
                );
                assert_eq!(
                    probe[1].to_bits(),
                    want_probe[1].to_bits(),
                    "spec {} corrupt {corrupt}",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn defensive_products_survive_corruption() {
        let mut a = gen::poisson2d(6).unwrap();
        a.rowptr_mut()[7] = usize::MAX;
        a.rowptr_mut()[20] = 3; // inverted range
        a.colid_mut()[11] = 1 << 50;
        let x = vec![1.0; 36];
        let mut want = vec![0.0; 36];
        a.spmv_clamped_into(&x, &mut want);
        for spec in [
            KernelSpec::Csr,
            KernelSpec::CsrPar { threads: 4 },
            KernelSpec::Bcsr { block: 2 },
            KernelSpec::Sell {
                chunk: 4,
                sigma: 16,
            },
        ] {
            let mut y = vec![0.0; 36];
            spec.product_defensive(&a, &x, &mut y); // must not panic
            for i in 0..36 {
                assert!(
                    (y[i] - want[i]).abs() <= 1e-12 * (1.0 + want[i].abs()),
                    "spec {} row {i}: {} vs {}",
                    spec.label(),
                    y[i],
                    want[i]
                );
            }
        }
    }
}
