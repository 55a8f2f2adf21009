//! [`Protection`]: the paper's three schemes as one enum, matched by
//! the executor where they differ.
//!
//! Each variant holds its scheme's reliable once-per-matrix setup,
//! built from the pristine `a0`. The chunk/verify/checkpoint/rollback
//! protocol is the same for all three; the schemes differ in exactly
//! these places:
//!
//! | | ABFT-DETECTION | ABFT-CORRECTION | ONLINE-DETECTION |
//! |---|---|---|---|
//! | each forward product | single-checksum tests | dual-checksum tests + single-error repair | unverified |
//! | each chunk boundary | clean (products already verified) | clean | Chen's stability tests |
//! | iterations per chunk | 1 | 1 | `d` |
//! | `r`/`x` hardened | TMR (faults voted as replica flips), product faults strike the verified product | same | plainly exposed |
//! | extra cost per iteration | `Tverif` | same | 0 |
//! | extra cost per chunk check | 0 | 0 | `Tverif` |
//! | a failed check may rewrite the matrix | no | yes (the repair attempt) | no |

use ftcg_abft::{ProtectedSpmv, SingleChecksum, SpmvOutcome, XRef};
use ftcg_model::{ResilienceCosts, Scheme};
use ftcg_sparse::{CsrMatrix, RowOrder};

use crate::verify::OnlineTolerances;
use crate::CgMachine;

/// Outcome of verifying one forward product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProductCheck {
    /// All tests passed; nothing to count.
    Clean,
    /// Tests tripped but the recheck after the correction attempt came
    /// back clean (counts a detection, no correction).
    FalseAlarm,
    /// A single error was repaired in place — the matrix arrays, the
    /// input vector or the output may have been mutated.
    Corrected,
    /// Unrecoverable: the caller must roll back.
    Rejected,
}

/// One of the paper's three schemes with its reliable per-matrix setup
/// (see the module docs for where they differ).
pub(crate) enum Protection {
    /// ABFT-DETECTION: single-checksum verification of every product.
    Detection(SingleChecksum),
    /// ABFT-CORRECTION: dual weighted checksums — detect two errors,
    /// correct one forward, roll back only when correction fails.
    Correction(ProtectedSpmv),
    /// ONLINE-DETECTION: unverified products, Chen's stability tests at
    /// chunk boundaries.
    Online {
        /// 1-norm of the *clean* matrix (the working matrix may carry
        /// wild column indices).
        norm1_a: f64,
    },
}

impl Protection {
    /// The reliable setup of `scheme` for the pristine `a0`.
    pub(crate) fn new(scheme: Scheme, a0: &CsrMatrix) -> Self {
        match scheme {
            Scheme::AbftDetection => Protection::Detection(SingleChecksum::new(a0)),
            Scheme::AbftCorrection => Protection::Correction(ProtectedSpmv::new(a0)),
            Scheme::OnlineDetection => Protection::Online {
                norm1_a: a0.norm1(),
            },
        }
    }

    /// `true` when `r`/`x` live under TMR and product-output faults
    /// strike the verified product (the ABFT schemes).
    pub(crate) fn hardened(&self) -> bool {
        !matches!(self, Protection::Online { .. })
    }

    /// `true` when a non-clean [`Protection::check_product`] may have
    /// rewritten the matrix arrays, indices included — ABFT-CORRECTION's
    /// repair attempt. Otherwise rollback keeps its values-only restore
    /// when only value faults struck.
    pub(crate) fn may_mutate(&self) -> bool {
        matches!(self, Protection::Correction(_))
    }

    /// Iterations per chunk: the configured `d` for ONLINE-DETECTION, 1
    /// for the ABFT schemes (which verify every iteration).
    pub(crate) fn chunk_len(&self, verif_interval: usize) -> usize {
        match self {
            Protection::Online { .. } => verif_interval,
            _ => 1,
        }
    }

    /// Simulated time charged on top of the unit iteration cost: the
    /// one verified product's `Tverif` under the ABFT schemes.
    pub(crate) fn iteration_cost(&self, costs: &ResilienceCosts) -> f64 {
        match self {
            Protection::Online { .. } => 0.0, // paid at chunk ends only
            _ => costs.tverif,
        }
    }

    /// Simulated cost of one chunk-boundary verification.
    pub(crate) fn chunk_cost(&self, costs: &ResilienceCosts) -> f64 {
        match self {
            Protection::Online { .. } => costs.tverif,
            _ => 0.0,
        }
    }

    /// Verifies (and under ABFT-CORRECTION possibly repairs) one forward
    /// product `y = A·x` computed from the live matrix image; `xref` is
    /// the trusted copy of the input captured before this iteration's
    /// faults struck.
    ///
    /// `probe` is the output probe `[Σᵢ yᵢ, Σᵢ (i+1)·yᵢ]` of exactly the
    /// bits now in `y` (see [`ftcg_sparse::fused::probe_of`]), so the
    /// checksum tests never sweep `y` themselves.
    pub(crate) fn check_product(
        &self,
        a: &mut CsrMatrix,
        x: &mut [f64],
        xref: &XRef,
        y: &mut [f64],
        probe: &[f64; 2],
    ) -> ProductCheck {
        match self {
            Protection::Detection(single) => {
                if single.verify_probed(a, x, xref, probe).is_trusted() {
                    ProductCheck::Clean
                } else {
                    ProductCheck::Rejected
                }
            }
            Protection::Correction(protected) => {
                let res = protected.verify_probed(a, x, xref, probe);
                if res.clean() {
                    return ProductCheck::Clean;
                }
                match protected.correct(a, x, xref, y, &res) {
                    SpmvOutcome::Corrected(_) => ProductCheck::Corrected,
                    SpmvOutcome::Clean => ProductCheck::FalseAlarm,
                    SpmvOutcome::Detected(_) => ProductCheck::Rejected,
                }
            }
            Protection::Online { .. } => ProductCheck::Clean,
        }
    }

    /// Chunk-boundary whole-state verification; `true` means the state
    /// is trusted (a checkpoint may be taken, convergence accepted).
    /// `order` is the row visit order of the solve's products.
    pub(crate) fn verify_chunk(
        &self,
        a: &CsrMatrix,
        order: &RowOrder,
        solver: &CgMachine,
        tol: &OnlineTolerances,
    ) -> bool {
        match self {
            Protection::Online { norm1_a } => {
                !solver.verify_state(a, order, *norm1_a, tol).detected
            }
            // Every product of the chunk was already verified.
            _ => true,
        }
    }
}
