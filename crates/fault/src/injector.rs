//! The fault injector: draws per-iteration fault plans and applies them.
//!
//! "Faults are modeled as bit flips occurring independently at each step,
//! under an exponential distribution of parameter λ … each memory location
//! or operation is given the chance to fail just once per iteration"
//! (Section 5.1). With `Titer = 1` this makes the per-iteration fault
//! count Poisson with mean `α = λ·M`; each fault strikes a uniformly
//! random word of the registered unreliable memory. `α` is the expected
//! number of faults per iteration and `1/α` the *normalized MTBF* on
//! Figure 1's x-axis; Table 1 uses `λ = 1/(16M)`, i.e. `α = 1/16`.
//!
//! [`Injector::new`] is the one constructor: it reads the fault model
//! off an [`InjectorSpec`] and the matrix.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ftcg_sparse::CsrMatrix;

use crate::bitflip::{self, BitRange};
use crate::inject::InjectorSpec;
use crate::process::poisson_count;
use crate::target::{FaultTarget, MemoryLayout};

/// A single planned bit flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Memory region struck.
    pub target: FaultTarget,
    /// Word offset within the region.
    pub offset: usize,
    /// Bit position flipped.
    pub bit: u32,
}

/// Stateful fault injector with a deterministic seeded RNG.
#[derive(Debug)]
pub struct Injector {
    /// Expected faults per iteration (`α`).
    alpha: f64,
    /// Bits eligible in `f64` targets (`Val` and the vectors).
    value_bits: BitRange,
    /// Bits eligible in the 32-bit index targets (`Colid`, `Rowidx`):
    /// just enough to reach every valid index, so most flips stay in
    /// bounds and only the checksums can catch them.
    index_bits: BitRange,
    layout: MemoryLayout,
    rng: StdRng,
}

impl Injector {
    /// The injector of fault model `spec` on matrix `a` at `alpha`
    /// expected faults per iteration, or `None` when nothing would ever
    /// strike: [`InjectorSpec::None`] (whatever `alpha` says) or
    /// `alpha = 0`.
    ///
    /// # Panics
    /// Panics if `spec` injects and `alpha` is negative or not finite.
    pub fn new(spec: InjectorSpec, a: &CsrMatrix, alpha: f64, seed: u64) -> Option<Injector> {
        let calibrated = match spec {
            InjectorSpec::None => return None,
            InjectorSpec::Paper => false,
            InjectorSpec::Calibrated => true,
        };
        // Built before the α = 0 test so that a negative α still panics.
        let injector = Injector::drawing(calibrated, a, alpha, seed);
        (alpha > 0.0).then_some(injector)
    }

    /// The paper's model (`calibrated = false`: every bit of the matrix
    /// arrays and the four CG vectors) or the calibrated matrix-only one
    /// (value flips in the top 12 bits), at any `alpha >= 0`.
    pub(crate) fn drawing(calibrated: bool, a: &CsrMatrix, alpha: f64, seed: u64) -> Injector {
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be >= 0");
        Injector {
            alpha,
            value_bits: if calibrated {
                BitRange::High(12)
            } else {
                BitRange::Full
            },
            index_bits: BitRange::for_index_bound(a.n_cols().max(a.nnz() + 1)),
            layout: MemoryLayout {
                nnz: a.nnz(),
                n: a.n_rows(),
                include_vectors: !calibrated,
            },
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the fault plan for one iteration: a Poisson(`α`) number of
    /// flips at uniformly random words.
    pub fn plan_iteration(&mut self) -> Vec<FaultEvent> {
        let k = poisson_count(&mut self.rng, self.alpha);
        (0..k).map(|_| self.draw_event()).collect()
    }

    /// Draws a single fault at a uniformly random word (used by targeted
    /// unit tests and the correction-exactness experiments).
    pub fn draw_event(&mut self) -> FaultEvent {
        let total = self.layout.total_words();
        assert!(total > 0, "empty memory layout");
        let word = self.rng.random_range(0..total);
        let (target, offset) = self.layout.locate(word);
        let (bits, word_bits) = match target {
            FaultTarget::MatrixColid | FaultTarget::MatrixRowidx => (self.index_bits, u32::BITS),
            _ => (self.value_bits, u64::BITS),
        };
        let draw = self.rng.random_range(0..bits.width(word_bits));
        let bit = bits.position(draw, word_bits);
        FaultEvent {
            target,
            offset,
            bit,
        }
    }

    /// Applies a matrix-targeted event to the CSR arrays. Returns `true`
    /// if applied, `false` when the event targets a vector.
    pub fn apply_to_matrix(event: &FaultEvent, a: &mut CsrMatrix) -> bool {
        match event.target {
            FaultTarget::MatrixVal => {
                let v = &mut a.val_mut()[event.offset];
                *v = bitflip::flip_f64(*v, event.bit);
                true
            }
            FaultTarget::MatrixColid => {
                let c = &mut a.colid_mut()[event.offset];
                *c = bitflip::flip_u32(*c, event.bit);
                true
            }
            FaultTarget::MatrixRowidx => {
                let r = &mut a.rowptr_mut()[event.offset];
                *r = bitflip::flip_u32(*r, event.bit);
                true
            }
            FaultTarget::Vector(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    fn setup(alpha: f64, seed: u64) -> (CsrMatrix, Injector) {
        let a = gen::random_spd(50, 0.05, 1).unwrap();
        let inj = crate::paper_injector(&a, alpha, seed);
        (a, inj)
    }

    #[test]
    fn plan_rate_matches_alpha() {
        let (_, mut inj) = setup(0.25, 9);
        let iters = 40_000;
        let total: usize = (0..iters).map(|_| inj.plan_iteration().len()).sum();
        let emp = total as f64 / iters as f64;
        assert!((emp - 0.25).abs() < 0.02, "empirical alpha {emp}");
    }

    #[test]
    fn deterministic_by_seed() {
        let (_, mut a1) = setup(0.5, 42);
        let (_, mut a2) = setup(0.5, 42);
        for _ in 0..100 {
            assert_eq!(a1.plan_iteration(), a2.plan_iteration());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (_, mut a1) = setup(0.9, 1);
        let (_, mut a2) = setup(0.9, 2);
        let p1: Vec<_> = (0..50).flat_map(|_| a1.plan_iteration()).collect();
        let p2: Vec<_> = (0..50).flat_map(|_| a2.plan_iteration()).collect();
        assert_ne!(p1, p2);
    }

    #[test]
    fn events_hit_every_region_eventually() {
        let (_, mut inj) = setup(1.0, 3);
        let mut seen = Vec::new();
        for _ in 0..20_000 {
            for e in inj.plan_iteration() {
                let region = std::mem::discriminant(&e.target);
                if !seen.contains(&region) {
                    seen.push(region);
                }
            }
        }
        // Val, Colid, Rowidx, Vector
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn matrix_fault_applies_and_reverts() {
        let (mut a, _) = setup(0.0, 0);
        let before = a.val()[3];
        let e = FaultEvent {
            target: FaultTarget::MatrixVal,
            offset: 3,
            bit: 52,
        };
        assert!(Injector::apply_to_matrix(&e, &mut a));
        assert_ne!(a.val()[3].to_bits(), before.to_bits());
        Injector::apply_to_matrix(&e, &mut a);
        assert_eq!(a.val()[3].to_bits(), before.to_bits());
    }

    #[test]
    fn colid_fault_changes_index() {
        let (mut a, _) = setup(0.0, 0);
        let before = a.colid()[5];
        let e = FaultEvent {
            target: FaultTarget::MatrixColid,
            offset: 5,
            bit: 1,
        };
        Injector::apply_to_matrix(&e, &mut a);
        assert_eq!(a.colid()[5], before ^ 2);
    }

    #[test]
    fn rowidx_fault_changes_pointer() {
        let (mut a, _) = setup(0.0, 0);
        let before = a.rowptr()[2];
        let e = FaultEvent {
            target: FaultTarget::MatrixRowidx,
            offset: 2,
            bit: 0,
        };
        Injector::apply_to_matrix(&e, &mut a);
        assert_eq!(a.rowptr()[2], before ^ 1);
    }

    #[test]
    fn zero_alpha_never_faults() {
        let (_, mut inj) = setup(0.0, 11);
        for _ in 0..1000 {
            assert!(inj.plan_iteration().is_empty());
        }
    }

    #[test]
    fn index_bits_keep_most_flips_near_range() {
        let (a, mut inj) = setup(1.0, 13);
        // Flipping a single bit below the configured width keeps the
        // corrupted index below 2^width (both operands fit in width bits).
        let width = BitRange::for_index_bound(a.n_cols().max(a.nnz() + 1)).width(u32::BITS);
        let cap = 1u64 << width;
        for _ in 0..5000 {
            for e in inj.plan_iteration() {
                if e.target == FaultTarget::MatrixColid {
                    let worst = u64::from(a.colid()[e.offset] ^ (1u32 << e.bit));
                    assert!(worst < cap, "corrupted index {worst} >= {cap}");
                }
            }
        }
    }
}
