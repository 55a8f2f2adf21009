//! Per-worker reusable solve memory: the [`SolverWorkspace`].
//!
//! A Monte-Carlo campaign executes the *same shapes* of work thousands
//! of times: one solver machine per (solver, n), one corruptible matrix
//! image, one checkpoint slot, one TMR shadow pair, one trusted input
//! copy. Allocating those per repetition is pure allocator traffic on
//! the hot path; a `SolverWorkspace` retains them across repetitions
//! and re-initializes them in place:
//!
//! * solver machines are cached per `(SolverKind, n)` and reset through
//!   [`IterativeSolver::reset_zero`] — bit-identical to a fresh
//!   [`SolverKind::start_zero`];
//! * the one corruptible matrix image is reshaped to the caller's
//!   matrix by [`CsrMatrix::assign_from`] — a copy into warm memory,
//!   not a clone — and the defensive product's row visit order is
//!   rebuilt from that matrix in place ([`RowOrder::rebuild`], 4 bytes
//!   per row);
//! * checkpoints — iteration vectors only; their matrix is the
//!   caller's pristine input — live in a double-buffered
//!   [`SnapshotSlot`], the start vectors
//!   in a retained [`SolverState`], the ABFT shadows in retained
//!   [`TmrVector`]s and [`XRef`]s.
//!
//! ## Reuse contract (why bit-exactness holds)
//!
//! Every reset path is `copy_from_slice`/`fill` plus *exactly* the
//! floating-point operations the corresponding constructor performs, in
//! the same order — no data-dependent branching, no reordered sums. A
//! solve through a reused workspace therefore produces bit-for-bit the
//! `SolveStats`/`ResilientOutcome` of a fresh-allocation solve; the
//! property suite (`snapshot_proptests.rs`) and the allocation gate
//! (`alloc_gate.rs`) pin both halves of the contract.
//!
//! The workspace is deliberately `!Sync`: each worker owns one (see
//! `ftcg-engine`'s `JobWorkspace`), so no locking ever touches the hot
//! path.
//!
//! ## Retention and scope
//!
//! Every buffer is shared by all the shapes the worker solves and kept
//! at its high-water capacity, so retained memory follows the *largest*
//! matrix seen, not the number of distinct ones: **one matrix image**
//! (the live, corruptible one) **plus O(n) vectors** (the arena's —
//! the double-buffered checkpoint and the start vectors among them —
//! and one machine per `(solver, n)`). The matrix every rollback
//! restores is the caller's own immutable `a0`, so no second image
//! exists; buffers grow to exactly the size asked for
//! ([`SolverWorkspace::retained_image_bytes`] reports the total). Drop
//! the workspace — or scope one per campaign, as the engine pool does —
//! to release everything. One reuse boundary is deliberate: non-CSR
//! kernel backends (`bcsr`, `sell`) still re-materialize their
//! converted format defensively from the live image inside each solve,
//! because a conversion cached across repetitions could be stale with
//! respect to injected matrix faults; pooling those conversion buffers
//! would need `convert_into`-style APIs on the formats and is future
//! work.

use ftcg_abft::tmr::TmrVector;
use ftcg_abft::XRef;
use ftcg_checkpoint::{SnapshotSlot, SolverState};
use ftcg_fault::FaultEvent;
use ftcg_sparse::{CsrMatrix, RowOrder};

use crate::machine::{IterativeSolver, SolverKind};

/// Retained executor-side buffers: the start vectors, the rolling
/// checkpoint slot, the trusted input copies and the TMR shadows.
#[derive(Debug)]
pub(crate) struct ExecArena {
    /// Start vectors of the current solve. With the caller's pristine
    /// `a0` they are the paper's "read initial data again" escalation
    /// target; the matrix field stays empty.
    pub(crate) initial: SolverState,
    /// Rolling verified checkpoint (double-buffered, allocation-free).
    pub(crate) slot: SnapshotSlot,
    /// Trusted copy of the direction vector, re-captured per iteration.
    pub(crate) xref: XRef,
    /// Trusted copy for mid-step products (BiCGStab's second product
    /// captures its reference at call time).
    pub(crate) xref_scratch: XRef,
    /// TMR shadow of the residual (ABFT schemes).
    pub(crate) r_tmr: TmrVector,
    /// TMR shadow of the iterate (ABFT schemes).
    pub(crate) x_tmr: TmrVector,
    /// Product-output faults deferred onto the verified product.
    pub(crate) q_faults: Vec<FaultEvent>,
}

/// Reusable per-worker solve memory (see the module docs). Create one
/// per worker thread and pass it to
/// [`solve_resilient_in`](crate::resilient::solve_resilient_in) for
/// every repetition it executes.
pub struct SolverWorkspace {
    machines: Vec<((SolverKind, usize), Box<dyn IterativeSolver>)>,
    image: CsrMatrix,
    /// Row visit order of the defensive product, rebuilt from the
    /// caller's pristine matrix at every checkout (reliable metadata,
    /// like the checksums: never a fault target).
    order: RowOrder,
    arena: ExecArena,
}

impl Default for SolverWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SolverWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverWorkspace")
            .field(
                "machines",
                &self
                    .machines
                    .iter()
                    .map(|((k, n), _)| (*k, *n))
                    .collect::<Vec<_>>(),
            )
            .field("retained_image_bytes", &self.retained_image_bytes())
            .finish()
    }
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow as larger shapes are seen.
    pub fn new() -> Self {
        SolverWorkspace {
            machines: Vec::new(),
            image: CsrMatrix::identity(0),
            order: RowOrder::new(),
            arena: ExecArena {
                initial: SolverState::empty(),
                slot: SnapshotSlot::new(),
                xref: XRef::empty(),
                xref_scratch: XRef::empty(),
                r_tmr: TmrVector::zeros(0),
                x_tmr: TmrVector::zeros(0),
                q_faults: Vec::new(),
            },
        }
    }

    /// Number of retained solver machines (distinct `(solver, n)`).
    pub fn retained_machines(&self) -> usize {
        self.machines.len()
    }

    /// Bytes of matrix storage kept reserved between solves: the live
    /// image at the capacity of the largest matrix it has held, plus
    /// the empty row pointers of the start state and the checkpoint
    /// slot's two buffers, which hold vectors only.
    pub fn retained_image_bytes(&self) -> usize {
        let words = self.image.capacity_words()
            + self.arena.initial.matrix.capacity_words()
            + self.arena.slot.retained_matrix_words();
        words * std::mem::size_of::<f64>()
    }

    /// Bytes the row visit order keeps reserved: 4 per row of the
    /// largest matrix seen, shared by every shape.
    pub fn retained_order_bytes(&self) -> usize {
        self.order.capacity_bytes()
    }

    /// Checks out everything one resilient solve needs: a machine reset
    /// to the zero-start state over `(a0, b)` (bit-identical to a fresh
    /// [`SolverKind::start_zero`]), the corruptible image holding a
    /// bit-exact copy of `a0`, the retained executor arena, and the row
    /// visit order of `a0`.
    pub(crate) fn checkout(
        &mut self,
        kind: SolverKind,
        a0: &CsrMatrix,
        b: &[f64],
    ) -> (
        &mut dyn IterativeSolver,
        &mut CsrMatrix,
        &mut ExecArena,
        &RowOrder,
    ) {
        let mkey = (kind, a0.n_rows());
        let mi = match self.machines.iter().position(|(k, _)| *k == mkey) {
            Some(i) => {
                self.machines[i].1.reset_zero(a0, b);
                i
            }
            None => {
                self.machines.push((mkey, kind.start_zero(a0, b)));
                self.machines.len() - 1
            }
        };
        self.image.assign_from(a0);
        self.order.rebuild(a0);
        (
            self.machines[mi].1.as_mut(),
            &mut self.image,
            &mut self.arena,
            &self.order,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CanonVec;
    use ftcg_sparse::gen;

    #[test]
    fn checkout_resets_bit_identically_to_start_zero() {
        let a = gen::random_spd(40, 0.08, 11).unwrap();
        let b: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let b2: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut ws = SolverWorkspace::new();
        for kind in SolverKind::ALL {
            // Dirty the retained machine with a different rhs first.
            ws.checkout(kind, &a, &b2);
            let (m, image, _, _) = ws.checkout(kind, &a, &b);
            let fresh = kind.start_zero(&a, &b);
            for which in [
                CanonVec::Iterate,
                CanonVec::Residual,
                CanonVec::Direction,
                CanonVec::Product,
            ] {
                let got = m.vector(which);
                let want = fresh.vector(which);
                assert_eq!(got.len(), want.len());
                for i in 0..got.len() {
                    assert_eq!(
                        got[i].to_bits(),
                        want[i].to_bits(),
                        "{kind}: {which:?}[{i}] differs after reset"
                    );
                }
            }
            assert_eq!(
                m.residual_norm().to_bits(),
                fresh.residual_norm().to_bits(),
                "{kind}: residual norm differs after reset"
            );
            assert_eq!(*image, a);
        }
        assert_eq!(ws.retained_machines(), 4);
        // Only the live image is ever sized: the slot and the initial
        // state hold their empty row pointers.
        assert_eq!(ws.retained_image_bytes(), 8 * (a.memory_words() + 3));
    }

    #[test]
    fn machines_are_retained_per_kind_and_size() {
        let a1 = gen::tridiagonal(20, 4.0, -1.0).unwrap();
        let a2 = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let b1 = vec![1.0; 20];
        let b2 = vec![1.0; 30];
        let mut ws = SolverWorkspace::new();
        ws.checkout(SolverKind::Cg, &a1, &b1);
        ws.checkout(SolverKind::Cg, &a1, &b1);
        ws.checkout(SolverKind::Cg, &a2, &b2);
        ws.checkout(SolverKind::Pcg, &a1, &b1);
        assert_eq!(ws.retained_machines(), 3); // (cg,20), (cg,30), (pcg,20)

        // Both shapes share the one image, sized for the larger.
        assert_eq!(ws.retained_image_bytes(), 8 * (a2.memory_words() + 3));
    }

    #[test]
    fn checkout_copies_the_image_bit_exactly() {
        let a = gen::random_spd(40, 0.08, 3).unwrap();
        let b = vec![1.0; 40];
        let mut ws = SolverWorkspace::new();
        let (_, image, _, _) = ws.checkout(SolverKind::Cg, &a, &b);
        assert_eq!(*image, a);
    }

    #[test]
    fn same_shape_reuses_the_image_buffer() {
        let a = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let b = vec![1.0; 30];
        let mut ws = SolverWorkspace::new();
        let p0 = ws.checkout(SolverKind::Cg, &a, &b).1.val().as_ptr();
        // Corrupt the image, then check out again: healed, same buffer.
        ws.checkout(SolverKind::Cg, &a, &b).1.val_mut()[0] = f64::NAN;
        let (_, image, _, _) = ws.checkout(SolverKind::Cg, &a, &b);
        assert_eq!(image.val().as_ptr(), p0);
        assert_eq!(*image, a);
    }

    #[test]
    fn distinct_shapes_share_one_image_at_the_high_water_mark() {
        let small = gen::tridiagonal(20, 4.0, -1.0).unwrap();
        let large = gen::tridiagonal(25, 4.0, -1.0).unwrap();
        let (bs, bl) = (vec![1.0; 20], vec![1.0; 25]);
        let mut ws = SolverWorkspace::new();
        ws.checkout(SolverKind::Cg, &large, &bl);
        let bytes = ws.retained_image_bytes();
        let p0 = ws.checkout(SolverKind::Cg, &large, &bl).1.val().as_ptr();
        for _ in 0..2 {
            let (_, image, _, _) = ws.checkout(SolverKind::Cg, &small, &bs);
            assert_eq!(*image, small);
            assert_eq!(
                image.val().as_ptr(),
                p0,
                "the smaller shape reuses the buffer"
            );
            assert_eq!(*ws.checkout(SolverKind::Cg, &large, &bl).1, large);
        }
        assert_eq!(
            ws.retained_image_bytes(),
            bytes,
            "no growth past the largest shape"
        );
    }

    #[test]
    fn same_shape_different_pattern_still_copies_exactly() {
        // Equal (n, nnz), different sparsity patterns: the checkout must
        // copy the whole image (pattern included), never just the values.
        let a = CsrMatrix::new(
            3,
            3,
            vec![0, 2, 3, 4],
            vec![0, 1, 1, 2],
            vec![4.0, 1.0, 3.0, 2.0],
        )
        .unwrap();
        let b = CsrMatrix::new(
            3,
            3,
            vec![0, 1, 3, 4],
            vec![0, 0, 1, 2],
            vec![7.0, 5.0, 6.0, 9.0],
        )
        .unwrap();
        assert_eq!(a.nnz(), b.nnz());
        assert_ne!(a.colid(), b.colid());
        let rhs = vec![1.0; 3];
        let mut ws = SolverWorkspace::new();
        ws.checkout(SolverKind::Cg, &a, &rhs);
        assert_eq!(*ws.checkout(SolverKind::Cg, &b, &rhs).1, b);
    }

    #[test]
    fn initial_state_holds_no_matrix_words() {
        use crate::resilient::{solve_resilient_in, ResilientConfig};
        let a = gen::random_spd(60, 0.1, 5).unwrap();
        let b: Vec<f64> = (0..60).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let mut ws = SolverWorkspace::new();
        let cfg = ResilientConfig::new(ftcg_model::Scheme::AbftCorrection, 3);
        let out = solve_resilient_in(&a, &b, &cfg, None, &mut ws);
        assert!(out.converged && out.checkpoints > 0);
        // The first-frame target is `a0` itself: the arena keeps the
        // start vectors and an empty matrix.
        let initial = &ws.arena.initial;
        assert_eq!((initial.n(), initial.iteration), (60, 0));
        assert_eq!(initial.r, b);
        assert_eq!(initial.matrix.capacity_words(), 1);
        assert_eq!(initial.size_words(), 3 * 60 + 1 + 2);
        // Nor does the checkpoint: its matrix is `a0` too.
        let ckpt = ws.arena.slot.latest().expect("checkpoints were taken");
        assert_eq!(ckpt.n(), 60);
        assert_eq!(ckpt.size_words(), 3 * 60 + 1 + 2);
        assert_eq!(ws.arena.slot.retained_matrix_words(), 2);
        // The live image, nothing else.
        assert_eq!(ws.retained_image_bytes(), 8 * (a.memory_words() + 3));
    }
}
