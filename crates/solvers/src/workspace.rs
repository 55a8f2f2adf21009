//! Per-worker reusable solve memory: the [`SolverWorkspace`].
//!
//! A Monte-Carlo campaign executes the *same shapes* of work thousands
//! of times: one CG machine, one corruptible matrix image, one
//! checkpoint slot, one trusted input copy, two short fault lists.
//! Allocating those per repetition is pure allocator traffic on the hot
//! path; a `SolverWorkspace` retains them across repetitions and
//! re-initializes them in place:
//!
//! * the one [`CgMachine`] is reset and resized in place — bit-identical
//!   to a fresh [`CgMachine::start_zero`];
//! * the one corruptible matrix image is reshaped to the caller's
//!   matrix by [`CsrMatrix::assign_from`] — a copy into warm memory,
//!   not a clone — and the defensive product's row visit order is
//!   rebuilt from that matrix in place ([`RowOrder::rebuild`], 4 bytes
//!   per row);
//! * checkpoints — iteration vectors only; their matrix is the
//!   caller's pristine input — live in a one-buffer [`SnapshotSlot`],
//!   the trusted product input in one [`XRef`], and an iteration's
//!   deferred product-output faults and TMR replica flips in two
//!   retained lists.
//!
//! Nothing is kept only to simulate faults: no start vectors (the
//! first frame restarts from `b`) and no TMR replicas (their vote is a
//! function of the recorded flips, [`vote_flips`]).
//!
//! [`vote_flips`]: ftcg_abft::tmr::vote_flips
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
//! the one checkpoint buffer and the trusted input copy — and the
//! machine's). The matrix every rollback restores is the
//! caller's own immutable `a0`, so no second image exists; buffers
//! grow to exactly the size asked for
//! ([`SolverWorkspace::retained_image_bytes`] reports the total). Drop
//! the workspace — or scope one per campaign, as the engine pool does —
//! to release everything.

use ftcg_abft::tmr::ReplicaFlip;
use ftcg_abft::XRef;
use ftcg_checkpoint::SnapshotSlot;
use ftcg_fault::FaultEvent;
use ftcg_sparse::{CsrMatrix, RowOrder};

use crate::CgMachine;

/// Retained executor-side buffers: the rolling checkpoint slot, the
/// trusted copy of the product input and this iteration's deferred
/// product-output faults and TMR replica flips.
#[derive(Debug)]
pub(crate) struct ExecArena {
    /// Rolling verified checkpoint (one retained buffer, allocation-free).
    pub(crate) slot: SnapshotSlot,
    /// Trusted copy of the direction vector, re-captured per iteration.
    pub(crate) xref: XRef,
    /// Product-output faults deferred onto the verified product.
    pub(crate) q_faults: Vec<FaultEvent>,
    /// `r`/`x` faults struck into one TMR replica (ABFT schemes).
    pub(crate) tmr_flips: Vec<ReplicaFlip>,
}

/// Reusable per-worker solve memory (see the module docs). Create one
/// per worker thread and pass it to
/// [`solve_resilient_in`](crate::resilient::solve_resilient_in) for
/// every repetition it executes.
pub struct SolverWorkspace {
    machine: CgMachine,
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
            .field("n", &self.machine.x.len())
            .field("retained_image_bytes", &self.retained_image_bytes())
            .finish_non_exhaustive()
    }
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow as larger shapes are seen.
    pub fn new() -> Self {
        SolverWorkspace {
            machine: CgMachine::default(),
            image: CsrMatrix::default(),
            order: RowOrder::new(),
            arena: ExecArena {
                slot: SnapshotSlot::new(),
                xref: XRef::empty(),
                q_faults: Vec::new(),
                tmr_flips: Vec::new(),
            },
        }
    }

    /// Bytes of matrix storage kept reserved between solves: the live
    /// image at the capacity of the largest matrix it has held, plus
    /// the empty row pointer of the checkpoint slot's one buffer, which
    /// holds vectors only.
    pub fn retained_image_bytes(&self) -> usize {
        self.image.capacity_bytes() + self.arena.slot.retained_matrix_bytes()
    }

    /// Bytes the row visit order keeps reserved: 4 per row of the
    /// largest matrix seen, shared by every shape.
    pub fn retained_order_bytes(&self) -> usize {
        self.order.capacity_bytes()
    }

    /// Checks out everything one resilient solve needs: the machine
    /// reset to the zero-start state of `b` (bit-identical to a fresh
    /// [`CgMachine::start_zero`]), the corruptible image holding a
    /// bit-exact copy of `a0`, the retained executor arena, and the row
    /// visit order of `a0`.
    pub(crate) fn checkout(
        &mut self,
        a0: &CsrMatrix,
        b: &[f64],
    ) -> (&mut CgMachine, &mut CsrMatrix, &mut ExecArena, &RowOrder) {
        self.machine.reset_zero(b);
        self.image.assign_from(a0);
        self.order.rebuild(a0);
        (
            &mut self.machine,
            &mut self.image,
            &mut self.arena,
            &self.order,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcg_sparse::gen;

    #[test]
    fn checkout_resets_bit_identically_to_start_zero() {
        let a = gen::random_spd(40, 0.08, 11).unwrap();
        let b: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let b2: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut ws = SolverWorkspace::new();
        // Dirty the retained machine with a different rhs first.
        ws.checkout(&a, &b2);
        let (m, image, _, _) = ws.checkout(&a, &b);
        let fresh = CgMachine::start_zero(&b);
        for (got, want) in m.vectors().into_iter().zip(fresh.vectors()) {
            assert_eq!(got.len(), want.len());
            for i in 0..got.len() {
                assert_eq!(
                    got[i].to_bits(),
                    want[i].to_bits(),
                    "[{i}] differs after reset"
                );
            }
        }
        assert_eq!(
            m.residual_norm().to_bits(),
            fresh.residual_norm().to_bits(),
            "residual norm differs after reset"
        );
        assert_eq!(*image, a);
        // Only the live image is ever sized: the slot's one buffer
        // holds its empty row pointer, 4 bytes.
        assert_eq!(ws.retained_image_bytes(), a.image_bytes() + 4);
    }

    #[test]
    fn one_machine_serves_every_size() {
        let a1 = gen::tridiagonal(20, 4.0, -1.0).unwrap();
        let a2 = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let b1 = vec![1.0; 20];
        let b2 = vec![1.0; 30];
        let mut ws = SolverWorkspace::new();
        ws.checkout(&a2, &b2);
        let p0 = ws.machine.p.as_ptr();
        let (m, _, _, _) = ws.checkout(&a1, &b1);
        assert_eq!(m.vectors().map(<[f64]>::len), [20; 4]);
        assert_eq!(m.p.as_ptr(), p0, "the smaller size reuses the buffer");
        let (m, _, _, _) = ws.checkout(&a2, &b2);
        assert_eq!(m.vectors().map(<[f64]>::len), [30; 4]);
        assert_eq!(m.p.as_ptr(), p0, "the larger size regrows nothing");

        // Both shapes share the one image, sized for the larger.
        assert_eq!(ws.retained_image_bytes(), a2.image_bytes() + 4);
    }

    #[test]
    fn checkout_copies_the_image_bit_exactly() {
        let a = gen::random_spd(40, 0.08, 3).unwrap();
        let b = vec![1.0; 40];
        let mut ws = SolverWorkspace::new();
        let (_, image, _, _) = ws.checkout(&a, &b);
        assert_eq!(*image, a);
    }

    #[test]
    fn same_shape_reuses_the_image_buffer() {
        let a = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let b = vec![1.0; 30];
        let mut ws = SolverWorkspace::new();
        let p0 = ws.checkout(&a, &b).1.val().as_ptr();
        // Corrupt the image, then check out again: healed, same buffer.
        ws.checkout(&a, &b).1.val_mut()[0] = f64::NAN;
        let (_, image, _, _) = ws.checkout(&a, &b);
        assert_eq!(image.val().as_ptr(), p0);
        assert_eq!(*image, a);
    }

    #[test]
    fn distinct_shapes_share_one_image_at_the_high_water_mark() {
        let small = gen::tridiagonal(20, 4.0, -1.0).unwrap();
        let large = gen::tridiagonal(25, 4.0, -1.0).unwrap();
        let (bs, bl) = (vec![1.0; 20], vec![1.0; 25]);
        let mut ws = SolverWorkspace::new();
        ws.checkout(&large, &bl);
        let bytes = ws.retained_image_bytes();
        let p0 = ws.checkout(&large, &bl).1.val().as_ptr();
        for _ in 0..2 {
            let (_, image, _, _) = ws.checkout(&small, &bs);
            assert_eq!(*image, small);
            assert_eq!(
                image.val().as_ptr(),
                p0,
                "the smaller shape reuses the buffer"
            );
            assert_eq!(*ws.checkout(&large, &bl).1, large);
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
        ws.checkout(&a, &rhs);
        assert_eq!(*ws.checkout(&b, &rhs).1, b);
    }

    #[test]
    fn checkpoint_holds_no_matrix_words() {
        use crate::resilient::{solve_resilient_in, ResilientConfig};
        let a = gen::random_spd(60, 0.1, 5).unwrap();
        let b: Vec<f64> = (0..60).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let mut ws = SolverWorkspace::new();
        let cfg = ResilientConfig::new(ftcg_model::Scheme::AbftCorrection, 3);
        let out = solve_resilient_in(&a, &b, &cfg, None, &mut ws);
        assert!(out.converged && out.checkpoints > 0);
        // A checkpoint's matrix is `a0`: it keeps vectors only.
        let ckpt = ws.arena.slot.latest().expect("checkpoints were taken");
        assert_eq!(ckpt.n(), 60);
        assert_eq!(ckpt.size_words(), 3 * 60 + 1 + 2);
        assert_eq!(ws.arena.slot.retained_matrix_bytes(), 4);
        // The live image, nothing else.
        assert_eq!(ws.retained_image_bytes(), a.image_bytes() + 4);
    }
}
