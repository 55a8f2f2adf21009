//! Per-worker reusable solve memory: the [`SolverWorkspace`].
//!
//! A Monte-Carlo campaign executes the *same shapes* of work thousands
//! of times: one CG machine, one flip list over the caller's matrix, one
//! checkpoint slot, one trusted input copy, two short fault lists.
//! Allocating those per repetition is pure allocator traffic on the hot
//! path; a `SolverWorkspace` retains them across repetitions and
//! re-initializes them in place:
//!
//! * the one [`CgMachine`] is reset and resized in place — bit-identical
//!   to a fresh [`CgMachine::start_zero`];
//! * the unreliable matrix memory is `a0` plus the flips since the last
//!   reload: the executor lays a [`CsrOverlay`] over the caller's own
//!   pristine matrix, keeping only the flipped words, in one retained
//!   [`Flips`] list that the overlay clears at every solve and every
//!   rollback — no copy of the matrix is made. The defensive product's
//!   row visit order is rebuilt from `a0` in place
//!   ([`RowOrder::rebuild`], 4 bytes per row);
//! * checkpoints — iteration vectors only; their matrix is the
//!   caller's pristine input — live in a one-buffer [`SnapshotSlot`],
//!   the trusted product input in one [`XRef`], and an iteration's
//!   deferred product-output faults and TMR replica flips in two
//!   retained lists.
//!
//! Nothing is kept only to simulate faults: no start vectors (the
//! first frame restarts from `b`), no matrix image (the flips over `a0`
//! are the corrupted matrix) and no TMR replicas (their vote is a
//! function of the recorded flips, [`vote_flips`]).
//!
//! The resilient executor takes the whole workspace: its prologue calls
//! `SolverWorkspace::reset` (machine, then row order) and then borrows
//! the seven buffers once, each on its own.
//!
//! [`vote_flips`]: ftcg_abft::tmr::vote_flips
//! [`CsrOverlay`]: ftcg_sparse::CsrOverlay
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
//! The workspace is owned, never shared: each worker holds one (see
//! `ftcg-engine`'s `JobWorkspace`), so no locking ever touches the hot
//! path.
//!
//! ## Retention and scope
//!
//! Every buffer is shared by all the shapes the worker solves and kept
//! at its high-water capacity, so retained memory follows the *largest*
//! matrix seen, not the number of distinct ones: **O(n) vectors** (the
//! one checkpoint buffer, the trusted input copy and the machine's),
//! the row order, and a flip list as long as the most words a solve
//! ever had flipped at once — **no matrix image**
//! ([`SolverWorkspace::retained_image_bytes`]). Drop the workspace — or
//! scope one per campaign, as the engine pool does — to release
//! everything.

use ftcg_abft::tmr::ReplicaFlip;
use ftcg_abft::XRef;
use ftcg_checkpoint::SnapshotSlot;
use ftcg_fault::FaultEvent;
use ftcg_sparse::{CsrMatrix, Flips, RowOrder};

use crate::CgMachine;

/// Reusable per-worker solve memory (see the module docs). Create one
/// per worker thread and pass it to
/// [`solve_resilient_in`](crate::resilient::solve_resilient_in) for
/// every repetition it executes.
pub struct SolverWorkspace {
    pub(crate) machine: CgMachine,
    /// The words of the live matrix that differ from the solve's `a0`
    /// (the executor's overlay keeps them here).
    pub(crate) flips: Flips,
    /// Row visit order of the defensive product, rebuilt from the
    /// caller's pristine matrix at every reset (reliable metadata,
    /// like the checksums: never a fault target).
    pub(crate) order: RowOrder,
    /// Rolling verified checkpoint (one retained buffer, allocation-free).
    pub(crate) slot: SnapshotSlot,
    /// Trusted copy of the direction vector, re-captured per iteration.
    pub(crate) xref: XRef,
    /// Product-output faults deferred onto the verified product.
    pub(crate) q_faults: Vec<FaultEvent>,
    /// `r`/`x` faults struck into one TMR replica (ABFT schemes).
    pub(crate) tmr_flips: Vec<ReplicaFlip>,
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
            flips: Flips::new(),
            order: RowOrder::new(),
            slot: SnapshotSlot::new(),
            xref: XRef::empty(),
            q_faults: Vec::new(),
            tmr_flips: Vec::new(),
        }
    }

    /// Bytes of matrix images kept reserved between solves: only the
    /// empty row pointer (4 B) of the `0 × 0` matrix in the checkpoint
    /// slot's one buffer, which holds vectors only. The live matrix is
    /// the caller's `a0` plus a flip list, never an image of its own.
    pub fn retained_image_bytes(&self) -> usize {
        self.slot.retained_matrix_bytes()
    }

    /// Bytes the row visit order keeps reserved: 4 per row of the
    /// largest matrix seen, shared by every shape.
    pub fn retained_order_bytes(&self) -> usize {
        self.order.capacity_bytes()
    }

    /// Resets the workspace for one resilient solve of `a0·x = b`: the
    /// machine to the zero-start state of `b` (bit-identical to a fresh
    /// [`CgMachine::start_zero`]) and the row visit order to `a0`'s. The
    /// executor's prologue calls this before it borrows the fields; its
    /// overlay over `a0` clears the flips.
    pub(crate) fn reset(&mut self, a0: &CsrMatrix, b: &[f64]) {
        self.machine.reset_zero(b);
        self.order.rebuild(a0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::{
        solve_resilient, solve_resilient_in, ResilientConfig, ResilientOutcome,
    };
    use ftcg_fault::paper_injector;
    use ftcg_model::Scheme;
    use ftcg_sparse::{gen, CsrOverlay, CsrWord, CsrWords};

    /// What a solve's outcome pins: the protocol counts and the iterate,
    /// bit for bit.
    fn fingerprint(out: &ResilientOutcome) -> (usize, usize, usize, usize, u64, Vec<u64>) {
        (
            out.executed_iterations,
            out.rollbacks,
            out.forward_corrections,
            out.detections,
            out.simulated_time.to_bits(),
            out.x.iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// One solve of `a` under injection through `ws` and one through
    /// fresh buffers, with the same fault stream: their fingerprints.
    fn reused_and_fresh(
        a: &CsrMatrix,
        scheme: Scheme,
        ws: &mut SolverWorkspace,
    ) -> [(usize, usize, usize, usize, u64, Vec<u64>); 2] {
        let b: Vec<f64> = (0..a.n_rows())
            .map(|i| 1.0 + (i as f64 * 0.3).sin())
            .collect();
        let mut cfg = ResilientConfig::new(scheme, 3);
        cfg.max_executed_iters = 300;
        let mut inj = paper_injector(a, 0.25, 17);
        let reused = solve_resilient_in(a, &b, &cfg, Some(&mut inj), ws);
        let mut inj = paper_injector(a, 0.25, 17);
        let fresh = solve_resilient(a, &b, &cfg, Some(&mut inj));
        [fingerprint(&reused), fingerprint(&fresh)]
    }

    #[test]
    fn checkout_resets_bit_identically_to_start_zero() {
        let a = gen::random_spd(40, 0.08, 11).unwrap();
        let b: Vec<f64> = (0..40).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let b2: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut ws = SolverWorkspace::new();
        // Dirty the retained machine with a different rhs first.
        ws.reset(&a, &b2);
        ws.reset(&a, &b);
        let m = &ws.machine;
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
        // No matrix words: the slot's one buffer holds the empty row
        // pointer of a `0 × 0` matrix, 4 bytes.
        assert_eq!(ws.retained_image_bytes(), 4);
    }

    #[test]
    fn one_machine_serves_every_size() {
        let a1 = gen::tridiagonal(20, 4.0, -1.0).unwrap();
        let a2 = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let b1 = vec![1.0; 20];
        let b2 = vec![1.0; 30];
        let mut ws = SolverWorkspace::new();
        ws.reset(&a2, &b2);
        let p0 = ws.machine.p.as_ptr();
        ws.reset(&a1, &b1);
        assert_eq!(ws.machine.vectors().map(<[f64]>::len), [20; 4]);
        assert_eq!(
            ws.machine.p.as_ptr(),
            p0,
            "the smaller size reuses the buffer"
        );
        ws.reset(&a2, &b2);
        assert_eq!(ws.machine.vectors().map(<[f64]>::len), [30; 4]);
        assert_eq!(ws.machine.p.as_ptr(), p0, "the larger size regrows nothing");

        // Neither shape sizes a matrix image.
        assert_eq!(ws.retained_image_bytes(), 4);
    }

    /// A checkout hands the next solve `a0` itself, bit for bit, however
    /// many flips the list still held.
    #[test]
    fn checkout_copies_the_image_bit_exactly() {
        let a = gen::random_spd(40, 0.08, 3).unwrap();
        let mut ws = SolverWorkspace::new();
        // Flips an earlier solve (or a panic) left in the list.
        let mut stale = CsrOverlay::new(&a, &mut ws.flips);
        stale.write(CsrWord::Val(4), f64::NAN.to_bits());
        stale.write(CsrWord::Rowidx(9), u64::from(u32::MAX));
        assert!(!ws.flips.is_empty());
        for scheme in [
            Scheme::AbftDetection,
            Scheme::AbftCorrection,
            Scheme::OnlineDetection,
        ] {
            let [reused, fresh] = reused_and_fresh(&a, scheme, &mut ws);
            assert_eq!(reused, fresh, "{scheme:?}");
        }
    }

    /// Solves of one shape under injection keep one short flip list —
    /// the live matrix's only storage — and reuse it; no image is sized.
    #[test]
    fn same_shape_reuses_the_image_buffer() {
        let a = gen::tridiagonal(30, 4.0, -1.0).unwrap();
        let mut ws = SolverWorkspace::new();
        let solve_all = |ws: &mut SolverWorkspace| {
            for scheme in [
                Scheme::AbftDetection,
                Scheme::AbftCorrection,
                Scheme::OnlineDetection,
            ] {
                let [reused, fresh] = reused_and_fresh(&a, scheme, ws);
                assert_eq!(reused, fresh, "{scheme:?}");
            }
        };
        solve_all(&mut ws);
        let flip_bytes = ws.flips.capacity_bytes();
        assert!(flip_bytes > 0, "the storm strikes matrix words");
        assert!(
            flip_bytes < a.image_bytes(),
            "{flip_bytes} B of flips against a {} B image",
            a.image_bytes()
        );
        solve_all(&mut ws);
        assert_eq!(ws.flips.capacity_bytes(), flip_bytes, "the list is reused");
        assert_eq!(ws.retained_image_bytes(), 4);
    }

    /// Shapes share the workspace's buffers at their high-water mark,
    /// and none of them sizes a matrix image.
    #[test]
    fn distinct_shapes_share_one_image_at_the_high_water_mark() {
        let small = gen::tridiagonal(20, 4.0, -1.0).unwrap();
        let large = gen::tridiagonal(25, 4.0, -1.0).unwrap();
        let (bs, bl) = (vec![1.0; 20], vec![1.0; 25]);
        let mut ws = SolverWorkspace::new();
        for _ in 0..2 {
            ws.reset(&large, &bl);
            ws.reset(&small, &bs);
        }
        assert_eq!(ws.retained_image_bytes(), 4);
        assert_eq!(ws.retained_order_bytes(), 4 * 25);
    }

    #[test]
    fn same_shape_different_pattern_still_copies_exactly() {
        // Equal (n, nnz), different sparsity patterns: each solve must
        // read its own `a0` (pattern included), whatever the flips of
        // the solve before touched.
        let a = gen::random_spd(50, 0.08, 21).unwrap();
        let mut rowptr = a.rowptr().to_vec();
        // Move one entry from row 1 to row 0 (a different pattern with
        // the same n and nnz, column order kept within each row).
        rowptr[1] += 1;
        let b =
            CsrMatrix::from_parts_unchecked(50, 50, rowptr, a.colid().to_vec(), a.val().to_vec());
        assert_eq!(a.nnz(), b.nnz());
        assert_ne!(a.rowptr(), b.rowptr());
        let mut ws = SolverWorkspace::new();
        for m in [&a, &b, &a] {
            let [reused, fresh] = reused_and_fresh(m, Scheme::AbftCorrection, &mut ws);
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn checkpoint_holds_no_matrix_words() {
        let a = gen::random_spd(60, 0.1, 5).unwrap();
        let b: Vec<f64> = (0..60).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let mut ws = SolverWorkspace::new();
        let cfg = ResilientConfig::new(Scheme::AbftCorrection, 3);
        let out = solve_resilient_in(&a, &b, &cfg, None, &mut ws);
        assert!(out.converged && out.checkpoints > 0);
        // A checkpoint's matrix is `a0`: it keeps vectors only.
        let ckpt = ws.slot.latest().expect("checkpoints were taken");
        assert_eq!(ckpt.n(), 60);
        assert_eq!(ckpt.size_words(), 3 * 60 + 1 + 2);
        assert_eq!(ws.slot.retained_matrix_bytes(), 4);
        // No live image either, and no flip in a fault-free solve.
        assert_eq!(ws.retained_image_bytes(), 4);
        assert_eq!(ws.flips.capacity_bytes(), 0);
    }
}
