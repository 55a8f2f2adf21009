//! The resilient executor.
//!
//! One loop implements the paper's protocol for the [`CgMachine`]
//! under each of the three schemes, which it reads from one
//! [`Protection`] value and matches only where they differ (see
//! [`super::scheme`]): work proceeds in chunks ending with a verification; after `s` verified
//! chunks a checkpoint is taken (so the last checkpoint is always
//! valid — claim C1); any detection rolls back to the last checkpoint
//! (or, in the first frame and when the escalation guard flags a
//! tainted checkpoint, to the input data `a0` and `b`). It reproduces
//! the historical per-scheme loops operation for operation.
//!
//! Per iteration:
//!
//! 1. this iteration's faults strike the unreliable region — the matrix
//!    arrays and the machine's vectors `p`, `q`, `r`, `x` (under the
//!    ABFT schemes `r`/`x` are TMR-held, so a fault there strikes one
//!    replica and is recorded as a [`ReplicaFlip`], and product-output
//!    faults are deferred onto the verified product's output);
//! 2. the solver steps once; its one product, the step's first act,
//!    runs *defensively* against the live matrix image and is checked
//!    by the scheme ([`Protection::check_product`] — checksum tests,
//!    forward correction);
//! 3. a rejected product or a numerical breakdown rolls back;
//! 4. under the ABFT schemes the iteration's replica flips are voted
//!    ([`vote_flips`]: collisions roll back, outvoted flips are counted
//!    as corrections);
//! 5. at chunk boundaries the scheme verifies the whole state
//!    ([`Protection::verify_chunk`]); convergence is only
//!    accepted behind a passing verification, and checkpoints are only
//!    taken behind one.
//!
//! ## Memory discipline
//!
//! The executor owns **no** solve-scoped heap state: the CG machine,
//! the corruptible matrix image and the retained buffers (checkpoint
//! slot, trusted input copy, the deferred product-output faults and
//! the iteration's replica flips) all come from the caller's
//! [`SolverWorkspace`](crate::SolverWorkspace). It keeps no copies for
//! the fault simulation's sake: the three TMR replicas of `r`/`x` agree
//! at the start of every iteration, so their vote is a function of the
//! flips injected since ([`vote_flips`]), and the first frame's
//! recovery point is the input itself — `a0` and the zero-start state
//! of `b` ([`CgMachine::reset_zero`]). A solve keeps **one**
//! matrix image beside the caller's pristine `a0`: the live one. `A`
//! never legitimately changes, so the matrix of every checkpoint is
//! `a0` itself — the reliable input, never a fault target — and a
//! checkpoint copies only the iteration vectors, O(n)
//! ([`CgMachine::snapshot_into`] into the
//! [`SnapshotSlot`](ftcg_checkpoint::SnapshotSlot)). Every rollback
//! restores the image in place from `a0` ([`CsrMatrix::copy_image_from`];
//! fault injection flips bits, it never changes array lengths), so a
//! matrix word that slipped under the checksum tolerance, or a
//! forward-corrected value that is only approximately right, never
//! survives one. A steady-state iteration — no checkpoint, no rollback,
//! no fault — performs zero heap allocations (pinned by the
//! counting-allocator gate in `tests/alloc_gate.rs`).

use ftcg_abft::tmr::{vote_flips, ReplicaFlip};
use ftcg_abft::XRef;
use ftcg_fault::bitflip::flip_f64;
use ftcg_fault::ledger::{FaultLedger, FaultOutcome};
use ftcg_fault::target::{FaultTarget, VectorId};
use ftcg_fault::{FaultEvent, Injector};
use ftcg_sparse::{fused, vector, CsrMatrix, RowOrder};
use ftcg_telemetry::event::{target as ev_target, via as ev_via};
use ftcg_telemetry::{Event, Phase, Recorder};

use super::scheme::{ProductCheck, Protection};
use super::{true_residual, EscalationGuard, ResilientConfig, ResilientOutcome, RunStats};
use crate::machine::{ProductStatus, StepContext, StepResult};
use crate::workspace::ExecArena;
use crate::CgMachine;

/// Maps the injector's fault target onto the telemetry trace's stable
/// target codes.
fn fault_code(target: &FaultTarget) -> u64 {
    match target {
        FaultTarget::MatrixVal => ev_target::A_VALUES,
        FaultTarget::MatrixColid => ev_target::A_COL_IDX,
        FaultTarget::MatrixRowidx => ev_target::A_ROW_PTR,
        FaultTarget::Vector(VectorId::P) => ev_target::P,
        FaultTarget::Vector(VectorId::Q) => ev_target::Q,
        FaultTarget::Vector(VectorId::R) => ev_target::R,
        FaultTarget::Vector(VectorId::X) => ev_target::X,
    }
}

/// The resilient [`StepContext`]: the step's one product runs the
/// defensive CSR traversal against the live (corruptible) matrix image,
/// rows visited in the workspace's [`RowOrder`], receives the deferred
/// product-output faults and is verified by the scheme against the
/// input reference captured before this iteration's faults struck.
struct ResilientCtx<'a, R: Recorder> {
    a: &'a mut CsrMatrix,
    /// Row visit order of `a0`; changes no output bit.
    order: &'a RowOrder,
    protection: &'a Protection,
    /// [`Protection::hardened`], cached once per solve.
    hardened: bool,
    /// Trusted input copy, captured before this iteration's faults
    /// (read by the ABFT schemes only).
    xref: &'a XRef,
    /// Set when a non-clean product check may have rewritten the matrix
    /// arrays (indices included) — ABFT-CORRECTION's repair attempt —
    /// so rollback must restore the full image, not just the values.
    /// Pure detection checks never mutate and leave the flag alone.
    structure_dirty: &'a mut bool,
    /// Product-output faults deferred onto the product.
    q_faults: &'a [FaultEvent],
    stats: &'a mut RunStats,
    ledger: &'a mut FaultLedger,
    rec: &'a mut R,
}

impl<R: Recorder> StepContext for ResilientCtx<'_, R> {
    fn product(&mut self, x: &mut [f64], y: &mut [f64]) -> ProductStatus {
        let t_prod = self.rec.start();
        if !self.hardened {
            self.a.spmv_clamped_ordered_into(self.order, x, y);
            self.rec.phase(Phase::Product, t_prod);
            return ProductStatus::Trusted; // ONLINE: unverified products
        }
        let mut probe = self.a.spmv_clamped_probe_ordered_into(self.order, x, y);
        self.rec.phase(Phase::Product, t_prod);
        let t_check = self.rec.start();
        // Faults in the product's computation/output strike here; they
        // rewrite `y` after the probe was accumulated, so it is taken
        // again from the bits the check must see.
        if !self.q_faults.is_empty() {
            for e in self.q_faults {
                y[e.offset] = flip_f64(y[e.offset], e.bit);
            }
            probe = fused::probe_of(y);
        }
        let check = self
            .protection
            .check_product(self.a, x, self.xref, y, &probe);
        self.rec.phase(Phase::ProductCheck, t_check);
        self.stats.product_checks += 1;
        if check != ProductCheck::Clean && self.protection.may_mutate() {
            *self.structure_dirty = true;
        }
        let it = self.stats.executed as u64;
        match check {
            ProductCheck::Clean => ProductStatus::Trusted,
            ProductCheck::FalseAlarm => {
                self.stats.detections += 1;
                self.rec.event(Event::detect(it, ev_via::PRODUCT));
                ProductStatus::Trusted
            }
            ProductCheck::Corrected => {
                self.stats.detections += 1;
                self.stats.forward_corrections += 1;
                self.rec.event(Event::detect(it, ev_via::PRODUCT));
                self.rec.event(Event::correct_forward(it));
                self.ledger.resolve_iteration_where(
                    self.stats.executed,
                    FaultOutcome::Corrected,
                    |rec| {
                        rec.event.target.is_matrix()
                            || matches!(
                                rec.event.target,
                                FaultTarget::Vector(VectorId::P | VectorId::Q)
                            )
                    },
                );
                ProductStatus::Trusted
            }
            ProductCheck::Rejected => {
                self.stats.detections += 1;
                self.rec.event(Event::detect(it, ev_via::PRODUCT));
                ProductStatus::Rejected
            }
        }
    }
}

/// The protocol loop's state. [`ExecutorMachine::new`] is the prologue,
/// `while active() { iterate() }` the loop and
/// [`ExecutorMachine::finish`] the epilogue; holding the state in one
/// struct lets an iteration leave early (`return` after a rollback or
/// the convergence claim) and keeps `rollback` a method.
struct ExecutorMachine<'a, R: Recorder> {
    a0: &'a CsrMatrix,
    b: &'a [f64],
    cfg: &'a ResilientConfig,
    injector: Option<&'a mut Injector>,
    protection: Protection,
    solver: &'a mut CgMachine,
    /// The live (corruptible) matrix image.
    a: &'a mut CsrMatrix,
    arena: &'a mut ExecArena,
    rec: &'a mut R,
    /// [`Protection::hardened`], cached once per solve.
    hardened: bool,
    /// Row visit order of `a0`, built by the workspace at checkout.
    order: &'a RowOrder,
    d: usize,
    threshold: f64,
    guard: EscalationGuard,
    /// Simulated time in `Titer` units.
    time: f64,
    stats: RunStats,
    ledger: FaultLedger,
    productive: usize,
    iters_in_chunk: usize,
    chunks_since_ckpt: usize,
    replica_rot: usize,
    converged: bool,
    /// `true` while the live image's *structure* (`colid`/`rowptr`) may
    /// differ from `a0`'s: set by index-array faults and by correction
    /// attempts, cleared only by a rollback. While clean, rollback takes
    /// the cheaper values-only restore ([`CsrMatrix::copy_values_from`];
    /// the debug-mode equality check after the restore verifies this
    /// very tracking on every test run).
    structure_dirty: bool,
}

impl<'a, R: Recorder> ExecutorMachine<'a, R> {
    /// Sets up the protocol state exactly as the historical executor
    /// prologue did, same operations in the same order.
    #[expect(
        clippy::too_many_arguments,
        reason = "the executor borrows each workspace buffer separately so the borrows stay disjoint"
    )]
    fn new(
        a0: &'a CsrMatrix,
        b: &'a [f64],
        cfg: &'a ResilientConfig,
        injector: Option<&'a mut Injector>,
        solver: &'a mut CgMachine,
        image: &'a mut CsrMatrix,
        arena: &'a mut ExecArena,
        order: &'a RowOrder,
        rec: &'a mut R,
    ) -> Self {
        let protection = Protection::new(cfg.scheme, a0);
        let hardened = protection.hardened();
        let d = protection.chunk_len(cfg.verif_interval);
        let threshold = cfg
            .stopping
            .threshold(a0, vector::norm2(b), solver.residual_norm());

        // No checkpoint yet (the slot may hold a previous solve's):
        // until one is taken, rollback re-reads the input data.
        arena.slot.clear();

        if hardened {
            arena.xref.store(&solver.p);
        }
        let converged = solver.residual_norm() <= threshold;
        ExecutorMachine {
            a0,
            b,
            cfg,
            injector,
            protection,
            solver,
            a: image,
            arena,
            rec,
            hardened,
            order,
            d,
            threshold,
            guard: EscalationGuard::default(),
            time: 0.0,
            stats: RunStats::default(),
            ledger: FaultLedger::new(),
            productive: 0,
            iters_in_chunk: 0,
            chunks_since_ckpt: 0,
            replica_rot: 0,
            converged,
            structure_dirty: false,
        }
    }

    /// `true` while the loop condition of the historical executor holds.
    fn active(&self) -> bool {
        !self.converged
            && self.productive < self.cfg.max_productive_iters
            && self.stats.executed < self.cfg.max_executed_iters
    }

    /// One executed iteration, phases 1–5 of the module docs.
    fn iterate(&mut self) {
        // 1. Count the iteration and let its faults strike the
        // unreliable region.
        self.stats.executed += 1;
        let events = self
            .injector
            .as_deref_mut()
            .map(|i| i.plan_iteration())
            .unwrap_or_default();
        for e in &events {
            self.ledger.record(self.stats.executed, *e);
            self.rec.event(Event::fault(
                self.stats.executed as u64,
                fault_code(&e.target),
                e.offset as u64,
                e.bit as u64,
            ));
        }
        self.guard.note_faults(events.len());
        self.arena.q_faults.clear();
        self.arena.tmr_flips.clear();
        for e in &events {
            match e.target {
                // Hardened (ABFT) `q` faults are deferred onto the
                // verified product; hardened `r`/`x` faults strike one
                // TMR replica, in rotation, and wait for the step's
                // vote (`x`'s words follow `r`'s in the flip list).
                FaultTarget::Vector(VectorId::Q) if self.hardened => {
                    self.arena.q_faults.push(*e);
                }
                FaultTarget::Vector(v @ (VectorId::R | VectorId::X)) if self.hardened => {
                    let base = if v == VectorId::X {
                        self.solver.r.len()
                    } else {
                        0
                    };
                    self.arena.tmr_flips.push(ReplicaFlip {
                        word: base + e.offset,
                        replica: self.replica_rot % 3,
                        bit: e.bit,
                    });
                    self.replica_rot += 1;
                }
                FaultTarget::Vector(id) => {
                    let v = match id {
                        VectorId::P => &mut self.solver.p,
                        VectorId::Q => &mut self.solver.q,
                        VectorId::R => &mut self.solver.r,
                        VectorId::X => &mut self.solver.x,
                    };
                    v[e.offset] = flip_f64(v[e.offset], e.bit);
                }
                _ => {
                    if matches!(
                        e.target,
                        FaultTarget::MatrixColid | FaultTarget::MatrixRowidx
                    ) {
                        self.structure_dirty = true;
                    }
                    Injector::apply_to_matrix(e, self.a);
                }
            }
        }
        // 2./3. One step, its product verified by the scheme. The
        // iteration is charged `1 + Tverif` under the ABFT schemes.
        let t_step = self.rec.start();
        let step = self.solver.step(&mut ResilientCtx {
            a: &mut *self.a,
            order: self.order,
            protection: &self.protection,
            hardened: self.hardened,
            xref: &self.arena.xref,
            structure_dirty: &mut self.structure_dirty,
            q_faults: &self.arena.q_faults,
            stats: &mut self.stats,
            ledger: &mut self.ledger,
            rec: &mut *self.rec,
        });
        self.rec.phase(Phase::Step, t_step);
        self.time += 1.0 + self.protection.iteration_cost(&self.cfg.costs);
        match step {
            StepResult::Done => {}
            StepResult::Rejected => {
                // Detection already counted by the context.
                self.rollback();
                return;
            }
            StepResult::Breakdown => {
                // Numerical breakdown caused by an undetected
                // perturbation: treat as detection and roll back.
                self.stats.detections += 1;
                self.rec
                    .event(Event::detect(self.stats.executed as u64, ev_via::BREAKDOWN));
                self.rollback();
                return;
            }
        }

        // 4. TMR vote on the vector data (ABFT schemes).
        if self.hardened {
            let t_vote = self.rec.start();
            let vote = vote_flips(&self.arena.tmr_flips);
            self.rec.phase(Phase::TmrVote, t_vote);
            if !vote.is_trusted() {
                // Colliding replica faults: detected, not correctable.
                self.stats.detections += 1;
                self.rec
                    .event(Event::detect(self.stats.executed as u64, ev_via::TMR));
                self.rollback();
                return;
            }
            let tmr_fixed = vote.corrected;
            if tmr_fixed > 0 {
                self.stats.tmr_corrections += tmr_fixed;
                self.rec.event(Event::correct_tmr(
                    self.stats.executed as u64,
                    tmr_fixed as u64,
                ));
                self.ledger.resolve_iteration_where(
                    self.stats.executed,
                    FaultOutcome::Corrected,
                    |rec| {
                        matches!(
                            rec.event.target,
                            FaultTarget::Vector(VectorId::R | VectorId::X)
                        )
                    },
                );
            }
        }

        self.productive += 1;
        self.iters_in_chunk += 1;
        let recursive_converged = self.solver.residual_norm() <= self.threshold;

        // 5. Chunk boundary (or convergence claim): verify, then accept
        // convergence / checkpoint strictly behind the verification.
        if self.iters_in_chunk >= self.d || recursive_converged {
            let chunk_cost = self.protection.chunk_cost(&self.cfg.costs);
            self.time += chunk_cost;
            self.stats.chunk_checks += 1;
            let t_verify = self.rec.start();
            let chunk_ok =
                self.protection
                    .verify_chunk(self.a, self.order, self.solver, &self.cfg.online_tol);
            self.rec.phase(Phase::ChunkVerify, t_verify);
            // Priced verifications (ONLINE) always leave a trace event;
            // the ABFT schemes' free per-iteration no-op checks only do
            // when they fail (they never should).
            if chunk_cost > 0.0 || !chunk_ok {
                self.rec
                    .event(Event::chunk_verify(self.stats.executed as u64, chunk_ok));
            }
            if !chunk_ok {
                self.stats.detections += 1;
                self.rec
                    .event(Event::detect(self.stats.executed as u64, ev_via::CHUNK));
                self.rollback();
                return;
            }
            self.iters_in_chunk = 0;
            if recursive_converged {
                self.converged = true;
                self.rec.event(Event::converged(
                    self.stats.executed as u64,
                    self.productive as u64,
                ));
                // `break` in the historical loop: the trailing xref
                // re-capture is skipped.
                return;
            }
            self.chunks_since_ckpt += 1;
            if self.chunks_since_ckpt >= self.cfg.checkpoint_interval {
                self.time += self.cfg.costs.tcp;
                let t_ckpt = self.rec.start();
                self.solver
                    .snapshot_into(self.productive, self.arena.slot.begin_save());
                self.arena.slot.commit();
                self.rec.phase(Phase::Checkpoint, t_ckpt);
                self.stats.checkpoints += 1;
                self.rec.event(Event::checkpoint(
                    self.stats.executed as u64,
                    self.productive as u64,
                ));
                self.guard.note_checkpoint();
                self.chunks_since_ckpt = 0;
            }
        }
        if self.hardened {
            self.arena.xref.store(&self.solver.p);
        }
    }

    /// Restores the pristine matrix and the latest checkpoint's vectors
    /// into the solver — or, in the first frame and when the escalation
    /// guard flags a tainted checkpoint, "reads initial data again": the
    /// zero-start state of `b`. All in place, no allocation.
    fn rollback(&mut self) {
        self.time += self.cfg.costs.trec;
        self.stats.rollbacks += 1;
        let t_rb = self.rec.start();
        if self.guard.must_escalate() {
            // Re-read input data: discard the tainted checkpoint.
            self.arena.slot.clear();
            self.guard.consecutive_rollbacks = 0;
            self.rec.event(Event::escalate(self.stats.executed as u64));
        }
        self.guard.note_restore();
        if self.structure_dirty {
            self.a.copy_image_from(self.a0);
        } else {
            self.a.copy_values_from(self.a0);
        }
        debug_assert!(*self.a == *self.a0);
        self.structure_dirty = false;
        match self.arena.slot.latest() {
            Some(st) => {
                self.solver.restore(st);
                self.productive = st.iteration;
            }
            None => {
                self.solver.reset_zero(self.b);
                self.productive = 0;
            }
        }
        self.iters_in_chunk = 0;
        self.chunks_since_ckpt = 0;
        self.ledger.resolve_all_pending(FaultOutcome::RolledBack);
        if self.hardened {
            self.arena.xref.store(&self.solver.p);
        }
        self.rec.phase(Phase::Rollback, t_rb);
        self.rec.event(Event::rollback(
            self.stats.executed as u64,
            self.productive as u64,
        ));
    }

    /// Resolves the ledger and assembles the outcome (the historical
    /// epilogue).
    fn finish(self) -> ResilientOutcome {
        let ExecutorMachine {
            a0,
            b,
            solver,
            mut ledger,
            stats,
            time,
            converged,
            productive,
            ..
        } = self;
        // Whatever is still pending was never detected.
        ledger.resolve_all_pending(FaultOutcome::Undetected);
        let xv = solver.x.clone();
        let tr = true_residual(a0, b, &xv);
        ResilientOutcome {
            converged,
            productive_iterations: productive,
            executed_iterations: stats.executed,
            simulated_time: time,
            checkpoints: stats.checkpoints,
            rollbacks: stats.rollbacks,
            forward_corrections: stats.forward_corrections,
            tmr_corrections: stats.tmr_corrections,
            detections: stats.detections,
            product_checks: stats.product_checks,
            chunk_checks: stats.chunk_checks,
            ledger,
            true_residual: tr,
            x: xv,
        }
    }
}

/// Runs the protocol for `cfg.scheme` over the machine.
///
/// `solver` must be in the zero-start state of `b`, `image`
/// must hold a bit-exact copy of `a0` (the corruptible working image),
/// `arena` provides the retained buffers and `order` the row visit
/// order of `a0` — all four come from
/// [`SolverWorkspace::checkout`](crate::SolverWorkspace).
#[expect(
    clippy::too_many_arguments,
    reason = "the executor borrows each workspace buffer separately so the borrows stay disjoint"
)]
pub(super) fn run_executor<R: Recorder>(
    a0: &CsrMatrix,
    b: &[f64],
    cfg: &ResilientConfig,
    injector: Option<&mut Injector>,
    solver: &mut CgMachine,
    image: &mut CsrMatrix,
    arena: &mut ExecArena,
    order: &RowOrder,
    rec: &mut R,
) -> ResilientOutcome {
    let mut m = ExecutorMachine::new(a0, b, cfg, injector, solver, image, arena, order, rec);
    while m.active() {
        m.iterate();
    }
    m.finish()
}
