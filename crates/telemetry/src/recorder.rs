//! The [`Recorder`] contract: how the hot path reports phases and
//! events without paying for observability it did not ask for.
#![expect(
    clippy::disallowed_methods,
    reason = "Stamp: phase timing for the metrics sidecar only"
)]

use std::time::Instant;

use crate::event::Event;

/// A timed phase of the resilient solve loop.
///
/// Phases are *nested* in the obvious way — [`Phase::Step`] covers the
/// whole solver step including the products it runs, so `Step` time is
/// a superset of `Product` + `ProductCheck` time. The report layer
/// keeps them side by side rather than subtracting, because the
/// inclusive numbers are what the paper's cost model prices
/// (`Titer`, `Tverif`, `Tcp`, `Trec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One solver-machine step (inclusive of its products and checks).
    Step,
    /// One forward sparse matrix–vector product.
    Product,
    /// One checksum verification of a forward product (ABFT schemes).
    ProductCheck,
    /// One chunk-boundary state verification.
    ChunkVerify,
    /// One checkpoint save+commit.
    Checkpoint,
    /// One rollback restore (escalation included).
    Rollback,
    /// One TMR majority vote over the hardened vectors (the flips their
    /// replicas took this iteration).
    TmrVote,
}

impl Phase {
    /// Number of phases (array dimension for per-phase accumulators).
    pub const COUNT: usize = 7;

    /// Every phase, in canonical (rendering) order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Step,
        Phase::Product,
        Phase::ProductCheck,
        Phase::ChunkVerify,
        Phase::Checkpoint,
        Phase::Rollback,
        Phase::TmrVote,
    ];

    /// Stable dense index, `0..COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Step => 0,
            Phase::Product => 1,
            Phase::ProductCheck => 2,
            Phase::ChunkVerify => 3,
            Phase::Checkpoint => 4,
            Phase::Rollback => 5,
            Phase::TmrVote => 6,
        }
    }

    /// Stable snake_case name used in every serialized artifact.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Step => "step",
            Phase::Product => "product",
            Phase::ProductCheck => "product_check",
            Phase::ChunkVerify => "chunk_verify",
            Phase::Checkpoint => "checkpoint",
            Phase::Rollback => "rollback",
            Phase::TmrVote => "tmr_vote",
        }
    }
}

/// An opaque phase-start token returned by [`Recorder::start`].
///
/// The noop recorder hands back an empty stamp without reading the
/// clock, so an un-instrumented solve never executes a timer syscall.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Option<Instant>);

impl Stamp {
    /// A stamp that carries no clock reading (what [`NoopRecorder`]
    /// returns; elapsed time reads as zero).
    #[inline]
    pub(crate) fn empty() -> Stamp {
        Stamp(None)
    }

    /// A stamp taken now.
    #[inline]
    pub fn now() -> Stamp {
        Stamp(Some(Instant::now()))
    }

    /// Nanoseconds since the stamp was taken (0 for an empty stamp;
    /// saturates at `u64::MAX`).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        match self.0 {
            Some(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }
}

/// The observability contract the resilient executor records through.
///
/// The executor is generic over `R: Recorder` and monomorphized per
/// recorder, so the default no-op methods compile to nothing — the
/// un-instrumented solve is *bit- and instruction-identical* to the
/// pre-telemetry code, which is what the `telemetry` bench suite measures.
///
/// # Contract
///
/// * **No allocation after construction.** `phase` and `event` are
///   called from the solve hot path, which is covered by a counting
///   global-allocator gate (`crates/solvers/tests/alloc_gate.rs`). An
///   implementation must pre-allocate everything (fixed arrays, a
///   bounded ring) and drop events on overflow rather than grow.
/// * **No ordering guarantees across workers.** Recorders are
///   per-worker; nothing orders calls on one recorder against calls on
///   another, and merged output must not depend on inter-worker timing.
///   Determinism is recovered by keying drained events on (job index,
///   sequence) and folding in index order, never completion order.
/// * **Events must be wall-clock-free.** [`Event`] payloads carry
///   iteration counts and protocol facts only; timings go through
///   [`phase`](Recorder::phase) into the non-deterministic sidecar.
///   This is what keeps traces byte-diffable across machines and runs.
/// * **The recorder never influences control flow.** The executor's
///   decisions are taken before (or regardless of) any recorder call,
///   so instrumented and un-instrumented solves produce identical
///   outcomes.
pub trait Recorder {
    /// Marks the start of a timed phase. The default returns an empty
    /// stamp without touching the clock.
    #[inline]
    fn start(&self) -> Stamp {
        Stamp::empty()
    }

    /// Records a completed phase that began at `since`.
    #[inline]
    fn phase(&mut self, _phase: Phase, _since: Stamp) {}

    /// Records a structured protocol event.
    #[inline]
    fn event(&mut self, _event: Event) {}
}

/// The zero-cost default recorder: every method is an inline no-op and
/// [`start`](Recorder::start) never reads the clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_match_all_order() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: std::collections::BTreeSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::COUNT, "phase names must be unique");
    }

    #[test]
    fn empty_stamp_reads_zero() {
        assert_eq!(Stamp::empty().elapsed_ns(), 0);
    }

    #[test]
    fn live_stamp_advances() {
        let s = Stamp::now();
        std::hint::black_box((0..1000).sum::<u64>());
        // Monotonic clocks can legally read the same tick twice, but
        // elapsed must never go backwards.
        let a = s.elapsed_ns();
        let b = s.elapsed_ns();
        assert!(b >= a);
    }
}
