//! Fault ledger: the ground-truth record of injected faults, used by the
//! experiment harness to score detection/correction outcomes.

use crate::injector::FaultEvent;

/// One recorded injection with its iteration number and the scheme's
/// eventual handling of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Global iteration index at which the fault was injected.
    pub(crate) iteration: usize,
    /// The injected event.
    pub event: FaultEvent,
    /// How the scheme handled it (filled in post hoc).
    pub(crate) outcome: FaultOutcome,
}

/// The resolution of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Not yet classified.
    Pending,
    /// Detected and corrected in place (forward recovery).
    Corrected,
    /// Detected; execution rolled back to a checkpoint.
    RolledBack,
    /// Never detected. The resilient executor's end-of-run sweep marks
    /// every fault still pending when the solve ends this way, so the
    /// variant holds harmless faults (masked below the floating-point
    /// tolerance, or overwritten before they were read) and faults that
    /// silently corrupted the result alike; telling them apart needs a
    /// fault-outcome oracle, which nothing here provides yet.
    Undetected,
}

/// Ground-truth record of all injected faults in one run.
#[derive(Debug, Clone, Default)]
pub struct FaultLedger {
    records: Vec<FaultRecord>,
}

/// Aggregated counts over a ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Total injected faults.
    pub total: usize,
    /// Faults corrected forward.
    pub corrected: usize,
    /// Faults resolved by rollback.
    pub rolled_back: usize,
    /// Faults never detected: whatever was still pending at the end of
    /// the run, harmless or not (see [`FaultOutcome::Undetected`]).
    pub undetected: usize,
    /// Faults still pending classification.
    pub pending: usize,
}

impl FaultLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an injection (outcome starts [`FaultOutcome::Pending`]).
    pub fn record(&mut self, iteration: usize, event: FaultEvent) {
        self.records.push(FaultRecord {
            iteration,
            event,
            outcome: FaultOutcome::Pending,
        });
    }

    /// Number of recorded faults.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff no fault was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Classifies pending faults at `iteration` whose record satisfies the
    /// predicate (e.g. only vector faults handled by TMR, or only matrix
    /// faults handled by ABFT).
    pub fn resolve_iteration_where<F: Fn(&FaultRecord) -> bool>(
        &mut self,
        iteration: usize,
        outcome: FaultOutcome,
        pred: F,
    ) {
        for r in &mut self.records {
            if r.iteration == iteration && r.outcome == FaultOutcome::Pending && pred(r) {
                r.outcome = outcome;
            }
        }
    }

    /// Classifies every remaining pending fault (end-of-run sweep: what
    /// was never detected is, by definition, undetected).
    pub fn resolve_all_pending(&mut self, outcome: FaultOutcome) {
        for r in &mut self.records {
            if r.outcome == FaultOutcome::Pending {
                r.outcome = outcome;
            }
        }
    }

    /// Aggregates the ledger.
    pub fn summary(&self) -> LedgerSummary {
        let mut s = LedgerSummary {
            total: self.records.len(),
            ..Default::default()
        };
        for r in &self.records {
            match r.outcome {
                FaultOutcome::Pending => s.pending += 1,
                FaultOutcome::Corrected => s.corrected += 1,
                FaultOutcome::RolledBack => s.rolled_back += 1,
                FaultOutcome::Undetected => s.undetected += 1,
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{FaultTarget, VectorId};

    fn ev(target: FaultTarget) -> FaultEvent {
        FaultEvent {
            target,
            offset: 0,
            bit: 0,
        }
    }

    #[test]
    fn empty_ledger() {
        let l = FaultLedger::new();
        assert!(l.is_empty());
        assert_eq!(l.summary().total, 0);
    }

    #[test]
    fn record_and_summarize() {
        let mut l = FaultLedger::new();
        l.record(0, ev(FaultTarget::MatrixVal));
        l.record(0, ev(FaultTarget::MatrixVal));
        l.record(3, ev(FaultTarget::Vector(VectorId::X)));
        assert_eq!(l.len(), 3);
        let s = l.summary();
        assert_eq!(s.total, 3);
        assert_eq!(s.pending, 3);
    }

    #[test]
    fn resolve_iteration_targets_only_that_iteration() {
        let mut l = FaultLedger::new();
        l.record(1, ev(FaultTarget::MatrixVal));
        l.record(2, ev(FaultTarget::MatrixVal));
        l.resolve_iteration_where(1, FaultOutcome::Corrected, |_| true);
        let s = l.summary();
        assert_eq!(s.corrected, 1);
        assert_eq!(s.pending, 1);
    }

    #[test]
    fn resolve_does_not_overwrite() {
        let mut l = FaultLedger::new();
        l.record(0, ev(FaultTarget::MatrixVal));
        l.resolve_iteration_where(0, FaultOutcome::Corrected, |_| true);
        l.resolve_iteration_where(0, FaultOutcome::RolledBack, |_| true);
        assert_eq!(l.summary().corrected, 1);
        assert_eq!(l.summary().rolled_back, 0);
    }
}
