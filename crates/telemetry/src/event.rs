//! Structured, wall-clock-free protocol events.
//!
//! An [`Event`] is a fixed-size record of one protocol fact — a fault
//! landed, a detection fired, a checkpoint committed — keyed by the
//! *executed-iteration* count at which it happened. Payloads are plain
//! integers (target codes, bit positions, iteration numbers) chosen so
//! that the drained trace of a job depends only on `(configuration,
//! seed)`: two runs of the same campaign produce byte-identical traces
//! no matter the thread count, shard split, or wall-clock speed.

/// The kind of protocol fact an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A job began executing (emitted by the campaign layer).
    JobStart,
    /// A fault was injected (`a` = target code, `b` = element offset,
    /// `c` = flipped bit).
    Fault,
    /// A verification detected corruption (`a` = detector code, see
    /// [`via`]).
    Detect,
    /// An ABFT forward correction repaired state in place (`b` = number
    /// of elements repaired, always 1).
    CorrectForward,
    /// A TMR majority vote out-voted corrupt replicas (`b` = number of
    /// elements repaired).
    CorrectTmr,
    /// A chunk-boundary verification ran (`a` = 1 if the state was
    /// accepted). Only emitted when the verification is priced
    /// (ONLINE-DETECTION) or when it fails — the ABFT schemes' free
    /// per-iteration no-op checks would bloat the trace.
    ChunkVerify,
    /// A checkpoint committed (`a` = productive iteration saved).
    Checkpoint,
    /// A rollback restored verified state (`a` = productive iteration
    /// restored to).
    Rollback,
    /// A rollback escalated to the pristine initial data.
    Escalate,
    /// Convergence was accepted at a verified chunk boundary (`a` =
    /// productive iterations).
    Converged,
    /// The job finished (`it` = executed iterations, `a` = productive
    /// iterations, `b` = 1 if converged, `c` = events dropped by the
    /// ring before this one).
    JobFinish,
}

impl EventKind {
    /// Number of kinds (array dimension for per-kind counters).
    pub const COUNT: usize = 11;

    /// Every kind, in canonical order.
    pub(crate) const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::JobStart,
        EventKind::Fault,
        EventKind::Detect,
        EventKind::CorrectForward,
        EventKind::CorrectTmr,
        EventKind::ChunkVerify,
        EventKind::Checkpoint,
        EventKind::Rollback,
        EventKind::Escalate,
        EventKind::Converged,
        EventKind::JobFinish,
    ];

    /// Stable dense index, `0..COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            EventKind::JobStart => 0,
            EventKind::Fault => 1,
            EventKind::Detect => 2,
            EventKind::CorrectForward => 3,
            EventKind::CorrectTmr => 4,
            EventKind::ChunkVerify => 5,
            EventKind::Checkpoint => 6,
            EventKind::Rollback => 7,
            EventKind::Escalate => 8,
            EventKind::Converged => 9,
            EventKind::JobFinish => 10,
        }
    }

    /// Stable snake_case name used in the trace rendering.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::JobStart => "job_start",
            EventKind::Fault => "fault",
            EventKind::Detect => "detect",
            EventKind::CorrectForward => "correct_forward",
            EventKind::CorrectTmr => "correct_tmr",
            EventKind::ChunkVerify => "chunk_verify",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Rollback => "rollback",
            EventKind::Escalate => "escalate",
            EventKind::Converged => "converged",
            EventKind::JobFinish => "job_finish",
        }
    }
}

/// Detector codes carried in [`EventKind::Detect`]'s `a` payload.
pub mod via {
    /// A checksum product verification rejected the product.
    pub const PRODUCT: u64 = 0;
    /// A TMR vote found an unrecoverable replica collision.
    pub const TMR: u64 = 1;
    /// A chunk-boundary stability test tripped.
    pub const CHUNK: u64 = 2;
    /// The solver machine reported a numerical breakdown.
    pub const BREAKDOWN: u64 = 3;

    /// Stable name for a detector code.
    pub fn name(code: u64) -> &'static str {
        match code {
            PRODUCT => "product",
            TMR => "tmr",
            CHUNK => "chunk",
            BREAKDOWN => "breakdown",
            _ => "unknown",
        }
    }

    /// Code for a detector name (inverse of [`name`]).
    pub(crate) fn code(name: &str) -> Option<u64> {
        [PRODUCT, TMR, CHUNK, BREAKDOWN]
            .into_iter()
            .find(|&c| self::name(c) == name)
    }
}

/// Fault-target codes carried in [`EventKind::Fault`]'s `a` payload.
///
/// These mirror the injector's target model without depending on it:
/// the executor maps its `FaultTarget` onto these codes when emitting.
pub mod target {
    /// The matrix value array.
    pub const A_VALUES: u64 = 0;
    /// The matrix column-index array.
    pub const A_COL_IDX: u64 = 1;
    /// The matrix row-pointer array.
    pub const A_ROW_PTR: u64 = 2;
    /// The direction vector `p`.
    pub const P: u64 = 3;
    /// The product vector `q = A·p`.
    pub const Q: u64 = 4;
    /// The residual vector `r`.
    pub const R: u64 = 5;
    /// The iterate `x`.
    pub const X: u64 = 6;

    /// Stable name for a target code.
    pub fn name(code: u64) -> &'static str {
        match code {
            A_VALUES => "a_values",
            A_COL_IDX => "a_colidx",
            A_ROW_PTR => "a_rowptr",
            P => "p",
            Q => "q",
            R => "r",
            X => "x",
            _ => "unknown",
        }
    }

    /// Code for a target name (inverse of [`name`]).
    pub(crate) fn code(name: &str) -> Option<u64> {
        [A_VALUES, A_COL_IDX, A_ROW_PTR, P, Q, R, X]
            .into_iter()
            .find(|&c| self::name(c) == name)
    }
}

/// One fixed-size protocol event. `it` is always the executed-iteration
/// count at emission; `a`/`b`/`c` are kind-specific payloads documented
/// on [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Executed iterations at the time of the event.
    pub it: u64,
    /// First kind-specific payload.
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
    /// Third kind-specific payload.
    pub c: u64,
}

impl Event {
    fn new(kind: EventKind, it: u64, a: u64, b: u64, c: u64) -> Event {
        Event { kind, it, a, b, c }
    }

    /// A job began executing.
    pub fn job_start() -> Event {
        Event::new(EventKind::JobStart, 0, 0, 0, 0)
    }

    /// A fault struck `target` (a [`target`] code) at element `at`,
    /// flipping bit `bit`.
    pub fn fault(it: u64, target: u64, at: u64, bit: u64) -> Event {
        Event::new(EventKind::Fault, it, target, at, bit)
    }

    /// A detection fired via detector `via` (a [`via`] code).
    pub fn detect(it: u64, via: u64) -> Event {
        Event::new(EventKind::Detect, it, via, 0, 0)
    }

    /// An ABFT forward correction repaired one element in place.
    pub fn correct_forward(it: u64) -> Event {
        Event::new(EventKind::CorrectForward, it, 0, 1, 0)
    }

    /// A TMR vote repaired `n` elements.
    pub fn correct_tmr(it: u64, n: u64) -> Event {
        Event::new(EventKind::CorrectTmr, it, 0, n, 0)
    }

    /// A chunk verification ran; `ok` is whether the state passed.
    pub fn chunk_verify(it: u64, ok: bool) -> Event {
        Event::new(EventKind::ChunkVerify, it, ok as u64, 0, 0)
    }

    /// A checkpoint of productive iteration `at` committed.
    pub fn checkpoint(it: u64, at: u64) -> Event {
        Event::new(EventKind::Checkpoint, it, at, 0, 0)
    }

    /// A rollback restored productive iteration `to`.
    pub fn rollback(it: u64, to: u64) -> Event {
        Event::new(EventKind::Rollback, it, to, 0, 0)
    }

    /// A rollback escalated to the pristine initial data.
    pub fn escalate(it: u64) -> Event {
        Event::new(EventKind::Escalate, it, 0, 0, 0)
    }

    /// Convergence accepted at productive iteration `at`.
    pub fn converged(it: u64, at: u64) -> Event {
        Event::new(EventKind::Converged, it, at, 0, 0)
    }

    /// The job finished.
    pub fn job_finish(executed: u64, productive: u64, converged: bool, dropped: u64) -> Event {
        Event::new(
            EventKind::JobFinish,
            executed,
            productive,
            converged as u64,
            dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_indices_are_dense_and_match_all_order() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let names: std::collections::BTreeSet<_> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::COUNT);
    }

    #[test]
    fn code_name_roundtrip() {
        for c in 0..4u64 {
            assert_eq!(via::code(via::name(c)), Some(c));
        }
        for c in 0..7u64 {
            assert_eq!(target::code(target::name(c)), Some(c));
        }
        assert_eq!(via::code("nope"), None);
        assert_eq!(target::code("nope"), None);
    }
}
