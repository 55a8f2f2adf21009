//! The [`ActiveRecorder`]: a per-worker, pre-allocated recorder.
//!
//! One recorder lives in each worker's job workspace. All storage —
//! per-phase wall times, per-phase histograms (whose counts are the
//! phases' call counts), the bounded event ring —
//! is allocated at construction; recording is array arithmetic and a
//! capacity-guarded `Vec::push`, so the allocation gate
//! (`crates/solvers/tests/alloc_gate.rs`) passes with recording on.
//! Between jobs the campaign layer calls [`drain`](ActiveRecorder::drain)
//! (which *does* allocate, outside the solve) and gets back a
//! [`JobTelemetry`] snapshot keyed by job index.

use crate::event::Event;
use crate::hist::DurationHist;
use crate::recorder::{Phase, Recorder, Stamp};

/// Default event-ring capacity. Fixed (not tunable per run) so the
/// drop boundary — and therefore the drained trace — is deterministic
/// for a given campaign no matter how it is executed.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One job's wall-clock execution window, relative to the run's start.
///
/// Spans are *not* recorded by the solve hot path — the campaign layer
/// stamps them around the whole job after draining the recorder — and
/// they ride the non-deterministic metrics sidecar only (never the
/// trace), so the determinism contract is untouched. They exist so the
/// Perfetto export can reconstruct per-worker timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpan {
    /// Worker-thread ordinal that executed the job (0-based).
    pub worker: u64,
    /// Nanoseconds from run start to job start.
    pub start_ns: u64,
    /// Nanoseconds from run start to job completion.
    pub end_ns: u64,
}

/// Everything one job recorded, drained out of the worker's recorder
/// after the solve completes.
#[derive(Debug, Clone)]
pub struct JobTelemetry {
    /// The global job index (configuration-major: `config * reps + rep`).
    pub job: usize,
    /// The drained event ring, in emission order. The position of an
    /// event in this vector is its `seq` key in the trace.
    pub events: Vec<Event>,
    /// Events the bounded ring had to drop (excess over capacity).
    pub dropped: u64,
    /// Per-phase accumulated wall time, indexed by [`Phase::index`].
    pub phase_ns: [u64; Phase::COUNT],
    /// Per-phase duration histograms, indexed by [`Phase::index`]; a
    /// histogram's [`count`](DurationHist::count) is the phase's number
    /// of calls.
    pub hist: [DurationHist; Phase::COUNT],
    /// Wall-clock execution window, stamped by the campaign layer
    /// after the drain (never by the recorder itself). `None` for
    /// drains that never pass through a campaign run.
    pub span: Option<JobSpan>,
}

/// A pre-allocated per-worker recorder (see the module docs).
#[derive(Debug, Clone)]
pub struct ActiveRecorder {
    phase_ns: [u64; Phase::COUNT],
    hist: [DurationHist; Phase::COUNT],
    ring: Vec<Event>,
    dropped: u64,
}

impl Default for ActiveRecorder {
    fn default() -> Self {
        ActiveRecorder::new()
    }
}

impl ActiveRecorder {
    /// A recorder with the default ring capacity.
    pub fn new() -> ActiveRecorder {
        ActiveRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recorder with a custom ring capacity (minimum 2: one slot is
    /// reserved for the final [`finish_job`](Self::finish_job) event so
    /// a job's trace block always ends with `job_finish` even when the
    /// ring overflowed).
    pub(crate) fn with_capacity(capacity: usize) -> ActiveRecorder {
        ActiveRecorder {
            phase_ns: [0; Phase::COUNT],
            hist: [DurationHist::new(); Phase::COUNT],
            ring: Vec::with_capacity(capacity.max(2)),
            dropped: 0,
        }
    }

    /// Clears all recorded state, keeping the ring's allocation.
    pub fn reset(&mut self) {
        self.phase_ns = [0; Phase::COUNT];
        self.hist = [DurationHist::new(); Phase::COUNT];
        self.ring.clear();
        self.dropped = 0;
    }

    /// Events the ring has dropped since the last reset.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Emits the terminal `job_finish` event into the reserved last
    /// ring slot — it is recorded even when normal events overflowed,
    /// so every complete trace block ends with `job_finish`.
    pub fn finish_job(&mut self, executed: u64, productive: u64, converged: bool) {
        let ev = Event::job_finish(executed, productive, converged, self.dropped);
        debug_assert!(self.ring.len() < self.ring.capacity());
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(ev);
        }
    }

    /// The duration histogram for one phase.
    pub fn histogram(&self, phase: Phase) -> &DurationHist {
        &self.hist[phase.index()]
    }

    /// Snapshots everything recorded for `job` and resets the recorder
    /// for the next one. Allocates (the event copy) — call it between
    /// jobs, never inside a solve.
    pub fn drain(&mut self, job: usize) -> JobTelemetry {
        let out = JobTelemetry {
            job,
            events: self.ring.clone(),
            dropped: self.dropped,
            phase_ns: self.phase_ns,
            hist: self.hist,
            span: None,
        };
        self.reset();
        out
    }
}

impl Recorder for ActiveRecorder {
    #[inline]
    fn start(&self) -> Stamp {
        Stamp::now()
    }

    #[inline]
    fn phase(&mut self, phase: Phase, since: Stamp) {
        let ns = since.elapsed_ns();
        let i = phase.index();
        self.phase_ns[i] += ns;
        self.hist[i].record(ns);
    }

    #[inline]
    fn event(&mut self, event: Event) {
        // Keep one slot in reserve for the terminal job_finish event.
        if self.ring.len() + 1 < self.ring.capacity() {
            self.ring.push(event);
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn records_phases_and_events() {
        let mut rec = ActiveRecorder::new();
        let t = rec.start();
        rec.phase(Phase::Step, t);
        rec.event(Event::job_start());
        rec.event(Event::rollback(5, 2));
        rec.finish_job(10, 8, true);
        assert_eq!(rec.histogram(Phase::Step).count(), 1);
        let tele = rec.drain(3);
        assert_eq!(tele.job, 3);
        assert_eq!(tele.events.len(), 3);
        assert_eq!(tele.events[2].kind, EventKind::JobFinish);
        assert_eq!(tele.events[1].kind, EventKind::Rollback);
        assert_eq!(tele.hist[Phase::Step.index()].count(), 1);
        // Drained: the recorder is clean for the next job.
        assert_eq!(rec.dropped(), 0);
        let empty = rec.drain(4);
        assert!(empty.events.is_empty());
        assert!(empty.hist.iter().all(DurationHist::is_empty));
    }

    #[test]
    fn ring_overflow_drops_but_counts_and_keeps_finish_slot() {
        let mut rec = ActiveRecorder::with_capacity(4);
        for i in 0..10 {
            rec.event(Event::detect(i, 0));
        }
        assert_eq!(rec.dropped(), 7); // capacity 4, one slot reserved
        rec.finish_job(10, 10, false);
        let tele = rec.drain(0);
        assert_eq!(tele.events.len(), 4);
        assert_eq!(tele.events.last().unwrap().kind, EventKind::JobFinish);
        assert_eq!(
            tele.events.last().unwrap().c,
            7,
            "dropped count rides job_finish"
        );
        let kept = tele.events.iter().filter(|e| e.kind == EventKind::Detect);
        assert_eq!(kept.count() as u64 + tele.dropped, 10);
    }

    #[test]
    fn recording_never_allocates_after_construction() {
        // Belt-and-braces local check (the authoritative gate is the
        // counting global allocator in ftcg-solvers): the ring pointer
        // must not move however much is recorded.
        let mut rec = ActiveRecorder::with_capacity(64);
        let before = rec.ring.as_ptr();
        for i in 0..1000 {
            let t = rec.start();
            rec.phase(Phase::Product, t);
            rec.event(Event::fault(i, 0, 0, 1));
        }
        rec.finish_job(1000, 1000, true);
        assert_eq!(rec.ring.as_ptr(), before);
        rec.reset();
        assert_eq!(rec.ring.as_ptr(), before);
    }
}
