//! The benchmark's own span recorder and the per-layer ledger folded
//! from it.
//!
//! The resilient executor reports its phases through the public
//! `ftcg_telemetry::Recorder` trait; [`SpanRecorder`] implements it
//! here, outside the program, and keeps every phase as a span (kind,
//! start, end). Spans arrive in completion order, so a parent is always
//! recorded after its children and containment gives the call tree: a
//! layer's *self* time is its span's duration minus what its children
//! cover. [`Ledger`] accumulates busy time, self time and calls per
//! kind; the kinds the harness times itself (whole solves, baseline
//! solves, checks) are added flat, so the self times of one traced
//! window sum to its wall and what is left over is the harness's own
//! residual.

use std::time::Instant;

use ftcg_telemetry::{Event, Phase, Recorder, Stamp};

use crate::metrics::Metrics;

/// Ledger rows beyond the executor's seven phases.
pub const K_EXECUTOR: usize = Phase::COUNT;
pub const K_UNPROTECTED: usize = Phase::COUNT + 1;
pub const K_CHECK: usize = Phase::COUNT + 2;
pub const K_FOLD: usize = Phase::COUNT + 3;
pub const K_ENGINE: usize = Phase::COUNT + 4;
pub const K_COUNT: usize = Phase::COUNT + 5;

/// Row label: the crate (layer) the time belongs to, then what it did.
pub fn kind_name(kind: usize) -> &'static str {
    const NAMES: [&str; K_COUNT] = [
        "solvers.step",
        "kernels.product",
        "abft.product_check",
        "solvers.chunk_verify",
        "checkpoint.save",
        "checkpoint.rollback",
        "abft.tmr_vote",
        "solvers.executor",
        "solvers.cg_unprotected",
        "bench.check",
        "bench.fold",
        "engine.run",
    ];
    NAMES[kind]
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A preallocated recorder that keeps every phase of one solve as a
/// span. Honours the `Recorder` contract: no allocation after
/// construction (a full buffer drops and counts), no influence on
/// control flow.
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans lost to a full buffer since construction.
    pub dropped: u64,
    /// Protocol events seen since construction (counted, not kept).
    pub events: u64,
}

impl SpanRecorder {
    pub fn with_capacity(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            events: 0,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span the harness timed itself (the root of one solve).
    pub fn push(&mut self, kind: usize, start_ns: u64, end_ns: u64) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                kind: kind as u32,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Folds the buffered spans into `ledger` and empties the buffer.
    pub fn drain_into(&mut self, ledger: &mut Ledger) {
        ledger.absorb(&self.spans);
        self.spans.clear();
    }
}

impl Recorder for SpanRecorder {
    #[inline]
    fn start(&self) -> Stamp {
        Stamp::now()
    }

    #[inline]
    fn phase(&mut self, phase: Phase, since: Stamp) {
        // The stamp is opaque, so the start is recovered as end − elapsed.
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(since.elapsed_ns());
        self.push(phase.index(), start_ns, end_ns);
    }

    #[inline]
    fn event(&mut self, _event: Event) {
        self.events += 1;
    }
}

/// Busy time, self time and calls per ledger row.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub busy_ns: [u64; K_COUNT],
    pub self_ns: [u64; K_COUNT],
    pub calls: [u64; K_COUNT],
    stack: Vec<(u64, u64)>,
}

/// A phase's start is recovered from two clock reads taken a few tens
/// of nanoseconds apart, and a step's first act is to start its
/// product, so a child can appear to start this much before its parent.
/// Misfiling a real sibling needs it to be shorter than this.
const START_SLOP_NS: u64 = 250;

impl Ledger {
    /// Folds spans listed in completion order. A span's children are
    /// the not-yet-claimed earlier spans that start inside it.
    fn absorb(&mut self, spans: &[Span]) {
        self.stack.clear();
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let mut children = 0u64;
            while let Some(&(start, d)) = self.stack.last() {
                if start + START_SLOP_NS < s.start_ns {
                    break;
                }
                children += d;
                self.stack.pop();
            }
            let k = s.kind as usize;
            self.busy_ns[k] += dur;
            self.self_ns[k] += dur.saturating_sub(children);
            self.calls[k] += 1;
            self.stack.push((s.start_ns, dur));
        }
    }

    /// Adds a childless span the harness timed itself.
    pub fn add_flat(&mut self, kind: usize, ns: u64) {
        self.busy_ns[kind] += ns;
        self.self_ns[kind] += ns;
        self.calls[kind] += 1;
    }

    /// Adds pre-aggregated busy/self/calls (the campaign sidecar path).
    pub fn add(&mut self, kind: usize, busy_ns: u64, self_ns: u64, calls: u64) {
        self.busy_ns[kind] += busy_ns;
        self.self_ns[kind] += self_ns;
        self.calls[kind] += calls;
    }

    pub fn total_self_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    pub fn busy_ms(&self, kind: usize) -> f64 {
        self.busy_ns[kind] as f64 / 1e6
    }

    pub fn self_ms(&self, kind: usize) -> f64 {
        self.self_ns[kind] as f64 / 1e6
    }

    /// The per-layer metrics every ledger gives, whether it was folded
    /// from spans or from a campaign's sidecar.
    pub fn set_metrics(&self, window_ns: u64, m: &mut Metrics) {
        let (busy, calls) = (
            |p: Phase| self.busy_ms(p.index()),
            |p: Phase| self.calls[p.index()] as f64,
        );
        m.set("kernels.product_busy_ms", busy(Phase::Product));
        m.set("kernels.product_calls", calls(Phase::Product));
        m.set("abft.product_check_busy_ms", busy(Phase::ProductCheck));
        m.set("abft.product_check_calls", calls(Phase::ProductCheck));
        m.set("abft.tmr_vote_busy_ms", busy(Phase::TmrVote));
        m.set("checkpoint.save_busy_ms", busy(Phase::Checkpoint));
        m.set("checkpoint.rollback_busy_ms", busy(Phase::Rollback));
        m.set("solvers.step_self_ms", self.self_ms(Phase::Step.index()));
        m.set("solvers.chunk_verify_busy_ms", busy(Phase::ChunkVerify));
        m.set("solvers.executor_self_ms", self.self_ms(K_EXECUTOR));
        m.set("bench.ledger_residual_pct", self.residual_pct(window_ns));
    }

    /// Share of `window_ns` no row accounts for, in percent.
    pub fn residual_pct(&self, window_ns: u64) -> f64 {
        100.0 * (window_ns as f64 - self.total_self_ns() as f64) / window_ns.max(1) as f64
    }

    /// Prints the rows that saw any time, as shares of `window_ns`.
    pub fn print(&self, window_ns: u64) {
        println!(
            "ledger: window {:.1} ms (self times; busy includes children)",
            window_ns as f64 / 1e6
        );
        for k in 0..K_COUNT {
            if self.calls[k] == 0 {
                continue;
            }
            println!(
                "ledger:   {:<24} self {:>10.2} ms {:>5.1}%  busy {:>10.2} ms  calls {}",
                kind_name(k),
                self.self_ms(k),
                100.0 * self.self_ns[k] as f64 / window_ns.max(1) as f64,
                self.busy_ms(k),
                self.calls[k]
            );
        }
        println!(
            "ledger:   {:<24} {:>15.2}%",
            "residual",
            self.residual_pct(window_ns)
        );
    }
}
