#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! `ftcg-telemetry`: zero-overhead observability for the fault-tolerant
//! CG pipeline.
//!
//! The crate splits observability into three strictly separated layers:
//!
//! 1. **Recording** ([`Recorder`], [`NoopRecorder`], [`ActiveRecorder`])
//!    — the hot-path contract. The resilient executor is generic over
//!    `R: Recorder`; the no-op default monomorphizes to nothing (no
//!    clock reads, no stores), and the active recorder is pre-allocated
//!    per worker (plain counter arrays, fixed-bucket log-scale
//!    `DurationHist`s, a bounded event ring) so recording passes the
//!    workspace pipeline's counting-allocator gate.
//! 2. **The deterministic trace** ([`trace`]) — drained protocol events
//!    rendered as JSONL keyed by `(job index, seq)`, never wall-clock.
//!    The canonical form is byte-identical across threads, shards, and
//!    kill/resume cycles of the same campaign.
//! 3. **The non-deterministic sidecar** ([`metrics`]) — per-job phase
//!    wall times and duration histograms, quarantined in a separate file
//!    precisely because timings are not reproducible.
//!
//! Both files — and the campaign journal in `ftcg-engine` — are durable
//! logs on the one crash discipline of [`log`]. [`report`] folds them
//! back into per-configuration tables and reconciles trace event counts
//! against journal counters — the measured counterpart of the paper's
//! cost decomposition.

#![warn(missing_docs)]

mod active;
mod error;
pub mod event;
pub mod hist;
pub mod log;
pub mod metrics;
mod recorder;
pub mod report;
pub mod trace;

pub use active::{ActiveRecorder, JobSpan, JobTelemetry};
pub use error::TelemetryError;
pub use event::{Event, EventKind};
pub use log::TraceMeta;
pub use recorder::{NoopRecorder, Phase, Recorder, Stamp};
pub use trace::{Trace, TraceWriter};
