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
//! `ftcg-obs`: the performance observatory — the *consumption* layer
//! on top of `ftcg-telemetry`'s artifacts and `benchmark/`'s results.
//!
//! Where the telemetry crate records (deterministic protocol traces,
//! quarantined timing sidecars) and `benchmark/` measures, this crate
//! stores, compares, and visualizes — it runs no solve and reads no
//! clock:
//!
//! * [`record`] — the importer that turns `benchmark/run.sh --out`
//!   files into entries (`ftcg bench record`);
//! * [`benchfile`] — the schema-versioned `BENCH_*.json` format those
//!   entries are stored in;
//! * `host` — host identification stamped into every entry;
//! * [`diff`] — noise-aware entry comparison and the regression gate
//!   behind `ftcg bench compare`;
//! * `perfetto` — Chrome `trace_event` export folding trace +
//!   sidecar into a per-worker timeline (`ftcg report --perfetto`);
//! * `analytics` — protocol analytics from the deterministic trace
//!   alone (detection latency, rollback waste, empirical fault
//!   pressure), byte-reproducible by construction.

#![warn(missing_docs)]

mod analytics;
pub mod benchfile;
pub mod diff;
mod host;
mod perfetto;
pub mod record;

pub use analytics::{analyze, render_analytics};
pub use perfetto::perfetto_json;
