//! The live campaign progress line.
//!
//! A [`WorkerObserver`] printed to stderr: `done/total` jobs,
//! throughput, ETA, faults seen and rollbacks per job, redrawn in place
//! (carriage return, no newline until the final job). Workers call in
//! concurrently and outside any pool lock, so everything here is
//! atomics; rendering is rate-limited to ~10 Hz so terminal I/O never
//! becomes the campaign bottleneck (the defect the old lock-held
//! progress closure had).
#![expect(clippy::disallowed_methods, reason = "progress line ETA")]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use ftcg_engine::WorkerObserver;

/// Minimum milliseconds between redraws (~10 Hz).
const REDRAW_MS: u64 = 100;

/// Live stderr progress line for `ftcg campaign` (and anything else
/// that runs jobs on the engine pool).
pub(crate) struct ProgressLine {
    started: Instant,
    /// Highest jobs-done count seen (callbacks may arrive out of
    /// order — see [`WorkerObserver`]).
    done: AtomicUsize,
    /// Milliseconds-since-start of the last redraw.
    last_redraw: AtomicU64,
    faults: AtomicU64,
    rollbacks: AtomicU64,
    /// Jobs that reported stats (denominator of the rollback rate).
    stat_jobs: AtomicU64,
}

impl ProgressLine {
    /// A fresh line; the clock for throughput/ETA starts now.
    pub(crate) fn new() -> Self {
        ProgressLine {
            started: Instant::now(),
            done: AtomicUsize::new(0),
            last_redraw: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
            stat_jobs: AtomicU64::new(0),
        }
    }

    fn render(&self, done: usize, total: usize) {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let eta = (total.saturating_sub(done)) as f64 / rate.max(1e-9);
        let faults = self.faults.load(Ordering::Relaxed);
        let jobs = self.stat_jobs.load(Ordering::Relaxed);
        let rb = self.rollbacks.load(Ordering::Relaxed) as f64 / (jobs.max(1)) as f64;
        eprint!(
            "\r{done}/{total} jobs | {rate:.1} jobs/s | ETA {eta:.0}s | \
             faults {faults} | {rb:.2} rollbacks/job"
        );
        if done == total {
            eprintln!();
        }
    }
}

impl Default for ProgressLine {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerObserver for ProgressLine {
    fn job_done(&self, done: usize, total: usize) {
        // Monotonic fold: never redraw for a count below one already
        // shown. The final count is always delivered (the pool's
        // fetch_max dedupe admits it exactly once), so the line always
        // ends complete.
        if done < self.done.fetch_max(done, Ordering::Relaxed) {
            return;
        }
        let now_ms = self.started.elapsed().as_millis() as u64;
        if done == total {
            // The completion line is unconditional — it is delivered to
            // exactly one caller and must never be rate-limited away.
            self.last_redraw.store(now_ms, Ordering::Relaxed);
            self.render(done, total);
            return;
        }
        let last = self.last_redraw.load(Ordering::Relaxed);
        // One winner per redraw window; losers skip quietly.
        if now_ms.saturating_sub(last) >= REDRAW_MS
            && self
                .last_redraw
                .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.render(done, total);
        }
    }

    fn job_stats(&self, faults: u64, rollbacks: u64) {
        self.faults.fetch_add(faults, Ordering::Relaxed);
        self.rollbacks.fetch_add(rollbacks, Ordering::Relaxed);
        self.stat_jobs.fetch_add(1, Ordering::Relaxed);
    }
}
