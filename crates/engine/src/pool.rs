//! The campaign executor.
//!
//! Jobs are identified by index; workers are `std::thread::scope`
//! threads claiming positions from one shared cursor, in ascending
//! order, until it runs past the end. The pool catches no panics: the
//! campaign's job closure is the one panic boundary (it journals a
//! panicking repetition as a `Failed` record), and a panic that escapes
//! a job propagates out of [`run_indices_ctx`] once every worker has
//! stopped.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Observer notified from worker threads as the job stream progresses.
///
/// Every method is called from whichever worker happened to finish a
/// job, concurrently with other workers (the pool holds no lock) —
/// implementations must be cheap and must synchronize internally
/// (atomics are the expected idiom). Because workers race between
/// taking their `jobs_done` snapshot and delivering it, callbacks can
/// arrive out of order; each delivered `done` value was the maximum at
/// snapshot time, so consumers should fold with `fetch_max` rather
/// than assume the last call carries the highest count.
pub trait WorkerObserver: Sync {
    /// A job finished; `done` of `total` jobs are now complete.
    fn job_done(&self, done: usize, total: usize);

    /// Optional per-job statistics hook (fault-tolerance campaigns
    /// report faults seen and rollbacks taken here so a live progress
    /// line can show them). Default: ignore.
    fn job_stats(&self, _faults: u64, _rollbacks: u64) {}
}

/// Every plain `Fn(done, total)` progress closure is an observer — the
/// historical callback shape keeps compiling unchanged.
impl<F: Fn(usize, usize) + Sync> WorkerObserver for F {
    fn job_done(&self, done: usize, total: usize) {
        self(done, total)
    }
}

/// Progress callback: [`WorkerObserver::job_done`] is invoked with
/// `(jobs_done, jobs_total)` after every job completion from whichever
/// worker finished it.
pub(crate) type ProgressFn<'a> = &'a (dyn WorkerObserver + 'a);

/// Runs one job per entry of `indices` (the job's global index) across
/// `threads` workers; `job(ctx, i)` produces the result of job `i`.
/// Results come back aligned with `indices` (scheduling order never
/// leaks into the output). This is the scheduler primitive behind
/// `--shard` (a process runs only the indices its shard owns) and
/// `--resume` (only the indices with no journal record yet) — the job's
/// identity, and therefore its derived seed and its result, is the
/// global index, never the queue position.
///
/// Each worker thread builds one **per-worker context** `C` via
/// `make_ctx` when it starts and threads it mutably through every job it
/// executes. This is how per-worker reusable memory (e.g. `JobWorkspace`
/// and its solver arenas) survives the whole job stream without crossing
/// threads — `C` never leaves the worker that built it, so it needs
/// neither `Send` nor `Sync`.
///
/// Correctness note: *which* context a job sees depends on which worker
/// claimed it. Contexts must therefore never leak state into results —
/// the contract reusable workspaces uphold by resetting every buffer
/// bit-identically when a solve starts (and the
/// `parallel_equals_serial`-style tests pin). A job that catches its own
/// panic may leave its context dirty; the next solve's reset overwrites
/// every buffer it uses, so the worker keeps going on the same context.
///
/// # Panics
/// A panic that escapes `job` stops its worker; the other workers
/// finish the remaining positions, then the panic resumes on the
/// calling thread with its original payload.
pub(crate) fn run_indices_ctx<T, C, M, F>(
    threads: usize,
    indices: &[usize],
    make_ctx: M,
    job: F,
    progress: Option<ProgressFn<'_>>,
) -> Vec<T>
where
    T: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> T + Sync,
{
    let n_jobs = indices.len();
    let threads = effective_threads(threads, n_jobs);
    // `Relaxed` throughout: the counters publish no other data (each
    // `fetch_add` still hands out every position exactly once), and the
    // results reach this thread through `join`.
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let reported = AtomicUsize::new(0);
    let worker = || {
        let mut ctx = make_ctx();
        let mut out = Vec::new();
        loop {
            let pos = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = indices.get(pos) else {
                break out;
            };
            out.push((pos, job(&mut ctx, i)));
            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(report) = progress {
                // Monotonic dedupe without serializing workers:
                // `fetch_max` admits each count at most once, so a slow
                // observer (a terminal write, say) never stalls the
                // other workers. Delivery order across workers is not
                // guaranteed — see WorkerObserver.
                if finished > reported.fetch_max(finished, Ordering::Relaxed) {
                    report.job_done(finished, n_jobs);
                }
            }
        }
    };
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    results.sort_unstable_by_key(|&(pos, _)| pos);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Resolves a thread-count request: 0 means all available cores, and
/// never more workers than jobs.
pub(crate) fn effective_threads(requested: usize, n_jobs: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = if requested == 0 { available } else { requested };
    t.clamp(1, n_jobs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(n_jobs: usize) -> Vec<usize> {
        (0..n_jobs).collect()
    }

    #[test]
    fn results_are_indexed_not_scheduled() {
        let out = run_indices_ctx(4, &all(100), || (), |(), i| i * i, None);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "job four exploded")]
    fn a_panic_escaping_a_job_propagates() {
        run_indices_ctx(
            3,
            &all(10),
            || (),
            |(), i| {
                if i == 4 {
                    panic!("job four exploded");
                }
                i
            },
            None,
        );
    }

    #[test]
    fn progress_reaches_total() {
        let max_seen = AtomicUsize::new(0);
        let record = |done: usize, total: usize| {
            assert!(done <= total);
            max_seen.fetch_max(done, Ordering::SeqCst);
        };
        run_indices_ctx(2, &all(17), || (), |(), i| i, Some(&record));
        assert_eq!(max_seen.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out = run_indices_ctx(4, &all(0), || (), |(), i| i, None);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert!(effective_threads(0, 1000) >= 1);
        assert_eq!(effective_threads(0, 0), 1);
    }

    #[test]
    fn ctx_is_per_worker_and_reused_across_jobs() {
        // Each worker's context counts the jobs it ran; the per-worker
        // totals must cover all jobs exactly once.
        let totals = std::sync::Mutex::new(Vec::new());
        struct Ctx<'a> {
            ran: usize,
            totals: &'a std::sync::Mutex<Vec<usize>>,
        }
        impl Drop for Ctx<'_> {
            fn drop(&mut self) {
                self.totals.lock().unwrap().push(self.ran);
            }
        }
        let out = run_indices_ctx(
            3,
            &all(40),
            || Ctx {
                ran: 0,
                totals: &totals,
            },
            |ctx, i| {
                ctx.ran += 1;
                i * 2
            },
            None,
        );
        assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
        let per_worker = totals.into_inner().unwrap();
        assert!(per_worker.len() <= 3);
        assert_eq!(per_worker.iter().sum::<usize>(), 40);
    }

    #[test]
    fn subset_indices_preserve_global_identity() {
        // Shard/resume contract: jobs are identified by their global
        // index, results aligned with the subset passed in.
        let indices = [3usize, 9, 4, 12];
        let out = run_indices_ctx(2, &indices, || (), |(), i| i * 10, None);
        assert_eq!(out, vec![30, 90, 40, 120]);
        assert!(run_indices_ctx(3, &[], || (), |(), i| i, None).is_empty());
    }

    #[test]
    fn single_thread_still_completes_all() {
        let out = run_indices_ctx(1, &all(25), || (), |(), i| i + 1, None);
        assert_eq!(out, (1..=25).collect::<Vec<_>>());
    }
}
