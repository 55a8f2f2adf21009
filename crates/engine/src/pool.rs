//! The work-stealing executor.
//!
//! Jobs are identified by index; workers are crossbeam scoped threads
//! pulling indices off a shared injector queue until it drains. Each job
//! runs under `catch_unwind`, so one panicking repetition (a pathological
//! fault pattern, say) costs that repetition only — the rest of the
//! campaign completes and the panic is reported in the job's slot.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crossbeam::deque::{Injector, Steal};
use parking_lot::Mutex;

/// A job that panicked, with the extracted panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JobPanic {
    /// Index of the failed job.
    pub(crate) job: usize,
    /// Panic payload rendered to text.
    pub(crate) message: String,
}

/// Observer notified from worker threads as the job stream progresses.
///
/// Every method is called from whichever worker happened to finish a
/// job, concurrently with other workers, and **outside** any pool lock
/// — implementations must be cheap and must synchronize internally
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
/// leaks into the output), with panics isolated per job. This is the
/// scheduler primitive behind `--shard` (a process runs only the indices
/// its shard owns) and `--resume` (only the indices with no journal
/// record yet) — the job's identity, and therefore its derived seed and
/// its result, is the global index, never the queue position.
///
/// Each worker thread builds one **per-worker context** `C` via
/// `make_ctx` when it starts and threads it mutably through every job it
/// executes. This is how per-worker reusable memory (e.g. `JobWorkspace`
/// and its solver arenas) survives the whole job stream without crossing
/// threads — `C` never leaves the worker that built it, so it needs
/// neither `Send` nor `Sync`.
///
/// Correctness note: because jobs are work-stolen, *which* context a
/// job sees is scheduling-dependent. Contexts must therefore never leak
/// state into results — the contract reusable workspaces uphold by
/// resetting every buffer bit-identically at checkout (and the
/// `parallel_equals_serial`-style tests pin). A job that panics may
/// leave its context dirty; the next checkout overwrites every buffer
/// it uses, so the worker keeps going on the same context.
#[expect(
    clippy::expect_used,
    reason = "re-raise: per-job panics are caught and journaled by catch_unwind; a panic outside a job means the pool itself is broken and must propagate"
)]
pub(crate) fn run_indices_ctx<T, C, M, F>(
    threads: usize,
    indices: &[usize],
    make_ctx: M,
    job: F,
    progress: Option<ProgressFn<'_>>,
) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    M: Fn() -> C + Sync,
    F: Fn(&mut C, usize) -> T + Sync,
{
    let n_jobs = indices.len();
    let threads = effective_threads(threads, n_jobs);
    let queue: Injector<usize> = Injector::new();
    for pos in 0..n_jobs {
        queue.push(pos);
    }
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let done = AtomicUsize::new(0);
    let reported = AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut ctx = make_ctx();
                loop {
                    let pos = match queue.steal() {
                        Steal::Success(pos) => pos,
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    };
                    let i = indices[pos];
                    let result =
                        catch_unwind(AssertUnwindSafe(|| job(&mut ctx, i))).map_err(|payload| {
                            JobPanic {
                                job: i,
                                // NB: `payload.as_ref()`, not `&payload` — the
                                // latter would coerce the Box itself into the
                                // `dyn Any` and every downcast would miss.
                                message: panic_message(payload.as_ref()),
                            }
                        });
                    *slots[pos].lock() = Some(result);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(report) = progress {
                        // Monotonic dedupe without serializing workers:
                        // `fetch_max` admits each count at most once, and
                        // the callback runs outside every pool lock, so a
                        // slow observer (a terminal write, say) never
                        // stalls the other workers. Delivery order across
                        // workers is not guaranteed — see WorkerObserver.
                        if finished > reported.fetch_max(finished, Ordering::Relaxed) {
                            report.job_done(finished, n_jobs);
                        }
                    }
                }
            });
        }
    })
    .expect("campaign worker pool panicked outside a job");
    slots
        .into_iter()
        .enumerate()
        .map(|(pos, slot)| {
            slot.into_inner().unwrap_or_else(|| {
                Err(JobPanic {
                    job: indices[pos],
                    message: "job was never executed".into(),
                })
            })
        })
        .collect()
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

/// Renders a caught panic payload to text (shared with the campaign
/// layer, which catches job panics itself to journal them as
/// [`Failed`](crate::journal::JobRecord::Failed) records).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
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
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * i);
        }
    }

    #[test]
    fn panics_are_isolated() {
        let out = run_indices_ctx(
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
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
        let err = out[4].as_ref().unwrap_err();
        assert_eq!(err.job, 4);
        assert!(err.message.contains("exploded"));
        assert_eq!(*out[5].as_ref().unwrap(), 5);
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
        let totals = Mutex::new(Vec::new());
        struct Ctx<'a> {
            ran: usize,
            totals: &'a Mutex<Vec<usize>>,
        }
        impl Drop for Ctx<'_> {
            fn drop(&mut self) {
                self.totals.lock().push(self.ran);
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
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i * 2);
        }
        let per_worker = totals.into_inner();
        assert!(per_worker.len() <= 3);
        assert_eq!(per_worker.iter().sum::<usize>(), 40);
    }

    #[test]
    fn ctx_survives_a_panicking_job() {
        let out = run_indices_ctx(
            1,
            &all(5),
            || 0usize,
            |ran, i| {
                *ran += 1;
                if i == 1 {
                    panic!("boom");
                }
                *ran
            },
            None,
        );
        assert!(out[1].is_err());
        // The same context kept counting after the panic.
        assert_eq!(*out[4].as_ref().unwrap(), 5);
    }

    #[test]
    fn subset_indices_preserve_global_identity() {
        // Shard/resume contract: jobs are identified by their global
        // index, results aligned with the subset passed in.
        let indices = [3usize, 9, 4, 12];
        let out = run_indices_ctx(2, &indices, || (), |(), i| i * 10, None);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, vec![30, 90, 40, 120]);
        // Panic reports carry the global index too.
        let out = run_indices_ctx(
            2,
            &indices,
            || (),
            |(), i| {
                if i == 9 {
                    panic!("nine");
                }
                i
            },
            None,
        );
        assert_eq!(out[1].as_ref().unwrap_err().job, 9);
        assert!(run_indices_ctx(3, &[], || (), |(), i| i, None).is_empty());
    }

    #[test]
    fn single_thread_still_completes_all() {
        let out = run_indices_ctx(1, &all(25), || (), |(), i| i + 1, None);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, r)| *r.as_ref().unwrap() == i + 1));
    }
}
