//! Persistent slave worker pool.
//!
//! [`run_on_slaves`](crate::run_on_slaves) originally spawned one OS thread
//! per slave *per call*. That is fine for a handful of index builds, but a
//! query-serving deployment issues thousands of queries per second and each
//! one would pay two rounds of thread spawn/join (step 1 and step 3 of
//! Algorithm 2). [`SlavePool`] replaces that with a fixed set of long-lived
//! worker threads fed through a shared job queue: submitting `k` slave tasks
//! is two mutex operations and a condvar wake per task, and the same pool is
//! shared by every concurrent client of the engine.
//!
//! # Design
//!
//! * Jobs are closures pushed onto a `Mutex<VecDeque>` guarded by a condvar;
//!   any idle worker pops the next job (there is no per-slave thread
//!   affinity — slaves in this simulation are state-free tasks, the state
//!   lives in the `DsrIndex` the caller's closure borrows).
//! * [`SlavePool::run`] borrows the caller's closure and result buffer, so
//!   jobs are *not* `'static`. The pool erases the lifetime when boxing the
//!   job and restores soundness by construction: `run` does not return until
//!   every job it submitted has sent its completion message, and a job sends
//!   that message strictly *after* the borrowing closure has been consumed
//!   and dropped. No borrow escapes the dynamic extent of `run`.
//! * No slave task fans out again: a `run` that would queue jobs from
//!   *inside* a pool worker panics instead, because once every worker
//!   waits on jobs queued behind it, nothing is left to run them.
//! * A panicking job does not kill its worker: the payload is caught,
//!   shipped back with the completion message, and re-thrown by `run` after
//!   all sibling jobs have finished — the same "a crashed slave is a crashed
//!   query" contract as the spawn-per-call implementation.

#![allow(unsafe_code)] // lifetime erasure for pooled jobs; soundness argued above.

use dsr_sync::atomic::{AtomicU64, Ordering};
use dsr_sync::mpsc::{channel, Sender};
use dsr_sync::thread::JoinHandle;
use dsr_sync::{Arc, Condvar, Mutex, OnceLock};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Panic payload captured from a slave task.
type PanicPayload = Box<dyn Any + Send + 'static>;

/// Completion message of one job: `Ok` or the panic payload.
type JobResult = Result<(), PanicPayload>;

/// A queued unit of work. The boxed closure is lifetime-erased (see module
/// docs); `done` is sent only after the closure has been consumed.
struct Job {
    work: Box<dyn FnOnce() + Send + 'static>,
    done: Sender<JobResult>,
}

impl Job {
    /// Runs the job to completion and reports the outcome. The closure (and
    /// with it every borrow it captured) is dropped *before* the completion
    /// message is sent, so a waiting `run` call never observes live borrows
    /// after it resumes.
    fn execute(self, shared: &PoolShared) {
        let Job { work, done } = self;
        let result = catch_unwind(AssertUnwindSafe(work));
        shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
        // The receiver may be gone only if `run` itself panicked; ignore.
        let _ = done.send(result.map(|_| ()));
    }
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
    jobs_executed: AtomicU64,
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl PoolShared {
    /// Blocks until a job is available or shutdown is signalled.
    fn pop_blocking(&self) -> Option<Job> {
        let mut queue = dsr_sync::lock(&self.queue);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = dsr_sync::wait(&self.available, queue);
        }
    }
}

thread_local! {
    /// Whether the current thread is a pool worker, which
    /// [`SlavePool::run`] refuses to queue jobs from.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A fixed-size pool of long-lived slave worker threads.
///
/// See the module docs for the design. The cluster exposes one process-wide
/// pool through [`global_pool`]; [`run_on_slaves`](crate::run_on_slaves) is
/// a thin wrapper over it, so every existing call site transparently reuses
/// workers instead of spawning threads.
pub struct SlavePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SlavePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlavePool")
            .field("workers", &self.workers.len())
            .field("jobs_executed", &self.jobs_executed())
            .finish()
    }
}

impl SlavePool {
    /// Creates a pool with `num_workers` long-lived worker threads (at least
    /// one).
    pub fn new(num_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            jobs_executed: AtomicU64::new(0),
        });
        let workers = (0..num_workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                dsr_sync::thread::Builder::new()
                    .name(format!("dsr-slave-{w}"))
                    .spawn(move || {
                        IS_POOL_WORKER.with(|flag| flag.set(true));
                        while let Some(job) = shared.pop_blocking() {
                            job.execute(&shared);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        SlavePool { shared, workers }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Total number of jobs executed by this pool since creation.
    pub fn jobs_executed(&self) -> u64 {
        self.shared.jobs_executed.load(Ordering::Relaxed)
    }

    /// Runs `task(slave_id)` for every slave `0..num_slaves` on the pool and
    /// returns the results in slave order.
    ///
    /// Semantics are identical to the historical spawn-per-call
    /// `run_on_slaves`: `num_slaves == 0` returns an empty vector without
    /// touching the pool, `num_slaves == 1` runs the task inline on the
    /// calling thread (the centralized fast path), and a panic in any task
    /// is re-thrown here after all sibling tasks have completed.
    ///
    /// `num_slaves` may exceed [`Self::num_workers`]; excess tasks queue.
    ///
    /// # Panics
    ///
    /// When called with `num_slaves > 1` from a task running on a pool
    /// worker: a nested fan-out would deadlock once every worker waits.
    pub fn run<R, F>(&self, num_slaves: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if num_slaves == 0 {
            return Vec::new();
        }
        if num_slaves == 1 {
            return vec![task(0)];
        }
        assert!(
            !IS_POOL_WORKER.with(|flag| flag.get()),
            "SlavePool::run called from a slave task: a nested fan-out would deadlock \
             once every worker waits on jobs queued behind it"
        );

        let mut results: Vec<Option<R>> = (0..num_slaves).map(|_| None).collect();
        let (done_tx, done_rx) = channel::<JobResult>();
        {
            let task = &task;
            let mut queue = dsr_sync::lock(&self.shared.queue);
            for (slave, slot) in results.iter_mut().enumerate() {
                let work: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    *slot = Some(task(slave));
                });
                // SAFETY: lifetime erasure only. The job's completion message
                // is sent after `work` (and every borrow of `task`/`results`
                // it captured) has been dropped, and we block below until all
                // `num_slaves` completion messages have arrived. Hence no
                // borrow outlives this call frame.
                let work: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(work) };
                queue.jobs.push_back(Job {
                    work,
                    done: done_tx.clone(),
                });
            }
        }
        // Wake workers only after the queue lock is released, so they don't
        // stampede into a mutex the submitter still holds.
        for _ in 0..num_slaves {
            self.shared.available.notify_one();
        }
        drop(done_tx);

        // Every job sends exactly one completion; rethrow the first panic
        // only after all of them, so no job still borrows `task`.
        let mut first_panic: Option<PanicPayload> = None;
        for _ in 0..num_slaves {
            match done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => {
                    first_panic.get_or_insert(payload);
                }
                Err(_) => unreachable!("every job sends exactly one completion"),
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.expect("slave task completed"))
            .collect()
    }
}

impl Drop for SlavePool {
    fn drop(&mut self) {
        {
            let mut queue = dsr_sync::lock(&self.shared.queue);
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            // Workers only exit cleanly; a panic here would mean a bug in the
            // pool itself (job panics are caught), so propagate it.
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The process-wide slave pool backing [`run_on_slaves`](crate::run_on_slaves).
///
/// Sized to the machine's available parallelism (at least two workers so the
/// simulated slaves actually overlap). Created lazily on first use and kept
/// alive for the lifetime of the process.
pub fn global_pool() -> &'static SlavePool {
    static POOL: OnceLock<SlavePool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = dsr_sync::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2);
        // The global pool outlives any single model-checker execution, so
        // its workers must never be registered as model threads (the model
        // run would wait forever for them to finish). A model test that
        // wants *scheduled* workers creates its own short-lived
        // `SlavePool::new` inside the checked closure instead.
        dsr_sync::model::without_model(|| SlavePool::new(workers))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsr_sync::atomic::{AtomicUsize, Ordering};
    use dsr_sync::thread::ThreadId;
    use std::collections::HashSet;

    #[test]
    fn results_in_slave_order() {
        let pool = SlavePool::new(3);
        assert_eq!(pool.run(5, |slave| slave * 10), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn zero_and_one_slave_fast_paths() {
        let pool = SlavePool::new(2);
        assert!(pool.run(0, |s| s).is_empty());
        assert_eq!(pool.run(1, |s| s + 1), vec![1]);
        // The single-slave fast path runs inline: no job reaches the queue.
        assert_eq!(pool.jobs_executed(), 0);
    }

    #[test]
    fn workers_are_reused_across_runs() {
        let pool = SlavePool::new(4);
        let ids = Mutex::new(HashSet::<ThreadId>::new());
        for _ in 0..10 {
            pool.run(4, |_| {
                ids.lock().unwrap().insert(dsr_sync::thread::current().id());
                // Give sibling workers a chance to grab their own job.
                dsr_sync::thread::sleep(std::time::Duration::from_millis(1));
            });
        }
        let distinct = ids.lock().unwrap().len();
        // Spawn-per-call would produce up to 40 distinct thread ids; a
        // persistent pool is bounded by its worker count.
        assert!(
            distinct <= 4,
            "expected <= 4 worker threads, saw {distinct}"
        );
        assert_eq!(pool.jobs_executed(), 40);
    }

    #[test]
    fn more_tasks_than_workers() {
        let pool = SlavePool::new(2);
        let counter = AtomicUsize::new(0);
        let results = pool.run(16, |slave| {
            counter.fetch_add(1, Ordering::SeqCst);
            slave
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_runs_from_many_client_threads() {
        let pool = SlavePool::new(4);
        dsr_sync::thread::scope(|scope| {
            for t in 0..8 {
                let pool = &pool;
                scope.spawn(move || {
                    for round in 0..20 {
                        let results = pool.run(3, |slave| t * 1000 + round * 10 + slave);
                        assert_eq!(
                            results,
                            vec![
                                t * 1000 + round * 10,
                                t * 1000 + round * 10 + 1,
                                t * 1000 + round * 10 + 2
                            ]
                        );
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "a nested fan-out would deadlock")]
    fn nested_run_panics_instead_of_deadlocking() {
        // 2 workers, and every outer task performs an inner fan-out: both
        // workers would block waiting for inner jobs nobody can run.
        let pool = SlavePool::new(2);
        pool.run(2, |outer| {
            let inner = pool.run(3, |i| outer * 100 + i);
            inner.iter().sum::<usize>()
        });
    }

    #[test]
    #[should_panic(expected = "pooled slave exploded")]
    fn panics_propagate_and_pool_survives() {
        let pool = SlavePool::new(2);
        // First verify the pool keeps working after a panicking run…
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, |slave| {
                if slave == 1 {
                    panic!("warm-up panic");
                }
                slave
            })
        }));
        assert!(caught.is_err());
        assert_eq!(pool.run(3, |s| s), vec![0, 1, 2]);
        // …then let the expected panic escape.
        pool.run(2, |slave| {
            if slave == 0 {
                panic!("pooled slave exploded");
            }
            slave
        });
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global_pool() as *const SlavePool;
        let b = global_pool() as *const SlavePool;
        assert_eq!(a, b);
        assert!(global_pool().num_workers() >= 2);
    }

    /// Model check of the dispatch → execute → completion-channel barrier:
    /// a short-lived pool created *inside* the checked closure gets model
    /// workers, so the whole submit/notify/drain/shutdown handshake is
    /// explored schedule by schedule. `run` must return both results in
    /// slave order and the `Drop` shutdown handshake must terminate in
    /// every interleaving.
    #[test]
    fn model_run_barrier_and_shutdown() {
        use dsr_sync::model::Model;
        Model::new()
            .max_schedules(512)
            .check(|| {
                let pool = SlavePool::new(2);
                assert_eq!(pool.run(2, |slave| slave + 10), vec![10, 11]);
                drop(pool); // shutdown handshake joins both model workers
            })
            .expect("pool barrier must hold in every explored schedule");
    }
}
