//! A bounded work-stealing task executor for simulation sweeps.
//!
//! The figure/table sweeps run hundreds of independent simulator
//! configurations. Spawning one OS thread per configuration (the seed's
//! `std::thread::scope` fan-out) oversubscribes the machine as soon as the
//! sweep outgrows the core count: every simulator is CPU-bound, so excess
//! threads only add context-switch and cache-thrash overhead.
//!
//! [`Executor`] instead runs a **fixed pool** of workers over the task
//! list. Tasks are pre-distributed round-robin onto per-worker deques (plus
//! a shared injector for spillover); an idle worker first drains its own
//! deque from the front, then the injector, then **steals from the back**
//! of a sibling's deque. Stealing from the opposite end keeps the common
//! fast path (own front pop) and the steal path from contending on the
//! same entries.
//!
//! Results are returned **in task order**, so callers are deterministic
//! regardless of worker count or interleaving — the property the
//! determinism regression tests pin down.
//!
//! The pool size defaults to the machine's available parallelism and can be
//! overridden globally ([`set_default_threads`], wired to the CLI's
//! `--threads` flag) or per call ([`Executor::new`]), or via the
//! `FLEXSNOOP_THREADS` environment variable.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a deque mutex, ignoring poisoning. The queues only hold plain
/// data (task closures and indices), which stays structurally intact when
/// a panic unwinds past a lock guard, so a poisoned lock is still safe to
/// read — and honouring the poison would cascade `PoisonError` panics
/// through every sibling worker, masking the original task panic.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Process-wide worker-count override; 0 means "not set".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the default worker count for every subsequently created
/// [`Executor::with_default`] pool (the CLI's `--threads` knob lands here).
/// `0` clears the override.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count used by [`Executor::with_default`]: the
/// [`set_default_threads`] override if set, else `FLEXSNOOP_THREADS` from
/// the environment, else the machine's available parallelism (at least 1).
pub fn default_threads() -> usize {
    let n = DEFAULT_THREADS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    if let Ok(s) = std::env::var("FLEXSNOOP_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A bounded pool that runs a batch of independent tasks with work
/// stealing and returns their results in task order.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

/// What one worker did during a [`Executor::run_with_stats`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker completed (own deque, injector, and steals).
    pub tasks: u64,
    /// Wall-clock time the worker spent inside task bodies.
    pub busy: Duration,
}

/// Per-worker utilization of one [`Executor::run_with_stats`] batch: the
/// observability view of a sweep — how evenly the work spread, and how much
/// of the batch's wall-clock each worker actually computed for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// One entry per worker that participated, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock duration of the whole batch (distribution to last join).
    pub wall: Duration,
}

impl ExecutorStats {
    /// Total tasks completed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Mean worker utilization: busy time over the batch's wall-clock,
    /// averaged across workers (1.0 = every worker computed the whole
    /// time; 0 for an empty batch).
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() || self.wall.is_zero() {
            return 0.0;
        }
        let wall = self.wall.as_secs_f64();
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        (busy / wall / self.workers.len() as f64).min(1.0)
    }
}

impl Executor {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`default_threads`].
    pub fn with_default() -> Self {
        Self::new(default_threads())
    }

    /// The worker count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task and returns the results in the order the tasks were
    /// given, independent of scheduling.
    ///
    /// With one worker (or one task) the tasks run inline on the calling
    /// thread, in order — no threads are spawned.
    ///
    /// # Panics
    ///
    /// If a task panics, the remaining tasks still run, and the first
    /// panic (by task order) is then re-raised with its original payload.
    /// Sibling workers never see a `PoisonError` cascade from a panicking
    /// task: the steal path ignores mutex poisoning.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.run_inner(tasks, false).0
    }

    /// Like [`run`](Self::run), but also reports per-worker utilization
    /// (task counts and busy time). The instrumentation costs two
    /// monotonic-clock reads per task — noise next to the simulations the
    /// pool exists to sweep — and is only paid when this entry point is
    /// used.
    ///
    /// # Panics
    ///
    /// Propagates task panics exactly as [`run`](Self::run) does.
    pub fn run_with_stats<T, F>(&self, tasks: Vec<F>) -> (Vec<T>, ExecutorStats)
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let (out, stats) = self.run_inner(tasks, true);
        (out, stats.expect("instrumented run always yields stats"))
    }

    fn run_inner<T, F>(&self, tasks: Vec<F>, instrument: bool) -> (Vec<T>, Option<ExecutorStats>)
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            if !instrument {
                return (tasks.into_iter().map(|f| f()).collect(), None);
            }
            let batch_start = Instant::now();
            let mut stats = WorkerStats::default();
            let out = tasks
                .into_iter()
                .map(|f| {
                    let t0 = Instant::now();
                    let value = f();
                    stats.busy += t0.elapsed();
                    stats.tasks += 1;
                    value
                })
                .collect();
            return (
                out,
                Some(ExecutorStats {
                    workers: vec![stats],
                    wall: batch_start.elapsed(),
                }),
            );
        }
        // Pre-distribute round-robin so every worker starts busy; the
        // shared injector takes spillover (empty here, but it is the
        // hand-off point if task submission ever becomes incremental).
        let mut locals: Vec<Mutex<VecDeque<(usize, F)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            locals[i % workers].get_mut().unwrap().push_back((i, task));
        }
        let injector: Mutex<VecDeque<(usize, F)>> = Mutex::new(VecDeque::new());
        let worker_stats: Mutex<Vec<(usize, WorkerStats)>> = Mutex::new(Vec::new());
        let locals = &locals;
        let injector = &injector;
        let worker_stats = &worker_stats;
        let batch_start = Instant::now();
        type TaskResult<T> = Result<T, Box<dyn std::any::Any + Send>>;
        let (tx, rx) = mpsc::channel::<(usize, TaskResult<T>)>();
        let out = std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut mine = WorkerStats::default();
                    loop {
                        // One lock at a time: binding each probe to its own
                        // statement drops the guard before the next probe. A
                        // single `.or_else` chain would keep the own-deque
                        // guard alive across the steal (temporaries live to
                        // the end of the statement), and two idle workers
                        // stealing from each other then deadlock AB-BA.
                        let mut job = lock_ignore_poison(&locals[w]).pop_front();
                        if job.is_none() {
                            job = lock_ignore_poison(injector).pop_front();
                        }
                        if job.is_none() {
                            job = (1..workers).find_map(|off| {
                                lock_ignore_poison(&locals[(w + off) % workers]).pop_back()
                            });
                        }
                        match job {
                            Some((i, task)) => {
                                // Capture the panic instead of unwinding through
                                // the scope: the scope would join every worker
                                // and surface a cascade of secondary panics that
                                // masks the original.
                                let t0 = instrument.then(Instant::now);
                                let result = catch_unwind(AssertUnwindSafe(task));
                                if let Some(t0) = t0 {
                                    mine.busy += t0.elapsed();
                                    mine.tasks += 1;
                                }
                                if tx.send((i, result)).is_err() {
                                    break;
                                }
                            }
                            None => break,
                        }
                    }
                    if instrument {
                        lock_ignore_poison(worker_stats).push((w, mine));
                    }
                });
            }
            drop(tx);
            let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
            let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
            for (i, result) in rx {
                match result {
                    Ok(value) => out[i] = Some(value),
                    Err(payload) => {
                        if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                            first_panic = Some((i, payload));
                        }
                    }
                }
            }
            if let Some((_, payload)) = first_panic {
                resume_unwind(payload);
            }
            out.into_iter()
                .map(|slot| slot.expect("worker exited without completing its task"))
                .collect()
        });
        let stats = instrument.then(|| {
            let mut per_worker = lock_ignore_poison(worker_stats)
                .drain(..)
                .collect::<Vec<_>>();
            per_worker.sort_by_key(|(w, _)| *w);
            ExecutorStats {
                workers: per_worker.into_iter().map(|(_, s)| s).collect(),
                wall: batch_start.elapsed(),
            }
        });
        (out, stats)
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::with_default()
    }
}

/// What the shared service queue holds: erased, one-shot task closures.
type ServiceTask = Box<dyn FnOnce() + Send + 'static>;

struct ServiceShared {
    queue: Mutex<VecDeque<ServiceTask>>,
    /// Signalled when a task is queued or shutdown is requested.
    available: Condvar,
    /// Once set, workers drain the remaining queue and exit.
    shutdown: AtomicBool,
}

/// A long-lived worker pool accepting **incremental** task submission —
/// the service-shaped counterpart to [`Executor::run`]'s batch mode.
///
/// [`Executor::run`] is built for sweeps whose task list is known up
/// front: it distributes the batch, joins, and returns ordered results.
/// A job-queue *service* instead receives work over its whole lifetime,
/// so `ExecutorService` keeps a fixed pool of workers parked on a shared
/// queue: [`spawn`](Self::spawn) enqueues a task and wakes one worker;
/// [`shutdown`](Self::shutdown) drains what was already queued and joins
/// the pool. Ordering across tasks is the caller's business (the sweep
/// service sequences its own result stream per submission).
///
/// A task that panics poisons nothing: the panic is caught and the
/// worker moves on (the sweep service reports job failures through its
/// own event stream, not through unwinding).
pub struct ExecutorService {
    shared: Arc<ServiceShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ExecutorService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorService")
            .field("workers", &self.workers.len())
            .field("queued", &self.queued())
            .finish()
    }
}

impl ExecutorService {
    /// Starts a pool of `threads` workers (clamped to at least 1).
    pub fn start(threads: usize) -> Self {
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let task = {
                        let mut queue = lock_ignore_poison(&shared.queue);
                        loop {
                            if let Some(task) = queue.pop_front() {
                                break task;
                            }
                            if shared.shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            queue = shared
                                .available
                                .wait(queue)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    // A panicking job must not take its worker down with
                    // it; the job's own error channel reports the failure.
                    let _ = catch_unwind(AssertUnwindSafe(task));
                })
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues one task; a parked worker picks it up.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        lock_ignore_poison(&self.shared.queue).push_back(Box::new(task));
        self.shared.available.notify_one();
    }

    /// Tasks queued but not yet claimed by a worker.
    pub fn queued(&self) -> usize {
        lock_ignore_poison(&self.shared.queue).len()
    }

    /// Drains every task already queued, then joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ExecutorService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 16] {
            let tasks: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
            let out = Executor::new(threads).run(tasks);
            assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_is_bounded() {
        use std::sync::atomic::AtomicUsize;
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..100)
            .map(|i| {
                move || {
                    let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                    PEAK.fetch_max(live, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    LIVE.fetch_sub(1, Ordering::SeqCst);
                    i
                }
            })
            .collect();
        let out = Executor::new(3).run(tasks);
        assert_eq!(out.len(), 100);
        assert!(
            PEAK.load(Ordering::SeqCst) <= 3,
            "more concurrent tasks than workers: {}",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn empty_and_single_task_batches() {
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(Executor::new(4).run(none).is_empty());
        assert_eq!(Executor::new(4).run(vec![|| 7u8]), vec![7]);
    }

    #[test]
    fn tasks_may_borrow_the_caller_stack() {
        let data = vec![1u64, 2, 3, 4];
        let data = &data;
        let tasks: Vec<_> = (0..data.len()).map(|i| move || data[i] * 10).collect();
        assert_eq!(Executor::new(2).run(tasks), vec![10, 20, 30, 40]);
    }

    #[test]
    fn task_panic_propagates_original_payload() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..16u32)
                .map(|i| {
                    Box::new(move || {
                        if i == 5 {
                            panic!("task five exploded");
                        }
                        i
                    }) as Box<dyn FnOnce() -> u32 + Send>
                })
                .collect();
            Executor::new(4).run(tasks)
        }))
        .expect_err("the task panic must propagate");
        // The payload is the original one, not a PoisonError cascade from
        // sibling workers dying on poisoned deque mutexes.
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .expect("original &str payload");
        assert_eq!(msg, "task five exploded");
    }

    #[test]
    fn siblings_finish_their_tasks_despite_a_panic() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        RAN.store(0, Ordering::SeqCst);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..32)
            .map(|i| {
                Box::new(move || {
                    if i == 0 {
                        panic!("early panic");
                    }
                    RAN.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| Executor::new(4).run(tasks)));
        assert!(result.is_err());
        assert_eq!(
            RAN.load(Ordering::SeqCst),
            31,
            "every non-panicking task must still run"
        );
    }

    #[test]
    fn first_panic_by_task_order_wins() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..8)
                .map(|i| {
                    Box::new(move || {
                        // Two tasks panic; the lower-indexed payload must
                        // be the one re-raised, regardless of scheduling.
                        if i == 2 {
                            panic!("panic two");
                        }
                        if i == 6 {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            panic!("panic six");
                        }
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            Executor::new(2).run(tasks)
        }))
        .expect_err("must panic");
        let msg = caught.downcast_ref::<&str>().copied().unwrap();
        assert_eq!(msg, "panic two");
    }

    #[test]
    fn instrumented_run_reports_every_task_once() {
        for threads in [1, 3] {
            let tasks: Vec<_> = (0..20u64).map(|i| move || i + 1).collect();
            let (out, stats) = Executor::new(threads).run_with_stats(tasks);
            assert_eq!(out, (1..=20u64).collect::<Vec<_>>());
            assert_eq!(stats.total_tasks(), 20);
            assert_eq!(stats.workers.len(), threads.min(20));
            assert!(stats.mean_utilization() >= 0.0 && stats.mean_utilization() <= 1.0);
        }
    }

    #[test]
    fn instrumented_run_measures_busy_time() {
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    i
                }
            })
            .collect();
        let (_, stats) = Executor::new(2).run_with_stats(tasks);
        let busy: Duration = stats.workers.iter().map(|w| w.busy).sum();
        assert!(busy >= Duration::from_millis(4), "busy = {busy:?}");
        assert!(stats.wall >= Duration::from_millis(2));
        assert!(stats.mean_utilization() > 0.0);
    }

    #[test]
    fn uninstrumented_stats_are_free() {
        let (out, stats) = Executor::new(2).run_inner(vec![|| 1, || 2], false);
        assert_eq!(out, vec![1, 2]);
        assert!(stats.is_none());
    }

    #[test]
    fn many_tiny_batches_never_deadlock() {
        // Regression: the steal path used to probe sibling deques while
        // still holding the guard on the worker's own (empty) deque — a
        // single `.or_else` chain keeps that temporary alive for the whole
        // statement — so two idle workers stealing from each other could
        // deadlock AB-BA. Tiny batches on a wide pool hit the race in a
        // few thousand iterations; with one-lock-at-a-time probing this
        // loop runs dry every time.
        for round in 0..2_000u64 {
            let n = (round % 3 + 2) as usize;
            let tasks: Vec<_> = (0..n as u64).map(|i| move || round + i).collect();
            let out = Executor::new(4).run(tasks);
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn service_runs_incrementally_submitted_tasks() {
        let service = ExecutorService::start(3);
        let (tx, rx) = mpsc::channel();
        for i in 0..50u64 {
            let tx = tx.clone();
            service.spawn(move || tx.send(i).unwrap());
        }
        // A second wave after the first may already be in flight.
        for i in 50..100u64 {
            let tx = tx.clone();
            service.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        service.shutdown();
    }

    #[test]
    fn service_shutdown_drains_queued_tasks() {
        static DONE: AtomicUsize = AtomicUsize::new(0);
        DONE.store(0, Ordering::SeqCst);
        let service = ExecutorService::start(1);
        for _ in 0..20 {
            service.spawn(|| {
                std::thread::sleep(Duration::from_micros(100));
                DONE.fetch_add(1, Ordering::SeqCst);
            });
        }
        service.shutdown();
        assert_eq!(DONE.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn service_survives_a_panicking_task() {
        let service = ExecutorService::start(1);
        let (tx, rx) = mpsc::channel();
        service.spawn(|| panic!("job exploded"));
        service.spawn(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
        service.shutdown();
    }

    #[test]
    fn default_threads_is_positive_and_overridable() {
        assert!(default_threads() >= 1);
        set_default_threads(5);
        assert_eq!(default_threads(), 5);
        assert_eq!(Executor::with_default().threads(), 5);
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }
}
