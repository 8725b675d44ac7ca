//! The sweep scheduler: queue → dedup → executor → cache.
//!
//! [`SweepService`] expands a [`SweepRequest`] into jobs and runs them on
//! a persistent worker pool ([`ExecutorService`]); each job is one
//! [`Simulator::run`](flexsnoop::Simulator::run). Two mechanisms keep
//! repeated work off the simulator:
//!
//! * **Results cache** — a finished job's sealed bytes are stored under
//!   its [`JobKey`]; an equal key on any later submission is answered
//!   without running the simulator at all.
//! * **In-flight dedup** — concurrent submissions of an equal key
//!   *coalesce*: one execution, every waiter gets the bytes. The
//!   admission gate ([`hold`](SweepService::hold) /
//!   [`release`](SweepService::release)) holds queued jobs back so tests
//!   can land duplicates while a job is still in flight.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use flexsnoop_engine::{executor, ExecutorService};

use crate::cache::{CacheStats, ResultsCache};
use crate::job::{JobKey, JobOutput, JobSpec, SweepRequest};

/// Tuning knobs for a [`SweepService`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceOptions {
    /// Worker threads (0 = the machine default, same policy as the
    /// batch executor).
    pub threads: usize,
}

/// Where a job's lifecycle currently stands (the state machine of
/// DESIGN.md §11): `Queued → Running → Done/Failed`, with `Cached`
/// short-circuiting straight from `Queued`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet on a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Answered from the results cache without running.
    Cached,
    /// Computed to completion.
    Done,
    /// Rejected or crashed; carries no result.
    Failed,
}

impl JobState {
    /// The lowercase wire name used in stream events.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Cached => "cached",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// How a job's result bytes were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultSource {
    /// Served from the results cache.
    Cache,
    /// Computed by this job's own execution.
    Computed,
    /// Computed once by an equal in-flight job this one coalesced onto.
    Coalesced,
}

impl ResultSource {
    /// The lowercase name used in summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResultSource::Cache => "cache",
            ResultSource::Computed => "computed",
            ResultSource::Coalesced => "coalesced",
        }
    }
}

/// One event on a submission's stream.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// A lifecycle transition.
    Status {
        /// Index into the submission's job list.
        index: usize,
        /// The job's cache key.
        key: JobKey,
        /// The state entered.
        state: JobState,
    },
    /// The job's sealed result bytes (exactly what the cache stores).
    Result {
        /// Index into the submission's job list.
        index: usize,
        /// The job's cache key.
        key: JobKey,
        /// Sealed [`JobOutput`] bytes.
        bytes: Arc<Vec<u8>>,
        /// How the bytes were obtained.
        source: ResultSource,
    },
    /// The job failed; no result will follow.
    Failed {
        /// Index into the submission's job list.
        index: usize,
        /// The job's cache key.
        key: JobKey,
        /// What went wrong.
        error: String,
    },
}

/// A successfully completed job from [`Submission::collect`].
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's cache key.
    pub key: JobKey,
    /// Sealed [`JobOutput`] bytes.
    pub bytes: Arc<Vec<u8>>,
    /// How the bytes were obtained.
    pub source: ResultSource,
}

/// An accepted sweep: the expanded jobs, their keys, and the live event
/// stream.
#[derive(Debug)]
pub struct Submission {
    /// The expanded jobs, in submission order.
    pub specs: Vec<JobSpec>,
    /// Cache keys, parallel to `specs`.
    pub keys: Vec<JobKey>,
    /// Lifecycle and result events; closes when the last job resolves.
    pub events: Receiver<JobEvent>,
}

impl Submission {
    /// Number of jobs in the sweep.
    pub fn jobs(&self) -> usize {
        self.specs.len()
    }

    /// Blocks until every job has a result (or failed) and returns them
    /// in submission order. Jobs still unresolved when the service shuts
    /// down come back as errors.
    pub fn collect(self) -> SubmissionOutcome {
        let mut slots: Vec<Option<Result<JobResult, String>>> = vec![None; self.specs.len()];
        let mut open = self.specs.len();
        while open > 0 {
            let Ok(event) = self.events.recv() else {
                break;
            };
            match event {
                JobEvent::Status { .. } => {}
                JobEvent::Result {
                    index,
                    key,
                    bytes,
                    source,
                } => {
                    if slots[index].is_none() {
                        slots[index] = Some(Ok(JobResult { key, bytes, source }));
                        open -= 1;
                    }
                }
                JobEvent::Failed { index, error, .. } => {
                    if slots[index].is_none() {
                        slots[index] = Some(Err(error));
                        open -= 1;
                    }
                }
            }
        }
        SubmissionOutcome {
            results: slots
                .into_iter()
                .map(|s| s.unwrap_or_else(|| Err("service shut down before the job ran".into())))
                .collect(),
        }
    }
}

/// Everything [`Submission::collect`] gathered.
#[derive(Debug)]
pub struct SubmissionOutcome {
    /// Per-job results in submission order.
    pub results: Vec<Result<JobResult, String>>,
}

impl SubmissionOutcome {
    /// Decodes every successful result against its spec.
    ///
    /// # Errors
    ///
    /// Propagates the first job failure or decode error.
    pub fn outputs(&self, specs: &[JobSpec]) -> Result<Vec<JobOutput>, String> {
        self.results
            .iter()
            .zip(specs)
            .map(|(r, spec)| {
                let r = r.as_ref().map_err(String::clone)?;
                JobOutput::decode(&r.bytes, spec)
            })
            .collect()
    }
}

/// Scheduler counters (see also [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs the simulator actually ran to completion.
    pub executed: u64,
    /// Submissions answered by an in-flight execution of an equal key.
    pub coalesced: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Results-cache counters.
    pub cache: CacheStats,
}

/// One waiter on a job's completion.
#[derive(Debug, Clone)]
struct Waiter {
    index: usize,
    coalesced: bool,
    tx: Sender<JobEvent>,
}

#[derive(Debug, Default)]
struct Gate {
    closed: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn wait_open(&self) {
        let mut closed = lock(&self.closed);
        while *closed {
            closed = self
                .opened
                .wait(closed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn set(&self, hold: bool) {
        *lock(&self.closed) = hold;
        if !hold {
            self.opened.notify_all();
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    in_flight: Mutex<HashMap<JobKey, Vec<Waiter>>>,
    gate: Gate,
    executed: AtomicU64,
    coalesced: AtomicU64,
    failed: AtomicU64,
}

/// The sweep scheduler; see the [module docs](self).
#[derive(Debug)]
pub struct SweepService {
    pool: ExecutorService,
    cache: Arc<ResultsCache>,
    inner: Arc<Inner>,
}

impl SweepService {
    /// Starts the worker pool over `cache`.
    pub fn new(options: ServiceOptions, cache: ResultsCache) -> SweepService {
        let threads = if options.threads == 0 {
            executor::default_threads()
        } else {
            options.threads
        };
        SweepService {
            pool: ExecutorService::start(threads),
            cache: Arc::new(cache),
            inner: Arc::new(Inner::default()),
        }
    }

    /// The results cache the service answers from.
    pub fn cache(&self) -> &ResultsCache {
        &self.cache
    }

    /// Expands and enqueues a sweep. Every job is validated (names,
    /// node divisibility) before anything is scheduled, so a bad request
    /// schedules nothing.
    ///
    /// # Errors
    ///
    /// Returns the first validation message.
    pub fn submit(&self, request: &SweepRequest) -> Result<Submission, String> {
        let specs = request.expand();
        if specs.is_empty() {
            return Err("sweep expands to zero jobs".to_string());
        }
        let keys: Vec<JobKey> = specs.iter().map(JobSpec::key).collect::<Result<_, _>>()?;
        let (tx, rx) = channel();
        for (index, (spec, key)) in specs.iter().zip(&keys).enumerate() {
            let _ = tx.send(JobEvent::Status {
                index,
                key: *key,
                state: JobState::Queued,
            });
            // The in-flight map is checked under its lock so a job
            // completing between the cache probe and the insert cannot
            // be missed: runners publish to the cache *before* clearing
            // their in-flight entry.
            let mut map = lock(&self.inner.in_flight);
            if let Some(waiters) = map.get_mut(key) {
                waiters.push(Waiter {
                    index,
                    coalesced: true,
                    tx: tx.clone(),
                });
                self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Some(bytes) = self.cache.get(key) {
                drop(map);
                let _ = tx.send(JobEvent::Status {
                    index,
                    key: *key,
                    state: JobState::Cached,
                });
                let _ = tx.send(JobEvent::Result {
                    index,
                    key: *key,
                    bytes,
                    source: ResultSource::Cache,
                });
                continue;
            }
            map.insert(
                *key,
                vec![Waiter {
                    index,
                    coalesced: false,
                    tx: tx.clone(),
                }],
            );
            drop(map);
            self.schedule(*key, spec.clone());
        }
        Ok(Submission {
            specs,
            keys,
            events: rx,
        })
    }

    /// Closes the admission gate: queued jobs wait before touching the
    /// simulator. Running jobs are unaffected.
    pub fn hold(&self) {
        self.inner.gate.set(true);
    }

    /// Reopens the admission gate.
    pub fn release(&self) {
        self.inner.gate.set(false);
    }

    /// The scheduler counters so far.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            executed: self.inner.executed.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    fn schedule(&self, key: JobKey, spec: JobSpec) {
        let inner = Arc::clone(&self.inner);
        let cache = Arc::clone(&self.cache);
        self.pool.spawn(move || run_job(&inner, &cache, key, spec));
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        // The pool drains queued tasks on drop; a held gate would make
        // that wait forever.
        self.release();
    }
}

/// Executes one job on a worker: gate, one `sim.run()`, coherence
/// check, publish, notify. Runs with the in-flight entry for `key` owned
/// by this invocation.
fn run_job(inner: &Inner, cache: &ResultsCache, key: JobKey, spec: JobSpec) {
    inner.gate.wait_open();
    notify_waiters(inner, key, JobState::Running);
    let mut sim = match spec.build() {
        Ok(sim) => sim,
        Err(e) => return fail(inner, key, e),
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let stats = sim.run();
        (stats, sim.probe_report())
    }));
    let Ok((stats, probe)) = outcome else {
        return fail(inner, key, "job panicked in the simulator".to_string());
    };
    if let Err(e) = sim.validate_coherence() {
        return fail(inner, key, format!("coherence check: {e}"));
    }
    let bytes = Arc::new(JobOutput { stats, probe }.encode());
    // Publish before clearing in-flight (see `submit`).
    cache.put(key, Arc::clone(&bytes));
    inner.executed.fetch_add(1, Ordering::Relaxed);
    let waiters = lock(&inner.in_flight).remove(&key).unwrap_or_default();
    for w in waiters {
        let _ = w.tx.send(JobEvent::Status {
            index: w.index,
            key,
            state: JobState::Done,
        });
        let _ = w.tx.send(JobEvent::Result {
            index: w.index,
            key,
            bytes: Arc::clone(&bytes),
            source: if w.coalesced {
                ResultSource::Coalesced
            } else {
                ResultSource::Computed
            },
        });
    }
}

fn fail(inner: &Inner, key: JobKey, error: String) {
    inner.failed.fetch_add(1, Ordering::Relaxed);
    let waiters = lock(&inner.in_flight).remove(&key).unwrap_or_default();
    for w in waiters {
        let _ = w.tx.send(JobEvent::Status {
            index: w.index,
            key,
            state: JobState::Failed,
        });
        let _ = w.tx.send(JobEvent::Failed {
            index: w.index,
            key,
            error: error.clone(),
        });
    }
}

fn notify_waiters(inner: &Inner, key: JobKey, state: JobState) {
    let waiters: Vec<Waiter> = lock(&inner.in_flight)
        .get(&key)
        .map(|w| w.to_vec())
        .unwrap_or_default();
    for w in waiters {
        let _ = w.tx.send(JobEvent::Status {
            index: w.index,
            key,
            state,
        });
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(algorithms: &[&str], seeds: &[u64], accesses: u64) -> SweepRequest {
        SweepRequest {
            workloads: vec!["specjbb".to_string()],
            algorithms: algorithms.iter().map(|s| s.to_string()).collect(),
            seeds: seeds.to_vec(),
            accesses,
            ..SweepRequest::default()
        }
    }

    fn service() -> SweepService {
        SweepService::new(ServiceOptions { threads: 2 }, ResultsCache::in_memory())
    }

    #[test]
    fn cold_then_warm_submission_reuses_bytes_exactly() {
        let service = service();
        let req = request(&["lazy", "eager"], &[7], 60);
        let cold = service.submit(&req).unwrap().collect();
        assert_eq!(service.stats().executed, 2);
        let warm = service.submit(&req).unwrap().collect();
        assert_eq!(service.stats().executed, 2, "warm run re-ran nothing");
        for (c, w) in cold.results.iter().zip(&warm.results) {
            let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
            assert_eq!(c.bytes, w.bytes, "cached bytes are the computed bytes");
            assert_eq!(c.source, ResultSource::Computed);
            assert_eq!(w.source, ResultSource::Cache);
        }
    }

    #[test]
    fn duplicate_in_flight_submissions_coalesce() {
        let service = service();
        let req = request(&["lazy"], &[3], 60);
        service.hold();
        let first = service.submit(&req).unwrap();
        let second = service.submit(&req).unwrap();
        assert_eq!(service.stats().coalesced, 1);
        service.release();
        let (a, b) = (first.collect(), second.collect());
        assert_eq!(service.stats().executed, 1, "one execution served both");
        let (a, b) = (
            a.results[0].as_ref().unwrap(),
            b.results[0].as_ref().unwrap(),
        );
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.source, ResultSource::Computed);
        assert_eq!(b.source, ResultSource::Coalesced);
    }

    #[test]
    fn duplicates_inside_one_sweep_coalesce_too() {
        let service = service();
        // Two equal seeds expand to two jobs with equal keys.
        let req = request(&["lazy"], &[5, 5], 60);
        service.hold();
        let sub = service.submit(&req).unwrap();
        assert_eq!(sub.keys[0], sub.keys[1]);
        service.release();
        let out = sub.collect();
        assert_eq!(service.stats().executed, 1);
        assert_eq!(service.stats().coalesced, 1);
        assert_eq!(
            out.results[0].as_ref().unwrap().bytes,
            out.results[1].as_ref().unwrap().bytes
        );
    }

    #[test]
    fn invalid_requests_schedule_nothing() {
        let service = service();
        let err = service
            .submit(&request(&["lazy", "bogus"], &[1], 60))
            .unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
        assert_eq!(service.stats().executed, 0);
        assert_eq!(service.cache().len(), 0);
    }

    #[test]
    fn failures_reach_every_waiter() {
        let service = service();
        // specjbb has 16 cores; 5 nodes does not divide it. Expansion
        // validates at submit time, so this surfaces as a submit error.
        let mut req = request(&["lazy"], &[1], 60);
        req.nodes = 5;
        assert!(service.submit(&req).is_err());
    }
}
