//! Parameter-sweep service for the flexsnoop simulator.
//!
//! `flexsnoop serve` turns the batch simulator into a long-lived
//! service: clients submit sweep requests (a config matrix that expands
//! into jobs), a scheduler runs them on a persistent worker pool, and
//! results stream back as newline-delimited JSON. Each job is one
//! simulator run; two layers keep repeated work off the simulator
//! (DESIGN.md §11):
//!
//! * a **results cache** keyed on the simulator's configuration
//!   fingerprint extended with workload, resolved predictor, probe flag
//!   and seed — resubmitting a sweep re-runs nothing;
//! * **in-flight dedup** — concurrent submissions of an equal key
//!   coalesce onto one execution.
//!
//! Everything is built from `std` (threads, channels, Unix sockets);
//! the crate adds no dependencies beyond the workspace.
//!
//! # Quickstart
//!
//! Submit a two-job sweep in-process, read the streamed results, then
//! resubmit and watch the cache answer instead of the simulator:
//!
//! ```
//! use flexsnoop_serve::{
//!     JobOutput, ResultsCache, ResultSource, ServiceOptions, SweepRequest, SweepService,
//! };
//!
//! let service = SweepService::new(ServiceOptions::default(), ResultsCache::in_memory());
//! let request = SweepRequest::parse_line(
//!     "sweep workloads=specjbb algorithms=lazy,eager seeds=7 accesses=60",
//! )?;
//!
//! let submission = service.submit(&request)?;
//! let specs = submission.specs.clone();
//! let cold = submission.collect();
//! assert_eq!(cold.results.len(), 2);
//! let outputs = cold.outputs(&specs)?;
//! assert!(outputs[0].stats.read_txns > 0);
//!
//! // Same sweep again: zero simulator runs, byte-identical results.
//! let warm = service.submit(&request)?.collect();
//! assert_eq!(service.stats().executed, 2, "the warm pass executed nothing new");
//! for (c, w) in cold.results.iter().zip(&warm.results) {
//!     let (c, w) = (c.as_ref().unwrap(), w.as_ref().unwrap());
//!     assert_eq!(c.bytes, w.bytes);
//!     assert_eq!(w.source, ResultSource::Cache);
//! }
//! # Ok::<(), String>(())
//! ```
//!
//! The same service speaks NDJSON over a Unix socket via
//! [`server::serve_blocking`] / [`server::request`]; the `flexsnoop
//! serve` and `flexsnoop submit` subcommands are thin wrappers over
//! those.

#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod names;
pub mod server;
pub mod service;

pub use cache::{CacheStats, ResultsCache};
pub use job::{JobKey, JobOutput, JobSpec, SweepRequest};
pub use server::{request, request_shutdown, result_lines, serve_blocking, ServerSummary};
pub use service::{
    JobEvent, JobResult, JobState, ResultSource, ServiceOptions, ServiceStats, Submission,
    SubmissionOutcome, SweepService,
};
