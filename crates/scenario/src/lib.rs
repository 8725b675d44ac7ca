//! # flexsnoop-scenario — declarative robustness scenarios
//!
//! A scenario states a whole robustness experiment up front: the
//! topology, a sequence of composable workload phases, a disruption
//! schedule (ring partitions, node churn, randomized chaos), and —
//! first-class — the *expectations* the finished run must satisfy:
//!
//! ```
//! use flexsnoop_scenario::{run_scenario, RunOptions, Scenario};
//!
//! # fn main() -> Result<(), String> {
//! let scenario = Scenario::builder("demo")
//!     .topology_with(|t| { t.nodes(8).seed(42); })
//!     .workloads_with(|w| { w.migratory_burst(200).hot_lines(100); })
//!     .partition(&[0, 0, 0, 0, 1, 1, 1, 1], 2_000, 5_000)
//!     .expect_all_retired()
//!     .expect_coherence_clean()
//!     .expect_recovers_within(40_000)
//!     .build()?;
//! let report = run_scenario(&scenario, &RunOptions { smoke: true, ..Default::default() })?;
//! assert!(report.is_clean(), "{}", report.render());
//! # Ok(())
//! # }
//! ```
//!
//! Scenarios also parse from a line-oriented text format
//! ([`Scenario::parse`], `flexsnoop scenario run <file>`) and ship as
//! builtins ([`builtin`]). The expectation set is shared with the chaos
//! campaign: [`chaos_expectations`] reproduces the campaign's historical
//! failure predicate verbatim, so chaos reproducers and scenario reports
//! speak the same language. So is the replay path: [`Replay`] builds,
//! runs and collects every run of the scenario runner, the chaos
//! campaign and the differential matrix.
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`spec`] | [`Scenario`], [`PhaseSpec`], the builder, builtins. |
//! | [`expect`] | [`Expectation`], [`RunOutcome`], the checks and the backend comparison. |
//! | [`replay`] | [`Replay`]: the shared build-run-collect path. |
//! | [`text`] | The line-oriented scenario text format. |
//! | [`run`] | [`run_scenario`] and the [`ScenarioReport`]. |

#![warn(missing_docs)]

pub mod expect;
pub mod replay;
pub mod run;
pub mod spec;
pub mod text;

pub use expect::{chaos_expectations, Expectation, LineStates, RunOutcome};
pub use replay::Replay;
pub use run::{default_algorithms, run_scenario, AlgorithmVerdict, RunOptions, ScenarioReport};
pub use spec::{
    builtin, builtin_names, ChaosSpec, PhaseSpec, Scenario, ScenarioBuilder, TopologyBuilder,
    WorkloadBuilder,
};
