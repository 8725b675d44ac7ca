//! Executes a scenario across the Table 3 algorithm matrix.
//!
//! One call to [`run_scenario`] builds the scenario's per-core
//! [`PhasedStream`]s, records the composite trace once, and replays that
//! identical trace through every requested algorithm with the scenario's
//! full disruption schedule armed (partitions, churn, chaos). Each
//! algorithm's run is evaluated against the scenario's expectations; in
//! full mode each run is additionally repeated on the second event-queue
//! backend and compared bit-for-bit (the repo's core determinism
//! invariant must survive every disruption a scenario can schedule).

use flexsnoop::{Algorithm, FaultPlan, MachineConfig, RunStats, VecStream};
use flexsnoop_engine::{Executor, QueueKind};
use flexsnoop_workload::{
    profiles, PhasedStream, PoolSpec, StreamPhase, SyntheticStream, Trace, WorkloadProfile,
};

use crate::{PhaseSpec, Replay, Scenario};

/// The four predictor-driven Table 3 algorithms, in table order — the
/// default matrix a scenario runs against.
pub fn default_algorithms() -> [Algorithm; 4] {
    [
        Algorithm::Subset,
        Algorithm::SupersetCon,
        Algorithm::SupersetAgg,
        Algorithm::Exact,
    ]
}

/// Knobs for one scenario execution.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Algorithms to run (each replays the identical trace).
    pub algorithms: Vec<Algorithm>,
    /// Smoke mode: only the first two algorithms, and skip the
    /// second-backend determinism re-run (the CI quick job).
    pub smoke: bool,
    /// Worker threads for the algorithm sweep.
    pub threads: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            algorithms: default_algorithms().to_vec(),
            smoke: false,
            threads: 4,
        }
    }
}

/// One algorithm's verdict under the scenario.
#[derive(Debug, Clone)]
pub struct AlgorithmVerdict {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// One line per broken expectation (plus a determinism line if the
    /// backends diverged); empty when the run passed.
    pub failures: Vec<String>,
    /// The run's statistics (Heap backend).
    pub stats: RunStats,
    /// Whether the second-backend bit-identity re-run executed.
    pub determinism_checked: bool,
}

/// The result of one [`run_scenario`] call (the CI expectation-report
/// artifact body comes from [`ScenarioReport::render`]).
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Ring nodes simulated.
    pub nodes: usize,
    /// Hierarchical shape `(local, groups)`, or `None` for a flat ring.
    pub hier: Option<(usize, usize)>,
    /// Workload seed the trace was recorded from.
    pub seed: u64,
    /// Longest per-core access stream the phases produced.
    pub accesses_per_core: u64,
    /// Whether smoke mode trimmed the matrix.
    pub smoke: bool,
    /// Per-algorithm verdicts, in run order.
    pub verdicts: Vec<AlgorithmVerdict>,
}

impl ScenarioReport {
    /// True when every algorithm satisfied every expectation.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|v| v.failures.is_empty())
    }

    /// Total broken-expectation lines across the matrix.
    pub fn failure_count(&self) -> usize {
        self.verdicts.iter().map(|v| v.failures.len()).sum()
    }

    /// Renders the markdown expectation report.
    pub fn render(&self) -> String {
        let topology = match self.hier {
            Some((local, groups)) => format!("hier:{local}x{groups}"),
            None => "flat".to_string(),
        };
        let mut out = format!(
            "# Scenario: {}\n\n\
             - nodes: {} ({topology}), seed: {}, accesses/core: {}, mode: {}\n\
             - verdict: **{}**\n\n\
             | algorithm | partition blocked | churn (out/in) | timeouts | retries | \
             degraded | expectations | determinism |\n\
             |---|---|---|---|---|---|---|---|\n",
            self.name,
            self.nodes,
            self.seed,
            self.accesses_per_core,
            if self.smoke { "smoke" } else { "full" },
            if self.is_clean() {
                "CLEAN".to_string()
            } else {
                format!("{} FAILURE(S)", self.failure_count())
            }
        );
        for v in &self.verdicts {
            let r = &v.stats.robustness;
            out.push_str(&format!(
                "| {} | {} | {}/{} | {} | {} | {} | {} | {} |\n",
                v.algorithm,
                r.partition_blocked,
                r.churn_detaches,
                r.churn_readds,
                r.timeouts,
                r.retries,
                r.degraded_entries,
                if v.failures.is_empty() {
                    "ok".to_string()
                } else {
                    format!("{} broken", v.failures.len())
                },
                if v.determinism_checked {
                    "bit-identical"
                } else {
                    "skipped (smoke)"
                },
            ));
        }
        for v in &self.verdicts {
            if v.failures.is_empty() {
                continue;
            }
            out.push_str(&format!("\n## {}\n\n", v.algorithm));
            for f in &v.failures {
                out.push_str(&format!("- {f}\n"));
            }
        }
        out
    }
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Per-(phase, core) stream seed, derived so phases and cores are
/// mutually independent for one scenario seed.
fn phase_core_seed(seed: u64, phase: usize, core: usize) -> u64 {
    let phase_seed = seed.wrapping_mul(GOLDEN).wrapping_add(phase as u64 + 1);
    phase_seed
        .wrapping_mul(GOLDEN)
        .wrapping_add(core as u64 + 1)
}

fn profile_by_name(name: &str) -> Result<WorkloadProfile, String> {
    profiles::all()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("unknown workload profile `{name}` in a scenario phase"))
}

/// Builds one core's phase chain.
fn core_stream(s: &Scenario, core: usize) -> Result<PhasedStream, String> {
    let cores = s.nodes;
    let mut chain = Vec::with_capacity(s.phases.len());
    for (idx, phase) in s.phases.iter().enumerate() {
        let seed = phase_core_seed(s.seed, idx, core);
        chain.push(match phase {
            PhaseSpec::Pool {
                kind,
                accesses,
                lines,
                hot,
                writes,
                think,
            } => {
                let pool = PoolSpec {
                    kind: *kind,
                    lines: *lines,
                    weight: 1.0,
                    hot_fraction: *hot,
                };
                StreamPhase::new(
                    Box::new(SyntheticStream::new(
                        core,
                        cores,
                        vec![pool],
                        *writes,
                        *think,
                        seed,
                    )),
                    *accesses,
                )
            }
            PhaseSpec::Profile { name, accesses } => {
                let p = profile_by_name(name)?;
                StreamPhase::new(
                    Box::new(SyntheticStream::new(
                        core,
                        cores,
                        p.pools.clone(),
                        p.write_fraction,
                        p.think,
                        seed,
                    )),
                    *accesses,
                )
            }
            PhaseSpec::Trace { trace, .. } => {
                let accesses = if core < trace.cores() {
                    trace.core(core).to_vec()
                } else {
                    Vec::new()
                };
                StreamPhase::unbounded(Box::new(VecStream::new(accesses)))
            }
        });
    }
    Ok(PhasedStream::new(chain))
}

/// Runs a scenario: records its composite trace once, replays it under
/// every requested algorithm with the disruption schedule armed, and
/// evaluates the expectations.
///
/// ```
/// use flexsnoop_scenario::{builtin, run_scenario, RunOptions};
///
/// # fn main() -> Result<(), String> {
/// let scenario = builtin("churn").expect("builtin");
/// let opts = RunOptions { smoke: true, ..RunOptions::default() };
/// let report = run_scenario(&scenario, &opts)?;
/// assert!(report.is_clean(), "{}", report.render());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns a message for an invalid scenario or a configuration a
/// simulator rejects (broken expectations land in the report, not the
/// error).
pub fn run_scenario(s: &Scenario, opts: &RunOptions) -> Result<ScenarioReport, String> {
    s.validate()?;
    let mut streams = (0..s.nodes)
        .map(|core| core_stream(s, core))
        .collect::<Result<Vec<_>, _>>()?;
    let trace = Trace::record(&mut streams, u64::MAX);
    let machine = MachineConfig::for_cores(trace.cores(), s.nodes, s.hier)?;
    let mut plan = match &s.chaos {
        Some(c) => FaultPlan::random(c.seed, s.nodes, machine.ring.rings).with_budget(c.budget),
        None => FaultPlan::lossless(),
    };
    plan.partitions = s.partitions.clone();
    let mut replay = Replay::new(&trace, machine);
    replay.churn = s.churn.clone();
    replay.last_disruption_end = s.last_disruption_end();

    let algorithms: Vec<Algorithm> = if opts.smoke {
        opts.algorithms.iter().copied().take(2).collect()
    } else {
        opts.algorithms.clone()
    };
    let tasks: Vec<_> = algorithms
        .iter()
        .map(|&alg| {
            let (replay, plan, smoke) = (&replay, &plan, opts.smoke);
            move || -> Result<AlgorithmVerdict, String> {
                let heap = replay.run(alg, QueueKind::Heap, Some(plan))?;
                let mut failures = heap.check(&s.expectations);
                if !smoke {
                    let bucketed = replay.run(alg, QueueKind::Bucketed, Some(plan))?;
                    failures
                        .extend(heap.identity_breaks(&bucketed, "queue backends Heap vs Bucketed"));
                }
                Ok(AlgorithmVerdict {
                    algorithm: alg,
                    failures,
                    stats: heap.stats,
                    determinism_checked: !smoke,
                })
            }
        })
        .collect();
    let verdicts = Executor::new(opts.threads.max(1))
        .run(tasks)
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;

    Ok(ScenarioReport {
        name: s.name.clone(),
        nodes: s.nodes,
        hier: s.hier,
        seed: s.seed,
        accesses_per_core: trace.accesses_per_core(),
        smoke: opts.smoke,
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builtin, Expectation, Scenario};

    fn smoke() -> RunOptions {
        RunOptions {
            smoke: true,
            threads: 2,
            ..RunOptions::default()
        }
    }

    #[test]
    fn partition_heal_builtin_recovers_in_smoke_mode() {
        let s = builtin("partition-heal").unwrap();
        let report = run_scenario(&s, &smoke()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.verdicts.len(), 2);
        for v in &report.verdicts {
            assert!(
                v.stats.robustness.partition_blocked > 0,
                "{}: the partition window must actually refuse hops",
                v.algorithm
            );
            assert!(
                v.stats.robustness.timeouts > 0,
                "{}: blocked hops must surface as recovery timeouts",
                v.algorithm
            );
            assert!(!v.determinism_checked, "smoke skips the second backend");
        }
        assert!(report.render().contains("CLEAN"));
    }

    #[test]
    fn hierarchy_partition_builtin_recovers_in_smoke_mode() {
        let s = builtin("hierarchy-partition").unwrap();
        let report = run_scenario(&s, &smoke()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.nodes, 16);
        for v in &report.verdicts {
            assert!(
                v.stats.robustness.partition_blocked > 0,
                "{}: the severed bridge links must actually refuse hops",
                v.algorithm
            );
            assert!(
                v.stats.global_circulations > 0,
                "{}: cross-group traffic must escalate onto the global ring",
                v.algorithm
            );
            assert_eq!(
                v.stats.local_circulations + v.stats.global_circulations,
                v.stats.read_txns,
                "{}: two-level circulation accounting leaks",
                v.algorithm
            );
        }
        assert!(report.render().contains("hier:4x4"));
    }

    #[test]
    fn churn_builtin_absorbs_both_windows_in_smoke_mode() {
        let s = builtin("churn").unwrap();
        let report = run_scenario(&s, &smoke()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        for v in &report.verdicts {
            assert_eq!(v.stats.robustness.churn_detaches, 2, "{}", v.algorithm);
            assert_eq!(v.stats.robustness.churn_readds, 2, "{}", v.algorithm);
            assert_eq!(
                v.stats.robustness.timeouts, 0,
                "{}: churn on a lossless ring must not need timeouts",
                v.algorithm
            );
        }
    }

    #[test]
    fn full_matrix_is_bit_identical_across_backends() {
        let s = builtin("partition-heal").unwrap();
        let report = run_scenario(&s, &RunOptions::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.verdicts.len(), 4);
        for v in &report.verdicts {
            assert!(v.determinism_checked, "{}", v.algorithm);
        }
        assert!(report.render().contains("bit-identical"));
    }

    #[test]
    fn chaos_spec_arms_randomized_faults_inside_a_scenario() {
        let s = Scenario::builder("chaos-demo")
            .topology_with(|t| {
                t.nodes(4).seed(11);
            })
            .workloads_with(|w| {
                w.migratory_burst(300);
            })
            .chaos(5, 16)
            .expect_all_retired()
            .expect_coherence_clean()
            .expect_supply_accounting()
            .expect_no_rogue_dirty()
            .build()
            .unwrap();
        let report = run_scenario(&s, &smoke()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn broken_expectation_fails_the_report() {
        // Requests blocked near the end of the partition window time out
        // only after the heal, so a zero-slack recovery deadline (settle
        // at the very heal cycle) is impossible to meet.
        let mut s = builtin("partition-heal").unwrap();
        s.expectations = vec![Expectation::RecoversWithin(0)];
        let report = run_scenario(&s, &smoke()).unwrap();
        assert!(!report.is_clean());
        assert!(report.render().contains("FAILURE"), "{}", report.render());
    }

    #[test]
    fn reports_are_deterministic() {
        let s = builtin("churn").unwrap();
        let a = run_scenario(&s, &smoke()).unwrap();
        let b = run_scenario(&s, &smoke()).unwrap();
        assert_eq!(a.render(), b.render());
        for (va, vb) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(va.stats, vb.stats);
        }
    }
}
