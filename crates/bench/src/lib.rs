//! Shared experiment harness for the paper's tables and figures.
//!
//! `flexsnoop report` (the `flexsnoop-report` crate) regenerates Tables 1
//! and 3 and Figures 6–11 from this library. The heavy lifting — running
//! every (workload × algorithm) pair and aggregating per group — lives
//! here so the report, the calibration binary and the remaining bench
//! targets (Figure 4, the ablations and the scaling microbenches) all
//! agree.

pub mod sweeps;

use std::collections::BTreeMap;

use flexsnoop::probe::ProbeReport;
use flexsnoop::{run_workload, Algorithm, GroupAggregator, RunStats, Simulator};
use flexsnoop_engine::ExecutorStats;
use flexsnoop_predictor::PredictorSpec;
use flexsnoop_workload::{profiles, WorkloadGroup, WorkloadProfile};

/// How many accesses per core the figure experiments run.
///
/// Large enough to warm the caches and exercise predictor capacity
/// pressure; small enough that regenerating every figure stays in minutes.
pub const FIGURE_ACCESSES: u64 = 12_000;

/// The default seed for every figure experiment (results are deterministic).
pub const SEED: u64 = 20060617; // ISCA 2006 conference date

/// One (workload, algorithm) result.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Workload name.
    pub workload: String,
    /// Workload group.
    pub group: WorkloadGroup,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Collected statistics.
    pub stats: RunStats,
    /// Observability counters, when the cell ran with the probe on.
    pub probe: Option<ProbeReport>,
}

/// Runs every workload under every algorithm, fanning the individual
/// (workload, algorithm) cells out over the shared bounded executor
/// instead of spawning one OS thread per workload (which oversubscribed
/// the machine on wide sweeps). `accesses` overrides each profile's
/// per-core access count. Results come back in workload-major order
/// regardless of the worker count.
///
/// # Panics
///
/// Panics if any simulation fails to configure.
pub fn run_matrix(
    workloads: &[WorkloadProfile],
    algorithms: &[Algorithm],
    accesses: u64,
    seed: u64,
) -> Vec<CellResult> {
    run_matrix_instrumented(workloads, algorithms, accesses, seed, false).0
}

/// [`run_matrix`] with optional per-cell probes and executor utilization.
///
/// With `probe` set, each simulation runs with the counting probe
/// installed and its [`ProbeReport`] lands in the matching
/// [`CellResult::probe`]; either way the sweep itself is timed through
/// [`Executor::run_with_stats`](flexsnoop_engine::Executor::run_with_stats)
/// so callers see per-worker utilization.
///
/// # Panics
///
/// Panics if any simulation fails to configure.
pub fn run_matrix_instrumented(
    workloads: &[WorkloadProfile],
    algorithms: &[Algorithm],
    accesses: u64,
    seed: u64,
    probe: bool,
) -> (Vec<CellResult>, ExecutorStats) {
    let profiles: Vec<WorkloadProfile> = workloads
        .iter()
        .map(|p| p.clone().with_accesses(accesses))
        .collect();
    let tasks: Vec<_> = profiles
        .iter()
        .flat_map(|profile| {
            algorithms.iter().map(move |&algorithm| {
                move || {
                    let (stats, report) = run_cell(profile, algorithm, seed, probe);
                    CellResult {
                        workload: profile.name.clone(),
                        group: profile.group,
                        algorithm,
                        stats,
                        probe: report,
                    }
                }
            })
        })
        .collect();
    flexsnoop_engine::Executor::with_default().run_with_stats(tasks)
}

/// Runs one (workload, algorithm) cell, optionally with the counting
/// probe installed.
///
/// # Panics
///
/// Panics if the simulation fails to configure.
fn run_cell(
    profile: &WorkloadProfile,
    algorithm: Algorithm,
    seed: u64,
    probe: bool,
) -> (RunStats, Option<ProbeReport>) {
    if !probe {
        let stats = run_workload(profile, algorithm, None, seed)
            .unwrap_or_else(|e| panic!("{algorithm} on {}: {e}", profile.name));
        return (stats, None);
    }
    let mut sim = Simulator::for_workload(profile, algorithm, None, seed)
        .unwrap_or_else(|e| panic!("{algorithm} on {}: {e}", profile.name));
    sim.enable_probe();
    let stats = sim.run();
    (stats, sim.probe_report())
}

/// The paper's standard workload suite (11 SPLASH-2 apps + SPECjbb +
/// SPECweb).
pub fn paper_workloads() -> Vec<WorkloadProfile> {
    profiles::all()
}

/// Aggregates one metric of a result matrix per (algorithm, group).
///
/// `absolute` metrics (Figure 6) use the arithmetic mean over SPLASH-2;
/// normalized metrics (Figures 7–9) are first normalized to Lazy per
/// workload and then aggregated with the geometric mean, exactly as the
/// paper does.
pub fn aggregate<F>(
    results: &[CellResult],
    algorithms: &[Algorithm],
    metric: F,
    normalize_to_lazy: bool,
) -> BTreeMap<String, Vec<(&'static str, f64)>>
where
    F: Fn(&RunStats) -> f64,
{
    // metric per (workload -> algorithm) for normalization.
    let mut lazy_per_workload: BTreeMap<&str, f64> = BTreeMap::new();
    if normalize_to_lazy {
        for cell in results {
            if cell.algorithm == Algorithm::Lazy {
                lazy_per_workload.insert(&cell.workload, metric(&cell.stats));
            }
        }
    }
    let mut out = BTreeMap::new();
    for &algorithm in algorithms {
        let mut agg = GroupAggregator::new();
        for cell in results.iter().filter(|c| c.algorithm == algorithm) {
            let mut v = metric(&cell.stats);
            if normalize_to_lazy {
                let base = lazy_per_workload
                    .get(cell.workload.as_str())
                    .copied()
                    .expect("Lazy baseline present");
                v /= base;
            }
            agg.record(cell.group, v);
        }
        let rows = if normalize_to_lazy {
            agg.geomeans()
        } else {
            agg.means()
        };
        out.insert(algorithm.to_string(), rows);
    }
    out
}

/// Renders an aggregate as a paper-style table: one row per algorithm, one
/// column per workload group.
pub fn render_aggregate(
    title: &str,
    agg: &BTreeMap<String, Vec<(&'static str, f64)>>,
    algorithms: &[Algorithm],
) -> String {
    let mut table =
        flexsnoop_metrics::Table::with_columns(&["algorithm", "SPLASH-2", "SPECjbb", "SPECweb"]);
    for &alg in algorithms {
        let name = alg.to_string();
        let rows = &agg[&name];
        let get = |key: &str| {
            rows.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into())
        };
        table.row(vec![name, get("SPLASH-2"), get("SPECjbb"), get("SPECweb")]);
    }
    format!("{title}\n{}", table.render())
}

/// Runs a single sensitivity cell: one workload group under one algorithm
/// with an explicit predictor.
///
/// # Panics
///
/// Panics if the simulation fails to configure.
pub fn run_with_predictor(
    profile: &WorkloadProfile,
    algorithm: Algorithm,
    predictor: PredictorSpec,
    accesses: u64,
) -> RunStats {
    let profile = profile.clone().with_accesses(accesses);
    run_workload(&profile, algorithm, Some(predictor), SEED)
        .unwrap_or_else(|e| panic!("{algorithm}/{predictor} on {}: {e}", profile.name))
}

/// Runs one workload with a tweaked machine configuration (for ablations).
///
/// # Panics
///
/// Panics if the simulation fails to configure.
pub fn run_with_machine(
    profile: &WorkloadProfile,
    algorithm: Algorithm,
    accesses: u64,
    tweak: impl FnOnce(&mut flexsnoop::MachineConfig),
) -> RunStats {
    use flexsnoop_workload::AccessStream;
    let profile = profile.clone().with_accesses(accesses);
    let nodes = 8;
    assert!(
        profile.cores.is_multiple_of(nodes),
        "cores must divide nodes"
    );
    let mut machine = flexsnoop::MachineConfig::isca2006(profile.cores / nodes);
    tweak(&mut machine);
    let predictor = algorithm.default_predictor();
    let streams: Vec<Box<dyn AccessStream + Send>> = profile
        .streams(SEED)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
        .collect();
    let mut sim = flexsnoop::Simulator::new(
        machine,
        algorithm,
        predictor,
        flexsnoop::energy_model_for(&predictor),
        streams,
        profile.accesses_per_core,
    )
    .unwrap_or_else(|e| panic!("ablation config: {e}"));
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_pairs() {
        let workloads = vec![profiles::uniform_microbench(8, 200)];
        let algorithms = [Algorithm::Lazy, Algorithm::Eager];
        let cells = run_matrix(&workloads, &algorithms, 200, 1);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.stats.read_txns > 0));
    }

    #[test]
    fn instrumented_matrix_carries_probes_and_utilization() {
        let workloads = vec![profiles::uniform_microbench(8, 200)];
        let algorithms = [Algorithm::Lazy, Algorithm::SupersetCon];
        let (cells, exec) = run_matrix_instrumented(&workloads, &algorithms, 200, 1, true);
        assert_eq!(cells.len(), 2);
        assert_eq!(exec.total_tasks(), 2);
        assert!(!exec.workers.is_empty());
        assert!(cells.iter().all(|c| c.probe.is_some()), "probe requested");
        // Without the probe flag, cells carry no report.
        let (cells, _) = run_matrix_instrumented(&workloads, &algorithms, 200, 1, false);
        assert!(cells.iter().all(|c| c.probe.is_none()));
    }

    #[test]
    fn aggregation_normalizes_to_lazy() {
        let workloads = vec![profiles::uniform_microbench(8, 200)];
        let algorithms = [Algorithm::Lazy, Algorithm::Eager];
        let cells = run_matrix(&workloads, &algorithms, 200, 1);
        let agg = aggregate(&cells, &algorithms, |s| s.ring_hops_per_read(), true);
        let lazy = agg["Lazy"]
            .iter()
            .find(|(k, _)| *k == "SPLASH-2")
            .unwrap()
            .1;
        assert!((lazy - 1.0).abs() < 1e-9, "Lazy normalizes to itself");
        let eager = agg["Eager"]
            .iter()
            .find(|(k, _)| *k == "SPLASH-2")
            .unwrap()
            .1;
        assert!(eager > 1.5, "Eager ≈ 2x Lazy messages, got {eager}");
    }
}
