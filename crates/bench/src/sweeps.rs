//! Structured experiment sweeps behind the report generator: the Table 1
//! and Table 3 characterizations, the Figure 10 predictor-size
//! sensitivity study and the Figure 11 accuracy study.

use std::collections::BTreeMap;

use flexsnoop::{run_workload, Algorithm, GroupAggregator, PredictorSpec};
use flexsnoop_predictor::AccuracyStats;
use flexsnoop_workload::{profiles, WorkloadGroup, WorkloadProfile};

use crate::{run_with_predictor, SEED};

/// One row of Table 1: a baseline algorithm's characteristics under the
/// perfectly-uniform microbenchmark (one node can always supply).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The baseline algorithm.
    pub algorithm: Algorithm,
    /// Measured snoop operations per read request.
    pub snoops_per_request: f64,
    /// Measured ring messages per request, normalized to Lazy.
    pub msgs_x_lazy: f64,
    /// Mean read latency in cycles (unloaded-latency proxy).
    pub mean_read_latency: f64,
    /// The paper's analytical snoop count for N = 8 nodes.
    pub paper_snoops: &'static str,
    /// The paper's analytical message count (× Lazy).
    pub paper_msgs: &'static str,
}

/// Runs the Table 1 characterization: Lazy, Eager and Oracle on the
/// uniform microbenchmark at `accesses` per core.
///
/// # Panics
///
/// Panics if a simulation fails to configure.
pub fn table1_rows(accesses: u64) -> Vec<Table1Row> {
    let workload = profiles::uniform_microbench(8, accesses);
    let lazy_hops = run_workload(&workload, Algorithm::Lazy, None, SEED)
        .expect("lazy run")
        .ring_hops_per_read();
    [
        (Algorithm::Lazy, "(N-1)/2 = 3.5", "1.00"),
        (Algorithm::Eager, "N-1 = 7", "~2"),
        (Algorithm::Oracle, "1", "1.00"),
    ]
    .into_iter()
    .map(|(algorithm, paper_snoops, paper_msgs)| {
        let stats = run_workload(&workload, algorithm, None, SEED).expect("run");
        Table1Row {
            algorithm,
            snoops_per_request: stats.snoops_per_read(),
            msgs_x_lazy: stats.ring_hops_per_read() / lazy_hops,
            mean_read_latency: stats.read_latency.mean(),
            paper_snoops,
            paper_msgs,
        }
    })
    .collect()
}

/// One row of Table 3: an adaptive algorithm's error class and resulting
/// snoop/message counts on a sharing-heavy workload (barnes).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// The adaptive algorithm.
    pub algorithm: Algorithm,
    /// Observed predictor false positives.
    pub false_positives: u64,
    /// Observed predictor false negatives.
    pub false_negatives: u64,
    /// Measured snoop operations per read request.
    pub snoops_per_request: f64,
    /// `snoops_per_request` minus Lazy's (positive = more than Lazy).
    pub snoops_vs_lazy: f64,
    /// Ring messages per request, normalized to Lazy.
    pub msgs_x_lazy: f64,
}

/// Runs the Table 3 characterization: the four adaptive algorithms on
/// barnes at `accesses` per core, against a Lazy baseline.
///
/// # Panics
///
/// Panics if a simulation fails to configure.
pub fn table3_rows(accesses: u64) -> Vec<Table3Row> {
    let workload = profiles::splash2_apps()
        .into_iter()
        .next()
        .expect("barnes")
        .with_accesses(accesses);
    let lazy = run_workload(&workload, Algorithm::Lazy, None, SEED).expect("lazy");
    [
        Algorithm::Subset,
        Algorithm::SupersetCon,
        Algorithm::SupersetAgg,
        Algorithm::Exact,
    ]
    .into_iter()
    .map(|algorithm| {
        let s = run_workload(&workload, algorithm, None, SEED).expect("run");
        Table3Row {
            algorithm,
            false_positives: s.accuracy.false_positives,
            false_negatives: s.accuracy.false_negatives,
            snoops_per_request: s.snoops_per_read(),
            snoops_vs_lazy: s.snoops_per_read() - lazy.snoops_per_read(),
            msgs_x_lazy: s.ring_hops_per_read() / lazy.ring_hops_per_read(),
        }
    })
    .collect()
}

/// Renders Table 1 rows in the paper's layout (measured values with the
/// analytical expectations in parentheses).
pub fn render_table1(rows: &[Table1Row]) -> flexsnoop_metrics::Table {
    let mut table = flexsnoop_metrics::Table::with_columns(&[
        "algorithm",
        "snoops/request (paper)",
        "ring msgs/request, x Lazy (paper)",
        "mean unloaded latency [cyc]",
    ]);
    for r in rows {
        table.row(vec![
            r.algorithm.to_string(),
            format!("{:.2}  ({})", r.snoops_per_request, r.paper_snoops),
            format!("{:.2}  ({})", r.msgs_x_lazy, r.paper_msgs),
            format!("{:.0}", r.mean_read_latency),
        ]);
    }
    table
}

/// Renders Table 3 rows in the paper's layout.
pub fn render_table3(rows: &[Table3Row]) -> flexsnoop_metrics::Table {
    let mut table = flexsnoop_metrics::Table::with_columns(&[
        "algorithm",
        "FP observed",
        "FN observed",
        "snoops/request",
        "vs Lazy",
        "msgs/request (x Lazy)",
    ]);
    for r in rows {
        table.row(vec![
            r.algorithm.to_string(),
            r.false_positives.to_string(),
            r.false_negatives.to_string(),
            format!("{:.2}", r.snoops_per_request),
            format!("{:+.2}", r.snoops_vs_lazy),
            format!("{:.2}", r.msgs_x_lazy),
        ]);
    }
    table
}

/// The three Subset predictor sizes of §5.2.
pub const SUBSET_CONFIGS: [(&str, PredictorSpec); 3] = [
    ("Sub512", PredictorSpec::SUB512),
    ("Sub2k", PredictorSpec::SUB2K),
    ("Sub8k", PredictorSpec::SUB8K),
];

/// The three Superset predictor organizations of §5.2 (shared by the
/// conservative and aggressive algorithms).
pub const SUPERSET_CONFIGS: [(&str, PredictorSpec); 3] = [
    ("y512", PredictorSpec::SUP_Y512),
    ("y2k", PredictorSpec::SUP_Y2K),
    ("n2k", PredictorSpec::SUP_N2K),
];

/// The three Exact predictor sizes of §5.2.
pub const EXACT_CONFIGS: [(&str, PredictorSpec); 3] = [
    ("Exa512", PredictorSpec::EXA512),
    ("Exa2k", PredictorSpec::EXA2K),
    ("Exa8k", PredictorSpec::EXA8K),
];

/// The four (algorithm, predictor set) cases of Figure 10.
pub fn figure10_cases() -> [(Algorithm, &'static [(&'static str, PredictorSpec)]); 4] {
    [
        (Algorithm::Subset, &SUBSET_CONFIGS),
        (Algorithm::SupersetCon, &SUPERSET_CONFIGS),
        (Algorithm::SupersetAgg, &SUPERSET_CONFIGS),
        (Algorithm::Exact, &EXACT_CONFIGS),
    ]
}

/// Runs one algorithm over its predictor configurations and `workloads`
/// (the paper uses [`profiles::all`]); returns per-config execution
/// times per group, normalized to the middle (2K, §6.1 default)
/// configuration.
pub fn figure10_sweep(
    workloads: &[WorkloadProfile],
    algorithm: Algorithm,
    configs: &[(&str, PredictorSpec)],
    accesses: u64,
) -> Vec<(String, Vec<(&'static str, f64)>)> {
    let mut per_config: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    for (name, spec) in configs {
        let mut agg = GroupAggregator::new();
        let tasks: Vec<_> = workloads
            .iter()
            .map(|w| {
                move || {
                    (
                        w.group,
                        run_with_predictor(w, algorithm, *spec, accesses).exec_time(),
                    )
                }
            })
            .collect();
        for (group, exec) in flexsnoop_engine::Executor::with_default().run(tasks) {
            agg.record(group, exec);
        }
        per_config.push((name.to_string(), agg.means()));
    }
    let baseline: BTreeMap<&'static str, f64> = per_config[1].1.iter().copied().collect();
    for (_, rows) in &mut per_config {
        for (group, v) in rows.iter_mut() {
            *v /= baseline[group];
        }
    }
    per_config
}

/// The ten predictor configurations of Figure 11, each with the algorithm
/// that exercises it. The perfect predictor rides Oracle; the two
/// Superset algorithms behave very similarly, so (like the paper) only
/// the conservative one is measured.
pub fn figure11_configs() -> Vec<(&'static str, Algorithm, PredictorSpec)> {
    vec![
        ("Perfect", Algorithm::Oracle, PredictorSpec::Perfect),
        ("Sub512", Algorithm::Subset, PredictorSpec::SUB512),
        ("Sub2k", Algorithm::Subset, PredictorSpec::SUB2K),
        ("Sub8k", Algorithm::Subset, PredictorSpec::SUB8K),
        ("SupCy512", Algorithm::SupersetCon, PredictorSpec::SUP_Y512),
        ("SupCy2k", Algorithm::SupersetCon, PredictorSpec::SUP_Y2K),
        ("SupCn2k", Algorithm::SupersetCon, PredictorSpec::SUP_N2K),
        ("Exa512", Algorithm::Exact, PredictorSpec::EXA512),
        ("Exa2k", Algorithm::Exact, PredictorSpec::EXA2K),
        ("Exa8k", Algorithm::Exact, PredictorSpec::EXA8K),
    ]
}

/// Runs one (algorithm, predictor) pair over `workloads` (the paper uses
/// [`profiles::all`]), returning merged accuracy per workload group in
/// reporting order.
pub fn figure11_accuracy(
    workloads: &[WorkloadProfile],
    algorithm: Algorithm,
    spec: PredictorSpec,
    accesses: u64,
) -> Vec<(&'static str, AccuracyStats)> {
    let mut per_group: Vec<(&'static str, AccuracyStats)> = vec![
        ("SPLASH-2", AccuracyStats::default()),
        ("SPECjbb", AccuracyStats::default()),
        ("SPECweb", AccuracyStats::default()),
    ];
    let tasks: Vec<_> = workloads
        .iter()
        .map(|w| {
            move || {
                (
                    w.group,
                    run_with_predictor(w, algorithm, spec, accesses).accuracy,
                )
            }
        })
        .collect();
    for (group, acc) in flexsnoop_engine::Executor::with_default().run(tasks) {
        let idx = match group {
            WorkloadGroup::Splash2 => 0,
            WorkloadGroup::SpecJbb => 1,
            WorkloadGroup::SpecWeb => 2,
        };
        per_group[idx].1.merge(&acc);
    }
    per_group
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure10_normalizes_to_middle_config() {
        // A tiny sweep: the middle config must read exactly 1.0 per group.
        let rows = figure10_sweep(&profiles::all(), Algorithm::Subset, &SUBSET_CONFIGS, 300);
        assert_eq!(rows.len(), 3);
        for (group, v) in &rows[1].1 {
            assert!((v - 1.0).abs() < 1e-12, "{group}: {v}");
        }
    }

    #[test]
    fn table1_matches_paper_shape() {
        let rows = table1_rows(400);
        assert_eq!(rows.len(), 3);
        let lazy = &rows[0];
        let eager = &rows[1];
        let oracle = &rows[2];
        assert!((lazy.msgs_x_lazy - 1.0).abs() < 1e-12);
        assert!(eager.snoops_per_request > lazy.snoops_per_request);
        assert!(oracle.snoops_per_request < lazy.snoops_per_request);
        assert_eq!(render_table1(&rows).render().lines().count(), 3 + 2);
    }

    #[test]
    fn table3_error_classes_hold() {
        let rows = table3_rows(500);
        assert_eq!(rows.len(), 4);
        let by_alg = |a: Algorithm| rows.iter().find(|r| r.algorithm == a).unwrap();
        assert_eq!(by_alg(Algorithm::Subset).false_positives, 0);
        assert_eq!(by_alg(Algorithm::SupersetCon).false_negatives, 0);
        assert_eq!(by_alg(Algorithm::SupersetAgg).false_negatives, 0);
        assert_eq!(by_alg(Algorithm::Exact).false_positives, 0);
        assert_eq!(by_alg(Algorithm::Exact).false_negatives, 0);
        assert_eq!(render_table3(&rows).render().lines().count(), 4 + 2);
    }

    #[test]
    fn figure11_perfect_predictor_never_errs() {
        let rows = figure11_accuracy(
            &profiles::all(),
            Algorithm::Oracle,
            PredictorSpec::Perfect,
            300,
        );
        for (group, acc) in rows {
            assert_eq!(acc.false_positives, 0, "{group}");
            assert_eq!(acc.false_negatives, 0, "{group}");
            assert!(acc.total() > 0, "{group}");
        }
    }
}
