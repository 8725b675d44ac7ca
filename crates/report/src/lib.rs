//! The one-command paper-figure reproduction pipeline.
//!
//! [`generate`] runs the full Table 1 / Table 3 / Figure 6–11 sweep
//! matrix through the shared bounded executor and produces:
//!
//! * one versioned JSON artifact per section (`results/bench_<fig>.json`)
//!   carrying the schema id, a config fingerprint, the measured rows, and
//!   a single-line `"volatile"` object with the git SHA, timestamp and
//!   wall-clock throughput — strip it with `grep -v '"volatile":'` to
//!   diff artifacts across commits;
//! * the regenerated `results/report.md` with every paper-style table.
//!
//! Everything outside the `"volatile"` line is deterministic for a fixed
//! (scale, seed, workload set), so a second run produces byte-identical
//! output — that is what the CI staleness check relies on.
//!
//! The CLI front door is `flexsnoop report` (see `crates/cli`); `--smoke`
//! selects [`ReportScale::smoke`], `--probe` attaches the run-level
//! observability counters of [`flexsnoop::probe`] to the Figure 6
//! artifact, `--check` compares the regenerated report against the
//! committed copy instead of writing, and `--via-serve` routes the
//! Figure 6–9 matrix through the sweep service's scheduler and results
//! cache (`crates/serve`) — cache-sourced rows are byte-identical to
//! recomputed ones, so `--check` never reports false staleness and the
//! service's cache/dedup counters ride the volatile line only.

#![warn(missing_docs)]

pub mod scale;

// The emitter moved to `flexsnoop-metrics` so the sweep service can
// render NDJSON without depending on this crate; the old path stays.
pub use flexsnoop_metrics::json;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use flexsnoop::probe::ProbeReport;
use flexsnoop::{Algorithm, FaultPlan, Simulator, StallWindow, TimeoutPolicy};
use flexsnoop_bench::sweeps::{
    figure10_cases, figure10_sweep, figure11_accuracy, figure11_configs, render_table1,
    render_table3, table1_rows, table3_rows,
};
use flexsnoop_bench::{
    aggregate, paper_workloads, render_aggregate, run_matrix_instrumented, CellResult, SEED,
};
use flexsnoop_engine::{Cycle, Cycles};
use flexsnoop_metrics::{Histogram, Table};
use flexsnoop_serve::{ResultsCache, ServiceOptions, ServiceStats, SweepRequest, SweepService};
use flexsnoop_workload::WorkloadProfile;
use json::Json;

/// The artifact schema identifier; bump when the JSON layout changes.
pub const SCHEMA: &str = "flexsnoop-bench-artifact/v1";

/// How many accesses per core each sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportScale {
    /// Figure 6–11 sweeps (the paper matrix).
    pub figure_accesses: u64,
    /// Table 1 (uniform microbenchmark).
    pub table1_accesses: u64,
    /// Table 3 (barnes characterization).
    pub table3_accesses: u64,
}

impl ReportScale {
    /// The smoke scale: every section in well under two minutes, and the
    /// scale at which the committed `results/report.md` is generated.
    pub fn smoke() -> Self {
        Self {
            figure_accesses: 800,
            table1_accesses: 800,
            table3_accesses: 800,
        }
    }

    /// The full paper scale (`FIGURE_ACCESSES` for the figures; 4,000
    /// and 8,000 accesses per core for Tables 1 and 3, the scales
    /// EXPERIMENTS.md reports).
    pub fn full() -> Self {
        Self {
            figure_accesses: flexsnoop_bench::FIGURE_ACCESSES,
            table1_accesses: 4_000,
            table3_accesses: 8_000,
        }
    }

    fn label(&self) -> String {
        format!(
            "{} accesses/core (figures), {} (Table 1), {} (Table 3)",
            self.figure_accesses, self.table1_accesses, self.table3_accesses
        )
    }
}

/// What to run and where to write it.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Sweep sizes.
    pub scale: ReportScale,
    /// Attach per-algorithm probe counters to the Figure 6 artifact.
    pub probe: bool,
    /// Output directory for `report.md` and `bench_*.json`.
    pub out_dir: PathBuf,
    /// Workload subset override (`None` = the full paper suite). Used by
    /// the self-tests; the artifacts record which set ran.
    pub workloads: Option<Vec<WorkloadProfile>>,
    /// Route the Figure 6–9 matrix through the sweep service
    /// (`flexsnoop serve`'s scheduler and results cache) instead of the
    /// batch executor. Everything outside the volatile line is
    /// byte-identical either way; the volatile line swaps its executor
    /// block for the service's cache/dedup counters. Requires every
    /// workload in `workloads` to be a named built-in profile at its
    /// default shape (`accesses_per_core` is overridden by the scale).
    pub via_serve: bool,
    /// Persistent results-cache directory for `via_serve` runs
    /// (`None` = a fresh in-memory cache, i.e. no reuse across runs).
    pub serve_cache: Option<PathBuf>,
}

impl ReportOptions {
    /// Smoke-scale options writing to `results/`.
    pub fn smoke() -> Self {
        Self {
            scale: ReportScale::smoke(),
            probe: false,
            out_dir: PathBuf::from("results"),
            workloads: None,
            via_serve: false,
            serve_cache: None,
        }
    }

    /// Full-scale options writing to `results/`.
    pub fn full() -> Self {
        Self {
            scale: ReportScale::full(),
            ..Self::smoke()
        }
    }
}

/// One generated artifact: a file name plus its rendered JSON.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// File name relative to the output directory, e.g. `bench_fig6.json`.
    pub filename: String,
    /// The rendered JSON document (trailing newline included).
    pub contents: String,
}

/// Everything [`generate`] produced, still in memory.
#[derive(Debug, Clone)]
pub struct GeneratedReport {
    /// The regenerated `report.md` contents.
    pub report_md: String,
    /// The JSON artifacts in section order.
    pub artifacts: Vec<Artifact>,
    /// Human-readable one-line-per-section timing summary.
    pub summary: String,
}

impl GeneratedReport {
    /// Writes `report.md` and every artifact into `out_dir`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file that failed to write.
    pub fn write(&self, out_dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(out_dir)
            .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let report_path = out_dir.join("report.md");
        std::fs::write(&report_path, &self.report_md)
            .map_err(|e| format!("write {}: {e}", report_path.display()))?;
        for artifact in &self.artifacts {
            let path = out_dir.join(&artifact.filename);
            std::fs::write(&path, &artifact.contents)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Compares the regenerated `report.md` against the copy on disk.
    ///
    /// # Errors
    ///
    /// Returns a message when the committed report is missing or differs
    /// from regeneration (i.e. it is stale).
    pub fn check(&self, out_dir: &Path) -> Result<(), String> {
        let path = out_dir.join("report.md");
        let committed =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if committed == self.report_md {
            return Ok(());
        }
        let first_diff = committed
            .lines()
            .zip(self.report_md.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| {
                committed
                    .lines()
                    .count()
                    .min(self.report_md.lines().count())
                    + 1
            });
        Err(format!(
            "{} is stale: first difference at line {first_diff}; \
             regenerate with `cargo run --release -p flexsnoop-cli -- report --smoke`",
            path.display()
        ))
    }
}

/// Runs every sweep and assembles the report and artifacts in memory.
///
/// # Panics
///
/// Panics if any simulation fails to configure (a bug, not an
/// environment condition).
pub fn generate(opts: &ReportOptions) -> GeneratedReport {
    let volatile = VolatileContext::capture();
    let workloads = opts.workloads.clone().unwrap_or_else(paper_workloads);
    let scale = opts.scale;
    let mut sections: Vec<Section> = Vec::new();
    let mut summary = String::new();

    // Table 1.
    let t = Instant::now();
    let t1 = table1_rows(scale.table1_accesses);
    sections.push(Section {
        slug: "table1",
        heading: "Table 1 — baseline algorithm characteristics".into(),
        body: render_table1(&t1).render(),
        config: Json::obj([
            ("seed", Json::from(SEED)),
            ("accesses_per_core", Json::from(scale.table1_accesses)),
            ("workload", Json::str("uniform_microbench")),
        ]),
        rows: Json::arr(t1.iter().map(|r| {
            Json::obj([
                ("algorithm", Json::str(r.algorithm.to_string())),
                ("snoops_per_request", Json::from(r.snoops_per_request)),
                ("msgs_x_lazy", Json::from(r.msgs_x_lazy)),
                ("mean_read_latency", Json::from(r.mean_read_latency)),
                ("paper_snoops", Json::str(r.paper_snoops)),
                ("paper_msgs", Json::str(r.paper_msgs)),
            ])
        })),
        extra: Vec::new(),
        volatile_extra: Vec::new(),
        wall_ms: t.elapsed().as_millis() as u64,
    });
    note(&mut summary, "table1", t.elapsed().as_millis());

    // Table 3.
    let t = Instant::now();
    let t3 = table3_rows(scale.table3_accesses);
    sections.push(Section {
        slug: "table3",
        heading: "Table 3 — adaptive algorithm characterization".into(),
        body: render_table3(&t3).render(),
        config: Json::obj([
            ("seed", Json::from(SEED)),
            ("accesses_per_core", Json::from(scale.table3_accesses)),
            ("workload", Json::str("barnes")),
        ]),
        rows: Json::arr(t3.iter().map(|r| {
            Json::obj([
                ("algorithm", Json::str(r.algorithm.to_string())),
                ("false_positives", Json::from(r.false_positives)),
                ("false_negatives", Json::from(r.false_negatives)),
                ("snoops_per_request", Json::from(r.snoops_per_request)),
                ("snoops_vs_lazy", Json::from(r.snoops_vs_lazy)),
                ("msgs_x_lazy", Json::from(r.msgs_x_lazy)),
            ])
        })),
        extra: Vec::new(),
        volatile_extra: Vec::new(),
        wall_ms: t.elapsed().as_millis() as u64,
    });
    note(&mut summary, "table3", t.elapsed().as_millis());

    // Figures 6–9 share one matrix. `--via-serve` routes it through the
    // sweep service (scheduler + results cache) instead of the batch
    // executor; the cells are byte-identical either way, so only the
    // volatile line knows which path ran.
    let t = Instant::now();
    let algorithms = Algorithm::PAPER_SET;
    let (cells, matrix_source_volatile) = if opts.via_serve {
        let (cells, stats) =
            run_matrix_via_serve(&workloads, &algorithms, scale.figure_accesses, opts);
        (cells, serve_volatile(&stats))
    } else {
        let (cells, exec) = run_matrix_instrumented(
            &workloads,
            &algorithms,
            scale.figure_accesses,
            SEED,
            opts.probe,
        );
        (cells, executor_volatile(&exec))
    };
    let matrix_wall = t.elapsed();
    let matrix_events: u64 = cells.iter().map(|c| c.stats.events).sum();
    let events_per_sec = matrix_events as f64 / matrix_wall.as_secs_f64().max(1e-9);
    note(&mut summary, "figure matrix (6-9)", matrix_wall.as_millis());

    let matrix_config = |figure_metric: &str| {
        Json::obj([
            ("seed", Json::from(SEED)),
            ("accesses_per_core", Json::from(scale.figure_accesses)),
            ("metric", Json::str(figure_metric)),
            (
                "algorithms",
                Json::arr(algorithms.iter().map(|a| Json::str(a.to_string()))),
            ),
            (
                "workloads",
                Json::arr(workloads.iter().map(|w| Json::str(w.name.clone()))),
            ),
        ])
    };
    // Throughput and the run-path counters (executor utilization, or the
    // serve cache/dedup tallies) are either timing-derived or reflect
    // cache warmth, so they ride the volatile line; the deterministic
    // `events` total stays a regular field.
    let mut matrix_volatile = vec![("events_per_sec".to_string(), Json::from(events_per_sec))];
    matrix_volatile.extend(matrix_source_volatile);
    let matrix_extra = |probe_data: Option<Json>| {
        let mut extra = vec![("events".to_string(), Json::from(matrix_events))];
        if let Some(rows) = probe_data {
            extra.push(("probe".to_string(), rows));
        }
        extra
    };

    type Metric = fn(&flexsnoop::RunStats) -> f64;
    let figures: [(&'static str, String, Metric, bool); 4] = [
        (
            "fig6",
            "Figure 6 — snoops per read request (absolute)".into(),
            |s| s.snoops_per_read(),
            false,
        ),
        (
            "fig7",
            "Figure 7 — ring read messages (x Lazy)".into(),
            |s| s.read_ring_hops as f64,
            true,
        ),
        (
            "fig8",
            "Figure 8 — execution time (x Lazy)".into(),
            |s| s.exec_time(),
            true,
        ),
        (
            "fig9",
            "Figure 9 — snoop energy (x Lazy)".into(),
            |s| s.energy_nj(),
            true,
        ),
    ];
    for (slug, heading, metric, norm) in figures {
        let agg = aggregate(&cells, &algorithms, metric, norm);
        let rows = Json::arr(algorithms.iter().map(|alg| {
            let groups = &agg[&alg.to_string()];
            let mut pairs = vec![("algorithm".to_string(), Json::str(alg.to_string()))];
            for (group, v) in groups {
                pairs.push((group.to_string(), Json::from(*v)));
            }
            Json::Obj(pairs)
        }));
        // Probe counters ride the Figure 6 artifact: one aggregate per
        // algorithm across the whole workload suite.
        let probe_data = (slug == "fig6" && opts.probe).then(|| probe_rows(&cells, &algorithms));
        sections.push(Section {
            slug,
            heading,
            body: render_aggregate("", &agg, &algorithms)
                .trim_start_matches('\n')
                .to_string(),
            config: matrix_config(slug),
            rows,
            extra: matrix_extra(probe_data),
            volatile_extra: matrix_volatile.clone(),
            wall_ms: matrix_wall.as_millis() as u64,
        });
    }

    // Figure 10.
    let t = Instant::now();
    let mut t10 =
        Table::with_columns(&["algorithm", "predictor", "SPLASH-2", "SPECjbb", "SPECweb"]);
    let mut f10_rows = Vec::new();
    for (algorithm, configs) in figure10_cases() {
        for (name, groups) in figure10_sweep(&workloads, algorithm, configs, scale.figure_accesses)
        {
            let get = |key: &str| {
                groups
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".into())
            };
            t10.row(vec![
                algorithm.to_string(),
                name.clone(),
                get("SPLASH-2"),
                get("SPECjbb"),
                get("SPECweb"),
            ]);
            let mut pairs = vec![
                ("algorithm".to_string(), Json::str(algorithm.to_string())),
                ("predictor".to_string(), Json::str(name)),
            ];
            for (group, v) in groups {
                pairs.push((group.to_string(), Json::from(v)));
            }
            f10_rows.push(Json::Obj(pairs));
        }
    }
    sections.push(Section {
        slug: "fig10",
        heading: "Figure 10 — predictor-size sensitivity (x the 2K config)".into(),
        body: t10.render(),
        config: Json::obj([
            ("seed", Json::from(SEED)),
            ("accesses_per_core", Json::from(scale.figure_accesses)),
            (
                "workloads",
                Json::arr(workloads.iter().map(|w| Json::str(w.name.clone()))),
            ),
        ]),
        rows: Json::Arr(f10_rows),
        extra: Vec::new(),
        volatile_extra: Vec::new(),
        wall_ms: t.elapsed().as_millis() as u64,
    });
    note(&mut summary, "figure 10", t.elapsed().as_millis());

    // Figure 11.
    let t = Instant::now();
    let mut t11 = Table::with_columns(&["predictor", "group", "TP", "TN", "FP", "FN"]);
    let mut f11_rows = Vec::new();
    for (name, algorithm, spec) in figure11_configs() {
        for (group, acc) in figure11_accuracy(&workloads, algorithm, spec, scale.figure_accesses) {
            t11.row(vec![
                name.to_string(),
                group.to_string(),
                format!("{:.3}", acc.fraction_true_positive()),
                format!("{:.3}", acc.fraction_true_negative()),
                format!("{:.3}", acc.fraction_false_positive()),
                format!("{:.3}", acc.fraction_false_negative()),
            ]);
            f11_rows.push(Json::obj([
                ("predictor", Json::str(name)),
                ("group", Json::str(group)),
                ("true_positive", Json::from(acc.fraction_true_positive())),
                ("true_negative", Json::from(acc.fraction_true_negative())),
                ("false_positive", Json::from(acc.fraction_false_positive())),
                ("false_negative", Json::from(acc.fraction_false_negative())),
            ]));
        }
    }
    sections.push(Section {
        slug: "fig11",
        heading: "Figure 11 — predictor accuracy".into(),
        body: t11.render(),
        config: Json::obj([
            ("seed", Json::from(SEED)),
            ("accesses_per_core", Json::from(scale.figure_accesses)),
            (
                "workloads",
                Json::arr(workloads.iter().map(|w| Json::str(w.name.clone()))),
            ),
        ]),
        rows: Json::Arr(f11_rows),
        extra: Vec::new(),
        volatile_extra: Vec::new(),
        wall_ms: t.elapsed().as_millis() as u64,
    });
    note(&mut summary, "figure 11", t.elapsed().as_millis());

    // Recovery — the congested static-vs-EWMA timeout sweep.
    let t = Instant::now();
    let rec = recovery_rows(scale.figure_accesses);
    let mut trec = Table::with_columns(&[
        "algorithm",
        "policy",
        "timeouts",
        "retries",
        "spurious",
        "rtt-samples",
        "exec-cycles",
    ]);
    for r in &rec {
        trec.row(vec![
            r.algorithm.to_string(),
            r.policy.to_string(),
            r.timeouts.to_string(),
            r.retries.to_string(),
            r.spurious_retries.to_string(),
            r.rtt_samples.to_string(),
            r.exec_cycles.to_string(),
        ]);
    }
    sections.push(Section {
        slug: "recovery",
        heading: "Recovery — spurious retries under congestion, static vs EWMA timeouts".into(),
        body: trec.render(),
        config: Json::obj([
            ("seed", Json::from(SEED)),
            ("accesses_per_core", Json::from(scale.figure_accesses)),
            ("workload", Json::str(RECOVERY_WORKLOAD)),
            ("plan", Json::str(recovery_plan().describe())),
        ]),
        rows: Json::arr(rec.iter().map(|r| {
            Json::obj([
                ("algorithm", Json::str(r.algorithm.to_string())),
                ("policy", Json::str(r.policy)),
                ("timeouts", Json::from(r.timeouts)),
                ("retries", Json::from(r.retries)),
                ("spurious_retries", Json::from(r.spurious_retries)),
                ("rtt_samples", Json::from(r.rtt_samples)),
                ("exec_cycles", Json::from(r.exec_cycles)),
                ("violations", Json::from(r.violations)),
                ("in_flight", Json::from(r.in_flight)),
            ])
        })),
        extra: Vec::new(),
        volatile_extra: Vec::new(),
        wall_ms: t.elapsed().as_millis() as u64,
    });
    note(&mut summary, "recovery sweep", t.elapsed().as_millis());

    // Hierarchy — flat vs hierarchical multi-ring at 16–64 nodes.
    let t = Instant::now();
    let hier = hierarchy_rows(scale.figure_accesses);
    let mut thier = Table::with_columns(&[
        "nodes",
        "topology",
        "snoops/read",
        "hops/read",
        "bridge-hops",
        "exec-cycles",
        "energy-nj",
        "recovery-nj",
        "local",
        "global",
        "escalations",
    ]);
    for r in &hier {
        thier.row(vec![
            r.nodes.to_string(),
            r.topology.clone(),
            format!("{:.3}", r.snoops_per_read),
            format!("{:.3}", r.hops_per_read),
            r.bridge_hops.to_string(),
            r.exec_cycles.to_string(),
            format!("{:.1}", r.energy_nj),
            format!("{:.1}", r.recovery_overhead_nj),
            r.local_circulations.to_string(),
            r.global_circulations.to_string(),
            r.escalations.to_string(),
        ]);
    }
    sections.push(Section {
        slug: "hierarchy",
        heading: "Hierarchy — flat vs multi-ring topologies, locality-aware circulation".into(),
        body: thier.render(),
        config: Json::obj([
            ("seed", Json::from(SEED)),
            ("accesses_per_core", Json::from(scale.figure_accesses)),
            ("workload", Json::str(HIERARCHY_WORKLOAD)),
            ("cluster", Json::str("local-ring size")),
            ("algorithm", Json::str(Algorithm::Subset.to_string())),
            (
                "shapes",
                Json::arr(
                    HIERARCHY_SHAPES
                        .iter()
                        .map(|(l, g)| Json::str(format!("{l}x{g}"))),
                ),
            ),
            ("lossy_plan", Json::str(hierarchy_plan().describe())),
        ]),
        rows: Json::arr(hier.iter().map(|r| {
            Json::obj([
                ("nodes", Json::from(r.nodes as u64)),
                ("topology", Json::str(r.topology.clone())),
                ("snoops_per_read", Json::from(r.snoops_per_read)),
                ("ring_hops_per_read", Json::from(r.hops_per_read)),
                ("bridge_hops", Json::from(r.bridge_hops)),
                ("exec_cycles", Json::from(r.exec_cycles)),
                ("mean_read_latency", Json::from(r.mean_read_latency)),
                ("energy_nj", Json::from(r.energy_nj)),
                ("recovery_overhead_nj", Json::from(r.recovery_overhead_nj)),
                ("local_circulations", Json::from(r.local_circulations)),
                ("global_circulations", Json::from(r.global_circulations)),
                ("escalations", Json::from(r.escalations)),
                ("retries", Json::from(r.retries)),
                ("violations", Json::from(r.violations)),
                ("in_flight", Json::from(r.in_flight)),
            ])
        })),
        extra: Vec::new(),
        volatile_extra: Vec::new(),
        wall_ms: t.elapsed().as_millis() as u64,
    });
    note(&mut summary, "hierarchy sweep", t.elapsed().as_millis());

    // Assemble report.md (deterministic: no timings, no SHA).
    let mut report_md = String::new();
    let _ = writeln!(
        report_md,
        "# flexsnoop measured report\n\nSeed {SEED}; {}.\n\nGenerated by \
         `flexsnoop report` — do not hand-edit; see the matching \
         `bench_*.json` artifacts for machine-readable rows.\n",
        scale.label()
    );
    for section in &sections {
        let _ = writeln!(report_md, "## {}\n\n```", section.heading);
        let _ = write!(report_md, "{}", section.body);
        let _ = writeln!(report_md, "```\n");
    }

    let artifacts = sections.iter().map(|s| s.to_artifact(&volatile)).collect();

    GeneratedReport {
        report_md,
        artifacts,
        summary,
    }
}

/// Workload driving the recovery congestion sweep.
const RECOVERY_WORKLOAD: &str = "specweb";

/// One measured cell of the recovery sweep.
#[derive(Debug, Clone)]
struct RecoveryRow {
    algorithm: Algorithm,
    policy: &'static str,
    timeouts: u64,
    retries: u64,
    spurious_retries: u64,
    rtt_samples: u64,
    exec_cycles: u64,
    violations: u64,
    in_flight: u64,
}

/// The fixed congested-but-lossless schedule of the recovery sweep: no
/// message is ever lost, but heavy injected delays plus rolling node
/// stalls push round trips far past the static timeout's fixed queueing
/// slack. Every timeout the static policy fires here is premature by
/// construction; the EWMA policy should learn the congestion and fire
/// (far) fewer.
fn recovery_plan() -> FaultPlan {
    let mut plan = FaultPlan::lossless();
    plan.seed = 0x0C0261257;
    plan.delay = 0.45;
    plan.delay_max = Cycles(900);
    plan.budget = u64::MAX;
    for (i, node) in [1usize, 3, 5, 7].into_iter().enumerate() {
        let from = Cycle::new(2_000 + 9_000 * i as u64);
        plan.stalls.push(StallWindow {
            node,
            from,
            until: from + Cycles(4_000),
        });
    }
    plan
}

/// Runs the Table 3 algorithms under [`recovery_plan`] twice each —
/// static and EWMA requester timeouts, interleaved so the two policies
/// of one algorithm always run back to back on an identical setup.
fn recovery_rows(accesses: u64) -> Vec<RecoveryRow> {
    const POLICIES: [(TimeoutPolicy, &str); 2] = [
        (TimeoutPolicy::Static, "static"),
        (TimeoutPolicy::Adaptive, "ewma"),
    ];
    let algorithms = [
        Algorithm::Subset,
        Algorithm::SupersetCon,
        Algorithm::SupersetAgg,
        Algorithm::Exact,
    ];
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(accesses);
    let plan = recovery_plan();
    let mut rows = Vec::new();
    for alg in algorithms {
        for (policy, label) in POLICIES {
            let mut sim = Simulator::for_workload(&profile, alg, None, SEED)
                .unwrap_or_else(|e| panic!("recovery sweep {alg}: {e}"));
            sim.set_timeout_policy(policy);
            sim.enable_invariant_checks();
            sim.set_fault_plan(plan.clone());
            let stats = sim.run();
            rows.push(RecoveryRow {
                algorithm: alg,
                policy: label,
                timeouts: stats.robustness.timeouts,
                retries: stats.robustness.retries,
                spurious_retries: stats.robustness.spurious_retries,
                rtt_samples: stats.robustness.rtt_samples,
                exec_cycles: stats.exec_cycles.as_u64(),
                violations: sim.violations().len() as u64,
                in_flight: sim.in_flight() as u64 + stats.robustness.unfinished_cores,
            });
        }
    }
    rows
}

/// Workload driving the hierarchy comparison sweep: the consolidated
/// profile with its shared pools clustered at the local-ring size, so
/// suppliers sit inside the requester's group — the sharing structure
/// the locality table exists to exploit. The flat baseline runs the
/// *identical* clustered workload; only the topology differs.
const HIERARCHY_WORKLOAD: &str = "consolidated";

/// The `local × groups` shapes of the hierarchy sweep (16–64 nodes).
const HIERARCHY_SHAPES: [(usize, usize); 3] = [(4, 4), (8, 4), (8, 8)];

/// One measured cell of the hierarchy sweep.
#[derive(Debug, Clone)]
struct HierarchyRow {
    nodes: usize,
    /// `flat`, `hier:<local>x<groups>` or `hier-lossy:<local>x<groups>`.
    topology: String,
    snoops_per_read: f64,
    hops_per_read: f64,
    bridge_hops: u64,
    exec_cycles: u64,
    mean_read_latency: f64,
    energy_nj: f64,
    /// Energy spent on timeout-retried circulations (ring-link hops of
    /// superseded attempts × the per-hop link energy) — the fault-aware
    /// split charges these to recovery overhead, not to the protocol.
    recovery_overhead_nj: f64,
    local_circulations: u64,
    global_circulations: u64,
    escalations: u64,
    retries: u64,
    violations: u64,
    in_flight: u64,
}

/// The fixed lossy-bridge schedule of the hierarchy sweep: a bounded
/// number of global-ring crossings are dropped, forcing timeout retries
/// whose hops land in [`flexsnoop::RunStats::retry_ring_hops`].
fn hierarchy_plan() -> FaultPlan {
    let mut plan = FaultPlan::lossless();
    plan.seed = 0xB21D_6E5A;
    plan.bridge_drop = 0.25;
    plan.bridge_budget = 30;
    plan
}

/// Accesses per core for a hierarchy run of `nodes` cores: the sweep
/// holds total work roughly constant across sizes (the 8-node figure
/// budget spread over `nodes` requesters), never fewer than 8 so every
/// size still exercises sharing and re-reads.
fn hierarchy_accesses(nodes: usize, accesses: u64) -> u64 {
    (accesses * 8 / nodes as u64).max(8)
}

/// Runs the flat ring, the hierarchical ring, and the hierarchical ring
/// under the lossy-bridge plan for each [`HIERARCHY_SHAPES`] entry, all
/// on the identical workload (one core per node, same seed).
fn hierarchy_rows(accesses: u64) -> Vec<HierarchyRow> {
    let algorithm = Algorithm::Subset;
    let mut rows = Vec::new();
    for (local, groups) in HIERARCHY_SHAPES {
        let nodes = local * groups;
        let profile = flexsnoop_workload::profiles::consolidated()
            .with_cores(nodes)
            .with_cluster(local)
            .with_accesses(hierarchy_accesses(nodes, accesses));
        let variants: [(String, Option<FaultPlan>, bool); 3] = [
            ("flat".into(), None, false),
            (format!("hier:{local}x{groups}"), None, true),
            (
                format!("hier-lossy:{local}x{groups}"),
                Some(hierarchy_plan()),
                true,
            ),
        ];
        for (topology, plan, hier) in variants {
            let mut sim = if hier {
                Simulator::for_workload_hier(&profile, algorithm, None, SEED, local, groups)
            } else {
                Simulator::for_workload_on(&profile, algorithm, None, SEED, nodes)
            }
            .unwrap_or_else(|e| panic!("hierarchy sweep {topology}: {e}"));
            sim.enable_invariant_checks();
            if let Some(plan) = plan {
                sim.set_fault_plan(plan);
            }
            let stats = sim.run();
            rows.push(HierarchyRow {
                nodes,
                topology,
                snoops_per_read: stats.snoops_per_read(),
                hops_per_read: stats.ring_hops_per_read(),
                bridge_hops: stats.bridge_hops,
                exec_cycles: stats.exec_cycles.as_u64(),
                mean_read_latency: stats.read_latency.mean(),
                energy_nj: stats.energy_nj(),
                recovery_overhead_nj: stats.retry_ring_hops as f64
                    * stats.energy.model().ring_link_nj,
                local_circulations: stats.local_circulations,
                global_circulations: stats.global_circulations,
                escalations: stats.escalations,
                retries: stats.robustness.retries,
                violations: sim.violations().len() as u64,
                in_flight: sim.in_flight() as u64 + stats.robustness.unfinished_cores,
            });
        }
    }
    rows
}

/// The matrix volatile-line block for direct (batch-executor) runs.
fn executor_volatile(exec: &flexsnoop_engine::ExecutorStats) -> Vec<(String, Json)> {
    vec![(
        "executor".to_string(),
        Json::inline_obj([
            ("workers", Json::from(exec.workers.len())),
            ("tasks", Json::from(exec.total_tasks())),
            ("mean_utilization", Json::from(exec.mean_utilization())),
            (
                "per_worker",
                Json::arr(exec.workers.iter().map(|w| {
                    Json::inline_obj([
                        ("tasks", Json::from(w.tasks)),
                        (
                            "utilization",
                            Json::from(if exec.wall.is_zero() {
                                0.0
                            } else {
                                (w.busy.as_secs_f64() / exec.wall.as_secs_f64()).min(1.0)
                            }),
                        ),
                    ])
                })),
            ),
            ("wall_ms", Json::from(exec.wall.as_millis() as u64)),
        ]),
    )]
}

/// The matrix volatile-line block for `--via-serve` runs. Cache warmth
/// legitimately varies between runs of identical code (a warm persistent
/// cache answers every job without executing), which is exactly the
/// definition of volatile — so these counters must never leak into the
/// deterministic fields.
fn serve_volatile(stats: &ServiceStats) -> Vec<(String, Json)> {
    vec![(
        "serve".to_string(),
        Json::inline_obj([
            ("executed", Json::from(stats.executed)),
            ("coalesced", Json::from(stats.coalesced)),
            ("failed", Json::from(stats.failed)),
            ("cache_hits", Json::from(stats.cache.hits)),
            ("cache_misses", Json::from(stats.cache.misses)),
            ("cache_stores", Json::from(stats.cache.stores)),
        ]),
    )]
}

/// Maps a matrix [`Algorithm`] back to its CLI/serve spelling.
fn serve_algorithm_name(alg: Algorithm) -> String {
    flexsnoop_serve::names::algorithm_names()
        .into_iter()
        .find(|&(_, a)| a == alg)
        .map(|(name, _)| name.to_string())
        .unwrap_or_else(|| panic!("algorithm {alg} has no serve name"))
}

/// Runs the Figure 6–9 matrix through a [`SweepService`] and reassembles
/// the cells [`run_matrix_instrumented`] would have produced: same
/// workload-major order, same per-cell statistics (the service rebuilds
/// each simulation from the identical `(profile, algorithm, seed)`
/// triple on the default 8-node machine). Only the returned service
/// counters vary run to run — with a warm [`ReportOptions::serve_cache`]
/// every cell is answered from the cache without executing.
fn run_matrix_via_serve(
    workloads: &[WorkloadProfile],
    algorithms: &[Algorithm],
    accesses: u64,
    opts: &ReportOptions,
) -> (Vec<CellResult>, ServiceStats) {
    let cache = match &opts.serve_cache {
        Some(dir) => ResultsCache::persistent(dir)
            .unwrap_or_else(|e| panic!("open results cache {}: {e}", dir.display())),
        None => ResultsCache::in_memory(),
    };
    let service = SweepService::new(ServiceOptions::default(), cache);
    let request = SweepRequest {
        workloads: workloads.iter().map(|w| w.name.clone()).collect(),
        algorithms: algorithms
            .iter()
            .map(|&a| serve_algorithm_name(a))
            .collect(),
        seeds: vec![SEED],
        accesses,
        probe: opts.probe,
        ..SweepRequest::default()
    };
    let submission = service
        .submit(&request)
        .unwrap_or_else(|e| panic!("via-serve submission rejected: {e}"));
    let specs = submission.specs.clone();
    let outputs = submission
        .collect()
        .outputs(&specs)
        .unwrap_or_else(|e| panic!("via-serve job failed: {e}"));
    let mut outputs = outputs.into_iter();
    let mut cells = Vec::with_capacity(specs.len());
    for profile in workloads {
        for &algorithm in algorithms {
            let out = outputs
                .next()
                .expect("sweep expansion shorter than the matrix");
            cells.push(CellResult {
                workload: profile.name.clone(),
                group: profile.group,
                algorithm,
                stats: out.stats,
                probe: out.probe,
            });
        }
    }
    let stats = service.stats();
    (cells, stats)
}

/// One report section, pre-assembly.
struct Section {
    slug: &'static str,
    heading: String,
    body: String,
    config: Json,
    rows: Json,
    /// Deterministic extra top-level fields (e.g. `events`, `probe`).
    extra: Vec<(String, Json)>,
    /// Timing-derived fields appended to the single-line volatile object.
    volatile_extra: Vec<(String, Json)>,
    wall_ms: u64,
}

impl Section {
    fn to_artifact(&self, volatile: &VolatileContext) -> Artifact {
        let fingerprint = {
            let canonical = format!("{SCHEMA}/{}/{}", self.slug, self.config.render());
            format!("{:016x}", fnv1a64(canonical.as_bytes()))
        };
        let mut config_pairs = match &self.config {
            Json::Obj(pairs) => pairs.clone(),
            other => vec![("value".to_string(), other.clone())],
        };
        config_pairs.push(("fingerprint".to_string(), Json::Str(fingerprint)));
        let mut volatile_pairs = vec![
            ("git_sha".to_string(), Json::str(volatile.git_sha.clone())),
            (
                "generated_unix_ms".to_string(),
                Json::from(volatile.unix_ms),
            ),
            ("wall_ms".to_string(), Json::from(self.wall_ms)),
        ];
        volatile_pairs.extend(self.volatile_extra.iter().cloned());
        let mut doc = vec![
            ("schema".to_string(), Json::str(SCHEMA)),
            ("figure".to_string(), Json::str(self.slug)),
            ("title".to_string(), Json::str(self.heading.clone())),
            ("config".to_string(), Json::Obj(config_pairs)),
            ("volatile".to_string(), Json::InlineObj(volatile_pairs)),
        ];
        for (k, v) in &self.extra {
            doc.push((k.clone(), v.clone()));
        }
        doc.push(("rows".to_string(), self.rows.clone()));
        Artifact {
            filename: format!("bench_{}.json", self.slug),
            contents: format!("{}\n", Json::Obj(doc).render()),
        }
    }
}

/// Fields that legitimately change between runs of identical code.
struct VolatileContext {
    git_sha: String,
    unix_ms: u64,
}

impl VolatileContext {
    fn capture() -> Self {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self { git_sha, unix_ms }
    }
}

/// Per-algorithm probe aggregates across the whole matrix.
fn probe_rows(cells: &[CellResult], algorithms: &[Algorithm]) -> Json {
    Json::arr(algorithms.iter().map(|&alg| {
        let mut total = ProbeReport::default();
        let mut events = 0;
        for cell in cells.iter().filter(|c| c.algorithm == alg) {
            let Some(p) = &cell.probe else { continue };
            events += cell.stats.events;
            total.forwards += p.forwards;
            total.forward_then_snoop += p.forward_then_snoop;
            total.snoop_then_forward += p.snoop_then_forward;
            total.write_filter_hits += p.write_filter_hits;
            total.write_filter_misses += p.write_filter_misses;
            total.predictor_lookups += p.predictor_lookups;
            total.predictor_positive += p.predictor_positive;
            total.predictor_trains += p.predictor_trains;
            total.queue_depth_high_water =
                total.queue_depth_high_water.max(p.queue_depth_high_water);
            total.ring_hop_latency.merge(&p.ring_hop_latency);
            // Footprints are per-run peaks, not additive across cells.
            total.bytes_per_node = total.bytes_per_node.max(p.bytes_per_node);
            total.footprint_total_bytes = total.footprint_total_bytes.max(p.footprint_total_bytes);
        }
        let mut pairs = vec![("algorithm".to_string(), Json::str(alg.to_string()))];
        match probe_json(&total, events) {
            Json::Obj(fields) => pairs.extend(fields),
            other => pairs.push(("probe".to_string(), other)),
        }
        Json::Obj(pairs)
    }))
}

/// Serializes one [`ProbeReport`] plus the `events` its runs dispatched
/// (from [`flexsnoop::RunStats`]; deterministic: counters only).
fn probe_json(p: &ProbeReport, events: u64) -> Json {
    Json::obj([
        ("forwards", Json::from(p.forwards)),
        ("forward_then_snoop", Json::from(p.forward_then_snoop)),
        ("snoop_then_forward", Json::from(p.snoop_then_forward)),
        ("write_filter_hits", Json::from(p.write_filter_hits)),
        ("write_filter_misses", Json::from(p.write_filter_misses)),
        ("predictor_lookups", Json::from(p.predictor_lookups)),
        ("predictor_positive", Json::from(p.predictor_positive)),
        ("predictor_trains", Json::from(p.predictor_trains)),
        ("events", Json::from(events)),
        (
            "queue_depth_high_water",
            Json::from(p.queue_depth_high_water),
        ),
        ("ring_hop_latency", histogram_json(&p.ring_hop_latency)),
        // `peak_rss_bytes` is deliberately absent: it is volatile and
        // this section must stay deterministic across runs.
        ("bytes_per_node", Json::from(p.bytes_per_node)),
        ("footprint_total_bytes", Json::from(p.footprint_total_bytes)),
    ])
}

/// Serializes a latency histogram as its summary statistics.
fn histogram_json(h: &Histogram) -> Json {
    Json::inline_obj([
        ("count", Json::from(h.count())),
        ("mean", Json::from(h.mean())),
        ("min", h.min().map(Json::UInt).unwrap_or(Json::Null)),
        ("max", h.max().map(Json::UInt).unwrap_or(Json::Null)),
        (
            "p50",
            h.percentile(0.50).map(Json::UInt).unwrap_or(Json::Null),
        ),
        (
            "p95",
            h.percentile(0.95).map(Json::UInt).unwrap_or(Json::Null),
        ),
        (
            "p99",
            h.percentile(0.99).map(Json::UInt).unwrap_or(Json::Null),
        ),
    ])
}

fn note(summary: &mut String, what: &str, ms: u128) {
    let _ = writeln!(summary, "{what}: {ms} ms");
}

/// FNV-1a 64-bit, used for the config fingerprint (stable across runs
/// and platforms; not cryptographic).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Strips every line carrying a `"volatile"` object, for byte-comparing
/// two artifacts across runs or commits.
pub fn strip_volatile(artifact: &str) -> String {
    artifact
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"volatile\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsnoop_workload::profiles;

    fn tiny_options() -> ReportOptions {
        ReportOptions {
            scale: ReportScale {
                figure_accesses: 60,
                table1_accesses: 60,
                table3_accesses: 60,
            },
            probe: false,
            out_dir: PathBuf::from("results"),
            workloads: Some(vec![profiles::specjbb(), profiles::specweb()]),
            ..ReportOptions::smoke()
        }
    }

    #[test]
    fn generates_ten_sections_and_artifacts() {
        let report = generate(&tiny_options());
        assert_eq!(report.artifacts.len(), 10);
        assert_eq!(report.report_md.matches("\n## ").count(), 10);
        let names: Vec<&str> = report
            .artifacts
            .iter()
            .map(|a| a.filename.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "bench_table1.json",
                "bench_table3.json",
                "bench_fig6.json",
                "bench_fig7.json",
                "bench_fig8.json",
                "bench_fig9.json",
                "bench_fig10.json",
                "bench_fig11.json",
                "bench_recovery.json",
                "bench_hierarchy.json",
            ]
        );
        for a in &report.artifacts {
            assert!(a.contents.contains(SCHEMA), "{} has schema", a.filename);
            assert!(
                a.contents.contains("\"fingerprint\""),
                "{} has fingerprint",
                a.filename
            );
            let volatile_lines = a
                .contents
                .lines()
                .filter(|l| l.contains("\"volatile\":"))
                .count();
            assert_eq!(volatile_lines, 1, "{} volatile is one line", a.filename);
        }
    }

    #[test]
    fn regeneration_is_deterministic_modulo_volatile() {
        let opts = tiny_options();
        let a = generate(&opts);
        let b = generate(&opts);
        assert_eq!(a.report_md, b.report_md);
        for (x, y) in a.artifacts.iter().zip(&b.artifacts) {
            assert_eq!(
                strip_volatile(&x.contents),
                strip_volatile(&y.contents),
                "{} deterministic",
                x.filename
            );
        }
    }

    #[test]
    fn via_serve_matches_direct_modulo_volatile() {
        let direct = generate(&tiny_options());
        let mut opts = tiny_options();
        opts.via_serve = true;
        let served = generate(&opts);
        // Satellite guarantee: cache-sourced rows are indistinguishable
        // from recomputed ones everywhere outside the volatile line.
        assert_eq!(direct.report_md, served.report_md);
        for (d, s) in direct.artifacts.iter().zip(&served.artifacts) {
            assert_eq!(
                strip_volatile(&d.contents),
                strip_volatile(&s.contents),
                "{} identical modulo volatile",
                d.filename
            );
        }
        let fig6 = served
            .artifacts
            .iter()
            .find(|a| a.filename == "bench_fig6.json")
            .unwrap();
        assert!(
            fig6.contents.contains("\"serve\": {"),
            "serve counters ride fig6's volatile line"
        );
        assert!(!strip_volatile(&fig6.contents).contains("\"serve\""));
    }

    #[test]
    fn via_serve_probe_counters_match_direct() {
        let mut opts = tiny_options();
        opts.probe = true;
        let direct = generate(&opts);
        opts.via_serve = true;
        let served = generate(&opts);
        let fig6 = |r: &GeneratedReport| {
            r.artifacts
                .iter()
                .find(|a| a.filename == "bench_fig6.json")
                .unwrap()
                .clone()
        };
        assert_eq!(
            strip_volatile(&fig6(&direct).contents),
            strip_volatile(&fig6(&served).contents)
        );
    }

    #[test]
    fn via_serve_check_sees_no_false_staleness_even_on_a_warm_cache() {
        let dir =
            std::env::temp_dir().join(format!("flexsnoop-report-via-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Commit a report generated the direct way…
        generate(&tiny_options()).write(&dir).expect("write");
        // …then regenerate via the service twice over one persistent
        // cache: the second pass answers every matrix cell from the
        // cache, and `check` must still see a byte-identical report.
        let mut opts = tiny_options();
        opts.via_serve = true;
        opts.serve_cache = Some(dir.join("results-cache"));
        let cold = generate(&opts);
        cold.check(&dir).expect("cold via-serve run is not stale");
        let warm = generate(&opts);
        warm.check(&dir).expect("warm via-serve run is not stale");
        let volatile_line = |r: &GeneratedReport| {
            r.artifacts
                .iter()
                .find(|a| a.filename == "bench_fig6.json")
                .unwrap()
                .contents
                .lines()
                .find(|l| l.contains("\"volatile\":"))
                .unwrap()
                .to_string()
        };
        // 2 workloads × the 7 paper algorithms.
        assert!(volatile_line(&cold).contains("\"executed\": 14"));
        assert!(volatile_line(&warm).contains("\"executed\": 0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_lands_in_fig6_artifact() {
        let mut opts = tiny_options();
        opts.probe = true;
        let report = generate(&opts);
        let fig6 = report
            .artifacts
            .iter()
            .find(|a| a.filename == "bench_fig6.json")
            .unwrap();
        assert!(fig6.contents.contains("\"probe\":"));
        assert!(fig6.contents.contains("\"ring_hop_latency\":"));
        let fig7 = report
            .artifacts
            .iter()
            .find(|a| a.filename == "bench_fig7.json")
            .unwrap();
        assert!(!fig7.contents.contains("\"probe\":"));
    }

    #[test]
    fn recovery_sweep_ewma_beats_static_and_stays_clean() {
        let rows = recovery_rows(400);
        assert_eq!(rows.len(), 8);
        let sum = |policy: &str, f: fn(&RecoveryRow) -> u64| -> u64 {
            rows.iter().filter(|r| r.policy == policy).map(f).sum()
        };
        for r in &rows {
            assert_eq!(r.violations, 0, "{} {} oracle", r.algorithm, r.policy);
            assert_eq!(r.in_flight, 0, "{} {} retirement", r.algorithm, r.policy);
        }
        // The schedule is congested but lossless: every static timeout is
        // premature, and the EWMA estimator must learn the congestion.
        let static_spurious = sum("static", |r| r.spurious_retries);
        let ewma_spurious = sum("ewma", |r| r.spurious_retries);
        assert!(
            static_spurious > 0,
            "congestion must provoke the static policy into premature retries"
        );
        assert!(
            ewma_spurious < static_spurious,
            "adaptive timeouts must cut spurious retries: ewma {ewma_spurious} \
             vs static {static_spurious}"
        );
        assert!(sum("ewma", |r| r.rtt_samples) > 0);
    }

    #[test]
    fn hierarchy_sweep_localizes_snoops_and_splits_recovery_energy() {
        let rows = hierarchy_rows(240);
        // Three topology variants per shape, flat first.
        assert_eq!(rows.len(), 3 * HIERARCHY_SHAPES.len());
        for chunk in rows.chunks(3) {
            let (flat, hier, lossy) = (&chunk[0], &chunk[1], &chunk[2]);
            assert_eq!(flat.topology, "flat");
            assert!(hier.topology.starts_with("hier:"));
            assert!(lossy.topology.starts_with("hier-lossy:"));
            for r in chunk {
                assert_eq!(r.violations, 0, "{} oracle", r.topology);
                assert_eq!(r.in_flight, 0, "{} retirement", r.topology);
            }
            // The flat ring has no two-level accounting; the hierarchy
            // completes some circulations in-ring, and every one it
            // cannot is covered by a global lap.
            assert_eq!(flat.local_circulations + flat.global_circulations, 0);
            assert_eq!(flat.bridge_hops, 0);
            assert!(hier.local_circulations > 0, "{}", hier.topology);
            assert!(hier.bridge_hops > 0);
            // In-ring completion must cut snoops per read vs flat.
            assert!(
                hier.snoops_per_read < flat.snoops_per_read,
                "{}: hier {} !< flat {}",
                hier.topology,
                hier.snoops_per_read,
                flat.snoops_per_read
            );
            // Lossless runs charge nothing to recovery; the lossy-bridge
            // run retries and the split charges those hops separately.
            assert_eq!(flat.recovery_overhead_nj, 0.0);
            assert_eq!(hier.recovery_overhead_nj, 0.0);
            assert!(lossy.retries > 0, "{} must retry", lossy.topology);
            assert!(lossy.recovery_overhead_nj > 0.0);
            assert!(lossy.recovery_overhead_nj < lossy.energy_nj);
        }
    }

    #[test]
    fn check_detects_staleness_and_write_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("flexsnoop-report-test-{}", std::process::id()));
        let report = generate(&tiny_options());
        report.write(&dir).expect("write");
        report.check(&dir).expect("fresh copy passes");
        std::fs::write(dir.join("report.md"), "tampered").unwrap();
        let err = report.check(&dir).expect_err("stale copy fails");
        assert!(err.contains("stale"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_config_changes() {
        let opts = tiny_options();
        let a = generate(&opts);
        let mut opts2 = opts.clone();
        opts2.scale.figure_accesses = 80;
        let b = generate(&opts2);
        let fp = |r: &GeneratedReport, name: &str| {
            r.artifacts
                .iter()
                .find(|a| a.filename == name)
                .unwrap()
                .contents
                .lines()
                .find(|l| l.contains("\"fingerprint\""))
                .unwrap()
                .to_string()
        };
        assert_ne!(fp(&a, "bench_fig6.json"), fp(&b, "bench_fig6.json"));
        // Table 1's scale did not change, so its fingerprint is stable.
        assert_eq!(fp(&a, "bench_table1.json"), fp(&b, "bench_table1.json"));
    }
}
