//! Differential correctness harness for the flexsnoop simulators.
//!
//! One call to [`run_differential`] takes a workload profile, records its
//! access streams once into a [`Trace`], and replays that identical trace
//! through a matrix of configurations:
//!
//! * the four Table 3 ring algorithms (Subset, Superset Con, Superset
//!   Agg, Exact),
//! * × both event-queue backends ([`QueueKind::Heap`] and
//!   [`QueueKind::Bucketed`]),
//! * × a 1-worker and an N-worker [`Executor`] sweep,
//! * plus the directory-protocol baseline ([`DirSimulator`]).
//!
//! The matrix runs on a flat ring by default; [`DiffOptions::hier`]
//! switches every ring run to a hierarchical multi-ring shape
//! (`local × groups` with bridge nodes and the locality predictor)
//! while the directory baseline stays topology-blind — one oracle
//! validates both topologies against the identical trace.
//!
//! Every ring run executes with the per-retirement invariant oracle
//! enabled, and the harness diffs what is *guaranteed* invariant across
//! configurations:
//!
//! * **bit-for-bit reproducibility** — the same (algorithm, trace) must
//!   produce identical [`RunStats`] and identical final line-state
//!   snapshots across queue backends and executor widths;
//! * **oracle cleanliness** — zero recorded [`Violation`]s and a clean
//!   final [`check_all`](flexsnoop_mem::invariants::check_all) sweep;
//! * **accounting identities** — every ring read is supplied by exactly
//!   one of cache or memory; every directory read is either 2-hop or
//!   3-hop;
//! * **dirty provenance** — a line may end dirty (`D`/`T`) only if the
//!   trace wrote it;
//! * **cross-protocol residency** — for read-only traces, each core's
//!   final L2 line set is identical across all ring algorithms *and* the
//!   directory baseline (fills are then a function of the core's own
//!   stream alone).
//!
//! Final cache *states* are deliberately **not** diffed across
//! algorithms or protocols: timing differences legitimately reorder
//! invalidations and evictions, so state equality only holds per
//! configuration (where determinism makes it exact).
//!
//! When a run records a violation, the harness **rewinds to just before
//! the divergence**: it replays the run to shortly before the first
//! violation's cycle, checkpoints it there ([`Simulator::save_snapshot`]),
//! restores the checkpoint into a fresh simulator with a
//! [`Timeline`](flexsnoop::Timeline) recorder enabled, and steps only the
//! tail up to the violation — so the report attaches a pinpointed
//! walkthrough of the first divergent transaction without paying for
//! timeline recording on every (usually clean) run. [`ProtocolMutation`]
//! injection (see [`DiffOptions::mutation`]) is the self-test proving
//! this detection path works end to end.

pub mod cachecheck;
pub mod chaos;

pub use chaos::{
    run_chaos, ChaosCoverage, ChaosFailure, ChaosOptions, ChaosReport, ChaosTotals, FAULT_KINDS,
};

use std::collections::{BTreeMap, BTreeSet};

use flexsnoop::{
    energy_model_for, Algorithm, MachineConfig, ProtocolMutation, RunStats, Simulator, VecStream,
    Violation, WorkloadProfile,
};
use flexsnoop_directory::DirSimulator;
use flexsnoop_engine::{Cycle, Executor, QueueKind};
use flexsnoop_mem::{CoherState, LineAddr};
use flexsnoop_workload::{AccessStream, Trace};

/// The four predictor-driven algorithms of the paper's Table 3, in table
/// order. (Lazy and Eager are the predictor-free baselines; Oracle is
/// unimplementable hardware.)
pub const TABLE3_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Subset,
    Algorithm::SupersetCon,
    Algorithm::SupersetAgg,
    Algorithm::Exact,
];

/// Knobs for one differential run.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Accesses recorded (and replayed) per core.
    pub accesses_per_core: u64,
    /// Machine nodes; must divide the profile's core count.
    pub nodes: usize,
    /// Hierarchical shape `(local, groups)`; `None` runs the flat ring.
    /// When set, `local × groups` must equal [`DiffOptions::nodes`] —
    /// the same trace then circulates over local rings joined by bridge
    /// nodes on a global ring, with the locality predictor deciding the
    /// initial scope.
    pub hier: Option<(usize, usize)>,
    /// Worker count for the wide executor sweep (the narrow sweep always
    /// uses 1).
    pub threads: usize,
    /// Transactions the rewind replay's [`Timeline`](flexsnoop::Timeline)
    /// recorder keeps, for violation walkthroughs. Primary runs record no
    /// timeline; a recorder is only enabled on the checkpoint-restored
    /// replay of a violating run's tail.
    pub timeline_limit: usize,
    /// Deliberate protocol bug injected into every **ring** run (testing
    /// the harness itself; see [`ProtocolMutation`]).
    pub mutation: Option<ProtocolMutation>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            accesses_per_core: 400,
            nodes: 4,
            hier: None,
            threads: 4,
            timeline_limit: 4096,
            mutation: None,
        }
    }
}

impl DiffOptions {
    /// The full-budget configuration: paper-scale node count and a longer
    /// trace. CI runs this behind `--ignored`.
    pub fn full() -> Self {
        Self {
            accesses_per_core: 2000,
            nodes: 8,
            threads: 8,
            ..Self::default()
        }
    }

    /// A hierarchical matrix over `local × groups` nodes (the node count
    /// is implied by the shape; every other knob keeps its default).
    pub fn hier(local: usize, groups: usize) -> Self {
        Self {
            nodes: local * groups,
            hier: Some((local, groups)),
            ..Self::default()
        }
    }
}

/// One discrepancy found by the harness.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which configuration (profile/algorithm/backend/width) diverged.
    pub context: String,
    /// What differed, with the offending values. When the oracle caught a
    /// protocol violation this embeds the first divergent transaction's
    /// rendered Timeline.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.context, self.detail)
    }
}

/// The result of one [`run_differential`] call.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Profile name the trace was recorded from.
    pub profile: String,
    /// Stream seed.
    pub seed: u64,
    /// Ring configurations executed (algorithms × backends × widths).
    pub ring_runs: usize,
    /// Whether the recorded trace contained no stores.
    pub read_only: bool,
    /// Everything that diverged; empty means the matrix agreed.
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// True when no configuration diverged and no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// A human-readable report; one block per divergence, first (i.e.
    /// most useful for minimization) first.
    pub fn render(&self) -> String {
        let mut out = format!(
            "differential {} (seed {}): {} ring runs + directory: ",
            self.profile, self.seed, self.ring_runs
        );
        if self.is_clean() {
            out.push_str("clean\n");
            return out;
        }
        out.push_str(&format!("{} divergence(s)\n", self.divergences.len()));
        for d in &self.divergences {
            out.push_str(&format!("\n{d}\n"));
        }
        out
    }
}

/// A canonical `(line, cmp, core, state)` snapshot.
type Snapshot = Vec<(LineAddr, usize, usize, CoherState)>;

/// Everything comparable from one ring run.
struct RingOutcome {
    stats: RunStats,
    snapshot: Snapshot,
    violations: Vec<Violation>,
    /// Rendered Timeline of the first violating transaction, if any.
    violation_walkthrough: Option<String>,
    coherence: Result<(), String>,
}

pub(crate) fn machine_for(
    trace: &Trace,
    nodes: usize,
    hier: Option<(usize, usize)>,
) -> Result<MachineConfig, String> {
    let cores = trace.cores();
    if nodes == 0 || !cores.is_multiple_of(nodes) {
        return Err(format!(
            "trace cores ({cores}) must be a multiple of {nodes} nodes"
        ));
    }
    let mut machine = MachineConfig {
        nodes,
        ..MachineConfig::isca2006(cores / nodes)
    };
    if let Some((local, groups)) = hier {
        if local * groups != nodes {
            return Err(format!(
                "hier shape {local}x{groups} does not cover {nodes} nodes"
            ));
        }
        machine.ring.hier = Some(flexsnoop::default_hier(local, groups));
    }
    Ok(machine)
}

pub(crate) fn boxed_streams(trace: &Trace) -> Vec<Box<dyn AccessStream + Send>> {
    VecStream::from_trace(trace)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
        .collect()
}

fn build_ring_sim(
    trace: &Trace,
    alg: Algorithm,
    kind: QueueKind,
    opts: &DiffOptions,
) -> Result<Simulator, String> {
    let machine = machine_for(trace, opts.nodes, opts.hier)?;
    let predictor = alg.default_predictor();
    let energy = energy_model_for(&predictor);
    let mut sim = Simulator::new(
        machine,
        alg,
        predictor,
        energy,
        boxed_streams(trace),
        opts.accesses_per_core,
    )?;
    sim.use_event_queue(kind);
    sim.enable_invariant_checks();
    if let Some(m) = opts.mutation {
        sim.inject_mutation(m);
    }
    Ok(sim)
}

/// Cycles before the first violation the rewind replay backs up to —
/// generous enough to cover a lossless transaction's whole lifetime
/// (ring round trip plus a memory access), so the walkthrough captures
/// the divergent transaction from issue to retirement.
const REWIND_WINDOW: u64 = 16_384;

/// Time-travels a violating run: replays it to just before the first
/// violation, checkpoints there, restores the checkpoint into a fresh
/// simulator with the timeline recorder on, and steps the tail through
/// the violation. Determinism makes the replay exact, so the rendered
/// walkthrough is the one the original run would have recorded — without
/// every clean run paying for a recorder.
fn rewind_walkthrough(
    trace: &Trace,
    alg: Algorithm,
    kind: QueueKind,
    opts: &DiffOptions,
    v: &Violation,
) -> Option<String> {
    let rewind_to = Cycle::new(v.at.as_u64().saturating_sub(REWIND_WINDOW));
    let mut donor = build_ring_sim(trace, alg, kind, opts).ok()?;
    donor.run_until(Some(rewind_to));
    let checkpoint = donor.save_snapshot();
    let mut replay = build_ring_sim(trace, alg, kind, opts).ok()?;
    replay.enable_timeline(opts.timeline_limit);
    replay.restore_snapshot(&checkpoint).ok()?;
    // Step only the tail: everything up to and including the violation
    // cycle (run_until stops before popping events at the stop cycle).
    replay.run_until(Some(Cycle::new(v.at.as_u64() + 1)));
    Some(format!(
        "first divergent transaction (rewound to cycle {rewind_to} via checkpoint, \
         violation at cycle {}):\n{}",
        v.at,
        replay.timeline()?.render(v.txn)
    ))
}

fn run_ring(
    trace: &Trace,
    alg: Algorithm,
    kind: QueueKind,
    opts: &DiffOptions,
) -> Result<RingOutcome, String> {
    let mut sim = build_ring_sim(trace, alg, kind, opts)?;
    let stats = sim.run();
    let violations = sim.violations().to_vec();
    let violation_walkthrough = violations
        .first()
        .and_then(|v| rewind_walkthrough(trace, alg, kind, opts, v));
    Ok(RingOutcome {
        stats,
        snapshot: sim.state_snapshot(),
        violations,
        violation_walkthrough,
        coherence: sim.validate_coherence(),
    })
}

/// Lines the trace ever stores to.
pub(crate) fn written_lines(trace: &Trace) -> BTreeSet<LineAddr> {
    (0..trace.cores())
        .flat_map(|c| trace.core(c).iter().filter(|a| a.write).map(|a| a.line))
        .collect()
}

/// Per-core L2 residency: which lines each `(cmp, core)` holds, states
/// ignored.
fn residency(snapshot: &Snapshot) -> BTreeMap<(usize, usize), BTreeSet<LineAddr>> {
    let mut out: BTreeMap<(usize, usize), BTreeSet<LineAddr>> = BTreeMap::new();
    for &(line, cmp, core, _) in snapshot {
        out.entry((cmp, core)).or_default().insert(line);
    }
    out
}

fn dirty_lines(snapshot: &Snapshot) -> BTreeSet<LineAddr> {
    snapshot
        .iter()
        .filter(|(_, _, _, st)| st.is_dirty())
        .map(|&(line, _, _, _)| line)
        .collect()
}

/// Checks that hold within any single ring run, whatever the algorithm.
fn check_single_run(
    ctx: &str,
    out: &RingOutcome,
    written: &BTreeSet<LineAddr>,
    divergences: &mut Vec<Divergence>,
) {
    if let Some(v) = out.violations.first() {
        let mut detail = format!(
            "invariant oracle recorded {} violation(s); first: {v}",
            out.violations.len()
        );
        if let Some(walk) = &out.violation_walkthrough {
            detail.push('\n');
            detail.push_str(walk);
        }
        divergences.push(Divergence {
            context: ctx.to_string(),
            detail,
        });
    }
    if let Err(e) = &out.coherence {
        divergences.push(Divergence {
            context: ctx.to_string(),
            detail: format!("final coherence sweep failed: {e}"),
        });
    }
    let s = &out.stats;
    if s.read_txns != s.reads_cache_supplied + s.reads_from_memory {
        divergences.push(Divergence {
            context: ctx.to_string(),
            detail: format!(
                "read supply accounting broken: {} txns != {} cache + {} memory",
                s.read_txns, s.reads_cache_supplied, s.reads_from_memory
            ),
        });
    }
    let rogue: Vec<_> = dirty_lines(&out.snapshot)
        .difference(written)
        .copied()
        .collect();
    if !rogue.is_empty() {
        divergences.push(Divergence {
            context: ctx.to_string(),
            detail: format!("dirty lines never written by the trace: {rogue:?}"),
        });
    }
}

fn diff_outcomes(
    ctx: &str,
    what: &str,
    a: &RingOutcome,
    b: &RingOutcome,
    divergences: &mut Vec<Divergence>,
) {
    if a.stats != b.stats {
        divergences.push(Divergence {
            context: ctx.to_string(),
            detail: format!("RunStats differ across {what} (must be bit-for-bit identical)"),
        });
    }
    if a.snapshot != b.snapshot {
        let detail = first_snapshot_diff(&a.snapshot, &b.snapshot)
            .map(|d| format!("final line states differ across {what}: {d}"))
            .unwrap_or_else(|| format!("final line states differ across {what}"));
        divergences.push(Divergence {
            context: ctx.to_string(),
            detail,
        });
    }
}

/// The first `(line, cmp, core, state)` entry present in only one of two
/// snapshots — the minimized witness for a state divergence. Snapshots
/// are already canonically sorted, so a two-pointer walk finds it.
fn first_snapshot_diff(a: &Snapshot, b: &Snapshot) -> Option<String> {
    let render = |side: &str, (line, cmp, core, st): (LineAddr, usize, usize, CoherState)| {
        format!("only in {side}: {st}@cmp{cmp}/core{core} for {line}")
    };
    let key =
        |(line, cmp, core, st): (LineAddr, usize, usize, CoherState)| (line, cmp, core, st as u8);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match key(a[i]).cmp(&key(b[j])) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => return Some(render("first", a[i])),
            std::cmp::Ordering::Greater => return Some(render("second", b[j])),
        }
    }
    if i < a.len() {
        Some(render("first", a[i]))
    } else {
        b.get(j).map(|&e| render("second", e))
    }
}

/// Runs the full differential matrix for one workload profile.
///
/// The same recorded trace drives every ring configuration *and* the
/// directory baseline on identical hardware, the comparison at the heart
/// of `examples/ring_vs_directory.rs`:
///
/// ```
/// use flexsnoop_checker::{run_differential, DiffOptions};
/// use flexsnoop_workload::profiles;
///
/// # fn main() -> Result<(), String> {
/// let opts = DiffOptions {
///     accesses_per_core: 60,
///     threads: 1,
///     ..DiffOptions::default()
/// };
/// let report = run_differential(&profiles::specjbb(), 77, &opts)?;
/// // 4 Table 3 algorithms × 2 queue backends × 2 executor widths, all
/// // bit-identical, invariant-clean, and consistent with the directory.
/// assert_eq!(report.ring_runs, 16);
/// assert!(report.is_clean(), "{}", report.render());
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns a message if a simulator rejects the configuration (the
/// comparison itself never errors — discrepancies land in the report).
pub fn run_differential(
    profile: &WorkloadProfile,
    seed: u64,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let mut streams = profile.streams(seed);
    let trace = Trace::record(&mut streams, opts.accesses_per_core);
    let read_only = (0..trace.cores()).all(|c| trace.core(c).iter().all(|a| !a.write));
    let written = written_lines(&trace);

    let configs: Vec<(Algorithm, QueueKind)> = TABLE3_ALGORITHMS
        .iter()
        .flat_map(|&alg| [(alg, QueueKind::Heap), (alg, QueueKind::Bucketed)])
        .collect();
    let make_tasks = || -> Vec<_> {
        configs
            .iter()
            .map(|&(alg, kind)| {
                let trace = &trace;
                move || run_ring(trace, alg, kind, opts)
            })
            .collect()
    };
    // The same task list through a 1-worker and an N-worker pool: the
    // executor must not affect any result.
    let narrow = Executor::new(1).run(make_tasks());
    let wide = Executor::new(opts.threads.max(2)).run(make_tasks());
    let narrow: Vec<RingOutcome> = narrow.into_iter().collect::<Result<_, _>>()?;
    let wide: Vec<RingOutcome> = wide.into_iter().collect::<Result<_, _>>()?;

    let mut divergences = Vec::new();
    let ctx_of = |alg: Algorithm, kind: QueueKind| format!("{}/{alg}/{kind:?}", profile.name);

    for (i, &(alg, kind)) in configs.iter().enumerate() {
        let ctx = ctx_of(alg, kind);
        check_single_run(&ctx, &narrow[i], &written, &mut divergences);
        diff_outcomes(
            &ctx,
            "executor widths 1 vs N",
            &narrow[i],
            &wide[i],
            &mut divergences,
        );
    }
    // Heap vs Bucketed per algorithm (configs interleave the two kinds).
    for pair in configs.chunks(2).zip(narrow.chunks(2)) {
        let ((alg, _), outs) = (pair.0[0], pair.1);
        let ctx = format!("{}/{alg}", profile.name);
        diff_outcomes(
            &ctx,
            "queue backends Heap vs Bucketed",
            &outs[0],
            &outs[1],
            &mut divergences,
        );
    }

    // The directory baseline over the identical trace. The directory
    // protocol never touches the ring, so the hierarchical shape changes
    // nothing on this side — which is exactly the point: the oracle is
    // topology-blind.
    let machine = machine_for(&trace, opts.nodes, opts.hier)?;
    let mut dsim = DirSimulator::new(machine, boxed_streams(&trace), opts.accesses_per_core)?;
    dsim.enable_invariant_checks();
    let dstats = dsim.run();
    let dctx = format!("{}/Directory", profile.name);
    if let Some(v) = dsim.first_violation() {
        divergences.push(Divergence {
            context: dctx.clone(),
            detail: format!(
                "invariant oracle recorded {} violation(s); first: {v}",
                dsim.violations().len()
            ),
        });
    }
    if let Err(e) = dsim.validate_coherence() {
        divergences.push(Divergence {
            context: dctx.clone(),
            detail: format!("final coherence sweep failed: {e}"),
        });
    }
    if dstats.read_txns != dstats.reads_two_hop + dstats.reads_three_hop {
        divergences.push(Divergence {
            context: dctx.clone(),
            detail: format!(
                "read hop accounting broken: {} txns != {} two-hop + {} three-hop",
                dstats.read_txns, dstats.reads_two_hop, dstats.reads_three_hop
            ),
        });
    }
    let dsnapshot = dsim.state_snapshot();
    let rogue: Vec<_> = dirty_lines(&dsnapshot)
        .difference(&written)
        .copied()
        .collect();
    if !rogue.is_empty() {
        divergences.push(Divergence {
            context: dctx.clone(),
            detail: format!("dirty lines never written by the trace: {rogue:?}"),
        });
    }

    // For read-only traces each core's fill sequence depends only on its
    // own stream, so final L2 residency must agree across every
    // algorithm and both protocols.
    if read_only {
        let reference = residency(&narrow[0].snapshot);
        for (i, &(alg, kind)) in configs.iter().enumerate().skip(1) {
            if residency(&narrow[i].snapshot) != reference {
                divergences.push(Divergence {
                    context: ctx_of(alg, kind),
                    detail: "read-only L2 residency differs from the first ring run".to_string(),
                });
            }
        }
        if residency(&dsnapshot) != reference {
            divergences.push(Divergence {
                context: dctx,
                detail: "read-only L2 residency differs between directory and ring".to_string(),
            });
        }
    }

    Ok(DiffReport {
        profile: profile.name.clone(),
        seed,
        ring_runs: narrow.len() + wide.len(),
        read_only,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsnoop_workload::profiles;

    fn tiny() -> DiffOptions {
        DiffOptions {
            accesses_per_core: 60,
            threads: 2,
            ..DiffOptions::default()
        }
    }

    #[test]
    fn specweb_matrix_is_clean() {
        let report = run_differential(&profiles::specweb(), 11, &tiny()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.ring_runs, 16);
        assert!(!report.read_only);
    }

    #[test]
    fn read_only_microbench_checks_residency() {
        let profile = profiles::uniform_microbench(8, 60);
        let report = run_differential(&profile, 3, &tiny()).unwrap();
        assert!(report.read_only);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn skipped_supplier_downgrade_is_pinpointed() {
        let opts = DiffOptions {
            mutation: Some(ProtocolMutation::SkipSupplierDowngrade),
            ..tiny()
        };
        let report = run_differential(&profiles::specweb(), 11, &opts).unwrap();
        assert!(!report.is_clean(), "mutation must be detected");
        let rendered = report.render();
        assert!(
            rendered.contains("first divergent transaction"),
            "report must pinpoint the transaction:\n{rendered}"
        );
        assert!(rendered.contains("txn"), "{rendered}");
    }

    #[test]
    fn skipped_write_invalidation_is_detected() {
        let opts = DiffOptions {
            mutation: Some(ProtocolMutation::SkipWriteInvalidation),
            ..tiny()
        };
        let report = run_differential(&profiles::specweb(), 11, &opts).unwrap();
        assert!(!report.is_clean(), "mutation must be detected");
    }

    #[test]
    fn bad_node_count_is_rejected() {
        let opts = DiffOptions { nodes: 3, ..tiny() };
        let err = run_differential(&profiles::specweb(), 1, &opts).unwrap_err();
        assert!(err.contains("multiple"), "{err}");
    }

    #[test]
    fn mismatched_hier_shape_is_rejected() {
        let opts = DiffOptions {
            hier: Some((3, 3)),
            ..tiny()
        };
        let err = run_differential(&profiles::specweb(), 1, &opts).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    fn hier_shapes_match_the_directory_baseline() {
        // The ISSUE's hierarchical net: 2×4, 4×4 and 8×8, each through
        // the full Table 3 × backend × width matrix plus the directory
        // oracle over the identical trace.
        for (local, groups, accesses) in [(2usize, 4usize, 60u64), (4, 4, 40), (8, 8, 25)] {
            let profile = profiles::specweb().with_cores(local * groups);
            let opts = DiffOptions {
                accesses_per_core: accesses,
                threads: 2,
                ..DiffOptions::hier(local, groups)
            };
            let report = run_differential(&profile, 11, &opts).unwrap();
            assert!(report.is_clean(), "{local}x{groups}:\n{}", report.render());
            assert_eq!(report.ring_runs, 16);
        }
    }

    #[test]
    fn hier_divergence_is_pinpointed_via_rewind() {
        // The checkpoint time-travel walkthrough must work unchanged on
        // a hierarchical topology: inject a protocol bug and demand the
        // first divergent transaction's timeline in the report.
        let opts = DiffOptions {
            accesses_per_core: 60,
            threads: 2,
            mutation: Some(ProtocolMutation::SkipSupplierDowngrade),
            ..DiffOptions::hier(2, 4)
        };
        let report = run_differential(&profiles::specweb(), 11, &opts).unwrap();
        assert!(!report.is_clean(), "mutation must be detected on hier");
        let rendered = report.render();
        assert!(
            rendered.contains("first divergent transaction"),
            "report must pinpoint the transaction:\n{rendered}"
        );
    }
}
