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
//! Every ring run goes through the replay path the chaos campaign and
//! the scenario runner share ([`Replay`]), with the per-retirement
//! invariant oracle enabled, and the harness diffs what is *guaranteed*
//! invariant across configurations:
//!
//! * **bit-for-bit reproducibility** — the same (algorithm, trace) must
//!   produce identical [`RunStats`](flexsnoop::RunStats) and identical
//!   final line-state snapshots across queue backends and executor
//!   widths ([`RunOutcome::identity_breaks`]);
//! * the [`DIFFERENTIAL_EXPECTATIONS`] on every ring run:
//!   * **oracle cleanliness** — zero recorded
//!     [`Violation`](flexsnoop::Violation)s and a clean final
//!     [`check_all`](flexsnoop_mem::invariants::check_all) sweep;
//!   * **accounting identities** — every ring read is supplied by
//!     exactly one of cache or memory (every directory read is either
//!     2-hop or 3-hop);
//!   * **dirty provenance** — a line may end dirty (`D`/`T`) only if the
//!     trace wrote it;
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
//! the divergence** ([`Replay::walkthrough`]): it replays the run to
//! shortly before the first violation's cycle, checkpoints it there
//! ([`Simulator::save_snapshot`](flexsnoop::Simulator::save_snapshot)),
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

use flexsnoop::{replay_streams, Algorithm, MachineConfig, ProtocolMutation, WorkloadProfile};
use flexsnoop_directory::DirSimulator;
use flexsnoop_engine::{Executor, QueueKind};
use flexsnoop_mem::LineAddr;
use flexsnoop_scenario::{Expectation, LineStates, Replay, RunOutcome};
use flexsnoop_workload::Trace;

/// The four predictor-driven algorithms of the paper's Table 3, in table
/// order. (Lazy and Eager are the predictor-free baselines; Oracle is
/// unimplementable hardware.)
pub const TABLE3_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Subset,
    Algorithm::SupersetCon,
    Algorithm::SupersetAgg,
    Algorithm::Exact,
];

/// What every ring run of the (lossless) differential matrix must
/// satisfy, whatever the algorithm: a clean oracle and final sweep, the
/// exact supply identity, and dirty lines only where the trace wrote.
pub const DIFFERENTIAL_EXPECTATIONS: [Expectation; 3] = [
    Expectation::CoherenceClean,
    Expectation::ExactSupply,
    Expectation::NoRogueDirty,
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
    /// replay of a violating run's tail ([`Replay::walkthrough`]).
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

/// Runs the fault-free directory protocol over `replay`'s trace, on the
/// same machine, and returns everything wrong with it (empty = clean)
/// plus its final line states. The directory is the independent
/// reference both the differential matrix and the chaos campaign hold
/// the ring against.
pub(crate) fn directory_baseline(replay: &Replay) -> Result<(Vec<String>, LineStates), String> {
    let trace = replay.trace();
    let mut dsim = DirSimulator::new(
        *replay.machine(),
        replay_streams(trace),
        trace.accesses_per_core(),
    )?;
    dsim.enable_invariant_checks();
    let dstats = dsim.run();
    let mut reasons = Vec::new();
    if let Some(v) = dsim.violations().first() {
        reasons.push(format!(
            "invariant oracle recorded {} violation(s); first: {v}",
            dsim.violations().len()
        ));
    }
    if let Err(e) = dsim.validate_coherence() {
        reasons.push(format!("final coherence sweep failed: {e}"));
    }
    if dstats.read_txns != dstats.reads_two_hop + dstats.reads_three_hop {
        reasons.push(format!(
            "read hop accounting broken: {} txns != {} two-hop + {} three-hop",
            dstats.read_txns, dstats.reads_two_hop, dstats.reads_three_hop
        ));
    }
    let snapshot = dsim.state_snapshot();
    let rogue: Vec<LineAddr> = snapshot
        .iter()
        .filter(|&&(line, _, _, st)| st.is_dirty() && !replay.written().contains(&line))
        .map(|&(line, _, _, _)| line)
        .collect();
    if !rogue.is_empty() {
        reasons.push(format!("dirty lines never written by the trace: {rogue:?}"));
    }
    Ok((reasons, snapshot))
}

/// Per-core L2 residency: which lines each `(cmp, core)` holds, states
/// ignored.
fn residency(snapshot: &LineStates) -> BTreeMap<(usize, usize), BTreeSet<LineAddr>> {
    let mut out: BTreeMap<(usize, usize), BTreeSet<LineAddr>> = BTreeMap::new();
    for &(line, cmp, core, _) in snapshot {
        out.entry((cmp, core)).or_default().insert(line);
    }
    out
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
    let machine = MachineConfig::for_cores(trace.cores(), opts.nodes, opts.hier)?;
    let mut replay = Replay::new(&trace, machine);
    replay.mutation = opts.mutation;
    replay.walkthrough = Some(opts.timeline_limit);
    let read_only = replay.written().is_empty();

    let configs: Vec<(Algorithm, QueueKind)> = TABLE3_ALGORITHMS
        .iter()
        .flat_map(|&alg| [(alg, QueueKind::Heap), (alg, QueueKind::Bucketed)])
        .collect();
    let run_all = |replay: &Replay, threads: usize| -> Result<Vec<RunOutcome>, String> {
        let tasks: Vec<_> = configs
            .iter()
            .map(|&(alg, kind)| move || replay.run(alg, kind, None))
            .collect();
        Executor::new(threads).run(tasks).into_iter().collect()
    };
    // The same configurations through a 1-worker and an N-worker pool:
    // the executor must not affect any result. Only the narrow outcomes
    // are checked and reported, so only they rewind for walkthroughs.
    let narrow = run_all(&replay, 1)?;
    let mut unrewound = replay.clone();
    unrewound.walkthrough = None;
    let wide = run_all(&unrewound, opts.threads.max(2))?;

    let mut divergences = Vec::new();
    let mut diverge = |context: String, details: Vec<String>| {
        divergences.extend(details.into_iter().map(|detail| Divergence {
            context: context.clone(),
            detail,
        }));
    };
    let ctx_of = |alg: Algorithm, kind: QueueKind| format!("{}/{alg}/{kind:?}", profile.name);

    for (i, &(alg, kind)) in configs.iter().enumerate() {
        let ctx = ctx_of(alg, kind);
        diverge(ctx.clone(), narrow[i].check(&DIFFERENTIAL_EXPECTATIONS));
        diverge(
            ctx,
            narrow[i].identity_breaks(&wide[i], "executor widths 1 vs N"),
        );
    }
    // Heap vs Bucketed per algorithm (configs interleave the two kinds).
    for pair in configs.chunks(2).zip(narrow.chunks(2)) {
        let ((alg, _), outs) = (pair.0[0], pair.1);
        diverge(
            format!("{}/{alg}", profile.name),
            outs[0].identity_breaks(&outs[1], "queue backends Heap vs Bucketed"),
        );
    }

    // The directory baseline over the identical trace. The directory
    // protocol never touches the ring, so the hierarchical shape changes
    // nothing on this side — which is exactly the point: the oracle is
    // topology-blind.
    let (baseline, dsnapshot) = directory_baseline(&replay)?;
    let dctx = format!("{}/Directory", profile.name);
    diverge(dctx.clone(), baseline);

    // For read-only traces each core's fill sequence depends only on its
    // own stream, so final L2 residency must agree across every
    // algorithm and both protocols.
    if read_only {
        let reference = residency(&narrow[0].snapshot);
        for (i, &(alg, kind)) in configs.iter().enumerate().skip(1) {
            if residency(&narrow[i].snapshot) != reference {
                diverge(
                    ctx_of(alg, kind),
                    vec!["read-only L2 residency differs from the first ring run".to_string()],
                );
            }
        }
        if residency(&dsnapshot) != reference {
            diverge(
                dctx,
                vec!["read-only L2 residency differs between directory and ring".to_string()],
            );
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
