//! Seeded chaos campaign: randomized ring-fault schedules × Table 3.
//!
//! The fault model ([`FaultPlan`]) makes the embedded ring drop,
//! duplicate and delay messages and stall nodes; the recovery layer in
//! [`flexsnoop::Simulator`] answers with sequence-number deduplication,
//! requester timeouts, bounded-backoff retries, and per-line degradation
//! to Lazy forwarding. This module is the harness that earns trust in
//! that machinery: [`run_chaos`] sweeps many randomized schedules across
//! every Table 3 algorithm and demands that **every** run still
//!
//! * retires every transaction (nothing left in flight, no stranded
//!   cores),
//! * records zero invariant-oracle violations and passes the final
//!   Figure 2(b) coherence sweep,
//! * keeps the (fault-relaxed) supply accounting consistent — a retried
//!   read may be supplied more than once, never less than once,
//! * dirties only lines the trace actually wrote.
//!
//! Every run goes through the replay path the differential matrix and
//! the scenario runner share ([`Replay`]), and these properties are the
//! [`chaos_expectations`]. The identical trace also drives the
//! fault-free directory-protocol baseline once per campaign
//! ([`ChaosReport::baseline_reasons`]), through the same function as the
//! differential's directory leg: the independent reference
//! implementation must pass the same sound invariants the faulted ring
//! runs are held to.
//!
//! A failing `(schedule, algorithm)` pair is **shrunk** to a minimal
//! reproducer: the fault budget is binary-searched down to the smallest
//! failing prefix (randomized faults are consumed in draw order, so a
//! smaller budget replays a prefix of the same schedule), then whole
//! fault kinds are removed while the failure persists. The report's
//! reproducer line (`seed=… budget=…`) plugs straight into
//! `flexsnoop chaos --schedule <seed>`.
//!
//! The campaign's self-test is [`ChaosOptions::recovery`]` = false`
//! (CLI: `--no-retry`): with retries disabled, lossy schedules really do
//! strand transactions, proving the harness can see the failures the
//! recovery layer prevents.

use flexsnoop::{Algorithm, FaultPlan, FaultStats, MachineConfig, RunStats, TimeoutPolicy};
use flexsnoop_engine::{Executor, QueueKind, SplitMix64};
use flexsnoop_scenario::{chaos_expectations, Replay};
use flexsnoop_workload::{Trace, WorkloadProfile};

use crate::{directory_baseline, TABLE3_ALGORITHMS};
use std::time::Instant;

/// Knobs for one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Randomized fault schedules to draw (each runs every Table 3
    /// algorithm).
    pub schedules: u64,
    /// Seed for the schedule-seed stream (campaigns are reproducible).
    pub base_seed: u64,
    /// Accesses recorded (and replayed) per core.
    pub accesses_per_core: u64,
    /// Machine nodes; must divide the profile's core count.
    pub nodes: usize,
    /// Hierarchical shape `(local, groups)`; `None` runs the flat ring.
    /// When set, `local × groups` must equal [`ChaosOptions::nodes`],
    /// and the drawn plans' bridge-link drop schedules become live
    /// (flat rings have no bridge links and never consult them).
    pub hier: Option<(usize, usize)>,
    /// Worker threads for the campaign sweep.
    pub threads: usize,
    /// Timeout/retry recovery on (the default). `false` is the harness
    /// self-test: faults must then visibly strand transactions.
    pub recovery: bool,
    /// Shrink every failure to a minimal reproducer.
    pub shrink: bool,
    /// For the first N schedules, re-run each algorithm on the second
    /// queue backend and compare bit-for-bit (determinism under faults).
    pub determinism_probes: u64,
    /// Run exactly this schedule seed instead of drawing `schedules`
    /// seeds — the reproducer mode (`flexsnoop chaos --schedule SEED`).
    pub schedule: Option<u64>,
    /// Override the drawn plans' fault budget (replays a shrunk
    /// reproducer's prefix).
    pub budget: Option<u64>,
    /// Strip every ring fault from the drawn plans and guarantee torus
    /// drops instead: the campaign then exercises only the data-network
    /// fault path (memory legs, cache supplies) and its recovery.
    pub torus_only: bool,
    /// Override the machine's requester-timeout policy (`None` keeps the
    /// config default, [`TimeoutPolicy::Adaptive`]). `Static` replays the
    /// pre-EWMA fixed-slack timeouts for A/B comparison.
    pub timeout_policy: Option<TimeoutPolicy>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            schedules: 40,
            base_seed: 0x00C0FFEE,
            accesses_per_core: 150,
            nodes: 4,
            hier: None,
            threads: 4,
            recovery: true,
            shrink: true,
            determinism_probes: 2,
            schedule: None,
            budget: None,
            torus_only: false,
            timeout_policy: None,
        }
    }
}

impl ChaosOptions {
    /// The full acceptance campaign (≥1000 schedules × 4 algorithms).
    /// CI runs this behind `--ignored`.
    pub fn full() -> Self {
        Self {
            schedules: 1000,
            threads: 8,
            ..Self::default()
        }
    }
}

/// One failing `(schedule, algorithm)` pair.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The schedule seed ([`FaultPlan::random`] input).
    pub seed: u64,
    /// The algorithm that failed under it.
    pub algorithm: Algorithm,
    /// The full plan as drawn.
    pub plan: FaultPlan,
    /// Why the run counts as failed (one line per broken property).
    pub reasons: Vec<String>,
    /// The shrunk plan (fewest faults still failing), when shrinking ran.
    pub minimized: Option<FaultPlan>,
    /// How the shrink ran: its wall time and how many runs it took.
    pub shrink_note: Option<String>,
}

/// Campaign-wide fault and recovery totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosTotals {
    /// Messages dropped by fault plans.
    pub drops: u64,
    /// Messages duplicated.
    pub duplicates: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Torus data messages dropped by fault plans.
    pub torus_drops: u64,
    /// Hierarchical bridge-link messages dropped by fault plans.
    pub bridge_drops: u64,
    /// Ring hops refused by partition windows.
    pub partition_blocked: u64,
    /// Injected duplicates suppressed by sequence numbers.
    pub duplicates_suppressed: u64,
    /// Deliveries discarded as belonging to superseded attempts.
    pub stale_deliveries: u64,
    /// Recovery timeouts fired.
    pub timeouts: u64,
    /// Retries issued.
    pub retries: u64,
    /// Retries proven unnecessary by a late stale reply.
    pub spurious_retries: u64,
    /// Round-trip samples fed to the adaptive timeout estimators.
    pub rtt_samples: u64,
    /// Lines that entered degraded (Lazy-forwarding) mode.
    pub degraded_entries: u64,
    /// Degraded lines re-armed after a clean probation window.
    pub probation_exits: u64,
    /// Probation counters reset by a fresh fault burst.
    pub probation_resets: u64,
}

impl ChaosTotals {
    fn absorb(&mut self, s: &RunStats) {
        let r = &s.robustness;
        self.drops += r.ring_drops;
        self.duplicates += r.ring_duplicates;
        self.delays += r.ring_delays;
        self.torus_drops += r.torus_drops;
        self.bridge_drops += r.bridge_drops;
        self.partition_blocked += r.partition_blocked;
        self.duplicates_suppressed += r.duplicates_suppressed;
        self.stale_deliveries += r.stale_deliveries;
        self.timeouts += r.timeouts;
        self.retries += r.retries;
        self.spurious_retries += r.spurious_retries;
        self.rtt_samples += r.rtt_samples;
        self.degraded_entries += r.degraded_entries;
        self.probation_exits += r.probation_exits;
        self.probation_resets += r.probation_resets;
    }
}

/// The enabled fault kinds, in report/baseline order. `bridge` (drops on
/// the global-ring links of hierarchical topologies) was appended last,
/// so baselines written before it existed still parse.
pub const FAULT_KINDS: [&str; 7] = [
    "drop",
    "duplicate",
    "delay",
    "stall",
    "torus-drop",
    "partition",
    "bridge",
];

/// Per-kind fault coverage: how many plans armed each fault kind and how
/// many fault events each kind actually injected across the campaign.
/// The coverage ratchet fails CI when a kind a baseline proves reachable
/// silently stops injecting (`[ChaosCoverage::regressions]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCoverage {
    /// `[plans that armed the kind, events the kind injected]`, indexed
    /// like [`FAULT_KINDS`].
    pub kinds: [[u64; 2]; 7],
}

impl ChaosCoverage {
    fn absorb_plan(&mut self, plan: &FaultPlan, hier: bool) {
        let ring = plan.budget > 0;
        let armed = [
            ring && plan.drop > 0.0,
            ring && plan.duplicate > 0.0,
            ring && plan.delay > 0.0,
            !plan.stalls.is_empty(),
            plan.torus_faults(),
            !plan.partitions.is_empty(),
            // A flat machine has no bridge links: the schedule is drawn
            // but can never fire, so it does not count as armed.
            hier && plan.bridge_faults(),
        ];
        for (slot, on) in self.kinds.iter_mut().zip(armed) {
            slot[0] += on as u64;
        }
    }

    fn absorb_events(&mut self, f: &FaultStats) {
        let injected = [
            f.drops,
            f.duplicates,
            f.delays,
            f.stall_hits,
            f.torus_drops,
            f.partition_blocked,
            f.bridge_drops,
        ];
        for (slot, n) in self.kinds.iter_mut().zip(injected) {
            slot[1] += n;
        }
    }

    /// Events the named kind injected; panics on an unknown kind.
    pub fn injected(&self, kind: &str) -> u64 {
        let idx = FAULT_KINDS.iter().position(|&k| k == kind).expect("kind");
        self.kinds[idx][1]
    }

    /// Kinds that at least one plan armed but that injected zero events —
    /// the campaign silently lost coverage of them.
    pub fn starved_kinds(&self) -> Vec<&'static str> {
        FAULT_KINDS
            .iter()
            .zip(self.kinds)
            .filter(|&(_, [armed, injected])| armed > 0 && injected == 0)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Serializes the per-kind injected counts as the checked-in
    /// baseline format (`<kind> <count>` per line).
    pub fn render_baseline(&self) -> String {
        FAULT_KINDS
            .iter()
            .zip(self.kinds)
            .map(|(k, [_, injected])| format!("{k} {injected}\n"))
            .collect()
    }

    /// Parses a baseline produced by [`ChaosCoverage::render_baseline`]
    /// (unknown kinds and blank lines are ignored, so baselines survive
    /// kind additions).
    ///
    /// # Errors
    ///
    /// Returns a message for a line that is not `<kind> <count>`.
    pub fn parse_baseline(text: &str) -> Result<ChaosCoverage, String> {
        let mut cov = ChaosCoverage::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let mut parts = line.split_whitespace();
            let (Some(kind), Some(count)) = (parts.next(), parts.next()) else {
                return Err(format!("malformed coverage baseline line: `{line}`"));
            };
            let count: u64 = count
                .parse()
                .map_err(|e| format!("bad count in baseline line `{line}`: {e}"))?;
            if let Some(idx) = FAULT_KINDS.iter().position(|&k| k == kind) {
                cov.kinds[idx][1] = count;
            }
        }
        Ok(cov)
    }

    /// The ratchet: every kind the baseline proves reachable (nonzero
    /// injected count) must still inject at least one event. Returns one
    /// line per regressed kind, empty when coverage held.
    pub fn regressions(&self, baseline: &ChaosCoverage) -> Vec<String> {
        FAULT_KINDS
            .iter()
            .zip(self.kinds.iter().zip(baseline.kinds))
            .filter(|&(_, (now, base))| base[1] > 0 && now[1] == 0)
            .map(|(k, (_, base))| {
                format!(
                    "fault kind `{k}` injected 0 events (baseline proved {})",
                    base[1]
                )
            })
            .collect()
    }
}

/// The result of one [`run_chaos`] campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Profile the trace was recorded from.
    pub profile: String,
    /// Campaign base seed: seeds the recorded trace and (unless a
    /// schedule was pinned) the schedule-seed stream. Reproducer
    /// commands must pin it, or they replay a different trace.
    pub base_seed: u64,
    /// Ring nodes each run simulated.
    pub nodes: usize,
    /// Hierarchical shape the campaign ran on (`None` = flat ring).
    pub hier: Option<(usize, usize)>,
    /// Accesses recorded per core.
    pub accesses_per_core: u64,
    /// Schedules drawn.
    pub schedules: u64,
    /// Total `(schedule, algorithm)` runs executed.
    pub runs: u64,
    /// Whether recovery was enabled.
    pub recovery: bool,
    /// Campaign-wide fault/recovery totals.
    pub totals: ChaosTotals,
    /// Per-kind fault coverage (plans armed / events injected), the
    /// quantity the CI coverage ratchet diffs against its baseline.
    pub coverage: ChaosCoverage,
    /// Determinism cross-checks performed (and passed, unless listed in
    /// `failures`).
    pub determinism_checks: u64,
    /// Problems found in the fault-free directory-protocol baseline run
    /// over the identical trace (empty when the reference implementation
    /// is clean). Exact ring-vs-directory state equality is only sound
    /// for read-only traces (DESIGN.md §7); under faults the shared
    /// ground truth is the sound-invariant set, checked per run against
    /// the same trace-derived written-line set this baseline must also
    /// respect.
    pub baseline_reasons: Vec<String>,
    /// Every failing pair, in schedule order.
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    /// True when every run satisfied every property and the fault-free
    /// directory baseline was clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty() && self.baseline_reasons.is_empty()
    }

    /// Renders the campaign summary (the CI artifact body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# Chaos campaign: {}\n\n\
             - schedules: {} (runs: {}, recovery: {})\n\
             - faults injected: {} drops, {} duplicates, {} delays, {} torus drops, \
             {} bridge drops, {} partition-blocked hops\n\
             - recovery activity: {} dup-suppressed, {} stale discarded, \
             {} timeouts, {} retries ({} spurious), {} rtt samples, {} degraded lines, \
             {} probation exits, {} probation resets\n\
             - determinism cross-checks: {}\n\
             - verdict: **{}**\n",
            self.profile,
            self.schedules,
            self.runs,
            if self.recovery { "on" } else { "off" },
            self.totals.drops,
            self.totals.duplicates,
            self.totals.delays,
            self.totals.torus_drops,
            self.totals.bridge_drops,
            self.totals.partition_blocked,
            self.totals.duplicates_suppressed,
            self.totals.stale_deliveries,
            self.totals.timeouts,
            self.totals.retries,
            self.totals.spurious_retries,
            self.totals.rtt_samples,
            self.totals.degraded_entries,
            self.totals.probation_exits,
            self.totals.probation_resets,
            self.determinism_checks,
            if self.is_clean() {
                "CLEAN".to_string()
            } else {
                format!(
                    "{} FAILURE(S)",
                    self.failures.len() + self.baseline_reasons.len()
                )
            }
        ));
        out.push_str(
            "\n## Fault coverage\n\n| kind | plans armed | events injected |\n|---|---|---|\n",
        );
        for (kind, [armed, injected]) in FAULT_KINDS.iter().zip(self.coverage.kinds) {
            out.push_str(&format!("| {kind} | {armed} | {injected} |\n"));
        }
        out.push('\n');
        if self.baseline_reasons.is_empty() {
            out.push_str("- directory baseline (fault-free): clean\n");
        } else {
            out.push_str("- directory baseline (fault-free): BROKEN\n");
            for r in &self.baseline_reasons {
                out.push_str(&format!("  - {r}\n"));
            }
        }
        for f in &self.failures {
            out.push_str(&format!(
                "\n## seed {} / {}\n\nplan: `{}`\n",
                f.seed,
                f.algorithm,
                f.plan.describe()
            ));
            for r in &f.reasons {
                out.push_str(&format!("- {r}\n"));
            }
            if let Some(min) = &f.minimized {
                // The budget prefix is replayable from the CLI; the
                // kind-eliminated probabilities are extra diagnosis (the
                // prefix already failed before elimination).
                out.push_str(&format!(
                    "\nminimal reproducer: `{}`\n(reproduce: `flexsnoop chaos --workload {} \
                     --seed {} --nodes {} --accesses {} --schedule {} --budget {}{}{}`)\n",
                    min.describe(),
                    self.profile,
                    self.base_seed,
                    self.nodes,
                    self.accesses_per_core,
                    min.seed,
                    min.budget,
                    match self.hier {
                        Some((l, g)) => format!(" --topology hier:{l}x{g}"),
                        None => String::new(),
                    },
                    if self.recovery { "" } else { " --no-retry" },
                ));
            }
            if let Some(note) = &f.shrink_note {
                out.push_str(&format!("({note})\n"));
            }
        }
        out
    }
}

/// Draws the fault plan for one schedule seed, applying the campaign's
/// plan-level overrides (`torus_only`, pinned budget).
fn draw_plan(seed: u64, opts: &ChaosOptions, rings: usize) -> FaultPlan {
    let mut plan = FaultPlan::random(seed, opts.nodes, rings);
    if opts.torus_only {
        plan.drop = 0.0;
        plan.duplicate = 0.0;
        plan.delay = 0.0;
        plan.link_drops.clear();
        plan.stalls.clear();
        plan.bridge_drop = 0.0;
        if !plan.torus_faults() {
            // The seed drew a ring-only plan; give it a deterministic
            // torus schedule instead so every run exercises the path.
            plan.torus_drop = 0.03 + (seed % 10) as f64 * 0.01;
            plan.torus_budget = 2 + seed % 10;
        }
    }
    if let Some(budget) = opts.budget {
        // Mirror the shrinker's `with_budget` exactly (it also clamps the
        // torus budget), so `--budget` replays the very plan the shrinker
        // verified — not a look-alike with a longer torus drop schedule.
        plan = plan.with_budget(budget);
    }
    plan
}

/// Shrinks a failing plan to a minimal reproducer ([`shrink`]), probing
/// each candidate with a full replay from cycle zero. Returns the
/// minimized plan plus a note recording the shrink wall time and run
/// count.
fn shrink_plan(replay: &Replay, alg: Algorithm, plan: &FaultPlan) -> (FaultPlan, String) {
    let started = Instant::now();
    let mut runs = 0u32;
    let best = shrink(plan, |p| {
        runs += 1;
        replay
            .run(alg, QueueKind::Heap, Some(p))
            .is_ok_and(|out| !out.check(&chaos_expectations()).is_empty())
    });
    let note = format!("shrunk in {:.1?}: {runs} full run(s)", started.elapsed());
    (best, note)
}

/// The shrink search over a failure predicate: binary-search the
/// smallest failing budget prefix, then drop whole fault kinds while the
/// failure persists (fewest distinct faults, then fewest fault kinds).
/// No plan is probed twice.
fn shrink(plan: &FaultPlan, mut fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut best = plan.clone();
    // Budget prefix: the plan draws faults in a fixed order, so budget b
    // replays the first b faults of the original schedule. `hi` is known
    // to fail; find the smallest failing prefix.
    if best.budget > 1 {
        let (mut lo, mut hi) = (1, best.budget);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fails(&best.with_budget(mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // `hi` moves only on a failing probe, so if it moved, that probe
        // was this very prefix. If it never moved, run the full-length
        // prefix once: `with_budget` also clamps the torus budget, so it
        // can differ from the drawn plan.
        let cand = best.with_budget(lo);
        if lo < best.budget || fails(&cand) {
            best = cand;
        }
    }
    // Kind elimination: remove whole fault classes while still failing.
    // Partition windows shrink first: they are the scenario-scheduled
    // disruption, and a reproducer that fails without them points
    // straight at the randomized faults.
    let simplifications: [fn(&mut FaultPlan); 8] = [
        |p| p.partitions.clear(),
        |p| p.bridge_drop = 0.0,
        |p| p.torus_drop = 0.0,
        |p| p.stalls.clear(),
        |p| p.link_drops.clear(),
        |p| p.delay = 0.0,
        |p| p.duplicate = 0.0,
        |p| p.drop = 0.0,
    ];
    for simplify in simplifications {
        let mut cand = best.clone();
        simplify(&mut cand);
        if cand != best && fails(&cand) {
            best = cand;
        }
    }
    best
}

/// Runs a seeded chaos campaign over one workload profile.
///
/// Records the profile's access trace once, then for each of
/// `opts.schedules` randomized [`FaultPlan`]s runs every Table 3
/// algorithm under that plan and checks the campaign's survival
/// properties (see the [module docs](self)). Failures are shrunk to
/// minimal reproducers when `opts.shrink` is set.
///
/// ```
/// use flexsnoop_checker::chaos::{run_chaos, ChaosOptions};
/// use flexsnoop_workload::profiles;
///
/// # fn main() -> Result<(), String> {
/// let opts = ChaosOptions {
///     schedules: 3,
///     accesses_per_core: 60,
///     threads: 2,
///     ..ChaosOptions::default()
/// };
/// let report = run_chaos(&profiles::specweb(), &opts)?;
/// assert!(report.is_clean(), "{}", report.render());
/// assert_eq!(report.runs, 12); // 3 schedules × 4 Table 3 algorithms
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns a message if a simulator rejects the configuration (property
/// failures land in the report, not the error).
pub fn run_chaos(profile: &WorkloadProfile, opts: &ChaosOptions) -> Result<ChaosReport, String> {
    let mut streams = profile.streams(opts.base_seed);
    let trace = Trace::record(&mut streams, opts.accesses_per_core);
    let mut machine = MachineConfig::for_cores(trace.cores(), opts.nodes, opts.hier)?;
    if let Some(policy) = opts.timeout_policy {
        machine.recovery.timeout_policy = policy;
    }
    let rings = machine.ring.rings;
    let mut replay = Replay::new(&trace, machine);
    replay.recovery = opts.recovery;

    // The fault-free directory baseline over the identical trace: the
    // independent reference implementation every faulted ring run is
    // held against (through the shared sound-invariant set).
    let (baseline_reasons, _) = directory_baseline(&replay)?;

    // Draw the schedule seeds up front from a private stream, so the
    // campaign is a pure function of `base_seed` — unless a single
    // reproducer seed was pinned.
    let seeds: Vec<u64> = match opts.schedule {
        Some(seed) => vec![seed],
        None => {
            let mut seed_rng = SplitMix64::new(opts.base_seed ^ 0x5EED_CA05);
            (0..opts.schedules).map(|_| seed_rng.next_u64()).collect()
        }
    };

    let configs: Vec<(u64, Algorithm)> = seeds
        .iter()
        .flat_map(|&seed| TABLE3_ALGORITHMS.iter().map(move |&alg| (seed, alg)))
        .collect();
    let tasks: Vec<_> = configs
        .iter()
        .map(|&(seed, alg)| {
            let replay = &replay;
            move || {
                let plan = draw_plan(seed, opts, rings);
                replay
                    .run(alg, QueueKind::Heap, Some(&plan))
                    .map(|out| (plan, out))
            }
        })
        .collect();
    let results = Executor::new(opts.threads.max(1)).run(tasks);

    // The first runs are re-checked on the other queue backend below.
    let probes = (opts.determinism_probes * TABLE3_ALGORITHMS.len() as u64)
        .min(configs.len() as u64) as usize;
    let mut totals = ChaosTotals::default();
    let mut coverage = ChaosCoverage::default();
    let mut failures = Vec::new();
    let mut probed = Vec::with_capacity(probes);
    for (&(seed, alg), result) in configs.iter().zip(results) {
        let (plan, out) = result?;
        totals.absorb(&out.stats);
        coverage.absorb_plan(&plan, opts.hier.is_some());
        coverage.absorb_events(&out.fault_stats);
        let reasons = out.check(&chaos_expectations());
        if !reasons.is_empty() {
            let (minimized, shrink_note) = opts
                .shrink
                .then(|| shrink_plan(&replay, alg, &plan))
                .unzip();
            failures.push(ChaosFailure {
                seed,
                algorithm: alg,
                plan: plan.clone(),
                reasons,
                minimized,
                shrink_note,
            });
        }
        if probed.len() < probes {
            probed.push((seed, alg, plan, out));
        }
    }

    // Determinism under faults: the same (plan, algorithm) must be
    // bit-for-bit identical on the other queue backend.
    for (seed, alg, plan, heap) in probed {
        let bucketed = replay.run(alg, QueueKind::Bucketed, Some(&plan))?;
        let reasons = heap.identity_breaks(&bucketed, "queue backends Heap vs Bucketed");
        if !reasons.is_empty() {
            failures.push(ChaosFailure {
                seed,
                algorithm: alg,
                plan,
                reasons,
                minimized: None,
                shrink_note: None,
            });
        }
    }

    Ok(ChaosReport {
        profile: profile.name.clone(),
        base_seed: opts.base_seed,
        nodes: opts.nodes,
        hier: opts.hier,
        accesses_per_core: opts.accesses_per_core,
        schedules: seeds.len() as u64,
        runs: configs.len() as u64,
        recovery: opts.recovery,
        totals,
        coverage,
        determinism_checks: probes as u64,
        baseline_reasons,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsnoop_workload::profiles;

    fn tiny() -> ChaosOptions {
        ChaosOptions {
            schedules: 4,
            accesses_per_core: 60,
            threads: 2,
            determinism_probes: 1,
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn small_campaign_is_clean_and_injects_faults() {
        let report = run_chaos(&profiles::specweb(), &tiny()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.runs, 16);
        assert!(
            report.totals.drops + report.totals.duplicates + report.totals.delays > 0,
            "campaign must actually inject faults: {:?}",
            report.totals
        );
        assert!(report.render().contains("CLEAN"));
    }

    #[test]
    fn no_retry_campaign_fails_and_shrinks() {
        let opts = ChaosOptions {
            recovery: false,
            schedules: 6,
            ..tiny()
        };
        let report = run_chaos(&profiles::specweb(), &opts).unwrap();
        assert!(
            !report.is_clean(),
            "dropping messages without retries must strand transactions"
        );
        let f = &report.failures[0];
        assert!(!f.reasons.is_empty());
        let min = f.minimized.as_ref().expect("shrinking was on");
        assert!(
            min.budget <= f.plan.budget,
            "shrunk budget {} must not exceed original {}",
            min.budget,
            f.plan.budget
        );
        // The minimal reproducer must still fail.
        let rendered = report.render();
        assert!(rendered.contains("minimal reproducer"), "{rendered}");
        assert!(rendered.contains("--no-retry"), "{rendered}");
        assert!(
            rendered.contains("shrunk in"),
            "shrink wall time missing from the report"
        );
    }

    /// The search probes no plan twice: when the budget search has moved
    /// `hi`, its last failing probe was the prefix it keeps. Thresholds
    /// 1 and 6 move `hi`; at 19 it never moves and the full-length prefix
    /// is probed once.
    #[test]
    fn shrink_probes_no_plan_twice() {
        let mut plan = FaultPlan::lossless();
        plan.budget = 19;
        plan.drop = 0.1;
        plan.delay = 0.1;
        for threshold in [1, 6, 19] {
            let mut probed: Vec<FaultPlan> = Vec::new();
            let best = shrink(&plan, |p| {
                assert!(!probed.contains(p), "probed twice: {}", p.describe());
                probed.push(p.clone());
                p.budget >= threshold && p.drop > 0.0
            });
            assert_eq!(best.budget, threshold);
            assert_eq!((best.drop, best.delay), (0.1, 0.0));
        }
    }

    #[test]
    fn pinned_reproducer_replays_identical_verdict() {
        let opts = ChaosOptions {
            recovery: false,
            schedules: 6,
            ..tiny()
        };
        let report = run_chaos(&profiles::specweb(), &opts).unwrap();
        let f = report
            .failures
            .iter()
            .find(|f| f.minimized.is_some())
            .expect("no-retry campaign must fail and shrink");
        let min = f.minimized.as_ref().unwrap();

        // The verdict the shrinker verified: the budget-truncated prefix
        // of the drawn plan, run from scratch. (Kind eliminations are
        // extra diagnosis; the reproducer line replays the prefix.)
        let mut streams = profiles::specweb().streams(opts.base_seed);
        let trace = Trace::record(&mut streams, opts.accesses_per_core);
        let machine = MachineConfig::for_cores(trace.cores(), opts.nodes, opts.hier).unwrap();
        let mut replay = Replay::new(&trace, machine);
        replay.recovery = opts.recovery;
        let prefix =
            FaultPlan::random(min.seed, opts.nodes, machine.ring.rings).with_budget(min.budget);
        let direct = replay
            .run(f.algorithm, QueueKind::Heap, Some(&prefix))
            .unwrap();
        let expected = direct.check(&chaos_expectations());
        assert!(!expected.is_empty(), "minimized prefix must still fail");

        // The CLI reproducer path: the same campaign entry point with the
        // schedule seed and budget pinned, exactly as the rendered
        // `flexsnoop chaos --schedule … --budget …` line does.
        let repro_opts = ChaosOptions {
            schedule: Some(min.seed),
            budget: Some(min.budget),
            shrink: false,
            determinism_probes: 0,
            ..opts.clone()
        };
        let repro = run_chaos(&profiles::specweb(), &repro_opts).unwrap();
        let again = repro
            .failures
            .iter()
            .find(|g| g.algorithm == f.algorithm)
            .expect("pinned reproducer must fail the same algorithm");
        assert_eq!(
            again.reasons, expected,
            "reproducer verdict drifted from the shrunk probe (same oracle \
             verdict and failing transaction id required)"
        );
    }

    #[test]
    fn torus_only_campaign_is_clean_and_drops_only_torus_messages() {
        let opts = ChaosOptions {
            torus_only: true,
            ..tiny()
        };
        let report = run_chaos(&profiles::specweb(), &opts).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(
            report.totals.torus_drops > 0,
            "torus-only campaign must inject torus drops: {:?}",
            report.totals
        );
        assert_eq!(
            report.totals.drops + report.totals.duplicates + report.totals.delays,
            0,
            "torus-only plans must carry no ring faults"
        );
        for kind in ["drop", "duplicate", "delay", "stall"] {
            assert_eq!(report.coverage.injected(kind), 0, "{kind}");
        }
        assert!(report.coverage.injected("torus-drop") > 0);
    }

    #[test]
    fn static_timeout_override_changes_retry_behaviour_not_correctness() {
        let static_opts = ChaosOptions {
            timeout_policy: Some(TimeoutPolicy::Static),
            ..tiny()
        };
        let report = run_chaos(&profiles::specweb(), &static_opts).unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn coverage_baseline_roundtrip_and_ratchet() {
        let cov = ChaosCoverage {
            kinds: [[3, 30], [2, 20], [4, 40], [1, 5], [2, 7], [1, 11], [2, 9]],
        };
        let text = cov.render_baseline();
        let parsed = ChaosCoverage::parse_baseline(&text).unwrap();
        assert_eq!(parsed.injected("drop"), 30);
        assert_eq!(parsed.injected("torus-drop"), 7);
        assert_eq!(parsed.injected("partition"), 11);
        assert_eq!(parsed.injected("bridge"), 9);
        // Baselines written before the partition and bridge kinds
        // existed parse fine (unknown-kind lines are the symmetric case,
        // also ignored).
        let old = "drop 30\nduplicate 20\ndelay 40\nstall 5\ntorus-drop 7\n";
        let old_cov = ChaosCoverage::parse_baseline(old).unwrap();
        assert_eq!(old_cov.injected("partition"), 0);
        assert_eq!(old_cov.injected("bridge"), 0);
        assert!(cov.regressions(&parsed).is_empty());
        // A kind the baseline proved reachable going silent is a failure…
        let mut starved = cov;
        starved.kinds[4][1] = 0;
        let regs = starved.regressions(&parsed);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("torus-drop"), "{regs:?}");
        // …but a kind the baseline never saw is not.
        let mut sparse_base = parsed;
        sparse_base.kinds[4][1] = 0;
        assert!(starved.regressions(&sparse_base).is_empty());
        assert!(
            ChaosCoverage::parse_baseline("drop notanumber").is_err(),
            "malformed counts must be rejected"
        );
        assert_eq!(starved.starved_kinds(), vec!["torus-drop"]);
    }

    #[test]
    fn hier_campaign_survives_and_injects_bridge_drops() {
        // On a hierarchical machine the drawn plans' bridge schedules go
        // live: global-ring crossings get dropped and the timeout/retry
        // layer must still retire everything, on every Table 3 algorithm.
        let opts = ChaosOptions {
            nodes: 8,
            hier: Some((2, 4)),
            schedules: 6,
            ..tiny()
        };
        let report = run_chaos(&profiles::specweb(), &opts).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(
            report.totals.bridge_drops > 0,
            "campaign never dropped a bridge crossing: {:?}",
            report.totals
        );
        assert!(report.coverage.injected("bridge") > 0);
        assert!(report.render().contains("bridge drops"));
    }

    #[test]
    fn hier_reproducer_line_pins_the_topology() {
        // A failure found on a hierarchical machine must replay on one:
        // the rendered reproducer carries the shape.
        let opts = ChaosOptions {
            nodes: 8,
            hier: Some((2, 4)),
            recovery: false,
            schedules: 6,
            ..tiny()
        };
        let report = run_chaos(&profiles::specweb(), &opts).unwrap();
        assert!(!report.is_clean(), "no-retry hier campaign must fail");
        let rendered = report.render();
        assert!(
            rendered.contains("--topology hier:2x4"),
            "reproducer line must pin the hier shape:\n{rendered}"
        );
    }

    #[test]
    fn campaign_is_reproducible() {
        let a = run_chaos(&profiles::specweb(), &tiny()).unwrap();
        let b = run_chaos(&profiles::specweb(), &tiny()).unwrap();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.failures.len(), b.failures.len());
    }
}
