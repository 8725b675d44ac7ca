//! The build-run-check path the three coherence checkers share.
//!
//! The scenario runner, the chaos campaign (`flexsnoop-checker::chaos`)
//! and the differential matrix (`flexsnoop-checker`) each replay one
//! recorded [`Trace`] under the Table 3 algorithms with the invariant
//! oracle on, check every finished run against a set of
//! [`Expectation`](crate::Expectation)s, and compare a run with its rerun
//! on the other queue backend. A [`Replay`] builds and runs those
//! simulators ([`Simulator::for_trace`]) and fills the one outcome record
//! ([`RunOutcome`]) the checks and the comparison read.

use std::collections::BTreeSet;

use flexsnoop::{
    Algorithm, ChurnWindow, FaultPlan, MachineConfig, ProtocolMutation, Simulator, Violation,
};
use flexsnoop_engine::{Cycle, QueueKind};
use flexsnoop_mem::LineAddr;
use flexsnoop_workload::Trace;

use crate::RunOutcome;

/// Cycles before the first violation a walkthrough rewinds to —
/// generous enough to cover a lossless transaction's whole lifetime
/// (ring round trip plus a memory access), so the walkthrough captures
/// the violating transaction from issue to retirement.
const REWIND_WINDOW: u64 = 16_384;

/// One recorded trace on one machine, plus the disruptions and settings
/// every run of it arms.
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    trace: &'a Trace,
    machine: MachineConfig,
    written: BTreeSet<LineAddr>,
    /// Node churn windows armed on every run.
    pub churn: Vec<ChurnWindow>,
    /// Timeout/retry recovery (on by default). `false` is the chaos
    /// campaign's self-test: faults must then visibly strand
    /// transactions.
    pub recovery: bool,
    /// A deliberate protocol bug injected into every run, to test the
    /// checkers themselves.
    pub mutation: Option<ProtocolMutation>,
    /// Cycle at which the last scheduled disruption ends; the
    /// `recovers-within` expectation measures from here.
    pub last_disruption_end: u64,
    /// When set, a run whose oracle records a violation is rewound: it is
    /// replayed to shortly before the first violation, checkpointed there,
    /// restored into a simulator recording a timeline of this many
    /// transactions, and stepped through the violation. The outcome then
    /// carries the first violating transaction's walkthrough, without
    /// every clean run paying for a recorder.
    pub walkthrough: Option<usize>,
}

impl<'a> Replay<'a> {
    /// Replays `trace` on `machine` (see [`MachineConfig::for_cores`])
    /// with recovery on and nothing else armed.
    pub fn new(trace: &'a Trace, machine: MachineConfig) -> Self {
        let written = (0..trace.cores())
            .flat_map(|c| trace.core(c).iter().filter(|a| a.write).map(|a| a.line))
            .collect();
        Self {
            trace,
            machine,
            written,
            churn: Vec::new(),
            recovery: true,
            mutation: None,
            last_disruption_end: 0,
            walkthrough: None,
        }
    }

    /// The replayed trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// The machine every run simulates.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Lines the trace ever stores to: only these may end a run dirty.
    pub fn written(&self) -> &BTreeSet<LineAddr> {
        &self.written
    }

    /// Builds (without running) one run: `alg` with its default
    /// predictor on the `kind` queue backend, the invariant oracle on,
    /// `plan`'s faults armed when given, plus this replay's churn,
    /// recovery and mutation settings.
    ///
    /// # Errors
    ///
    /// Returns a message if the simulator rejects the configuration.
    pub fn build(
        &self,
        alg: Algorithm,
        kind: QueueKind,
        plan: Option<&FaultPlan>,
    ) -> Result<Simulator, String> {
        let mut sim = Simulator::for_trace(self.trace, self.machine, alg, None)?;
        sim.use_event_queue(kind);
        sim.enable_invariant_checks();
        if let Some(plan) = plan {
            sim.set_fault_plan(plan.clone());
        }
        sim.set_churn_plan(self.churn.clone())?;
        sim.set_recovery_enabled(self.recovery);
        if let Some(m) = self.mutation {
            sim.inject_mutation(m);
        }
        Ok(sim)
    }

    /// Builds and runs one configuration to completion and collects its
    /// outcome.
    ///
    /// # Errors
    ///
    /// Returns a message if the simulator rejects the configuration.
    pub fn run(
        &self,
        alg: Algorithm,
        kind: QueueKind,
        plan: Option<&FaultPlan>,
    ) -> Result<RunOutcome, String> {
        let mut sim = self.build(alg, kind, plan)?;
        let stats = sim.run();
        let violations = sim.violations().to_vec();
        let walkthrough = match (self.walkthrough, violations.first()) {
            (Some(limit), Some(v)) => self.rewind(alg, kind, plan, limit, v),
            _ => None,
        };
        Ok(RunOutcome {
            stats,
            fault_stats: sim.fault_stats(),
            violations,
            walkthrough,
            coherence: sim.validate_coherence(),
            in_flight: sim.in_flight(),
            degraded_lines: sim.degraded_line_count() as u64,
            snapshot: sim.state_snapshot(),
            written: self.written.clone(),
            last_disruption_end: self.last_disruption_end,
        })
    }

    /// Time-travels a violating run (see [`Replay::walkthrough`]).
    /// Determinism makes the replay exact, so the rendered walkthrough is
    /// the one the original run would have recorded.
    fn rewind(
        &self,
        alg: Algorithm,
        kind: QueueKind,
        plan: Option<&FaultPlan>,
        limit: usize,
        v: &Violation,
    ) -> Option<String> {
        let rewind_to = Cycle::new(v.at.as_u64().saturating_sub(REWIND_WINDOW));
        let mut donor = self.build(alg, kind, plan).ok()?;
        donor.run_until(Some(rewind_to));
        let checkpoint = donor.save_snapshot();
        let mut replay = self.build(alg, kind, plan).ok()?;
        replay.enable_timeline(limit);
        replay.restore_snapshot(&checkpoint).ok()?;
        // Step only the tail: everything up to and including the
        // violation cycle (run_until stops before popping events at the
        // stop cycle).
        replay.run_until(Some(Cycle::new(v.at.as_u64() + 1)));
        Some(format!(
            "first divergent transaction (rewound to cycle {rewind_to} via checkpoint, \
             violation at cycle {}):\n{}",
            v.at,
            replay.timeline()?.render(v.txn)
        ))
    }
}
