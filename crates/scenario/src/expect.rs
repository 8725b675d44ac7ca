//! Expectations: post-run health checks a scenario declares up front.
//!
//! An [`Expectation`] is a named predicate over everything observable
//! from one finished run (a [`RunOutcome`]). Scenarios list them
//! declaratively; the runner evaluates every expectation against every
//! algorithm's run and reports one line per broken property. The chaos
//! campaign's historical failure predicate is exactly
//! [`chaos_expectations`] evaluated in order, so a scenario that fails
//! renders the same messages a chaos reproducer does; the differential
//! matrix checks its own set ([`Expectation::ExactSupply`] in place of
//! the fault-relaxed supply check) over the same record.

use std::collections::BTreeSet;
use std::fmt;

use flexsnoop::{FaultStats, RunStats, Violation};
use flexsnoop_mem::{CoherState, LineAddr};

/// A canonical `(line, cmp, core, state)` snapshot of every resident L2
/// line, sorted.
pub type LineStates = Vec<(LineAddr, usize, usize, CoherState)>;

/// Everything observable from one finished run: the one outcome record
/// of the scenario runner, the chaos campaign and the differential
/// matrix, filled by [`Replay::run`](crate::Replay::run).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final run statistics.
    pub stats: RunStats,
    /// Ring and torus faults the run's plan injected.
    pub fault_stats: FaultStats,
    /// Invariant-oracle violations recorded during the run.
    pub violations: Vec<Violation>,
    /// Timeline walkthrough of the first violating transaction, when the
    /// run was replayed with one ([`Replay::walkthrough`](crate::Replay::walkthrough)).
    pub walkthrough: Option<String>,
    /// Result of the final Figure 2(b) coherence sweep.
    pub coherence: Result<(), String>,
    /// Transactions still in flight at the end (must be zero).
    pub in_flight: usize,
    /// Lines still in degraded (Lazy-forwarding) mode at the end.
    pub degraded_lines: u64,
    /// Final line states.
    pub snapshot: LineStates,
    /// Lines the replayed trace actually wrote.
    pub written: BTreeSet<LineAddr>,
    /// Cycle at which the last scheduled disruption ended: the latest
    /// partition heal or churn re-add (0 when the scenario schedules
    /// neither). Recovery expectations measure from here.
    pub last_disruption_end: u64,
}

impl RunOutcome {
    /// Every broken expectation, one line each, in `expectations` order.
    pub fn check(&self, expectations: &[Expectation]) -> Vec<String> {
        expectations.iter().flat_map(|e| e.check(self)).collect()
    }

    /// Compares a rerun of the same configuration that varied only
    /// `what` (the queue backend or the executor width): the two must be
    /// bit-for-bit identical. One line per part that differs, the
    /// statistics first, then the final line states with the first entry
    /// only one run holds as the witness; empty when identical.
    pub fn identity_breaks(&self, rerun: &RunOutcome, what: &str) -> Vec<String> {
        let mut breaks = Vec::new();
        if self.stats != rerun.stats {
            breaks.push(format!(
                "RunStats differ across {what} (must be bit-for-bit identical)"
            ));
        }
        if self.snapshot != rerun.snapshot {
            breaks.push(match first_state_diff(&self.snapshot, &rerun.snapshot) {
                Some(d) => format!("final line states differ across {what}: {d}"),
                None => format!("final line states differ across {what}"),
            });
        }
        breaks
    }
}

/// The first `(line, cmp, core, state)` entry present in only one of two
/// snapshots — the minimized witness for a state divergence. Snapshots
/// are already canonically sorted, so a two-pointer walk finds it.
fn first_state_diff(a: &LineStates, b: &LineStates) -> Option<String> {
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

/// One declarative post-run health check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Zero invariant-oracle violations and a clean final coherence
    /// sweep.
    CoherenceClean,
    /// Every transaction retired and every core finished its stream.
    AllRetired,
    /// Every read was supplied at least once (cache or memory). Under
    /// faults a retried read may be supplied twice — never less than
    /// once.
    SupplyAccounting,
    /// Every read was supplied exactly once, by cache or memory: the
    /// lossless identity (no retry can supply a read twice).
    ExactSupply,
    /// Only lines the trace wrote may end dirty.
    NoRogueDirty,
    /// No recovery timeout fires more than this many cycles after the
    /// last scheduled disruption ends: the machine must settle.
    RecoversWithin(u64),
    /// At most this many lines may still be degraded (Lazy forwarding)
    /// when the run ends.
    MaxDegradedLines(u64),
    /// After the last degraded line re-arms (probation exit), no retry
    /// may be proven spurious: a healed machine stops second-guessing
    /// itself.
    NoSpuriousRetriesAfterProbation,
}

impl Expectation {
    /// Evaluates the expectation; one line per broken property, empty
    /// when it holds.
    pub fn check(&self, out: &RunOutcome) -> Vec<String> {
        let mut reasons = Vec::new();
        match *self {
            Expectation::CoherenceClean => {
                if let Some(v) = out.violations.first() {
                    let mut reason = format!(
                        "invariant oracle recorded {} violation(s); first: {v}",
                        out.violations.len()
                    );
                    if let Some(walk) = &out.walkthrough {
                        reason.push('\n');
                        reason.push_str(walk);
                    }
                    reasons.push(reason);
                }
                if let Err(e) = &out.coherence {
                    reasons.push(format!("final coherence sweep failed: {e}"));
                }
            }
            Expectation::AllRetired => {
                if out.in_flight > 0 {
                    reasons.push(format!(
                        "{} transaction(s) never retired (lost on the ring)",
                        out.in_flight
                    ));
                }
                let unfinished = out.stats.robustness.unfinished_cores;
                if unfinished > 0 {
                    reasons.push(format!("{unfinished} core(s) stranded mid-stream"));
                }
            }
            Expectation::SupplyAccounting => {
                let s = &out.stats;
                if s.reads_cache_supplied + s.reads_from_memory < s.read_txns {
                    reasons.push(format!(
                        "read supply accounting broken: {} txns > {} cache + {} memory",
                        s.read_txns, s.reads_cache_supplied, s.reads_from_memory
                    ));
                }
            }
            Expectation::ExactSupply => {
                let s = &out.stats;
                if s.read_txns != s.reads_cache_supplied + s.reads_from_memory {
                    reasons.push(format!(
                        "read supply accounting broken: {} txns != {} cache + {} memory",
                        s.read_txns, s.reads_cache_supplied, s.reads_from_memory
                    ));
                }
            }
            Expectation::NoRogueDirty => {
                let rogue: Vec<LineAddr> = out
                    .snapshot
                    .iter()
                    .filter(|&&(line, _, _, st)| st.is_dirty() && !out.written.contains(&line))
                    .map(|&(line, _, _, _)| line)
                    .collect();
                if !rogue.is_empty() {
                    reasons.push(format!("dirty lines never written by the trace: {rogue:?}"));
                }
            }
            Expectation::RecoversWithin(slack) => {
                let last = out.stats.robustness.last_timeout_cycle;
                let deadline = out.last_disruption_end.saturating_add(slack);
                if last > deadline {
                    reasons.push(format!(
                        "recovery not settled within {slack} cycles of the last \
                         disruption: timeout fired at cycle {last}, deadline was {deadline}"
                    ));
                }
            }
            Expectation::MaxDegradedLines(max) => {
                if out.degraded_lines > max {
                    reasons.push(format!(
                        "{} line(s) still degraded at the end of the run (budget: {max})",
                        out.degraded_lines
                    ));
                }
            }
            Expectation::NoSpuriousRetriesAfterProbation => {
                let r = &out.stats.robustness;
                if r.last_probation_exit_cycle > 0
                    && r.last_spurious_retry_cycle > r.last_probation_exit_cycle
                {
                    reasons.push(format!(
                        "spurious retry at cycle {} after the last probation exit at cycle {}",
                        r.last_spurious_retry_cycle, r.last_probation_exit_cycle
                    ));
                }
            }
        }
        reasons
    }

    /// Parses the DSL form: the keyword plus an optional numeric
    /// argument (`recovers-within 30000`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown keyword or bad argument.
    pub fn parse(text: &str) -> Result<Expectation, String> {
        let mut parts = text.split_whitespace();
        let keyword = parts.next().ok_or("empty expectation")?;
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(format!("trailing tokens in expectation `{text}`"));
        }
        let number = |keyword: &str| -> Result<u64, String> {
            arg.ok_or_else(|| format!("expectation `{keyword}` needs a numeric argument"))?
                .parse()
                .map_err(|_| format!("bad numeric argument in expectation `{text}`"))
        };
        let bare = |e: Expectation| -> Result<Expectation, String> {
            match arg {
                None => Ok(e),
                Some(extra) => Err(format!(
                    "expectation `{keyword}` takes no argument, got `{extra}`"
                )),
            }
        };
        match keyword {
            "coherence-clean" => bare(Expectation::CoherenceClean),
            "all-retired" => bare(Expectation::AllRetired),
            "supply-accounting" => bare(Expectation::SupplyAccounting),
            "exact-supply" => bare(Expectation::ExactSupply),
            "no-rogue-dirty" => bare(Expectation::NoRogueDirty),
            "no-spurious-retries-after-probation" => {
                bare(Expectation::NoSpuriousRetriesAfterProbation)
            }
            "recovers-within" => Ok(Expectation::RecoversWithin(number(keyword)?)),
            "max-degraded-lines" => Ok(Expectation::MaxDegradedLines(number(keyword)?)),
            other => Err(format!("unknown expectation `{other}`")),
        }
    }
}

/// Renders the DSL form [`Expectation::parse`] accepts.
impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expectation::CoherenceClean => write!(f, "coherence-clean"),
            Expectation::AllRetired => write!(f, "all-retired"),
            Expectation::SupplyAccounting => write!(f, "supply-accounting"),
            Expectation::ExactSupply => write!(f, "exact-supply"),
            Expectation::NoRogueDirty => write!(f, "no-rogue-dirty"),
            Expectation::RecoversWithin(c) => write!(f, "recovers-within {c}"),
            Expectation::MaxDegradedLines(n) => write!(f, "max-degraded-lines {n}"),
            Expectation::NoSpuriousRetriesAfterProbation => {
                write!(f, "no-spurious-retries-after-probation")
            }
        }
    }
}

/// The chaos campaign's survival properties, in its historical report
/// order. Evaluating these against a [`RunOutcome`] reproduces the exact
/// failure lines `flexsnoop chaos` has always rendered — reproducer
/// verdicts are stable across the port.
pub fn chaos_expectations() -> [Expectation; 4] {
    [
        Expectation::CoherenceClean,
        Expectation::AllRetired,
        Expectation::SupplyAccounting,
        Expectation::NoRogueDirty,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_outcome() -> RunOutcome {
        RunOutcome {
            stats: RunStats::new(flexsnoop_metrics::EnergyModel::paper_baseline()),
            fault_stats: FaultStats::default(),
            violations: Vec::new(),
            walkthrough: None,
            coherence: Ok(()),
            in_flight: 0,
            degraded_lines: 0,
            snapshot: Vec::new(),
            written: BTreeSet::new(),
            last_disruption_end: 0,
        }
    }

    #[test]
    fn clean_outcome_passes_every_expectation() {
        let out = clean_outcome();
        for e in [
            Expectation::CoherenceClean,
            Expectation::AllRetired,
            Expectation::SupplyAccounting,
            Expectation::ExactSupply,
            Expectation::NoRogueDirty,
            Expectation::RecoversWithin(0),
            Expectation::MaxDegradedLines(0),
            Expectation::NoSpuriousRetriesAfterProbation,
        ] {
            assert_eq!(e.check(&out), Vec::<String>::new(), "{e}");
        }
    }

    #[test]
    fn chaos_expectations_render_the_historical_messages() {
        let mut out = clean_outcome();
        out.coherence = Err("line 0x10 broken".into());
        out.in_flight = 2;
        out.stats.robustness.unfinished_cores = 1;
        out.stats.read_txns = 5;
        out.snapshot = vec![
            (LineAddr(0x40), 0, 1, CoherState::D),
            (LineAddr(0x80), 1, 0, CoherState::Sg),
        ];
        let reasons: Vec<String> = chaos_expectations()
            .iter()
            .flat_map(|e| e.check(&out))
            .collect();
        assert_eq!(
            reasons,
            vec![
                "final coherence sweep failed: line 0x10 broken".to_string(),
                "2 transaction(s) never retired (lost on the ring)".to_string(),
                "1 core(s) stranded mid-stream".to_string(),
                "read supply accounting broken: 5 txns > 0 cache + 0 memory".to_string(),
                "dirty lines never written by the trace: [LineAddr(64)]".to_string(),
            ]
        );
    }

    #[test]
    fn exact_supply_rejects_double_supplies_the_relaxed_check_allows() {
        let mut out = clean_outcome();
        out.stats.read_txns = 2;
        out.stats.reads_cache_supplied = 2;
        out.stats.reads_from_memory = 1;
        assert!(Expectation::SupplyAccounting.check(&out).is_empty());
        assert_eq!(
            Expectation::ExactSupply.check(&out),
            vec!["read supply accounting broken: 2 txns != 2 cache + 1 memory".to_string()]
        );
    }

    #[test]
    fn a_walkthrough_rides_on_the_first_violation_line() {
        let mut out = clean_outcome();
        out.violations = vec![Violation {
            txn: flexsnoop::TxnId(3),
            at: flexsnoop_engine::Cycle::new(90),
            line: LineAddr(0x40),
            what: "two suppliers".into(),
        }];
        out.walkthrough = Some("txn walk".into());
        let reasons = Expectation::CoherenceClean.check(&out);
        assert_eq!(reasons.len(), 1);
        assert!(
            reasons[0].ends_with("two suppliers\ntxn walk"),
            "{reasons:?}"
        );
    }

    #[test]
    fn identity_breaks_name_the_first_differing_state() {
        let a = clean_outcome();
        let mut b = clean_outcome();
        assert!(a.identity_breaks(&b, "queue backends").is_empty());
        b.stats.read_txns = 1;
        b.snapshot = vec![(LineAddr(0x40), 0, 1, CoherState::D)];
        assert_eq!(
            a.identity_breaks(&b, "queue backends"),
            vec![
                "RunStats differ across queue backends (must be bit-for-bit identical)"
                    .to_string(),
                format!(
                    "final line states differ across queue backends: only in second: {}@cmp0/core1 for {}",
                    CoherState::D,
                    LineAddr(0x40)
                ),
            ]
        );
    }

    #[test]
    fn recovery_expectations_fire_on_the_cycle_stamps() {
        let mut out = clean_outcome();
        out.last_disruption_end = 20_000;
        out.stats.robustness.last_timeout_cycle = 21_000;
        assert!(Expectation::RecoversWithin(2_000).check(&out).is_empty());
        let late = Expectation::RecoversWithin(500).check(&out);
        assert_eq!(late.len(), 1);
        assert!(late[0].contains("deadline was 20500"), "{late:?}");

        out.degraded_lines = 3;
        assert!(Expectation::MaxDegradedLines(3).check(&out).is_empty());
        assert_eq!(Expectation::MaxDegradedLines(2).check(&out).len(), 1);

        out.stats.robustness.last_probation_exit_cycle = 30_000;
        out.stats.robustness.last_spurious_retry_cycle = 29_000;
        assert!(Expectation::NoSpuriousRetriesAfterProbation
            .check(&out)
            .is_empty());
        out.stats.robustness.last_spurious_retry_cycle = 31_000;
        assert_eq!(
            Expectation::NoSpuriousRetriesAfterProbation
                .check(&out)
                .len(),
            1
        );
    }

    #[test]
    fn parse_and_render_round_trip() {
        for e in [
            Expectation::CoherenceClean,
            Expectation::AllRetired,
            Expectation::SupplyAccounting,
            Expectation::ExactSupply,
            Expectation::NoRogueDirty,
            Expectation::RecoversWithin(30_000),
            Expectation::MaxDegradedLines(4),
            Expectation::NoSpuriousRetriesAfterProbation,
        ] {
            assert_eq!(Expectation::parse(&e.to_string()).unwrap(), e);
        }
        assert!(Expectation::parse("retires-eventually").is_err());
        assert!(Expectation::parse("recovers-within").is_err());
        assert!(Expectation::parse("recovers-within soon").is_err());
        assert!(Expectation::parse("all-retired 3").is_err());
    }
}
