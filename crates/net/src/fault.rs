//! Deterministic fault injection for the embedded ring.
//!
//! The paper's correctness argument (§4.3.4) assumes a lossless ring:
//! every snoop request, reply and combined R/R message is delivered
//! exactly once. Real ring NoCs drop, duplicate and delay messages. A
//! [`FaultPlan`] describes a *bounded, seeded* schedule of such faults:
//!
//! * **drops** — a message crossing a link vanishes (per-link probability,
//!   optionally overridden for designated lossy links);
//! * **duplicates** — a second copy of the message serializes behind the
//!   original on the same link and arrives later;
//! * **delays** — the message arrives late by a bounded random amount
//!   (transient latency degradation);
//! * **stall windows** — a node is unable to forward for a fixed window
//!   of cycles; messages leaving it wait for the window to close.
//! * **partition windows** — the ring splits into islands for a fixed
//!   window of cycles; hops whose link crosses an island boundary are
//!   refused (the message is lost like a drop) until the partition
//!   heals. Recovery rides the same timeout/retry path as drops.
//!
//! Faults are drawn from the plan's own [`SplitMix64`] stream, so the
//! schedule is a pure function of `(plan, traffic)` — identical across
//! runs, queue backends and executor widths. The total number of
//! randomized faults is capped by [`FaultPlan::budget`]; once spent the
//! ring is lossless again, which both guarantees forward progress under
//! retry and makes failing schedules shrinkable by lowering the budget
//! (faults are consumed in draw order, so a smaller budget keeps a
//! prefix of the same schedule).
//!
//! The default plan ([`FaultPlan::lossless`]) injects nothing and draws
//! nothing: an unconfigured [`crate::RingNetwork`] behaves bit-for-bit
//! as before this module existed.
//!
//! The plan also covers the **torus data network**: `torus_drop` gives a
//! per-message drop probability for the idempotent data legs (memory
//! requests/replies and clean cache supplies), bounded by its own
//! `torus_budget` and drawn from a stream decorrelated from the ring's
//! (see [`TorusFaultState`]). Write-donation and writeback messages stay
//! reliable — losing them would silently discard dirty data, which no
//! timeout/retry scheme can recover without a value-level ack protocol.
//!
//! On hierarchical topologies the **bridge links** of the global ring
//! get their own drop stream: `bridge_drop` / `bridge_budget` bound a
//! drop schedule drawn from a third decorrelated stream
//! (`seed ^ BRIDGE_STREAM`), so lossy local rings and lossy bridges can
//! be injected — and shrunk — independently. Flat rings have no bridge
//! links and never consult this stream.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles, SplitMix64};

/// A window of cycles during which one node cannot forward messages.
///
/// Messages leaving the node inside `[from, until)` depart at `until`
/// instead (they still queue FIFO on the link afterwards). Stall windows
/// are part of the deterministic schedule and do not consume the random
/// fault budget — they end by construction, so they cannot threaten
/// forward progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallWindow {
    /// The stalled node.
    pub node: usize,
    /// First stalled cycle.
    pub from: Cycle,
    /// First cycle after the stall (departures resume here).
    pub until: Cycle,
}

impl StallWindow {
    /// Whether a departure at `now` from `node` is inside this window.
    pub fn covers(&self, node: usize, now: Cycle) -> bool {
        self.node == node && now >= self.from && now < self.until
    }
}

/// A window of cycles during which the ring is split into islands.
///
/// `islands[node]` is the island id of each node; nodes past the end of
/// the vector belong to island 0. While `now` is inside `[from, until)`,
/// any hop whose directed link leaves one island for another is refused:
/// the message is lost exactly like a dropped flit, and the requester
/// recovers through the ordinary timeout/retry path. At `until` the
/// partition heals and the ring is whole again. Like stall windows,
/// partitions are part of the deterministic schedule and consume no
/// random fault budget — they end by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// Island id per node (index = node id; missing entries are island 0).
    pub islands: Vec<usize>,
    /// First partitioned cycle.
    pub from: Cycle,
    /// First cycle after the heal (cross-island hops resume here).
    pub until: Cycle,
}

impl PartitionWindow {
    /// The island a node belongs to under this window.
    pub fn island_of(&self, node: usize) -> usize {
        self.islands.get(node).copied().unwrap_or(0)
    }

    /// Whether a hop from `from_node` to `to_node` departing at `now` is
    /// refused by this window.
    pub fn blocks(&self, from_node: usize, to_node: usize, now: Cycle) -> bool {
        now >= self.from && now < self.until && self.island_of(from_node) != self.island_of(to_node)
    }
}

/// A per-link drop-probability override (a designated lossy link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDrop {
    /// Embedded ring index.
    pub ring: usize,
    /// Source node of the directed link.
    pub node: usize,
    /// Drop probability for messages crossing this link.
    pub prob: f64,
}

/// A seeded, bounded schedule of ring faults.
///
/// See the [module docs](self) for the fault taxonomy. All probabilities
/// are per link crossing. `budget` caps the total number of randomized
/// faults (drops + duplicates + delays) the plan may ever inject; a
/// budget of zero makes any plan lossless.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's private fault stream.
    pub seed: u64,
    /// Baseline per-crossing drop probability.
    pub drop: f64,
    /// Per-link drop overrides (first match wins).
    pub link_drops: Vec<LinkDrop>,
    /// Per-crossing duplication probability.
    pub duplicate: f64,
    /// Per-crossing delay probability.
    pub delay: f64,
    /// Maximum injected delay; actual delays are uniform in `[1, max]`.
    pub delay_max: Cycles,
    /// Deterministic node-stall windows.
    pub stalls: Vec<StallWindow>,
    /// Maximum number of randomized faults ever injected.
    pub budget: u64,
    /// Per-message drop probability on faultable torus data legs.
    pub torus_drop: f64,
    /// Maximum number of torus drops ever injected (separate stream and
    /// budget so ring schedules stay prefix-shrinkable on their own).
    pub torus_budget: u64,
    /// Deterministic ring-partition windows (islands that later heal).
    pub partitions: Vec<PartitionWindow>,
    /// Per-crossing drop probability on hierarchical bridge links.
    pub bridge_drop: f64,
    /// Maximum number of bridge drops ever injected (own stream and
    /// budget, decorrelated from the local-ring and torus schedules).
    pub bridge_budget: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::lossless()
    }
}

impl FaultPlan {
    /// The lossless plan: no faults, no RNG draws, zero overhead.
    pub fn lossless() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            link_drops: Vec::new(),
            duplicate: 0.0,
            delay: 0.0,
            delay_max: Cycles(0),
            stalls: Vec::new(),
            budget: 0,
            torus_drop: 0.0,
            torus_budget: 0,
            partitions: Vec::new(),
            bridge_drop: 0.0,
            bridge_budget: 0,
        }
    }

    /// Whether this plan can never perturb a message.
    pub fn is_lossless(&self) -> bool {
        let random_faults = self.budget > 0
            && (self.drop > 0.0
                || self.duplicate > 0.0
                || self.delay > 0.0
                || self.link_drops.iter().any(|l| l.prob > 0.0));
        !random_faults
            && self.stalls.is_empty()
            && self.partitions.is_empty()
            && !self.torus_faults()
            && !self.bridge_faults()
    }

    /// Whether this plan can drop torus data messages.
    pub fn torus_faults(&self) -> bool {
        self.torus_budget > 0 && self.torus_drop > 0.0
    }

    /// Whether this plan can drop messages on hierarchical bridge links.
    pub fn bridge_faults(&self) -> bool {
        self.bridge_budget > 0 && self.bridge_drop > 0.0
    }

    /// Drop probability for the directed link leaving `node` on `ring`.
    pub fn drop_for(&self, ring: usize, node: usize) -> f64 {
        self.link_drops
            .iter()
            .find(|l| l.ring == ring && l.node == node)
            .map_or(self.drop, |l| l.prob)
    }

    /// Draws a randomized plan for a `nodes × rings` ring, suitable for
    /// chaos campaigns: small per-crossing probabilities, a bounded
    /// budget in `[1, 30]`, (each with probability one half) one
    /// designated lossy link and one node-stall window, and (with
    /// probability one half) a torus drop probability with its own
    /// budget in `[1, 12]`. Torus draws come after every ring draw, and
    /// bridge draws (probability one half: a bridge drop probability
    /// with its own budget in `[1, 10]`) come last of all, so the
    /// earlier fields of a given seed are identical to plans drawn
    /// before the later fault classes existed.
    pub fn random(seed: u64, nodes: usize, rings: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let budget = 1 + rng.next_below(30);
        let drop = rng.next_f64() * 0.03;
        let duplicate = rng.next_f64() * 0.03;
        let delay = rng.next_f64() * 0.06;
        let delay_max = Cycles(50 + rng.next_below(450));
        let mut link_drops = Vec::new();
        if rng.chance(0.5) {
            link_drops.push(LinkDrop {
                ring: rng.next_below(rings as u64) as usize,
                node: rng.next_below(nodes as u64) as usize,
                prob: 0.1 + rng.next_f64() * 0.4,
            });
        }
        let mut stalls = Vec::new();
        if rng.chance(0.5) {
            let from = Cycle::new(rng.next_below(20_000));
            stalls.push(StallWindow {
                node: rng.next_below(nodes as u64) as usize,
                from,
                until: from + Cycles(100 + rng.next_below(3_000)),
            });
        }
        let (torus_drop, torus_budget) = if rng.chance(0.5) {
            (0.02 + rng.next_f64() * 0.10, 1 + rng.next_below(12))
        } else {
            (0.0, 0)
        };
        let (bridge_drop, bridge_budget) = if rng.chance(0.5) {
            (0.05 + rng.next_f64() * 0.20, 1 + rng.next_below(10))
        } else {
            (0.0, 0)
        };
        FaultPlan {
            seed,
            drop,
            link_drops,
            duplicate,
            delay,
            delay_max,
            stalls,
            budget,
            torus_drop,
            torus_budget,
            // Partition windows are never drawn randomly: adding a draw
            // here would shift the stream and change every pinned chaos
            // reproducer. Scenarios supply partitions explicitly.
            partitions: Vec::new(),
            bridge_drop,
            bridge_budget,
        }
    }

    /// Returns a copy with a smaller fault budget. Because randomized
    /// faults are consumed in draw order, the copy injects a prefix of
    /// this plan's fault schedule — the shrinking step of the chaos
    /// campaign. The torus budget (an independent stream) is clamped to
    /// the same bound so shrinking converges on both networks at once.
    pub fn with_budget(&self, budget: u64) -> Self {
        let mut plan = self.clone();
        plan.budget = budget;
        plan.torus_budget = plan.torus_budget.min(budget);
        plan.bridge_budget = plan.bridge_budget.min(budget);
        plan
    }

    /// One-line human description for logs and reproducer recipes.
    pub fn describe(&self) -> String {
        if self.is_lossless() {
            return "lossless".into();
        }
        let mut s = format!(
            "seed={} budget={} drop={:.4} dup={:.4} delay={:.4}x{}",
            self.seed, self.budget, self.drop, self.duplicate, self.delay, self.delay_max.0
        );
        for l in &self.link_drops {
            s.push_str(&format!(" lossy[r{}n{}]={:.3}", l.ring, l.node, l.prob));
        }
        for w in &self.stalls {
            s.push_str(&format!(
                " stall[n{}]={}..{}",
                w.node,
                w.from.as_u64(),
                w.until.as_u64()
            ));
        }
        if self.torus_faults() {
            s.push_str(&format!(
                " torus={:.4}/bgt{}",
                self.torus_drop, self.torus_budget
            ));
        }
        if self.bridge_faults() {
            s.push_str(&format!(
                " bridge={:.4}/bgt{}",
                self.bridge_drop, self.bridge_budget
            ));
        }
        for p in &self.partitions {
            let islands: Vec<String> = p.islands.iter().map(usize::to_string).collect();
            s.push_str(&format!(
                " partition[{}]={}..{}",
                islands.join(""),
                p.from.as_u64(),
                p.until.as_u64()
            ));
        }
        s
    }
}

/// Counters for faults actually injected by a ring network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped mid-link.
    pub drops: u64,
    /// Messages duplicated (one extra copy each).
    pub duplicates: u64,
    /// Messages delivered late.
    pub delays: u64,
    /// Departures deferred by a stall window.
    pub stall_hits: u64,
    /// Torus data messages dropped (bounded by `torus_budget`).
    pub torus_drops: u64,
    /// Hops refused because the link crossed a partition boundary.
    pub partition_blocked: u64,
    /// Messages dropped on hierarchical bridge links (bounded by
    /// `bridge_budget`; not part of [`FaultStats::injected`]).
    pub bridge_drops: u64,
}

impl FaultStats {
    /// Randomized ring faults injected (drops + duplicates + delays);
    /// the quantity bounded by [`FaultPlan::budget`]. Torus drops are
    /// counted separately in `torus_drops`.
    pub fn injected(&self) -> u64 {
        self.drops + self.duplicates + self.delays
    }
}

impl Snapshot for FaultStats {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.drops);
        w.put_u64(self.duplicates);
        w.put_u64(self.delays);
        w.put_u64(self.stall_hits);
        w.put_u64(self.torus_drops);
        w.put_u64(self.partition_blocked);
        w.put_u64(self.bridge_drops);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.drops = r.get_u64()?;
        self.duplicates = r.get_u64()?;
        self.delays = r.get_u64()?;
        self.stall_hits = r.get_u64()?;
        self.torus_drops = r.get_u64()?;
        self.partition_blocked = r.get_u64()?;
        self.bridge_drops = r.get_u64()?;
        Ok(())
    }
}

/// What the fault layer did to one link crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingFault {
    /// The message vanished; it will never arrive.
    Dropped,
    /// A second copy was enqueued behind the original.
    Duplicated,
    /// Delivery was deferred by the given extra cycles.
    Delayed(Cycles),
}

/// The outcome of sending one message over one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopOutcome {
    /// Arrival time of the message at the downstream node, or `None` if
    /// the message was dropped.
    pub arrival: Option<Cycle>,
    /// Arrival time of an injected duplicate copy, if one was created.
    pub duplicate: Option<Cycle>,
    /// The fault injected on this crossing, if any.
    pub fault: Option<RingFault>,
}

impl HopOutcome {
    /// A clean delivery at `at`.
    pub fn delivered(at: Cycle) -> Self {
        HopOutcome {
            arrival: Some(at),
            duplicate: None,
            fault: None,
        }
    }
}

/// Live fault-injection state attached to a ring network: the plan, its
/// private RNG streams and the injected-fault counters. The budgets
/// spent are those counters: [`FaultStats::injected`] for the ring
/// budget, `bridge_drops` for the bridge budget.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    stats: FaultStats,
    bridge_rng: SplitMix64,
}

impl FaultState {
    /// Arms a plan. The RNG stream is derived from `plan.seed`; bridge
    /// drops draw from the decorrelated `plan.seed ^ BRIDGE_STREAM`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed);
        let bridge_rng = SplitMix64::new(plan.seed ^ BRIDGE_STREAM);
        FaultState {
            plan,
            rng,
            stats: FaultStats::default(),
            bridge_rng,
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters for faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Randomized-fault budget still available.
    pub fn remaining_budget(&self) -> u64 {
        self.plan.budget.saturating_sub(self.stats.injected())
    }

    /// Adjusts a departure time for stall windows covering `node`.
    pub fn departure(&mut self, node: usize, now: Cycle) -> Cycle {
        let mut depart = now;
        // Windows may abut; take the furthest `until` that still covers
        // the (possibly already deferred) departure.
        while let Some(w) = self
            .plan
            .stalls
            .iter()
            .find(|w| w.covers(node, depart))
            .copied()
        {
            self.stats.stall_hits += 1;
            depart = w.until;
        }
        depart
    }

    /// Whether a hop from `from_node` to `to_node` departing at `now`
    /// crosses a partition boundary. Counts refused hops; draws no RNG
    /// and spends no budget (partitions are deterministic, like stalls).
    pub fn partition_blocks(&mut self, from_node: usize, to_node: usize, now: Cycle) -> bool {
        if self
            .plan
            .partitions
            .iter()
            .any(|p| p.blocks(from_node, to_node, now))
        {
            self.stats.partition_blocked += 1;
            return true;
        }
        false
    }

    /// Draws the fault decision for one crossing of the link leaving
    /// `node` on `ring`. At most one randomized fault fires per
    /// crossing; once the budget is spent every crossing is clean and no
    /// RNG state advances.
    pub fn decide(&mut self, ring: usize, node: usize) -> Option<RingFault> {
        if self.stats.injected() >= self.plan.budget {
            return None;
        }
        let p_drop = self.plan.drop_for(ring, node);
        if p_drop > 0.0 && self.rng.chance(p_drop) {
            self.stats.drops += 1;
            return Some(RingFault::Dropped);
        }
        if self.plan.duplicate > 0.0 && self.rng.chance(self.plan.duplicate) {
            self.stats.duplicates += 1;
            return Some(RingFault::Duplicated);
        }
        if self.plan.delay > 0.0 && self.rng.chance(self.plan.delay) {
            let extra = Cycles(1 + self.rng.next_below(self.plan.delay_max.0.max(1)));
            self.stats.delays += 1;
            return Some(RingFault::Delayed(extra));
        }
        None
    }

    /// Bridge-drop budget still available.
    pub fn remaining_bridge_budget(&self) -> u64 {
        self.plan
            .bridge_budget
            .saturating_sub(self.stats.bridge_drops)
    }

    /// Draws the fault decision for one crossing of a hierarchical
    /// bridge link. Bridges only ever drop (their point is to exercise
    /// global-ring escalation retry); the drop schedule is drawn from
    /// its own stream with its own budget, so shrinking bridge faults
    /// never shifts the local-ring schedule and vice versa. Once the
    /// bridge budget is spent every crossing is clean and no RNG state
    /// advances.
    pub fn decide_bridge(&mut self) -> Option<RingFault> {
        if self.stats.bridge_drops >= self.plan.bridge_budget || self.plan.bridge_drop <= 0.0 {
            return None;
        }
        if self.bridge_rng.chance(self.plan.bridge_drop) {
            self.stats.bridge_drops += 1;
            return Some(RingFault::Dropped);
        }
        None
    }
}

/// Serializes the RNG stream positions and the injected counters, which
/// are also the budgets spent. The plan itself is *not* serialized — it is
/// configuration, re-armed on the restore target before restoring (see the
/// `Snapshot` overlay contract). Re-arming a plan with a different budget
/// is legal as long as the budget covers the faults already injected:
/// faults are consumed in draw order, so the resumed run continues the
/// same fault schedule truncated at the new budget.
impl Snapshot for FaultState {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.rng.state());
        self.stats.save_into(w);
        w.put_u64(self.bridge_rng.state());
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = SplitMix64::new(r.get_u64()?);
        self.stats.restore_from(r)?;
        self.bridge_rng = SplitMix64::new(r.get_u64()?);
        Ok(())
    }
}

/// Stream-splitting constant xor-ed into the plan seed for the torus
/// fault stream, so ring and torus draw decorrelated sequences from the
/// same plan.
const TORUS_STREAM: u64 = 0x7052_D47A_5EED_CA05;

/// Stream-splitting constant xor-ed into the plan seed for the
/// bridge-link fault stream of hierarchical topologies.
const BRIDGE_STREAM: u64 = 0xB21D_6E5A_10CA_17E5;

/// Live fault-injection state for the torus data network.
///
/// The torus only ever *drops* messages (its point is to exercise the
/// memory-path retry), drawn in message order from a private stream
/// derived from the plan seed. Like the ring's [`FaultState`], once the
/// torus budget is spent every send is clean and no RNG state advances,
/// so lowering `torus_budget` keeps a prefix of the drop schedule.
#[derive(Debug, Clone)]
pub struct TorusFaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Drops injected so far, which is also the torus budget spent.
    drops: u64,
}

impl TorusFaultState {
    /// Arms a plan. The RNG stream is `plan.seed ^ TORUS_STREAM`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SplitMix64::new(plan.seed ^ TORUS_STREAM);
        TorusFaultState {
            plan,
            rng,
            drops: 0,
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Torus drops injected so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Torus-drop budget still available.
    pub fn remaining_budget(&self) -> u64 {
        self.plan.torus_budget.saturating_sub(self.drops)
    }

    /// Draws the drop decision for one faultable torus send. Returns
    /// `true` if the message is lost.
    pub fn decide(&mut self) -> bool {
        if self.drops >= self.plan.torus_budget || self.plan.torus_drop <= 0.0 {
            return false;
        }
        if self.rng.chance(self.plan.torus_drop) {
            self.drops += 1;
            return true;
        }
        false
    }
}

/// Same contract as [`FaultState`]'s impl: stream position and drop
/// counter; the plan is re-armed from configuration.
impl Snapshot for TorusFaultState {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.rng.state());
        w.put_u64(self.drops);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = SplitMix64::new(r.get_u64()?);
        self.drops = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_is_lossless() {
        assert!(FaultPlan::lossless().is_lossless());
        assert!(FaultPlan::default().is_lossless());
        // Nonzero probabilities with a zero budget still inject nothing.
        let mut p = FaultPlan::lossless();
        p.drop = 0.9;
        assert!(p.is_lossless());
        p.budget = 1;
        assert!(!p.is_lossless());
        // Torus-only faults make a plan lossy too.
        let mut t = FaultPlan::lossless();
        t.torus_drop = 0.5;
        assert!(t.is_lossless(), "zero torus budget injects nothing");
        t.torus_budget = 1;
        assert!(!t.is_lossless());
        assert!(t.torus_faults());
        assert!(t.describe().contains("torus=0.5000/bgt1"));
    }

    #[test]
    fn stall_window_coverage() {
        let w = StallWindow {
            node: 3,
            from: Cycle::new(10),
            until: Cycle::new(20),
        };
        assert!(!w.covers(3, Cycle::new(9)));
        assert!(w.covers(3, Cycle::new(10)));
        assert!(w.covers(3, Cycle::new(19)));
        assert!(!w.covers(3, Cycle::new(20)));
        assert!(!w.covers(4, Cycle::new(15)));
    }

    #[test]
    fn link_drop_overrides_baseline() {
        let mut p = FaultPlan::lossless();
        p.drop = 0.1;
        p.link_drops.push(LinkDrop {
            ring: 0,
            node: 2,
            prob: 0.9,
        });
        assert_eq!(p.drop_for(0, 2), 0.9);
        assert_eq!(p.drop_for(0, 3), 0.1);
        assert_eq!(p.drop_for(1, 2), 0.1);
    }

    #[test]
    fn budget_caps_randomized_faults() {
        let mut p = FaultPlan::lossless();
        p.drop = 1.0;
        p.budget = 3;
        let mut st = FaultState::new(p);
        let mut drops = 0;
        for _ in 0..100 {
            if st.decide(0, 0).is_some() {
                drops += 1;
            }
        }
        assert_eq!(drops, 3);
        assert_eq!(st.stats().drops, 3);
        assert_eq!(st.remaining_budget(), 0);
    }

    #[test]
    fn smaller_budget_is_a_prefix_of_the_schedule() {
        let plan = FaultPlan::random(77, 8, 2);
        let mut full = FaultState::new(plan.clone());
        let mut cut = FaultState::new(plan.with_budget(plan.budget.min(2)));
        let mut full_faults = Vec::new();
        let mut cut_faults = Vec::new();
        for i in 0..200_000u64 {
            let (ring, node) = ((i % 2) as usize, (i % 8) as usize);
            if let Some(f) = full.decide(ring, node) {
                full_faults.push((i, f));
            }
            if let Some(f) = cut.decide(ring, node) {
                cut_faults.push((i, f));
            }
        }
        let k = cut_faults.len();
        assert!(k <= 2);
        assert_eq!(&full_faults[..k], &cut_faults[..]);
    }

    #[test]
    fn random_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::random(5, 8, 2);
        let b = FaultPlan::random(5, 8, 2);
        assert_eq!(a, b);
        assert!((1..=30).contains(&a.budget));
        assert!(!a.is_lossless());
        assert!(a.describe().contains("seed=5"));
    }

    #[test]
    fn torus_budget_caps_drops_and_shrinks_to_a_prefix() {
        let mut p = FaultPlan::lossless();
        p.seed = 9;
        p.torus_drop = 1.0;
        p.torus_budget = 5;
        let mut st = TorusFaultState::new(p.clone());
        let drops = (0..100).filter(|_| st.decide()).count();
        assert_eq!(drops, 5);
        assert_eq!(st.drops(), 5);
        assert_eq!(st.remaining_budget(), 0);

        // Lower torus_drop so not every draw fires; a smaller budget
        // must keep a prefix of the full drop schedule.
        p.torus_drop = 0.3;
        p.torus_budget = 8;
        let mut full = TorusFaultState::new(p.clone());
        let mut cut = TorusFaultState::new(p.with_budget(2));
        let full_hits: Vec<u64> = (0..10_000u64).filter(|_| full.decide()).collect();
        let cut_hits: Vec<u64> = (0..10_000u64).filter(|_| cut.decide()).collect();
        assert!(cut_hits.len() <= 2);
        assert_eq!(&full_hits[..cut_hits.len()], &cut_hits[..]);
    }

    #[test]
    fn fault_state_snapshot_resumes_identical_stream() {
        let plan = FaultPlan::random(123, 8, 2);
        let mut live = FaultState::new(plan.clone());
        for i in 0..5_000u64 {
            live.decide((i % 2) as usize, (i % 8) as usize);
        }
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&live);
        let mut resumed = FaultState::new(plan);
        flexsnoop_engine::snap::restore_bytes(&mut resumed, &bytes).unwrap();
        assert_eq!(resumed.stats(), live.stats());
        assert_eq!(resumed.remaining_budget(), live.remaining_budget());
        for i in 0..20_000u64 {
            let (ring, node) = ((i % 2) as usize, (i % 8) as usize);
            assert_eq!(live.decide(ring, node), resumed.decide(ring, node));
        }
    }

    #[test]
    fn torus_fault_state_snapshot_resumes_identical_stream() {
        let mut p = FaultPlan::lossless();
        p.seed = 41;
        p.torus_drop = 0.2;
        p.torus_budget = 10;
        let mut live = TorusFaultState::new(p.clone());
        for _ in 0..50 {
            live.decide();
        }
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&live);
        let mut resumed = TorusFaultState::new(p);
        flexsnoop_engine::snap::restore_bytes(&mut resumed, &bytes).unwrap();
        assert_eq!(resumed.drops(), live.drops());
        for _ in 0..1_000 {
            assert_eq!(live.decide(), resumed.decide());
        }
    }

    #[test]
    fn snapshot_resume_under_smaller_budget_truncates_schedule() {
        // Resuming a snapshot into a plan with budget b >= injected behaves
        // exactly like a from-scratch run with budget b.
        let mut plan = FaultPlan::random(7, 8, 2);
        plan.budget = 20;
        let mut live = FaultState::new(plan.clone());
        let mut step = 0u64;
        // Run until 3 faults are injected, then snapshot.
        while live.stats().injected() < 3 {
            live.decide((step % 2) as usize, (step % 8) as usize);
            step += 1;
        }
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&live);

        for b in [3u64, 5, 20] {
            let mut resumed = FaultState::new(plan.with_budget(b));
            flexsnoop_engine::snap::restore_bytes(&mut resumed, &bytes).unwrap();
            let mut scratch = FaultState::new(plan.with_budget(b));
            // Replay the pre-snapshot traffic into the scratch run.
            for i in 0..step {
                scratch.decide((i % 2) as usize, (i % 8) as usize);
            }
            assert_eq!(scratch.stats(), resumed.stats(), "budget {b}");
            for i in step..step + 50_000 {
                let (ring, node) = ((i % 2) as usize, (i % 8) as usize);
                assert_eq!(
                    scratch.decide(ring, node),
                    resumed.decide(ring, node),
                    "budget {b}, step {i}"
                );
            }
        }
    }

    #[test]
    fn partition_window_blocks_only_cross_island_hops_in_window() {
        let w = PartitionWindow {
            islands: vec![0, 0, 0, 0, 1, 1, 1, 1],
            from: Cycle::new(100),
            until: Cycle::new(200),
        };
        // Hop 3 -> 4 crosses the boundary; 0 -> 1 stays inside island 0.
        assert!(w.blocks(3, 4, Cycle::new(100)));
        assert!(w.blocks(7, 0, Cycle::new(199)), "wraparound link crosses");
        assert!(!w.blocks(0, 1, Cycle::new(150)));
        assert!(!w.blocks(3, 4, Cycle::new(99)));
        assert!(!w.blocks(3, 4, Cycle::new(200)), "healed at until");
        // Nodes past the islands vector belong to island 0.
        assert!(w.blocks(4, 9, Cycle::new(150)));
        assert!(!w.blocks(0, 9, Cycle::new(150)));
    }

    #[test]
    fn partitioned_plan_is_not_lossless_and_describes_itself() {
        let mut p = FaultPlan::lossless();
        p.partitions.push(PartitionWindow {
            islands: vec![0, 0, 1, 1],
            from: Cycle::new(10),
            until: Cycle::new(20),
        });
        assert!(!p.is_lossless());
        assert!(
            p.describe().contains("partition[0011]=10..20"),
            "{}",
            p.describe()
        );
        // with_budget leaves the deterministic windows intact.
        assert_eq!(p.with_budget(0).partitions, p.partitions);
    }

    #[test]
    fn partition_blocks_counts_without_spending_budget() {
        let mut p = FaultPlan::lossless();
        p.drop = 1.0;
        p.budget = 1;
        p.partitions.push(PartitionWindow {
            islands: vec![0, 1],
            from: Cycle::new(0),
            until: Cycle::new(100),
        });
        let mut st = FaultState::new(p);
        assert!(st.partition_blocks(0, 1, Cycle::new(50)));
        assert!(st.partition_blocks(1, 0, Cycle::new(50)));
        assert!(!st.partition_blocks(0, 1, Cycle::new(100)));
        assert_eq!(st.stats().partition_blocked, 2);
        assert_eq!(st.remaining_budget(), 1, "no budget spent on refusals");
        // The randomized budget is still available afterwards.
        assert_eq!(st.decide(0, 0), Some(RingFault::Dropped));
    }

    #[test]
    fn bridge_budget_caps_drops_and_shrinks_to_a_prefix() {
        let mut p = FaultPlan::lossless();
        p.seed = 13;
        p.bridge_drop = 1.0;
        p.bridge_budget = 4;
        assert!(!p.is_lossless());
        assert!(p.bridge_faults());
        assert!(p.describe().contains("bridge=1.0000/bgt4"));
        let mut st = FaultState::new(p.clone());
        let drops = (0..100).filter(|_| st.decide_bridge().is_some()).count();
        assert_eq!(drops, 4);
        assert_eq!(st.stats().bridge_drops, 4);
        assert_eq!(st.remaining_bridge_budget(), 0);
        // Bridge drops are not part of injected() (ring-budget quantity).
        assert_eq!(st.stats().injected(), 0);

        // A smaller bridge budget keeps a prefix of the drop schedule.
        p.bridge_drop = 0.3;
        p.bridge_budget = 8;
        let mut full = FaultState::new(p.clone());
        let mut cut = FaultState::new(p.with_budget(2));
        let full_hits: Vec<u64> = (0..10_000u64)
            .filter(|_| full.decide_bridge().is_some())
            .collect();
        let cut_hits: Vec<u64> = (0..10_000u64)
            .filter(|_| cut.decide_bridge().is_some())
            .collect();
        assert!(cut_hits.len() <= 2);
        assert_eq!(&full_hits[..cut_hits.len()], &cut_hits[..]);
    }

    #[test]
    fn bridge_stream_is_decorrelated_from_ring_stream() {
        // Interleaving bridge draws must not perturb the ring schedule:
        // run the same ring traffic with and without bridge draws mixed
        // in and require identical ring fault sequences.
        let mut p = FaultPlan::random(21, 8, 2);
        p.bridge_drop = 0.5;
        p.bridge_budget = 1_000;
        let mut plain = FaultState::new(p.clone());
        let mut mixed = FaultState::new(p);
        for i in 0..50_000u64 {
            let (ring, node) = ((i % 2) as usize, (i % 8) as usize);
            if i % 3 == 0 {
                mixed.decide_bridge();
            }
            assert_eq!(plain.decide(ring, node), mixed.decide(ring, node));
        }
    }

    #[test]
    fn fault_state_snapshot_resumes_bridge_stream() {
        let mut p = FaultPlan::lossless();
        p.seed = 99;
        p.bridge_drop = 0.2;
        p.bridge_budget = 50;
        let mut live = FaultState::new(p.clone());
        for _ in 0..200 {
            live.decide_bridge();
        }
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&live);
        let mut resumed = FaultState::new(p);
        flexsnoop_engine::snap::restore_bytes(&mut resumed, &bytes).unwrap();
        assert_eq!(resumed.stats(), live.stats());
        assert_eq!(
            resumed.remaining_bridge_budget(),
            live.remaining_bridge_budget()
        );
        for _ in 0..2_000 {
            assert_eq!(live.decide_bridge(), resumed.decide_bridge());
        }
    }

    #[test]
    fn stall_departure_defers_and_counts() {
        let mut p = FaultPlan::lossless();
        p.stalls.push(StallWindow {
            node: 1,
            from: Cycle::new(100),
            until: Cycle::new(150),
        });
        let mut st = FaultState::new(p);
        assert_eq!(st.departure(1, Cycle::new(120)), Cycle::new(150));
        assert_eq!(st.departure(1, Cycle::new(99)), Cycle::new(99));
        assert_eq!(st.departure(0, Cycle::new(120)), Cycle::new(120));
        assert_eq!(st.stats().stall_hits, 1);
    }
}
