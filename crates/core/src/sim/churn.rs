//! Node churn: hot-remove and re-add windows for whole CMPs.

use flexsnoop_engine::Cycle;
use flexsnoop_mem::CmpId;

use super::{Event, Simulator};

/// One scheduled hot-remove / re-add of a CMP (node churn).
///
/// At `remove_at` the node *detaches*: its cores stop issuing (accesses
/// already pulled from their streams are deferred, not lost) while its
/// gateway hardware keeps forwarding and snooping — the ring stays
/// closed. A **cold** removal (`warm: false`) flushes the CMP's caches:
/// dirty lines write back to their home node over the torus and every
/// copy is invalidated, so the node rejoins with nothing resident. A
/// **warm** removal keeps the caches but demotes any supplier-state copy
/// (`Sg`/`E`/`D`/`T`) to locally-shared `Sl` — writing dirty data back —
/// so no remote request can depend on the detached node for data; the
/// kept copies stay coherent because the gateway still applies write
/// invalidations. At `readd_at` the node re-attaches and its deferred
/// accesses issue.
///
/// In-flight transactions are never cancelled: snoop outcomes are read
/// from the live caches at snoop time, so a purged line simply produces
/// a negative snoop and the requester falls through to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnWindow {
    /// The CMP that leaves and rejoins.
    pub node: CmpId,
    /// Cycle at which the node detaches.
    pub remove_at: Cycle,
    /// Cycle at which the node re-attaches (must be after `remove_at`).
    pub readd_at: Cycle,
    /// Keep the caches across the window (demoted), instead of flushing.
    pub warm: bool,
}

impl Simulator {
    /// Arms node-churn windows (see [`ChurnWindow`]): each detaches one
    /// CMP at `remove_at` and re-attaches it at `readd_at`. The detach
    /// and re-add events are scheduled up front when the run is primed,
    /// so their order relative to same-cycle traffic is fixed by
    /// insertion sequence and every queue backend replays it
    /// identically. Call before [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Returns a message if a window names a node outside the machine,
    /// re-adds at or before its removal, or overlaps another window on
    /// the same node.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn set_churn_plan(&mut self, windows: Vec<ChurnWindow>) -> Result<(), String> {
        assert!(
            !self.started && !self.finished && self.sched.is_empty(),
            "set_churn_plan() must be called before run()"
        );
        for w in &windows {
            if w.node.0 >= self.cfg.nodes {
                return Err(format!(
                    "churn window names node {} but the machine has {} nodes",
                    w.node.0, self.cfg.nodes
                ));
            }
            if w.remove_at >= w.readd_at {
                return Err(format!(
                    "churn window on node {} must re-add after it removes ({} >= {})",
                    w.node.0,
                    w.remove_at.as_u64(),
                    w.readd_at.as_u64()
                ));
            }
        }
        let mut spans: Vec<(usize, Cycle, Cycle)> = windows
            .iter()
            .map(|w| (w.node.0, w.remove_at, w.readd_at))
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[0].0 == pair[1].0 && pair[1].1 < pair[0].2 {
                return Err(format!("churn windows on node {} overlap", pair[0].0));
            }
        }
        self.churn = windows;
        Ok(())
    }

    /// The armed churn windows (empty unless [`Self::set_churn_plan`]
    /// was called).
    pub fn churn_plan(&self) -> &[ChurnWindow] {
        &self.churn
    }

    /// Whether `node` is currently detached by a churn window.
    pub fn is_detached(&self, node: CmpId) -> bool {
        self.detached.get(node.0).copied().unwrap_or(false)
    }

    /// Hot-removes a CMP (see [`ChurnWindow`]). Cold: flush — write back
    /// every dirty line to its home over the torus, invalidate every
    /// copy. Warm: demote — supplier-state copies step down to `Sl`
    /// (writing back if dirty) so the machine never depends on the
    /// detached node for data, while clean sharers stay resident.
    /// Either way the predictor bank and presence filters are kept in
    /// sync through the usual mutation helpers, so other nodes stop
    /// predicting this node as a supplier immediately.
    pub(super) fn on_churn_detach(&mut self, node: CmpId, warm: bool, now: Cycle) {
        self.detached[node.0] = true;
        self.stats.robustness.churn_detaches += 1;
        for line in self.cmps[node.0].resident_lines() {
            let supplier = self.cmps[node.0].supplier_of(line);
            if let Some((_, st)) = supplier {
                if st.is_dirty() {
                    // Churn write-backs are program traffic, like capacity
                    // evictions — not charged to the snoop-energy account.
                    self.stats.eviction_writebacks += 1;
                    let home = CmpId(line.home_node(self.cfg.nodes));
                    let _ = self.torus.send(node, home, now);
                }
            }
            if warm {
                if let Some((core, st)) = supplier {
                    let (new, _) = st.after_downgrade();
                    self.transition(node, core, line, new);
                }
            } else {
                self.invalidate_cmp(node, line);
            }
        }
    }

    /// Parks a core `issue` on a churned-out `node` (its cores are
    /// quiesced) verbatim at the node's re-add cycle. The matching
    /// `ChurnReadd` event carries an earlier insertion sequence, so the
    /// deferred issue dispatches on an attached node.
    pub(super) fn defer_to_readd(&mut self, node: CmpId, issue: Event, now: Cycle) {
        let readd = self
            .churn
            .iter()
            .filter(|w| w.node == node && w.readd_at >= now)
            .map(|w| w.readd_at)
            .min()
            .expect("detached node has no pending re-add");
        self.sched.schedule_at(readd, issue);
    }

    /// Re-attaches a churned-out CMP; the deferred core issues parked at
    /// this cycle dispatch right after (they were scheduled later, so
    /// they pop later).
    pub(super) fn on_churn_readd(&mut self, node: CmpId) {
        self.detached[node.0] = false;
        self.stats.robustness.churn_readds += 1;
    }
}
