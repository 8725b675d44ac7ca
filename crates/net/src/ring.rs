//! The embedded unidirectional snoop ring(s).
//!
//! A ring of `n` nodes has `n` directed links, link `i` connecting CMP `i`
//! to CMP `(i+1) % n`. Snoop messages occupy a link for a configurable
//! serialization time (they are short control messages) and arrive
//! `hop_latency` cycles after leaving — Table 4's 39-cycle CMP-to-CMP
//! latency at 6 GHz.
//!
//! With `rings > 1` embedded rings, the line address picks the ring
//! (`line % rings`), mirroring the paper's two address-interleaved rings.
//!
//! ## Hierarchical topologies
//!
//! With [`RingConfig::hier`] set, the nodes are grouped into `groups`
//! local rings of `local` nodes each (`local × groups == nodes`), joined
//! by a unidirectional **global ring** whose members are the *bridge*
//! nodes — the first node of every group (`group * local`). Each
//! embedded ring keeps this same two-level shape, so address
//! interleaving composes with the hierarchy. Local hops use the flat
//! ring's `hop_latency`/`link_service`; global hops between bridges use
//! the (typically longer) `bridge_latency`/`bridge_service`. The flat
//! topology is exactly `hier: None`: same link layout, same latencies,
//! bit-identical behavior.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles, Resource};
use flexsnoop_mem::{CmpId, LineAddr};

use crate::fault::{FaultPlan, FaultState, FaultStats, HopOutcome, RingFault};

/// Shape and timing of a hierarchical (two-level) ring topology.
///
/// `local * groups` must equal the network's node count; node `n`
/// belongs to local ring `n / local`, and the first node of every group
/// (`group * local`) doubles as that group's **bridge** onto the global
/// ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierParams {
    /// Nodes per local ring.
    pub local: usize,
    /// Number of local rings (= number of bridge nodes on the global ring).
    pub groups: usize,
    /// Propagation latency of one bridge-to-bridge hop on the global ring.
    pub bridge_latency: Cycles,
    /// Link occupancy per message on a global-ring link.
    pub bridge_service: Cycles,
}

/// Static parameters of the embedded ring network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingConfig {
    /// Number of CMP nodes on each ring.
    pub nodes: usize,
    /// Number of embedded rings (snoops are interleaved by address).
    pub rings: usize,
    /// Propagation latency of one CMP-to-CMP hop.
    pub hop_latency: Cycles,
    /// Link occupancy per message (serialization; limits ring bandwidth).
    pub link_service: Cycles,
    /// Two-level topology, or `None` for the paper's flat ring.
    pub hier: Option<HierParams>,
}

impl RingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (zero nodes
    /// or zero rings, or a hierarchy whose shape does not tile the nodes).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("ring must have at least one node".into());
        }
        if self.rings == 0 {
            return Err("at least one embedded ring is required".into());
        }
        if let Some(h) = self.hier {
            if h.local < 2 {
                return Err("hierarchical local rings need at least two nodes".into());
            }
            if h.groups < 2 {
                return Err("a hierarchy needs at least two local rings".into());
            }
            if h.local * h.groups != self.nodes {
                return Err(format!(
                    "hierarchy {}x{} does not tile {} nodes",
                    h.local, h.groups, self.nodes
                ));
            }
        }
        Ok(())
    }
}

/// The embedded ring network: per-ring, per-link occupancy tracking.
///
/// # Example
///
/// ```
/// use flexsnoop_engine::{Cycle, Cycles};
/// use flexsnoop_mem::{CmpId, LineAddr};
/// use flexsnoop_net::{RingConfig, RingNetwork};
///
/// let mut net = RingNetwork::new(RingConfig {
///     nodes: 8,
///     rings: 2,
///     hop_latency: Cycles(39),
///     link_service: Cycles(4),
///     hier: None,
/// });
/// let ring = net.ring_for(LineAddr(5));
/// let hop = net.send_hop_outcome(ring, CmpId(3), Cycle::new(100));
/// assert_eq!(hop.arrival, Some(Cycle::new(100 + 4 + 39)));
/// ```
#[derive(Debug, Clone)]
pub struct RingNetwork {
    config: RingConfig,
    /// Directed link from `node` to its successor on `ring`, stored flat
    /// at index `ring * stride + node`: one contiguous allocation instead
    /// of a `Vec` per ring, so million-node networks stay cache-friendly
    /// and cost no per-ring indirection. On a hierarchical topology each
    /// ring's slice is `stride = nodes + groups` wide: the local links
    /// first, then the `groups` global-ring links (link `nodes + g`
    /// leaves the bridge of group `g`). Flat rings have `stride = nodes`
    /// — the exact layout this field always had.
    links: Vec<Resource>,
    /// Armed fault injection, if any (see [`crate::fault`]). `None` is
    /// the lossless fast path: no RNG, no per-hop overhead.
    faults: Option<FaultState>,
}

impl RingNetwork {
    /// Creates an idle ring network.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`RingConfig::validate`]).
    pub fn new(config: RingConfig) -> Self {
        config.validate().expect("invalid ring config");
        let stride = config.nodes + config.hier.map_or(0, |h| h.groups);
        Self {
            config,
            links: (0..config.rings * stride)
                .map(|_| Resource::new())
                .collect(),
            faults: None,
        }
    }

    /// Links per embedded ring: the local links plus (when hierarchical)
    /// one global link per group.
    #[inline]
    fn stride(&self) -> usize {
        self.config.nodes + self.config.hier.map_or(0, |h| h.groups)
    }

    /// The flat index of the link leaving `from` on `ring`.
    ///
    /// # Panics
    ///
    /// Panics if `ring` or `from` are out of range.
    #[inline]
    fn link_index(&self, ring: usize, from: CmpId) -> usize {
        assert!(
            ring < self.config.rings && from.0 < self.config.nodes,
            "link ({ring}, {from}) out of range"
        );
        ring * self.stride() + from.0
    }

    /// The flat index of the global-ring link leaving the bridge of
    /// `from`'s group on `ring`.
    ///
    /// # Panics
    ///
    /// Panics if the topology is flat or the indices are out of range.
    #[inline]
    fn global_link_index(&self, ring: usize, from: CmpId) -> usize {
        let h = self.config.hier.expect("global link on a flat ring");
        assert!(
            ring < self.config.rings && from.0 < self.config.nodes,
            "global link ({ring}, {from}) out of range"
        );
        ring * self.stride() + self.config.nodes + from.0 / h.local
    }

    /// Arms a fault plan; a lossless plan disarms injection entirely so
    /// the hot path stays RNG-free.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_lossless() {
            None
        } else {
            Some(FaultState::new(plan))
        };
    }

    /// Whether a (non-lossless) fault plan is armed.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
    }

    /// Counters for faults injected so far (all zero when lossless).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultState::stats)
            .unwrap_or_default()
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &RingConfig {
        &self.config
    }

    /// Which embedded ring carries snoops for `line`.
    pub fn ring_for(&self, line: LineAddr) -> usize {
        (line.0 % self.config.rings as u64) as usize
    }

    /// Sends one message over the link leaving `from` on ring `ring` at
    /// time `now`: its arrival at the next node downstream, after link
    /// occupancy (FIFO queueing) and propagation. With an armed
    /// [`FaultPlan`] the message may be dropped, duplicated or delayed,
    /// and a stall window covering `from` defers its departure.
    ///
    /// Dropped messages still occupy the link (the flit crosses part of
    /// the link before vanishing); a duplicate serializes behind the
    /// original on the same link. A hop whose link crosses an active
    /// partition boundary is refused: it occupies the link but never
    /// arrives, and no randomized fault is drawn for it (partitions are
    /// deterministic and budget-free). Without an armed plan every
    /// message is delivered. The caller counts the hop either way.
    ///
    /// # Panics
    ///
    /// Panics if `ring` or `from` are out of range.
    pub fn send_hop_outcome(&mut self, ring: usize, from: CmpId, now: Cycle) -> HopOutcome {
        let idx = self.link_index(ring, from);
        // On a hierarchical topology the link leaving `from` stays inside
        // its group, so partition islands see the true local endpoints.
        let to = self.next_node(from);
        let Some(faults) = &mut self.faults else {
            let grant = self.links[idx].acquire(now, self.config.link_service);
            return HopOutcome::delivered(grant.end + self.config.hop_latency);
        };
        let depart = faults.departure(from.0, now);
        if faults.partition_blocks(from.0, to.0, depart) {
            // The flit enters the link and is refused at the boundary:
            // occupancy and energy are real, delivery never happens. The
            // RNG stream does not advance, so a plan's randomized fault
            // schedule is identical with and without partition windows.
            self.links[idx].acquire(depart, self.config.link_service);
            // `fault: None`: a refusal is not a randomized fault, so the
            // probe's per-kind fault counters stay equal to the plan's
            // drop/duplicate/delay stats; the loss itself shows up in
            // `FaultStats::partition_blocked` and the timeline.
            return HopOutcome {
                arrival: None,
                duplicate: None,
                fault: None,
            };
        }
        let fault = faults.decide(ring, from.0);
        let link = &mut self.links[idx];
        let grant = link.acquire(depart, self.config.link_service);
        let base = grant.end + self.config.hop_latency;
        match fault {
            None => HopOutcome {
                arrival: Some(base),
                duplicate: None,
                fault: None,
            },
            Some(RingFault::Dropped) => HopOutcome {
                arrival: None,
                duplicate: None,
                fault: Some(RingFault::Dropped),
            },
            Some(RingFault::Duplicated) => {
                // The copy is a second real message: it serializes
                // behind the original and occupies the link in turn.
                let copy = link.acquire(grant.end, self.config.link_service);
                HopOutcome {
                    arrival: Some(base),
                    duplicate: Some(copy.end + self.config.hop_latency),
                    fault: Some(RingFault::Duplicated),
                }
            }
            Some(RingFault::Delayed(extra)) => HopOutcome {
                arrival: Some(base + extra),
                duplicate: None,
                fault: Some(RingFault::Delayed(extra)),
            },
        }
    }

    /// The node downstream of `from` on its **local** ring: the next node
    /// within `from`'s group (wrapping at the group boundary) on a
    /// hierarchical topology, the flat-ring successor otherwise.
    pub fn next_node(&self, from: CmpId) -> CmpId {
        match self.config.hier {
            None => from.next_on_ring(self.config.nodes),
            Some(h) => {
                let group = from.0 / h.local;
                CmpId(group * h.local + (from.0 % h.local + 1) % h.local)
            }
        }
    }

    /// Whether `node` is a bridge (the global-ring member of its group).
    /// Always `false` on a flat topology.
    pub fn is_bridge(&self, node: CmpId) -> bool {
        self.config
            .hier
            .is_some_and(|h| node.0.is_multiple_of(h.local))
    }

    /// The local ring `node` belongs to (`0` on a flat topology).
    pub fn group_of(&self, node: CmpId) -> usize {
        self.config.hier.map_or(0, |h| node.0 / h.local)
    }

    /// The bridge node downstream of `from`'s group on the global ring.
    ///
    /// # Panics
    ///
    /// Panics if the topology is flat.
    pub fn global_next(&self, from: CmpId) -> CmpId {
        let h = self.config.hier.expect("global hop on a flat ring");
        let group = from.0 / h.local;
        CmpId((group + 1) % h.groups * h.local)
    }

    /// Unloaded latency for a message to travel `hops` consecutive hops.
    pub fn unloaded_latency(&self, hops: usize) -> Cycles {
        (self.config.link_service + self.config.hop_latency) * hops as u64
    }

    /// Unloaded network latency of one full snoop circulation: every
    /// local hop of every group plus — on a hierarchical topology — one
    /// lap of the global ring. On a flat ring this is exactly
    /// `unloaded_latency(nodes)`, so recovery timeout floors derived
    /// from it are unchanged for existing configurations.
    pub fn unloaded_circulation_latency(&self) -> Cycles {
        let local = self.unloaded_latency(self.config.nodes);
        match self.config.hier {
            None => local,
            Some(h) => local + (h.bridge_service + h.bridge_latency) * h.groups as u64,
        }
    }

    /// Sends one message over the global-ring link leaving the bridge of
    /// `from`'s group at time `now`. Stall windows covering the bridge
    /// defer the departure, partition windows between the two bridge
    /// endpoints refuse the hop, and the bridge fault stream
    /// ([`FaultPlan::bridge_drop`]) may drop it; bridges never duplicate
    /// or delay.
    ///
    /// # Panics
    ///
    /// Panics if the topology is flat or the indices are out of range.
    pub fn send_global_hop_outcome(&mut self, ring: usize, from: CmpId, now: Cycle) -> HopOutcome {
        let h = self.config.hier.expect("global hop on a flat ring");
        let idx = self.global_link_index(ring, from);
        let bridge = CmpId(from.0 / h.local * h.local);
        let to = self.global_next(from);
        let Some(faults) = &mut self.faults else {
            let grant = self.links[idx].acquire(now, h.bridge_service);
            return HopOutcome::delivered(grant.end + h.bridge_latency);
        };
        let depart = faults.departure(bridge.0, now);
        if faults.partition_blocks(bridge.0, to.0, depart) {
            // Same contract as the local-ring refusal: occupancy and
            // energy are real, delivery never happens, no RNG advances.
            self.links[idx].acquire(depart, h.bridge_service);
            return HopOutcome {
                arrival: None,
                duplicate: None,
                fault: None,
            };
        }
        let fault = faults.decide_bridge();
        let grant = self.links[idx].acquire(depart, h.bridge_service);
        match fault {
            None => HopOutcome::delivered(grant.end + h.bridge_latency),
            Some(f) => HopOutcome {
                arrival: None,
                duplicate: None,
                fault: Some(f),
            },
        }
    }

    /// Estimated heap footprint of the network in bytes (the flat link
    /// array dominates; fault state is bounded and ignored).
    pub fn footprint_bytes(&self) -> u64 {
        (size_of::<Self>() + self.links.capacity() * size_of::<Resource>()) as u64
    }
}

/// Serializes link occupancy and the live fault-stream state. The config
/// and fault *plan* are not serialized: the restore target must be built
/// from the same `RingConfig` and have the matching fault plan armed
/// first (lossless ⇔ lossless), which the restore checks.
impl Snapshot for RingNetwork {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.links.len());
        for link in &self.links {
            link.save_into(w);
        }
        match &self.faults {
            None => w.put_bool(false),
            Some(f) => {
                w.put_bool(true);
                f.save_into(w);
            }
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n != self.links.len() {
            return Err(SnapError::Corrupt("ring link count does not match config"));
        }
        for link in &mut self.links {
            link.restore_from(r)?;
        }
        let had_faults = r.get_bool()?;
        match (&mut self.faults, had_faults) {
            (None, false) => {}
            (Some(f), true) => f.restore_from(r)?,
            (None, true) => {
                return Err(SnapError::Corrupt(
                    "snapshot has ring fault state but no plan is armed",
                ));
            }
            (Some(_), false) => {
                return Err(SnapError::Corrupt(
                    "a fault plan is armed but the snapshot ring was lossless",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> RingNetwork {
        RingNetwork::new(RingConfig {
            nodes: 8,
            rings: 2,
            hop_latency: Cycles(39),
            link_service: Cycles(4),
            hier: None,
        })
    }

    fn hier_net() -> RingNetwork {
        RingNetwork::new(RingConfig {
            nodes: 8,
            rings: 2,
            hop_latency: Cycles(39),
            link_service: Cycles(4),
            hier: Some(HierParams {
                local: 4,
                groups: 2,
                bridge_latency: Cycles(60),
                bridge_service: Cycles(8),
            }),
        })
    }

    #[test]
    fn every_node_belongs_to_exactly_one_local_ring() {
        // Ownership partition: the local rings tile the machine with no
        // overlap and no gap, each group's local orbit stays inside the
        // group with full period, and one global lap visits every
        // group's bridge exactly once.
        for (local, groups) in [(2usize, 4usize), (4, 4), (8, 8), (3, 5)] {
            let nodes = local * groups;
            let n = RingNetwork::new(RingConfig {
                nodes,
                rings: 1,
                hop_latency: Cycles(39),
                link_service: Cycles(4),
                hier: Some(HierParams {
                    local,
                    groups,
                    bridge_latency: Cycles(60),
                    bridge_service: Cycles(8),
                }),
            });
            for g in 0..groups {
                let members: Vec<usize> =
                    (0..nodes).filter(|&i| n.group_of(CmpId(i)) == g).collect();
                assert_eq!(members.len(), local, "{local}x{groups}: group {g} size");
                assert_eq!(
                    members.iter().filter(|&&i| n.is_bridge(CmpId(i))).count(),
                    1,
                    "{local}x{groups}: group {g} has exactly one bridge"
                );
                // The local orbit from any member cycles through exactly
                // the group, returning home after `local` hops.
                let start = CmpId(members[0]);
                let mut at = start;
                let mut visited = std::collections::HashSet::new();
                for _ in 0..local {
                    assert!(visited.insert(at.0), "local orbit revisited {at}");
                    assert_eq!(n.group_of(at), g, "local orbit left group {g}");
                    at = n.next_node(at);
                }
                assert_eq!(at, start, "{local}x{groups}: orbit period is `local`");
            }
            // One global lap from any bridge visits every group once.
            let first_bridge = (0..nodes).map(CmpId).find(|&i| n.is_bridge(i)).unwrap();
            let mut at = first_bridge;
            let mut groups_seen = std::collections::HashSet::new();
            for _ in 0..groups {
                assert!(n.is_bridge(at), "global lap landed off-bridge at {at}");
                assert!(groups_seen.insert(n.group_of(at)), "global lap revisited");
                at = n.global_next(at);
            }
            assert_eq!(at, first_bridge, "{local}x{groups}: global lap closes");
            assert_eq!(groups_seen.len(), groups);
        }
    }

    #[test]
    fn hop_includes_service_and_propagation() {
        let mut n = net();
        let t = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(t, HopOutcome::delivered(Cycle::new(43)));
    }

    #[test]
    fn contention_queues_on_same_link() {
        let mut n = net();
        let a = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        let b = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(a.arrival, Some(Cycle::new(43)));
        assert_eq!(
            b.arrival,
            Some(Cycle::new(47)),
            "second message serializes behind first"
        );
    }

    #[test]
    fn different_links_do_not_contend() {
        let mut n = net();
        let a = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        let b = n.send_hop_outcome(0, CmpId(1), Cycle::new(0));
        assert_eq!(a, b);
    }

    #[test]
    fn different_rings_do_not_contend() {
        let mut n = net();
        let a = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        let b = n.send_hop_outcome(1, CmpId(0), Cycle::new(0));
        assert_eq!(a, b);
    }

    #[test]
    fn address_interleaving_across_rings() {
        let n = net();
        assert_eq!(n.ring_for(LineAddr(10)), 0);
        assert_eq!(n.ring_for(LineAddr(11)), 1);
    }

    #[test]
    fn unloaded_latency_scales_with_hops() {
        let n = net();
        assert_eq!(n.unloaded_latency(0), Cycles(0));
        assert_eq!(n.unloaded_latency(3), Cycles(3 * 43));
    }

    #[test]
    fn always_drop_plan_drops_everything() {
        let mut n = net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.drop = 1.0;
        plan.budget = u64::MAX;
        n.set_fault_plan(plan);
        for i in 0..4 {
            let out = n.send_hop_outcome(0, CmpId(i), Cycle::new(0));
            assert_eq!(out.arrival, None);
            assert_eq!(out.fault, Some(crate::fault::RingFault::Dropped));
        }
        assert_eq!(n.fault_stats().drops, 4);
    }

    #[test]
    fn dropped_flit_still_occupies_its_link() {
        let mut n = net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.drop = 1.0;
        plan.budget = 1;
        n.set_fault_plan(plan);
        let out = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(out.fault, Some(crate::fault::RingFault::Dropped));
        // The budget is spent, so the next flit is clean, but it queues
        // behind the dropped one: 4 cycles of service later than on an
        // idle link.
        let next = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(next, HopOutcome::delivered(Cycle::new(47)));
    }

    #[test]
    fn duplicate_serializes_behind_original() {
        let mut n = net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.duplicate = 1.0;
        plan.budget = 1;
        n.set_fault_plan(plan);
        let out = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(out.arrival, Some(Cycle::new(43)));
        assert_eq!(out.duplicate, Some(Cycle::new(47)));
        assert_eq!(n.fault_stats().duplicates, 1);
        // Budget spent: the next crossing is clean, and it queues behind
        // both the original and the copy.
        let next = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(next, HopOutcome::delivered(Cycle::new(51)));
    }

    #[test]
    fn stall_window_defers_departure() {
        let mut n = net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.stalls.push(crate::fault::StallWindow {
            node: 2,
            from: Cycle::new(0),
            until: Cycle::new(100),
        });
        n.set_fault_plan(plan);
        let out = n.send_hop_outcome(0, CmpId(2), Cycle::new(10));
        assert_eq!(out.arrival, Some(Cycle::new(143)));
        assert_eq!(n.fault_stats().stall_hits, 1);
    }

    #[test]
    fn partition_refuses_cross_island_hops_until_heal() {
        let mut n = net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.partitions.push(crate::fault::PartitionWindow {
            islands: vec![0, 0, 0, 0, 1, 1, 1, 1],
            from: Cycle::new(0),
            until: Cycle::new(12),
        });
        n.set_fault_plan(plan);
        // Boundary link 3 -> 4 is refused while partitioned.
        let out = n.send_hop_outcome(0, CmpId(3), Cycle::new(10));
        assert_eq!(out.arrival, None);
        assert_eq!(out.fault, None, "a refusal is not a randomized fault");
        // Intra-island hops are untouched.
        let out = n.send_hop_outcome(0, CmpId(0), Cycle::new(10));
        assert_eq!(out.arrival, Some(Cycle::new(53)));
        // After the heal the boundary link delivers again, queued behind
        // the refused flit, which held the link until cycle 14.
        let out = n.send_hop_outcome(0, CmpId(3), Cycle::new(12));
        assert_eq!(out, HopOutcome::delivered(Cycle::new(14 + 43)));
        assert_eq!(n.fault_stats().partition_blocked, 1);
    }

    #[test]
    fn partition_refusal_does_not_shift_the_fault_stream() {
        // A plan with partitions injects exactly the same randomized
        // faults, at the same crossings, as the same plan without them.
        let mut base = crate::fault::FaultPlan::random(55, 8, 2);
        base.budget = 6;
        let mut split = base.clone();
        split.partitions.push(crate::fault::PartitionWindow {
            islands: vec![0, 0, 0, 0, 1, 1, 1, 1],
            from: Cycle::new(0),
            until: Cycle::new(500),
        });
        let mut a = net();
        a.set_fault_plan(base);
        let mut b = net();
        b.set_fault_plan(split);
        // Drive only intra-island links so both rings see identical
        // deliverable traffic; the RNG streams must stay in lockstep.
        for i in 0..2_000u64 {
            let from = CmpId((i % 3) as usize); // links 0,1,2 stay in island 0
            let t = Cycle::new(i * 3);
            assert_eq!(
                a.send_hop_outcome(0, from, t),
                b.send_hop_outcome(0, from, t),
                "step {i}"
            );
        }
        assert_eq!(a.fault_stats().injected(), b.fault_stats().injected());
    }

    #[test]
    fn snapshot_round_trip_resumes_identical_traffic() {
        let mut plan = crate::fault::FaultPlan::random(55, 8, 2);
        plan.budget = 10;
        let mut live = net();
        live.set_fault_plan(plan.clone());
        for i in 0..200u64 {
            live.send_hop_outcome((i % 2) as usize, CmpId((i % 8) as usize), Cycle::new(i * 3));
        }
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&live);
        let mut resumed = net();
        resumed.set_fault_plan(plan);
        flexsnoop_engine::snap::restore_bytes(&mut resumed, &bytes).unwrap();
        assert_eq!(resumed.fault_stats(), live.fault_stats());
        // Future traffic is bit-identical: same queueing, same faults.
        for i in 200..600u64 {
            let (ring, from, t) = ((i % 2) as usize, CmpId((i % 8) as usize), Cycle::new(i * 3));
            assert_eq!(
                live.send_hop_outcome(ring, from, t),
                resumed.send_hop_outcome(ring, from, t),
                "step {i}"
            );
        }
    }

    #[test]
    fn snapshot_restore_rejects_fault_plan_mismatch() {
        let mut live = net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.drop = 0.5;
        plan.budget = 5;
        live.set_fault_plan(plan);
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&live);
        // Restoring onto a lossless ring must fail loudly, not silently
        // continue without the fault schedule.
        let mut fresh = net();
        let err = flexsnoop_engine::snap::restore_bytes(&mut fresh, &bytes).unwrap_err();
        assert!(matches!(err, flexsnoop_engine::snap::SnapError::Corrupt(_)));
    }

    #[test]
    #[should_panic(expected = "invalid ring config")]
    fn zero_rings_rejected() {
        RingNetwork::new(RingConfig {
            nodes: 8,
            rings: 0,
            hop_latency: Cycles(39),
            link_service: Cycles(4),
            hier: None,
        });
    }

    #[test]
    fn hier_shape_must_tile_the_nodes() {
        let mut cfg = RingConfig {
            nodes: 8,
            rings: 1,
            hop_latency: Cycles(39),
            link_service: Cycles(4),
            hier: Some(HierParams {
                local: 3,
                groups: 2,
                bridge_latency: Cycles(60),
                bridge_service: Cycles(8),
            }),
        };
        assert!(cfg.validate().is_err(), "3x2 does not tile 8 nodes");
        cfg.hier = Some(HierParams {
            local: 4,
            groups: 2,
            bridge_latency: Cycles(60),
            bridge_service: Cycles(8),
        });
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn hier_topology_helpers() {
        let n = hier_net();
        // Groups: {0..4} and {4..8}; bridges are 0 and 4.
        assert!(n.is_bridge(CmpId(0)));
        assert!(n.is_bridge(CmpId(4)));
        assert!(!n.is_bridge(CmpId(1)));
        assert_eq!(n.group_of(CmpId(3)), 0);
        assert_eq!(n.group_of(CmpId(4)), 1);
        // Local successor wraps inside the group.
        assert_eq!(n.next_node(CmpId(2)), CmpId(3));
        assert_eq!(n.next_node(CmpId(3)), CmpId(0));
        assert_eq!(n.next_node(CmpId(7)), CmpId(4));
        // Global successor hops bridge-to-bridge.
        assert_eq!(n.global_next(CmpId(0)), CmpId(4));
        assert_eq!(n.global_next(CmpId(6)), CmpId(0));
        // Flat networks have no bridges and group 0 everywhere.
        let flat = net();
        assert!(!flat.is_bridge(CmpId(0)));
        assert_eq!(flat.group_of(CmpId(7)), 0);
        assert_eq!(flat.next_node(CmpId(7)), CmpId(0));
    }

    #[test]
    fn global_hop_uses_bridge_timing() {
        let mut n = hier_net();
        let out = n.send_global_hop_outcome(0, CmpId(2), Cycle::new(0));
        assert_eq!(out, HopOutcome::delivered(Cycle::new(8 + 60)));
        // The two bridges' global links are distinct resources; the
        // local link leaving node 0 is yet another.
        let other = n.send_global_hop_outcome(0, CmpId(5), Cycle::new(0));
        assert_eq!(other, HopOutcome::delivered(Cycle::new(68)));
        let local = n.send_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(
            local,
            HopOutcome::delivered(Cycle::new(43)),
            "local links do not contend with bridges"
        );
        // Same group's global link queues FIFO.
        let queued = n.send_global_hop_outcome(0, CmpId(3), Cycle::new(0));
        assert_eq!(queued, HopOutcome::delivered(Cycle::new(16 + 60)));
    }

    #[test]
    fn hier_circulation_latency_adds_the_global_lap() {
        let n = hier_net();
        assert_eq!(
            n.unloaded_circulation_latency(),
            Cycles(8 * 43 + 2 * 68),
            "8 local hops plus 2 bridge hops"
        );
        let flat = net();
        assert_eq!(
            flat.unloaded_circulation_latency(),
            flat.unloaded_latency(8)
        );
    }

    #[test]
    fn bridge_drops_come_from_their_own_stream() {
        let mut n = hier_net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.seed = 5;
        plan.bridge_drop = 1.0;
        plan.bridge_budget = 2;
        n.set_fault_plan(plan);
        // Local hops are untouched by a bridge-only plan.
        let local = n.send_hop_outcome(0, CmpId(1), Cycle::new(0));
        assert!(local.arrival.is_some());
        // The first two global hops drop, then the budget is spent.
        let a = n.send_global_hop_outcome(0, CmpId(0), Cycle::new(0));
        assert_eq!(a.fault, Some(crate::fault::RingFault::Dropped));
        assert_eq!(a.arrival, None);
        let b = n.send_global_hop_outcome(0, CmpId(4), Cycle::new(0));
        assert_eq!(b.fault, Some(crate::fault::RingFault::Dropped));
        let c = n.send_global_hop_outcome(0, CmpId(0), Cycle::new(100));
        assert_eq!(c.fault, None);
        assert!(c.arrival.is_some());
        assert_eq!(n.fault_stats().bridge_drops, 2);
        assert_eq!(
            n.fault_stats().injected(),
            0,
            "bridge drops have their own budget"
        );
    }

    #[test]
    fn partition_between_groups_refuses_global_hops() {
        let mut n = hier_net();
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.partitions.push(crate::fault::PartitionWindow {
            islands: vec![0, 0, 0, 0, 1, 1, 1, 1],
            from: Cycle::new(0),
            until: Cycle::new(1_000),
        });
        n.set_fault_plan(plan);
        // Local hops never cross the island boundary (groups align with
        // islands), so they all deliver.
        for node in 0..8 {
            let out = n.send_hop_outcome(0, CmpId(node), Cycle::new(10));
            assert!(out.arrival.is_some(), "local hop {node} refused");
        }
        // Every global hop crosses it and is refused until the heal.
        let out = n.send_global_hop_outcome(0, CmpId(0), Cycle::new(10));
        assert_eq!(out.arrival, None);
        assert_eq!(out.fault, None);
        let out = n.send_global_hop_outcome(0, CmpId(4), Cycle::new(10));
        assert_eq!(out.arrival, None);
        assert_eq!(n.fault_stats().partition_blocked, 2);
        let out = n.send_global_hop_outcome(0, CmpId(0), Cycle::new(1_000));
        assert!(out.arrival.is_some(), "heals at until");
    }

    #[test]
    fn hier_snapshot_round_trip_preserves_bridge_state() {
        let mut plan = crate::fault::FaultPlan::lossless();
        plan.seed = 31;
        plan.bridge_drop = 0.4;
        plan.bridge_budget = 6;
        let mut live = hier_net();
        live.set_fault_plan(plan.clone());
        for i in 0..100u64 {
            live.send_hop_outcome((i % 2) as usize, CmpId((i % 8) as usize), Cycle::new(i * 3));
            if i % 4 == 0 {
                live.send_global_hop_outcome(
                    (i % 2) as usize,
                    CmpId((i % 8) as usize),
                    Cycle::new(i * 3),
                );
            }
        }
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&live);
        let mut resumed = hier_net();
        resumed.set_fault_plan(plan);
        flexsnoop_engine::snap::restore_bytes(&mut resumed, &bytes).unwrap();
        assert_eq!(resumed.fault_stats(), live.fault_stats());
        for i in 100..400u64 {
            let (ring, from, t) = ((i % 2) as usize, CmpId((i % 8) as usize), Cycle::new(i * 3));
            assert_eq!(
                live.send_global_hop_outcome(ring, from, t),
                resumed.send_global_hop_outcome(ring, from, t),
                "step {i}"
            );
        }
    }
}
