//! Machine configuration (paper Table 4).
//!
//! [`MachineConfig::isca2006`] reproduces every architectural parameter the
//! paper publishes: 8 CMPs on a 2-D torus with two embedded rings, 39-cycle
//! ring hops, a 55-cycle CMP bus-access-plus-L2-snoop operation, 32 KB
//! 4-way L1s, 512 KB 8-way L2s, and the 350/710/312-cycle memory round
//! trips. All cycle counts are 6 GHz processor cycles.

use flexsnoop_engine::Cycles;
use flexsnoop_mem::CmpCaches;
use flexsnoop_net::HierParams;

/// Cache geometry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 cache capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
}

/// Latency parameters (processor cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// L1 hit round trip (Table 4: 2 cycles).
    pub l1_rt: Cycles,
    /// Own-L2 hit round trip (Table 4: 11 cycles).
    pub l2_rt: Cycles,
    /// Round trip to another L2 in the same CMP over the intra-CMP bus
    /// (Table 4: 55 cycles).
    pub cmp_bus_rt: Cycles,
    /// CMP bus access plus parallel L2 snoop, as performed for a ring
    /// snoop request (Table 4: 55 cycles, end to end).
    pub snoop_time: Cycles,
    /// Snoop-port occupancy: how long one snoop blocks the next from
    /// starting. Snoops are pipelined on the intra-CMP bus, so this is much
    /// shorter than the end-to-end `snoop_time` (the 10-cycle on-chip
    /// arbitration slot of §5.1).
    pub snoop_occupancy: Cycles,
    /// Gateway processing per forwarded ring message.
    pub gateway_latency: Cycles,
    /// Supplier-predictor access time (Table 4: 2–3 cycles).
    pub predictor_latency: Cycles,
}

/// Main-memory parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryParams {
    /// DRAM array access latency (50 ns at 6 GHz = 300 cycles).
    pub dram_latency: Cycles,
    /// Controller overhead per access.
    pub controller_overhead: Cycles,
    /// Controller occupancy per access (banked DRAM pipelines accesses;
    /// this bounds throughput, not latency).
    pub occupancy: Cycles,
    /// Whether passing the home node's gateway starts a speculative DRAM
    /// prefetch for read snoops (paper §2.2).
    pub home_prefetch: bool,
}

/// Ring parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingParams {
    /// Number of embedded unidirectional rings (Table 4: 2).
    pub rings: usize,
    /// CMP-to-CMP hop latency (Table 4: 39 cycles).
    pub hop_latency: Cycles,
    /// Link occupancy per snoop message (bandwidth model).
    pub link_service: Cycles,
    /// Two-level (local rings + global bridge ring) topology, or `None`
    /// for the paper's flat ring. See [`default_hier`] for the standard
    /// shape used by sweeps and the CLI.
    pub hier: Option<HierParams>,
}

/// The standard hierarchical shape for a `local × groups` machine:
/// global-ring wires span whole local rings, so a bridge hop costs twice
/// the local propagation at the same serialization (54 + 12 cycles
/// against the flat ring's 27 + 12).
pub fn default_hier(local: usize, groups: usize) -> HierParams {
    HierParams {
        local,
        groups,
        bridge_latency: Cycles(54),
        bridge_service: Cycles(12),
    }
}

/// Data-network (torus) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataNetParams {
    /// Per-link propagation latency.
    pub hop_latency: Cycles,
    /// Per-hop router latency.
    pub router_latency: Cycles,
    /// Link occupancy per data message (64 B line serialization).
    pub link_service: Cycles,
}

/// Policy knobs that do not change the paper's defaults but enable
/// ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyParams {
    /// Install memory fills in `E` when the ring proved no other copy
    /// exists (every node snooped, none held the line); otherwise fills
    /// install in `SG`.
    pub exclusive_fill: bool,
    /// Maximum ring read transactions a core may have outstanding before
    /// it stalls. 1 models a strictly blocking core; larger values
    /// approximate the latency tolerance of the paper's out-of-order
    /// cores (its 64-entry load queue allowed many).
    pub max_outstanding_reads: usize,
    /// Filter write snoops with a per-node *presence* predictor — a
    /// counting Bloom filter over every line cached in the CMP (no false
    /// negatives, so skipping is safe). The paper notes writes "would
    /// need a predictor of line presence, rather than one of line in
    /// supplier state" (§5.3) and leaves it unexplored; off by default.
    pub write_filtering: bool,
}

/// How the requester-side retransmission timeout is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutPolicy {
    /// The PR-4 fixed formula: unloaded circulation + per-node
    /// processing + `queueing_slack`, identical for every requester and
    /// every point in the run.
    Static,
    /// Per-requester Jacobson/Karels EWMA over observed ring round
    /// trips: `timeout = srtt + 4·rttvar`, clamped to never fall below
    /// the unloaded floor. Adapts to congestion, eliminating most
    /// spurious retries without giving up bounded recovery latency.
    Adaptive,
}

/// Timeout/retry recovery parameters for an unreliable ring.
///
/// These only take effect when a non-lossless fault plan is armed
/// ([`crate::Simulator::set_fault_plan`]); on a lossless ring no timeout
/// events are ever scheduled, so the defaults cannot perturb existing
/// runs.
///
/// Under [`TimeoutPolicy::Static`] the requester-side timeout for a
/// transaction's ring phase is derived from the unloaded
/// full-circulation latency plus per-node processing, padded by
/// `queueing_slack` for contention:
///
/// ```text
/// timeout = unloaded_latency(nodes)
///         + nodes × (snoop_time + gateway_latency)
///         + queueing_slack
/// ```
///
/// Under [`TimeoutPolicy::Adaptive`] (the default) each requester node
/// tracks an EWMA of its observed ring round trips instead
/// (Jacobson/Karels: `srtt += (R − srtt)/8`,
/// `rttvar += (|R − srtt| − rttvar)/4`, `timeout = srtt + 4·rttvar`),
/// seeded from the unloaded circulation latency and clamped so the
/// estimate never falls below that floor. `queueing_slack` is unused in
/// this mode.
///
/// In both modes the window doubles per retry attempt. Retries back off
/// exponentially: retry *k* waits `min(backoff_base × 2^(k−1),
/// backoff_cap)` before re-issuing. After `retry_cap` retries of one
/// transaction, the line enters *degraded mode*: further attempts use
/// Lazy forwarding (snoop everywhere, filter nothing), trading latency
/// for the strongest delivery redundancy the ring offers. Retries
/// continue past the cap — the fault budget is bounded, so a retry
/// eventually circulates cleanly. A degraded line is on *probation*:
/// after `probation_window` consecutive clean (retry-free) circulations
/// it re-arms the configured Table 3 algorithm; any timeout on the line
/// resets the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryParams {
    /// Timeout derivation policy.
    pub timeout_policy: TimeoutPolicy,
    /// Contention padding added to the derived unloaded timeout
    /// ([`TimeoutPolicy::Static`] only).
    pub queueing_slack: Cycles,
    /// Backoff before the first retry.
    pub backoff_base: Cycles,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Cycles,
    /// Retries of one transaction before its line degrades to Lazy.
    pub retry_cap: u32,
    /// Consecutive clean circulations before a degraded line re-arms
    /// its Table 3 algorithm.
    pub probation_window: u32,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            timeout_policy: TimeoutPolicy::Adaptive,
            // ~2 full unloaded circulations of headroom: generous enough
            // that congestion alone rarely trips a spurious (but still
            // harmless) retry, tight enough to bound recovery latency.
            queueing_slack: Cycles(700),
            backoff_base: Cycles(64),
            backoff_cap: Cycles(4096),
            retry_cap: 3,
            // Long enough that one lucky circulation during a fault
            // burst cannot re-arm filtering, short enough that a line
            // does not serve Lazy latency long after the burst ends.
            probation_window: 8,
        }
    }
}

/// The full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of CMP nodes (Table 4: 8).
    pub nodes: usize,
    /// Cores per CMP (4 for SPLASH-2 runs, 1 for the SPEC runs; §5.1).
    pub cores_per_cmp: usize,
    /// Cache geometries.
    pub caches: CacheParams,
    /// Latencies.
    pub timing: TimingParams,
    /// Memory.
    pub memory: MemoryParams,
    /// Embedded ring.
    pub ring: RingParams,
    /// Data network.
    pub data_net: DataNetParams,
    /// Policy knobs.
    pub policy: PolicyParams,
    /// Unreliable-ring recovery (inert on a lossless ring).
    pub recovery: RecoveryParams,
}

impl MachineConfig {
    /// The paper's evaluated machine (Table 4) with `cores_per_cmp` cores
    /// per chip.
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_cmp` is zero.
    pub fn isca2006(cores_per_cmp: usize) -> Self {
        assert!(cores_per_cmp > 0, "cores_per_cmp must be positive");
        MachineConfig {
            nodes: 8,
            cores_per_cmp,
            caches: CacheParams {
                l1_bytes: 32 * 1024,
                l1_ways: 4,
                l2_bytes: 512 * 1024,
                l2_ways: 8,
                line_bytes: 64,
            },
            timing: TimingParams {
                l1_rt: Cycles(2),
                l2_rt: Cycles(11),
                cmp_bus_rt: Cycles(55),
                snoop_time: Cycles(55),
                snoop_occupancy: Cycles(10),
                gateway_latency: Cycles(4),
                predictor_latency: Cycles(2),
            },
            memory: MemoryParams {
                dram_latency: Cycles(300),
                controller_overhead: Cycles(40),
                occupancy: Cycles(30),
                home_prefetch: true,
            },
            ring: RingParams {
                // 39 cycles CMP-to-CMP (Table 4), split as 27 cycles of
                // propagation plus 12 cycles of serialization (a ~16 B
                // message on the 8 GB/s link at 6 GHz). A full 8-hop
                // circulation is 312 cycles — exactly the paper's
                // prefetched remote-memory round trip.
                rings: 2,
                hop_latency: Cycles(27),
                link_service: Cycles(12),
                hier: None,
            },
            data_net: DataNetParams {
                hop_latency: Cycles(10),
                router_latency: Cycles(4),
                link_service: Cycles(2),
            },
            policy: PolicyParams {
                exclusive_fill: false,
                max_outstanding_reads: 1,
                write_filtering: false,
            },
            recovery: RecoveryParams::default(),
        }
    }

    /// The paper machine with `cores` cores spread evenly over `nodes`
    /// CMPs: a flat ring, or with `hier = Some((local, groups))` the
    /// [`default_hier`] two-level ring of `groups` local rings of `local`
    /// nodes each.
    ///
    /// # Errors
    ///
    /// Returns a message if `cores` is not a positive multiple of
    /// `nodes`, or the hierarchical shape does not cover `nodes`.
    pub fn for_cores(
        cores: usize,
        nodes: usize,
        hier: Option<(usize, usize)>,
    ) -> Result<Self, String> {
        if nodes == 0 || cores == 0 || !cores.is_multiple_of(nodes) {
            return Err(format!(
                "cores ({cores}) must be a multiple of {nodes} nodes"
            ));
        }
        let mut machine = MachineConfig {
            nodes,
            ..Self::isca2006(cores / nodes)
        };
        if let Some((local, groups)) = hier {
            if local * groups != nodes {
                return Err(format!(
                    "hier shape {local}x{groups} does not cover {nodes} nodes"
                ));
            }
            machine.ring.hier = Some(default_hier(local, groups));
        }
        Ok(machine)
    }

    /// A machine sized for ring-scaling sweeps (`flexsnoop bench
    /// --scale`): `nodes` single-core CMPs with deliberately tiny caches
    /// so per-node state — not cache capacity — dominates the footprint,
    /// letting million-node rings fit in memory while still exercising
    /// evictions and the full coherence protocol. Timing parameters stay
    /// at the Table 4 values.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn scale(nodes: usize) -> Self {
        assert!(nodes > 0, "machine needs at least one CMP node");
        let mut cfg = Self::isca2006(1);
        cfg.nodes = nodes;
        // 8-line L1 (2-way), 32-line L2 (4-way): both keep power-of-two
        // set counts and force frequent evictions.
        cfg.caches.l1_bytes = 8 * cfg.caches.line_bytes;
        cfg.caches.l1_ways = 2;
        cfg.caches.l2_bytes = 32 * cfg.caches.line_bytes;
        cfg.caches.l2_ways = 4;
        cfg
    }

    /// A [`Self::scale`] machine arranged as `groups` hierarchical local
    /// rings of `local` nodes each (`nodes = local × groups`) with the
    /// [`default_hier`] bridge timing.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn hier_scale(local: usize, groups: usize) -> Self {
        let mut cfg = Self::scale(local * groups);
        cfg.ring.hier = Some(default_hier(local, groups));
        cfg
    }

    /// Total cores in the machine.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_cmp
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("machine needs at least one CMP node".into());
        }
        if self.cores_per_cmp == 0 {
            return Err("each CMP needs at least one core".into());
        }
        if self.cores_per_cmp > CmpCaches::MAX_CORES {
            return Err(format!(
                "a CMP holds at most {} cores, not {}",
                CmpCaches::MAX_CORES,
                self.cores_per_cmp
            ));
        }
        if !self.caches.line_bytes.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if self.ring.rings == 0 {
            return Err("at least one embedded ring is required".into());
        }
        if let Some(h) = self.ring.hier {
            if h.local < 2 || h.groups < 2 {
                return Err("hierarchical shapes need at least 2 nodes in at least 2 rings".into());
            }
            if h.local * h.groups != self.nodes {
                return Err(format!(
                    "hierarchy {}x{} does not tile {} nodes",
                    h.local, h.groups, self.nodes
                ));
            }
        }
        if self.policy.max_outstanding_reads == 0 {
            return Err("cores need at least one outstanding read".into());
        }
        if self.recovery.backoff_base.as_u64() == 0 {
            return Err("retry backoff base must be positive".into());
        }
        if self.recovery.backoff_cap < self.recovery.backoff_base {
            return Err("retry backoff cap must be at least the base".into());
        }
        if self.recovery.probation_window == 0 {
            return Err("probation window must be at least one circulation".into());
        }
        let l1_lines = self.caches.l1_bytes / self.caches.line_bytes;
        if !l1_lines.is_multiple_of(self.caches.l1_ways)
            || !(l1_lines / self.caches.l1_ways).is_power_of_two()
        {
            return Err("L1 geometry must have a power-of-two set count".into());
        }
        let l2_lines = self.caches.l2_bytes / self.caches.line_bytes;
        if !l2_lines.is_multiple_of(self.caches.l2_ways)
            || !(l2_lines / self.caches.l2_ways).is_power_of_two()
        {
            return Err("L2 geometry must have a power-of-two set count".into());
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    /// The SPLASH-2 machine: 8 CMPs of 4 cores.
    fn default() -> Self {
        Self::isca2006(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_values() {
        let c = MachineConfig::isca2006(4);
        assert_eq!(c.nodes, 8);
        assert_eq!(c.total_cores(), 32);
        assert_eq!(c.caches.l1_bytes, 32 * 1024);
        assert_eq!(c.caches.l1_ways, 4);
        assert_eq!(c.caches.l2_bytes, 512 * 1024);
        assert_eq!(c.caches.l2_ways, 8);
        assert_eq!(c.caches.line_bytes, 64);
        assert_eq!(c.timing.l1_rt, Cycles(2));
        assert_eq!(c.timing.l2_rt, Cycles(11));
        assert_eq!(c.timing.cmp_bus_rt, Cycles(55));
        assert_eq!(c.timing.snoop_time, Cycles(55));
        assert_eq!(c.timing.snoop_occupancy, Cycles(10));
        assert_eq!(c.ring.rings, 2);
        assert_eq!(
            c.ring.hop_latency.as_u64() + c.ring.link_service.as_u64(),
            39,
            "Table 4: 39-cycle CMP-to-CMP hop"
        );
        assert_eq!(c.memory.dram_latency, Cycles(300));
        assert!(c.memory.home_prefetch);
    }

    #[test]
    fn default_is_valid() {
        assert!(MachineConfig::default().validate().is_ok());
    }

    #[test]
    fn scale_machine_is_valid_at_any_size() {
        for nodes in [1usize, 8, 1024, 1 << 20] {
            let c = MachineConfig::scale(nodes);
            assert!(c.validate().is_ok(), "{nodes} nodes");
            assert_eq!(c.nodes, nodes);
            assert_eq!(c.cores_per_cmp, 1);
            assert!(c.caches.l2_bytes <= 32 * c.caches.line_bytes);
        }
    }

    #[test]
    fn spec_machine_is_valid() {
        assert!(MachineConfig::isca2006(1).validate().is_ok());
        assert_eq!(MachineConfig::isca2006(1).total_cores(), 8);
    }

    #[test]
    fn mlp_knob_defaults_to_blocking() {
        assert_eq!(MachineConfig::default().policy.max_outstanding_reads, 1);
        let mut c = MachineConfig::default();
        c.policy.max_outstanding_reads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let mut c = MachineConfig::default();
        c.caches.line_bytes = 48;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::default();
        c.ring.rings = 0;
        assert!(c.validate().is_err());

        let c = MachineConfig {
            nodes: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn a_cmp_holds_at_most_255_cores() {
        assert!(MachineConfig::isca2006(255).validate().is_ok());
        assert_eq!(
            MachineConfig::isca2006(256).validate(),
            Err("a CMP holds at most 255 cores, not 256".into())
        );
    }

    #[test]
    fn hier_shape_must_tile_the_machine() {
        let c = MachineConfig::hier_scale(4, 4);
        assert_eq!(c.nodes, 16);
        assert!(c.validate().is_ok());

        let mut c = MachineConfig::hier_scale(4, 4);
        c.nodes = 8;
        assert!(c.validate().is_err(), "4x4 does not tile 8 nodes");

        let mut c = MachineConfig::isca2006(1);
        c.ring.hier = Some(default_hier(1, 8));
        assert!(c.validate().is_err(), "single-node local rings rejected");
    }

    #[test]
    fn recovery_defaults_are_adaptive_with_probation() {
        let r = RecoveryParams::default();
        assert_eq!(r.timeout_policy, TimeoutPolicy::Adaptive);
        assert!(r.probation_window > 0);
        let mut c = MachineConfig::default();
        c.recovery.probation_window = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ring_round_trip_approximates_paper() {
        // A full circulation of the 8-node ring ≈ 8 × (39 + 4) = 344 cycles,
        // in the neighbourhood of the paper's 312-cycle prefetched remote RT.
        let c = MachineConfig::default();
        let circ = (c.ring.hop_latency.as_u64() + c.ring.link_service.as_u64()) * 8;
        assert!((300..400).contains(&circ), "circulation = {circ}");
    }
}
