//! Per-run statistics: everything the paper's figures report.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::Cycle;
use flexsnoop_metrics::{EnergyAccount, EnergyModel, Histogram};
use flexsnoop_predictor::AccuracyStats;

/// Fault-injection and recovery counters (all zero on a lossless ring).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Ring messages dropped by the fault plan.
    pub ring_drops: u64,
    /// Ring messages duplicated by the fault plan.
    pub ring_duplicates: u64,
    /// Ring messages delivered late by the fault plan.
    pub ring_delays: u64,
    /// Duplicate deliveries suppressed by sequence-number filtering.
    pub duplicates_suppressed: u64,
    /// Deliveries discarded because they belonged to a superseded
    /// (retried) attempt of their transaction.
    pub stale_deliveries: u64,
    /// Requester-side timeouts that fired and found the ring phase
    /// still unresolved.
    pub timeouts: u64,
    /// Transaction retries issued (re-circulations after a timeout).
    pub retries: u64,
    /// Lines that entered degraded (Lazy-forwarding) mode after a
    /// transaction exhausted its retry cap.
    pub degraded_entries: u64,
    /// Degraded lines that re-armed their Table 3 algorithm after a full
    /// probation window of clean circulations.
    pub probation_exits: u64,
    /// Probation counters reset to zero by a timeout on the line.
    pub probation_resets: u64,
    /// Retries proven unnecessary in hindsight: a stale reply from a
    /// superseded attempt reached the requester, so the original
    /// circulation had actually completed and the timeout was premature.
    pub spurious_retries: u64,
    /// Observed ring round trips fed to the adaptive timeout estimator.
    pub rtt_samples: u64,
    /// Torus data messages dropped by the fault plan.
    pub torus_drops: u64,
    /// Cores whose access stream had not finished when the event queue
    /// drained (only possible with recovery disabled; a lossy ring
    /// without retries loses transactions).
    pub unfinished_cores: u64,
    /// Predictions corrupted by an armed
    /// [`flexsnoop_predictor::FaultInjectingPredictor`].
    pub injected_prediction_faults: u64,
    /// Ring hops refused because their link crossed a partition boundary.
    pub partition_blocked: u64,
    /// CMPs hot-removed by a churn plan.
    pub churn_detaches: u64,
    /// CMPs re-added by a churn plan.
    pub churn_readds: u64,
    /// Cycle of the most recent requester timeout (0 if none fired).
    /// Together with the last disruption's end, this bounds recovery
    /// time: once past the window no timeout fired again.
    pub last_timeout_cycle: u64,
    /// Cycle of the most recent hindsight-spurious retry (0 if none).
    pub last_spurious_retry_cycle: u64,
    /// Cycle of the most recent probation exit (0 if none).
    pub last_probation_exit_cycle: u64,
    /// Messages dropped on hierarchical bridge links by the fault plan.
    pub bridge_drops: u64,
}

impl RobustnessStats {
    /// Whether any fault was injected or any recovery action taken.
    pub fn is_quiet(&self) -> bool {
        *self == RobustnessStats::default()
    }
}

impl Snapshot for RobustnessStats {
    fn save_into(&self, w: &mut SnapWriter) {
        for v in [
            self.ring_drops,
            self.ring_duplicates,
            self.ring_delays,
            self.duplicates_suppressed,
            self.stale_deliveries,
            self.timeouts,
            self.retries,
            self.degraded_entries,
            self.probation_exits,
            self.probation_resets,
            self.spurious_retries,
            self.rtt_samples,
            self.torus_drops,
            self.unfinished_cores,
            self.injected_prediction_faults,
            self.partition_blocked,
            self.churn_detaches,
            self.churn_readds,
            self.last_timeout_cycle,
            self.last_spurious_retry_cycle,
            self.last_probation_exit_cycle,
            self.bridge_drops,
        ] {
            w.put_u64(v);
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for v in [
            &mut self.ring_drops,
            &mut self.ring_duplicates,
            &mut self.ring_delays,
            &mut self.duplicates_suppressed,
            &mut self.stale_deliveries,
            &mut self.timeouts,
            &mut self.retries,
            &mut self.degraded_entries,
            &mut self.probation_exits,
            &mut self.probation_resets,
            &mut self.spurious_retries,
            &mut self.rtt_samples,
            &mut self.torus_drops,
            &mut self.unfinished_cores,
            &mut self.injected_prediction_faults,
            &mut self.partition_blocked,
            &mut self.churn_detaches,
            &mut self.churn_readds,
            &mut self.last_timeout_cycle,
            &mut self.last_spurious_retry_cycle,
            &mut self.last_probation_exit_cycle,
            &mut self.bridge_drops,
        ] {
            *v = r.get_u64()?;
        }
        Ok(())
    }
}

/// Statistics collected over one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Ring read snoop transactions issued (completed).
    pub read_txns: u64,
    /// Ring write snoop transactions issued (completed).
    pub write_txns: u64,
    /// CMP snoop operations performed on behalf of read transactions.
    pub read_snoops: u64,
    /// CMP snoop operations performed on behalf of write transactions.
    pub write_snoops: u64,
    /// Ring link crossings by read-transaction messages (requests plus
    /// replies; the Figure 7 quantity).
    pub read_ring_hops: u64,
    /// Ring link crossings by write-transaction messages.
    pub write_ring_hops: u64,
    /// Read transactions supplied by a remote cache.
    pub reads_cache_supplied: u64,
    /// Read transactions satisfied from memory.
    pub reads_from_memory: u64,
    /// Accesses satisfied in the requesting core's own L1.
    pub l1_hits: u64,
    /// Accesses satisfied in the requesting core's own L2.
    pub l2_hits: u64,
    /// Accesses supplied by a peer cache in the same CMP.
    pub local_peer_hits: u64,
    /// Write hits that completed silently (line in `E`/`D`).
    pub silent_write_hits: u64,
    /// Exact-predictor downgrades performed.
    pub downgrades: u64,
    /// Downgrades whose victim was dirty (caused a write-back).
    pub downgrade_writebacks: u64,
    /// Memory re-reads of previously downgraded lines.
    pub downgrade_rereads: u64,
    /// Same-line transaction collisions serialized (squash-and-retry).
    pub collisions: u64,
    /// Discrete events dispatched by the scheduler over the whole run (the
    /// denominator of the benchmark's `events_per_s`, see `perfbench/`).
    pub events: u64,
    /// Cache-eviction write-backs of dirty lines.
    pub eviction_writebacks: u64,
    /// Read circulations that retired at local scope on a hierarchical
    /// topology (the supplier was found without leaving the requester's
    /// local ring). Zero when flat.
    pub local_circulations: u64,
    /// Circulations that visited the whole machine: every global-scope
    /// read circulation retired, flat or hierarchical.
    pub global_circulations: u64,
    /// Local circulations that came back empty and escalated to a fresh
    /// global circulation (the locality table mispredicted).
    pub escalations: u64,
    /// Ring link crossings over global (bridge) links; a subset of the
    /// read+write ring-hop counts. Zero when flat.
    pub bridge_hops: u64,
    /// Ring link crossings belonging to timeout-retried circulations —
    /// the traffic the fault-aware energy split charges to recovery
    /// overhead. Zero on a lossless ring.
    pub retry_ring_hops: u64,
    /// Read-transaction latency, issue to data arrival.
    pub read_latency: Histogram,
    /// Simulated cycles until every core finished its stream.
    pub exec_cycles: Cycle,
    /// Snoop-related energy account.
    pub energy: EnergyAccount,
    /// Supplier-predictor accuracy (summed over all nodes).
    pub accuracy: AccuracyStats,
    /// Fault-injection and recovery counters.
    pub robustness: RobustnessStats,
}

impl RunStats {
    /// Creates a zeroed record using `model` for energy accounting.
    pub fn new(model: EnergyModel) -> Self {
        RunStats {
            read_txns: 0,
            write_txns: 0,
            read_snoops: 0,
            write_snoops: 0,
            read_ring_hops: 0,
            write_ring_hops: 0,
            reads_cache_supplied: 0,
            reads_from_memory: 0,
            l1_hits: 0,
            l2_hits: 0,
            local_peer_hits: 0,
            silent_write_hits: 0,
            downgrades: 0,
            downgrade_writebacks: 0,
            downgrade_rereads: 0,
            collisions: 0,
            events: 0,
            eviction_writebacks: 0,
            local_circulations: 0,
            global_circulations: 0,
            escalations: 0,
            bridge_hops: 0,
            retry_ring_hops: 0,
            read_latency: Histogram::new(),
            exec_cycles: Cycle::ZERO,
            energy: EnergyAccount::new(model),
            accuracy: AccuracyStats::default(),
            robustness: RobustnessStats::default(),
        }
    }

    /// Average CMP snoop operations per read snoop request (Figure 6).
    pub fn snoops_per_read(&self) -> f64 {
        if self.read_txns == 0 {
            0.0
        } else {
            self.read_snoops as f64 / self.read_txns as f64
        }
    }

    /// Average ring link crossings per read snoop request (Figure 7's raw
    /// quantity before normalizing to Lazy).
    pub fn ring_hops_per_read(&self) -> f64 {
        if self.read_txns == 0 {
            0.0
        } else {
            self.read_ring_hops as f64 / self.read_txns as f64
        }
    }

    /// Fraction of ring read transactions a cache supplied.
    pub fn cache_supply_fraction(&self) -> f64 {
        if self.read_txns == 0 {
            0.0
        } else {
            self.reads_cache_supplied as f64 / self.read_txns as f64
        }
    }

    /// Total snoop-related energy in nanojoules (Figure 9's raw quantity).
    pub fn energy_nj(&self) -> f64 {
        self.energy.total_nj()
    }

    /// Execution time in cycles as a float (Figure 8's raw quantity).
    pub fn exec_time(&self) -> f64 {
        self.exec_cycles.as_u64() as f64
    }
}

/// Serializes every counter plus the latency histogram; the energy
/// *model* (per-event costs) is configuration and stays with the freshly
/// built record — only the event counts are carried.
impl Snapshot for RunStats {
    fn save_into(&self, w: &mut SnapWriter) {
        for v in [
            self.read_txns,
            self.write_txns,
            self.read_snoops,
            self.write_snoops,
            self.read_ring_hops,
            self.write_ring_hops,
            self.reads_cache_supplied,
            self.reads_from_memory,
            self.l1_hits,
            self.l2_hits,
            self.local_peer_hits,
            self.silent_write_hits,
            self.downgrades,
            self.downgrade_writebacks,
            self.downgrade_rereads,
            self.collisions,
            self.events,
            self.eviction_writebacks,
            self.local_circulations,
            self.global_circulations,
            self.escalations,
            self.bridge_hops,
            self.retry_ring_hops,
        ] {
            w.put_u64(v);
        }
        self.read_latency.save_into(w);
        w.put_cycle(self.exec_cycles);
        self.energy.save_into(w);
        self.accuracy.save_into(w);
        self.robustness.save_into(w);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for v in [
            &mut self.read_txns,
            &mut self.write_txns,
            &mut self.read_snoops,
            &mut self.write_snoops,
            &mut self.read_ring_hops,
            &mut self.write_ring_hops,
            &mut self.reads_cache_supplied,
            &mut self.reads_from_memory,
            &mut self.l1_hits,
            &mut self.l2_hits,
            &mut self.local_peer_hits,
            &mut self.silent_write_hits,
            &mut self.downgrades,
            &mut self.downgrade_writebacks,
            &mut self.downgrade_rereads,
            &mut self.collisions,
            &mut self.events,
            &mut self.eviction_writebacks,
            &mut self.local_circulations,
            &mut self.global_circulations,
            &mut self.escalations,
            &mut self.bridge_hops,
            &mut self.retry_ring_hops,
        ] {
            *v = r.get_u64()?;
        }
        self.read_latency.restore_from(r)?;
        self.exec_cycles = r.get_cycle()?;
        self.energy.restore_from(r)?;
        self.accuracy.restore_from(r)?;
        self.robustness.restore_from(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_ratios_are_safe() {
        let s = RunStats::new(EnergyModel::paper_baseline());
        assert_eq!(s.snoops_per_read(), 0.0);
        assert_eq!(s.ring_hops_per_read(), 0.0);
        assert_eq!(s.cache_supply_fraction(), 0.0);
        assert_eq!(s.energy_nj(), 0.0);
    }

    #[test]
    fn snapshot_round_trip_restores_counts() {
        use flexsnoop_engine::snap::{restore_bytes, snapshot_bytes};
        let mut s = RunStats::new(EnergyModel::paper_baseline());
        s.read_txns = 10;
        s.read_snoops = 35;
        s.collisions = 2;
        s.exec_cycles = Cycle::new(9999);
        s.read_latency.record(100);
        s.read_latency.record(300);
        s.accuracy.record(true, true);
        s.robustness.retries = 4;
        let bytes = snapshot_bytes(&s);
        let mut t = RunStats::new(EnergyModel::paper_baseline());
        restore_bytes(&mut t, &bytes).expect("restore");
        assert_eq!(t, s);
    }

    #[test]
    fn derived_ratios() {
        let mut s = RunStats::new(EnergyModel::paper_baseline());
        s.read_txns = 10;
        s.read_snoops = 35;
        s.read_ring_hops = 80;
        s.reads_cache_supplied = 7;
        assert!((s.snoops_per_read() - 3.5).abs() < 1e-12);
        assert!((s.ring_hops_per_read() - 8.0).abs() < 1e-12);
        assert!((s.cache_supply_fraction() - 0.7).abs() < 1e-12);
    }
}
