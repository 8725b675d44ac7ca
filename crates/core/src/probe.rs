//! The simulator's one observation channel.
//!
//! [`RunStats`](crate::RunStats) is the deterministic result of a run. A
//! [`Probe`] is the optional sink for everything else the simulator emits
//! while running: which Table 2 primitive each node picked,
//! presence-filter outcomes on writes, predictor and locality activity,
//! per-hop ring and bridge latency, event queue depth, and every step of
//! each transaction ([`Probe::txn_event`]). Every hook has a no-op
//! default, so a sink only pays for what it observes, and a simulator with
//! no probe installed pays a single branch per hook site.
//!
//! Sinks, one installed at a time:
//!
//! * [`CountingProbe`] aggregates the hooks into a [`ProbeReport`] that the
//!   CLI's `--probe` flag surfaces in the JSON benchmark artifacts. It
//!   counts only what `RunStats` does not.
//! * [`Timeline`](crate::Timeline) records the per-transaction
//!   walkthroughs of `flexsnoop timeline`.
//!
//! [`Simulator::probe`](crate::Simulator::probe) reads the installed sink
//! back by type.
//!
//! # Example
//!
//! ```
//! use flexsnoop::{Algorithm, CountingProbe, Simulator};
//! use flexsnoop_workload::profiles;
//!
//! # fn main() -> Result<(), String> {
//! let workload = profiles::uniform_microbench(8, 50);
//! let mut sim = Simulator::for_workload(&workload, Algorithm::SupersetCon, None, 7)?;
//! sim.enable_probe();
//! let stats = sim.run();
//! let report = sim.probe::<CountingProbe>().expect("probe was enabled").snapshot();
//! // SupersetCon consults its predictor at every open read request, and
//! // the probe saw each lookup the accuracy tallies scored.
//! assert!(report.predictor_lookups > 0);
//! assert_eq!(report.predictor_lookups, stats.accuracy.total());
//! # Ok(())
//! # }
//! ```

use std::any::Any;

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles};
use flexsnoop_metrics::Histogram;

use crate::algorithm::SnoopAction;
use crate::message::TxnId;
use crate::timeline::TxnEvent;

/// A sink for run-level observability events.
///
/// All methods have no-op defaults; implement only the hooks you care
/// about. The simulator calls these from its hot paths, so
/// implementations should be cheap — counters, not I/O. The `Any`
/// supertrait lets [`Simulator::probe`](crate::Simulator::probe) hand the
/// installed sink back as its concrete type.
pub trait Probe: Any + Send {
    /// An open read request-carrier arrived at a node and the algorithm
    /// chose `action` (one of the Table 2 primitives).
    fn snoop_action(&mut self, action: SnoopAction) {
        let _ = action;
    }

    /// A write invalidation consulted the presence filter at a node;
    /// `skipped` is true when the filter proved absence and the snoop was
    /// elided (§5.3 extension). Only fired when write filtering is on.
    fn write_filter(&mut self, skipped: bool) {
        let _ = skipped;
    }

    /// A supplier predictor was consulted for an open read request;
    /// `positive` is its answer.
    fn predictor_lookup(&mut self, positive: bool) {
        let _ = positive;
    }

    /// Total predictor training operations, reported once per node at the
    /// end of the run (trainings happen inside the predictor and are
    /// cheapest to total from its own counters).
    fn predictor_trained(&mut self, count: u64) {
        let _ = count;
    }

    /// A message traversed one ring link; `latency` is the full
    /// leave-to-arrival time including link contention.
    fn ring_hop(&mut self, latency: Cycles) {
        let _ = latency;
    }

    /// An event was dispatched; `queue_depth` is the number of events
    /// still pending afterwards.
    fn event_dispatched(&mut self, queue_depth: usize) {
        let _ = queue_depth;
    }

    /// A transaction was re-issued on the ring after a timeout;
    /// `attempt` is the new attempt number (1 = first retry).
    fn retry_issued(&mut self, attempt: u32) {
        let _ = attempt;
    }

    /// A stale reply from a superseded attempt reached the requester:
    /// the retried circulation had actually completed, so the retry was
    /// spurious in hindsight.
    fn spurious_retry(&mut self) {}

    /// The adaptive timeout estimator absorbed one observed ring round
    /// trip; `rtt` is the sample, `estimate` the resulting timeout for
    /// the next attempt-0 window at this requester.
    fn rtt_sampled(&mut self, rtt: Cycles, estimate: Cycles) {
        let _ = (rtt, estimate);
    }

    /// A per-group locality table was consulted for an open read on a
    /// hierarchical topology; `local` is its answer (true = circulate
    /// locally). Never fired on a flat ring.
    fn locality_lookup(&mut self, local: bool) {
        let _ = local;
    }

    /// A local-scope circulation came back empty-handed and was
    /// escalated to a full global circulation (hierarchical topologies
    /// only; this is a misprediction, not a fault retry).
    fn escalation(&mut self) {}

    /// A request-carrier crossed one bridge link on the global ring;
    /// `latency` is the full leave-to-arrival time including bridge
    /// contention. Never fired on a flat ring.
    fn bridge_hop(&mut self, latency: Cycles) {
        let _ = latency;
    }

    /// End-of-run memory accounting: the simulator's estimated heap
    /// footprint ([`crate::Simulator::memory_footprint`]) plus the
    /// process's peak resident set (0 when the platform cannot report
    /// it). Fired exactly once, after the event loop drains.
    fn footprint(&mut self, bytes_per_node: u64, total_bytes: u64, peak_rss_bytes: u64) {
        let _ = (bytes_per_node, total_bytes, peak_rss_bytes);
    }

    /// One step in the life of ring transaction `txn` at cycle `at`:
    /// issue, gateway arrivals, predictions, snoops, forwarding, data
    /// movement, faults, timeouts, retries, escalation, completion.
    fn txn_event(&mut self, txn: TxnId, at: Cycle, event: TxnEvent) {
        let _ = (txn, at, event);
    }
}

/// Aggregated observability counters from one simulation run.
///
/// Produced by [`CountingProbe`]; serialized into the `probe` section of
/// the JSON benchmark artifacts when the CLI runs with `--probe`. Every
/// field is something [`RunStats`](crate::RunStats) does not hold: event,
/// fault, recovery and escalation counts live there only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeReport {
    /// Read requests passed through without snooping (`forward`).
    pub forwards: u64,
    /// Read requests forwarded in parallel with a snoop
    /// (`forward then snoop`).
    pub forward_then_snoop: u64,
    /// Read requests held until the local snoop finished
    /// (`snoop then forward`).
    pub snoop_then_forward: u64,
    /// Write invalidations skipped because the presence filter proved
    /// absence.
    pub write_filter_hits: u64,
    /// Write invalidations that had to snoop despite the presence filter.
    pub write_filter_misses: u64,
    /// Supplier-predictor consultations on the read path.
    pub predictor_lookups: u64,
    /// Consultations that predicted a resident supplier.
    pub predictor_positive: u64,
    /// Predictor training operations across all nodes.
    pub predictor_trains: u64,
    /// Highest pending-event count observed after any dispatch.
    pub queue_depth_high_water: usize,
    /// Leave-to-arrival latency of every ring hop, in cycles.
    pub ring_hop_latency: Histogram,
    /// Timeout-estimate values after each ring round trip fed to the
    /// adaptive timeout estimator, in cycles.
    pub timeout_estimate: Histogram,
    /// Estimated simulator heap bytes per ring node (deterministic for a
    /// fixed configuration and workload).
    pub bytes_per_node: u64,
    /// Estimated total simulator heap footprint in bytes.
    pub footprint_total_bytes: u64,
    /// Peak resident set of the whole process in bytes (`VmHWM`); 0 when
    /// the platform cannot report it. Volatile: never serialized into
    /// deterministic artifact sections.
    pub peak_rss_bytes: u64,
    /// Locality-table consultations (hierarchical topologies only).
    pub locality_lookups: u64,
    /// Consultations that predicted an in-ring supplier.
    pub locality_local: u64,
    /// Leave-to-arrival latency of every bridge hop, in cycles.
    pub bridge_hop_latency: Histogram,
}

impl ProbeReport {
    /// Total Table 2 primitive decisions observed on the read path.
    pub fn total_actions(&self) -> u64 {
        self.forwards + self.forward_then_snoop + self.snoop_then_forward
    }

    /// Fraction of presence-filter consultations that elided a write
    /// snoop (0.0 when write filtering never fired).
    pub fn write_filter_hit_rate(&self) -> f64 {
        let total = self.write_filter_hits + self.write_filter_misses;
        if total == 0 {
            0.0
        } else {
            self.write_filter_hits as f64 / total as f64
        }
    }

    /// Fraction of predictor lookups that answered "supplier present"
    /// (0.0 when the algorithm uses no predictor).
    pub fn predictor_positive_rate(&self) -> f64 {
        if self.predictor_lookups == 0 {
            0.0
        } else {
            self.predictor_positive as f64 / self.predictor_lookups as f64
        }
    }
}

/// The built-in [`Probe`]: counts every hook into a [`ProbeReport`].
#[derive(Debug, Clone, Default)]
pub struct CountingProbe {
    report: ProbeReport,
}

impl CountingProbe {
    /// Creates a probe with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters aggregated so far.
    pub fn snapshot(&self) -> &ProbeReport {
        &self.report
    }
}

impl Probe for CountingProbe {
    fn snoop_action(&mut self, action: SnoopAction) {
        match action {
            SnoopAction::Forward => self.report.forwards += 1,
            SnoopAction::ForwardThenSnoop => self.report.forward_then_snoop += 1,
            SnoopAction::SnoopThenForward => self.report.snoop_then_forward += 1,
        }
    }

    fn write_filter(&mut self, skipped: bool) {
        if skipped {
            self.report.write_filter_hits += 1;
        } else {
            self.report.write_filter_misses += 1;
        }
    }

    fn predictor_lookup(&mut self, positive: bool) {
        self.report.predictor_lookups += 1;
        if positive {
            self.report.predictor_positive += 1;
        }
    }

    fn predictor_trained(&mut self, count: u64) {
        self.report.predictor_trains += count;
    }

    fn ring_hop(&mut self, latency: Cycles) {
        self.report.ring_hop_latency.record(latency.0);
    }

    fn event_dispatched(&mut self, queue_depth: usize) {
        if queue_depth > self.report.queue_depth_high_water {
            self.report.queue_depth_high_water = queue_depth;
        }
    }

    fn rtt_sampled(&mut self, _rtt: Cycles, estimate: Cycles) {
        self.report.timeout_estimate.record(estimate.0);
    }

    fn locality_lookup(&mut self, local: bool) {
        self.report.locality_lookups += 1;
        if local {
            self.report.locality_local += 1;
        }
    }

    fn bridge_hop(&mut self, latency: Cycles) {
        self.report.bridge_hop_latency.record(latency.0);
    }

    fn footprint(&mut self, bytes_per_node: u64, total_bytes: u64, peak_rss_bytes: u64) {
        self.report.bytes_per_node = bytes_per_node;
        self.report.footprint_total_bytes = total_bytes;
        self.report.peak_rss_bytes = peak_rss_bytes;
    }
}

/// Serializes every deterministic counter and histogram.
/// `peak_rss_bytes` is deliberately *not* carried: it is volatile by
/// contract (see its field docs), and the sweep service's results cache
/// byte-compares serialized reports across runs — a resident-set number
/// would make two identical simulations encode differently.
impl Snapshot for ProbeReport {
    fn save_into(&self, w: &mut SnapWriter) {
        for v in [
            self.forwards,
            self.forward_then_snoop,
            self.snoop_then_forward,
            self.write_filter_hits,
            self.write_filter_misses,
            self.predictor_lookups,
            self.predictor_positive,
            self.predictor_trains,
            self.queue_depth_high_water as u64,
            self.bytes_per_node,
            self.footprint_total_bytes,
            self.locality_lookups,
            self.locality_local,
        ] {
            w.put_u64(v);
        }
        self.ring_hop_latency.save_into(w);
        self.timeout_estimate.save_into(w);
        self.bridge_hop_latency.save_into(w);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for v in [
            &mut self.forwards,
            &mut self.forward_then_snoop,
            &mut self.snoop_then_forward,
            &mut self.write_filter_hits,
            &mut self.write_filter_misses,
            &mut self.predictor_lookups,
            &mut self.predictor_positive,
            &mut self.predictor_trains,
        ] {
            *v = r.get_u64()?;
        }
        self.queue_depth_high_water = r.get_u64()? as usize;
        for v in [
            &mut self.bytes_per_node,
            &mut self.footprint_total_bytes,
            &mut self.locality_lookups,
            &mut self.locality_local,
        ] {
            *v = r.get_u64()?;
        }
        self.peak_rss_bytes = 0;
        self.ring_hop_latency.restore_from(r)?;
        self.timeout_estimate.restore_from(r)?;
        self.bridge_hop_latency.restore_from(r)
    }
}

/// Parses the `VmHWM` field out of a `/proc/self/status` dump.
///
/// The unit token is honoured explicitly instead of assuming kibibytes:
/// a missing or unrecognized unit (or a value that overflows when
/// scaled) yields `None` — "unavailable" beats a silently mis-scaled
/// number in a benchmark artifact.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    let scale: u64 = match fields.next()? {
        "B" => 1,
        "kB" | "KB" | "KiB" => 1 << 10,
        "mB" | "MB" | "MiB" => 1 << 20,
        "gB" | "GB" | "GiB" => 1 << 30,
        _ => return None,
    };
    value.checked_mul(scale)
}

/// Peak resident set of the current process in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns `None` on platforms without
/// procfs or when the field is missing or malformed — callers should
/// treat the value as best-effort and volatile.
pub fn peak_rss_bytes() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_probe_aggregates_all_hooks() {
        let mut p = CountingProbe::new();
        p.snoop_action(SnoopAction::Forward);
        p.snoop_action(SnoopAction::ForwardThenSnoop);
        p.snoop_action(SnoopAction::SnoopThenForward);
        p.snoop_action(SnoopAction::Forward);
        p.write_filter(true);
        p.write_filter(false);
        p.write_filter(true);
        p.predictor_lookup(true);
        p.predictor_lookup(false);
        p.predictor_trained(5);
        p.ring_hop(Cycles(12));
        p.ring_hop(Cycles(20));
        p.event_dispatched(3);
        p.event_dispatched(7);
        p.event_dispatched(2);
        p.rtt_sampled(Cycles(344), Cycles(430));
        p.rtt_sampled(Cycles(500), Cycles(620));
        p.locality_lookup(true);
        p.locality_lookup(false);
        p.locality_lookup(true);
        p.bridge_hop(Cycles(66));
        p.bridge_hop(Cycles(80));
        p.footprint(512, 4096, 1 << 20);
        let r = p.snapshot();
        assert_eq!(r.forwards, 2);
        assert_eq!(r.forward_then_snoop, 1);
        assert_eq!(r.snoop_then_forward, 1);
        assert_eq!(r.total_actions(), 4);
        assert_eq!(r.write_filter_hits, 2);
        assert_eq!(r.write_filter_misses, 1);
        assert!((r.write_filter_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.predictor_lookups, 2);
        assert_eq!(r.predictor_positive, 1);
        assert!((r.predictor_positive_rate() - 0.5).abs() < 1e-12);
        assert_eq!(r.predictor_trains, 5);
        assert_eq!(r.ring_hop_latency.count(), 2);
        assert_eq!(r.ring_hop_latency.min(), Some(12));
        assert_eq!(r.ring_hop_latency.max(), Some(20));
        assert_eq!(r.queue_depth_high_water, 7);
        assert_eq!(r.timeout_estimate.count(), 2);
        assert_eq!(r.timeout_estimate.max(), Some(620));
        assert_eq!(r.locality_lookups, 3);
        assert_eq!(r.locality_local, 2);
        assert_eq!(r.bridge_hop_latency.count(), 2);
        assert_eq!(r.bridge_hop_latency.max(), Some(80));
        assert_eq!(r.bytes_per_node, 512);
        assert_eq!(r.footprint_total_bytes, 4096);
        assert_eq!(r.peak_rss_bytes, 1 << 20);
    }

    #[test]
    fn probe_report_snapshot_round_trips_without_peak_rss() {
        use flexsnoop_engine::snap::{restore_bytes, snapshot_bytes};
        let mut p = CountingProbe::new();
        p.snoop_action(SnoopAction::Forward);
        p.write_filter(true);
        p.predictor_lookup(true);
        p.ring_hop(Cycles(9));
        p.event_dispatched(4);
        p.rtt_sampled(Cycles(100), Cycles(150));
        p.locality_lookup(true);
        p.bridge_hop(Cycles(66));
        p.footprint(256, 2048, 1 << 22);
        let original = p.snapshot().clone();
        let bytes = snapshot_bytes(&original);
        let mut restored = ProbeReport::default();
        restore_bytes(&mut restored, &bytes).expect("restore");
        // Everything deterministic survives; the volatile resident-set
        // peak is deliberately dropped.
        let mut expected = original.clone();
        expected.peak_rss_bytes = 0;
        assert_eq!(restored, expected);
        // Two reports differing only in peak RSS encode identically —
        // the property the results cache's byte comparison relies on.
        let mut other = original.clone();
        other.peak_rss_bytes = 123_456_789;
        assert_eq!(snapshot_bytes(&other), bytes);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            // Any live process has touched at least a page.
            assert!(rss >= 4096, "peak RSS {rss} implausibly small");
        }
    }

    #[test]
    fn vm_hwm_parsing_honours_units() {
        let status = "Name:\tflexsnoop\nVmPeak:\t  999 kB\nVmHWM:\t  131072 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(131072 * 1024));
        assert_eq!(parse_vm_hwm("VmHWM:\t3 MB\n"), Some(3 << 20));
        assert_eq!(parse_vm_hwm("VmHWM: 7 B\n"), Some(7));
        assert_eq!(parse_vm_hwm("VmHWM: 2 GiB\n"), Some(2 << 30));
    }

    #[test]
    fn vm_hwm_parsing_rejects_ambiguity_instead_of_guessing() {
        // Missing line entirely.
        assert_eq!(parse_vm_hwm("Name: x\nVmPeak: 10 kB\n"), None);
        // No unit token: the scale would be a guess.
        assert_eq!(parse_vm_hwm("VmHWM: 4096\n"), None);
        // Unknown unit.
        assert_eq!(parse_vm_hwm("VmHWM: 4096 pages\n"), None);
        // Non-numeric value.
        assert_eq!(parse_vm_hwm("VmHWM: lots kB\n"), None);
        // Scaling overflow must not wrap to a plausible-looking number.
        assert_eq!(
            parse_vm_hwm(&format!("VmHWM: {} GiB\n", u64::MAX / 2)),
            None
        );
    }

    #[test]
    fn default_probe_hooks_are_noops() {
        struct Silent;
        impl Probe for Silent {}
        let mut s = Silent;
        s.snoop_action(SnoopAction::Forward);
        s.write_filter(true);
        s.predictor_lookup(false);
        s.predictor_trained(1);
        s.ring_hop(Cycles(1));
        s.event_dispatched(1);
        s.retry_issued(1);
        s.spurious_retry();
        s.rtt_sampled(Cycles(1), Cycles(2));
        s.locality_lookup(true);
        s.escalation();
        s.bridge_hop(Cycles(1));
        s.footprint(1, 2, 3);
        s.txn_event(TxnId(0), Cycle::new(1), TxnEvent::Completed);
    }

    #[test]
    fn rates_are_zero_when_empty() {
        let r = ProbeReport::default();
        assert_eq!(r.total_actions(), 0);
        assert_eq!(r.write_filter_hit_rate(), 0.0);
        assert_eq!(r.predictor_positive_rate(), 0.0);
    }
}
