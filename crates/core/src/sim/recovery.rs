//! The recovery layer for an unreliable ring (DESIGN.md §8): fault-plan
//! arming, requester timeout windows and their round-trip estimator,
//! delivery dedup, timeout retries, and degraded mode with probation.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles};
use flexsnoop_mem::{CmpId, LineAddr};
use flexsnoop_net::{FaultPlan, FaultStats};

use super::Simulator;
use crate::config::TimeoutPolicy;
use crate::message::{MsgKind, RingMsg, TxnId};
use crate::timeline::TxnEvent;

/// Per-requester ring round-trip estimator (Jacobson/Karels, integer
/// shifts so it is exactly reproducible):
///
/// ```text
/// err    = R − srtt
/// srtt  += err >> 3            (gain 1/8)
/// rttvar += (|err| − rttvar) >> 2   (gain 1/4)
/// RTO    = max(srtt + 4·rttvar, floor)
/// ```
///
/// Seeded from the unloaded circulation latency (`floor`), with an
/// initial variance of `floor/4` so the first windows carry the same
/// order of slack the static policy hard-codes. The clamp to `floor`
/// guarantees the estimate never undercuts physics no matter what the
/// congestion history looks like.
#[derive(Debug, Clone, Copy)]
pub(super) struct RttEstimator {
    srtt: i64,
    rttvar: i64,
}

impl RttEstimator {
    fn new(floor: Cycles) -> Self {
        RttEstimator {
            srtt: floor.0 as i64,
            rttvar: (floor.0 / 4) as i64,
        }
    }

    pub(super) fn sample(&mut self, rtt: Cycles) {
        let err = rtt.0 as i64 - self.srtt;
        self.srtt += err >> 3;
        self.rttvar += (err.abs() - self.rttvar) >> 2;
    }

    pub(super) fn timeout(&self, floor: Cycles) -> Cycles {
        let rto = self.srtt.saturating_add(4 * self.rttvar).max(0) as u64;
        Cycles(rto.max(floor.0))
    }
}

impl Simulator {
    /// Arms a ring [`FaultPlan`] (see [`flexsnoop_net::fault`]) and the
    /// timeout/retry recovery layer. A lossless plan leaves the simulator
    /// bit-for-bit identical to an unconfigured one. Call before
    /// [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.finished && self.sched.is_empty(),
            "set_fault_plan() must be called before run()"
        );
        self.unreliable = !plan.is_lossless();
        self.torus_faulty = plan.torus_faults();
        self.torus.set_fault_plan(&plan);
        self.ring.set_fault_plan(plan);
        // Ring-phase worst case without contention: a full circulation
        // of hops plus per-node gateway + snoop processing. The static
        // policy pads this floor by the configured queueing slack; the
        // adaptive policy seeds a per-requester estimator from it
        // instead. A spurious timeout (pure congestion) is wasteful but
        // never incorrect: the retry is a fresh attempt and stale
        // deliveries are discarded. Later attempts widen the window
        // exponentially (see [`Self::timeout_window`]) so sustained
        // congestion cannot livelock the requester.
        let per_node = self.cfg.timing.snoop_time
            + self.cfg.timing.gateway_latency
            + self.cfg.timing.predictor_latency;
        self.timeout_floor =
            self.ring.unloaded_circulation_latency() + per_node * self.cfg.nodes as u64;
        self.timeout_base = self.timeout_floor + self.cfg.recovery.queueing_slack;
        self.rtt = vec![RttEstimator::new(self.timeout_floor); self.cfg.nodes];
    }

    /// Timeout window for circulation `attempt` of a transaction issued
    /// at `requester`.
    ///
    /// The attempt-0 window comes from the configured
    /// [`TimeoutPolicy`]: the static base, or the requester's current
    /// round-trip estimate. It doubles per attempt: a window that only
    /// matched the uncongested round trip could expire before *every*
    /// circulation under sustained congestion (discarding each one as
    /// stale and retrying forever). Widening guarantees some attempt's
    /// window exceeds the actual transit time, because faults are
    /// budget-bounded and the workload is finite. The shift cap only
    /// avoids overflow; at 2^16 windows the queue has long since
    /// drained.
    pub(super) fn timeout_window(&self, requester: CmpId, attempt: u32) -> Cycles {
        let base = self.timeout_estimate(requester);
        Cycles(base.0.saturating_mul(1u64 << attempt.min(16)))
    }

    /// The current attempt-0 timeout estimate for transactions issued at
    /// `node`: the static base under [`TimeoutPolicy::Static`], the
    /// node's live round-trip estimate under [`TimeoutPolicy::Adaptive`].
    /// Zero until a fault plan is armed.
    pub fn timeout_estimate(&self, node: CmpId) -> Cycles {
        match self.cfg.recovery.timeout_policy {
            TimeoutPolicy::Static => self.timeout_base,
            TimeoutPolicy::Adaptive => self
                .rtt
                .get(node.0)
                .map_or(self.timeout_base, |e| e.timeout(self.timeout_floor)),
        }
    }

    /// The physical lower bound on any timeout estimate: unloaded
    /// circulation latency plus per-node processing. Zero until a fault
    /// plan is armed.
    pub fn timeout_floor(&self) -> Cycles {
        self.timeout_floor
    }

    /// Overrides the requester-timeout policy (fixed slack vs adaptive
    /// EWMA), for A/B studies on an otherwise identical configuration.
    /// Takes effect from the next timeout scheduling decision.
    pub fn set_timeout_policy(&mut self, policy: TimeoutPolicy) {
        self.cfg.recovery.timeout_policy = policy;
    }

    /// Enables or disables timeout/retry recovery (on by default). Only
    /// meaningful with a non-lossless fault plan; disabling it exists so
    /// the chaos harness can prove that faults without recovery really
    /// lose transactions (`--no-retry`).
    pub fn set_recovery_enabled(&mut self, on: bool) {
        self.recovery = on;
    }

    /// Counters for ring faults injected so far (all zero when lossless).
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.ring.fault_stats();
        stats.torus_drops = self.torus.fault_drops();
        stats
    }

    /// Lines currently in degraded (Lazy-forwarding) mode.
    pub fn degraded_line_count(&self) -> usize {
        self.degraded_lines.len()
    }

    /// Gatekeeper for deliveries on an unreliable ring: discards messages
    /// for retired transactions, messages from superseded attempts, and
    /// injected duplicates (an `(attempt, seq)` pair seen before).
    ///
    /// `node` is where the delivery landed: a stale *reply* reaching the
    /// requester means the superseded circulation actually completed, so
    /// the retry that superseded it was spurious — the hindsight signal
    /// the adaptive timeout policy is built to minimize.
    pub(super) fn accept_delivery(&mut self, msg: &RingMsg, node: CmpId) -> bool {
        let spurious = match self.txns.get_mut(msg.txn) {
            None => false,
            Some(txn) if msg.attempt != txn.attempt => {
                msg.attempt < txn.attempt
                    && node == msg.requester
                    && matches!(msg.kind, MsgKind::Reply(_) | MsgKind::Combined(_))
            }
            Some(txn) => {
                if txn.seen(msg.seq) {
                    self.stats.robustness.duplicates_suppressed += 1;
                    return false;
                }
                txn.mark_seen(msg.seq);
                return true;
            }
        };
        self.stats.robustness.stale_deliveries += 1;
        if spurious {
            self.stats.robustness.spurious_retries += 1;
            // The scheduler clock is the dispatch time of the arrival
            // being judged (`accept_delivery` is always called from an
            // event handler).
            self.stats.robustness.last_spurious_retry_cycle = self.sched.now().as_u64();
            if let Some(p) = self.probe.as_deref_mut() {
                p.spurious_retry();
            }
        }
        false
    }

    /// The recovery timer for one circulation attempt fired. If the
    /// transaction already resolved or a newer attempt owns it, this is
    /// a no-op; otherwise the attempt is abandoned and the request is
    /// re-issued after an exponential backoff. Past the retry cap the
    /// line additionally enters degraded (Lazy-forwarding) mode,
    /// removing the predictor-filtering hazard from the retried
    /// circulations (§4.3.4's safe fallback).
    ///
    /// On a ring-only fault plan a returned reply stands the timer down:
    /// the data phase rides the lossless torus and always finishes. With
    /// torus faults armed the awaited data itself may have been dropped,
    /// so the timer only stands down while a data event is actually
    /// scheduled (`data_pending > 0` — such an event always retires the
    /// transaction when it fires); otherwise the whole transaction — ring
    /// phase and data phase — is retried from scratch. `resumed` and
    /// `data_arrived` are deliberately not consulted: both can be stale
    /// leftovers of a superseded attempt and would stand the timer down
    /// with nothing left in flight to finish the transaction.
    pub(super) fn on_timeout(&mut self, txn_id: TxnId, attempt: u32, now: Cycle) {
        let Some(txn) = self.txns.get(txn_id) else {
            return; // retired: the attempt completed before the timer fired
        };
        if txn.attempt != attempt {
            return;
        }
        let had_reply = txn.reply_info.is_some();
        if had_reply && (!self.torus_faulty || txn.data_pending > 0) {
            return;
        }
        let line = txn.line;
        self.stats.robustness.timeouts += 1;
        self.stats.robustness.last_timeout_cycle = now.as_u64();
        self.txn_event(txn_id, now, TxnEvent::TimedOut { attempt });
        if attempt >= self.cfg.recovery.retry_cap && !self.degraded_lines.contains_key(&line) {
            self.degraded_lines.insert(line, 0);
            self.stats.robustness.degraded_entries += 1;
        } else if let Some(clean) = self.degraded_lines.get_mut(&line) {
            // A fault burst interrupts probation: clean-circulation
            // progress restarts from zero.
            if *clean > 0 {
                *clean = 0;
                self.stats.robustness.probation_resets += 1;
            }
        }
        let new_attempt = attempt + 1;
        let backoff = {
            let base = self.cfg.recovery.backoff_base.0;
            let shift = (new_attempt - 1).min(16);
            Cycles(
                base.saturating_mul(1u64 << shift)
                    .min(self.cfg.recovery.backoff_cap.0),
            )
        };
        let leave = now + backoff + self.cfg.timing.gateway_latency;
        let txn = self.txns.get_mut(txn_id).expect("txn checked above");
        // Every ring hop of a retried transaction is charged to the
        // recovery-overhead energy bucket.
        txn.retried = true;
        if had_reply {
            // Data-phase retry: the ring answered but the torus lost the
            // data. Re-run the whole transaction; any straggler data from
            // the old attempt is real (memory or a supplier sent it) and
            // a double fill is benign.
            txn.reply_info = None;
            txn.data_sent = false;
        }
        self.stats.robustness.retries += 1;
        if let Some(p) = self.probe.as_deref_mut() {
            p.retry_issued(new_attempt);
        }
        self.txn_event(
            txn_id,
            now,
            TxnEvent::Retried {
                attempt: new_attempt,
            },
        );
        // Retries circulate globally: recovery must reach every potential
        // supplier.
        self.relaunch(txn_id, leave);
    }

    /// Probation: a retry-free retirement on a degraded line is one clean
    /// circulation; a full window of them re-arms the Table 3 algorithm
    /// for the line.
    pub(super) fn count_clean_circulation(&mut self, line: LineAddr, now: Cycle) {
        if let Some(clean) = self.degraded_lines.get_mut(&line) {
            *clean += 1;
            if *clean >= self.cfg.recovery.probation_window {
                self.degraded_lines.remove(&line);
                self.stats.robustness.probation_exits += 1;
                self.stats.robustness.last_probation_exit_cycle = now.as_u64();
            }
        }
    }
}

impl Snapshot for RttEstimator {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_i64(self.srtt);
        w.put_i64(self.rttvar);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.srtt = r.get_i64()?;
        self.rttvar = r.get_i64()?;
        Ok(())
    }
}

#[cfg(test)]
mod rtt_tests {
    use super::RttEstimator;
    use flexsnoop_engine::Cycles;

    #[test]
    fn seeded_estimator_matches_static_order_of_slack() {
        // Fresh estimator: srtt = floor, rttvar = floor/4, so the first
        // window is floor + 4·(floor/4) = 2·floor — the same ~two
        // circulations of headroom the static slack hard-codes.
        let floor = Cycles(320);
        let e = RttEstimator::new(floor);
        assert_eq!(e.timeout(floor), Cycles(640));
    }

    #[test]
    fn estimate_never_undercuts_the_floor() {
        // Feed absurdly short samples (faster than the unloaded ring —
        // impossible physically, but the estimator must not trust them).
        let floor = Cycles(300);
        let mut e = RttEstimator::new(floor);
        for _ in 0..1_000 {
            e.sample(Cycles(1));
        }
        assert!(e.timeout(floor) >= floor, "estimate fell below physics");
    }

    #[test]
    fn congestion_raises_and_calm_lowers_the_estimate() {
        let floor = Cycles(300);
        let mut e = RttEstimator::new(floor);
        for _ in 0..64 {
            e.sample(Cycles(2_000));
        }
        let congested = e.timeout(floor);
        assert!(
            congested >= Cycles(2_000),
            "estimator ignored sustained congestion: {congested:?}"
        );
        for _ in 0..256 {
            e.sample(Cycles(320));
        }
        let calm = e.timeout(floor);
        assert!(calm < congested, "estimator never relaxed: {calm:?}");
        assert!(calm >= floor);
    }

    #[test]
    fn integer_arithmetic_is_exactly_reproducible() {
        let floor = Cycles(311);
        let mut a = RttEstimator::new(floor);
        let mut b = RttEstimator::new(floor);
        for i in 0..100u64 {
            let s = Cycles(250 + (i * 97) % 900);
            a.sample(s);
            b.sample(s);
        }
        assert_eq!(a.timeout(floor), b.timeout(floor));
    }
}
