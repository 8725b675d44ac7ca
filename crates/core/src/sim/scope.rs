//! Circulation scope on a hierarchical topology: the per-group locality
//! choice at issue, locality training, and escalation of a local lap that
//! found no supplier.

use flexsnoop_engine::Cycle;
use flexsnoop_mem::{CmpId, LineAddr};

use super::Simulator;
use crate::message::{SnoopScope, TxnId, TxnOp};
use crate::timeline::TxnEvent;

impl Simulator {
    /// Picks a new transaction's circulation scope. Hierarchical reads
    /// consult the requester group's locality table: a local prediction
    /// lets the snoop circulate inside the group only (escalating on a
    /// miss); writes always invalidate machine-wide. Flat topologies have
    /// no table and stay Global.
    pub(super) fn initial_scope(
        &mut self,
        op: TxnOp,
        requester: CmpId,
        line: LineAddr,
    ) -> SnoopScope {
        if op == TxnOp::Write || self.locality.is_empty() {
            return SnoopScope::Global;
        }
        let group = self.ring.group_of(requester);
        let local = self.locality[group].predict_local(line);
        if let Some(p) = self.probe.as_deref_mut() {
            p.locality_lookup(local);
        }
        if local {
            SnoopScope::Local
        } else {
            SnoopScope::Global
        }
    }

    /// Trains the requester group's locality table with ground truth: the
    /// supplier was (not) inside the requester's ring, or there was no
    /// supplier to find (`None`), which trains remote so the line keeps
    /// circulating globally until a local supply proves otherwise. No-op
    /// on a flat topology.
    pub(super) fn train_locality(
        &mut self,
        requester: CmpId,
        line: LineAddr,
        supplier: Option<CmpId>,
    ) {
        if self.locality.is_empty() {
            return;
        }
        let group = self.ring.group_of(requester);
        let was_local = supplier.is_some_and(|node| self.ring.group_of(node) == group);
        self.locality[group].train(line, was_local);
    }

    /// A local-scope circulation returned to the requester without
    /// finding a supplier. The locality prediction was wrong (or the
    /// line lives in memory): abandon the local attempt and re-issue a
    /// full global circulation so every potential supplier is still
    /// visited — the paper's correctness guarantee. This is not a fault
    /// retry: `retried` stays false and no robustness counters move,
    /// but the attempt number bumps so any stale per-attempt events of
    /// the local lap are discarded on unreliable rings.
    pub(super) fn escalate(&mut self, txn_id: TxnId, now: Cycle) {
        let txn = self.txns.get(txn_id).expect("escalating a live txn");
        let (requester, line) = (txn.requester, txn.line);
        self.stats.escalations += 1;
        if let Some(p) = self.probe.as_deref_mut() {
            p.escalation();
        }
        self.train_locality(requester, line, None);
        self.txn_event(txn_id, now, TxnEvent::Escalated);
        let leave = now + self.cfg.timing.gateway_latency;
        self.txns
            .get_mut(txn_id)
            .expect("txn checked above")
            .reply_info = None;
        self.relaunch(txn_id, leave);
    }
}
