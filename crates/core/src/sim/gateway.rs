//! Table 2 at one node's gateway: the per-transaction bookkeeping
//! ([`NodeState`]), the arrival handlers that pick and run a primitive,
//! snoop completion, the trailing-reply handlers and the ring hop.

use flexsnoop_engine::Cycle;
use flexsnoop_mem::{CmpId, InvalidateOutcome};
use flexsnoop_metrics::EnergyCategory;

use super::{Event, Simulator, WriteData};
use crate::algorithm::{Algorithm, DynPolicy, SnoopAction};
use crate::message::{MsgKind, ReplyInfo, RingMsg, SnoopScope, TxnId, TxnOp};
use crate::oracle::ProtocolMutation;
use crate::timeline::TxnEvent;

fn kind_label(kind: &MsgKind) -> &'static str {
    match kind {
        MsgKind::Request => "Req",
        MsgKind::Reply(_) => "Rep",
        MsgKind::Combined(_) => "R/R",
    }
}

/// Per-node, per-transaction gateway state (Table 2's bookkeeping).
///
/// Stored sparsely in the simulator's `gateway` map, keyed by
/// `(transaction, node)`. A missing entry means the node has either not
/// seen the transaction yet or already finished with it, in which case a
/// further trailing reply is stale information and is discarded (Table 2:
/// "Discard snoop reply"). Only the handful of nodes actively working on
/// a transaction occupy memory, instead of a `Vec<NodeState>` of machine
/// size per transaction — the difference between O(in-flight × touched)
/// and O(in-flight × nodes) state on million-node rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum NodeState {
    /// The node forwarded a split request without snooping (a read
    /// `Forward`, or a write the presence filter skipped); the trailing
    /// reply is passed through too, marked as filtered on reads.
    PassThrough,
    /// A snoop is in flight.
    Snooping {
        /// The incoming accumulator, present iff the request arrived as a
        /// combined R/R.
        acc: Option<ReplyInfo>,
        /// Whether the outgoing message is a combined R/R (Snoop Then
        /// Forward) or a bare reply (Forward Then Snoop).
        combine_out: bool,
        /// A trailing negative reply that arrived mid-snoop.
        buffered: Option<ReplyInfo>,
    },
    /// The snoop finished negative on a split request; waiting for the
    /// trailing reply to merge with. `any_copy` is the local outcome.
    AwaitReply { combine_out: bool, any_copy: bool },
}

impl Simulator {
    /// Sends `msg` over the ring link leaving `from` at `leave`, charging
    /// energy and counting the hop.
    ///
    /// On a hierarchical topology a global-scope message leaving a bridge
    /// it reached over the *local* ring departs on the **global** link to
    /// the next group's bridge (`via_global` is set for the arrival
    /// handler); everything else — local-scope circulations, non-bridge
    /// nodes, and the switch hop a bridge makes after a global arrival —
    /// stays on the local ring. Flat topologies have no bridges, so the
    /// routing collapses to the plain successor hop.
    pub(super) fn send_ring(&mut self, mut msg: RingMsg, from: CmpId, leave: Cycle) {
        if self.unreliable {
            // Stamp the current attempt and a fresh emission sequence
            // number so arrivals can discard duplicates and superseded
            // circulations.
            if let Some(t) = self.txns.get_mut(msg.txn) {
                msg.attempt = t.attempt;
                msg.seq = t.emit_seq;
                t.emit_seq += 1;
                if t.retried {
                    // Every hop of a timeout-retried transaction is
                    // recovery overhead (the report's fault-aware energy
                    // split charges these separately).
                    self.stats.retry_ring_hops += 1;
                }
            }
        }
        self.txn_event(
            msg.txn,
            leave,
            TxnEvent::Forwarded {
                node: from,
                kind: kind_label(&msg.kind),
            },
        );
        let go_global =
            msg.scope == SnoopScope::Global && !msg.via_global && self.ring.is_bridge(from);
        let ring_id = self.ring.ring_for(msg.line);
        let out = if go_global {
            msg.via_global = true;
            self.stats.bridge_hops += 1;
            self.ring.send_global_hop_outcome(ring_id, from, leave)
        } else {
            msg.via_global = false;
            self.ring.send_hop_outcome(ring_id, from, leave)
        };
        // The flit crossed (or occupied) the link either way: hops and
        // link energy are charged even when the fault plan eats it, and an
        // injected duplicate is one more flit.
        let flits = 1 + u64::from(out.duplicate.is_some());
        match msg.op {
            TxnOp::Read => self.stats.read_ring_hops += flits,
            TxnOp::Write => self.stats.write_ring_hops += flits,
        }
        self.stats.energy.add(EnergyCategory::RingLink, flits);
        let node = if go_global {
            self.ring.global_next(from)
        } else {
            self.ring.next_node(from)
        };
        if go_global {
            if let (Some(p), Some(arrival)) = (self.probe.as_deref_mut(), out.arrival) {
                p.bridge_hop(arrival - leave);
            }
        }
        match out.arrival {
            Some(arrival) => {
                if let Some(p) = self.probe.as_deref_mut() {
                    p.ring_hop(arrival - leave);
                }
                self.sched
                    .schedule_at(arrival, Event::RingArrive { msg, node });
            }
            None => {
                self.txn_event(msg.txn, leave, TxnEvent::Dropped { node: from });
            }
        }
        if let Some(dup_at) = out.duplicate {
            if let Some(p) = self.probe.as_deref_mut() {
                p.ring_hop(dup_at - leave);
            }
            self.sched
                .schedule_at(dup_at, Event::RingArrive { msg, node });
        }
    }

    pub(super) fn on_ring_arrive(&mut self, msg: RingMsg, node: CmpId, now: Cycle) {
        if self.unreliable && !self.accept_delivery(&msg, node) {
            return;
        }
        self.txn_event(
            msg.txn,
            now,
            TxnEvent::Arrived {
                node,
                kind: kind_label(&msg.kind),
            },
        );
        if msg.via_global {
            // Global-ring arrival (hierarchical topologies only): the
            // receiving gateway acts as a pure switch and puts the
            // message onto its local ring without snooping — the node is
            // snooped when the local walk reaches it over a local link.
            // This holds even at the requester (a bridge requester's
            // tour passes its own gateway over the global ring before
            // the closing local walk): termination is always a
            // local-link arrival at the requester.
            self.send_ring(msg, node, now + self.cfg.timing.gateway_latency);
            return;
        }
        if node == msg.requester {
            self.on_ring_return(msg, now);
            return;
        }
        // Home-node prefetch: the gateway sees every passing read message.
        if self.cfg.memory.home_prefetch
            && msg.op == TxnOp::Read
            && node.0 == msg.line.home_node(self.cfg.nodes)
        {
            let mem = &self.cfg.memory;
            let txn = self.txns.get_mut(msg.txn);
            if let Some(txn) = txn.filter(|t| t.prefetch_ready.is_none()) {
                let grant = self.mem_ports[node.0].acquire(now, mem.occupancy);
                let ready = grant.start + mem.dram_latency + mem.controller_overhead;
                txn.prefetch_ready = Some(ready);
                self.txn_event(
                    msg.txn,
                    now,
                    TxnEvent::MemoryStarted {
                        home: node,
                        prefetch: true,
                    },
                );
            }
        }
        match msg.op {
            TxnOp::Read => self.on_read_arrive(msg, node, now),
            TxnOp::Write => self.on_write_arrive(msg, node, now),
        }
    }

    // ----- read transactions at intermediate nodes ---------------------------

    fn on_read_arrive(&mut self, msg: RingMsg, node: CmpId, now: Cycle) {
        match msg.kind {
            MsgKind::Reply(info) => self.on_trailing_reply(msg, node, info, now),
            MsgKind::Combined(info) if info.found => {
                // A positive combined R/R is a reply in transit: forward
                // without snooping (paper §2.2).
                self.gateway.remove(&(msg.txn, node.0 as u32));
                self.send_ring(msg, node, now + self.cfg.timing.gateway_latency);
            }
            MsgKind::Request | MsgKind::Combined(_) => {
                self.on_open_request(msg, node, now);
            }
        }
    }

    /// An open (outcome-unknown) read request-carrier arrives: consult the
    /// predictor, pick the primitive, and execute it.
    fn on_open_request(&mut self, msg: RingMsg, node: CmpId, now: Cycle) {
        let line = msg.line;
        let mut proc = self.cfg.timing.gateway_latency;
        let action = if self.unreliable && self.degraded_lines.contains_key(&line) {
            // Degraded mode (retry cap exhausted once for this line):
            // always snoop-then-forward, Lazy's always-correct primitive,
            // so no prediction can filter past a supplier while the ring
            // is actively losing messages. Probation (see
            // [`Self::count_clean_circulation`]) lifts this once the line
            // strings together enough clean circulations.
            SnoopAction::SnoopThenForward
        } else if self.alg.uses_predictor() {
            proc += self.cfg.timing.predictor_latency;
            let predicted = self.predictors.predict(node.0, line);
            let actual = self.cmps[node.0].supplier_of(line).is_some();
            self.stats.accuracy.record(predicted, actual);
            if let Some(p) = self.probe.as_deref_mut() {
                p.predictor_lookup(predicted);
            }
            self.txn_event(
                msg.txn,
                now,
                TxnEvent::Predicted {
                    node,
                    positive: predicted,
                },
            );
            let over_budget = self.energy_over_budget(now);
            let action = self.alg.action(predicted, over_budget);
            // Oracle hook: filtering (plain Forward) past a node that holds
            // the supplier is the §4.3.4 hazard — legal only for predictors
            // with no false negatives (Superset family, Exact, Oracle), so
            // an occurrence is a protocol violation, not a mere miss.
            if self.checks && actual && action == SnoopAction::Forward {
                self.record_violation(
                    msg.txn,
                    now,
                    line,
                    format!(
                        "{}: snoop filtered at cmp{} despite a resident supplier \
                         (predictor false negative)",
                        self.alg, node.0
                    ),
                );
            }
            action
        } else {
            self.alg.action(false, false)
        };
        if let Some(p) = self.probe.as_deref_mut() {
            p.snoop_action(action);
        }
        match action {
            SnoopAction::Forward => {
                match msg.kind.info() {
                    Some(mut info) => {
                        info.mark_filtered();
                        self.gateway.remove(&(msg.txn, node.0 as u32));
                        let out = RingMsg {
                            kind: MsgKind::Combined(info),
                            ..msg
                        };
                        self.send_ring(out, node, now + proc);
                    }
                    None => {
                        // Split request: pass it on; the trailing reply will
                        // be marked as filtered when it comes through.
                        self.set_node_state(msg.txn, node, NodeState::PassThrough);
                        self.send_ring(msg, node, now + proc);
                    }
                }
            }
            SnoopAction::ForwardThenSnoop => {
                let out = RingMsg {
                    kind: MsgKind::Request,
                    ..msg
                };
                self.send_ring(out, node, now + proc);
                self.begin_snoop(&msg, node, now + proc, false);
            }
            SnoopAction::SnoopThenForward => self.begin_snoop(&msg, node, now + proc, true),
        }
    }

    /// Starts this node's snoop for the request-carrier `msg` (a read
    /// lookup or a write invalidation, by `msg.op`) once the CMP's snoop
    /// port is free, keeping the incoming accumulator if `msg` is a
    /// combined R/R.
    fn begin_snoop(&mut self, msg: &RingMsg, node: CmpId, start: Cycle, combine_out: bool) {
        let (txn, attempt) = (msg.txn, msg.attempt);
        self.set_node_state(
            txn,
            node,
            NodeState::Snooping {
                acc: msg.kind.info(),
                combine_out,
                buffered: None,
            },
        );
        self.txn_event(txn, start, TxnEvent::SnoopStarted { node });
        let grant = self.snoop_ports[node.0].acquire(start, self.cfg.timing.snoop_occupancy);
        let done = match msg.op {
            TxnOp::Read => Event::SnoopDone { txn, node, attempt },
            TxnOp::Write => Event::WriteSnoopDone { txn, node, attempt },
        };
        self.sched
            .schedule_at(grant.start + self.cfg.timing.snoop_time, done);
    }

    pub(super) fn on_snoop_done(&mut self, txn_id: TxnId, node: CmpId, attempt: u32, now: Cycle) {
        self.stats.read_snoops += 1;
        self.stats.energy.add(EnergyCategory::Snoop, 1);
        let Some(txn) = self.txns.get(txn_id) else {
            return; // transaction already retired (stale snoop)
        };
        if self.unreliable && attempt != txn.attempt {
            // The snoop belongs to a superseded circulation: the tag check
            // keeps it from feeding the predictor, supplying data, or
            // emitting messages. The work (and its energy) still happened.
            return;
        }
        let line = txn.line;
        let requester = txn.requester;
        let state = self.gateway.get(&(txn_id, node.0 as u32)).copied();
        let result = self.cmps[node.0].snoop(line);
        if self.alg.uses_predictor() {
            self.predictors
                .feedback(node.0, line, result.supplier.is_some());
        }
        let Some(NodeState::Snooping {
            acc,
            combine_out,
            buffered,
        }) = state
        else {
            // No gateway entry: a positive trailing reply was already
            // forwarded mid-snoop and finished this node; nothing remains
            // to do (the snoop energy is already counted). An injected
            // mutation legitimately leaves stray suppliers around, so the
            // protocol-cleanliness assert stands down then — the
            // invariant oracle is what reports the breakage.
            debug_assert_eq!(state, None);
            debug_assert!(self.mutation.is_some() || result.supplier.is_none());
            return;
        };
        self.txn_event(
            txn_id,
            now,
            TxnEvent::SnoopFinished {
                node,
                supplier: result.supplier.is_some(),
            },
        );
        if let Some((supplier_core, st)) = result.supplier {
            // Supply the line: data via the torus, positive outcome on the
            // ring.
            if self.mutation != Some(ProtocolMutation::SkipSupplierDowngrade) {
                self.transition(node, supplier_core, line, st.after_remote_supply());
            }
            self.train_locality(requester, line, Some(node));
            self.stats.reads_cache_supplied += 1;
            self.txn_event(txn_id, now, TxnEvent::DataSent { node });
            // Faultable: a read supply leaves the supplier's copy intact
            // (it only moved to a shared supplier state), so a retried
            // circulation finds it again and re-requests the data.
            if let Some(data_at) = self.torus.send_outcome(node, requester, now) {
                self.sched
                    .schedule_at(data_at, Event::DataArrive { txn: txn_id });
                self.note_data_scheduled(txn_id);
            }
            let mut info = acc.unwrap_or_else(ReplyInfo::start);
            info.merge_snoop(true, true);
            self.finish_node(txn_id, node, info, combine_out, now);
        } else {
            let any_copy = result.any_copy;
            match acc {
                Some(mut info) => {
                    info.merge_snoop(false, any_copy);
                    self.finish_node(txn_id, node, info, combine_out, now);
                }
                None => match buffered {
                    Some(mut info) => {
                        info.merge_snoop(false, any_copy);
                        self.finish_node(txn_id, node, info, combine_out, now);
                    }
                    None => {
                        self.set_node_state(
                            txn_id,
                            node,
                            NodeState::AwaitReply {
                                combine_out,
                                any_copy,
                            },
                        );
                    }
                },
            }
        }
    }

    /// Emits this node's outgoing message for the transaction (a combined
    /// R/R or a bare reply carrying `info`) and finishes the node.
    fn finish_node(
        &mut self,
        txn_id: TxnId,
        node: CmpId,
        info: ReplyInfo,
        combine_out: bool,
        now: Cycle,
    ) {
        self.gateway.remove(&(txn_id, node.0 as u32));
        let Some(txn) = self.txns.get(txn_id) else {
            return;
        };
        let kind = if combine_out {
            MsgKind::Combined(info)
        } else {
            MsgKind::Reply(info)
        };
        let msg = RingMsg {
            txn: txn_id,
            line: txn.line,
            op: txn.op,
            requester: txn.requester,
            kind,
            attempt: 0, // restamped by send_ring on an unreliable ring
            seq: 0,
            scope: txn.scope,
            via_global: false,
        };
        self.send_ring(msg, node, now + self.cfg.timing.gateway_latency);
    }

    /// A trailing reply arrives at an intermediate node.
    fn on_trailing_reply(&mut self, msg: RingMsg, node: CmpId, info: ReplyInfo, now: Cycle) {
        if self.txns.get(msg.txn).is_none() {
            return;
        }
        let state = self.gateway.get(&(msg.txn, node.0 as u32)).copied();
        match state {
            Some(NodeState::PassThrough) => {
                let mut info = info;
                info.mark_filtered();
                let out = RingMsg {
                    kind: MsgKind::Reply(info),
                    ..msg
                };
                self.send_ring(out, node, now + self.cfg.timing.gateway_latency);
            }
            Some(NodeState::Snooping {
                acc, combine_out, ..
            }) => {
                debug_assert!(acc.is_none(), "combined arrival cannot trail a reply");
                if info.found {
                    // A supplier upstream: our pending snoop cannot also be
                    // the supplier, so forward the good news immediately.
                    self.finish_node(msg.txn, node, info, combine_out, now);
                } else {
                    self.set_node_state(
                        msg.txn,
                        node,
                        NodeState::Snooping {
                            acc,
                            combine_out,
                            buffered: Some(info),
                        },
                    );
                }
            }
            Some(NodeState::AwaitReply {
                combine_out,
                any_copy,
            }) => {
                let mut info = info;
                info.merge_snoop(false, any_copy);
                self.finish_node(msg.txn, node, info, combine_out, now);
            }
            None => {
                // No gateway entry. Either this node already finished —
                // e.g. a Forward-Then-Snoop node whose snoop found the
                // supplier emits its positive reply immediately, so the
                // upstream trailing reply reaches it after the fact and
                // is stale information (Table 2: "Discard snoop reply") —
                // or, on an unreliable ring only, the leading request was
                // dropped mid-circulation and this orphaned reply reached
                // a node that never saw it; downstream nodes are useless
                // to it either way and the requester's timeout recovers
                // the transaction. Both cases: discard.
            }
        }
    }

    // ----- write transactions at intermediate nodes ---------------------------

    fn on_write_arrive(&mut self, msg: RingMsg, node: CmpId, now: Cycle) {
        match msg.kind {
            MsgKind::Reply(info) => self.on_write_trailing_reply(msg, node, info, now),
            MsgKind::Request | MsgKind::Combined(_) => {
                let mut proc = self.cfg.timing.gateway_latency;
                // §5.3 extension: with a presence filter, a node that
                // provably holds no copy forwards the invalidation without
                // snooping (it cannot hold data to invalidate or supply).
                if self.cfg.policy.write_filtering {
                    proc += self.cfg.timing.predictor_latency;
                    self.stats.energy.add(EnergyCategory::PredictorLookup, 1);
                    let absent = !self.presence[node.0].may_contain(msg.line);
                    if let Some(p) = self.probe.as_deref_mut() {
                        p.write_filter(absent);
                    }
                    if absent {
                        debug_assert!(!self.cmps[node.0].has_copy(msg.line));
                        self.write_snoops_filtered += 1;
                        // Unlike a read Forward, the reply is not marked
                        // filtered: the node provably holds no copy.
                        if msg.kind == MsgKind::Request {
                            self.set_node_state(msg.txn, node, NodeState::PassThrough);
                        } else {
                            self.gateway.remove(&(msg.txn, node.0 as u32));
                        }
                        self.send_ring(msg, node, now + proc);
                        return;
                    }
                }
                // Writes otherwise snoop (invalidate) at every node; the
                // only choice is whether the message is decoupled (§5.3).
                if self.alg.decouples_writes() {
                    let out = RingMsg {
                        kind: MsgKind::Request,
                        ..msg
                    };
                    self.send_ring(out, node, now + proc);
                    self.begin_snoop(&msg, node, now + proc, false);
                } else {
                    self.begin_snoop(&msg, node, now + proc, true);
                }
            }
        }
    }

    pub(super) fn on_write_snoop_done(
        &mut self,
        txn_id: TxnId,
        node: CmpId,
        attempt: u32,
        now: Cycle,
    ) {
        self.stats.write_snoops += 1;
        self.stats.energy.add(EnergyCategory::Snoop, 1);
        let Some(txn) = self.txns.get(txn_id) else {
            return;
        };
        if self.unreliable && attempt != txn.attempt {
            return; // superseded circulation: count the work, change nothing
        }
        let line = txn.line;
        let requester = txn.requester;
        let needs_data = txn.write_data == WriteData::Remote && !txn.data_sent;
        let state = self.gateway.get(&(txn_id, node.0 as u32)).copied();
        // Invalidate every copy in this CMP; a supplier-state copy donates
        // the data if the writer still needs it.
        let dropped = if self.mutation == Some(ProtocolMutation::SkipWriteInvalidation) {
            InvalidateOutcome {
                copies: 0,
                had_supplier: false,
                strong_copies: 0,
            }
        } else {
            self.invalidate_cmp(node, line)
        };
        let had_supplier = dropped.had_supplier;
        self.txn_event(
            txn_id,
            now,
            TxnEvent::SnoopFinished {
                node,
                supplier: had_supplier,
            },
        );
        let mut sent_data = false;
        if needs_data && had_supplier {
            self.txn_event(txn_id, now, TxnEvent::DataSent { node });
            // Deliberately NOT faultable: the invalidation just destroyed
            // the (possibly dirty) supplier copy, so this donation is the
            // only holder of the data — losing it is unrecoverable without
            // a value-level ack protocol. Same for writebacks.
            let data_at = self.torus.send(node, requester, now);
            self.sched
                .schedule_at(data_at, Event::DataArrive { txn: txn_id });
            if let Some(txn) = self.txns.get_mut(txn_id) {
                txn.data_sent = true;
                txn.data_pending += 1;
            }
            sent_data = true;
        }
        let Some(NodeState::Snooping {
            acc,
            combine_out,
            buffered,
        }) = state
        else {
            // Entry already removed: this node finished via the trailing
            // reply path; the invalidation above still had to run.
            debug_assert_eq!(state, None);
            return;
        };
        let any_copy = dropped.copies > 0;
        let mut info = match (acc, buffered) {
            (Some(i), _) => i,
            (None, Some(i)) => i,
            (None, None) => {
                // Split write: the trailing reply has not arrived yet.
                self.set_node_state(
                    txn_id,
                    node,
                    NodeState::AwaitReply {
                        combine_out,
                        any_copy: sent_data, // reused as "found" marker below
                    },
                );
                return;
            }
        };
        info.merge_snoop(sent_data, any_copy);
        self.finish_node(txn_id, node, info, combine_out, now);
    }

    fn on_write_trailing_reply(&mut self, msg: RingMsg, node: CmpId, info: ReplyInfo, now: Cycle) {
        if self.txns.get(msg.txn).is_none() {
            return;
        }
        let state = self.gateway.get(&(msg.txn, node.0 as u32)).copied();
        match state {
            Some(NodeState::Snooping {
                acc, combine_out, ..
            }) => {
                // The invalidation ack cannot be skipped: buffer until the
                // local snoop completes.
                self.set_node_state(
                    msg.txn,
                    node,
                    NodeState::Snooping {
                        acc,
                        combine_out,
                        buffered: Some(info),
                    },
                );
            }
            Some(NodeState::AwaitReply {
                combine_out,
                any_copy: sent_data,
            }) => {
                let mut info = info;
                info.found |= sent_data;
                self.finish_node(msg.txn, node, info, combine_out, now);
            }
            Some(NodeState::PassThrough) => {
                // This node filtered the write (presence says no copy);
                // pass the trailing reply through untouched.
                self.send_ring(msg, node, now + self.cfg.timing.gateway_latency);
            }
            None => {
                // Already finished here (stale information), or orphaned
                // by a dropped leading request (see the read-side twin
                // above): discard; a timeout re-issues the write if the
                // circulation really was lost.
            }
        }
    }

    /// Writes one node's gateway state for `txn` into the sparse map; a
    /// fresh insert is recorded on the transaction's `engaged` list so
    /// retirement and retries clean up in O(entries touched). A node that
    /// finishes removes its entry instead (absence ≡
    /// finished-or-untouched). No-op for retired transactions, so stale
    /// events cannot leak entries.
    fn set_node_state(&mut self, txn: TxnId, node: CmpId, state: NodeState) {
        let Some(t) = self.txns.get_mut(txn) else {
            return;
        };
        if self.gateway.insert((txn, node.0 as u32), state).is_none() {
            t.engaged.push(node.0 as u32);
        }
    }

    // ----- dynamic governor ----------------------------------------------------

    /// Whether the dynamic Superset governor considers the energy budget
    /// exceeded at `now`.
    fn energy_over_budget(&self, now: Cycle) -> bool {
        if let Algorithm::SupersetDyn(DynPolicy::EnergyBudget(nj_per_kcycle)) = self.alg {
            if now == Cycle::ZERO {
                return false;
            }
            let budget = nj_per_kcycle * now.as_u64() as f64 / 1000.0;
            self.stats.energy.total_nj() > budget
        } else {
            false
        }
    }
}
