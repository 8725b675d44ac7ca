//! The requester side of a ring transaction (§2.2): issue and collision
//! serialisation, the circulation launcher, the reply's return, the data
//! and memory fills, core resumption and retirement.

use flexsnoop_engine::{Cycle, Cycles};
use flexsnoop_mem::{invariants, CmpId, CoherState};
use flexsnoop_metrics::EnergyCategory;
use flexsnoop_workload::MemAccess;

use super::{Event, Simulator, Txn, WriteData};
use crate::message::{MsgKind, ReplyInfo, RingMsg, SnoopScope, TxnId, TxnOp};
use crate::timeline::TxnEvent;

impl Simulator {
    pub(super) fn on_core_issue(
        &mut self,
        core: usize,
        access: MemAccess,
        replay: bool,
        now: Cycle,
    ) {
        let node = self.cmp_of(core);
        if self.detached[node.0] {
            let issue = Event::CoreIssue {
                core,
                access,
                replay,
            };
            self.defer_to_readd(node, issue, now);
            return;
        }
        if access.write {
            self.handle_write(core, access, replay, now);
        } else {
            self.handle_read(core, access, replay, now);
        }
    }

    /// Returns a load-queue slot after a read completes (or a replayed
    /// read turns out to hit locally), unstalling the core if it was
    /// waiting for one.
    fn release_read_slot(&mut self, core: usize, at: Cycle) {
        let c = &mut self.cores[core];
        c.outstanding_reads = c.outstanding_reads.saturating_sub(1);
        if c.stalled {
            c.stalled = false;
            self.advance_core(core, at);
        }
    }

    fn handle_read(&mut self, core: usize, access: MemAccess, replay: bool, now: Cycle) {
        use flexsnoop_mem::cmp::LocalLookup;
        let node = self.cmp_of(core);
        let local = self.local_idx(core);
        let line = access.line;
        // A replayed read already holds a load-queue slot; if it now hits
        // locally it completes here, so the slot is released (which also
        // resumes the core). Fresh hits just advance the core.
        let finish = |sim: &mut Self, at: Cycle| {
            if replay {
                sim.release_read_slot(core, at);
            } else {
                sim.advance_core(core, at);
            }
        };
        match self.cmps[node.0].local_lookup(local, line) {
            LocalLookup::OwnL1(_) => {
                self.stats.l1_hits += 1;
                finish(self, now + self.cfg.timing.l1_rt);
            }
            LocalLookup::OwnL2(_) => {
                self.stats.l2_hits += 1;
                finish(self, now + self.cfg.timing.l2_rt);
            }
            LocalLookup::Peer { peer, state } => {
                self.stats.local_peer_hits += 1;
                // Peer supplies within the CMP over the shared intra-CMP
                // bus, which ring snoops also arbitrate for.
                let grant = self.snoop_ports[node.0].acquire(now, self.cfg.timing.snoop_occupancy);
                self.transition(node, peer, line, state.after_local_supply());
                self.fill_line(node, local, line, CoherState::S);
                finish(self, grant.start + self.cfg.timing.cmp_bus_rt);
            }
            LocalLookup::Miss => {
                self.start_txn(core, access, TxnOp::Read, WriteData::Remote, replay, now)
            }
        }
    }

    fn handle_write(&mut self, core: usize, access: MemAccess, replay: bool, now: Cycle) {
        use flexsnoop_mem::cmp::LocalLookup;
        let node = self.cmp_of(core);
        let local = self.local_idx(core);
        let line = access.line;
        match self.cmps[node.0].local_lookup(local, line) {
            LocalLookup::OwnL1(st) | LocalLookup::OwnL2(st) if st.writable_silently() => {
                self.stats.silent_write_hits += 1;
                if st != CoherState::D {
                    self.transition(node, local, line, CoherState::D);
                }
                if !replay {
                    let rt = if matches!(
                        self.cmps[node.0].local_lookup(local, line),
                        LocalLookup::OwnL1(_)
                    ) {
                        self.cfg.timing.l1_rt
                    } else {
                        self.cfg.timing.l2_rt
                    };
                    self.advance_core(core, now + rt);
                }
            }
            LocalLookup::OwnL1(_) | LocalLookup::OwnL2(_) | LocalLookup::Peer { .. } => {
                // Upgrade (own shared copy) or local data available (peer):
                // the ring transaction only needs to invalidate remote copies.
                self.start_txn(core, access, TxnOp::Write, WriteData::Local, replay, now);
            }
            LocalLookup::Miss => {
                self.start_txn(core, access, TxnOp::Write, WriteData::Remote, replay, now)
            }
        }
    }

    /// Starts a ring transaction, or queues the access if the line already
    /// has one in flight (collision serialization).
    fn start_txn(
        &mut self,
        core: usize,
        access: MemAccess,
        op: TxnOp,
        write_data: WriteData,
        replay: bool,
        now: Cycle,
    ) {
        let line = access.line;
        let blocking = op == TxnOp::Read;
        if !blocking && !replay {
            // Stores retire into a store buffer; the core moves on while the
            // invalidation circulates (per-line ordering is still enforced
            // by the line-busy serialization below).
            self.advance_core(core, now + self.cfg.timing.l2_rt);
        }
        if blocking && !replay {
            // Reads occupy a load-queue slot; the core keeps issuing until
            // the outstanding-read limit is reached (MLP model).
            let limit = self.cfg.policy.max_outstanding_reads;
            let c = &mut self.cores[core];
            c.outstanding_reads += 1;
            if c.outstanding_reads < limit {
                self.advance_core(core, now + self.cfg.timing.l2_rt);
            } else {
                self.cores[core].stalled = true;
            }
        }
        let (readers, writers) = self.line_busy.get(&line).copied().unwrap_or((0, 0));
        let conflict = match op {
            TxnOp::Read => writers > 0,
            TxnOp::Write => readers > 0 || writers > 0,
        };
        if conflict {
            self.stats.collisions += 1;
            self.line_waiters
                .entry(line)
                .or_default()
                .push_back((core, access));
            return;
        }
        let requester = self.cmp_of(core);
        match op {
            TxnOp::Read => self.stats.read_txns += 1,
            TxnOp::Write => self.stats.write_txns += 1,
        }
        let slot = self.line_busy.entry(line).or_insert((0, 0));
        match op {
            TxnOp::Read => slot.0 += 1,
            TxnOp::Write => slot.1 += 1,
        }
        let scope = self.initial_scope(op, requester, line);
        let leave = now + self.cfg.timing.gateway_latency;
        let id = self.txns.insert(Txn {
            line,
            op,
            requester,
            core,
            issue: now,
            engaged: Vec::new(),
            data_arrived: None,
            reply_info: None,
            prefetch_ready: None,
            write_data,
            data_sent: false,
            resumed: false,
            data_pending: 0,
            fill_state: CoherState::Sg,
            attempt: 0,
            attempt_start: leave,
            emit_seq: 0,
            seen_seqs: Vec::new(),
            scope,
            retried: false,
        });
        self.txn_event(id, now, TxnEvent::Issued { node: requester });
        self.launch_circulation(id, leave);
    }

    /// Sends a fresh request-carrier (a combined R/R holding
    /// [`ReplyInfo::start`]) for the transaction's current attempt and
    /// scope, leaving its requester at `leave`, and arms that attempt's
    /// recovery timer when timeouts guard the ring. The first issue,
    /// timeout retries and escalations all launch through here.
    fn launch_circulation(&mut self, txn_id: TxnId, leave: Cycle) {
        let txn = self.txns.get(txn_id).expect("launching a live txn");
        let (requester, attempt) = (txn.requester, txn.attempt);
        let msg = RingMsg {
            txn: txn_id,
            line: txn.line,
            op: txn.op,
            requester,
            kind: MsgKind::Combined(ReplyInfo::start()),
            attempt,
            seq: 0,
            scope: txn.scope,
            via_global: false,
        };
        self.send_ring(msg, requester, leave);
        if self.unreliable && self.recovery {
            self.sched.schedule_at(
                leave + self.timeout_window(requester, attempt),
                Event::Timeout {
                    txn: txn_id,
                    attempt,
                },
            );
        }
    }

    /// Abandons the transaction's current circulation and launches the
    /// next attempt, a global one, at `leave`. The new circulation
    /// restarts Table 2's per-node bookkeeping; deliveries and snoop
    /// completions of the old one are discarded by their stale attempt
    /// tag.
    pub(super) fn relaunch(&mut self, txn_id: TxnId, leave: Cycle) {
        let txn = self.txns.get_mut(txn_id).expect("relaunching a live txn");
        txn.attempt += 1;
        txn.attempt_start = leave;
        txn.emit_seq = 0;
        txn.seen_seqs.clear();
        txn.scope = SnoopScope::Global;
        for node in txn.engaged.drain(..) {
            self.gateway.remove(&(txn_id, node));
        }
        self.launch_circulation(txn_id, leave);
    }

    /// Bookkeeping for a `MemData` / `DataArrive` event just scheduled for
    /// `txn_id`; see [`Txn::data_pending`].
    pub(super) fn note_data_scheduled(&mut self, txn_id: TxnId) {
        if let Some(txn) = self.txns.get_mut(txn_id) {
            txn.data_pending += 1;
        }
    }

    // ----- messages returning to the requester --------------------------------

    pub(super) fn on_ring_return(&mut self, msg: RingMsg, now: Cycle) {
        let info = match msg.kind {
            MsgKind::Request => return, // wait for the trailing reply
            MsgKind::Reply(i) | MsgKind::Combined(i) => i,
        };
        let Some(txn) = self.txns.get_mut(msg.txn) else {
            return;
        };
        txn.reply_info = Some(info);
        if self.unreliable {
            // One completed circulation = one round-trip observation for
            // this requester's timeout estimator (fed in both policies so
            // static-vs-adaptive runs report comparable sample counts).
            let rtt = now - txn.attempt_start;
            let requester = txn.requester;
            self.rtt[requester.0].sample(rtt);
            self.stats.robustness.rtt_samples += 1;
            if let Some(p) = self.probe.as_deref_mut() {
                let estimate = self.rtt[requester.0].timeout(self.timeout_floor);
                p.rtt_sampled(rtt, estimate);
            }
        }
        match msg.op {
            TxnOp::Read => self.on_read_reply_returned(msg.txn, info, now),
            TxnOp::Write => self.on_write_reply_returned(msg.txn, info, now),
        }
    }

    fn on_read_reply_returned(&mut self, txn_id: TxnId, info: ReplyInfo, now: Cycle) {
        if info.found {
            // Data is on its way (or already arrived and resumed the core).
            self.try_retire(txn_id, now);
            return;
        }
        if self
            .txns
            .get(txn_id)
            .is_some_and(|t| t.scope == SnoopScope::Local)
        {
            // A local circulation came back empty-handed: the supplier —
            // if one exists — is in another ring. Escalate before
            // touching memory so a memory fill only ever follows a full
            // circulation (preserving `proves_exclusive` for E fills).
            self.escalate(txn_id, now);
            return;
        }
        // Negative response: fetch from memory (paper §2.2).
        self.stats.reads_from_memory += 1;
        let txn = self.txns.get_mut(txn_id).expect("txn exists");
        txn.fill_state = if self.cfg.policy.exclusive_fill && info.proves_exclusive() {
            CoherState::E
        } else {
            CoherState::Sg
        };
        let (requester, line) = (txn.requester, txn.line);
        // No cache supplier anywhere: train the requester group remote so
        // the line keeps circulating globally until a local supply proves
        // otherwise.
        self.train_locality(requester, line, None);
        self.fetch_from_memory(txn_id, now);
    }

    /// Fetches the line from its home node's memory for a transaction
    /// whose circulation found no supplier (a read fill or a
    /// write-allocate) and schedules the `MemData` arrival. A read the
    /// home gateway already prefetched skips the request leg and the DRAM
    /// access.
    fn fetch_from_memory(&mut self, txn_id: TxnId, now: Cycle) {
        let txn = self.txns.get(txn_id).expect("txn exists");
        let (requester, line, prefetch) = (txn.requester, txn.line, txn.prefetch_ready);
        let home = CmpId(line.home_node(self.cfg.nodes));
        // Figure 9 scope: ordinary memory reads are program traffic, not
        // snoop energy; only re-reads caused by Exact's downgrades count.
        if self.downgraded.remove(&line) {
            self.stats.downgrade_rereads += 1;
            self.stats.energy.add(EnergyCategory::MemRead, 1);
        }
        // Every leg of the memory path is an idempotent torus message:
        // a retried circulation simply re-walks it, so all are faultable.
        let data_at = match prefetch {
            Some(ready) => {
                // The home node anticipated this read; data leaves as soon
                // as both the DRAM access and the decision are available.
                let leave = now.max(ready);
                self.torus.send_outcome(home, requester, leave)
            }
            None => match self.torus.send_outcome(requester, home, now) {
                Some(at_home) => {
                    self.txn_event(
                        txn_id,
                        at_home,
                        TxnEvent::MemoryStarted {
                            home,
                            prefetch: false,
                        },
                    );
                    let grant = self.mem_ports[home.0].acquire(at_home, self.cfg.memory.occupancy);
                    let done = grant.start
                        + self.cfg.memory.dram_latency
                        + self.cfg.memory.controller_overhead;
                    self.torus.send_outcome(home, requester, done)
                }
                None => None,
            },
        };
        if let Some(at) = data_at {
            self.sched.schedule_at(at, Event::MemData { txn: txn_id });
            self.note_data_scheduled(txn_id);
        }
    }

    fn on_write_reply_returned(&mut self, txn_id: TxnId, info: ReplyInfo, now: Cycle) {
        let txn = self.txns.get(txn_id).expect("txn exists");
        match txn.write_data {
            // Upgrade or local copy: all remote copies are now invalid.
            WriteData::Local => self.complete_write(txn_id, now),
            // A remote cache donated the data; DataArrive completes the
            // write if the data is still on its way.
            WriteData::Remote if info.found => {
                if txn.data_arrived.is_some() {
                    self.complete_write(txn_id, now);
                }
            }
            // Write-allocate from memory.
            WriteData::Remote => self.fetch_from_memory(txn_id, now),
        }
    }

    /// Installs the written line dirty in the writer's L2, clearing every
    /// other copy in the writer's CMP (including a stale own copy), then
    /// resumes the core and retires the write.
    fn complete_write(&mut self, txn_id: TxnId, now: Cycle) {
        let txn = self.txns.get(txn_id).expect("completing a live write");
        let (node, line, local) = (txn.requester, txn.line, self.local_idx(txn.core));
        self.invalidate_cmp(node, line);
        self.fill_line(node, local, line, CoherState::D);
        self.resume_core(txn_id, now);
        self.try_retire(txn_id, now);
    }

    pub(super) fn on_data_arrive(&mut self, txn_id: TxnId, now: Cycle) {
        let Some(txn) = self.txns.get_mut(txn_id) else {
            return;
        };
        txn.data_pending = txn.data_pending.saturating_sub(1);
        txn.data_arrived = Some(now);
        let (node, core, line) = (txn.requester, txn.core, txn.line);
        let (op, reply_returned) = (txn.op, txn.reply_info.is_some());
        self.txn_event(txn_id, now, TxnEvent::DataArrived);
        match op {
            TxnOp::Read => {
                // The paper: the processor may use cache-supplied data as
                // soon as it arrives (§2.2). The requester becomes the
                // CMP's Local Master — unless a concurrent read by a peer
                // in the same CMP already brought the line in (read–read
                // concurrency), in which case this copy is plain S (only
                // one SL per CMP; Figure 2b).
                let state = if self.cmps[node.0].has_copy(line) {
                    CoherState::S
                } else {
                    CoherState::Sl
                };
                self.fill_line(node, self.local_idx(core), line, state);
                self.resume_core(txn_id, now);
                self.try_retire(txn_id, now);
            }
            // Otherwise the write completes when its reply returns.
            TxnOp::Write if reply_returned => self.complete_write(txn_id, now),
            TxnOp::Write => {}
        }
    }

    pub(super) fn on_mem_data(&mut self, txn_id: TxnId, now: Cycle) {
        let Some(txn) = self.txns.get_mut(txn_id) else {
            return;
        };
        txn.data_pending = txn.data_pending.saturating_sub(1);
        if txn.op == TxnOp::Write {
            self.complete_write(txn_id, now);
            return;
        }
        let (node, core, line, proven) = (txn.requester, txn.core, txn.line, txn.fill_state);
        match self.memory_fill_state(node, line, proven) {
            Some(fill) => self.fill_line(node, self.local_idx(core), line, fill),
            None => {
                // A dirty or exclusive copy appeared while this read was
                // in flight (a concurrent transaction won the race): the
                // memory data is unusable. This is the collision-squash
                // case — retire the transaction and retry the read, which
                // will now find the supplier.
                self.stats.collisions += 1;
                if let Some(t) = self.txns.get_mut(txn_id) {
                    t.resumed = true; // the retry resumes the core
                }
                self.try_retire(txn_id, now);
                // `replay: true`: the original issue already took the
                // load-queue slot; the retry must not recount.
                self.sched.schedule_at(
                    now + Cycles(1),
                    Event::CoreIssue {
                        core,
                        access: MemAccess::read(line, Cycles::ZERO),
                        replay: true,
                    },
                );
                return;
            }
        }
        self.resume_core(txn_id, now);
        self.try_retire(txn_id, now);
    }

    /// Resumes the requesting core (once) and records the latency.
    fn resume_core(&mut self, txn_id: TxnId, now: Cycle) {
        let Some(txn) = self.txns.get_mut(txn_id) else {
            return;
        };
        if txn.resumed {
            return;
        }
        txn.resumed = true;
        let core = txn.core;
        let issued_at = txn.issue;
        // Reads block their core; writes drain from the store buffer.
        let read = txn.op == TxnOp::Read;
        if read {
            self.stats.read_latency.record((now - issued_at).as_u64());
        }
        self.txn_event(txn_id, now, TxnEvent::Completed);
        if read {
            self.release_read_slot(core, now);
        }
    }

    /// Retires the transaction once the ring reply has returned and the
    /// core has been resumed; releases the line and wakes collided waiters.
    fn try_retire(&mut self, txn_id: TxnId, now: Cycle) {
        let Some(txn) = self.txns.get(txn_id) else {
            return;
        };
        if txn.reply_info.is_none() || !txn.resumed {
            return;
        }
        let line = txn.line;
        let op = txn.op;
        let attempt = txn.attempt;
        // Two-level accounting: a read that retires still at Local scope
        // completed inside its group; anything else circled the global
        // ring at least once. Writes always circulate globally and are
        // not counted here.
        if !self.locality.is_empty() && op == TxnOp::Read {
            match txn.scope {
                SnoopScope::Local => self.stats.local_circulations += 1,
                SnoopScope::Global => self.stats.global_circulations += 1,
            }
        }
        self.txn_event(txn_id, now, TxnEvent::Retired);
        // Retired retries neither count nor reset probation: their
        // timeouts already reset it.
        if self.unreliable && attempt == 0 {
            self.count_clean_circulation(line, now);
        }
        // Oracle hook: at retirement the line's copies must satisfy the
        // Figure 2(b) invariants again (mid-flight windows are over).
        if self.checks {
            if let Err(what) = invariants::check_line(&self.cmps, line) {
                self.record_violation(txn_id, now, line, what);
            }
        }
        if let Some(done) = self.txns.remove(txn_id) {
            for node in done.engaged {
                self.gateway.remove(&(txn_id, node));
            }
        }
        if let Some(slot) = self.line_busy.get_mut(&line) {
            match op {
                TxnOp::Read => slot.0 = slot.0.saturating_sub(1),
                TxnOp::Write => slot.1 = slot.1.saturating_sub(1),
            }
            if *slot == (0, 0) {
                self.line_busy.remove(&line);
            }
        }
        // Wake every waiter; each replays its access and re-checks the
        // conflict rule (some may immediately re-queue).
        if let Some(waiters) = self.line_waiters.remove(&line) {
            for (core, access) in waiters {
                self.sched.schedule_at(
                    now + Cycles(1),
                    Event::CoreIssue {
                        core,
                        access,
                        replay: true,
                    },
                );
            }
        }
    }
}
