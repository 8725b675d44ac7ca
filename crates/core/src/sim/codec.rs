//! The snapshot codec: the configuration fingerprint, the sealed,
//! versioned save/restore of the dynamic simulator state, and the rebuild
//! of the state it determines.

use std::collections::VecDeque;

use flexsnoop_engine::snap::{self, Fingerprint, SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles, Scheduler};
use flexsnoop_mem::{CmpId, CoherState, LineAddr};
use flexsnoop_workload::MemAccess;

use super::{Event, NodeState, Simulator, Txn, WriteData};
use crate::config::TimeoutPolicy;
use crate::message::{MsgKind, ReplyInfo, RingMsg, SnoopScope, TxnId, TxnOp};
use crate::oracle::{ProtocolMutation, Violation};

impl Simulator {
    /// Hashes every configuration input that shapes the dynamic state a
    /// snapshot carries: the machine parameters, the algorithm, and the
    /// per-core access limits. Deliberately *excluded* are the event-queue
    /// backend (both backends pop in the same `(time, insertion seq)`
    /// order, and a snapshot stores its events in that order, so it
    /// resumes on either) and the fault plan (configuration re-armed
    /// before restore; a resumed run may even widen the fault budget).
    ///
    /// Public because the sweep service (`flexsnoop-serve`) keys its
    /// results cache on this value: two simulators with equal
    /// fingerprints run the same machine under the same algorithm, and
    /// the excluded backend is exactly the input the Heap-vs-Bucketed
    /// determinism tests prove result-neutral. Inputs the snapshot
    /// codec treats as constructor data — the workload identity, the
    /// predictor spec, the seed — are *not* covered and must be mixed in
    /// by the caller when the key has to distinguish them.
    pub fn config_fingerprint(&self) -> u64 {
        let c = &self.cfg;
        let mut f = Fingerprint::new();
        for v in [
            c.nodes,
            c.cores_per_cmp,
            c.caches.l1_bytes,
            c.caches.l1_ways,
            c.caches.l2_bytes,
            c.caches.l2_ways,
            c.caches.line_bytes,
        ] {
            f.push_u64(v as u64);
        }
        for v in [
            c.timing.l1_rt,
            c.timing.l2_rt,
            c.timing.cmp_bus_rt,
            c.timing.snoop_time,
            c.timing.snoop_occupancy,
            c.timing.gateway_latency,
            c.timing.predictor_latency,
            c.memory.dram_latency,
            c.memory.controller_overhead,
            c.memory.occupancy,
            c.ring.hop_latency,
            c.ring.link_service,
            c.data_net.hop_latency,
            c.data_net.router_latency,
            c.data_net.link_service,
            c.recovery.queueing_slack,
            c.recovery.backoff_base,
            c.recovery.backoff_cap,
        ] {
            f.push_u64(v.as_u64());
        }
        f.push_u8(c.memory.home_prefetch as u8);
        f.push_u64(c.ring.rings as u64);
        f.push_u8(c.policy.exclusive_fill as u8);
        f.push_u64(c.policy.max_outstanding_reads as u64);
        f.push_u8(c.policy.write_filtering as u8);
        f.push_u8(match c.recovery.timeout_policy {
            TimeoutPolicy::Static => 0,
            TimeoutPolicy::Adaptive => 1,
        });
        f.push_u64(c.recovery.retry_cap as u64);
        f.push_u64(c.recovery.probation_window as u64);
        // Hierarchy folds in only when configured, so every flat-ring
        // fingerprint is byte-identical to what it was before the
        // hierarchical extension existed (cache keys, committed
        // artifacts, and flat snapshots all stay valid).
        if let Some(h) = c.ring.hier {
            f.push_u64(h.local as u64);
            f.push_u64(h.groups as u64);
            f.push_u64(h.bridge_latency.as_u64());
            f.push_u64(h.bridge_service.as_u64());
        }
        f.push_str(&self.alg.to_string());
        f.push_u64(self.cores.len() as u64);
        for core in &self.cores {
            f.push_u64(core.limit);
        }
        f.finish()
    }

    /// Serializes the complete dynamic state of a mid-run simulation into
    /// a sealed, versioned byte stream: every pending event with its
    /// global dispatch order, the caches, predictors, presence filters,
    /// network link and port schedules, core cursors (including each
    /// access stream's RNG), in-flight transactions with their arena
    /// generations, the sparse gateway map, the collision waiters,
    /// recovery state (RTT estimators, degraded-line probation), and the
    /// statistics so far. State that is a function of those is not
    /// stored; [`restore_snapshot`](Self::restore_snapshot) rebuilds it.
    /// The probe is *not* captured: a restored run reports to whatever
    /// sink its caller installed, and that sink sees only the rest of the
    /// run. That is what lets the differential harness rewind with a
    /// [`Timeline`](crate::Timeline) installed; it is also why a probe's
    /// counts after a restore cover only the resumed part.
    ///
    /// Call between [`run_until`](Self::run_until) slices. Restoring
    /// ([`Self::restore_snapshot`]) onto a freshly built simulator of the
    /// same configuration and then running to completion produces
    /// bit-identical [`RunStats`](crate::RunStats) to the uninterrupted
    /// run, regardless of either side's event-queue backend.
    ///
    /// Takes `&mut self` because the event queue must be drained to
    /// observe its global pop order; the queue is rebuilt in place and
    /// the simulation can keep running as if nothing happened.
    ///
    /// # Panics
    ///
    /// Panics if the run was already finalized.
    pub fn save_snapshot(&mut self) -> Vec<u8> {
        assert!(!self.finished, "cannot snapshot a finalized run");
        let mut w = SnapWriter::new();
        w.put_u64(self.config_fingerprint());
        w.put_bool(self.started);
        save_all(&self.cmps, &mut w);
        self.predictors.save_into(&mut w);
        save_all(&self.presence, &mut w);
        self.ring.save_into(&mut w);
        self.torus.save_into(&mut w);
        save_all(&self.snoop_ports, &mut w);
        save_all(&self.mem_ports, &mut w);
        w.put_usize(self.cores.len());
        for c in &self.cores {
            c.stream.save_into(&mut w);
            w.put_u64(c.issued);
            w.put_bool(c.done);
            w.put_usize(c.outstanding_reads);
            w.put_bool(c.stalled);
        }
        self.txns.save_into_with(&mut w, save_txn);
        // Hash maps iterate in arbitrary order; serialize sorted by key so
        // identical states produce identical bytes.
        let mut gateway: Vec<_> = self.gateway.iter().collect();
        gateway.sort_by_key(|&(&k, _)| k);
        w.put_usize(gateway.len());
        for (&(txn, node), st) in gateway {
            txn.save_into(&mut w);
            w.put_u32(node);
            save_node_state(st, &mut w);
        }
        let mut waiters: Vec<_> = self.line_waiters.iter().collect();
        waiters.sort_by_key(|&(l, _)| l.0);
        w.put_usize(waiters.len());
        for (line, queue) in waiters {
            w.put_u64(line.0);
            w.put_usize(queue.len());
            for (core, access) in queue {
                w.put_usize(*core);
                access.save_into(&mut w);
            }
        }
        let mut downgraded: Vec<_> = self.downgraded.iter().collect();
        downgraded.sort_by_key(|l| l.0);
        w.put_usize(downgraded.len());
        for line in downgraded {
            w.put_u64(line.0);
        }
        let mut degraded: Vec<_> = self.degraded_lines.iter().collect();
        degraded.sort_by_key(|&(l, _)| l.0);
        w.put_usize(degraded.len());
        for (line, &clean) in degraded {
            w.put_u64(line.0);
            w.put_u32(clean);
        }
        w.put_bool(self.unreliable);
        w.put_bool(self.torus_faulty);
        w.put_bool(self.recovery);
        w.put_bool(!self.churn.is_empty());
        w.put_usize(self.detached.len());
        for &d in &self.detached {
            w.put_bool(d);
        }
        save_all(&self.rtt, &mut w);
        save_all(&self.locality, &mut w);
        self.stats.save_into(&mut w);
        w.put_bool(self.checks);
        w.put_usize(self.violations.len());
        for v in &self.violations {
            v.save_into(&mut w);
        }
        w.put_bool(self.mutation.is_some());
        if let Some(m) = &self.mutation {
            m.save_into(&mut w);
        }
        // The event queue comes last. Observing the global pop order
        // requires draining; record the clock first — popping advances it.
        let now0 = self.sched.now();
        w.put_cycle(now0);
        let mut events = Vec::with_capacity(self.sched.len());
        while let Some((t, ev)) = self.sched.pop() {
            events.push((t, ev));
        }
        w.put_usize(events.len());
        for (t, ev) in &events {
            w.put_cycle(*t);
            save_event(ev, &mut w);
        }
        // Rebuild the queue and put everything back, restoring the pops.
        self.sched = Scheduler::with_queue(self.sched.queue_kind());
        for (t, ev) in events {
            self.sched.schedule_at(t, ev);
        }
        self.sched.restore_clock(now0);
        snap::seal(w.into_bytes())
    }

    /// Restores a [`save_snapshot`](Self::save_snapshot) stream onto this
    /// simulator, which must be freshly built with the same machine
    /// configuration, algorithm, predictor layout and per-core streams —
    /// and, if the snapshot was taken with a fault plan armed, the same
    /// plan (or one widened via `FaultPlan::with_budget`) armed via
    /// [`set_fault_plan`](Self::set_fault_plan) *before* restoring.
    /// The queue backend is a free choice: events are re-pushed in their
    /// saved pop order, which either backend pops back identically.
    /// Derived state is rebuilt at the end, not decoded (DESIGN.md §10).
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the stream is malformed, was produced by
    /// a different schema version, or does not match this simulator's
    /// configuration fingerprint or fault-plan arming.
    ///
    /// # Panics
    ///
    /// Panics if this simulator has already started running.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        assert!(
            !self.started && !self.finished && self.sched.is_empty(),
            "restore_snapshot() needs a freshly built simulator"
        );
        let payload = snap::unseal(bytes)?;
        let mut r = SnapReader::new(payload);
        let expected = self.config_fingerprint();
        let found = r.get_u64()?;
        if found != expected {
            return Err(SnapError::FingerprintMismatch { found, expected });
        }
        let started = r.get_bool()?;
        restore_all(&mut self.cmps, &mut r, "CMP count does not match config")?;
        self.predictors.restore_from(&mut r)?;
        let what = "presence-filter count does not match config";
        restore_all(&mut self.presence, &mut r, what)?;
        self.ring.restore_from(&mut r)?;
        self.torus.restore_from(&mut r)?;
        let what = "snoop-port count does not match config";
        restore_all(&mut self.snoop_ports, &mut r, what)?;
        let what = "memory-port count does not match config";
        restore_all(&mut self.mem_ports, &mut r, what)?;
        if r.get_usize()? != self.cores.len() {
            return Err(SnapError::Corrupt("core count does not match config"));
        }
        for c in &mut self.cores {
            c.stream.restore_from(&mut r)?;
            c.issued = r.get_u64()?;
            c.done = r.get_bool()?;
            c.outstanding_reads = r.get_usize()?;
            c.stalled = r.get_bool()?;
        }
        self.txns.restore_from_with(&mut r, load_txn)?;
        self.gateway.clear();
        for _ in 0..r.get_usize()? {
            let txn = TxnId(r.get_u64()?);
            let node = r.get_u32()?;
            let st = load_node_state(&mut r)?;
            self.gateway.insert((txn, node), st);
        }
        self.line_waiters.clear();
        for _ in 0..r.get_usize()? {
            let line = LineAddr(r.get_u64()?);
            // Each waiter is a core index (8 bytes) plus an access (17).
            let n = r.get_len(25)?;
            let mut queue = VecDeque::with_capacity(n);
            for _ in 0..n {
                let core = r.get_usize()?;
                queue.push_back((core, load_access(&mut r)?));
            }
            self.line_waiters.insert(line, queue);
        }
        self.downgraded.clear();
        for _ in 0..r.get_usize()? {
            self.downgraded.insert(LineAddr(r.get_u64()?));
        }
        self.degraded_lines.clear();
        for _ in 0..r.get_usize()? {
            let line = LineAddr(r.get_u64()?);
            let clean = r.get_u32()?;
            self.degraded_lines.insert(line, clean);
        }
        // The fault plan is armed on the restore target before restoring
        // (it is not part of the snapshot); verify the arming agrees with
        // what the snapshot was taken under.
        let unreliable = r.get_bool()?;
        let torus_faulty = r.get_bool()?;
        let recovery = r.get_bool()?;
        if unreliable != self.unreliable
            || torus_faulty != self.torus_faulty
            || recovery != self.recovery
        {
            return Err(SnapError::Corrupt(
                "fault-plan arming does not match the snapshot",
            ));
        }
        // Churn windows are likewise re-armed (set_churn_plan) before
        // restoring: pending detach/re-add events in the snapshot's
        // queue and deferred issues both assume the plan is present.
        let churned = r.get_bool()?;
        if churned == self.churn.is_empty() {
            return Err(SnapError::Corrupt(
                "churn-plan arming does not match the snapshot",
            ));
        }
        if r.get_usize()? != self.detached.len() {
            return Err(SnapError::Corrupt(
                "detached-node count does not match config",
            ));
        }
        for d in &mut self.detached {
            *d = r.get_bool()?;
        }
        let what = "round-trip estimator count does not match the armed fault plan";
        restore_all(&mut self.rtt, &mut r, what)?;
        let what = "locality-table count does not match config";
        restore_all(&mut self.locality, &mut r, what)?;
        self.stats.restore_from(&mut r)?;
        self.checks = r.get_bool()? || cfg!(feature = "strict-invariants");
        self.violations.clear();
        for _ in 0..r.get_usize()? {
            let mut v = Violation {
                txn: TxnId(0),
                at: Cycle::ZERO,
                line: LineAddr(0),
                what: String::new(),
            };
            v.restore_from(&mut r)?;
            self.violations.push(v);
        }
        self.mutation = if r.get_bool()? {
            let mut m = ProtocolMutation::SkipSupplierDowngrade;
            m.restore_from(&mut r)?;
            Some(m)
        } else {
            None
        };
        let now0 = r.get_cycle()?;
        for _ in 0..r.get_usize()? {
            let t = r.get_cycle()?;
            let ev = load_event(&mut r)?;
            self.sched.schedule_at(t, ev);
        }
        self.sched.restore_clock(now0);
        self.started = started;
        r.expect_eof()?;
        self.rederive();
        Ok(())
    }

    /// Rebuilds what a snapshot does not store because the restored state
    /// determines it: the machine-wide residency counts from every L2, the
    /// per-line busy counts from the live transactions, and the number of
    /// cores not yet done. (Each CMP's residency index is rebuilt by its
    /// own restore; the timeout bounds were set when the fault plan was
    /// armed before restoring.)
    fn rederive(&mut self) {
        let copies: Vec<(LineAddr, CoherState)> = self
            .cmps
            .iter()
            .flat_map(|cmp| (0..cmp.cores()).flat_map(move |core| cmp.l2_lines(core)))
            .collect();
        self.residency.clear();
        for (line, state) in copies {
            self.residency_change(line, CoherState::I, state);
        }
        self.line_busy.clear();
        for txn in self.txns.values() {
            let slot = self.line_busy.entry(txn.line).or_insert((0, 0));
            match txn.op {
                TxnOp::Read => slot.0 += 1,
                TxnOp::Write => slot.1 += 1,
            }
        }
        self.active_cores = self.cores.iter().filter(|c| !c.done).count();
    }
}

// ----- checkpoint codecs for sim-private types ------------------------------

/// Saves a slice of same-typed state, length first.
fn save_all<T: Snapshot>(items: &[T], w: &mut SnapWriter) {
    w.put_usize(items.len());
    for item in items {
        item.save_into(w);
    }
}

/// Restores what [`save_all`] wrote into `items`, whose length the
/// configuration fixes; a stream of any other length is rejected as
/// `what`.
fn restore_all<T: Snapshot>(
    items: &mut [T],
    r: &mut SnapReader<'_>,
    what: &'static str,
) -> Result<(), SnapError> {
    if r.get_usize()? != items.len() {
        return Err(SnapError::Corrupt(what));
    }
    for item in items {
        item.restore_from(r)?;
    }
    Ok(())
}

fn load_access(r: &mut SnapReader<'_>) -> Result<MemAccess, SnapError> {
    let mut a = MemAccess::read(LineAddr(0), Cycles(0));
    a.restore_from(r)?;
    Ok(a)
}

fn load_msg(r: &mut SnapReader<'_>) -> Result<RingMsg, SnapError> {
    let mut m = RingMsg {
        txn: TxnId(0),
        line: LineAddr(0),
        op: TxnOp::Read,
        requester: CmpId(0),
        kind: MsgKind::Request,
        attempt: 0,
        seq: 0,
        scope: SnoopScope::Global,
        via_global: false,
    };
    m.restore_from(r)?;
    Ok(m)
}

fn save_opt_cycle(c: &Option<Cycle>, w: &mut SnapWriter) {
    w.put_bool(c.is_some());
    if let Some(c) = c {
        w.put_cycle(*c);
    }
}

fn load_opt_cycle(r: &mut SnapReader<'_>) -> Result<Option<Cycle>, SnapError> {
    Ok(if r.get_bool()? {
        Some(r.get_cycle()?)
    } else {
        None
    })
}

fn save_opt_info(i: &Option<ReplyInfo>, w: &mut SnapWriter) {
    w.put_bool(i.is_some());
    if let Some(i) = i {
        i.save_into(w);
    }
}

fn load_opt_info(r: &mut SnapReader<'_>) -> Result<Option<ReplyInfo>, SnapError> {
    Ok(if r.get_bool()? {
        let mut i = ReplyInfo::start();
        i.restore_from(r)?;
        Some(i)
    } else {
        None
    })
}

fn save_node_state(st: &NodeState, w: &mut SnapWriter) {
    match *st {
        NodeState::PassThrough => w.put_u8(0),
        NodeState::Snooping {
            acc,
            combine_out,
            buffered,
        } => {
            w.put_u8(1);
            save_opt_info(&acc, w);
            w.put_bool(combine_out);
            save_opt_info(&buffered, w);
        }
        NodeState::AwaitReply {
            combine_out,
            any_copy,
        } => {
            w.put_u8(2);
            w.put_bool(combine_out);
            w.put_bool(any_copy);
        }
    }
}

fn load_node_state(r: &mut SnapReader<'_>) -> Result<NodeState, SnapError> {
    Ok(match r.get_u8()? {
        0 => NodeState::PassThrough,
        1 => NodeState::Snooping {
            acc: load_opt_info(r)?,
            combine_out: r.get_bool()?,
            buffered: load_opt_info(r)?,
        },
        2 => NodeState::AwaitReply {
            combine_out: r.get_bool()?,
            any_copy: r.get_bool()?,
        },
        _ => return Err(SnapError::Corrupt("gateway-state tag out of range")),
    })
}

fn save_txn(t: &Txn, w: &mut SnapWriter) {
    w.put_u64(t.line.0);
    t.op.save_into(w);
    w.put_usize(t.requester.0);
    w.put_usize(t.core);
    w.put_cycle(t.issue);
    w.put_usize(t.engaged.len());
    for &n in &t.engaged {
        w.put_u32(n);
    }
    save_opt_cycle(&t.data_arrived, w);
    save_opt_info(&t.reply_info, w);
    save_opt_cycle(&t.prefetch_ready, w);
    w.put_u8(match t.write_data {
        WriteData::Local => 0,
        WriteData::Remote => 1,
    });
    w.put_bool(t.data_sent);
    w.put_bool(t.resumed);
    w.put_u32(t.data_pending);
    t.fill_state.save_into(w);
    w.put_u32(t.attempt);
    w.put_cycle(t.attempt_start);
    w.put_u32(t.emit_seq);
    w.put_usize(t.seen_seqs.len());
    for &word in &t.seen_seqs {
        w.put_u64(word);
    }
    t.scope.save_into(w);
    w.put_bool(t.retried);
}

fn load_txn(r: &mut SnapReader<'_>) -> Result<Txn, SnapError> {
    let line = LineAddr(r.get_u64()?);
    let mut op = TxnOp::Read;
    op.restore_from(r)?;
    let requester = CmpId(r.get_usize()?);
    let core = r.get_usize()?;
    let issue = r.get_cycle()?;
    let n = r.get_len(4)?;
    let mut engaged = Vec::with_capacity(n);
    for _ in 0..n {
        engaged.push(r.get_u32()?);
    }
    let data_arrived = load_opt_cycle(r)?;
    let reply_info = load_opt_info(r)?;
    let prefetch_ready = load_opt_cycle(r)?;
    let write_data = match r.get_u8()? {
        0 => WriteData::Local,
        1 => WriteData::Remote,
        _ => return Err(SnapError::Corrupt("write-data tag out of range")),
    };
    let data_sent = r.get_bool()?;
    let resumed = r.get_bool()?;
    let data_pending = r.get_u32()?;
    let mut fill_state = CoherState::ALL[0];
    fill_state.restore_from(r)?;
    let attempt = r.get_u32()?;
    let attempt_start = r.get_cycle()?;
    let emit_seq = r.get_u32()?;
    let n = r.get_len(8)?;
    let mut seen_seqs = Vec::with_capacity(n);
    for _ in 0..n {
        seen_seqs.push(r.get_u64()?);
    }
    let mut scope = SnoopScope::Global;
    scope.restore_from(r)?;
    let retried = r.get_bool()?;
    Ok(Txn {
        line,
        op,
        requester,
        core,
        issue,
        engaged,
        data_arrived,
        reply_info,
        prefetch_ready,
        write_data,
        data_sent,
        resumed,
        data_pending,
        fill_state,
        attempt,
        attempt_start,
        emit_seq,
        seen_seqs,
        scope,
        retried,
    })
}

fn save_event(ev: &Event, w: &mut SnapWriter) {
    match *ev {
        Event::CoreIssue {
            core,
            access,
            replay,
        } => {
            w.put_u8(0);
            w.put_usize(core);
            access.save_into(w);
            w.put_bool(replay);
        }
        Event::RingArrive { msg, node } => {
            w.put_u8(1);
            msg.save_into(w);
            w.put_usize(node.0);
        }
        Event::SnoopDone { txn, node, attempt } => {
            w.put_u8(2);
            txn.save_into(w);
            w.put_usize(node.0);
            w.put_u32(attempt);
        }
        Event::WriteSnoopDone { txn, node, attempt } => {
            w.put_u8(3);
            txn.save_into(w);
            w.put_usize(node.0);
            w.put_u32(attempt);
        }
        Event::DataArrive { txn } => {
            w.put_u8(4);
            txn.save_into(w);
        }
        Event::MemData { txn } => {
            w.put_u8(5);
            txn.save_into(w);
        }
        Event::Timeout { txn, attempt } => {
            w.put_u8(6);
            txn.save_into(w);
            w.put_u32(attempt);
        }
        Event::ChurnDetach { node, warm } => {
            w.put_u8(7);
            w.put_usize(node.0);
            w.put_bool(warm);
        }
        Event::ChurnReadd { node } => {
            w.put_u8(8);
            w.put_usize(node.0);
        }
    }
}

fn load_event(r: &mut SnapReader<'_>) -> Result<Event, SnapError> {
    Ok(match r.get_u8()? {
        0 => Event::CoreIssue {
            core: r.get_usize()?,
            access: load_access(r)?,
            replay: r.get_bool()?,
        },
        1 => Event::RingArrive {
            msg: load_msg(r)?,
            node: CmpId(r.get_usize()?),
        },
        2 => Event::SnoopDone {
            txn: TxnId(r.get_u64()?),
            node: CmpId(r.get_usize()?),
            attempt: r.get_u32()?,
        },
        3 => Event::WriteSnoopDone {
            txn: TxnId(r.get_u64()?),
            node: CmpId(r.get_usize()?),
            attempt: r.get_u32()?,
        },
        4 => Event::DataArrive {
            txn: TxnId(r.get_u64()?),
        },
        5 => Event::MemData {
            txn: TxnId(r.get_u64()?),
        },
        6 => Event::Timeout {
            txn: TxnId(r.get_u64()?),
            attempt: r.get_u32()?,
        },
        7 => Event::ChurnDetach {
            node: CmpId(r.get_usize()?),
            warm: r.get_bool()?,
        },
        8 => Event::ChurnReadd {
            node: CmpId(r.get_usize()?),
        },
        _ => return Err(SnapError::Corrupt("event tag out of range")),
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::algorithm::Algorithm;
    use crate::config::MachineConfig;
    use crate::sim::ChurnWindow;
    use flexsnoop_net::FaultPlan;
    use flexsnoop_predictor::PredictorSpec;
    use flexsnoop_workload::{profiles, WorkloadProfile};

    const SEED: u64 = 42;
    const ACCESSES: u64 = 150;

    fn specjbb() -> WorkloadProfile {
        profiles::specjbb().with_accesses(ACCESSES)
    }

    fn on_specjbb(algorithm: Algorithm) -> Simulator {
        Simulator::for_workload(&specjbb(), algorithm, None, SEED).unwrap()
    }

    /// Runs `build`'s machine in `step`-cycle slices to the first slice
    /// end at which `at` holds, saves there, restores into a freshly built
    /// twin, and checks that every derived field the restore rebuilt
    /// equals the donor's live one.
    fn assert_restore_rebuilds(
        name: &str,
        build: fn() -> Simulator,
        step: u64,
        at: fn(&Simulator) -> bool,
    ) {
        let mut donor = build();
        let mut stop = 0;
        loop {
            stop += step;
            donor.run_until(Some(Cycle::new(stop)));
            assert!(
                donor.pending_events() > 0,
                "{name}: the run ended before its save point"
            );
            if at(&donor) {
                break;
            }
        }
        let bytes = donor.save_snapshot();
        let mut restored = build();
        restored.restore_snapshot(&bytes).unwrap();

        assert_eq!(restored.residency, donor.residency, "{name}: residency");
        assert_eq!(restored.line_busy, donor.line_busy, "{name}: line_busy");
        assert_eq!(restored.active_cores, donor.active_cores, "{name}");
        assert_eq!(restored.timeout_base, donor.timeout_base, "{name}");
        assert_eq!(restored.timeout_floor, donor.timeout_floor, "{name}");
        let lines: BTreeSet<LineAddr> = donor
            .cmps
            .iter()
            .flat_map(|cmp| (0..cmp.cores()).flat_map(move |core| cmp.l2_lines(core)))
            .map(|(line, _)| line)
            .collect();
        assert!(!lines.is_empty(), "{name}: no resident line to compare");
        for (node, (live, rebuilt)) in donor.cmps.iter().zip(&restored.cmps).enumerate() {
            // `local_lookup` refreshes LRU and L1 tags, so it runs on
            // clones, and both clones see the same sequence of calls.
            let (mut live_probe, mut rebuilt_probe) = (live.clone(), rebuilt.clone());
            for &line in &lines {
                assert_eq!(
                    rebuilt.snoop(line),
                    live.snoop(line),
                    "{name}: {node}/{line}"
                );
                assert_eq!(
                    rebuilt.has_copy(line),
                    live.has_copy(line),
                    "{name}: {node}/{line}"
                );
                for core in 0..live.cores() {
                    assert_eq!(
                        rebuilt_probe.local_lookup(core, line),
                        live_probe.local_lookup(core, line),
                        "{name}: {node}/{core}/{line}"
                    );
                }
            }
        }
    }

    #[test]
    fn restore_rebuilds_exactly_what_the_donor_held() {
        // 32 cores on 8 CMPs: a line held by two cores of one CMP, so the
        // rebuilt per-CMP index has multi-core entries and peer slots.
        assert_restore_rebuilds(
            "barnes superset-agg",
            || {
                let barnes = profiles::splash2_apps().remove(0).with_accesses(ACCESSES);
                Simulator::for_workload(&barnes, Algorithm::SupersetAgg, None, SEED).unwrap()
            },
            2_000,
            |sim| {
                !sim.txns.is_empty()
                    && sim.cmps.iter().any(|cmp| {
                        (0..cmp.cores()).any(|core| {
                            cmp.l2_lines(core).any(|(line, _)| {
                                (0..cmp.cores())
                                    .filter(|&c| cmp.state_of(c, line).is_valid())
                                    .count()
                                    > 1
                            })
                        })
                    })
            },
        );
        assert_restore_rebuilds(
            "superset-con write filtering",
            || {
                let profile = specjbb();
                let mut machine = MachineConfig::for_cores(profile.cores, 8, None).unwrap();
                machine.policy.write_filtering = true;
                let mut sim =
                    Simulator::for_profile(&profile, machine, Algorithm::SupersetCon, None, SEED)
                        .unwrap();
                sim.enable_probe();
                sim
            },
            2_000,
            |sim| sim.probe_report().unwrap().write_filter_hits > 0 && !sim.txns.is_empty(),
        );
        assert_restore_rebuilds(
            "subset 4x4 bridge drops",
            || {
                let profile = profiles::consolidated()
                    .with_cores(16)
                    .with_cluster(4)
                    .with_accesses(ACCESSES);
                let mut sim =
                    Simulator::for_workload_hier(&profile, Algorithm::Subset, None, SEED, 4, 4)
                        .unwrap();
                let mut plan = FaultPlan::lossless();
                plan.seed = SEED;
                plan.bridge_drop = 0.05;
                plan.bridge_budget = u64::MAX;
                sim.set_fault_plan(plan);
                sim
            },
            1_000,
            |sim| sim.txns.values().any(|t| t.attempt > 0),
        );
        assert_restore_rebuilds(
            "lazy with a node detached",
            || {
                let mut sim = on_specjbb(Algorithm::Lazy);
                let window = ChurnWindow {
                    node: CmpId(2),
                    remove_at: Cycle::new(20_000),
                    readd_at: Cycle::new(60_000),
                    warm: false,
                };
                sim.set_churn_plan(vec![window]).unwrap();
                sim
            },
            2_000,
            |sim| sim.detached.iter().any(|&d| d) && !sim.txns.is_empty(),
        );
        assert_restore_rebuilds(
            "exact with downgrades",
            || {
                let table = PredictorSpec::Exact { entries: 16 };
                Simulator::for_workload(&specjbb(), Algorithm::Exact, Some(table), SEED).unwrap()
            },
            2_000,
            |sim| !sim.downgraded.is_empty() && !sim.txns.is_empty(),
        );
        assert_restore_rebuilds(
            "lazy after a core finished",
            || on_specjbb(Algorithm::Lazy),
            2_000,
            |sim| sim.cores.iter().any(|c| c.done) && !sim.txns.is_empty(),
        );
    }

    #[test]
    fn oversized_engaged_count_in_a_resealed_checkpoint_is_corrupt() {
        // `run --resume` of a specjbb/Lazy checkpoint taken at cycle
        // 60000, with one live transaction's `engaged` count rewritten to
        // 2^40 and the envelope re-sealed: restore must fail cleanly
        // instead of aborting on a 4 TiB allocation.
        let workload = profiles::specjbb().with_accesses(2_000);
        let build = || Simulator::for_workload(&workload, Algorithm::Lazy, None, 7).unwrap();
        let mut sim = build();
        sim.run_until(Some(Cycle::new(60_000)));
        assert!(
            sim.in_flight() > 0,
            "the checkpoint needs a live transaction"
        );
        let mut payload = snap::unseal(&sim.save_snapshot()).unwrap().to_vec();

        // Locate the transaction arena in the payload, then its first
        // live slot; `engaged` follows line, op, requester, core, issue.
        let mut arena = SnapWriter::new();
        sim.txns.save_into_with(&mut arena, save_txn);
        let arena = arena.into_bytes();
        let base = payload
            .windows(arena.len())
            .position(|w| w == arena.as_slice())
            .expect("arena bytes inside the snapshot");
        let mut r = SnapReader::new(&arena);
        let slots = r.get_usize().unwrap();
        let txn_at = (0..slots)
            .find_map(|_| {
                r.get_u32().unwrap();
                r.get_bool().unwrap().then(|| arena.len() - r.remaining())
            })
            .expect("a live slot");
        let engaged_at = base + txn_at + 8 + 1 + 8 + 8 + 8;
        payload[engaged_at..engaged_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());

        let err = build().restore_snapshot(&snap::seal(payload)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }
}
