//! The snapshot codec: the configuration fingerprint and the sealed,
//! versioned save/restore of all dynamic simulator state.

use std::collections::VecDeque;

use flexsnoop_engine::snap::{self, Fingerprint, SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles, Scheduler};
use flexsnoop_mem::{CmpId, CoherState, LineAddr};
use flexsnoop_workload::MemAccess;

use super::{Event, LineCopies, NodeState, Simulator, Txn, WriteData};
use crate::config::TimeoutPolicy;
use crate::message::{MsgKind, ReplyInfo, RingMsg, SnoopScope, TxnId, TxnOp};
use crate::oracle::{ProtocolMutation, Violation};

impl Simulator {
    /// Hashes every configuration input that shapes the dynamic state a
    /// snapshot carries: the machine parameters, the algorithm, and the
    /// per-core access limits. Deliberately *excluded* are the event-queue
    /// backend (both backends pop in the same `(time, insertion seq)`
    /// order, and a snapshot stores its events in that order, so it
    /// resumes on either) and the fault plan (a resumed run may widen the
    /// fault budget — the basis of the chaos shrinker's snapshot
    /// bisection).
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
    /// generations, the sparse gateway map, residency and collision
    /// tables, recovery state (RTT estimators, degraded-line probation),
    /// and the statistics so far. The probe is *not* captured: a
    /// restored run reports to whatever sink its caller installed, and
    /// that sink sees only the rest of the run. That is what lets the
    /// differential harness rewind with a [`Timeline`](crate::Timeline)
    /// installed; it is also why a probe's counts after a restore cover
    /// only the resumed part.
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
        w.put_u64(self.write_snoops_filtered);
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
        let mut residency: Vec<_> = self.residency.iter().collect();
        residency.sort_by_key(|&(l, _)| l.0);
        w.put_usize(residency.len());
        for (line, copies) in residency {
            w.put_u64(line.0);
            copies.save_into(&mut w);
        }
        let mut busy: Vec<_> = self.line_busy.iter().collect();
        busy.sort_by_key(|&(l, _)| l.0);
        w.put_usize(busy.len());
        for (line, &(readers, writers)) in busy {
            w.put_u64(line.0);
            w.put_u32(readers);
            w.put_u32(writers);
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
        w.put_cycles(self.timeout_base);
        w.put_cycles(self.timeout_floor);
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
        w.put_usize(self.active_cores);
        // The event queue comes last, where every SNAP v3 stream has it;
        // the position is kept for format stability. Observing the global
        // pop order requires draining; record the clock first — popping
        // advances it.
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
        self.write_snoops_filtered = r.get_u64()?;
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
        self.residency.clear();
        for _ in 0..r.get_usize()? {
            let line = LineAddr(r.get_u64()?);
            let mut copies = LineCopies::default();
            copies.restore_from(&mut r)?;
            self.residency.insert(line, copies);
        }
        self.line_busy.clear();
        for _ in 0..r.get_usize()? {
            let line = LineAddr(r.get_u64()?);
            let readers = r.get_u32()?;
            let writers = r.get_u32()?;
            self.line_busy.insert(line, (readers, writers));
        }
        self.line_waiters.clear();
        for _ in 0..r.get_usize()? {
            let line = LineAddr(r.get_u64()?);
            let n = r.get_usize()?;
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
        self.timeout_base = r.get_cycles()?;
        self.timeout_floor = r.get_cycles()?;
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
        self.active_cores = r.get_usize()?;
        let now0 = r.get_cycle()?;
        for _ in 0..r.get_usize()? {
            let t = r.get_cycle()?;
            let ev = load_event(&mut r)?;
            self.sched.schedule_at(t, ev);
        }
        self.sched.restore_clock(now0);
        self.started = started;
        r.expect_eof()
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

impl Snapshot for LineCopies {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_u32(self.copies);
        w.put_u32(self.strong);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.copies = r.get_u32()?;
        self.strong = r.get_u32()?;
        Ok(())
    }
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
    w.put_bool(t.blocking);
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
    let mut engaged = Vec::with_capacity(r.get_usize()?);
    for _ in 0..engaged.capacity() {
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
    let blocking = r.get_bool()?;
    let mut fill_state = CoherState::ALL[0];
    fill_state.restore_from(r)?;
    let attempt = r.get_u32()?;
    let attempt_start = r.get_cycle()?;
    let emit_seq = r.get_u32()?;
    let mut seen_seqs = Vec::with_capacity(r.get_usize()?);
    for _ in 0..seen_seqs.capacity() {
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
        blocking,
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
