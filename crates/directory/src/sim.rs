//! The directory-protocol machine simulator.
//!
//! Same substrate as the ring simulator — cores, L1/L2 caches, 2-D torus,
//! DRAM — but transactions are serialized by each line's home directory
//! instead of by a snoop ring:
//!
//! * **read, clean** (2 hops): requester → home (directory + DRAM) →
//!   requester.
//! * **read, dirty** (3 hops): requester → home → owner (cache probe) →
//!   requester; the owner downgrades and writes back.
//! * **write**: requester → home; the home invalidates every sharer (or
//!   forwards to the dirty owner) and grants exclusive ownership.
//!
//! Model notes: the directory is a full map (no capacity evictions);
//! clean cache evictions are silent, so the directory may hold stale
//! sharers — invalidations to departed sharers are harmless no-ops, which
//! is the standard full-map trade-off. Dirty evictions notify the home
//! (write-back plus ownership drop). Per-line transactions serialize at
//! the home node: concurrent reads of a clean line proceed together,
//! anything involving a write is exclusive.

use std::collections::VecDeque;

use flexsnoop::oracle::Violation;
use flexsnoop::MachineConfig;
use flexsnoop_engine::{Cycle, Cycles, FxHashMap, Resource, Scheduler};
use flexsnoop_mem::{invariants, CacheGeometry, CmpCaches, CmpId, CoherState, LineAddr};
use flexsnoop_metrics::Histogram;
use flexsnoop_net::{Torus, TorusConfig};
use flexsnoop_workload::{AccessStream, MemAccess, WorkloadProfile};

use crate::dirstate::{DirEntry, Directory};

/// Per-event energy constants, aligned with the ring simulator's anchors
/// so the two protocols' energy is comparable: interconnect link crossings
/// at 3.17 nJ, cache probes/invalidations at 0.69 nJ, DRAM lines at 24 nJ,
/// plus a 0.40 nJ directory access (a small SRAM lookup + update).
const LINK_NJ: f64 = 3.17;
const PROBE_NJ: f64 = 0.69;
const DRAM_NJ: f64 = 24.0;
const DIR_NJ: f64 = 0.40;

/// Statistics from one directory-protocol run.
#[derive(Debug, Clone, Default)]
pub struct DirStats {
    /// Directory read transactions.
    pub read_txns: u64,
    /// Directory write transactions.
    pub write_txns: u64,
    /// Reads satisfied in 2 hops (home/memory).
    pub reads_two_hop: u64,
    /// Reads satisfied in 3 hops (dirty owner forward).
    pub reads_three_hop: u64,
    /// Invalidation messages sent to sharers.
    pub invalidations: u64,
    /// Torus link crossings by protocol messages.
    pub link_hops: u64,
    /// Directory lookups/updates.
    pub dir_accesses: u64,
    /// DRAM line reads.
    pub mem_reads: u64,
    /// DRAM line writes (write-backs).
    pub mem_writes: u64,
    /// Cache probes and invalidations performed at remote CMPs.
    pub probes: u64,
    /// Hits in the requester's own L1/L2.
    pub local_hits: u64,
    /// Supplies by a peer cache in the same CMP.
    pub peer_hits: u64,
    /// Transactions queued behind a same-line transaction at the home.
    pub home_conflicts: u64,
    /// Read latency, issue to data arrival.
    pub read_latency: Histogram,
    /// Cycles until every core finished.
    pub exec_cycles: Cycle,
}

impl DirStats {
    /// Total protocol energy in nanojoules (the ring simulator's Figure 9
    /// scope: coherence traffic only, not program DRAM fills — except that
    /// in a directory protocol every miss *is* coherence traffic through
    /// the home, so directory DRAM reads are included).
    pub fn energy_nj(&self) -> f64 {
        self.link_hops as f64 * LINK_NJ
            + self.probes as f64 * PROBE_NJ
            + self.mem_reads as f64 * DRAM_NJ
            + self.mem_writes as f64 * DRAM_NJ
            + self.dir_accesses as f64 * DIR_NJ
    }

    /// Fraction of reads that needed the 3-hop dirty path.
    pub fn three_hop_fraction(&self) -> f64 {
        if self.read_txns == 0 {
            0.0
        } else {
            self.reads_three_hop as f64 / self.read_txns as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    CoreIssue {
        core: usize,
        access: MemAccess,
        replay: bool,
    },
    /// The request reaches the line's home node.
    HomeReceive { txn: TxnId },
    /// Data (and, for writes, the exclusive grant) reaches the requester.
    Complete { txn: TxnId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct TxnId(u64);

#[derive(Debug)]
struct Txn {
    line: LineAddr,
    write: bool,
    requester: CmpId,
    core: usize,
    issue: Cycle,
    /// Install state decided at the home.
    fill: CoherState,
}

struct CoreState {
    stream: Box<dyn AccessStream + Send>,
    issued: u64,
    limit: u64,
    done: bool,
}

/// The directory-protocol simulator.
pub struct DirSimulator {
    cfg: MachineConfig,
    sched: Scheduler<Event>,
    cmps: Vec<CmpCaches>,
    dirs: Vec<Directory>,
    torus: Torus,
    mem_ports: Vec<Resource>,
    dir_ports: Vec<Resource>,
    snoop_ports: Vec<Resource>,
    cores: Vec<CoreState>,
    txns: FxHashMap<TxnId, Txn>,
    next_txn: u64,
    /// Per-line `(readers, writers)` in flight, serialized at the home.
    line_busy: FxHashMap<LineAddr, (u32, u32)>,
    line_waiters: FxHashMap<LineAddr, VecDeque<(usize, MemAccess)>>,
    stats: DirStats,
    /// Per-completion invariant oracle, mirroring the ring simulator's
    /// (see `flexsnoop::oracle`).
    checks: bool,
    violations: Vec<Violation>,
    active_cores: usize,
    finished: bool,
}

impl std::fmt::Debug for DirSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirSimulator")
            .field("nodes", &self.cfg.nodes)
            .field("now", &self.sched.now())
            .finish_non_exhaustive()
    }
}

impl DirSimulator {
    /// Builds a directory machine with the same configuration vocabulary
    /// as the ring simulator.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is invalid or the stream
    /// count does not match the core count.
    pub fn new(
        machine: MachineConfig,
        streams: Vec<Box<dyn AccessStream + Send>>,
        limit: u64,
    ) -> Result<Self, String> {
        machine.validate()?;
        if streams.len() != machine.total_cores() {
            return Err(format!(
                "expected {} streams, got {}",
                machine.total_cores(),
                streams.len()
            ));
        }
        let l1 = CacheGeometry::from_capacity(
            machine.caches.l1_bytes,
            machine.caches.l1_ways,
            machine.caches.line_bytes,
        );
        let l2 = CacheGeometry::from_capacity(
            machine.caches.l2_bytes,
            machine.caches.l2_ways,
            machine.caches.line_bytes,
        );
        let active_cores = streams.len();
        Ok(Self {
            sched: Scheduler::new(),
            cmps: (0..machine.nodes)
                .map(|_| CmpCaches::new(machine.cores_per_cmp, l1, l2))
                .collect(),
            dirs: (0..machine.nodes).map(|_| Directory::new()).collect(),
            torus: Torus::new(TorusConfig::near_square(
                machine.nodes,
                machine.data_net.hop_latency,
                machine.data_net.router_latency,
                machine.data_net.link_service,
            )),
            mem_ports: (0..machine.nodes).map(|_| Resource::new()).collect(),
            dir_ports: (0..machine.nodes).map(|_| Resource::new()).collect(),
            snoop_ports: (0..machine.nodes).map(|_| Resource::new()).collect(),
            cores: streams
                .into_iter()
                .map(|stream| CoreState {
                    stream,
                    issued: 0,
                    limit,
                    done: false,
                })
                .collect(),
            txns: FxHashMap::default(),
            next_txn: 0,
            line_busy: FxHashMap::default(),
            line_waiters: FxHashMap::default(),
            stats: DirStats::default(),
            checks: cfg!(feature = "strict-invariants"),
            violations: Vec::new(),
            active_cores,
            finished: false,
            cfg: machine,
        })
    }

    /// Convenience constructor mirroring the ring simulator's.
    ///
    /// # Errors
    ///
    /// Returns a message if the profile's cores do not divide `nodes`.
    pub fn for_workload(
        profile: &WorkloadProfile,
        seed: u64,
        nodes: usize,
    ) -> Result<Self, String> {
        if nodes == 0 || !profile.cores.is_multiple_of(nodes) {
            return Err(format!(
                "workload cores ({}) must be a multiple of {nodes} nodes",
                profile.cores
            ));
        }
        let machine = MachineConfig {
            nodes,
            ..MachineConfig::isca2006(profile.cores / nodes)
        };
        let streams: Vec<Box<dyn AccessStream + Send>> = profile
            .streams(seed)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
            .collect();
        Self::new(machine, streams, profile.accesses_per_core)
    }

    fn cmp_of(&self, core: usize) -> CmpId {
        CmpId(core / self.cfg.cores_per_cmp)
    }

    fn local_idx(&self, core: usize) -> usize {
        core % self.cfg.cores_per_cmp
    }

    /// Sends a protocol message over the torus, counting hops and energy.
    fn send(&mut self, from: CmpId, to: CmpId, at: Cycle) -> Cycle {
        self.stats.link_hops += self.torus.config().hops(from, to) as u64;
        self.torus.send(from, to, at)
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> DirStats {
        assert!(!self.finished, "run() may only be called once");
        self.finished = true;
        for core in 0..self.cores.len() {
            self.advance_core(core, Cycle::ZERO);
        }
        while let Some((now, ev)) = self.sched.pop() {
            match ev {
                Event::CoreIssue {
                    core,
                    access,
                    replay,
                } => self.on_issue(core, access, replay, now),
                Event::HomeReceive { txn } => self.on_home(txn, now),
                Event::Complete { txn } => self.on_complete(txn, now),
            }
        }
        assert_eq!(self.active_cores, 0, "cores unfinished at drain");
        self.stats.exec_cycles = self.sched.now();
        self.stats.clone()
    }

    fn advance_core(&mut self, core: usize, at: Cycle) {
        let c = &mut self.cores[core];
        if c.issued >= c.limit {
            if !c.done {
                c.done = true;
                self.active_cores -= 1;
            }
            return;
        }
        match c.stream.next_access() {
            Some(access) => {
                c.issued += 1;
                self.sched.schedule_at(
                    at + access.think,
                    Event::CoreIssue {
                        core,
                        access,
                        replay: false,
                    },
                );
            }
            None => {
                c.done = true;
                self.active_cores -= 1;
            }
        }
    }

    fn on_issue(&mut self, core: usize, access: MemAccess, replay: bool, now: Cycle) {
        use flexsnoop_mem::cmp::LocalLookup;
        let node = self.cmp_of(core);
        let local = self.local_idx(core);
        let line = access.line;
        let lookup = self.cmps[node.0].local_lookup(local, line);
        if access.write {
            match lookup {
                LocalLookup::OwnL1(st) | LocalLookup::OwnL2(st) if st.writable_silently() => {
                    if st != CoherState::D {
                        self.cmps[node.0].set_state(local, line, CoherState::D);
                    }
                    if !replay {
                        self.advance_core(core, now + self.cfg.timing.l2_rt);
                    }
                    return;
                }
                _ => self.start_txn(core, access, replay, now),
            }
            return;
        }
        match lookup {
            LocalLookup::OwnL1(_) => {
                self.stats.local_hits += 1;
                self.advance_core(core, now + self.cfg.timing.l1_rt);
            }
            LocalLookup::OwnL2(_) => {
                self.stats.local_hits += 1;
                self.advance_core(core, now + self.cfg.timing.l2_rt);
            }
            LocalLookup::Peer { peer, state } => {
                self.stats.peer_hits += 1;
                let grant = self.snoop_ports[node.0].acquire(now, self.cfg.timing.snoop_occupancy);
                self.cmps[node.0].set_state(peer, line, state.after_local_supply());
                self.fill(node, local, line, CoherState::S);
                self.advance_core(core, grant.start + self.cfg.timing.cmp_bus_rt);
            }
            LocalLookup::Miss => self.start_txn(core, access, replay, now),
        }
    }

    fn start_txn(&mut self, core: usize, access: MemAccess, replay: bool, now: Cycle) {
        let line = access.line;
        let write = access.write;
        if write && !replay {
            // Stores drain from a store buffer, as in the ring model.
            self.advance_core(core, now + self.cfg.timing.l2_rt);
        }
        let (readers, writers) = self.line_busy.get(&line).copied().unwrap_or((0, 0));
        let conflict = if write {
            readers > 0 || writers > 0
        } else {
            writers > 0
        };
        if conflict {
            self.stats.home_conflicts += 1;
            self.line_waiters
                .entry(line)
                .or_default()
                .push_back((core, access));
            return;
        }
        let slot = self.line_busy.entry(line).or_insert((0, 0));
        if write {
            slot.1 += 1;
            self.stats.write_txns += 1;
        } else {
            slot.0 += 1;
            self.stats.read_txns += 1;
        }
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let requester = self.cmp_of(core);
        self.txns.insert(
            id,
            Txn {
                line,
                write,
                requester,
                core,
                issue: now,
                fill: CoherState::Sl,
            },
        );
        let home = CmpId(line.home_node(self.cfg.nodes));
        let at_home = self.send(requester, home, now + self.cfg.timing.gateway_latency);
        self.sched
            .schedule_at(at_home, Event::HomeReceive { txn: id });
    }

    /// All directory work happens when the request reaches the home: the
    /// entry is read and updated, and the completion time is composed from
    /// the resource timings of the nodes involved.
    fn on_home(&mut self, txn_id: TxnId, now: Cycle) {
        let txn = &self.txns[&txn_id];
        let line = txn.line;
        let write = txn.write;
        let requester = txn.requester;
        let home = CmpId(line.home_node(self.cfg.nodes));
        self.stats.dir_accesses += 1;
        // A small SRAM lookup; the port serializes concurrent transactions.
        let dir_done = self.dir_ports[home.0].acquire(now, Cycles(4)).end;
        let entry = self.dirs[home.0].entry(line).clone();
        let (data_at, fill) = if write {
            self.home_write(txn_id, &entry, home, requester, dir_done)
        } else {
            self.home_read(txn_id, &entry, home, requester, dir_done)
        };
        if let Some(t) = self.txns.get_mut(&txn_id) {
            t.fill = fill;
        }
        self.sched
            .schedule_at(data_at, Event::Complete { txn: txn_id });
    }

    fn dram(&mut self, home: CmpId, at: Cycle) -> Cycle {
        self.stats.mem_reads += 1;
        let grant = self.mem_ports[home.0].acquire(at, self.cfg.memory.occupancy);
        grant.start + self.cfg.memory.dram_latency + self.cfg.memory.controller_overhead
    }

    /// Probes/invalidates at a remote CMP: bus occupancy + probe time.
    fn probe(&mut self, node: CmpId, at: Cycle) -> Cycle {
        self.stats.probes += 1;
        let grant = self.snoop_ports[node.0].acquire(at, self.cfg.timing.snoop_occupancy);
        grant.start + self.cfg.timing.snoop_time
    }

    fn home_read(
        &mut self,
        txn_id: TxnId,
        entry: &DirEntry,
        home: CmpId,
        requester: CmpId,
        dir_done: Cycle,
    ) -> (Cycle, CoherState) {
        let line = self.txns[&txn_id].line;
        match entry {
            DirEntry::Uncached | DirEntry::Shared(_) => {
                self.stats.reads_two_hop += 1;
                let dram_done = self.dram(home, dir_done);
                let data_at = self.send(home, requester, dram_done);
                self.dirs[home.0].add_sharer(line, requester);
                (data_at, CoherState::Sl)
            }
            DirEntry::Owned(owner) => {
                let owner = *owner;
                self.stats.reads_three_hop += 1;
                let at_owner = self.send(home, owner, dir_done);
                let probed = self.probe(owner, at_owner);
                // The owner downgrades to a shared local master and writes
                // the dirty line back to the home.
                if let Some((core, st)) = self.cmps[owner.0].supplier_of(line) {
                    debug_assert!(st.is_dirty());
                    self.cmps[owner.0].set_state(core, line, CoherState::Sl);
                }
                self.stats.mem_writes += 1;
                let _ = self.send(owner, home, probed);
                let data_at = self.send(owner, requester, probed);
                self.dirs[home.0].set(line, DirEntry::Shared(vec![owner, requester]));
                (data_at, CoherState::Sl)
            }
        }
    }

    fn home_write(
        &mut self,
        txn_id: TxnId,
        entry: &DirEntry,
        home: CmpId,
        requester: CmpId,
        dir_done: Cycle,
    ) -> (Cycle, CoherState) {
        let line = self.txns[&txn_id].line;
        match entry {
            DirEntry::Uncached => {
                let dram_done = self.dram(home, dir_done);
                let data_at = self.send(home, requester, dram_done);
                self.dirs[home.0].set(line, DirEntry::Owned(requester));
                (data_at, CoherState::D)
            }
            DirEntry::Shared(sharers) => {
                // Invalidate every sharer (possibly including stale ones);
                // the grant waits for the slowest acknowledgement.
                let sharers = sharers.clone();
                let mut acks_done = dir_done;
                let requester_had_copy = sharers.contains(&requester);
                for sharer in sharers {
                    if sharer == requester {
                        continue; // the upgrader keeps (and rewrites) its copy
                    }
                    self.stats.invalidations += 1;
                    let at_sharer = self.send(home, sharer, dir_done);
                    let probed = self.probe(sharer, at_sharer);
                    self.cmps[sharer.0].invalidate_all(line);
                    let ack_at = self.send(sharer, home, probed);
                    acks_done = acks_done.max(ack_at);
                }
                let data_ready = if requester_had_copy {
                    acks_done // upgrade: no data needed
                } else {
                    self.dram(home, dir_done).max(acks_done)
                };
                let grant_at = self.send(home, requester, data_ready);
                self.dirs[home.0].set(line, DirEntry::Owned(requester));
                (grant_at, CoherState::D)
            }
            DirEntry::Owned(owner) => {
                let owner = *owner;
                let at_owner = self.send(home, owner, dir_done);
                let probed = self.probe(owner, at_owner);
                self.cmps[owner.0].invalidate_all(line);
                self.stats.invalidations += 1;
                let data_at = self.send(owner, requester, probed);
                self.dirs[home.0].set(line, DirEntry::Owned(requester));
                (data_at, CoherState::D)
            }
        }
    }

    fn on_complete(&mut self, txn_id: TxnId, now: Cycle) {
        let Some(txn) = self.txns.remove(&txn_id) else {
            return;
        };
        let node = txn.requester;
        let local = self.local_idx(txn.core);
        if txn.write {
            // Clear any local copies (peers) and take exclusive ownership.
            self.cmps[node.0].invalidate_all(txn.line);
            self.fill(node, local, txn.line, CoherState::D);
        } else {
            let state = if self.cmps[node.0].has_copy(txn.line) {
                CoherState::S
            } else {
                txn.fill
            };
            self.fill(node, local, txn.line, state);
            self.stats.read_latency.record((now - txn.issue).as_u64());
            self.advance_core(txn.core, now);
        }
        // Oracle hook: the transaction is complete, so the line's copies
        // must satisfy the Figure 2(b) invariants again.
        if self.checks {
            if let Err(what) = invariants::check_line(&self.cmps, txn.line) {
                self.record_violation(txn_id, now, txn.line, what);
            }
        }
        // Release the line and wake waiters.
        if let Some(slot) = self.line_busy.get_mut(&txn.line) {
            if txn.write {
                slot.1 = slot.1.saturating_sub(1);
            } else {
                slot.0 = slot.0.saturating_sub(1);
            }
            if *slot == (0, 0) {
                self.line_busy.remove(&txn.line);
            }
        }
        if let Some(waiters) = self.line_waiters.remove(&txn.line) {
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

    /// Fills a line, handling the victim: dirty victims write back and
    /// notify the home (ownership drop); clean evictions are silent.
    fn fill(&mut self, node: CmpId, local: usize, line: LineAddr, state: CoherState) {
        if let Some(victim) = self.cmps[node.0].fill(local, line, state) {
            if victim.needs_writeback() {
                self.stats.mem_writes += 1;
                let home = CmpId(victim.line.home_node(self.cfg.nodes));
                let now = self.sched.now();
                let _ = self.send(node, home, now);
                self.dirs[home.0].drop_node(victim.line, node);
                self.stats.dir_accesses += 1;
            }
        }
    }

    /// The same global storage check as the ring simulator.
    ///
    /// # Errors
    ///
    /// Returns the first incompatible pair of copies.
    pub fn validate_coherence(&self) -> Result<(), String> {
        invariants::check_all(&self.cmps)
    }

    /// Enables the per-completion invariant oracle, mirroring the ring
    /// simulator's [`enable_invariant_checks`]. Call before
    /// [`run`](Self::run).
    ///
    /// [`enable_invariant_checks`]: flexsnoop::Simulator::enable_invariant_checks
    pub fn enable_invariant_checks(&mut self) {
        self.checks = true;
    }

    /// Violations recorded by the invariant oracle, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The first violation the oracle detected, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// A canonical `(line, cmp, core, state)` snapshot of every resident L2
    /// line, comparable against `flexsnoop::Simulator::state_snapshot`.
    pub fn state_snapshot(&self) -> Vec<(LineAddr, usize, usize, CoherState)> {
        invariants::state_snapshot(&self.cmps)
    }

    fn record_violation(&mut self, txn: TxnId, at: Cycle, line: LineAddr, what: String) {
        // The directory's transaction ids are sequential, so they embed
        // loss-free into the ring's arena-style id (slot = id, gen = 0).
        let v = Violation {
            txn: flexsnoop::TxnId(txn.0),
            at,
            line,
            what,
        };
        if cfg!(feature = "strict-invariants") {
            panic!("protocol invariant violated: {v}");
        }
        self.violations.push(v);
    }

    /// The coherence state of one line in one core's L2.
    pub fn line_state(&self, node: CmpId, core: usize, line: LineAddr) -> CoherState {
        self.cmps[node.0].l2(core).state_of(line)
    }
}
