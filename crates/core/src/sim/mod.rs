//! The embedded-ring multiprocessor simulator.
//!
//! A discrete-event model of the paper's machine: in-order cores issuing a
//! deterministic access stream, private L1/L2 caches per core, the
//! seven-state ring snoop protocol (§2.2), the Table 2 message primitives,
//! per-node supplier predictors, home-node memory with optional prefetch,
//! and contention on ring links, CMP snoop ports, torus links and memory
//! controllers.
//!
//! # Model notes (vs. the paper)
//!
//! * Cores are in-order and blocking (one outstanding miss). The paper's
//!   out-of-order cores change absolute times, not the relative ordering of
//!   the snooping algorithms, which is driven by the memory system.
//! * Same-line transaction collisions are resolved at the requester by
//!   serializing the later transaction behind the earlier one (a
//!   squash-and-immediate-retry). The paper squashes mid-ring and retries;
//!   both orderings admit exactly one winner and charge the loser a retry
//!   delay.
//! * Exact-predictor downgrades take effect immediately (the state change
//!   is not given a latency); the induced write-back and re-read costs are
//!   fully modeled.
//!
//! # Layout
//!
//! One `impl Simulator` split along the paper's seams: `gateway` (Table 2
//! at each node), `requester` (issue, reply return, fills, retirement),
//! `recovery` (timeouts, retries, degraded mode), `churn`, `scope`
//! (hierarchical locality and escalation) and `codec` (snapshots). This
//! file holds the types, construction, the run loop and the cache-state
//! helpers.

mod churn;
mod codec;
mod gateway;
mod recovery;
mod requester;
mod scope;

use std::any::Any;
use std::collections::VecDeque;

use flexsnoop_engine::{
    map_heap_bytes, Cycle, Cycles, FxHashMap, FxHashSet, QueueKind, Resource, Scheduler,
};
use flexsnoop_mem::{
    invariants, CacheGeometry, CmpCaches, CmpId, CoherState, InvalidateOutcome, LineAddr,
};
use flexsnoop_metrics::{EnergyCategory, EnergyModel};
use flexsnoop_net::{RingConfig, RingNetwork, Torus, TorusConfig};
use flexsnoop_predictor::{
    BloomFilter, BloomSpec, LocalityTable, PredictorBank, PredictorSpec, SupplierPredictor,
    DEFAULT_LOCALITY_ENTRIES,
};
use flexsnoop_workload::{AccessStream, MemAccess, Trace, WorkloadProfile};

pub use churn::ChurnWindow;
use gateway::NodeState;
use recovery::RttEstimator;

use crate::algorithm::Algorithm;
use crate::arena::TxnArena;
use crate::config::MachineConfig;
use crate::experiments::replay_streams;
use crate::message::{ReplyInfo, RingMsg, SnoopScope, TxnId, TxnOp};
use crate::oracle::{ProtocolMutation, Violation};
use crate::probe::{CountingProbe, Probe, ProbeReport};
use crate::stats::RunStats;
use crate::timeline::{Timeline, TxnEvent};

/// Machine-wide copy counts for one resident line (the simulator's
/// `residency` map), maintained incrementally by every L2 state change so
/// memory-fill decisions are O(1) lookups instead of full-machine scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineCopies {
    /// Valid copies across all cores' L2s.
    copies: u32,
    /// Copies in `E`, `D` or `T` — the states whose presence makes
    /// memory's own copy unusable for fills. A count (not a flag) so the
    /// totals stay exact even when injected protocol mutations violate
    /// the one-owner invariant.
    strong: u32,
}

/// Estimated model-state memory footprint of a built simulator
/// ([`Simulator::memory_footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Total estimated bytes across caches, predictors, filters, network
    /// link FIFOs, ports, the event queue and the dynamic protocol maps.
    pub total_bytes: u64,
    /// `total_bytes / nodes` — the scaling figure `bench --scale` tracks.
    pub bytes_per_node: u64,
}

/// How the requesting core gets the data of a ring write transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteData {
    /// Upgrade or a local copy exists: no remote data needed.
    Local,
    /// Data must come from a remote supplier or memory.
    Remote,
}

#[derive(Debug)]
struct Txn {
    line: LineAddr,
    op: TxnOp,
    requester: CmpId,
    /// Global core id of the requester.
    core: usize,
    issue: Cycle,
    /// Nodes holding a gateway entry for this transaction, in insertion
    /// order. Drained to clean up the sparse gateway map on retirement or
    /// retry; duplicate-free because nodes are pushed only when their
    /// entry is freshly inserted.
    engaged: Vec<u32>,
    /// When cache-supplied data reached the requester.
    data_arrived: Option<Cycle>,
    /// The returned ring outcome.
    reply_info: Option<ReplyInfo>,
    /// Completion of the speculative home-node DRAM prefetch.
    prefetch_ready: Option<Cycle>,
    /// Write transactions: where the data comes from.
    write_data: WriteData,
    /// A remote cache has already sent the data (writes: first supplier
    /// invalidation wins).
    data_sent: bool,
    /// The core has been resumed (or never blocked: writes drain from a
    /// store buffer and do not stall the core).
    resumed: bool,
    /// Data events (`MemData` / `DataArrive`) scheduled for this
    /// transaction and not yet fired. A live transaction whose reply has
    /// returned is waiting on exactly these; with torus faults armed the
    /// recovery timer stands down only while one is pending — `resumed` or
    /// `data_arrived` may be stale leftovers of a superseded attempt and
    /// must not be trusted.
    data_pending: u32,
    /// Memory fill state chosen when the negative reply returned.
    fill_state: CoherState,
    /// Current circulation attempt (0 = original issue). Only advances on
    /// an unreliable ring with recovery enabled.
    attempt: u32,
    /// Gateway departure time of the current attempt's request, the
    /// epoch of the round-trip sample its return will contribute.
    attempt_start: Cycle,
    /// Next emission sequence number for the current attempt.
    emit_seq: u32,
    /// Bitset of sequence numbers already delivered this attempt, for
    /// duplicate suppression. Empty (never allocated) on a lossless ring.
    seen_seqs: Vec<u64>,
    /// Current circulation scope. Always `Global` on a flat topology;
    /// hierarchical reads may start `Local` and escalate on a miss.
    scope: SnoopScope,
    /// The transaction has been re-issued by a timeout at least once:
    /// all its subsequent ring traffic is charged to recovery overhead.
    /// Escalations (locality mispredictions) do not set this.
    retried: bool,
}

impl Txn {
    fn seen(&self, seq: u32) -> bool {
        self.seen_seqs
            .get(seq as usize / 64)
            .is_some_and(|w| w & (1 << (seq % 64)) != 0)
    }

    fn mark_seen(&mut self, seq: u32) {
        let word = seq as usize / 64;
        if self.seen_seqs.len() <= word {
            self.seen_seqs.resize(word + 1, 0);
        }
        self.seen_seqs[word] |= 1 << (seq % 64);
    }
}

struct CoreState {
    stream: Box<dyn AccessStream + Send>,
    issued: u64,
    limit: u64,
    done: bool,
    /// Ring read transactions currently in flight from this core.
    outstanding_reads: usize,
    /// The core hit its outstanding-read limit and awaits a completion.
    stalled: bool,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// A core issues a memory access. `replay` marks a collided access
    /// being retried: the core (for writes) was already advanced at the
    /// original issue and must not be advanced again.
    CoreIssue {
        core: usize,
        access: MemAccess,
        replay: bool,
    },
    /// A ring message arrives at a node's gateway.
    RingArrive { msg: RingMsg, node: CmpId },
    /// A read-snoop operation completes at a node. `attempt` tags the
    /// circulation that started it; completions from superseded attempts
    /// are counted (the work happened) but drive no protocol state.
    SnoopDone {
        txn: TxnId,
        node: CmpId,
        attempt: u32,
    },
    /// A write-snoop (invalidation) completes at a node.
    WriteSnoopDone {
        txn: TxnId,
        node: CmpId,
        attempt: u32,
    },
    /// Cache-to-cache data reaches the requester.
    DataArrive { txn: TxnId },
    /// Memory data reaches the requester.
    MemData { txn: TxnId },
    /// The requester-side recovery timer for one circulation attempt
    /// expired (only scheduled on an unreliable ring with recovery on).
    Timeout { txn: TxnId, attempt: u32 },
    /// A CMP leaves the machine (node churn): its cores quiesce and its
    /// caches are flushed (`warm: false`) or demoted to non-supplier
    /// states (`warm: true`). See [`ChurnWindow`].
    ChurnDetach { node: CmpId, warm: bool },
    /// A churned-out CMP rejoins the machine and its cores resume.
    ChurnReadd { node: CmpId },
}

/// The full-machine simulator for one (algorithm, predictor, workload) run.
///
/// The typical flow — build from a workload profile, run to completion,
/// validate, read the statistics — mirrors `examples/quickstart.rs`:
///
/// ```
/// use flexsnoop::{Algorithm, Simulator};
/// use flexsnoop_workload::profiles;
///
/// # fn main() -> Result<(), String> {
/// let workload = profiles::specweb().with_accesses(150);
/// let mut stats = Vec::new();
/// for alg in [Algorithm::Lazy, Algorithm::SupersetAgg] {
///     let mut sim = Simulator::for_workload(&workload, alg, None, 42)?;
///     let s = sim.run();
///     sim.validate_coherence()?;
///     stats.push(s);
/// }
/// // The adaptive algorithm must not snoop more than Lazy's full walk.
/// assert!(stats[1].snoops_per_read() <= stats[0].snoops_per_read());
/// assert!(stats.iter().all(|s| s.read_txns > 0 && s.energy_nj() > 0.0));
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    cfg: MachineConfig,
    alg: Algorithm,
    sched: Scheduler<Event>,
    cmps: Vec<CmpCaches>,
    predictors: PredictorBank,
    /// Per-group supplier-locality tables (hierarchical topologies only;
    /// empty when flat). Consulted at the requester to pick the initial
    /// circulation scope, trained by observed supplier positions,
    /// escalations and memory fills.
    locality: Vec<LocalityTable>,
    /// Per-node presence filters, allocated and maintained only when
    /// write filtering is on (empty otherwise — at ~1.2 KB per filter
    /// they would dominate memory on large rings): a counting Bloom over
    /// every valid line in the CMP's L2s. No false negatives, so a
    /// "definitely absent" answer makes skipping a write invalidation
    /// safe (§5.3 extension).
    presence: Vec<BloomFilter>,
    ring: RingNetwork,
    torus: Torus,
    /// One shared intra-CMP bus per node: ring snoops and local
    /// cache-to-cache supplies arbitrate for it.
    snoop_ports: Vec<Resource>,
    mem_ports: Vec<Resource>,
    cores: Vec<CoreState>,
    txns: TxnArena<Txn>,
    /// Sparse per-`(transaction, node)` gateway state (see [`NodeState`]):
    /// absence means untouched-or-finished. Entries are created by
    /// [`Self::set_node_state`] and reclaimed through each transaction's
    /// `engaged` list on retirement and retry.
    gateway: FxHashMap<(TxnId, u32), NodeState>,
    /// Machine-wide copy counts per resident line (see [`LineCopies`]),
    /// kept in sync by every L2 state change so
    /// [`Self::memory_fill_state`] needs no O(nodes × cores) scan.
    residency: FxHashMap<LineAddr, LineCopies>,
    /// In-flight transaction counts per line: `(readers, writers)`.
    /// Read–read concurrency is benign (no state is modified that another
    /// read could observe inconsistently); any write serializes.
    line_busy: FxHashMap<LineAddr, (u32, u32)>,
    line_waiters: FxHashMap<LineAddr, VecDeque<(usize, MemAccess)>>,
    downgraded: FxHashSet<LineAddr>,
    /// Lines that exhausted their retry cap and now always use Lazy
    /// forwarding (degraded mode; only populated on an unreliable ring),
    /// mapped to their probation progress: consecutive clean (retry-free)
    /// circulations observed since the last timeout on the line. At
    /// `recovery.probation_window` the line re-arms its Table 3 algorithm.
    degraded_lines: FxHashMap<LineAddr, u32>,
    /// A non-lossless fault plan is armed on the ring: sequence numbers
    /// are assigned and checked, and (with `recovery`) timeouts guard
    /// every transaction's ring phase.
    unreliable: bool,
    /// The armed plan can drop torus data messages, so a returned ring
    /// reply no longer proves the data phase will finish: timeouts then
    /// guard the whole transaction, not just the ring circulation.
    torus_faulty: bool,
    /// Timeout/retry recovery is active (default). Disabled only by
    /// [`Self::set_recovery_enabled`] for the chaos harness's
    /// self-test: a lossy ring without retries loses transactions.
    recovery: bool,
    /// Armed node-churn windows ([`Self::set_churn_plan`]); like the
    /// fault plan, re-armed (not serialized) across snapshot restore.
    churn: Vec<ChurnWindow>,
    /// Per-node churn state: `true` while the CMP is detached. Core
    /// issues on a detached node are deferred to its re-add cycle.
    detached: Vec<bool>,
    /// Derived static ring-phase timeout (see
    /// [`crate::config::RecoveryParams`]): floor + queueing slack.
    timeout_base: Cycles,
    /// Unloaded circulation latency plus per-node processing — the
    /// physical lower bound no timeout estimate may undercut.
    timeout_floor: Cycles,
    /// Per-requester round-trip estimators
    /// ([`TimeoutPolicy::Adaptive`]); populated by
    /// [`Self::set_fault_plan`].
    rtt: Vec<RttEstimator>,
    stats: RunStats,
    /// The one observation channel (see [`crate::probe`]): a counting
    /// probe, a [`Timeline`], or a caller's sink. `None` keeps every hook
    /// site down to one branch.
    probe: Option<Box<dyn Probe>>,
    /// Per-retirement invariant oracle (see [`crate::oracle`]): on when
    /// [`enable_invariant_checks`](Self::enable_invariant_checks) was
    /// called or the crate was built with `strict-invariants`.
    checks: bool,
    violations: Vec<Violation>,
    mutation: Option<ProtocolMutation>,
    active_cores: usize,
    /// The first [`run_until`](Self::run_until) call primed the cores;
    /// also set by a snapshot restore (the snapshot was taken mid-run).
    started: bool,
    finished: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("algorithm", &self.alg)
            .field("nodes", &self.cfg.nodes)
            .field("cores", &self.cores.len())
            .field("now", &self.sched.now())
            .field("in_flight_txns", &self.txns.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Builds a simulator from explicit parts.
    ///
    /// `streams` must contain one access stream per core
    /// (`machine.total_cores()`), and `limit` caps the accesses each core
    /// issues.
    ///
    /// # Errors
    ///
    /// Returns a message if the machine config is invalid, the stream
    /// count is wrong, or the predictor spec is illegal for the algorithm.
    pub fn new(
        machine: MachineConfig,
        algorithm: Algorithm,
        predictor: PredictorSpec,
        energy: EnergyModel,
        streams: Vec<Box<dyn AccessStream + Send>>,
        limit: u64,
    ) -> Result<Self, String> {
        if !algorithm.accepts_predictor(&predictor) {
            return Err(format!(
                "algorithm {algorithm} cannot use predictor {predictor}"
            ));
        }
        // The bank picks the most compact machine-wide layout that keeps
        // per-node semantics (flat shared tables for Subset, zero storage
        // for None) instead of one boxed predictor per node.
        let bank = predictor.build_bank(machine.nodes);
        Self::build(machine, algorithm, bank, energy, streams, limit)
    }

    /// Builds a simulator with caller-supplied per-node predictors (one
    /// per CMP), bypassing the [`PredictorSpec`] registry. This is the
    /// research entry point for custom predictor designs and for fault
    /// injection ([`flexsnoop_predictor::FaultInjectingPredictor`]); the
    /// caller is responsible for matching the algorithm's error-class
    /// expectations — a predictor with false negatives under a filtering
    /// algorithm reproduces exactly the §4.3.4 hardware-race hazard.
    ///
    /// # Errors
    ///
    /// Returns a message if the machine config is invalid or the stream or
    /// predictor counts are wrong.
    pub fn with_predictors(
        machine: MachineConfig,
        algorithm: Algorithm,
        predictors: Vec<Box<dyn SupplierPredictor + Send>>,
        energy: EnergyModel,
        streams: Vec<Box<dyn AccessStream + Send>>,
        limit: u64,
    ) -> Result<Self, String> {
        Self::build(
            machine,
            algorithm,
            PredictorBank::Boxed(predictors),
            energy,
            streams,
            limit,
        )
    }

    fn build(
        machine: MachineConfig,
        algorithm: Algorithm,
        predictors: PredictorBank,
        energy: EnergyModel,
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
        if predictors.len() != machine.nodes {
            return Err(format!(
                "expected {} predictors, got {}",
                machine.nodes,
                predictors.len()
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
        let cmps = (0..machine.nodes)
            .map(|_| CmpCaches::new(machine.cores_per_cmp, l1, l2))
            .collect();
        let presence = if machine.policy.write_filtering {
            (0..machine.nodes)
                .map(|_| BloomFilter::new(BloomSpec::y_filter()))
                .collect()
        } else {
            Vec::new()
        };
        let ring = RingNetwork::new(RingConfig {
            nodes: machine.nodes,
            rings: machine.ring.rings,
            hop_latency: machine.ring.hop_latency,
            link_service: machine.ring.link_service,
            hier: machine.ring.hier,
        });
        let locality = match machine.ring.hier {
            Some(h) => (0..h.groups)
                .map(|_| LocalityTable::new(DEFAULT_LOCALITY_ENTRIES))
                .collect(),
            None => Vec::new(),
        };
        let torus = Torus::new(TorusConfig::near_square(
            machine.nodes,
            machine.data_net.hop_latency,
            machine.data_net.router_latency,
            machine.data_net.link_service,
        ));
        let active_cores = streams.len();
        let cores = streams
            .into_iter()
            .map(|stream| CoreState {
                stream,
                issued: 0,
                limit,
                done: false,
                outstanding_reads: 0,
                stalled: false,
            })
            .collect();
        Ok(Self {
            alg: algorithm,
            sched: Scheduler::new(),
            cmps,
            predictors,
            locality,
            presence,
            ring,
            torus,
            snoop_ports: (0..machine.nodes).map(|_| Resource::new()).collect(),
            mem_ports: (0..machine.nodes).map(|_| Resource::new()).collect(),
            cores,
            txns: TxnArena::new(),
            gateway: FxHashMap::default(),
            residency: FxHashMap::default(),
            line_busy: FxHashMap::default(),
            line_waiters: FxHashMap::default(),
            downgraded: FxHashSet::default(),
            degraded_lines: FxHashMap::default(),
            unreliable: false,
            torus_faulty: false,
            recovery: true,
            churn: Vec::new(),
            detached: vec![false; machine.nodes],
            timeout_base: Cycles(0),
            timeout_floor: Cycles(0),
            rtt: Vec::new(),
            stats: RunStats::new(energy),
            probe: None,
            checks: cfg!(feature = "strict-invariants"),
            violations: Vec::new(),
            mutation: None,
            active_cores,
            started: false,
            finished: false,
            cfg: machine,
        })
    }

    /// Convenience constructor: the paper machine sized for `profile`,
    /// with the algorithm's default predictor unless `predictor` overrides
    /// it.
    ///
    /// # Errors
    ///
    /// Returns a message if the profile's core count is not divisible by
    /// the node count or the configuration is otherwise invalid.
    pub fn for_workload(
        profile: &WorkloadProfile,
        algorithm: Algorithm,
        predictor: Option<PredictorSpec>,
        seed: u64,
    ) -> Result<Self, String> {
        Self::for_workload_on(profile, algorithm, predictor, seed, 8)
    }

    /// Like [`for_workload`](Self::for_workload) but with an explicit node
    /// count, for machine-scaling studies (the paper argues the embedded
    /// ring suits 8–16 node machines; §2.1.4).
    ///
    /// # Errors
    ///
    /// Returns a message if the profile's core count is not divisible by
    /// `nodes` or the configuration is otherwise invalid.
    pub fn for_workload_on(
        profile: &WorkloadProfile,
        algorithm: Algorithm,
        predictor: Option<PredictorSpec>,
        seed: u64,
        nodes: usize,
    ) -> Result<Self, String> {
        let machine = MachineConfig::for_cores(profile.cores, nodes, None)?;
        Self::for_profile(profile, machine, algorithm, predictor, seed)
    }

    /// Like [`for_workload_on`](Self::for_workload_on) but arranging the
    /// `local × groups` nodes as a hierarchical multi-ring machine with
    /// the [`crate::config::default_hier`] bridge timing and a per-group
    /// locality table steering read circulations.
    ///
    /// # Errors
    ///
    /// Returns a message if the profile's core count is not divisible by
    /// `local * groups` or the configuration is otherwise invalid.
    pub fn for_workload_hier(
        profile: &WorkloadProfile,
        algorithm: Algorithm,
        predictor: Option<PredictorSpec>,
        seed: u64,
        local: usize,
        groups: usize,
    ) -> Result<Self, String> {
        let machine =
            MachineConfig::for_cores(profile.cores, local * groups, Some((local, groups)))?;
        Self::for_profile(profile, machine, algorithm, predictor, seed)
    }

    /// Replays a recorded `trace` on `machine` (see
    /// [`MachineConfig::for_cores`]), with the algorithm's default
    /// predictor unless `predictor` overrides it. Each core replays its
    /// own recorded accesses to the end. The CLI's `replay`, the
    /// differential matrix, the chaos campaign and the scenario runner
    /// all build their simulators here.
    ///
    /// # Errors
    ///
    /// Returns a message if the trace's core count does not match the
    /// machine or the configuration is otherwise invalid.
    pub fn for_trace(
        trace: &Trace,
        machine: MachineConfig,
        algorithm: Algorithm,
        predictor: Option<PredictorSpec>,
    ) -> Result<Self, String> {
        let limit = trace.accesses_per_core();
        Self::for_streams(machine, algorithm, predictor, replay_streams(trace), limit)
    }

    /// `profile`'s streams for `seed` on `machine`.
    fn for_profile(
        profile: &WorkloadProfile,
        machine: MachineConfig,
        algorithm: Algorithm,
        predictor: Option<PredictorSpec>,
        seed: u64,
    ) -> Result<Self, String> {
        let streams = profile
            .streams(seed)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
            .collect();
        Self::for_streams(
            machine,
            algorithm,
            predictor,
            streams,
            profile.accesses_per_core,
        )
    }

    /// The `for_workload*` and `for_trace` tail: the algorithm's default
    /// predictor unless `predictor` overrides it, and its energy model.
    fn for_streams(
        machine: MachineConfig,
        algorithm: Algorithm,
        predictor: Option<PredictorSpec>,
        streams: Vec<Box<dyn AccessStream + Send>>,
        limit: u64,
    ) -> Result<Self, String> {
        let predictor = predictor.unwrap_or_else(|| algorithm.default_predictor());
        let energy = energy_model_for(&predictor);
        Self::new(machine, algorithm, predictor, energy, streams, limit)
    }

    /// The algorithm under test.
    pub fn algorithm(&self) -> Algorithm {
        self.alg
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Statistics collected so far (complete after [`run`](Self::run)).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Installs a [`Timeline`] recording the first `limit` ring
    /// transactions as the run's probe, replacing any other. Call before
    /// [`run`](Self::run).
    pub fn enable_timeline(&mut self, limit: usize) {
        self.set_probe(Box::new(Timeline::with_limit(limit)));
    }

    /// Selects the event-queue implementation backing the scheduler. Both
    /// kinds dispatch events in the identical order, so results are
    /// bit-for-bit the same either way; only throughput differs. Call
    /// before [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started, even if its queue
    /// has drained: a fresh scheduler would restart the clock at zero.
    pub fn use_event_queue(&mut self, kind: QueueKind) {
        assert!(
            !self.started && self.sched.is_empty(),
            "use_event_queue() must be called before run()"
        );
        self.sched = Scheduler::with_queue(kind);
    }

    /// The recorded transaction timelines, if
    /// [`enable_timeline`](Self::enable_timeline) installed the probe.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.probe()
    }

    /// Installs the built-in counting probe (see [`crate::probe`]),
    /// replacing any other. Call before [`run`](Self::run); read the
    /// result with [`probe_report`](Self::probe_report) afterwards.
    pub fn enable_probe(&mut self) {
        self.set_probe(Box::new(CountingProbe::new()));
    }

    /// Installs a caller-supplied observability sink, replacing any
    /// other. Call before [`run`](Self::run).
    pub fn set_probe(&mut self, probe: Box<dyn Probe>) {
        self.probe = Some(probe);
    }

    /// The installed probe as its concrete type `T`, or `None` when no
    /// probe or a different kind is installed.
    pub fn probe<T: Probe>(&self) -> Option<&T> {
        let probe: &dyn Any = self.probe.as_deref()?;
        probe.downcast_ref()
    }

    /// A copy of the counters of the probe installed by
    /// [`enable_probe`](Self::enable_probe), if that is the run's probe.
    pub fn probe_report(&self) -> Option<ProbeReport> {
        self.probe::<CountingProbe>().map(|p| p.snapshot().clone())
    }

    /// Ring transactions still in flight (non-zero after
    /// [`run`](Self::run) only when faults went unrecovered).
    pub fn in_flight(&self) -> usize {
        self.txns.len()
    }

    /// Events still pending in the scheduler. Zero after
    /// [`run_until`](Self::run_until) means the run is complete and
    /// [`finalize`](Self::finalize) may be called; callers slicing a run
    /// into bounded chunks (the benchmark's timed slices) use this to
    /// tell "hit the stop cycle" apart from "drained the queue". Note the
    /// queue is also empty *before* the first `run_until` call primes the
    /// cores.
    pub fn pending_events(&self) -> usize {
        self.sched.len()
    }

    /// Predictions corrupted by armed
    /// [`flexsnoop_predictor::FaultInjectingPredictor`] wrappers, summed
    /// over all nodes.
    pub fn injected_prediction_faults(&self) -> u64 {
        self.predictors.injected_faults_total()
    }

    /// The coherence state of `line` in one core's L2 (for inspection and
    /// testing).
    pub fn line_state(&self, node: CmpId, core: usize, line: LineAddr) -> CoherState {
        self.cmps[node.0].state_of(core, line)
    }

    /// Checks the global storage invariants of Figure 2(b) for every
    /// resident line: all pairs of copies must be compatible, which implies
    /// at most one supplier-state copy machine-wide.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, naming the line and states.
    pub fn validate_coherence(&self) -> Result<(), String> {
        invariants::check_all(&self.cmps)
    }

    /// Enables the per-retirement invariant oracle: after every transaction
    /// retires (and whenever a predictor-filtering decision skips a snoop),
    /// the affected line is re-checked against the Figure 2(b) invariants
    /// and any violation is recorded with the transaction and cycle that
    /// exposed it. Call before [`run`](Self::run). With the
    /// `strict-invariants` cargo feature the oracle is always on and panics
    /// at the first violation instead of recording it (unless the violation
    /// was provoked by an injected [`ProtocolMutation`]).
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

    /// Deliberately breaks one protocol rule (testing only), so tests can
    /// prove the oracle catches the corresponding bug class. Call before
    /// [`run`](Self::run).
    pub fn inject_mutation(&mut self, mutation: ProtocolMutation) {
        self.mutation = Some(mutation);
    }

    /// A canonical `(line, cmp, core, state)` snapshot of every resident L2
    /// line, for differential comparison between runs.
    pub fn state_snapshot(&self) -> Vec<(LineAddr, usize, usize, CoherState)> {
        invariants::state_snapshot(&self.cmps)
    }

    fn record_violation(&mut self, txn: TxnId, at: Cycle, line: LineAddr, what: String) {
        let v = Violation {
            txn,
            at,
            line,
            what,
        };
        if cfg!(feature = "strict-invariants") && self.mutation.is_none() {
            panic!("protocol invariant violated: {v}");
        }
        self.violations.push(v);
    }

    // ----- topology helpers -------------------------------------------------

    fn cmp_of(&self, core: usize) -> CmpId {
        CmpId(core / self.cfg.cores_per_cmp)
    }

    fn local_idx(&self, core: usize) -> usize {
        core % self.cfg.cores_per_cmp
    }

    // ----- driving the run --------------------------------------------------

    /// Runs the simulation to completion and returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> RunStats {
        self.run_until(None);
        self.finalize()
    }

    /// Runs until the event queue drains or the next pending event is at
    /// or past `stop_at`, whichever comes first; returns the reached
    /// simulation time. The stopping point is a pure function of the
    /// event schedule — never of wall-clock or queue internals — so a
    /// [`save_snapshot`](Self::save_snapshot) taken here resumes
    /// bit-identically. Call [`finalize`](Self::finalize) after the final
    /// `run_until(None)` to close out the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the run was already finalized.
    pub fn run_until(&mut self, stop_at: Option<Cycle>) -> Cycle {
        assert!(!self.finished, "the run has already been finalized");
        if !self.started {
            self.started = true;
            // Prime every core with its first access.
            for core in 0..self.cores.len() {
                self.advance_core(core, Cycle::ZERO);
            }
            // Arm churn windows after the cores: a re-add's priming-time
            // insertion sequence precedes any event the run schedules
            // later, so deferred issues parked at `readd_at` always
            // dispatch after the node re-attached.
            for i in 0..self.churn.len() {
                let w = self.churn[i];
                self.sched.schedule_at(
                    w.remove_at,
                    Event::ChurnDetach {
                        node: w.node,
                        warm: w.warm,
                    },
                );
                self.sched
                    .schedule_at(w.readd_at, Event::ChurnReadd { node: w.node });
            }
        }
        loop {
            let next = match stop_at {
                Some(stop) => self.sched.pop_before(stop),
                None => self.sched.pop(),
            };
            let Some((now, ev)) = next else {
                break;
            };
            self.stats.events += 1;
            if let Some(p) = self.probe.as_deref_mut() {
                p.event_dispatched(self.sched.len());
            }
            self.dispatch(now, ev);
        }
        self.sched.now()
    }

    /// Closes out the run — checks for stranded cores, folds predictor
    /// and fault counters into the statistics — and returns them. Called
    /// automatically by [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if events are still pending or the run was already
    /// finalized.
    pub fn finalize(&mut self) -> RunStats {
        assert!(!self.finished, "the run has already been finalized");
        assert!(
            self.sched.is_empty(),
            "finalize() with events still pending; run_until(None) first"
        );
        self.finished = true;
        if self.active_cores > 0 {
            // Only a lossy ring without recovery may strand cores: a lost
            // message then hangs its transaction forever. Anywhere else
            // this is a model bug.
            assert!(
                self.unreliable && !self.recovery,
                "drained queue with cores unfinished"
            );
            self.stats.robustness.unfinished_cores = self.active_cores as u64;
        }
        self.stats.exec_cycles = self.sched.now();
        let fault_stats = self.ring.fault_stats();
        self.stats.robustness.ring_drops = fault_stats.drops;
        self.stats.robustness.ring_duplicates = fault_stats.duplicates;
        self.stats.robustness.ring_delays = fault_stats.delays;
        self.stats.robustness.partition_blocked = fault_stats.partition_blocked;
        self.stats.robustness.torus_drops = self.torus.fault_drops();
        self.stats.robustness.injected_prediction_faults = self.injected_prediction_faults();
        self.stats.robustness.bridge_drops = fault_stats.bridge_drops;
        // Fold predictor activity into the energy account.
        for node in 0..self.predictors.len() {
            let c = self.predictors.counters(node);
            self.stats
                .energy
                .add(EnergyCategory::PredictorLookup, c.lookups);
            self.stats
                .energy
                .add(EnergyCategory::PredictorTrain, c.trainings);
            if let Some(probe) = self.probe.as_deref_mut() {
                probe.predictor_trained(c.trainings);
            }
        }
        // Locality tables are predictor hardware too: charge their
        // activity to the same energy categories.
        for table in &self.locality {
            let c = table.counters();
            self.stats
                .energy
                .add(EnergyCategory::PredictorLookup, c.lookups);
            self.stats
                .energy
                .add(EnergyCategory::PredictorTrain, c.trainings);
        }
        if self.probe.is_some() {
            let fp = self.memory_footprint();
            let rss = crate::probe::peak_rss_bytes().unwrap_or(0);
            if let Some(probe) = self.probe.as_deref_mut() {
                probe.footprint(fp.bytes_per_node, fp.total_bytes, rss);
            }
        }
        self.stats.clone()
    }

    /// Pulls the next access for `core` and schedules its issue, or marks
    /// the core done.
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

    fn dispatch(&mut self, now: Cycle, ev: Event) {
        match ev {
            Event::CoreIssue {
                core,
                access,
                replay,
            } => self.on_core_issue(core, access, replay, now),
            Event::RingArrive { msg, node } => self.on_ring_arrive(msg, node, now),
            Event::SnoopDone { txn, node, attempt } => self.on_snoop_done(txn, node, attempt, now),
            Event::WriteSnoopDone { txn, node, attempt } => {
                self.on_write_snoop_done(txn, node, attempt, now)
            }
            Event::DataArrive { txn } => self.on_data_arrive(txn, now),
            Event::MemData { txn } => self.on_mem_data(txn, now),
            Event::Timeout { txn, attempt } => self.on_timeout(txn, attempt, now),
            Event::ChurnDetach { node, warm } => self.on_churn_detach(node, warm, now),
            Event::ChurnReadd { node } => self.on_churn_readd(node),
        }
    }

    /// Reports one step of transaction `txn` to the probe (a
    /// [`Timeline`] records it).
    fn txn_event(&mut self, txn: TxnId, at: Cycle, event: TxnEvent) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.txn_event(txn, at, event);
        }
    }

    /// Decides the install state for a memory fill at `node`, accounting
    /// for copies created by transactions that raced with this one.
    ///
    /// Returns `None` if a dirty or exclusive copy exists (memory data is
    /// stale or the fill would violate exclusivity): the read must retry.
    ///
    /// Answered from the incremental [`Self::residency`] counters in O(1);
    /// debug builds cross-check against the full-machine scan this
    /// replaced.
    fn memory_fill_state(
        &self,
        node: CmpId,
        line: LineAddr,
        proven: CoherState,
    ) -> Option<CoherState> {
        let res = self.residency.get(&line).copied().unwrap_or_default();
        let fill = if res.strong > 0 {
            None
        } else if res.copies == 0 {
            Some(proven) // SG, or E when the ring proved exclusivity
        } else if self.cmps[node.0].has_copy(line) {
            // A racing SL in this CMP also forbids another local master.
            Some(CoherState::S)
        } else {
            Some(CoherState::Sl)
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            fill,
            self.memory_fill_state_scan(node, line, proven),
            "residency counters drifted from cache state for {line}"
        );
        fill
    }

    /// The original full-machine scan, kept as ground truth for the
    /// counter-based fast path in debug builds.
    #[cfg(debug_assertions)]
    fn memory_fill_state_scan(
        &self,
        node: CmpId,
        line: LineAddr,
        proven: CoherState,
    ) -> Option<CoherState> {
        let mut any_copy = false;
        let mut local_copy = false;
        for (n, cmp) in self.cmps.iter().enumerate() {
            for c in 0..cmp.cores() {
                let st = cmp.state_of(c, line);
                if !st.is_valid() {
                    continue;
                }
                if matches!(st, CoherState::E | CoherState::D | CoherState::T) {
                    return None;
                }
                any_copy = true;
                if n == node.0 {
                    local_copy = true;
                }
            }
        }
        Some(if !any_copy {
            proven
        } else if local_copy {
            CoherState::S
        } else {
            CoherState::Sl
        })
    }

    // ----- state mutation with predictor maintenance --------------------------

    /// Fills `line` into a core's L2, handling the victim (write-back,
    /// predictor) and predictor gain (with Exact downgrades).
    fn fill_line(&mut self, node: CmpId, local: usize, line: LineAddr, state: CoherState) {
        if self.cfg.policy.write_filtering {
            self.presence[node.0].insert(line);
        }
        let old = self.cmps[node.0].state_of(local, line);
        if let Some(victim) = self.cmps[node.0].fill(local, line, state) {
            self.residency_change(victim.line, victim.state, CoherState::I);
            if self.cfg.policy.write_filtering {
                self.presence[node.0].remove(victim.line);
            }
            if victim.state.is_supplier() {
                self.predictor_lost(node, victim.line);
            }
            if victim.needs_writeback() {
                // Ordinary capacity write-backs are program traffic and are
                // not charged to the snoop-energy account (Figure 9 scope).
                self.stats.eviction_writebacks += 1;
                let home = CmpId(victim.line.home_node(self.cfg.nodes));
                let now = self.sched.now();
                let _ = self.torus.send(node, home, now);
            }
        }
        self.residency_change(line, old, state);
        if state.is_supplier() {
            self.predictor_gained(node, line);
        }
    }

    /// Changes the state of a resident line, keeping the predictor in sync.
    fn transition(&mut self, node: CmpId, local: usize, line: LineAddr, new: CoherState) {
        let old = self.cmps[node.0].state_of(local, line);
        debug_assert!(old.is_valid(), "transition on invalid line {line}");
        if old == new {
            return;
        }
        self.cmps[node.0].set_state(local, line, new);
        self.residency_change(line, old, new);
        match (old.is_supplier(), new.is_supplier()) {
            (false, true) => self.predictor_gained(node, line),
            (true, false) => self.predictor_lost(node, line),
            _ => {}
        }
    }

    /// Invalidates every copy of `line` in a CMP, keeping the predictor in
    /// sync; returns what was dropped (counts only — no allocation, this
    /// runs once per write snoop).
    fn invalidate_cmp(&mut self, node: CmpId, line: LineAddr) -> InvalidateOutcome {
        let dropped = self.cmps[node.0].invalidate_all(line);
        if dropped.copies > 0 {
            let entry = self
                .residency
                .get_mut(&line)
                .expect("invalidated copies were never counted");
            entry.copies -= dropped.copies;
            entry.strong -= dropped.strong_copies;
            if entry.copies == 0 {
                self.residency.remove(&line);
            }
        }
        if self.cfg.policy.write_filtering {
            for _ in 0..dropped.copies {
                self.presence[node.0].remove(line);
            }
        }
        if dropped.had_supplier {
            self.predictor_lost(node, line);
        }
        dropped
    }

    /// Maintains the machine-wide [`Self::residency`] counters across one
    /// L2 state change of `line` (old → new at a single core).
    fn residency_change(&mut self, line: LineAddr, old: CoherState, new: CoherState) {
        let strong = |s: CoherState| matches!(s, CoherState::E | CoherState::D | CoherState::T);
        let d_copies = new.is_valid() as i32 - old.is_valid() as i32;
        let d_strong = strong(new) as i32 - strong(old) as i32;
        if d_copies == 0 && d_strong == 0 {
            return;
        }
        let entry = self.residency.entry(line).or_default();
        entry.copies = entry
            .copies
            .checked_add_signed(d_copies)
            .expect("residency copy count drifted");
        entry.strong = entry
            .strong
            .checked_add_signed(d_strong)
            .expect("residency strong count drifted");
        if entry.copies == 0 {
            self.residency.remove(&line);
        }
    }

    fn predictor_gained(&mut self, node: CmpId, line: LineAddr) {
        if let Some(victim) = self.predictors.supplier_gained(node.0, line) {
            self.perform_downgrade(node, victim);
        }
    }

    fn predictor_lost(&mut self, node: CmpId, line: LineAddr) {
        self.predictors.supplier_lost(node.0, line);
    }

    /// Executes an Exact-predictor downgrade (paper §4.3.3): the victim
    /// line leaves its supplier state; dirty victims are written back.
    ///
    /// The predictor has already dropped its entry, so the cache state is
    /// changed directly (not through [`transition`](Self::transition),
    /// which would double-remove).
    fn perform_downgrade(&mut self, node: CmpId, line: LineAddr) {
        let Some((core, st)) = self.cmps[node.0].supplier_of(line) else {
            return; // raced with an invalidation; nothing to downgrade
        };
        let (new, writeback) = st.after_downgrade();
        self.cmps[node.0].set_state(core, line, new);
        self.residency_change(line, st, new);
        self.stats.downgrades += 1;
        self.stats.energy.add(EnergyCategory::Downgrade, 1);
        self.downgraded.insert(line);
        if writeback {
            self.stats.downgrade_writebacks += 1;
            self.stats.energy.add(EnergyCategory::MemWrite, 1);
            let home = CmpId(line.home_node(self.cfg.nodes));
            let now = self.sched.now();
            let _ = self.torus.send(node, home, now);
        }
    }

    // ----- memory accounting ---------------------------------------------------

    /// Estimates the heap footprint of the model state: caches,
    /// predictors, presence filters, ring/torus link FIFOs, per-node
    /// ports, the event queue, and the dynamic protocol maps at their
    /// current capacity. An estimate (not an allocator census) — `bench
    /// --scale` reports it as bytes/node to track how per-node cost grows
    /// with ring size.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let caches: u64 = self.cmps.iter().map(|c| c.footprint_bytes()).sum();
        let presence: u64 = self
            .presence
            .iter()
            .map(|b| b.storage_bits() as u64 / 8)
            .sum();
        let ports = ((self.snoop_ports.capacity() + self.mem_ports.capacity())
            * size_of::<Resource>()) as u64;
        let dynamic = map_heap_bytes(&self.gateway)
            + map_heap_bytes(&self.residency)
            + (self.rtt.capacity() * size_of::<RttEstimator>()) as u64;
        let locality: u64 = self.locality.iter().map(|t| t.footprint_bytes()).sum();
        let total = caches
            + presence
            + ports
            + dynamic
            + locality
            + self.predictors.footprint_bytes()
            + self.ring.footprint_bytes()
            + self.torus.footprint_bytes()
            + self.sched.footprint_bytes();
        MemoryFootprint {
            total_bytes: total,
            bytes_per_node: total / self.cfg.nodes.max(1) as u64,
        }
    }
}

/// Builds the energy model matching a predictor's structure class.
pub fn energy_model_for(spec: &PredictorSpec) -> EnergyModel {
    match spec {
        PredictorSpec::None | PredictorSpec::Perfect => EnergyModel::paper_baseline(),
        PredictorSpec::Subset { .. } | PredictorSpec::Exact { .. } => {
            EnergyModel::with_cache_predictor()
        }
        PredictorSpec::Superset { .. } => EnergyModel::with_bloom_predictor(),
    }
}
