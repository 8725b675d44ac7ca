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

use std::any::Any;
use std::collections::VecDeque;

use flexsnoop_engine::snap::{self, Fingerprint, SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles, FxHashMap, FxHashSet, QueueKind, Resource, Scheduler};
use flexsnoop_mem::{CacheGeometry, CmpCaches, CmpId, CoherState, InvalidateOutcome, LineAddr};
use flexsnoop_metrics::{EnergyCategory, EnergyModel};
use flexsnoop_net::{FaultPlan, FaultStats, RingConfig, RingNetwork, Torus, TorusConfig};
use flexsnoop_predictor::{
    BloomFilter, BloomSpec, LocalityTable, PredictorBank, PredictorSpec, SupplierPredictor,
    DEFAULT_LOCALITY_ENTRIES,
};
use flexsnoop_workload::{AccessStream, MemAccess, WorkloadProfile};

use flexsnoop_mem::invariants;

use crate::algorithm::{Algorithm, DynPolicy, SnoopAction};
use crate::arena::TxnArena;
use crate::config::{MachineConfig, TimeoutPolicy};
use crate::message::{MsgKind, ReplyInfo, RingMsg, SnoopScope, TxnId, TxnOp};
use crate::oracle::{ProtocolMutation, Violation};
use crate::probe::{CountingProbe, Probe, ProbeReport};
use crate::stats::RunStats;
use crate::timeline::{Timeline, TxnEvent};

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
/// seen the transaction yet or already finished with it (writing
/// [`NodeState::Finished`] removes the entry): only the handful of nodes
/// actively working on a transaction occupy memory, instead of a
/// `Vec<NodeState>` of machine size per transaction — the difference
/// between O(in-flight × touched) and O(in-flight × nodes) state on
/// million-node rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    /// The node chose `Forward`; a trailing reply (if any) is also passed
    /// through, marked as filtered.
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
    /// This node's part is done; any further (trailing) reply is stale
    /// information and is discarded (Table 2: "Discard snoop reply").
    /// Never stored: writing it removes the gateway entry.
    Finished,
}

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
    /// link FIFOs, ports and the dynamic protocol maps.
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
struct RttEstimator {
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

    fn sample(&mut self, rtt: Cycles) {
        let err = rtt.0 as i64 - self.srtt;
        self.srtt += err >> 3;
        self.rttvar += (err.abs() - self.rttvar) >> 2;
    }

    fn timeout(&self, floor: Cycles) -> Cycles {
        let rto = self.srtt.saturating_add(4 * self.rttvar).max(0) as u64;
        Cycles(rto.max(floor.0))
    }
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
    /// Whether the issuing core blocks until this transaction completes
    /// (reads do; writes are fire-and-forget).
    blocking: bool,
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

/// One scheduled hot-remove / re-add of a CMP (node churn).
///
/// At `remove_at` the node *detaches*: its cores stop issuing (accesses
/// already pulled from their streams are deferred, not lost) while its
/// gateway hardware keeps forwarding and snooping — the ring stays
/// closed. A **cold** removal (`warm: false`) flushes the CMP's caches:
/// dirty lines write back to their home node over the torus and every
/// copy is invalidated, so the node rejoins with nothing resident. A
/// **warm** removal keeps the caches but demotes any supplier-state copy
/// (`Sg`/`E`/`D`/`T`) to locally-shared `Sl` — writing dirty data back —
/// so no remote request can depend on the detached node for data; the
/// kept copies stay coherent because the gateway still applies write
/// invalidations. At `readd_at` the node re-attaches and its deferred
/// accesses issue.
///
/// In-flight transactions are never cancelled: snoop outcomes are read
/// from the live caches at snoop time, so a purged line simply produces
/// a negative snoop and the requester falls through to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnWindow {
    /// The CMP that leaves and rejoins.
    pub node: CmpId,
    /// Cycle at which the node detaches.
    pub remove_at: Cycle,
    /// Cycle at which the node re-attaches (must be after `remove_at`).
    pub readd_at: Cycle,
    /// Keep the caches across the window (demoted), instead of flushing.
    pub warm: bool,
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
    write_snoops_filtered: u64,
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
        machine.validate()?;
        if streams.len() != machine.total_cores() {
            return Err(format!(
                "expected {} streams, got {}",
                machine.total_cores(),
                streams.len()
            ));
        }
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
            write_snoops_filtered: 0,
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
        let predictor = predictor.unwrap_or_else(|| algorithm.default_predictor());
        let energy = energy_model_for(&predictor);
        let streams: Vec<Box<dyn AccessStream + Send>> = profile
            .streams(seed)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
            .collect();
        Self::new(
            machine,
            algorithm,
            predictor,
            energy,
            streams,
            profile.accesses_per_core,
        )
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
        let nodes = local * groups;
        if nodes == 0 || !profile.cores.is_multiple_of(nodes) {
            return Err(format!(
                "workload cores ({}) must be a multiple of {local}x{groups} nodes",
                profile.cores
            ));
        }
        let machine = MachineConfig {
            nodes,
            ring: crate::config::RingParams {
                hier: Some(crate::config::default_hier(local, groups)),
                ..MachineConfig::isca2006(1).ring
            },
            ..MachineConfig::isca2006(profile.cores / nodes)
        };
        let predictor = predictor.unwrap_or_else(|| algorithm.default_predictor());
        let energy = energy_model_for(&predictor);
        let streams: Vec<Box<dyn AccessStream + Send>> = profile
            .streams(seed)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
            .collect();
        Self::new(
            machine,
            algorithm,
            predictor,
            energy,
            streams,
            profile.accesses_per_core,
        )
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
    /// Panics if the simulation has already started.
    pub fn use_event_queue(&mut self, kind: QueueKind) {
        assert!(
            !self.finished && self.sched.is_empty(),
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

    /// Write-snoop invalidations skipped by the presence filter (only
    /// non-zero when `policy.write_filtering` is on).
    pub fn write_snoops_filtered(&self) -> u64 {
        self.write_snoops_filtered
    }

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

    /// Arms node-churn windows (see [`ChurnWindow`]): each detaches one
    /// CMP at `remove_at` and re-attaches it at `readd_at`. The detach
    /// and re-add events are scheduled up front when the run is primed,
    /// so their order relative to same-cycle traffic is fixed by
    /// insertion sequence and every queue backend replays it
    /// identically. Call before [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Returns a message if a window names a node outside the machine,
    /// re-adds at or before its removal, or overlaps another window on
    /// the same node.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already started.
    pub fn set_churn_plan(&mut self, windows: Vec<ChurnWindow>) -> Result<(), String> {
        assert!(
            !self.started && !self.finished && self.sched.is_empty(),
            "set_churn_plan() must be called before run()"
        );
        for w in &windows {
            if w.node.0 >= self.cfg.nodes {
                return Err(format!(
                    "churn window names node {} but the machine has {} nodes",
                    w.node.0, self.cfg.nodes
                ));
            }
            if w.remove_at >= w.readd_at {
                return Err(format!(
                    "churn window on node {} must re-add after it removes ({} >= {})",
                    w.node.0,
                    w.remove_at.as_u64(),
                    w.readd_at.as_u64()
                ));
            }
        }
        let mut spans: Vec<(usize, Cycle, Cycle)> = windows
            .iter()
            .map(|w| (w.node.0, w.remove_at, w.readd_at))
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[0].0 == pair[1].0 && pair[1].1 < pair[0].2 {
                return Err(format!("churn windows on node {} overlap", pair[0].0));
            }
        }
        self.churn = windows;
        Ok(())
    }

    /// The armed churn windows (empty unless [`Self::set_churn_plan`]
    /// was called).
    pub fn churn_plan(&self) -> &[ChurnWindow] {
        &self.churn
    }

    /// Whether `node` is currently detached by a churn window.
    pub fn is_detached(&self, node: CmpId) -> bool {
        self.detached.get(node.0).copied().unwrap_or(false)
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
    fn timeout_window(&self, requester: CmpId, attempt: u32) -> Cycles {
        let base = match self.cfg.recovery.timeout_policy {
            TimeoutPolicy::Static => self.timeout_base,
            TimeoutPolicy::Adaptive => self.rtt[requester.0].timeout(self.timeout_floor),
        };
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

    /// Predictions corrupted by armed
    /// [`flexsnoop_predictor::FaultInjectingPredictor`] wrappers, summed
    /// over all nodes.
    pub fn injected_prediction_faults(&self) -> u64 {
        self.predictors.injected_faults_total()
    }

    /// The coherence state of `line` in one core's L2 (for inspection and
    /// testing).
    pub fn line_state(&self, node: CmpId, core: usize, line: LineAddr) -> CoherState {
        self.cmps[node.0].l2(core).state_of(line)
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

    // ----- core-side handling ----------------------------------------------

    fn on_core_issue(&mut self, core: usize, access: MemAccess, replay: bool, now: Cycle) {
        let node = self.cmp_of(core);
        if self.detached[node.0] {
            // The node is churned out and its cores are quiesced: park
            // the access (verbatim) at the re-add cycle. The matching
            // ChurnReadd event carries an earlier insertion sequence, so
            // the deferred issue dispatches on an attached node.
            let readd = self
                .churn
                .iter()
                .filter(|w| w.node == node && w.readd_at >= now)
                .map(|w| w.readd_at)
                .min()
                .expect("detached node has no pending re-add");
            self.sched.schedule_at(
                readd,
                Event::CoreIssue {
                    core,
                    access,
                    replay,
                },
            );
            return;
        }
        if access.write {
            self.handle_write(core, access, replay, now);
        } else {
            self.handle_read(core, access, replay, now);
        }
    }

    /// Hot-removes a CMP (see [`ChurnWindow`]). Cold: flush — write back
    /// every dirty line to its home over the torus, invalidate every
    /// copy. Warm: demote — supplier-state copies step down to `Sl`
    /// (writing back if dirty) so the machine never depends on the
    /// detached node for data, while clean sharers stay resident.
    /// Either way the predictor bank and presence filters are kept in
    /// sync through the usual mutation helpers, so other nodes stop
    /// predicting this node as a supplier immediately.
    fn on_churn_detach(&mut self, node: CmpId, warm: bool, now: Cycle) {
        self.detached[node.0] = true;
        self.stats.robustness.churn_detaches += 1;
        for line in self.cmps[node.0].resident_lines() {
            let supplier = self.cmps[node.0].supplier_of(line);
            if let Some((_, st)) = supplier {
                if st.is_dirty() {
                    // Churn write-backs are program traffic, like capacity
                    // evictions — not charged to the snoop-energy account.
                    self.stats.eviction_writebacks += 1;
                    let home = CmpId(line.home_node(self.cfg.nodes));
                    let _ = self.torus.send(node, home, now);
                }
            }
            if warm {
                if let Some((core, st)) = supplier {
                    let (new, _) = st.after_downgrade();
                    self.transition(node, core, line, new);
                }
            } else {
                self.invalidate_cmp(node, line);
            }
        }
    }

    /// Re-attaches a churned-out CMP; the deferred core issues parked at
    /// this cycle dispatch right after (they were scheduled later, so
    /// they pop later).
    fn on_churn_readd(&mut self, node: CmpId) {
        self.detached[node.0] = false;
        self.stats.robustness.churn_readds += 1;
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
        // Hierarchical reads consult the requester group's locality
        // table: a local prediction lets the snoop circulate inside the
        // group only (escalating on a miss); writes always invalidate
        // machine-wide. Flat topologies have no table and stay Global.
        let scope = if op == TxnOp::Read && !self.locality.is_empty() {
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
        } else {
            SnoopScope::Global
        };
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
            blocking,
            fill_state: CoherState::Sg,
            attempt: 0,
            attempt_start: leave,
            emit_seq: 0,
            seen_seqs: Vec::new(),
            scope,
            retried: false,
        });
        self.txn_event(id, now, TxnEvent::Issued { node: requester });
        let msg = RingMsg {
            txn: id,
            line,
            op,
            requester,
            kind: MsgKind::Combined(ReplyInfo::start()),
            attempt: 0,
            seq: 0,
            scope,
            via_global: false,
        };
        self.send_ring(msg, requester, leave, op);
        if self.unreliable && self.recovery {
            self.sched.schedule_at(
                leave + self.timeout_window(requester, 0),
                Event::Timeout {
                    txn: id,
                    attempt: 0,
                },
            );
        }
    }

    // ----- ring transport ----------------------------------------------------

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
    fn send_ring(&mut self, mut msg: RingMsg, from: CmpId, leave: Cycle, op: TxnOp) {
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
        // link energy are charged even when the fault plan eats it.
        match op {
            TxnOp::Read => self.stats.read_ring_hops += 1,
            TxnOp::Write => self.stats.write_ring_hops += 1,
        }
        self.stats.energy.add(EnergyCategory::RingLink, 1);
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
            match op {
                TxnOp::Read => self.stats.read_ring_hops += 1,
                TxnOp::Write => self.stats.write_ring_hops += 1,
            }
            self.stats.energy.add(EnergyCategory::RingLink, 1);
            if let Some(p) = self.probe.as_deref_mut() {
                p.ring_hop(dup_at - leave);
            }
            self.sched
                .schedule_at(dup_at, Event::RingArrive { msg, node });
        }
    }

    /// Gatekeeper for deliveries on an unreliable ring: discards messages
    /// for retired transactions, messages from superseded attempts, and
    /// injected duplicates (an `(attempt, seq)` pair seen before).
    ///
    /// `node` is where the delivery landed: a stale *reply* reaching the
    /// requester means the superseded circulation actually completed, so
    /// the retry that superseded it was spurious — the hindsight signal
    /// the adaptive timeout policy is built to minimize.
    fn accept_delivery(&mut self, msg: &RingMsg, node: CmpId) -> bool {
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

    /// Reports one step of transaction `txn` to the probe (a
    /// [`Timeline`] records it).
    fn txn_event(&mut self, txn: TxnId, at: Cycle, event: TxnEvent) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.txn_event(txn, at, event);
        }
    }

    /// Bookkeeping for a `MemData` / `DataArrive` event just scheduled for
    /// `txn_id`; see [`Txn::data_pending`].
    fn note_data_scheduled(&mut self, txn_id: TxnId) {
        if let Some(txn) = self.txns.get_mut(txn_id) {
            txn.data_pending += 1;
        }
    }

    /// Counterpart of [`Simulator::note_data_scheduled`], at event firing.
    fn note_data_fired(&mut self, txn_id: TxnId) {
        if let Some(txn) = self.txns.get_mut(txn_id) {
            txn.data_pending = txn.data_pending.saturating_sub(1);
        }
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
    fn on_timeout(&mut self, txn_id: TxnId, attempt: u32, now: Cycle) {
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
        let op = txn.op;
        let requester = txn.requester;
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
        txn.attempt = new_attempt;
        txn.attempt_start = leave;
        txn.emit_seq = 0;
        txn.seen_seqs.clear();
        // Retries always circulate globally: recovery must reach every
        // potential supplier, and their ring hops are charged to the
        // recovery-overhead energy bucket.
        txn.scope = SnoopScope::Global;
        txn.retried = true;
        if had_reply {
            // Data-phase retry: the ring answered but the torus lost the
            // data. Re-run the whole transaction; any straggler data from
            // the old attempt is real (memory or a supplier sent it) and
            // a double fill is benign.
            txn.reply_info = None;
            txn.data_sent = false;
        }
        // The new circulation restarts Table 2's per-node bookkeeping;
        // deliveries and snoop completions of the old one are discarded by
        // their stale attempt tag.
        for node in txn.engaged.drain(..) {
            self.gateway.remove(&(txn_id, node));
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
        let msg = RingMsg {
            txn: txn_id,
            line,
            op,
            requester,
            kind: MsgKind::Combined(ReplyInfo::start()),
            attempt: new_attempt,
            seq: 0,
            scope: SnoopScope::Global,
            via_global: false,
        };
        self.send_ring(msg, requester, leave, op);
        self.sched.schedule_at(
            leave + self.timeout_window(requester, new_attempt),
            Event::Timeout {
                txn: txn_id,
                attempt: new_attempt,
            },
        );
    }

    /// A local-scope circulation returned to the requester without
    /// finding a supplier. The locality prediction was wrong (or the
    /// line lives in memory): abandon the local attempt and re-issue a
    /// full global circulation so every potential supplier is still
    /// visited — the paper's correctness guarantee. This is not a fault
    /// retry: `retried` stays false and no robustness counters move,
    /// but the attempt number bumps so any stale per-attempt events of
    /// the local lap are discarded on unreliable rings.
    fn escalate(&mut self, txn_id: TxnId, now: Cycle) {
        let txn = self.txns.get(txn_id).expect("escalating a live txn");
        let line = txn.line;
        let requester = txn.requester;
        let op = txn.op;
        self.stats.escalations += 1;
        if let Some(p) = self.probe.as_deref_mut() {
            p.escalation();
        }
        let group = self.ring.group_of(requester);
        self.locality[group].train(line, false);
        self.txn_event(txn_id, now, TxnEvent::Escalated);
        let leave = now + self.cfg.timing.gateway_latency;
        let txn = self.txns.get_mut(txn_id).expect("txn checked above");
        txn.scope = SnoopScope::Global;
        txn.attempt += 1;
        txn.attempt_start = leave;
        txn.emit_seq = 0;
        txn.seen_seqs.clear();
        txn.reply_info = None;
        let attempt = txn.attempt;
        for node in txn.engaged.drain(..) {
            self.gateway.remove(&(txn_id, node));
        }
        let msg = RingMsg {
            txn: txn_id,
            line,
            op,
            requester,
            kind: MsgKind::Combined(ReplyInfo::start()),
            attempt,
            seq: 0,
            scope: SnoopScope::Global,
            via_global: false,
        };
        self.send_ring(msg, requester, leave, op);
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

    fn on_ring_arrive(&mut self, msg: RingMsg, node: CmpId, now: Cycle) {
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
            self.send_ring(msg, node, now + self.cfg.timing.gateway_latency, msg.op);
            return;
        }
        if node == msg.requester {
            self.on_ring_return(msg, now);
            return;
        }
        // Home-node prefetch: the gateway sees every passing read message.
        if self.cfg.memory.home_prefetch && msg.op == TxnOp::Read {
            let home = CmpId(msg.line.home_node(self.cfg.nodes));
            if node == home {
                if let Some(txn) = self.txns.get(msg.txn) {
                    if txn.prefetch_ready.is_none() {
                        let grant = self.mem_ports[home.0].acquire(now, self.cfg.memory.occupancy);
                        let ready = grant.start
                            + self.cfg.memory.dram_latency
                            + self.cfg.memory.controller_overhead;
                        if let Some(txn) = self.txns.get_mut(msg.txn) {
                            txn.prefetch_ready = Some(ready);
                        }
                        self.txn_event(
                            msg.txn,
                            now,
                            TxnEvent::MemoryStarted {
                                home,
                                prefetch: true,
                            },
                        );
                    }
                }
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
                self.set_node_state(msg.txn, node, NodeState::Finished);
                self.send_ring(
                    msg,
                    node,
                    now + self.cfg.timing.gateway_latency,
                    TxnOp::Read,
                );
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
        let acc = match msg.kind {
            MsgKind::Combined(info) => Some(info),
            _ => None,
        };
        let mut proc = self.cfg.timing.gateway_latency;
        let action = if self.unreliable && self.degraded_lines.contains_key(&line) {
            // Degraded mode (retry cap exhausted once for this line):
            // always snoop-then-forward, Lazy's always-correct primitive,
            // so no prediction can filter past a supplier while the ring
            // is actively losing messages. Probation (see
            // [`Self::try_retire`]) lifts this once the line strings
            // together enough clean circulations.
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
                match acc {
                    Some(mut info) => {
                        info.mark_filtered();
                        self.set_node_state(msg.txn, node, NodeState::Finished);
                        let out = RingMsg {
                            kind: MsgKind::Combined(info),
                            ..msg
                        };
                        self.send_ring(out, node, now + proc, TxnOp::Read);
                    }
                    None => {
                        // Split request: pass it on; the trailing reply will
                        // be marked as filtered when it comes through.
                        self.set_node_state(msg.txn, node, NodeState::PassThrough);
                        let out = RingMsg {
                            kind: MsgKind::Request,
                            ..msg
                        };
                        self.send_ring(out, node, now + proc, TxnOp::Read);
                    }
                }
            }
            SnoopAction::ForwardThenSnoop => {
                let out = RingMsg {
                    kind: MsgKind::Request,
                    ..msg
                };
                self.send_ring(out, node, now + proc, TxnOp::Read);
                self.begin_snoop(msg.txn, node, now + proc, false, acc, msg.attempt);
            }
            SnoopAction::SnoopThenForward => {
                self.begin_snoop(msg.txn, node, now + proc, true, acc, msg.attempt);
            }
        }
    }

    fn begin_snoop(
        &mut self,
        txn: TxnId,
        node: CmpId,
        start: Cycle,
        combine_out: bool,
        acc: Option<ReplyInfo>,
        attempt: u32,
    ) {
        self.set_node_state(
            txn,
            node,
            NodeState::Snooping {
                acc,
                combine_out,
                buffered: None,
            },
        );
        self.txn_event(txn, start, TxnEvent::SnoopStarted { node });
        let grant = self.snoop_ports[node.0].acquire(start, self.cfg.timing.snoop_occupancy);
        self.sched.schedule_at(
            grant.start + self.cfg.timing.snoop_time,
            Event::SnoopDone { txn, node, attempt },
        );
    }

    fn on_snoop_done(&mut self, txn_id: TxnId, node: CmpId, attempt: u32, now: Cycle) {
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
            if !self.locality.is_empty() {
                // Ground truth for the requester group's locality table:
                // the supplier was (not) inside the requester's ring.
                let group = self.ring.group_of(requester);
                let was_local = self.ring.group_of(node) == group;
                self.locality[group].train(line, was_local);
            }
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

    /// Emits this node's outgoing message for a read transaction and marks
    /// the node finished.
    fn finish_node(
        &mut self,
        txn_id: TxnId,
        node: CmpId,
        info: ReplyInfo,
        combine_out: bool,
        now: Cycle,
    ) {
        self.set_node_state(txn_id, node, NodeState::Finished);
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
        self.send_ring(
            msg,
            node,
            now + self.cfg.timing.gateway_latency,
            TxnOp::Read,
        );
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
                self.send_ring(
                    out,
                    node,
                    now + self.cfg.timing.gateway_latency,
                    TxnOp::Read,
                );
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
            Some(NodeState::Finished) => unreachable!("Finished is never stored"),
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
                let acc = msg.kind.info();
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
                        match acc {
                            Some(info) => {
                                let out = RingMsg {
                                    kind: MsgKind::Combined(info),
                                    ..msg
                                };
                                self.set_node_state(msg.txn, node, NodeState::Finished);
                                self.send_ring(out, node, now + proc, TxnOp::Write);
                            }
                            None => {
                                self.set_node_state(msg.txn, node, NodeState::PassThrough);
                                let out = RingMsg {
                                    kind: MsgKind::Request,
                                    ..msg
                                };
                                self.send_ring(out, node, now + proc, TxnOp::Write);
                            }
                        }
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
                    self.send_ring(out, node, now + proc, TxnOp::Write);
                    self.begin_write_snoop(msg.txn, node, now + proc, false, acc, msg.attempt);
                } else {
                    self.begin_write_snoop(msg.txn, node, now + proc, true, acc, msg.attempt);
                }
            }
        }
    }

    fn begin_write_snoop(
        &mut self,
        txn: TxnId,
        node: CmpId,
        start: Cycle,
        combine_out: bool,
        acc: Option<ReplyInfo>,
        attempt: u32,
    ) {
        self.set_node_state(
            txn,
            node,
            NodeState::Snooping {
                acc,
                combine_out,
                buffered: None,
            },
        );
        self.txn_event(txn, start, TxnEvent::SnoopStarted { node });
        let grant = self.snoop_ports[node.0].acquire(start, self.cfg.timing.snoop_occupancy);
        self.sched.schedule_at(
            grant.start + self.cfg.timing.snoop_time,
            Event::WriteSnoopDone { txn, node, attempt },
        );
    }

    fn on_write_snoop_done(&mut self, txn_id: TxnId, node: CmpId, attempt: u32, now: Cycle) {
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
        self.finish_write_node(txn_id, node, info, combine_out, now);
    }

    fn finish_write_node(
        &mut self,
        txn_id: TxnId,
        node: CmpId,
        info: ReplyInfo,
        combine_out: bool,
        now: Cycle,
    ) {
        self.set_node_state(txn_id, node, NodeState::Finished);
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
            op: TxnOp::Write,
            requester: txn.requester,
            kind,
            attempt: 0, // restamped by send_ring on an unreliable ring
            seq: 0,
            scope: txn.scope,
            via_global: false,
        };
        self.send_ring(
            msg,
            node,
            now + self.cfg.timing.gateway_latency,
            TxnOp::Write,
        );
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
                self.finish_write_node(msg.txn, node, info, combine_out, now);
            }
            Some(NodeState::Finished) => unreachable!("Finished is never stored"),
            Some(NodeState::PassThrough) => {
                // This node filtered the write (presence says no copy);
                // pass the trailing reply through untouched.
                let out = RingMsg {
                    kind: MsgKind::Reply(info),
                    ..msg
                };
                self.send_ring(
                    out,
                    node,
                    now + self.cfg.timing.gateway_latency,
                    TxnOp::Write,
                );
            }
            None => {
                // Already finished here (stale information), or orphaned
                // by a dropped leading request (see the read-side twin
                // above): discard; a timeout re-issues the write if the
                // circulation really was lost.
            }
        }
    }

    // ----- messages returning to the requester --------------------------------

    fn on_ring_return(&mut self, msg: RingMsg, now: Cycle) {
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
        if !self.locality.is_empty() {
            // No cache supplier anywhere: train the requester group
            // remote so the line keeps circulating globally until a
            // local supply proves otherwise.
            let t = self.txns.get(txn_id).expect("txn exists");
            let (requester, line) = (t.requester, t.line);
            let group = self.ring.group_of(requester);
            self.locality[group].train(line, false);
        }
        let txn = self.txns.get_mut(txn_id).expect("txn exists");
        txn.fill_state = if self.cfg.policy.exclusive_fill && info.proves_exclusive() {
            CoherState::E
        } else {
            CoherState::Sg
        };
        let line = txn.line;
        let requester = txn.requester;
        let home = CmpId(line.home_node(self.cfg.nodes));
        let prefetch = txn.prefetch_ready;
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
        let node = txn.requester;
        let core = txn.core;
        let line = txn.line;
        let local = self.local_idx(core);
        let write_data = txn.write_data;
        let data_arrived = txn.data_arrived;
        match write_data {
            WriteData::Local => {
                // Upgrade or local copy: all remote copies are now invalid;
                // clear other local copies and own the line dirty.
                self.complete_write_fill(node, local, line);
                self.resume_core(txn_id, now);
                self.try_retire(txn_id, now);
            }
            WriteData::Remote => {
                if info.found {
                    // A remote cache donated the data.
                    if data_arrived.is_some() {
                        self.complete_write_fill(node, local, line);
                        self.resume_core(txn_id, now);
                        self.try_retire(txn_id, now);
                    }
                    // else: DataArrive will complete the write.
                } else {
                    // Write-allocate from memory.
                    let home = CmpId(line.home_node(self.cfg.nodes));
                    let prefetch = self.txns.get(txn_id).and_then(|t| t.prefetch_ready);
                    if self.downgraded.remove(&line) {
                        self.stats.downgrade_rereads += 1;
                        self.stats.energy.add(EnergyCategory::MemRead, 1);
                    }
                    // Same idempotent memory path as the read side: every
                    // leg is faultable; a timeout re-drives the write.
                    let data_at = match prefetch {
                        Some(ready) => self.torus.send_outcome(home, node, now.max(ready)),
                        None => match self.torus.send_outcome(node, home, now) {
                            Some(at_home) => {
                                let grant = self.mem_ports[home.0]
                                    .acquire(at_home, self.cfg.memory.occupancy);
                                let done = grant.start
                                    + self.cfg.memory.dram_latency
                                    + self.cfg.memory.controller_overhead;
                                self.torus.send_outcome(home, node, done)
                            }
                            None => None,
                        },
                    };
                    if let Some(at) = data_at {
                        self.sched.schedule_at(at, Event::MemData { txn: txn_id });
                        self.note_data_scheduled(txn_id);
                    }
                }
            }
        }
    }

    /// Installs the written line dirty in the writer's L2, clearing any
    /// other copy in the writer's CMP.
    fn complete_write_fill(&mut self, node: CmpId, local: usize, line: LineAddr) {
        // Clear every local copy (including a stale own copy), then own it.
        self.invalidate_cmp(node, line);
        self.fill_line(node, local, line, CoherState::D);
    }

    fn on_data_arrive(&mut self, txn_id: TxnId, now: Cycle) {
        let Some(txn) = self.txns.get_mut(txn_id) else {
            return;
        };
        txn.data_pending = txn.data_pending.saturating_sub(1);
        txn.data_arrived = Some(now);
        let op = txn.op;
        let node = txn.requester;
        let core = txn.core;
        let line = txn.line;
        let reply_returned = txn.reply_info.is_some();
        self.txn_event(txn_id, now, TxnEvent::DataArrived);
        let local = self.local_idx(core);
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
                self.fill_line(node, local, line, state);
                self.resume_core(txn_id, now);
                self.try_retire(txn_id, now);
            }
            TxnOp::Write => {
                if reply_returned {
                    self.complete_write_fill(node, local, line);
                    self.resume_core(txn_id, now);
                    self.try_retire(txn_id, now);
                }
                // else: completion happens when the reply returns.
            }
        }
    }

    fn on_mem_data(&mut self, txn_id: TxnId, now: Cycle) {
        self.note_data_fired(txn_id);
        let Some(txn) = self.txns.get(txn_id) else {
            return;
        };
        let node = txn.requester;
        let core = txn.core;
        let line = txn.line;
        let local = self.local_idx(core);
        match txn.op {
            TxnOp::Read => {
                match self.memory_fill_state(node, line, txn.fill_state) {
                    Some(fill) => self.fill_line(node, local, line, fill),
                    None => {
                        // A dirty or exclusive copy appeared while this read
                        // was in flight (a concurrent transaction won the
                        // race): the memory data is unusable. This is the
                        // collision-squash case — retire the transaction
                        // and retry the read, which will now find the
                        // supplier.
                        self.stats.collisions += 1;
                        if let Some(t) = self.txns.get_mut(txn_id) {
                            t.resumed = true; // the retry resumes the core
                        }
                        self.try_retire(txn_id, now);
                        // `replay: true`: the original issue already took
                        // the load-queue slot; the retry must not recount.
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
            }
            TxnOp::Write => {
                self.complete_write_fill(node, local, line);
            }
        }
        self.resume_core(txn_id, now);
        self.try_retire(txn_id, now);
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
                let st = cmp.l2(c).state_of(line);
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
        let blocking = txn.blocking;
        if txn.op == TxnOp::Read {
            self.stats.read_latency.record((now - issued_at).as_u64());
        }
        self.txn_event(txn_id, now, TxnEvent::Completed);
        if blocking {
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
        // Probation: a retry-free retirement on a degraded line is one
        // clean circulation; a full window of them re-arms the Table 3
        // algorithm for the line. Retired retries neither count nor
        // reset — their timeouts already reset the counter.
        if self.unreliable && attempt == 0 {
            if let Some(clean) = self.degraded_lines.get_mut(&line) {
                *clean += 1;
                if *clean >= self.cfg.recovery.probation_window {
                    self.degraded_lines.remove(&line);
                    self.stats.robustness.probation_exits += 1;
                    self.stats.robustness.last_probation_exit_cycle = now.as_u64();
                }
            }
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

    /// Writes one node's gateway state for `txn` into the sparse map.
    /// `Finished` removes the entry (absence ≡ finished-or-untouched);
    /// a fresh insert is recorded on the transaction's `engaged` list so
    /// retirement and retries clean up in O(entries touched). No-op for
    /// retired transactions, so stale events cannot leak entries.
    fn set_node_state(&mut self, txn: TxnId, node: CmpId, state: NodeState) {
        let Some(t) = self.txns.get_mut(txn) else {
            return;
        };
        let key = (txn, node.0 as u32);
        if state == NodeState::Finished {
            self.gateway.remove(&key);
        } else if self.gateway.insert(key, state).is_none() {
            t.engaged.push(node.0 as u32);
        }
    }

    // ----- state mutation with predictor maintenance --------------------------

    /// Fills `line` into a core's L2, handling the victim (write-back,
    /// predictor) and predictor gain (with Exact downgrades).
    fn fill_line(&mut self, node: CmpId, local: usize, line: LineAddr, state: CoherState) {
        if self.cfg.policy.write_filtering {
            self.presence[node.0].insert(line);
        }
        let old = self.cmps[node.0].l2(local).state_of(line);
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
        let old = self.cmps[node.0].l2(local).state_of(line);
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
        let dropped = self.cmps[node.0].invalidate_all_counted(line);
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
    /// ports, and the dynamic protocol maps at their current capacity. An
    /// estimate (not an allocator census) — `bench --scale` reports it as
    /// bytes/node to track how per-node cost grows with ring size.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let caches: u64 = self.cmps.iter().map(|c| c.footprint_bytes()).sum();
        let presence: u64 = self
            .presence
            .iter()
            .map(|b| b.storage_bits() as u64 / 8)
            .sum();
        let ports = ((self.snoop_ports.capacity() + self.mem_ports.capacity())
            * size_of::<Resource>()) as u64;
        let dynamic = (self.gateway.capacity() * (size_of::<((TxnId, u32), NodeState)>() + 16)
            + self.residency.capacity() * (size_of::<(LineAddr, LineCopies)>() + 16)
            + self.rtt.capacity() * size_of::<RttEstimator>()) as u64;
        let locality: u64 = self.locality.iter().map(|t| t.footprint_bytes()).sum();
        let total = caches
            + presence
            + ports
            + dynamic
            + locality
            + self.predictors.footprint_bytes()
            + self.ring.footprint_bytes()
            + self.torus.footprint_bytes();
        MemoryFootprint {
            total_bytes: total,
            bytes_per_node: total / self.cfg.nodes.max(1) as u64,
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

    // ----- checkpoint / restore ---------------------------------------------

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
    /// differential harness rewind with a [`Timeline`] installed; it is
    /// also why a probe's counts after a restore cover only the resumed
    /// part.
    ///
    /// Call between [`run_until`](Self::run_until) slices. Restoring
    /// ([`Self::restore_snapshot`]) onto a freshly built simulator of the
    /// same configuration and then running to completion produces
    /// bit-identical [`RunStats`] to the uninterrupted run, regardless of
    /// either side's event-queue backend.
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
        w.put_usize(self.cmps.len());
        for c in &self.cmps {
            c.save_into(&mut w);
        }
        self.predictors.save_into(&mut w);
        w.put_usize(self.presence.len());
        for b in &self.presence {
            b.save_into(&mut w);
        }
        w.put_u64(self.write_snoops_filtered);
        self.ring.save_into(&mut w);
        self.torus.save_into(&mut w);
        w.put_usize(self.snoop_ports.len());
        for p in &self.snoop_ports {
            p.save_into(&mut w);
        }
        w.put_usize(self.mem_ports.len());
        for p in &self.mem_ports {
            p.save_into(&mut w);
        }
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
        w.put_usize(self.rtt.len());
        for e in &self.rtt {
            e.save_into(&mut w);
        }
        w.put_usize(self.locality.len());
        for table in &self.locality {
            table.save_into(&mut w);
        }
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
        if r.get_usize()? != self.cmps.len() {
            return Err(SnapError::Corrupt("CMP count does not match config"));
        }
        for c in &mut self.cmps {
            c.restore_from(&mut r)?;
        }
        self.predictors.restore_from(&mut r)?;
        if r.get_usize()? != self.presence.len() {
            return Err(SnapError::Corrupt(
                "presence-filter count does not match config",
            ));
        }
        for b in &mut self.presence {
            b.restore_from(&mut r)?;
        }
        self.write_snoops_filtered = r.get_u64()?;
        self.ring.restore_from(&mut r)?;
        self.torus.restore_from(&mut r)?;
        if r.get_usize()? != self.snoop_ports.len() {
            return Err(SnapError::Corrupt("snoop-port count does not match config"));
        }
        for p in &mut self.snoop_ports {
            p.restore_from(&mut r)?;
        }
        if r.get_usize()? != self.mem_ports.len() {
            return Err(SnapError::Corrupt(
                "memory-port count does not match config",
            ));
        }
        for p in &mut self.mem_ports {
            p.restore_from(&mut r)?;
        }
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
        if r.get_usize()? != self.rtt.len() {
            return Err(SnapError::Corrupt(
                "round-trip estimator count does not match the armed fault plan",
            ));
        }
        for e in &mut self.rtt {
            e.restore_from(&mut r)?;
        }
        if r.get_usize()? != self.locality.len() {
            return Err(SnapError::Corrupt(
                "locality-table count does not match config",
            ));
        }
        for table in &mut self.locality {
            table.restore_from(&mut r)?;
        }
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
        // Writing Finished removes the gateway entry; it is never stored.
        NodeState::Finished => unreachable!("Finished never occupies the gateway map"),
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
