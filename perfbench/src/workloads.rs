//! The benchmark's workloads: which simulations each one runs, and the
//! inputs (access streams, fault plans) it generates from the seed.
//!
//! Why each workload exists, and which layer it loads or bypasses, is
//! written up in `perfbench/README.md`.

use flexsnoop::config::RingParams;
use flexsnoop::{default_hier, Algorithm, FaultPlan, MachineConfig, PredictorSpec, VecStream};
use flexsnoop_engine::{Cycles, SplitMix64};
use flexsnoop_workload::{
    profiles, AccessStream, LineAddr, MemAccess, WorkloadGroup, WorkloadProfile,
};

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 8-node ISCA-2006 machine over every paper profile and algorithm.
    PaperSuite,
    /// A 1,048,576-node flat ring with eight readers of a 32-line pool.
    Ring1m,
    /// A lossy 8x8 hierarchy with the coherence oracle on.
    HierLossy,
}

/// How big the generated inputs are: `Full` is what the benchmark
/// measures, `Small` the same shapes shrunk for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperSuite, Workload::Ring1m, Workload::HierLossy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::Ring1m => "ring-1m",
            Workload::HierLossy => "hier-lossy",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulations one pass of this workload runs, in a fixed order.
    pub fn specs(self, seed: u64, size: Size) -> Vec<SimSpec> {
        match self {
            Workload::PaperSuite => paper_suite(seed, size),
            Workload::Ring1m => ring_1m(seed, size),
            Workload::HierLossy => hier_lossy(seed, size),
        }
    }
}

/// Where a simulation's access streams come from.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// One synthetic stream per core of the profile.
    Profile(WorkloadProfile, u64),
    /// Explicit read lists for a few requester cores; every other core of
    /// the machine is idle.
    Reads(Vec<(usize, Vec<LineAddr>)>),
}

/// Everything needed to build one simulation.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub label: String,
    /// The paper's reporting group (paper-suite only).
    pub group: Option<WorkloadGroup>,
    pub machine: MachineConfig,
    pub algorithm: Algorithm,
    pub predictor: PredictorSpec,
    /// Accesses each core may issue.
    pub limit: u64,
    pub fault_plan: Option<FaultPlan>,
    /// Run the per-retirement coherence oracle.
    pub oracle: bool,
    pub inputs: Inputs,
    /// The run is timed in slices of this many simulated cycles, so the
    /// benchmark can take each slice's fastest time over its passes.
    pub slice: Cycles,
}

impl SimSpec {
    fn new(label: String, machine: MachineConfig, algorithm: Algorithm, inputs: Inputs) -> Self {
        let limit = match &inputs {
            Inputs::Profile(p, _) => p.accesses_per_core,
            Inputs::Reads(reads) => reads.iter().map(|(_, r)| r.len() as u64).max().unwrap_or(0),
        };
        SimSpec {
            label,
            group: None,
            machine,
            algorithm,
            predictor: algorithm.default_predictor(),
            limit,
            fault_plan: None,
            oracle: false,
            inputs,
            slice: Cycles(u64::MAX),
        }
    }

    /// Accesses the simulation must retire when it completes.
    pub fn expected_accesses(&self) -> u64 {
        match &self.inputs {
            Inputs::Profile(p, _) => p.cores as u64 * self.limit,
            Inputs::Reads(reads) => reads.iter().map(|(_, r)| r.len() as u64).sum(),
        }
    }

    /// Generates the access streams, one per core.
    pub fn streams(&self) -> Vec<Box<dyn AccessStream + Send>> {
        match &self.inputs {
            Inputs::Profile(profile, seed) => profile
                .streams(*seed)
                .into_iter()
                .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
                .collect(),
            Inputs::Reads(reads) => {
                let mut streams: Vec<Box<dyn AccessStream + Send>> = (0..self
                    .machine
                    .total_cores())
                    .map(|_| Box::new(VecStream::new(Vec::new())) as Box<dyn AccessStream + Send>)
                    .collect();
                for (core, lines) in reads {
                    let accesses = lines
                        .iter()
                        .map(|&l| MemAccess::read(l, Cycles(10)))
                        .collect();
                    streams[*core] = Box::new(VecStream::new(accesses));
                }
                streams
            }
        }
    }
}

/// Paper Table 4 machine, 8 CMPs, for a profile (as `Simulator::for_workload`).
fn paper_machine(profile: &WorkloadProfile, nodes: usize) -> MachineConfig {
    MachineConfig {
        nodes,
        ..MachineConfig::isca2006(profile.cores / nodes)
    }
}

fn paper_suite(seed: u64, size: Size) -> Vec<SimSpec> {
    let accesses = match size {
        Size::Full => 500,
        Size::Small => 60,
    };
    let mut specs = Vec::new();
    for profile in profiles::all() {
        let profile = profile.with_accesses(accesses);
        for algorithm in Algorithm::PAPER_SET {
            let mut spec = SimSpec::new(
                format!("{}/{algorithm}", profile.name),
                paper_machine(&profile, 8),
                algorithm,
                Inputs::Profile(profile.clone(), seed),
            );
            spec.group = Some(profile.group);
            specs.push(spec);
        }
    }
    specs
}

/// Readers and pool of the ring-scaling shape (`flexsnoop bench --scale`).
const RING_REQUESTERS: usize = 8;
const RING_POOL_LINES: u64 = 32;
const RING_READS: usize = 2;

fn ring_1m(seed: u64, size: Size) -> Vec<SimSpec> {
    let nodes = match size {
        Size::Full => 1 << 20,
        Size::Small => 1 << 12,
    };
    // The seed places the pool (and so every line's home node) and picks
    // which pool line each reader starts at; requesters stay evenly spaced.
    let mut rng = SplitMix64::new(seed);
    let base = rng.next_below(1 << 32);
    let start = rng.next_below(RING_POOL_LINES);
    let reads: Vec<(usize, Vec<LineAddr>)> = (0..RING_REQUESTERS)
        .map(|i| {
            let lines = (0..RING_READS as u64)
                .map(|k| LineAddr(base + (start + i as u64 + k) % RING_POOL_LINES))
                .collect();
            (i * nodes / RING_REQUESTERS, lines)
        })
        .collect();
    [
        (Algorithm::Lazy, PredictorSpec::None),
        (Algorithm::Subset, PredictorSpec::Subset { entries: 8 }),
    ]
    .into_iter()
    .map(|(algorithm, predictor)| {
        let mut spec = SimSpec::new(
            format!("ring{nodes}/{algorithm}"),
            MachineConfig::scale(nodes),
            algorithm,
            Inputs::Reads(reads.clone()),
        );
        spec.predictor = predictor;
        // About 0.1 s of host time per slice.
        spec.slice = Cycles(5_000_000);
        spec
    })
    .collect()
}

const HIER_LOCAL: usize = 8;
const HIER_GROUPS: usize = 8;

fn hier_lossy(seed: u64, size: Size) -> Vec<SimSpec> {
    let accesses = match size {
        Size::Full => 1_000,
        Size::Small => 300,
    };
    let nodes = HIER_LOCAL * HIER_GROUPS;
    let profile = profiles::consolidated()
        .with_cores(nodes)
        .with_cluster(HIER_LOCAL)
        .with_accesses(accesses);
    // Bridge crossings drop at a rate that retries a few percent of
    // transactions; the budget never runs out within a run.
    let mut plan = FaultPlan::lossless();
    plan.seed = seed ^ 0xB21D_6E5A;
    plan.bridge_drop = 0.002;
    plan.bridge_budget = u64::MAX;
    let machine = MachineConfig {
        nodes,
        ring: RingParams {
            hier: Some(default_hier(HIER_LOCAL, HIER_GROUPS)),
            ..MachineConfig::isca2006(1).ring
        },
        ..MachineConfig::isca2006(profile.cores / nodes)
    };
    [Algorithm::Subset, Algorithm::SupersetAgg]
        .into_iter()
        .map(|algorithm| {
            let mut spec = SimSpec::new(
                format!("hier{HIER_LOCAL}x{HIER_GROUPS}/{algorithm}"),
                machine,
                algorithm,
                Inputs::Profile(profile.clone(), seed),
            );
            spec.fault_plan = Some(plan.clone());
            spec.oracle = true;
            // About 0.1 s of host time per slice.
            spec.slice = Cycles(150_000);
            spec
        })
        .collect()
}
