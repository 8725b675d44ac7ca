//! Determinism regression tests: the performance machinery (bucketed
//! event queue, bounded run slices, bounded executor) must never change
//! simulation results.
//!
//! Every test compares complete [`RunStats`] values — counters, latency
//! histogram, energy account and exact execution cycles — so any drift in
//! event ordering shows up as a hard failure, not a statistical blip.

use flexsnoop::{
    energy_model_for, run_algorithms, Algorithm, FaultPlan, MachineConfig, RunStats, Simulator,
    VecStream,
};
use flexsnoop_engine::executor::set_default_threads;
use flexsnoop_engine::{Cycle, Cycles, QueueKind, SplitMix64};
use flexsnoop_workload::{profiles, AccessStream, LineAddr, MemAccess};

const SEED: u64 = 20060617;

fn run_with_queue(kind: QueueKind, algorithm: Algorithm, seed: u64) -> RunStats {
    let workload = profiles::specweb().with_accesses(600);
    let mut sim = Simulator::for_workload(&workload, algorithm, None, seed).expect("valid config");
    sim.use_event_queue(kind);
    sim.run()
}

/// A zero-think-time storm over a tiny shared line pool: every core
/// issues at cycle 0 and keeps issuing back-to-back, so nearly every
/// cycle carries several same-time events (issues, ring arrivals, snoop
/// completions) plus same-line collisions. Same-cycle ties are where
/// the two queue backends could part ways, so the FIFO tie-break is
/// exercised far harder here than by a calibrated workload.
fn storm_with_queue(kind: QueueKind, algorithm: Algorithm) -> RunStats {
    const CORES: usize = 8;
    const ACCESSES: usize = 40;
    let streams: Vec<Box<dyn AccessStream + Send>> = (0..CORES)
        .map(|c| {
            let accesses = (0..ACCESSES)
                .map(|i| {
                    // Five hot lines shared by all eight nodes; a third of
                    // the accesses are writes, forcing invalidations.
                    let line = LineAddr(((c + i) % 5) as u64);
                    if (c + i) % 3 == 0 {
                        MemAccess::write(line, Cycles(0))
                    } else {
                        MemAccess::read(line, Cycles(0))
                    }
                })
                .collect();
            Box::new(VecStream::new(accesses)) as Box<dyn AccessStream + Send>
        })
        .collect();
    let predictor = algorithm.default_predictor();
    let energy = energy_model_for(&predictor);
    let mut sim = Simulator::new(
        MachineConfig::scale(CORES),
        algorithm,
        predictor,
        energy,
        streams,
        ACCESSES as u64,
    )
    .expect("storm machine configures");
    sim.use_event_queue(kind);
    let stats = sim.run();
    sim.validate_coherence().expect("coherent final state");
    stats
}

/// Every core of a 4,096-node scale ring issues its first read at the
/// same cycle, so one near-wheel bucket holds 4,096 events. The reads
/// then circulate in lockstep, so each hop wave again lands thousands of
/// events on one cycle. A whole run dispatches about 50M events, too many
/// for a debug-build test, so this runs past the first near-wheel
/// rotation and stops. Returns the stats so far and a snapshot, which
/// holds every pending event in pop order.
fn same_cycle_burst_with_queue(kind: QueueKind) -> (RunStats, Vec<u8>) {
    const NODES: usize = 4096;
    const ISSUE_AT: Cycle = Cycle::new(10);
    let streams: Vec<Box<dyn AccessStream + Send>> = (0..NODES)
        .map(|c| {
            let read = MemAccess::read(LineAddr((c % 32) as u64), Cycles(ISSUE_AT.as_u64()));
            Box::new(VecStream::new(vec![read])) as Box<dyn AccessStream + Send>
        })
        .collect();
    let algorithm = Algorithm::Subset;
    let predictor = algorithm.default_predictor();
    let energy = energy_model_for(&predictor);
    let mut sim = Simulator::new(
        MachineConfig::scale(NODES),
        algorithm,
        predictor,
        energy,
        streams,
        1,
    )
    .expect("burst machine configures");
    sim.use_event_queue(kind);
    sim.run_until(Some(ISSUE_AT));
    assert_eq!(
        sim.stats().events,
        0,
        "{kind:?}: dispatched before the burst"
    );
    assert_eq!(sim.pending_events(), NODES, "{kind:?}: burst not pending");
    sim.run_until(Some(Cycle::new(5_000)));
    (sim.stats().clone(), sim.save_snapshot())
}

#[test]
fn heap_and_bucketed_queues_give_identical_stats() {
    // The two queue implementations must dispatch events in the identical
    // (time, insertion order) sequence for every algorithm class: a pure
    // forwarder, a filtering predictor user, and the adaptive superset.
    for algorithm in [Algorithm::Lazy, Algorithm::Subset, Algorithm::SupersetAgg] {
        let heap = run_with_queue(QueueKind::Heap, algorithm, SEED);
        let bucketed = run_with_queue(QueueKind::Bucketed, algorithm, SEED);
        assert_eq!(heap, bucketed, "{algorithm}: queue kind changed results");
        assert!(heap.events > 0, "{algorithm}: no events dispatched");
    }
    for algorithm in [Algorithm::Lazy, Algorithm::SupersetAgg] {
        let heap = storm_with_queue(QueueKind::Heap, algorithm);
        assert!(heap.read_txns > 0, "{algorithm}: the storm issued no reads");
        assert!(
            heap.collisions > 0,
            "{algorithm}: the storm failed to produce same-line collisions"
        );
        let bucketed = storm_with_queue(QueueKind::Bucketed, algorithm);
        assert_eq!(
            heap, bucketed,
            "{algorithm}: queue kind changed storm results"
        );
    }
}

/// A 16-node hierarchy (four local rings of four) whose bridge
/// crossings drop: every in-flight transaction parks a recovery timeout
/// thousands of cycles out, in the bucketed queue's heap, while ring hops
/// and snoops fill the wheel.
fn lossy_hier(kind: QueueKind) -> Simulator {
    let profile = profiles::consolidated()
        .with_cores(16)
        .with_cluster(4)
        .with_accesses(150);
    let mut sim = Simulator::for_workload_hier(&profile, Algorithm::Subset, None, SEED, 4, 4)
        .expect("hier workload configures");
    let mut plan = FaultPlan::lossless();
    plan.seed = SEED;
    plan.bridge_drop = 0.02;
    plan.bridge_budget = u64::MAX;
    sim.set_fault_plan(plan);
    sim.use_event_queue(kind);
    sim
}

#[test]
fn a_4096_event_same_cycle_burst_matches_across_queues() {
    let (heap, heap_snapshot) = same_cycle_burst_with_queue(QueueKind::Heap);
    assert!(heap.events > 100_000, "too few events: {}", heap.events);
    let (bucketed, bucketed_snapshot) = same_cycle_burst_with_queue(QueueKind::Bucketed);
    assert_eq!(
        heap, bucketed,
        "queue kind changed same-cycle burst results"
    );
    assert!(
        heap_snapshot == bucketed_snapshot,
        "queue kind changed the state or the pending events"
    );
}

#[test]
fn bounded_slices_match_a_whole_run_on_a_lossy_hierarchy() {
    // Cutting a run into `run_until(Some(..))` slices must dispatch the
    // same events as one `run()`, whichever queue backs it, and no slice
    // may run past its stop.
    for kind in [QueueKind::Heap, QueueKind::Bucketed] {
        let whole = lossy_hier(kind).run();
        assert!(
            whole.robustness.timeouts > 0,
            "{kind:?}: no recovery timeout fired"
        );

        // Random slice lengths. A slice that moved the clock dispatched
        // an event at the cycle it returns, so those cycles are known
        // event cycles for the second pass.
        let mut sim = lossy_hier(kind);
        let mut rng = SplitMix64::new(SEED);
        let mut stop = Cycle::ZERO;
        let mut last = Cycle::ZERO;
        let mut event_cycles = Vec::new();
        loop {
            let reached = sim.run_until(Some(stop));
            assert!(reached <= stop, "{kind:?}: reached {reached} past {stop}");
            if reached > last {
                event_cycles.push(reached);
                last = reached;
            }
            if sim.pending_events() == 0 {
                break;
            }
            stop += Cycles(1 + rng.next_below(3_000));
        }
        assert!(event_cycles.len() > 50, "{kind:?}: too few slices");
        assert_eq!(sim.finalize(), whole, "{kind:?}: random slices diverged");

        // Stops before the first event, exactly on each known event
        // cycle (its events must wait), and one cycle past it (they, and
        // nothing later, must run).
        let mut sim = lossy_hier(kind);
        assert_eq!(sim.run_until(Some(Cycle::ZERO)), Cycle::ZERO);
        for &at in &event_cycles {
            let reached = sim.run_until(Some(at));
            assert!(reached < at, "{kind:?}: stop {at} dispatched its own cycle");
            let reached = sim.run_until(Some(at + Cycles(1)));
            assert_eq!(reached, at, "{kind:?}: stop one past {at}");
        }
        sim.run_until(None);
        assert_eq!(
            sim.finalize(),
            whole,
            "{kind:?}: event-cycle stops diverged"
        );
    }
}

#[test]
fn queue_choice_is_deterministic_across_repeats() {
    let a = run_with_queue(QueueKind::Bucketed, Algorithm::SupersetCon, SEED);
    let b = run_with_queue(QueueKind::Bucketed, Algorithm::SupersetCon, SEED);
    assert_eq!(a, b, "same seed must reproduce bit-identical stats");
}

#[test]
fn executor_width_does_not_change_results() {
    // run_algorithms fans out on the shared executor; pinning the pool to
    // one worker and then to four must return the same rows in the same
    // order. Restore the auto default afterwards so other tests in this
    // binary are unaffected.
    let workload = profiles::specjbb().with_accesses(400);
    let algorithms = [Algorithm::Lazy, Algorithm::Eager, Algorithm::SupersetAgg];
    set_default_threads(1);
    let serial = run_algorithms(&workload, &algorithms, SEED);
    set_default_threads(4);
    let parallel = run_algorithms(&workload, &algorithms, SEED);
    set_default_threads(0);
    assert_eq!(serial.len(), parallel.len());
    for ((alg_a, stats_a), (alg_b, stats_b)) in serial.iter().zip(&parallel) {
        assert_eq!(alg_a, alg_b, "row order must not depend on worker count");
        assert_eq!(stats_a, stats_b, "{alg_a}: thread count changed results");
    }
}
