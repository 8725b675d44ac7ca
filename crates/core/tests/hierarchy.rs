//! Hierarchical multi-ring topology: property and identity tests.
//!
//! The tentpole guarantees under test:
//!
//! * every read/write still retires and the final cache state is
//!   coherent on any `local × groups` shape — a wrong locality
//!   prediction escalates, it never loses the request;
//! * bridge escalation neither drops nor duplicates snoops: on a
//!   lossless hierarchical ring every circulation snoops each
//!   non-requester node exactly once per attempt;
//! * [`RunStats`] are bit-identical across event-queue backends and
//!   executor widths on hierarchical machines, just as they are on flat
//!   rings;
//! * mid-run checkpoints round-trip bit-identically, and a flat
//!   snapshot is refused by a hierarchical simulator (and vice versa)
//!   via the config fingerprint.

use flexsnoop::{Algorithm, RunStats, Simulator};
use flexsnoop_engine::snap::SnapError;
use flexsnoop_engine::{Cycle, Executor, QueueKind};
use flexsnoop_workload::{profiles, WorkloadProfile};

const SEED: u64 = 42;
const ACCESSES: u64 = 150;

/// The `local × groups` shapes the net exercises (8, 16 and 64 nodes).
const SHAPES: [(usize, usize); 3] = [(2, 4), (4, 4), (8, 8)];

/// The consolidated-server profile with sharing clustered at the
/// local-ring size: the workload the locality table is designed for,
/// and the one that exercises both circulation paths deterministically.
fn workload(cores: usize, cluster: usize) -> WorkloadProfile {
    profiles::consolidated()
        .with_cores(cores)
        .with_cluster(cluster)
        .with_accesses(ACCESSES)
}

fn hier(algorithm: Algorithm, local: usize, groups: usize) -> Simulator {
    let profile = workload(local * groups, local);
    Simulator::for_workload_hier(&profile, algorithm, None, SEED, local, groups)
        .expect("hier workload configures")
}

#[test]
fn every_shape_retires_all_transactions_and_stays_coherent() {
    for (local, groups) in SHAPES {
        for algorithm in [Algorithm::Lazy, Algorithm::Subset, Algorithm::SupersetAgg] {
            let mut sim = hier(algorithm, local, groups);
            let stats = sim.run();
            assert!(
                stats.read_txns > 0,
                "{algorithm} {local}x{groups}: no reads"
            );
            assert_eq!(
                sim.in_flight(),
                0,
                "{algorithm} {local}x{groups}: transactions stranded"
            );
            sim.validate_coherence()
                .unwrap_or_else(|e| panic!("{algorithm} {local}x{groups}: {e}"));
            // The machine is hierarchical, so the two-level accounting
            // must cover every retired read circulation.
            assert_eq!(
                stats.local_circulations + stats.global_circulations,
                stats.read_txns,
                "{algorithm} {local}x{groups}: circulation accounting leaks"
            );
        }
    }
}

#[test]
fn locality_table_learns_and_escalations_recover() {
    // The clustered consolidated workload supplies most reads from the
    // requester's own ring: the fresh weakly-remote tables predict
    // global, then learn local suppliers. Over a whole run some
    // circulations must complete locally and any escalation must still
    // retire.
    let mut sim = hier(Algorithm::Subset, 4, 4);
    let stats = sim.run();
    assert!(
        stats.local_circulations > 0,
        "the locality table never completed a circulation in-ring"
    );
    assert!(stats.global_circulations > 0);
    assert_eq!(sim.in_flight(), 0);
    // Escalations cost an extra lap but never lose the request:
    // accounted circulations already proved retirement above.
    assert!(
        stats.escalations <= stats.global_circulations,
        "every escalated read retires as a global circulation"
    );
}

#[test]
fn bridge_routing_never_drops_or_duplicates_snoops() {
    // Timeline-level conservation: within one circulation attempt no
    // node is ever snooped twice (the global switch at a bridge must not
    // re-enter its group), every read resolves exactly once, and snoop
    // totals never exceed one visit per node per attempt.
    use std::collections::HashSet;

    for (local, groups) in SHAPES {
        let mut sim = hier(Algorithm::Lazy, local, groups);
        sim.enable_timeline(usize::MAX);
        let stats = sim.run();
        assert_eq!(
            stats.reads_cache_supplied + stats.reads_from_memory,
            stats.read_txns,
            "{local}x{groups}: every read is supplied exactly once"
        );
        let nodes = (local * groups) as u64;
        assert!(
            stats.read_snoops
                <= stats.global_circulations * (nodes - 1)
                    + stats.local_circulations * (local as u64 - 1)
                    + stats.escalations * (local as u64 - 1),
            "{local}x{groups}: more snoops than one visit per node per attempt"
        );
        let timeline = sim.timeline().expect("timeline installed");
        assert!(timeline.transactions().next().is_some());
        for txn in timeline.transactions() {
            let mut seen: HashSet<usize> = HashSet::new();
            for (_, ev) in timeline.events(txn) {
                match ev {
                    flexsnoop::TxnEvent::SnoopStarted { node } => {
                        assert!(
                            seen.insert(node.0),
                            "{local}x{groups} {txn}: {node} snooped twice in one attempt"
                        );
                    }
                    // A new attempt (escalation) legitimately revisits
                    // the abandoned lap's nodes.
                    flexsnoop::TxnEvent::Escalated => seen.clear(),
                    _ => {}
                }
            }
        }
        assert_eq!(sim.in_flight(), 0);
    }
}

/// The first escalated read of SupersetAgg on the 2×4 hierarchy, step by
/// step: a local lap of the requester's two-node ring finds no supplier,
/// the requester escalates, and the global circulation visits every
/// group before the home node's prefetched memory data completes it.
const ESCALATION_WALKTHROUGH: &str = "\
txn14:
  +    0  issued at cmp7
  +    4  R/R leaves cmp7
  +   43  R/R arrives at cmp6
  +   43  cmp6 predicts no supplier
  +   49  R/R leaves cmp6
  +   88  R/R arrives at cmp7
  +   88  local miss: escalated to global
  +   92  R/R leaves cmp7
  +  131  R/R arrives at cmp6
  +  131  cmp6 predicts no supplier
  +  137  R/R leaves cmp6
  +  203  R/R arrives at cmp0
  +  207  R/R leaves cmp0
  +  246  R/R arrives at cmp1
  +  246  memory prefetch at cmp1
  +  246  cmp1 predicts no supplier
  +  252  R/R leaves cmp1
  +  291  R/R arrives at cmp0
  +  291  cmp0 predicts no supplier
  +  297  R/R leaves cmp0
  +  363  R/R arrives at cmp2
  +  367  R/R leaves cmp2
  +  406  R/R arrives at cmp3
  +  406  cmp3 predicts no supplier
  +  412  R/R leaves cmp3
  +  451  R/R arrives at cmp2
  +  451  cmp2 predicts no supplier
  +  457  R/R leaves cmp2
  +  523  R/R arrives at cmp4
  +  527  R/R leaves cmp4
  +  566  R/R arrives at cmp5
  +  566  cmp5 predicts no supplier
  +  572  R/R leaves cmp5
  +  611  R/R arrives at cmp4
  +  611  cmp4 predicts no supplier
  +  617  R/R leaves cmp4
  +  683  R/R arrives at cmp6
  +  687  R/R leaves cmp6
  +  726  R/R arrives at cmp7
  +  774  core resumes
  +  774  retired
";

#[test]
fn escalated_walkthrough_matches_the_pinned_render() {
    // Pins the order and the cycle of every step, not just which kinds
    // occur: the escalation step comes from the scope path's report site.
    let mut sim = hier(Algorithm::SupersetAgg, 2, 4);
    sim.enable_timeline(usize::MAX);
    sim.run();
    let timeline = sim.timeline().expect("timeline installed");
    let escalated = timeline
        .transactions()
        .find(|&txn| {
            timeline
                .events(txn)
                .iter()
                .any(|(_, ev)| matches!(ev, flexsnoop::TxnEvent::Escalated))
        })
        .expect("a local miss escalated");
    assert_eq!(timeline.render(escalated), ESCALATION_WALKTHROUGH);
}

#[test]
fn run_stats_bit_identical_across_backends_and_widths() {
    for (local, groups) in [(2, 4), (4, 4)] {
        let algorithm = Algorithm::SupersetAgg;
        let baseline = hier(algorithm, local, groups).run();
        let run_all = |threads: usize| -> Vec<RunStats> {
            let tasks: Vec<_> = [QueueKind::Heap, QueueKind::Bucketed]
                .into_iter()
                .map(|kind| {
                    move || {
                        let mut sim = hier(algorithm, local, groups);
                        sim.use_event_queue(kind);
                        sim.run()
                    }
                })
                .collect();
            Executor::new(threads).run(tasks)
        };
        for threads in [1usize, 4] {
            for (i, stats) in run_all(threads).into_iter().enumerate() {
                assert_eq!(
                    stats, baseline,
                    "{local}x{groups}: variant {i} diverged at width {threads}"
                );
            }
        }
    }
}

#[test]
fn checkpoint_round_trips_bit_identically_mid_run() {
    let algorithm = Algorithm::Subset;
    let (local, groups) = (4, 4);
    let baseline = hier(algorithm, local, groups).run();
    let save_at = Cycle::new(baseline.exec_cycles.as_u64() / 2);

    let mut donor = hier(algorithm, local, groups);
    donor.run_until(Some(save_at));
    let snapshot = donor.save_snapshot();
    donor.run_until(None);
    assert_eq!(
        donor.finalize(),
        baseline,
        "taking a snapshot perturbed the donor run"
    );

    for kind in [QueueKind::Heap, QueueKind::Bucketed] {
        let mut resumed = hier(algorithm, local, groups);
        resumed.use_event_queue(kind);
        resumed.restore_snapshot(&snapshot).expect("restore");
        resumed.run_until(None);
        resumed.validate_coherence().expect("coherent final state");
        assert_eq!(
            resumed.finalize(),
            baseline,
            "hier resume diverged on {kind:?}"
        );
    }
}

#[test]
fn flat_and_hier_snapshots_reject_each_other() {
    let profile = workload(8, 2);
    let mut flat = Simulator::for_workload(&profile, Algorithm::Lazy, None, SEED).unwrap();
    flat.run_until(Some(Cycle::new(2_000)));
    let flat_snap = flat.save_snapshot();

    let mut h = hier(Algorithm::Lazy, 2, 4);
    h.run_until(Some(Cycle::new(2_000)));
    let hier_snap = h.save_snapshot();

    // Same node count, same algorithm — only the topology differs, and
    // the fingerprint must catch it in both directions.
    let mut hier_target = hier(Algorithm::Lazy, 2, 4);
    assert!(matches!(
        hier_target.restore_snapshot(&flat_snap),
        Err(SnapError::FingerprintMismatch { .. })
    ));
    let mut flat_target = Simulator::for_workload(&profile, Algorithm::Lazy, None, SEED).unwrap();
    assert!(matches!(
        flat_target.restore_snapshot(&hier_snap),
        Err(SnapError::FingerprintMismatch { .. })
    ));

    // Sanity: the matching target accepts its own bytes.
    let mut ok = hier(Algorithm::Lazy, 2, 4);
    ok.restore_snapshot(&hier_snap).expect("matching restore");
}
