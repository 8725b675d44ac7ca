//! Bit-identity of checkpoint/restore.
//!
//! The correctness bar for `save_snapshot`/`restore_snapshot`: a run
//! saved at cycle C and resumed on a freshly built simulator finishes
//! with [`RunStats`] bit-identical to the uninterrupted run — no matter
//! which event-queue backend or executor width either side uses, and
//! with or without a fault plan armed. Saving must also be a semantic
//! no-op on the live simulator (it drains and rebuilds the event queue
//! in place), and the saved bytes themselves are pinned so the SNAP
//! layout cannot drift unnoticed.

use flexsnoop::{Algorithm, FaultPlan, PartitionWindow, RunStats, Simulator};
use flexsnoop_engine::snap::{self, SnapError};
use flexsnoop_engine::{Cycle, Executor, QueueKind};
use flexsnoop_workload::{profiles, WorkloadProfile};

const SEED: u64 = 42;
const ACCESSES: u64 = 150;

fn workload() -> WorkloadProfile {
    profiles::specjbb().with_accesses(ACCESSES)
}

fn fresh(algorithm: Algorithm) -> Simulator {
    Simulator::for_workload(&workload(), algorithm, None, SEED).expect("workload configures")
}

/// The uninterrupted reference run plus a mid-run save point (half the
/// execution time, so plenty of transactions are in flight on each side).
fn baseline_and_save_point(algorithm: Algorithm) -> (RunStats, Cycle) {
    let stats = fresh(algorithm).run();
    assert!(stats.events > 0);
    let half = Cycle::new(stats.exec_cycles.as_u64() / 2);
    (stats, half)
}

#[test]
fn resume_matches_uninterrupted_run_across_backends_and_widths() {
    for algorithm in [Algorithm::Lazy, Algorithm::SupersetAgg] {
        let (baseline, save_at) = baseline_and_save_point(algorithm);

        // Save mid-run, then let the donor finish: saving must not
        // perturb the run it interrupted.
        let mut donor = fresh(algorithm);
        let reached = donor.run_until(Some(save_at));
        assert!(reached <= save_at, "run_until overshot its stop cycle");
        let snapshot = donor.save_snapshot();
        donor.run_until(None);
        assert_eq!(
            donor.finalize(),
            baseline,
            "{algorithm}: taking a snapshot perturbed the donor run"
        );

        // Resume the snapshot under every queue backend, fanned out over
        // two executor widths (the resumed simulations are independent,
        // so worker count must not matter either).
        let resume_all = |threads: usize| -> Vec<RunStats> {
            let tasks: Vec<_> = [QueueKind::Heap, QueueKind::Bucketed]
                .into_iter()
                .map(|kind| {
                    let bytes = snapshot.clone();
                    move || {
                        let mut sim = fresh(algorithm);
                        sim.use_event_queue(kind);
                        sim.restore_snapshot(&bytes).expect("restore");
                        sim.run_until(None);
                        sim.validate_coherence().expect("coherent final state");
                        sim.finalize()
                    }
                })
                .collect();
            Executor::new(threads).run(tasks)
        };
        for threads in [1usize, 4] {
            for (i, stats) in resume_all(threads).into_iter().enumerate() {
                assert_eq!(
                    stats, baseline,
                    "{algorithm}: resumed variant {i} diverged at width {threads}"
                );
            }
        }
    }
}

#[test]
fn snapshot_bytes_match_the_pinned_digests() {
    // FNV-1a digest and length of the sealed stream saved at half the
    // uninterrupted run. They move if the layout changes (what is saved,
    // in what order, how it is encoded) or if the simulated state at the
    // save point does. Either change must re-pin them deliberately, and
    // a layout change must also bump the SNAP schema version.
    let golden: [(Algorithm, u64, usize); 2] = [
        (Algorithm::SupersetAgg, 0x2d20_9ebe_409e_ce6e, 168_134),
        (Algorithm::Lazy, 0x057a_5ddb_648b_276d, 113_206),
    ];
    for (algorithm, digest, len) in golden {
        let (_, save_at) = baseline_and_save_point(algorithm);
        for kind in [QueueKind::Heap, QueueKind::Bucketed] {
            let mut sim = fresh(algorithm);
            sim.use_event_queue(kind);
            sim.run_until(Some(save_at));
            let bytes = sim.save_snapshot();
            let found = snap::fnv1a(&bytes);
            assert_eq!(
                (found, bytes.len()),
                (digest, len),
                "{algorithm} on {kind:?}: snapshot bytes changed (digest {found:#018x})"
            );
        }
    }
}

#[test]
fn faulty_run_resumes_bit_identically() {
    // Faults exercise the recovery state a lossless run never touches:
    // RTT estimators, retry attempts, seen-sequence bitsets, degraded
    // lines. All of it must survive the round trip.
    let plan = FaultPlan::random(7, 8, 2);
    let arm = |sim: &mut Simulator| sim.set_fault_plan(plan.clone());

    let mut reference = fresh(Algorithm::SupersetCon);
    arm(&mut reference);
    let baseline = reference.run();
    let save_at = Cycle::new(baseline.exec_cycles.as_u64() / 2);

    let mut donor = fresh(Algorithm::SupersetCon);
    arm(&mut donor);
    donor.run_until(Some(save_at));
    let snapshot = donor.save_snapshot();

    let mut resumed = fresh(Algorithm::SupersetCon);
    arm(&mut resumed);
    resumed.restore_snapshot(&snapshot).expect("restore");
    resumed.run_until(None);
    assert_eq!(resumed.finalize(), baseline, "faulty resume diverged");
}

#[test]
fn partitioned_run_saved_inside_the_window_resumes_bit_identically() {
    // A scheduled partition is pure fault-plan state (no RNG), but a
    // snapshot taken *inside* the window must carry the blocked-hop
    // counters, the refused requests' retry state, and the window
    // itself, or the resumed half heals differently.
    let rough = fresh(Algorithm::SupersetAgg).run().exec_cycles.as_u64();
    let window = PartitionWindow {
        islands: vec![0, 0, 0, 0, 1, 1, 1, 1],
        from: Cycle::new(rough / 4),
        until: Cycle::new(rough / 2),
    };
    let plan = FaultPlan {
        partitions: vec![window.clone()],
        ..FaultPlan::lossless()
    };
    let arm = |sim: &mut Simulator| sim.set_fault_plan(plan.clone());

    let mut reference = fresh(Algorithm::SupersetAgg);
    arm(&mut reference);
    let baseline = reference.run();
    assert!(
        reference.fault_stats().partition_blocked > 0,
        "the window never blocked a hop; the test exercises nothing"
    );

    // Save in the middle of the partition window.
    let save_at = Cycle::new((window.from.as_u64() + window.until.as_u64()) / 2);
    let mut donor = fresh(Algorithm::SupersetAgg);
    arm(&mut donor);
    donor.run_until(Some(save_at));
    let snapshot = donor.save_snapshot();
    donor.run_until(None);
    assert_eq!(donor.finalize(), baseline, "saving perturbed the donor");

    for kind in [QueueKind::Heap, QueueKind::Bucketed] {
        let mut resumed = fresh(Algorithm::SupersetAgg);
        resumed.use_event_queue(kind);
        arm(&mut resumed);
        resumed.restore_snapshot(&snapshot).expect("restore");
        resumed.run_until(None);
        resumed.validate_coherence().expect("coherent final state");
        assert_eq!(
            resumed.finalize(),
            baseline,
            "resume across the partition window diverged on {kind:?}"
        );
    }
}

#[test]
fn restore_rejects_mismatched_configuration() {
    let mut donor = fresh(Algorithm::Lazy);
    donor.run_until(Some(Cycle::new(2_000)));
    let snapshot = donor.save_snapshot();

    // A different algorithm is a different configuration fingerprint.
    let mut wrong_alg = fresh(Algorithm::SupersetAgg);
    assert!(matches!(
        wrong_alg.restore_snapshot(&snapshot),
        Err(SnapError::FingerprintMismatch { .. })
    ));

    // Same config, but the snapshot was taken without a fault plan: a
    // target with one armed must refuse (and vice versa).
    let mut armed = fresh(Algorithm::Lazy);
    armed.set_fault_plan(FaultPlan::random(7, 8, 2));
    assert!(armed.restore_snapshot(&snapshot).is_err());

    // A clean same-config target accepts the very same bytes.
    let mut ok = fresh(Algorithm::Lazy);
    ok.restore_snapshot(&snapshot).expect("matching restore");
}

#[test]
fn truncated_snapshot_is_rejected_not_misread() {
    let mut donor = fresh(Algorithm::Lazy);
    donor.run_until(Some(Cycle::new(2_000)));
    let snapshot = donor.save_snapshot();
    let truncated = &snapshot[..snapshot.len() - 9];
    let mut target = fresh(Algorithm::Lazy);
    assert!(target.restore_snapshot(truncated).is_err());
}
