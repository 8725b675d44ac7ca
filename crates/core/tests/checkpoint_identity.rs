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

use flexsnoop::{
    energy_model_for, Algorithm, ChurnWindow, FaultPlan, MachineConfig, PartitionWindow,
    PredictorSpec, RunStats, Simulator,
};
use flexsnoop_engine::snap::{self, SnapError};
use flexsnoop_engine::{Cycle, Executor, QueueKind};
use flexsnoop_mem::CmpId;
use flexsnoop_workload::{profiles, AccessStream, WorkloadProfile};

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

/// SupersetCon with the §5.3 presence filter skipping write snoops.
fn write_filtered() -> Simulator {
    let profile = workload();
    let mut machine = MachineConfig::isca2006(profile.cores / 8);
    machine.policy.write_filtering = true;
    let algorithm = Algorithm::SupersetCon;
    let predictor = algorithm.default_predictor();
    let streams = profile
        .streams(SEED)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
        .collect();
    Simulator::new(
        machine,
        algorithm,
        predictor,
        energy_model_for(&predictor),
        streams,
        ACCESSES,
    )
    .expect("workload configures")
}

/// A lossy flat ring whose torus data legs also drop, recovery on.
fn torus_lossy() -> Simulator {
    let mut plan = FaultPlan::random(7, 8, 2);
    plan.torus_drop = 0.2;
    plan.torus_budget = 16;
    let mut sim = fresh(Algorithm::SupersetCon);
    sim.set_fault_plan(plan);
    sim
}

/// Lazy with one cold and one warm hot-remove window.
fn churned() -> Simulator {
    let window = |node, remove_at, readd_at, warm| ChurnWindow {
        node: CmpId(node),
        remove_at: Cycle::new(remove_at),
        readd_at: Cycle::new(readd_at),
        warm,
    };
    let mut sim = fresh(Algorithm::Lazy);
    sim.set_churn_plan(vec![
        window(2, 20_000, 60_000, false),
        window(5, 40_000, 90_000, true),
    ])
    .expect("valid churn plan");
    sim
}

/// Subset on a 4×4 hierarchy whose bridge crossings drop.
fn hier_lossy() -> Simulator {
    let profile = profiles::consolidated()
        .with_cores(16)
        .with_cluster(4)
        .with_accesses(ACCESSES);
    let mut sim = Simulator::for_workload_hier(&profile, Algorithm::Subset, None, SEED, 4, 4)
        .expect("hier workload configures");
    let mut plan = FaultPlan::lossless();
    plan.seed = SEED;
    plan.bridge_drop = 0.02;
    plan.bridge_budget = u64::MAX;
    sim.set_fault_plan(plan);
    sim
}

/// Exact with a 16-entry table, so conflicts force downgrades (and the
/// memory re-reads they cause) within the short run.
fn exact_pressured() -> Simulator {
    let table = PredictorSpec::Exact { entries: 16 };
    Simulator::for_workload(&workload(), Algorithm::Exact, Some(table), SEED)
        .expect("workload configures")
}

/// One pinned configuration: how to build it, the path it must
/// exercise, and the digests of its mid-run snapshot and final stats.
struct Pinned {
    name: &'static str,
    build: fn() -> Simulator,
    ran: fn(&Simulator, &RunStats) -> bool,
    snapshot_digest: u64,
    snapshot_len: usize,
    stats_digest: u64,
}

#[test]
fn snapshot_bytes_match_the_pinned_digests() {
    // FNV-1a digest and length of the sealed stream saved at half the
    // uninterrupted run. They move if the layout changes (what is saved,
    // in what order, how it is encoded) or if the simulated state at the
    // save point does. Either change must re-pin them deliberately, and
    // a layout change must also bump the SNAP schema version. The final
    // `RunStats` digest pins each configuration's whole-run result.
    let golden = [
        Pinned {
            name: "superset-agg",
            build: || fresh(Algorithm::SupersetAgg),
            ran: |_, _| true,
            snapshot_digest: 0x2d20_9ebe_409e_ce6e,
            snapshot_len: 168_134,
            stats_digest: 0x8856_29c1_8b64_8446,
        },
        Pinned {
            name: "lazy",
            build: || fresh(Algorithm::Lazy),
            ran: |_, _| true,
            snapshot_digest: 0x057a_5ddb_648b_276d,
            snapshot_len: 113_206,
            stats_digest: 0x1a95_e665_e402_d4e3,
        },
        Pinned {
            name: "superset-con write filtering",
            build: write_filtered,
            ran: |sim, _| sim.write_snoops_filtered() > 0,
            snapshot_digest: 0xa45d_5040_e3ed_70da,
            snapshot_len: 205_277,
            stats_digest: 0x1d0a_dbd8_b34b_75e9,
        },
        Pinned {
            name: "torus-lossy flat ring",
            build: torus_lossy,
            ran: |_, s| s.robustness.torus_drops > 0,
            snapshot_digest: 0x0309_b714_085c_fafa,
            snapshot_len: 167_996,
            stats_digest: 0xffe0_e6b7_6270_173b,
        },
        Pinned {
            name: "lazy cold and warm churn",
            build: churned,
            ran: |_, s| s.robustness.churn_detaches == 2,
            snapshot_digest: 0xd933_52bb_5a6b_1aa9,
            snapshot_len: 116_658,
            stats_digest: 0x6a24_541b_fc1e_2fff,
        },
        Pinned {
            name: "subset 4x4 bridge drops",
            build: hier_lossy,
            ran: |_, s| s.escalations > 0,
            snapshot_digest: 0xd887_d4e9_5b40_175c,
            snapshot_len: 264_693,
            stats_digest: 0x85d1_ba5f_d0b5_ef70,
        },
        Pinned {
            name: "exact",
            build: exact_pressured,
            ran: |_, s| s.downgrades > 0 && s.downgrade_rereads > 0,
            snapshot_digest: 0x34ac_c387_f88d_6f9e,
            snapshot_len: 118_976,
            stats_digest: 0x13b6_1bcc_f2be_3f0e,
        },
    ];
    for row in golden {
        let name = row.name;
        let mut reference = (row.build)();
        let stats = reference.run();
        assert!(
            (row.ran)(&reference, &stats),
            "{name}: the pinned path never ran"
        );
        let found = snap::fnv1a(&snap::snapshot_bytes(&stats));
        assert_eq!(
            found, row.stats_digest,
            "{name}: final RunStats changed (digest {found:#018x})"
        );
        let save_at = Cycle::new(stats.exec_cycles.as_u64() / 2);
        for kind in [QueueKind::Heap, QueueKind::Bucketed] {
            let mut sim = (row.build)();
            sim.use_event_queue(kind);
            sim.run_until(Some(save_at));
            let bytes = sim.save_snapshot();
            let found = snap::fnv1a(&bytes);
            assert_eq!(
                (found, bytes.len()),
                (row.snapshot_digest, row.snapshot_len),
                "{name} on {kind:?}: snapshot bytes changed (digest {found:#018x})"
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
