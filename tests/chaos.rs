//! Chaos-campaign integration tests: the unreliable-ring fault model plus
//! timeout/retry recovery (DESIGN.md §8).
//!
//! The fast tests gate CI; the `#[ignore]`d full campaign is the
//! acceptance-scale sweep (≥1000 schedules × the four Table 3 algorithms):
//!
//! ```text
//! cargo test --release --test chaos -- --ignored
//! ```

use flexsnoop::{Algorithm, FaultPlan, ProbeReport, RunStats, Simulator};
use flexsnoop_checker::{run_chaos, ChaosOptions};
use flexsnoop_engine::executor::set_default_threads;
use flexsnoop_engine::QueueKind;
use flexsnoop_workload::profiles;

const SEED: u64 = 20060617;

/// One faulted run with probes attached; returns the stats and the probe
/// counter report so determinism checks cover the observability layer too.
/// The report's peak RSS is zeroed: it is the whole test process's high
/// water mark, which tests running in parallel raise between two runs.
fn faulted_run(algorithm: Algorithm, plan: &FaultPlan, kind: QueueKind) -> (RunStats, ProbeReport) {
    let workload = profiles::specjbb().with_accesses(250);
    let mut sim = Simulator::for_workload(&workload, algorithm, None, SEED).expect("valid config");
    sim.use_event_queue(kind);
    sim.enable_invariant_checks();
    sim.enable_probe();
    sim.set_fault_plan(plan.clone());
    sim.set_recovery_enabled(true);
    let stats = sim.run();
    assert!(
        sim.violations().is_empty(),
        "{algorithm}: {}",
        sim.violations()[0]
    );
    assert_eq!(sim.in_flight(), 0, "{algorithm}: transactions lost");
    let probe = sim.probe_report().expect("probe attached");
    let probe = ProbeReport {
        peak_rss_bytes: 0,
        ..probe
    };
    (stats, probe)
}

#[test]
fn same_plan_same_seed_is_bit_identical() {
    // Acceptance: the same (seed, plan) must reproduce identical stats AND
    // identical probe counters across repeats, queue backends, and
    // executor widths. Faults draw only from the plan's own SplitMix64
    // stream, so nothing about scheduling may leak in.
    let plan = FaultPlan::random(7, 8, 2);
    for algorithm in [Algorithm::Subset, Algorithm::SupersetAgg] {
        let (heap_a, probe_a) = faulted_run(algorithm, &plan, QueueKind::Heap);
        let (heap_b, probe_b) = faulted_run(algorithm, &plan, QueueKind::Heap);
        assert_eq!(heap_a, heap_b, "{algorithm}: repeat drifted");
        assert_eq!(probe_a, probe_b, "{algorithm}: probe counters drifted");

        let (bucketed, probe_c) = faulted_run(algorithm, &plan, QueueKind::Bucketed);
        assert_eq!(heap_a, bucketed, "{algorithm}: queue kind changed results");
        // The memory footprint counts the event queue's own storage, so
        // it differs between backends by design; nothing else may.
        let without_footprint = |p: &ProbeReport| ProbeReport {
            bytes_per_node: 0,
            footprint_total_bytes: 0,
            ..p.clone()
        };
        assert_eq!(
            without_footprint(&probe_a),
            without_footprint(&probe_c),
            "{algorithm}: queue kind changed probes"
        );

        set_default_threads(1);
        let (narrow, _) = faulted_run(algorithm, &plan, QueueKind::Heap);
        set_default_threads(4);
        let (wide, _) = faulted_run(algorithm, &plan, QueueKind::Heap);
        set_default_threads(0);
        assert_eq!(narrow, wide, "{algorithm}: executor width changed results");
    }
}

#[test]
fn faulted_runs_actually_inject_and_recover() {
    // A deliberately lossy plan must produce observable fault activity and
    // observable recovery work — otherwise the campaign tests nothing.
    let mut plan = FaultPlan::random(3, 8, 2);
    plan.drop = 0.05;
    plan.duplicate = 0.05;
    plan.budget = 40;
    let (stats, _) = faulted_run(Algorithm::SupersetAgg, &plan, QueueKind::Heap);
    let r = &stats.robustness;
    assert!(r.ring_drops > 0, "plan injected no drops: {r:?}");
    assert!(r.retries > 0, "drops happened but nothing retried: {r:?}");
    assert!(
        r.duplicates_suppressed > 0,
        "duplicates never reached the dedup filter: {r:?}"
    );
    assert_eq!(r.unfinished_cores, 0, "recovery left cores stranded");
}

#[test]
fn lossless_plan_changes_nothing() {
    // Installing the default (lossless) FaultPlan with recovery armed must
    // be invisible: bit-identical stats versus a plain run.
    let workload = profiles::specweb().with_accesses(300);
    for algorithm in [Algorithm::Lazy, Algorithm::Exact] {
        let mut plain =
            Simulator::for_workload(&workload, algorithm, None, SEED).expect("valid config");
        let baseline = plain.run();

        let mut faulted =
            Simulator::for_workload(&workload, algorithm, None, SEED).expect("valid config");
        faulted.set_fault_plan(FaultPlan::default());
        faulted.set_recovery_enabled(true);
        let with_plan = faulted.run();
        assert_eq!(baseline, with_plan, "{algorithm}: lossless plan drifted");
    }
}

#[test]
fn smoke_campaign_is_clean() {
    let workload = profiles::specjbb();
    let opts = ChaosOptions {
        schedules: 4,
        accesses_per_core: 80,
        threads: 2,
        ..ChaosOptions::default()
    };
    let report = run_chaos(&workload, &opts).expect("campaign runs");
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        report.totals.drops + report.totals.duplicates + report.totals.delays > 0,
        "smoke campaign injected nothing:\n{}",
        report.render()
    );
}

#[test]
fn no_retry_schedule_fails_and_shrinks() {
    // Self-test: with recovery off, lossy schedules must strand
    // transactions, and the shrinker must hand back a smaller reproducer.
    let workload = profiles::specjbb();
    let opts = ChaosOptions {
        schedules: 8,
        accesses_per_core: 80,
        threads: 2,
        recovery: false,
        ..ChaosOptions::default()
    };
    let report = run_chaos(&workload, &opts).expect("campaign runs");
    assert!(!report.is_clean(), "faults with no recovery stayed clean");
    let failure = &report.failures[0];
    let minimized = failure
        .minimized
        .as_ref()
        .expect("shrinker produced a plan");
    assert!(minimized.budget <= failure.plan.budget);
    assert!(report.render().contains("--no-retry"));
}

/// Acceptance-scale campaign: ≥1000 seeded schedules across the four
/// Table 3 algorithms, zero violations, zero divergence. Run with
/// `cargo test --release --test chaos -- --ignored`.
#[test]
#[ignore = "acceptance scale; minutes in release mode"]
fn full_campaign_is_clean() {
    let workload = profiles::specjbb();
    let opts = ChaosOptions::full();
    assert!(opts.schedules >= 1000);
    let report = run_chaos(&workload, &opts).expect("campaign runs");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.runs, opts.schedules * 4);
}

#[test]
fn degradation_engages_under_sustained_loss() {
    // A link that drops most traffic on one ring forces the retry cap,
    // after which the affected lines must fall back to Lazy forwarding
    // (degraded mode) rather than retrying forever.
    let mut plan = FaultPlan::random(11, 8, 2);
    plan.link_drops = vec![flexsnoop::LinkDrop {
        ring: 0,
        node: 3,
        prob: 0.9,
    }];
    plan.budget = 200;
    let (stats, _) = faulted_run(Algorithm::Subset, &plan, QueueKind::Heap);
    let r = &stats.robustness;
    assert!(r.timeouts > 0, "sustained loss fired no timeouts: {r:?}");
}

#[test]
fn campaign_covers_every_fault_kind() {
    // Coverage ratchet (satellite of DESIGN.md §8): a healthy campaign
    // must both arm and actually inject every fault kind the plan
    // language can express — a kind that silently stops firing would
    // turn its recovery path into dead, untested code.
    let workload = profiles::specjbb();
    let opts = ChaosOptions {
        schedules: 12,
        accesses_per_core: 100,
        threads: 2,
        ..ChaosOptions::default()
    };
    let report = run_chaos(&workload, &opts).expect("campaign runs");
    assert!(report.is_clean(), "{}", report.render());
    for (i, kind) in flexsnoop_checker::FAULT_KINDS.iter().enumerate() {
        let [armed, injected] = report.coverage.kinds[i];
        // Partition windows are scenario-scheduled, never randomly
        // drawn: a random campaign must report the kind at zero (the
        // ratchet still tracks it when scenarios feed the table).
        if *kind == "partition" {
            assert_eq!(armed, 0, "a random plan drew a partition window");
            continue;
        }
        // Bridge drops only exist on hierarchical machines; this is a
        // flat campaign, so coverage must report the kind unarmed (the
        // checker's hier campaign test proves it fires when bridges do
        // exist).
        if *kind == "bridge" {
            assert_eq!(armed, 0, "a flat campaign armed bridge faults");
            continue;
        }
        assert!(armed > 0, "no schedule armed {kind}:\n{}", report.render());
        assert!(
            injected > 0,
            "{kind} was armed but never injected:\n{}",
            report.render()
        );
    }
    assert!(report.coverage.starved_kinds().is_empty());
    // The render carries the per-kind table the CI artifact is built from.
    assert!(
        report.render().contains("Fault coverage"),
        "{}",
        report.render()
    );
}

#[test]
fn torus_lossless_default_changes_nothing() {
    // Torus mirror of `lossless_plan_changes_nothing`: arming a plan
    // whose torus fields cannot fire (zero budget, like the default)
    // must leave ring and memory paths bit-identical to a plain run.
    let workload = profiles::specweb().with_accesses(300);
    for algorithm in [Algorithm::Lazy, Algorithm::Exact] {
        let mut plain =
            Simulator::for_workload(&workload, algorithm, None, SEED).expect("valid config");
        let baseline = plain.run();

        let mut plan = FaultPlan::lossless();
        plan.torus_drop = 0.8; // nonzero probability, but...
        plan.torus_budget = 0; // ...a zero budget must inject nothing.
        assert!(plan.is_lossless());
        let mut armed =
            Simulator::for_workload(&workload, algorithm, None, SEED).expect("valid config");
        armed.set_fault_plan(plan);
        armed.set_recovery_enabled(true);
        let with_plan = armed.run();
        assert_eq!(
            baseline, with_plan,
            "{algorithm}: lossless torus plan drifted"
        );
        assert_eq!(armed.fault_stats().torus_drops, 0);
    }
}

#[test]
fn torus_only_schedule_recovers() {
    // Reply-data loss on the torus exercises the memory path: the ring
    // answers, the data never arrives, and the whole transaction must be
    // retried rather than stranding the requester core.
    let mut plan = FaultPlan::lossless();
    plan.seed = 31;
    plan.torus_drop = 0.5;
    plan.torus_budget = 8;
    for kind in [QueueKind::Heap, QueueKind::Bucketed] {
        let (stats, _) = faulted_run(Algorithm::SupersetCon, &plan, kind);
        let r = &stats.robustness;
        assert!(r.torus_drops > 0, "plan injected no torus drops: {r:?}");
        assert_eq!(r.ring_drops, 0, "torus-only plan touched the ring: {r:?}");
        assert!(r.retries > 0, "lost data never triggered a retry: {r:?}");
        assert_eq!(r.unfinished_cores, 0, "data loss stranded a core");
    }
}
