//! Pinned checker reports: the scenario runner, the chaos campaign and the
//! differential matrix must render byte-identical reports for these fixed
//! inputs. The expected files under `tests/pinned/` were rendered by
//! exactly these calls; regenerate one only for a deliberate change to
//! what that report says.

use flexsnoop::ProtocolMutation;
use flexsnoop_checker::{run_chaos, run_differential, ChaosOptions, DiffOptions};
use flexsnoop_scenario::{builtin, run_scenario, RunOptions};
use flexsnoop_workload::profiles;

/// Fails with the first differing line, then both texts in full.
fn assert_pinned(what: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{what}: rendered report drifted from its pinned copy at line {}\n\
         --- pinned ---\n{expected}\n--- rendered ---\n{actual}",
        first + 1
    );
}

#[test]
fn scenario_builtins_render_pinned_full_reports() {
    let opts = RunOptions {
        threads: 2,
        ..RunOptions::default()
    };
    for (name, pinned) in [
        (
            "partition-heal",
            include_str!("pinned/scenario-partition-heal.md"),
        ),
        ("churn", include_str!("pinned/scenario-churn.md")),
        (
            "hierarchy-partition",
            include_str!("pinned/scenario-hierarchy-partition.md"),
        ),
    ] {
        let scenario = builtin(name).expect("builtin scenario");
        let report = run_scenario(&scenario, &opts).expect("scenario runs");
        assert_pinned(name, pinned, &report.render());
    }
}

#[test]
fn no_retry_chaos_campaign_renders_pinned_report() {
    let opts = ChaosOptions {
        schedules: 6,
        accesses_per_core: 60,
        threads: 2,
        determinism_probes: 1,
        recovery: false,
        ..ChaosOptions::default()
    };
    let report = run_chaos(&profiles::specweb(), &opts).expect("campaign runs");
    assert!(!report.is_clean(), "a no-retry campaign must fail");
    // The shrink note carries a wall time, the one volatile line.
    let rendered: String = report
        .render()
        .lines()
        .filter(|l| !l.starts_with("(shrunk in"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_pinned(
        "chaos --no-retry",
        include_str!("pinned/chaos-no-retry.md"),
        &rendered,
    );
}

#[test]
fn mutated_differential_renders_pinned_walkthrough() {
    let opts = DiffOptions {
        accesses_per_core: 150,
        nodes: 4,
        threads: 4,
        mutation: Some(ProtocolMutation::SkipSupplierDowngrade),
        ..DiffOptions::default()
    };
    let report = run_differential(&profiles::specweb(), 2026, &opts).expect("matrix runs");
    assert!(!report.is_clean(), "the oracle must catch the mutation");
    assert_pinned(
        "differential SkipSupplierDowngrade",
        include_str!("pinned/differential-skip-supplier-downgrade.md"),
        &report.render(),
    );
}
