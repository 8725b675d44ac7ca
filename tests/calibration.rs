//! Executable calibration contract: the synthetic workloads must keep the
//! observable properties the figures were calibrated against (DESIGN.md's
//! substitution argument). If a profile edit drifts away from the paper's
//! workload behaviour, these tests fail before the figures silently bend.

use flexsnoop::{run_workload, Algorithm};
use flexsnoop_workload::{profiles, WorkloadGroup};

const ACCESSES: u64 = 2_500;
const SEED: u64 = 20060617;

/// Group-level supply ordering (Figure 11's perfect-predictor shapes):
/// SPLASH-2 finds suppliers most often, SPECweb in between, SPECjbb
/// rarely.
#[test]
fn supply_fraction_ordering_matches_figure_11() {
    let mean_supply = |group: WorkloadGroup| {
        let profiles: Vec<_> = profiles::all()
            .into_iter()
            .filter(|p| p.group == group)
            .collect();
        let sum: f64 = profiles
            .iter()
            .map(|p| {
                run_workload(
                    &p.clone().with_accesses(ACCESSES),
                    Algorithm::Lazy,
                    None,
                    SEED,
                )
                .unwrap()
                .cache_supply_fraction()
            })
            .sum();
        sum / profiles.len() as f64
    };
    let splash = mean_supply(WorkloadGroup::Splash2);
    let web = mean_supply(WorkloadGroup::SpecWeb);
    let jbb = mean_supply(WorkloadGroup::SpecJbb);
    assert!(
        splash > web && web > jbb,
        "supply ordering violated: splash={splash:.2} web={web:.2} jbb={jbb:.2}"
    );
    assert!(jbb < 0.2, "SPECjbb must rarely find a supplier ({jbb:.2})");
    // Short calibration runs are cold-start heavy; the full figure runs
    // (12k accesses) sit near 0.55-0.70.
    assert!(
        splash > 0.38,
        "SPLASH-2 must usually find one ({splash:.2})"
    );
}

/// Figure 6's Lazy anchor: between 4.5 and 7 snoops per request on every
/// workload (the supplier sits a few nodes away; memory-bound requests
/// walk the whole ring).
#[test]
fn lazy_snoop_counts_stay_in_the_paper_band() {
    for p in profiles::all() {
        let s = run_workload(
            &p.clone().with_accesses(ACCESSES),
            Algorithm::Lazy,
            None,
            SEED,
        )
        .unwrap();
        let snoops = s.snoops_per_read();
        assert!(
            (4.0..=7.0).contains(&snoops),
            "{}: Lazy snoops/read {snoops:.2} outside the Figure 6 band",
            p.name
        );
    }
}

/// Every profile produces enough ring traffic to measure (no degenerate
/// all-hits workloads) but is not pathologically miss-bound either.
#[test]
fn ring_read_rates_are_sane() {
    for p in profiles::all() {
        let s = run_workload(
            &p.clone().with_accesses(ACCESSES),
            Algorithm::Lazy,
            None,
            SEED,
        )
        .unwrap();
        let accesses = p.cores as u64 * ACCESSES;
        let rate = s.read_txns as f64 / accesses as f64;
        assert!(
            (0.02..=0.7).contains(&rate),
            "{}: ring reads per access = {rate:.3}",
            p.name
        );
    }
}

/// The write-heavy apps that drive Exact's downgrades must actually
/// pressure the 2K-entry table; the sharing-heavy apps must not dominate
/// it (the Figure 10 contrast).
#[test]
fn exact_pressure_varies_across_apps() {
    let dg_rate = |name: &str| {
        let p = profiles::splash2_apps()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap()
            .with_accesses(ACCESSES);
        let s = run_workload(&p, Algorithm::Exact, None, SEED).unwrap();
        s.downgrades as f64 / s.read_txns as f64
    };
    let heavy = dg_rate("radix");
    let light = dg_rate("raytrace");
    assert!(
        heavy > light,
        "radix ({heavy:.2}) must out-pressure raytrace ({light:.2})"
    );
    assert!(
        heavy > 0.3,
        "radix must thrash the Exact table ({heavy:.2})"
    );
}

/// Think-time scaling keeps the Lazy-to-SupersetAgg gap in the paper's
/// 6-16% range at the suite level (the Figure 8 calibration target).
#[test]
fn execution_gap_is_calibrated() {
    let mut ratios = Vec::new();
    for p in [
        profiles::splash2_apps().remove(0),
        profiles::specjbb(),
        profiles::specweb(),
    ] {
        let p = p.with_accesses(4_000);
        let lazy = run_workload(&p, Algorithm::Lazy, None, SEED).unwrap();
        let agg = run_workload(&p, Algorithm::SupersetAgg, None, SEED).unwrap();
        ratios.push((p.name.clone(), agg.exec_time() / lazy.exec_time()));
    }
    for (name, r) in ratios {
        assert!(
            (0.80..=0.97).contains(&r),
            "{name}: SupersetAgg/Lazy = {r:.3} outside the calibrated band"
        );
    }
}

/// Figure 9's headline ordering: Superset Agg spends less snoop energy
/// than Eager (paper: 9–17% less), and Superset Con less than Superset
/// Agg (paper: 36–42% less), at the scale `execution_gap_is_calibrated`
/// uses.
#[test]
fn energy_ordering_matches_figure_9() {
    for p in [
        profiles::splash2_apps().remove(0),
        profiles::specjbb(),
        profiles::specweb(),
    ] {
        let p = p.with_accesses(4_000);
        let energy = |algorithm| run_workload(&p, algorithm, None, SEED).unwrap().energy_nj();
        let eager = energy(Algorithm::Eager);
        let agg = energy(Algorithm::SupersetAgg);
        let con = energy(Algorithm::SupersetCon);
        assert!(
            eager > agg && agg > con,
            "{}: energy must fall Eager > SupersetAgg > SupersetCon, got \
             {eager:.0} / {agg:.0} / {con:.0} nJ",
            p.name
        );
    }
}
