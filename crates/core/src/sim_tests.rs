//! Scenario tests for the protocol engine.
//!
//! Each test builds a small, explicit access script (one `VecStream` per
//! core), runs the full simulator, and asserts on the resulting coherence
//! states and counters — timing-independent observables only.

use flexsnoop_engine::Cycles;
use flexsnoop_mem::{CmpId, CoherState, LineAddr};
use flexsnoop_predictor::PredictorSpec;
use flexsnoop_workload::{AccessStream, MemAccess};

use crate::algorithm::{Algorithm, DynPolicy};
use crate::config::MachineConfig;
use crate::experiments::VecStream;
use crate::sim::{energy_model_for, Simulator};
use crate::stats::RunStats;

/// Builds a machine of 8 CMPs × `cores_per_cmp` running the per-core
/// scripts (each access gets a 10-cycle think time).
fn run_script(
    algorithm: Algorithm,
    predictor: PredictorSpec,
    cores_per_cmp: usize,
    script: &[&[(u64, bool)]],
    tweak: impl FnOnce(&mut MachineConfig),
) -> (Simulator, RunStats) {
    let mut machine = MachineConfig::isca2006(cores_per_cmp);
    tweak(&mut machine);
    let total = machine.total_cores();
    assert!(script.len() <= total, "script has too many cores");
    let mut streams: Vec<Box<dyn AccessStream + Send>> = Vec::new();
    let mut limit = 0;
    for c in 0..total {
        let accesses: Vec<MemAccess> = script
            .get(c)
            .map(|s| {
                s.iter()
                    .map(|&(line, write)| MemAccess {
                        line: LineAddr(line),
                        write,
                        think: Cycles(10),
                    })
                    .collect()
            })
            .unwrap_or_default();
        limit = limit.max(accesses.len() as u64);
        streams.push(Box::new(VecStream::new(accesses)));
    }
    let mut sim = Simulator::new(
        machine,
        algorithm,
        predictor,
        energy_model_for(&predictor),
        streams,
        limit.max(1),
    )
    .expect("valid scenario");
    let stats = sim.run();
    sim.validate_coherence().expect("coherent final state");
    (sim, stats)
}

/// Shorthand: 1 core per CMP (global core i lives on CMP i).
fn run1(algorithm: Algorithm, script: &[&[(u64, bool)]]) -> (Simulator, RunStats) {
    run_script(algorithm, algorithm.default_predictor(), 1, script, |_| {})
}

const RD: bool = false;
const WR: bool = true;

#[test]
fn cold_read_fills_from_memory_as_sg() {
    // exclusive_fill is off by default: a memory fill installs SG.
    let (sim, stats) = run1(Algorithm::Lazy, &[&[(100, RD)]]);
    assert_eq!(stats.read_txns, 1);
    assert_eq!(stats.reads_from_memory, 1);
    assert_eq!(stats.reads_cache_supplied, 0);
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::Sg);
}

#[test]
fn exclusive_fill_installs_e_when_proven() {
    // Lazy snoops every node, proving no copy exists anywhere.
    let (sim, _) = run_script(
        Algorithm::Lazy,
        PredictorSpec::None,
        1,
        &[&[(100, RD)]],
        |m| m.policy.exclusive_fill = true,
    );
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::E);
}

#[test]
fn filtered_algorithms_cannot_prove_exclusivity() {
    // SupersetCon filters negative predictions, so even with the policy on
    // the fill must stay SG.
    let (sim, _) = run_script(
        Algorithm::SupersetCon,
        PredictorSpec::SUP_Y2K,
        1,
        &[&[(100, RD)]],
        |m| m.policy.exclusive_fill = true,
    );
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::Sg);
}

#[test]
fn second_read_hits_own_cache() {
    let (_, stats) = run1(Algorithm::Lazy, &[&[(100, RD), (100, RD), (100, RD)]]);
    assert_eq!(stats.read_txns, 1, "only the cold miss rides the ring");
    assert_eq!(stats.l1_hits + stats.l2_hits, 2);
}

#[test]
fn remote_cache_supplies_and_states_transition() {
    // Core 0 (cmp0) fetches line 100 from memory (SG). Core 1 (cmp1) then
    // reads it: cmp0 supplies, stays SG; cmp1 installs SL.
    let (sim, stats) = run1(Algorithm::Lazy, &[&[(100, RD)], &[(0, RD), (100, RD)]]);
    assert_eq!(stats.reads_cache_supplied, 1);
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::Sg);
    assert_eq!(sim.line_state(CmpId(1), 0, LineAddr(100)), CoherState::Sl);
}

#[test]
fn dirty_supplier_transitions_to_tagged() {
    // Core 0 writes line 100 (D). Core 1 reads it: supplier D -> T,
    // reader installs SL. Memory was never updated (T is dirty).
    let (sim, stats) = run1(
        Algorithm::Lazy,
        &[&[(100, WR)], &[(0, RD), (0, RD), (100, RD)]],
    );
    assert_eq!(stats.reads_cache_supplied, 1);
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::T);
    assert_eq!(sim.line_state(CmpId(1), 0, LineAddr(100)), CoherState::Sl);
}

#[test]
fn write_invalidates_all_remote_copies() {
    // Core 0 and core 1 both read line 100; core 2 then writes it.
    let (sim, stats) = run1(
        Algorithm::Lazy,
        &[
            &[(100, RD)],
            &[(0, RD), (100, RD)],
            &[(8, RD), (8, RD), (8, RD), (100, WR)],
        ],
    );
    assert!(stats.write_txns >= 1);
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::I);
    assert_eq!(sim.line_state(CmpId(1), 0, LineAddr(100)), CoherState::I);
    assert_eq!(sim.line_state(CmpId(2), 0, LineAddr(100)), CoherState::D);
}

#[test]
fn silent_write_on_dirty_line() {
    let (_, stats) = run1(Algorithm::Lazy, &[&[(100, WR), (100, WR), (100, WR)]]);
    assert_eq!(stats.write_txns, 1, "first write allocates via the ring");
    assert_eq!(stats.silent_write_hits, 2, "subsequent writes are silent");
}

#[test]
fn upgrade_write_needs_no_data() {
    // Read installs SG (clean); write upgrades via the ring.
    let (sim, stats) = run1(Algorithm::Lazy, &[&[(100, RD), (100, WR)]]);
    assert_eq!(stats.read_txns, 1);
    assert_eq!(stats.write_txns, 1);
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::D);
}

#[test]
fn local_peer_supplies_within_cmp() {
    // Two cores on the same CMP: core 0 fetches, core 1 reads locally.
    let (sim, stats) = run_script(
        Algorithm::Lazy,
        PredictorSpec::None,
        2,
        &[&[(100, RD)], &[(0, RD), (100, RD)]],
        |_| {},
    );
    assert_eq!(stats.read_txns, 2, "lines 0 and 100, not the peer hit");
    assert_eq!(stats.local_peer_hits, 1);
    // SG holder keeps it; the local reader installs plain S.
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::Sg);
    assert_eq!(sim.line_state(CmpId(0), 1, LineAddr(100)), CoherState::S);
}

#[test]
fn lazy_snoops_up_to_the_supplier() {
    // Supplier on cmp3; requester on cmp0: Lazy snoops cmps 1, 2, 3.
    let (_, stats) = run1(
        Algorithm::Lazy,
        &[
            &[(0, RD), (0, RD), (100, RD)],
            &[],
            &[],
            &[(100, RD)], // cmp3 fetches line 100 first (think order)
        ],
    );
    // Two ring reads total: cmp3's cold miss (memory, snoops 7) and cmp0's
    // (supplied at distance 3, snoops 3).
    assert_eq!(stats.read_txns, 3); // line 0 cold + the two above
    assert_eq!(stats.reads_cache_supplied, 1);
}

#[test]
fn eager_snoops_every_node() {
    let (_, stats) = run1(Algorithm::Eager, &[&[(100, RD)]]);
    assert_eq!(stats.read_snoops, 7, "all N-1 nodes snoop under Eager");
}

#[test]
fn lazy_snoops_every_node_when_memory_bound() {
    let (_, stats) = run1(Algorithm::Lazy, &[&[(100, RD)]]);
    assert_eq!(stats.read_snoops, 7);
    assert_eq!(stats.read_ring_hops, 8, "one full circulation");
}

#[test]
fn eager_nearly_doubles_ring_messages() {
    let (_, stats) = run1(Algorithm::Eager, &[&[(100, RD)]]);
    // Combined on the first segment, then request + reply on 7 segments.
    assert_eq!(stats.read_ring_hops, 15);
}

#[test]
fn oracle_snoops_only_the_supplier() {
    let (_, stats) = run1(
        Algorithm::Oracle,
        &[&[(0, RD), (0, RD), (100, RD)], &[], &[], &[(100, RD)]],
    );
    // cmp3's miss (line 100) and cmp0's line-0 miss go to memory with zero
    // snoops; cmp0's line-100 read snoops exactly once (at cmp3).
    assert_eq!(stats.read_snoops, 1);
    assert_eq!(stats.reads_cache_supplied, 1);
}

#[test]
fn oracle_memory_reads_snoop_nothing() {
    let (_, stats) = run1(Algorithm::Oracle, &[&[(100, RD)]]);
    assert_eq!(stats.read_snoops, 0);
    assert_eq!(stats.read_ring_hops, 8, "the message still serializes");
}

#[test]
fn write_collision_serializes_and_converges() {
    // All eight cores write the same line "simultaneously".
    let script: Vec<&[(u64, bool)]> = vec![&[(100, WR)]; 8];
    let (sim, stats) = run1(Algorithm::Lazy, &script);
    assert_eq!(stats.write_txns, 8);
    assert!(stats.collisions > 0, "same-line writes must collide");
    // Exactly one owner at the end.
    let owners: Vec<usize> = (0..8)
        .filter(|&n| sim.line_state(CmpId(n), 0, LineAddr(100)) == CoherState::D)
        .collect();
    assert_eq!(owners.len(), 1, "owners: {owners:?}");
}

#[test]
fn read_read_collisions_do_not_occur() {
    // Concurrent reads of one line are benign and run concurrently.
    let script: Vec<&[(u64, bool)]> = vec![&[(100, RD)]; 8];
    let (_, stats) = run1(Algorithm::Lazy, &script);
    assert_eq!(stats.read_txns, 8);
}

#[test]
fn exact_downgrade_writes_back_dirty_victims() {
    // A tiny Exact table (8 entries) forces downgrades quickly: core 0
    // dirties 16 lines in distinct sets, overflowing the table.
    let lines: Vec<(u64, bool)> = (0..16).map(|i| (100 + i, WR)).collect();
    let (sim, stats) = run_script(
        Algorithm::Exact,
        PredictorSpec::Exact { entries: 8 },
        1,
        &[&lines],
        |_| {},
    );
    assert!(stats.downgrades >= 8, "downgrades: {}", stats.downgrades);
    assert!(
        stats.downgrade_writebacks >= 8,
        "dirty victims must be written back: {}",
        stats.downgrade_writebacks
    );
    // Downgraded lines stay cached as SL.
    let sl_count = (0..16)
        .filter(|&i| sim.line_state(CmpId(0), 0, LineAddr(100 + i)) == CoherState::Sl)
        .count();
    assert!(sl_count >= 8, "SL lines: {sl_count}");
}

#[test]
fn downgraded_line_is_rereads_from_memory() {
    // Core 0 dirties lines that overflow the Exact table; core 1 then
    // reads one of the downgraded lines -> memory re-read, not supply.
    let lines: Vec<(u64, bool)> = (0..16).map(|i| (100 + i, WR)).collect();
    let mut reader = vec![(0u64, RD); 20]; // idle long enough for the writes
    reader.push((100, RD));
    let (_, stats) = run_script(
        Algorithm::Exact,
        PredictorSpec::Exact { entries: 8 },
        1,
        &[&lines, &reader],
        |_| {},
    );
    assert!(
        stats.downgrade_rereads >= 1,
        "re-read of a downgraded line must be counted"
    );
}

#[test]
fn superset_never_misses_a_supplier() {
    // Whatever the aliasing, the Superset algorithms must find the
    // supplier (no false negatives): supply count matches Lazy's.
    let script: Vec<Vec<(u64, bool)>> = (0..8u64)
        .map(|c| {
            let mut v: Vec<(u64, bool)> = (0..50).map(|i| (1000 + c * 50 + i, WR)).collect();
            v.extend((0..50).map(|i| (1000 + ((c + 1) % 8) * 50 + i, RD)));
            v
        })
        .collect();
    let script_refs: Vec<&[(u64, bool)]> = script.iter().map(|v| v.as_slice()).collect();
    let (_, lazy) = run1(Algorithm::Lazy, &script_refs);
    let (_, con) = run_script(
        Algorithm::SupersetCon,
        PredictorSpec::SUP_Y2K,
        1,
        &script_refs,
        |_| {},
    );
    let (_, agg) = run_script(
        Algorithm::SupersetAgg,
        PredictorSpec::SUP_Y2K,
        1,
        &script_refs,
        |_| {},
    );
    assert_eq!(lazy.reads_cache_supplied, con.reads_cache_supplied);
    assert_eq!(lazy.reads_cache_supplied, agg.reads_cache_supplied);
    assert_eq!(con.accuracy.false_negatives, 0, "Superset has no FNs");
    assert_eq!(agg.accuracy.false_negatives, 0, "Superset has no FNs");
}

#[test]
fn subset_never_false_positive() {
    let script: Vec<Vec<(u64, bool)>> = (0..8u64)
        .map(|c| {
            let mut v: Vec<(u64, bool)> = (0..80).map(|i| (2000 + c * 80 + i, WR)).collect();
            v.extend((0..80).map(|i| (2000 + ((c + 3) % 8) * 80 + i, RD)));
            v
        })
        .collect();
    let script_refs: Vec<&[(u64, bool)]> = script.iter().map(|v| v.as_slice()).collect();
    let (_, stats) = run_script(
        Algorithm::Subset,
        PredictorSpec::SUB512,
        1,
        &script_refs,
        |_| {},
    );
    assert_eq!(stats.accuracy.false_positives, 0, "Subset has no FPs");
}

#[test]
fn oracle_prediction_is_perfect() {
    let script: Vec<Vec<(u64, bool)>> = (0..8u64)
        .map(|c| {
            let mut v: Vec<(u64, bool)> = (0..40).map(|i| (3000 + c * 40 + i, WR)).collect();
            v.extend((0..40).map(|i| (3000 + ((c + 5) % 8) * 40 + i, RD)));
            v
        })
        .collect();
    let script_refs: Vec<&[(u64, bool)]> = script.iter().map(|v| v.as_slice()).collect();
    let (_, stats) = run1(Algorithm::Oracle, &script_refs);
    assert_eq!(stats.accuracy.false_positives, 0);
    assert_eq!(stats.accuracy.false_negatives, 0);
    assert!(stats.accuracy.true_positives > 0);
}

#[test]
fn deterministic_across_runs() {
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(300);
    let a = crate::experiments::run_workload(&profile, Algorithm::SupersetAgg, None, 99).unwrap();
    let b = crate::experiments::run_workload(&profile, Algorithm::SupersetAgg, None, 99).unwrap();
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.read_snoops, b.read_snoops);
    assert_eq!(a.read_ring_hops, b.read_ring_hops);
    assert_eq!(a.energy_nj(), b.energy_nj());
}

#[test]
fn dynamic_variant_interpolates_between_con_and_agg() {
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(800);
    let run = |alg| crate::experiments::run_workload(&profile, alg, None, 5).unwrap();
    let con = run(Algorithm::SupersetCon);
    let agg = run(Algorithm::SupersetAgg);
    let dyn_perf = run(Algorithm::SupersetDyn(DynPolicy::PerformanceFirst));
    let dyn_eco = run(Algorithm::SupersetDyn(DynPolicy::EnergyFirst));
    // PerformanceFirst behaves like Agg on reads. EnergyFirst takes Con's
    // read actions but keeps the decoupled write datapath, so timing (and
    // hence collision patterns) may differ microscopically from Con's.
    assert_eq!(dyn_perf.read_snoops, agg.read_snoops);
    let eco = dyn_eco.read_snoops as f64;
    let con_snoops = con.read_snoops as f64;
    assert!(
        (eco - con_snoops).abs() / con_snoops < 0.01,
        "EnergyFirst ({eco}) should track Con ({con_snoops})"
    );
    // A middling budget lands between the two extremes.
    let mid = run(Algorithm::SupersetDyn(DynPolicy::EnergyBudget(2.0)));
    assert!(
        mid.read_ring_hops <= dyn_perf.read_ring_hops
            && mid.read_ring_hops >= dyn_eco.read_ring_hops,
        "mid {} not within [{}, {}]",
        mid.read_ring_hops,
        dyn_eco.read_ring_hops,
        dyn_perf.read_ring_hops
    );
}

#[test]
fn misconfigured_simulator_is_rejected() {
    let profile = flexsnoop_workload::profiles::specjbb().with_accesses(10);
    // Lazy cannot take a Superset predictor.
    let err = crate::experiments::run_workload(
        &profile,
        Algorithm::Lazy,
        Some(PredictorSpec::SUP_Y2K),
        1,
    );
    assert!(err.is_err());
    // 32-core workload needs cores divisible by nodes — 30 is not.
    let mut bad = profile.clone();
    bad.cores = 30;
    assert!(crate::experiments::run_workload(&bad, Algorithm::Lazy, None, 1).is_err());
}

#[test]
fn home_prefetch_shortens_memory_reads() {
    let profile = flexsnoop_workload::profiles::specjbb().with_accesses(500);
    let on = crate::experiments::run_workload(&profile, Algorithm::Lazy, None, 3).unwrap();
    let mut sim_off = {
        let machine = {
            let mut m = MachineConfig::isca2006(1);
            m.memory.home_prefetch = false;
            m
        };
        let streams: Vec<Box<dyn AccessStream + Send>> = profile
            .streams(3)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
            .collect();
        Simulator::new(
            machine,
            Algorithm::Lazy,
            PredictorSpec::None,
            energy_model_for(&PredictorSpec::None),
            streams,
            500,
        )
        .unwrap()
    };
    let off = sim_off.run();
    assert!(
        on.exec_cycles < off.exec_cycles,
        "prefetch on ({}) should beat off ({})",
        on.exec_cycles,
        off.exec_cycles
    );
}

#[test]
fn energy_accounts_for_ring_snoop_and_predictor() {
    use flexsnoop_metrics::EnergyCategory;
    let (_, stats) = run_script(
        Algorithm::SupersetCon,
        PredictorSpec::SUP_Y2K,
        1,
        &[&[(100, RD)]],
        |_| {},
    );
    assert!(stats.energy.count(EnergyCategory::RingLink) >= 8);
    assert!(stats.energy.count(EnergyCategory::PredictorLookup) > 0);
    assert!(stats.energy.total_nj() > 0.0);
}

#[test]
fn single_ring_configuration_works() {
    let (_, stats) = run_script(
        Algorithm::Lazy,
        PredictorSpec::None,
        1,
        &[&[(100, RD)]],
        |m| m.ring.rings = 1,
    );
    assert_eq!(stats.read_ring_hops, 8);
}

#[test]
fn mlp_reads_overlap_and_stay_coherent() {
    // Eight independent cold misses per core: with 4 outstanding reads the
    // misses overlap and the run finishes much sooner than blocking cores.
    let script: Vec<Vec<(u64, bool)>> = (0..8u64)
        .map(|c| (0..8).map(|i| (5000 + c * 8 + i, RD)).collect())
        .collect();
    let script_refs: Vec<&[(u64, bool)]> = script.iter().map(|v| v.as_slice()).collect();
    let (_, blocking) = run1(Algorithm::Lazy, &script_refs);
    let (sim, mlp) = run_script(Algorithm::Lazy, PredictorSpec::None, 1, &script_refs, |m| {
        m.policy.max_outstanding_reads = 4
    });
    assert_eq!(blocking.read_txns, mlp.read_txns);
    assert!(
        mlp.exec_cycles.as_u64() < blocking.exec_cycles.as_u64() * 2 / 3,
        "MLP {} should clearly beat blocking {}",
        mlp.exec_cycles,
        blocking.exec_cycles
    );
    sim.validate_coherence().expect("coherent with MLP");
}

#[test]
fn mlp_one_is_identical_to_blocking_default() {
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(300);
    let a = crate::experiments::run_workload(&profile, Algorithm::Eager, None, 77).unwrap();
    let streams: Vec<Box<dyn AccessStream + Send>> = profile
        .streams(77)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
        .collect();
    let mut machine = MachineConfig::isca2006(1);
    machine.policy.max_outstanding_reads = 1; // explicit
    let mut sim = Simulator::new(
        machine,
        Algorithm::Eager,
        PredictorSpec::None,
        energy_model_for(&PredictorSpec::None),
        streams,
        300,
    )
    .unwrap();
    let b = sim.run();
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.read_snoops, b.read_snoops);
}

#[test]
fn mlp_with_collisions_does_not_leak_slots() {
    // All cores hammer two hot lines with reads and writes under MLP:
    // collision replays must return their load-queue slots or the run
    // deadlocks (the run() completion assert catches that).
    let script: Vec<&[(u64, bool)]> =
        vec![&[(7000, RD), (7001, WR), (7000, WR), (7001, RD), (7000, RD),]; 8];
    let (sim, stats) = run_script(Algorithm::Lazy, PredictorSpec::None, 1, &script, |m| {
        m.policy.max_outstanding_reads = 4
    });
    assert!(stats.collisions > 0, "hot lines must collide");
    sim.validate_coherence().expect("coherent");
}

#[test]
fn write_miss_gets_data_from_remote_dirty_owner() {
    // Core 0 dirties line 100; core 1 then writes it: the write snoop
    // invalidates core 0's D copy, which donates the data (no memory read).
    let (sim, stats) = run1(
        Algorithm::Lazy,
        &[&[(100, WR)], &[(0, RD), (0, RD), (100, WR)]],
    );
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::I);
    assert_eq!(sim.line_state(CmpId(1), 0, LineAddr(100)), CoherState::D);
    // Reads from memory: only the two line-0 warmup reads' txn... line 0 is
    // read twice by core 1 (one ring txn, second is a cache hit) plus core
    // 0's line-100 write-allocate from memory.
    assert_eq!(stats.reads_from_memory, 1);
}

#[test]
fn dirty_eviction_writes_back() {
    // The L2 is 8-way with 1024 sets: 9 dirty lines in one set must evict
    // at least one, triggering a write-back.
    let lines: Vec<(u64, bool)> = (0..9).map(|i| (100 + i * 1024, WR)).collect();
    let (_, stats) = run1(Algorithm::Lazy, &[&lines]);
    assert!(stats.eviction_writebacks >= 1);
}

#[test]
fn clean_eviction_does_not_write_back() {
    let lines: Vec<(u64, bool)> = (0..9).map(|i| (100 + i * 1024, RD)).collect();
    let (_, stats) = run1(Algorithm::Lazy, &[&lines]);
    assert_eq!(stats.eviction_writebacks, 0, "SG evictions are silent");
}

#[test]
fn timeline_records_full_transaction_life() {
    use crate::timeline::TxnEvent;
    let machine = MachineConfig::isca2006(1);
    let streams: Vec<Box<dyn AccessStream + Send>> = (0..8)
        .map(|core| {
            let accesses = if core == 0 {
                vec![MemAccess::read(LineAddr(100), Cycles(10))]
            } else {
                vec![]
            };
            Box::new(VecStream::new(accesses)) as Box<dyn AccessStream + Send>
        })
        .collect();
    let mut sim = Simulator::new(
        machine,
        Algorithm::Lazy,
        PredictorSpec::None,
        energy_model_for(&PredictorSpec::None),
        streams,
        1,
    )
    .unwrap();
    sim.enable_timeline(4);
    sim.run();
    let timeline = sim.timeline().expect("timeline installed");
    let txn = timeline.transactions().next().expect("one txn");
    let events = timeline.events(txn);
    let has = |pred: fn(&TxnEvent) -> bool| events.iter().any(|(_, e)| pred(e));
    assert!(has(|e| matches!(e, TxnEvent::Issued { .. })));
    assert!(has(|e| matches!(e, TxnEvent::SnoopFinished { .. })));
    assert!(has(|e| matches!(
        e,
        TxnEvent::MemoryStarted { prefetch: true, .. }
    )));
    assert!(has(|e| matches!(e, TxnEvent::Completed)));
    assert!(has(|e| matches!(e, TxnEvent::Retired)));
    // Timestamps are non-decreasing in record order.
    for pair in events.windows(2) {
        assert!(pair[0].0 <= pair[1].0);
    }
    // Lazy snoops all 7 nodes for a memory-bound read.
    let snoops = events
        .iter()
        .filter(|(_, e)| matches!(e, TxnEvent::SnoopFinished { .. }))
        .count();
    assert_eq!(snoops, 7);
}

#[test]
fn tagged_line_survives_reader_eviction() {
    // Core 0 dirties a line, core 1 reads it (T at core 0, SL at core 1).
    // When core 1's copy is evicted, core 0's T copy still serves reads.
    let reader: Vec<(u64, bool)> = std::iter::once((100u64, RD))
        .chain((0..9).map(|i| (200 + i * 1024, RD))) // flood one set
        .collect();
    let (sim, _) = run1(Algorithm::Lazy, &[&[(100, WR)], &reader]);
    assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::T);
}

#[test]
fn exact_with_perfect_predictor_is_oracle() {
    // Exact actions + perfect prediction = the Oracle algorithm: same
    // snoop counts on the same trace.
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(400);
    let oracle = crate::experiments::run_workload(&profile, Algorithm::Oracle, None, 13).unwrap();
    let exact_perfect = crate::experiments::run_workload(
        &profile,
        Algorithm::Exact,
        Some(PredictorSpec::Perfect),
        13,
    )
    .unwrap();
    assert_eq!(oracle.read_snoops, exact_perfect.read_snoops);
    assert_eq!(oracle.read_ring_hops, exact_perfect.read_ring_hops);
}

#[test]
fn concurrent_same_cmp_reads_elect_one_local_master() {
    // Cores 0 and 1 share CMP 0; both read line 100 concurrently while
    // core 4 (cmp2) is the supplier. Only one may install SL.
    let (sim, stats) = run_script(
        Algorithm::Lazy,
        PredictorSpec::None,
        2,
        &[
            &[(0, RD), (0, RD), (100, RD)],
            &[(8, RD), (8, RD), (100, RD)],
            &[],
            &[],
            &[(100, RD)], // cmp2 warms the line first
        ],
        |_| {},
    );
    assert!(stats.reads_cache_supplied >= 2);
    let s0 = sim.line_state(CmpId(0), 0, LineAddr(100));
    let s1 = sim.line_state(CmpId(0), 1, LineAddr(100));
    let sl_count = [s0, s1].iter().filter(|&&s| s == CoherState::Sl).count();
    assert!(sl_count <= 1, "states: {s0} {s1}");
    assert!(s0.is_valid() && s1.is_valid());
}

#[test]
fn write_filtering_skips_copyless_nodes() {
    // A cold write miss: no node holds the line, so with the presence
    // filter on, all 7 invalidation snoops are (mostly) filtered away.
    let (sim, stats) = run_script(
        Algorithm::Lazy,
        PredictorSpec::None,
        1,
        &[&[(100, WR)]],
        |m| m.policy.write_filtering = true,
    );
    assert!(
        sim.write_snoops_filtered() >= 5,
        "filtered only {}",
        sim.write_snoops_filtered()
    );
    assert!(stats.write_snoops <= 2, "snooped {}", stats.write_snoops);
}

#[test]
fn write_filtering_never_skips_a_copy_holder() {
    // Cores 0..=2 cache the line; core 3 writes it long after every read
    // has completed (the writer idles on private hits first). Every
    // holder must be invalidated despite the filter.
    let mut writer: Vec<(u64, bool)> = vec![(16, RD); 300];
    writer.push((100, WR));
    let (sim, _) = run_script(
        Algorithm::Lazy,
        PredictorSpec::None,
        1,
        &[
            &[(100, RD)],
            &[(0, RD), (100, RD)],
            &[(8, RD), (8, RD), (100, RD)],
            &writer,
        ],
        |m| m.policy.write_filtering = true,
    );
    for n in 0..3 {
        assert_eq!(
            sim.line_state(CmpId(n), 0, LineAddr(100)),
            CoherState::I,
            "cmp{n} must be invalidated"
        );
    }
    assert_eq!(sim.line_state(CmpId(3), 0, LineAddr(100)), CoherState::D);
}

#[test]
fn write_filtering_preserves_results_on_full_workload() {
    // Same trace with and without the filter: identical coherence-visible
    // outcomes (supply counts), fewer write snoops, coherent at the end.
    let profile = flexsnoop_workload::profiles::specjbb().with_accesses(1_000);
    let streams = |seed| -> Vec<Box<dyn AccessStream + Send>> {
        profile
            .streams(seed)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
            .collect()
    };
    let run = |filtering: bool| {
        let mut machine = MachineConfig::isca2006(1);
        machine.policy.write_filtering = filtering;
        let mut sim = Simulator::new(
            machine,
            Algorithm::SupersetAgg,
            PredictorSpec::SUP_Y2K,
            energy_model_for(&PredictorSpec::SUP_Y2K),
            streams(21),
            1_000,
        )
        .unwrap();
        let stats = sim.run();
        sim.validate_coherence().expect("coherent");
        (stats, sim.write_snoops_filtered())
    };
    let (base, base_filtered) = run(false);
    let (filt, filt_filtered) = run(true);
    assert_eq!(base_filtered, 0);
    assert!(filt_filtered > 0);
    assert!(
        filt.write_snoops < base.write_snoops,
        "filtering must reduce write snoops ({} vs {})",
        filt.write_snoops,
        base.write_snoops
    );
    // Timing shifts may change collision interleavings slightly, but the
    // transaction volume must stay essentially identical.
    let ratio = filt.write_txns as f64 / base.write_txns as f64;
    assert!(
        (0.98..=1.02).contains(&ratio),
        "write txns diverged: {ratio}"
    );
}

/// §4.3.4's asymmetry, demonstrated end to end: injected FALSE POSITIVES
/// under a filtering algorithm only cost extra snoops — execution stays
/// correct.
#[test]
fn injected_false_positives_are_harmless() {
    use flexsnoop_metrics::EnergyModel;
    use flexsnoop_predictor::{
        FaultInjectingPredictor, FaultKind, SupersetPredictor, SupplierPredictor,
    };
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(600);
    let machine = MachineConfig::isca2006(1);
    let build = |faulty: bool| {
        let streams: Vec<Box<dyn AccessStream + Send>> = profile
            .streams(33)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
            .collect();
        let predictors: Vec<Box<dyn SupplierPredictor + Send>> = (0..8)
            .map(|_| {
                if faulty {
                    Box::new(FaultInjectingPredictor::new(
                        SupersetPredictor::y2k(),
                        FaultKind::ForcePositive,
                        5,
                        u64::MAX,
                    )) as Box<dyn SupplierPredictor + Send>
                } else {
                    Box::new(SupersetPredictor::y2k()) as Box<dyn SupplierPredictor + Send>
                }
            })
            .collect();
        Simulator::with_predictors(
            machine,
            Algorithm::SupersetCon,
            predictors,
            EnergyModel::with_bloom_predictor(),
            streams,
            600,
        )
        .unwrap()
    };
    let mut honest = build(false);
    let honest_stats = honest.run();
    honest.validate_coherence().expect("honest run coherent");
    let mut faulty = build(true);
    let faulty_stats = faulty.run();
    faulty
        .validate_coherence()
        .expect("FP-injected run stays coherent");
    assert!(
        faulty_stats.read_snoops > honest_stats.read_snoops,
        "forced positives must add useless snoops ({} vs {})",
        faulty_stats.read_snoops,
        honest_stats.read_snoops
    );
    assert_eq!(
        honest_stats.reads_cache_supplied, faulty_stats.reads_cache_supplied,
        "supply outcomes unchanged"
    );
}

/// §4.3.4's dangerous direction: an injected FALSE NEGATIVE makes a
/// filtering algorithm skip the supplier. In hardware this is incorrect
/// execution; the simulator's fill-time guard converts it into the
/// squash-and-retry a correct implementation would need — observable as
/// extra collisions.
#[test]
fn injected_false_negative_forces_squash_retry() {
    use flexsnoop_metrics::EnergyModel;
    use flexsnoop_predictor::{
        FaultInjectingPredictor, FaultKind, PerfectPredictor, SupplierPredictor,
    };
    let machine = MachineConfig::isca2006(1);
    // Core 0 dirties line 100 (D at cmp0); core 4 then reads it. All
    // predictions are corrupted to "no supplier", so every node filters,
    // the read goes to memory, finds stale data (dirty copy exists), and
    // must squash-retry until the fault budget (3) is spent.
    let script: Vec<Vec<(u64, bool)>> = vec![
        vec![(100, WR)],
        vec![],
        vec![],
        vec![],
        vec![(0, RD), (0, RD), (0, RD), (100, RD)],
    ];
    let streams: Vec<Box<dyn AccessStream + Send>> = (0..8)
        .map(|c| {
            let accesses: Vec<MemAccess> = script
                .get(c)
                .map(|s| {
                    s.iter()
                        .map(|&(l, w)| MemAccess {
                            line: LineAddr(l),
                            write: w,
                            think: Cycles(10),
                        })
                        .collect()
                })
                .unwrap_or_default();
            Box::new(VecStream::new(accesses)) as Box<dyn AccessStream + Send>
        })
        .collect();
    let predictors: Vec<Box<dyn SupplierPredictor + Send>> = (0..8)
        .map(|_| {
            Box::new(FaultInjectingPredictor::new(
                PerfectPredictor::new(),
                FaultKind::ForceNegative,
                1,
                3,
            )) as Box<dyn SupplierPredictor + Send>
        })
        .collect();
    let mut sim = Simulator::with_predictors(
        machine,
        Algorithm::SupersetCon,
        predictors,
        EnergyModel::paper_baseline(),
        streams,
        4,
    )
    .unwrap();
    let stats = sim.run();
    sim.validate_coherence()
        .expect("guarded run stays coherent");
    assert!(
        stats.collisions > 0,
        "the stale-memory race must be caught and retried"
    );
    assert_eq!(
        sim.line_state(CmpId(4), 0, LineAddr(100)),
        CoherState::Sl,
        "the retry eventually gets the line from the dirty supplier"
    );
    assert!(stats.accuracy.false_negatives > 0, "faults were recorded");
}

#[test]
fn probe_counters_agree_with_run_stats() {
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(300);
    let mut sim = Simulator::for_workload(&profile, Algorithm::SupersetAgg, None, 11).unwrap();
    sim.enable_probe();
    let stats = sim.run();
    let report = sim.probe_report().expect("counting probe installed");
    // Every ring hop fed one latency sample.
    assert_eq!(
        report.ring_hop_latency.count(),
        stats.read_ring_hops + stats.write_ring_hops
    );
    // Each hop takes at least the configured link latency.
    let hop = sim.config().ring.hop_latency.0;
    assert!(report.ring_hop_latency.min().unwrap() >= hop);
    // Predictor lookups at open requests match the accuracy tallies.
    assert_eq!(report.predictor_lookups, stats.accuracy.total());
    assert_eq!(
        report.predictor_positive,
        stats.accuracy.true_positives + stats.accuracy.false_positives
    );
    assert!(report.predictor_trains > 0, "training was reported");
    // Table 2 primitive decisions were recorded, and the queue was
    // observed non-trivially deep at least once.
    assert!(report.total_actions() > 0);
    assert!(report.queue_depth_high_water > 1);
}

#[test]
fn probe_observes_write_filtering() {
    let mut machine = MachineConfig::isca2006(1);
    machine.policy.write_filtering = true;
    let script: &[&[(u64, bool)]] = &[&[(10, RD), (20, WR)], &[(30, RD)]];
    let total = machine.total_cores();
    let mut streams: Vec<Box<dyn AccessStream + Send>> = Vec::new();
    for c in 0..total {
        let accesses: Vec<MemAccess> = script
            .get(c)
            .map(|s| {
                s.iter()
                    .map(|&(line, write)| MemAccess {
                        line: LineAddr(line),
                        write,
                        think: Cycles(10),
                    })
                    .collect()
            })
            .unwrap_or_default();
        streams.push(Box::new(VecStream::new(accesses)));
    }
    let alg = Algorithm::SupersetAgg;
    let predictor = alg.default_predictor();
    let mut sim = Simulator::new(
        machine,
        alg,
        predictor,
        energy_model_for(&predictor),
        streams,
        2,
    )
    .expect("valid scenario");
    sim.enable_probe();
    let _ = sim.run();
    let report = sim.probe_report().unwrap();
    assert_eq!(
        report.write_filter_hits,
        sim.write_snoops_filtered(),
        "probe and simulator agree on elided write snoops"
    );
    assert!(
        report.write_filter_hits > 0,
        "an all-idle ring filters some invalidations"
    );
}

#[test]
fn probe_disabled_reports_nothing() {
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(50);
    let mut sim = Simulator::for_workload(&profile, Algorithm::Lazy, None, 11).unwrap();
    let _ = sim.run();
    assert!(sim.probe_report().is_none());
}

/// A drained run has started: swapping its queue would restart the clock
/// at zero and `finalize` would report `exec_cycles = 0`.
#[test]
#[should_panic(expected = "use_event_queue() must be called before run()")]
fn use_event_queue_after_a_drained_run_panics() {
    let profile = flexsnoop_workload::profiles::specweb().with_accesses(50);
    let mut sim = Simulator::for_workload(&profile, Algorithm::Lazy, None, 7).unwrap();
    sim.run_until(None);
    assert_eq!(sim.pending_events(), 0);
    sim.use_event_queue(flexsnoop_engine::QueueKind::Heap);
}

/// The event queue counts in the footprint: two fresh simulators that
/// differ only in their queue backend differ by exactly the queues'
/// bytes (an empty heap holds none, an empty wheel its fixed arrays).
#[test]
fn memory_footprint_counts_the_event_queue() {
    use flexsnoop_engine::{QueueKind, Scheduler};
    let footprint = |kind| {
        let profile = flexsnoop_workload::profiles::specweb().with_accesses(50);
        let mut sim = Simulator::for_workload(&profile, Algorithm::Lazy, None, 7).unwrap();
        sim.use_event_queue(kind);
        sim.memory_footprint().total_bytes
    };
    let wheel = Scheduler::<()>::with_queue(QueueKind::Bucketed).footprint_bytes();
    assert!(wheel > 0);
    assert_eq!(
        footprint(QueueKind::Bucketed) - footprint(QueueKind::Heap),
        wheel
    );
}

/// Like [`run_script`] but arms a fault plan (and recovery) before the
/// run, for the degraded-mode/probation scenarios. Returns the simulator
/// so callers can inspect every transaction's timeline.
fn run_faulted_script(
    algorithm: Algorithm,
    script: &[&[(u64, bool)]],
    plan: crate::FaultPlan,
    tweak: impl FnOnce(&mut MachineConfig),
) -> (Simulator, RunStats) {
    let mut machine = MachineConfig::isca2006(1);
    tweak(&mut machine);
    let total = machine.total_cores();
    let mut streams: Vec<Box<dyn AccessStream + Send>> = Vec::new();
    let mut limit = 0;
    for c in 0..total {
        let accesses: Vec<MemAccess> = script
            .get(c)
            .map(|s| {
                s.iter()
                    .map(|&(line, write)| MemAccess {
                        line: LineAddr(line),
                        write,
                        think: Cycles(10),
                    })
                    .collect()
            })
            .unwrap_or_default();
        limit = limit.max(accesses.len() as u64);
        streams.push(Box::new(VecStream::new(accesses)));
    }
    let predictor = algorithm.default_predictor();
    let mut sim = Simulator::new(
        machine,
        algorithm,
        predictor,
        energy_model_for(&predictor),
        streams,
        limit.max(1),
    )
    .expect("valid scenario");
    sim.enable_invariant_checks();
    sim.enable_timeline(usize::MAX);
    sim.set_fault_plan(plan);
    sim.set_recovery_enabled(true);
    let stats = sim.run();
    assert!(sim.violations().is_empty(), "{}", sim.violations()[0]);
    assert_eq!(sim.in_flight(), 0, "transactions stranded");
    sim.validate_coherence().expect("coherent final state");
    (sim, stats)
}

/// Drops the first four ring crossings: the opening write to line 100
/// times out past the retry cap and the line degrades to Lazy
/// forwarding. The three reads that follow ride a clean ring.
fn probation_script() -> (&'static [&'static [(u64, bool)]], crate::FaultPlan) {
    let script: &[&[(u64, bool)]] = &[&[(100, WR)], &[(100, RD)], &[(100, RD)], &[(100, RD)]];
    let mut plan = crate::FaultPlan::lossless();
    plan.drop = 1.0;
    plan.budget = 4;
    (script, plan)
}

#[test]
fn degraded_line_rearms_after_exactly_the_probation_window() {
    let (script, plan) = probation_script();
    // retry_cap = 3 (default): four consecutive drops of one
    // transaction's request push it to attempt 3, degrading the line.
    let (_, stats) = run_faulted_script(Algorithm::SupersetCon, script, plan, |m| {
        m.recovery.probation_window = 3;
    });
    let r = &stats.robustness;
    assert_eq!(r.ring_drops, 4, "{r:?}");
    assert_eq!(r.degraded_entries, 1, "{r:?}");
    // Exactly three clean first-attempt circulations follow — the third
    // completes the window and re-arms the line.
    assert_eq!(r.probation_exits, 1, "{r:?}");
    assert_eq!(r.probation_resets, 0, "{r:?}");
}

/// The degrading write of [`probation_script`], step by step: four
/// dropped request-carriers, each followed by its timeout and a retry
/// after exponential backoff, then a clean Lazy-forwarding circulation
/// (the line is degraded by then) and the write-allocate from memory.
const PROBATION_WALKTHROUGH: &str = "\
txn0:
  +    0  issued at cmp0
  +    4  R/R leaves cmp0
  +    4  message DROPPED leaving cmp0
  + 1604  timeout (attempt 0)
  + 1604  retry: attempt 1 issued
  + 1672  R/R leaves cmp0
  + 1672  message DROPPED leaving cmp0
  + 4872  timeout (attempt 1)
  + 4872  retry: attempt 2 issued
  + 5004  R/R leaves cmp0
  + 5004  message DROPPED leaving cmp0
  +11404  timeout (attempt 2)
  +11404  retry: attempt 3 issued
  +11664  R/R leaves cmp0
  +11664  message DROPPED leaving cmp0
  +24464  timeout (attempt 3)
  +24464  retry: attempt 4 issued
  +24980  R/R leaves cmp0
  +25019  R/R arrives at cmp1
  +25023  snoop starts at cmp1
  +25078  snoop at cmp1: miss
  +25082  R/R leaves cmp1
  +25121  R/R arrives at cmp2
  +25125  snoop starts at cmp2
  +25180  snoop at cmp2: miss
  +25184  R/R leaves cmp2
  +25223  R/R arrives at cmp3
  +25227  snoop starts at cmp3
  +25282  snoop at cmp3: miss
  +25286  R/R leaves cmp3
  +25325  R/R arrives at cmp4
  +25329  snoop starts at cmp4
  +25384  snoop at cmp4: miss
  +25388  R/R leaves cmp4
  +25427  R/R arrives at cmp5
  +25431  snoop starts at cmp5
  +25486  snoop at cmp5: miss
  +25490  R/R leaves cmp5
  +25529  R/R arrives at cmp6
  +25533  snoop starts at cmp6
  +25588  snoop at cmp6: miss
  +25592  R/R leaves cmp6
  +25631  R/R arrives at cmp7
  +25635  snoop starts at cmp7
  +25690  snoop at cmp7: miss
  +25694  R/R leaves cmp7
  +25733  R/R arrives at cmp0
  +25749  memory access at cmp4
  +26105  core resumes
  +26105  retired
";

#[test]
fn probation_walkthrough_matches_the_pinned_render() {
    // Pins the order and the cycle of every step, not just which kinds
    // occur: the drop, timeout and retry steps come from the recovery
    // path's own report sites.
    let (script, plan) = probation_script();
    let (sim, _) = run_faulted_script(Algorithm::SupersetCon, script, plan, |m| {
        m.recovery.probation_window = 3;
    });
    let timeline = sim.timeline().expect("timeline installed");
    let first = timeline.transactions().next().expect("one txn");
    assert_eq!(timeline.render(first), PROBATION_WALKTHROUGH);
}

#[test]
fn one_short_of_the_probation_window_stays_degraded() {
    let (script, plan) = probation_script();
    // Same traffic, window of four: the three clean circulations are one
    // short, so the line must still be degraded at the end of the run.
    let (_, stats) = run_faulted_script(Algorithm::SupersetCon, script, plan, |m| {
        m.recovery.probation_window = 4;
    });
    let r = &stats.robustness;
    assert_eq!(r.degraded_entries, 1, "{r:?}");
    assert_eq!(r.probation_exits, 0, "{r:?}");
}

#[test]
fn probation_transitions_are_identical_across_queue_backends() {
    // The degrade → clean-circulations → re-arm sequence is protocol
    // state; the event-queue implementation must not perturb it.
    let (script, plan) = probation_script();
    let mut runs = Vec::new();
    for kind in [
        flexsnoop_engine::QueueKind::Heap,
        flexsnoop_engine::QueueKind::Bucketed,
    ] {
        let mut machine = MachineConfig::isca2006(1);
        machine.recovery.probation_window = 3;
        let total = machine.total_cores();
        let mut streams: Vec<Box<dyn AccessStream + Send>> = Vec::new();
        for c in 0..total {
            let accesses: Vec<MemAccess> = script
                .get(c)
                .map(|s| {
                    s.iter()
                        .map(|&(line, write)| MemAccess {
                            line: LineAddr(line),
                            write,
                            think: Cycles(10),
                        })
                        .collect()
                })
                .unwrap_or_default();
            streams.push(Box::new(VecStream::new(accesses)));
        }
        let alg = Algorithm::SupersetCon;
        let predictor = alg.default_predictor();
        let mut sim = Simulator::new(
            machine,
            alg,
            predictor,
            energy_model_for(&predictor),
            streams,
            1,
        )
        .expect("valid scenario");
        sim.use_event_queue(kind);
        sim.enable_probe();
        sim.set_fault_plan(plan.clone());
        sim.set_recovery_enabled(true);
        let stats = sim.run();
        // The memory footprint counts the event queue's own storage, so
        // it differs between backends by design, and the peak RSS is the
        // whole test process's, which tests running in parallel raise;
        // nothing else may differ.
        let probe = sim.probe_report().expect("probe attached");
        let probe = crate::probe::ProbeReport {
            bytes_per_node: 0,
            footprint_total_bytes: 0,
            peak_rss_bytes: 0,
            ..probe
        };
        runs.push((stats, probe));
    }
    assert_eq!(
        runs[0], runs[1],
        "queue backend changed probation behaviour"
    );
}

// ----- node churn -----------------------------------------------------------

mod churn {
    use super::*;
    use crate::sim::ChurnWindow;
    use flexsnoop_engine::Cycle;

    /// 8 CMPs × 1 core; each script entry is `(line, write, think)`.
    fn build(script: &[&[(u64, bool, u64)]], windows: Vec<ChurnWindow>) -> Simulator {
        let machine = MachineConfig::isca2006(1);
        let total = machine.total_cores();
        let mut streams: Vec<Box<dyn AccessStream + Send>> = Vec::new();
        let mut limit = 0;
        for c in 0..total {
            let accesses: Vec<MemAccess> = script
                .get(c)
                .map(|s| {
                    s.iter()
                        .map(|&(line, write, think)| MemAccess {
                            line: LineAddr(line),
                            write,
                            think: Cycles(think),
                        })
                        .collect()
                })
                .unwrap_or_default();
            limit = limit.max(accesses.len() as u64);
            streams.push(Box::new(VecStream::new(accesses)));
        }
        let alg = Algorithm::Lazy;
        let predictor = PredictorSpec::None;
        let mut sim = Simulator::new(
            machine,
            alg,
            predictor,
            energy_model_for(&predictor),
            streams,
            limit.max(1),
        )
        .expect("valid scenario");
        sim.set_churn_plan(windows).expect("valid churn plan");
        sim
    }

    fn window(node: usize, remove_at: u64, readd_at: u64, warm: bool) -> ChurnWindow {
        ChurnWindow {
            node: CmpId(node),
            remove_at: Cycle::new(remove_at),
            readd_at: Cycle::new(readd_at),
            warm,
        }
    }

    #[test]
    fn cold_churn_flushes_the_cmp_and_writes_dirty_lines_back() {
        // Core 0 dirties line 100 (state D) well before the window.
        let mut sim = build(&[&[(100, WR, 10)]], vec![window(0, 2_000, 3_000, false)]);
        let stats = sim.run();
        sim.validate_coherence().expect("coherent final state");
        assert_eq!(stats.robustness.churn_detaches, 1);
        assert_eq!(stats.robustness.churn_readds, 1);
        assert_eq!(
            sim.line_state(CmpId(0), 0, LineAddr(100)),
            CoherState::I,
            "cold churn must leave nothing resident"
        );
        assert_eq!(stats.eviction_writebacks, 1, "dirty line flushed to home");
    }

    #[test]
    fn warm_churn_demotes_the_supplier_but_keeps_the_copy() {
        let mut sim = build(&[&[(100, WR, 10)]], vec![window(0, 2_000, 3_000, true)]);
        let stats = sim.run();
        sim.validate_coherence().expect("coherent final state");
        assert_eq!(
            sim.line_state(CmpId(0), 0, LineAddr(100)),
            CoherState::Sl,
            "warm churn demotes D to Sl"
        );
        assert_eq!(stats.eviction_writebacks, 1, "dirty data written back");
    }

    #[test]
    fn clean_warm_churn_writes_nothing_back() {
        // A read fill installs Sg (clean supplier): demotion is free.
        let mut sim = build(&[&[(100, RD, 10)]], vec![window(0, 2_000, 3_000, true)]);
        let stats = sim.run();
        assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::Sl);
        assert_eq!(stats.eviction_writebacks, 0);
    }

    #[test]
    fn issues_on_a_detached_node_are_deferred_to_the_readd() {
        // Core 0's second access thinks long enough to land inside the
        // window; it must issue after the re-add, not be lost.
        let mut sim = build(
            &[&[(100, RD, 10), (200, RD, 2_000)]],
            vec![window(0, 1_000, 50_000, false)],
        );
        let stats = sim.run();
        sim.validate_coherence().expect("coherent final state");
        assert_eq!(stats.read_txns, 2, "deferred access still issued");
        assert_eq!(stats.robustness.unfinished_cores, 0);
        assert!(
            stats.exec_cycles >= Cycle::new(50_000),
            "the deferred issue ran after the re-add ({:?})",
            stats.exec_cycles
        );
        assert!(!sim.is_detached(CmpId(0)));
    }

    #[test]
    fn remote_read_to_a_purged_line_falls_back_to_memory() {
        // Core 0 caches line 100 as supplier; node 0 then churns out
        // cold; core 1 reads the line mid-window and must be served by
        // memory (a negative snoop at node 0, not a stranded request).
        let mut sim = build(
            &[&[(100, RD, 10)], &[(100, RD, 2_500)]],
            vec![window(0, 2_000, 10_000, false)],
        );
        let stats = sim.run();
        sim.validate_coherence().expect("coherent final state");
        assert_eq!(stats.read_txns, 2);
        assert_eq!(stats.reads_from_memory, 2, "no cache supply after purge");
        assert_eq!(stats.reads_cache_supplied, 0);
    }

    #[test]
    fn remote_read_to_a_demoted_line_falls_back_to_memory() {
        // Warm churn keeps the copy but demotes it to Sl, which never
        // supplies remote requests.
        let mut sim = build(
            &[&[(100, RD, 10)], &[(100, RD, 2_500)]],
            vec![window(0, 2_000, 10_000, true)],
        );
        let stats = sim.run();
        sim.validate_coherence().expect("coherent final state");
        assert_eq!(stats.reads_from_memory, 2);
        assert_eq!(stats.reads_cache_supplied, 0);
        assert_eq!(sim.line_state(CmpId(0), 0, LineAddr(100)), CoherState::Sl);
    }

    #[test]
    fn churn_plan_validation_rejects_bad_windows() {
        let build_with = |windows: Vec<ChurnWindow>| {
            let machine = MachineConfig::isca2006(1);
            let total = machine.total_cores();
            let streams: Vec<Box<dyn AccessStream + Send>> = (0..total)
                .map(|_| Box::new(VecStream::new(Vec::new())) as _)
                .collect();
            let mut sim = Simulator::new(
                machine,
                Algorithm::Lazy,
                PredictorSpec::None,
                energy_model_for(&PredictorSpec::None),
                streams,
                1,
            )
            .unwrap();
            sim.set_churn_plan(windows)
        };
        assert!(build_with(vec![window(99, 10, 20, false)])
            .unwrap_err()
            .contains("node 99"));
        assert!(build_with(vec![window(0, 20, 20, false)])
            .unwrap_err()
            .contains("re-add after"));
        assert!(
            build_with(vec![window(0, 10, 100, false), window(0, 50, 200, true)])
                .unwrap_err()
                .contains("overlap")
        );
        // Adjacent windows on one node and overlapping windows on
        // different nodes are both fine.
        assert!(build_with(vec![window(0, 10, 100, false), window(0, 100, 200, true)]).is_ok());
        assert!(build_with(vec![window(0, 10, 100, false), window(1, 50, 200, true)]).is_ok());
    }

    #[test]
    fn churn_is_deterministic_across_queue_backends() {
        use flexsnoop_engine::QueueKind;
        let mut runs = Vec::new();
        for kind in [QueueKind::Heap, QueueKind::Bucketed] {
            let mut sim = build(
                &[
                    &[(100, WR, 10), (200, RD, 1_500), (100, RD, 3_000)],
                    &[(100, RD, 700), (300, WR, 1_200)],
                    &[(100, RD, 2_100)],
                ],
                vec![
                    window(0, 1_000, 4_000, false),
                    window(2, 2_000, 5_000, true),
                ],
            );
            sim.use_event_queue(kind);
            runs.push(sim.run());
        }
        assert_eq!(runs[0], runs[1], "queue backend changed churn behaviour");
    }
}
