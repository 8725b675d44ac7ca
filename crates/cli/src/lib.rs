//! Command-line driver for the flexsnoop simulator.
//!
//! The `flexsnoop` binary exposes the library's main entry points without
//! writing any Rust:
//!
//! ```text
//! flexsnoop list
//! flexsnoop run      --workload barnes --algorithm superset-agg --accesses 8000
//! flexsnoop compare  --workload specjbb --seed 7 --csv
//! flexsnoop timeline --workload specweb --algorithm lazy --transactions 3
//! flexsnoop trace    --workload specjbb --accesses 2000 --out trace.txt
//! flexsnoop replay   --trace trace.txt --algorithm eager
//! flexsnoop run      --workload specjbb --save-at 50000 --snapshot state.snap
//! flexsnoop run      --resume state.snap
//! flexsnoop report   --smoke --probe
//! flexsnoop serve    --socket /tmp/flexsnoop.sock --cache-dir results/cache
//! flexsnoop submit   --socket /tmp/flexsnoop.sock --workloads specjbb --algorithms lazy,eager
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency): every option is a
//! `--key value` pair and unknown keys fail loudly.

pub mod args;
pub mod commands;
pub mod names;

pub use args::{Args, Command};
pub use names::{parse_algorithm, parse_predictor, parse_workload};

/// Entry point shared by the binary and the tests.
///
/// # Errors
///
/// Returns a user-facing message on bad arguments or failed runs.
pub fn run(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv)?;
    if args.threads > 0 {
        flexsnoop_engine::executor::set_default_threads(args.threads);
    }
    match args.command {
        Command::List => commands::list(),
        Command::Run => commands::run_one(&args),
        Command::Compare => commands::compare(&args),
        Command::Timeline => commands::timeline(&args),
        Command::Trace => commands::trace(&args),
        Command::Replay => commands::replay(&args),
        Command::Directory => commands::directory(&args),
        Command::Report => commands::report(&args),
        Command::Bench => commands::bench(&args),
        Command::Chaos => commands::chaos(&args),
        Command::Serve => commands::serve(&args),
        Command::Submit => commands::submit(&args),
        Command::Scenario => commands::scenario(&args),
        Command::Help => Ok(usage()),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
flexsnoop — embedded-ring snoop coherence simulator (ISCA 2006 reproduction)

USAGE:
    flexsnoop <COMMAND> [--key value ...]

COMMANDS:
    list        List workloads, algorithms and predictor configurations
    run         Run one (workload, algorithm) pair and print statistics
    compare     Run every paper algorithm on one workload
    timeline    Trace the first ring transactions of a run, hop by hop
    trace       Record a workload's access trace to a file
    replay      Replay a recorded trace under one algorithm
    directory   Run the directory-protocol baseline (crates/directory)
    report      Regenerate results/report.md and the bench_*.json artifacts
    bench       Throughput/memory benchmarks (--scale: 1k -> 1M node ring sweep)
    chaos       Sweep seeded ring-fault schedules across the Table 3 algorithms
    serve       Host the sweep service on a Unix socket (NDJSON result stream)
    submit      Send a parameter sweep to a serving socket
    scenario    Run a declarative robustness scenario: `scenario run <name|file>`
                (builtins: partition-heal, churn, hierarchy-partition; see
                DESIGN.md §12 for the scenario file format)
    help        Show this message

OPTIONS (where applicable):
    --workload NAME      Workload profile (see `flexsnoop list`) [specweb]
    --algorithm NAME     Snooping algorithm [superset-agg]
    --predictor NAME     Predictor override (defaults to the algorithm's)
    --accesses N         Accesses per core [4000]
    --seed N             Simulation seed [42]
    --nodes N            CMP nodes on the ring [8]
    --topology T         flat, or hier:<local>x<rings> — group the nodes into
                         <rings> local rings of <local> nodes joined by bridge
                         nodes on a global ring (implies --nodes local*rings);
                         applies to run/compare/timeline/replay/chaos [flat]
    --cluster N          scope the workload's shared pools to clusters of N
                         consecutive cores (0 = the profile's own scope); set
                         N to the hier local-ring size to pin each instance's
                         sharing inside one ring [0]
    --transactions N     Transactions to record for `timeline` [3]
    --trace FILE         Trace file for `replay`
    --out PATH           Output file for `trace`; output dir for `report` [results]
    --csv                Emit CSV instead of an aligned table
    --smoke              `report`: fast scale (the committed report.md scale)
    --probe              `report`: attach observability counters to artifacts
    --check              `report`: fail if the committed report.md is stale
    --via-serve          `report`: run the figure matrix through the sweep
                         service's scheduler and results cache (same bytes
                         modulo the volatile line; --cache-dir persists it)
    --threads N          Worker threads for parallel runs [machine parallelism]
    --scale              `bench`: run the ring-scaling sweep (bench_scale.json)
    --max-nodes N        `bench --scale`: skip sweep points above N [1048576]
    --schedules N        `chaos`: randomized fault schedules to draw [40]
    --schedule SEED      `chaos`: replay exactly one schedule seed (reproducer)
    --budget N           `chaos`: override the plan's fault budget (shrunk prefix)
    --no-retry           `chaos`: disable timeout/retry recovery (self-test)
    --torus-only         `chaos`: fault only torus data legs (no ring faults)
    --static-timeouts    `chaos`: fixed-slack requester timeouts instead of EWMA
    --coverage-out FILE  `chaos`: write per-kind injected-fault counts
    --coverage-baseline FILE
                         `chaos`: fail if a kind FILE proves reachable drew zero
    --predictor-fault K:P:B
                         `run`: corrupt every P-th prediction, B times; K is
                         force-negative (unsafe direction) or force-positive
    --save-at CYCLE      `run`: checkpoint the state at CYCLE (needs --snapshot);
                         the run then continues to completion unchanged
    --snapshot FILE      `run --save-at`: file the checkpoint is written to
    --resume FILE        `run`: restore a checkpoint and run to completion
                         (bit-identical statistics to the uninterrupted run)
    --socket PATH        `serve`/`submit`: the service's Unix socket
    --cache-dir DIR      `serve`/`report --via-serve`: persist the results
                         cache here (one sealed file per job key; survives
                         restarts)
    --workloads LIST     `submit`: comma-separated workload names
    --algorithms LIST    `submit`: comma-separated algorithm names
    --seeds LIST         `submit`: comma-separated seeds [--seed]
    --shutdown           `submit`: stop the server instead of sweeping
    --self-check         `serve`: verify cached results match recomputation
                         across queue backends and executor widths, then exit

SCENARIO OPTIONS:
    --algorithms LIST    restrict the algorithm matrix (comma-separated names)
                         [subset,superset-con,superset-agg,exact]
    --smoke              first two algorithms only, skip the cross-backend
                         determinism replay (fast CI gate)
    --out FILE           also write the expectation report to FILE
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_paths() {
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap_or_else(|e| e).contains("USAGE"));
    }

    #[test]
    fn list_names_everything() {
        let out = run(&argv("list")).unwrap();
        for needle in [
            "barnes",
            "specjbb",
            "specweb",
            "superset-agg",
            "sub2k",
            "exa8k",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn run_produces_stats() {
        let out = run(&argv(
            "run --workload specjbb --algorithm lazy --accesses 150 --seed 3",
        ))
        .unwrap();
        assert!(out.contains("snoops/read"), "{out}");
        assert!(out.contains("Lazy"), "{out}");
    }

    #[test]
    fn run_rejects_unknown_options() {
        let err = run(&argv("run --wrkload specjbb")).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
    }

    #[test]
    fn run_rejects_bad_names() {
        assert!(run(&argv("run --workload nope")).is_err());
        assert!(run(&argv("run --algorithm nope")).is_err());
        assert!(run(&argv("run --algorithm lazy --predictor sub2k")).is_err());
    }

    #[test]
    fn compare_emits_csv() {
        let out = run(&argv("compare --workload specjbb --accesses 120 --csv")).unwrap();
        assert!(out.lines().next().unwrap().starts_with("algorithm,"));
        assert!(out.contains("SupersetAgg,"));
    }

    #[test]
    fn timeline_walks_transactions() {
        let out = run(&argv(
            "timeline --workload specweb --algorithm lazy --accesses 60 --transactions 2",
        ))
        .unwrap();
        assert!(out.contains("issued at"), "{out}");
        assert!(out.contains("retired"), "{out}");
    }

    #[test]
    fn chaos_smoke_campaign_is_clean() {
        let out = run(&argv(
            "chaos --workload specjbb --schedules 2 --accesses 60 --nodes 4 --seed 5 --threads 2",
        ))
        .unwrap();
        assert!(out.contains("Chaos campaign"), "{out}");
        assert!(out.contains("CLEAN"), "{out}");
    }

    #[test]
    fn chaos_coverage_ratchet_roundtrip() {
        let dir = std::env::temp_dir().join("flexsnoop-cov-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cov = dir.join("cov.txt").to_string_lossy().to_string();
        let out = run(&argv(&format!(
            "chaos --workload specjbb --schedules 2 --accesses 60 --nodes 4 --seed 5 \
             --threads 2 --coverage-out {cov}"
        )))
        .unwrap();
        assert!(out.contains("Fault coverage"), "{out}");
        let written = std::fs::read_to_string(&cov).unwrap();
        assert!(written.contains("drop "), "{written}");
        // Re-running against its own coverage as baseline must hold.
        let held = run(&argv(&format!(
            "chaos --workload specjbb --schedules 2 --accesses 60 --nodes 4 --seed 5 \
             --threads 2 --coverage-baseline {cov}"
        )))
        .unwrap();
        assert!(held.contains("ratchet"), "{held}");
        // A baseline proving a kind this campaign cannot draw must fail:
        // torus-only runs inject zero ring drops.
        let err = run(&argv(&format!(
            "chaos --workload specjbb --schedules 2 --accesses 60 --nodes 4 --seed 5 \
             --threads 2 --torus-only --coverage-baseline {cov}"
        )))
        .unwrap_err();
        assert!(err.contains("coverage regressed"), "{err}");
    }

    #[test]
    fn chaos_no_retry_reports_reproducer() {
        // Without recovery a lossy schedule eventually strands transactions:
        // the command fails (a non-zero exit) and names a reproducer.
        let out = run(&argv(
            "chaos --workload specjbb --schedules 6 --accesses 60 --nodes 4 --seed 1 \
             --no-retry --threads 2",
        ))
        .unwrap_err();
        assert!(out.contains("minimal reproducer"), "{out}");
        assert!(out.contains("--no-retry"), "{out}");
    }

    #[test]
    fn scenario_builtins_run_clean_in_smoke_mode() {
        for name in flexsnoop_scenario::builtin_names() {
            let out = run(&argv(&format!("scenario run {name} --smoke --threads 2"))).unwrap();
            assert!(out.contains("CLEAN"), "{name}:\n{out}");
            assert!(out.contains("skipped (smoke)"), "{name}:\n{out}");
        }
        // The hierarchical builtin reports its shape.
        let out = run(&argv(
            "scenario run hierarchy-partition --smoke --threads 2",
        ))
        .unwrap();
        assert!(out.contains("hier:4x4"), "{out}");
    }

    #[test]
    fn scenario_runs_a_file_and_fails_failed_expectations() {
        let dir = std::env::temp_dir().join("flexsnoop-scn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("impossible.scn");
        // A real partition window with a zero-slack recovery deadline:
        // blocked requests time out after the heal, so this must fail.
        std::fs::write(
            &path,
            "name impossible\nnodes 8\nseed 42\n\
             phase migratory accesses=400 lines=64 hot=0.6 writes=0.5\n\
             partition 0-3|4-7 from=4000 until=12000\n\
             expect recovers-within 0\n",
        )
        .unwrap();
        let err = run(&argv(&format!(
            "scenario run {} --smoke --threads 2",
            path.display()
        )))
        .unwrap_err();
        assert!(err.contains("recovery not settled"), "{err}");
        assert!(err.contains("FAILURE"), "{err}");
    }

    #[test]
    fn scenario_rejects_unknown_names_and_empty_invocations() {
        let err = run(&argv("scenario run no-such-thing")).unwrap_err();
        assert!(err.contains("not a builtin"), "{err}");
        assert!(err.contains("partition-heal"), "{err}");
        let err = run(&argv("scenario")).unwrap_err();
        assert!(err.contains("builtins"), "{err}");
        let err = run(&argv("scenario run churn --algorithms bogus --smoke")).unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
    }

    #[test]
    fn chaos_rejects_zero_budget_and_zero_schedules() {
        let err = run(&argv("chaos --budget 0 --schedule 7")).unwrap_err();
        assert!(err.contains("--budget 0"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        let err = run(&argv("chaos --schedules 0")).unwrap_err();
        assert!(err.contains("--schedules 0"), "{err}");
        assert!(err.contains("--schedule SEED"), "{err}");
    }

    #[test]
    fn serve_and_submit_round_trip_over_a_socket() {
        let sock = std::env::temp_dir().join(format!("flexsnoop-cli-{}.sock", std::process::id()));
        let sock_str = sock.to_string_lossy().to_string();
        let server = std::thread::spawn({
            let line = format!("serve --socket {sock_str}");
            move || run(&argv(&line))
        });
        while !sock.exists() {
            std::thread::yield_now();
        }
        let out = run(&argv(&format!(
            "submit --socket {sock_str} --workloads specjbb --algorithms lazy,eager \
             --seeds 3 --accesses 60"
        )))
        .unwrap();
        assert!(out.contains("\"event\": \"result\""), "{out}");
        assert!(out.contains("\"computed\": 2"), "{out}");
        let again = run(&argv(&format!(
            "submit --socket {sock_str} --workloads specjbb --algorithms lazy,eager \
             --seeds 3 --accesses 60"
        )))
        .unwrap();
        assert!(again.contains("\"cached\": 2"), "{again}");
        let down = run(&argv(&format!("submit --socket {sock_str} --shutdown"))).unwrap();
        assert!(down.contains("shut down"), "{down}");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("2 sweeps"), "{summary}");
        assert!(summary.contains("2 cache hits"), "{summary}");
    }

    #[test]
    fn serve_self_check_passes() {
        let out = run(&argv("serve --self-check --threads 2")).unwrap();
        assert!(out.contains("cache determinism"), "{out}");
    }

    #[test]
    fn submit_requires_a_socket_and_matrix() {
        assert!(run(&argv("submit")).unwrap_err().contains("--socket"));
        assert!(run(&argv("submit --socket /tmp/x.sock"))
            .unwrap_err()
            .contains("--workloads"));
        assert!(run(&argv("serve")).unwrap_err().contains("--socket"));
    }

    #[test]
    fn run_with_predictor_fault_reports_injections() {
        let out = run(&argv(
            "run --workload specjbb --algorithm superset-agg --accesses 200 --seed 3 \
             --predictor-fault force-negative:2:50",
        ))
        .unwrap();
        assert!(out.contains("injected prediction faults"), "{out}");
        assert!(out.contains("invariant oracle"), "{out}");
    }

    #[test]
    fn predictor_fault_rejects_bad_specs() {
        assert!(run(&argv("run --predictor-fault bogus:2:5")).is_err());
        assert!(run(&argv("run --predictor-fault force-negative:0:5")).is_err());
        assert!(run(&argv("run --predictor-fault force-negative")).is_err());
    }

    #[test]
    fn hierarchical_run_localizes_circulations() {
        // The consolidated workload clustered at the local-ring size must
        // complete circulations in-ring; the identical flat run must not
        // even know the accounting.
        let hier = run(&argv(
            "run --workload consolidated --algorithm subset --accesses 150 --seed 3 \
             --topology hier:4x4 --cluster 4",
        ))
        .unwrap();
        assert!(hier.contains("Subset"), "{hier}");
        let flat = run(&argv(
            "run --workload consolidated --algorithm subset --accesses 150 --seed 3 \
             --nodes 16 --cluster 4",
        ))
        .unwrap();
        assert!(flat.contains("Subset"), "{flat}");
        assert_ne!(hier, flat, "topology must change the measured run");
    }

    #[test]
    fn chaos_accepts_a_hier_topology() {
        let out = run(&argv(
            "chaos --workload consolidated --schedules 2 --accesses 60 --seed 5 \
             --topology hier:2x4 --cluster 2 --threads 2",
        ))
        .unwrap();
        assert!(out.contains("CLEAN"), "{out}");
        assert!(out.contains("bridge drops"), "{out}");
    }

    #[test]
    fn scaled_run_works() {
        let out = run(&argv(
            "run --workload uniform --algorithm eager --accesses 150 --nodes 4",
        ))
        .unwrap();
        assert!(out.contains("Eager"), "{out}");
    }
}
