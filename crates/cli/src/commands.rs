//! Implementations of the CLI subcommands. Each returns the text to print
//! so the logic is fully testable without capturing stdout.

use flexsnoop::{
    energy_model_for, Algorithm, FaultInjectingPredictor, FaultKind, MachineConfig, RunStats,
    Simulator, SupplierPredictor, VecStream,
};
use flexsnoop_engine::snap::{self, SnapError, SnapReader, SnapWriter};
use flexsnoop_engine::Cycle;
use flexsnoop_metrics::Table;
use flexsnoop_workload::{profiles, AccessStream, Trace, WorkloadProfile};

use crate::args::Args;
use crate::names::{
    algorithm_names, parse_algorithm, parse_predictor, parse_workload, predictor_names,
};

/// `flexsnoop list`.
pub fn list() -> Result<String, String> {
    let mut out = String::from("workloads:\n");
    for p in profiles::all() {
        out.push_str(&format!(
            "  {:<12} {:>3} cores, {} ({} pools)\n",
            p.name,
            p.cores,
            p.group,
            p.pools.len()
        ));
    }
    out.push_str(
        "  uniform      (microbenchmark, sized by --nodes)\n  consolidated (clustered-sharing \
         server mix, sized by --nodes; pair with --topology hier and --cluster)\n\nalgorithms:\n",
    );
    for (name, _) in algorithm_names() {
        out.push_str(&format!("  {name}\n"));
    }
    out.push_str("\npredictors:\n");
    for (name, _) in predictor_names() {
        out.push_str(&format!("  {name}\n"));
    }
    Ok(out)
}

/// The workload named by `args`, with `--accesses` and `--cluster`
/// applied (`--cluster 0` keeps the profile's own sharing scope).
fn workload_for(args: &Args) -> Result<WorkloadProfile, String> {
    let mut workload = parse_workload(&args.workload, args.nodes)?.with_accesses(args.accesses);
    if args.cluster > 0 {
        workload = workload.with_cluster(args.cluster);
    }
    Ok(workload)
}

fn build_sim(args: &Args, algorithm: Algorithm) -> Result<Simulator, String> {
    let workload = workload_for(args)?;
    let predictor = parse_predictor(&args.predictor)?;
    match args.topology {
        Some((local, rings)) => {
            Simulator::for_workload_hier(&workload, algorithm, predictor, args.seed, local, rings)
        }
        None => Simulator::for_workload_on(&workload, algorithm, predictor, args.seed, args.nodes),
    }
}

fn stats_table(rows: &[(Algorithm, RunStats)], csv: bool) -> String {
    let mut table = Table::with_columns(&[
        "algorithm",
        "exec-cycles",
        "snoops/read",
        "hops/read",
        "energy-uJ",
        "supply-pct",
        "collisions",
    ]);
    for (alg, s) in rows {
        table.row(vec![
            alg.to_string(),
            s.exec_cycles.as_u64().to_string(),
            format!("{:.2}", s.snoops_per_read()),
            format!("{:.2}", s.ring_hops_per_read()),
            format!("{:.1}", s.energy_nj() / 1000.0),
            format!("{:.1}", s.cache_supply_fraction() * 100.0),
            s.collisions.to_string(),
        ]);
    }
    if csv {
        table.to_csv()
    } else {
        table.render()
    }
}

/// Parses `--predictor-fault kind:period:budget` (e.g.
/// `force-negative:3:5`: flip every 3rd prediction negative, 5 times).
fn parse_predictor_fault(spec: &str) -> Result<(FaultKind, u64, u64), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [kind, period, budget] = parts.as_slice() else {
        return Err(format!(
            "--predictor-fault expects kind:period:budget, got {spec:?}"
        ));
    };
    let kind = match *kind {
        "force-negative" | "negative" => FaultKind::ForceNegative,
        "force-positive" | "positive" => FaultKind::ForcePositive,
        other => {
            return Err(format!(
                "unknown fault kind {other:?}; use force-negative or force-positive"
            ))
        }
    };
    let num = |what: &str, v: &str| -> Result<u64, String> {
        v.parse::<u64>()
            .map_err(|_| format!("--predictor-fault {what} expects a number, got {v:?}"))
    };
    let period = num("period", period)?;
    if period == 0 {
        return Err("--predictor-fault period must be positive".to_string());
    }
    Ok((kind, period, num("budget", budget)?))
}

/// Builds a simulator whose per-node predictors are wrapped in
/// [`FaultInjectingPredictor`]s (the §4.3.4 hardware-race study).
fn build_faulted_sim(
    args: &Args,
    algorithm: Algorithm,
    kind: FaultKind,
    period: u64,
    budget: u64,
) -> Result<Simulator, String> {
    let workload = workload_for(args)?;
    if args.nodes == 0 || !workload.cores.is_multiple_of(args.nodes) {
        return Err(format!(
            "workload cores ({}) must be a multiple of {} nodes",
            workload.cores, args.nodes
        ));
    }
    let spec = parse_predictor(&args.predictor)?.unwrap_or_else(|| algorithm.default_predictor());
    if !algorithm.accepts_predictor(&spec) {
        return Err(format!("algorithm {algorithm} cannot use predictor {spec}"));
    }
    let mut machine = MachineConfig {
        nodes: args.nodes,
        ..MachineConfig::isca2006(workload.cores / args.nodes)
    };
    if let Some((local, rings)) = args.topology {
        machine.ring.hier = Some(flexsnoop::default_hier(local, rings));
    }
    let energy = energy_model_for(&spec);
    let streams: Vec<Box<dyn AccessStream + Send>> = workload
        .streams(args.seed)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
        .collect();
    let predictors: Vec<Box<dyn SupplierPredictor + Send>> = (0..machine.nodes)
        .map(|_| {
            Box::new(FaultInjectingPredictor::new(
                spec.build(),
                kind,
                period,
                budget,
            )) as Box<dyn SupplierPredictor + Send>
        })
        .collect();
    Simulator::with_predictors(
        machine,
        algorithm,
        predictors,
        energy,
        streams,
        workload.accesses_per_core,
    )
}

/// A `run` checkpoint file: a sealed envelope embedding the run
/// parameters (so `--resume` can rebuild the identical simulator from
/// nothing but the file) followed by the simulator snapshot itself.
fn write_checkpoint(args: &Args, sim: &mut Simulator) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_str("run");
    w.put_str(&args.workload);
    w.put_str(&args.algorithm);
    w.put_str(&args.predictor);
    w.put_u64(args.seed);
    w.put_usize(args.nodes);
    w.put_u64(args.accesses);
    // Topology: `0 x 0` encodes the flat ring.
    let (local, rings) = args.topology.unwrap_or((0, 0));
    w.put_usize(local);
    w.put_usize(rings);
    w.put_usize(args.cluster);
    w.put_bytes(&sim.save_snapshot());
    snap::seal(w.into_bytes())
}

fn snap_err(what: &str, e: SnapError) -> String {
    format!("{what}: {e}")
}

/// `flexsnoop run --resume FILE`: rebuilds the simulator from the run
/// parameters embedded in the checkpoint, restores the saved state and
/// runs it to completion. The resumed run's statistics are bit-identical
/// to the uninterrupted run's.
fn resume_run(args: &Args) -> Result<String, String> {
    let bytes = std::fs::read(&args.resume).map_err(|e| format!("read {}: {e}", args.resume))?;
    let bad = |e| snap_err("bad checkpoint file", e);
    let payload = snap::unseal(&bytes).map_err(bad)?;
    let mut r = SnapReader::new(payload);
    let kind = r.get_str().map_err(bad)?;
    if kind != "run" {
        return Err(format!(
            "{} is not a `flexsnoop run` checkpoint (kind {kind:?})",
            args.resume
        ));
    }
    let mut rargs = args.clone();
    rargs.workload = r.get_str().map_err(bad)?;
    rargs.algorithm = r.get_str().map_err(bad)?;
    rargs.predictor = r.get_str().map_err(bad)?;
    rargs.seed = r.get_u64().map_err(bad)?;
    rargs.nodes = r.get_usize().map_err(bad)?;
    rargs.accesses = r.get_u64().map_err(bad)?;
    let (local, rings) = (r.get_usize().map_err(bad)?, r.get_usize().map_err(bad)?);
    rargs.topology = (local > 0 && rings > 0).then_some((local, rings));
    rargs.cluster = r.get_usize().map_err(bad)?;
    let snapshot = r.get_bytes().map_err(bad)?.to_vec();
    r.expect_eof().map_err(bad)?;
    let algorithm = parse_algorithm(&rargs.algorithm)?;
    let mut sim = build_sim(&rargs, algorithm)?;
    sim.restore_snapshot(&snapshot)
        .map_err(|e| snap_err("checkpoint does not match this configuration", e))?;
    sim.run_until(None);
    let stats = sim.finalize();
    sim.validate_coherence()?;
    let mut out = format!(
        "resumed {} ({} / {} / seed {} / {} nodes / {} accesses)\n",
        args.resume, rargs.workload, rargs.algorithm, rargs.seed, rargs.nodes, rargs.accesses
    );
    out.push_str(&stats_table(&[(algorithm, stats)], args.csv));
    Ok(out)
}

/// `flexsnoop run`.
pub fn run_one(args: &Args) -> Result<String, String> {
    if !args.resume.is_empty() {
        if args.save_at.is_some() || !args.predictor_fault.is_empty() {
            return Err(
                "--resume cannot be combined with --save-at or --predictor-fault".to_string(),
            );
        }
        return resume_run(args);
    }
    if args.save_at.is_some() && !args.predictor_fault.is_empty() {
        return Err("--save-at is not supported with --predictor-fault".to_string());
    }
    let algorithm = parse_algorithm(&args.algorithm)?;
    if args.predictor_fault.is_empty() {
        let mut sim = build_sim(args, algorithm)?;
        if let Some(at) = args.save_at {
            if args.snapshot.is_empty() {
                return Err("--save-at needs --snapshot FILE".to_string());
            }
            let reached = sim.run_until(Some(Cycle::new(at)));
            let bytes = write_checkpoint(args, &mut sim);
            std::fs::write(&args.snapshot, &bytes)
                .map_err(|e| format!("write {}: {e}", args.snapshot))?;
            let mut out = format!(
                "checkpointed cycle {reached} to {} ({} bytes); continuing to completion\n",
                args.snapshot,
                bytes.len()
            );
            sim.run_until(None);
            let stats = sim.finalize();
            sim.validate_coherence()?;
            out.push_str(&stats_table(&[(algorithm, stats)], args.csv));
            return Ok(out);
        }
        let stats = sim.run();
        sim.validate_coherence()?;
        return Ok(stats_table(&[(algorithm, stats)], args.csv));
    }
    // Fault-injection mode: corrupted predictions can break coherence by
    // design, so the invariant oracle records violations instead of the
    // final sweep erroring out.
    let (kind, period, budget) = parse_predictor_fault(&args.predictor_fault)?;
    let mut sim = build_faulted_sim(args, algorithm, kind, period, budget)?;
    sim.enable_invariant_checks();
    let stats = sim.run();
    let mut out = stats_table(&[(algorithm, stats.clone())], args.csv);
    out.push_str(&format!(
        "\ninjected prediction faults: {}\n",
        stats.robustness.injected_prediction_faults
    ));
    match sim.violations().len() {
        0 => out.push_str("invariant oracle: clean\n"),
        n => out.push_str(&format!(
            "invariant oracle: {n} violation(s); first: {}\n",
            sim.first_violation().expect("n > 0")
        )),
    }
    Ok(out)
}

/// `flexsnoop compare`.
pub fn compare(args: &Args) -> Result<String, String> {
    // One bounded pool for all seven runs (each is deterministic, so the
    // row values do not depend on the worker count or `--threads`).
    let tasks: Vec<_> = Algorithm::PAPER_SET
        .into_iter()
        .map(|algorithm| {
            move || -> Result<(Algorithm, RunStats), String> {
                let mut sim = build_sim(args, algorithm)?;
                let stats = sim.run();
                sim.validate_coherence()?;
                Ok((algorithm, stats))
            }
        })
        .collect();
    let rows = flexsnoop_engine::Executor::with_default()
        .run(tasks)
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
    Ok(stats_table(&rows, args.csv))
}

/// `flexsnoop timeline`.
pub fn timeline(args: &Args) -> Result<String, String> {
    let algorithm = parse_algorithm(&args.algorithm)?;
    let mut sim = build_sim(args, algorithm)?;
    sim.enable_timeline(args.transactions);
    sim.run();
    let timeline = sim.timeline().expect("timeline installed");
    let mut out = String::new();
    for txn in timeline.transactions() {
        out.push_str(&timeline.render(txn));
        out.push('\n');
    }
    if out.is_empty() {
        out.push_str("no ring transactions occurred\n");
    }
    Ok(out)
}

fn record_trace(workload: &WorkloadProfile, accesses: u64, seed: u64) -> Trace {
    let mut streams = workload.streams(seed);
    Trace::record(&mut streams, accesses)
}

/// `flexsnoop trace`.
pub fn trace(args: &Args) -> Result<String, String> {
    let mut workload = parse_workload(&args.workload, args.nodes)?;
    if args.cluster > 0 {
        workload = workload.with_cluster(args.cluster);
    }
    let trace = record_trace(&workload, args.accesses, args.seed);
    let text = trace.to_text();
    if args.out.is_empty() {
        Ok(text)
    } else {
        std::fs::write(&args.out, &text).map_err(|e| format!("write {}: {e}", args.out))?;
        Ok(format!(
            "wrote {} accesses x {} cores to {}\n",
            args.accesses,
            trace.cores(),
            args.out
        ))
    }
}

/// `flexsnoop replay`.
pub fn replay(args: &Args) -> Result<String, String> {
    if args.trace.is_empty() {
        return Err("replay needs --trace FILE".to_string());
    }
    let text =
        std::fs::read_to_string(&args.trace).map_err(|e| format!("read {}: {e}", args.trace))?;
    let trace: Trace = text.parse()?;
    let algorithm = parse_algorithm(&args.algorithm)?;
    if !trace.cores().is_multiple_of(args.nodes) {
        return Err(format!(
            "trace has {} cores, not a multiple of {} nodes",
            trace.cores(),
            args.nodes
        ));
    }
    let mut machine = flexsnoop::MachineConfig {
        nodes: args.nodes,
        ..flexsnoop::MachineConfig::isca2006(trace.cores() / args.nodes)
    };
    if let Some((local, rings)) = args.topology {
        machine.ring.hier = Some(flexsnoop::default_hier(local, rings));
    }
    let limit = (0..trace.cores())
        .map(|c| trace.core(c).len() as u64)
        .max()
        .unwrap_or(1);
    let streams: Vec<Box<dyn AccessStream + Send>> = VecStream::from_trace(&trace)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
        .collect();
    let predictor =
        parse_predictor(&args.predictor)?.unwrap_or_else(|| algorithm.default_predictor());
    let mut sim = Simulator::new(
        machine,
        algorithm,
        predictor,
        energy_model_for(&predictor),
        streams,
        limit.max(1),
    )?;
    let stats = sim.run();
    sim.validate_coherence()?;
    Ok(stats_table(&[(algorithm, stats)], args.csv))
}

/// `flexsnoop directory`: the §2.1.2 baseline on the same workload.
pub fn directory(args: &Args) -> Result<String, String> {
    let workload = workload_for(args)?;
    let mut sim =
        flexsnoop_directory::DirSimulator::for_workload(&workload, args.seed, args.nodes)?;
    let s = sim.run();
    sim.validate_coherence()?;
    let mut table = Table::with_columns(&[
        "protocol",
        "exec-cycles",
        "2hop-reads",
        "3hop-reads",
        "invals",
        "energy-uJ",
        "conflicts",
    ]);
    table.row(vec![
        "directory".into(),
        s.exec_cycles.as_u64().to_string(),
        s.reads_two_hop.to_string(),
        s.reads_three_hop.to_string(),
        s.invalidations.to_string(),
        format!("{:.1}", s.energy_nj() / 1000.0),
        s.home_conflicts.to_string(),
    ]);
    Ok(if args.csv {
        table.to_csv()
    } else {
        table.render()
    })
}

/// `flexsnoop report`: the one-command paper-figure reproduction pipeline.
///
/// Runs the Figure 6–11 and Table 1/3 sweep matrix, then either writes
/// `report.md` plus the `bench_*.json` artifacts (default) or, with
/// `--check`, compares the regenerated report against the committed copy
/// and fails if it is stale. `--via-serve` routes the figure matrix
/// through the sweep service's scheduler and results cache
/// (`--cache-dir` persists it across runs); everything outside the
/// artifacts' volatile lines is byte-identical to a direct run, so
/// `--check --via-serve` never reports false staleness.
pub fn report(args: &Args) -> Result<String, String> {
    let mut opts = if args.smoke {
        flexsnoop_report::ReportOptions::smoke()
    } else {
        flexsnoop_report::ReportOptions::full()
    };
    opts.probe = args.probe;
    opts.via_serve = args.via_serve;
    if !args.cache_dir.is_empty() {
        if !args.via_serve {
            return Err("--cache-dir on report requires --via-serve".to_string());
        }
        opts.serve_cache = Some(std::path::PathBuf::from(&args.cache_dir));
    }
    if !args.out.is_empty() {
        opts.out_dir = std::path::PathBuf::from(&args.out);
    }
    report_with(&opts, args.check)
}

fn report_with(opts: &flexsnoop_report::ReportOptions, check: bool) -> Result<String, String> {
    let generated = flexsnoop_report::generate(opts);
    if check {
        generated.check(&opts.out_dir)?;
        Ok(format!(
            "{} is up to date\n\n{}",
            opts.out_dir.join("report.md").display(),
            generated.summary
        ))
    } else {
        generated.write(&opts.out_dir)?;
        let mut out = format!("wrote {}\n", opts.out_dir.join("report.md").display());
        for artifact in &generated.artifacts {
            out.push_str(&format!(
                "wrote {}\n",
                opts.out_dir.join(&artifact.filename).display()
            ));
        }
        out.push('\n');
        out.push_str(&generated.summary);
        Ok(out)
    }
}

/// `flexsnoop bench --scale`: the ring-scaling sweep (1k → 1M nodes),
/// writing the versioned `results/bench_scale.json` artifact.
pub fn bench(args: &Args) -> Result<String, String> {
    if !args.scale {
        return Err("bench currently requires --scale (the ring-scaling sweep)".to_string());
    }
    let mut opts = flexsnoop_report::scale::ScaleOptions {
        max_nodes: args.max_nodes,
        ..flexsnoop_report::scale::ScaleOptions::default()
    };
    if !args.out.is_empty() {
        opts.out_dir = std::path::PathBuf::from(&args.out);
    }
    let report = flexsnoop_report::scale::run_scale(&opts);
    report.write(&opts.out_dir)?;
    Ok(format!(
        "{}\nwrote {}\n",
        report.summary,
        opts.out_dir.join(&report.artifact.filename).display()
    ))
}

/// `flexsnoop serve`: host the sweep service on a Unix socket (or run
/// the cache-determinism self-check with `--self-check`).
///
/// Blocks until a client sends `shutdown`, then reports what was served.
pub fn serve(args: &Args) -> Result<String, String> {
    if args.self_check {
        return flexsnoop_checker::cachecheck::self_check(args.threads);
    }
    if args.socket.is_empty() {
        return Err("serve needs --socket PATH (or --self-check)".to_string());
    }
    let cache = if args.cache_dir.is_empty() {
        flexsnoop_serve::ResultsCache::in_memory()
    } else {
        flexsnoop_serve::ResultsCache::persistent(&args.cache_dir)
            .map_err(|e| format!("cache dir {}: {e}", args.cache_dir))?
    };
    let options = flexsnoop_serve::ServiceOptions {
        threads: args.threads,
    };
    let service = flexsnoop_serve::SweepService::new(options, cache);
    let summary = flexsnoop_serve::serve_blocking(std::path::Path::new(&args.socket), &service)?;
    let stats = service.stats();
    Ok(format!(
        "served {} connections ({} sweeps, {} jobs): {} executed, {} cache hits, \
         {} coalesced, {} failed, {} client disconnects\n",
        summary.connections,
        summary.sweeps,
        summary.jobs,
        stats.executed,
        stats.cache.hits,
        stats.coalesced,
        stats.failed,
        summary.disconnects,
    ))
}

/// `flexsnoop submit`: send one sweep (or a shutdown) to a serving
/// socket and return the streamed NDJSON response.
pub fn submit(args: &Args) -> Result<String, String> {
    if args.socket.is_empty() {
        return Err("submit needs --socket PATH".to_string());
    }
    let path = std::path::Path::new(&args.socket);
    if args.shutdown {
        flexsnoop_serve::request_shutdown(path)?;
        return Ok("server shut down\n".to_string());
    }
    if args.workloads.is_empty() || args.algorithms.is_empty() {
        return Err("submit needs --workloads and --algorithms (or --shutdown)".to_string());
    }
    let seeds = if args.seeds.is_empty() {
        vec![args.seed]
    } else {
        args.seeds
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| format!("--seeds expects numbers, got {s:?}"))
            })
            .collect::<Result<_, _>>()?
    };
    let request = flexsnoop_serve::SweepRequest {
        workloads: split_names(&args.workloads),
        algorithms: split_names(&args.algorithms),
        predictor: args.predictor.clone(),
        seeds,
        nodes: args.nodes,
        accesses: args.accesses,
        probe: args.probe,
    };
    flexsnoop_serve::request(path, &request.render_line())
}

fn split_names(list: &str) -> Vec<String> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// `flexsnoop chaos`: the seeded unreliable-ring campaign
/// (see `flexsnoop_checker::chaos`).
pub fn chaos(args: &Args) -> Result<String, String> {
    if args.budget == Some(0) {
        return Err(
            "--budget 0 disarms every fault in the plan; a reproducer needs a budget of \
             at least 1 (omit --budget to keep the schedule's own)"
                .to_string(),
        );
    }
    if args.schedules == 0 && args.schedule.is_none() {
        return Err(
            "--schedules 0 draws no fault schedules; give --schedules N (N >= 1) or pin \
             one with --schedule SEED"
                .to_string(),
        );
    }
    let mut workload = parse_workload(&args.workload, args.nodes)?;
    if args.cluster > 0 {
        workload = workload.with_cluster(args.cluster);
    }
    let defaults = flexsnoop_checker::ChaosOptions::default();
    let opts = flexsnoop_checker::ChaosOptions {
        schedules: args.schedules,
        base_seed: args.seed,
        // `run`'s 4000-access default would make a 40-schedule campaign
        // crawl; chaos has its own scale unless --accesses is explicit.
        accesses_per_core: if args.accesses_explicit {
            args.accesses
        } else {
            defaults.accesses_per_core
        },
        nodes: args.nodes,
        threads: if args.threads > 0 {
            args.threads
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        },
        recovery: !args.no_retry,
        schedule: args.schedule,
        budget: args.budget,
        torus_only: args.torus_only,
        hier: args.topology,
        timeout_policy: args
            .static_timeouts
            .then_some(flexsnoop::TimeoutPolicy::Static),
        ..defaults
    };
    let report = flexsnoop_checker::run_chaos(&workload, &opts)?;
    let mut text = report.render();
    if !args.out.is_empty() {
        std::fs::write(&args.out, &text).map_err(|e| format!("write {}: {e}", args.out))?;
    }
    if !args.coverage_out.is_empty() {
        std::fs::write(&args.coverage_out, report.coverage.render_baseline())
            .map_err(|e| format!("write {}: {e}", args.coverage_out))?;
    }
    // The coverage ratchet: every fault kind the checked-in baseline
    // proved reachable must still inject at least one event.
    if !args.coverage_baseline.is_empty() {
        let baseline_text = std::fs::read_to_string(&args.coverage_baseline)
            .map_err(|e| format!("read {}: {e}", args.coverage_baseline))?;
        let baseline = flexsnoop_checker::ChaosCoverage::parse_baseline(&baseline_text)?;
        let regressions = report.coverage.regressions(&baseline);
        if !regressions.is_empty() {
            return Err(format!(
                "fault coverage regressed against {}:\n{}\n\n{text}",
                args.coverage_baseline,
                regressions.join("\n")
            ));
        }
        text.push_str(&format!(
            "- fault coverage ratchet vs {}: held\n",
            args.coverage_baseline
        ));
    }
    if report.is_clean() || args.no_retry {
        // --no-retry failures are the self-test's expected outcome.
        Ok(text)
    } else {
        Err(text)
    }
}

/// `flexsnoop scenario run <builtin|file>`.
pub fn scenario(args: &Args) -> Result<String, String> {
    if args.scenario.is_empty() {
        return Err(format!(
            "scenario run needs a builtin name or a scenario file; builtins: {}",
            flexsnoop_scenario::builtin_names().join(", ")
        ));
    }
    let spec = match flexsnoop_scenario::builtin(&args.scenario) {
        Some(s) => s,
        None => {
            let path = std::path::Path::new(&args.scenario);
            let text = std::fs::read_to_string(path).map_err(|e| {
                format!(
                    "{:?} is not a builtin scenario ({}) and not a readable file: {e}",
                    args.scenario,
                    flexsnoop_scenario::builtin_names().join(", ")
                )
            })?;
            // Trace phases name files relative to the scenario file.
            let dir = path
                .parent()
                .map(std::path::Path::to_path_buf)
                .unwrap_or_default();
            flexsnoop_scenario::Scenario::parse_with(&text, &mut |trace_path| {
                std::fs::read_to_string(dir.join(trace_path))
                    .map_err(|e| format!("cannot read trace file {trace_path:?}: {e}"))
            })
            .map_err(|e| format!("{}: {e}", args.scenario))?
        }
    };
    let algorithms = if args.algorithms.is_empty() {
        flexsnoop_scenario::default_algorithms().to_vec()
    } else {
        let mut parsed = Vec::new();
        for name in args.algorithms.split(',').filter(|s| !s.is_empty()) {
            parsed.push(parse_algorithm(name)?);
        }
        parsed
    };
    let opts = flexsnoop_scenario::RunOptions {
        algorithms,
        smoke: args.smoke,
        threads: if args.threads > 0 {
            args.threads
        } else {
            flexsnoop_scenario::RunOptions::default().threads
        },
    };
    let report = flexsnoop_scenario::run_scenario(&spec, &opts)?;
    let text = report.render();
    if !args.out.is_empty() {
        std::fs::write(&args.out, &text).map_err(|e| format!("write {}: {e}", args.out))?;
    }
    // A failed expectation is a non-zero exit: CI gates on it.
    if report.is_clean() {
        Ok(text)
    } else {
        Err(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn base_args() -> Args {
        Args {
            command: Command::Run,
            workload: "specjbb".to_string(),
            accesses: 120,
            seed: 5,
            ..Args::default()
        }
    }

    #[test]
    fn run_and_compare_share_format() {
        let run = run_one(&base_args()).unwrap();
        let cmp = compare(&base_args()).unwrap();
        let header = run.lines().next().unwrap().to_string();
        assert_eq!(cmp.lines().next().unwrap(), header);
        assert_eq!(cmp.lines().count(), 2 + Algorithm::PAPER_SET.len());
    }

    #[test]
    fn trace_then_replay_roundtrip() {
        let dir = std::env::temp_dir().join("flexsnoop-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt").to_string_lossy().to_string();
        let mut args = base_args();
        args.out = path.clone();
        args.accesses = 80;
        let msg = trace(&args).unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        let mut rargs = base_args();
        rargs.trace = path;
        rargs.algorithm = "lazy".to_string();
        let out = replay(&rargs).unwrap();
        assert!(out.contains("Lazy"), "{out}");
    }

    #[test]
    fn checkpoint_save_then_resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("flexsnoop-cli-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("state.snap").to_string_lossy().to_string();

        let baseline = run_one(&base_args()).unwrap();

        // Saving mid-run must not perturb the donor run…
        let mut save = base_args();
        save.save_at = Some(3_000);
        save.snapshot = file.clone();
        let saved = run_one(&save).unwrap();
        assert!(saved.contains("checkpointed cycle"), "{saved}");
        assert!(
            saved.ends_with(&baseline),
            "saving perturbed the donor run:\n{saved}\nvs\n{baseline}"
        );

        // …and the resumed run is bit-identical to the uninterrupted one.
        let mut resume = base_args();
        resume.resume = file.clone();
        let resumed = run_one(&resume).unwrap();
        assert!(resumed.contains("resumed"), "{resumed}");
        assert!(
            resumed.ends_with(&baseline),
            "resumed stats diverged:\n{resumed}\nvs\n{baseline}"
        );

        // A tampered checkpoint fails loudly, not with garbage stats.
        let mut bytes = std::fs::read(&file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let bad_file = dir.join("bad.snap").to_string_lossy().to_string();
        std::fs::write(&bad_file, &bytes).unwrap();
        let mut bad = base_args();
        bad.resume = bad_file;
        assert!(run_one(&bad).unwrap_err().contains("checkpoint"));
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        let mut no_file = base_args();
        no_file.save_at = Some(10);
        assert!(run_one(&no_file).unwrap_err().contains("--snapshot"));

        let mut both = base_args();
        both.resume = "state.snap".to_string();
        both.save_at = Some(10);
        assert!(run_one(&both).unwrap_err().contains("--resume"));

        let mut faulted = base_args();
        faulted.save_at = Some(10);
        faulted.snapshot = "state.snap".to_string();
        faulted.predictor_fault = "force-negative:2:5".to_string();
        assert!(run_one(&faulted).unwrap_err().contains("--predictor-fault"));
    }

    #[test]
    fn directory_command_runs() {
        let out = directory(&base_args()).unwrap();
        assert!(out.contains("directory"), "{out}");
        assert!(out.contains("2hop-reads"), "{out}");
    }

    #[test]
    fn replay_requires_trace_file() {
        assert!(replay(&base_args()).unwrap_err().contains("--trace"));
    }

    #[test]
    fn bench_requires_scale_flag() {
        let mut args = base_args();
        args.command = Command::Bench;
        assert!(bench(&args).unwrap_err().contains("--scale"));
    }

    #[test]
    fn report_write_then_check_roundtrip() {
        // A tiny matrix keeps this test fast in debug builds; the report
        // crate's own tests cover the full section set.
        let workloads: Vec<_> = profiles::all()
            .into_iter()
            .filter(|p| p.name == "specjbb")
            .collect();
        assert_eq!(workloads.len(), 1);
        let dir = std::env::temp_dir().join("flexsnoop-cli-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = flexsnoop_report::ReportOptions {
            scale: flexsnoop_report::ReportScale {
                figure_accesses: 60,
                table1_accesses: 60,
                table3_accesses: 60,
            },
            probe: true,
            out_dir: dir.clone(),
            workloads: Some(workloads),
            ..flexsnoop_report::ReportOptions::smoke()
        };
        let wrote = report_with(&opts, false).unwrap();
        assert!(wrote.contains("report.md"), "{wrote}");
        assert!(wrote.contains("bench_fig6.json"), "{wrote}");
        let checked = report_with(&opts, true).unwrap();
        assert!(checked.contains("up to date"), "{checked}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_cache_dir_requires_via_serve() {
        let args = Args {
            command: Command::Report,
            cache_dir: "results/cache".to_string(),
            ..Args::default()
        };
        let err = report(&args).unwrap_err();
        assert!(err.contains("--via-serve"), "{err}");
    }

    #[test]
    fn report_check_flags_missing_report() {
        let dir = std::env::temp_dir().join("flexsnoop-cli-report-missing");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = flexsnoop_report::ReportOptions {
            scale: flexsnoop_report::ReportScale {
                figure_accesses: 60,
                table1_accesses: 60,
                table3_accesses: 60,
            },
            probe: false,
            out_dir: dir,
            via_serve: false,
            serve_cache: None,
            workloads: Some(
                profiles::all()
                    .into_iter()
                    .filter(|p| p.name == "specjbb")
                    .collect(),
            ),
        };
        let err = report_with(&opts, true).unwrap_err();
        assert!(err.contains("report.md"), "{err}");
    }

    #[test]
    fn trace_without_out_prints_text() {
        let mut args = base_args();
        args.accesses = 5;
        let text = trace(&args).unwrap();
        assert!(text.lines().count() >= 5);
        assert!(text.lines().all(|l| l.split_whitespace().count() == 4));
    }
}
