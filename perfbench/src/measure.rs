//! Running one pass of a workload: build, run and check every simulation,
//! timing set-up, run and checks separately on the host clock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use flexsnoop::{energy_model_for, RunStats, Simulator};
use flexsnoop_engine::snap::{fnv1a, snapshot_bytes};
use flexsnoop_engine::{Cycle, QueueKind};
use flexsnoop_workload::AccessStream;

use crate::trace::Tracer;
use crate::workloads::SimSpec;

/// How to run a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Event-queue backend; `None` keeps the simulator's default.
    pub queue: Option<QueueKind>,
    /// Run the coherence oracle exactly where the workload does not.
    pub flip_oracle: bool,
}

/// One finished simulation.
#[derive(Debug)]
pub struct SimRun {
    /// `None` when the simulation panicked.
    pub stats: Option<RunStats>,
    /// Benchmark-side input generation (not part of set-up).
    pub gen_s: f64,
    /// The fastest of `setups` timed set-ups.
    pub setup_s: f64,
    pub setups: usize,
    /// Host seconds of each slice of the run (see `SimSpec::slice`).
    pub slices: Vec<f64>,
    pub check_s: f64,
    pub failure: Option<String>,
}

impl SimRun {
    pub fn run_s(&self) -> f64 {
        self.slices.iter().sum()
    }
}

/// Every simulation of one pass, in workload order.
#[derive(Debug)]
pub struct Pass {
    pub sims: Vec<SimRun>,
}

impl Pass {
    pub fn run(specs: &[SimSpec], opts: Options, tracer: Option<&Tracer>) -> Pass {
        Pass {
            sims: specs.iter().map(|s| run_sim(s, opts, tracer)).collect(),
        }
    }

    pub fn stats(&self) -> impl Iterator<Item = &RunStats> {
        self.sims.iter().filter_map(|s| s.stats.as_ref())
    }

    pub fn gen_s(&self) -> f64 {
        self.sims.iter().map(|s| s.gen_s).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.sims.iter().map(|s| s.setup_s).sum()
    }

    pub fn run_s(&self) -> f64 {
        self.sims.iter().map(SimRun::run_s).sum()
    }

    pub fn events(&self) -> u64 {
        self.stats().map(|s| s.events).sum()
    }

    pub fn failures(&self) -> impl Iterator<Item = &str> {
        self.sims.iter().filter_map(|s| s.failure.as_deref())
    }

    /// Times more set-ups of every simulation, a round of all of them at
    /// a time, while the next round should end within `budget_s` host
    /// seconds, and keeps each simulation's fastest set-up. Taken after
    /// every pass, the samples spread over the whole run like the run
    /// slices do, instead of landing in one moment of it.
    pub fn resample_setups(&mut self, specs: &[SimSpec], budget_s: f64) {
        let start = Instant::now();
        let mut round_s = self.setup_s();
        while start.elapsed().as_secs_f64() + round_s <= budget_s {
            let t = Instant::now();
            for (spec, sim) in specs.iter().zip(&mut self.sims) {
                match time_setup(spec) {
                    Ok(s) => {
                        sim.setup_s = sim.setup_s.min(s);
                        sim.setups += 1;
                    }
                    Err(e) => {
                        let failure = format!("{}: set-up failed: {e}", spec.label);
                        sim.failure.get_or_insert(failure);
                    }
                }
            }
            round_s = t.elapsed().as_secs_f64();
        }
    }

    /// FNV-1a over the serialized `RunStats` of every simulation, in
    /// order: equal digests mean bit-identical simulated results.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for sim in &self.sims {
            match &sim.stats {
                Some(stats) => bytes.extend(snapshot_bytes(stats)),
                None => bytes.extend(b"panicked"),
            }
        }
        fnv1a(&bytes)
    }
}

/// Builds, runs and checks one simulation. A panic inside the simulator
/// is caught and reported as a failure of this simulation.
pub fn run_sim(spec: &SimSpec, opts: Options, tracer: Option<&Tracer>) -> SimRun {
    let mut out = SimRun {
        stats: None,
        gen_s: 0.0,
        setup_s: 0.0,
        setups: 1,
        slices: Vec::new(),
        check_s: 0.0,
        failure: None,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut streams = spec.streams();
        if let Some(tracer) = tracer {
            streams = tracer.wrap_streams(streams);
        }
        out.gen_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut sim = construct(spec, opts, tracer, streams)?;
        out.setup_s = t.elapsed().as_secs_f64();

        // Slicing the run by simulated time changes no result: each
        // `run_until` stops at a point fixed by the event schedule.
        let mut stop = Cycle::ZERO + spec.slice;
        loop {
            let t = Instant::now();
            sim.run_until(Some(stop));
            out.slices.push(t.elapsed().as_secs_f64());
            if sim.pending_events() == 0 {
                break;
            }
            stop += spec.slice;
        }
        let stats = sim.finalize();

        let t = Instant::now();
        let checked = check(spec, &sim, &stats);
        out.check_s = t.elapsed().as_secs_f64();
        out.stats = Some(stats);
        checked
    }));
    out.failure = match result {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(format!("{}: {e}", spec.label)),
        Err(_) => Some(format!("{}: simulator panicked", spec.label)),
    };
    out
}

/// Set-up alone: the host seconds to construct and arm one simulation
/// from freshly generated inputs.
fn time_setup(spec: &SimSpec) -> Result<f64, String> {
    let streams = spec.streams();
    let t = Instant::now();
    let sim = construct(spec, Options::default(), None, streams)?;
    let setup_s = t.elapsed().as_secs_f64();
    drop(sim);
    Ok(setup_s)
}

/// Everything that happens before `run`: construction, queue choice,
/// fault plan, oracle and probe.
fn construct(
    spec: &SimSpec,
    opts: Options,
    tracer: Option<&Tracer>,
    streams: Vec<Box<dyn AccessStream + Send>>,
) -> Result<Simulator, String> {
    let energy = energy_model_for(&spec.predictor);
    let mut sim = match tracer.and_then(|t| t.predictors(spec)) {
        Some(predictors) => Simulator::with_predictors(
            spec.machine,
            spec.algorithm,
            predictors,
            energy,
            streams,
            spec.limit,
        ),
        None => Simulator::new(
            spec.machine,
            spec.algorithm,
            spec.predictor,
            energy,
            streams,
            spec.limit,
        ),
    }?;
    if let Some(kind) = opts.queue {
        sim.use_event_queue(kind);
    }
    if let Some(plan) = &spec.fault_plan {
        sim.set_fault_plan(plan.clone());
    }
    if spec.oracle != opts.flip_oracle {
        sim.enable_invariant_checks();
    }
    if let Some(tracer) = tracer {
        sim.set_probe(tracer.probe());
    }
    Ok(sim)
}

/// The correctness gate every simulation must pass.
fn check(spec: &SimSpec, sim: &Simulator, stats: &RunStats) -> Result<(), String> {
    sim.validate_coherence()?;
    if let Some(v) = sim.first_violation() {
        return Err(format!(
            "{} oracle violation(s), first: {v}",
            sim.violations().len()
        ));
    }
    let unfinished = stats.robustness.unfinished_cores;
    if unfinished != 0 || sim.in_flight() != 0 {
        return Err(format!(
            "{unfinished} unfinished cores, {} transactions in flight",
            sim.in_flight()
        ));
    }
    let retired = stats.l1_hits
        + stats.l2_hits
        + stats.local_peer_hits
        + stats.silent_write_hits
        + stats.read_txns
        + stats.write_txns;
    if retired != spec.expected_accesses() {
        return Err(format!(
            "retired {retired} accesses, expected {}",
            spec.expected_accesses()
        ));
    }
    Ok(())
}
