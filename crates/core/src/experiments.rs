//! High-level experiment runners used by the benches and examples.

use std::collections::BTreeMap;

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_predictor::PredictorSpec;
use flexsnoop_workload::{AccessStream, MemAccess, Trace, WorkloadGroup, WorkloadProfile};

use crate::algorithm::Algorithm;
use crate::sim::Simulator;
use crate::stats::RunStats;

/// An owned replay stream over a recorded per-core access vector.
#[derive(Debug, Clone)]
pub struct VecStream {
    accesses: Vec<MemAccess>,
    pos: usize,
}

impl VecStream {
    /// Creates a stream replaying `accesses` in order.
    pub fn new(accesses: Vec<MemAccess>) -> Self {
        Self { accesses, pos: 0 }
    }

    /// One owned stream per core from a recorded trace.
    pub fn from_trace(trace: &Trace) -> Vec<VecStream> {
        (0..trace.cores())
            .map(|c| VecStream::new(trace.core(c).to_vec()))
            .collect()
    }
}

/// One boxed replay stream per core of `trace`: what the ring simulator
/// ([`Simulator::for_trace`]) and the directory baseline replay.
pub fn replay_streams(trace: &Trace) -> Vec<Box<dyn AccessStream + Send>> {
    VecStream::from_trace(trace)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn AccessStream + Send>)
        .collect()
}

/// Serializes only the replay cursor; the access vector is configuration.
impl Snapshot for VecStream {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.pos);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let pos = r.get_usize()?;
        if pos > self.accesses.len() {
            return Err(SnapError::Corrupt("replay cursor is past the stream end"));
        }
        self.pos = pos;
        Ok(())
    }
}

impl AccessStream for VecStream {
    fn next_access(&mut self) -> Option<MemAccess> {
        let a = self.accesses.get(self.pos).copied();
        if a.is_some() {
            self.pos += 1;
        }
        a
    }
}

/// Runs one workload under one algorithm (with its default predictor
/// unless overridden) and returns the statistics.
///
/// # Errors
///
/// Propagates configuration errors from [`Simulator::for_workload`].
pub fn run_workload(
    profile: &WorkloadProfile,
    algorithm: Algorithm,
    predictor: Option<PredictorSpec>,
    seed: u64,
) -> Result<RunStats, String> {
    let mut sim = Simulator::for_workload(profile, algorithm, predictor, seed)?;
    Ok(sim.run())
}

/// Runs one workload under several algorithms in parallel on the shared
/// bounded executor (see [`flexsnoop_engine::Executor`]); each simulator
/// is independent and deterministic, so results do not depend on the
/// worker count.
///
/// # Panics
///
/// Panics if any run fails to configure — the algorithm list is expected
/// to be paired with legal predictors.
pub fn run_algorithms(
    profile: &WorkloadProfile,
    algorithms: &[Algorithm],
    seed: u64,
) -> Vec<(Algorithm, RunStats)> {
    let tasks: Vec<_> = algorithms
        .iter()
        .map(|&alg| {
            move || {
                let stats = run_workload(profile, alg, None, seed)
                    .unwrap_or_else(|e| panic!("run {alg} failed: {e}"));
                (alg, stats)
            }
        })
        .collect();
    flexsnoop_engine::Executor::with_default().run(tasks)
}

/// Per-group aggregation of a metric over many workloads.
///
/// SPLASH-2 uses the arithmetic mean for absolute metrics and the
/// geometric mean for normalized metrics (matching the paper's figures);
/// the SPEC groups contain a single workload each.
#[derive(Debug, Clone, Default)]
pub struct GroupAggregator {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl GroupAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(group: WorkloadGroup) -> &'static str {
        match group {
            WorkloadGroup::Splash2 => "SPLASH-2",
            WorkloadGroup::SpecJbb => "SPECjbb",
            WorkloadGroup::SpecWeb => "SPECweb",
        }
    }

    /// Records one workload's metric value.
    pub fn record(&mut self, group: WorkloadGroup, value: f64) {
        self.values.entry(Self::key(group)).or_default().push(value);
    }

    /// Arithmetic mean per group, in a stable order.
    pub fn means(&self) -> Vec<(&'static str, f64)> {
        self.values
            .iter()
            .map(|(k, v)| (*k, flexsnoop_metrics::mean(v)))
            .collect()
    }

    /// Geometric mean per group, in a stable order.
    pub fn geomeans(&self) -> Vec<(&'static str, f64)> {
        self.values
            .iter()
            .map(|(k, v)| (*k, flexsnoop_metrics::geomean(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsnoop_engine::Cycles;
    use flexsnoop_mem::LineAddr;

    #[test]
    fn vec_stream_replays_and_ends() {
        let mut s = VecStream::new(vec![
            MemAccess::read(LineAddr(1), Cycles(1)),
            MemAccess::write(LineAddr(2), Cycles(2)),
        ]);
        assert_eq!(s.next_access().unwrap().line, LineAddr(1));
        assert!(s.next_access().unwrap().write);
        assert_eq!(s.next_access(), None);
    }

    #[test]
    fn record_and_replay_match() {
        let profile = flexsnoop_workload::profiles::specweb();
        let trace = Trace::record(&mut profile.streams(5), 100);
        assert_eq!(trace.cores(), 8);

        let mut fresh = profile.streams(5);
        for (f, p) in fresh.iter_mut().zip(&mut replay_streams(&trace)) {
            for _ in 0..100 {
                assert_eq!(f.next_access(), p.next_access());
            }
            assert_eq!(p.next_access(), None, "trace is finite");
        }
    }

    #[test]
    fn vec_stream_snapshot_resumes_and_rejects_overrun() {
        use flexsnoop_engine::snap::{restore_bytes, snapshot_bytes};
        let profile = flexsnoop_workload::profiles::specweb();
        let trace = Trace::record(&mut profile.streams(5), 20);

        let mut stream = VecStream::from_trace(&trace).remove(0);
        for _ in 0..7 {
            stream.next_access();
        }
        let bytes = snapshot_bytes(&stream);
        let mut fresh = VecStream::from_trace(&trace).remove(0);
        restore_bytes(&mut fresh, &bytes).expect("restore");
        loop {
            let (a, b) = (stream.next_access(), fresh.next_access());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }

        // A cursor past the end of a shorter trace must be rejected.
        let short = Trace::record(&mut profile.streams(5), 3);
        let mut short_stream = VecStream::from_trace(&short).remove(0);
        assert!(matches!(
            restore_bytes(&mut short_stream, &bytes),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn aggregator_groups_and_averages() {
        let mut agg = GroupAggregator::new();
        agg.record(WorkloadGroup::Splash2, 2.0);
        agg.record(WorkloadGroup::Splash2, 8.0);
        agg.record(WorkloadGroup::SpecJbb, 3.0);
        let means = agg.means();
        assert_eq!(means[0], ("SPECjbb", 3.0));
        assert_eq!(means[1].0, "SPLASH-2");
        assert!((means[1].1 - 5.0).abs() < 1e-12);
        let geo = agg.geomeans();
        assert!((geo[1].1 - 4.0).abs() < 1e-12);
    }
}
