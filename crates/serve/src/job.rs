//! Job specifications, cache keys and serialized results.
//!
//! A [`JobSpec`] is one simulation described entirely by strings and
//! integers, so it can cross the service socket unchanged. Its [`JobKey`]
//! extends the simulator's configuration fingerprint (which deliberately
//! omits constructor data — see
//! [`Simulator::config_fingerprint`]) with the workload identity, the
//! *resolved* predictor configuration, the probe flag and the seed, so
//! that two keys are equal exactly when their runs produce identical
//! statistics. A finished run is packaged as a [`JobOutput`] and sealed
//! with the PR 7 snapshot envelope for the results cache.

use flexsnoop::sim::energy_model_for;
use flexsnoop::{Algorithm, PredictorSpec, ProbeReport, RunStats, Simulator};
use flexsnoop_engine::snap::{self, Fingerprint, SnapReader, SnapWriter, Snapshot};
use flexsnoop_metrics::Json;

use crate::names::{parse_algorithm, parse_predictor, parse_workload};

/// Version tag inside the sealed [`JobOutput`] payload; bump on layout
/// changes so stale persistent cache entries are rejected, not misread.
/// Also bumped when a stored value's meaning changes: version 3's probe
/// footprints count the event queue, version 4's count its smaller
/// fixed arrays (one wheel, no second level), version 5's count
/// set-associative arrays as one way slab and a `u32` head per set,
/// version 6's count 16-byte ways and no arrays for a CMP never accessed,
/// version 7's count 9- and 8-byte ways, no arrays for a CMP that
/// never filled a line, and hash maps as their SwissTable allocation,
/// and version 8's count 8-byte links and ports.
const JOB_OUTPUT_VERSION: u32 = 8;

/// One simulation run, described by names rather than types.
///
/// The sweep service restricts itself to *lossless* runs (no fault
/// plan): the configuration fingerprint deliberately excludes the fault
/// plan, so caching faulty runs under it would be unsound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload profile name (`flexsnoop list`), or `uniform`.
    pub workload: String,
    /// Algorithm name (e.g. `lazy`, `superset-agg`).
    pub algorithm: String,
    /// Predictor configuration name; empty means the algorithm default.
    pub predictor: String,
    /// Simulation seed.
    pub seed: u64,
    /// CMP nodes on the ring.
    pub nodes: usize,
    /// Accesses per core.
    pub accesses: u64,
    /// Attach observability counters ([`ProbeReport`]) to the result.
    pub probe: bool,
}

impl JobSpec {
    /// Parses the algorithm name.
    ///
    /// # Errors
    ///
    /// Propagates the name-parsing message.
    pub fn resolved_algorithm(&self) -> Result<Algorithm, String> {
        parse_algorithm(&self.algorithm)
    }

    /// The predictor configuration the run will actually use: the named
    /// one, or the algorithm's default when the name is empty.
    ///
    /// # Errors
    ///
    /// Propagates the name-parsing message.
    pub fn resolved_predictor(&self) -> Result<PredictorSpec, String> {
        Ok(match parse_predictor(&self.predictor)? {
            Some(spec) => spec,
            None => self.resolved_algorithm()?.default_predictor(),
        })
    }

    /// Builds the simulator this spec describes.
    ///
    /// # Errors
    ///
    /// Returns a message on unknown names or an invalid node count.
    pub fn build(&self) -> Result<Simulator, String> {
        let profile = parse_workload(&self.workload, self.nodes)?.with_accesses(self.accesses);
        let algorithm = self.resolved_algorithm()?;
        let predictor = parse_predictor(&self.predictor)?;
        let mut sim =
            Simulator::for_workload_on(&profile, algorithm, predictor, self.seed, self.nodes)?;
        if self.probe {
            sim.enable_probe();
        }
        Ok(sim)
    }

    /// Computes the results-cache key for this spec.
    ///
    /// Builds the simulator once to obtain its configuration fingerprint,
    /// then mixes in everything that fingerprint treats as constructor
    /// data: the workload name, the resolved (not the spelled) predictor
    /// configuration, the probe flag, and the seed. Resolving the
    /// predictor first means `--predictor supy2k` and an empty override on
    /// an algorithm whose default *is* `Supy2k` share a cache entry.
    ///
    /// # Errors
    ///
    /// Returns a message if the spec does not build.
    pub fn key(&self) -> Result<JobKey, String> {
        let sim = self.build()?;
        let mut f = Fingerprint::new();
        f.push_u64(sim.config_fingerprint());
        f.push_str(&self.workload);
        f.push_str(&self.resolved_predictor()?.to_string());
        f.push_u8(self.probe as u8);
        Ok(JobKey {
            config: f.finish(),
            seed: self.seed,
        })
    }
}

/// The results-cache key: extended configuration fingerprint plus seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey {
    /// [`Simulator::config_fingerprint`] extended with workload,
    /// resolved predictor and probe flag.
    pub config: u64,
    /// The simulation seed (kept out of `config` so persistent cache
    /// files group seed sweeps of one configuration together).
    pub seed: u64,
}

impl JobKey {
    /// Renders the key as the stable `{config:016x}-{seed:016x}` form
    /// used in cache file names and stream events.
    pub fn render(&self) -> String {
        format!("{:016x}-{:016x}", self.config, self.seed)
    }
}

/// A parameter-sweep request: the cross product of workloads, algorithms
/// and seeds under shared machine settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Algorithm names.
    pub algorithms: Vec<String>,
    /// Predictor override applied to every job (empty = per-algorithm
    /// default).
    pub predictor: String,
    /// Seeds.
    pub seeds: Vec<u64>,
    /// CMP nodes on the ring.
    pub nodes: usize,
    /// Accesses per core.
    pub accesses: u64,
    /// Attach observability counters to every job.
    pub probe: bool,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            workloads: Vec::new(),
            algorithms: Vec::new(),
            predictor: String::new(),
            seeds: vec![42],
            nodes: 8,
            accesses: 4_000,
            probe: false,
        }
    }
}

impl SweepRequest {
    /// Expands the request into concrete jobs, workload-major (the same
    /// order as the benchmark matrix): workloads, then algorithms, then
    /// seeds.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        for workload in &self.workloads {
            for algorithm in &self.algorithms {
                for &seed in &self.seeds {
                    jobs.push(JobSpec {
                        workload: workload.clone(),
                        algorithm: algorithm.clone(),
                        predictor: self.predictor.clone(),
                        seed,
                        nodes: self.nodes,
                        accesses: self.accesses,
                        probe: self.probe,
                    });
                }
            }
        }
        jobs
    }

    /// Parses the wire form: `sweep key=value ...` with comma-separated
    /// list values, e.g.
    /// `sweep workloads=specjbb,specweb algorithms=lazy,eager seeds=1,2 accesses=200`.
    ///
    /// # Errors
    ///
    /// Returns a message on an unknown key, an unparsable number or
    /// `probe` flag, or a request with no workloads/algorithms.
    pub fn parse_line(line: &str) -> Result<SweepRequest, String> {
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("sweep") => {}
            other => return Err(format!("expected a `sweep` request, got {other:?}")),
        }
        let mut req = SweepRequest::default();
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed option {part:?}; expected key=value"))?;
            match key {
                "workloads" => req.workloads = split_names(value),
                "algorithms" => req.algorithms = split_names(value),
                "predictor" => req.predictor = value.to_string(),
                "seeds" => req.seeds = split_u64s("seeds", value)?,
                "nodes" => req.nodes = parse_num("nodes", value)? as usize,
                "accesses" => req.accesses = parse_num("accesses", value)?,
                "probe" => req.probe = parse_bool("probe", value)?,
                other => return Err(format!("unknown sweep option {other:?}")),
            }
        }
        if req.workloads.is_empty() {
            return Err("sweep needs workloads=...".to_string());
        }
        if req.algorithms.is_empty() {
            return Err("sweep needs algorithms=...".to_string());
        }
        if req.seeds.is_empty() {
            return Err("sweep needs at least one seed".to_string());
        }
        Ok(req)
    }

    /// Renders the wire form [`parse_line`](Self::parse_line) accepts;
    /// `parse_line(req.render_line())` round-trips.
    pub fn render_line(&self) -> String {
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        format!(
            "sweep workloads={} algorithms={} predictor={} seeds={} nodes={} accesses={} probe={}",
            self.workloads.join(","),
            self.algorithms.join(","),
            self.predictor,
            seeds.join(","),
            self.nodes,
            self.accesses,
            self.probe as u8,
        )
    }
}

fn split_names(value: &str) -> Vec<String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn split_u64s(key: &str, value: &str) -> Result<Vec<u64>, String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse_num(key, s))
        .collect()
}

fn parse_bool(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(format!(
            "{key}: expected 0, 1, true or false, got {value:?}"
        )),
    }
}

fn parse_num(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("{key}: expected a number, got {value:?}"))
}

/// A finished run: the statistics, plus the probe counters when the job
/// asked for them.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// The run statistics (bit-identical across queue backends and
    /// executor widths — that is what makes caching sound).
    pub stats: RunStats,
    /// Observability counters, present when the job ran with `probe`.
    pub probe: Option<ProbeReport>,
}

impl JobOutput {
    /// Serializes into a sealed (checksummed, versioned) byte stream —
    /// the exact bytes the results cache stores and the stream replays.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u32(JOB_OUTPUT_VERSION);
        self.stats.save_into(&mut w);
        w.put_bool(self.probe.is_some());
        if let Some(probe) = &self.probe {
            probe.save_into(&mut w);
        }
        snap::seal(w.into_bytes())
    }

    /// Deserializes bytes produced by [`encode`](Self::encode). The
    /// energy *model* is configuration, not state, so the spec that
    /// produced the bytes must be supplied to rebuild it.
    ///
    /// # Errors
    ///
    /// Returns a message on a damaged envelope, a version mismatch, or a
    /// spec that does not resolve.
    pub fn decode(bytes: &[u8], spec: &JobSpec) -> Result<JobOutput, String> {
        let payload = snap::unseal(bytes).map_err(|e| format!("cache entry damaged: {e}"))?;
        let mut r = SnapReader::new(payload);
        let version = r.get_u32().map_err(|e| e.to_string())?;
        if version != JOB_OUTPUT_VERSION {
            return Err(format!(
                "cache entry version {version}, expected {JOB_OUTPUT_VERSION}"
            ));
        }
        let mut stats = RunStats::new(energy_model_for(&spec.resolved_predictor()?));
        stats.restore_from(&mut r).map_err(|e| e.to_string())?;
        let probe = if r.get_bool().map_err(|e| e.to_string())? {
            let mut report = ProbeReport::default();
            report.restore_from(&mut r).map_err(|e| e.to_string())?;
            Some(report)
        } else {
            None
        };
        Ok(JobOutput { stats, probe })
    }

    /// Renders the result as a deterministic single-line JSON object:
    /// no timestamps, no wall-clock quantities, no cache/source state —
    /// so a cached replay is byte-identical to the cold computation.
    pub fn to_json(&self) -> Json {
        let s = &self.stats;
        let mut pairs = vec![
            ("read_txns".to_string(), Json::from(s.read_txns)),
            ("write_txns".to_string(), Json::from(s.write_txns)),
            ("read_snoops".to_string(), Json::from(s.read_snoops)),
            ("write_snoops".to_string(), Json::from(s.write_snoops)),
            ("read_ring_hops".to_string(), Json::from(s.read_ring_hops)),
            ("write_ring_hops".to_string(), Json::from(s.write_ring_hops)),
            (
                "reads_cache_supplied".to_string(),
                Json::from(s.reads_cache_supplied),
            ),
            (
                "reads_from_memory".to_string(),
                Json::from(s.reads_from_memory),
            ),
            (
                "exec_cycles".to_string(),
                Json::from(s.exec_cycles.as_u64()),
            ),
            ("events".to_string(), Json::from(s.events)),
            (
                "snoops_per_read".to_string(),
                Json::from(s.snoops_per_read()),
            ),
            ("energy_nj".to_string(), Json::from(s.energy_nj())),
            ("quiet".to_string(), Json::from(s.robustness.is_quiet())),
        ];
        if let Some(p) = &self.probe {
            pairs.push((
                "probe".to_string(),
                Json::inline_obj([
                    ("forwards", Json::from(p.forwards)),
                    ("forward_then_snoop", Json::from(p.forward_then_snoop)),
                    ("snoop_then_forward", Json::from(p.snoop_then_forward)),
                    ("predictor_lookups", Json::from(p.predictor_lookups)),
                    ("predictor_positive", Json::from(p.predictor_positive)),
                ]),
            ));
        }
        Json::InlineObj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(algorithm: &str, seed: u64) -> JobSpec {
        JobSpec {
            workload: "specjbb".to_string(),
            algorithm: algorithm.to_string(),
            predictor: String::new(),
            seed,
            nodes: 8,
            accesses: 60,
            probe: false,
        }
    }

    #[test]
    fn sweep_request_round_trips_through_wire_form() {
        let req = SweepRequest {
            workloads: vec!["specjbb".into(), "specweb".into()],
            algorithms: vec!["lazy".into(), "eager".into()],
            predictor: "supy2k".into(),
            seeds: vec![1, 2, 3],
            nodes: 8,
            accesses: 200,
            probe: true,
        };
        assert_eq!(SweepRequest::parse_line(&req.render_line()).unwrap(), req);
        assert_eq!(
            req.expand().len(),
            12,
            "2 workloads × 2 algorithms × 3 seeds"
        );
    }

    #[test]
    fn sweep_request_rejects_malformed_lines() {
        assert!(SweepRequest::parse_line("run workloads=a").is_err());
        assert!(SweepRequest::parse_line("sweep wrkloads=a").is_err());
        assert!(SweepRequest::parse_line("sweep workloads=specjbb").is_err());
        assert!(
            SweepRequest::parse_line("sweep workloads=specjbb algorithms=lazy seeds=x").is_err()
        );
        assert!(
            SweepRequest::parse_line("sweep workloads=specjbb algorithms=lazy probe=yes").is_err()
        );
    }

    #[test]
    fn expansion_is_workload_major() {
        let req = SweepRequest {
            workloads: vec!["specjbb".into(), "specweb".into()],
            algorithms: vec!["lazy".into(), "eager".into()],
            seeds: vec![7],
            ..SweepRequest::default()
        };
        let order: Vec<(String, String)> = req
            .expand()
            .into_iter()
            .map(|j| (j.workload, j.algorithm))
            .collect();
        assert_eq!(order[0], ("specjbb".into(), "lazy".into()));
        assert_eq!(order[1], ("specjbb".into(), "eager".into()));
        assert_eq!(order[2], ("specweb".into(), "lazy".into()));
    }

    #[test]
    fn keys_separate_what_the_config_fingerprint_does_not() {
        let base = spec("lazy", 7).key().unwrap();
        assert_eq!(spec("lazy", 7).key().unwrap(), base, "keys are stable");
        assert_ne!(spec("lazy", 8).key().unwrap(), base, "seed");
        assert_ne!(spec("eager", 7).key().unwrap(), base, "algorithm");
        let mut other_workload = spec("lazy", 7);
        other_workload.workload = "specweb".to_string();
        assert_ne!(other_workload.key().unwrap(), base, "workload");
        let mut probed = spec("lazy", 7);
        probed.probe = true;
        assert_ne!(probed.key().unwrap(), base, "probe flag");
    }

    #[test]
    fn spelled_and_default_predictor_share_a_key() {
        // superset-agg's default is Supy2k; naming it explicitly must hit
        // the same cache entry.
        let implicit = spec("superset-agg", 7).key().unwrap();
        let mut explicit = spec("superset-agg", 7);
        explicit.predictor = "supy2k".to_string();
        assert_eq!(explicit.key().unwrap(), implicit);
    }

    #[test]
    fn job_output_round_trips_sealed() {
        let mut probed = spec("superset-agg", 3);
        probed.probe = true;
        let mut sim = probed.build().unwrap();
        sim.run_until(None);
        let output = JobOutput {
            stats: sim.finalize(),
            probe: sim.probe_report(),
        };
        assert!(output.probe.is_some());
        let bytes = output.encode();
        let mut back = JobOutput::decode(&bytes, &probed).unwrap();
        // peak_rss_bytes is volatile and deliberately not carried.
        if let (Some(b), Some(o)) = (&mut back.probe, &output.probe) {
            b.peak_rss_bytes = o.peak_rss_bytes;
        }
        assert_eq!(back, output);
        assert!(JobOutput::decode(&bytes[..bytes.len() - 3], &probed).is_err());
    }

    #[test]
    fn result_json_is_deterministic_and_single_line() {
        let s = spec("lazy", 3);
        let mut sim = s.build().unwrap();
        sim.run_until(None);
        let output = JobOutput {
            stats: sim.finalize(),
            probe: None,
        };
        let a = output.to_json().render();
        let b = JobOutput::decode(&output.encode(), &s)
            .unwrap()
            .to_json()
            .render();
        assert_eq!(a, b, "decode must reproduce the rendering exactly");
        assert!(!a.contains('\n'), "result lines must stay on one line");
    }
}
