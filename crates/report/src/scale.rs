//! The `flexsnoop bench --scale` ring-scaling sweep.
//!
//! Measures simulator throughput and per-node memory as the ring grows
//! from thousands to a million nodes, producing the versioned
//! `results/bench_scale.json` artifact. The machine is
//! [`MachineConfig::scale`] (single-core CMPs, tiny caches); the workload
//! is eight requester cores spread evenly around the ring, each reading
//! from a small shared line pool so later circulations find cache
//! suppliers, while every other core stays idle. That keeps total work
//! roughly constant across ring sizes — what scales is the *state*:
//! per-node caches, link FIFOs and predictor tables.
//!
//! Everything outside the `"volatile"` lines is deterministic for a
//! fixed option set (same seed-free workload, same machine), matching
//! the other `bench_*.json` artifacts; strip with
//! [`crate::strip_volatile`] to diff across commits.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use flexsnoop::{energy_model_for, Algorithm, MachineConfig, PredictorSpec, Simulator, VecStream};
use flexsnoop_engine::snap::fnv1a;
use flexsnoop_engine::Cycles;
use flexsnoop_metrics::Table;
use flexsnoop_workload::{AccessStream, LineAddr, MemAccess};

use crate::json::Json;
use crate::{Artifact, VolatileContext};

/// The scale-artifact schema identifier; bump when the layout changes.
pub const SCALE_SCHEMA: &str = "flexsnoop-bench-scale/v2";

/// Ring sizes the full sweep measures: 1k, 128k (the CI smoke ceiling)
/// and 1M nodes.
pub const SCALE_POINTS: [usize; 3] = [1 << 10, 1 << 17, 1 << 20];

/// Requester cores driving each run, spread evenly around the ring.
pub const REQUESTERS: usize = 8;

/// Shared line pool the requesters read from; small enough to stay
/// resident in the tiny [`MachineConfig::scale`] L2s.
const POOL_LINES: u64 = 32;

/// What to run and where to write it.
#[derive(Debug, Clone)]
pub struct ScaleOptions {
    /// Largest ring size to run; [`SCALE_POINTS`] entries above this are
    /// skipped (the CI smoke job caps at 128k).
    pub max_nodes: usize,
    /// Total ring events to aim for per run; sets the per-requester
    /// access count so wall time stays roughly flat across ring sizes.
    pub target_events: u64,
    /// Output directory for `bench_scale.json`.
    pub out_dir: PathBuf,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        ScaleOptions {
            max_nodes: 1 << 20,
            target_events: 2_000_000,
            out_dir: PathBuf::from("results"),
        }
    }
}

/// One measured (ring size, algorithm) cell.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Ring size.
    pub nodes: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Accesses each requester core issued.
    pub accesses_per_core: u64,
    /// Events dispatched.
    pub events: u64,
    /// Ring link crossings (read + write messages).
    pub ring_hops: u64,
    /// CMP snoop operations performed.
    pub snoops: u64,
    /// Simulated cycles to drain the workload.
    pub exec_cycles: u64,
    /// Estimated simulator heap bytes per node.
    pub bytes_per_node: u64,
    /// Estimated total simulator heap bytes.
    pub footprint_total_bytes: u64,
    /// Wall-clock milliseconds for this run (volatile).
    pub wall_ms: u64,
    /// Events dispatched per wall-clock second (volatile).
    pub events_per_sec: f64,
}

/// Everything one sweep produced, still in memory.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// The measured rows, in (point, algorithm) order.
    pub rows: Vec<ScaleRow>,
    /// The rendered `bench_scale.json`.
    pub artifact: Artifact,
    /// Human-readable row table plus timing summary.
    pub summary: String,
}

impl ScaleReport {
    /// Writes `bench_scale.json` into `out_dir`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path that failed to write.
    pub fn write(&self, out_dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(out_dir)
            .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let path = out_dir.join(&self.artifact.filename);
        std::fs::write(&path, &self.artifact.contents)
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The algorithms the sweep measures. Lazy is predictor-free (the pure
/// forwarding floor); Subset uses a deliberately small 8-entry table so
/// the flat per-node bank stays proportional at a million nodes.
fn scale_algorithms() -> [(Algorithm, PredictorSpec); 2] {
    [
        (Algorithm::Lazy, PredictorSpec::None),
        (Algorithm::Subset, PredictorSpec::Subset { entries: 8 }),
    ]
}

/// Accesses per requester core for a ring of `nodes`: aims the run at
/// `target_events` total events (each access circulates the whole ring),
/// never fewer than 2 so every size exercises re-reads.
fn accesses_for(nodes: usize, target_events: u64) -> u64 {
    (target_events / (REQUESTERS as u64 * nodes as u64)).clamp(2, 512)
}

/// One access stream per core: the eight requesters read `accesses`
/// lines round-robin from the shared pool (staggered starts so they
/// collide only occasionally); every other core is idle.
fn build_streams(nodes: usize, accesses: u64) -> Vec<Box<dyn AccessStream + Send>> {
    let requesters: HashSet<usize> = (0..REQUESTERS).map(|i| i * nodes / REQUESTERS).collect();
    (0..nodes)
        .map(|core| {
            let accesses_here = if requesters.contains(&core) {
                accesses
            } else {
                0
            };
            let reads = (0..accesses_here)
                .map(|k| {
                    let line = (core as u64 + k) % POOL_LINES;
                    MemAccess::read(LineAddr(line), Cycles(10))
                })
                .collect();
            Box::new(VecStream::new(reads)) as Box<dyn AccessStream + Send>
        })
        .collect()
}

/// Runs one (ring size, algorithm) cell.
fn run_point(
    nodes: usize,
    algorithm: Algorithm,
    spec: PredictorSpec,
    opts: &ScaleOptions,
) -> ScaleRow {
    let accesses = accesses_for(nodes, opts.target_events);
    let machine = MachineConfig::scale(nodes);
    let streams = build_streams(nodes, accesses);
    let mut sim = Simulator::new(
        machine,
        algorithm,
        spec,
        energy_model_for(&spec),
        streams,
        accesses,
    )
    .unwrap_or_else(|e| panic!("scale sweep {nodes}x{algorithm}: {e}"));
    sim.enable_probe();
    let t = Instant::now();
    let stats = sim.run();
    let wall = t.elapsed();
    let probe = sim.probe_report().expect("probe was enabled");
    ScaleRow {
        nodes,
        algorithm: algorithm.to_string(),
        accesses_per_core: accesses,
        events: stats.events,
        ring_hops: stats.read_ring_hops + stats.write_ring_hops,
        snoops: stats.read_snoops + stats.write_snoops,
        exec_cycles: stats.exec_cycles.as_u64(),
        bytes_per_node: probe.bytes_per_node,
        footprint_total_bytes: probe.footprint_total_bytes,
        wall_ms: wall.as_millis() as u64,
        events_per_sec: stats.events as f64 / wall.as_secs_f64().max(1e-9),
    }
}

/// Runs the sweep and assembles `bench_scale.json` in memory.
///
/// # Panics
///
/// Panics if a simulation fails to configure (a bug, not an environment
/// condition).
pub fn run_scale(opts: &ScaleOptions) -> ScaleReport {
    let volatile = VolatileContext::capture();
    let t_all = Instant::now();
    let points: Vec<usize> = SCALE_POINTS
        .into_iter()
        .filter(|&n| n <= opts.max_nodes)
        .collect();
    let mut rows = Vec::new();
    for &nodes in &points {
        for (algorithm, spec) in scale_algorithms() {
            rows.push(run_point(nodes, algorithm, spec, opts));
        }
    }
    let wall_ms = t_all.elapsed().as_millis() as u64;
    let peak_rss = flexsnoop::probe::peak_rss_bytes().unwrap_or(0);

    let config = Json::obj([
        ("points", Json::arr(points.iter().map(|&n| Json::from(n)))),
        (
            "algorithms",
            Json::arr(
                scale_algorithms()
                    .iter()
                    .map(|(a, _)| Json::str(a.to_string())),
            ),
        ),
        ("requesters", Json::from(REQUESTERS)),
        ("pool_lines", Json::from(POOL_LINES)),
        ("target_events", Json::from(opts.target_events)),
    ]);
    let fingerprint = {
        let canonical = format!("{SCALE_SCHEMA}/scale/{}", config.render());
        format!("{:016x}", fnv1a(canonical.as_bytes()))
    };
    let mut config_pairs = match &config {
        Json::Obj(pairs) => pairs.clone(),
        other => vec![("value".to_string(), other.clone())],
    };
    config_pairs.push(("fingerprint".to_string(), Json::Str(fingerprint)));

    let row_json = Json::arr(rows.iter().map(|r| {
        Json::obj([
            ("nodes", Json::from(r.nodes)),
            ("algorithm", Json::str(r.algorithm.clone())),
            ("accesses_per_core", Json::from(r.accesses_per_core)),
            ("events", Json::from(r.events)),
            ("ring_hops", Json::from(r.ring_hops)),
            ("snoops", Json::from(r.snoops)),
            ("exec_cycles", Json::from(r.exec_cycles)),
            ("bytes_per_node", Json::from(r.bytes_per_node)),
            ("footprint_total_bytes", Json::from(r.footprint_total_bytes)),
            (
                "volatile",
                Json::inline_obj([
                    ("wall_ms", Json::from(r.wall_ms)),
                    ("events_per_sec", Json::from(r.events_per_sec)),
                ]),
            ),
        ])
    }));
    let doc = Json::obj([
        ("schema", Json::str(SCALE_SCHEMA)),
        ("figure", Json::str("scale")),
        (
            "title",
            Json::str("Ring-scaling sweep — events/sec and bytes/node vs ring size"),
        ),
        ("config", Json::Obj(config_pairs)),
        (
            "volatile",
            Json::inline_obj([
                ("git_sha", Json::str(volatile.git_sha.clone())),
                ("generated_unix_ms", Json::from(volatile.unix_ms)),
                ("wall_ms", Json::from(wall_ms)),
                ("peak_rss_bytes", Json::from(peak_rss)),
            ]),
        ),
        ("rows", row_json),
    ]);

    let mut table = Table::with_columns(&[
        "nodes",
        "algorithm",
        "accesses",
        "events",
        "exec-cycles",
        "bytes/node",
        "events/sec",
        "wall-ms",
    ]);
    for r in &rows {
        table.row(vec![
            r.nodes.to_string(),
            r.algorithm.clone(),
            r.accesses_per_core.to_string(),
            r.events.to_string(),
            r.exec_cycles.to_string(),
            r.bytes_per_node.to_string(),
            format!("{:.0}", r.events_per_sec),
            r.wall_ms.to_string(),
        ]);
    }
    let mut summary = table.render();
    summary.push_str(&format!(
        "\npeak RSS: {:.1} MB, total wall: {} ms\n",
        peak_rss as f64 / (1024.0 * 1024.0),
        wall_ms
    ));

    ScaleReport {
        rows,
        artifact: Artifact {
            filename: "bench_scale.json".to_string(),
            contents: format!("{}\n", doc.render()),
        },
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_volatile;

    fn tiny_options() -> ScaleOptions {
        ScaleOptions {
            max_nodes: 1 << 10,
            target_events: 40_000,
            ..ScaleOptions::default()
        }
    }

    #[test]
    fn sweep_produces_rows_and_artifact() {
        let report = run_scale(&tiny_options());
        // One point (1024) x two algorithms.
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            assert_eq!(r.nodes, 1 << 10);
            assert!(r.events > 0, "{} events", r.algorithm);
            assert!(r.ring_hops > 0);
            assert!(r.bytes_per_node > 0);
            assert!(r.footprint_total_bytes >= r.bytes_per_node);
        }
        let a = &report.artifact;
        assert_eq!(a.filename, "bench_scale.json");
        assert!(a.contents.contains(SCALE_SCHEMA));
        assert!(a.contents.contains("\"fingerprint\""));
        assert!(a.contents.contains("\"bytes_per_node\""));
        // Row volatiles plus the top-level one, each on its own line.
        let volatile_lines = a
            .contents
            .lines()
            .filter(|l| l.trim_start().starts_with("\"volatile\":"))
            .count();
        assert_eq!(volatile_lines, report.rows.len() + 1);
        assert!(report.summary.contains("events/sec"));
    }

    #[test]
    fn sweep_is_deterministic_modulo_volatile() {
        let opts = tiny_options();
        let a = run_scale(&opts);
        let b = run_scale(&opts);
        assert_eq!(
            strip_volatile(&a.artifact.contents),
            strip_volatile(&b.artifact.contents)
        );
    }

    #[test]
    fn access_budget_clamps() {
        assert_eq!(accesses_for(1 << 10, 2_000_000), 244);
        assert_eq!(accesses_for(1 << 20, 2_000_000), 2);
        assert_eq!(accesses_for(8, u64::MAX), 512);
    }
}
