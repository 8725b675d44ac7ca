//! The traced run: per-layer counts and host times, measured from outside
//! the simulator.
//!
//! Nothing here adds a span inside the simulator. Each layer is measured
//! at its public boundary:
//!
//! * `workload`, `predictor`: wrappers around the `AccessStream`s and
//!   `SupplierPredictor`s handed to the simulator, timing one call in
//!   [`SAMPLE`];
//! * `core`: a `Probe` timing the gap between consecutive
//!   `event_dispatched` hooks (one gap in [`SAMPLE`]), i.e. the host time
//!   of one event, and counting protocol hooks;
//! * `engine`, `net`, `mem`: layers the simulator calls without a public
//!   hook, so their per-call cost comes from replaying their public
//!   functions (`Scheduler::schedule_at`/`pop`, `RingNetwork::
//!   send_hop_outcome`, `CmpCaches::snoop`/`local_lookup`) at the traced
//!   run's shape, multiplied by the traced call counts.
//!
//! The residual is the per-event time the layers above do not explain:
//! protocol dispatch in `core`, plus any replay error. It is reported as
//! measured; a negative residual means the replays over-estimate a layer.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use flexsnoop::{FaultPlan, MachineConfig, PredictorSpec, Probe, RingMsg, SnoopAction};
use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{Cycle, Cycles, Scheduler, SplitMix64};
use flexsnoop_mem::{CacheGeometry, CmpCaches, CmpId, CoherState, LineAddr};
use flexsnoop_net::{RingConfig, RingNetwork};
use flexsnoop_predictor::{PredictorCounters, SupplierPredictor};
use flexsnoop_workload::{AccessStream, MemAccess};

use crate::measure::{Options, Pass};
use crate::report::{ratio, Metric, Report};
use crate::workloads::SimSpec;

/// One call (or event gap) in `SAMPLE` is timed.
const SAMPLE: u64 = 16;
/// Largest latency, in cycles, the hop histograms resolve exactly.
const MAX_LATENCY: usize = 1 << 14;
/// Operations per layer replay.
const REPLAY_OPS: u64 = 1 << 21;
/// Cap on the CMPs the `mem` replay allocates (ring-1m has a million).
const MEM_REPLAY_NODES: usize = 1 << 16;

/// Sampled call timing.
#[derive(Debug, Default, Clone, Copy)]
struct Sampled {
    /// Offsets which calls are timed, so that many wrappers that each see
    /// only a few calls (one per node on ring-1m) still sample 1 in
    /// `SAMPLE` between them.
    phase: u64,
    calls: u64,
    samples: u64,
    ns: u64,
}

impl Sampled {
    fn with_phase(phase: u64) -> Self {
        Sampled {
            phase: phase % SAMPLE,
            ..Sampled::default()
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !(self.calls + self.phase).is_multiple_of(SAMPLE) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.samples += 1;
        r
    }

    fn add(&mut self, other: &Sampled) {
        self.calls += other.calls;
        self.samples += other.samples;
        self.ns += other.ns;
    }

    /// Mean ns per call, less the cost of reading the clock.
    fn mean_ns(&self, clock_ns: f64) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.ns as f64 / self.samples as f64 - clock_ns
        }
    }
}

/// Exact counts of small cycle latencies.
#[derive(Debug, Clone)]
struct LatencyCounts(Vec<u64>);

impl LatencyCounts {
    fn new() -> Self {
        LatencyCounts(vec![0; MAX_LATENCY + 1])
    }

    fn record(&mut self, c: Cycles) {
        self.0[(c.0 as usize).min(MAX_LATENCY)] += 1;
    }

    fn add(&mut self, other: &LatencyCounts) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    fn percentile(&self, p: f64) -> u64 {
        let target = ((p * self.count() as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (lat, &n) in self.0.iter().enumerate() {
            seen += n;
            if seen >= target {
                return lat as u64;
            }
        }
        0
    }
}

/// Everything the wrappers and the probe collected over a traced pass.
#[derive(Debug)]
struct TraceData {
    stream: Sampled,
    predict: Sampled,
    positives: u64,
    train: Sampled,
    events: u64,
    depth_sum: u64,
    depth_max: usize,
    /// Sampled host ns between consecutive dispatched events.
    event_gaps: Vec<u32>,
    hops: LatencyCounts,
    bridge_hops: LatencyCounts,
    actions: [u64; 3],
    retries: u64,
    spurious_retries: u64,
    locality_lookups: u64,
    escalations: u64,
    bytes_per_node: u64,
}

impl TraceData {
    fn new() -> Self {
        TraceData {
            stream: Sampled::default(),
            predict: Sampled::default(),
            positives: 0,
            train: Sampled::default(),
            events: 0,
            depth_sum: 0,
            depth_max: 0,
            event_gaps: Vec::new(),
            hops: LatencyCounts::new(),
            bridge_hops: LatencyCounts::new(),
            actions: [0; 3],
            retries: 0,
            spurious_retries: 0,
            locality_lookups: 0,
            escalations: 0,
            bytes_per_node: 0,
        }
    }
}

type Sink = Arc<Mutex<TraceData>>;

fn lock(sink: &Sink) -> std::sync::MutexGuard<'_, TraceData> {
    sink.lock()
        .expect("trace sink poisoned by a panicking wrapper")
}

/// Hands out the timing wrappers and probe for a traced pass and gathers
/// what they measured. Each wrapper counts locally and adds its counts to
/// the shared sink when the simulator drops it.
pub struct Tracer {
    sink: Sink,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            sink: Arc::new(Mutex::new(TraceData::new())),
        }
    }

    pub fn wrap_streams(
        &self,
        streams: Vec<Box<dyn AccessStream + Send>>,
    ) -> Vec<Box<dyn AccessStream + Send>> {
        streams
            .into_iter()
            .enumerate()
            .map(|(i, inner)| {
                Box::new(TimedStream {
                    inner,
                    timing: Sampled::with_phase(i as u64),
                    sink: self.sink.clone(),
                }) as Box<dyn AccessStream + Send>
            })
            .collect()
    }

    /// Timed per-node predictors, or `None` for algorithms without one.
    pub fn predictors(&self, spec: &SimSpec) -> Option<Vec<Box<dyn SupplierPredictor + Send>>> {
        if spec.predictor == PredictorSpec::None {
            return None;
        }
        Some(
            (0..spec.machine.nodes as u64)
                .map(|node| {
                    Box::new(TimedPredictor {
                        inner: spec.predictor.build(),
                        predict: Sampled::with_phase(node),
                        positives: 0,
                        train: Sampled::with_phase(node),
                        sink: self.sink.clone(),
                    }) as Box<dyn SupplierPredictor + Send>
                })
                .collect(),
        )
    }

    pub fn probe(&self) -> Box<dyn Probe> {
        Box::new(TimingProbe {
            data: TraceData::new(),
            pending: None,
            sink: self.sink.clone(),
        })
    }
}

struct TimedStream {
    inner: Box<dyn AccessStream + Send>,
    timing: Sampled,
    sink: Sink,
}

impl AccessStream for TimedStream {
    fn next_access(&mut self) -> Option<MemAccess> {
        let inner = &mut self.inner;
        self.timing.time(|| inner.next_access())
    }
}

impl Snapshot for TimedStream {
    fn save_into(&self, w: &mut SnapWriter) {
        self.inner.save_into(w);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_from(r)
    }
}

impl Drop for TimedStream {
    fn drop(&mut self) {
        if let Ok(mut d) = self.sink.lock() {
            d.stream.add(&self.timing);
        }
    }
}

#[derive(Debug)]
struct TimedPredictor {
    inner: Box<dyn SupplierPredictor + Send>,
    predict: Sampled,
    positives: u64,
    train: Sampled,
    sink: Sink,
}

impl SupplierPredictor for TimedPredictor {
    fn predict(&mut self, line: LineAddr) -> bool {
        let inner = &mut self.inner;
        let positive = self.predict.time(|| inner.predict(line));
        self.positives += u64::from(positive);
        positive
    }

    fn supplier_gained(&mut self, line: LineAddr) -> Option<LineAddr> {
        let inner = &mut self.inner;
        self.train.time(|| inner.supplier_gained(line))
    }

    fn supplier_lost(&mut self, line: LineAddr) {
        let inner = &mut self.inner;
        self.train.time(|| inner.supplier_lost(line))
    }

    fn feedback(&mut self, line: LineAddr, was_supplier: bool) {
        let inner = &mut self.inner;
        self.train.time(|| inner.feedback(line, was_supplier))
    }

    fn counters(&self) -> PredictorCounters {
        self.inner.counters()
    }

    fn storage_bits(&self) -> usize {
        self.inner.storage_bits()
    }

    fn injected_faults(&self) -> u64 {
        self.inner.injected_faults()
    }
}

impl Snapshot for TimedPredictor {
    fn save_into(&self, w: &mut SnapWriter) {
        self.inner.save_into(w);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_from(r)
    }
}

impl Drop for TimedPredictor {
    fn drop(&mut self) {
        if let Ok(mut d) = self.sink.lock() {
            d.predict.add(&self.predict);
            d.train.add(&self.train);
            d.positives += self.positives;
        }
    }
}

struct TimingProbe {
    data: TraceData,
    /// When the last sampled event's hook ran.
    pending: Option<Instant>,
    sink: Sink,
}

impl Probe for TimingProbe {
    fn snoop_action(&mut self, action: SnoopAction) {
        let i = match action {
            SnoopAction::Forward => 0,
            SnoopAction::ForwardThenSnoop => 1,
            SnoopAction::SnoopThenForward => 2,
        };
        self.data.actions[i] += 1;
    }

    fn ring_hop(&mut self, latency: Cycles) {
        self.data.hops.record(latency);
    }

    fn bridge_hop(&mut self, latency: Cycles) {
        self.data.bridge_hops.record(latency);
    }

    fn event_dispatched(&mut self, queue_depth: usize) {
        if let Some(t) = self.pending.take() {
            let gap = t.elapsed().as_nanos().min(u32::MAX as u128) as u32;
            self.data.event_gaps.push(gap);
        }
        let d = &mut self.data;
        d.events += 1;
        d.depth_sum += queue_depth as u64;
        d.depth_max = d.depth_max.max(queue_depth);
        if d.events.is_multiple_of(SAMPLE) {
            self.pending = Some(Instant::now());
        }
    }

    fn retry_issued(&mut self, _attempt: u32) {
        self.data.retries += 1;
    }

    fn spurious_retry(&mut self) {
        self.data.spurious_retries += 1;
    }

    fn locality_lookup(&mut self, _local: bool) {
        self.data.locality_lookups += 1;
    }

    fn escalation(&mut self) {
        self.data.escalations += 1;
    }

    fn footprint(&mut self, bytes_per_node: u64, _total_bytes: u64, _peak_rss_bytes: u64) {
        self.data.bytes_per_node = bytes_per_node;
    }
}

impl Drop for TimingProbe {
    fn drop(&mut self) {
        let Ok(mut d) = self.sink.lock() else {
            return;
        };
        let p = &self.data;
        d.events += p.events;
        d.depth_sum += p.depth_sum;
        d.depth_max = d.depth_max.max(p.depth_max);
        d.event_gaps.extend_from_slice(&p.event_gaps);
        d.hops.add(&p.hops);
        d.bridge_hops.add(&p.bridge_hops);
        for (a, b) in d.actions.iter_mut().zip(p.actions) {
            *a += b;
        }
        d.retries += p.retries;
        d.spurious_retries += p.spurious_retries;
        d.locality_lookups += p.locality_lookups;
        d.escalations += p.escalations;
        d.bytes_per_node = d.bytes_per_node.max(p.bytes_per_node);
    }
}

/// Host ns one `Instant::now()` + `elapsed()` pair adds to a timed span.
fn clock_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    let mut sum = 0u128;
    for _ in 0..N {
        sum += black_box(Instant::now()).elapsed().as_nanos();
    }
    black_box(sum);
    t.elapsed().as_nanos() as f64 / f64::from(N) / 2.0
}

/// A payload the size of the simulator's ring-arrival event.
type EventPayload = [u64; (size_of::<RingMsg>() + size_of::<CmpId>()).div_ceil(8)];

/// ns per `schedule_at` + `pop` pair on the default scheduler held at
/// `depth` pending events, with delays drawn from `delays`.
fn engine_replay(depth: usize, delays: &[u64]) -> f64 {
    let mut sched: Scheduler<EventPayload> = Scheduler::new();
    let payload = [0u64; size_of::<EventPayload>() / 8];
    for i in 0..depth.max(1) {
        sched.schedule_at(Cycle::new(delays[i % delays.len()]), payload);
    }
    let t = Instant::now();
    for i in 0..REPLAY_OPS {
        let (now, ev) = sched.pop().expect("the replay queue never drains");
        let at = now + Cycles(delays[i as usize % delays.len()]);
        sched.schedule_at(at, black_box(ev));
    }
    t.elapsed().as_nanos() as f64 / REPLAY_OPS as f64
}

/// The delay mix for the engine replay: hop latencies at evenly spaced
/// quantiles (most simulator events are ring arrivals one hop out).
fn delay_mix(hops: &LatencyCounts) -> Vec<u64> {
    if hops.count() == 0 {
        return vec![1];
    }
    (0..64)
        .map(|q| hops.percentile((f64::from(q) + 0.5) / 64.0).max(1))
        .collect()
}

/// ns per `RingNetwork::send_hop_outcome` on the workload's ring, with
/// its fault plan armed: eight messages circulating from evenly spaced
/// nodes, as the workloads' requesters do.
fn net_replay(machine: &MachineConfig, plan: Option<&FaultPlan>) -> f64 {
    let mut net = RingNetwork::new(RingConfig {
        nodes: machine.nodes,
        rings: machine.ring.rings,
        hop_latency: machine.ring.hop_latency,
        link_service: machine.ring.link_service,
        hier: machine.ring.hier,
    });
    if let Some(plan) = plan {
        net.set_fault_plan(plan.clone());
    }
    let cursors = machine.nodes.min(8);
    let mut at: Vec<(CmpId, Cycle)> = (0..cursors)
        .map(|i| (CmpId(i * machine.nodes / cursors), Cycle::ZERO))
        .collect();
    let t = Instant::now();
    for i in 0..REPLAY_OPS as usize {
        let (node, now) = at[i % cursors];
        let ring = i % machine.ring.rings;
        let out = black_box(net.send_hop_outcome(ring, node, now));
        at[i % cursors] = (net.next_node(node), out.arrival.unwrap_or(now));
    }
    t.elapsed().as_nanos() as f64 / REPLAY_OPS as f64
}

/// ns per `CmpCaches::snoop` and per `CmpCaches::local_lookup` on the
/// workload's cache geometry, with caches full and about half the probed
/// lines resident.
fn mem_replay(machine: &MachineConfig) -> (f64, f64) {
    let c = &machine.caches;
    let l1 = CacheGeometry::from_capacity(c.l1_bytes, c.l1_ways, c.line_bytes);
    let l2 = CacheGeometry::from_capacity(c.l2_bytes, c.l2_ways, c.line_bytes);
    let nodes = machine.nodes.min(MEM_REPLAY_NODES);
    let cores = machine.cores_per_cmp;
    let pool = (2 * l2.sets * l2.ways * cores) as u64;
    let mut rng = SplitMix64::new(0x5EED);
    let mut cmps: Vec<CmpCaches> = (0..nodes).map(|_| CmpCaches::new(cores, l1, l2)).collect();
    for cmp in &mut cmps {
        for core in 0..cores {
            for _ in 0..l2.sets * l2.ways {
                let state = if rng.chance(0.25) {
                    CoherState::Sg
                } else {
                    CoherState::S
                };
                cmp.fill(core, LineAddr(rng.next_below(pool)), state);
            }
        }
    }
    let probes: Vec<(usize, usize, LineAddr)> = (0..REPLAY_OPS)
        .map(|_| {
            (
                rng.next_below(nodes as u64) as usize,
                rng.next_below(cores as u64) as usize,
                LineAddr(rng.next_below(pool)),
            )
        })
        .collect();
    let t = Instant::now();
    for &(node, _, line) in &probes {
        black_box(cmps[node].snoop(line));
    }
    let snoop_ns = t.elapsed().as_nanos() as f64 / REPLAY_OPS as f64;
    let t = Instant::now();
    for &(node, core, line) in &probes {
        black_box(cmps[node].local_lookup(core, line));
    }
    let lookup_ns = t.elapsed().as_nanos() as f64 / REPLAY_OPS as f64;
    (snoop_ns, lookup_ns)
}

/// Runs the traced measurement of one workload: an untraced reference
/// pass, a traced pass, a pass with the oracle flipped, and the layer
/// replays. Fills `report` with every per-layer metric.
pub fn traced_run(specs: &[SimSpec], report: &mut Report) {
    let plain = Pass::run(specs, Options::default(), None);
    let tracer = Tracer::new();
    let traced = Pass::run(specs, Options::default(), Some(&tracer));
    let flipped = Pass::run(
        specs,
        Options {
            flip_oracle: true,
            ..Options::default()
        },
        None,
    );
    for pass in [&plain, &traced, &flipped] {
        report.record_pass(pass);
    }
    for (name, pass) in [("traced", &traced), ("oracle-flipped", &flipped)] {
        if pass.digest() != plain.digest() {
            report.fail(format!(
                "{name} pass changed RunStats (digest differs from the plain pass)"
            ));
        }
    }
    report.digest = Some(plain.digest());

    let mut d = std::mem::replace(&mut *lock(&tracer.sink), TraceData::new());
    let clock_ns = clock_overhead_ns();

    // The replays run on the first simulation's machine; every
    // simulation of a workload shares its machine shape.
    let first = &specs[0];
    let depth = ratio(d.depth_sum as f64, d.events as f64).round() as usize;
    let push_pop_ns = engine_replay(depth, &delay_mix(&d.hops));
    let hop_ns = net_replay(&first.machine, first.fault_plan.as_ref());
    let (snoop_ns, lookup_ns) = mem_replay(&first.machine);

    let stats: Vec<_> = traced.stats().collect();
    let sum = |f: &dyn Fn(&flexsnoop::RunStats) -> u64| -> u64 { stats.iter().map(|s| f(s)).sum() };
    let events = sum(&|s| s.events);
    let read_txns = sum(&|s| s.read_txns);
    let txns = read_txns + sum(&|s| s.write_txns);
    let snoops = sum(&|s| s.read_snoops + s.write_snoops);
    let collisions = sum(&|s| s.collisions);
    let retries = sum(&|s| s.robustness.retries);
    let accuracy_hits = sum(&|s| s.accuracy.true_positives + s.accuracy.true_negatives);
    let accuracy_total = sum(&|s| s.accuracy.total());
    let cache_supplied = sum(&|s| s.reads_cache_supplied);
    // Every retired access looks up its own CMP's caches first.
    let retired: u64 = specs.iter().map(SimSpec::expected_accesses).sum();
    let ring_hops = d.hops.count();
    let bridge_hops = d.bridge_hops.count();

    let next_access_ns = d.stream.mean_ns(clock_ns);
    let predict_ns = d.predict.mean_ns(clock_ns);
    let train_ns = d.train.mean_ns(clock_ns);
    let wall_ns = traced.run_s() * 1e9;
    let layer_ns = [
        ("workload", d.stream.calls as f64 * next_access_ns),
        ("engine", events as f64 * push_pop_ns),
        ("net", (ring_hops + bridge_hops) as f64 * hop_ns),
        ("mem", snoops as f64 * snoop_ns + retired as f64 * lookup_ns),
        (
            "predictor",
            d.predict.calls as f64 * predict_ns + d.train.calls as f64 * train_ns,
        ),
    ];

    d.event_gaps.sort_unstable();
    let gaps = &d.event_gaps;
    let gap_at = |p: f64| -> f64 {
        if gaps.is_empty() {
            0.0
        } else {
            let i = ((p * gaps.len() as f64).ceil() as usize).clamp(1, gaps.len()) - 1;
            f64::from(gaps[i]) - clock_ns
        }
    };
    let gap_mean = ratio(gaps.iter().map(|&g| f64::from(g)).sum(), gaps.len() as f64) - clock_ns;
    let layers_per_event = ratio(layer_ns.iter().map(|(_, ns)| ns).sum(), events as f64);
    let residual = gap_mean - layers_per_event;
    if residual < 0.0 {
        report.note(format!(
            "FLAG core.residual_ns_per_event is negative ({residual:.1} ns): the layer replays \
             over-estimate at least one layer's cost on this workload"
        ));
    }

    let m =
        |name: &str, value: f64, unit: &str, better: &str| Metric::new(name, value, unit, better);
    let mut metrics = vec![
        m("workload.accesses", d.stream.calls as f64, "count", "lower"),
        m("workload.next_access_ns", next_access_ns, "ns", "lower"),
        m("workload.gen_s", traced.gen_s(), "s", "lower"),
        m("engine.events", events as f64, "count", "lower"),
        m(
            "engine.queue_depth_max",
            d.depth_max as f64,
            "count",
            "lower",
        ),
        m("engine.push_pop_ns", push_pop_ns, "ns", "lower"),
        m("net.ring_hops", ring_hops as f64, "count", "lower"),
        m("net.bridge_hops", bridge_hops as f64, "count", "lower"),
        m(
            "net.hop_latency_cycles_p50",
            d.hops.percentile(0.5) as f64,
            "cycles",
            "lower",
        ),
        m(
            "net.hop_latency_cycles_p99",
            d.hops.percentile(0.99) as f64,
            "cycles",
            "lower",
        ),
        m(
            "net.bridge_hop_latency_cycles_p99",
            d.bridge_hops.percentile(0.99) as f64,
            "cycles",
            "lower",
        ),
        m("net.hop_ns", hop_ns, "ns", "lower"),
        m("mem.snoops", snoops as f64, "count", "lower"),
        m("mem.snoop_ns", snoop_ns, "ns", "lower"),
        m("mem.lookup_ns", lookup_ns, "ns", "lower"),
        m(
            "mem.cache_supplied_frac",
            ratio(cache_supplied as f64, read_txns as f64),
            "frac",
            "higher",
        ),
        m(
            "predictor.lookups",
            d.predict.calls as f64,
            "count",
            "lower",
        ),
        m("predictor.trains", d.train.calls as f64, "count", "lower"),
        m(
            "predictor.positive_frac",
            ratio(d.positives as f64, d.predict.calls as f64),
            "frac",
            "lower",
        ),
        m(
            "predictor.accuracy",
            ratio(accuracy_hits as f64, accuracy_total as f64),
            "frac",
            "higher",
        ),
        m("predictor.predict_ns", predict_ns, "ns", "lower"),
        m("predictor.train_ns", train_ns, "ns", "lower"),
        m(
            "predictor.escalation_frac",
            ratio(d.escalations as f64, d.locality_lookups as f64),
            "frac",
            "lower",
        ),
        m("core.ns_per_event_p50", gap_at(0.5), "ns", "lower"),
        m("core.ns_per_event_p99", gap_at(0.99), "ns", "lower"),
        m("core.residual_ns_per_event", residual, "ns", "lower"),
        m(
            "core.actions.forward",
            d.actions[0] as f64,
            "count",
            "lower",
        ),
        m(
            "core.actions.forward_then_snoop",
            d.actions[1] as f64,
            "count",
            "lower",
        ),
        m(
            "core.actions.snoop_then_forward",
            d.actions[2] as f64,
            "count",
            "lower",
        ),
        m("core.collisions", collisions as f64, "count", "lower"),
        m("core.retries", retries as f64, "count", "lower"),
        m(
            "core.retry_frac",
            ratio(retries as f64, txns as f64),
            "frac",
            "lower",
        ),
        m(
            "core.spurious_retry_frac",
            ratio(d.spurious_retries as f64, d.retries as f64),
            "frac",
            "lower",
        ),
        m(
            "core.oracle_s",
            oracle_cost_s(specs, &plain, &flipped),
            "s",
            "lower",
        ),
        m("core.setup_s", plain.setup_s(), "s", "lower"),
        m("core.bytes_per_node", d.bytes_per_node as f64, "B", "lower"),
    ];
    for (layer, ns) in layer_ns {
        metrics.push(m(
            &format!("{layer}.share"),
            ratio(ns, wall_ns),
            "frac",
            "lower",
        ));
    }
    metrics.push(m(
        "trace.overhead_frac",
        ratio(traced.run_s(), plain.run_s()) - 1.0,
        "frac",
        "lower",
    ));
    metrics.push(m(
        "trace.coverage",
        ratio(gap_mean * events as f64, wall_ns),
        "frac",
        "higher",
    ));
    report.metrics = metrics;
}

/// Run time with the oracle on minus run time with it off.
fn oracle_cost_s(specs: &[SimSpec], plain: &Pass, flipped: &Pass) -> f64 {
    let (on, off) = if specs[0].oracle {
        (plain, flipped)
    } else {
        (flipped, plain)
    };
    on.run_s() - off.run_s()
}
