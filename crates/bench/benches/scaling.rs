//! Microbenchmarks for the million-node scaling substrate: event-queue
//! push/pop throughput per `QueueKind` (unbounded, under same-cycle
//! bursts, and through the bounded run loop's `pop_before`),
//! set-associative array probes, hits and fills (a sparse and a full
//! paper L2, a full paper L1 taking hits, and a scale-machine L2 that
//! evicts on every fill), and struct-of-arrays node-state access (the
//! flat predictor bank, built and swept, and a full tiny-cache scale
//! machine).
//!
//! Macro numbers (events/sec, bytes/node at 1k/128k/1M nodes) come from
//! `flexsnoop bench --scale`; these benches isolate the data structures
//! that sweep leans on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flexsnoop::{energy_model_for, Algorithm, MachineConfig, Simulator, VecStream};
use flexsnoop_engine::{Cycle, Cycles, QueueKind, Scheduler, SplitMix64};
use flexsnoop_mem::{CacheGeometry, CoherState, SetAssocCache};
use flexsnoop_predictor::{PredictorBank, PredictorSpec};
use flexsnoop_workload::{AccessStream, LineAddr, MemAccess};

const EVENTS: u64 = 20_000;

/// Events kept pending in the push/pop bench.
const PENDING: u64 = 1_024;

/// The hold model on one [`Scheduler`]: keep `PENDING` events queued,
/// then `EVENTS` times pop the earliest and push a successor a short
/// random delay later — the simulator's own pattern, with delays of
/// ring-hop and snoop scale inside the bucketed wheel's horizon.
fn scheduler_push_pop(kind: QueueKind) -> u64 {
    let mut sched: Scheduler<u64> = Scheduler::with_queue(kind);
    let mut rng = SplitMix64::new(0xFEED);
    for i in 0..PENDING {
        sched.schedule_in(Cycles(rng.next_u64() % 256), i);
    }
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let (_, ev) = sched.pop().expect("the hold model never drains");
        sum = sum.wrapping_add(ev);
        sched.schedule_in(Cycles(1 + rng.next_u64() % 256), ev);
    }
    sum
}

/// Same-cycle events per burst in the burst bench: every core of a
/// 512-node ring issuing at once.
const BURST: u64 = 512;

/// Cycles between bursts: one wheel block.
const BURST_EVERY: Cycles = Cycles(4_096);

/// Bursts per burst-bench run.
const BURSTS: u64 = 8;

/// The hold model plus a `BURST`-event same-cycle burst every
/// `BURST_EVERY` cycles. Burst events are not re-armed; when a burst
/// starts to pop, the next one is pushed a block out, past the bucketed
/// queue's wheel. Runs until `BURSTS` bursts have started.
fn scheduler_burst(kind: QueueKind) -> u64 {
    let mut sched: Scheduler<u64> = Scheduler::with_queue(kind);
    let mut rng = SplitMix64::new(0xFEED);
    for i in 0..PENDING {
        sched.schedule_in(Cycles(rng.next_u64() % 256), i);
    }
    let burst = |sched: &mut Scheduler<u64>, at: Cycle| {
        for i in 0..BURST {
            sched.schedule_at(at, PENDING + i);
        }
    };
    let mut next = Cycle::ZERO + BURST_EVERY;
    burst(&mut sched, next);
    let mut sum = 0u64;
    let mut bursts = 0;
    while bursts < BURSTS {
        let (now, ev) = sched.pop().expect("the hold model never drains");
        sum = sum.wrapping_add(ev);
        if ev < PENDING {
            sched.schedule_in(Cycles(1 + rng.next_u64() % 256), ev);
        } else if now == next {
            bursts += 1;
            next += BURST_EVERY;
            burst(&mut sched, next);
        }
    }
    sum
}

/// Timeouts kept pending in the bounded-pop bench: about one recovery
/// timeout per in-flight transaction on a lossy 64-node hierarchy.
const TIMEOUTS: u64 = 150;

/// Simulated cycles per `pop_before` slice, as in a sliced lossy run.
const SLICE: Cycles = Cycles(150_000);

/// The hold model popped through [`Scheduler::pop_before`], the bounded
/// run loop's queue call, with `TIMEOUTS` extra events re-armed 7–9k
/// cycles out whenever one pops: the window recovery timeouts take on
/// the lossy 64-node hierarchy. They sit in the bucketed queue's heap
/// while hops churn the wheel.
fn scheduler_bounded_pop(kind: QueueKind) -> u64 {
    let mut sched: Scheduler<u64> = Scheduler::with_queue(kind);
    let mut rng = SplitMix64::new(0xFEED);
    let timeout = |rng: &mut SplitMix64| Cycles(7_000 + rng.next_u64() % 2_000);
    for i in 0..PENDING {
        sched.schedule_in(Cycles(rng.next_u64() % 256), i);
    }
    for i in PENDING..PENDING + TIMEOUTS {
        sched.schedule_in(timeout(&mut rng), i);
    }
    let mut stop = Cycle::ZERO + SLICE;
    let mut sum = 0u64;
    let mut popped = 0;
    while popped < EVENTS {
        let Some((_, ev)) = sched.pop_before(stop) else {
            stop += SLICE;
            continue;
        };
        popped += 1;
        sum = sum.wrapping_add(ev);
        let delay = if ev < PENDING {
            Cycles(1 + rng.next_u64() % 256)
        } else {
            timeout(&mut rng)
        };
        sched.schedule_in(delay, ev);
    }
    sum
}

/// An empty L2 array of `machine`'s geometry.
fn l2_array(machine: &MachineConfig) -> SetAssocCache<CoherState> {
    let c = &machine.caches;
    SetAssocCache::new(CacheGeometry::from_capacity(
        c.l2_bytes,
        c.l2_ways,
        c.line_bytes,
    ))
}

/// Lines one of the 64-node hierarchy's L2s holds at the end of a
/// perfbench run.
const SPARSE_LINES: usize = 260;

/// The paper's L2 (1,024 sets × 8 ways) filled with `SPARSE_LINES`
/// random lines, then probed `EVENTS` times, alternating resident lines
/// and misses: the snoop and oracle probes a sparse L2 serves.
fn cache_sparse_l2() -> u64 {
    let mut l2 = l2_array(&MachineConfig::isca2006(4));
    let mut rng = SplitMix64::new(0xFEED);
    let lines: Vec<LineAddr> = (0..SPARSE_LINES)
        .map(|_| LineAddr(rng.next_below(1 << 24)))
        .collect();
    for &line in &lines {
        l2.insert(line, CoherState::E);
    }
    let mut hits = 0u64;
    for i in 0..EVENTS {
        let line = if i % 2 == 0 {
            lines[i as usize / 2 % SPARSE_LINES]
        } else {
            LineAddr(rng.next_below(1 << 24))
        };
        hits += u64::from(l2.peek(line).is_some());
    }
    hits
}

/// The paper's L2 filled with twice its capacity in random lines, so
/// nearly every set is full, then probed `EVENTS` times, alternating
/// resident lines and misses: the full sets a long run leaves behind.
fn cache_full_l2() -> u64 {
    let mut l2 = l2_array(&MachineConfig::isca2006(4));
    let mut rng = SplitMix64::new(0xF11);
    let lines: Vec<LineAddr> = (0..2 * l2.geometry().entries())
        .map(|_| LineAddr(rng.next_below(1 << 24)))
        .collect();
    for &line in &lines {
        l2.insert(line, CoherState::E);
    }
    let resident: Vec<LineAddr> = l2.iter().map(|(line, _)| line).collect();
    let mut hits = 0u64;
    for i in 0..EVENTS {
        let line = if i % 2 == 0 {
            resident[rng.next_below(resident.len() as u64) as usize]
        } else {
            LineAddr(rng.next_below(1 << 24))
        };
        hits += u64::from(l2.peek(line).is_some());
    }
    hits
}

/// The paper's L1 (128 sets × 4 ways) filled with four lines a set, and
/// `EVENTS` lines drawn from those at random. Under uniform random hits a
/// line is as likely to sit at any way position, so the hits land on
/// every position.
fn full_l1() -> (SetAssocCache<()>, Vec<LineAddr>) {
    let c = &MachineConfig::isca2006(4).caches;
    let mut l1 = SetAssocCache::new(CacheGeometry::from_capacity(
        c.l1_bytes,
        c.l1_ways,
        c.line_bytes,
    ));
    let entries = l1.geometry().entries() as u64;
    for line in 0..entries {
        l1.insert(LineAddr(line), ());
    }
    let mut rng = SplitMix64::new(0x11);
    let hits = (0..EVENTS)
        .map(|_| LineAddr(rng.next_below(entries)))
        .collect();
    (l1, hits)
}

/// Hits `l1` on each of `lines`, each hit moving its way to the back of
/// its set: the demand accesses a core's own L1 serves.
fn cache_l1_hit_promote(l1: &mut SetAssocCache<()>, lines: &[LineAddr]) -> u64 {
    lines
        .iter()
        .map(|&line| u64::from(l1.get(line).is_some()))
        .sum()
}

/// The scale machine's L2 (8 sets × 4 ways) filled with `EVENTS`
/// distinct lines, so every fill past the first 32 evicts its set's LRU
/// way; every other fill first promotes a resident line of its set.
fn cache_full_set_churn() -> u64 {
    let mut l2 = l2_array(&MachineConfig::scale(1));
    let mut evictions = 0u64;
    for i in 0..EVENTS {
        if i % 2 == 0 && i >= 32 {
            l2.get(LineAddr(i - 16));
        }
        evictions += u64::from(l2.insert(LineAddr(i), CoherState::S).is_some());
    }
    evictions
}

/// A flat Subset bank of 8-entry tables (the struct-of-arrays predictor
/// layout) for `nodes` nodes.
fn subset_bank(nodes: usize) -> PredictorBank {
    PredictorSpec::Subset { entries: 8 }.build_bank(nodes)
}

/// Sweeps `lookups` predictions, and a training for every third, across
/// `bank`'s nodes.
fn bank_sweep(bank: &mut PredictorBank, lookups: u64) -> u64 {
    let nodes = bank.len();
    let mut hits = 0u64;
    for i in 0..lookups {
        let node = (i as usize * 7919) % nodes;
        let line = LineAddr(i % 64);
        if i % 3 == 0 {
            bank.supplier_gained(node, line);
        }
        hits += u64::from(bank.predict(node, line));
    }
    hits
}

/// One full tiny-cache scale-machine run: 8 requesters on a 4096-node
/// ring, exercising the sparse gateway map, residency counters and the
/// event wheel together.
fn scale_sim_run() -> u64 {
    let nodes = 4096usize;
    let accesses = 8u64;
    let machine = MachineConfig::scale(nodes);
    let streams: Vec<Box<dyn AccessStream + Send>> = (0..nodes)
        .map(|core| {
            let n = if core % (nodes / 8) == 0 { accesses } else { 0 };
            let reads = (0..n)
                .map(|k| MemAccess::read(LineAddr((core as u64 + k) % 32), Cycles(10)))
                .collect();
            Box::new(VecStream::new(reads)) as Box<dyn AccessStream + Send>
        })
        .collect();
    let spec = PredictorSpec::None;
    let mut sim = Simulator::new(
        machine,
        Algorithm::Lazy,
        spec,
        energy_model_for(&spec),
        streams,
        accesses,
    )
    .expect("scale machine configures");
    sim.run().events
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);
    for (kind, name) in [(QueueKind::Heap, "heap"), (QueueKind::Bucketed, "bucketed")] {
        group.bench_function(format!("scheduler_push_pop_{name}"), |b| {
            b.iter(|| black_box(scheduler_push_pop(kind)))
        });
        group.bench_function(format!("scheduler_burst_{name}"), |b| {
            b.iter(|| black_box(scheduler_burst(kind)))
        });
        group.bench_function(format!("scheduler_bounded_pop_{name}"), |b| {
            b.iter(|| black_box(scheduler_bounded_pop(kind)))
        });
    }
    group.bench_function("cache_sparse_l2", |b| {
        b.iter(|| black_box(cache_sparse_l2()))
    });
    group.bench_function("cache_full_l2", |b| b.iter(|| black_box(cache_full_l2())));
    group.bench_function("cache_l1_hit_promote", |b| {
        let (mut l1, lines) = full_l1();
        b.iter(|| black_box(cache_l1_hit_promote(&mut l1, &lines)))
    });
    group.bench_function("cache_full_set_churn", |b| {
        b.iter(|| black_box(cache_full_set_churn()))
    });
    group.bench_function("soa_subset_bank_100k_nodes_build", |b| {
        b.iter(|| black_box(subset_bank(100_000)))
    });
    group.bench_function("soa_subset_bank_100k_nodes_sweep", |b| {
        let mut bank = subset_bank(100_000);
        b.iter(|| black_box(bank_sweep(&mut bank, 50_000)))
    });
    group.bench_function("soa_scale_sim_4096_nodes", |b| {
        b.iter(|| black_box(scale_sim_run()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
