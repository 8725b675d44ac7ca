//! Microbenchmarks for the million-node scaling substrate: event-queue
//! push/pop throughput per `QueueKind` (unbounded, under same-cycle
//! bursts, and through the bounded run loop's `pop_before`), and
//! struct-of-arrays node-state access (the flat predictor bank and a full
//! tiny-cache scale machine).
//!
//! Macro numbers (events/sec, bytes/node at 1k/128k/1M nodes) come from
//! `flexsnoop bench --scale`; these benches isolate the data structures
//! that sweep leans on.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flexsnoop::{energy_model_for, Algorithm, MachineConfig, Simulator, VecStream};
use flexsnoop_engine::{Cycle, Cycles, QueueKind, Scheduler, SplitMix64};
use flexsnoop_predictor::PredictorSpec;
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

/// Sweeps predictions across a 100k-node flat Subset bank (the
/// struct-of-arrays predictor layout).
fn bank_sweep(nodes: usize, lookups: u64) -> u64 {
    let mut bank = PredictorSpec::Subset { entries: 8 }.build_bank(nodes);
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
    group.bench_function("soa_subset_bank_100k_nodes", |b| {
        b.iter(|| black_box(bank_sweep(100_000, 50_000)))
    });
    group.bench_function("soa_scale_sim_4096_nodes", |b| {
        b.iter(|| black_box(scale_sim_run()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
