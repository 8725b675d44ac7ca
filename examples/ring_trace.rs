//! Walk through individual snoop transactions hop by hop — the per-request
//! view behind the paper's Figure 3 (Lazy vs Eager vs Oracle message
//! flows).
//!
//! A supplier is planted four hops downstream of the requester, then a
//! single read is traced under three algorithms:
//!
//! ```text
//! cargo run --release --example ring_trace
//! ```

use flexsnoop::{energy_model_for, Algorithm, MachineConfig, Simulator, VecStream};
use flexsnoop_engine::Cycles;
use flexsnoop_mem::LineAddr;
use flexsnoop_workload::{AccessStream, MemAccess};

fn trace_one(algorithm: Algorithm) -> Result<(), String> {
    let machine = MachineConfig::isca2006(1);
    // Core 4 (on cmp4) warms line 0x100 first, becoming the supplier; core
    // 0 then reads it, so its request travels cmp1..cmp4 on the ring.
    let mut streams: Vec<Box<dyn AccessStream + Send>> = Vec::new();
    for core in 0..machine.total_cores() {
        let accesses = match core {
            4 => vec![MemAccess::read(LineAddr(0x100), Cycles(10))],
            0 => vec![
                // Idle long enough for cmp4's fill to complete.
                MemAccess::read(LineAddr(0x8), Cycles(10)),
                MemAccess::read(LineAddr(0x100), Cycles(4_000)),
            ],
            _ => vec![],
        };
        streams.push(Box::new(VecStream::new(accesses)));
    }
    let predictor = algorithm.default_predictor();
    let mut sim = Simulator::new(
        machine,
        algorithm,
        predictor,
        energy_model_for(&predictor),
        streams,
        2,
    )?;
    sim.enable_timeline(16);
    sim.run();
    println!("==== {algorithm} ====");
    let timeline = sim.timeline().ok_or("timeline not installed")?;
    // The last recorded transaction is core 0's read of the warmed line.
    let last = timeline
        .transactions()
        .last()
        .ok_or("no transactions recorded")?;
    print!("{}", timeline.render(last));
    println!();
    Ok(())
}

fn main() -> Result<(), String> {
    println!(
        "one read request, supplier 4 hops downstream (requester cmp0,\n\
         supplier cmp4), traced per gateway event:\n"
    );
    for algorithm in [Algorithm::Lazy, Algorithm::Eager, Algorithm::Oracle] {
        trace_one(algorithm)?;
    }
    println!(
        "Lazy snoops at every hop before forwarding; Eager forwards first\n\
         and lets the reply trail; Oracle forwards silently and snoops only\n\
         at the supplier (paper Figure 3)."
    );
    Ok(())
}
