//! Trace-driven methodology demo (paper §5.1): record a workload's access
//! trace once, then replay the *identical* trace under different snooping
//! algorithms — "we compare the different snooping algorithms with exactly
//! the same traces".
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use flexsnoop::{Algorithm, MachineConfig, Simulator};
use flexsnoop_workload::{profiles, Trace};

fn main() -> Result<(), String> {
    // 1. Record a trace from the SPECjbb generator.
    let profile = profiles::specjbb().with_accesses(4_000);
    let mut streams = profile.streams(123);
    let trace = Trace::record(&mut streams, profile.accesses_per_core);
    println!(
        "recorded trace: {} cores x {} accesses",
        trace.cores(),
        trace.core(0).len()
    );

    // 2. Round-trip through the on-disk text format.
    let text = trace.to_text();
    let parsed: Trace = text.parse().map_err(|e| format!("parse: {e}"))?;
    assert_eq!(parsed, trace, "text round trip must be lossless");
    println!("text format round trip: {} bytes", text.len());

    // 3. Replay the identical trace under each algorithm.
    let machine = MachineConfig::for_cores(parsed.cores(), 8, None)?;
    println!(
        "\n{:<12} {:>12} {:>10} {:>12}",
        "algorithm", "exec cycles", "snoops/rd", "energy [uJ]"
    );
    for alg in [Algorithm::Lazy, Algorithm::Eager, Algorithm::SupersetAgg] {
        let mut sim = Simulator::for_trace(&parsed, machine, alg, None)?;
        let s = sim.run();
        sim.validate_coherence()?;
        println!(
            "{:<12} {:>12} {:>10.2} {:>12.1}",
            alg.to_string(),
            s.exec_cycles.as_u64(),
            s.snoops_per_read(),
            s.energy_nj() / 1000.0
        );
    }
    Ok(())
}
