//! Determinism cross-check for the sweep service's results cache.
//!
//! The cache's soundness rests on one claim: the bytes it stores for a
//! [`JobKey`](flexsnoop_serve::JobKey) are a pure function of the key.
//! This module attacks the claim from three directions and fails loudly
//! on the first divergence:
//!
//! 1. **Executor width** — the same sweep run through services of
//!    different worker counts must produce byte-identical results (the
//!    scheduler must not leak concurrency into the simulation).
//! 2. **Cache vs. recomputation** — a warm resubmission must return the
//!    stored bytes with zero new executions, and those bytes must equal
//!    a direct, service-free recomputation.
//! 3. **Queue backend** — the direct recomputation is repeated under
//!    both event-queue backends ([`QueueKind::Heap`] and
//!    [`QueueKind::Bucketed`]); the configuration fingerprint excludes
//!    the backend, so the cache is only sound if results do not depend
//!    on it.
//!
//! `flexsnoop serve --self-check` runs [`self_check`]; CI runs it in the
//! `serve` job.

use std::sync::Arc;

use flexsnoop_engine::QueueKind;
use flexsnoop_serve::{JobOutput, ResultsCache, ServiceOptions, SweepRequest, SweepService};

/// Sealed result bytes, one entry per job in submission order.
type SealedResults = Vec<Arc<Vec<u8>>>;

/// Runs one sweep through a fresh service and returns each job's sealed
/// result bytes in submission order.
///
/// # Errors
///
/// Propagates submission failures and job errors.
fn run_through_service(
    request: &SweepRequest,
    threads: usize,
) -> Result<(SweepService, SealedResults), String> {
    let service = SweepService::new(ServiceOptions { threads }, ResultsCache::in_memory());
    let bytes = collect_bytes(&service, request)?;
    Ok((service, bytes))
}

fn collect_bytes(service: &SweepService, request: &SweepRequest) -> Result<SealedResults, String> {
    service
        .submit(request)?
        .collect()
        .results
        .into_iter()
        .map(|r| r.map(|job| job.bytes))
        .collect()
}

/// Recomputes one job without the service, under the given queue
/// backend, and returns the sealed bytes it would cache.
///
/// # Errors
///
/// Propagates build errors.
fn recompute(spec: &flexsnoop_serve::JobSpec, backend: QueueKind) -> Result<Vec<u8>, String> {
    let mut sim = spec.build()?;
    sim.use_event_queue(backend);
    sim.run_until(None);
    let stats = sim.finalize();
    let probe = sim.probe_report();
    sim.validate_coherence()?;
    Ok(JobOutput { stats, probe }.encode())
}

/// Cross-checks `request` across executor widths, a warm cache pass,
/// and direct recomputation under both queue backends. Returns a
/// human-readable summary on success.
///
/// # Errors
///
/// Returns a description of the first divergence found.
pub fn check_request(request: &SweepRequest, widths: &[usize]) -> Result<String, String> {
    let specs = request.expand();
    if specs.is_empty() {
        return Err("self-check request expands to zero jobs".to_string());
    }
    let (first_width, rest) = widths.split_first().ok_or("need at least one width")?;
    let (service, baseline) = run_through_service(request, *first_width)?;
    for &width in rest {
        let (_, other) = run_through_service(request, width)?;
        for (i, (a, b)) in baseline.iter().zip(&other).enumerate() {
            if a != b {
                return Err(format!(
                    "job {i}: results differ between {first_width}-wide and {width}-wide executors"
                ));
            }
        }
    }
    // Warm pass: zero new executions, identical bytes.
    let executed_before = service.stats().executed;
    let warm = collect_bytes(&service, request)?;
    let stats = service.stats();
    if stats.executed != executed_before {
        return Err(format!(
            "warm resubmission re-ran {} jobs instead of hitting the cache",
            stats.executed - executed_before
        ));
    }
    for (i, (a, b)) in baseline.iter().zip(&warm).enumerate() {
        if a != b {
            return Err(format!("job {i}: cached bytes differ from the cold run"));
        }
    }
    // Cache vs. direct recomputation under both backends.
    for (i, (spec, cached)) in specs.iter().zip(&baseline).enumerate() {
        for backend in [QueueKind::Heap, QueueKind::Bucketed] {
            let direct = recompute(spec, backend)?;
            if direct != **cached {
                return Err(format!(
                    "job {i} ({} × {} seed {}): cached result differs from direct \
                     recomputation under {backend:?}",
                    spec.workload, spec.algorithm, spec.seed
                ));
            }
        }
    }
    Ok(format!(
        "cache determinism: {} jobs × {} widths, warm pass {} hits / 0 re-runs, \
         direct recomputation matched under Heap and Bucketed backends\n",
        specs.len(),
        widths.len(),
        stats.cache.hits,
    ))
}

/// The standing self-check `flexsnoop serve --self-check` runs: a small
/// paper sweep (two workloads × two Table 3 algorithms) crossed over
/// 1-wide and `threads`-wide executors.
///
/// # Errors
///
/// Returns the first divergence found.
pub fn self_check(threads: usize) -> Result<String, String> {
    let request = SweepRequest {
        workloads: vec!["specjbb".to_string(), "specweb".to_string()],
        algorithms: vec!["superset-agg".to_string(), "exact".to_string()],
        seeds: vec![20_060_617],
        accesses: 120,
        ..SweepRequest::default()
    };
    let wide = if threads == 0 { 4 } else { threads.max(2) };
    check_request(&request, &[1, wide])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_check_passes() {
        let summary = self_check(2).unwrap();
        assert!(summary.contains("0 re-runs"), "{summary}");
    }

    #[test]
    fn check_rejects_empty_requests() {
        let req = SweepRequest::default(); // no workloads/algorithms
        assert!(check_request(&req, &[1]).is_err());
    }
}
