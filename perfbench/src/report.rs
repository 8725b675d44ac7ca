//! Metric bookkeeping and output: readable lines first, then the one-line
//! JSON result the benchmark contract asks for as the last line of stdout.

use crate::measure::Pass;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// How the value was formed, for the readable line only.
    pub detail: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, better: &str) -> Self {
        Metric {
            name: name.to_string(),
            // JSON has no NaN or infinity; every ratio guards its
            // denominator, so this only catches a bug.
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_string(),
            better: better.to_string(),
            detail: String::new(),
        }
    }

    pub fn with_detail(mut self, detail: String) -> Self {
        self.detail = detail;
        self
    }
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Simulations attempted and failed, over every pass.
    pub attempted: u64,
    pub failed: u64,
    /// Problems that make the run incorrect beyond failed simulations.
    pub errors: Vec<String>,
    pub notes: Vec<String>,
    pub digest: Option<u64>,
}

impl Report {
    /// Counts a pass's simulations and records each failure.
    pub fn record_pass(&mut self, pass: &Pass) {
        self.attempted += pass.sims.len() as u64;
        for failure in pass.failures() {
            self.failed += 1;
            self.errors.push(failure.to_string());
        }
    }

    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Prints the readable lines and, last, the JSON result.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("{note}");
        }
        for e in &self.errors {
            println!("FAILED {workload}: {e}");
        }
        println!(
            "metric {workload} failed_frac {} frac lower ({} of {} simulations failed)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            println!(
                "metric {workload} {} {} {} {}{}",
                m.name,
                m.value,
                m.unit,
                m.better,
                if m.detail.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", m.detail)
                }
            );
        }
        if let Some(d) = self.digest {
            println!("stats_digest {workload} {d:016x}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (which must be non-empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the exclusive method); for fewer than two values both
/// are the single value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
