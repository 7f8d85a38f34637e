//! Percentiles and the result line.

/// Linear-interpolated percentile `q` in `[0, 1]` of `values`; `None` when
/// there are no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// One reported metric with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run plus its operation counts.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name, value, unit, samples });
    }

    /// The median of `values`, or a failure when a metric the workload must
    /// measure has no samples.
    pub fn push_p50(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        self.push_scaled_p50(name, values, unit, 1.0);
    }

    /// The median of `values` times `scale`, as [`Outcome::push_p50`].
    pub fn push_scaled_p50(
        &mut self,
        name: &'static str,
        values: &[f64],
        unit: &'static str,
        scale: f64,
    ) {
        match median(values) {
            Some(value) => self.push(name, value * scale, unit, values.len()),
            None => self.failures.push(format!("{name}: no samples")),
        }
    }

    pub fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }

    /// Print the human table, then the one-line JSON result last.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("# {:<36} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        for failure in &self.failures {
            println!("# FAILED: {failure}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(",")
        );
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}
