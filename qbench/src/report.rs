//! Metric collection, summary statistics, and the result line.

/// The benchmark definition, read from the root of the checkout.
const BENCHMARK_FILE: &str = "BENCHMARK.json";

/// Names of the metrics `BENCHMARK.json` lists under `key`, in its order.
fn contract_names(key: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(BENCHMARK_FILE)
        .map_err(|e| format!("reading {BENCHMARK_FILE}: {e}"))?;
    let file: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parsing {BENCHMARK_FILE}: {e}"))?;
    file.get(key)
        .and_then(|v| v.as_seq())
        .ok_or_else(|| format!("{BENCHMARK_FILE} has no {key} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("a {key} entry of {BENCHMARK_FILE} has no name"))
        })
        .collect()
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, contract ones and the workload's own
    /// named ones alike.
    pub metrics: Vec<Metric>,
    /// Correctness problems found; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report { correct: true, ..Report::default() }
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.correct = false;
        self.mismatches.push(what.into());
    }

    /// Prints every metric as a readable line, then the result object of the
    /// mode's contract metrics (`end_to_end` or `per_layer` in
    /// `BENCHMARK.json`) as the last line. Fails if one is missing.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        for m in &self.metrics {
            println!("{:<36} {:>18} {}", m.name, fmt_value(m.value), m.unit);
        }
        for m in &self.mismatches {
            println!("MISMATCH {m}");
        }
        let names = contract_names(if traced { "per_layer" } else { "end_to_end" })?;
        let mut fields = Vec::new();
        for name in &names {
            let m = self
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Geometric mean of positive values; 0 for no samples.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), 99.0);
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
