//! One run's result: a human-readable table on stderr and the JSON line
//! the benchmark contract parses as the last line of stdout.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output was checked and matched its reference.
    pub correct: bool,
    /// Operations attempted (requests, or simulator calls).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// The metrics the JSON line carries.
    pub metrics: Vec<Metric>,
    /// Validity figures printed to stderr only (steal, generator lateness).
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Adds a metric to the JSON line.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            better,
        });
    }

    /// Adds a stderr-only validity figure.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }

    /// Records a failed correctness check, with its reason on stderr.
    pub fn fail_check(&mut self, reason: &str) {
        eprintln!("correctness check failed: {reason}");
        self.correct = false;
    }

    /// Prints the table to stderr and the JSON line to stdout.
    pub fn print(&self, title: &str) {
        eprintln!(
            "== {title}: correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            eprintln!(
                "  {:<46} {:>16.6} {:<8} {}",
                m.name,
                m.value,
                m.unit,
                m.better.label()
            );
        }
        for (name, value, unit) in &self.notes {
            eprintln!("  {name:<46} {value:>16.6} {unit:<8} (not gated)");
        }
        println!("{}", self.to_json());
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; report them as 0 and let
                // the correctness flag carry the failure.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
