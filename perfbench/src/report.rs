//! The run record: metrics by name with their units, provenance, and the
//! correctness tally, printed with the result object as the last line.

use std::fmt::Write as _;

use crate::stats::{valid_metric_name, Tail};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The percentile and sample count behind a tail metric.
    pub tail: Option<(f64, usize)>,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Record {
    /// `(key, value)` provenance pairs; values are JSON literals.
    pub provenance: Vec<(&'static str, String)>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Cells run.
    pub attempted: usize,
    /// Cells that failed a correctness check.
    pub failed: usize,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
}

impl Record {
    /// Add a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            tail: None,
        });
    }

    /// Add a tail metric, scaled by `scale` (e.g. seconds to ms).
    pub fn put_tail(
        &mut self,
        name: impl Into<String>,
        tail: Tail,
        scale: f64,
        unit: &'static str,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value: tail.value * scale,
            unit,
            tail: Some((tail.pct, tail.n)),
        });
    }

    /// Count one attempted cell, failed when `failure` is set.
    pub fn tally(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Failed cells ÷ cells attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Metrics whose name or value cannot be reported.
    fn malformed(&self) -> Vec<String> {
        self.metrics
            .iter()
            .filter(|m| !valid_metric_name(&m.name) || !m.value.is_finite())
            .map(|m| format!("malformed metric {} = {}", m.name, m.value))
            .collect()
    }

    /// Whether the run passed every check: at least one cell, none failed,
    /// every metric well formed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.malformed().is_empty()
    }

    /// The human-readable lines, then the result object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let tails: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                let (pct, n) = m.tail?;
                Some(format!("\"{}\": {{\"pct\": {pct}, \"n\": {n}}}", m.name))
            })
            .collect();
        let _ = writeln!(
            out,
            "provenance {{{}, \"tails\": {{{}}}}}",
            prov.join(", "),
            tails.join(", ")
        );
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            let _ = write!(out, "{:<40} {:>16} {}", m.name, fmt_value(m.value), m.unit);
            if let Some((pct, n)) = m.tail {
                let _ = write!(out, "  (p{pct}, n={n})");
            }
            out.push('\n');
        }
        for why in self.failures.iter().chain(&self.malformed()) {
            let _ = writeln!(out, "FAILED {why}");
        }
        let _ = writeln!(
            out,
            "failed_frac {} ({} of {} cells)",
            fmt_value(self.failed_frac()),
            self.failed,
            self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_value(v),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A JSON number with every digit the measurement has.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_result_object() {
        let mut r = Record::default();
        r.provenance.push(("seed", "7".into()));
        r.put("wall_s", 1.25, "s");
        r.put_tail(
            "x_tail_ms",
            Tail {
                pct: 99.0,
                value: 0.002,
                n: 1000,
            },
            1e3,
            "ms",
        );
        r.tally(None);
        let text = r.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"x_tail_ms\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        assert!(text.contains("(p99, n=1000)"));
        assert!(text.starts_with("provenance {\"seed\": 7, \"tails\": {\"x_tail_ms\""));
    }

    #[test]
    fn failures_and_bad_metrics_make_the_run_incorrect() {
        let mut r = Record::default();
        assert!(!r.correct(), "nothing attempted");
        r.tally(None);
        r.put("ok", 1.0, "s");
        assert!(r.correct());
        r.put("not a name", 1.0, "s");
        assert!(!r.correct());
        let mut r = Record::default();
        r.tally(None);
        r.put("nan_s", f64::NAN, "s");
        assert!(!r.correct());
        let mut r = Record::default();
        r.tally(None);
        r.tally(Some("boom".into()));
        assert!(!r.correct());
        assert_eq!(r.failed_frac(), 0.5);
        assert!(r.render().contains("FAILED boom"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
