//! Structured per-round telemetry.
//!
//! A [`Telemetry`] sink travels through the engine and (via
//! [`crate::SchedulerContext`]) through every policy's round path. The
//! engine records one structured record per scheduling round — queue depth,
//! scheduling/preemption/eviction counts, allocation churn, the GPU-type
//! utilization split, failure-model state — and policies fold in their own
//! counters and gauges (Hadar price-vector stats and reuse counts, Gavel LP
//! solve and warm-start counts, Tiresias queue depths, …) through
//! [`Telemetry::incr`] and [`Telemetry::gauge`]. A round's only wall-clock
//! fields are its decision time and the policy's [`DecisionPhases`]; every
//! other field is deterministic.
//!
//! Output is twofold:
//!
//! * a JSONL stream (one JSON object per line: a `meta` header, one `round`
//!   record per round, a final `summary`), hand-rolled per DESIGN.md §8 (no
//!   serde) and validated by `hadar_metrics::telemetry`;
//! * cheap in-memory counters aggregated into a [`TelemetrySummary`] that
//!   the engine attaches to [`crate::SimOutcome`].
//!
//! **Zero-cost when disabled.** A disabled sink ([`Telemetry::disabled`],
//! which [`crate::Simulation::run`] uses) makes every method an early-return
//! no-op: no allocation, no formatting, no counter map. Telemetry is purely
//! observational either way — it never influences a scheduling decision, so
//! enabling it cannot perturb simulation outcomes, only record them.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::scheduler::DecisionPhases;

/// The JSONL schema identifier written to every `meta` record.
pub const TELEMETRY_SCHEMA: &str = "hadar.telemetry.v1";

/// Deterministic aggregate counters of one run, attached to
/// [`crate::SimOutcome`]. Empty (`default`) when the sink was disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Scheduling rounds recorded.
    pub rounds: u64,
    /// Jobs that went from holding no GPUs to holding GPUs, summed over
    /// rounds (first starts and restarts after preemption/eviction).
    pub jobs_scheduled: u64,
    /// Jobs whose allocation was taken away by a scheduling decision,
    /// summed over rounds.
    pub jobs_preempted: u64,
    /// Forced evictions caused by machine failures, summed over rounds.
    pub jobs_evicted: u64,
    /// Jobs completed, summed over rounds.
    pub jobs_completed: u64,
    /// Largest number of admitted, unfinished jobs seen at any round start.
    pub max_queue_depth: u32,
    /// Every policy-emitted key, by the name the policy used (e.g.
    /// `gavel.lp_solves`): a counter ([`Telemetry::incr`]) sums over the
    /// run, a gauge ([`Telemetry::gauge`]) keeps the last value written.
    pub policy: BTreeMap<String, f64>,
}

/// Everything the engine hands the sink about one finished round.
#[derive(Debug, Clone)]
pub struct RoundSnapshot<'a> {
    /// 1-based round number.
    pub round: u64,
    /// Round start time, seconds.
    pub time: f64,
    /// Admitted, unfinished jobs at the round start (running + waiting).
    pub queue_depth: u32,
    /// Jobs holding GPUs this round.
    pub running: u32,
    /// Jobs that went from no GPUs to holding GPUs this round.
    pub scheduled: u32,
    /// Jobs whose allocation the scheduler took away this round.
    pub preempted: u32,
    /// Jobs forcibly evicted by machine failures this round.
    pub evicted: u32,
    /// Jobs that completed this round.
    pub completed: u32,
    /// Jobs admitted this round.
    pub arrivals: u32,
    /// Jobs whose allocation changed this round.
    pub reallocations: u32,
    /// Total GPU demand (Σ gang sizes) of the queue.
    pub demand_gpus: u32,
    /// Useful-compute GPU-seconds delivered this round.
    pub busy_gpu_seconds: f64,
    /// GPU-seconds held by jobs this round.
    pub held_gpu_seconds: f64,
    /// Machines down this round.
    pub machines_down: u32,
    /// Scheduler decision wall-clock seconds (non-deterministic).
    pub decision_seconds: f64,
    /// Per-phase decision breakdown, when the policy reports one.
    pub phases: Option<DecisionPhases>,
    /// Allocated GPUs per type this round, as `(type name, count)` in
    /// catalog order.
    pub util_by_type: &'a [(String, u32)],
}

/// How a policy key folds into [`TelemetrySummary::policy`].
#[derive(Debug, Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
}

#[derive(Debug, Default)]
struct Inner {
    /// Policy counters and gauges for the current round, drained by
    /// `record_round`.
    round: BTreeMap<String, (Kind, f64)>,
    /// The JSONL stream, one record per entry.
    lines: Vec<String>,
    summary: TelemetrySummary,
}

/// The telemetry sink. See the [module docs](self) for the contract.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    inner: RefCell<Inner>,
}

impl Telemetry {
    /// A no-op sink: every method early-returns. This is what
    /// [`crate::Simulation::run`] uses.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording sink.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            inner: RefCell::default(),
        }
    }

    /// Whether the sink records anything. Policies computing something
    /// non-trivial purely for telemetry should gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Add `delta` to this round's counter `key` (created at 0). No-op when
    /// disabled. Counters drain into the round's JSONL record and are summed
    /// into [`TelemetrySummary::policy`].
    pub fn incr(&self, key: &str, delta: f64) {
        if !self.enabled {
            return;
        }
        self.inner
            .borrow_mut()
            .round
            .entry(key.to_owned())
            .or_insert((Kind::Counter, 0.0))
            .1 += delta;
    }

    /// Set this round's gauge `key` to `value` (last write wins). No-op when
    /// disabled. Gauges drain into the round's JSONL record, and
    /// [`TelemetrySummary::policy`] keeps the last value of the run.
    pub fn gauge(&self, key: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.inner
            .borrow_mut()
            .round
            .insert(key.to_owned(), (Kind::Gauge, value));
    }

    /// Write the stream's `meta` header. Called once by the engine before
    /// the first round.
    pub fn begin_run(
        &self,
        scheduler: &str,
        total_gpus: u32,
        machines: usize,
        jobs: usize,
        round_length: f64,
    ) {
        if !self.enabled {
            return;
        }
        let line = format!(
            "{{\"type\":\"meta\",\"schema\":\"{TELEMETRY_SCHEMA}\",\"scheduler\":{},\
             \"total_gpus\":{total_gpus},\"machines\":{machines},\"jobs\":{jobs},\
             \"round_length_s\":{}}}",
            json_string(scheduler),
            json_number(round_length),
        );
        self.inner.borrow_mut().lines.push(line);
    }

    /// Record one finished round: emits the `round` JSONL record (draining
    /// this round's policy counters into it) and updates the in-memory
    /// aggregates.
    pub fn record_round(&self, snap: &RoundSnapshot<'_>) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let round_counters = std::mem::take(&mut inner.round);
        for (k, &(kind, v)) in &round_counters {
            let total = inner.summary.policy.entry(k.clone()).or_insert(0.0);
            match kind {
                Kind::Counter => *total += v,
                Kind::Gauge => *total = v,
            }
        }
        let s = &mut inner.summary;
        s.rounds += 1;
        s.jobs_scheduled += u64::from(snap.scheduled);
        s.jobs_preempted += u64::from(snap.preempted);
        s.jobs_evicted += u64::from(snap.evicted);
        s.jobs_completed += u64::from(snap.completed);
        s.max_queue_depth = s.max_queue_depth.max(snap.queue_depth);

        let mut line = format!(
            "{{\"type\":\"round\",\"round\":{},\"time_s\":{},\"queue_depth\":{},\
             \"running\":{},\"scheduled\":{},\"preempted\":{},\"evicted\":{},\
             \"completed\":{},\"arrivals\":{},\"reallocations\":{},\"demand_gpus\":{},\
             \"busy_gpu_s\":{},\"held_gpu_s\":{},\"machines_down\":{},\"decision_s\":{}",
            snap.round,
            json_number(snap.time),
            snap.queue_depth,
            snap.running,
            snap.scheduled,
            snap.preempted,
            snap.evicted,
            snap.completed,
            snap.arrivals,
            snap.reallocations,
            snap.demand_gpus,
            json_number(snap.busy_gpu_seconds),
            json_number(snap.held_gpu_seconds),
            snap.machines_down,
            json_number(snap.decision_seconds),
        );
        line.push_str(",\"util_by_type\":{");
        for (i, (name, count)) in snap.util_by_type.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{}:{count}", json_string(name)));
        }
        line.push('}');
        if let Some(p) = snap.phases {
            line.push_str(&format!(
                ",\"phases\":{{\"price_s\":{},\"candidates_s\":{},\"select_s\":{}}}",
                json_number(p.price_seconds),
                json_number(p.candidates_seconds),
                json_number(p.select_seconds),
            ));
        }
        if !round_counters.is_empty() {
            line.push_str(",\"policy\":{");
            for (i, (k, (_, v))) in round_counters.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{}:{}", json_string(k), json_number(*v)));
            }
            line.push('}');
        }
        line.push('}');
        inner.lines.push(line);
    }

    /// Write the final `summary` record. Called once by the engine after the
    /// last round.
    pub fn finish_run(&self) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let s = &inner.summary;
        let mut line = format!(
            "{{\"type\":\"summary\",\"rounds\":{},\"scheduled\":{},\"preempted\":{},\
             \"evicted\":{},\"completed\":{},\"max_queue_depth\":{}",
            s.rounds,
            s.jobs_scheduled,
            s.jobs_preempted,
            s.jobs_evicted,
            s.jobs_completed,
            s.max_queue_depth,
        );
        if !s.policy.is_empty() {
            line.push_str(",\"policy\":{");
            for (i, (k, v)) in s.policy.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{}:{}", json_string(k), json_number(*v)));
            }
            line.push('}');
        }
        line.push('}');
        inner.lines.push(line);
    }

    /// The aggregate counters so far (default/empty when disabled).
    pub fn summary(&self) -> TelemetrySummary {
        if !self.enabled {
            return TelemetrySummary::default();
        }
        self.inner.borrow().summary.clone()
    }

    /// Consume the sink, yielding the JSONL stream (`None` when disabled).
    pub fn into_stream(self) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let lines = self.inner.into_inner().lines;
        let mut out = lines.join("\n");
        out.push('\n');
        Some(out)
    }
}

/// A JSON string literal (quoted, escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: Rust's shortest-roundtrip float formatting is valid JSON
/// for every finite value; non-finite values (which JSON cannot express)
/// render as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot<'a>(util: &'a [(String, u32)]) -> RoundSnapshot<'a> {
        RoundSnapshot {
            round: 1,
            time: 0.0,
            queue_depth: 3,
            running: 2,
            scheduled: 2,
            preempted: 0,
            evicted: 1,
            completed: 0,
            arrivals: 3,
            reallocations: 2,
            demand_gpus: 8,
            busy_gpu_seconds: 1440.0,
            held_gpu_seconds: 1440.0,
            machines_down: 1,
            decision_seconds: 0.002,
            phases: None,
            util_by_type: util,
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.incr("x", 1.0);
        t.gauge("y", 2.0);
        t.begin_run("S", 4, 1, 2, 360.0);
        t.record_round(&snapshot(&[]));
        t.finish_run();
        assert_eq!(t.summary(), TelemetrySummary::default());
        assert_eq!(t.into_stream(), None);
    }

    #[test]
    fn stream_has_meta_rounds_summary() {
        let t = Telemetry::enabled();
        t.begin_run("Test", 8, 2, 3, 360.0);
        t.incr("policy.widgets", 2.0);
        t.incr("policy.widgets", 1.0);
        t.gauge("policy.depth", 5.0);
        let util = vec![("K80".to_owned(), 0), ("V100".to_owned(), 4)];
        t.record_round(&snapshot(&util));
        t.finish_run();
        let summary = t.summary();
        assert_eq!(summary.rounds, 1);
        assert_eq!(summary.jobs_scheduled, 2);
        assert_eq!(summary.jobs_evicted, 1);
        assert_eq!(summary.max_queue_depth, 3);
        assert_eq!(summary.policy["policy.widgets"], 3.0);
        assert_eq!(summary.policy["policy.depth"], 5.0);

        let stream = t.into_stream().unwrap();
        let lines: Vec<&str> = stream.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"meta\""), "{}", lines[0]);
        assert!(lines[0].contains(TELEMETRY_SCHEMA));
        assert!(lines[1].contains("\"type\":\"round\""), "{}", lines[1]);
        assert!(lines[1].contains("\"policy.widgets\":3"), "{}", lines[1]);
        assert!(lines[1].contains("\"util_by_type\":{\"K80\":0,\"V100\":4}"));
        assert!(lines[2].contains("\"type\":\"summary\""), "{}", lines[2]);
        assert!(lines[2].contains("\"evicted\":1"), "{}", lines[2]);
    }

    #[test]
    fn round_counters_drain_between_rounds() {
        let t = Telemetry::enabled();
        t.begin_run("Test", 4, 1, 1, 360.0);
        t.incr("k", 1.0);
        t.record_round(&snapshot(&[]));
        // Second round emits no counter: the record must carry no policy map.
        t.record_round(&snapshot(&[]));
        t.finish_run();
        assert_eq!(t.summary().policy["k"], 1.0);
        let stream = t.into_stream().unwrap();
        let rounds: Vec<&str> = stream
            .lines()
            .filter(|l| l.contains("\"type\":\"round\""))
            .collect();
        assert!(rounds[0].contains("\"policy\""));
        assert!(!rounds[1].contains("\"policy\""));
    }

    #[test]
    fn phases_render_when_present() {
        let t = Telemetry::enabled();
        let util: Vec<(String, u32)> = Vec::new();
        let mut snap = snapshot(&util);
        snap.phases = Some(DecisionPhases {
            price_seconds: 0.001,
            candidates_seconds: 0.002,
            select_seconds: 0.003,
        });
        t.record_round(&snap);
        let stream = t.into_stream().unwrap();
        assert!(
            stream.contains(
                "\"phases\":{\"price_s\":0.001,\"candidates_s\":0.002,\"select_s\":0.003}"
            ),
            "{stream}"
        );
    }

    #[test]
    fn gauges_keep_last_value_and_counters_sum() {
        let t = Telemetry::enabled();
        t.begin_run("Test", 4, 1, 1, 360.0);
        for (count, level) in [(2.0, 7.0), (3.0, 5.0), (4.0, 6.0)] {
            t.gauge("b.level", level);
            t.incr("a.count", count);
            t.record_round(&snapshot(&[]));
        }
        // A round that writes neither key leaves the gauge at its last value.
        t.record_round(&snapshot(&[]));
        t.finish_run();
        let summary = t.summary();
        assert_eq!(summary.policy["a.count"], 9.0);
        assert_eq!(summary.policy["b.level"], 6.0);
        let stream = t.into_stream().unwrap();
        let lines: Vec<&str> = stream.lines().collect();
        // Each round record carries one key-sorted policy object with that
        // round's values.
        assert!(
            lines[2].ends_with(",\"policy\":{\"a.count\":3,\"b.level\":5}}"),
            "{}",
            lines[2]
        );
        assert!(
            lines[5].ends_with(",\"policy\":{\"a.count\":9,\"b.level\":6}}"),
            "{}",
            lines[5]
        );
    }

    #[test]
    fn json_helpers_escape_and_null() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
        assert_eq!(json_number(360.0), "360");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
