//! Acceptance test for the telemetry subsystem: every policy's JSONL
//! stream validates against schema `hadar.telemetry.v1`, carries that
//! policy's own counters, is deterministic outside its wall-clock fields,
//! and recording the stream never perturbs the simulated schedule (the sink
//! is purely observational).

use hadar_bench::experiments::{run_scenario_with_telemetry, SchedulerKind};
use hadar_cluster::Cluster;
use hadar_sim::{SimConfig, SimOutcome, Telemetry};
use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

const NUM_JOBS: usize = 6;

fn run(kind: SchedulerKind, telemetry: Telemetry) -> SimOutcome {
    let cluster = Cluster::paper_simulation();
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: NUM_JOBS,
            seed: 11,
            pattern: ArrivalPattern::Static,
        },
        cluster.catalog(),
    );
    run_scenario_with_telemetry(cluster, jobs, SimConfig::default(), kind, telemetry)
        .expect("valid scenario")
}

/// The five CLI-facing policies and a counter key each must emit.
const POLICY_KEYS: [(SchedulerKind, &str); 5] = [
    (SchedulerKind::Hadar, "hadar."),
    (SchedulerKind::Gavel, "gavel.lp_solves"),
    (SchedulerKind::Tiresias, "tiresias.queue_high"),
    (SchedulerKind::YarnCs, "yarn.running"),
    (SchedulerKind::Srtf, "srtf.placed_"),
];

#[test]
fn every_policy_stream_validates_against_schema() {
    for (kind, key) in POLICY_KEYS {
        let out = run(kind, Telemetry::enabled());
        let stream = out.telemetry_stream().expect("stream recorded");
        let report = hadar_metrics::validate_telemetry_jsonl(stream)
            .unwrap_or_else(|e| panic!("{}: invalid stream: {e}", kind.name()));
        assert!(report.rounds > 0, "{}", kind.name());
        assert_eq!(report.completed, NUM_JOBS as u64, "{}", kind.name());
        assert!(
            stream.contains(key),
            "{} stream missing its policy counter {key:?}",
            kind.name()
        );
        // The in-memory summary agrees with the stream's summary line.
        assert_eq!(out.telemetry.rounds, report.rounds, "{}", kind.name());
        assert_eq!(out.telemetry.jobs_completed, report.completed);
    }
}

#[test]
fn observing_sink_never_perturbs_the_schedule() {
    for kind in [
        SchedulerKind::Hadar,
        SchedulerKind::Gavel,
        SchedulerKind::Tiresias,
        SchedulerKind::YarnCs,
        SchedulerKind::Srtf,
    ] {
        let observed = run(kind, Telemetry::enabled());
        let silent = run(kind, Telemetry::disabled());
        assert!(silent.telemetry_stream().is_none());
        assert_eq!(
            observed.makespan(),
            silent.makespan(),
            "{}: makespan changed under observation",
            kind.name()
        );
        assert_eq!(observed.completed_jobs(), silent.completed_jobs());
        for (a, b) in observed.records.iter().zip(silent.records.iter()) {
            assert_eq!(a.finish, b.finish, "{}", kind.name());
            assert_eq!(a.first_scheduled, b.first_scheduled);
            assert_eq!(a.reallocations, b.reallocations);
        }
    }
}

/// A round line without its two wall-clock fields, `decision_s` and the
/// `phases` object; every other line unchanged.
fn strip_timings(line: &str) -> String {
    if !line.starts_with("{\"type\":\"round\"") {
        return line.to_owned();
    }
    let mut out = line.to_owned();
    for (key, end) in [(",\"decision_s\":", ','), (",\"phases\":{", '}')] {
        if let Some(start) = out.find(key) {
            let rest = start + key.len();
            let stop = rest + out[rest..].find(end).expect("field is terminated");
            let stop = if end == '}' { stop + 1 } else { stop };
            out.replace_range(start..stop, "");
        }
    }
    out
}

#[test]
fn same_seed_streams_match_outside_wall_clock_fields() {
    for (kind, _) in POLICY_KEYS {
        let streams: Vec<String> = (0..2)
            .map(|_| {
                let out = run(kind, Telemetry::enabled());
                let stream = out.telemetry_stream().expect("stream recorded");
                stream
                    .lines()
                    .map(strip_timings)
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect();
        assert!(
            !streams[0].contains("decision_s") && !streams[0].contains("phases"),
            "{}: wall-clock fields left after stripping",
            kind.name()
        );
        assert_eq!(streams[0], streams[1], "{}", kind.name());
    }
}
