//! Round-path benchmark: one large Hadar simulation, serial vs parallel.
//!
//! Two configurations run the *same* simulation (identical trace, cluster,
//! and round cap) and must produce bit-identical job outcomes:
//!
//! * **serial** — one candidate-generation worker,
//! * **parallel** — auto worker count (`HADAR_ROUND_THREADS` or the machine
//!   parallelism): the default configuration, with the intra-round
//!   candidate prefetch engaged on queues of 64+ jobs.
//!
//! Results are printed and recorded in `BENCH_round.json` (override the
//! path with `HADAR_BENCH_OUT`); CI runs `--quick` and uploads the file as
//! an artifact. Usage: `cargo run --release --bin round_bench [-- --quick]`.

use std::time::Instant;

use hadar_cluster::Cluster;
use hadar_core::{HadarConfig, HadarScheduler, RoundParallelism};
use hadar_sim::{SimConfig, SimOutcome, Simulation};
use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

/// Cluster for `n` jobs, matching Fig. 7's scaling (3 GPU types ×
/// `n/32` nodes × 4 GPUs).
fn scaled_cluster(num_jobs: usize) -> Cluster {
    Cluster::scaled((num_jobs / 32).max(1))
}

struct ModeResult {
    wall_seconds: f64,
    decision_seconds: f64,
    rounds: usize,
    outcome: SimOutcome,
}

fn run_mode(num_jobs: usize, max_rounds: u64, parallelism: RoundParallelism) -> ModeResult {
    let cluster = scaled_cluster(num_jobs);
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs,
            seed: 7,
            pattern: ArrivalPattern::Static,
        },
        cluster.catalog(),
    );
    let sim_config = SimConfig {
        max_rounds,
        ..SimConfig::default()
    };
    let scheduler = HadarScheduler::new(HadarConfig {
        round_parallelism: parallelism,
        ..HadarConfig::default()
    });
    let t0 = Instant::now();
    let outcome = Simulation::new(cluster, jobs, sim_config)
        .run(scheduler)
        .expect("valid round-bench scenario");
    let wall_seconds = t0.elapsed().as_secs_f64();
    ModeResult {
        wall_seconds,
        decision_seconds: outcome.total_decision_seconds(),
        rounds: outcome.rounds.len(),
        outcome,
    }
}

/// The per-job decision trail that must be bit-identical across modes.
fn decision_trail(out: &SimOutcome) -> Vec<(Option<u64>, Option<u64>, u32, u32)> {
    out.records
        .iter()
        .map(|r| {
            (
                r.first_scheduled.map(f64::to_bits),
                r.finish.map(f64::to_bits),
                r.rounds_run,
                r.reallocations,
            )
        })
        .collect()
}

struct SizeResult {
    jobs: usize,
    rounds: usize,
    serial: ModeResult,
    parallel: ModeResult,
}

fn bench_size(num_jobs: usize, max_rounds: u64) -> SizeResult {
    let serial = run_mode(num_jobs, max_rounds, RoundParallelism::Fixed(1));
    let parallel = run_mode(num_jobs, max_rounds, RoundParallelism::Auto);
    // Both paths must be exact.
    assert_eq!(
        decision_trail(&serial.outcome),
        decision_trail(&parallel.outcome),
        "parallel candidate generation changed decisions at n={num_jobs}"
    );
    SizeResult {
        jobs: num_jobs,
        rounds: serial.rounds,
        serial,
        parallel,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // (jobs, round cap) — the cap bounds quick/CI wall time; a static trace
    // on the Fig. 7 cluster keeps hundreds of jobs queued the whole window,
    // which is exactly the hot regime the round path optimizes.
    let plan: &[(usize, u64)] = if quick {
        &[(64, 8), (128, 8)]
    } else {
        &[(256, 40), (1024, 40), (2048, 30)]
    };

    println!("Hadar round path: serial vs parallel (one simulation per cell)");
    let mut results = Vec::new();
    for &(jobs, max_rounds) in plan {
        let r = bench_size(jobs, max_rounds);
        println!(
            "  n={:>4} jobs × {} rounds: serial {:>8.2}s | parallel {:>8.2}s ({:.2}×)",
            r.jobs,
            r.rounds,
            r.serial.wall_seconds,
            r.parallel.wall_seconds,
            r.serial.wall_seconds / r.parallel.wall_seconds,
        );
        println!(
            "          decision totals: serial {:>7.2}s | parallel {:>7.2}s",
            r.serial.decision_seconds, r.parallel.decision_seconds,
        );
        results.push(r);
    }

    // cargo runs bins with cwd = the invocation dir; default to the
    // workspace root so the JSON lands next to BENCH_solver.json.
    let out_path = std::env::var("HADAR_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_round.json").into());
    let mode_json = |m: &ModeResult| {
        format!(
            "{{\"wall_seconds\": {:.4}, \"decision_seconds\": {:.4}}}",
            m.wall_seconds, m.decision_seconds,
        )
    };
    let speedups: Vec<f64> = results
        .iter()
        .map(|r| r.serial.wall_seconds / r.parallel.wall_seconds)
        .collect();
    let sizes: Vec<String> = results
        .iter()
        .zip(&speedups)
        .map(|(r, speedup)| {
            format!(
                concat!(
                    "    {{\"jobs\": {}, \"rounds\": {}, ",
                    "\"serial\": {}, \"parallel\": {}, ",
                    "\"speedup_parallel_vs_serial\": {:.2}}}"
                ),
                r.jobs,
                r.rounds,
                mode_json(&r.serial),
                mode_json(&r.parallel),
                speedup,
            )
        })
        .collect();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (lo, hi) = speedups
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let note = format!(
        "with {host_threads} host threads, parallel (the default) runs at {lo:.2}x to {hi:.2}x serial speed"
    );
    let json = format!(
        "{{\n  \"bench\": \"round\",\n  \"scheduler\": \"hadar\",\n  \"mode\": \"{}\",\n  \"host_threads\": {},\n  \"timing\": \"wall-clock per full simulation; serial = 1 worker, parallel = auto workers (the default); job outcomes asserted bit-identical across the two\",\n  \"note\": \"{}\",\n  \"sizes\": [\n{}\n  ]\n}}\n",
        if quick { "quick" } else { "full" },
        host_threads,
        note,
        sizes.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write BENCH_round.json");
    println!("wrote {out_path}");
}
