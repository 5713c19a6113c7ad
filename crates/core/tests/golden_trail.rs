//! Golden decision trails: Hadar's per-job decisions on fixed scenarios are
//! pinned to FNV-1a digests, so any change to the round path that alters a
//! schedule — a stale memo entry, a reordered candidate, a lost tie-break —
//! fails here even when every other test still passes.
//!
//! The scenarios perturb everything candidate generation reads: machine
//! failures (evictions shrink the usable-machine mask), stragglers,
//! preemption penalties and the noisy profiling estimator on the small
//! paper cluster (exact DP rounds), plus one Fig. 7-shaped run whose queue
//! stays far above the DP threshold (greedy rounds, with and without the
//! candidate prefetch).
//!
//! A digest may only change together with a deliberate, documented change
//! to Hadar's decisions.

use hadar_cluster::Cluster;
use hadar_core::profiler::ProfilerConfig;
use hadar_core::{HadarConfig, HadarScheduler, RoundParallelism};
use hadar_sim::{
    FailureModel, PreemptionPenalty, SimConfig, SimOutcome, Simulation, StragglerModel,
};
use hadar_workload::{generate_trace, ArrivalPattern, Job, TraceConfig};

fn trace(cluster: &Cluster, num_jobs: usize, seed: u64, pattern: ArrivalPattern) -> Vec<Job> {
    generate_trace(
        &TraceConfig {
            num_jobs,
            seed,
            pattern,
        },
        cluster.catalog(),
    )
}

fn run_small(seed: u64, pattern: ArrivalPattern, sim: SimConfig) -> SimOutcome {
    let cluster = Cluster::paper_simulation();
    let jobs = trace(&cluster, 12, seed, pattern);
    let config = HadarConfig {
        round_parallelism: RoundParallelism::Fixed(1),
        profiler: Some(ProfilerConfig {
            seed,
            ..ProfilerConfig::default()
        }),
        ..HadarConfig::default()
    };
    Simulation::new(cluster, jobs, sim)
        .run(HadarScheduler::new(config))
        .expect("valid scenario")
}

/// FNV-1a over everything decision-shaped in a run, per job and bit-exact:
/// first-scheduled and finish times, rounds run and reallocations.
fn trail_digest(out: &SimOutcome) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for r in &out.records {
        for t in [r.first_scheduled, r.finish] {
            eat(t.map_or(u64::MAX, f64::to_bits));
        }
        eat(u64::from(r.rounds_run));
        eat(u64::from(r.reallocations));
    }
    h
}

#[test]
fn decision_trails_match_golden_digests_across_fault_models() {
    const GOLDEN: [u64; 3] = [0x2f0180dd5b65c6f9, 0xb9b60c129028d109, 0xf52c50be6381d2d6];
    for (seed, &golden) in (0..3u64).zip(&GOLDEN) {
        // Failures force evictions mid-run; stragglers and the modeled
        // penalty perturb throughputs and prices round over round. Poisson
        // arrivals on odd seeds exercise the arrival/dirty path.
        let pattern = if seed % 2 == 0 {
            ArrivalPattern::Static
        } else {
            ArrivalPattern::Poisson {
                jobs_per_hour: 12.0,
            }
        };
        let sim = SimConfig {
            penalty: PreemptionPenalty::Fixed(15.0),
            straggler: Some(StragglerModel {
                seed: seed + 1,
                ..StragglerModel::default()
            }),
            failure: Some(FailureModel {
                mtbf_rounds: 30.0,
                mttr_rounds: 4.0,
                seed: seed + 2,
            }),
            // Bounded work per seed; a capped run still pins every decision
            // made up to the cap.
            max_rounds: 300,
            ..SimConfig::default()
        };
        let out = run_small(seed, pattern, sim);
        assert_eq!(
            trail_digest(&out),
            golden,
            "seed {seed}: decision trail changed"
        );
    }
}

#[test]
fn decision_trail_matches_golden_digest_under_eviction_storms() {
    // An aggressive failure process (MTBF 6 rounds) keeps evicting jobs and
    // flipping the availability mask round after round.
    let sim = SimConfig {
        failure: Some(FailureModel {
            mtbf_rounds: 6.0,
            mttr_rounds: 3.0,
            seed: 9,
        }),
        max_rounds: 250,
        ..SimConfig::default()
    };
    let out = run_small(7, ArrivalPattern::Static, sim);
    assert!(
        out.machine_failures() > 0,
        "scenario must actually inject failures"
    );
    assert_eq!(trail_digest(&out), 0xe0adfa6ffddb5e46);
}

#[test]
fn fig7_shaped_greedy_trail_matches_golden_digest() {
    // 128 static jobs on the 48-GPU scaled cluster keep the queue far above
    // both the DP threshold and the prefetch threshold for the whole
    // 25-round window; one worker and four must make the same decisions.
    const GOLDEN: u64 = 0xd5fbb4df6b695d2c;
    for threads in [1usize, 4] {
        let cluster = Cluster::scaled(4);
        let jobs = trace(&cluster, 128, 13, ArrivalPattern::Static);
        let config = HadarConfig {
            round_parallelism: RoundParallelism::Fixed(threads),
            ..HadarConfig::default()
        };
        let sim = SimConfig {
            max_rounds: 25,
            ..SimConfig::default()
        };
        let out = Simulation::new(cluster, jobs, sim)
            .run(HadarScheduler::new(config))
            .expect("valid scenario");
        assert_eq!(
            trail_digest(&out),
            GOLDEN,
            "{threads} round threads: decision trail changed"
        );
    }
}
