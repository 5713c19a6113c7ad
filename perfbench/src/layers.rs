//! The one place that builds the inputs of the layer functions the replay
//! calls. When a layer's input type changes, only this file follows it.

use hadar::cluster::GpuTypeId;
use hadar::core::find_alloc::AllocEnv;
use hadar::core::{AllocMode, HadarConfig, PriceState};
use hadar::sim::SchedulerContext;
use hadar::solver::GavelLpInput;

/// Hadar's candidate-generation environment for the round in `ctx`, with
/// the values `config` resolves to.
pub fn alloc_env<'a>(
    ctx: &SchedulerContext<'a>,
    prices: &'a PriceState,
    config: &'a HadarConfig,
) -> AllocEnv<'a> {
    AllocEnv {
        cluster: ctx.cluster,
        comm: ctx.comm,
        prices,
        utility: &config.utility,
        now: ctx.time,
        realloc_stall: config.expected_realloc_penalty,
        features: config.features,
        machine_factors: ctx.machine_factors,
        round_threads: config.round_parallelism.resolve(),
    }
}

/// Whether `config` selects the exact DP (rather than greedy) for a queue of
/// `queue_len` jobs.
pub fn uses_dp(config: &HadarConfig, queue_len: usize) -> bool {
    match config.alloc_mode {
        AllocMode::Dp => true,
        AllocMode::Greedy => false,
        AllocMode::Auto { dp_max_queue } => queue_len <= dp_max_queue,
    }
}

/// Gavel's max-total-throughput LP over the jobs and available capacity of
/// `ctx`, with each job's id as its warm-start key.
pub fn gavel_lp_input(ctx: &SchedulerContext<'_>) -> (GavelLpInput, Vec<u64>) {
    let types = (0..ctx.cluster.num_types()).map(|r| GpuTypeId(r as u16));
    let input = GavelLpInput {
        throughput: ctx
            .jobs
            .iter()
            .map(|s| types.clone().map(|r| s.job.profile.rate(r)).collect())
            .collect(),
        gang: ctx.jobs.iter().map(|s| s.job.gang).collect(),
        capacity: types.map(|r| ctx.capacity_of(r)).collect(),
    };
    let keys = ctx.jobs.iter().map(|s| u64::from(s.job.id.0)).collect();
    (input, keys)
}
