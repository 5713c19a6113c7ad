//! Hadar scheduler configuration.

use crate::find_alloc::Features;
use crate::profiler::ProfilerConfig;
use crate::utility::UtilityKind;

/// How the dual subroutine selects the job subset each round (Algorithm 2
/// ships both "a greedy algorithm and a dynamic programming approach").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// Always use the memoized dynamic program (exact subset selection;
    /// exponential worst case — use only for small queues).
    Dp,
    /// Always use the single-pass greedy in utility-density order
    /// (`O(|Q| · H · R)` per round).
    Greedy,
    /// Dynamic program when at most `dp_max_queue` jobs are queued, greedy
    /// beyond — the default (`dp_max_queue = 9`).
    Auto {
        /// Largest queue the DP is applied to.
        dp_max_queue: usize,
    },
}

impl Default for AllocMode {
    fn default() -> Self {
        AllocMode::Auto { dp_max_queue: 9 }
    }
}

/// Worker-thread policy for intra-round candidate generation (the parallel
/// prefetch inside the dual subroutine). Whatever the setting, the output is
/// byte-identical to the serial path: workers only pre-populate the
/// candidate cache against read-only usage snapshots, and the admission loop
/// itself stays serial in deterministic order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoundParallelism {
    /// `HADAR_ROUND_THREADS` when set (≥ 1), otherwise the machine's
    /// available parallelism, capped at 16 (mirrors the sweep runner's
    /// `HADAR_THREADS` convention).
    #[default]
    Auto,
    /// Exactly `n` worker threads; `1` disables the parallel prefetch.
    Fixed(usize),
}

impl RoundParallelism {
    /// Resolve to a concrete thread count (≥ 1). `Auto` re-reads the
    /// environment on every call so tests (and long-lived processes) can
    /// retune without rebuilding schedulers.
    pub fn resolve(self) -> usize {
        match self {
            RoundParallelism::Fixed(n) => n.max(1),
            RoundParallelism::Auto => std::env::var("HADAR_ROUND_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                })
                .min(16),
        }
    }
}

/// Configuration of [`crate::HadarScheduler`].
#[derive(Debug)]
pub struct HadarConfig {
    /// The scheduling objective (default: effective throughput, the paper's
    /// special case that minimizes size-weighted average JCT).
    pub utility: UtilityKind,
    /// Dual-subroutine mode.
    pub alloc_mode: AllocMode,
    /// The checkpoint-restart stall (seconds) the scheduler *assumes* a
    /// reallocation costs when estimating finish times. Should match the
    /// simulator's [`hadar_sim::PreemptionPenalty`]; default 10 s (§IV-A).
    pub expected_realloc_penalty: f64,
    /// Optional throughput-profiling stage (Fig. 2's estimator): when set,
    /// scheduling decisions in a job's first rounds use noisy throughput
    /// estimates instead of oracle values.
    pub profiler: Option<ProfilerConfig>,
    /// Ablation switches for candidate generation (mixed-type placements,
    /// sticky placements). All on by default.
    pub features: Features,
    /// The §IV-A-5 allocation-update policy: when the active job set has
    /// not changed since the last full optimization and every job is
    /// running, renew the current placements instead of re-optimizing
    /// (default on — matches the paper's "only 30% of scheduling rounds
    /// require a change in allocation" observation).
    pub incremental: bool,
    /// Worker threads for the intra-round candidate prefetch (default:
    /// auto-detect; output is byte-identical at any setting).
    pub round_parallelism: RoundParallelism,
}

impl Default for HadarConfig {
    fn default() -> Self {
        Self {
            utility: UtilityKind::default(),
            alloc_mode: AllocMode::default(),
            expected_realloc_penalty: 10.0,
            profiler: None,
            features: Features::default(),
            incremental: true,
            round_parallelism: RoundParallelism::default(),
        }
    }
}

impl HadarConfig {
    /// Default configuration but with the given utility.
    pub fn with_utility(utility: UtilityKind) -> Self {
        Self {
            utility,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::Utility;

    #[test]
    fn defaults_match_paper_settings() {
        let c = HadarConfig::default();
        assert_eq!(c.alloc_mode, AllocMode::Auto { dp_max_queue: 9 });
        assert_eq!(c.expected_realloc_penalty, 10.0);
        assert!(c.profiler.is_none());
        assert_eq!(c.utility.name(), "effective-throughput");
        assert_eq!(c.round_parallelism, RoundParallelism::Auto);
    }

    #[test]
    fn round_parallelism_resolves_to_at_least_one() {
        assert_eq!(RoundParallelism::Fixed(0).resolve(), 1);
        assert_eq!(RoundParallelism::Fixed(5).resolve(), 5);
        assert!(RoundParallelism::Auto.resolve() >= 1);
        assert!(RoundParallelism::Auto.resolve() <= 16);
    }

    #[test]
    fn with_utility_overrides_objective() {
        let c = HadarConfig::with_utility(UtilityKind::MinMakespan(Default::default()));
        assert_eq!(c.utility.name(), "min-makespan");
        assert_eq!(c.expected_realloc_penalty, 10.0);
    }
}
