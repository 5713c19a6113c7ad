//! The dual resource-price function (Eqs. 5–8) and the competitive bound
//! (Theorem 2).
//!
//! `k_h^r(γ)` is the unit price of a type-`r` GPU on server `h` when `γ` of
//! its `c_h^r` units are taken. It starts at `U_min^r` (low enough that any
//! job is admitted onto an idle server) and rises exponentially to
//! `U_max^r` (high enough that no job's per-unit utility can afford a full
//! server), which filters low-utility jobs as contention grows and yields
//! the `2α` competitive ratio with `α = max_r max(1, ln(U_max^r/U_min^r))`.

use hadar_cluster::{Cluster, GpuTypeId};
use hadar_sim::JobState;

use crate::utility::Utility;

/// Per-round pricing state: the utility bounds of Eqs. 6–7 computed over the
/// current queue, plus the horizon and scale factor they depend on.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceState {
    u_min: Vec<f64>,
    u_max: Vec<f64>,
    /// The scaling factor η of Eq. 7 (chosen so `D_0 ≤ ½·OPT`, see proof of
    /// Theorem 2).
    pub eta: f64,
    /// The horizon `T` used for the minimum-utility bound.
    pub horizon: f64,
}

/// The functional *shape* of `k_h^r(γ)` for one GPU type this round.
///
/// Candidate generation uses this to pick the cheapest machine by exact
/// comparison instead of float prices: on a [`PriceShape::Curve`] type the
/// price is strictly increasing in the fill fraction `γ/c`, so the cheapest
/// feasible machine is the one with the smallest fraction regardless of
/// what `U_min`/`U_max` are; on the other two shapes every machine of the
/// type prices identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriceShape {
    /// `U_max^r ≤ 0`: the price is 0 at any fill.
    Zero,
    /// `U_min^r ≤ 0` or `U_max^r ≤ U_min^r`: the price is the constant
    /// `U_max^r` at any fill.
    Constant,
    /// `0 < U_min^r < U_max^r`: the exponential curve of Eq. 5, strictly
    /// increasing in `γ/c`.
    Curve,
}

/// The Theorem 2 guarantee derived from a [`PriceState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompetitiveBound {
    /// `α = max_r max(1, ln(U_max^r / U_min^r))`.
    pub alpha: f64,
    /// The competitive ratio `2α`.
    pub ratio: f64,
}

impl PriceState {
    /// Compute the bounds over the queued jobs at time `now`.
    ///
    /// * `U_max^r = max_j U_j(t_j^min − a_j) / W_j` (Eq. 6) — the largest
    ///   per-unit-resource utility any queued job could extract,
    /// * `U_min^r = (1/4η) · min_j U_j(T − a_j) / (t_j^max · W_j)` (Eq. 7) —
    ///   a lower bound small enough to admit every job onto idle servers,
    /// * `η = max_j Σ_{h,r} c_h^r / (t_j^max · W_j)` (clamped ≥ 1), which is
    ///   exactly the precondition `Σ c / η ≤ t_j^max W_j` used in the proof,
    /// * `T` (the horizon) is estimated as `now` plus twice the queue's
    ///   total remaining GPU-time divided by the cluster size — a
    ///   congestion-adjusted completion horizon.
    ///
    /// `t_j^min/max` (Eq. 8) use each job's *remaining* iterations so bounds
    /// track progress. Jobs that cannot run on any catalog type are skipped.
    pub fn compute<U: Utility + ?Sized>(
        jobs: &[JobState],
        cluster: &Cluster,
        utility: &U,
        now: f64,
    ) -> Self {
        let num_types = cluster.num_types();
        let total_capacity: f64 = cluster.total_gpus() as f64;

        let runnable: Vec<&JobState> = jobs
            .iter()
            .filter(|s| s.job.worst_rate() > 0.0 && s.remaining_iters > 0.0)
            .collect();

        if runnable.is_empty() || total_capacity == 0.0 {
            return Self {
                u_min: vec![0.0; num_types],
                u_max: vec![0.0; num_types],
                eta: 1.0,
                horizon: now,
            };
        }

        // Congestion-adjusted horizon.
        let remaining_gpu_time: f64 = runnable
            .iter()
            .map(|s| s.job.gang as f64 * s.remaining_iters / s.job.best_rate())
            .sum();
        let max_tmin = runnable
            .iter()
            .map(|s| s.remaining_iters / s.job.best_rate())
            .fold(0.0, f64::max);
        let horizon = now + (2.0 * remaining_gpu_time / total_capacity).max(max_tmin) + 1.0;

        // η = max_j Σc / (t_j^max W_j), clamped ≥ 1.
        let mut eta = 1.0f64;
        for s in &runnable {
            let t_max = s.remaining_iters / s.job.worst_rate();
            if t_max > 0.0 {
                eta = eta.max(total_capacity / (t_max * s.job.gang as f64));
            }
        }

        // Per-type maxima (Eq. 6): the best per-unit utility any job could
        // extract *from that type* — i.e. evaluated at the runtime the job
        // would see running entirely on type r. Faster types therefore
        // saturate at higher prices, pushing heterogeneity-insensitive jobs
        // toward slower (cheaper) accelerators as contention grows.
        let mut u_max = vec![0.0f64; num_types];
        let mut u_min_all = f64::INFINITY;
        for s in &runnable {
            let w = s.job.gang as f64;
            let t_max = s.remaining_iters / s.job.worst_rate();
            let elapsed = (now - s.job.arrival).max(0.0);
            for (r, slot) in u_max.iter_mut().enumerate() {
                let x = s.job.profile.rate(hadar_cluster::GpuTypeId(r as u16));
                if x <= 0.0 {
                    continue;
                }
                let t_r = s.remaining_iters / (w * x);
                let val = utility.value(&s.job, elapsed + t_r, now + t_r) / w;
                *slot = slot.max(val);
            }
            // Worst case (Eq. 7 numerator): finish at the horizon.
            let worst = utility.value(&s.job, horizon - s.job.arrival, horizon) / (t_max * w);
            if worst.is_finite() {
                u_min_all = u_min_all.min(worst);
            }
        }
        let u_min_all = if u_min_all.is_finite() {
            (u_min_all / (4.0 * eta)).max(f64::MIN_POSITIVE)
        } else {
            f64::MIN_POSITIVE
        };
        // Keep U_min strictly below every type's U_max so the exponential
        // price is well-defined even on degenerate single-job queues.
        let global_max = u_max.iter().copied().fold(0.0, f64::max);
        let u_min_all = u_min_all.min(global_max / 2.0).max(0.0);

        Self {
            u_min: vec![u_min_all; num_types],
            u_max,
            eta,
            horizon,
        }
    }

    /// `U_max^r`.
    pub fn u_max(&self, r: GpuTypeId) -> f64 {
        self.u_max.get(r.index()).copied().unwrap_or(0.0)
    }

    /// `U_min^r`.
    pub fn u_min(&self, r: GpuTypeId) -> f64 {
        self.u_min.get(r.index()).copied().unwrap_or(0.0)
    }

    /// The price `k_h^r(γ)` of Eq. 5 for a server slot holding `gamma` of
    /// `capacity` type-`r` GPUs.
    ///
    /// Boundary behaviour (tested): `γ = 0 ⇒ U_min^r` and
    /// `γ = c ⇒ U_max^r`.
    pub fn price(&self, r: GpuTypeId, gamma: u32, capacity: u32) -> f64 {
        let (lo, hi) = (self.u_min(r), self.u_max(r));
        if capacity == 0 || hi <= 0.0 {
            return 0.0;
        }
        if lo <= 0.0 || hi <= lo {
            return hi;
        }
        let frac = f64::from(gamma.min(capacity)) / f64::from(capacity);
        lo * (hi / lo).powf(frac)
    }

    /// The [`PriceShape`] of type `r` this round (mirrors the branch
    /// structure of [`PriceState::price`] exactly; the `capacity == 0` branch
    /// is per-machine and handled by the caller).
    pub fn shape(&self, r: GpuTypeId) -> PriceShape {
        let (lo, hi) = (self.u_min(r), self.u_max(r));
        if hi <= 0.0 {
            PriceShape::Zero
        } else if lo <= 0.0 || hi <= lo {
            PriceShape::Constant
        } else {
            PriceShape::Curve
        }
    }

    /// The Theorem 2 bound for these prices.
    pub fn bound(&self) -> CompetitiveBound {
        let mut alpha = 1.0f64;
        for (lo, hi) in self.u_min.iter().zip(&self.u_max) {
            if *lo > 0.0 && *hi > *lo {
                alpha = alpha.max((hi / lo).ln());
            }
        }
        CompetitiveBound {
            alpha,
            ratio: 2.0 * alpha,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::JobId;
    use hadar_workload::{DlTask, Job};

    fn states(n: u32) -> (Cluster, Vec<JobState>) {
        let cluster = Cluster::paper_simulation();
        let jobs = (0..n)
            .map(|i| {
                JobState::new(Job::for_model(
                    JobId(i),
                    DlTask::ALL[i as usize % 5],
                    cluster.catalog(),
                    0.0,
                    1 + i % 4,
                    50 + 10 * u64::from(i),
                ))
            })
            .collect();
        (cluster, jobs)
    }

    #[test]
    fn price_boundaries_match_eq5() {
        let (cluster, jobs) = states(6);
        let p = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 0.0);
        let r = GpuTypeId(0);
        assert!((p.price(r, 0, 4) - p.u_min(r)).abs() < 1e-12 * p.u_min(r).max(1.0));
        assert!((p.price(r, 4, 4) - p.u_max(r)).abs() < 1e-9 * p.u_max(r).max(1.0));
    }

    #[test]
    fn price_is_monotone_in_gamma() {
        let (cluster, jobs) = states(6);
        let p = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 0.0);
        let r = GpuTypeId(1);
        let prices: Vec<f64> = (0..=4).map(|g| p.price(r, g, 4)).collect();
        assert!(
            prices.windows(2).all(|w| w[0] < w[1]),
            "prices must rise: {prices:?}"
        );
    }

    #[test]
    fn bounds_are_ordered() {
        let (cluster, jobs) = states(10);
        let p = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 0.0);
        for r in cluster.catalog().ids() {
            assert!(p.u_min(r) > 0.0);
            assert!(p.u_max(r) > p.u_min(r));
        }
        assert!(p.eta >= 1.0);
        assert!(p.horizon > 0.0);
    }

    #[test]
    fn empty_queue_prices_zero() {
        let cluster = Cluster::paper_simulation();
        let p = PriceState::compute(&[], &cluster, &EffectiveThroughput, 100.0);
        assert_eq!(p.price(GpuTypeId(0), 0, 4), 0.0);
        assert_eq!(p.bound().alpha, 1.0);
    }

    #[test]
    fn competitive_bound_is_2_alpha() {
        let (cluster, jobs) = states(8);
        let p = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 0.0);
        let b = p.bound();
        assert!(b.alpha >= 1.0);
        assert!((b.ratio - 2.0 * b.alpha).abs() < 1e-12);
    }

    #[test]
    fn horizon_moves_with_now() {
        let (cluster, jobs) = states(4);
        let p0 = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 0.0);
        let p1 = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 5_000.0);
        assert!(p1.horizon > p0.horizon);
    }

    #[test]
    fn shape_classifies_price_branches() {
        let (cluster, jobs) = states(6);
        let p = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 0.0);
        // A populated queue yields proper 0 < U_min < U_max bounds.
        assert_eq!(p.shape(GpuTypeId(0)), PriceShape::Curve);
        // Unknown type id → 0 bounds → zero price at any fill.
        assert_eq!(p.shape(GpuTypeId(42)), PriceShape::Zero);
        // Empty queue ⇒ all bounds zero.
        let empty = PriceState::compute(&[], &cluster, &EffectiveThroughput, 0.0);
        assert_eq!(empty.shape(GpuTypeId(0)), PriceShape::Zero);
        // Degenerate bounds (U_max ≤ U_min > 0) ⇒ constant price U_max.
        let degenerate = PriceState {
            u_min: vec![2.0],
            u_max: vec![2.0],
            eta: 1.0,
            horizon: 0.0,
        };
        assert_eq!(degenerate.shape(GpuTypeId(0)), PriceShape::Constant);
        assert_eq!(degenerate.price(GpuTypeId(0), 0, 4), 2.0);
        assert_eq!(degenerate.price(GpuTypeId(0), 4, 4), 2.0);
    }

    #[test]
    fn zero_capacity_type_prices_zero() {
        let (cluster, jobs) = states(4);
        let p = PriceState::compute(&jobs, &cluster, &EffectiveThroughput, 0.0);
        assert_eq!(p.price(GpuTypeId(0), 0, 0), 0.0);
        // Unknown type id → 0 bounds.
        assert_eq!(p.price(GpuTypeId(42), 1, 4), 0.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::JobId;
    use hadar_rng::{Rng, StdRng};
    use hadar_workload::{DlTask, Job};

    /// For arbitrary queues: U_min ≤ U_max per type, prices are
    /// monotone in γ, bounded by [U_min, U_max], and α ≥ 1.
    #[test]
    fn price_invariants() {
        let mut rng = StdRng::seed_from_u64(0xE5);
        for case in 0..48 {
            let cluster = Cluster::paper_simulation();
            let now = rng.gen_range_f64(0.0..1e5);
            let n = rng.gen_range_usize(1..12);
            let states: Vec<hadar_sim::JobState> = (0..n)
                .map(|i| {
                    let m = rng.gen_range_usize(0..5);
                    let gang = rng.gen_range_usize(1..9) as u32;
                    let epochs = rng.gen_range_usize(1..201) as u64;
                    let age = rng.gen_range_f64(0.0..1e5);
                    hadar_sim::JobState::new(Job::for_model(
                        JobId(i as u32),
                        DlTask::ALL[m],
                        cluster.catalog(),
                        (now - age).max(0.0),
                        gang,
                        epochs,
                    ))
                })
                .collect();
            let p = PriceState::compute(&states, &cluster, &EffectiveThroughput, now);
            assert!(p.eta >= 1.0, "case {case}");
            assert!(p.horizon >= now, "case {case}");
            let b = p.bound();
            assert!(b.alpha >= 1.0 && b.alpha.is_finite(), "case {case}");
            for r in cluster.catalog().ids() {
                let (lo, hi) = (p.u_min(r), p.u_max(r));
                assert!(lo >= 0.0 && hi >= lo, "case {case}: type {r}: {lo} > {hi}");
                let cap = 4u32;
                let mut prev = -1.0f64;
                for g in 0..=cap {
                    let k = p.price(r, g, cap);
                    assert!(k >= prev - 1e-12, "case {case}: price not monotone");
                    assert!(k >= 0.0 && k <= hi * (1.0 + 1e-9), "case {case}");
                    prev = k;
                }
                assert!(
                    (p.price(r, cap, cap) - hi).abs() <= 1e-9 * hi.max(1.0),
                    "case {case}"
                );
            }
        }
    }
}
