//! `FIND_ALLOC` (Algorithm 2, lines 22–34): the best-payoff placement for a
//! single job against the current cluster usage and prices.
//!
//! GPU types are considered in descending-throughput order (line 23); both
//! *consolidated* placements (all tasks packed into the fewest servers,
//! line 24) and *non-consolidated* ones (spread across servers, line 25) are
//! enumerated, including **mixed-type** placements — the task-level
//! heterogeneity flexibility that separates Hadar from job-level schedulers.
//! Each candidate is priced at `Σ_h Σ_r k_h^r(t) · w_{jh}^r` (line 26) with
//! the cross-server communication surcharge added for spread placements
//! (line 27); the candidate maximizing the payoff
//! `μ_j = U_j(f̂_{js} − a_j) − cost` is returned iff `μ_j > 0` (lines 28–33).
//!
//! Note on fidelity: the paper picks the minimum-*cost* candidate and then
//! checks payoff. Because different candidates imply different finish times
//! (and hence different utilities), selecting by maximum payoff implements
//! the underlying dual objective `argmax_s φ_j(s)` (Eq. 4) directly; for
//! candidates with equal estimated finish times the two rules coincide.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use hadar_cluster::{
    Cluster, CommCostModel, GpuTypeId, JobPlacement, MachineId, PlacementSlice, Usage,
};
use hadar_sim::JobState;

use crate::estimate::estimate_completion;
use crate::price::{PriceShape, PriceState};
use crate::utility::Utility;

/// Queues shorter than this never engage the parallel prefetch: thread
/// startup would cost more than the enumeration it saves.
pub(crate) const MIN_PARALLEL_QUEUE: usize = 64;

/// Ablation switches for candidate generation (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Generate mixed-GPU-type placements (the task-level flexibility that
    /// defines Hadar; off = job-level placement like Gavel).
    pub mixed_types: bool,
    /// Offer the job's current placement as a stall-free candidate
    /// (off = re-place from scratch each round).
    pub sticky: bool,
}

impl Default for Features {
    fn default() -> Self {
        Self {
            mixed_types: true,
            sticky: true,
        }
    }
}

/// Shared read-only context for allocation decisions within one round.
pub struct AllocEnv<'a> {
    /// Cluster topology.
    pub cluster: &'a Cluster,
    /// Communication cost model.
    pub comm: &'a CommCostModel,
    /// The round's dual prices.
    pub prices: &'a PriceState,
    /// The scheduling objective.
    pub utility: &'a dyn Utility,
    /// Current time.
    pub now: f64,
    /// Assumed checkpoint-restart stall when a job's placement changes.
    pub realloc_stall: f64,
    /// Candidate-generation ablation switches.
    pub features: Features,
    /// Per-machine throughput factors (may be empty ⇒ all healthy). Hadar
    /// is fault-aware: candidate rates are discounted by their hosts'
    /// factors, so placements avoid — and running jobs migrate off —
    /// straggling servers, and a factor of 0.0 (a *failed* machine, see the
    /// simulator's failure model) excludes the machine from candidate
    /// generation entirely.
    pub machine_factors: &'a [f64],
    /// Resolved worker-thread count for the candidate prefetch (1 = serial;
    /// see [`crate::RoundParallelism`]). The DP and greedy subroutines read
    /// it to decide whether to call [`CandidateCache::prefetch`], which
    /// reads it as its worker count; candidate *content* never depends on
    /// it.
    pub round_threads: usize,
}

impl AllocEnv<'_> {
    /// The throughput factor of machine `h` (1.0 when not provided, 0.0
    /// while the machine is down).
    pub fn machine_factor(&self, h: MachineId) -> f64 {
        self.machine_factors.get(h.index()).copied().unwrap_or(1.0)
    }

    /// Whether machine `h` can run tasks at all this round.
    fn machine_usable(&self, h: MachineId) -> bool {
        self.machine_factor(h) > 0.0
    }
}

/// A priced candidate placement for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The placement `w_{jh}^r`.
    pub placement: JobPlacement,
    /// Effective aggregate rate (iterations/sec) including the cross-server
    /// degradation.
    pub rate: f64,
    /// Estimated utility `U_j(f̂_j − a_j)` under this placement.
    pub utility: f64,
    /// Resource cost `Σ k_h^r w_{jh}^r`.
    pub resource_cost: f64,
    /// Communication surcharge (0 for consolidated placements).
    pub comm_cost: f64,
    /// `μ_j = utility − resource_cost − comm_cost`.
    pub payoff: f64,
    /// Whether this placement differs from the job's current one (and would
    /// therefore pay the checkpoint stall).
    pub changed: bool,
}

/// Find the best positive-payoff placement for `state`, or `None` if every
/// candidate has non-positive payoff (the job should wait this round).
pub fn find_alloc(state: &JobState, env: &AllocEnv<'_>, usage: &Usage) -> Option<Candidate> {
    find_candidates(state, env, usage).into_iter().next()
}

/// The per-round memo of [`find_candidates`] results, keyed by
/// `(job, usage fingerprint)` — Algorithm 2's "save the result … to avoid
/// recomputing the same subproblem".
///
/// Within one round the prices, queue and clock are fixed, so a job's
/// candidates depend only on the usage they are evaluated against; the DP
/// subroutine and its greedy floor walk usage sequences that frequently
/// coincide, and the parallel prefetch fills the memo from worker threads.
/// Every entry is exactly what a fresh [`find_candidates`] call returns. A
/// cache must not outlive its round: build a new one per round (prices
/// change every round and the profiler may substitute job profiles).
#[derive(Default)]
pub struct CandidateCache {
    priced: HashMap<(u32, u64), Vec<Candidate>>,
    hits: usize,
    misses: usize,
    prefetched: usize,
    gen_seconds: f64,
}

impl CandidateCache {
    /// An empty cache for one round.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidate list for `state` against `usage` (computed on first
    /// use), best payoff first.
    pub fn candidates(
        &mut self,
        state: &JobState,
        env: &AllocEnv<'_>,
        usage: &Usage,
    ) -> &[Candidate] {
        match self.priced.entry((state.job.id.0, usage.fingerprint())) {
            Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut()
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                let t0 = Instant::now();
                let cands = find_candidates(state, env, usage);
                self.gen_seconds += t0.elapsed().as_secs_f64();
                v.insert(cands)
            }
        }
    }

    /// Pre-populate the memo for `states` against one read-only usage
    /// snapshot using `env.round_threads` worker threads.
    ///
    /// Deterministic by construction: workers compute the same pure
    /// function a serial miss would, results are inserted in index order,
    /// and the admission loop that later consumes them is untouched — so
    /// output is byte-identical at any thread count. Jobs already priced at
    /// this usage are skipped.
    pub fn prefetch(&mut self, states: &[&JobState], env: &AllocEnv<'_>, usage: &Usage) {
        let threads = env.round_threads;
        if threads <= 1 {
            return;
        }
        let t0 = Instant::now();
        let fp = usage.fingerprint();
        let todo: Vec<&JobState> = states
            .iter()
            .copied()
            .filter(|s| !self.priced.contains_key(&(s.job.id.0, fp)))
            .collect();
        if todo.len() < 2 {
            return;
        }
        let priced = run_chunked(threads, &todo, |s| find_candidates(s, env, usage));
        for (s, cands) in todo.iter().zip(priced) {
            self.prefetched += 1;
            self.priced.insert((s.job.id.0, fp), cands);
        }
        self.gen_seconds += t0.elapsed().as_secs_f64();
    }

    /// The best positive-payoff candidate, as [`find_alloc`] returns it.
    pub fn best(
        &mut self,
        state: &JobState,
        env: &AllocEnv<'_>,
        usage: &Usage,
    ) -> Option<Candidate> {
        self.candidates(state, env, usage).first().cloned()
    }

    /// Queries answered from the memo (including prefetched entries).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Queries that had to run the full enumeration serially.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Entries computed ahead of demand by [`CandidateCache::prefetch`].
    pub fn prefetched(&self) -> usize {
        self.prefetched
    }

    /// Total wall-clock seconds spent generating candidates (serial misses
    /// plus prefetch batches) over the cache's lifetime.
    pub fn gen_seconds(&self) -> f64 {
        self.gen_seconds
    }
}

/// Run `f` over `items` on up to `threads` scoped worker threads (contiguous
/// chunks), returning outputs in input order. `f` must be pure — the merge
/// is by index, so scheduling cannot influence results.
fn run_chunked<T: Sync, R: Send + Default + Clone>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(threads.max(1));
    let mut out: Vec<R> = vec![R::default(); items.len()];
    let f = &f;
    std::thread::scope(|scope| {
        for (slots, chunk_items) in out.chunks_mut(chunk).zip(items.chunks(chunk)) {
            scope.spawn(move || {
                for (slot, item) in slots.iter_mut().zip(chunk_items) {
                    *slot = f(item);
                }
            });
        }
    });
    out
}

/// All distinct positive-payoff candidate placements for `state`, best
/// first. The DP subroutine branches over these so it can deliberately give
/// a job a slower (cheaper) type when that frees a fast type for a job that
/// benefits more from it.
///
/// The sticky candidate (if it still fits) comes first, then the generated
/// geometries in [`geometries`] order; the first occurrence of each distinct
/// placement with positive payoff is kept.
pub fn find_candidates(state: &JobState, env: &AllocEnv<'_>, usage: &Usage) -> Vec<Candidate> {
    let mut cands: Vec<Candidate> = Vec::new();
    let mut consider = |slices: Vec<PlacementSlice>| {
        if let Some(c) = evaluate(state, env, usage, slices) {
            if c.payoff > 0.0 && !cands.iter().any(|o| o.placement == c.placement) {
                cands.push(c);
            }
        }
    };

    // Sticky candidate: keep the current placement if it still fits (no
    // checkpoint stall, no movement).
    if env.features.sticky
        && !state.placement.is_empty()
        && fits(env.cluster, usage, &state.placement)
    {
        consider(state.placement.slices().to_vec());
    }
    for g in geometries(state, env, usage) {
        consider(g);
    }

    cands.sort_by(|a, b| b.payoff.total_cmp(&a.payoff));
    cands
}

/// The machines that can host type-`r` tasks at `usage`, most-free-first
/// (machine id breaking ties), as `(free, machine)` pairs — the single
/// ordering every per-type generator consumes, sorted once per query.
fn pool(env: &AllocEnv<'_>, usage: &Usage, r: GpuTypeId) -> Vec<(u32, MachineId)> {
    let mut by_free: Vec<(u32, MachineId)> = env
        .cluster
        .machine_ids()
        .filter(|&h| env.machine_usable(h))
        .filter_map(|h| {
            let f = usage.free(env.cluster, h, r);
            (f > 0).then_some((f, h))
        })
        .collect();
    by_free.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    by_free
}

/// The placement geometries for `state` at `usage`, in generation order:
/// per preferred type a consolidated and a spread placement, then the
/// mixed-type variants.
fn geometries(state: &JobState, env: &AllocEnv<'_>, usage: &Usage) -> Vec<Vec<PlacementSlice>> {
    let prefs: &[GpuTypeId] = state.job.profile.types_by_preference();
    let pools: Vec<Vec<(u32, MachineId)>> = prefs.iter().map(|&r| pool(env, usage, r)).collect();
    let w = state.job.gang;
    let mut geoms: Vec<Vec<PlacementSlice>> = Vec::new();
    for (&r, pool) in prefs.iter().zip(&pools) {
        geoms.extend(consolidated_homogeneous(env, usage, pool, r, w));
        geoms.extend(spread_homogeneous(pool, r, w));
    }
    if env.features.mixed_types && !prefs.is_empty() {
        geoms.extend(mixed_spread(prefs, &pools, w));
        geoms.extend(mixed_best_single_machine(state, env, usage, prefs, w));
    }
    geoms
}

/// Price and score one candidate.
fn evaluate(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    slices: Vec<PlacementSlice>,
) -> Option<Candidate> {
    let placement = JobPlacement::from_slices(slices);
    if placement.total_workers() != state.job.gang {
        return None;
    }
    let changed = placement != state.placement;
    let bottleneck = placement
        .bottleneck_rate_per_slice(|h, r| state.job.profile.rate(r) * env.machine_factor(h))?;
    if bottleneck <= 0.0 {
        return None;
    }
    let rate = bottleneck
        * state.job.gang as f64
        * env
            .comm
            .placement_factor_racked(&placement, env.cluster.racks());
    let stall = if changed { env.realloc_stall } else { 0.0 };
    let est = estimate_completion(state, rate, env.now, stall)?;
    let utility = env.utility.value(&state.job, est.jct, est.finish);
    let resource_cost = price_of(env, usage, &placement);
    let comm_cost = env.comm.comm_cost(
        placement.num_machines(),
        resource_cost,
        placement.total_workers(),
    );
    Some(Candidate {
        payoff: utility - resource_cost - comm_cost,
        placement,
        rate,
        utility,
        resource_cost,
        comm_cost,
        changed,
    })
}

/// `Σ_h Σ_r k_h^r(γ_h^r) · w_{jh}^r` at the current usage.
pub fn price_of(env: &AllocEnv<'_>, usage: &Usage, placement: &JobPlacement) -> f64 {
    placement
        .slices()
        .iter()
        .map(|s| {
            let cap = env.cluster.capacity(s.machine, s.gpu);
            let gamma = usage.get(s.machine, s.gpu);
            env.prices.price(s.gpu, gamma, cap) * s.count as f64
        })
        .sum()
}

/// Whether `placement` fits within the free capacity left by `usage`.
pub fn fits(cluster: &Cluster, usage: &Usage, placement: &JobPlacement) -> bool {
    placement
        .slices()
        .iter()
        .all(|s| usage.free(cluster, s.machine, s.gpu) >= s.count)
}

/// All `w` workers of type `r` on one machine; among feasible machines, the
/// cheapest (lowest current price — i.e. the least-loaded server).
///
/// Selected by exact comparison under the type's [`PriceShape`] rather than
/// by computed float prices: zero-priced machines (`c_h^r = 0`, or a
/// [`PriceShape::Zero`] type) rank before any positive price; on a
/// [`PriceShape::Curve`] type the price is strictly increasing in the fill
/// fraction `γ/c`, compared here by cross-multiplication; on a
/// [`PriceShape::Constant`] type every machine prices identically. Strictly
/// cheaper replaces, ties keep the earlier machine — the float argmin's
/// behaviour exactly.
fn consolidated_homogeneous(
    env: &AllocEnv<'_>,
    usage: &Usage,
    pool: &[(u32, MachineId)],
    r: GpuTypeId,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    let shape = env.prices.shape(r);
    // Cost key `(rank, γ, c)`: rank 0 ⇔ price exactly 0.0; within rank 1,
    // `a < b ⇔ γ_a·c_b < γ_b·c_a` (constant shapes use γ = 0, c = 1 so all
    // compare equal). The pool holds every usable machine with free > 0 and
    // the gang size is ≥ 1, so scanning it visits exactly the machines the
    // full cluster scan would admit; ties break on machine id explicitly
    // because the pool is not in id order.
    let mut best: Option<(u8, u64, u64, MachineId)> = None;
    for &(free, h) in pool {
        if free < w {
            continue;
        }
        let cap = env.cluster.capacity(h, r);
        let key: (u8, u64, u64) = if cap == 0 || shape == PriceShape::Zero {
            (0, 0, 1)
        } else if shape == PriceShape::Constant {
            (1, 0, 1)
        } else {
            (1, u64::from(usage.get(h, r).min(cap)), u64::from(cap))
        };
        let cheaper = match &best {
            None => true,
            Some((rank, num, den, bh)) => {
                key.0 < *rank
                    || (key.0 == *rank
                        && (key.1 * *den < *num * key.2
                            || (key.1 * *den == *num * key.2 && h < *bh)))
            }
        };
        if cheaper {
            best = Some((key.0, key.1, key.2, h));
        }
    }
    best.map(|(_, _, _, h)| {
        vec![PlacementSlice {
            machine: h,
            gpu: r,
            count: w,
        }]
    })
}

/// All `w` workers of type `r`, spread across the fewest machines
/// (most-free-first fill).
fn spread_homogeneous(
    pool: &[(u32, MachineId)],
    r: GpuTypeId,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    fill(pool.iter().map(|&(f, h)| (h, r, f)), w)
}

/// All `w` workers filled from the fastest types first, spreading over
/// machines as needed — the fully flexible task-level placement.
fn mixed_spread(
    prefs: &[GpuTypeId],
    pools: &[Vec<(u32, MachineId)>],
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    fill(
        prefs
            .iter()
            .zip(pools)
            .flat_map(|(&r, p)| p.iter().map(move |&(f, h)| (h, r, f))),
        w,
    )
}

/// All `w` workers on a single machine, mixing types (fastest first);
/// evaluated per machine, returning the feasible fill with the highest
/// bottleneck throughput (ties to lower machine id).
fn mixed_best_single_machine(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    prefs: &[GpuTypeId],
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    // Pass 1: score every machine without materializing its fill — the
    // fill is a pure function of `(machine, prefs, w)`, so only the winner's
    // needs to be built. (The previous version allocated a slice vector per
    // machine; at cluster scale that allocation churn dominated candidate
    // generation.)
    let mut best: Option<(f64, MachineId)> = None;
    for h in env.cluster.machine_ids() {
        if !env.machine_usable(h) {
            continue;
        }
        let mut remaining = w;
        let mut bottleneck = f64::INFINITY;
        for &r in prefs {
            if remaining == 0 {
                break;
            }
            let free = usage.free(env.cluster, h, r);
            let take = free.min(remaining);
            if take > 0 {
                bottleneck = bottleneck.min(state.job.profile.rate(r) * env.machine_factor(h));
                remaining -= take;
            }
        }
        if remaining == 0 && best.as_ref().is_none_or(|(b, _)| bottleneck > *b) {
            best = Some((bottleneck, h));
        }
    }
    // Pass 2: rebuild the winning machine's fill (deterministically the
    // same takes pass 1 scored).
    best.map(|(_, h)| {
        let mut remaining = w;
        let mut slices = Vec::new();
        for &r in prefs {
            if remaining == 0 {
                break;
            }
            let take = usage.free(env.cluster, h, r).min(remaining);
            if take > 0 {
                slices.push(PlacementSlice {
                    machine: h,
                    gpu: r,
                    count: take,
                });
                remaining -= take;
            }
        }
        slices
    })
}

/// Take from `(machine, type, available)` entries in order until `w` workers
/// are placed; `None` if the pool is too small.
fn fill(
    pool: impl Iterator<Item = (MachineId, GpuTypeId, u32)>,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    let mut remaining = w;
    let mut slices = Vec::new();
    for (machine, gpu, avail) in pool {
        if remaining == 0 {
            break;
        }
        let take = avail.min(remaining);
        if take > 0 {
            slices.push(PlacementSlice {
                machine,
                gpu,
                count: take,
            });
            remaining -= take;
        }
    }
    (remaining == 0).then_some(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::JobId;
    use hadar_workload::{DlTask, Job};

    fn setup(gang: u32) -> (Cluster, JobState) {
        let cluster = Cluster::motivation_toy(); // 2 V100 | 3 P100 | 1 K80
        let job = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, gang, 50);
        (cluster, JobState::new(job))
    }

    fn env<'a>(
        cluster: &'a Cluster,
        comm: &'a CommCostModel,
        prices: &'a PriceState,
        utility: &'a EffectiveThroughput,
    ) -> AllocEnv<'a> {
        AllocEnv {
            cluster,
            comm,
            prices,
            utility,
            now: 0.0,
            realloc_stall: 10.0,
            features: Features::default(),
            machine_factors: &[],
            round_threads: 1,
        }
    }

    fn prices_for(cluster: &Cluster, state: &JobState) -> PriceState {
        PriceState::compute(
            std::slice::from_ref(state),
            cluster,
            &EffectiveThroughput,
            0.0,
        )
    }

    #[test]
    fn small_gang_lands_consolidated_on_fastest_type() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("positive payoff expected");
        // Both V100s on machine 0: consolidated, fastest.
        assert!(c.placement.is_consolidated());
        assert_eq!(c.placement.gpu_types(), vec![GpuTypeId(0)]);
        assert_eq!(c.placement.total_workers(), 2);
        assert!(c.payoff > 0.0);
        assert!(c.comm_cost == 0.0);
    }

    #[test]
    fn large_gang_mixes_types_when_needed() {
        // Gang of 6 needs every GPU in the toy cluster: must mix all types.
        let (cluster, state) = setup(6);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("only mixed placement fits");
        assert_eq!(c.placement.total_workers(), 6);
        assert_eq!(c.placement.gpu_types().len(), 3);
        // Rate = bottleneck (K80 = 20 it/s) × 6 × comm factor (3 machines).
        let expect = 20.0 * 6.0 * comm.throughput_factor(3);
        assert!((c.rate - expect).abs() < 1e-9, "rate={}", c.rate);
    }

    #[test]
    fn respects_existing_usage() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let mut usage = Usage::empty(&cluster);
        // Occupy both V100s: the job must fall back to P100s.
        usage.add(MachineId(0), GpuTypeId(0), 2);
        let c = find_alloc(&state, &e, &usage).expect("P100s are free");
        assert_eq!(c.placement.gpu_types(), vec![GpuTypeId(1)]);
    }

    #[test]
    fn none_when_nothing_fits() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let mut usage = Usage::empty(&cluster);
        for h in cluster.machine_ids() {
            for r in cluster.catalog().ids() {
                usage.add(h, r, cluster.capacity(h, r));
            }
        }
        assert_eq!(find_alloc(&state, &e, &usage), None);
    }

    #[test]
    fn sticky_placement_preferred_under_equal_rates() {
        let (cluster, mut state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        // Job already sits on the V100s: keeping it avoids the 10 s stall,
        // so the sticky candidate must win and report `changed = false`.
        state.placement = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let c = find_alloc(&state, &e, &usage).unwrap();
        assert!(!c.changed);
        assert_eq!(c.placement, state.placement);
    }

    #[test]
    fn moving_pays_off_when_current_spot_is_slow() {
        let (cluster, mut state) = setup(1);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        // Currently on the K80 (20 it/s); V100 (120 it/s) is free. The gain
        // dwarfs the 10 s checkpoint stall for this 50-epoch job.
        state.placement = JobPlacement::single(MachineId(2), GpuTypeId(2), 1);
        let c = find_alloc(&state, &e, &usage).unwrap();
        assert!(c.changed);
        assert_eq!(c.placement.gpu_types(), vec![GpuTypeId(0)]);
    }

    #[test]
    fn straggler_awareness_migrates_off_slow_machine() {
        // Two 2-GPU V100 machines; the job currently runs on machine 0,
        // which is straggling at 30% speed. The stall-free sticky candidate
        // loses to moving onto the healthy machine.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        let job = hadar_workload::Job::for_model(
            hadar_cluster::JobId(0),
            hadar_workload::DlTask::ResNet18,
            cluster.catalog(),
            0.0,
            2,
            100,
        );
        let mut state = JobState::new(job);
        state.placement = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let comm = CommCostModel::default();
        let prices = PriceState::compute(
            std::slice::from_ref(&state),
            &cluster,
            &EffectiveThroughput,
            0.0,
        );
        let factors = [0.3, 1.0];
        let e = AllocEnv {
            cluster: &cluster,
            comm: &comm,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            realloc_stall: 10.0,
            features: Features::default(),
            machine_factors: &factors,
            round_threads: 1,
        };
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("healthy machine available");
        assert!(c.changed, "should migrate off the straggler");
        assert_eq!(c.placement.slices()[0].machine, MachineId(1));
        // And with the straggle gone, the sticky placement wins again.
        let e2 = AllocEnv {
            machine_factors: &[],
            ..e
        };
        let c2 = find_alloc(&state, &e2, &usage).unwrap();
        assert!(!c2.changed);
    }

    #[test]
    fn down_machine_is_never_selected() {
        // Same two-machine setup, but machine 0 is *down* (factor 0.0): the
        // sticky candidate dies and every generated candidate must live
        // entirely on machine 1. With both machines down, no candidate
        // survives at all.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        let job = hadar_workload::Job::for_model(
            hadar_cluster::JobId(0),
            hadar_workload::DlTask::ResNet18,
            cluster.catalog(),
            0.0,
            2,
            100,
        );
        let mut state = JobState::new(job);
        state.placement = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let comm = CommCostModel::default();
        let prices = PriceState::compute(
            std::slice::from_ref(&state),
            &cluster,
            &EffectiveThroughput,
            0.0,
        );
        let factors = [0.0, 1.0];
        let e = AllocEnv {
            cluster: &cluster,
            comm: &comm,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            realloc_stall: 10.0,
            features: Features::default(),
            machine_factors: &factors,
            round_threads: 1,
        };
        let usage = Usage::empty(&cluster);
        let cands = find_candidates(&state, &e, &usage);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(
                c.placement
                    .slices()
                    .iter()
                    .all(|sl| sl.machine == MachineId(1)),
                "candidate touches the dead machine: {:?}",
                c.placement
            );
        }
        let c = find_alloc(&state, &e, &usage).expect("healthy machine available");
        assert!(c.changed, "must evacuate the dead machine");
        assert_eq!(c.placement.slices()[0].machine, MachineId(1));
        // Whole cluster down ⇒ nothing schedulable.
        let all_down = [0.0, 0.0];
        let e2 = AllocEnv {
            machine_factors: &all_down,
            ..e
        };
        assert!(find_alloc(&state, &e2, &usage).is_none());
    }

    #[test]
    fn price_of_sums_per_slice() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let p = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let got = price_of(&e, &usage, &p);
        let unit = prices.price(GpuTypeId(0), 0, 2);
        assert!((got - 2.0 * unit).abs() < 1e-12);
    }

    #[test]
    fn candidate_cache_memoizes_per_state() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let mut cache = CandidateCache::new();

        let direct = find_candidates(&state, &e, &usage);
        assert_eq!(cache.candidates(&state, &e, &usage), direct.as_slice());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Same (job, usage) again: answered from the memo, same content.
        assert_eq!(cache.candidates(&state, &e, &usage), direct.as_slice());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // `best` agrees with `find_alloc`.
        assert_eq!(
            cache.best(&state, &e, &usage),
            find_alloc(&state, &e, &usage)
        );
        assert_eq!((cache.hits(), cache.misses()), (2, 1));

        // A different usage state is a distinct key.
        let mut used = usage.clone();
        used.add(MachineId(0), GpuTypeId(0), 2);
        assert_eq!(
            cache.candidates(&state, &e, &used),
            find_candidates(&state, &e, &used).as_slice()
        );
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn prefetch_is_byte_identical_to_serial() {
        let cluster = Cluster::motivation_toy();
        let models = [
            DlTask::ResNet18,
            DlTask::ResNet50,
            DlTask::Lstm,
            DlTask::ResNet18,
            DlTask::Transformer,
            DlTask::ResNet18,
        ];
        let states: Vec<JobState> = models
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                JobState::new(Job::for_model(
                    JobId(i as u32),
                    m,
                    cluster.catalog(),
                    0.0,
                    1 + (i as u32 % 3),
                    40 + 10 * i as u64,
                ))
            })
            .collect();
        let refs: Vec<&JobState> = states.iter().collect();
        let comm = CommCostModel::default();
        let prices = PriceState::compute(&states, &cluster, &EffectiveThroughput, 0.0);
        let u = EffectiveThroughput;
        let usage = Usage::empty(&cluster);

        for factors in [vec![], vec![0.3, 1.0, 1.0]] {
            let e = AllocEnv {
                cluster: &cluster,
                comm: &comm,
                prices: &prices,
                utility: &u,
                now: 0.0,
                realloc_stall: 10.0,
                features: Features::default(),
                machine_factors: &factors,
                round_threads: 4,
            };
            let mut cache = CandidateCache::new();
            cache.prefetch(&refs, &e, &usage);
            assert_eq!(cache.prefetched(), states.len());
            assert_eq!(cache.misses(), 0);
            for s in &states {
                assert_eq!(
                    cache.candidates(s, &e, &usage),
                    find_candidates(s, &e, &usage).as_slice(),
                    "prefetched candidates diverge for job {} (factors {factors:?})",
                    s.job.id
                );
            }
            assert_eq!(cache.hits(), states.len());
        }
    }

    #[test]
    fn unrunnable_job_gets_nothing() {
        let cluster = Cluster::motivation_toy();
        let profile = hadar_workload::ThroughputProfile::from_rates(vec![0.0, 0.0, 0.0]);
        let job = Job::new(JobId(0), DlTask::Lstm, 0.0, 1, 1, 10, profile);
        let state = JobState::new(job);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        assert_eq!(find_alloc(&state, &e, &Usage::empty(&cluster)), None);
    }
}
