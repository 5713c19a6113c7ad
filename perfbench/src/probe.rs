//! Policy wrappers. [`Probe`] puts a stopwatch around every
//! `Scheduler::schedule` call; in a traced run it also hands each round to a
//! replay adapter, which re-runs the policy's layer functions on the same
//! `SchedulerContext` and times every call.

use std::time::Instant;

use hadar::cluster::{Allocation, JobPlacement, Usage};
use hadar::core::dp::{dp_allocation, greedy_allocation};
use hadar::core::find_alloc::find_candidates;
use hadar::core::{HadarConfig, PriceState};
use hadar::sim::{DecisionPhases, JobState, Scheduler, SchedulerContext};
use hadar::solver::{max_total_throughput_allocation_warm, GavelBasisCache};
use hadar::workload::{Job, JobId};

use crate::layers;

fn seconds_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Whether `alloc` gives every queued job exactly the placement it held in
/// the previous round (waiting jobs stay waiting) and nothing else.
pub fn is_renewal(ctx: &SchedulerContext<'_>, alloc: &Allocation) -> bool {
    let placed = |id: JobId| alloc.get(id).filter(|p| !p.is_empty());
    let same = ctx
        .jobs
        .iter()
        .all(|s| placed(s.job.id).map_or(s.placement.is_empty(), |p| *p == s.placement));
    let running = ctx.jobs.iter().filter(|s| s.is_running()).count();
    same && alloc.iter().filter(|(_, p)| !p.is_empty()).count() == running
}

/// Per-call wall times of `Scheduler::schedule`, and the renewal count.
#[derive(Debug, Default)]
pub struct DecisionLog {
    /// Seconds per `schedule` call, in round order.
    pub seconds: Vec<f64>,
    /// Calls that returned a renewal (see [`is_renewal`]); counted only in
    /// traced runs, so the untraced run times nothing but `schedule`.
    pub renewals: usize,
    /// Seconds spent in the replay adapter (0 without one).
    pub replay_seconds: f64,
}

/// The replay adapter attached to a probed policy.
pub enum Replay {
    /// The untraced run: the stopwatch and nothing else.
    Stopwatch,
    /// A traced run without a layer replay: the stopwatch and the renewal
    /// count.
    Off,
    /// Hadar's price, candidate and selection layers.
    Hadar(Box<HadarReplay>),
    /// Gavel's LP, cold and warm.
    Gavel(Box<GavelReplay>),
}

/// A policy with a stopwatch around `schedule` and an optional replay.
pub struct Probe<S> {
    inner: S,
    replay: Replay,
    log: DecisionLog,
    /// An arrival or completion was notified since the last round.
    notified: bool,
}

impl<S: Scheduler> Probe<S> {
    /// Wrap `inner`.
    pub fn new(inner: S, replay: Replay) -> Self {
        Self {
            inner,
            replay,
            log: DecisionLog::default(),
            notified: false,
        }
    }

    /// The decision log and the replay, dropping the policy.
    pub fn finish(self) -> (DecisionLog, Replay) {
        (self.log, self.replay)
    }
}

impl<S: Scheduler> Scheduler for Probe<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        let t0 = Instant::now();
        let alloc = self.inner.schedule(ctx);
        self.log.seconds.push(seconds_since(t0));
        if matches!(self.replay, Replay::Stopwatch) {
            return alloc;
        }
        let renewal = is_renewal(ctx, &alloc);
        self.log.renewals += usize::from(renewal);
        // Hadar renews without re-optimizing only in a quiet round: no job
        // arrived or finished, no machine is degraded, every job runs.
        let quiet = !std::mem::take(&mut self.notified)
            && ctx.machine_factors.iter().all(|&f| f >= 1.0)
            && ctx.jobs.iter().all(JobState::is_running);
        let t1 = Instant::now();
        match &mut self.replay {
            Replay::Hadar(r) if !(quiet && renewal) => r.round(ctx, &alloc),
            Replay::Gavel(r) => r.round(ctx),
            Replay::Hadar(_) | Replay::Off | Replay::Stopwatch => {}
        }
        self.log.replay_seconds += seconds_since(t1);
        alloc
    }

    fn on_arrival(&mut self, job: &Job) {
        self.notified = true;
        self.inner.on_arrival(job);
    }

    fn on_completion(&mut self, job: JobId) {
        self.notified = true;
        self.inner.on_completion(job);
    }

    fn last_decision_phases(&self) -> Option<DecisionPhases> {
        self.inner.last_decision_phases()
    }
}

/// Timings and selection counts of one subset-selection routine.
#[derive(Debug, Default)]
pub struct Selector {
    /// Seconds per call.
    pub seconds: Vec<f64>,
    /// Jobs selected, summed over calls.
    pub selected: usize,
    /// Jobs queued, summed over calls.
    pub queued: usize,
}

impl Selector {
    fn record(&mut self, seconds: f64, selected: usize, queued: usize) {
        self.seconds.push(seconds);
        self.selected += selected;
        self.queued += queued;
    }
}

/// Re-runs Hadar's round on every round that Hadar optimized, with the
/// values `HadarConfig::default()` resolves to: the queue in `ctx.jobs`
/// order against an empty `Usage`, DP up to `dp_max_queue` jobs and greedy
/// beyond. Its selection must equal the policy's allocation.
#[derive(Default)]
pub struct HadarReplay {
    config: HadarConfig,
    /// `PriceState::compute` seconds per round.
    pub price: Vec<f64>,
    /// `find_candidates` seconds per queued job.
    pub find: Vec<f64>,
    /// Candidates returned, summed over `find_candidates` calls.
    pub candidates: usize,
    /// `find_candidates` calls that returned a positive-payoff candidate.
    pub positive: usize,
    /// `dp_allocation` calls.
    pub dp: Selector,
    /// DP calls that exhausted their node budget.
    pub dp_budget_exhausted: usize,
    /// `greedy_allocation` calls.
    pub greedy: Selector,
    /// Replayed rounds whose selection equals the policy's allocation.
    pub matched: usize,
    /// Replayed rounds whose selection differs.
    pub mismatched: usize,
}

impl HadarReplay {
    fn round(&mut self, ctx: &SchedulerContext<'_>, alloc: &Allocation) {
        let t0 = Instant::now();
        let prices = PriceState::compute(ctx.jobs, ctx.cluster, &self.config.utility, ctx.time);
        self.price.push(seconds_since(t0));

        let env = layers::alloc_env(ctx, &prices, &self.config);
        let usage = Usage::empty(ctx.cluster);
        let queue: Vec<&JobState> = ctx.jobs.iter().collect();
        for s in &queue {
            let t0 = Instant::now();
            let found = find_candidates(s, &env, &usage);
            self.find.push(seconds_since(t0));
            self.candidates += found.len();
            self.positive += usize::from(!found.is_empty());
        }

        let dp = layers::uses_dp(&self.config, queue.len());
        let t0 = Instant::now();
        let selection = if dp {
            dp_allocation(&queue, &env, &usage)
        } else {
            greedy_allocation(&queue, &env, &usage)
        };
        let seconds = seconds_since(t0);
        let picked = selection.decisions.len();
        if dp {
            self.dp.record(seconds, picked, queue.len());
            self.dp_budget_exhausted += usize::from(selection.budget_exhausted);
        } else {
            self.greedy.record(seconds, picked, queue.len());
        }

        let mut replayed: Vec<Option<&JobPlacement>> = vec![None; queue.len()];
        for (idx, cand) in &selection.decisions {
            replayed[*idx] = Some(&cand.placement).filter(|p| !p.is_empty());
        }
        let placed = alloc.iter().filter(|(_, p)| !p.is_empty()).count();
        let same = placed == replayed.iter().flatten().count()
            && queue
                .iter()
                .zip(&replayed)
                .all(|(s, r)| alloc.get(s.job.id).filter(|p| !p.is_empty()) == *r);
        if same {
            self.matched += 1;
        } else {
            self.mismatched += 1;
        }
    }
}

/// Re-solves Gavel's LP, cold and warm, whenever the job set or the
/// availability mask changes.
#[derive(Default)]
pub struct GavelReplay {
    /// Job ids and availability fingerprint of the last solve.
    last: Option<(Vec<u32>, u64)>,
    /// Basis of the last successful solve, for the next warm start.
    basis: Option<GavelBasisCache>,
    /// Cold-solve seconds.
    pub cold: Vec<f64>,
    /// Warm-solve seconds (solves with a previous basis only).
    pub warm: Vec<f64>,
    /// Largest LP solved: constraint rows.
    pub max_rows: usize,
    /// Largest LP solved: variables.
    pub max_vars: usize,
    /// Solves that returned an error.
    pub errors: usize,
}

impl GavelReplay {
    fn round(&mut self, ctx: &SchedulerContext<'_>) {
        if ctx.jobs.is_empty() {
            return;
        }
        let key = (
            ctx.jobs.iter().map(|s| s.job.id.0).collect(),
            ctx.availability.fingerprint(),
        );
        if self.last.as_ref() == Some(&key) {
            return;
        }
        self.last = Some(key);
        let (input, keys) = layers::gavel_lp_input(ctx);
        let types = input.capacity.len();
        self.max_rows = self.max_rows.max(keys.len() + types);
        self.max_vars = self.max_vars.max(keys.len() * types);

        let t0 = Instant::now();
        let cold = max_total_throughput_allocation_warm(&input, &keys, None);
        self.cold.push(seconds_since(t0));
        let solved = match self.basis.take() {
            Some(basis) => {
                self.errors += usize::from(cold.is_err());
                let t0 = Instant::now();
                let warm = max_total_throughput_allocation_warm(&input, &keys, Some(&basis));
                self.warm.push(seconds_since(t0));
                warm
            }
            None => cold,
        };
        match solved {
            Ok((_, basis)) => self.basis = Some(basis),
            Err(_) => self.errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar::cluster::{Availability, Cluster, CommCostModel, MachineId};
    use hadar::sim::Telemetry;
    use hadar::workload::DlTask;

    fn state(cluster: &Cluster, id: u32, placement: JobPlacement) -> JobState {
        let job = Job::for_model(JobId(id), DlTask::ResNet18, cluster.catalog(), 0.0, 1, 10);
        JobState {
            placement,
            ..JobState::new(job)
        }
    }

    #[test]
    fn renewal_detection() {
        let cluster = Cluster::paper_simulation();
        let v100 = cluster.catalog().lookup("V100").unwrap();
        let on = |m: u32| JobPlacement::single(MachineId(m), v100, 1);
        let jobs = vec![
            state(&cluster, 0, on(0)),
            state(&cluster, 1, JobPlacement::empty()),
        ];
        let comm = CommCostModel::default();
        let availability = Availability::all_up(cluster.num_machines());
        let telemetry = Telemetry::disabled();
        let ctx = SchedulerContext {
            time: 0.0,
            round_length: 360.0,
            cluster: &cluster,
            jobs: &jobs,
            comm: &comm,
            machine_factors: &[],
            availability: &availability,
            telemetry: &telemetry,
        };
        let alloc = |entries: &[(u32, JobPlacement)]| {
            let mut a = Allocation::empty();
            for (id, p) in entries {
                a.set(JobId(*id), p.clone());
            }
            a
        };
        // Running job keeps its GPU, waiting job keeps waiting.
        assert!(is_renewal(&ctx, &alloc(&[(0, on(0))])));
        // An explicit empty placement is the same as none.
        assert!(is_renewal(
            &ctx,
            &alloc(&[(0, on(0)), (1, JobPlacement::empty())])
        ));
        // Migration, preemption and admission are not renewals.
        assert!(!is_renewal(&ctx, &alloc(&[(0, on(1))])));
        assert!(!is_renewal(&ctx, &alloc(&[])));
        assert!(!is_renewal(&ctx, &alloc(&[(0, on(0)), (1, on(2))])));
        // Nor is placing a job that is not queued.
        assert!(!is_renewal(&ctx, &alloc(&[(0, on(0)), (7, on(3))])));
    }
}
