//! The benchmark's workloads, and one pass over a workload's cells.

use std::hint::black_box;
use std::time::Instant;

use hadar::baselines::{GavelScheduler, SrtfScheduler, TiresiasScheduler, YarnCsScheduler};
use hadar::cluster::Cluster;
use hadar::core::{HadarConfig, HadarScheduler};
use hadar::sim::{check_lifecycle, FailureModel, Scheduler, SimConfig, SimOutcome, Simulation};
use hadar::workload::{generate_trace, ArrivalPattern, Job, TraceConfig};

use crate::probe::{DecisionLog, Probe, Replay};

/// The five policies, each in its default configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Hadar,
    Gavel,
    Tiresias,
    Yarn,
    Srtf,
}

impl Policy {
    /// Every policy, in report order.
    pub const ALL: [Policy; 5] = [
        Policy::Hadar,
        Policy::Gavel,
        Policy::Tiresias,
        Policy::Yarn,
        Policy::Srtf,
    ];

    /// The policy's key in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Policy::Hadar => "hadar",
            Policy::Gavel => "gavel",
            Policy::Tiresias => "tiresias",
            Policy::Yarn => "yarn",
            Policy::Srtf => "srtf",
        }
    }

    /// The policy as the program ships it.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            Policy::Hadar => Box::new(HadarScheduler::new(HadarConfig::default())),
            Policy::Gavel => Box::new(GavelScheduler::paper_default()),
            Policy::Tiresias => Box::new(TiresiasScheduler::paper_default()),
            Policy::Yarn => Box::new(YarnCsScheduler::new()),
            Policy::Srtf => Box::new(SrtfScheduler::new()),
        }
    }

    fn replay(self) -> Replay {
        match self {
            Policy::Hadar => Replay::Hadar(Box::default()),
            Policy::Gavel => Replay::Gavel(Box::default()),
            _ => Replay::Off,
        }
    }
}

/// A named workload: cluster, trace shape, simulator settings and cells.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The trace seed. It is pinned, not taken from `--seed`: between
    /// trace seeds the measured cost moves by more than the benchmark's
    /// bounds (see README.md).
    pub trace_seed: u64,
    /// Builds the cluster.
    pub cluster: fn() -> Cluster,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Arrival process.
    pub pattern: ArrivalPattern,
    /// Round cap; a capped cell must run exactly this many rounds, an
    /// uncapped one must finish every job.
    pub cap: Option<u64>,
    /// Machine-failure injection.
    pub failure: Option<FailureModel>,
    /// The cells, run one after another.
    pub policies: &'static [Policy],
}

/// Every workload, by name.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-continuous",
            trace_seed: 1,
            cluster: Cluster::paper_simulation,
            jobs: 480,
            pattern: ArrivalPattern::paper_continuous(),
            cap: None,
            failure: None,
            policies: &Policy::ALL,
        },
        Workload {
            name: "fig7-2048",
            trace_seed: 7,
            cluster: || Cluster::scaled(64),
            jobs: 2048,
            pattern: ArrivalPattern::Static,
            cap: Some(30),
            failure: None,
            policies: &[Policy::Hadar, Policy::Gavel],
        },
        Workload {
            name: "faulty-dp",
            trace_seed: 5,
            cluster: Cluster::paper_simulation,
            jobs: 16,
            pattern: ArrivalPattern::Static,
            cap: None,
            failure: Some(FailureModel {
                mtbf_rounds: 25.0,
                mttr_rounds: 4.0,
                seed: 13,
            }),
            policies: &Policy::ALL,
        },
    ]
}

impl Workload {
    /// The trace for `seed` on `cluster`.
    pub fn trace(&self, cluster: &Cluster, seed: u64) -> Vec<Job> {
        let config = TraceConfig {
            num_jobs: self.jobs,
            seed,
            pattern: self.pattern,
        };
        generate_trace(&config, cluster.catalog())
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            max_rounds: self.cap.unwrap_or(SimConfig::default().max_rounds),
            failure: self.failure,
            ..SimConfig::default()
        }
    }
}

/// Per job: first scheduled, finish, rounds run, reallocations.
pub type Trail = Vec<(Option<f64>, Option<f64>, u32, u32)>;

/// What the workload's outcome summaries say about one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub mean_jct_s: f64,
    pub util: f64,
    pub rounds: usize,
    pub reallocations: u64,
    pub evictions: usize,
    pub machine_failures: usize,
    pub trail: Trail,
}

/// One cell of one pass.
pub struct CellRun {
    pub policy: Policy,
    /// Simulate plus summarize, seconds.
    pub wall: f64,
    /// The summarize part of `wall`, seconds.
    pub summarize: f64,
    pub log: DecisionLog,
    pub replay: Replay,
    /// `None` when the simulation returned an error.
    pub summary: Option<Summary>,
    /// Why the cell failed its correctness checks, if it did.
    pub failure: Option<String>,
}

/// A workload ready to run: its inputs are built once, before timing.
pub struct Bench {
    pub workload: Workload,
    pub cluster: Cluster,
    pub jobs: Vec<Job>,
    /// Builds each cell's policy (the shipped one outside tests).
    pub build: fn(Policy) -> Box<dyn Scheduler>,
}

/// In an untraced pass a cell runs again until it has run this long, so a
/// policy that finishes in milliseconds is timed over many runs, spread
/// over the whole run rather than caught in one state of the host. It is
/// below the cost of every `fig7-2048` cell, so those run once a pass and
/// the number of pooled rounds there stays far from the next tail
/// percentile (1000 rounds for p99).
const MIN_CELL_SECONDS: f64 = 0.3;

impl Bench {
    /// Run the cells one after another. Untraced, each cell repeats until
    /// it has run `MIN_CELL_SECONDS`; traced, each runs once with its
    /// replay adapter.
    pub fn pass(&self, traced: bool) -> Vec<CellRun> {
        let mut runs = Vec::new();
        for &policy in self.workload.policies {
            let start = Instant::now();
            loop {
                runs.push(self.cell(policy, traced));
                if traced || start.elapsed().as_secs_f64() >= MIN_CELL_SECONDS {
                    break;
                }
            }
        }
        runs
    }

    fn cell(&self, policy: Policy, traced: bool) -> CellRun {
        let replay = if traced {
            policy.replay()
        } else {
            Replay::Stopwatch
        };
        let mut probe = Probe::new((self.build)(policy), replay);
        let t0 = Instant::now();
        let sim = Simulation::new(
            self.cluster.clone(),
            self.jobs.clone(),
            self.workload.sim_config(),
        );
        let result = sim.run(&mut probe);
        let t1 = Instant::now();
        let summary = result.as_ref().ok().map(summarize);
        let end = Instant::now();
        // Drop the policy now, so its caches do not count towards the
        // memory of later passes.
        let (log, replay) = probe.finish();
        let failure = match &result {
            Err(e) => Some(format!("simulation error: {e}")),
            Ok(out) => self.check(out, &replay),
        };
        CellRun {
            policy,
            wall: (end - t0).as_secs_f64(),
            summarize: (end - t1).as_secs_f64(),
            log,
            replay,
            summary,
            failure,
        }
    }

    /// The cell-level correctness checks.
    fn check(&self, out: &SimOutcome, replay: &Replay) -> Option<String> {
        if let Err(e) = check_lifecycle(out.events(), self.jobs.len()) {
            return Some(format!("lifecycle: {e}"));
        }
        let rounds = out.rounds.len() as u64;
        match self.workload.cap {
            Some(cap) if rounds != cap => {
                return Some(format!("ran {rounds} rounds, cap is {cap}"));
            }
            None if out.completed_jobs() != self.jobs.len() => {
                let done = out.completed_jobs();
                return Some(format!("{done} of {} jobs finished", self.jobs.len()));
            }
            _ => {}
        }
        match replay {
            Replay::Hadar(r) if r.mismatched > 0 => Some(format!(
                "replay differs from the policy in {} rounds",
                r.mismatched
            )),
            Replay::Gavel(r) if r.errors > 0 => Some(format!("{} LP errors", r.errors)),
            _ => None,
        }
    }
}

/// The outcome summaries every cell computes (the `metrics` layer), plus
/// the values the benchmark reports.
fn summarize(out: &SimOutcome) -> Summary {
    black_box(out.metrics());
    black_box(out.ftf());
    black_box(out.queuing_delays());
    black_box(out.completion_cdf());
    Summary {
        mean_jct_s: out.mean_jct(),
        util: out.demand_weighted_utilization(),
        rounds: out.rounds.len(),
        reallocations: out.rounds.iter().map(|r| u64::from(r.reallocations)).sum(),
        evictions: out.evictions(),
        machine_failures: out.machine_failures(),
        trail: out
            .records
            .iter()
            .map(|r| (r.first_scheduled, r.finish, r.rounds_run, r.reallocations))
            .collect(),
    }
}
