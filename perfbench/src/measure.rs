//! One benchmark run: set-up, timed passes over the workload's cells, the
//! correctness tally, and the metrics the passes yield.

use std::time::{Duration, Instant};

use hadar::cluster::Cluster;
use hadar::sim::Scheduler;
use hadar::workload::Job;

use crate::probe::{GavelReplay, HadarReplay, Replay};
use crate::report::{json_str, Record};
use crate::stats::{percentile, sorted, tail, trimmed_mean};
use crate::workload::{Bench, CellRun, Policy, Summary, Trail, Workload};

/// Set-up is timed in batches of at least `SETUP_BATCH_SECONDS`: batches
/// fill `SETUP_SECONDS` before the first pass and `SETUP_SLICE_SECONDS`
/// after every pass, and `setup_s` is the trimmed mean over all of them.
/// Set-up takes microseconds, and the host's speed drifts over seconds, so
/// its samples are spread over the whole run.
const SETUP_BATCH_SECONDS: f64 = 1e-3;
const SETUP_SECONDS: f64 = 0.5;
const SETUP_SLICE_SECONDS: f64 = 0.1;

/// Set-up times, and the inputs the last set-up built.
#[derive(Default)]
struct SetUp {
    /// Mean seconds of cluster plus trace construction, per batch.
    total: Vec<f64>,
    /// The trace-generation part of `total`, per batch.
    generate: Vec<f64>,
    inputs: Option<(Cluster, Vec<Job>)>,
}

impl SetUp {
    /// Build `workload`'s inputs in timed batches for `seconds`.
    fn time(&mut self, workload: &Workload, seconds: f64) {
        let start = Instant::now();
        loop {
            let (mut reps, mut total, mut trace) = (0u32, 0.0, 0.0);
            while reps == 0 || total < SETUP_BATCH_SECONDS {
                let t0 = Instant::now();
                let cluster = (workload.cluster)();
                let t1 = Instant::now();
                let jobs = workload.trace(&cluster, workload.trace_seed);
                let t2 = Instant::now();
                total += (t2 - t0).as_secs_f64();
                trace += (t2 - t1).as_secs_f64();
                reps += 1;
                self.inputs = Some((cluster, jobs));
            }
            self.total.push(total / f64::from(reps));
            self.generate.push(trace / f64::from(reps));
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }
}

/// How to run a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The run's `--seed`, recorded in the provenance.
    pub seed: Option<u64>,
    /// Passes repeat until this many seconds have passed.
    pub seconds: f64,
    /// Replay the layers and report the per-layer metrics.
    pub traced: bool,
}

/// Run `workload` for about `seconds` of whole passes. Untraced, the passes
/// yield the end-to-end metrics; traced, one untraced reference pass is
/// followed by replayed passes that yield the per-layer metrics.
pub fn run(workload: &Workload, opts: Options, build: fn(Policy) -> Box<dyn Scheduler>) -> Record {
    let Options {
        seed,
        seconds,
        traced,
    } = opts;
    let mut setup = SetUp::default();
    setup.time(workload, SETUP_SECONDS);
    let (cluster, jobs) = setup.inputs.take().expect("at least one set-up");
    let bench = Bench {
        workload: workload.clone(),
        cluster,
        jobs,
        build,
    };

    let mut rec = Record::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let reference = bench.pass(false);
    // The simulator's memory peaks in the first pass, as every pass repeats
    // the same work; read later, the peak would also count the samples the
    // benchmark keeps, which grow with the number of passes.
    let peak_rss = peak_rss_mb();
    let reference_wall = cell_walls(std::slice::from_ref(&reference));
    // The decision trail of each policy's first cell run.
    let trails: Vec<(Policy, Option<Trail>)> = workload
        .policies
        .iter()
        .map(|&p| {
            (
                p,
                summary_of(std::slice::from_ref(&reference), p).map(|s| s.trail.clone()),
            )
        })
        .collect();
    let mut passes = Vec::new();
    tally(&mut rec, &reference, &trails, "reference");
    if !traced {
        passes.push(reference);
    }
    // Passes start while at least half a pass fits before the deadline, so
    // a run overshoots `seconds` by at most half a pass.
    let mut last = Duration::ZERO;
    while passes.is_empty() || Instant::now() + last / 2 < deadline {
        let t0 = Instant::now();
        let pass = bench.pass(traced);
        tally(&mut rec, &pass, &trails, &format!("pass {}", passes.len()));
        passes.push(pass);
        setup.time(workload, SETUP_SLICE_SECONDS);
        last = t0.elapsed();
    }

    rec.provenance = vec![
        ("workload", json_str(workload.name)),
        ("seed", seed.map_or("null".into(), |s| s.to_string())),
        ("trace_seed", workload.trace_seed.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("passes", passes.len().to_string()),
        ("host_threads", host_threads().to_string()),
        ("commit", json_str(&commit())),
        ("profile", json_str(profile())),
    ];
    if traced {
        per_layer(&mut rec, &passes, &setup.generate, reference_wall);
    } else {
        end_to_end(&mut rec, &passes, &setup.total, peak_rss);
    }
    rec
}

/// Count each cell run of `pass`; it fails on its own checks or when its
/// decision trail differs from the reference pass's.
fn tally(rec: &mut Record, pass: &[CellRun], trails: &[(Policy, Option<Trail>)], label: &str) {
    for cell in pass {
        let trail = cell.summary.as_ref().map(|s| &s.trail);
        let reference = trails
            .iter()
            .find(|(p, _)| *p == cell.policy)
            .and_then(|(_, t)| t.as_ref());
        let failure = cell.failure.clone().or_else(|| {
            (trail != reference)
                .then(|| "decision trail differs from the reference pass".to_owned())
        });
        rec.tally(failure.map(|why| format!("{label} {}: {why}", cell.policy.key())));
    }
}

/// The cells of `policy` across passes.
fn cells_of(passes: &[Vec<CellRun>], policy: Policy) -> Vec<&CellRun> {
    passes
        .iter()
        .flatten()
        .filter(|c| c.policy == policy)
        .collect()
}

/// The first pass's summary of `policy`'s cell.
fn summary_of(passes: &[Vec<CellRun>], policy: Policy) -> Option<&Summary> {
    cells_of(passes, policy)
        .first()
        .and_then(|c| c.summary.as_ref())
}

fn decisions(cells: &[&CellRun]) -> Vec<f64> {
    cells
        .iter()
        .flat_map(|c| c.log.seconds.iter().copied())
        .collect()
}

/// Σ over policies of the trimmed mean wall of that policy's cell runs: the
/// time to simulate and summarize every cell once.
fn cell_walls(passes: &[Vec<CellRun>]) -> f64 {
    Policy::ALL
        .iter()
        .map(|&p| trimmed_mean(&walls_of(passes, p)))
        .sum()
}

fn walls_of(passes: &[Vec<CellRun>], policy: Policy) -> Vec<f64> {
    cells_of(passes, policy).iter().map(|c| c.wall).collect()
}

fn end_to_end(rec: &mut Record, passes: &[Vec<CellRun>], setup: &[f64], peak_rss: f64) {
    rec.put("setup_s", trimmed_mean(setup), "s");
    let wall = cell_walls(passes);
    rec.put("wall_s", wall, "s");
    let runs: Vec<String> = Policy::ALL
        .iter()
        .map(|&p| format!("{} {}", p.key(), cells_of(passes, p).len()))
        .collect();
    rec.notes.push(format!("cell runs: {}", runs.join(", ")));
    let rounds: usize = Policy::ALL
        .iter()
        .filter_map(|&p| summary_of(passes, p))
        .map(|s| s.rounds)
        .sum();
    rec.put("rounds_per_s", rounds as f64 / wall, "rounds/s");
    for policy in [Policy::Hadar, Policy::Gavel] {
        let walls = walls_of(passes, policy);
        rec.put(
            format!("{}_wall_s", policy.key()),
            trimmed_mean(&walls),
            "s",
        );
    }
    // Decision latency. The p50 is taken over each pass's rounds, then the
    // trimmed mean over passes: every cell run repeats the same rounds, so
    // a percentile pooled over the whole run falls on one rank of those
    // rounds and jumps when host noise reorders its neighbours. The tail
    // pools every round of the run, so that it reaches the rare expensive
    // rounds (Gavel's cold LP on fig7-2048) that one 30-round cell cannot.
    for policy in [Policy::Hadar, Policy::Gavel] {
        let key = policy.key();
        let p50s: Vec<f64> = passes
            .iter()
            .map(|pass| {
                let cells: Vec<&CellRun> = pass.iter().filter(|c| c.policy == policy).collect();
                percentile(&sorted(&decisions(&cells)), 50.0)
            })
            .collect();
        let p50 = trimmed_mean(&p50s);
        rec.put(format!("{key}_decision_p50_ms"), p50 * 1e3, "ms");
        let samples = decisions(&cells_of(passes, policy));
        rec.put_tail(format!("{key}_decision_tail_ms"), tail(&samples), 1e3, "ms");
    }
    rec.put("peak_rss_mb", peak_rss, "MB");
    let hadar = summary_of(passes, Policy::Hadar);
    let gavel = summary_of(passes, Policy::Gavel);
    rec.put(
        "hadar_mean_jct_h",
        hadar.map_or(0.0, |s| s.mean_jct_s / 3600.0),
        "sim_h",
    );
    rec.put("hadar_util_pct", hadar.map_or(0.0, |s| s.util * 100.0), "%");
    rec.put(
        "gavel_mean_jct_h",
        gavel.map_or(0.0, |s| s.mean_jct_s / 3600.0),
        "sim_h",
    );
}

/// Calls per pass and busy seconds per pass of one timed layer call.
fn put_calls(rec: &mut Record, prefix: &str, samples: &[f64], passes: f64) {
    rec.put(
        format!("{prefix}.calls"),
        samples.len() as f64 / passes,
        "count",
    );
    rec.put(
        format!("{prefix}.busy_s"),
        samples.iter().sum::<f64>() / passes,
        "s",
    );
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(rec: &mut Record, passes: &[Vec<CellRun>], generate: &[f64], untraced_wall: f64) {
    let n = passes.len() as f64;
    rec.put("workload.generate_trace_s", trimmed_mean(generate), "s");

    // sim.engine: cell wall minus the policy, the replay and the summaries.
    for policy in Policy::ALL {
        let key = policy.key();
        let cells = cells_of(passes, policy);
        let self_s = cells
            .iter()
            .map(|c| {
                let log = &c.log;
                c.wall - c.summarize - log.seconds.iter().sum::<f64>() - log.replay_seconds
            })
            .sum::<f64>()
            / n;
        let rounds = summary_of(passes, policy).map_or(0, |s| s.rounds);
        let per_round = if rounds == 0 {
            0.0
        } else {
            self_s / rounds as f64 * 1e6
        };
        rec.put(format!("sim.engine.self_s.{key}"), self_s, "s");
        rec.put(format!("sim.engine.us_per_round.{key}"), per_round, "us");
        rec.put(format!("sim.engine.rounds.{key}"), rounds as f64, "count");
    }
    let summaries: Vec<&Summary> = passes[0]
        .iter()
        .filter_map(|c| c.summary.as_ref())
        .collect();
    let total = |f: fn(&Summary) -> u64| summaries.iter().map(|s| f(s)).sum::<u64>() as f64;
    rec.put(
        "sim.engine.reallocations",
        total(|s| s.reallocations),
        "count",
    );
    rec.put(
        "sim.engine.evictions",
        total(|s| s.evictions as u64),
        "count",
    );
    rec.put(
        "sim.engine.machine_failures",
        total(|s| s.machine_failures as u64),
        "count",
    );

    // The scheduler boundary.
    for policy in Policy::ALL {
        let prefix = format!("sched.{}", policy.key());
        let cells = cells_of(passes, policy);
        let samples = decisions(&cells);
        let renewals: usize = cells.iter().map(|c| c.log.renewals).sum();
        put_calls(rec, &prefix, &samples, n);
        rec.put(
            format!("{prefix}.p50_us"),
            percentile(&sorted(&samples), 50.0) * 1e6,
            "us",
        );
        rec.put_tail(format!("{prefix}.tail_us"), tail(&samples), 1e6, "us");
        rec.put(
            format!("{prefix}.renewal_frac"),
            ratio(renewals, samples.len()),
            "share",
        );
    }

    // Hadar's layers, replayed.
    let hadar: Vec<&HadarReplay> = cells_of(passes, Policy::Hadar)
        .into_iter()
        .filter_map(|c| match &c.replay {
            Replay::Hadar(r) => Some(&**r),
            _ => None,
        })
        .collect();
    let pool = |f: fn(&HadarReplay) -> &Vec<f64>| -> Vec<f64> {
        hadar.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let count = |f: fn(&HadarReplay) -> usize| hadar.iter().map(|r| f(r)).sum::<usize>();
    let price = pool(|r| &r.price);
    put_calls(rec, "core.price", &price, n);
    rec.put(
        "core.price.p50_us",
        percentile(&sorted(&price), 50.0) * 1e6,
        "us",
    );

    let find = pool(|r| &r.find);
    put_calls(rec, "core.find_alloc", &find, n);
    let per_call = ratio(1, find.len()) * find.iter().sum::<f64>() * 1e6;
    rec.put("core.find_alloc.us_per_call", per_call, "us");
    let candidates = ratio(count(|r| r.candidates), find.len());
    rec.put("core.find_alloc.candidates_per_call", candidates, "count");
    let positive = ratio(count(|r| r.positive), find.len());
    rec.put("core.find_alloc.positive_frac", positive, "share");

    let dp = pool(|r| &r.dp.seconds);
    put_calls(rec, "core.dp", &dp, n);
    rec.put("core.dp.p50_ms", percentile(&sorted(&dp), 50.0) * 1e3, "ms");
    rec.put_tail("core.dp.tail_ms", tail(&dp), 1e3, "ms");
    let exhausted = count(|r| r.dp_budget_exhausted) as f64 / n;
    rec.put("core.dp.budget_exhausted", exhausted, "count");
    let selected = ratio(count(|r| r.dp.selected), count(|r| r.dp.queued));
    rec.put("core.dp.selected_frac", selected, "share");

    let greedy = pool(|r| &r.greedy.seconds);
    put_calls(rec, "core.greedy", &greedy, n);
    rec.put(
        "core.greedy.p50_us",
        percentile(&sorted(&greedy), 50.0) * 1e6,
        "us",
    );
    let selected = ratio(count(|r| r.greedy.selected), count(|r| r.greedy.queued));
    rec.put("core.greedy.selected_frac", selected, "share");

    rec.put(
        "core.replay.matched_rounds",
        count(|r| r.matched) as f64 / n,
        "count",
    );
    rec.put(
        "core.replay.mismatch",
        count(|r| r.mismatched) as f64 / n,
        "count",
    );

    // Gavel's LP, replayed.
    let gavel: Vec<&GavelReplay> = cells_of(passes, Policy::Gavel)
        .into_iter()
        .filter_map(|c| match &c.replay {
            Replay::Gavel(r) => Some(&**r),
            _ => None,
        })
        .collect();
    for (kind, f) in [
        ("cold", (|r| &r.cold) as fn(&GavelReplay) -> &Vec<f64>),
        ("warm", |r| &r.warm),
    ] {
        let samples: Vec<f64> = gavel.iter().flat_map(|r| f(r).iter().copied()).collect();
        rec.put(
            format!("solver.lp.{kind}_calls"),
            samples.len() as f64 / n,
            "count",
        );
        let busy = samples.iter().sum::<f64>() / n;
        rec.put(format!("solver.lp.{kind}_busy_s"), busy, "s");
        let p50 = percentile(&sorted(&samples), 50.0) * 1e3;
        rec.put(format!("solver.lp.{kind}_p50_ms"), p50, "ms");
    }
    let max = |f: fn(&GavelReplay) -> usize| gavel.iter().map(|r| f(r)).max().unwrap_or(0) as f64;
    rec.put("solver.lp.max_rows", max(|r| r.max_rows), "count");
    rec.put("solver.lp.max_vars", max(|r| r.max_vars), "count");
    let errors = gavel.iter().map(|r| r.errors).sum::<usize>() as f64 / n;
    rec.put("solver.lp.errors", errors, "count");

    // The outcome summaries, and the cost of tracing itself.
    let summarize: f64 = passes.iter().flatten().map(|c| c.summarize).sum::<f64>() / n;
    rec.put("metrics.summarize_s", summarize, "s");
    let wall: f64 = passes.iter().flatten().map(|c| c.wall).sum::<f64>() / n;
    let replay: f64 = passes
        .iter()
        .flatten()
        .map(|c| c.log.replay_seconds)
        .sum::<f64>()
        / n;
    rec.put("trace.wall_s", wall, "s");
    rec.put("trace.replay_share", replay / wall, "share");
    rec.put("trace.untraced_wall_s", untraced_wall, "s");
}

/// Worker threads the host offers.
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile of this binary.
fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{name}"))
        .map(|id| id.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar::cluster::{Allocation, Cluster, GpuTypeId, JobPlacement, MachineId};
    use hadar::core::{HadarConfig, HadarScheduler};
    use hadar::sim::SchedulerContext;
    use hadar::workload::{ArrivalPattern, JobId};

    use crate::stats::valid_metric_name;

    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            trace_seed: 3,
            cluster: Cluster::paper_simulation,
            jobs: 8,
            pattern: ArrivalPattern::Static,
            cap: None,
            failure: None,
            policies: &Policy::ALL,
        }
    }

    /// Hadar, except that its first decision leaves one placed job out.
    struct Skewed {
        inner: HadarScheduler,
        rounds: usize,
    }

    impl Scheduler for Skewed {
        fn name(&self) -> &str {
            "Hadar"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
            let mut alloc = self.inner.schedule(ctx);
            self.rounds += 1;
            if self.rounds == 1 {
                let first = alloc.iter().next().map(|(id, _)| id).expect("a placed job");
                alloc.remove(first);
            }
            alloc
        }
    }

    fn skewed(policy: Policy) -> Box<dyn Scheduler> {
        match policy {
            Policy::Hadar => Box::new(Skewed {
                inner: HadarScheduler::new(HadarConfig::default()),
                rounds: 0,
            }),
            p => p.build(),
        }
    }

    /// Gavel, except that it places a job that does not exist.
    struct Rogue;

    impl Scheduler for Rogue {
        fn name(&self) -> &str {
            "Rogue"
        }
        fn schedule(&mut self, _: &SchedulerContext<'_>) -> Allocation {
            let mut alloc = Allocation::empty();
            alloc.set(
                JobId(10_000),
                JobPlacement::single(MachineId(0), GpuTypeId(0), 1),
            );
            alloc
        }
    }

    fn rogue(policy: Policy) -> Box<dyn Scheduler> {
        match policy {
            Policy::Gavel => Box::new(Rogue),
            p => p.build(),
        }
    }

    fn opts(traced: bool) -> Options {
        Options {
            seed: None,
            seconds: 1e-3,
            traced,
        }
    }

    fn metric(rec: &Record, name: &str) -> f64 {
        let m = rec.metrics.iter().find(|m| m.name == name);
        m.unwrap_or_else(|| panic!("no metric {name}")).value
    }

    /// The metric names a section of `BENCHMARK.json` lists.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("end of section")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    fn names(rec: &Record) -> Vec<String> {
        rec.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn shipped_policies_pass_and_report_every_declared_metric() {
        let rec = run(&tiny(), opts(false), Policy::build);
        assert!(rec.correct(), "{:?}", rec.failures);
        assert_eq!(names(&rec), declared("end_to_end"));

        let rec = run(&tiny(), opts(true), Policy::build);
        assert!(rec.correct(), "{:?}", rec.failures);
        assert_eq!(rec.failed, 0);
        assert!(rec.attempted >= 10, "reference plus one traced pass");
        assert_eq!(names(&rec), declared("per_layer"));
        assert!(rec.metrics.iter().all(|m| valid_metric_name(&m.name)));
        assert_eq!(metric(&rec, "core.replay.mismatch"), 0.0);
        assert!(metric(&rec, "core.replay.matched_rounds") > 0.0);
        assert!(metric(&rec, "core.dp.calls") > 0.0, "8 jobs fit the DP");
        assert!(metric(&rec, "solver.lp.cold_calls") > 0.0);
        // Policies without a layer replay still have their renewals counted.
        assert!(metric(&rec, "sched.yarn.renewal_frac") > 0.0);
    }

    #[test]
    fn forced_replay_mismatch_fails_the_run() {
        let rec = run(&tiny(), opts(true), skewed);
        assert!(metric(&rec, "core.replay.mismatch") >= 1.0);
        assert_eq!(rec.failed, 1, "{:?}", rec.failures);
        assert!(rec.failed_frac() > 0.0);
        assert!(!rec.correct());
        assert!(
            rec.failures[0].contains("replay differs"),
            "{:?}",
            rec.failures
        );
    }

    #[test]
    fn failing_cell_fails_the_run() {
        let rec = run(&tiny(), opts(false), rogue);
        // Every Gavel run fails in its first round; the other cells pass.
        let gavel = rec.failures.len();
        assert!(gavel >= 1 && rec.failed == gavel);
        assert!(rec.attempted > gavel && rec.failed_frac() > 0.0);
        assert!(!rec.correct());
        assert!(
            rec.failures[0].contains("simulation error"),
            "{:?}",
            rec.failures
        );
        assert!(rec
            .render()
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn capped_cell_must_run_exactly_its_cap() {
        let mut capped = tiny();
        capped.policies = &[Policy::Yarn];
        capped.cap = Some(2);
        assert!(run(&capped, opts(false), Policy::build).correct());
        // Eight jobs finish long before a cap of 10 000 rounds.
        capped.cap = Some(10_000);
        let rec = run(&capped, opts(false), Policy::build);
        assert!(!rec.correct());
        assert!(
            rec.failures[0].contains("cap is 10000"),
            "{:?}",
            rec.failures
        );
    }

    #[test]
    fn same_seed_same_inputs() {
        let w = tiny();
        let cluster = (w.cluster)();
        let key = |seed| format!("{:?}", w.trace(&cluster, seed));
        assert_eq!(key(9), key(9));
        assert_ne!(key(9), key(10));
    }
}
