//! The batch driver: streams thousands of generated instances through the
//! portfolio engine across worker threads and reports throughput and
//! per-backend win rates.

use crate::backend::{CandidateMapping, ProblemInstance};
use crate::cache::CacheStats;
use crate::engine::{PortfolioEngine, PortfolioOutcome, RunStatus};
use rpo_algorithms::{solve_batch, BatchLane, BatchScratch, LANES};
use rpo_model::{CanonicalHasher, IntervalOracle};
use rpo_obs::MetricsSnapshot;
use rpo_workload::ExperimentInstance;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the real-time bounds of a streamed instance are derived from its
/// chain and platform (the paper sets absolute bounds; relative slacks keep
/// a comparable feasibility mix across random instances).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsPolicy {
    /// Worst-case period bound = `slack × max_i w_i / s_max`.
    pub period_slack: f64,
    /// Worst-case latency bound = `slack × W / s_max`.
    pub latency_slack: f64,
}

impl Default for BoundsPolicy {
    fn default() -> Self {
        BoundsPolicy {
            period_slack: 1.5,
            latency_slack: 1.2,
        }
    }
}

impl BoundsPolicy {
    /// Unbounded instances (pure reliability optimization).
    pub fn unbounded() -> Self {
        BoundsPolicy {
            period_slack: f64::INFINITY,
            latency_slack: f64::INFINITY,
        }
    }

    /// Builds the portfolio instance for one generated experiment instance.
    pub fn instance(
        &self,
        experiment: &ExperimentInstance,
        heterogeneous: bool,
    ) -> ProblemInstance {
        let platform = if heterogeneous {
            &experiment.heterogeneous
        } else {
            &experiment.homogeneous
        };
        let speed = platform.max_speed();
        let period_bound = self.period_slack * experiment.chain.max_task_work() / speed;
        let latency_bound = self.latency_slack * experiment.chain.total_work() / speed;
        ProblemInstance {
            chain: experiment.chain.clone(),
            platform: platform.clone(),
            period_bound,
            latency_bound,
        }
    }
}

/// Batch driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Worker threads. Each solves one instance at a time on its own thread,
    /// whatever [`PortfolioEngine::with_threads`] is set to.
    pub workers: usize,
    /// Bound derivation policy.
    pub bounds: BoundsPolicy,
    /// Solve each instance on its heterogeneous platform instead of the
    /// homogeneous one.
    pub heterogeneous: bool,
    /// Shape-bucket the ingress stream through the batched SoA mega-kernel:
    /// homogeneous instances of the same `(n, p, k_max, class signature)`
    /// shape are grouped and their Algo-1/Algo-2 DP runs in lockstep, one
    /// instance per SIMD lane; every other backend still races per instance.
    /// Heterogeneous or otherwise ineligible instances take the per-instance
    /// path as the remainder loop. Off by default: bucketing pays off on
    /// streams with many same-shape instances, and delays answers until a
    /// bucket fills (or the stream ends).
    pub bucketed: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            bounds: BoundsPolicy::default(),
            heterogeneous: false,
            bucketed: false,
        }
    }
}

/// Aggregated statistics for one backend across a batch.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BackendStats {
    /// Backend name.
    pub backend: String,
    /// Instances on which the backend completed.
    pub runs: usize,
    /// Instances where the backend produced the winning (most reliable)
    /// front point.
    pub wins: usize,
    /// Total Pareto points contributed across all instances.
    pub front_points: usize,
    /// Total wall-clock spent inside the backend, in microseconds.
    pub total_micros: u64,
}

impl BackendStats {
    /// Win rate over the instances this backend ran on.
    pub fn win_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.wins as f64 / self.runs as f64
        }
    }
}

/// The report of one batch run. Fully serde-serializable, so runs can be
/// exported with `--report-json` and diffed machine-to-machine.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BatchReport {
    /// Instances streamed.
    pub instances: usize,
    /// Instances with at least one feasible mapping.
    pub feasible_instances: usize,
    /// Instances answered from the engine cache.
    pub cache_answered: usize,
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
    /// Per-backend statistics, sorted by wins then name.
    pub backend_stats: Vec<BackendStats>,
    /// Front-cache counters after the batch.
    pub cache: CacheStats,
    /// Oracle-cache counters after the batch: hits are solves that reused a
    /// previous instance's interval-metrics kernel (same chain and platform,
    /// possibly different bounds).
    pub oracle_cache: CacheStats,
    /// Scratch-pool counters after the batch: hits are backend runs that
    /// reused a pooled DP arena from an earlier instance (allocation reuse
    /// only; admissibility data stays per-instance).
    pub scratch_pool: CacheStats,
    /// Shape buckets dispatched through the SoA mega-kernel — full
    /// `LANES`-wide buckets plus the partial ones flushed at stream end
    /// (0 when bucketing is off).
    #[serde(default)]
    pub buckets_dispatched: usize,
    /// Instances answered through a mega-kernel bucket.
    #[serde(default)]
    pub bucketed_instances: usize,
    /// Bucketed instances that ran as *padded* lanes — shorter than their
    /// bucket's longest instance under the near-shape `(p, K)` bucketing,
    /// so part of their DP arena was dead rows. The honest occupancy
    /// companion to `batch.lane_occupancy`: a full 8-lane bucket with 5
    /// padded lanes did real work in all 8 lanes but wasted arena slack
    /// proportional to the length spread.
    #[serde(default)]
    pub padded_lanes: usize,
    /// Bucketing-ineligible instances (heterogeneous platform, out-of-range
    /// shape) routed down the per-instance portfolio path while bucketing
    /// was on.
    #[serde(default)]
    pub remainder_solves: usize,
    /// The global metrics recorded *during this batch* (the registry delta
    /// between batch start and end): per-backend solve-time histograms,
    /// cache counters, queue-wait vs solve-time split, solver-layer
    /// counters. Empty when observability is disabled.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
}

/// Worker-local batch accounting, folded into the shared tally at the end.
#[derive(Default)]
struct Tally {
    count: usize,
    feasible: usize,
    cache_answered: usize,
    buckets: usize,
    bucketed: usize,
    padded: usize,
    remainder: usize,
    stats: HashMap<&'static str, BackendStats>,
}

/// Folds one solve's outcome into the worker-local tally (feasibility,
/// cache answers, per-backend runs/wins/front points). Shared by the
/// per-instance path and the bucketed mega-kernel path, so both modes
/// account identically.
fn record_outcome(local: &mut Tally, outcome: &PortfolioOutcome) {
    if outcome.is_feasible() {
        local.feasible += 1;
    }
    if outcome.from_cache {
        local.cache_answered += 1;
        return; // per-backend stats were counted once
    }
    let winner = outcome.front.best_reliability().map(|p| p.backend);
    for run in &outcome.runs {
        // Precomputed runs carry the mega-kernel's candidates for this
        // backend: same results, different executor — counted like a
        // completed run so win rates stay comparable across modes.
        if !matches!(run.status, RunStatus::Completed | RunStatus::Precomputed) {
            continue;
        }
        let entry = local
            .stats
            .entry(run.backend)
            .or_insert_with(|| BackendStats {
                backend: run.backend.to_string(),
                ..BackendStats::default()
            });
        entry.runs += 1;
        entry.total_micros += run.micros;
        if winner == Some(run.backend) {
            entry.wins += 1;
            rpo_obs::global()
                .counter(&format!("backend.win.{}", run.backend))
                .inc();
        }
    }
    for point in outcome.front.points() {
        if let Some(entry) = local.stats.get_mut(point.backend) {
            entry.front_points += 1;
        }
    }
}

/// The mega-kernel shape key of an instance, or `None` when it must take
/// the per-instance remainder path. Eligible instances are homogeneous and
/// within the kernel's packed-traceback ranges; the key hashes the
/// **near-shape** `(p, k_max)` plus the platform-class signature (always
/// one class here) — the task count is deliberately left out, because the
/// kernel pads shorter lanes to the bucket's longest instance (NaN-masked
/// dead rows), so mixed-`n` streams still fill `LANES`-wide buckets instead
/// of fragmenting into one bucket per length. Work/failure/speed numerics
/// are free to differ per lane as before.
fn bucket_key(instance: &ProblemInstance) -> Option<u64> {
    if !instance.platform.is_homogeneous() {
        return None;
    }
    let n = instance.chain.len();
    let p = instance.platform.num_processors();
    let k_max = instance.platform.max_replication().min(p);
    if n == 0 || n >= (1 << 24) || k_max > 0xFF {
        return None;
    }
    let mut hasher = CanonicalHasher::new();
    hasher.write_usize(p);
    hasher.write_usize(k_max);
    hasher.write_usize(1); // class signature: homogeneous = one class
    Some(hasher.finish())
}

/// Dispatches one shape bucket: the SoA mega-kernel solves the Algo-1 DP
/// (all lanes unbounded) and, where period bounds are finite, the Algo-2 DP
/// (actual per-lane bounds) for every instance at once; each instance then
/// finishes through an inline engine solve that re-certifies the lane
/// results and races the remaining backends.
fn solve_bucket(
    engine: &PortfolioEngine,
    instances: &[ProblemInstance],
    scratch: &mut BatchScratch,
    local: &mut Tally,
) {
    rpo_obs::counter!("dp.batch.buckets").inc();
    local.buckets += 1;
    // Near-shape accounting: lanes shorter than the bucket's longest
    // instance run padded in the kernel.
    let n_max = instances
        .iter()
        .map(|inst| inst.chain.len())
        .max()
        .unwrap_or(0);
    local.padded += instances
        .iter()
        .filter(|inst| inst.chain.len() < n_max)
        .count();
    let oracles: Vec<Arc<IntervalOracle>> = instances
        .iter()
        .map(|inst| engine.oracle_for(inst))
        .collect();

    // Algo-1 pass: the unconstrained reliability DP on every lane.
    let lanes: Vec<BatchLane> = instances
        .iter()
        .zip(&oracles)
        .map(|(inst, oracle)| BatchLane {
            oracle,
            chain: &inst.chain,
            platform: &inst.platform,
            period_bound: None,
        })
        .collect();
    let mut algo1 = solve_batch(&lanes, scratch).into_iter();

    // Algo-2 pass: the period-bounded DP, only for lanes with a finite
    // bound (matching the Algo-2 backend's applicability gate). Lanes
    // without one would just repeat the Algo-1 result.
    let any_bounded = instances.iter().any(|inst| inst.period_bound.is_finite());
    let mut algo2 = if any_bounded {
        let lanes: Vec<BatchLane> = instances
            .iter()
            .zip(&oracles)
            .map(|(inst, oracle)| BatchLane {
                oracle,
                chain: &inst.chain,
                platform: &inst.platform,
                period_bound: inst.period_bound.is_finite().then_some(inst.period_bound),
            })
            .collect();
        solve_batch(&lanes, scratch)
    } else {
        vec![None; instances.len()]
    }
    .into_iter();

    for (instance, oracle) in instances.iter().zip(&oracles) {
        let mut precomputed: Vec<(&'static str, Vec<CandidateMapping>)> = Vec::new();
        let candidates = |solution: Option<rpo_algorithms::OptimalMapping>, name| {
            solution
                .map(|s| {
                    vec![CandidateMapping::evaluate_with_oracle(
                        name, oracle, s.mapping,
                    )]
                })
                .unwrap_or_default()
        };
        precomputed.push(("Algo-1", candidates(algo1.next().flatten(), "Algo-1")));
        let algo2_result = algo2.next().flatten();
        if instance.period_bound.is_finite() {
            precomputed.push(("Algo-2", candidates(algo2_result, "Algo-2")));
        }
        let solve_start = Instant::now();
        let outcome = engine.solve_inline(instance, precomputed);
        rpo_obs::histogram!("batch.solve").record(solve_start.elapsed());
        record_outcome(local, &outcome);
        local.bucketed += 1;
    }
}

impl BatchReport {
    /// Instances solved per second of wall-clock time. Empty or
    /// zero-duration batches report 0.0 — never a non-finite value, which
    /// would corrupt the serde JSON report envelope (JSON has no
    /// `Infinity`/`NaN` literals).
    pub fn throughput(&self) -> f64 {
        let seconds = self.elapsed.as_secs_f64();
        if seconds > 0.0 && self.instances > 0 {
            self.instances as f64 / seconds
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} instances in {:.2?} ({:.1} instances/sec), {} feasible, {} from cache",
            self.instances,
            self.elapsed,
            self.throughput(),
            self.feasible_instances,
            self.cache_answered,
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.0}% hit rate), {} evictions",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_ratio(),
            self.cache.evictions,
        )?;
        writeln!(
            f,
            "oracle cache: {} hits / {} misses ({:.0}% hit rate), {} evictions",
            self.oracle_cache.hits,
            self.oracle_cache.misses,
            100.0 * self.oracle_cache.hit_ratio(),
            self.oracle_cache.evictions,
        )?;
        writeln!(
            f,
            "scratch pool: {} hits / {} misses ({:.0}% hit rate)",
            self.scratch_pool.hits,
            self.scratch_pool.misses,
            100.0 * self.scratch_pool.hit_ratio(),
        )?;
        if self.buckets_dispatched > 0 || self.remainder_solves > 0 {
            writeln!(
                f,
                "buckets: {} dispatched covering {} instances ({:.1} lanes/bucket, \
                 {} padded), {} remainder solves",
                self.buckets_dispatched,
                self.bucketed_instances,
                self.bucketed_instances as f64 / self.buckets_dispatched.max(1) as f64,
                self.padded_lanes,
                self.remainder_solves,
            )?;
        }
        writeln!(
            f,
            "{:<12} {:>6} {:>6} {:>9} {:>13} {:>11}",
            "backend", "runs", "wins", "win-rate", "front-points", "time"
        )?;
        for stats in &self.backend_stats {
            writeln!(
                f,
                "{:<12} {:>6} {:>6} {:>8.1}% {:>13} {:>9.1}ms",
                stats.backend,
                stats.runs,
                stats.wins,
                100.0 * stats.win_rate(),
                stats.front_points,
                stats.total_micros as f64 / 1e3,
            )?;
        }
        Ok(())
    }
}

/// Streams instances through a [`PortfolioEngine`] with a pool of worker
/// threads pulling from a shared queue. Each worker solves one instance at
/// a time on its own thread, whatever [`PortfolioEngine::with_threads`] is
/// set to: across a batch, instance-level parallelism alone fills the
/// workers.
#[derive(Default)]
pub struct BatchDriver {
    pub(crate) config: BatchConfig,
}

impl BatchDriver {
    /// A driver with the given configuration.
    pub fn new(config: BatchConfig) -> Self {
        BatchDriver { config }
    }

    /// Runs every instance of `stream` through `engine` and aggregates the
    /// per-backend statistics. The stream is consumed lazily — instances
    /// are generated one at a time as workers become free, so arbitrarily
    /// long batches run in O(workers) memory.
    pub fn run<I>(&self, engine: &PortfolioEngine, stream: I) -> BatchReport
    where
        I: IntoIterator<Item = ExperimentInstance>,
        I::IntoIter: Send,
    {
        let bounds = self.config.bounds;
        let heterogeneous = self.config.heterogeneous;
        self.drive(
            engine,
            stream
                .into_iter()
                .map(move |experiment| bounds.instance(&experiment, heterogeneous)),
        )
    }

    /// Like [`BatchDriver::run`], for pre-built portfolio instances.
    pub fn run_instances(
        &self,
        engine: &PortfolioEngine,
        instances: Vec<ProblemInstance>,
    ) -> BatchReport {
        self.drive(engine, instances.into_iter())
    }

    /// The shared worker loop: threads pull the next instance from the
    /// mutex-guarded iterator (held only while generating one instance),
    /// solve it, and fold their local tallies at the end.
    fn drive<J>(&self, engine: &PortfolioEngine, instances: J) -> BatchReport
    where
        J: Iterator<Item = ProblemInstance> + Send,
    {
        let _span = rpo_obs::span!("batch.drive", workers = self.config.workers);
        // The report embeds only the metrics recorded during *this* batch:
        // snapshot the global registry now and export the delta at the end.
        let metrics_base = rpo_obs::global().snapshot();
        let start = Instant::now();
        let workers = self.config.workers.max(1);
        let source = Mutex::new(instances);
        let bucketed_mode = self.config.bucketed;
        // Shape buckets filling towards LANES-wide mega-kernel dispatches,
        // shared by all workers; whichever worker completes a bucket
        // dispatches it (outside the map lock).
        let buckets: Mutex<HashMap<u64, Vec<ProblemInstance>>> = Mutex::new(HashMap::new());

        let tally: Mutex<Tally> = Mutex::new(Tally::default());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local = Tally::default();
                    // Worker-local SoA arenas for bucketed dispatches,
                    // reused across every bucket this worker solves.
                    let mut batch_scratch = BatchScratch::new();
                    loop {
                        // Queue wait (contending for the stream lock plus
                        // generating the next instance) vs solve time below:
                        // the split that tells lock contention apart from
                        // genuinely slow solves.
                        let wait_start = Instant::now();
                        let next = source.lock().expect("instance stream lock poisoned").next();
                        rpo_obs::histogram!("batch.queue_wait").record(wait_start.elapsed());
                        let Some(instance) = next else {
                            break;
                        };
                        local.count += 1;
                        rpo_obs::counter!("batch.instances").inc();
                        if bucketed_mode {
                            if let Some(key) = bucket_key(&instance) {
                                // Park the instance in its shape bucket; a
                                // full bucket is taken (inside the lock) and
                                // dispatched (outside it) by this worker.
                                let full = {
                                    let mut map = buckets.lock().expect("bucket map lock poisoned");
                                    let bucket = map.entry(key).or_default();
                                    bucket.push(instance);
                                    (bucket.len() >= LANES).then(|| std::mem::take(bucket))
                                };
                                if let Some(batch) = full {
                                    solve_bucket(engine, &batch, &mut batch_scratch, &mut local);
                                }
                                continue;
                            }
                            local.remainder += 1;
                            rpo_obs::counter!("dp.batch.remainder_solves").inc();
                        }
                        let solve_start = Instant::now();
                        let outcome = engine.solve_inline(&instance, Vec::new());
                        rpo_obs::histogram!("batch.solve").record(solve_start.elapsed());
                        record_outcome(&mut local, &outcome);
                    }
                    // Stream exhausted: flush the remaining (partial) shape
                    // buckets through the mega-kernel, sharing the work
                    // across whichever workers finish first. Every bucketed
                    // instance is flushed: a worker only exits its solve
                    // loop after its last insert, and flushes afterwards.
                    if bucketed_mode {
                        loop {
                            let batch = {
                                let mut map = buckets.lock().expect("bucket map lock poisoned");
                                let key = map.keys().next().copied();
                                key.and_then(|k| map.remove(&k))
                            };
                            let Some(batch) = batch else {
                                break;
                            };
                            if !batch.is_empty() {
                                solve_bucket(engine, &batch, &mut batch_scratch, &mut local);
                            }
                        }
                    }
                    // Fold the worker-local tally into the shared one.
                    let mut shared = tally.lock().expect("tally lock poisoned");
                    shared.count += local.count;
                    shared.feasible += local.feasible;
                    shared.cache_answered += local.cache_answered;
                    shared.buckets += local.buckets;
                    shared.bucketed += local.bucketed;
                    shared.padded += local.padded;
                    shared.remainder += local.remainder;
                    for (name, stats) in local.stats {
                        let entry = shared.stats.entry(name).or_insert_with(|| BackendStats {
                            backend: stats.backend.clone(),
                            ..BackendStats::default()
                        });
                        entry.runs += stats.runs;
                        entry.wins += stats.wins;
                        entry.front_points += stats.front_points;
                        entry.total_micros += stats.total_micros;
                    }
                });
            }
        });

        let tally = tally.into_inner().expect("tally lock poisoned");
        let mut backend_stats: Vec<BackendStats> = tally.stats.into_values().collect();
        backend_stats.sort_by(|a, b| b.wins.cmp(&a.wins).then_with(|| a.backend.cmp(&b.backend)));

        BatchReport {
            instances: tally.count,
            feasible_instances: tally.feasible,
            cache_answered: tally.cache_answered,
            elapsed: start.elapsed(),
            backend_stats,
            cache: engine.cache_stats(),
            oracle_cache: engine.oracle_cache_stats(),
            scratch_pool: engine.scratch_pool_stats(),
            buckets_dispatched: tally.buckets,
            bucketed_instances: tally.bucketed,
            padded_lanes: tally.padded,
            remainder_solves: tally.remainder,
            // All workers joined above, so the delta is an exact account of
            // this batch's activity.
            metrics: rpo_obs::global().snapshot().delta(&metrics_base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_workload::InstanceGenerator;

    #[test]
    fn small_batch_reports_consistent_counts() {
        let engine = PortfolioEngine::default().with_threads(1);
        let driver = BatchDriver::new(BatchConfig {
            workers: 2,
            bounds: BoundsPolicy::default(),
            heterogeneous: false,
            bucketed: false,
        });
        let generator = InstanceGenerator::paper_homogeneous(2024);
        let report = driver.run(&engine, generator.stream(12));
        assert_eq!(report.instances, 12);
        assert!(
            report.feasible_instances > 0,
            "paper-style instances should be solvable"
        );
        assert!(report.throughput() > 0.0);
        let total_wins: usize = report.backend_stats.iter().map(|s| s.wins).sum();
        assert_eq!(
            total_wins,
            report.feasible_instances - report.cache_answered
        );
        // The pool allocated at most one scratch per worker; every later
        // backend run reused a pooled arena.
        let pool = &report.scratch_pool;
        assert!(pool.misses <= 2, "expected ≤ 1 fresh scratch per worker");
        assert!(pool.hits > 0, "expected pooled arenas to be reused");
    }

    #[test]
    fn empty_batch_report_round_trips_through_json() {
        // Regression: an empty (or zero-duration) batch used to report
        // `f64::INFINITY` throughput, and a non-finite float anywhere in the
        // report corrupts the JSON envelope. The report must stay finite and
        // survive a serialize → parse → deserialize round trip.
        let report = BatchReport::default();
        assert_eq!(report.instances, 0);
        assert_eq!(report.throughput(), 0.0);
        assert!(report.throughput().is_finite());

        let json = serde_json::to_string(&report).expect("empty report serializes");
        let value: serde_json::Value = serde_json::from_str(&json).expect("envelope is valid JSON");
        let fields = value.as_object().expect("report envelope is an object");
        assert!(fields.iter().any(|(key, _)| key == "instances"));

        let back: BatchReport = serde_json::from_value(&value).expect("report round-trips");
        assert_eq!(back.instances, 0);
        assert_eq!(back.elapsed, Duration::ZERO);
        assert_eq!(back.throughput(), 0.0);

        // The Display path funnels through throughput() too — it must not
        // print "inf instances/sec" for a zero-duration report.
        assert!(!format!("{report}").contains("inf"));
    }

    #[test]
    fn duplicate_instances_are_answered_by_the_cache() {
        let engine = PortfolioEngine::default().with_threads(1);
        let driver = BatchDriver::new(BatchConfig {
            workers: 1,
            ..BatchConfig::default()
        });
        let generator = InstanceGenerator::paper_homogeneous(7);
        let mut instances: Vec<ExperimentInstance> = generator.batch(3);
        instances.extend(generator.batch(3)); // same three again
        let report = driver.run(&engine, instances);
        assert_eq!(report.instances, 6);
        assert_eq!(report.cache_answered, 3);
        assert_eq!(report.cache.hits, 3);
    }

    #[test]
    fn bucketed_batches_match_the_unbucketed_front_for_front() {
        let generator = InstanceGenerator::paper_homogeneous(31);
        let instances: Vec<ExperimentInstance> = generator.batch(20);
        let policy = BoundsPolicy::default();
        let problems: Vec<ProblemInstance> = instances
            .iter()
            .map(|experiment| policy.instance(experiment, false))
            .collect();
        // Run the same stream through a bucketed and an unbucketed driver,
        // then read every instance's front back out of each engine's cache.
        let run = |bucketed: bool| {
            let engine = PortfolioEngine::default().with_threads(1);
            let driver = BatchDriver::new(BatchConfig {
                workers: 2,
                bucketed,
                ..BatchConfig::default()
            });
            let report = driver.run(&engine, instances.clone());
            let fronts: Vec<_> = problems
                .iter()
                .map(|problem| engine.solve(problem).front)
                .collect();
            (report, fronts)
        };
        let (plain_report, plain_fronts) = run(false);
        let (bucket_report, bucket_fronts) = run(true);

        assert_eq!(plain_report.buckets_dispatched, 0);
        assert!(bucket_report.buckets_dispatched > 0);
        assert_eq!(
            bucket_report.bucketed_instances + bucket_report.remainder_solves,
            bucket_report.instances
        );
        assert_eq!(
            plain_report.feasible_instances,
            bucket_report.feasible_instances
        );
        // The wins invariant holds in both modes (precomputed mega-kernel
        // runs are accounted like completed backend runs).
        for report in [&plain_report, &bucket_report] {
            let total_wins: usize = report.backend_stats.iter().map(|s| s.wins).sum();
            assert_eq!(
                total_wins,
                report.feasible_instances - report.cache_answered
            );
        }

        // Front-for-front: identical mappings (fingerprints), producing
        // backends, and criteria, instance by instance.
        for (plain, bucket) in plain_fronts.iter().zip(&bucket_fronts) {
            let key = |front: &crate::pareto::ParetoFront| -> Vec<_> {
                front
                    .points()
                    .iter()
                    .map(|p| {
                        (
                            p.fingerprint(),
                            p.backend,
                            p.evaluation.reliability.to_bits(),
                            p.evaluation.worst_case_period.to_bits(),
                            p.evaluation.worst_case_latency.to_bits(),
                        )
                    })
                    .collect()
            };
            assert_eq!(key(plain), key(bucket));
        }
    }

    #[test]
    fn heterogeneous_batches_use_the_heterogeneous_platform() {
        let engine = PortfolioEngine::default().with_threads(1);
        let driver = BatchDriver::new(BatchConfig {
            workers: 2,
            bounds: BoundsPolicy {
                period_slack: 3.0,
                latency_slack: 2.0,
            },
            heterogeneous: true,
            bucketed: false,
        });
        let generator = InstanceGenerator::paper_heterogeneous(11);
        let report = driver.run(&engine, generator.stream(6));
        assert_eq!(report.instances, 6);
        // The heterogeneous-only backend must have run.
        assert!(report
            .backend_stats
            .iter()
            .any(|s| s.backend == "Het-Sweep" && s.runs > 0));
        // The homogeneous-only exact solvers must not have.
        assert!(report
            .backend_stats
            .iter()
            .all(|s| s.backend != "Exhaustive"));
    }
}
