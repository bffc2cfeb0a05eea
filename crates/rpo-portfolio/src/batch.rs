//! The batch driver: streams thousands of instances through the portfolio
//! engine across worker threads and reports throughput and per-backend win
//! rates.

use crate::backend::{CandidateMapping, ProblemInstance};
use crate::cache::CacheStats;
use crate::engine::{PortfolioEngine, PortfolioOutcome, Precomputed, RunStatus};
use rpo_algorithms::{solve_batch, BatchLane, BatchScratch, LANES};
use rpo_model::{CanonicalHasher, IntervalOracle, Platform, TaskChain};
use rpo_obs::MetricsSnapshot;
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

    /// Builds the portfolio instance for `chain` on `platform`.
    pub fn instance(&self, chain: &TaskChain, platform: &Platform) -> ProblemInstance {
        let speed = platform.max_speed();
        ProblemInstance {
            chain: chain.clone(),
            platform: platform.clone(),
            period_bound: self.period_slack * chain.max_task_work() / speed,
            latency_bound: self.latency_slack * chain.total_work() / speed,
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
    /// Full `LANES`-wide shape buckets dispatched through the SoA
    /// mega-kernel.
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
    /// Instances solved one at a time on the per-instance path: the
    /// bucketing-ineligible ones (heterogeneous platform, out-of-range shape)
    /// and the leftovers of shape buckets that never filled.
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
/// per-instance path and the bucketed mega-kernel path, so both paths
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
        // completed run so win rates stay comparable across paths.
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

/// Dispatches one full shape bucket: the SoA mega-kernel solves the Algo-1
/// DP (all lanes unbounded) and, where period bounds are finite, the Algo-2
/// DP (actual per-lane bounds) for every instance at once; each instance then
/// finishes through an inline engine solve that re-certifies the lane
/// results on the lane's oracle and races the remaining backends. Each lane
/// is charged an equal share of each kernel pass's wall time.
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
    // One timed kernel pass over every lane: unbounded (Algo-1), or under
    // each lane's finite period bound (Algo-2).
    let mut pass = |bounded: bool| {
        let lanes: Vec<BatchLane> = instances
            .iter()
            .zip(&oracles)
            .map(|(inst, oracle)| BatchLane {
                oracle,
                chain: &inst.chain,
                platform: &inst.platform,
                period_bound: (bounded && inst.period_bound.is_finite())
                    .then_some(inst.period_bound),
            })
            .collect();
        let start = Instant::now();
        let solutions = solve_batch(&lanes, scratch);
        (solutions, start.elapsed() / instances.len() as u32)
    };
    let (algo1, algo1_share) = pass(false);
    // The Algo-2 pass runs only when some lane has a finite bound (matching
    // the Algo-2 backend's applicability gate); without one it would just
    // repeat the Algo-1 result.
    let (algo2, algo2_share) = if instances.iter().any(|inst| inst.period_bound.is_finite()) {
        pass(true)
    } else {
        (vec![None; instances.len()], Duration::ZERO)
    };

    for (((instance, oracle), algo1), algo2) in instances.iter().zip(oracles).zip(algo1).zip(algo2)
    {
        let candidates = |solution: Option<rpo_algorithms::OptimalMapping>, name| {
            solution
                .map(|s| {
                    vec![CandidateMapping::evaluate_with_oracle(
                        name, &oracle, s.mapping,
                    )]
                })
                .unwrap_or_default()
        };
        let mut runs = vec![("Algo-1", candidates(algo1, "Algo-1"), algo1_share)];
        if instance.period_bound.is_finite() {
            runs.push(("Algo-2", candidates(algo2, "Algo-2"), algo2_share));
        }
        let solve_start = Instant::now();
        let outcome = engine.solve_inline(instance, Some(Precomputed { oracle, runs }));
        rpo_obs::histogram!("batch.solve").record(solve_start.elapsed());
        record_outcome(local, &outcome);
        local.bucketed += 1;
    }
}

/// Solves one instance on the per-instance path (every backend races on
/// this thread) and counts it as a remainder solve.
fn solve_remainder(engine: &PortfolioEngine, instance: &ProblemInstance, local: &mut Tally) {
    local.remainder += 1;
    rpo_obs::counter!("dp.batch.remainder_solves").inc();
    let solve_start = Instant::now();
    let outcome = engine.solve_inline(instance, None);
    rpo_obs::histogram!("batch.solve").record(solve_start.elapsed());
    record_outcome(local, &outcome);
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
///
/// The driver picks each instance's path itself. A homogeneous instance
/// within the mega-kernel's ranges is parked in its shape bucket; every
/// bucket that fills to `LANES` instances runs its Algo-1/Algo-2 DP through
/// the batched SoA mega-kernel ([`rpo_algorithms::solve_batch`]), one
/// instance per SIMD lane, while the other backends still race per
/// instance. Every other instance, and at stream end the leftovers of
/// buckets that never filled, is solved on the per-instance path. Both
/// paths give bit-identical fronts.
pub struct BatchDriver {
    workers: usize,
}

impl Default for BatchDriver {
    /// One worker per available core.
    fn default() -> Self {
        BatchDriver::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl BatchDriver {
    /// A driver with `workers` worker threads (min 1).
    pub fn new(workers: usize) -> Self {
        BatchDriver {
            workers: workers.max(1),
        }
    }

    /// Runs every instance through `engine` and aggregates the per-backend
    /// statistics. The input is consumed lazily, one instance at a time as
    /// workers become free; besides the instances in flight, the driver
    /// holds at most `LANES − 1` parked instances per distinct shape, so a
    /// batch of any length runs in O(workers + shapes × (LANES − 1)) memory.
    pub fn run<I>(&self, engine: &PortfolioEngine, instances: I) -> BatchReport
    where
        I: IntoIterator<Item = ProblemInstance>,
        I::IntoIter: Send,
    {
        let _span = rpo_obs::span!("batch.drive", workers = self.workers);
        // The report embeds only the metrics recorded during *this* batch:
        // snapshot the global registry now and export the delta at the end.
        let metrics_base = rpo_obs::global().snapshot();
        let start = Instant::now();
        // Workers pull the next instance from the mutex-guarded iterator
        // (held only while producing one instance).
        let source = Mutex::new(instances.into_iter());
        // Shape buckets filling towards LANES-wide mega-kernel dispatches,
        // shared by all workers; whichever worker completes a bucket
        // dispatches it (outside the map lock).
        let buckets: Mutex<HashMap<u64, Vec<ProblemInstance>>> = Mutex::new(HashMap::new());

        let tally: Mutex<Tally> = Mutex::new(Tally::default());
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
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
                        let Some(key) = bucket_key(&instance) else {
                            solve_remainder(engine, &instance, &mut local);
                            continue;
                        };
                        // Park the instance in its shape bucket; a full
                        // bucket is taken (inside the lock) and dispatched
                        // (outside it) by this worker.
                        let full = {
                            let mut map = buckets.lock().expect("bucket map lock poisoned");
                            let bucket = map.entry(key).or_default();
                            bucket.push(instance);
                            (bucket.len() >= LANES).then(|| std::mem::take(bucket))
                        };
                        if let Some(batch) = full {
                            solve_bucket(engine, &batch, &mut batch_scratch, &mut local);
                        }
                    }
                    // Stream exhausted: the leftovers of buckets that never
                    // filled take the per-instance path, shared across
                    // whichever workers finish first. None is missed: a
                    // worker only exits its solve loop after its last
                    // insert, and drains the map afterwards.
                    loop {
                        let leftovers = {
                            let mut map = buckets.lock().expect("bucket map lock poisoned");
                            let key = map.keys().next().copied();
                            key.and_then(|k| map.remove(&k))
                        };
                        let Some(leftovers) = leftovers else {
                            break;
                        };
                        for instance in &leftovers {
                            solve_remainder(engine, instance, &mut local);
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
    use crate::pareto::ParetoFront;
    use rpo_workload::InstanceGenerator;

    /// `count` paper instances on their homogeneous platforms, under the
    /// default bounds.
    fn paper_homogeneous(seed: u64, count: usize) -> Vec<ProblemInstance> {
        InstanceGenerator::paper_homogeneous(seed)
            .stream(count)
            .map(|e| BoundsPolicy::default().instance(&e.chain, &e.homogeneous))
            .collect()
    }

    /// The bitwise identity of a front: each point's mapping fingerprint,
    /// producing backend and criteria bits.
    fn front_key(front: &ParetoFront) -> Vec<(u64, &'static str, u64, u64, u64)> {
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
    }

    /// Each instance's front as the batch engine cached it equals a fresh
    /// engine's per-instance solve (which never buckets), bit for bit.
    fn assert_fronts_match_per_instance_solves(
        engine: &PortfolioEngine,
        instances: &[ProblemInstance],
    ) {
        for (index, instance) in instances.iter().enumerate() {
            let batched = engine.cached(instance).expect("batch cached every front");
            let fresh = PortfolioEngine::default().solve(instance).front;
            assert_eq!(front_key(&batched), front_key(&fresh), "instance {index}");
        }
    }

    #[test]
    fn small_batch_reports_consistent_counts() {
        let engine = PortfolioEngine::default().with_threads(1);
        let report = BatchDriver::new(2).run(&engine, paper_homogeneous(2024, 12));
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
        let mut instances = paper_homogeneous(7, 3);
        instances.extend(paper_homogeneous(7, 3)); // same three again
        let report = BatchDriver::new(1).run(&engine, instances);
        assert_eq!(report.instances, 6);
        assert_eq!(report.cache_answered, 3);
        assert_eq!(report.cache.hits, 3);
    }

    #[test]
    fn bucketed_batches_match_the_unbucketed_front_for_front() {
        // 20 one-shape paper instances: two full buckets through the
        // mega-kernel, four leftovers on the per-instance path.
        let instances = paper_homogeneous(31, 20);
        let engine = PortfolioEngine::default().with_threads(1);
        let report = BatchDriver::new(2).run(&engine, instances.clone());
        assert_eq!(report.buckets_dispatched, 2);
        assert_eq!(report.bucketed_instances, 2 * LANES);
        assert_eq!(report.remainder_solves, 20 - 2 * LANES);
        // The wins invariant holds on both paths (precomputed mega-kernel
        // runs are accounted like completed backend runs).
        let total_wins: usize = report.backend_stats.iter().map(|s| s.wins).sum();
        assert_eq!(
            total_wins,
            report.feasible_instances - report.cache_answered
        );
        assert_fronts_match_per_instance_solves(&engine, &instances);
    }

    #[test]
    fn only_full_buckets_take_the_mega_kernel() {
        // One shape, 10 instances: one full bucket and 2 leftovers.
        let engine = PortfolioEngine::default().with_threads(1);
        let report = BatchDriver::new(2).run(&engine, paper_homogeneous(0x5EED, 10));
        assert_eq!(report.buckets_dispatched, 1);
        assert_eq!(report.bucketed_instances, LANES);
        assert_eq!(report.remainder_solves, 10 - LANES);

        // Distinct shapes (the processor count sets the bucket): no bucket
        // ever fills, and every front equals its per-instance solve.
        let instances: Vec<ProblemInstance> = InstanceGenerator::paper_homogeneous(0x5EED)
            .stream(10)
            .enumerate()
            .map(|(index, e)| {
                let platform = Platform::homogeneous(3 + index, 1.0, 1e-5, 1.0, 1e-6, 3)
                    .expect("valid platform");
                BoundsPolicy::default().instance(&e.chain, &platform)
            })
            .collect();
        let engine = PortfolioEngine::default().with_threads(1);
        let report = BatchDriver::new(2).run(&engine, instances.clone());
        assert_eq!(report.buckets_dispatched, 0);
        assert_eq!(report.bucketed_instances, 0);
        assert_eq!(report.remainder_solves, 10);
        assert_fronts_match_per_instance_solves(&engine, &instances);
    }

    #[test]
    fn bucketed_instances_look_up_their_oracle_once() {
        // Distinct instances share no oracle: two full buckets must report
        // no oracle-cache hit, like the per-instance path.
        let engine = PortfolioEngine::default().with_threads(1);
        let report = BatchDriver::new(2).run(&engine, paper_homogeneous(0x0AC1, 2 * LANES));
        assert_eq!(report.bucketed_instances, 2 * LANES);
        assert_eq!(report.oracle_cache.hits, 0);
        assert_eq!(report.oracle_cache.misses, 2 * LANES as u64);
    }

    #[test]
    fn heterogeneous_batches_use_the_heterogeneous_platform() {
        let engine = PortfolioEngine::default().with_threads(1);
        let bounds = BoundsPolicy {
            period_slack: 3.0,
            latency_slack: 2.0,
        };
        let instances = InstanceGenerator::paper_heterogeneous(11)
            .stream(6)
            .map(|e| bounds.instance(&e.chain, &e.heterogeneous));
        let report = BatchDriver::new(2).run(&engine, instances);
        assert_eq!(report.instances, 6);
        // Heterogeneous instances never bucket.
        assert_eq!(report.remainder_solves, 6);
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
