//! The parallel portfolio engine: races every applicable backend on an
//! instance across worker threads and aggregates their candidates into a
//! Pareto front.

use crate::backend::{Applicability, Budget, ProblemInstance, SolveContext, SolverBackend};
use crate::backends::default_backends;
use crate::cache::{CacheStats, InstanceCache, OracleCache};
use crate::pareto::{ParetoFront, StreamingFront};
use rpo_algorithms::DpScratch;
use rpo_obs::{Counter, Histogram};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What happened to one backend during a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The backend ran to completion.
    Completed,
    /// The backend was not applicable (with the reason).
    Skipped(&'static str),
    /// The time budget expired before the backend was dispatched.
    DeadlineExpired,
    /// The caller supplied this backend's candidates precomputed (e.g. from
    /// the batched SoA mega-kernel), so the backend was not dispatched; its
    /// candidates were re-certified and merged like a completed run's.
    Precomputed,
}

/// Per-backend outcome of one portfolio solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendRun {
    /// Backend name.
    pub backend: &'static str,
    /// What happened.
    pub status: RunStatus,
    /// Candidates the backend returned.
    pub candidates: usize,
    /// Candidates satisfying the instance bounds.
    pub feasible: usize,
    /// Wall-clock spent inside the backend, in microseconds.
    pub micros: u64,
}

/// The result of one portfolio solve.
#[derive(Debug, Clone, Default)]
pub struct PortfolioOutcome {
    /// The merged Pareto front (only bound-feasible candidates). Shared
    /// with the engine cache, so cache hits never deep-copy mappings.
    pub front: Arc<ParetoFront>,
    /// Per-backend diagnostics, in fixed backend order.
    pub runs: Vec<BackendRun>,
    /// Whether the front came from the instance cache.
    pub from_cache: bool,
    /// Whether the solve's deadline (budget time limit or an explicit
    /// [`PortfolioEngine::solve_until`] deadline) expired before every
    /// runnable backend could be dispatched. An expired solve's front is
    /// *partial* — whatever the backends that did run produced — and is
    /// deliberately not cached, so a later unconstrained solve of the same
    /// instance is not poisoned by it.
    pub deadline_expired: bool,
}

impl PortfolioOutcome {
    /// `true` if at least one feasible mapping was found.
    pub fn is_feasible(&self) -> bool {
        !self.front.is_empty()
    }
}

/// What one worker records for one backend: its slot index, final status,
/// bound-feasible candidate count, raw candidate count, and wall-clock
/// micros. The candidates themselves are not carried here — they stream
/// into the shared [`StreamingFront`] the moment the backend finishes.
type WorkerResult = (usize, RunStatus, usize, usize, u64);

/// A pool of [`DpScratch`] arenas shared across every solve of an engine:
/// the DP-based backends of a batch reuse allocations across *instances*
/// instead of growing fresh arenas per solve. Only allocations are pooled —
/// [`DpScratch::reset`] wipes all admissibility data on release, so no
/// instance ever sees another instance's warm-start state.
pub(crate) struct ScratchPool {
    stack: Mutex<Vec<DpScratch>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ScratchPool {
    pub(crate) fn new(capacity: usize) -> Self {
        ScratchPool {
            stack: Mutex::new(Vec::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Pops a pooled scratch (hit) or allocates a fresh one (miss).
    fn acquire(&self) -> DpScratch {
        let pooled = self.stack.lock().expect("scratch pool lock poisoned").pop();
        match pooled {
            Some(scratch) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                rpo_obs::counter!("cache.scratch.hits").inc();
                scratch
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                rpo_obs::counter!("cache.scratch.misses").inc();
                DpScratch::new()
            }
        }
    }

    /// Returns a scratch to the pool, wiping its instance-specific state
    /// first. Over-capacity arenas are dropped (counted as evictions).
    fn release(&self, mut scratch: DpScratch) {
        scratch.reset();
        let mut stack = self.stack.lock().expect("scratch pool lock poisoned");
        if stack.len() < self.capacity {
            stack.push(scratch);
        } else {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("cache.scratch.evictions").inc();
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A reusable, thread-safe portfolio solver.
///
/// The engine owns a set of [`SolverBackend`]s, a [`Budget`], and an LRU
/// instance cache. [`PortfolioEngine::solve`] takes `&self`, so one engine
/// can serve many threads concurrently (the batch driver does exactly that).
pub struct PortfolioEngine {
    backends: Vec<Box<dyn SolverBackend>>,
    budget: Budget,
    threads: usize,
    cache: Mutex<InstanceCache>,
    /// Chain-keyed oracle cache: near-duplicate instances (same chain and
    /// platform, different bounds) miss the front cache above but share one
    /// `Arc<IntervalOracle>` here, lifting the interval-metrics
    /// precomputation out of the per-solve path.
    oracles: Mutex<OracleCache>,
    /// DP-arena pool: one scratch per busy worker, reused across the
    /// instances of a batch (allocation reuse only).
    scratch: ScratchPool,
    /// Per-backend registry handles (`backend.solve.<name>` histograms and
    /// `backend.feasible.<name>` counters), resolved once at construction
    /// so the per-run hot path never does a name lookup.
    backend_obs: Vec<BackendObs>,
}

struct BackendObs {
    solve: Histogram,
    feasible: Counter,
}

impl Default for PortfolioEngine {
    fn default() -> Self {
        PortfolioEngine::new(default_backends(), Budget::default())
    }
}

impl PortfolioEngine {
    /// Default cache capacity (solved fronts kept in memory).
    pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

    /// Default oracle-cache capacity (shared interval-metrics kernels kept
    /// in memory; an oracle is O(n + p·classes) floats, far smaller than a
    /// front of mappings).
    pub const DEFAULT_ORACLE_CACHE_CAPACITY: usize = 256;

    /// Default scratch-pool capacity: enough for one busy DP backend per
    /// worker of a wide batch; arenas beyond it are simply dropped.
    pub const DEFAULT_SCRATCH_POOL_CAPACITY: usize = 64;

    /// An engine racing `backends` under `budget`, with one worker thread
    /// per available core.
    pub fn new(backends: Vec<Box<dyn SolverBackend>>, budget: Budget) -> Self {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        let registry = rpo_obs::global();
        let backend_obs = backends
            .iter()
            .map(|backend| BackendObs {
                solve: registry.histogram(&format!("backend.solve.{}", backend.name())),
                feasible: registry.counter(&format!("backend.feasible.{}", backend.name())),
            })
            .collect();
        PortfolioEngine {
            backends,
            budget,
            threads,
            cache: Mutex::new(InstanceCache::new(Self::DEFAULT_CACHE_CAPACITY)),
            oracles: Mutex::new(OracleCache::new(Self::DEFAULT_ORACLE_CACHE_CAPACITY)),
            scratch: ScratchPool::new(Self::DEFAULT_SCRATCH_POOL_CAPACITY),
            backend_obs,
        }
    }

    /// Sets the number of worker threads one [`PortfolioEngine::solve`] or
    /// [`PortfolioEngine::solve_until`] races its backends on (min 1). A
    /// [`BatchDriver`](crate::BatchDriver) ignores it: a batch solves each
    /// instance on one thread, whatever this is set to.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the instance-cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Mutex::new(InstanceCache::new(capacity));
        self
    }

    /// Sets the oracle-cache capacity (0 disables oracle sharing across
    /// solves: every solve builds a fresh oracle, as before this cache).
    pub fn with_oracle_cache_capacity(mut self, capacity: usize) -> Self {
        self.oracles = Mutex::new(OracleCache::new(capacity));
        self
    }

    /// The backend names, in fixed dispatch order.
    pub fn backend_names(&self) -> Vec<&'static str> {
        self.backends.iter().map(|b| b.name()).collect()
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache lock poisoned").stats()
    }

    /// Oracle-cache hit/miss counters.
    pub fn oracle_cache_stats(&self) -> CacheStats {
        self.oracles
            .lock()
            .expect("oracle cache lock poisoned")
            .stats()
    }

    /// Scratch-pool counters: hits are backend runs that reused a pooled DP
    /// arena from an earlier solve instead of allocating fresh.
    pub fn scratch_pool_stats(&self) -> CacheStats {
        self.scratch.stats()
    }

    /// Solves one instance: answers from the cache when possible, otherwise
    /// races all applicable backends in parallel and caches the result.
    pub fn solve(&self, instance: &ProblemInstance) -> PortfolioOutcome {
        self.solve_inner(instance, self.threads, Vec::new(), None)
    }

    /// The batch driver's solve: one instance on the calling thread, with
    /// optionally precomputed backend results. Each `(backend name,
    /// candidates)` pair replaces that backend's dispatch; the candidates
    /// take exactly a live backend's path (re-certified through the shared
    /// oracle, filtered by the instance bounds, merged into the streaming
    /// front), so the portfolio contract is unchanged. Shape-bucketing uses
    /// this seam: the SoA mega-kernel solves the Algo-1/Algo-2 DP for a
    /// whole bucket at once and hands each instance its lane results here,
    /// while every other backend still races normally. A backend named with
    /// an *empty* candidate list is still suppressed — the precomputed path
    /// ran that solver and found nothing, which a rerun could only
    /// reproduce.
    pub(crate) fn solve_inline(
        &self,
        instance: &ProblemInstance,
        precomputed: Vec<(&'static str, Vec<crate::backend::CandidateMapping>)>,
    ) -> PortfolioOutcome {
        self.solve_inner(instance, 1, precomputed, None)
    }

    /// [`PortfolioEngine::solve`] with an explicit wall-clock deadline for
    /// this call, tightening (never loosening) the budget's time limit.
    /// Backends not yet dispatched when the deadline passes are marked
    /// [`RunStatus::DeadlineExpired`] and the outcome's
    /// [`PortfolioOutcome::deadline_expired`] flag is set; the (partial)
    /// front is returned but not cached. This is the serving layer's
    /// entry point: a request's residual deadline maps directly onto it.
    pub fn solve_until(
        &self,
        instance: &ProblemInstance,
        deadline: Option<Instant>,
    ) -> PortfolioOutcome {
        self.solve_inner(instance, self.threads, Vec::new(), deadline)
    }

    /// The cached front for `instance`, if a previous solve stored one (only
    /// solves whose deadline did not expire are stored). Every solve entry
    /// point answers from this lookup first; the serving layer also calls it
    /// at admission, so a duplicate never takes a queue slot.
    pub fn cached(&self, instance: &ProblemInstance) -> Option<Arc<ParetoFront>> {
        self.cache
            .lock()
            .expect("cache lock poisoned")
            .get(instance)
    }

    /// Resolves the instance's shared interval-metrics oracle through the
    /// chain-keyed cache, building it outside the lock on a miss (concurrent
    /// batch workers must not serialize on construction; a rare duplicate
    /// build is cheaper than a critical section around it).
    pub(crate) fn oracle_for(&self, instance: &ProblemInstance) -> Arc<rpo_model::IntervalOracle> {
        let cached = self
            .oracles
            .lock()
            .expect("oracle cache lock poisoned")
            .get(instance);
        match cached {
            Some(oracle) => oracle,
            None => {
                let oracle = instance.build_oracle();
                self.oracles
                    .lock()
                    .expect("oracle cache lock poisoned")
                    .put(instance, Arc::clone(&oracle));
                oracle
            }
        }
    }

    fn solve_inner(
        &self,
        instance: &ProblemInstance,
        threads: usize,
        precomputed: Vec<(&'static str, Vec<crate::backend::CandidateMapping>)>,
        deadline_override: Option<Instant>,
    ) -> PortfolioOutcome {
        if let Some(front) = self.cached(instance) {
            return PortfolioOutcome {
                front,
                runs: Vec::new(),
                from_cache: true,
                deadline_expired: false,
            };
        }

        let _solve_span = rpo_obs::span!(
            "engine.solve",
            tasks = instance.chain.len(),
            threads = threads
        );
        let start = Instant::now();
        // Effective deadline: the tighter of the budget's time limit and the
        // caller's explicit deadline (a serve request's residual deadline).
        let deadline = match (
            self.budget.time_limit.map(|limit| start + limit),
            deadline_override,
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };

        // Applicability pass: fixed backend order. Backends whose results
        // arrive precomputed are not dispatched.
        let mut runs: Vec<BackendRun> = self
            .backends
            .iter()
            .map(|backend| {
                let status = if precomputed.iter().any(|(name, _)| *name == backend.name()) {
                    RunStatus::Precomputed
                } else {
                    match backend.applicability(instance, &self.budget) {
                        Applicability::Applicable => RunStatus::Completed, // provisional
                        Applicability::Skip(reason) => RunStatus::Skipped(reason),
                    }
                };
                BackendRun {
                    backend: backend.name(),
                    status,
                    candidates: 0,
                    feasible: 0,
                    micros: 0,
                }
            })
            .collect();
        let runnable: Vec<usize> = (0..self.backends.len())
            .filter(|&i| runs[i].status == RunStatus::Completed)
            .collect();

        // One interval-metrics oracle per instance, shared by every backend —
        // resolved through the chain-keyed cache, so near-duplicate instances
        // (same chain/platform, different bounds) reuse a previous solve's
        // oracle instead of rebuilding the Eq. 5–9 precomputation.
        let oracle = self.oracle_for(instance);

        // Race the runnable backends: worker threads pull indices from a
        // shared queue, so a slow backend never blocks the others. Feasible
        // candidates stream into the shared front the moment each backend
        // finishes (ParetoFront::insert is insertion-order independent, so
        // the front still never depends on thread scheduling).
        let queue = AtomicUsize::new(0);
        let expired = AtomicBool::new(false);
        let streaming = StreamingFront::new();

        // Seed the front with the precomputed results, through the same
        // re-certify → bound-filter → merge pipeline a live backend's
        // candidates take.
        for (name, mut candidates) in precomputed {
            let total = candidates.len();
            for candidate in &mut candidates {
                candidate.evaluation = oracle.evaluate(&candidate.mapping);
            }
            candidates.retain(|c| instance.admits(&c.evaluation));
            let feasible = candidates.len();
            if let Some(index) = self.backends.iter().position(|b| b.name() == name) {
                runs[index].candidates = total;
                runs[index].feasible = feasible;
                self.backend_obs[index].feasible.add(feasible as u64);
            }
            for candidate in candidates {
                streaming.insert(candidate);
            }
        }
        let results: Mutex<Vec<WorkerResult>> = Mutex::new(Vec::with_capacity(runnable.len()));
        let workers = threads.max(1).min(runnable.len().max(1));

        let worker = || {
            // One pooled DP scratch per worker, reused across every backend
            // this worker runs, and returned to the pool (reset) at the end.
            let mut scratch = self.scratch.acquire();
            loop {
                // Deadline check *before* dequeuing the next slot: when the
                // budget expires mid-backend, the worker returning from that
                // backend latches the expiry here, so every undispatched slot
                // — including ones other workers are about to pull — is shed
                // promptly and reported instead of silently starting late.
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    expired.store(true, Ordering::Release);
                }
                let slot = queue.fetch_add(1, Ordering::Relaxed);
                let Some(&index) = runnable.get(slot) else {
                    break;
                };
                let backend = &self.backends[index];

                let outcome = if expired.load(Ordering::Acquire)
                    || deadline.is_some_and(|d| Instant::now() >= d)
                {
                    expired.store(true, Ordering::Release);
                    (RunStatus::DeadlineExpired, 0, 0, 0)
                } else {
                    let backend_span = rpo_obs::recorder().span_fields("backend.solve", || {
                        vec![("backend".to_string(), backend.name().into())]
                    });
                    let backend_start = Instant::now();
                    let mut ctx = SolveContext {
                        scratch: &mut scratch,
                        front: Some(&streaming),
                    };
                    let mut candidates = backend.solve(instance, &oracle, &self.budget, &mut ctx);
                    let elapsed = backend_start.elapsed();
                    drop(backend_span);
                    self.backend_obs[index].solve.record(elapsed);
                    let micros = elapsed.as_micros() as u64;
                    let total = candidates.len();
                    // Re-certify through the shared oracle *before* the
                    // bound filter, so feasibility and front dominance judge
                    // one consistent evaluation (a backend's own evaluation
                    // could differ by an ulp around a bound).
                    for candidate in &mut candidates {
                        candidate.evaluation = oracle.evaluate(&candidate.mapping);
                    }
                    candidates.retain(|c| instance.admits(&c.evaluation));
                    let feasible = candidates.len();
                    self.backend_obs[index].feasible.add(feasible as u64);
                    for candidate in candidates {
                        streaming.insert(candidate);
                    }
                    (RunStatus::Completed, feasible, total, micros)
                };
                let (run_status, feasible, total, micros) = outcome;
                results
                    .lock()
                    .expect("result lock poisoned")
                    .push((index, run_status, feasible, total, micros));
            }
            self.scratch.release(scratch);
        };
        if workers <= 1 {
            // Single-worker solves run inline on the calling thread: a batch
            // driver racing many instances across its own workers must not
            // pay a thread spawn per backend of every solve.
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        for (index, status, feasible, total, micros) in
            results.into_inner().expect("result lock poisoned")
        {
            runs[index].status = status;
            runs[index].feasible = feasible;
            runs[index].candidates = total;
            runs[index].micros = micros;
        }

        let deadline_expired = expired.load(Ordering::Acquire)
            || runs
                .iter()
                .any(|run| run.status == RunStatus::DeadlineExpired);
        let front = Arc::new(streaming.into_front());
        if deadline_expired {
            // A deadline-expired front is partial: caching it would poison
            // later unconstrained solves (and coalesced duplicate requests in
            // the serving layer) with whatever subset of backends happened to
            // finish in time.
            rpo_obs::counter!("engine.deadline_expired").inc();
        } else {
            self.cache
                .lock()
                .expect("cache lock poisoned")
                .put(instance, Arc::clone(&front));
        }
        PortfolioOutcome {
            front,
            runs,
            from_cache: false,
            deadline_expired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Platform, TaskChain};

    fn instance() -> ProblemInstance {
        let chain =
            TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap();
        let platform = Platform::homogeneous(5, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        ProblemInstance::new(chain, platform, 70.0, 130.0).unwrap()
    }

    #[test]
    fn solve_produces_a_non_dominated_feasible_front() {
        let engine = PortfolioEngine::default();
        let outcome = engine.solve(&instance());
        assert!(outcome.is_feasible());
        assert!(outcome.front.is_mutually_non_dominated());
        for point in outcome.front.points() {
            assert!(point.evaluation.worst_case_period <= 70.0 + 1e-9);
            assert!(point.evaluation.worst_case_latency <= 130.0 + 1e-9);
        }
        // The exhaustive backend ran, so the front's best reliability is the
        // certified optimum.
        let instance = instance();
        let exact = rpo_algorithms::exact::optimal_homogeneous(
            &instance.build_oracle(),
            &instance.chain,
            &instance.platform,
            70.0,
            130.0,
        )
        .unwrap();
        let best = outcome.front.best_reliability().unwrap();
        assert!((best.evaluation.reliability - exact.reliability).abs() < 1e-12);
    }

    #[test]
    fn repeated_solves_hit_the_cache_and_agree() {
        let engine = PortfolioEngine::default();
        let first = engine.solve(&instance());
        let second = engine.solve(&instance());
        assert!(!first.from_cache);
        assert!(second.from_cache);
        let criteria = |outcome: &PortfolioOutcome| -> Vec<(f64, f64, f64)> {
            outcome
                .front
                .points()
                .iter()
                .map(|p| {
                    (
                        p.evaluation.reliability,
                        p.evaluation.worst_case_period,
                        p.evaluation.worst_case_latency,
                    )
                })
                .collect()
        };
        assert_eq!(criteria(&first), criteria(&second));
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn runs_report_skips_with_reasons() {
        let engine = PortfolioEngine::default();
        let outcome = engine.solve(&instance());
        // On a homogeneous platform the heterogeneous sweep must be skipped.
        let het = outcome
            .runs
            .iter()
            .find(|r| r.backend == "Het-Sweep")
            .unwrap();
        assert!(matches!(het.status, RunStatus::Skipped(_)));
        let completed = outcome
            .runs
            .iter()
            .filter(|r| r.status == RunStatus::Completed)
            .count();
        assert!(
            completed >= 5,
            "expected at least five backends to run, got {completed}"
        );
    }

    #[test]
    fn near_duplicate_instances_share_one_oracle() {
        let engine = PortfolioEngine::default();
        let base = instance();
        let mut tighter = base.clone();
        tighter.period_bound = 60.0;
        let first = engine.solve(&base);
        let second = engine.solve(&tighter);
        // Different bounds: the front cache misses, the oracle cache hits.
        assert!(!first.from_cache && !second.from_cache);
        let stats = engine.oracle_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        // Both fronts are valid for their own bounds.
        for point in second.front.points() {
            assert!(point.evaluation.worst_case_period <= 60.0 + 1e-9);
        }
    }

    #[test]
    fn disabled_oracle_cache_builds_fresh_oracles() {
        let engine = PortfolioEngine::default().with_oracle_cache_capacity(0);
        let base = instance();
        let mut tighter = base.clone();
        tighter.period_bound = 60.0;
        let a = engine.solve(&base);
        let b = engine.solve(&tighter);
        assert!(a.is_feasible() && b.is_feasible());
        assert_eq!(engine.oracle_cache_stats().hits, 0);
    }

    #[test]
    fn single_threaded_and_parallel_solves_agree() {
        let sequential = PortfolioEngine::default().with_threads(1);
        let parallel = PortfolioEngine::default().with_threads(8);
        let a = sequential.solve(&instance());
        let b = parallel.solve(&instance());
        let keys = |outcome: &PortfolioOutcome| -> Vec<(u64, &'static str)> {
            outcome
                .front
                .points()
                .iter()
                .map(|p| (p.fingerprint(), p.backend))
                .collect()
        };
        assert_eq!(keys(&a), keys(&b));
    }
}
