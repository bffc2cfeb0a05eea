//! The [`SolverBackend`] abstraction: one uniform `solve` interface over
//! every solver of `rpo-algorithms`, with per-backend applicability checks.
//!
//! Every solve receives the instance's shared [`IntervalOracle`], built once
//! by the engine and handed to all backends, so none of them recomputes the
//! Eq. 5–9 interval metrics from scratch.

use crate::pareto::StreamingFront;
use rpo_algorithms::DpScratch;
use rpo_model::{
    Canonical, CanonicalHasher, IntervalOracle, Mapping, MappingEvaluation, Platform, TaskChain,
};
use std::sync::Arc;
use std::time::Duration;

/// One tri-criteria problem instance: a chain, a platform, and the real-time
/// bounds a mapping must satisfy (`f64::INFINITY` for an absent bound).
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemInstance {
    /// The task chain.
    pub chain: TaskChain,
    /// The target platform.
    pub platform: Platform,
    /// Worst-case period bound `P`.
    pub period_bound: f64,
    /// Worst-case latency bound `L`.
    pub latency_bound: f64,
}

impl ProblemInstance {
    /// Creates an instance, validating that both bounds are positive
    /// (`f64::INFINITY` is allowed and means "unbounded").
    pub fn new(
        chain: TaskChain,
        platform: Platform,
        period_bound: f64,
        latency_bound: f64,
    ) -> Result<Self, String> {
        if period_bound <= 0.0 || period_bound.is_nan() {
            return Err("period bound must be positive (or infinite)".to_string());
        }
        if latency_bound <= 0.0 || latency_bound.is_nan() {
            return Err("latency bound must be positive (or infinite)".to_string());
        }
        Ok(ProblemInstance {
            chain,
            platform,
            period_bound,
            latency_bound,
        })
    }

    /// An instance with no real-time bounds (pure reliability optimization).
    pub fn unbounded(chain: TaskChain, platform: Platform) -> Self {
        ProblemInstance {
            chain,
            platform,
            period_bound: f64::INFINITY,
            latency_bound: f64::INFINITY,
        }
    }

    /// The canonical cache key of this instance: a structure-sensitive hash
    /// of `(chain, platform, period bound, latency bound)`.
    pub fn canonical_key(&self) -> u64 {
        let mut hasher = CanonicalHasher::new();
        self.chain.canonical_digest(&mut hasher);
        self.platform.canonical_digest(&mut hasher);
        hasher.write_f64(self.period_bound);
        hasher.write_f64(self.latency_bound);
        hasher.finish()
    }

    /// Whether `evaluation` satisfies this instance's bounds.
    pub fn admits(&self, evaluation: &MappingEvaluation) -> bool {
        evaluation.meets(self.period_bound, self.latency_bound)
    }

    /// The chain-level cache key of this instance: the canonical hash of
    /// `(chain, platform)` **without** the bounds. Instances that differ only
    /// in their bounds share this key — and therefore share one cached
    /// [`IntervalOracle`] in the engine's oracle cache.
    pub fn oracle_key(&self) -> u64 {
        rpo_model::oracle_cache_key(&self.chain, &self.platform)
    }

    /// Builds the shared interval-metrics oracle for this instance. The
    /// engine resolves oracles through its chain-keyed cache (see
    /// [`Self::oracle_key`]) and hands the same `Arc` to every backend; the
    /// oracle is derived data and not part of the instance cache key.
    pub fn build_oracle(&self) -> Arc<IntervalOracle> {
        IntervalOracle::shared(&self.chain, &self.platform)
    }

    /// A finite stand-in for the period bound, the top of `Het-Sweep`'s
    /// ladder of period targets when the instance has no bound: the worst
    /// possible single-interval period on the slowest processor, doubled.
    pub fn finite_period_bound(&self) -> f64 {
        if self.period_bound.is_finite() {
            self.period_bound
        } else {
            2.0 * self.chain.total_work() / self.platform.min_speed()
                + self.platform.comm_time(self.chain.max_boundary_output())
        }
    }
}

/// Resource limits under which a backend runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Wall-clock limit for one whole portfolio solve. Backends not yet
    /// started when it expires are skipped (running ones finish).
    pub time_limit: Option<Duration>,
    /// Largest chain length the exhaustive-enumeration solver accepts
    /// (`O(2^{n-1})` partitions).
    pub max_exhaustive_tasks: usize,
    /// Largest chain length the ILP solver accepts (its branch-and-bound
    /// grows much faster than the exhaustive enumeration).
    pub max_ilp_tasks: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            time_limit: None,
            max_exhaustive_tasks: 14,
            max_ilp_tasks: 8,
        }
    }
}

impl Budget {
    /// A budget with a wall-clock limit per portfolio solve.
    pub fn with_time_limit(limit: Duration) -> Self {
        Budget {
            time_limit: Some(limit),
            ..Budget::default()
        }
    }
}

/// Whether a backend can run on an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applicability {
    /// The backend can run.
    Applicable,
    /// The backend cannot run, with the reason (e.g. "heterogeneous
    /// platform", "instance too large").
    Skip(&'static str),
}

impl Applicability {
    /// `true` iff the backend can run.
    pub fn is_applicable(&self) -> bool {
        matches!(self, Applicability::Applicable)
    }
}

/// One mapping proposed by a backend, with its five-criteria evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateMapping {
    /// Name of the backend that produced the mapping.
    pub backend: &'static str,
    /// The proposed mapping.
    pub mapping: Mapping,
    /// Its evaluation on the instance.
    pub evaluation: MappingEvaluation,
}

impl CandidateMapping {
    /// Builds a candidate by evaluating `mapping` on the instance.
    pub fn evaluate(backend: &'static str, instance: &ProblemInstance, mapping: Mapping) -> Self {
        let evaluation = MappingEvaluation::evaluate(&instance.chain, &instance.platform, &mapping);
        CandidateMapping {
            backend,
            mapping,
            evaluation,
        }
    }

    /// Builds a candidate through the shared oracle's fast evaluation path
    /// (bit-identical to [`CandidateMapping::evaluate`]).
    pub fn evaluate_with_oracle(
        backend: &'static str,
        oracle: &IntervalOracle,
        mapping: Mapping,
    ) -> Self {
        let evaluation = oracle.evaluate(&mapping);
        CandidateMapping {
            backend,
            mapping,
            evaluation,
        }
    }

    /// A deterministic fingerprint of the mapping structure, used for
    /// tie-breaking between criteria-identical candidates.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = CanonicalHasher::new();
        hasher.write_usize(self.mapping.num_intervals());
        for mapped in self.mapping.intervals() {
            hasher.write_usize(mapped.interval.first);
            hasher.write_usize(mapped.interval.last);
            hasher.write_usize(mapped.processors.len());
            for &processor in &mapped.processors {
                hasher.write_usize(processor);
            }
        }
        hasher.finish()
    }
}

/// Mutable per-solve state the engine lends to each backend run: a pooled
/// DP scratch (allocation reuse across the instances of a batch) and a live
/// view of the solve's streaming Pareto front for mid-solve dominance
/// probes.
pub struct SolveContext<'a> {
    /// DP arenas from the engine's scratch pool. [`DpScratch::reset`] was
    /// called before lending, so only allocations carry over between
    /// instances — never another instance's admissibility data.
    pub scratch: &'a mut DpScratch,
    /// The solve's streaming front, when the engine is racing one. Backends
    /// that sweep many candidate profiles can call
    /// [`StreamingFront::is_dominated`] mid-solve and abandon profiles that
    /// are already strictly dominated — dominance only ever tightens as the
    /// front grows, so an early abandon can never change the final front.
    pub front: Option<&'a StreamingFront>,
}

impl SolveContext<'_> {
    /// Whether `candidate` is already strictly dominated by the front being
    /// streamed into (always `false` when no front is attached).
    pub fn is_dominated(&self, candidate: &CandidateMapping) -> bool {
        self.front
            .is_some_and(|front| front.is_dominated(candidate))
    }
}

/// A solver that can participate in the portfolio race.
///
/// Implementations adapt the entry points of `rpo-algorithms` (Algorithms
/// 1–2, the period minimizer, the heterogeneous class DP, the Section 7
/// heuristics, the exact solvers) to one uniform interface. `solve` returns
/// *all* candidate mappings worth aggregating — heuristic backends typically
/// return one candidate per interval count, enriching the Pareto front
/// beyond the single best-reliability answer.
pub trait SolverBackend: Send + Sync {
    /// Short display name (`"Algo-1"`, `"Heur-P"`, "`ILP`", …).
    fn name(&self) -> &'static str;

    /// Whether this backend can run on `instance` under `budget`.
    fn applicability(&self, instance: &ProblemInstance, budget: &Budget) -> Applicability;

    /// Runs the backend and returns its candidate mappings (possibly empty).
    /// Candidates need not satisfy the instance bounds; the engine filters.
    ///
    /// `oracle` is the instance's shared interval-metrics kernel: one
    /// `Arc<IntervalOracle>` built per solve and handed to every backend.
    /// `ctx` lends the engine's pooled DP scratch and (when racing) the live
    /// streaming front.
    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping>;
}
