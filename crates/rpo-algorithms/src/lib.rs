//! Optimal algorithms and heuristics for the multiprocessor interval-mapping
//! problem of pipelined real-time systems.
//!
//! This crate is the paper's primary contribution:
//!
//! * **Polynomial optimal algorithms on homogeneous platforms**
//!   * [`algo1`] — Algorithms 1 and 2: reliability optimization by dynamic
//!     programming (`O(n² p K)`), without or under a period bound;
//!   * [`period_opt`] — the converse problem (minimal period under a
//!     reliability bound): a greedy feasibility search over the candidate
//!     periods and one Algorithm 2 run, with the paper's binary search as
//!     fallback;
//!   * [`alloc`] — Algo-Alloc (Theorem 4): optimal greedy allocation of
//!     processors to a fixed interval partition;
//!   * [`batch_kernel`] — the batched SoA mega-kernel: the Algorithm 1/2
//!     recurrence over many same-shape instances in lockstep, one instance
//!     per SIMD lane.
//! * **Heterogeneous solvers**
//!   * [`algo_het`](mod@algo_het) — exact reliability optimization by
//!     class-level dynamic programming (tractable whenever the platform has
//!     few distinct processor classes; greedy fallback otherwise);
//!   * [`het_kernel`] — the chunked gather/compact/sweep kernel behind
//!     `algo_het`'s class DP (the scalar inner loop stays available as the
//!     differential reference);
//!   * [`algo_het_lat`](mod@algo_het_lat) — the tri-criteria extension: exact reliability
//!     optimization under period **and latency** bounds, by a label DP over
//!     `(boundary, budgets, latency-so-far)` states with a Lagrangian
//!     penalty sweep as fallback;
//!   * [`alloc_het`] — the Section 7.2 period-aware greedy allocation of
//!     heterogeneous processors to a fixed partition.
//! * **Heuristics for the NP-complete cases** (latency bound on homogeneous
//!   platforms, large-class-count heterogeneous platforms)
//!   * [`heur_l`] — Algorithm 3: intervals cut at the smallest communication
//!     costs (latency-oriented);
//!   * [`heur_p`] — Algorithm 4: work-balanced intervals by dynamic
//!     programming, every interval count from one table (period-oriented);
//!   * [`heuristic`] — the complete two-step heuristics used in the
//!     experiments (interval computation for every possible interval count,
//!     then allocation, then feasibility filtering).
//! * **Exact solvers for small instances**
//!   * [`exact::exhaustive`] — provably optimal homogeneous tri-criteria
//!     solver by exhaustive partition enumeration + Algo-Alloc;
//!   * [`exact::ilp`] — the Section 5.4 integer linear program, solved with
//!     the `rpo-lp` branch-and-bound (the CPLEX substitute);
//!   * [`exact::brute_force`] — reference brute-force over partitions *and*
//!     allocations for tiny instances (used to validate everything else).
//!
//! Every algorithm has exactly one public function. It takes the shared
//! [`rpo_model::IntervalOracle`] first, then the chain, the platform and
//! its own parameters, and a [`DpScratch`] last when it runs a dynamic
//! program over reusable arenas. A caller solving one instance builds the
//! oracle with `IntervalOracle::new(&chain, &platform)`. Only the
//! independent references the tests compare against (`brute_force`,
//! `exhaustive_het`, `exhaustive_het_lat`, `exhaustive_alloc`) build their
//! own oracle, and the `*_with_kernel` functions select a kernel for
//! equivalence tests and measurements.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo1;
pub mod algo_het;
pub mod algo_het_lat;
pub mod alloc;
pub mod alloc_het;
pub mod batch_kernel;
pub mod energy_aware;
pub mod exact;
pub mod het_kernel;
pub mod heur_l;
pub mod heur_p;
pub mod heuristic;
pub mod period_opt;

pub use algo1::{
    optimize_reliability, reliability_dp_with_kernel, repair_reliability_dp, DpKernel, DpScratch,
    OptimalMapping, WarmPath, LANES,
};
pub use algo_het::{
    algo_het, class_dp_with_kernel, exhaustive_het, greedy_het, het_dp_applicable,
    het_dp_applicable_platform, HetMethod, HetSolution,
};
pub use algo_het_lat::{
    algo_het_lat, exhaustive_het_lat, greedy_het_lat, HetLatFrontPoint, HetLatMethod,
    HetLatSolution, MAX_LAT_LABELS,
};
pub use alloc::{algo_alloc, exhaustive_alloc};
pub use alloc_het::algo_alloc_heterogeneous;
pub use batch_kernel::{solve_batch, BatchLane, BatchScratch};
pub use energy_aware::{run_energy_aware_heuristic, EnergyAwareConfig, EnergyAwareSolution};
pub use heur_l::heur_l_partitions;
pub use heur_p::heur_p_partitions;
pub use heuristic::{run_heuristic, HeuristicConfig, HeuristicSolution, IntervalHeuristic};
pub use period_opt::{minimize_period, repair_minimize_period};

/// Errors reported by the algorithms of this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoError {
    /// The algorithm requires a homogeneous platform.
    HeterogeneousPlatform,
    /// There are fewer processors than intervals, so no allocation exists.
    NotEnoughProcessors {
        /// Number of intervals to cover.
        intervals: usize,
        /// Number of available processors.
        processors: usize,
    },
    /// No mapping satisfies the requested bounds.
    NoFeasibleMapping,
    /// A bound argument was not a finite positive number.
    InvalidBound(&'static str),
    /// The underlying model rejected a constructed mapping (internal error).
    Model(rpo_model::ModelError),
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoError::HeterogeneousPlatform => {
                write!(f, "this algorithm is only optimal on homogeneous platforms")
            }
            AlgoError::NotEnoughProcessors {
                intervals,
                processors,
            } => write!(
                f,
                "cannot allocate {intervals} intervals on only {processors} processors"
            ),
            AlgoError::NoFeasibleMapping => write!(f, "no mapping satisfies the bounds"),
            AlgoError::InvalidBound(name) => write!(f, "{name} must be a positive finite number"),
            AlgoError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for AlgoError {}

impl From<rpo_model::ModelError> for AlgoError {
    fn from(e: rpo_model::ModelError) -> Self {
        AlgoError::Model(e)
    }
}

/// Result alias for the algorithms of this crate.
pub type Result<T> = std::result::Result<T, AlgoError>;

/// Debug-checks that `oracle` was built for this `(chain, platform)` pair —
/// a mismatched oracle would silently produce wrong metrics, not panics.
#[inline]
pub(crate) fn debug_assert_oracle_matches(
    oracle: &rpo_model::IntervalOracle,
    chain: &rpo_model::TaskChain,
    platform: &rpo_model::Platform,
) {
    debug_assert!(
        oracle.len() == chain.len() && oracle.num_processors() == platform.num_processors(),
        "IntervalOracle was built for a different (chain, platform) instance"
    );
    let _ = (oracle, chain, platform);
}

/// Checks an optional worst-case period bound: `None` means unbounded
/// (`+∞`), `Some` must be a positive finite number.
pub(crate) fn validate_bound(period_bound: Option<f64>) -> Result<f64> {
    match period_bound {
        None => Ok(f64::INFINITY),
        Some(bound) if bound.is_finite() && bound > 0.0 => Ok(bound),
        Some(_) => Err(AlgoError::InvalidBound("period bound")),
    }
}
