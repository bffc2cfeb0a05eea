//! Algorithm 2: optimal reliability under a period bound on fully homogeneous
//! platforms.
//!
//! The dynamic program is the one of Algorithm 1, restricted to intervals that
//! respect the period bound: an interval `τ_{j+1} … τ_i` is admissible iff
//! `max(o_j / b, Σ w / s, o_i / b) ≤ P` (its incoming communication, its
//! computation on one processor, and its outgoing communication all fit within
//! one period). The admissibility test reads its interval metrics from the
//! shared [`IntervalOracle`] in O(1).

use rpo_model::{IntervalOracle, Platform, TaskChain};

use crate::algo1::{
    reliability_dp, reliability_dp_scratch, DpFilter, DpKernel, DpScratch, OptimalMapping,
};
use crate::{AlgoError, Result};

/// Algorithm 2: computes a mapping of maximal reliability among those whose
/// worst-case period does not exceed `period_bound`, on a fully homogeneous
/// platform, in time `O(n² p K)`.
///
/// # Errors
///
/// * [`AlgoError::HeterogeneousPlatform`] if the platform is not homogeneous;
/// * [`AlgoError::InvalidBound`] if the bound is not a positive finite number;
/// * [`AlgoError::NoFeasibleMapping`] if no partition of the chain respects
///   the period bound.
pub fn optimize_reliability_with_period_bound(
    chain: &TaskChain,
    platform: &Platform,
    period_bound: f64,
) -> Result<OptimalMapping> {
    let oracle = IntervalOracle::new(chain, platform);
    optimize_reliability_with_period_bound_with_oracle(&oracle, chain, platform, period_bound)
}

/// Algorithm 2 against a prebuilt [`IntervalOracle`] (shared by the portfolio
/// backends and by the period minimizer's binary search).
///
/// # Errors
///
/// Same as [`optimize_reliability_with_period_bound`].
pub fn optimize_reliability_with_period_bound_with_oracle(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: f64,
) -> Result<OptimalMapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    if !(period_bound.is_finite() && period_bound > 0.0) {
        return Err(AlgoError::InvalidBound("period bound"));
    }
    reliability_dp(oracle, chain, platform, DpFilter::PeriodBound(period_bound))
        .ok_or(AlgoError::NoFeasibleMapping)
}

/// Algorithm 2 against caller-owned [`DpScratch`]: the period minimizer's
/// binary search passes the same scratch to every probe, so the DP arenas
/// are allocated once and the admissible-interval cuts are warm-started from
/// the previous probe instead of re-derived from scratch. Batch callers (the
/// portfolio engine's scratch pool) likewise reuse the arenas across
/// instances — allocation reuse only; call [`DpScratch::reset`] between
/// instances, as the pool does.
///
/// # Errors
///
/// Same as [`optimize_reliability_with_period_bound`].
pub fn optimize_with_period_bound_scratch(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: f64,
    scratch: &mut DpScratch,
) -> Result<OptimalMapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    if !(period_bound.is_finite() && period_bound > 0.0) {
        return Err(AlgoError::InvalidBound("period bound"));
    }
    reliability_dp_scratch(
        oracle,
        chain,
        platform,
        DpFilter::PeriodBound(period_bound),
        DpKernel::Chunked,
        scratch,
    )
    .ok_or(AlgoError::NoFeasibleMapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize_reliability_homogeneous;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap()
    }

    fn platform(p: usize, k: usize) -> Platform {
        PlatformBuilder::new()
            .identical_processors(p, 1.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(k)
            .build()
            .unwrap()
    }

    #[test]
    fn bound_is_respected_by_returned_mapping() {
        let c = chain();
        let p = platform(6, 3);
        for bound in [40.0, 45.0, 60.0, 105.0] {
            let sol = optimize_reliability_with_period_bound(&c, &p, bound).unwrap();
            let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
            assert!(
                eval.worst_case_period <= bound + 1e-12,
                "period {} exceeds bound {bound}",
                eval.worst_case_period
            );
            assert!((sol.reliability - eval.reliability).abs() < 1e-12);
        }
    }

    #[test]
    fn infeasible_when_one_task_exceeds_the_bound() {
        let c = chain(); // largest task work = 40
        let p = platform(6, 3);
        assert_eq!(
            optimize_reliability_with_period_bound(&c, &p, 39.0).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn large_bound_recovers_unconstrained_optimum() {
        let c = chain();
        let p = platform(6, 3);
        let constrained = optimize_reliability_with_period_bound(&c, &p, 1e9).unwrap();
        let unconstrained = optimize_reliability_homogeneous(&c, &p).unwrap();
        assert!((constrained.reliability - unconstrained.reliability).abs() < 1e-15);
    }

    #[test]
    fn tighter_bounds_never_increase_reliability() {
        let c = chain();
        let p = platform(6, 3);
        let mut previous = f64::INFINITY;
        for bound in [200.0, 105.0, 70.0, 45.0, 40.0] {
            let sol = optimize_reliability_with_period_bound(&c, &p, bound).unwrap();
            assert!(sol.reliability <= previous + 1e-15);
            previous = sol.reliability;
        }
    }

    #[test]
    fn matches_brute_force_under_period_bound() {
        let c = TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0)]).unwrap();
        let p = platform(4, 2);
        for bound in [30.0, 40.0, 66.0] {
            let sol = optimize_reliability_with_period_bound(&c, &p, bound).unwrap();
            let brute = crate::exact::brute_force(&c, &p, bound, f64::INFINITY).unwrap();
            assert!(
                (sol.reliability - brute.reliability).abs() < 1e-12,
                "bound {bound}: dp {} vs brute force {}",
                sol.reliability,
                brute.reliability
            );
        }
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let c = chain();
        let p = platform(4, 2);
        assert_eq!(
            optimize_reliability_with_period_bound(&c, &p, 0.0).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
        assert_eq!(
            optimize_reliability_with_period_bound(&c, &p, f64::NAN).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
        let het = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-3)
            .max_replication(2)
            .build()
            .unwrap();
        assert_eq!(
            optimize_reliability_with_period_bound(&c, &het, 100.0).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
    }

    #[test]
    fn period_bound_forces_smaller_intervals() {
        let c = chain();
        let p = platform(8, 1); // no replication, plenty of processors
        let relaxed = optimize_reliability_with_period_bound(&c, &p, 1000.0).unwrap();
        let tight = optimize_reliability_with_period_bound(&c, &p, 40.0).unwrap();
        assert!(tight.mapping.num_intervals() > relaxed.mapping.num_intervals());
    }

    #[test]
    fn shared_oracle_binary_search_matches_fresh_oracles() {
        let c = chain();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        for bound in [45.0, 70.0, 105.0] {
            let fresh = optimize_reliability_with_period_bound(&c, &p, bound).unwrap();
            let shared =
                optimize_reliability_with_period_bound_with_oracle(&oracle, &c, &p, bound).unwrap();
            assert_eq!(fresh.reliability, shared.reliability);
        }
    }
}
