//! The complete two-step heuristics of Section 7, as used in the experiments
//! of Section 8.
//!
//! Each heuristic, for every possible number of intervals `m ∈ 1..=min(n, p)`:
//!
//! 1. computes an interval partition with either Heur-L (Algorithm 3) or
//!    Heur-P (Algorithm 4);
//! 2. allocates processors to the intervals — with the optimal Algo-Alloc on
//!    homogeneous platforms, and with the period-aware greedy allocation of
//!    Section 7.2 on heterogeneous platforms;
//! 3. evaluates the resulting mapping and keeps it only if its worst-case
//!    period and latency respect the bounds.
//!
//! Among all kept candidates, the mapping with the best reliability is
//! returned.

use rpo_model::{IntervalOracle, Mapping, MappingEvaluation, Platform, TaskChain};
use serde::{Deserialize, Serialize};

use crate::alloc::algo_alloc;
use crate::alloc_het::algo_alloc_heterogeneous;
use crate::heur_l::heur_l_partitions;
use crate::heur_p::heur_p_partitions;
use crate::{AlgoError, Result};

/// Which interval-computation heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IntervalHeuristic {
    /// Heur-L (Algorithm 3): cut at the smallest communication costs.
    MinLatency,
    /// Heur-P (Algorithm 4): balance the interval works.
    MinPeriod,
}

impl IntervalHeuristic {
    /// Short display name (`"Heur-L"` / `"Heur-P"`), matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            IntervalHeuristic::MinLatency => "Heur-L",
            IntervalHeuristic::MinPeriod => "Heur-P",
        }
    }
}

/// Configuration of a heuristic run: which interval heuristic, and the
/// real-time bounds the mapping must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeuristicConfig {
    /// Interval-computation heuristic.
    pub interval_heuristic: IntervalHeuristic,
    /// Worst-case period bound `P`.
    pub period_bound: f64,
    /// Worst-case latency bound `L`.
    pub latency_bound: f64,
}

/// A feasible mapping produced by a heuristic, with its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeuristicSolution {
    /// The mapping.
    pub mapping: Mapping,
    /// Its five-criteria evaluation.
    pub evaluation: MappingEvaluation,
    /// The number of intervals of the winning candidate.
    pub num_intervals: usize,
}

/// Runs one of the Section 7 heuristics and returns the most reliable mapping
/// that satisfies both bounds, or [`AlgoError::NoFeasibleMapping`] if no
/// candidate does. Partitions, allocations and the candidate evaluations all
/// read their interval metrics from the shared [`IntervalOracle`]. A bound of
/// `f64::INFINITY` means "no bound", on homogeneous and heterogeneous
/// platforms alike.
///
/// # Errors
///
/// * [`AlgoError::InvalidBound`] if a bound is NaN or not positive;
/// * [`AlgoError::NoFeasibleMapping`] if no candidate mapping meets the
///   bounds.
pub fn run_heuristic(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    config: &HeuristicConfig,
) -> Result<HeuristicSolution> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    if config.period_bound <= 0.0 || config.period_bound.is_nan() {
        return Err(AlgoError::InvalidBound("period bound"));
    }
    if config.latency_bound <= 0.0 || config.latency_bound.is_nan() {
        return Err(AlgoError::InvalidBound("latency bound"));
    }

    let max_intervals = oracle.len().min(oracle.num_processors());
    let partitions = match config.interval_heuristic {
        IntervalHeuristic::MinLatency => heur_l_partitions(oracle, max_intervals),
        IntervalHeuristic::MinPeriod => heur_p_partitions(oracle, max_intervals),
    };
    let homogeneous = oracle.is_homogeneous();

    let mut best: Option<HeuristicSolution> = None;
    for (partition, num_intervals) in partitions.iter().zip(1..) {
        let mapping = if homogeneous {
            algo_alloc(oracle, chain, platform, partition)
        } else {
            algo_alloc_heterogeneous(oracle, chain, platform, partition, config.period_bound)
        };
        let Ok(mapping) = mapping else { continue };

        let evaluation = oracle.evaluate(&mapping);
        if !evaluation.meets(config.period_bound, config.latency_bound) {
            continue;
        }
        if best
            .as_ref()
            .is_none_or(|b| evaluation.reliability > b.evaluation.reliability)
        {
            best = Some(HeuristicSolution {
                mapping,
                evaluation,
                num_intervals,
            });
        }
    }
    best.ok_or(AlgoError::NoFeasibleMapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_homogeneous;
    use rpo_model::PlatformBuilder;

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[
            (30.0, 2.0),
            (10.0, 8.0),
            (25.0, 1.0),
            (40.0, 3.0),
            (15.0, 6.0),
            (20.0, 2.0),
        ])
        .unwrap()
    }

    fn hom_platform(p: usize, k: usize) -> Platform {
        PlatformBuilder::new()
            .identical_processors(p, 1.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(k)
            .build()
            .unwrap()
    }

    fn het_platform() -> Platform {
        PlatformBuilder::new()
            .processor(4.0, 1e-3)
            .processor(2.0, 1e-3)
            .processor(1.0, 1e-3)
            .processor(5.0, 1e-3)
            .processor(3.0, 1e-3)
            .processor(2.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(3)
            .build()
            .unwrap()
    }

    /// [`run_heuristic`] on a fresh oracle.
    fn solve(c: &TaskChain, p: &Platform, config: &HeuristicConfig) -> Result<HeuristicSolution> {
        run_heuristic(&IntervalOracle::new(c, p), c, p, config)
    }

    /// The best feasible solution of Heur-L and of Heur-P (`None` where a
    /// heuristic finds nothing).
    fn both(
        c: &TaskChain,
        p: &Platform,
        period_bound: f64,
        latency_bound: f64,
    ) -> (Option<HeuristicSolution>, Option<HeuristicSolution>) {
        let run = |interval_heuristic| {
            let config = HeuristicConfig {
                interval_heuristic,
                period_bound,
                latency_bound,
            };
            solve(c, p, &config).ok()
        };
        (
            run(IntervalHeuristic::MinLatency),
            run(IntervalHeuristic::MinPeriod),
        )
    }

    #[test]
    fn solutions_respect_bounds_on_homogeneous_platform() {
        let c = chain();
        let p = hom_platform(5, 3);
        for heuristic in [IntervalHeuristic::MinLatency, IntervalHeuristic::MinPeriod] {
            let config = HeuristicConfig {
                interval_heuristic: heuristic,
                period_bound: 80.0,
                latency_bound: 170.0,
            };
            let sol = solve(&c, &p, &config).unwrap();
            assert!(sol.evaluation.worst_case_period <= 80.0 + 1e-12);
            assert!(sol.evaluation.worst_case_latency <= 170.0 + 1e-12);
            assert!(sol.num_intervals >= 1 && sol.num_intervals <= 5);
        }
    }

    #[test]
    fn solutions_respect_bounds_on_heterogeneous_platform() {
        let c = chain();
        let p = het_platform();
        for heuristic in [IntervalHeuristic::MinLatency, IntervalHeuristic::MinPeriod] {
            let config = HeuristicConfig {
                interval_heuristic: heuristic,
                period_bound: 40.0,
                latency_bound: 150.0,
            };
            if let Ok(sol) = solve(&c, &p, &config) {
                assert!(sol.evaluation.worst_case_period <= 40.0 + 1e-12);
                assert!(sol.evaluation.worst_case_latency <= 150.0 + 1e-12);
            }
        }
    }

    #[test]
    fn an_infinite_period_bound_means_no_bound_on_a_heterogeneous_platform() {
        let c = chain();
        let p = het_platform();
        for interval_heuristic in [IntervalHeuristic::MinLatency, IntervalHeuristic::MinPeriod] {
            let solve = |period_bound| {
                let config = HeuristicConfig {
                    interval_heuristic,
                    period_bound,
                    latency_bound: f64::INFINITY,
                };
                solve(&c, &p, &config)
            };
            let unbounded = solve(f64::INFINITY).expect("an unbounded instance is feasible");
            assert_eq!(unbounded, solve(1e9).unwrap());
        }
    }

    #[test]
    fn heuristics_never_beat_the_exact_optimum() {
        let c = chain();
        let p = hom_platform(5, 2);
        for (period, latency) in [(80.0, 170.0), (60.0, 200.0), (150.0, 160.0)] {
            let optimum =
                optimal_homogeneous(&IntervalOracle::new(&c, &p), &c, &p, period, latency);
            for heuristic in [IntervalHeuristic::MinLatency, IntervalHeuristic::MinPeriod] {
                let config = HeuristicConfig {
                    interval_heuristic: heuristic,
                    period_bound: period,
                    latency_bound: latency,
                };
                if let Ok(sol) = solve(&c, &p, &config) {
                    let opt = optimum
                        .as_ref()
                        .expect("a feasible heuristic solution implies a feasible optimum");
                    assert!(
                        sol.evaluation.reliability <= opt.reliability + 1e-12,
                        "{} beats the optimum under ({period}, {latency})",
                        heuristic.name()
                    );
                }
            }
        }
    }

    #[test]
    fn infeasible_bounds_yield_no_solution() {
        let c = chain();
        let p = hom_platform(5, 3);
        let config = HeuristicConfig {
            interval_heuristic: IntervalHeuristic::MinPeriod,
            period_bound: 10.0, // below the largest task work
            latency_bound: 1e6,
        };
        assert_eq!(
            solve(&c, &p, &config).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn heur_p_solves_tight_period_heur_l_solves_tight_latency() {
        // Qualitative behaviour reported in the paper: Heur-P is better under
        // tight period bounds, Heur-L shines when only latency matters.
        let c = chain();
        let p = hom_platform(6, 3);
        // Tight period, loose latency.
        let (l_sol, p_sol) = both(&c, &p, 41.0, 1e6);
        assert!(p_sol.is_some(), "Heur-P should handle a tight period bound");
        // Whenever both succeed the Heur-P period is no worse.
        if let (Some(l), Some(p_)) = (&l_sol, &p_sol) {
            assert!(p_.evaluation.worst_case_period <= l.evaluation.worst_case_period + 1e-9);
        }
        // Loose period, tight latency (just above the no-cut latency).
        let total_work: f64 = (0..c.len()).map(|i| c.work(i)).sum();
        let (l_sol, _) = both(&c, &p, 1e6, total_work + 1.5);
        assert!(
            l_sol.is_some(),
            "Heur-L should handle a tight latency bound"
        );
    }

    #[test]
    fn invalid_bounds_rejected() {
        let c = chain();
        let p = hom_platform(4, 2);
        let config = HeuristicConfig {
            interval_heuristic: IntervalHeuristic::MinPeriod,
            period_bound: -5.0,
            latency_bound: 100.0,
        };
        assert_eq!(
            solve(&c, &p, &config).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(IntervalHeuristic::MinLatency.name(), "Heur-L");
        assert_eq!(IntervalHeuristic::MinPeriod.name(), "Heur-P");
    }
}
