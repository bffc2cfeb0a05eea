//! The Section 5.4 integer linear program, solved with `rpo-lp`.
//!
//! Variables `a_{i,j,k} ∈ {0, 1}` select the interval `τ_i … τ_j` replicated
//! on `k` processors. Constraints enforce that every task belongs to exactly
//! one selected interval, that at most `p` processors are used, and that the
//! latency and period bounds hold; the objective maximizes the logarithm of
//! the mapping reliability (a sum over selected intervals).
//!
//! Two deliberate deviations from the paper's printed formulation, both needed
//! for consistency with the evaluation model of Eq. (5) and Eq. (9) (and with
//! the other solvers of this crate, against which the ILP is cross-checked):
//!
//! * the latency coefficient of an interval includes its outgoing
//!   communication time `o_j / b` (the printed constraint only sums the
//!   computation times);
//! * the reliability of an interval includes its boundary communication
//!   reliabilities (the printed objective only uses the computation term).

use rpo_lp::{ConstraintOp, IlpStatus, Objective, Problem};
use rpo_model::{Interval, IntervalOracle, MappedInterval, Mapping, Platform, TaskChain};

use crate::algo1::OptimalMapping;
use crate::{AlgoError, Result};

/// One candidate decision `a_{i,j,k}`: interval `first..=last` on `replicas`
/// processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IlpVariable {
    /// First task of the interval (0-based).
    pub first: usize,
    /// Last task of the interval (0-based, inclusive).
    pub last: usize,
    /// Number of replicas.
    pub replicas: usize,
}

/// The ILP together with the meaning of its columns.
#[derive(Debug, Clone)]
pub struct MappingIlp {
    /// The 0-1 program to hand to `rpo_lp::solve_ilp`.
    pub problem: Problem,
    /// The interval/replication decision encoded by each column.
    pub variables: Vec<IlpVariable>,
}

/// Builds the Section 5.4 ILP for a homogeneous platform and the given
/// worst-case period and latency bounds (`f64::INFINITY` disables a bound).
/// Period admissibility, per-column reliabilities and the latency
/// coefficients are all O(1) reads of the [`IntervalOracle`] (one dense
/// block table per instance instead of three `exp`s per column).
///
/// Variables whose interval violates the period bound on its own are simply
/// not generated (they could never be part of a feasible solution).
///
/// # Errors
///
/// Returns [`AlgoError::HeterogeneousPlatform`] or [`AlgoError::InvalidBound`]
/// on invalid inputs.
pub fn build_ilp(
    oracle: &IntervalOracle,
    platform: &Platform,
    period_bound: f64,
    latency_bound: f64,
) -> Result<MappingIlp> {
    debug_assert!(
        oracle.num_processors() == platform.num_processors(),
        "IntervalOracle was built for a different platform"
    );
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    if period_bound <= 0.0 || period_bound.is_nan() {
        return Err(AlgoError::InvalidBound("period bound"));
    }
    if latency_bound <= 0.0 || latency_bound.is_nan() {
        return Err(AlgoError::InvalidBound("latency bound"));
    }

    let n = oracle.len();
    let p = oracle.num_processors();
    let k_max = oracle.max_replication().min(p);
    let speed = platform.speed(0);
    let blocks = oracle.class_block_table(0);

    // Generate the admissible columns.
    let mut variables = Vec::new();
    let mut objective = Vec::new();
    for first in 0..n {
        for last in first..n {
            if oracle.period_requirement(first, last, speed) > period_bound {
                continue;
            }
            for replicas in 1..=k_max {
                let reliability = blocks.replicated(first, last, replicas);
                variables.push(IlpVariable {
                    first,
                    last,
                    replicas,
                });
                objective.push(reliability.ln());
            }
        }
    }

    let mut problem = Problem::new(Objective::Maximize, objective);
    for column in 0..variables.len() {
        problem.set_binary(column);
    }

    // Each task belongs to exactly one selected interval.
    for task in 0..n {
        let terms: Vec<(usize, f64)> = variables
            .iter()
            .enumerate()
            .filter(|(_, v)| v.first <= task && task <= v.last)
            .map(|(column, _)| (column, 1.0))
            .collect();
        if terms.is_empty() {
            // Some task cannot be placed in any admissible interval: the
            // program is trivially infeasible; encode that explicitly.
            problem.add_sparse_constraint(&[], ConstraintOp::Ge, 1.0);
        } else {
            problem.add_sparse_constraint(&terms, ConstraintOp::Eq, 1.0);
        }
    }

    // At most p processors in total.
    let processor_terms: Vec<(usize, f64)> = variables
        .iter()
        .enumerate()
        .map(|(column, v)| (column, v.replicas as f64))
        .collect();
    problem.add_sparse_constraint(&processor_terms, ConstraintOp::Le, p as f64);

    // Latency bound: sum of computation and outgoing-communication times of
    // the selected intervals.
    if latency_bound.is_finite() {
        let latency_terms: Vec<(usize, f64)> = variables
            .iter()
            .enumerate()
            .map(|(column, v)| (column, oracle.latency_term(v.first, v.last, speed)))
            .collect();
        problem.add_sparse_constraint(&latency_terms, ConstraintOp::Le, latency_bound);
    }

    Ok(MappingIlp { problem, variables })
}

/// Solves the tri-criteria problem on a homogeneous platform through the
/// Section 5.4 ILP and reconstructs the selected mapping.
///
/// # Errors
///
/// * the input errors of [`build_ilp`];
/// * [`AlgoError::NoFeasibleMapping`] if the program is infeasible (or the
///   branch-and-bound node limit is hit before finding any solution).
pub fn optimal_by_ilp(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: f64,
    latency_bound: f64,
) -> Result<OptimalMapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    let ilp = build_ilp(oracle, platform, period_bound, latency_bound)?;
    let solution = rpo_lp::solve_ilp(&ilp.problem);
    match solution.status {
        IlpStatus::Optimal | IlpStatus::NodeLimit if !solution.x.is_empty() => {}
        _ => return Err(AlgoError::NoFeasibleMapping),
    }

    // Decode the selected columns into a mapping.
    let mut selected: Vec<IlpVariable> = ilp
        .variables
        .iter()
        .zip(&solution.x)
        .filter(|(_, &value)| value > 0.5)
        .map(|(v, _)| *v)
        .collect();
    selected.sort_by_key(|v| v.first);

    let mut next_processor = 0;
    let mapped = selected
        .iter()
        .map(|v| {
            let processors: Vec<usize> = (next_processor..next_processor + v.replicas).collect();
            next_processor += v.replicas;
            MappedInterval::new(
                Interval {
                    first: v.first,
                    last: v.last,
                },
                processors,
            )
        })
        .collect();
    let mapping = Mapping::new(mapped, chain, platform)?;
    let reliability = oracle.mapping_reliability(&mapping);
    Ok(OptimalMapping {
        mapping,
        reliability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_homogeneous;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    /// [`optimal_by_ilp`] on a fresh oracle.
    fn ilp(c: &TaskChain, p: &Platform, period: f64, latency: f64) -> Result<OptimalMapping> {
        optimal_by_ilp(&IntervalOracle::new(c, p), c, p, period, latency)
    }

    /// [`build_ilp`] on a fresh oracle.
    fn build(c: &TaskChain, p: &Platform, period: f64, latency: f64) -> Result<MappingIlp> {
        build_ilp(&IntervalOracle::new(c, p), p, period, latency)
    }

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
    fn ilp_matches_exhaustive_solver() {
        let c = chain();
        let p = platform(5, 2);
        for (period, latency) in [
            (f64::INFINITY, f64::INFINITY),
            (70.0, f64::INFINITY),
            (f64::INFINITY, 115.0),
            (45.0, 120.0),
        ] {
            let ilp = ilp(&c, &p, period, latency).unwrap();
            let reference =
                optimal_homogeneous(&IntervalOracle::new(&c, &p), &c, &p, period, latency).unwrap();
            assert!(
                (ilp.reliability - reference.reliability).abs() < 1e-10,
                "bounds ({period}, {latency}): ilp {} vs exhaustive {}",
                ilp.reliability,
                reference.reliability
            );
        }
    }

    #[test]
    fn ilp_mapping_respects_bounds() {
        let c = chain();
        let p = platform(6, 3);
        let sol = ilp(&c, &p, 45.0, 120.0).unwrap();
        let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
        assert!(eval.worst_case_period <= 45.0 + 1e-9);
        assert!(eval.worst_case_latency <= 120.0 + 1e-9);
    }

    #[test]
    fn infeasible_period_bound_detected() {
        let c = chain();
        let p = platform(6, 3);
        assert_eq!(
            ilp(&c, &p, 39.0, f64::INFINITY).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn infeasible_latency_bound_detected() {
        let c = chain();
        let p = platform(6, 3);
        assert_eq!(
            ilp(&c, &p, f64::INFINITY, 100.0).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn variable_generation_prunes_period_violations() {
        let c = chain();
        let p = platform(6, 3);
        let all = build(&c, &p, f64::INFINITY, f64::INFINITY).unwrap();
        let pruned = build(&c, &p, 45.0, f64::INFINITY).unwrap();
        assert!(pruned.variables.len() < all.variables.len());
        assert!(pruned
            .variables
            .iter()
            .all(|v| c.interval_work(v.first, v.last) <= 45.0));
    }

    #[test]
    fn heterogeneous_platform_rejected() {
        let c = chain();
        let het = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-3)
            .max_replication(2)
            .build()
            .unwrap();
        assert_eq!(
            build(&c, &het, 100.0, 100.0).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
    }
}
