//! Heterogeneous, period-aware allocation of processors to a fixed interval
//! partition (Section 7.2).
//!
//! The general platform variant of Algo-Alloc:
//!
//! 1. processors are considered in increasing order of `λ_u / s_u` (most
//!    reliable per unit of work first); each is given to the *largest*
//!    interval that has no processor yet and whose computation time on that
//!    processor respects the period bound;
//! 2. the remaining processors are then allocated one by one to the interval
//!    with the largest reliability ratio (reliability with this extra
//!    processor divided by the current reliability), again only if the
//!    computation time respects the period bound and the interval holds fewer
//!    than `K` replicas.
//!
//! # When to use this, and when to use `algo_het`
//!
//! This allocator is a greedy heuristic with no optimality story, and it
//! only allocates — the partition must come from elsewhere (Heur-L/Heur-P).
//! On platforms with **few distinct processor classes** — the common real
//! shape — the exact class-level dynamic program
//! [`crate::algo_het::algo_het`] jointly optimizes the partition *and* the
//! per-class replica counts, and is never less reliable than the greedy
//! pipeline built on this allocator (`BENCH_het.json` measures the gain at
//! the paper's 10-processor setup). The greedy path remains the right tool
//! when the class count exceeds [`crate::algo_het::MAX_DP_CLASSES`] (every
//! processor its own class, as in the paper's fully random speeds), or as the
//! DP's own fallback and upper-bound pruner.

use rpo_model::{
    IntervalOracle, IntervalPartition, MappedInterval, Mapping, Platform, ProcessorId, TaskChain,
};

use crate::{AlgoError, Result};

/// Section 7.2 allocation: assigns heterogeneous processors to the intervals
/// of `partition` under a period bound, maximizing reliability greedily.
/// Interval works, replica-set reliabilities and the per-processor period
/// checks are all O(1) reads of the [`IntervalOracle`]. A `period_bound` of
/// `f64::INFINITY` means "no period bound": every processor may run every
/// interval.
///
/// # Errors
///
/// * [`AlgoError::InvalidBound`] if the period bound is NaN or not positive;
/// * [`AlgoError::NoFeasibleMapping`] if some interval cannot receive any
///   processor without violating the period bound.
pub fn algo_alloc_heterogeneous(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    partition: &IntervalPartition,
    period_bound: f64,
) -> Result<Mapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    if period_bound.is_nan() || period_bound <= 0.0 {
        return Err(AlgoError::InvalidBound("period bound"));
    }
    let m = partition.len();
    let p = platform.num_processors();
    if p < m {
        return Err(AlgoError::NotEnoughProcessors {
            intervals: m,
            processors: p,
        });
    }
    let k_max = platform.max_replication();

    // Replica sets under construction, one per interval.
    let mut assigned: Vec<Vec<ProcessorId>> = vec![Vec::new(); m];
    let order = platform.processors_by_reliability_ratio();
    let mut remaining: Vec<ProcessorId> = Vec::new();

    // Phase 1: most reliable processors first, each to the largest interval
    // that has no processor yet and that it can execute within the period.
    let mut order_iter = order.into_iter();
    while assigned.iter().any(Vec::is_empty) {
        let Some(u) = order_iter.next() else {
            return Err(AlgoError::NoFeasibleMapping);
        };
        let interval_work =
            |j: usize| oracle.work(partition.interval(j).first, partition.interval(j).last);
        let candidate = (0..m)
            .filter(|&j| assigned[j].is_empty())
            .filter(|&j| interval_work(j) / platform.speed(u) <= period_bound)
            .max_by(|&a, &b| {
                interval_work(a)
                    .partial_cmp(&interval_work(b))
                    .expect("finite works")
                    .then(b.cmp(&a))
            });
        match candidate {
            Some(j) => assigned[j].push(u),
            None => remaining.push(u),
        }
    }
    remaining.extend(order_iter);

    // Phase 2: remaining processors go to the interval with the best
    // reliability ratio, subject to the period bound and the replication cap.
    for u in remaining {
        let candidate = (0..m)
            .filter(|&j| assigned[j].len() < k_max)
            .filter(|&j| {
                let itv = partition.interval(j);
                oracle.work(itv.first, itv.last) / platform.speed(u) <= period_bound
            })
            .map(|j| {
                let itv = partition.interval(j);
                let current = oracle.replicated_set_reliability(&assigned[j], itv.first, itv.last);
                // One more replica multiplies the failure product by
                // (1 − block_u); no need to re-walk the whole set.
                let improved = 1.0
                    - (1.0 - current) * (1.0 - oracle.block_reliability(u, itv.first, itv.last));
                (j, improved / current)
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite ratios")
                    .then(b.0.cmp(&a.0))
            });
        if let Some((j, _)) = candidate {
            assigned[j].push(u);
        }
        // A processor that fits nowhere is simply left unused.
    }

    let mapped = partition
        .intervals()
        .iter()
        .zip(assigned)
        .map(|(&interval, processors)| MappedInterval::new(interval, processors))
        .collect();
    Ok(Mapping::new(mapped, chain, platform)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap()
    }

    fn het_platform() -> Platform {
        PlatformBuilder::new()
            .processor(4.0, 1e-4) // ratio 2.5e-5
            .processor(2.0, 1e-3) // ratio 5e-4
            .processor(1.0, 1e-5) // ratio 1e-5 (most reliable per work unit)
            .processor(5.0, 1e-3) // ratio 2e-4
            .processor(3.0, 1e-4) // ratio ~3.3e-5
            .bandwidth(1.0)
            .link_failure_rate(1e-5)
            .max_replication(3)
            .build()
            .unwrap()
    }

    /// [`algo_alloc_heterogeneous`] on a fresh oracle.
    fn alloc_het(
        c: &TaskChain,
        p: &Platform,
        partition: &IntervalPartition,
        period_bound: f64,
    ) -> Result<Mapping> {
        let oracle = IntervalOracle::new(c, p);
        algo_alloc_heterogeneous(&oracle, c, p, partition, period_bound)
    }

    #[test]
    fn produces_a_valid_mapping_covering_every_interval() {
        let c = chain();
        let p = het_platform();
        let partition = IntervalPartition::from_cut_points(&[1], 4).unwrap();
        let mapping = alloc_het(&c, &p, &partition, 100.0).unwrap();
        assert_eq!(mapping.num_intervals(), 2);
        for mi in mapping.intervals() {
            assert!(!mi.processors.is_empty());
            assert!(mi.replication() <= 3);
        }
    }

    #[test]
    fn period_bound_excludes_slow_processors() {
        let c = chain();
        let p = het_platform();
        let partition = IntervalPartition::from_cut_points(&[1], 4).unwrap();
        // Interval 0 has W = 40, interval 1 has W = 65. With P = 20, only
        // processors of speed >= 3.25 can execute interval 1.
        let mapping = alloc_het(&c, &p, &partition, 20.0).unwrap();
        for mi in mapping.intervals() {
            for &u in &mi.processors {
                assert!(
                    mi.interval.work(&c) / p.speed(u) <= 20.0 + 1e-12,
                    "processor {u} violates the period bound on interval {:?}",
                    mi.interval
                );
            }
        }
        let eval = MappingEvaluation::evaluate(&c, &p, &mapping);
        assert!(eval.worst_case_period <= 20.0 + 1e-12);
    }

    #[test]
    fn infeasible_when_no_processor_is_fast_enough() {
        let c = chain(); // one interval of total work 105
        let p = het_platform(); // fastest speed 5 -> period 21
        let partition = IntervalPartition::single(4).unwrap();
        let result = alloc_het(&c, &p, &partition, 20.0);
        assert_eq!(result.unwrap_err(), AlgoError::NoFeasibleMapping);
    }

    #[test]
    fn more_replicas_increase_reliability_monotonically() {
        let c = chain();
        let partition = IntervalPartition::from_cut_points(&[1], 4).unwrap();
        // Same platform, growing number of processors.
        let mut previous = 0.0;
        for extra in 0..4 {
            let mut builder = PlatformBuilder::new()
                .processor(4.0, 1e-4)
                .processor(1.0, 1e-5)
                .bandwidth(1.0)
                .link_failure_rate(1e-5)
                .max_replication(3);
            for _ in 0..extra {
                builder = builder.processor(2.0, 2e-4);
            }
            let p = builder.build().unwrap();
            let mapping = alloc_het(&c, &p, &partition, 1e6).unwrap();
            let r = MappingEvaluation::evaluate(&c, &p, &mapping).reliability;
            assert!(
                r >= previous - 1e-15,
                "adding processors reduced reliability"
            );
            previous = r;
        }
    }

    #[test]
    fn invalid_bound_and_too_few_processors_are_rejected() {
        let c = chain();
        let p = het_platform();
        let partition = IntervalPartition::from_cut_points(&[1], 4).unwrap();
        assert_eq!(
            alloc_het(&c, &p, &partition, -1.0).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
        let tiny = PlatformBuilder::new()
            .processor(1.0, 1e-5)
            .max_replication(2)
            .build()
            .unwrap();
        assert_eq!(
            alloc_het(&c, &tiny, &partition, 1e6).unwrap_err(),
            AlgoError::NotEnoughProcessors {
                intervals: 2,
                processors: 1
            }
        );
    }

    #[test]
    fn homogeneous_platform_is_a_special_case() {
        // On a homogeneous platform the heterogeneous allocator should match
        // the optimal Algo-Alloc reliability (both allocate greedily by ratio).
        let c = chain();
        let p = PlatformBuilder::new()
            .identical_processors(6, 1.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(3)
            .build()
            .unwrap();
        let partition = IntervalPartition::from_cut_points(&[1], 4).unwrap();
        let het = alloc_het(&c, &p, &partition, 1e9).unwrap();
        let hom =
            crate::alloc::algo_alloc(&IntervalOracle::new(&c, &p), &c, &p, &partition).unwrap();
        let r_het = MappingEvaluation::evaluate(&c, &p, &het).reliability;
        let r_hom = MappingEvaluation::evaluate(&c, &p, &hom).reliability;
        assert!((r_het - r_hom).abs() < 1e-14);
    }
}
