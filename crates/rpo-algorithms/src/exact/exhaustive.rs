//! Exhaustive exact solver for homogeneous platforms, with all interval
//! metrics served by the [`IntervalOracle`].

use rpo_model::oracle::replicate_block;
use rpo_model::{BlockReliabilityTable, IntervalOracle, IntervalPartition, Platform, TaskChain};

use crate::algo1::OptimalMapping;
use crate::alloc::{greedy_replicas, AllocationPlan};
use crate::{debug_assert_oracle_matches, AlgoError, Result};

/// Chains longer than this are rejected (the enumeration is `O(2^{n−1})`).
pub const MAX_EXHAUSTIVE_TASKS: usize = 26;

fn check_inputs(chain: &TaskChain, platform: &Platform, period: f64, latency: f64) -> Result<()> {
    if !platform.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    if period <= 0.0 || period.is_nan() {
        return Err(AlgoError::InvalidBound("period bound"));
    }
    if latency <= 0.0 || latency.is_nan() {
        return Err(AlgoError::InvalidBound("latency bound"));
    }
    assert!(
        chain.len() <= MAX_EXHAUSTIVE_TASKS,
        "exhaustive solver limited to {MAX_EXHAUSTIVE_TASKS} tasks, chain has {}",
        chain.len()
    );
    Ok(())
}

/// Iterates over every interval partition of the chain (as cut-point masks).
fn partitions(chain: &TaskChain) -> impl Iterator<Item = IntervalPartition> + '_ {
    let n = chain.len();
    (0u64..(1u64 << (n - 1))).map(move |mask| {
        let cuts: Vec<usize> = (0..n - 1).filter(|&i| mask & (1 << i) != 0).collect();
        IntervalPartition::from_cut_points(&cuts, n).expect("masks yield valid partitions")
    })
}

/// Whether a partition respects the period and latency bounds on a homogeneous
/// platform (these do not depend on the processor assignment).
fn partition_feasible(
    oracle: &IntervalOracle,
    speed: f64,
    partition: &IntervalPartition,
    period_bound: f64,
    latency_bound: f64,
) -> bool {
    let period_ok = partition
        .intervals()
        .iter()
        .all(|itv| oracle.period_requirement(itv.first, itv.last, speed) <= period_bound);
    if !period_ok {
        return false;
    }
    let latency: f64 = partition
        .intervals()
        .iter()
        .map(|itv| oracle.latency_term(itv.first, itv.last, speed))
        .sum();
    latency <= latency_bound
}

/// Certified-optimal solver for the tri-criteria problem on homogeneous
/// platforms: maximize reliability subject to worst-case period and latency
/// bounds (use `f64::INFINITY` for an absent bound).
///
/// Every interval partition is enumerated; feasible ones receive their optimal
/// processor allocation from Algo-Alloc (Theorem 4), and the most reliable
/// result is returned.
///
/// # Errors
///
/// * [`AlgoError::HeterogeneousPlatform`], [`AlgoError::InvalidBound`] on bad
///   inputs;
/// * [`AlgoError::NoFeasibleMapping`] if no partition meets the bounds.
///
/// # Panics
///
/// Panics if the chain exceeds [`MAX_EXHAUSTIVE_TASKS`] tasks.
pub fn optimal_homogeneous(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: f64,
    latency_bound: f64,
) -> Result<OptimalMapping> {
    debug_assert_oracle_matches(oracle, chain, platform);
    check_inputs(chain, platform, period_bound, latency_bound)?;
    let p = oracle.num_processors();
    let k_max = oracle.max_replication();
    let speed = platform.speed(0);
    // One dense block table amortizes the per-interval `exp`s over all
    // 2^{n−1} partitions: the sweep below is multiplication-only.
    let table = oracle.class_block_table(0);

    let mut best: Option<OptimalMapping> = None;
    for partition in partitions(chain) {
        if partition.len() > p
            || !partition_feasible(oracle, speed, &partition, period_bound, latency_bound)
        {
            continue;
        }
        let (replicas, reliability) = allocate_from_table(&table, &partition, p, k_max);
        if best.as_ref().is_none_or(|b| reliability > b.reliability) {
            let mapping = AllocationPlan { replicas }.into_mapping(&partition, chain, platform)?;
            best = Some(OptimalMapping {
                mapping,
                reliability,
            });
        }
    }
    best.ok_or(AlgoError::NoFeasibleMapping)
}

/// Algo-Alloc + reliability product for one partition, reading every block
/// reliability from the precomputed dense table. Requires
/// `partition.len() ≤ p`.
pub(crate) fn allocate_from_table(
    table: &BlockReliabilityTable,
    partition: &IntervalPartition,
    p: usize,
    k_max: usize,
) -> (Vec<usize>, f64) {
    let blocks: Vec<f64> = partition
        .intervals()
        .iter()
        .map(|itv| table.get(itv.first, itv.last))
        .collect();
    let replicas = greedy_replicas(&blocks, p, k_max);
    let reliability = blocks
        .iter()
        .zip(&replicas)
        .map(|(&block, &q)| replicate_block(block, q))
        .product();
    (replicas, reliability)
}

/// Reference brute force: enumerates partitions **and** replica-count vectors
/// (instead of relying on Algo-Alloc), evaluates each candidate mapping with
/// the full evaluator and returns the most reliable one meeting the bounds.
/// Exponential in both `n` and the number of intervals; only for validating
/// the other solvers on tiny instances.
pub fn brute_force(
    chain: &TaskChain,
    platform: &Platform,
    period_bound: f64,
    latency_bound: f64,
) -> Result<OptimalMapping> {
    check_inputs(chain, platform, period_bound, latency_bound)?;
    let oracle = IntervalOracle::new(chain, platform);
    let p = platform.num_processors();
    let k_max = platform.max_replication();

    let mut best: Option<OptimalMapping> = None;
    for partition in partitions(chain) {
        let m = partition.len();
        if m > p {
            continue;
        }
        // Enumerate replica counts in {1..K}^m with sum <= p.
        let mut counts = vec![1usize; m];
        'vectors: loop {
            if counts.iter().sum::<usize>() <= p {
                let plan = crate::alloc::AllocationPlan {
                    replicas: counts.clone(),
                };
                let mapping = plan.into_mapping(&partition, chain, platform)?;
                let eval = oracle.evaluate(&mapping);
                if eval.worst_case_period <= period_bound
                    && eval.worst_case_latency <= latency_bound
                    && best
                        .as_ref()
                        .is_none_or(|b| eval.reliability > b.reliability)
                {
                    best = Some(OptimalMapping {
                        mapping,
                        reliability: eval.reliability,
                    });
                }
            }
            let mut idx = 0;
            loop {
                if idx == m {
                    break 'vectors;
                }
                if counts[idx] < k_max {
                    counts[idx] += 1;
                    break;
                }
                counts[idx] = 1;
                idx += 1;
            }
        }
    }
    best.ok_or(AlgoError::NoFeasibleMapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    /// [`optimal_homogeneous`] on a fresh oracle.
    fn optimal(c: &TaskChain, p: &Platform, period: f64, latency: f64) -> Result<OptimalMapping> {
        optimal_homogeneous(&IntervalOracle::new(c, p), c, p, period, latency)
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
    fn matches_brute_force_with_and_without_bounds() {
        let c = chain();
        let p = platform(5, 2);
        for (period, latency) in [
            (f64::INFINITY, f64::INFINITY),
            (70.0, f64::INFINITY),
            (f64::INFINITY, 115.0),
            (45.0, 120.0),
        ] {
            let fast = optimal(&c, &p, period, latency).unwrap();
            let slow = brute_force(&c, &p, period, latency).unwrap();
            assert!(
                (fast.reliability - slow.reliability).abs() < 1e-13,
                "bounds ({period}, {latency}): {} vs {}",
                fast.reliability,
                slow.reliability
            );
        }
    }

    #[test]
    fn unconstrained_matches_algorithm_1() {
        let c = chain();
        let p = platform(6, 3);
        let exhaustive = optimal(&c, &p, f64::INFINITY, f64::INFINITY).unwrap();
        let dp = crate::algo1::tests::solve(&c, &p, None).unwrap();
        assert!((exhaustive.reliability - dp.reliability).abs() < 1e-13);
    }

    #[test]
    fn period_only_matches_algorithm_2() {
        let c = chain();
        let p = platform(6, 3);
        for period in [40.0, 50.0, 70.0, 110.0] {
            let exhaustive = optimal(&c, &p, period, f64::INFINITY).unwrap();
            let dp = crate::algo1::tests::solve(&c, &p, Some(period)).unwrap();
            assert!(
                (exhaustive.reliability - dp.reliability).abs() < 1e-13,
                "period {period}: {} vs {}",
                exhaustive.reliability,
                dp.reliability
            );
        }
    }

    #[test]
    fn returned_mapping_respects_bounds() {
        let c = chain();
        let p = platform(6, 3);
        let sol = optimal(&c, &p, 45.0, 120.0).unwrap();
        let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
        assert!(eval.worst_case_period <= 45.0 + 1e-12);
        assert!(eval.worst_case_latency <= 120.0 + 1e-12);
        assert!((eval.reliability - sol.reliability).abs() < 1e-13);
    }

    #[test]
    fn infeasible_bounds_are_reported() {
        let c = chain();
        let p = platform(6, 3);
        assert_eq!(
            optimal(&c, &p, 39.0, f64::INFINITY).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
        assert_eq!(
            optimal(&c, &p, f64::INFINITY, 100.0).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn latency_bound_trades_reliability() {
        let c = chain();
        let p = platform(8, 2);
        let loose = optimal(&c, &p, f64::INFINITY, f64::INFINITY).unwrap();
        // Tight latency forbids splitting (every cut adds communication time),
        // so fewer intervals and fewer total replicas are available.
        let tight = optimal(&c, &p, f64::INFINITY, 105.5).unwrap();
        assert!(tight.mapping.num_intervals() <= loose.mapping.num_intervals());
        assert!(tight.reliability <= loose.reliability + 1e-15);
    }

    #[test]
    fn bad_inputs_rejected() {
        let c = chain();
        let het = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-3)
            .max_replication(2)
            .build()
            .unwrap();
        assert_eq!(
            optimal(&c, &het, 10.0, 10.0).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
        let hom = platform(4, 2);
        assert_eq!(
            optimal(&c, &hom, 0.0, 10.0).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
        assert_eq!(
            optimal(&c, &hom, 10.0, f64::NAN).unwrap_err(),
            AlgoError::InvalidBound("latency bound")
        );
    }
}
