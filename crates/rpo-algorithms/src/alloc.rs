//! Algo-Alloc (Theorem 4): optimal allocation of homogeneous processors to a
//! fixed interval partition.
//!
//! Once the partition into intervals is fixed, the period and latency of a
//! homogeneous mapping no longer depend on the processor assignment — only
//! the reliability does. Algo-Alloc first gives one processor to every
//! interval, then repeatedly gives one more processor to the interval whose
//! reliability *ratio* (reliability with one more replica divided by current
//! reliability) is largest, until processors run out or every interval holds
//! `K` replicas. Theorem 4 proves this greedy choice optimal.
//!
//! The replica-block reliability of each interval is read once from the
//! [`IntervalOracle`]; the greedy loop then maintains the failure product
//! `(1 − r)^q` per interval incrementally, so each greedy step is O(m) with
//! no transcendentals at all.

use rpo_model::{IntervalOracle, IntervalPartition, MappedInterval, Mapping, Platform, TaskChain};

use crate::{AlgoError, Result};

/// Replication counts chosen for each interval (same order as the partition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationPlan {
    /// Number of replicas per interval.
    pub replicas: Vec<usize>,
}

impl AllocationPlan {
    /// Materializes the plan into a [`Mapping`] by assigning processor
    /// identifiers `0, 1, 2, …` in interval order (the platform being
    /// homogeneous, the identity of the processors is irrelevant).
    pub fn into_mapping(
        self,
        partition: &IntervalPartition,
        chain: &TaskChain,
        platform: &Platform,
    ) -> Result<Mapping> {
        let mut next = 0usize;
        let mapped = partition
            .intervals()
            .iter()
            .zip(&self.replicas)
            .map(|(&interval, &q)| {
                let processors: Vec<usize> = (next..next + q).collect();
                next += q;
                MappedInterval::new(interval, processors)
            })
            .collect();
        Ok(Mapping::new(mapped, chain, platform)?)
    }
}

/// Algo-Alloc: computes the optimal number of replicas per interval of
/// `partition` on a homogeneous platform, reading each interval's
/// replica-block reliability from the [`IntervalOracle`], and returns the
/// corresponding mapping.
///
/// # Errors
///
/// * [`AlgoError::HeterogeneousPlatform`] if the platform is not homogeneous;
/// * [`AlgoError::NotEnoughProcessors`] if there are fewer processors than
///   intervals.
pub fn algo_alloc(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    partition: &IntervalPartition,
) -> Result<Mapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    let plan = algo_alloc_plan(oracle, partition)?;
    plan.into_mapping(partition, chain, platform)
}

/// The replica-count computation behind [`algo_alloc`].
pub(crate) fn algo_alloc_plan(
    oracle: &IntervalOracle,
    partition: &IntervalPartition,
) -> Result<AllocationPlan> {
    debug_assert!(
        partition.chain_len() == oracle.len(),
        "partition and oracle cover different chains"
    );
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    let m = partition.len();
    let p = oracle.num_processors();
    if p < m {
        return Err(AlgoError::NotEnoughProcessors {
            intervals: m,
            processors: p,
        });
    }
    // Per-interval replica-block reliability: one oracle read each.
    let blocks: Vec<f64> = partition
        .intervals()
        .iter()
        .map(|itv| oracle.class_block_reliability(0, itv.first, itv.last))
        .collect();
    Ok(AllocationPlan {
        replicas: greedy_replicas(&blocks, p, oracle.max_replication()),
    })
}

/// The Theorem 4 greedy core on precomputed replica-block reliabilities:
/// one processor per interval first, then each spare to the interval with
/// the largest reliability ratio, tracking the failure product `(1 − r)^q`
/// incrementally. Requires `blocks.len() ≤ p`.
pub(crate) fn greedy_replicas(blocks: &[f64], p: usize, k_max: usize) -> Vec<usize> {
    let m = blocks.len();
    debug_assert!(m <= p, "more intervals than processors");
    let mut replicas = vec![1usize; m];
    let mut remaining = p - m;
    let mut all_fail: Vec<f64> = blocks.iter().map(|&b| 1.0 - b).collect();

    while remaining > 0 {
        // Interval with the best reliability ratio among those below K.
        let candidate = (0..m)
            .filter(|&j| replicas[j] < k_max)
            .map(|j| {
                let current = 1.0 - all_fail[j];
                let next = 1.0 - all_fail[j] * (1.0 - blocks[j]);
                (j, next / current)
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite ratios")
                    .then(b.0.cmp(&a.0))
            });
        match candidate {
            None => break, // every interval already holds K replicas
            Some((j, _)) => {
                replicas[j] += 1;
                all_fail[j] *= 1.0 - blocks[j];
                remaining -= 1;
            }
        }
    }
    replicas
}

/// Reference allocator: exhaustively tries every replica-count vector
/// (each interval between 1 and `K` replicas, total at most `p`) and returns
/// the most reliable mapping. Exponential; used to validate [`algo_alloc`] on
/// small instances and in ablation benchmarks.
pub fn exhaustive_alloc(
    chain: &TaskChain,
    platform: &Platform,
    partition: &IntervalPartition,
) -> Result<Mapping> {
    let oracle = IntervalOracle::new(chain, platform);
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    let m = partition.len();
    let p = oracle.num_processors();
    let k_max = oracle.max_replication();
    if p < m {
        return Err(AlgoError::NotEnoughProcessors {
            intervals: m,
            processors: p,
        });
    }

    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut counts = vec![1usize; m];
    loop {
        let used: usize = counts.iter().sum();
        if used <= p {
            let reliability: f64 = partition
                .intervals()
                .iter()
                .zip(&counts)
                .map(|(&itv, &q)| oracle.replicated_reliability(itv.first, itv.last, q))
                .product();
            if best.as_ref().is_none_or(|(_, r)| reliability > *r) {
                best = Some((counts.clone(), reliability));
            }
        }
        // Next vector in mixed radix {1..K}^m.
        let mut idx = 0;
        loop {
            if idx == m {
                let (counts, _) = best.expect("the all-ones vector is always feasible");
                return AllocationPlan { replicas: counts }
                    .into_mapping(partition, chain, platform);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{reliability, MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[
            (30.0, 2.0),
            (10.0, 8.0),
            (25.0, 1.0),
            (40.0, 3.0),
            (5.0, 2.0),
        ])
        .unwrap()
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

    /// [`algo_alloc`] on a fresh oracle.
    fn alloc(c: &TaskChain, p: &Platform, partition: &IntervalPartition) -> Result<Mapping> {
        algo_alloc(&IntervalOracle::new(c, p), c, p, partition)
    }

    #[test]
    fn allocates_every_processor_when_k_allows() {
        let c = chain();
        let p = platform(7, 3);
        let partition = IntervalPartition::from_cut_points(&[1, 3], 5).unwrap();
        let mapping = alloc(&c, &p, &partition).unwrap();
        assert_eq!(mapping.processors_used(), 7);
        assert_eq!(mapping.num_intervals(), 3);
        for mi in mapping.intervals() {
            assert!(mi.replication() >= 1 && mi.replication() <= 3);
        }
    }

    #[test]
    fn stops_at_k_replicas_per_interval() {
        let c = chain();
        let p = platform(10, 2);
        let partition = IntervalPartition::from_cut_points(&[1, 3], 5).unwrap();
        let mapping = alloc(&c, &p, &partition).unwrap();
        // 3 intervals, K = 2: at most 6 processors can be used.
        assert_eq!(mapping.processors_used(), 6);
        for mi in mapping.intervals() {
            assert_eq!(mi.replication(), 2);
        }
    }

    #[test]
    fn fails_when_fewer_processors_than_intervals() {
        let c = chain();
        let p = platform(2, 3);
        let partition = IntervalPartition::from_cut_points(&[1, 3], 5).unwrap();
        assert_eq!(
            alloc(&c, &p, &partition).unwrap_err(),
            AlgoError::NotEnoughProcessors {
                intervals: 3,
                processors: 2
            }
        );
    }

    #[test]
    fn rejects_heterogeneous_platform() {
        let c = chain();
        let p = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-3)
            .processor(1.0, 1e-3)
            .max_replication(2)
            .build()
            .unwrap();
        let partition = IntervalPartition::from_cut_points(&[1], 5).unwrap();
        assert_eq!(
            alloc(&c, &p, &partition).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
    }

    #[test]
    fn greedy_matches_exhaustive_search() {
        let c = chain();
        for (p_count, k) in [(4, 2), (5, 3), (7, 3), (8, 2), (9, 3)] {
            let p = platform(p_count, k);
            for cuts in [vec![0], vec![1, 3], vec![0, 2, 3]] {
                let partition = IntervalPartition::from_cut_points(&cuts, 5).unwrap();
                if partition.len() > p_count {
                    continue;
                }
                let greedy = alloc(&c, &p, &partition).unwrap();
                let exhaustive = exhaustive_alloc(&c, &p, &partition).unwrap();
                let rg = reliability::mapping_reliability(&c, &p, &greedy);
                let re = reliability::mapping_reliability(&c, &p, &exhaustive);
                assert!(
                    (rg - re).abs() < 1e-14,
                    "p = {p_count}, K = {k}, cuts {cuts:?}: greedy {rg} vs exhaustive {re}"
                );
            }
        }
    }

    #[test]
    fn big_intervals_get_replicas_first() {
        // One huge interval and one tiny one, a single spare processor: the
        // spare must go to the huge (least reliable) interval.
        let c = TaskChain::from_pairs(&[(100.0, 1.0), (1.0, 0.0)]).unwrap();
        let p = platform(3, 2);
        let partition = IntervalPartition::from_cut_points(&[0], 2).unwrap();
        let mapping = alloc(&c, &p, &partition).unwrap();
        assert_eq!(mapping.interval(0).replication(), 2);
        assert_eq!(mapping.interval(1).replication(), 1);
    }

    #[test]
    fn allocation_does_not_change_period_or_latency() {
        let c = chain();
        let partition = IntervalPartition::from_cut_points(&[1, 3], 5).unwrap();
        let small = platform(3, 3);
        let large = platform(9, 3);
        let m_small = alloc(&c, &small, &partition).unwrap();
        let m_large = alloc(&c, &large, &partition).unwrap();
        let e_small = MappingEvaluation::evaluate(&c, &small, &m_small);
        let e_large = MappingEvaluation::evaluate(&c, &large, &m_large);
        assert!((e_small.worst_case_period - e_large.worst_case_period).abs() < 1e-12);
        assert!((e_small.worst_case_latency - e_large.worst_case_latency).abs() < 1e-12);
        assert!(e_large.reliability >= e_small.reliability);
    }
}
