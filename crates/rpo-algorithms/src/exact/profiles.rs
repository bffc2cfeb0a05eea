//! Precomputed partition profiles: the exhaustive exact solver factored for
//! bound sweeps.
//!
//! The experiments of Section 8 evaluate the optimal solution for *many*
//! period/latency bound pairs on the *same* instance. On a homogeneous
//! platform, the three quantities that decide feasibility and optimality of a
//! partition — its worst-case period requirement, its latency, and its
//! optimal reliability after Algo-Alloc — do not depend on the bounds, so
//! they can be computed once per partition and reused for every bound pair.
//! A sweep point then reduces to a linear scan over the `2^{n−1}` profiles.

use rpo_model::{IntervalOracle, IntervalPartition, Platform, TaskChain};
use serde::{Deserialize, Serialize};

use crate::algo1::OptimalMapping;
use crate::alloc::algo_alloc_plan;
use crate::exact::exhaustive::MAX_EXHAUSTIVE_TASKS;
use crate::{AlgoError, Result};

/// The bound-independent summary of one interval partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionProfile {
    /// Cut-point bitmask: bit `i` set means "cut after task `i`".
    pub cut_mask: u64,
    /// Worst-case period requirement of the partition (max over intervals of
    /// `max(o_in/b, W/s, o_out/b)`).
    pub period_requirement: f64,
    /// Worst-case latency of the partition (`Σ W/s + o_out/b`); identical to
    /// the expected latency on a homogeneous platform.
    pub latency: f64,
    /// Optimal reliability achievable for this partition (Algo-Alloc).
    pub reliability: f64,
    /// Number of intervals.
    pub num_intervals: usize,
}

/// All partition profiles of one (chain, homogeneous platform) instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSet {
    profiles: Vec<PartitionProfile>,
    chain_len: usize,
}

impl ProfileSet {
    /// Builds the profiles of every interval partition of the oracle's chain
    /// on the homogeneous `platform`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgoError::HeterogeneousPlatform`] on a heterogeneous
    /// platform.
    ///
    /// # Panics
    ///
    /// Panics if the chain exceeds [`MAX_EXHAUSTIVE_TASKS`] tasks.
    pub fn build(oracle: &IntervalOracle, platform: &Platform) -> Result<Self> {
        debug_assert!(
            oracle.num_processors() == platform.num_processors(),
            "IntervalOracle was built for a different platform"
        );
        if !oracle.is_homogeneous() {
            return Err(AlgoError::HeterogeneousPlatform);
        }
        let n = oracle.len();
        assert!(
            n <= MAX_EXHAUSTIVE_TASKS,
            "profile enumeration limited to {MAX_EXHAUSTIVE_TASKS} tasks, chain has {n}"
        );
        let p = oracle.num_processors();
        let k_max = oracle.max_replication();
        let speed = platform.speed(0);
        // One dense block table amortizes the per-interval `exp`s over all
        // 2^{n−1} partition profiles.
        let table = oracle.class_block_table(0);

        let mut profiles = Vec::with_capacity(1usize << (n - 1));
        for mask in 0u64..(1u64 << (n - 1)) {
            let cuts: Vec<usize> = (0..n - 1).filter(|&i| mask & (1 << i) != 0).collect();
            let partition =
                IntervalPartition::from_cut_points(&cuts, n).expect("masks yield valid partitions");
            if partition.len() > p {
                continue;
            }
            let period_requirement = partition
                .intervals()
                .iter()
                .map(|itv| oracle.period_requirement(itv.first, itv.last, speed))
                .fold(0.0, f64::max);
            let latency = partition
                .intervals()
                .iter()
                .map(|itv| oracle.latency_term(itv.first, itv.last, speed))
                .sum();
            let (_, reliability) =
                crate::exact::exhaustive::allocate_from_table(&table, &partition, p, k_max);
            profiles.push(PartitionProfile {
                cut_mask: mask,
                period_requirement,
                latency,
                reliability,
                num_intervals: partition.len(),
            });
        }
        Ok(ProfileSet {
            profiles,
            chain_len: n,
        })
    }

    /// Number of profiled partitions.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the set is empty (only possible before construction).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The raw profiles.
    pub fn profiles(&self) -> &[PartitionProfile] {
        &self.profiles
    }

    /// Optimal reliability under the given bounds, or `None` if no partition
    /// is feasible. Equivalent to (but much faster than re-running)
    /// [`crate::exact::optimal_homogeneous`].
    pub fn best_reliability_under(&self, period_bound: f64, latency_bound: f64) -> Option<f64> {
        self.profiles
            .iter()
            .filter(|p| p.period_requirement <= period_bound && p.latency <= latency_bound)
            .map(|p| p.reliability)
            .max_by(|a, b| a.partial_cmp(b).expect("finite reliabilities"))
    }

    /// Best profile under the given bounds, or `None` if no partition is
    /// feasible.
    pub fn best_profile_under(
        &self,
        period_bound: f64,
        latency_bound: f64,
    ) -> Option<&PartitionProfile> {
        self.profiles
            .iter()
            .filter(|p| p.period_requirement <= period_bound && p.latency <= latency_bound)
            .max_by(|a, b| {
                a.reliability
                    .partial_cmp(&b.reliability)
                    .expect("finite reliabilities")
            })
    }

    /// Reconstructs the optimal mapping under the given bounds.
    ///
    /// # Errors
    ///
    /// Returns [`AlgoError::NoFeasibleMapping`] if no partition is feasible.
    pub fn best_mapping_under(
        &self,
        chain: &TaskChain,
        platform: &Platform,
        period_bound: f64,
        latency_bound: f64,
    ) -> Result<OptimalMapping> {
        let profile = self
            .best_profile_under(period_bound, latency_bound)
            .ok_or(AlgoError::NoFeasibleMapping)?;
        let cuts: Vec<usize> = (0..self.chain_len - 1)
            .filter(|&i| profile.cut_mask & (1 << i) != 0)
            .collect();
        let partition = IntervalPartition::from_cut_points(&cuts, self.chain_len)
            .expect("stored masks are valid");
        let oracle = IntervalOracle::new(chain, platform);
        let plan = algo_alloc_plan(&oracle, &partition)?;
        let mapping = plan.into_mapping(&partition, chain, platform)?;
        Ok(OptimalMapping {
            mapping,
            reliability: profile.reliability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_homogeneous;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    /// [`ProfileSet::build`] on a fresh oracle.
    fn profiles(c: &TaskChain, p: &Platform) -> Result<ProfileSet> {
        ProfileSet::build(&IntervalOracle::new(c, p), p)
    }

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[
            (30.0, 2.0),
            (10.0, 8.0),
            (25.0, 1.0),
            (40.0, 3.0),
            (15.0, 6.0),
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

    #[test]
    fn profile_count_is_all_partitions_fitting_on_the_platform() {
        let c = chain();
        let p = platform(10, 3);
        let set = profiles(&c, &p).unwrap();
        assert_eq!(set.len(), 16); // 2^(5-1), every partition fits on 10 processors
        assert!(!set.is_empty());
        let small = profiles(&c, &platform(2, 3)).unwrap();
        // Partitions with more than 2 intervals are dropped.
        assert_eq!(small.len(), 1 + 4); // single interval + the four 2-interval partitions
    }

    #[test]
    fn sweep_answers_match_the_exhaustive_solver() {
        let c = chain();
        let p = platform(6, 2);
        let set = profiles(&c, &p).unwrap();
        for period in [35.0, 45.0, 70.0, 120.0, f64::INFINITY] {
            for latency in [120.0, 130.0, 150.0, f64::INFINITY] {
                let fast = set.best_reliability_under(period, latency);
                let slow =
                    optimal_homogeneous(&IntervalOracle::new(&c, &p), &c, &p, period, latency)
                        .ok()
                        .map(|s| s.reliability);
                match (fast, slow) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert!(
                        (a - b).abs() < 1e-13,
                        "bounds ({period}, {latency}): profiles {a} vs exhaustive {b}"
                    ),
                    other => panic!("feasibility mismatch under ({period}, {latency}): {other:?}"),
                }
            }
        }
    }

    #[test]
    fn reconstructed_mapping_matches_profile_and_bounds() {
        let c = chain();
        let p = platform(6, 2);
        let set = profiles(&c, &p).unwrap();
        let sol = set.best_mapping_under(&c, &p, 70.0, 130.0).unwrap();
        let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
        assert!((eval.reliability - sol.reliability).abs() < 1e-13);
        assert!(eval.worst_case_period <= 70.0 + 1e-12);
        assert!(eval.worst_case_latency <= 130.0 + 1e-12);
    }

    #[test]
    fn infeasible_bounds_give_none() {
        let c = chain();
        let p = platform(6, 2);
        let set = profiles(&c, &p).unwrap();
        assert_eq!(set.best_reliability_under(10.0, f64::INFINITY), None);
        assert_eq!(set.best_reliability_under(f64::INFINITY, 50.0), None);
        assert!(matches!(
            set.best_mapping_under(&c, &p, 10.0, 10.0),
            Err(AlgoError::NoFeasibleMapping)
        ));
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
            profiles(&c, &het).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
    }
}
