//! Energy-budgeted variant of the Section 7 heuristics — the "power
//! consumption" extension listed as future work in the paper's conclusion.
//!
//! Replication drives the reliability up but multiplies the energy spent per
//! data set. Given a [`PowerModel`] and an energy budget per data set, this
//! heuristic runs the usual two-step scheme (interval computation for every
//! interval count, then processor allocation), and then **prunes replicas**
//! greedily while the budget is exceeded: at each step it removes the replica
//! whose removal costs the least reliability per joule recovered, never going
//! below one replica per interval. Among all interval counts, the most
//! reliable budget- and bound-compliant mapping is returned.

use rpo_model::energy::{self, PowerModel};
use rpo_model::{IntervalOracle, MappedInterval, Mapping, MappingEvaluation, Platform, TaskChain};
use serde::{Deserialize, Serialize};

use crate::heuristic::{run_heuristic, HeuristicConfig, HeuristicSolution};
use crate::{AlgoError, Result};

/// Configuration of an energy-budgeted heuristic run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyAwareConfig {
    /// The underlying timing/reliability configuration.
    pub base: HeuristicConfig,
    /// The platform power model.
    pub power_model: PowerModel,
    /// Maximum energy allowed per data set.
    pub energy_budget: f64,
}

/// A solution of the energy-budgeted heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyAwareSolution {
    /// The pruned mapping.
    pub mapping: Mapping,
    /// Its five-criteria evaluation.
    pub evaluation: MappingEvaluation,
    /// Its energy evaluation under the configured power model.
    pub energy: rpo_model::EnergyEvaluation,
}

/// Removes replicas from `mapping` until its energy per data set fits within
/// the budget, choosing at each step the replica whose removal loses the least
/// reliability per unit of energy saved. Returns `None` if even the
/// one-replica-per-interval skeleton exceeds the budget.
fn prune_to_budget(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    mapping: &Mapping,
    model: &PowerModel,
    budget: f64,
) -> Option<Mapping> {
    let mut intervals: Vec<MappedInterval> = mapping.intervals().to_vec();

    loop {
        let current = Mapping::new(intervals.clone(), chain, platform)
            .expect("pruning preserves structural validity");
        let current_energy = energy::energy_per_dataset(chain, platform, &current, model);
        if current_energy <= budget {
            return Some(current);
        }
        let current_reliability = oracle.mapping_reliability(&current);

        // Candidate removals: any replica of any interval that has more than one.
        let mut best: Option<(usize, usize, f64)> = None; // (interval, position, score)
        for (j, mi) in intervals.iter().enumerate() {
            if mi.processors.len() <= 1 {
                continue;
            }
            for position in 0..mi.processors.len() {
                let mut candidate = intervals.clone();
                candidate[j].processors.remove(position);
                let candidate_mapping = Mapping::new(candidate, chain, platform)
                    .expect("removal preserves structural validity");
                let reliability_loss =
                    current_reliability - oracle.mapping_reliability(&candidate_mapping);
                let energy_saved = current_energy
                    - energy::energy_per_dataset(chain, platform, &candidate_mapping, model);
                if energy_saved <= 0.0 {
                    continue;
                }
                let score = reliability_loss / energy_saved;
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((j, position, score));
                }
            }
        }
        match best {
            Some((j, position, _)) => {
                intervals[j].processors.remove(position);
            }
            // Nothing left to remove: the skeleton itself exceeds the budget.
            None => return None,
        }
    }
}

/// Runs one of the Section 7 heuristics under an additional energy budget per
/// data set, returning the most reliable mapping that satisfies the period,
/// latency and energy constraints. Interval metrics come from the shared
/// [`IntervalOracle`].
///
/// # Errors
///
/// * [`AlgoError::InvalidBound`] if the energy budget is not positive;
/// * the errors of [`run_heuristic`];
/// * [`AlgoError::NoFeasibleMapping`] if no candidate fits all three budgets.
pub fn run_energy_aware_heuristic(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    config: &EnergyAwareConfig,
) -> Result<EnergyAwareSolution> {
    if config.energy_budget <= 0.0 || config.energy_budget.is_nan() {
        return Err(AlgoError::InvalidBound("energy budget"));
    }
    // Start from the unbudgeted heuristic solution for every interval count:
    // run_heuristic already returns the best one; to keep the search broad we
    // prune that best candidate and also the single-interval fallback.
    let base: HeuristicSolution = run_heuristic(oracle, chain, platform, &config.base)?;

    let pruned = prune_to_budget(
        oracle,
        chain,
        platform,
        &base.mapping,
        &config.power_model,
        config.energy_budget,
    )
    .ok_or(AlgoError::NoFeasibleMapping)?;

    let evaluation = oracle.evaluate(&pruned);
    if !evaluation.meets(config.base.period_bound, config.base.latency_bound) {
        return Err(AlgoError::NoFeasibleMapping);
    }
    let energy = energy::evaluate_energy(chain, platform, &pruned, &config.power_model);
    Ok(EnergyAwareSolution {
        mapping: pruned,
        evaluation,
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntervalHeuristic;
    use rpo_model::PlatformBuilder;

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[
            (30.0, 2.0),
            (10.0, 8.0),
            (25.0, 1.0),
            (40.0, 3.0),
            (15.0, 2.0),
        ])
        .unwrap()
    }

    fn platform() -> Platform {
        PlatformBuilder::new()
            .identical_processors(8, 1.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(3)
            .build()
            .unwrap()
    }

    /// [`run_energy_aware_heuristic`] on a fresh oracle.
    fn energy_aware(
        c: &TaskChain,
        p: &Platform,
        config: &EnergyAwareConfig,
    ) -> Result<EnergyAwareSolution> {
        run_energy_aware_heuristic(&IntervalOracle::new(c, p), c, p, config)
    }

    fn base_config() -> HeuristicConfig {
        HeuristicConfig {
            interval_heuristic: IntervalHeuristic::MinPeriod,
            period_bound: 80.0,
            latency_bound: 200.0,
        }
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let c = chain();
        let p = platform();
        let unbudgeted =
            run_heuristic(&IntervalOracle::new(&c, &p), &c, &p, &base_config()).unwrap();
        let solution = energy_aware(
            &c,
            &p,
            &EnergyAwareConfig {
                base: base_config(),
                power_model: PowerModel::cubic(),
                energy_budget: 1e9,
            },
        )
        .unwrap();
        assert_eq!(solution.mapping, unbudgeted.mapping);
    }

    #[test]
    fn tight_budget_is_respected_and_costs_reliability() {
        let c = chain();
        let p = platform();
        let model = PowerModel::cubic();
        let unbudgeted =
            run_heuristic(&IntervalOracle::new(&c, &p), &c, &p, &base_config()).unwrap();
        let full_energy =
            rpo_model::energy::energy_per_dataset(&c, &p, &unbudgeted.mapping, &model);

        let budget = full_energy * 0.6;
        let solution = energy_aware(
            &c,
            &p,
            &EnergyAwareConfig {
                base: base_config(),
                power_model: model,
                energy_budget: budget,
            },
        )
        .unwrap();
        assert!(solution.energy.energy_per_dataset <= budget + 1e-9);
        assert!(solution.evaluation.reliability <= unbudgeted.evaluation.reliability + 1e-15);
        assert!(solution.mapping.processors_used() < unbudgeted.mapping.processors_used());
        // Timing bounds still hold.
        assert!(solution.evaluation.meets(80.0, 200.0));
    }

    #[test]
    fn impossible_budget_is_reported() {
        let c = chain();
        let p = platform();
        // Even one replica per interval needs at least total-work energy under
        // the cubic model on unit-speed processors.
        let result = energy_aware(
            &c,
            &p,
            &EnergyAwareConfig {
                base: base_config(),
                power_model: PowerModel::cubic(),
                energy_budget: 1.0,
            },
        );
        assert_eq!(result.unwrap_err(), AlgoError::NoFeasibleMapping);
    }

    #[test]
    fn invalid_budget_rejected() {
        let c = chain();
        let p = platform();
        let result = energy_aware(
            &c,
            &p,
            &EnergyAwareConfig {
                base: base_config(),
                power_model: PowerModel::cubic(),
                energy_budget: -3.0,
            },
        );
        assert_eq!(
            result.unwrap_err(),
            AlgoError::InvalidBound("energy budget")
        );
    }

    #[test]
    fn pruning_is_monotone_in_the_budget() {
        let c = chain();
        let p = platform();
        let model = PowerModel::cubic();
        let unbudgeted =
            run_heuristic(&IntervalOracle::new(&c, &p), &c, &p, &base_config()).unwrap();
        let full_energy =
            rpo_model::energy::energy_per_dataset(&c, &p, &unbudgeted.mapping, &model);
        let mut previous_reliability = 0.0;
        for fraction in [0.4, 0.6, 0.8, 1.0] {
            let solution = energy_aware(
                &c,
                &p,
                &EnergyAwareConfig {
                    base: base_config(),
                    power_model: model,
                    energy_budget: full_energy * fraction,
                },
            )
            .unwrap();
            assert!(
                solution.evaluation.reliability >= previous_reliability - 1e-15,
                "a larger energy budget must not reduce reliability"
            );
            previous_reliability = solution.evaluation.reliability;
        }
    }
}
