//! Integration tests for the extension features (the paper's stated future
//! work): energy-budgeted mapping, and reliability approximation of general
//! (non series-parallel) RBDs without routing operations.

use pipelined_rt::algorithms::{
    run_energy_aware_heuristic, run_heuristic, EnergyAwareConfig, HeuristicConfig,
    IntervalHeuristic,
};
use pipelined_rt::model::{energy, IntervalOracle, Platform, PowerModel};
use pipelined_rt::rbd::{approx, exact as rbd_exact, mapping_rbd};
use pipelined_rt::workload::ChainSpec;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn base_config() -> HeuristicConfig {
    HeuristicConfig {
        interval_heuristic: IntervalHeuristic::MinPeriod,
        period_bound: 200.0,
        latency_bound: 600.0,
    }
}

/// Bounds loose enough to always be feasible for the given chain: the period
/// accommodates the largest task and the latency the whole chain plus every
/// boundary communication.
fn relative_config(chain: &pipelined_rt::model::TaskChain) -> HeuristicConfig {
    HeuristicConfig {
        interval_heuristic: IntervalHeuristic::MinPeriod,
        period_bound: chain.max_task_work() * 2.0,
        latency_bound: chain.total_work() * 1.5,
    }
}

#[test]
fn energy_budget_trades_reliability_for_power_on_generated_instances() {
    for seed in 0..3 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let chain = ChainSpec::paper_with_tasks(8).generate(&mut rng);
        let platform = Platform::homogeneous(8, 1.0, 1e-4, 1.0, 1e-5, 3).unwrap();
        let model = PowerModel::cubic();
        let config = relative_config(&chain);
        let oracle = IntervalOracle::new(&chain, &platform);

        let unbudgeted = run_heuristic(&oracle, &chain, &platform, &config).unwrap();
        let full = energy::energy_per_dataset(&chain, &platform, &unbudgeted.mapping, &model);

        // The cheapest possible mapping keeps one unit-speed replica per
        // interval, i.e. exactly the total work under the cubic model — any
        // budget at or above that is feasible.
        let skeleton = chain.total_work();
        let budgets = [skeleton, (skeleton + full) / 2.0, full];
        let mut previous_reliability = 0.0;
        let mut previous_energy = 0.0;
        for budget in budgets {
            let solution = run_energy_aware_heuristic(
                &oracle,
                &chain,
                &platform,
                &EnergyAwareConfig {
                    base: config,
                    power_model: model,
                    energy_budget: budget,
                },
            )
            .unwrap();
            // Budget respected, bounds respected.
            assert!(solution.energy.energy_per_dataset <= budget + 1e-9);
            assert!(solution
                .evaluation
                .meets(config.period_bound, config.latency_bound));
            // More budget => at least as reliable and at least as much energy spent.
            assert!(solution.evaluation.reliability >= previous_reliability - 1e-15);
            assert!(solution.energy.energy_per_dataset >= previous_energy - 1e-9);
            previous_reliability = solution.evaluation.reliability;
            previous_energy = solution.energy.energy_per_dataset;
        }
        // The full-budget solution recovers the unbudgeted mapping.
        let full_budget = run_energy_aware_heuristic(
            &oracle,
            &chain,
            &platform,
            &EnergyAwareConfig {
                base: config,
                power_model: model,
                energy_budget: full,
            },
        )
        .unwrap();
        assert_eq!(full_budget.mapping, unbudgeted.mapping);
    }
}

#[test]
fn general_rbd_bounds_and_monte_carlo_bracket_the_routing_model() {
    // Build a replicated mapping, derive its direct (non series-parallel) RBD
    // and check that: routing model <= exact(direct) and the Esary-Proschan
    // bounds bracket the exact value, with Monte-Carlo agreeing too.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let chain = ChainSpec::paper_with_tasks(6).generate(&mut rng);
    let platform = Platform::homogeneous(6, 1.0, 5e-4, 1.0, 2e-4, 2).unwrap();
    let oracle = IntervalOracle::new(&chain, &platform);
    let solution = run_heuristic(&oracle, &chain, &platform, &base_config()).unwrap();

    let direct = mapping_rbd::general_rbd(&chain, &platform, &solution.mapping);
    assert!(
        direct.num_blocks() <= 30,
        "test mapping must stay within exact-evaluation reach"
    );
    let exact = rbd_exact::factoring(&direct);
    let routed = mapping_rbd::routing_sp_expr(&chain, &platform, &solution.mapping).reliability();
    assert!(routed <= exact + 1e-12);

    let bounds = approx::esary_proschan_bounds(&direct);
    assert!(bounds.lower <= exact + 1e-12);
    assert!(exact <= bounds.upper + 1e-12);

    let mc = approx::monte_carlo_reliability(&direct, 100_000, 5);
    assert!((mc.estimate - exact).abs() < 3.0 * mc.confidence95 + 2e-3);
}
