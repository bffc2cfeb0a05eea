//! Cross-crate integration tests: generated workloads flow through the
//! algorithms, the evaluator, the RBD substrate and the simulator, and the
//! results stay mutually consistent.

use pipelined_rt::algorithms::{
    exact, optimize_reliability, run_heuristic, DpScratch, HeuristicConfig, IntervalHeuristic,
};
use pipelined_rt::model::{IntervalOracle, MappingEvaluation, Platform, TaskChain};
use pipelined_rt::rbd::{exact as rbd_exact, mapping_rbd};
use pipelined_rt::sim::{monte_carlo, simulate_pipeline, MonteCarloConfig, PipelineConfig};
use pipelined_rt::workload::{ChainSpec, HeterogeneousPlatformSpec, InstanceGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small paper-style instance (fewer tasks so the exact solvers stay fast in
/// debug builds).
fn small_instance(seed: u64) -> (TaskChain, Platform) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let chain = ChainSpec::paper_with_tasks(8).generate(&mut rng);
    // Larger failure rates than the paper so reliabilities are not all ~1.
    let platform = Platform::homogeneous(6, 1.0, 1e-4, 1.0, 1e-4, 3).unwrap();
    (chain, platform)
}

#[test]
fn generated_instances_flow_through_the_whole_stack() {
    for seed in 0..5 {
        let (chain, platform) = small_instance(seed);
        let oracle = IntervalOracle::new(&chain, &platform);

        // Exact optimum without bounds == Algorithm 1.
        let dp =
            optimize_reliability(&oracle, &chain, &platform, None, &mut DpScratch::new()).unwrap();
        let exhaustive =
            exact::optimal_homogeneous(&oracle, &chain, &platform, f64::INFINITY, f64::INFINITY)
                .unwrap();
        assert!(
            (dp.reliability - exhaustive.reliability).abs() < 1e-12,
            "seed {seed}"
        );

        // The returned mapping's evaluation agrees with the reported value.
        let eval = MappingEvaluation::evaluate(&chain, &platform, &dp.mapping);
        assert!((eval.reliability - dp.reliability).abs() < 1e-12);

        // The serial-parallel RBD with routing operations gives the same
        // reliability as the closed form, and the exact factoring of that RBD
        // graph agrees too.
        let expr = mapping_rbd::routing_sp_expr(&chain, &platform, &dp.mapping);
        assert!((expr.reliability() - eval.reliability).abs() < 1e-12);
        let graph = mapping_rbd::routing_rbd(&chain, &platform, &dp.mapping);
        if graph.num_blocks() <= 24 {
            assert!((rbd_exact::factoring(&graph) - eval.reliability).abs() < 1e-12);
        }
    }
}

#[test]
fn heuristics_are_feasible_and_dominated_by_the_optimum() {
    for seed in 0..5 {
        let (chain, platform) = small_instance(seed);
        let period_bound = chain.max_task_work() * 1.5;
        let latency_bound = chain.total_work() * 1.2;
        let oracle = IntervalOracle::new(&chain, &platform);

        let optimum =
            exact::optimal_homogeneous(&oracle, &chain, &platform, period_bound, latency_bound);
        for heuristic in [IntervalHeuristic::MinLatency, IntervalHeuristic::MinPeriod] {
            let config = HeuristicConfig {
                interval_heuristic: heuristic,
                period_bound,
                latency_bound,
            };
            if let Ok(solution) = run_heuristic(&oracle, &chain, &platform, &config) {
                assert!(solution.evaluation.meets(period_bound, latency_bound));
                let optimum = optimum
                    .as_ref()
                    .expect("heuristic feasible => optimum feasible");
                assert!(
                    solution.evaluation.reliability <= optimum.reliability + 1e-12,
                    "seed {seed}: {} beats the optimum",
                    heuristic.name()
                );
            }
        }
    }
}

#[test]
fn period_constrained_dp_agrees_with_profile_sweep() {
    let (chain, platform) = small_instance(11);
    let oracle = IntervalOracle::new(&chain, &platform);
    let profiles = exact::ProfileSet::build(&oracle, &platform).unwrap();
    for period in [
        chain.max_task_work(),
        chain.max_task_work() * 1.3,
        chain.total_work() / 2.0,
        chain.total_work(),
    ] {
        let mut scratch = DpScratch::new();
        let dp =
            optimize_reliability(&oracle, &chain, &platform, Some(period), &mut scratch).unwrap();
        let profile = profiles
            .best_reliability_under(period, f64::INFINITY)
            .unwrap();
        assert!(
            (dp.reliability - profile).abs() < 1e-12,
            "period {period}: dp {} vs profiles {profile}",
            dp.reliability
        );
    }
}

#[test]
fn simulator_confirms_the_analytic_reliability_of_an_optimized_mapping() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let chain = ChainSpec::paper_with_tasks(6).generate(&mut rng);
    // Failure rates large enough to measure with 100k samples.
    let platform = Platform::homogeneous(6, 1.0, 2e-4, 1.0, 1e-4, 3).unwrap();
    let oracle = IntervalOracle::new(&chain, &platform);
    let solution =
        optimize_reliability(&oracle, &chain, &platform, None, &mut DpScratch::new()).unwrap();
    let analytic = MappingEvaluation::evaluate(&chain, &platform, &solution.mapping);

    let estimate = monte_carlo(
        &chain,
        &platform,
        &solution.mapping,
        &MonteCarloConfig {
            num_datasets: 100_000,
            seed: 9,
            chunk_size: 8192,
        },
    );
    let tolerance = 4.0 * estimate.reliability_confidence95().max(5e-4);
    assert!(
        (estimate.reliability - analytic.reliability).abs() < tolerance,
        "simulated {} vs analytic {}",
        estimate.reliability,
        analytic.reliability
    );

    // The pipelined simulation sustains (approximately) the analytic period.
    let report = simulate_pipeline(
        &chain,
        &platform,
        &solution.mapping,
        &PipelineConfig {
            num_datasets: 2_000,
            seed: 10,
            input_period: None,
        },
    );
    let relative =
        (report.achieved_period - analytic.expected_period).abs() / analytic.expected_period;
    assert!(
        relative < 0.05,
        "period {} vs {}",
        report.achieved_period,
        analytic.expected_period
    );
}

#[test]
fn heterogeneous_instances_are_solved_and_respect_bounds() {
    let generator = InstanceGenerator::paper_heterogeneous(123);
    let mut solved = 0;
    for instance in generator.batch(10) {
        let config = HeuristicConfig {
            interval_heuristic: IntervalHeuristic::MinPeriod,
            period_bound: 60.0,
            latency_bound: 200.0,
        };
        let (chain, platform) = (&instance.chain, &instance.heterogeneous);
        let oracle = IntervalOracle::new(chain, platform);
        if let Ok(solution) = run_heuristic(&oracle, chain, platform, &config) {
            assert!(solution.evaluation.meets(60.0, 200.0));
            solved += 1;
        }
    }
    assert!(
        solved > 0,
        "at least some paper-style heterogeneous instances must be solvable"
    );
}

#[test]
fn heterogeneous_platforms_from_the_generator_are_truly_heterogeneous() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let platform = HeterogeneousPlatformSpec::paper().generate(&mut rng);
    assert!(!platform.is_homogeneous());
    assert!(platform.max_speed() > platform.min_speed());
}

#[test]
fn ilp_solver_reproduces_the_exhaustive_optimum_on_a_generated_instance() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let chain = ChainSpec::paper_with_tasks(5).generate(&mut rng);
    let platform = Platform::homogeneous(4, 1.0, 1e-4, 1.0, 1e-4, 2).unwrap();
    let period = chain.max_task_work() * 2.0;
    let latency = chain.total_work() * 1.1;
    let oracle = IntervalOracle::new(&chain, &platform);
    let ilp = exact::optimal_by_ilp(&oracle, &chain, &platform, period, latency).unwrap();
    let exhaustive =
        exact::optimal_homogeneous(&oracle, &chain, &platform, period, latency).unwrap();
    assert!((ilp.reliability - exhaustive.reliability).abs() < 1e-9);
}
