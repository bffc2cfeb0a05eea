//! Integration tests of the solver-portfolio subsystem against the
//! reference brute-force solver, plus determinism and cache guarantees.

use pipelined_rt::algorithms::exact;
use pipelined_rt::model::{MappingEvaluation, Platform, TaskChain};
use pipelined_rt::portfolio::{
    default_backends, BatchDriver, BoundsPolicy, Budget, CandidateMapping, PortfolioEngine,
    PortfolioOutcome, ProblemInstance,
};
use pipelined_rt::workload::InstanceGenerator;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A tiny random homogeneous instance within brute-force reach.
fn tiny_instance(rng: &mut ChaCha8Rng) -> ProblemInstance {
    let n = rng.gen_range(2usize..=5);
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(5.0..50.0), rng.gen_range(0.0..8.0)))
        .collect();
    let chain = TaskChain::from_pairs(&pairs).expect("valid chain");
    let p = rng.gen_range(2usize..=4);
    let k = rng.gen_range(1usize..=2);
    let platform = Platform::homogeneous(
        p,
        1.0,
        rng.gen_range(1e-4..1e-2),
        1.0,
        rng.gen_range(1e-5..1e-3),
        k,
    )
    .expect("valid platform");
    // Bounds between clearly infeasible and clearly loose.
    let period = chain.max_task_work() * rng.gen_range(0.9..2.0);
    let latency = chain.total_work() * rng.gen_range(0.9..1.5);
    ProblemInstance::new(chain, platform, period, latency).expect("positive bounds")
}

/// The three criteria of a front, for comparisons.
fn criteria(outcome: &PortfolioOutcome) -> Vec<(f64, f64, f64)> {
    outcome
        .front
        .points()
        .iter()
        .map(|p| {
            (
                p.evaluation.reliability,
                p.evaluation.worst_case_period,
                p.evaluation.worst_case_latency,
            )
        })
        .collect()
}

/// On tiny instances the portfolio front is never dominated by the
/// brute-force optimum and always contains a point matching it.
#[test]
fn portfolio_front_contains_and_is_not_dominated_by_brute_force() {
    let engine = PortfolioEngine::default();
    let mut checked_feasible = 0;
    for case in 0..40u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xb0a7 + case);
        let instance = tiny_instance(&mut rng);
        let outcome = engine.solve(&instance);
        assert!(outcome.front.is_mutually_non_dominated(), "case {case}");

        let brute = exact::brute_force(
            &instance.chain,
            &instance.platform,
            instance.period_bound,
            instance.latency_bound,
        );
        match brute {
            Ok(optimum) => {
                checked_feasible += 1;
                let evaluation = MappingEvaluation::evaluate(
                    &instance.chain,
                    &instance.platform,
                    &optimum.mapping,
                );
                let brute_candidate = CandidateMapping {
                    backend: "brute-force",
                    mapping: optimum.mapping.clone(),
                    evaluation,
                };
                // 1. The front contains the brute-force reliability optimum.
                let best = outcome
                    .front
                    .best_reliability()
                    .unwrap_or_else(|| panic!("case {case}: brute force feasible, front empty"));
                assert!(
                    best.evaluation.reliability >= optimum.reliability - 1e-12,
                    "case {case}: front best {} < brute force {}",
                    best.evaluation.reliability,
                    optimum.reliability
                );
                // (and never *beats* the certified optimum)
                assert!(
                    best.evaluation.reliability <= optimum.reliability + 1e-12,
                    "case {case}: front best {} exceeds the optimum {}",
                    best.evaluation.reliability,
                    optimum.reliability
                );
                // 2. No front point is dominated by the brute-force point.
                for point in outcome.front.points() {
                    assert!(
                        !pipelined_rt::portfolio::pareto::dominates(&brute_candidate, point),
                        "case {case}: brute-force point dominates a front point"
                    );
                }
            }
            Err(_) => {
                // No feasible mapping exists: the portfolio must agree.
                assert!(
                    outcome.front.is_empty(),
                    "case {case}: portfolio found a mapping where brute force proved none exists"
                );
            }
        }
    }
    assert!(
        checked_feasible >= 10,
        "too few feasible cases ({checked_feasible}) to be meaningful"
    );
}

/// Same seed ⇒ identical front, across engines, thread counts and the
/// cache-hit path.
#[test]
fn cache_and_determinism_same_seed_identical_front() {
    let generator = InstanceGenerator::paper_homogeneous(99);
    let bounds = BoundsPolicy {
        period_slack: 1.6,
        latency_slack: 1.25,
    };
    let experiment = generator.instance(4);
    let instance = bounds.instance(&experiment.chain, &experiment.homogeneous);

    // Two independent engines agree (no shared state).
    let engine_a = PortfolioEngine::default();
    let engine_b = PortfolioEngine::default().with_threads(1);
    let first = engine_a.solve(&instance);
    let other = engine_b.solve(&instance);
    assert!(!first.from_cache);
    assert_eq!(criteria(&first), criteria(&other));

    // The cache-hit answer is identical to the computed one.
    let cached = engine_a.solve(&instance);
    assert!(cached.from_cache);
    assert_eq!(criteria(&first), criteria(&cached));
    assert_eq!(engine_a.cache_stats().hits, 1);

    // Regenerating the same seed gives the same instance, hence a cache hit.
    let experiment = InstanceGenerator::paper_homogeneous(99).instance(4);
    let regenerated = bounds.instance(&experiment.chain, &experiment.homogeneous);
    assert_eq!(instance, regenerated);
    let rehit = engine_a.solve(&regenerated);
    assert!(rehit.from_cache);
    assert_eq!(criteria(&first), criteria(&rehit));
}

/// The example's batch configuration really runs at least five backends and
/// produces mutually non-dominated fronts (the acceptance criterion of the
/// portfolio_race example, asserted here in miniature).
#[test]
fn batch_races_at_least_five_backends_with_non_dominated_fronts() {
    let budget = Budget {
        max_exhaustive_tasks: 15,
        ..Budget::default()
    };
    let engine = PortfolioEngine::new(default_backends(), budget).with_threads(1);
    let bounds = BoundsPolicy {
        period_slack: 1.6,
        latency_slack: 1.25,
    };
    let instances: Vec<ProblemInstance> = InstanceGenerator::paper_homogeneous(2024)
        .stream(20)
        .map(|experiment| bounds.instance(&experiment.chain, &experiment.homogeneous))
        .collect();
    let report = BatchDriver::default().run(&engine, instances.clone());
    assert_eq!(report.instances, 20);
    assert!(report.feasible_instances > 0);
    assert!(report.throughput() > 0.0);
    let backends_run = report.backend_stats.iter().filter(|s| s.runs > 0).count();
    assert!(backends_run >= 5, "only {backends_run} backends ran");

    // Every front produced under this configuration is non-dominated.
    for (index, instance) in instances.iter().enumerate() {
        let outcome = engine.solve(instance);
        assert!(
            outcome.front.is_mutually_non_dominated(),
            "instance {index}"
        );
    }
}
