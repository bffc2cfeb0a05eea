//! The differential solver battery: one seeded ChaCha8 harness that pits
//! **every solver pair sharing a contract** against each other, so every
//! future solver lands against the same oracle battery.
//!
//! | pair | contract | instances |
//! |---|---|---|
//! | `algo_het_lat` vs `exhaustive_het_lat` | identical reliability and feasibility | n ≤ 8, p ≤ 6, K_c ≤ 3, latency-bounded |
//! | `algo_het_lat` vs `greedy_het_lat` | never less reliable, same-or-better feasibility | paper-scale 3-class, latency-bounded |
//! | `algo2` vs `ILP` | identical reliability and feasibility | small homogeneous, period-bounded |
//! | analytic Eq. 9 vs Monte-Carlo (`rpo-sim`) | within 3σ of the binomial estimate | every returned mapping |
//! | every default backend on one shared `DpScratch` (in order and reversed) vs a fresh scratch each | identical mappings, bit-identical reliabilities | homogeneous and class-structured, bounded and unbounded |
//!
//! Reuses the ChaCha8 harness style of `tests/properties.rs`: each case is
//! generated from its own seed, and a failing case re-panics with the seed
//! that reproduces it (the dedicated CI step runs with `--nocapture`, so the
//! seed lands in the log).

use pipelined_rt::algorithms::{
    algo_het, algo_het_lat, exact, exhaustive_het_lat, greedy_het_lat, het_dp_applicable,
    optimize_reliability, run_heuristic, AlgoError, DpScratch, HetLatMethod, HetLatSolution,
    HeuristicConfig, IntervalHeuristic, OptimalMapping, Result,
};
use pipelined_rt::model::{
    IntervalOracle, Mapping, MappingEvaluation, Platform, PlatformBuilder, Processor, TaskChain,
};
use pipelined_rt::portfolio::{
    backends::HetDpLatBackend, default_backends, Budget, CandidateMapping, ProblemInstance,
    SolveContext, SolverBackend,
};
use pipelined_rt::sim::{monte_carlo, MonteCarloConfig};
use pipelined_rt::workload::InstanceGenerator;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 40;

fn for_random_cases(property: &str, base_seed: u64, mut check: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = base_seed + case;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            check(&mut rng);
        }));
        if outcome.is_err() {
            panic!("property `{property}` failed for ChaCha8 seed {seed:#x}");
        }
    }
}

/// A random chain of `2..=max_tasks` tasks with works in [1, 100] and
/// outputs in [0, 10].
fn random_chain(rng: &mut ChaCha8Rng, max_tasks: usize) -> TaskChain {
    let n = rng.gen_range(2usize..=max_tasks);
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(1.0..100.0), rng.gen_range(0.0..10.0)))
        .collect();
    TaskChain::from_pairs(&pairs).unwrap()
}

/// A random class-structured platform: `classes ≤ 3` distinct
/// `(speed, failure rate)` classes over `2..=max_processors` processors.
fn random_class_platform(rng: &mut ChaCha8Rng, max_processors: usize) -> Platform {
    let p = rng.gen_range(2usize..=max_processors);
    let classes = rng.gen_range(1usize..=3.min(p));
    let class_specs: Vec<(f64, f64)> = (0..classes)
        .map(|_| {
            (
                rng.gen_range(1.0..8.0),
                10f64.powf(rng.gen_range(-5.0..-2.0)),
            )
        })
        .collect();
    let processors: Vec<Processor> = (0..p)
        .map(|u| {
            let (speed, rate) = class_specs[u % classes];
            Processor::new(speed, rate)
        })
        .collect();
    Platform::new(
        processors,
        rng.gen_range(0.5..4.0),
        10f64.powf(rng.gen_range(-6.0..-3.0)),
        rng.gen_range(2usize..=3),
    )
    .unwrap()
}

/// [`algo_het_lat`] against `oracle` with a fresh scratch.
fn het_lat(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    latency_bound: f64,
) -> Result<HetLatSolution> {
    let mut scratch = DpScratch::new();
    algo_het_lat(
        oracle,
        chain,
        platform,
        period_bound,
        latency_bound,
        &mut scratch,
    )
}

/// Algorithm 2 on a fresh oracle and scratch.
fn algo2(chain: &TaskChain, platform: &Platform, period_bound: f64) -> Result<OptimalMapping> {
    let oracle = IntervalOracle::new(chain, platform);
    optimize_reliability(
        &oracle,
        chain,
        platform,
        Some(period_bound),
        &mut DpScratch::new(),
    )
}

#[test]
fn algo_het_lat_matches_exhaustive_on_small_latency_bounded_instances() {
    for_random_cases("algo_het_lat == exhaustive_het_lat", 0xD1FF_0000, |rng| {
        let chain = random_chain(rng, 8);
        let platform = random_class_platform(rng, 6);
        let oracle = IntervalOracle::new(&chain, &platform);
        assert!(het_dp_applicable(&oracle), "3 classes over ≤ 6 processors");
        let period = if rng.gen_bool(0.3) {
            None
        } else {
            Some(rng.gen_range(0.5..1.3) * chain.total_work() / platform.max_speed())
        };
        // Latency slacks spanning infeasible (below the floor), tight, and
        // loose regimes.
        let latency = rng.gen_range(0.9..2.5) * oracle.latency_floor();
        let dp = het_lat(&oracle, &chain, &platform, period, latency);
        let brute = exhaustive_het_lat(&chain, &platform, period, latency);
        match (dp, brute) {
            (Ok(dp), Ok(brute)) => {
                assert!(
                    (dp.reliability - brute.reliability).abs()
                        <= 1e-12 * brute.reliability.max(dp.reliability),
                    "bounds ({period:?}, {latency}): algo_het_lat {} vs exhaustive {}",
                    dp.reliability,
                    brute.reliability
                );
                // The DP's mapping respects both bounds exactly.
                let eval = MappingEvaluation::evaluate(&chain, &platform, &dp.mapping);
                assert!(eval.worst_case_latency <= latency);
                if let Some(period) = period {
                    assert!(eval.worst_case_period <= period);
                }
                assert_eq!(dp.reliability, eval.reliability);
                assert_eq!(dp.worst_case_latency, eval.worst_case_latency);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (dp, brute) => panic!(
                "feasibility mismatch under ({period:?}, {latency}): algo_het_lat {} vs \
                 exhaustive {}",
                dp.is_ok(),
                brute.is_ok()
            ),
        }
    });
}

#[test]
fn algo_het_lat_never_trails_greedy_on_paper_scale_instances() {
    // Paper-scale latency-bounded class-structured instances (n = 15,
    // p = 10, 3 classes): too big for the exhaustive reference, but the
    // ≥-greedy invariant and both bounds must hold everywhere.
    for (index, bounded) in
        InstanceGenerator::paper_het_lat_stream(0xD1FF_1000, CASES as usize).enumerate()
    {
        let chain = &bounded.instance.chain;
        let platform = &bounded.instance.heterogeneous;
        let oracle = IntervalOracle::new(chain, platform);
        let dp = het_lat(
            &oracle,
            chain,
            platform,
            Some(bounded.period_bound),
            bounded.latency_bound,
        );
        let greedy = greedy_het_lat(
            &oracle,
            chain,
            platform,
            Some(bounded.period_bound),
            bounded.latency_bound,
        );
        match (&dp, &greedy) {
            (Ok(dp), Ok(greedy)) => {
                assert!(
                    dp.reliability >= greedy.reliability,
                    "instance {index}: algo_het_lat {} below greedy {}",
                    dp.reliability,
                    greedy.reliability
                );
                assert_eq!(dp.greedy_reliability, Some(greedy.reliability));
            }
            (Err(_), Ok(_)) => {
                panic!("instance {index}: greedy solved but algo_het_lat did not")
            }
            _ => {}
        }
        if let Ok(dp) = &dp {
            // The paper-regime stream (n = 15, p = 10, 3 classes, the tight
            // paper_het_lat bounds) must be answered by the exact label DP
            // itself — never the Lagrangian fallback or the greedy: a silent
            // path downgrade would keep the ≥-greedy invariant while losing
            // the exactness this regime is benchmarked on.
            assert_eq!(
                dp.method,
                HetLatMethod::LatDp,
                "instance {index}: paper-regime solve left the label-DP path"
            );
            let eval = MappingEvaluation::evaluate(chain, platform, &dp.mapping);
            assert!(
                eval.worst_case_latency <= bounded.latency_bound,
                "instance {index}: latency {} exceeds bound {}",
                eval.worst_case_latency,
                bounded.latency_bound
            );
            assert!(
                eval.worst_case_period <= bounded.period_bound,
                "instance {index}: period {} exceeds bound {}",
                eval.worst_case_period,
                bounded.period_bound
            );
            assert_eq!(dp.reliability, eval.reliability);
        }
    }
}

#[test]
fn algo2_matches_the_ilp_on_small_homogeneous_instances() {
    for_random_cases("algo2 == ILP", 0xD1FF_2000, |rng| {
        let chain = random_chain(rng, 7);
        let platform = Platform::homogeneous(
            rng.gen_range(2usize..=5),
            rng.gen_range(1.0..4.0),
            10f64.powf(rng.gen_range(-5.0..-3.0)),
            rng.gen_range(0.5..2.0),
            10f64.powf(rng.gen_range(-6.0..-4.0)),
            rng.gen_range(2usize..=3),
        )
        .unwrap();
        let bound = rng.gen_range(0.4..1.5) * chain.total_work() / platform.speed(0);
        let algo2 = algo2(&chain, &platform, bound);
        let oracle = IntervalOracle::new(&chain, &platform);
        let ilp = exact::optimal_by_ilp(&oracle, &chain, &platform, bound, f64::INFINITY);
        match (algo2, ilp) {
            (Ok(algo2), Ok(ilp)) => assert!(
                (algo2.reliability - ilp.reliability).abs()
                    <= 1e-9 * ilp.reliability.max(algo2.reliability),
                "bound {bound}: algo2 {} vs ILP {}",
                algo2.reliability,
                ilp.reliability
            ),
            (Err(_), Err(_)) => {}
            (algo2, ilp) => panic!(
                "feasibility mismatch under bound {bound}: algo2 {} vs ILP {}",
                algo2.is_ok(),
                ilp.is_ok()
            ),
        }
    });
}

/// Asserts the Monte-Carlo reliability estimate of `mapping` lies within 3σ
/// (binomial normal approximation) of the analytic Eq. 9 value. The
/// simulation streams are seeded, so the check is deterministic.
fn assert_monte_carlo_within_3_sigma(
    label: &str,
    chain: &TaskChain,
    platform: &Platform,
    mapping: &Mapping,
    seed: u64,
) {
    let config = MonteCarloConfig {
        num_datasets: 20_000,
        seed,
        chunk_size: 4096,
    };
    let analytic = MappingEvaluation::evaluate(chain, platform, mapping).reliability;
    let estimate = monte_carlo(chain, platform, mapping, &config);
    let sigma = (analytic * (1.0 - analytic) / config.num_datasets as f64).sqrt();
    assert!(
        (estimate.reliability - analytic).abs() <= 3.0 * sigma + 1e-12,
        "{label}: Monte-Carlo {} vs analytic {analytic} (3σ = {})",
        estimate.reliability,
        3.0 * sigma
    );
}

#[test]
fn monte_carlo_agrees_with_eq9_for_every_returned_mapping() {
    // Failure rates high enough that the failure probability is measurable
    // with 20k samples; every solver's returned mapping is simulated.
    for case in 0..6u64 {
        let seed = 0xD1FF_3000 + case;
        let outcome = std::panic::catch_unwind(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(3usize..=6);
            let pairs: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(10.0..60.0), rng.gen_range(0.0..8.0)))
                .collect();
            let chain = TaskChain::from_pairs(&pairs).unwrap();
            let mut builder = PlatformBuilder::new()
                .bandwidth(rng.gen_range(0.5..2.0))
                .link_failure_rate(10f64.powf(rng.gen_range(-4.0..-3.0)))
                .max_replication(rng.gen_range(2usize..=3));
            let classes: Vec<(f64, f64)> = (0..2)
                .map(|_| {
                    (
                        rng.gen_range(1.0..4.0),
                        10f64.powf(rng.gen_range(-3.0..-2.0)),
                    )
                })
                .collect();
            for u in 0..4 {
                let (speed, rate) = classes[u % 2];
                builder = builder.processor(speed, rate);
            }
            let platform = builder.build().unwrap();
            let oracle = IntervalOracle::new(&chain, &platform);
            let floor = oracle.latency_floor();

            let mut mappings: Vec<(&'static str, Mapping)> = Vec::new();
            if let Ok(sol) = algo_het(&oracle, &chain, &platform, None) {
                mappings.push(("algo_het", sol.mapping));
            }
            if let Ok(sol) = het_lat(&oracle, &chain, &platform, None, 1.5 * floor) {
                mappings.push(("algo_het_lat", sol.mapping));
            }
            if let Ok(sol) = greedy_het_lat(&oracle, &chain, &platform, None, 2.0 * floor) {
                mappings.push(("greedy_het_lat", sol.mapping));
            }
            assert!(
                !mappings.is_empty(),
                "at least one heterogeneous solver must succeed"
            );
            for (label, mapping) in &mappings {
                assert_monte_carlo_within_3_sigma(label, &chain, &platform, mapping, seed ^ 0xA5);
            }

            // One homogeneous mapping through Algorithm 2 for coverage of
            // the homogeneous stack.
            let hom = Platform::homogeneous(4, 1.5, 5e-3, 1.0, 1e-4, 2).unwrap();
            let bound = rng.gen_range(0.5..1.2) * chain.total_work() / 1.5;
            if let Ok(sol) = algo2(&chain, &hom, bound) {
                assert_monte_carlo_within_3_sigma("algo2", &chain, &hom, &sol.mapping, seed ^ 0x5A);
            }
        });
        if outcome.is_err() {
            panic!("property `monte-carlo within 3σ` failed for ChaCha8 seed {seed:#x}");
        }
    }
}

/// A fixed two-class fixture for the latency edge cases.
fn edge_fixture() -> (TaskChain, Platform) {
    let chain =
        TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap();
    let platform = PlatformBuilder::new()
        .processor(4.0, 1e-3)
        .processor(4.0, 1e-3)
        .processor(4.0, 1e-3)
        .processor(1.0, 1e-4)
        .processor(1.0, 1e-4)
        .processor(1.0, 1e-4)
        .bandwidth(1.0)
        .link_failure_rate(1e-5)
        .max_replication(3)
        .build()
        .unwrap();
    (chain, platform)
}

/// Runs the `Het-Dp-Lat` backend alone on one instance.
fn solve_het_dp_lat(instance: &ProblemInstance) -> Vec<pipelined_rt::portfolio::CandidateMapping> {
    let oracle = instance.build_oracle();
    let mut scratch = DpScratch::new();
    let mut ctx = SolveContext {
        scratch: &mut scratch,
        front: None,
    };
    HetDpLatBackend.solve(instance, &oracle, &Budget::default(), &mut ctx)
}

#[test]
fn latency_bound_below_the_floor_is_cleanly_infeasible_everywhere() {
    let (chain, platform) = edge_fixture();
    let oracle = IntervalOracle::new(&chain, &platform);
    let below = 0.5 * oracle.latency_floor();

    // algo_het_lat: clean error, no panic.
    assert_eq!(
        het_lat(&oracle, &chain, &platform, None, below).unwrap_err(),
        AlgoError::NoFeasibleMapping
    );
    // The Section 7 heuristics: clean error, no panic.
    for heuristic in [IntervalHeuristic::MinLatency, IntervalHeuristic::MinPeriod] {
        assert_eq!(
            run_heuristic(
                &oracle,
                &chain,
                &platform,
                &HeuristicConfig {
                    interval_heuristic: heuristic,
                    period_bound: 1e6,
                    latency_bound: below,
                },
            )
            .unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }
    // The Het-Dp-Lat portfolio backend: no candidates, no panic.
    let instance =
        ProblemInstance::new(chain.clone(), platform.clone(), f64::INFINITY, below).unwrap();
    assert!(solve_het_dp_lat(&instance).is_empty());
}

#[test]
fn latency_bound_exactly_at_the_floor_is_feasible() {
    let (chain, platform) = edge_fixture();
    let oracle = IntervalOracle::new(&chain, &platform);
    let floor = oracle.latency_floor();

    let sol = het_lat(&oracle, &chain, &platform, None, floor).unwrap();
    assert_eq!(sol.worst_case_latency, floor);

    let instance =
        ProblemInstance::new(chain.clone(), platform.clone(), f64::INFINITY, floor).unwrap();
    let candidates = solve_het_dp_lat(&instance);
    assert_eq!(candidates.len(), 1);
    assert!(candidates[0].evaluation.worst_case_latency <= floor);
}

#[test]
fn invalid_latency_bounds_are_rejected_across_the_stack() {
    let (chain, platform) = edge_fixture();
    let oracle = IntervalOracle::new(&chain, &platform);
    for bad in [0.0, -3.0, f64::NAN] {
        assert_eq!(
            het_lat(&oracle, &chain, &platform, None, bad).unwrap_err(),
            AlgoError::InvalidBound("latency bound")
        );
        assert_eq!(
            greedy_het_lat(&oracle, &chain, &platform, None, bad).unwrap_err(),
            AlgoError::InvalidBound("latency bound")
        );
        assert_eq!(
            exhaustive_het_lat(&chain, &platform, None, bad).unwrap_err(),
            AlgoError::InvalidBound("latency bound")
        );
        assert_eq!(
            run_heuristic(
                &oracle,
                &chain,
                &platform,
                &HeuristicConfig {
                    interval_heuristic: IntervalHeuristic::MinPeriod,
                    period_bound: 1e6,
                    latency_bound: bad,
                },
            )
            .unwrap_err(),
            AlgoError::InvalidBound("latency bound")
        );
        // The portfolio rejects the instance before any backend runs.
        assert!(ProblemInstance::new(chain.clone(), platform.clone(), 1e6, bad).is_err());
    }
    // An infinite latency bound is "no bound" for the portfolio (the
    // backend skips), but algo_het_lat demands a real one.
    assert_eq!(
        het_lat(&oracle, &chain, &platform, None, f64::INFINITY).unwrap_err(),
        AlgoError::InvalidBound("latency bound")
    );
}

#[test]
fn one_scratch_shared_across_every_backend_matches_a_fresh_scratch_per_backend() {
    // The engine lends each worker one pooled scratch and runs every
    // backend on it without a reset in between, so a backend may inherit
    // another's warm-start data (Period-Opt after Algo-2, Het-Dp-Lat's
    // label arenas). None of it may change an answer.
    let backends = default_backends();
    let budget = Budget::default();
    for_random_cases("shared scratch == fresh scratch", 0xD1FF_4000, |rng| {
        let chain = random_chain(rng, 10);
        let platform = if rng.gen_bool(0.5) {
            Platform::homogeneous(
                rng.gen_range(2usize..=8),
                rng.gen_range(1.0..4.0),
                10f64.powf(rng.gen_range(-5.0..-3.0)),
                rng.gen_range(0.5..2.0),
                10f64.powf(rng.gen_range(-6.0..-4.0)),
                rng.gen_range(2usize..=3),
            )
            .unwrap()
        } else {
            random_class_platform(rng, 8)
        };
        let period = if rng.gen_bool(0.5) {
            f64::INFINITY
        } else {
            rng.gen_range(0.4..1.5) * chain.total_work() / platform.max_speed()
        };
        let latency = if rng.gen_bool(0.5) {
            f64::INFINITY
        } else {
            let floor = IntervalOracle::new(&chain, &platform).latency_floor();
            rng.gen_range(1.0..3.0) * floor
        };
        let instance = ProblemInstance::new(chain, platform, period, latency).unwrap();
        let oracle = instance.build_oracle();
        let applicable: Vec<&dyn SolverBackend> = backends
            .iter()
            .map(|backend| backend.as_ref())
            .filter(|backend| backend.applicability(&instance, &budget).is_applicable())
            .collect();
        let run = |backend: &dyn SolverBackend, scratch: &mut DpScratch| {
            let mut ctx = SolveContext {
                scratch,
                front: None,
            };
            backend.solve(&instance, &oracle, &budget, &mut ctx)
        };
        let fresh: Vec<Vec<CandidateMapping>> = applicable
            .iter()
            .map(|backend| run(*backend, &mut DpScratch::new()))
            .collect();
        let mut shared = DpScratch::new();
        let in_order: Vec<Vec<CandidateMapping>> = applicable
            .iter()
            .map(|backend| run(*backend, &mut shared))
            .collect();
        let mut shared = DpScratch::new();
        let mut reversed: Vec<Vec<CandidateMapping>> = applicable
            .iter()
            .rev()
            .map(|backend| run(*backend, &mut shared))
            .collect();
        reversed.reverse();
        for (index, backend) in applicable.iter().enumerate() {
            for (order, candidates) in [
                ("in order", &in_order[index]),
                ("reversed", &reversed[index]),
            ] {
                let expected = &fresh[index];
                assert_eq!(
                    candidates.len(),
                    expected.len(),
                    "{} ({order}): candidate count",
                    backend.name()
                );
                for (got, want) in candidates.iter().zip(expected) {
                    assert_eq!(got.mapping, want.mapping, "{} ({order})", backend.name());
                    assert_eq!(
                        got.evaluation.reliability.to_bits(),
                        want.evaluation.reliability.to_bits(),
                        "{} ({order})",
                        backend.name()
                    );
                }
            }
        }
    });
}
