//! Randomized property tests on the core invariants of the model, the RBD
//! substrate, the LP solver and the optimization algorithms.
//!
//! The original suite used `proptest`; the offline build cannot fetch it, so
//! the same properties run on a small hand-rolled harness: each property is
//! checked on [`CASES`] instances generated from a seeded ChaCha8 stream,
//! and failures report the case's seed for reproduction.

use pipelined_rt::algorithms::{
    algo_alloc, exhaustive_alloc, heur_l_partitions, heur_p_partitions, optimize_reliability,
    DpScratch,
};
use pipelined_rt::lp::{solve_lp, ConstraintOp, LpStatus, Objective, Problem};
use pipelined_rt::model::{
    reliability, timing, Interval, IntervalOracle, IntervalPartition, MappedInterval, Mapping,
    MappingEvaluation, Platform, TaskChain,
};
use pipelined_rt::rbd::mapping_rbd;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Number of random cases per property (matches the proptest configuration
/// previously used).
const CASES: u64 = 64;

/// Runs `check` on `CASES` independently seeded generators; a failing case
/// re-panics with the seed that reproduces it.
fn for_random_cases(property: &str, mut check: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = 0x5eed_0000 + case;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            check(&mut rng);
        }));
        if outcome.is_err() {
            panic!("property `{property}` failed for ChaCha8 seed {seed:#x}");
        }
    }
}

/// A random chain of 2..=7 tasks with works in [1, 100] and outputs in
/// [0, 10].
fn random_chain(rng: &mut ChaCha8Rng) -> TaskChain {
    let n = rng.gen_range(2usize..=7);
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(1.0..100.0), rng.gen_range(0.0..10.0)))
        .collect();
    TaskChain::from_pairs(&pairs).expect("valid generated chain")
}

/// A homogeneous platform with 2..=6 processors and noticeable failure
/// rates.
fn random_hom_platform(rng: &mut ChaCha8Rng) -> Platform {
    let p = rng.gen_range(2usize..=6);
    let speed = rng.gen_range(1.0..4.0);
    let lambda = rng.gen_range(1e-5..1e-2);
    let lambda_link = rng.gen_range(1e-6..1e-3);
    let k = rng.gen_range(1usize..=3);
    Platform::homogeneous(p, speed, lambda, 1.0, lambda_link, k).expect("valid platform")
}

/// A heterogeneous platform with 2..=6 processors.
fn random_het_platform(rng: &mut ChaCha8Rng) -> Platform {
    let p = rng.gen_range(2usize..=6);
    let processors = (0..p)
        .map(|_| {
            pipelined_rt::model::Processor::new(rng.gen_range(1.0..10.0), rng.gen_range(1e-5..1e-2))
        })
        .collect();
    Platform::new(processors, 1.0, 1e-4, 3).expect("valid platform")
}

/// A valid random mapping of `chain` on `platform`: random contiguous
/// partition, processors dealt round-robin.
fn random_mapping(rng: &mut ChaCha8Rng, chain: &TaskChain, platform: &Platform) -> Mapping {
    let n = chain.len();
    let p = platform.num_processors();
    let m = rng.gen_range(1usize..=n.min(p));

    let mut cuts: Vec<usize> = Vec::new();
    while cuts.len() < m - 1 {
        let cut = rng.gen_range(0usize..n - 1);
        if !cuts.contains(&cut) {
            cuts.push(cut);
        }
    }
    cuts.sort_unstable();
    let partition = IntervalPartition::from_cut_points(&cuts, n).expect("valid cuts");

    // Deal the processors round-robin, at most K per interval.
    let k = platform.max_replication();
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); m];
    for processor in 0..p {
        let slot = processor % m;
        if sets[slot].len() < k {
            sets[slot].push(processor);
        }
    }
    Mapping::from_partition(&partition, sets, chain, platform)
        .expect("round-robin assignment is structurally valid")
}

/// Reliability is a probability and every latency/period value is positive,
/// with worst cases dominating expected values and the latency dominating
/// the period.
#[test]
fn evaluation_invariants() {
    for_random_cases("evaluation_invariants", |rng| {
        let chain = random_chain(rng);
        let platform = random_het_platform(rng);
        let mapping = random_mapping(rng, &chain, &platform);
        let eval = MappingEvaluation::evaluate(&chain, &platform, &mapping);
        assert!(eval.reliability > 0.0 && eval.reliability <= 1.0);
        assert!(eval.expected_latency > 0.0);
        assert!(eval.expected_period > 0.0);
        assert!(eval.worst_case_latency >= eval.expected_latency - 1e-9);
        assert!(eval.worst_case_period >= eval.expected_period - 1e-9);
        assert!(eval.worst_case_latency >= eval.worst_case_period - 1e-9);
        assert!(eval.expected_latency >= eval.expected_period - 1e-9);
    });
}

/// Eq. (9) equals the series-parallel routing RBD evaluation, for any
/// mapping on any platform.
#[test]
fn closed_form_reliability_equals_routing_rbd() {
    for_random_cases("closed_form_reliability_equals_routing_rbd", |rng| {
        let chain = random_chain(rng);
        let platform = random_het_platform(rng);
        let mapping = random_mapping(rng, &chain, &platform);
        let closed_form = reliability::mapping_reliability(&chain, &platform, &mapping);
        let expr = mapping_rbd::routing_sp_expr(&chain, &platform, &mapping);
        assert!((closed_form - expr.reliability()).abs() < 1e-12);
    });
}

/// Adding one more replica to any interval never decreases the mapping
/// reliability.
#[test]
fn replication_is_monotone() {
    for_random_cases("replication_is_monotone", |rng| {
        let chain = random_chain(rng);
        let platform = random_hom_platform(rng);
        let mapping = random_mapping(rng, &chain, &platform);
        let used: usize = mapping.processors_used();
        if used >= platform.num_processors() {
            return; // no spare processor: property vacuous for this case
        }
        let spare = platform.num_processors() - 1; // highest index is free iff used < p
        let before = reliability::mapping_reliability(&chain, &platform, &mapping);

        // Add the spare processor to each interval that still has room.
        for j in 0..mapping.num_intervals() {
            if mapping.interval(j).replication() >= platform.max_replication() {
                continue;
            }
            let mut intervals: Vec<MappedInterval> = mapping.intervals().to_vec();
            if intervals[j].processors.contains(&spare) {
                continue;
            }
            intervals[j].processors.push(spare);
            let augmented = Mapping::new(intervals, &chain, &platform).expect("still valid");
            let after = reliability::mapping_reliability(&chain, &platform, &augmented);
            assert!(after >= before - 1e-15);
        }
    });
}

/// Algo-Alloc (greedy) matches the exhaustive allocation on homogeneous
/// platforms (Theorem 4).
#[test]
fn algo_alloc_is_optimal() {
    for_random_cases("algo_alloc_is_optimal", |rng| {
        let chain = random_chain(rng);
        let platform = random_hom_platform(rng);
        let n = chain.len();
        let p = platform.num_processors();
        let m = rng.gen_range(1usize..=n.min(p));
        // Evenly spread cut points.
        let cuts: Vec<usize> = (1..m).map(|j| j * n / m - 1).collect();
        let partition = IntervalPartition::from_cut_points(&cuts, n).expect("valid cuts");
        if partition.len() > p {
            return;
        }

        let oracle = IntervalOracle::new(&chain, &platform);
        let greedy = algo_alloc(&oracle, &chain, &platform, &partition).expect("enough processors");
        let best = exhaustive_alloc(&chain, &platform, &partition).expect("enough processors");
        let rg = reliability::mapping_reliability(&chain, &platform, &greedy);
        let rb = reliability::mapping_reliability(&chain, &platform, &best);
        assert!((rg - rb).abs() < 1e-13);
    });
}

/// Algorithm 2 under a very large period bound coincides with Algorithm 1,
/// and its reliability is monotone in the bound.
#[test]
fn algorithm2_consistency() {
    for_random_cases("algorithm2_consistency", |rng| {
        let chain = random_chain(rng);
        let platform = random_hom_platform(rng);
        let oracle = IntervalOracle::new(&chain, &platform);
        let solve =
            |bound| optimize_reliability(&oracle, &chain, &platform, bound, &mut DpScratch::new());
        let unconstrained = solve(None).unwrap();
        let loose = solve(Some(1e12)).unwrap();
        assert!((unconstrained.reliability - loose.reliability).abs() < 1e-12);

        let tight_bound = chain.max_task_work() / platform.speed(0)
            + chain.max_boundary_output() / platform.bandwidth();
        if let Ok(tight) = solve(Some(tight_bound)) {
            assert!(tight.reliability <= loose.reliability + 1e-12);
            let eval = MappingEvaluation::evaluate(&chain, &platform, &tight.mapping);
            assert!(eval.worst_case_period <= tight_bound + 1e-9);
        }
    });
}

/// Both interval heuristics always produce valid partitions with the
/// requested number of intervals, and Heur-P's bottleneck never exceeds
/// Heur-L's.
#[test]
fn interval_heuristics_produce_valid_partitions() {
    for_random_cases("interval_heuristics_produce_valid_partitions", |rng| {
        let chain = random_chain(rng);
        let n = chain.len();
        let max_intervals = rng.gen_range(1usize..=n);
        // The platform does not affect the partitions.
        let platform = Platform::homogeneous(1, 1.0, 1e-3, 1.0, 1e-4, 1).unwrap();
        let oracle = IntervalOracle::new(&chain, &platform);
        let all_l = heur_l_partitions(&oracle, max_intervals);
        let all_p = heur_p_partitions(&oracle, max_intervals);
        assert_eq!(all_l.len(), max_intervals);
        assert_eq!(all_p.len(), max_intervals);

        let bottleneck = |partition: &IntervalPartition| {
            partition
                .intervals()
                .iter()
                .map(|itv| itv.work(&chain).max(itv.output_size(&chain)))
                .fold(0.0f64, f64::max)
        };
        for (m, (heur_l, heur_p)) in (1..).zip(all_l.iter().zip(&all_p)) {
            assert_eq!(heur_l.len(), m);
            assert_eq!(heur_p.len(), m);
            assert_eq!(heur_l.chain_len(), n);
            assert!(bottleneck(heur_p) <= bottleneck(heur_l) + 1e-9);

            // Heur-L minimizes the total boundary communication by
            // construction.
            assert!(
                heur_l.total_boundary_output(&chain) <= heur_p.total_boundary_output(&chain) + 1e-9
            );
        }
    });
}

/// The per-interval period requirement is consistent with the worst-case
/// period of a single-interval mapping.
#[test]
fn interval_period_requirement_matches_evaluation() {
    for_random_cases("interval_period_requirement_matches_evaluation", |rng| {
        let chain = random_chain(rng);
        let platform = random_hom_platform(rng);
        let whole = Interval {
            first: 0,
            last: chain.len() - 1,
        };
        let requirement =
            timing::interval_period_requirement(&chain, &platform, whole, platform.speed(0));
        let mapping =
            Mapping::new(vec![MappedInterval::new(whole, vec![0])], &chain, &platform).unwrap();
        let eval = MappingEvaluation::evaluate(&chain, &platform, &mapping);
        assert!((requirement - eval.worst_case_period).abs() < 1e-9);
    });
}

/// The simplex solution of a random feasible LP is feasible and no worse
/// than any sampled feasible point (local optimality sanity check).
#[test]
fn lp_solutions_are_feasible_and_dominant() {
    for_random_cases("lp_solutions_are_feasible_and_dominant", |rng| {
        let coeffs: Vec<f64> = (0..3).map(|_| rng.gen_range(0.1..5.0)).collect();
        let bounds: Vec<f64> = (0..3).map(|_| rng.gen_range(1.0..20.0)).collect();

        let mut problem = Problem::new(Objective::Maximize, coeffs.clone());
        // x_i <= bound_i and sum x_i <= half the total bound.
        for (i, &b) in bounds.iter().enumerate() {
            problem.add_sparse_constraint(&[(i, 1.0)], ConstraintOp::Le, b);
        }
        let total: f64 = bounds.iter().sum();
        problem.add_constraint(vec![1.0; 3], ConstraintOp::Le, total / 2.0);

        let solution = solve_lp(&problem);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!(problem.is_feasible(&solution.x, 1e-6));
        // The origin and the per-axis extreme points never beat the optimum.
        assert!(solution.objective >= -1e-9);
        for i in 0..3 {
            let mut x = vec![0.0; 3];
            x[i] = bounds[i].min(total / 2.0);
            let value = problem.objective_value(&x);
            assert!(solution.objective >= value - 1e-6);
        }
    });
}
