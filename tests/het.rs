//! Heterogeneous class-DP property suite: on seeded random class-structured
//! instances, `algo_het` must be exact (equal to the brute-force
//! heterogeneous reference) on small instances, never below the greedy
//! Section 7.2 pipeline anywhere, and its class-level solutions must lower
//! to mappings that round-trip through the oracle's exact evaluator.
//!
//! Reuses the ChaCha8 harness style of `tests/properties.rs`: each case is
//! generated from its own seed, and a failing case re-panics with the seed
//! that reproduces it.

use pipelined_rt::algorithms::{
    algo_het, class_dp_with_kernel, exhaustive_het, greedy_het, het_dp_applicable, DpKernel,
    HetMethod,
};
use pipelined_rt::model::{
    ClassAssignment, IntervalOracle, IntervalPartition, MappingEvaluation, Platform, Processor,
    TaskChain,
};
use pipelined_rt::portfolio::{BatchDriver, PortfolioEngine, ProblemInstance};
use pipelined_rt::workload::InstanceGenerator;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 60;

fn for_random_cases(property: &str, mut check: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = 0x0C1A_5500 + case;
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

/// A period bound keeping a healthy feasibility mix: slack × the whole
/// chain on the fastest processor (slack < 1 forces splitting or fast-class
/// placement; on heterogeneous platforms the largest *task* is far too
/// tight a yardstick because cuts cost communication).
fn period_bound(rng: &mut ChaCha8Rng, chain: &TaskChain, platform: &Platform) -> f64 {
    rng.gen_range(0.5..1.3) * chain.total_work() / platform.max_speed()
}

#[test]
fn algo_het_matches_the_exhaustive_reference_on_small_instances() {
    for_random_cases("algo_het == exhaustive_het", |rng| {
        let chain = random_chain(rng, 8);
        let platform = random_class_platform(rng, 6);
        let oracle = IntervalOracle::new(&chain, &platform);
        assert!(het_dp_applicable(&oracle), "3 classes over ≤ 6 processors");
        let bound = if rng.gen_bool(0.3) {
            None
        } else {
            Some(period_bound(rng, &chain, &platform))
        };
        let dp = algo_het(&oracle, &chain, &platform, bound);
        let brute = exhaustive_het(&chain, &platform, bound);
        match (dp, brute) {
            (Ok(dp), Ok(brute)) => {
                assert!(
                    (dp.reliability - brute.reliability).abs()
                        <= 1e-12 * brute.reliability.max(dp.reliability),
                    "bound {bound:?}: algo_het {} vs exhaustive {}",
                    dp.reliability,
                    brute.reliability
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (dp, brute) => panic!(
                "feasibility mismatch under bound {bound:?}: algo_het {} vs exhaustive {}",
                dp.is_ok(),
                brute.is_ok()
            ),
        }
    });
}

#[test]
fn algo_het_is_never_below_greedy_and_respects_the_bound() {
    // Paper-scale class-structured instances (n = 15, p = 10, 3 classes):
    // too big for the exhaustive reference, but the ≥-greedy invariant and
    // the bound must hold everywhere.
    let generator = InstanceGenerator::paper_heterogeneous_classes(0x0C1A55);
    for (index, instance) in generator.batch(CASES as usize).into_iter().enumerate() {
        let chain = &instance.chain;
        let platform = &instance.heterogeneous;
        let oracle = IntervalOracle::new(chain, platform);
        let mut rng = ChaCha8Rng::seed_from_u64(0x0C1A_5600 + index as u64);
        let bound = period_bound(&mut rng, chain, platform);
        let greedy = greedy_het(&oracle, chain, platform, Some(bound));
        let dp = algo_het(&oracle, chain, platform, Some(bound));
        match (&dp, &greedy) {
            (Ok(dp), Ok(greedy)) => {
                assert!(
                    dp.reliability >= greedy.reliability,
                    "instance {index}: algo_het {} below greedy {}",
                    dp.reliability,
                    greedy.reliability
                );
            }
            (Err(_), Ok(_)) => {
                panic!("instance {index}: greedy solved but algo_het did not")
            }
            _ => {}
        }
        if let Ok(dp) = &dp {
            let eval = MappingEvaluation::evaluate(chain, platform, &dp.mapping);
            assert!(
                eval.worst_case_period <= bound,
                "instance {index}: period {} exceeds bound {bound}",
                eval.worst_case_period
            );
            // The reported reliability is the exact Eq. 9 value.
            assert_eq!(dp.reliability, eval.reliability);
        }
    }
}

#[test]
fn the_exact_dp_wins_strictly_on_some_instances() {
    // The gain is the point of the refactor: across the paper-scale batch,
    // the exact DP must beat the greedy strictly at least once.
    let generator = InstanceGenerator::paper_heterogeneous_classes(0x0C1A55);
    let mut strict_wins = 0;
    let mut exact_solves = 0;
    for instance in generator.batch(30) {
        let oracle = IntervalOracle::new(&instance.chain, &instance.heterogeneous);
        let bound = 0.7 * instance.chain.total_work() / instance.heterogeneous.max_speed();
        let dp = algo_het(
            &oracle,
            &instance.chain,
            &instance.heterogeneous,
            Some(bound),
        );
        let greedy = greedy_het(
            &oracle,
            &instance.chain,
            &instance.heterogeneous,
            Some(bound),
        );
        if let Ok(dp) = &dp {
            if dp.method == HetMethod::ClassDp {
                exact_solves += 1;
            }
        }
        if let (Ok(dp), Ok(greedy)) = (dp, greedy) {
            if dp.reliability > greedy.reliability {
                strict_wins += 1;
            }
        }
    }
    assert!(
        exact_solves > 0,
        "the class DP never ran on 3-class platforms"
    );
    assert!(
        strict_wins > 0,
        "the exact DP never strictly beat the greedy across 30 instances"
    );
}

#[test]
fn chunked_class_dp_matches_the_scalar_kernel_mapping_for_mapping() {
    // The chunked het kernel maximizes over bit-identical candidate values
    // and recovers the scalar kernel's first-winner choices post hoc, so
    // feasibility verdicts, reliabilities (well within the 1e-12 contract)
    // and lowered mappings must all be identical — with and without the
    // greedy-incumbent pruning cut, bounded and unbounded.
    for_random_cases("chunked class DP == scalar class DP", |rng| {
        let chain = random_chain(rng, 12);
        let platform = random_class_platform(rng, 8);
        let oracle = IntervalOracle::new(&chain, &platform);
        assert!(
            het_dp_applicable(&oracle),
            "≤ 3 classes over ≤ 8 processors"
        );
        let bound = if rng.gen_bool(0.3) {
            None
        } else {
            Some(period_bound(rng, &chain, &platform))
        };
        let greedy_incumbent = greedy_het(&oracle, &chain, &platform, bound)
            .map(|g| g.reliability)
            .unwrap_or(0.0);
        for incumbent in [0.0, greedy_incumbent] {
            let scalar = class_dp_with_kernel(
                &oracle,
                &chain,
                &platform,
                bound,
                incumbent,
                DpKernel::Scalar,
            );
            let chunked = class_dp_with_kernel(
                &oracle,
                &chain,
                &platform,
                bound,
                incumbent,
                DpKernel::Chunked,
            );
            match (scalar, chunked) {
                (Some(scalar), Some(chunked)) => {
                    assert!(
                        (scalar.reliability - chunked.reliability).abs()
                            <= 1e-12 * scalar.reliability.max(chunked.reliability),
                        "bound {bound:?} incumbent {incumbent}: scalar {} vs chunked {}",
                        scalar.reliability,
                        chunked.reliability
                    );
                    assert_eq!(
                        scalar.mapping, chunked.mapping,
                        "bound {bound:?} incumbent {incumbent}: lowered mappings diverged"
                    );
                    assert_eq!(scalar.reliability, chunked.reliability);
                }
                (None, None) => {}
                (scalar, chunked) => panic!(
                    "bound {bound:?} incumbent {incumbent}: feasibility mismatch \
                     (scalar {}, chunked {})",
                    scalar.is_some(),
                    chunked.is_some()
                ),
            }
        }
    });
    // Paper-scale class-structured instances (n = 15, p = 10, 3 classes):
    // the regime the portfolio's Het-Dp backend actually runs in.
    let generator = InstanceGenerator::paper_heterogeneous_classes(0x0C1A55);
    for (index, instance) in generator.batch(20).into_iter().enumerate() {
        let oracle = IntervalOracle::new(&instance.chain, &instance.heterogeneous);
        let mut rng = ChaCha8Rng::seed_from_u64(0x0C1A_5700 + index as u64);
        let bound = Some(period_bound(
            &mut rng,
            &instance.chain,
            &instance.heterogeneous,
        ));
        let incumbent = greedy_het(&oracle, &instance.chain, &instance.heterogeneous, bound)
            .map(|g| g.reliability)
            .unwrap_or(0.0);
        let run = |kernel| {
            class_dp_with_kernel(
                &oracle,
                &instance.chain,
                &instance.heterogeneous,
                bound,
                incumbent,
                kernel,
            )
        };
        let (scalar, chunked) = (run(DpKernel::Scalar), run(DpKernel::Chunked));
        assert_eq!(
            scalar.as_ref().map(|s| &s.mapping),
            chunked.as_ref().map(|s| &s.mapping),
            "instance {index}: kernels diverged"
        );
        assert_eq!(
            scalar.map(|s| s.reliability),
            chunked.map(|s| s.reliability),
            "instance {index}"
        );
    }
}

#[test]
fn class_assignment_lowering_round_trips_through_oracle_evaluate() {
    for_random_cases("ClassAssignment::lower round-trips", |rng| {
        let chain = random_chain(rng, 8);
        let platform = random_class_platform(rng, 6);
        let oracle = IntervalOracle::new(&chain, &platform);
        let view = oracle.class_view();

        // A random partition of the chain into at most `p` intervals.
        let n = chain.len();
        let cuts: Vec<usize> = (0..n - 1)
            .filter(|_| rng.gen_bool(0.4))
            .take(platform.num_processors() - 1)
            .collect();
        let partition = IntervalPartition::from_cut_points(&cuts, n).unwrap();

        // A random feasible class assignment: one replica somewhere per
        // interval, then a few random extras within the budgets.
        let mut budgets: Vec<usize> = view.classes().iter().map(|c| c.members).collect();
        let k_max = platform.max_replication();
        let mut counts: Vec<Vec<usize>> = Vec::new();
        for _ in 0..partition.len() {
            let mut row = vec![0usize; view.len()];
            let class = loop {
                let class = rng.gen_range(0..view.len());
                if budgets[class] > 0 {
                    break class;
                }
            };
            row[class] += 1;
            budgets[class] -= 1;
            counts.push(row);
        }
        for _ in 0..rng.gen_range(0usize..4) {
            let j = rng.gen_range(0..counts.len());
            let class = rng.gen_range(0..view.len());
            if budgets[class] > 0 && counts[j].iter().sum::<usize>() < k_max {
                counts[j][class] += 1;
                budgets[class] -= 1;
            }
        }

        let assignment = ClassAssignment::new(counts);
        let mapping = assignment
            .lower(view, &partition, &chain, &platform)
            .expect("budget-respecting assignments lower cleanly");
        // Bit-identical evaluation through the oracle and the direct path.
        let fast = oracle.evaluate(&mapping);
        let slow = MappingEvaluation::evaluate(&chain, &platform, &mapping);
        assert_eq!(fast, slow);
        // And the lowered mapping describes exactly the same assignment.
        assert_eq!(ClassAssignment::from_mapping(view, &mapping), assignment);
        // Lowering is deterministic: doing it again gives the same mapping.
        let again = assignment
            .lower(view, &partition, &chain, &platform)
            .unwrap();
        assert_eq!(mapping, again);
    });
}

/// The census of the latency-bounded class-platform stream through the
/// batch driver. It pins every Heur-L and Heur-P partition the heterogeneous
/// backends use (Het-Sweep's and both class DPs' greedy incumbents), which
/// the homogeneous CI census never runs.
#[test]
fn het_lat_stream_census_is_unchanged() {
    let instances = InstanceGenerator::paper_het_lat_stream(1, 300).map(|bounded| {
        ProblemInstance::new(
            bounded.instance.chain,
            bounded.instance.heterogeneous,
            bounded.period_bound,
            bounded.latency_bound,
        )
        .expect("the stream's bounds are positive")
    });
    let report = BatchDriver::new(1).run(&PortfolioEngine::default(), instances);
    assert_eq!(report.instances, 300);
    assert_eq!(report.feasible_instances, 298);
    // (runs, wins, front points) per backend.
    for (backend, census) in [
        ("Het-Dp-Lat", (300, 151, 340)),
        ("Het-Dp", (300, 147, 147)),
        ("Het-Sweep", (300, 0, 239)),
        ("Heur-L", (300, 0, 0)),
        ("Heur-P", (300, 0, 0)),
    ] {
        let stats = report
            .backend_stats
            .iter()
            .find(|stats| stats.backend == backend)
            .unwrap_or_else(|| panic!("{backend} has no census row"));
        assert_eq!(
            (stats.runs, stats.wins, stats.front_points),
            census,
            "{backend}"
        );
    }
}
