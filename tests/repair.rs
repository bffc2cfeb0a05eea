//! The repair differential battery: 200 seeded `(instance, delta)` pairs
//! checking the self-healing pipeline against cold-path oracles.
//!
//! | pair | contract |
//! |---|---|
//! | `IntervalOracle::apply_delta` vs fresh oracle | every block-reliability query within 1e-12 relative (debug builds additionally assert **bit** identity inside `apply_delta`) |
//! | `RepairSession::apply` vs cold exact solve | identical reliability on homogeneous platforms |
//! | `RepairSession::apply` vs greedy | never less reliable on heterogeneous platforms; bounds exactly respected |
//! | `repair_minimize_period` vs cold period optimizer | identical certified optimum |
//! | `monte_carlo_with_repair` | seeded fault-injection demo: segments split, reliability recovers |
//!
//! Reuses the ChaCha8 harness style of `tests/differential.rs`: each case is
//! generated from its own seed, and a failing case re-panics with the seed
//! that reproduces it.

use pipelined_rt::algorithms::{
    greedy_het, minimize_period, optimize_reliability, repair_minimize_period, AlgoError, DpScratch,
};
use pipelined_rt::model::{
    IntervalOracle, Platform, PlatformBuilder, PlatformDelta, Processor, TaskChain,
};
use pipelined_rt::repair::{monte_carlo_with_repair, RepairSession, RepairTier};
use pipelined_rt::sim::{FaultEvent, FaultPlan, MonteCarloConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CASES: u64 = 50;

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

/// A random homogeneous platform of `2..=max_processors` processors.
fn random_hom_platform(rng: &mut ChaCha8Rng, max_processors: usize) -> Platform {
    Platform::homogeneous(
        rng.gen_range(2usize..=max_processors),
        rng.gen_range(1.0..8.0),
        10f64.powf(rng.gen_range(-6.0..-3.0)),
        rng.gen_range(0.5..4.0),
        10f64.powf(rng.gen_range(-7.0..-4.0)),
        rng.gen_range(2usize..=3),
    )
    .unwrap()
}

/// A random `≤ 3`-class heterogeneous platform.
fn random_het_platform(rng: &mut ChaCha8Rng, max_processors: usize) -> Platform {
    let p = rng.gen_range(3usize..=max_processors);
    let classes = rng.gen_range(2usize..=3.min(p));
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

/// One random valid delta for the given instance (all four kinds).
fn random_delta(rng: &mut ChaCha8Rng, chain: &TaskChain, platform: &Platform) -> PlatformDelta {
    let p = platform.num_processors();
    match rng.gen_range(0usize..4) {
        0 => PlatformDelta::ProcessorFailed(rng.gen_range(0..p)),
        1 => PlatformDelta::SpeedDegraded {
            processor: rng.gen_range(0..p),
            factor: rng.gen_range(0.2..1.0),
        },
        2 => PlatformDelta::RateRevised {
            processor: rng.gen_range(0..p),
            rate: 10f64.powf(rng.gen_range(-6.0..-2.0)),
        },
        _ => PlatformDelta::TaskWorkRevised {
            task: rng.gen_range(0..chain.len()),
            work: rng.gen_range(1.0..200.0),
        },
    }
}

/// Every block-reliability query of `incremental` must match `fresh` to
/// 1e-12 relative (they are the same instance by construction).
fn assert_oracles_agree(
    incremental: &IntervalOracle,
    fresh: &IntervalOracle,
    n: usize,
    context: &str,
) {
    assert_eq!(
        incremental.classes().len(),
        fresh.classes().len(),
        "{context}: class count"
    );
    for class in 0..fresh.classes().len() {
        for first in 0..n {
            for last in first..n {
                let a = incremental.class_block_reliability(class, first, last);
                let b = fresh.class_block_reliability(class, first, last);
                assert!(
                    (a - b).abs() <= 1e-12 * b.abs().max(1.0),
                    "{context}: block ({class}, {first}, {last}): {a} vs {b}"
                );
            }
        }
    }
    for j in 0..n {
        let a = incremental.input_comm_time(j);
        let b = fresh.input_comm_time(j);
        assert!(
            (a - b).abs() <= 1e-12 * b.abs().max(1.0),
            "{context}: input comm {j}: {a} vs {b}"
        );
    }
}

/// 200 seeded `(instance, delta)` pairs (50 cases × 4 deltas each, split
/// across homogeneous and heterogeneous platforms): the incrementally
/// updated oracle answers every query like a fresh one. In debug builds
/// `apply_delta` additionally asserts full bitwise identity internally.
#[test]
fn applied_deltas_match_a_fresh_oracle_on_every_query() {
    for_random_cases("apply_delta == fresh oracle", 0x5E1F_0000, |rng| {
        let chain = random_chain(rng, 12);
        let platform = if rng.gen_bool(0.5) {
            random_hom_platform(rng, 6)
        } else {
            random_het_platform(rng, 6)
        };
        for _ in 0..4 {
            let delta = random_delta(rng, &chain, &platform);
            let mut oracle = IntervalOracle::new(&chain, &platform);
            let applied = oracle
                .apply_delta(&chain, &platform, &delta)
                .expect("valid delta");
            let fresh = IntervalOracle::new(&applied.chain, &applied.platform);
            assert_oracles_agree(&oracle, &fresh, applied.chain.len(), &format!("{delta:?}"));
        }
    });
}

/// Homogeneous repairs land on the exact shrunken/revised optimum;
/// heterogeneous repairs never fall below the greedy baseline. Bounds are
/// respected exactly on every repaired mapping.
#[test]
fn repairs_are_exact_or_at_least_greedy() {
    for_random_cases("repair >= greedy", 0x5E1F_1000, |rng| {
        let chain = random_chain(rng, 10);
        let homogeneous = rng.gen_bool(0.5);
        let platform = if homogeneous {
            random_hom_platform(rng, 5)
        } else {
            random_het_platform(rng, 5)
        };
        let Ok(mut session) = RepairSession::new(chain.clone(), platform.clone(), None) else {
            return; // nothing to repair on an unsolvable instance
        };
        let delta = random_delta(rng, &chain, &platform);
        let report = match session.apply(&delta) {
            Ok(report) => report,
            Err(AlgoError::NoFeasibleMapping) => return,
            Err(error) => panic!("unexpected repair error: {error}"),
        };
        // The session's bookkeeping is exact: its reliability is its own
        // mapping's Eq. 9 value on the post-delta instance.
        let evaluation = session.oracle().evaluate(session.mapping());
        assert_eq!(report.reliability, evaluation.reliability);
        if session.oracle().is_homogeneous() {
            let (chain, platform) = (session.chain(), session.platform());
            let oracle = IntervalOracle::new(chain, platform);
            let exact = optimize_reliability(&oracle, chain, platform, None, &mut DpScratch::new())
                .expect("repaired instance stays solvable");
            assert!(
                (report.reliability - exact.reliability).abs()
                    <= 1e-12 * exact.reliability.max(1e-300),
                "{delta:?}: repaired {} vs exact {}",
                report.reliability,
                exact.reliability
            );
        } else {
            let oracle = IntervalOracle::new(session.chain(), session.platform());
            let greedy = greedy_het(&oracle, session.chain(), session.platform(), None);
            if let Ok(greedy) = greedy {
                assert!(
                    report.reliability >= greedy.reliability - 1e-12 * greedy.reliability,
                    "{delta:?}: repaired {} below greedy {}",
                    report.reliability,
                    greedy.reliability
                );
            }
        }
    });
}

/// Period-bounded repairs respect the bound exactly on the repaired mapping.
#[test]
fn bounded_repairs_respect_the_period_bound_exactly() {
    for_random_cases("bounded repair respects bound", 0x5E1F_2000, |rng| {
        let chain = random_chain(rng, 10);
        let platform = random_hom_platform(rng, 5);
        let bound = rng.gen_range(0.6..1.5) * chain.max_task_work() / platform.speed(0);
        let Ok(mut session) = RepairSession::new(chain.clone(), platform.clone(), Some(bound))
        else {
            return; // bound below the floor: nothing to repair
        };
        let delta = random_delta(rng, &chain, &platform);
        if session.apply(&delta).is_err() {
            return; // delta made the instance infeasible under the bound
        }
        let evaluation = session.oracle().evaluate(session.mapping());
        assert!(
            evaluation.worst_case_period <= bound,
            "{delta:?}: repaired period {} above bound {bound}",
            evaluation.worst_case_period
        );
    });
}

/// Degenerate delta: failing a processor the optimal mapping never used is
/// absorbed by the local-patch tier with bit-identical reliability.
#[test]
fn failing_an_unused_processor_is_a_bit_identical_local_patch() {
    // 2 tasks with K = 1 use at most 2 of the 8 processors.
    let chain = TaskChain::from_pairs(&[(40.0, 2.0), (25.0, 1.0)]).unwrap();
    let platform = Platform::homogeneous(8, 1.0, 1e-4, 1.0, 1e-5, 1).unwrap();
    let mut session = RepairSession::new(chain, platform, None).unwrap();
    let before = session.reliability();
    let report = session.apply(&PlatformDelta::ProcessorFailed(7)).unwrap();
    assert_eq!(report.tier, RepairTier::LocalPatch);
    assert_eq!(report.reliability, before, "bit-identical reliability");
    assert_eq!(report.previous_reliability, before);
}

/// Degenerate delta: failing the last processor is a clean
/// `NoFeasibleMapping`, not a panic — and the session survives it.
#[test]
fn failing_the_last_processor_is_a_clean_error() {
    let chain = TaskChain::from_pairs(&[(30.0, 1.0), (20.0, 2.0)]).unwrap();
    let platform = PlatformBuilder::new()
        .processor(1.0, 1e-4)
        .bandwidth(1.0)
        .link_failure_rate(1e-5)
        .max_replication(1)
        .build()
        .unwrap();
    let mut session = RepairSession::new(chain, platform, None).unwrap();
    let error = session
        .apply(&PlatformDelta::ProcessorFailed(0))
        .unwrap_err();
    assert_eq!(error, AlgoError::NoFeasibleMapping);
    assert_eq!(session.platform().num_processors(), 1);
    // Still answers repairs after the refused delta.
    session
        .apply(&PlatformDelta::TaskWorkRevised {
            task: 1,
            work: 25.0,
        })
        .unwrap();
}

/// Warm-started period minimization lands on the cold optimizer's certified
/// optimum, starting the bracket from a previous (now stale) optimum.
#[test]
fn warm_period_repair_matches_the_cold_optimizer() {
    for_random_cases("warm period_opt == cold", 0x5E1F_3000, |rng| {
        let chain = random_chain(rng, 10);
        let platform = random_hom_platform(rng, 5);
        let oracle = IntervalOracle::new(&chain, &platform);
        let bound = rng.gen_range(0.3..0.9);
        let mut scratch = DpScratch::new();
        let cold = minimize_period(&oracle, &chain, &platform, bound, &mut scratch);
        // Revise one task's work and re-minimize: cold from scratch vs warm
        // from the stale optimum.
        let delta = PlatformDelta::TaskWorkRevised {
            task: rng.gen_range(0..chain.len()),
            work: rng.gen_range(1.0..200.0),
        };
        let (new_chain, _) = delta.apply(&chain, &platform).unwrap();
        let new_oracle = IntervalOracle::new(&new_chain, &platform);
        let fresh = minimize_period(
            &new_oracle,
            &new_chain,
            &platform,
            bound,
            &mut DpScratch::new(),
        );
        let prev_period = cold.as_ref().map(|c| c.period).unwrap_or(f64::INFINITY);
        let warm = repair_minimize_period(
            &new_oracle,
            &new_chain,
            &platform,
            bound,
            prev_period,
            &mut scratch,
        );
        match (fresh, warm) {
            (Ok(fresh), Ok(warm)) => {
                assert_eq!(
                    fresh.period, warm.period,
                    "warm restart must certify the same optimum"
                );
                assert!(warm.reliability >= bound);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (fresh, warm) => {
                panic!("cold/warm feasibility disagree: cold {fresh:?} vs warm {warm:?}")
            }
        }
    });
}

/// The seeded fault-injection demo: a noisy platform loses a processor
/// mid-Monte-Carlo, the ladder repairs the mapping live, and the simulation
/// finishes on the repaired mapping with a sane reliability estimate.
#[test]
fn fault_injected_monte_carlo_repairs_live_and_recovers() {
    let chain =
        TaskChain::from_pairs(&[(30.0, 1.0), (20.0, 2.0), (25.0, 1.0), (15.0, 1.0)]).unwrap();
    // Noisy rates so segment estimates are informative at 20k datasets.
    let platform = Platform::homogeneous(5, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
    let mut session = RepairSession::new(chain, platform, None).unwrap();
    let analytic_before = session.reliability();
    let plan = FaultPlan::scripted(vec![
        FaultEvent {
            at_fraction: 0.4,
            delta: PlatformDelta::ProcessorFailed(1),
        },
        FaultEvent {
            at_fraction: 0.7,
            delta: PlatformDelta::ProcessorFailed(0),
        },
    ]);
    let config = MonteCarloConfig {
        num_datasets: 20_000,
        seed: 0xFA_07,
        chunk_size: 2_048,
    };
    let (report, repairs) = monte_carlo_with_repair(&mut session, &config, &plan);
    assert_eq!(report.segments.len(), 3);
    assert_eq!(report.events_applied, 2);
    assert_eq!(report.events_unrepaired, 0);
    assert_eq!(report.datasets, 20_000);
    assert_eq!(repairs.len(), 2);
    assert_eq!(session.platform().num_processors(), 3);
    // Each repair is tracked with its trigger and a positive latency.
    for (repair, event) in repairs.iter().zip(&plan.events) {
        assert_eq!(repair.delta, event.delta);
        assert!(repair.elapsed_nanos > 0);
    }
    // The analytic reliabilities bracket the run: repairs on a shrinking
    // platform can only stay at or below the 5-processor optimum.
    assert!(repairs[0].previous_reliability == analytic_before);
    assert!(session.reliability() <= analytic_before);
    assert!(session.reliability() > 0.9, "repaired mapping still viable");
    // Each segment's Monte-Carlo estimate is within 5σ of its segment's
    // analytic reliability (binomial std dev).
    let analytic = [
        analytic_before,
        repairs[0].reliability,
        repairs[1].reliability,
    ];
    for (segment, &expected) in report.segments.iter().zip(&analytic) {
        let datasets = segment.estimate.datasets as f64;
        let sigma = (expected * (1.0 - expected) / datasets).sqrt();
        assert!(
            (segment.estimate.reliability - expected).abs() <= 5.0 * sigma + 1e-9,
            "segment estimate {} vs analytic {expected} (sigma {sigma})",
            segment.estimate.reliability
        );
    }
    // The repair latency histogram recorded one sample per event.
    let snapshot = pipelined_rt::obs::global().snapshot();
    let histogram = snapshot
        .histogram("repair.latency")
        .expect("repair.latency histogram recorded");
    assert!(histogram.count >= 2);
}
