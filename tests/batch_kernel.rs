//! Batched SoA mega-kernel equivalence suite: on hundreds of seeded random
//! instance *batches*, the lane-major kernel must agree with the
//! per-instance chunked kernel — same feasibility verdicts, reliabilities
//! within `1e-12`, identical reconstructed mappings — across every bucket
//! width (1, LANES−1, LANES, 3·LANES+1), and the batch driver, which
//! buckets by itself, must reproduce per-instance solves front-for-front.
//!
//! Reuses the ChaCha8 harness style of `tests/kernel.rs`: each case is
//! generated from its own seed, and a failing case re-panics with the seed
//! that reproduces it.

use pipelined_rt::algorithms::{
    reliability_dp_with_kernel, solve_batch, BatchLane, BatchScratch, DpKernel, LANES,
};
use pipelined_rt::model::{IntervalOracle, Platform, TaskChain};
use pipelined_rt::portfolio::{BatchDriver, BoundsPolicy, PortfolioEngine, ProblemInstance};
use pipelined_rt::workload::InstanceGenerator;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Number of random instance batches checked per property.
const CASES: u64 = 200;

fn for_random_cases(property: &str, mut check: impl FnMut(&mut ChaCha8Rng)) {
    for case in 0..CASES {
        let seed = 0x0BA7_C000 + case;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            check(&mut rng);
        }));
        if outcome.is_err() {
            panic!("property `{property}` failed for ChaCha8 seed {seed:#x}");
        }
    }
}

/// A random chain of exactly `n` tasks with works in [1, 100] and outputs
/// in [0, 10] — the batch requires one shape, so `n` is fixed per batch
/// while the numerics differ per lane.
fn random_chain(rng: &mut ChaCha8Rng, n: usize) -> TaskChain {
    let pairs: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(1.0..100.0), rng.gen_range(0.0..10.0)))
        .collect();
    TaskChain::from_pairs(&pairs).expect("valid generated chain")
}

/// A random homogeneous platform of exactly `p` processors with replication
/// cap `k_max` (batch shape), with per-lane speed and failure numerics.
fn random_homogeneous_platform(rng: &mut ChaCha8Rng, p: usize, k_max: usize) -> Platform {
    Platform::homogeneous(
        p,
        rng.gen_range(1.0..4.0),
        rng.gen_range(1e-5..1e-2),
        rng.gen_range(0.5..4.0),
        rng.gen_range(0.0..1e-3),
        k_max,
    )
    .expect("valid platform")
}

/// A random period bound keeping a healthy feasible/infeasible mix.
fn random_period_bound(rng: &mut ChaCha8Rng, chain: &TaskChain, platform: &Platform) -> f64 {
    let speed = platform.speed(0);
    let floor = chain.max_task_work() / speed;
    let ceiling = chain.total_work() / speed;
    rng.gen_range(0.8 * floor..1.2 * ceiling)
}

/// The batched SoA kernel agrees with the per-instance chunked kernel on
/// every lane of seeded same-shape batches of width 1, LANES−1, LANES, and
/// 3·LANES+1 (exercising full chunks, partial tail chunks, and the
/// padded-lane masking), with a per-lane mix of unbounded (Algorithm 1) and
/// period-bounded (Algorithm 2) solves.
#[test]
fn batched_kernel_matches_the_per_instance_chunked_kernel() {
    let widths = [1, LANES - 1, LANES, 3 * LANES + 1];
    let mut scratch = BatchScratch::new(); // reused across cases, like a driver's
    for_random_cases(
        "batched_kernel_matches_the_per_instance_chunked_kernel",
        |rng| {
            let width = widths[rng.gen_range(0..widths.len())];
            let n = rng.gen_range(2usize..=12);
            let p = rng.gen_range(2usize..=8);
            let k_max = rng.gen_range(1usize..=3);

            let mut chains = Vec::with_capacity(width);
            let mut platforms = Vec::with_capacity(width);
            let mut bounds = Vec::with_capacity(width);
            for _ in 0..width {
                let chain = random_chain(rng, n);
                let platform = random_homogeneous_platform(rng, p, k_max);
                let bound = rng
                    .gen_bool(0.5)
                    .then(|| random_period_bound(rng, &chain, &platform));
                chains.push(chain);
                platforms.push(platform);
                bounds.push(bound);
            }
            let oracles: Vec<IntervalOracle> = chains
                .iter()
                .zip(&platforms)
                .map(|(chain, platform)| IntervalOracle::new(chain, platform))
                .collect();
            let lanes: Vec<BatchLane> = (0..width)
                .map(|lane| BatchLane {
                    oracle: &oracles[lane],
                    chain: &chains[lane],
                    platform: &platforms[lane],
                    period_bound: bounds[lane],
                })
                .collect();

            let batched = solve_batch(&lanes, &mut scratch);
            assert_eq!(batched.len(), width);
            for lane in 0..width {
                let reference = reliability_dp_with_kernel(
                    &oracles[lane],
                    &chains[lane],
                    &platforms[lane],
                    bounds[lane],
                    DpKernel::Chunked,
                );
                match (&batched[lane], &reference) {
                    (Some(a), Some(b)) => {
                        assert!(
                            (a.reliability - b.reliability).abs()
                                <= 1e-12 * a.reliability.abs().max(b.reliability.abs()),
                            "lane {lane}/{width} diverged: batched {} vs \
                         per-instance {} (bound {:?})",
                            a.reliability,
                            b.reliability,
                            bounds[lane]
                        );
                        assert_eq!(
                            a.mapping, b.mapping,
                            "lane {lane}/{width} reconstructed a different \
                         mapping (bound {:?})",
                            bounds[lane]
                        );
                    }
                    (None, None) => {}
                    (a, b) => panic!(
                        "lane {lane}/{width} feasibility mismatch (bound {:?}): \
                     batched={} per-instance={}",
                        bounds[lane],
                        a.is_some(),
                        b.is_some()
                    ),
                }
            }
        },
    );
}

/// Near-shape padding: batches whose lanes share `(p, k_max)` but have
/// **different task counts** — shorter lanes padded to the longest lane
/// with NaN-masked dead rows — agree with the per-instance chunked kernel
/// bit for bit on every lane, across widths straddling LANES (partial
/// chunk, full chunk, multi-chunk) and a per-lane mix of unbounded and
/// period-bounded solves.
#[test]
fn padded_mixed_length_batches_match_the_per_instance_chunked_kernel() {
    let widths = [2, LANES - 1, LANES, LANES + 3, 2 * LANES + 1];
    let mut scratch = BatchScratch::new();
    for_random_cases(
        "padded_mixed_length_batches_match_the_per_instance_chunked_kernel",
        |rng| {
            let width = widths[rng.gen_range(0..widths.len())];
            let p = rng.gen_range(2usize..=8);
            let k_max = rng.gen_range(1usize..=3);

            let mut chains = Vec::with_capacity(width);
            let mut platforms = Vec::with_capacity(width);
            let mut bounds = Vec::with_capacity(width);
            for _ in 0..width {
                // Per-lane n: the near-shape relaxation under test.
                let n = rng.gen_range(2usize..=12);
                let chain = random_chain(rng, n);
                let platform = random_homogeneous_platform(rng, p, k_max);
                let bound = rng
                    .gen_bool(0.5)
                    .then(|| random_period_bound(rng, &chain, &platform));
                chains.push(chain);
                platforms.push(platform);
                bounds.push(bound);
            }
            let oracles: Vec<IntervalOracle> = chains
                .iter()
                .zip(&platforms)
                .map(|(chain, platform)| IntervalOracle::new(chain, platform))
                .collect();
            let lanes: Vec<BatchLane> = (0..width)
                .map(|lane| BatchLane {
                    oracle: &oracles[lane],
                    chain: &chains[lane],
                    platform: &platforms[lane],
                    period_bound: bounds[lane],
                })
                .collect();

            let batched = solve_batch(&lanes, &mut scratch);
            assert_eq!(batched.len(), width);
            for lane in 0..width {
                let reference = reliability_dp_with_kernel(
                    &oracles[lane],
                    &chains[lane],
                    &platforms[lane],
                    bounds[lane],
                    DpKernel::Chunked,
                );
                match (&batched[lane], &reference) {
                    (Some(a), Some(b)) => {
                        assert_eq!(
                            a.reliability.to_bits(),
                            b.reliability.to_bits(),
                            "lane {lane}/{width} n={} diverged: batched {} vs \
                             per-instance {} (bound {:?})",
                            chains[lane].len(),
                            a.reliability,
                            b.reliability,
                            bounds[lane]
                        );
                        assert_eq!(
                            a.mapping,
                            b.mapping,
                            "lane {lane}/{width} n={} reconstructed a different \
                             mapping (bound {:?})",
                            chains[lane].len(),
                            bounds[lane]
                        );
                    }
                    (None, None) => {}
                    (a, b) => panic!(
                        "lane {lane}/{width} n={} feasibility mismatch \
                         (bound {:?}): batched={} per-instance={}",
                        chains[lane].len(),
                        bounds[lane],
                        a.is_some(),
                        b.is_some()
                    ),
                }
            }
        },
    );
}

/// The batch driver — full buckets through the mega-kernel, leftovers of
/// partial buckets and heterogeneous instances down the per-instance path —
/// reproduces a fresh engine's per-instance solve (which never buckets)
/// exactly, front-for-front, on a mixed stream.
#[test]
fn bucketed_driver_equals_the_unbucketed_run_front_for_front() {
    let policy = BoundsPolicy::default();
    // 2 full LANES-wide buckets' worth of homogeneous paper instances (all
    // one shape) plus 3 stragglers, interleaved with heterogeneous instances.
    let hom: Vec<ProblemInstance> = InstanceGenerator::paper_homogeneous(0xBEEF)
        .batch(2 * LANES + 3)
        .iter()
        .map(|experiment| policy.instance(&experiment.chain, &experiment.homogeneous))
        .collect();
    let het: Vec<ProblemInstance> = InstanceGenerator::paper_heterogeneous(0xFACE)
        .batch(4)
        .iter()
        .map(|experiment| policy.instance(&experiment.chain, &experiment.heterogeneous))
        .collect();
    let mut instances = Vec::new();
    for (index, instance) in hom.into_iter().enumerate() {
        instances.push(instance);
        if let Some(extra) = het.get(index).cloned() {
            instances.push(extra);
        }
    }

    let engine = PortfolioEngine::default().with_threads(1);
    let report = BatchDriver::new(3).run(&engine, instances.clone());
    assert_eq!(
        report.buckets_dispatched, 2,
        "same-shape homogeneous instances must fill buckets"
    );
    assert_eq!(
        report.remainder_solves,
        4 + 3,
        "the 4 heterogeneous instances and the 3 stragglers of the unfilled \
         bucket take the per-instance path"
    );
    assert_eq!(
        report.bucketed_instances + report.remainder_solves,
        report.instances
    );

    let mut feasible = 0;
    for (index, instance) in instances.iter().enumerate() {
        let key = |front: &pipelined_rt::portfolio::ParetoFront| -> Vec<_> {
            front
                .points()
                .iter()
                .map(|point| {
                    (
                        point.fingerprint(),
                        point.backend,
                        point.evaluation.reliability.to_bits(),
                        point.evaluation.worst_case_period.to_bits(),
                        point.evaluation.worst_case_latency.to_bits(),
                    )
                })
                .collect()
        };
        let batched = engine
            .cached(instance)
            .expect("the batch cached every front");
        let fresh = PortfolioEngine::default().solve(instance).front;
        feasible += usize::from(!fresh.is_empty());
        assert_eq!(
            key(&batched),
            key(&fresh),
            "instance {index}: the batch front diverged from the per-instance one"
        );
    }
    assert_eq!(report.feasible_instances, feasible);
}
