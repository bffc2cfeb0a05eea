//! Scaling benchmarks of the optimization algorithms: Algorithms 1 and 2 in
//! the number of tasks and processors, the two full heuristics, the converse
//! period minimization, and the exact solvers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpo_algorithms::{
    exact, minimize_period, optimize_reliability, run_heuristic, DpScratch, HeuristicConfig,
    IntervalHeuristic, OptimalMapping, Result,
};
use rpo_bench::{bench_chain, bench_het_platform, bench_hom_platform};
use rpo_model::{IntervalOracle, Platform, TaskChain};
use std::hint::black_box;

/// Algorithm 1 (`None`) or 2 as a one-off solve: the timed work includes
/// building the oracle and the DP scratch.
fn optimize(chain: &TaskChain, platform: &Platform, bound: Option<f64>) -> Result<OptimalMapping> {
    let oracle = IntervalOracle::new(chain, platform);
    optimize_reliability(&oracle, chain, platform, bound, &mut DpScratch::new())
}

fn algorithm1_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm1_reliability_dp");
    for &n in &[10usize, 15, 20, 30] {
        let chain = bench_chain(n, 7);
        let platform = bench_hom_platform(10);
        group.bench_with_input(BenchmarkId::new("tasks", n), &n, |b, _| {
            b.iter(|| optimize(black_box(&chain), black_box(&platform), None))
        });
    }
    for &p in &[5usize, 10, 20, 40] {
        let chain = bench_chain(15, 7);
        let platform = bench_hom_platform(p);
        group.bench_with_input(BenchmarkId::new("processors", p), &p, |b, _| {
            b.iter(|| optimize(black_box(&chain), black_box(&platform), None))
        });
    }
    group.finish();
}

fn algorithm2_period_bound(c: &mut Criterion) {
    let chain = bench_chain(15, 7);
    let platform = bench_hom_platform(10);
    let mut group = c.benchmark_group("algorithm2_period_bound");
    for &period in &[150.0f64, 250.0, 400.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(period),
            &period,
            |b, &period| {
                b.iter(|| {
                    optimize(
                        black_box(&chain),
                        black_box(&platform),
                        Some(black_box(period)),
                    )
                })
            },
        );
    }
    group.finish();
}

fn period_minimization(c: &mut Criterion) {
    let chain = bench_chain(15, 7);
    let platform = bench_hom_platform(10);
    c.bench_function("period_minimization_reliability_0_99999", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain), black_box(&platform));
            let oracle = IntervalOracle::new(chain, platform);
            let bound = black_box(0.99999);
            minimize_period(&oracle, chain, platform, bound, &mut DpScratch::new())
        })
    });
}

fn heuristics(c: &mut Criterion) {
    let chain = bench_chain(15, 7);
    let hom = bench_hom_platform(10);
    let het = bench_het_platform(10, 3);
    let mut group = c.benchmark_group("full_heuristics");
    for (name, heuristic) in [
        ("heur_p", IntervalHeuristic::MinPeriod),
        ("heur_l", IntervalHeuristic::MinLatency),
    ] {
        let config = HeuristicConfig {
            interval_heuristic: heuristic,
            period_bound: 250.0,
            latency_bound: 750.0,
        };
        group.bench_function(format!("{name}_homogeneous"), |b| {
            b.iter(|| {
                let (chain, hom) = (black_box(&chain), black_box(&hom));
                run_heuristic(
                    &IntervalOracle::new(chain, hom),
                    chain,
                    hom,
                    black_box(&config),
                )
            })
        });
        let het_config = HeuristicConfig {
            interval_heuristic: heuristic,
            period_bound: 50.0,
            latency_bound: 150.0,
        };
        group.bench_function(format!("{name}_heterogeneous"), |b| {
            b.iter(|| {
                let (chain, het) = (black_box(&chain), black_box(&het));
                run_heuristic(
                    &IntervalOracle::new(chain, het),
                    chain,
                    het,
                    black_box(&het_config),
                )
            })
        });
    }
    group.finish();
}

fn exact_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_solvers");
    group.sample_size(10);
    let chain15 = bench_chain(15, 7);
    let platform = bench_hom_platform(10);
    group.bench_function("exhaustive_n15", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain15), black_box(&platform));
            let oracle = IntervalOracle::new(chain, platform);
            exact::optimal_homogeneous(&oracle, chain, platform, 250.0, 750.0)
        })
    });
    group.bench_function("profile_set_build_n15", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain15), black_box(&platform));
            exact::ProfileSet::build(&IntervalOracle::new(chain, platform), platform)
        })
    });
    let chain8 = bench_chain(8, 7);
    let platform6 = bench_hom_platform(6);
    group.bench_function("ilp_branch_and_bound_n8", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain8), black_box(&platform6));
            let oracle = IntervalOracle::new(chain, platform);
            exact::optimal_by_ilp(&oracle, chain, platform, 300.0, 800.0)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    algorithm1_scaling,
    algorithm2_period_bound,
    period_minimization,
    heuristics,
    exact_solvers
);
criterion_main!(benches);
