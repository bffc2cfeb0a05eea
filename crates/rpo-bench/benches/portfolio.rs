//! Throughput benchmarks of the solver-portfolio engine: single-instance
//! races (parallel vs sequential dispatch), the cache hit path, and batch
//! streaming.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpo_bench::{bench_chain, bench_het_platform, bench_hom_platform};
use rpo_portfolio::{
    default_backends, BatchConfig, BatchDriver, BoundsPolicy, Budget, PortfolioEngine,
    ProblemInstance,
};
use rpo_workload::InstanceGenerator;
use std::hint::black_box;

fn hom_instance(n: usize, p: usize) -> ProblemInstance {
    let chain = bench_chain(n, 7);
    let platform = bench_hom_platform(p);
    let period = 1.6 * chain.max_task_work() / platform.max_speed();
    let latency = 1.25 * chain.total_work() / platform.max_speed();
    ProblemInstance::new(chain, platform, period, latency).expect("valid bounds")
}

fn het_instance(n: usize, p: usize) -> ProblemInstance {
    let chain = bench_chain(n, 7);
    let platform = bench_het_platform(p, 3);
    let period = 1.6 * chain.max_task_work() / platform.max_speed();
    let latency = 1.6 * chain.total_work() / platform.max_speed();
    ProblemInstance::new(chain, platform, period, latency).expect("valid bounds")
}

fn portfolio_race(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio_race");
    group.sample_size(20);
    for &threads in &[1usize, 4] {
        let engine = PortfolioEngine::new(default_backends(), Budget::default())
            .with_threads(threads)
            .with_cache_capacity(0); // measure the race, not the cache
        let instance = hom_instance(12, 8);
        group.bench_with_input(
            BenchmarkId::new("homogeneous_12_tasks", threads),
            &threads,
            |b, _| b.iter(|| black_box(engine.solve(black_box(&instance)))),
        );
        let het = het_instance(12, 8);
        group.bench_with_input(
            BenchmarkId::new("heterogeneous_12_tasks", threads),
            &threads,
            |b, _| b.iter(|| black_box(engine.solve(black_box(&het)))),
        );
    }
    group.finish();
}

fn portfolio_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio_cache");
    let engine = PortfolioEngine::new(default_backends(), Budget::default());
    let instance = hom_instance(12, 8);
    engine.solve(&instance); // warm the cache
    group.bench_function("hit", |b| {
        b.iter(|| black_box(engine.solve(black_box(&instance))))
    });
    group.finish();
}

fn portfolio_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio_batch");
    group.sample_size(10);
    for &count in &[32usize, 128] {
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(
            BenchmarkId::new("paper_instances", count),
            &count,
            |b, &count| {
                b.iter(|| {
                    // Fresh engine per iteration: measure cold-cache streaming.
                    let engine = PortfolioEngine::new(default_backends(), Budget::default());
                    let driver = BatchDriver::new(BatchConfig {
                        bounds: BoundsPolicy {
                            period_slack: 1.6,
                            latency_slack: 1.25,
                        },
                        ..BatchConfig::default()
                    });
                    let generator = InstanceGenerator::paper_homogeneous(2024);
                    black_box(driver.run(&engine, generator.stream(count)))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, portfolio_race, portfolio_cache, portfolio_batch);
criterion_main!(benches);
