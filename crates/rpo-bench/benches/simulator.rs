//! Simulator throughput benchmarks: per-data-set Monte-Carlo failure
//! injection (sequential and Rayon-parallel) and the pipelined discrete-event
//! simulation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rpo_algorithms::{algo_alloc, heur_p_partitions};
use rpo_bench::{bench_chain, bench_noisy_platform};
use rpo_model::IntervalOracle;
use rpo_sim::{monte_carlo, simulate_dataset, simulate_pipeline, MonteCarloConfig, PipelineConfig};
use std::hint::black_box;

fn dataset_injection(c: &mut Criterion) {
    let chain = bench_chain(15, 7);
    let platform = bench_noisy_platform(10);
    let oracle = IntervalOracle::new(&chain, &platform);
    let partition = heur_p_partitions(&oracle, 5).remove(4);
    let mapping = algo_alloc(&oracle, &chain, &platform, &partition).expect("enough processors");

    let mut group = c.benchmark_group("simulator_dataset");
    group.throughput(Throughput::Elements(1));
    group.bench_function("single_dataset_injection", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| {
            simulate_dataset(
                black_box(&chain),
                black_box(&platform),
                black_box(&mapping),
                &mut rng,
            )
        })
    });
    group.finish();
}

fn monte_carlo_batches(c: &mut Criterion) {
    let chain = bench_chain(15, 7);
    let platform = bench_noisy_platform(10);
    let oracle = IntervalOracle::new(&chain, &platform);
    let partition = heur_p_partitions(&oracle, 5).remove(4);
    let mapping = algo_alloc(&oracle, &chain, &platform, &partition).expect("enough processors");

    let mut group = c.benchmark_group("simulator_monte_carlo");
    group.sample_size(10);
    for &datasets in &[10_000usize, 50_000] {
        group.throughput(Throughput::Elements(datasets as u64));
        group.bench_with_input(
            BenchmarkId::new("parallel_estimation", datasets),
            &datasets,
            |b, &datasets| {
                b.iter(|| {
                    monte_carlo(
                        black_box(&chain),
                        black_box(&platform),
                        black_box(&mapping),
                        &MonteCarloConfig {
                            num_datasets: datasets,
                            seed: 3,
                            chunk_size: 4096,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn pipelined_des(c: &mut Criterion) {
    let chain = bench_chain(15, 7);
    let platform = bench_noisy_platform(10);
    let oracle = IntervalOracle::new(&chain, &platform);
    let partition = heur_p_partitions(&oracle, 5).remove(4);
    let mapping = algo_alloc(&oracle, &chain, &platform, &partition).expect("enough processors");

    let mut group = c.benchmark_group("simulator_pipeline");
    for &datasets in &[1_000usize, 5_000] {
        group.throughput(Throughput::Elements(datasets as u64));
        group.bench_with_input(
            BenchmarkId::new("saturated_stream", datasets),
            &datasets,
            |b, &datasets| {
                b.iter(|| {
                    simulate_pipeline(
                        black_box(&chain),
                        black_box(&platform),
                        black_box(&mapping),
                        &PipelineConfig {
                            num_datasets: datasets,
                            seed: 5,
                            input_period: None,
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    dataset_injection,
    monte_carlo_batches,
    pipelined_des
);
criterion_main!(benches);
