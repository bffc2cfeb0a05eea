//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * routing operations (serial-parallel RBD, linear evaluation) vs the exact
//!   factoring of the direct RBD (exponential) — the paper's central argument
//!   for inserting routing operations;
//! * Algo-Alloc greedy allocation vs exhaustive allocation;
//! * the partition-profile sweep vs re-running the exhaustive solver per
//!   bound pair;
//! * the exhaustive exact solver vs the branch-and-bound ILP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpo_algorithms::{algo_alloc, exact, exhaustive_alloc, heur_p_partitions};
use rpo_bench::{bench_chain, bench_hom_platform, bench_noisy_platform};
use rpo_model::IntervalOracle;
use rpo_rbd::{exact as rbd_exact, mapping_rbd};
use std::hint::black_box;

/// Routing-operation (serial-parallel) evaluation vs exact evaluation of the
/// direct, non series-parallel diagram, as the replication level grows.
fn rbd_routing_vs_exact(c: &mut Criterion) {
    let chain = bench_chain(8, 3);
    let mut group = c.benchmark_group("ablation_rbd");
    group.sample_size(10);
    for &replicas in &[2usize, 3] {
        // 3 intervals × `replicas` replicas keeps the direct RBD below the
        // exact evaluator's 30-block limit (3·replicas + 2·replicas² blocks).
        let platform = bench_noisy_platform(3 * replicas);
        let oracle = IntervalOracle::new(&chain, &platform);
        let partition = heur_p_partitions(&oracle, 3).remove(2);
        let mapping =
            algo_alloc(&oracle, &chain, &platform, &partition).expect("enough processors");
        group.bench_with_input(
            BenchmarkId::new("routing_serial_parallel", replicas),
            &replicas,
            |b, _| {
                b.iter(|| {
                    mapping_rbd::routing_sp_expr(
                        black_box(&chain),
                        black_box(&platform),
                        black_box(&mapping),
                    )
                    .reliability()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exact_factoring_direct_rbd", replicas),
            &replicas,
            |b, _| {
                b.iter(|| {
                    rbd_exact::factoring(&mapping_rbd::general_rbd(
                        black_box(&chain),
                        black_box(&platform),
                        black_box(&mapping),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// Greedy Algo-Alloc vs exhaustive allocation for a fixed partition.
fn alloc_greedy_vs_exhaustive(c: &mut Criterion) {
    let chain = bench_chain(12, 5);
    let platform = bench_hom_platform(10);
    let partition = heur_p_partitions(&IntervalOracle::new(&chain, &platform), 5).remove(4);
    let mut group = c.benchmark_group("ablation_allocation");
    group.bench_function("algo_alloc_greedy", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain), black_box(&platform));
            let oracle = IntervalOracle::new(chain, platform);
            algo_alloc(&oracle, chain, platform, black_box(&partition))
        })
    });
    group.bench_function("exhaustive_allocation", |b| {
        b.iter(|| {
            exhaustive_alloc(
                black_box(&chain),
                black_box(&platform),
                black_box(&partition),
            )
        })
    });
    group.finish();
}

/// Answering 20 bound pairs: rebuild-and-scan with partition profiles vs
/// re-running the exhaustive solver for every pair.
fn sweep_profiles_vs_resolve(c: &mut Criterion) {
    let chain = bench_chain(13, 9);
    let platform = bench_hom_platform(10);
    let bounds: Vec<(f64, f64)> = (1..=20).map(|i| (25.0 * i as f64, 750.0)).collect();
    let mut group = c.benchmark_group("ablation_sweep");
    group.sample_size(10);
    group.bench_function("profile_set_then_scan", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain), black_box(&platform));
            let set =
                exact::ProfileSet::build(&IntervalOracle::new(chain, platform), platform).unwrap();
            bounds
                .iter()
                .filter_map(|&(p, l)| set.best_reliability_under(p, l))
                .sum::<f64>()
        })
    });
    group.bench_function("exhaustive_per_bound_pair", |b| {
        b.iter(|| {
            bounds
                .iter()
                .filter_map(|&(p, l)| {
                    let (chain, platform) = (black_box(&chain), black_box(&platform));
                    let oracle = IntervalOracle::new(chain, platform);
                    exact::optimal_homogeneous(&oracle, chain, platform, p, l)
                        .ok()
                        .map(|s| s.reliability)
                })
                .sum::<f64>()
        })
    });
    group.finish();
}

/// Exhaustive partition enumeration vs the Section 5.4 ILP solved by
/// branch-and-bound, on an instance small enough for both.
fn exhaustive_vs_ilp(c: &mut Criterion) {
    let chain = bench_chain(7, 11);
    let platform = bench_hom_platform(6);
    let mut group = c.benchmark_group("ablation_exact_solver");
    group.sample_size(10);
    group.bench_function("exhaustive_partitions", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain), black_box(&platform));
            let oracle = IntervalOracle::new(chain, platform);
            exact::optimal_homogeneous(&oracle, chain, platform, 300.0, 800.0)
        })
    });
    group.bench_function("ilp_branch_and_bound", |b| {
        b.iter(|| {
            let (chain, platform) = (black_box(&chain), black_box(&platform));
            let oracle = IntervalOracle::new(chain, platform);
            exact::optimal_by_ilp(&oracle, chain, platform, 300.0, 800.0)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    rbd_routing_vs_exact,
    alloc_greedy_vs_exhaustive,
    sweep_profiles_vs_resolve,
    exhaustive_vs_ilp
);
criterion_main!(benches);
