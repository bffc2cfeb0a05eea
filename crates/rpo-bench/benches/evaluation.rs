//! Benchmarks of the evaluation layer: the Eq. (9) closed form, the complete
//! five-criteria evaluation, the series-parallel RBD construction and the
//! partition-profile precomputation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpo_algorithms::{algo_alloc, heur_p_partition};
use rpo_bench::{bench_chain, bench_hom_platform};
use rpo_model::{reliability, IntervalOracle, MappingEvaluation};
use rpo_rbd::mapping_rbd;
use std::hint::black_box;

fn evaluation(c: &mut Criterion) {
    let chain = bench_chain(15, 7);
    let platform = bench_hom_platform(10);
    let oracle = IntervalOracle::new(&chain, &platform);
    let partition = heur_p_partition(&oracle, 5);
    let mapping = algo_alloc(&oracle, &chain, &platform, &partition).expect("enough processors");

    let mut group = c.benchmark_group("evaluation");
    group.bench_function("mapping_reliability_eq9", |b| {
        b.iter(|| {
            reliability::mapping_reliability(
                black_box(&chain),
                black_box(&platform),
                black_box(&mapping),
            )
        })
    });
    group.bench_function("full_five_criteria_evaluation", |b| {
        b.iter(|| {
            MappingEvaluation::evaluate(
                black_box(&chain),
                black_box(&platform),
                black_box(&mapping),
            )
        })
    });
    group.bench_function("routing_sp_expr_build_and_eval", |b| {
        b.iter(|| {
            mapping_rbd::routing_sp_expr(
                black_box(&chain),
                black_box(&platform),
                black_box(&mapping),
            )
            .reliability()
        })
    });
    group.bench_function("general_rbd_build", |b| {
        b.iter(|| {
            mapping_rbd::general_rbd(black_box(&chain), black_box(&platform), black_box(&mapping))
        })
    });
    group.finish();
}

fn profile_precomputation(c: &mut Criterion) {
    let mut group = c.benchmark_group("profile_set");
    group.sample_size(10);
    for &n in &[10usize, 12, 15, 18] {
        let chain = bench_chain(n, 7);
        let platform = bench_hom_platform(10);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| {
                let (chain, platform) = (black_box(&chain), black_box(&platform));
                rpo_algorithms::exact::ProfileSet::build(
                    &IntervalOracle::new(chain, platform),
                    platform,
                )
            })
        });
    }
    let chain = bench_chain(15, 7);
    let platform = bench_hom_platform(10);
    let oracle = IntervalOracle::new(&chain, &platform);
    let set = rpo_algorithms::exact::ProfileSet::build(&oracle, &platform).unwrap();
    group.bench_function("sweep_query", |b| {
        b.iter(|| set.best_reliability_under(black_box(250.0), black_box(750.0)))
    });
    group.finish();
}

criterion_group!(benches, evaluation, profile_precomputation);
criterion_main!(benches);
