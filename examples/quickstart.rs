//! Quick start: map a small task chain onto a homogeneous platform with both
//! heuristics, compare them against the exact optimum, and print the five
//! objective values of each mapping.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pipelined_rt::algorithms::{
    exact, run_heuristic, HeuristicConfig, HeuristicSolution, IntervalHeuristic,
};
use pipelined_rt::model::{IntervalOracle, MappingEvaluation, Platform, TaskChain};

fn describe(name: &str, chain: &TaskChain, platform: &Platform, solution: &HeuristicSolution) {
    let eval = MappingEvaluation::evaluate(chain, platform, &solution.mapping);
    println!("{name}:");
    println!(
        "  intervals          : {}",
        solution.mapping.num_intervals()
    );
    println!(
        "  processors used    : {}",
        solution.mapping.processors_used()
    );
    println!(
        "  replication level  : {:.2}",
        solution.mapping.replication_level()
    );
    println!("  reliability        : {:.9}", eval.reliability);
    println!("  failure probability: {:.3e}", eval.failure_probability());
    println!("  worst-case period  : {:.2}", eval.worst_case_period);
    println!("  worst-case latency : {:.2}", eval.worst_case_latency);
    for (j, mi) in solution.mapping.iter() {
        println!(
            "    interval {j}: tasks {}..={} on processors {:?}",
            mi.interval.first, mi.interval.last, mi.processors
        );
    }
}

fn main() {
    // An eight-task processing chain: (work, output data size).
    let chain = TaskChain::from_pairs(&[
        (55.0, 3.0),
        (20.0, 7.0),
        (80.0, 2.0),
        (35.0, 9.0),
        (45.0, 1.0),
        (70.0, 4.0),
        (25.0, 6.0),
        (40.0, 0.0),
    ])
    .expect("valid chain");

    // Ten identical processors (speed 1, failure rate 1e-6 per time unit),
    // unit-bandwidth links with failure rate 1e-5, at most 3 replicas.
    let platform = Platform::homogeneous(10, 1.0, 1e-6, 1.0, 1e-5, 3).expect("valid platform");
    let oracle = IntervalOracle::new(&chain, &platform);

    // Real-time requirements.
    let period_bound = 120.0;
    let latency_bound = 420.0;
    println!(
        "chain of {} tasks, total work {}, bounds: period <= {period_bound}, latency <= {latency_bound}\n",
        chain.len(),
        chain.total_work()
    );

    for heuristic in [IntervalHeuristic::MinPeriod, IntervalHeuristic::MinLatency] {
        let config = HeuristicConfig {
            interval_heuristic: heuristic,
            period_bound,
            latency_bound,
        };
        match run_heuristic(&oracle, &chain, &platform, &config) {
            Ok(solution) => describe(heuristic.name(), &chain, &platform, &solution),
            Err(error) => println!("{}: no feasible mapping ({error})", heuristic.name()),
        }
        println!();
    }

    // The exact optimum (exhaustive over partitions + Algo-Alloc), for reference.
    match exact::optimal_homogeneous(&oracle, &chain, &platform, period_bound, latency_bound) {
        Ok(optimum) => {
            println!(
                "exact optimum: reliability {:.9} (failure probability {:.3e}) with {} intervals",
                optimum.reliability,
                1.0 - optimum.reliability,
                optimum.mapping.num_intervals()
            );
        }
        Err(error) => println!("exact optimum: no feasible mapping ({error})"),
    }
}
