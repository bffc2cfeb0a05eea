//! Races the full solver portfolio over a 500-instance paper-style batch.
//!
//! Every instance (15-task chain, 10-processor homogeneous platform, the
//! paper's Section 8 distributions) is solved by all applicable backends in
//! parallel — Algorithm 1, Algorithm 2, the period minimizer, Heur-L,
//! Heur-P and the exhaustive exact solver — and their candidates are merged
//! into a tri-criteria Pareto front per instance. The run prints the batch
//! throughput, the per-backend win rates, and the Pareto front of one
//! sample instance, and asserts that every front is mutually non-dominated.
//!
//! ```text
//! cargo run --release --example portfolio_race
//! ```

use pipelined_rt::portfolio::{
    BatchDriver, BoundsPolicy, Budget, PortfolioEngine, ProblemInstance, RunStatus,
};
use pipelined_rt::workload::InstanceGenerator;

const INSTANCES: usize = 500;

fn main() {
    // Allow the exhaustive solver on the paper's 15-task chains so six
    // backends participate (ILP stays gated: branch-and-bound on 15 tasks is
    // out of interactive reach).
    let budget = Budget {
        max_exhaustive_tasks: 15,
        ..Budget::default()
    };
    let engine =
        PortfolioEngine::new(pipelined_rt::portfolio::default_backends(), budget).with_threads(1); // batch-level parallelism saturates the cores
    let bounds = BoundsPolicy {
        period_slack: 1.6,
        latency_slack: 1.25,
    };
    let generator = InstanceGenerator::paper_homogeneous(2024);
    let instance = |index: usize| {
        let experiment = generator.instance(index);
        bounds.instance(&experiment.chain, &experiment.homogeneous)
    };

    println!(
        "racing {INSTANCES} paper-style instances over backends {:?}...",
        engine.backend_names()
    );
    let report = BatchDriver::default().run(&engine, (0..INSTANCES).map(&instance));
    println!("\n{report}");

    // Inspect one sample instance in detail, on a cold-cache engine so the
    // per-backend run census is visible (the batch engine would answer from
    // its cache).
    let inspect_engine = PortfolioEngine::new(pipelined_rt::portfolio::default_backends(), budget);
    inspect(&inspect_engine, &instance(0));

    // Structural sanity: re-solve a handful of instances and check the
    // Pareto front invariant (the test-suite asserts this too).
    for index in 0..10 {
        let instance = instance(index);
        let outcome = engine.solve(&instance);
        assert!(
            outcome.front.is_mutually_non_dominated(),
            "instance {index}: Pareto front contains a dominated point"
        );
    }
    println!("\nchecked: every sampled Pareto front is mutually non-dominated");
}

fn inspect(engine: &PortfolioEngine, instance: &ProblemInstance) {
    let outcome = engine.solve(instance);
    println!(
        "sample instance: {} tasks, {} processors, P <= {:.1}, L <= {:.1}",
        instance.chain.len(),
        instance.platform.num_processors(),
        instance.period_bound,
        instance.latency_bound,
    );
    for run in &outcome.runs {
        match &run.status {
            RunStatus::Completed => println!(
                "  {:<12} {:>3} candidates, {:>3} feasible, {:>8.1} ms",
                run.backend,
                run.candidates,
                run.feasible,
                run.micros as f64 / 1e3
            ),
            RunStatus::Skipped(reason) => println!("  {:<12} skipped: {reason}", run.backend),
            other => println!("  {:<12} {other:?}", run.backend),
        }
    }
    println!("  Pareto front ({} points):", outcome.front.len());
    for point in outcome.front.points() {
        println!(
            "    [{:<10}] reliability {:.9}  period {:>7.2}  latency {:>7.2}  ({} intervals)",
            point.backend,
            point.evaluation.reliability,
            point.evaluation.worst_case_period,
            point.evaluation.worst_case_latency,
            point.mapping.num_intervals(),
        );
    }
    assert!(outcome.front.is_mutually_non_dominated());
}
