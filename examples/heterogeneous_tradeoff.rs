//! Heterogeneous-platform exploration: the same chain is mapped onto a
//! heterogeneous platform and onto homogeneous platforms of equivalent
//! aggregate speed, reproducing in miniature the comparison of Figures 12–15.
//!
//! ```text
//! cargo run --release --example heterogeneous_tradeoff
//! ```

use pipelined_rt::algorithms::{exact, run_heuristic, HeuristicConfig, IntervalHeuristic};
use pipelined_rt::model::{IntervalOracle, Platform, TaskChain};
use pipelined_rt::workload::{ChainSpec, HeterogeneousPlatformSpec, HomogeneousPlatformSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn solve(chain: &TaskChain, platform: &Platform, period: f64, latency: f64) -> Vec<String> {
    let oracle = IntervalOracle::new(chain, platform);
    let mut cells = Vec::new();
    for heuristic in [IntervalHeuristic::MinLatency, IntervalHeuristic::MinPeriod] {
        let config = HeuristicConfig {
            interval_heuristic: heuristic,
            period_bound: period,
            latency_bound: latency,
        };
        match run_heuristic(&oracle, chain, platform, &config) {
            Ok(solution) => cells.push(format!(
                "{:>12.3e}",
                solution.evaluation.failure_probability()
            )),
            Err(_) => cells.push(format!("{:>12}", "infeasible")),
        }
    }
    cells
}

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let chain = ChainSpec::paper().generate(&mut rng);
    let heterogeneous = HeterogeneousPlatformSpec::paper().generate(&mut rng);
    let homogeneous_speed5 = HomogeneousPlatformSpec::paper_speed5().build();
    let homogeneous_speed1 = HomogeneousPlatformSpec::paper().build();

    let mean_speed: f64 = heterogeneous
        .processors()
        .iter()
        .map(|p| p.speed)
        .sum::<f64>()
        / heterogeneous.num_processors() as f64;
    println!(
        "paper-style instance: {} tasks (total work {:.1}), heterogeneous speeds {:?} (mean {:.1})",
        chain.len(),
        chain.total_work(),
        heterogeneous
            .processors()
            .iter()
            .map(|p| p.speed.round())
            .collect::<Vec<_>>(),
        mean_speed
    );

    println!(
        "\n{:>10} {:>10} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12}",
        "period",
        "latency",
        "HET Heur-L",
        "HET Heur-P",
        "HOM5 Heur-L",
        "HOM5 Heur-P",
        "HOM1 Heur-L",
        "HOM1 Heur-P"
    );
    for (period, latency) in [
        (20.0, 150.0),
        (40.0, 150.0),
        (60.0, 150.0),
        (50.0, 100.0),
        (50.0, 200.0),
    ] {
        let het = solve(&chain, &heterogeneous, period, latency);
        let hom5 = solve(&chain, &homogeneous_speed5, period, latency);
        let hom1 = solve(&chain, &homogeneous_speed1, period, latency);
        println!(
            "{period:>10.1} {latency:>10.1} | {} {} | {} {} | {} {}",
            het[0], het[1], hom5[0], hom5[1], hom1[0], hom1[1]
        );
    }

    // On the homogeneous platform we can also certify the optimum.
    println!("\nexact optimum on the speed-5 homogeneous platform (P = 50, L = 150):");
    let oracle = IntervalOracle::new(&chain, &homogeneous_speed5);
    match exact::optimal_homogeneous(&oracle, &chain, &homogeneous_speed5, 50.0, 150.0) {
        Ok(optimum) => println!(
            "  reliability {:.9}, {} intervals, {} processors used",
            optimum.reliability,
            optimum.mapping.num_intervals(),
            optimum.mapping.processors_used()
        ),
        Err(error) => println!("  {error}"),
    }
}
