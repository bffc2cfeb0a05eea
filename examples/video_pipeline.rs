//! Throughput-oriented scenario: a streaming video analysis pipeline.
//!
//! A camera produces frames at a fixed rate; the pipeline decodes, filters,
//! detects objects and encodes the annotated stream. The period bound follows
//! from the camera frame rate; the latency bound from the end-to-end delay
//! users tolerate. This example sweeps the number of intervals explicitly to
//! show the period/latency/reliability trade-off that Heur-P and Heur-L
//! navigate automatically.
//!
//! ```text
//! cargo run --release --example video_pipeline
//! ```

use pipelined_rt::algorithms::{
    algo_alloc, heur_l_partition, heur_p_partition, run_heuristic, HeuristicConfig,
    IntervalHeuristic,
};
use pipelined_rt::model::{IntervalOracle, MappingEvaluation, Platform, TaskChain};

fn main() {
    // Frame processing chain: (work, output size) per frame.
    let chain = TaskChain::from_pairs(&[
        (35.0, 20.0), // demux + decode
        (25.0, 18.0), // de-noise
        (55.0, 18.0), // optical flow
        (90.0, 6.0),  // object detection
        (30.0, 5.0),  // tracking
        (40.0, 12.0), // annotation rendering
        (50.0, 0.0),  // encode + publish
    ])
    .expect("valid chain");

    // Eight identical worker nodes in a rack, gigabit links.
    let platform = Platform::homogeneous(8, 1.0, 5e-7, 2.0, 1e-6, 3).expect("valid platform");
    let oracle = IntervalOracle::new(&chain, &platform);

    // 30 fps camera -> period bound; 0.5 s end-to-end budget -> latency bound
    // (one time unit = 1 ms of compute on a reference core).
    let period_bound = 95.0;
    let latency_bound = 400.0;

    println!(
        "video pipeline: {} stages, total work {}",
        chain.len(),
        chain.total_work()
    );
    println!("bounds: period <= {period_bound} (camera rate), latency <= {latency_bound}\n");

    // Manual sweep: how do the two interval heuristics behave as the number of
    // intervals grows?
    println!(
        "{:>10} {:>26} {:>26}",
        "intervals", "Heur-P (period / latency)", "Heur-L (period / latency)"
    );
    for m in 1..=chain.len().min(platform.num_processors()) {
        let mut cells = Vec::new();
        for partition in [heur_p_partition(&oracle, m), heur_l_partition(&oracle, m)] {
            let mapping =
                algo_alloc(&oracle, &chain, &platform, &partition).expect("enough processors");
            let eval = MappingEvaluation::evaluate(&chain, &platform, &mapping);
            cells.push(format!(
                "{:>10.1} / {:>10.1}",
                eval.worst_case_period, eval.worst_case_latency
            ));
        }
        println!("{m:>10} {:>26} {:>26}", cells[0], cells[1]);
    }

    // Automatic selection under the bounds.
    println!();
    for heuristic in [IntervalHeuristic::MinPeriod, IntervalHeuristic::MinLatency] {
        let config = HeuristicConfig {
            interval_heuristic: heuristic,
            period_bound,
            latency_bound,
        };
        match run_heuristic(&oracle, &chain, &platform, &config) {
            Ok(solution) => println!(
                "{}: picked {} intervals -> period {:.1}, latency {:.1}, failure probability {:.3e}",
                heuristic.name(),
                solution.num_intervals,
                solution.evaluation.worst_case_period,
                solution.evaluation.worst_case_latency,
                solution.evaluation.failure_probability(),
            ),
            Err(error) => println!("{}: no feasible mapping ({error})", heuristic.name()),
        }
    }
}
