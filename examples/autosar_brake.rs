//! Automotive (Autosar-style) scenario from the paper's introduction: a
//! brake-by-wire function running as a pipelined real-time system.
//!
//! The chain goes from a wheel-speed sensor driver to the hydraulic brake
//! pressure actuator driver. Each invocation produces a new data set (the
//! sampled wheel angular speed); the function must sustain the sampling rate
//! (period bound), react within the end-to-end timing constraint (latency
//! bound), and reach a target reliability despite transient faults on the
//! ECUs (Electronic Computing Units) and the bus.
//!
//! ```text
//! cargo run --release --example autosar_brake
//! ```

use pipelined_rt::algorithms::{run_heuristic, HeuristicConfig, IntervalHeuristic};
use pipelined_rt::model::{IntervalOracle, MappingEvaluation, PlatformBuilder, TaskChain};
use pipelined_rt::sim::{monte_carlo, MonteCarloConfig};

fn main() {
    // The brake-by-wire chain. One time unit = 10 µs; data sizes are in bus
    // payload units. Works are worst-case execution times from a (synthetic)
    // WCET analysis.
    let chain = TaskChain::from_pairs(&[
        (12.0, 2.0), // wheel-speed sensor driver + signal conditioning
        (30.0, 4.0), // slip estimation
        (45.0, 6.0), // vehicle dynamics observer (sensor fusion)
        (60.0, 3.0), // ABS / brake-force control law
        (18.0, 1.0), // torque arbitration
        (10.0, 0.0), // hydraulic pressure actuator driver
    ])
    .expect("valid chain");

    // Six ECUs on a shared Autosar bus. ECUs are identical hot-standby capable
    // units; the bus allows each ECU to talk to at most K = 2 peers at full
    // rate (bounded multi-port model).
    let platform = PlatformBuilder::new()
        .identical_processors(6, 1.0, 2e-6)
        .bandwidth(1.0)
        .link_failure_rate(5e-6)
        .max_replication(2)
        .build()
        .expect("valid platform");

    // Requirements: 1 kHz sampling (period 100 time units = 1 ms), 2.5 ms
    // sensor-to-actuator latency, failure probability per data set below 1e-4.
    let period_bound = 100.0;
    let latency_bound = 250.0;
    let max_failure_probability = 1e-4;

    println!(
        "brake-by-wire chain: {} software components, total WCET {}",
        chain.len(),
        chain.total_work()
    );
    println!(
        "requirements: period <= {period_bound}, latency <= {latency_bound}, failure probability <= {max_failure_probability:.0e}\n"
    );

    let oracle = IntervalOracle::new(&chain, &platform);
    let mut accepted = None;
    for heuristic in [IntervalHeuristic::MinPeriod, IntervalHeuristic::MinLatency] {
        let config = HeuristicConfig {
            interval_heuristic: heuristic,
            period_bound,
            latency_bound,
        };
        let Ok(solution) = run_heuristic(&oracle, &chain, &platform, &config) else {
            println!(
                "{}: no mapping meets the timing requirements",
                heuristic.name()
            );
            continue;
        };
        let eval = MappingEvaluation::evaluate(&chain, &platform, &solution.mapping);
        let verdict = if eval.failure_probability() <= max_failure_probability {
            "ACCEPTED"
        } else {
            "rejected (reliability target missed)"
        };
        println!(
            "{}: {} intervals, replication level {:.2}, period {:.1}, latency {:.1}, failure probability {:.3e} -> {verdict}",
            heuristic.name(),
            solution.mapping.num_intervals(),
            solution.mapping.replication_level(),
            eval.worst_case_period,
            eval.worst_case_latency,
            eval.failure_probability(),
        );
        if eval.failure_probability() <= max_failure_probability && accepted.is_none() {
            accepted = Some(solution);
        }
    }

    // Validate the accepted mapping with the failure-injection simulator.
    if let Some(solution) = accepted {
        println!("\nvalidating the accepted mapping with Monte-Carlo failure injection…");
        let estimate = monte_carlo(
            &chain,
            &platform,
            &solution.mapping,
            &MonteCarloConfig {
                num_datasets: 200_000,
                seed: 1,
                chunk_size: 8192,
            },
        );
        println!(
            "  simulated reliability   : {:.6} (+/- {:.1e} at 95% confidence)",
            estimate.reliability,
            estimate.reliability_confidence95()
        );
        println!("  simulated mean latency  : {:.2}", estimate.mean_latency);
        println!(
            "  simulated period        : {:.2}",
            estimate.achieved_period
        );
    } else {
        println!("\nno mapping met the reliability target: add ECUs or raise K");
    }
}
