//! Energy-aware mapping (the paper's "power consumption" future-work
//! extension): explore how a per-data-set energy budget trades reliability
//! against power when replication is pruned.
//!
//! ```text
//! cargo run --release --example energy_budget
//! ```

use pipelined_rt::algorithms::{
    run_energy_aware_heuristic, run_heuristic, EnergyAwareConfig, HeuristicConfig,
    IntervalHeuristic,
};
use pipelined_rt::model::{energy, IntervalOracle, Platform, PowerModel, TaskChain};

fn main() {
    // A radar processing chain on an embedded compute cluster.
    let chain = TaskChain::from_pairs(&[
        (45.0, 6.0), // pulse compression
        (30.0, 8.0), // doppler filtering
        (60.0, 4.0), // CFAR detection
        (25.0, 5.0), // clustering
        (40.0, 0.0), // tracking + output
    ])
    .expect("valid chain");
    let platform = Platform::homogeneous(9, 1.0, 5e-4, 1.0, 1e-4, 3).expect("valid platform");
    let oracle = IntervalOracle::new(&chain, &platform);

    let base = HeuristicConfig {
        interval_heuristic: IntervalHeuristic::MinPeriod,
        period_bound: 90.0,
        latency_bound: 250.0,
    };
    let power_model = PowerModel {
        static_power: 0.5,
        dynamic_coefficient: 1.0,
        dynamic_exponent: 3.0,
        comm_energy_per_unit: 0.2,
    };

    // Reference: the unbudgeted heuristic.
    let unbudgeted =
        run_heuristic(&oracle, &chain, &platform, &base).expect("feasible without a budget");
    let full_energy =
        energy::energy_per_dataset(&chain, &platform, &unbudgeted.mapping, &power_model);
    println!(
        "unbudgeted Heur-P mapping: {} processors, reliability {:.6}, energy {:.1} J/data set\n",
        unbudgeted.mapping.processors_used(),
        unbudgeted.evaluation.reliability,
        full_energy
    );

    println!(
        "{:>10} {:>12} {:>14} {:>16} {:>12} {:>12}",
        "budget", "processors", "energy (J)", "avg power (W)", "reliability", "failure"
    );
    for fraction in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4] {
        let budget = full_energy * fraction;
        let config = EnergyAwareConfig {
            base,
            power_model,
            energy_budget: budget,
        };
        match run_energy_aware_heuristic(&oracle, &chain, &platform, &config) {
            Ok(solution) => println!(
                "{budget:>10.1} {:>12} {:>14.1} {:>16.2} {:>12.6} {:>12.3e}",
                solution.mapping.processors_used(),
                solution.energy.energy_per_dataset,
                solution.energy.average_power,
                solution.evaluation.reliability,
                solution.evaluation.failure_probability(),
            ),
            Err(error) => println!("{budget:>10.1} {:>12} ({error})", "-"),
        }
    }

    println!(
        "\nInterpretation: as the energy budget shrinks, replicas are pruned one by one \
         (least reliability lost per joule saved first); the period and latency are unaffected \
         on a homogeneous platform, so the budget only trades reliability against power."
    );
}
