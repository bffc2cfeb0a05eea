//! The self-healing pipeline end to end: a seeded platform-churn trace is
//! replayed through a live repair session while a fault-injecting
//! Monte-Carlo simulation keeps running on the (repaired) mapping.
//!
//! One paper-style instance is solved cold, then its platform loses
//! processors according to a [`ChurnTrace`] sampled from the paper's own
//! exponential failure model (plus an adversarial 2-kill burst mid-run).
//! Each kill interrupts the simulation, flows through the graded repair
//! ladder (local patch → warm DP → full solve), and the simulation resumes
//! on the repaired mapping. The run prints each repair's tier, latency, and
//! reliability step, the per-segment Monte-Carlo estimates, and finishes
//! with a churn replay over a whole generated batch.
//!
//! ```text
//! cargo run --release --example churn_repair
//! ```

use pipelined_rt::model::PlatformDelta;
use pipelined_rt::portfolio::{BatchDriver, ChurnConfig};
use pipelined_rt::repair::{monte_carlo_with_repair, RepairSession};
use pipelined_rt::sim::{FaultEvent, FaultPlan, MonteCarloConfig};
use pipelined_rt::workload::{ChurnSpec, ChurnTrace, InstanceGenerator};

fn main() {
    // One paper-style instance, with rates loud enough that the Monte-Carlo
    // estimates visibly track the analytic reliability per segment.
    let instance = InstanceGenerator::paper_homogeneous(2024)
        .batch(1)
        .remove(0);
    let chain = instance.chain;
    let platform = pipelined_rt::model::Platform::homogeneous(
        instance.homogeneous.num_processors(),
        1.0,
        2e-3,
        1.0,
        1e-4,
        3,
    )
    .expect("noisy demo platform");

    let mut session =
        RepairSession::new(chain.clone(), platform.clone(), None).expect("initial solve");
    println!(
        "initial solve: {} tasks on {} processors, reliability {:.6}",
        chain.len(),
        platform.num_processors(),
        session.reliability()
    );

    // A churn trace over a horizon of ~4 expected lifetimes (rate 2e-3 →
    // mean time-to-failure 500), so the kills spread across the run, plus a
    // 2-kill burst at the midpoint.
    let spec = ChurnSpec {
        horizon: 2e3,
        max_events: 4,
        min_alive: 2,
        burst_kills: 2,
        burst_at: 0.5,
    };
    let trace = ChurnTrace::generate(&platform, &spec, 42);
    let plan = FaultPlan::scripted(
        trace
            .fractions()
            .into_iter()
            .map(|(at_fraction, delta)| FaultEvent { at_fraction, delta })
            .collect(),
    );
    println!("churn trace: {} events inside the horizon", trace.len());

    let config = MonteCarloConfig {
        num_datasets: 200_000,
        seed: 0xC0FFEE,
        chunk_size: 4_096,
    };
    let (report, repairs) = monte_carlo_with_repair(&mut session, &config, &plan);
    for repair in &repairs {
        let delta = match repair.delta {
            PlatformDelta::ProcessorFailed(u) => format!("processor {u} failed"),
            other => format!("{other:?}"),
        };
        println!(
            "  {delta}: {:?} in {:.1}us, reliability {:.6} -> {:.6}",
            repair.tier,
            repair.elapsed_nanos as f64 / 1e3,
            repair.previous_reliability,
            repair.reliability
        );
    }
    for (index, segment) in report.segments.iter().enumerate() {
        println!(
            "  segment {index}: {} datasets, simulated reliability {:.6}",
            segment.estimate.datasets, segment.estimate.reliability
        );
    }
    println!(
        "simulated {} datasets across {} segments: overall reliability {:.6} \
         ({} repairs, {} unrepaired)",
        report.datasets,
        report.segments.len(),
        report.overall_reliability,
        report.events_applied,
        report.events_unrepaired
    );
    assert_eq!(report.events_unrepaired, 0, "the ladder absorbs every kill");
    assert_eq!(report.datasets, config.num_datasets);

    // The same machinery at batch scale: 20 sessions under aggressive churn.
    let churn = ChurnConfig {
        spec,
        ..ChurnConfig::default()
    };
    let generator = InstanceGenerator::paper_homogeneous(7);
    let replay = BatchDriver::default().run_churn(&churn, generator.stream(20));
    println!("\n{replay}");
    assert_eq!(replay.unrepaired, 0);
}
