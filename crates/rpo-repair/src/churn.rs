//! Churn replay: streams `(chain, platform)` pairs through **live repair
//! sessions** instead of independent solves.
//!
//! [`replay_churn`] opens a [`RepairSession`] per instance, samples a seeded
//! platform-churn trace ([`ChurnTrace`]) from the paper's own exponential
//! failure model, and replays the trace through the graded repair ladder —
//! tallying which rung (local patch / warm DP / full solve) answered each
//! event and how long repairs took, against the cost of the cold initial
//! solves.

use crate::session::{RepairSession, RepairTier};
use rpo_model::{Platform, TaskChain};
use rpo_workload::{ChurnSpec, ChurnTrace};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of a churn replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// The trace parameters (horizon, event cap, burst shape).
    pub spec: ChurnSpec,
    /// Base seed; instance `i` samples its trace with `seed + i`.
    pub seed: u64,
    /// Optional worst-case period bound each session solves and repairs
    /// under (`None` = pure reliability optimization).
    pub period_bound: Option<f64>,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            spec: ChurnSpec::paper(),
            seed: 0xC0FFEE,
            period_bound: None,
        }
    }
}

/// The report of one churn replay. Serde-serializable for `--report-json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Instances replayed (sessions opened).
    pub instances: usize,
    /// Instances whose initial solve found no feasible mapping (no session).
    pub infeasible_instances: usize,
    /// Churn events replayed across all sessions.
    pub events: usize,
    /// Events absorbed by the local-patch tier.
    pub local_patches: usize,
    /// Events absorbed by the warm-DP tier.
    pub warm_dps: usize,
    /// Events needing a cold full solve.
    pub full_solves: usize,
    /// Events no repair could absorb (the session kept its pre-delta state).
    pub unrepaired: usize,
    /// Total wall-clock spent inside the cold initial solves.
    pub solve_time: Duration,
    /// Total wall-clock spent inside repairs.
    pub repair_time: Duration,
    /// Wall-clock of the whole replay.
    pub elapsed: Duration,
    /// Sum over sessions of the final reliability after all repairs (divide
    /// by `instances − infeasible_instances` for the mean).
    pub final_reliability_sum: f64,
}

impl ChurnReport {
    /// Mean nanoseconds per repair event (0 with no events).
    pub fn mean_repair_nanos(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.repair_time.as_nanos() as f64 / self.events as f64
        }
    }

    /// Mean nanoseconds per cold initial solve (0 with no sessions).
    pub fn mean_solve_nanos(&self) -> f64 {
        let sessions = self.instances - self.infeasible_instances;
        if sessions == 0 {
            0.0
        } else {
            self.solve_time.as_nanos() as f64 / sessions as f64
        }
    }
}

impl std::fmt::Display for ChurnReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "churn: {} sessions ({} infeasible) replayed {} events in {:.2?}",
            self.instances, self.infeasible_instances, self.events, self.elapsed,
        )?;
        writeln!(
            f,
            "tiers: {} local-patch / {} warm-dp / {} full-solve, {} unrepaired",
            self.local_patches, self.warm_dps, self.full_solves, self.unrepaired,
        )?;
        writeln!(
            f,
            "mean cold solve {:.1}us vs mean repair {:.1}us ({:.1}x)",
            self.mean_solve_nanos() / 1e3,
            self.mean_repair_nanos() / 1e3,
            self.mean_solve_nanos() / self.mean_repair_nanos().max(1.0),
        )
    }
}

/// Replays a seeded churn trace through a live [`RepairSession`] for every
/// `(chain, platform)` pair of `instances`, in parallel across `workers`
/// threads (min 1).
///
/// Each instance gets its own trace (`config.seed + index`) sampled from its
/// platform's failure rates, so the replay is deterministic for a given
/// `(instances, config)`, whatever the worker count.
pub fn replay_churn<I>(config: &ChurnConfig, workers: usize, instances: I) -> ChurnReport
where
    I: IntoIterator<Item = (TaskChain, Platform)>,
    I::IntoIter: Send,
{
    let _span = rpo_obs::span!("churn.replay");
    let start = Instant::now();
    let source = Mutex::new(instances.into_iter().enumerate());
    let shared: Mutex<ChurnReport> = Mutex::new(ChurnReport::default());
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                let mut local = ChurnReport::default();
                loop {
                    let next = source.lock().expect("churn stream lock poisoned").next();
                    let Some((index, (chain, platform))) = next else {
                        break;
                    };
                    local.instances += 1;
                    let trace = ChurnTrace::generate(
                        &platform,
                        &config.spec,
                        config.seed.wrapping_add(index as u64),
                    );
                    let solve_start = Instant::now();
                    let session = RepairSession::new(chain, platform, config.period_bound);
                    local.solve_time += solve_start.elapsed();
                    let Ok(mut session) = session else {
                        local.infeasible_instances += 1;
                        continue;
                    };
                    for event in &trace.events {
                        local.events += 1;
                        let repair_start = Instant::now();
                        match session.apply(&event.delta) {
                            Ok(report) => match report.tier {
                                RepairTier::LocalPatch => local.local_patches += 1,
                                RepairTier::WarmDp => local.warm_dps += 1,
                                RepairTier::FullSolve => local.full_solves += 1,
                            },
                            Err(_) => local.unrepaired += 1,
                        }
                        local.repair_time += repair_start.elapsed();
                    }
                    local.final_reliability_sum += session.reliability();
                }
                let mut report = shared.lock().expect("churn report lock poisoned");
                report.instances += local.instances;
                report.infeasible_instances += local.infeasible_instances;
                report.events += local.events;
                report.local_patches += local.local_patches;
                report.warm_dps += local.warm_dps;
                report.full_solves += local.full_solves;
                report.unrepaired += local.unrepaired;
                report.solve_time += local.solve_time;
                report.repair_time += local.repair_time;
                report.final_reliability_sum += local.final_reliability_sum;
            });
        }
    });
    let mut report = shared.into_inner().expect("churn report lock poisoned");
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_workload::{ExperimentInstance, InstanceGenerator};

    /// The `(chain, homogeneous platform)` pairs of `count` paper instances.
    fn homogeneous(generator: &InstanceGenerator, count: usize) -> Vec<(TaskChain, Platform)> {
        generator
            .stream(count)
            .map(
                |ExperimentInstance {
                     chain, homogeneous, ..
                 }| (chain, homogeneous),
            )
            .collect()
    }

    #[test]
    fn churn_replay_repairs_paper_scale_instances() {
        // High-churn spec on the paper's 1e-8-rate platforms: shorten the
        // horizon massively so the burst dominates and events are certain.
        let config = ChurnConfig {
            spec: ChurnSpec {
                horizon: 1e6,
                max_events: 4,
                min_alive: 2,
                burst_kills: 3,
                burst_at: 0.5,
            },
            ..ChurnConfig::default()
        };
        let generator = InstanceGenerator::paper_homogeneous(2024);
        let report = replay_churn(&config, 2, homogeneous(&generator, 6));
        assert_eq!(report.instances, 6);
        assert_eq!(report.infeasible_instances, 0);
        // Every instance's burst fires: 3 kills each.
        assert_eq!(report.events, 18);
        assert_eq!(report.unrepaired, 0);
        let repaired = report.local_patches + report.warm_dps + report.full_solves;
        assert_eq!(repaired, report.events);
        // Paper instances use K=3 on 10 processors: the optimum leaves
        // processors free, so kills are overwhelmingly local patches.
        assert!(report.local_patches > 0, "expected local patches");
        let mean = report.final_reliability_sum / 6.0;
        assert!(mean > 0.9, "post-churn reliability collapsed: {mean}");
    }

    #[test]
    fn churn_replay_is_deterministic_in_counts() {
        let config = ChurnConfig::default();
        let generator = InstanceGenerator::paper_homogeneous(7);
        // The second replay runs on a different worker count: the traces are
        // per instance.
        let a = replay_churn(&config, 1, homogeneous(&generator, 4));
        let b = replay_churn(&config, 3, homogeneous(&generator, 4));
        let tallies = |r: &ChurnReport| {
            (
                r.instances,
                r.infeasible_instances,
                r.events,
                r.local_patches,
                r.warm_dps,
                r.full_solves,
                r.unrepaired,
            )
        };
        assert_eq!(tallies(&a), tallies(&b));
        // The per-worker sums are added in a different order.
        let (x, y) = (a.final_reliability_sum, b.final_reliability_sum);
        assert!((x - y).abs() <= 1e-12 * x.abs().max(y.abs()), "{x} vs {y}");
    }
}
