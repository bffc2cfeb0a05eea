//! Mid-simulation fault injection: platform deltas fired at chosen trial
//! fractions of a Monte-Carlo run, with a caller-supplied repair loop.
//!
//! The plain [`monte_carlo`](fn@crate::monte_carlo) estimator assumes one fixed
//! `(chain, platform, mapping)` for the whole run. A [`FaultPlan`] breaks
//! that assumption the way production does: at chosen fractions of the trial
//! budget a [`PlatformDelta`] strikes (a processor dies, a speed degrades, a
//! work estimate is revised), the `repair` callback is invoked to produce a
//! post-delta `(chain, platform, mapping)`, and the simulation **continues
//! on the repaired mapping** — so the report shows reliability before and
//! after each event plus the wall-clock latency of every repair (also
//! recorded in the `repair.latency` histogram via `rpo-obs`).
//!
//! The repair logic itself lives upstream (`rpo-repair` wraps this with its
//! graded local-patch → warm-DP → full-solve ladder); taking it as a
//! callback keeps this crate free of any solver dependency.

use std::time::Instant;

use rpo_model::{Mapping, Platform, PlatformDelta, TaskChain};
use serde::{Deserialize, Serialize};

use crate::monte_carlo::{monte_carlo, MonteCarloConfig, MonteCarloEstimate};

/// One scheduled fault: a delta fired once the given fraction of the trial
/// budget has been simulated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Fraction of the total trial budget (in `[0, 1]`) after which the
    /// delta strikes.
    pub at_fraction: f64,
    /// The platform/workload change.
    pub delta: PlatformDelta,
}

/// A schedule of faults for one Monte-Carlo run, ordered by trial fraction.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults, sorted by `at_fraction`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A scripted plan: the events are sorted by fraction (ties keep their
    /// relative order) and clamped to `[0, 1]`.
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        for event in &mut events {
            event.at_fraction = event.at_fraction.clamp(0.0, 1.0);
        }
        events.sort_by(|a, b| {
            a.at_fraction
                .partial_cmp(&b.at_fraction)
                .expect("finite fault fractions")
        });
        FaultPlan { events }
    }

    /// A seeded random kill plan: `kills` fail-stop events at uniform random
    /// fractions, each killing a uniformly chosen processor **of the
    /// platform alive at that point** (indices account for the shifts caused
    /// by earlier removals), never killing the last one.
    pub fn seeded_kills(seed: u64, kills: usize, num_processors: usize) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let kills = kills.min(num_processors.saturating_sub(1));
        // Draw and sort the fire times first, then pick victims in firing
        // order — each victim index must be valid on the platform alive *at
        // that point* (ids shift down after every earlier removal).
        let mut fractions: Vec<f64> = (0..kills).map(|_| rng.gen::<f64>()).collect();
        fractions.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));
        let events = fractions
            .into_iter()
            .enumerate()
            .map(|(i, at_fraction)| {
                let alive = num_processors - i;
                let victim = ((rng.gen::<f64>() * alive as f64) as usize).min(alive - 1);
                FaultEvent {
                    at_fraction,
                    delta: PlatformDelta::ProcessorFailed(victim),
                }
            })
            .collect();
        FaultPlan { events }
    }
}

/// One homogeneous stretch of a fault-injected run: the trials simulated
/// between two consecutive events, all on the same mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSegment {
    /// The delta that *opened* this segment (`None` for the initial one).
    pub triggered_by: Option<PlatformDelta>,
    /// Monte-Carlo estimate over this segment's trials.
    pub estimate: MonteCarloEstimate,
    /// Wall-clock nanoseconds the repair opening this segment took
    /// (0 for the initial segment).
    pub repair_nanos: u64,
}

/// Report of a fault-injected Monte-Carlo run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSimReport {
    /// The per-mapping segments, in simulation order.
    pub segments: Vec<FaultSegment>,
    /// Events whose repair succeeded (each opens a segment).
    pub events_applied: usize,
    /// Events whose repair failed — the run stops at the first one, the
    /// remaining trial budget is not simulated.
    pub events_unrepaired: usize,
    /// Trials actually simulated (the full budget unless a repair failed).
    pub datasets: usize,
    /// Successful trials across all segments.
    pub successes: usize,
    /// Overall reliability across all segments (`successes / datasets`) —
    /// the lived reliability of the churning platform, blending pre- and
    /// post-fault mappings.
    pub overall_reliability: f64,
}

/// Runs a Monte-Carlo estimation under a [`FaultPlan`].
///
/// The trial budget of `config` is split at the plan's fractions. Each
/// boundary fires its delta and calls `repair`, which must return the
/// post-delta `(chain, platform, mapping)` to continue with — or `None` if
/// no feasible repair exists, which ends the run early (reported via
/// [`FaultSimReport::events_unrepaired`]). Repair wall time is recorded in
/// the `repair.latency` histogram.
///
/// Trials use the same seeded generator family as [`monte_carlo`], with a
/// per-segment seed offset, so a given `(config, plan)` is reproducible.
pub fn monte_carlo_with_faults(
    chain: &TaskChain,
    platform: &Platform,
    mapping: &Mapping,
    config: &MonteCarloConfig,
    plan: &FaultPlan,
    mut repair: impl FnMut(&PlatformDelta) -> Option<(TaskChain, Platform, Mapping)>,
) -> FaultSimReport {
    let _span = rpo_obs::span!("sim.fault_injection", events = plan.events.len());
    let total = config.num_datasets;
    assert!(total > 0, "at least one data set must be simulated");

    // Segment boundaries in trial counts (deduplicated, strictly inside).
    let mut state = (chain.clone(), platform.clone(), mapping.clone());
    let mut segments = Vec::with_capacity(plan.events.len() + 1);
    let mut events_applied = 0;
    let mut events_unrepaired = 0;
    let mut simulated = 0usize;
    let mut successes = 0usize;
    let mut trigger: Option<PlatformDelta> = None;
    let mut repair_nanos = 0u64;

    let run_segment = |state: &(TaskChain, Platform, Mapping),
                       from: usize,
                       to: usize,
                       trigger: Option<PlatformDelta>,
                       repair_nanos: u64,
                       segments: &mut Vec<FaultSegment>,
                       successes: &mut usize| {
        if to <= from {
            return;
        }
        let estimate = monte_carlo(
            &state.0,
            &state.1,
            &state.2,
            &MonteCarloConfig {
                num_datasets: to - from,
                // Decorrelate segments without overlapping the chunk-indexed
                // streams of the plain estimator.
                seed: config
                    .seed
                    .wrapping_add((from as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                chunk_size: config.chunk_size,
            },
        );
        *successes += estimate.successes;
        segments.push(FaultSegment {
            triggered_by: trigger,
            estimate,
            repair_nanos,
        });
    };

    for event in &plan.events {
        let boundary = ((event.at_fraction * total as f64) as usize).min(total);
        run_segment(
            &state,
            simulated,
            boundary,
            trigger,
            repair_nanos,
            &mut segments,
            &mut successes,
        );
        simulated = simulated.max(boundary);

        let started = Instant::now();
        let repaired = repair(&event.delta);
        let elapsed = started.elapsed().as_nanos() as u64;
        rpo_obs::histogram!("repair.latency").record_nanos(elapsed);
        match repaired {
            Some(next) => {
                events_applied += 1;
                trigger = Some(event.delta);
                repair_nanos = elapsed;
                state = next;
            }
            None => {
                events_unrepaired += 1;
                // No feasible mapping: the pipeline is down, stop here.
                return FaultSimReport {
                    segments,
                    events_applied,
                    events_unrepaired,
                    datasets: simulated,
                    successes,
                    overall_reliability: if simulated == 0 {
                        f64::NAN
                    } else {
                        successes as f64 / simulated as f64
                    },
                };
            }
        }
    }
    run_segment(
        &state,
        simulated,
        total,
        trigger,
        repair_nanos,
        &mut segments,
        &mut successes,
    );
    simulated = total;

    FaultSimReport {
        segments,
        events_applied,
        events_unrepaired,
        datasets: simulated,
        successes,
        overall_reliability: successes as f64 / simulated as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Interval, MappedInterval};

    fn setup() -> (TaskChain, Platform, Mapping) {
        let chain =
            TaskChain::from_pairs(&[(10.0, 2.0), (20.0, 6.0), (30.0, 4.0), (15.0, 3.0)]).unwrap();
        let platform = Platform::homogeneous(4, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        let mapping = Mapping::new(
            vec![
                MappedInterval::new(Interval { first: 0, last: 1 }, vec![0, 1]),
                MappedInterval::new(Interval { first: 2, last: 3 }, vec![2, 3]),
            ],
            &chain,
            &platform,
        )
        .unwrap();
        (chain, platform, mapping)
    }

    #[test]
    fn faultless_plan_matches_plain_monte_carlo_totals() {
        let (chain, platform, mapping) = setup();
        let config = MonteCarloConfig {
            num_datasets: 4_000,
            ..MonteCarloConfig::default()
        };
        let report = monte_carlo_with_faults(
            &chain,
            &platform,
            &mapping,
            &config,
            &FaultPlan::default(),
            |_| panic!("no events scheduled"),
        );
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.datasets, 4_000);
        assert_eq!(report.events_applied, 0);
        let expected = monte_carlo(&chain, &platform, &mapping, &config);
        assert_eq!(report.successes, expected.successes);
    }

    #[test]
    fn mid_run_event_splits_segments_and_uses_the_repaired_mapping() {
        let (chain, platform, mapping) = setup();
        let config = MonteCarloConfig {
            num_datasets: 6_000,
            ..MonteCarloConfig::default()
        };
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at_fraction: 0.5,
            delta: PlatformDelta::ProcessorFailed(3),
        }]);
        let mut calls = 0;
        let report = monte_carlo_with_faults(&chain, &platform, &mapping, &config, &plan, |d| {
            calls += 1;
            assert_eq!(*d, PlatformDelta::ProcessorFailed(3));
            let (c2, p2) = d.apply(&chain, &platform).unwrap();
            // Degraded repair: drop to one replica on the second interval.
            let m2 = Mapping::new(
                vec![
                    MappedInterval::new(Interval { first: 0, last: 1 }, vec![0, 1]),
                    MappedInterval::new(Interval { first: 2, last: 3 }, vec![2]),
                ],
                &c2,
                &p2,
            )
            .unwrap();
            Some((c2, p2, m2))
        });
        assert_eq!(calls, 1);
        assert_eq!(report.segments.len(), 2);
        assert_eq!(report.events_applied, 1);
        assert_eq!(report.datasets, 6_000);
        assert_eq!(report.segments[0].estimate.datasets, 3_000);
        assert_eq!(report.segments[1].estimate.datasets, 3_000);
        assert_eq!(
            report.segments[1].triggered_by,
            Some(PlatformDelta::ProcessorFailed(3))
        );
        // The un-replicated post-fault interval must hurt reliability.
        assert!(report.segments[1].estimate.reliability < report.segments[0].estimate.reliability);
    }

    #[test]
    fn unrepairable_event_stops_the_run() {
        let (chain, platform, mapping) = setup();
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at_fraction: 0.25,
            delta: PlatformDelta::ProcessorFailed(0),
        }]);
        let config = MonteCarloConfig {
            num_datasets: 4_000,
            ..MonteCarloConfig::default()
        };
        let report = monte_carlo_with_faults(&chain, &platform, &mapping, &config, &plan, |_| None);
        assert_eq!(report.events_unrepaired, 1);
        assert_eq!(report.datasets, 1_000);
        assert_eq!(report.segments.len(), 1);
    }

    #[test]
    fn seeded_kill_plans_are_reproducible_and_respect_the_alive_count() {
        let a = FaultPlan::seeded_kills(9, 3, 4);
        let b = FaultPlan::seeded_kills(9, 3, 4);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 3);
        for (i, event) in a.events.iter().enumerate() {
            let alive = 4 - i;
            match event.delta {
                PlatformDelta::ProcessorFailed(u) => assert!(u < alive),
                _ => panic!("kill plans only fail processors"),
            }
        }
        // Never kills the last processor.
        assert_eq!(FaultPlan::seeded_kills(9, 10, 4).events.len(), 3);
    }
}
