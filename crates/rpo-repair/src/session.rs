//! The [`RepairSession`]: one live instance plus the warm solver state, with
//! the graded local-patch → warm-DP → full-solve repair ladder.

use std::time::Instant;

use rpo_algorithms::{
    algo_het, greedy_het, optimize_reliability, repair_reliability_dp, AlgoError, DpScratch,
    WarmPath,
};
use rpo_model::{
    AppliedDelta, IntervalOracle, MappedInterval, Mapping, MappingEvaluation, ModelError, Platform,
    PlatformDelta, TaskChain,
};
use serde::{Deserialize, Serialize};

/// Which rung of the degradation ladder produced a repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairTier {
    /// Only the intervals touching the failed/degraded processor were
    /// patched (or nothing at all was remapped); the result was re-certified
    /// against the bounds via `oracle.evaluate`. No dynamic program ran.
    LocalPatch,
    /// The homogeneous DP re-ran reusing the unchanged prefix of the prior
    /// boundary grid (see the crate docs for why that is bit-safe).
    WarmDp,
    /// A cold re-solve (homogeneous DP or heterogeneous class DP).
    FullSolve,
}

/// The outcome of one [`RepairSession::apply`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairReport {
    /// The delta that was applied.
    pub delta: PlatformDelta,
    /// The ladder rung that produced the repaired mapping.
    pub tier: RepairTier,
    /// Reliability of the repaired mapping (exact Eq. 9 value).
    pub reliability: f64,
    /// Reliability of the mapping before the delta.
    pub previous_reliability: f64,
    /// Wall-clock nanoseconds the whole repair took (oracle delta + ladder).
    pub elapsed_nanos: u64,
}

/// A live solved instance: the current `(chain, platform, mapping)` triple
/// plus the warm state ([`IntervalOracle`], DP boundary grid) that makes
/// repairs cheap. Create one with [`RepairSession::new`] (which performs the
/// initial solve), then feed it [`PlatformDelta`]s via
/// [`RepairSession::apply`] as the platform churns.
#[derive(Debug)]
pub struct RepairSession {
    chain: TaskChain,
    platform: Platform,
    oracle: IntervalOracle,
    scratch: DpScratch,
    mapping: Mapping,
    reliability: f64,
    period_bound: Option<f64>,
}

impl RepairSession {
    /// Solves the instance from cold and opens the session. Homogeneous
    /// platforms use the exact DP (Algorithm 1, or Algorithm 2 under a
    /// period bound) and keep its boundary grid warm for later repairs;
    /// heterogeneous platforms use the class DP (`algo_het`), for which
    /// only the local-patch and full-solve tiers are available.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvalidBound`] for a non-positive/non-finite period
    /// bound, [`AlgoError::NoFeasibleMapping`] if the instance has no
    /// mapping within the bounds, or any solver error.
    pub fn new(
        chain: TaskChain,
        platform: Platform,
        period_bound: Option<f64>,
    ) -> Result<Self, AlgoError> {
        let oracle = IntervalOracle::new(&chain, &platform);
        let mut scratch = DpScratch::new();
        let (mapping, reliability) =
            cold_solve(&oracle, &mut scratch, period_bound, &chain, &platform)?;
        Ok(RepairSession {
            chain,
            platform,
            oracle,
            scratch,
            mapping,
            reliability,
            period_bound,
        })
    }

    /// The current task chain.
    pub fn chain(&self) -> &TaskChain {
        &self.chain
    }

    /// The current (post-churn) platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The current mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Reliability of the current mapping (exact Eq. 9 value).
    pub fn reliability(&self) -> f64 {
        self.reliability
    }

    /// The worst-case period bound the session solves under, if any.
    pub fn period_bound(&self) -> Option<f64> {
        self.period_bound
    }

    /// The warm interval oracle of the current instance.
    pub fn oracle(&self) -> &IntervalOracle {
        &self.oracle
    }

    /// Applies one delta and repairs the mapping through the ladder,
    /// reporting the tier that produced the result.
    ///
    /// On success the session's chain/platform/mapping advance to the
    /// post-delta state. On failure — most importantly
    /// [`AlgoError::NoFeasibleMapping`] when the delta leaves no feasible
    /// mapping (e.g. the last processor failed) — the session stays on its
    /// pre-delta state and remains usable.
    pub fn apply(&mut self, delta: &PlatformDelta) -> Result<RepairReport, AlgoError> {
        let started = Instant::now();
        let _span = rpo_obs::span!("repair.apply", tasks = self.chain.len());
        let applied = match self.oracle.apply_delta(&self.chain, &self.platform, delta) {
            Ok(applied) => applied,
            // Killing the last processor is a feasibility fact, not a
            // malformed input: report it as such.
            Err(ModelError::EmptyPlatform) => return Err(AlgoError::NoFeasibleMapping),
            Err(error) => return Err(AlgoError::Model(error)),
        };
        let previous_reliability = self.reliability;
        let repaired = run_ladder(
            &self.oracle,
            &mut self.scratch,
            &self.mapping,
            &self.platform,
            self.period_bound,
            &applied,
            delta,
        );
        match repaired {
            Ok((mapping, reliability, tier)) => {
                self.chain = applied.chain;
                self.platform = applied.platform;
                self.mapping = mapping;
                self.reliability = reliability;
                let elapsed_nanos = started.elapsed().as_nanos() as u64;
                rpo_obs::histogram!("repair.latency").record_nanos(elapsed_nanos);
                match tier {
                    RepairTier::LocalPatch => rpo_obs::counter!("repair.tier.local_patch").inc(),
                    RepairTier::WarmDp => rpo_obs::counter!("repair.tier.warm_dp").inc(),
                    RepairTier::FullSolve => rpo_obs::counter!("repair.tier.full_solve").inc(),
                }
                Ok(RepairReport {
                    delta: *delta,
                    tier,
                    reliability,
                    previous_reliability,
                    elapsed_nanos,
                })
            }
            Err(error) => {
                // The oracle already advanced past the delta; rebuild it for
                // the pre-delta instance so the session stays consistent.
                // The boundary grid may have been partially overwritten by a
                // failed warm attempt — drop it (later repairs cold-start).
                self.oracle = IntervalOracle::new(&self.chain, &self.platform);
                self.scratch.reset();
                Err(error)
            }
        }
    }
}

/// Walks the ladder for one applied delta, returning the repaired mapping,
/// its exact reliability, and the tier that produced it.
fn run_ladder(
    oracle: &IntervalOracle,
    scratch: &mut DpScratch,
    mapping: &Mapping,
    pre_platform: &Platform,
    period_bound: Option<f64>,
    applied: &AppliedDelta,
    delta: &PlatformDelta,
) -> Result<(Mapping, f64, RepairTier), AlgoError> {
    let homogeneous = oracle.is_homogeneous();
    match *delta {
        PlatformDelta::ProcessorFailed(_) => {
            if let Some((patched, reliability)) =
                local_patch(oracle, mapping, pre_platform, period_bound, applied, delta)
            {
                if homogeneous {
                    // Provably optimal (see the crate docs): take it as-is.
                    return Ok((patched, reliability, RepairTier::LocalPatch));
                }
                // Heterogeneous: certify against the greedy baseline; a
                // patch below greedy escalates to the full class solve.
                let greedy = greedy_het(oracle, &applied.chain, &applied.platform, period_bound);
                match greedy {
                    Ok(ref baseline) if baseline.reliability > reliability => {}
                    _ => return Ok((patched, reliability, RepairTier::LocalPatch)),
                }
            }
            if homogeneous {
                warm_dp(oracle, scratch, period_bound, applied)
            } else {
                full_solve(oracle, scratch, period_bound, applied)
            }
        }
        PlatformDelta::TaskWorkRevised { .. } => {
            if homogeneous && !applied.factored_changed {
                warm_dp(oracle, scratch, period_bound, applied)
            } else {
                full_solve(oracle, scratch, period_bound, applied)
            }
        }
        PlatformDelta::SpeedDegraded { .. } | PlatformDelta::RateRevised { .. } => {
            if !applied.classes_changed {
                // The revision changed no observable class parameter (e.g. a
                // factor-1 degradation): the current mapping is still exact.
                let evaluation = oracle.evaluate(mapping);
                if certified(&evaluation, period_bound) {
                    return Ok((
                        mapping.clone(),
                        evaluation.reliability,
                        RepairTier::LocalPatch,
                    ));
                }
            }
            full_solve(oracle, scratch, period_bound, applied)
        }
    }
}

/// Tier 1: remap processor ids across the failure and re-replicate only the
/// interval that lost a replica (with a free processor of the failed one's
/// class), then re-certify via `oracle.evaluate`. Returns `None` when no
/// free same-class processor exists or the patch misses the bounds.
fn local_patch(
    oracle: &IntervalOracle,
    mapping: &Mapping,
    pre_platform: &Platform,
    period_bound: Option<f64>,
    applied: &AppliedDelta,
    delta: &PlatformDelta,
) -> Option<(Mapping, f64)> {
    let failed = delta.failed_processor()?;
    let mut lost: Option<usize> = None;
    let mut used = vec![false; applied.platform.num_processors()];
    let mut mapped: Vec<MappedInterval> = Vec::with_capacity(mapping.num_intervals());
    for (j, interval) in mapping.intervals().iter().enumerate() {
        let processors: Vec<usize> = interval
            .processors
            .iter()
            .filter_map(|&u| delta.remap_processor(u))
            .collect();
        if processors.len() < interval.processors.len() {
            debug_assert!(lost.is_none(), "a processor replicates one interval");
            lost = Some(j);
        }
        for &u in &processors {
            used[u] = true;
        }
        mapped.push(MappedInterval::new(interval.interval, processors));
    }
    if let Some(j) = lost {
        // Replace the lost replica with a free processor of the same class
        // — same `(speed, failure rate)`, so the patched mapping's
        // reliability is bit-identical to the pre-delta optimum's.
        let speed = pre_platform.speed(failed);
        let rate = pre_platform.failure_rate(failed);
        let replacement = (0..applied.platform.num_processors()).find(|&u| {
            !used[u]
                && applied.platform.speed(u) == speed
                && applied.platform.failure_rate(u) == rate
        })?;
        mapped[j].processors.push(replacement);
    }
    let patched = Mapping::new(mapped, &applied.chain, &applied.platform).ok()?;
    let evaluation = oracle.evaluate(&patched);
    if !certified(&evaluation, period_bound) {
        return None;
    }
    Some((patched, evaluation.reliability))
}

/// Tier 2: warm-started DP reusing the surviving prefix of the grid
/// (`AppliedDelta::first_affected_task` rows). Reports [`RepairTier::FullSolve`]
/// when the warm preconditions did not hold and a cold sweep ran instead.
fn warm_dp(
    oracle: &IntervalOracle,
    scratch: &mut DpScratch,
    period_bound: Option<f64>,
    applied: &AppliedDelta,
) -> Result<(Mapping, f64, RepairTier), AlgoError> {
    let (solution, path) = repair_reliability_dp(
        oracle,
        &applied.chain,
        &applied.platform,
        period_bound,
        applied.first_affected_task,
        scratch,
    )
    .ok_or(AlgoError::NoFeasibleMapping)?;
    let tier = match path {
        WarmPath::ReusedGrid => RepairTier::WarmDp,
        WarmPath::Resolved => RepairTier::FullSolve,
    };
    Ok((solution.mapping, solution.reliability, tier))
}

/// Tier 3: cold re-solve on the post-delta instance.
fn full_solve(
    oracle: &IntervalOracle,
    scratch: &mut DpScratch,
    period_bound: Option<f64>,
    applied: &AppliedDelta,
) -> Result<(Mapping, f64, RepairTier), AlgoError> {
    let (mapping, reliability) = cold_solve(
        oracle,
        scratch,
        period_bound,
        &applied.chain,
        &applied.platform,
    )?;
    Ok((mapping, reliability, RepairTier::FullSolve))
}

/// A cold solve: the exact DP on a homogeneous platform (Algorithm 1, or
/// Algorithm 2 under a period bound), which leaves its boundary grid in
/// `scratch` for later warm repairs; the class DP (`algo_het`) otherwise.
fn cold_solve(
    oracle: &IntervalOracle,
    scratch: &mut DpScratch,
    period_bound: Option<f64>,
    chain: &TaskChain,
    platform: &Platform,
) -> Result<(Mapping, f64), AlgoError> {
    if oracle.is_homogeneous() {
        let solution = optimize_reliability(oracle, chain, platform, period_bound, scratch)?;
        Ok((solution.mapping, solution.reliability))
    } else {
        let solution = algo_het(oracle, chain, platform, period_bound)?;
        Ok((solution.mapping, solution.reliability))
    }
}

/// Whether an evaluation satisfies the session's period bound (Algorithm 2
/// admits an interval iff its worst-case period requirement fits, so the
/// mapping-level check is on the worst-case period).
fn certified(evaluation: &MappingEvaluation, period_bound: Option<f64>) -> bool {
    match period_bound {
        None => true,
        Some(bound) => evaluation.worst_case_period <= bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> TaskChain {
        TaskChain::from_pairs(
            &(0..n)
                .map(|i| (10.0 + i as f64, 1.0 + (i % 3) as f64))
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn hom_platform(p: usize) -> Platform {
        Platform::homogeneous(p, 1.0, 1e-3, 1.0, 1e-4, 3).unwrap()
    }

    fn fresh_optimum(chain: &TaskChain, platform: &Platform) -> f64 {
        let oracle = IntervalOracle::new(chain, platform);
        optimize_reliability(&oracle, chain, platform, None, &mut DpScratch::new())
            .unwrap()
            .reliability
    }

    #[test]
    fn failed_unused_processor_is_a_local_patch_with_identical_reliability() {
        // 2 tasks, K=1 → at most 2 processors ever used out of 6.
        let chain = chain(2);
        let platform = Platform::homogeneous(6, 1.0, 1e-3, 1.0, 1e-4, 1).unwrap();
        let mut session = RepairSession::new(chain, platform, None).unwrap();
        let before = session.reliability();
        let report = session.apply(&PlatformDelta::ProcessorFailed(5)).unwrap();
        assert_eq!(report.tier, RepairTier::LocalPatch);
        assert_eq!(report.reliability, before);
        assert_eq!(session.platform().num_processors(), 5);
    }

    #[test]
    fn failed_used_processor_repairs_to_the_exact_shrunken_optimum() {
        let chain = chain(6);
        let mut session = RepairSession::new(chain.clone(), hom_platform(5), None).unwrap();
        for failures in 1..=3usize {
            let report = session.apply(&PlatformDelta::ProcessorFailed(0)).unwrap();
            let fresh = fresh_optimum(&chain, &hom_platform(5 - failures));
            assert_eq!(
                report.reliability, fresh,
                "repair after {failures} failures must equal the cold optimum"
            );
            assert!(
                matches!(report.tier, RepairTier::LocalPatch | RepairTier::WarmDp),
                "homogeneous failures never need a cold solve (got {:?})",
                report.tier
            );
        }
    }

    #[test]
    fn failing_the_last_processor_reports_no_feasible_mapping_and_keeps_state() {
        let chain = chain(2);
        let mut session = RepairSession::new(chain, hom_platform(1), None).unwrap();
        let before = session.reliability();
        let error = session
            .apply(&PlatformDelta::ProcessorFailed(0))
            .unwrap_err();
        assert_eq!(error, AlgoError::NoFeasibleMapping);
        // Session survives and can still repair other deltas.
        assert_eq!(session.platform().num_processors(), 1);
        assert_eq!(session.reliability(), before);
        let report = session
            .apply(&PlatformDelta::TaskWorkRevised {
                task: 0,
                work: 11.0,
            })
            .unwrap();
        assert!(report.reliability > 0.0);
    }

    #[test]
    fn work_revision_warm_dp_matches_a_cold_solve_exactly() {
        let chain = chain(8);
        let platform = hom_platform(4);
        let mut session = RepairSession::new(chain.clone(), platform.clone(), None).unwrap();
        let report = session
            .apply(&PlatformDelta::TaskWorkRevised {
                task: 5,
                work: 40.0,
            })
            .unwrap();
        assert_eq!(report.tier, RepairTier::WarmDp);
        let fresh = fresh_optimum(session.chain(), &platform);
        assert_eq!(report.reliability, fresh);
    }

    #[test]
    fn degrading_a_processor_makes_the_platform_heterogeneous_and_resolves() {
        let chain = chain(5);
        let mut session = RepairSession::new(chain, hom_platform(4), None).unwrap();
        let report = session
            .apply(&PlatformDelta::SpeedDegraded {
                processor: 1,
                factor: 0.5,
            })
            .unwrap();
        assert_eq!(report.tier, RepairTier::FullSolve);
        assert!(!session.oracle().is_homogeneous());
        // And a follow-up failure on the heterogeneous platform still works.
        let follow_up = session.apply(&PlatformDelta::ProcessorFailed(1)).unwrap();
        assert!(follow_up.reliability > 0.0);
        assert!(session.oracle().is_homogeneous());
    }

    #[test]
    fn repairs_respect_a_period_bound_exactly() {
        let chain = chain(6);
        let platform = hom_platform(5);
        // A bound between the unconstrained optimum's period and the floor.
        let bound = 40.0;
        let mut session = RepairSession::new(chain.clone(), platform, Some(bound)).unwrap();
        let evaluation = session.oracle().evaluate(session.mapping());
        assert!(evaluation.worst_case_period <= bound);
        let report = session.apply(&PlatformDelta::ProcessorFailed(2)).unwrap();
        let evaluation = session.oracle().evaluate(session.mapping());
        assert!(evaluation.worst_case_period <= bound);
        assert!(report.reliability > 0.0);
    }
}
