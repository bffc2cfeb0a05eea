//! Adapters exposing every `rpo-algorithms` solver as a [`SolverBackend`].
//!
//! | backend | wraps | applicability |
//! |---|---|---|
//! | `Algo-1` | [`rpo_algorithms::optimize_reliability`] with no period bound | homogeneous |
//! | `Algo-2` | [`rpo_algorithms::optimize_reliability`] under the period bound | homogeneous, finite period bound |
//! | `Period-Opt` | [`rpo_algorithms::minimize_period`] | homogeneous |
//! | `Heur-L` | Heur-L partitions + Algo-Alloc / Section 7.2 allocation | always |
//! | `Heur-P` | Heur-P partitions + Algo-Alloc / Section 7.2 allocation | always |
//! | `Het-Dp` | [`rpo_algorithms::algo_het`](fn@rpo_algorithms::algo_het) (exact class-level DP) | heterogeneous, few classes |
//! | `Het-Dp-Lat` | [`rpo_algorithms::algo_het_lat`](fn@rpo_algorithms::algo_het_lat) (latency-aware label DP + Lagrangian fallback) | heterogeneous, few classes, finite latency bound |
//! | `Het-Sweep` | Section 7.2 allocation swept over tightened period targets | heterogeneous |
//! | `ILP` | [`rpo_algorithms::exact::optimal_by_ilp`] | homogeneous, small instances |
//! | `Exhaustive` | [`rpo_algorithms::exact::optimal_homogeneous`] | homogeneous, bounded size |
//!
//! All adapters read their interval metrics from the one
//! [`IntervalOracle`] the engine builds per instance, so racing ten
//! backends costs a single metrics precomputation. The DP-based adapters
//! additionally run on the engine's pooled
//! [`DpScratch`](rpo_algorithms::DpScratch) arenas
//! (via [`SolveContext`]), and the sweep adapters consult the live
//! streaming front to abandon already-dominated profiles mid-solve.

use crate::backend::{
    Applicability, Budget, CandidateMapping, ProblemInstance, SolveContext, SolverBackend,
};
use rpo_algorithms::alloc_het::AllocationConstraints;
use rpo_algorithms::{
    algo_alloc, algo_alloc_heterogeneous, algo_het, algo_het_lat, exact, het_dp_applicable,
    het_dp_applicable_platform, heur_l_partition, heur_p_partition, minimize_period,
    optimize_reliability,
};
use rpo_model::{IntervalOracle, IntervalPartition};

const SKIP_HETEROGENEOUS: &str = "requires a homogeneous platform";
const SKIP_HOMOGENEOUS: &str = "requires a heterogeneous platform";
const SKIP_TOO_LARGE: &str = "instance exceeds the exact-solver size cap";
const SKIP_NO_PERIOD_BOUND: &str = "needs a finite period bound";
const SKIP_NO_LATENCY_BOUND: &str = "needs a finite latency bound";
const SKIP_TOO_MANY_CLASSES: &str = "class count exceeds the heterogeneous DP cap";

/// The full default portfolio: all ten backends.
pub fn default_backends() -> Vec<Box<dyn SolverBackend>> {
    vec![
        Box::new(Algo1Backend),
        Box::new(Algo2Backend),
        Box::new(PeriodOptBackend),
        Box::new(HeuristicBackend::heur_l()),
        Box::new(HeuristicBackend::heur_p()),
        Box::new(HetDpBackend),
        Box::new(HetDpLatBackend),
        Box::new(HetSweepBackend),
        Box::new(IlpBackend),
        Box::new(ExhaustiveBackend),
    ]
}

/// Algorithm 1: unconstrained reliability optimization (homogeneous DP).
pub struct Algo1Backend;

impl SolverBackend for Algo1Backend {
    fn name(&self) -> &'static str {
        "Algo-1"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Applicable
        } else {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        optimize_reliability(
            oracle,
            &instance.chain,
            &instance.platform,
            None,
            ctx.scratch,
        )
        .map(|solution| {
            vec![CandidateMapping::evaluate_with_oracle(
                self.name(),
                oracle,
                solution.mapping,
            )]
        })
        .unwrap_or_default()
    }
}

/// Algorithm 2: reliability optimization under the period bound.
pub struct Algo2Backend;

impl SolverBackend for Algo2Backend {
    fn name(&self) -> &'static str {
        "Algo-2"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if !instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        } else if !instance.period_bound.is_finite() {
            Applicability::Skip(SKIP_NO_PERIOD_BOUND)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        optimize_reliability(
            oracle,
            &instance.chain,
            &instance.platform,
            Some(instance.period_bound),
            ctx.scratch,
        )
        .map(|solution| {
            vec![CandidateMapping::evaluate_with_oracle(
                self.name(),
                oracle,
                solution.mapping,
            )]
        })
        .unwrap_or_default()
    }
}

/// The Section 5.2 converse problem: the minimal-period mapping (with an
/// essentially unconstrained reliability bound), a natural Pareto extreme.
pub struct PeriodOptBackend;

impl SolverBackend for PeriodOptBackend {
    fn name(&self) -> &'static str {
        "Period-Opt"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Applicable
        } else {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        minimize_period(
            oracle,
            &instance.chain,
            &instance.platform,
            f64::MIN_POSITIVE,
            ctx.scratch,
        )
        .map(|solution| {
            vec![CandidateMapping::evaluate_with_oracle(
                self.name(),
                oracle,
                solution.mapping,
            )]
        })
        .unwrap_or_default()
    }
}

/// The Section 7 two-step heuristics, returning one candidate per interval
/// count instead of only the best-reliability one (richer Pareto fronts).
pub struct HeuristicBackend {
    name: &'static str,
    partition: fn(&IntervalOracle, usize) -> IntervalPartition,
}

impl HeuristicBackend {
    /// Heur-L (Algorithm 3): cut at the smallest communication costs.
    pub fn heur_l() -> Self {
        HeuristicBackend {
            name: "Heur-L",
            partition: heur_l_partition,
        }
    }

    /// Heur-P (Algorithm 4): balance the interval works.
    pub fn heur_p() -> Self {
        HeuristicBackend {
            name: "Heur-P",
            partition: heur_p_partition,
        }
    }
}

impl SolverBackend for HeuristicBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn applicability(&self, _instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        Applicability::Applicable
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        _ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        let chain = &instance.chain;
        let platform = &instance.platform;
        let homogeneous = oracle.is_homogeneous();
        let constraints = AllocationConstraints::none();

        let mut candidates = Vec::new();
        for num_intervals in 1..=chain.len().min(platform.num_processors()) {
            let partition = (self.partition)(oracle, num_intervals);
            let mapping = if homogeneous {
                algo_alloc(oracle, chain, platform, &partition)
            } else {
                algo_alloc_heterogeneous(
                    oracle,
                    chain,
                    platform,
                    &partition,
                    instance.period_bound,
                    &constraints,
                )
            };
            if let Ok(mapping) = mapping {
                candidates.push(CandidateMapping::evaluate_with_oracle(
                    self.name, oracle, mapping,
                ));
            }
        }
        candidates
    }
}

/// The exact class-level heterogeneous DP (`algo_het`): optimal reliability
/// under the instance's period bound whenever the platform has few distinct
/// processor classes. The first *exact* heterogeneous optimizer of the
/// portfolio — on class-structured platforms its candidate certifiably
/// dominates every greedy candidate's reliability.
pub struct HetDpBackend;

impl SolverBackend for HetDpBackend {
    fn name(&self) -> &'static str {
        "Het-Dp"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HOMOGENEOUS)
        } else if !het_dp_applicable_platform(&instance.platform) {
            Applicability::Skip(SKIP_TOO_MANY_CLASSES)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        _ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        debug_assert!(het_dp_applicable(oracle));
        let period_bound = instance
            .period_bound
            .is_finite()
            .then_some(instance.period_bound);
        algo_het(oracle, &instance.chain, &instance.platform, period_bound)
            .map(|solution| {
                vec![CandidateMapping::evaluate_with_oracle(
                    self.name(),
                    oracle,
                    solution.mapping,
                )]
            })
            .unwrap_or_default()
    }
}

/// The latency-aware exact heterogeneous solver (`algo_het_lat`): optimal
/// reliability under the instance's period **and latency** bounds whenever
/// the platform has few distinct processor classes — the paper's full
/// tri-criteria problem, the one case the period-only `Het-Dp` cannot
/// certify. Runs the `(boundary, budgets, latency-so-far)` label DP with a
/// Lagrangian penalty sweep as overflow fallback; its candidate is probed
/// against the live streaming front and dropped when already strictly
/// dominated (sound: dominance only tightens as the front grows).
pub struct HetDpLatBackend;

impl SolverBackend for HetDpLatBackend {
    fn name(&self) -> &'static str {
        "Het-Dp-Lat"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HOMOGENEOUS)
        } else if !instance.latency_bound.is_finite() {
            Applicability::Skip(SKIP_NO_LATENCY_BOUND)
        } else if !het_dp_applicable_platform(&instance.platform) {
            Applicability::Skip(SKIP_TOO_MANY_CLASSES)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        debug_assert!(het_dp_applicable(oracle));
        let period_bound = instance
            .period_bound
            .is_finite()
            .then_some(instance.period_bound);
        algo_het_lat(
            oracle,
            &instance.chain,
            &instance.platform,
            period_bound,
            instance.latency_bound,
            ctx.scratch,
        )
        .map(|solution| {
            // Surface which strategy produced the mapping (label DP,
            // Lagrangian fallback, or greedy) in the trace — the
            // once-silent fallback this backend is probed for.
            let method = solution.method;
            let _span = rpo_obs::recorder().span_fields("het_lat.result", || {
                vec![("method".to_string(), format!("{method:?}").into())]
            });
            // Feed the *whole* merged latency–reliability front into the
            // streaming front, not just the max-reliability optimum: the
            // label DP discovers every non-dominated trade-off anyway, and
            // the faster-but-less-reliable points enrich the portfolio's
            // Pareto front for free. Points the live front already strictly
            // dominates are dropped (sound: dominance only tightens).
            let candidates: Vec<CandidateMapping> = solution
                .front
                .into_iter()
                .map(|point| {
                    CandidateMapping::evaluate_with_oracle(self.name(), oracle, point.mapping)
                })
                .filter(|candidate| {
                    let dominated = ctx.is_dominated(candidate);
                    if dominated {
                        rpo_obs::counter!("backend.dominated_aborts").inc();
                    }
                    !dominated
                })
                .collect();
            candidates
        })
        .unwrap_or_default()
    }
}

/// Heterogeneous-only strategy: sweeps the Section 7.2 allocator over a
/// geometric ladder of *tightened* period targets. Tighter targets force the
/// allocator towards faster processors, trading reliability for period and
/// populating the Pareto front between the heuristics' extremes.
///
/// Each profile's candidate is probed against the live streaming front
/// ([`SolveContext::is_dominated`]): profiles that are already strictly
/// dominated mid-solve are abandoned instead of carried to the end — sound
/// because dominance only tightens as the front grows.
pub struct HetSweepBackend;

/// Number of period targets swept by [`HetSweepBackend`].
const SWEEP_STEPS: usize = 4;

impl SolverBackend for HetSweepBackend {
    fn name(&self) -> &'static str {
        "Het-Sweep"
    }

    fn applicability(&self, instance: &ProblemInstance, _budget: &Budget) -> Applicability {
        if instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HOMOGENEOUS)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        let chain = &instance.chain;
        let platform = &instance.platform;
        let constraints = AllocationConstraints::none();

        // Sweep from the tightest conceivable period (largest task on the
        // fastest processor) up to the instance bound (or its finite
        // surrogate).
        let lower = chain.max_task_work() / platform.max_speed();
        let upper = instance.finite_period_bound();
        if lower <= 0.0 || upper < lower {
            return Vec::new();
        }
        // A degenerate sweep (bound exactly at the critical-path floor)
        // still tries that single target.
        let steps = if upper > lower { SWEEP_STEPS } else { 0 };
        let ratio = if steps > 0 {
            (upper / lower).powf(1.0 / steps as f64)
        } else {
            1.0
        };

        let mut candidates = Vec::new();
        for step in 0..=steps {
            let target = lower * ratio.powi(step as i32);
            for num_intervals in 1..=chain.len().min(platform.num_processors()) {
                for partition_fn in [heur_l_partition, heur_p_partition] {
                    let partition = partition_fn(oracle, num_intervals);
                    if let Ok(mapping) = algo_alloc_heterogeneous(
                        oracle,
                        chain,
                        platform,
                        &partition,
                        target,
                        &constraints,
                    ) {
                        let candidate =
                            CandidateMapping::evaluate_with_oracle(self.name(), oracle, mapping);
                        // Abandon profiles the live front already strictly
                        // dominates: they can never enter the final front.
                        if !ctx.is_dominated(&candidate) {
                            candidates.push(candidate);
                        } else {
                            rpo_obs::counter!("backend.dominated_aborts").inc();
                        }
                    }
                }
            }
        }
        candidates
    }
}

/// The Section 5.4 integer linear program, solved by `rpo-lp`.
pub struct IlpBackend;

impl SolverBackend for IlpBackend {
    fn name(&self) -> &'static str {
        "ILP"
    }

    fn applicability(&self, instance: &ProblemInstance, budget: &Budget) -> Applicability {
        if !instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        } else if instance.chain.len() > budget.max_ilp_tasks {
            Applicability::Skip(SKIP_TOO_LARGE)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        _ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        exact::optimal_by_ilp(
            oracle,
            &instance.chain,
            &instance.platform,
            instance.period_bound,
            instance.latency_bound,
        )
        .map(|solution| {
            vec![CandidateMapping::evaluate_with_oracle(
                self.name(),
                oracle,
                solution.mapping,
            )]
        })
        .unwrap_or_default()
    }
}

/// The certified-optimal exhaustive partition enumeration + Algo-Alloc.
pub struct ExhaustiveBackend;

impl SolverBackend for ExhaustiveBackend {
    fn name(&self) -> &'static str {
        "Exhaustive"
    }

    fn applicability(&self, instance: &ProblemInstance, budget: &Budget) -> Applicability {
        let cap = budget
            .max_exhaustive_tasks
            .min(exact::exhaustive::MAX_EXHAUSTIVE_TASKS);
        if !instance.platform.is_homogeneous() {
            Applicability::Skip(SKIP_HETEROGENEOUS)
        } else if instance.chain.len() > cap {
            Applicability::Skip(SKIP_TOO_LARGE)
        } else {
            Applicability::Applicable
        }
    }

    fn solve(
        &self,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        _budget: &Budget,
        _ctx: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        exact::optimal_homogeneous(
            oracle,
            &instance.chain,
            &instance.platform,
            instance.period_bound,
            instance.latency_bound,
        )
        .map(|solution| {
            vec![CandidateMapping::evaluate_with_oracle(
                self.name(),
                oracle,
                solution.mapping,
            )]
        })
        .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_algorithms::DpScratch;
    use rpo_model::{Platform, PlatformBuilder, TaskChain};

    /// Runs a backend with a fresh scratch and no streaming front, the way
    /// unit tests exercise a single adapter.
    fn solve_alone(
        backend: &dyn SolverBackend,
        instance: &ProblemInstance,
        oracle: &IntervalOracle,
        budget: &Budget,
    ) -> Vec<CandidateMapping> {
        let mut scratch = DpScratch::new();
        let mut ctx = SolveContext {
            scratch: &mut scratch,
            front: None,
        };
        backend.solve(instance, oracle, budget, &mut ctx)
    }

    fn hom_instance() -> ProblemInstance {
        let chain =
            TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap();
        let platform = Platform::homogeneous(5, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        ProblemInstance::new(chain, platform, 70.0, 130.0).unwrap()
    }

    fn het_instance() -> ProblemInstance {
        let chain =
            TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap();
        let platform = PlatformBuilder::new()
            .processor(4.0, 1e-3)
            .processor(2.0, 1e-3)
            .processor(1.0, 1e-3)
            .processor(3.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(2)
            .build()
            .unwrap();
        ProblemInstance::new(chain, platform, 50.0, 150.0).unwrap()
    }

    #[test]
    fn applicability_separates_platform_classes() {
        let budget = Budget::default();
        let hom = hom_instance();
        let het = het_instance();
        for backend in default_backends() {
            match backend.name() {
                "Heur-L" | "Heur-P" => {
                    assert!(backend.applicability(&hom, &budget).is_applicable());
                    assert!(backend.applicability(&het, &budget).is_applicable());
                }
                "Het-Sweep" | "Het-Dp" | "Het-Dp-Lat" => {
                    assert!(!backend.applicability(&hom, &budget).is_applicable());
                    assert!(backend.applicability(&het, &budget).is_applicable());
                }
                _ => {
                    assert!(backend.applicability(&hom, &budget).is_applicable());
                    assert!(!backend.applicability(&het, &budget).is_applicable());
                }
            }
        }
    }

    #[test]
    fn size_caps_gate_the_exact_solvers() {
        let chain = TaskChain::from_pairs(&vec![(10.0, 1.0); 16]).unwrap();
        let platform = Platform::homogeneous(4, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap();
        let instance = ProblemInstance::unbounded(chain, platform);
        let budget = Budget::default();
        assert!(!IlpBackend.applicability(&instance, &budget).is_applicable());
        assert!(!ExhaustiveBackend
            .applicability(&instance, &budget)
            .is_applicable());
        assert!(Algo1Backend
            .applicability(&instance, &budget)
            .is_applicable());
    }

    #[test]
    fn heuristic_backends_return_multiple_candidates() {
        let instance = hom_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let candidates = solve_alone(&HeuristicBackend::heur_p(), &instance, &oracle, &budget);
        assert!(
            candidates.len() > 1,
            "expected one candidate per interval count"
        );
        for candidate in &candidates {
            assert_eq!(candidate.backend, "Heur-P");
        }
    }

    #[test]
    fn exact_backends_agree_on_the_reliability_optimum() {
        let instance = hom_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let exhaustive = solve_alone(&ExhaustiveBackend, &instance, &oracle, &budget);
        let ilp = solve_alone(&IlpBackend, &instance, &oracle, &budget);
        assert_eq!(exhaustive.len(), 1);
        assert_eq!(ilp.len(), 1);
        assert!(
            (exhaustive[0].evaluation.reliability - ilp[0].evaluation.reliability).abs() < 1e-9
        );
    }

    #[test]
    fn het_sweep_produces_period_diverse_candidates() {
        let instance = het_instance();
        let oracle = instance.build_oracle();
        let candidates = solve_alone(&HetSweepBackend, &instance, &oracle, &Budget::default());
        assert!(!candidates.is_empty());
        let min = candidates
            .iter()
            .map(|c| c.evaluation.worst_case_period)
            .fold(f64::INFINITY, f64::min);
        let max = candidates
            .iter()
            .map(|c| c.evaluation.worst_case_period)
            .fold(0.0f64, f64::max);
        assert!(max > min, "sweep should explore different period regimes");
    }

    #[test]
    fn het_dp_dominates_every_period_feasible_sweep_candidate() {
        let instance = het_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let dp = solve_alone(&HetDpBackend, &instance, &oracle, &budget);
        assert_eq!(dp.len(), 1, "the class DP returns one exact candidate");
        assert!(dp[0].evaluation.worst_case_period <= instance.period_bound);
        for backend in [
            Box::new(HetSweepBackend) as Box<dyn SolverBackend>,
            Box::new(HeuristicBackend::heur_l()),
            Box::new(HeuristicBackend::heur_p()),
        ] {
            for candidate in solve_alone(backend.as_ref(), &instance, &oracle, &budget) {
                if candidate.evaluation.worst_case_period <= instance.period_bound {
                    assert!(
                        dp[0].evaluation.reliability >= candidate.evaluation.reliability,
                        "{} produced a period-feasible candidate more reliable than the DP",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn het_dp_lat_needs_a_finite_latency_bound() {
        let budget = Budget::default();
        let bounded = het_instance();
        assert!(HetDpLatBackend
            .applicability(&bounded, &budget)
            .is_applicable());
        let mut unbounded = bounded.clone();
        unbounded.latency_bound = f64::INFINITY;
        assert_eq!(
            HetDpLatBackend.applicability(&unbounded, &budget),
            Applicability::Skip(SKIP_NO_LATENCY_BOUND)
        );
    }

    #[test]
    fn het_dp_lat_dominates_every_fully_feasible_candidate() {
        let instance = het_instance();
        let oracle = instance.build_oracle();
        let budget = Budget::default();
        let dp = solve_alone(&HetDpLatBackend, &instance, &oracle, &budget);
        assert_eq!(dp.len(), 1, "the latency DP returns one exact candidate");
        assert!(dp[0].evaluation.worst_case_period <= instance.period_bound);
        assert!(dp[0].evaluation.worst_case_latency <= instance.latency_bound);
        for backend in [
            Box::new(HetSweepBackend) as Box<dyn SolverBackend>,
            Box::new(HeuristicBackend::heur_l()),
            Box::new(HeuristicBackend::heur_p()),
            Box::new(HetDpBackend),
        ] {
            for candidate in solve_alone(backend.as_ref(), &instance, &oracle, &budget) {
                if instance.admits(&candidate.evaluation) {
                    assert!(
                        dp[0].evaluation.reliability >= candidate.evaluation.reliability,
                        "{} produced a fully-feasible candidate more reliable than the \
                         latency DP",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_backed_candidates_match_direct_evaluation() {
        let instance = hom_instance();
        let oracle = instance.build_oracle();
        for candidate in solve_alone(
            &HeuristicBackend::heur_l(),
            &instance,
            &oracle,
            &Budget::default(),
        ) {
            let direct = rpo_model::MappingEvaluation::evaluate(
                &instance.chain,
                &instance.platform,
                &candidate.mapping,
            );
            assert_eq!(candidate.evaluation, direct);
        }
    }
}
