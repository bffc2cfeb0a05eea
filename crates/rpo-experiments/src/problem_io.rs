//! JSON problem descriptions for the `solve` command-line tool.
//!
//! A problem file describes a chain, a platform and the real-time bounds;
//! the solver answer lists, for each requested method, the mapping found and
//! its evaluation. This is the "downstream user" entry point: no Rust code is
//! needed to use the library on a concrete system.

use rpo_algorithms::{exact, run_heuristic, HeuristicConfig, IntervalHeuristic};
use rpo_model::{IntervalOracle, Mapping, Platform, Processor, ProcessorId, TaskChain};
use serde::{Deserialize, Serialize};

/// A task of the input problem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Amount of work `w_i`.
    pub work: f64,
    /// Output data size `o_i` (defaults to 0).
    #[serde(default)]
    pub output_size: f64,
}

/// A processor of the input problem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessorSpec {
    /// Speed `s_u`.
    pub speed: f64,
    /// Failure rate `λ_u` per time unit.
    pub failure_rate: f64,
}

/// The platform of the input problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// The processors.
    pub processors: Vec<ProcessorSpec>,
    /// Link bandwidth `b` (defaults to 1).
    #[serde(default = "default_one")]
    pub bandwidth: f64,
    /// Link failure rate `λ_ℓ` (defaults to 0).
    #[serde(default)]
    pub link_failure_rate: f64,
    /// Replication bound `K` (defaults to 1).
    #[serde(default = "default_one_usize")]
    pub max_replication: usize,
}

fn default_one() -> f64 {
    1.0
}
fn default_one_usize() -> usize {
    1
}

/// A complete problem description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProblemSpec {
    /// The task chain, in pipeline order.
    pub tasks: Vec<TaskSpec>,
    /// The target platform.
    pub platform: PlatformSpec,
    /// Worst-case period bound (absent = unbounded).
    #[serde(default)]
    pub period_bound: Option<f64>,
    /// Worst-case latency bound (absent = unbounded).
    #[serde(default)]
    pub latency_bound: Option<f64>,
}

impl ProblemSpec {
    /// Parses a problem from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the JSON parsing error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid problem JSON: {e}"))
    }

    /// Builds the model objects from the specification.
    ///
    /// # Errors
    ///
    /// Returns the model validation error message.
    pub fn build(&self) -> Result<(TaskChain, Platform), String> {
        let chain = TaskChain::from_pairs(
            &self
                .tasks
                .iter()
                .map(|t| (t.work, t.output_size))
                .collect::<Vec<_>>(),
        )
        .map_err(|e| format!("invalid chain: {e}"))?;
        let platform = Platform::new(
            self.platform
                .processors
                .iter()
                .map(|p| Processor::new(p.speed, p.failure_rate))
                .collect(),
            self.platform.bandwidth,
            self.platform.link_failure_rate,
            self.platform.max_replication,
        )
        .map_err(|e| format!("invalid platform: {e}"))?;
        Ok((chain, platform))
    }
}

/// One solver answer within a [`SolveReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodReport {
    /// Method name (`"Heur-L"`, `"Heur-P"`, `"exact"`).
    pub method: String,
    /// Whether a feasible mapping was found.
    pub feasible: bool,
    /// The intervals of the mapping, as `(first_task, last_task, processors)`.
    pub intervals: Vec<(usize, usize, Vec<ProcessorId>)>,
    /// Reliability of the mapping (0 when infeasible).
    pub reliability: f64,
    /// Failure probability of the mapping (1 when infeasible).
    pub failure_probability: f64,
    /// Worst-case period of the mapping.
    pub worst_case_period: f64,
    /// Worst-case latency of the mapping.
    pub worst_case_latency: f64,
}

/// The full solver answer for one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveReport {
    /// Number of tasks of the problem.
    pub num_tasks: usize,
    /// Number of processors of the platform.
    pub num_processors: usize,
    /// Whether the platform is homogeneous (enables the exact solver).
    pub homogeneous_platform: bool,
    /// Per-method answers.
    pub methods: Vec<MethodReport>,
}

fn method_report(name: &str, oracle: &IntervalOracle, mapping: Option<&Mapping>) -> MethodReport {
    match mapping {
        Some(mapping) => {
            let eval = oracle.evaluate(mapping);
            MethodReport {
                method: name.to_string(),
                feasible: true,
                intervals: mapping
                    .intervals()
                    .iter()
                    .map(|mi| (mi.interval.first, mi.interval.last, mi.processors.clone()))
                    .collect(),
                reliability: eval.reliability,
                failure_probability: eval.failure_probability(),
                worst_case_period: eval.worst_case_period,
                worst_case_latency: eval.worst_case_latency,
            }
        }
        None => MethodReport {
            method: name.to_string(),
            feasible: false,
            intervals: Vec::new(),
            reliability: 0.0,
            failure_probability: 1.0,
            worst_case_period: f64::INFINITY,
            worst_case_latency: f64::INFINITY,
        },
    }
}

/// Solves a problem with both heuristics and, on homogeneous platforms small
/// enough for it, the exact solver.
pub fn solve(spec: &ProblemSpec) -> Result<SolveReport, String> {
    let (chain, platform) = spec.build()?;
    let period = spec.period_bound.unwrap_or(f64::INFINITY);
    let latency = spec.latency_bound.unwrap_or(f64::INFINITY);
    // One oracle serves every method and every report evaluation.
    let oracle = IntervalOracle::new(&chain, &platform);

    let mut methods = Vec::new();
    for (name, heuristic) in [
        ("Heur-L", IntervalHeuristic::MinLatency),
        ("Heur-P", IntervalHeuristic::MinPeriod),
    ] {
        let solution = run_heuristic(
            &oracle,
            &chain,
            &platform,
            &HeuristicConfig {
                interval_heuristic: heuristic,
                period_bound: period,
                latency_bound: latency,
            },
        )
        .ok();
        methods.push(method_report(
            name,
            &oracle,
            solution.as_ref().map(|s| &s.mapping),
        ));
    }

    let homogeneous = platform.is_homogeneous();
    if homogeneous && chain.len() <= exact::exhaustive::MAX_EXHAUSTIVE_TASKS {
        let solution = exact::optimal_homogeneous(&oracle, &chain, &platform, period, latency).ok();
        methods.push(method_report(
            "exact",
            &oracle,
            solution.as_ref().map(|s| &s.mapping),
        ));
    }

    Ok(SolveReport {
        num_tasks: chain.len(),
        num_processors: platform.num_processors(),
        homogeneous_platform: homogeneous,
        methods,
    })
}

/// Serializes a report as pretty JSON.
pub fn report_to_json(report: &SolveReport) -> String {
    serde_json::to_string_pretty(report).expect("report serialization cannot fail")
}

/// One Pareto point of a [`PortfolioReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortfolioPoint {
    /// Backend that produced the mapping.
    pub backend: String,
    /// Reliability of the mapping.
    pub reliability: f64,
    /// Failure probability of the mapping.
    pub failure_probability: f64,
    /// Worst-case period of the mapping.
    pub worst_case_period: f64,
    /// Worst-case latency of the mapping.
    pub worst_case_latency: f64,
    /// The intervals of the mapping, as `(first_task, last_task, processors)`.
    pub intervals: Vec<(usize, usize, Vec<ProcessorId>)>,
}

/// The answer of the solver-portfolio race for one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortfolioReport {
    /// Number of tasks of the problem.
    pub num_tasks: usize,
    /// Number of processors of the platform.
    pub num_processors: usize,
    /// Whether the platform is homogeneous.
    pub homogeneous_platform: bool,
    /// Whether any feasible mapping was found.
    pub feasible: bool,
    /// Backends that ran to completion.
    pub backends_run: Vec<String>,
    /// Backends skipped, with the reason.
    pub backends_skipped: Vec<(String, String)>,
    /// The tri-criteria Pareto front, most reliable point first.
    pub pareto_front: Vec<PortfolioPoint>,
}

/// Solves a problem by racing the whole solver portfolio in parallel and
/// aggregating every feasible candidate into a Pareto front.
///
/// # Errors
///
/// Returns the model validation error message for malformed specifications.
pub fn solve_portfolio(spec: &ProblemSpec) -> Result<PortfolioReport, String> {
    let (chain, platform) = spec.build()?;
    let period = spec.period_bound.unwrap_or(f64::INFINITY);
    let latency = spec.latency_bound.unwrap_or(f64::INFINITY);
    let instance = rpo_portfolio::ProblemInstance::new(chain, platform, period, latency)?;

    let engine = rpo_portfolio::PortfolioEngine::default();
    let outcome = engine.solve(&instance);

    let mut backends_run = Vec::new();
    let mut backends_skipped = Vec::new();
    for run in &outcome.runs {
        match &run.status {
            rpo_portfolio::RunStatus::Completed => backends_run.push(run.backend.to_string()),
            rpo_portfolio::RunStatus::Skipped(reason) => {
                backends_skipped.push((run.backend.to_string(), reason.to_string()));
            }
            other => backends_skipped.push((run.backend.to_string(), format!("{other:?}"))),
        }
    }

    let pareto_front = outcome
        .front
        .points()
        .into_iter()
        .map(|point| PortfolioPoint {
            backend: point.backend.to_string(),
            reliability: point.evaluation.reliability,
            failure_probability: 1.0 - point.evaluation.reliability,
            worst_case_period: point.evaluation.worst_case_period,
            worst_case_latency: point.evaluation.worst_case_latency,
            intervals: point
                .mapping
                .intervals()
                .iter()
                .map(|mi| (mi.interval.first, mi.interval.last, mi.processors.clone()))
                .collect(),
        })
        .collect();

    Ok(PortfolioReport {
        num_tasks: instance.chain.len(),
        num_processors: instance.platform.num_processors(),
        homogeneous_platform: instance.platform.is_homogeneous(),
        feasible: outcome.is_feasible(),
        backends_run,
        backends_skipped,
        pareto_front,
    })
}

/// Serializes a portfolio report as pretty JSON.
pub fn portfolio_report_to_json(report: &PortfolioReport) -> String {
    serde_json::to_string_pretty(report).expect("report serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_json() -> &'static str {
        r#"{
            "tasks": [
                {"work": 30, "output_size": 2},
                {"work": 10, "output_size": 8},
                {"work": 25, "output_size": 1},
                {"work": 40}
            ],
            "platform": {
                "processors": [
                    {"speed": 1, "failure_rate": 1e-4},
                    {"speed": 1, "failure_rate": 1e-4},
                    {"speed": 1, "failure_rate": 1e-4},
                    {"speed": 1, "failure_rate": 1e-4},
                    {"speed": 1, "failure_rate": 1e-4}
                ],
                "bandwidth": 1,
                "link_failure_rate": 1e-5,
                "max_replication": 2
            },
            "period_bound": 70,
            "latency_bound": 130
        }"#
    }

    #[test]
    fn parse_build_and_solve_round_trip() {
        let spec = ProblemSpec::from_json(example_json()).unwrap();
        assert_eq!(spec.tasks.len(), 4);
        assert_eq!(spec.tasks[3].output_size, 0.0); // defaulted
        let (chain, platform) = spec.build().unwrap();
        assert_eq!(chain.len(), 4);
        assert_eq!(platform.max_replication(), 2);

        let report = solve(&spec).unwrap();
        assert_eq!(report.num_tasks, 4);
        assert!(report.homogeneous_platform);
        assert_eq!(report.methods.len(), 3); // Heur-L, Heur-P, exact
        let exact = report.methods.iter().find(|m| m.method == "exact").unwrap();
        assert!(exact.feasible);
        assert!(exact.worst_case_period <= 70.0 + 1e-9);
        assert!(exact.worst_case_latency <= 130.0 + 1e-9);
        // No heuristic beats the exact reliability.
        for method in &report.methods {
            if method.feasible {
                assert!(method.reliability <= exact.reliability + 1e-12);
            }
        }
        // The JSON rendering contains the method names.
        let json = report_to_json(&report);
        assert!(json.contains("Heur-P") && json.contains("exact"));
        // And parses back to the same report.
        let parsed: SolveReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn missing_bounds_default_to_unbounded() {
        let json = r#"{
            "tasks": [{"work": 5}],
            "platform": {"processors": [{"speed": 1, "failure_rate": 0}]}
        }"#;
        let spec = ProblemSpec::from_json(json).unwrap();
        assert_eq!(spec.period_bound, None);
        let report = solve(&spec).unwrap();
        assert!(report.methods.iter().all(|m| m.feasible));
    }

    #[test]
    fn heterogeneous_platform_skips_the_exact_solver() {
        let json = r#"{
            "tasks": [{"work": 5, "output_size": 1}, {"work": 7}],
            "platform": {
                "processors": [
                    {"speed": 1, "failure_rate": 1e-5},
                    {"speed": 2, "failure_rate": 1e-5}
                ],
                "max_replication": 2
            }
        }"#;
        let report = solve(&ProblemSpec::from_json(json).unwrap()).unwrap();
        assert!(!report.homogeneous_platform);
        assert_eq!(report.methods.len(), 2);
    }

    #[test]
    fn heuristics_solve_an_unbounded_heterogeneous_problem() {
        let json = r#"{
            "tasks": [
                {"work": 30, "output_size": 2},
                {"work": 10, "output_size": 8},
                {"work": 25, "output_size": 1},
                {"work": 40}
            ],
            "platform": {
                "processors": [
                    {"speed": 4, "failure_rate": 1e-3},
                    {"speed": 2, "failure_rate": 1e-3},
                    {"speed": 1, "failure_rate": 1e-3},
                    {"speed": 3, "failure_rate": 1e-3}
                ],
                "bandwidth": 1,
                "link_failure_rate": 1e-4,
                "max_replication": 2
            }
        }"#;
        let spec = ProblemSpec::from_json(json).unwrap();
        let report = solve(&spec).unwrap();
        assert!(!report.homogeneous_platform);
        for method in &report.methods {
            assert!(method.feasible, "{} found no mapping", method.method);
        }
        assert!(solve_portfolio(&spec).unwrap().feasible);
    }

    #[test]
    fn invalid_inputs_produce_errors() {
        assert!(ProblemSpec::from_json("not json").is_err());
        let bad_chain = r#"{
            "tasks": [{"work": -5}],
            "platform": {"processors": [{"speed": 1, "failure_rate": 0}]}
        }"#;
        let spec = ProblemSpec::from_json(bad_chain).unwrap();
        assert!(spec.build().unwrap_err().contains("invalid chain"));
        let bad_platform = r#"{
            "tasks": [{"work": 5}],
            "platform": {"processors": []}
        }"#;
        let spec = ProblemSpec::from_json(bad_platform).unwrap();
        assert!(spec.build().unwrap_err().contains("invalid platform"));
    }

    #[test]
    fn portfolio_solve_reports_the_front_and_the_backend_census() {
        let spec = ProblemSpec::from_json(example_json()).unwrap();
        let report = solve_portfolio(&spec).unwrap();
        assert!(report.feasible);
        assert!(report.homogeneous_platform);
        assert!(
            report.backends_run.len() >= 5,
            "run: {:?}",
            report.backends_run
        );
        assert!(report
            .backends_skipped
            .iter()
            .any(|(backend, _)| backend == "Het-Sweep"));
        assert!(!report.pareto_front.is_empty());
        // Points are sorted by decreasing reliability and respect the bounds.
        for pair in report.pareto_front.windows(2) {
            assert!(pair[0].reliability >= pair[1].reliability);
        }
        for point in &report.pareto_front {
            assert!(point.worst_case_period <= 70.0 + 1e-9);
            assert!(point.worst_case_latency <= 130.0 + 1e-9);
        }
        // The portfolio's best point matches the classic exact answer.
        let classic = solve(&spec).unwrap();
        let exact = classic
            .methods
            .iter()
            .find(|m| m.method == "exact")
            .unwrap();
        assert!((report.pareto_front[0].reliability - exact.reliability).abs() < 1e-12);
        // The JSON rendering round-trips.
        let json = portfolio_report_to_json(&report);
        let parsed: PortfolioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn infeasible_bounds_reported_per_method() {
        let json = r#"{
            "tasks": [{"work": 100, "output_size": 1}, {"work": 100}],
            "platform": {
                "processors": [
                    {"speed": 1, "failure_rate": 1e-5},
                    {"speed": 1, "failure_rate": 1e-5}
                ],
                "max_replication": 2
            },
            "period_bound": 10
        }"#;
        let report = solve(&ProblemSpec::from_json(json).unwrap()).unwrap();
        assert!(report.methods.iter().all(|m| !m.feasible));
        assert!(report.methods.iter().all(|m| m.failure_probability == 1.0));
    }
}
