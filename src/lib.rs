//! # pipelined-rt
//!
//! A from-scratch Rust reproduction of *Reliability and performance
//! optimization of pipelined real-time systems* (Benoit, Dufossé, Girault,
//! Robert — ICPP'10, extended in JPDC'13).
//!
//! A pipelined real-time system is a linear chain of tasks executed
//! repeatedly on a distributed platform. The chain is split into *intervals*
//! of consecutive tasks; each interval is *replicated* on up to `K`
//! processors to survive transient failures of processors and communication
//! links. Three antagonistic criteria are optimized: the **reliability** of a
//! mapping, its **period** (inverse throughput), and its input-output
//! **latency**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`obs`] | lock-light metrics registry, structured spans, latency histograms |
//! | [`model`] | chains, platforms, interval mappings, the five-criteria evaluation (Eqs. 1–9) |
//! | [`rbd`] | reliability block diagrams: exact evaluation, minimal cut sets, routing operations |
//! | [`lp`] | a small simplex + branch-and-bound ILP solver (the CPLEX substitute) |
//! | [`algorithms`] | Algorithms 1–4, Algo-Alloc, the Section 7 heuristics, exact solvers |
//! | [`sim`] | discrete-event Monte-Carlo failure-injection simulator |
//! | [`workload`] | seeded random instance generators matching the paper's setup |
//! | [`repair`] | self-healing pipeline: platform deltas, graded mapping repair, fault-injected simulation, churn replay |
//! | [`portfolio`] | parallel solver-portfolio engine: backend racing, Pareto aggregation, instance cache, batch driver |
//! | [`serve`] | long-lived solver service: JSON-lines facades, bounded ingress, deadline shedding, request coalescing |
//! | [`experiments`] | the harness regenerating Figures 6–15 |
//!
//! ## Quick start
//!
//! ```
//! use pipelined_rt::model::{IntervalOracle, MappingEvaluation, Platform, TaskChain};
//! use pipelined_rt::algorithms::{run_heuristic, HeuristicConfig, IntervalHeuristic};
//!
//! // A five-task chain: (work, output data size) pairs.
//! let chain = TaskChain::from_pairs(&[
//!     (40.0, 4.0),
//!     (25.0, 2.0),
//!     (60.0, 8.0),
//!     (30.0, 3.0),
//!     (20.0, 0.0),
//! ]).unwrap();
//!
//! // Six identical processors, K = 3 replicas allowed per interval.
//! let platform = Platform::homogeneous(6, 1.0, 1e-6, 1.0, 1e-5, 3).unwrap();
//!
//! // Every solver reads its interval metrics from one shared oracle.
//! let oracle = IntervalOracle::new(&chain, &platform);
//!
//! // Find the most reliable mapping with period <= 70 and latency <= 200.
//! let solution = run_heuristic(
//!     &oracle,
//!     &chain,
//!     &platform,
//!     &HeuristicConfig {
//!         interval_heuristic: IntervalHeuristic::MinPeriod,
//!         period_bound: 70.0,
//!         latency_bound: 200.0,
//!     },
//! ).unwrap();
//!
//! let eval = MappingEvaluation::evaluate(&chain, &platform, &solution.mapping);
//! assert!(eval.worst_case_period <= 70.0);
//! assert!(eval.worst_case_latency <= 200.0);
//! assert!(eval.reliability > 0.999);
//! ```
//!
//! ## Exact solving on homogeneous platforms
//!
//! ```
//! use pipelined_rt::model::{IntervalOracle, Platform, TaskChain};
//! use pipelined_rt::algorithms::{exact, optimize_reliability, DpScratch};
//!
//! let chain = TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0)]).unwrap();
//! let platform = Platform::homogeneous(4, 1.0, 1e-4, 1.0, 1e-5, 2).unwrap();
//! let oracle = IntervalOracle::new(&chain, &platform);
//!
//! // Algorithm 1 (dynamic programming; `Some(bound)` would run Algorithm 2)
//! // and the exhaustive solver agree.
//! let dp = optimize_reliability(&oracle, &chain, &platform, None, &mut DpScratch::new()).unwrap();
//! let exact = exact::optimal_homogeneous(&oracle, &chain, &platform, f64::INFINITY, f64::INFINITY)
//!     .unwrap();
//! assert!((dp.reliability - exact.reliability).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Observability: metrics registry, spans, latency histograms (re-export of `rpo-obs`).
pub mod obs {
    pub use rpo_obs::*;
}

/// Application, platform, failure and replication models (re-export of `rpo-model`).
pub mod model {
    pub use rpo_model::*;
}

/// Reliability block diagrams (re-export of `rpo-rbd`).
pub mod rbd {
    pub use rpo_rbd::*;
}

/// LP / 0-1 ILP solver (re-export of `rpo-lp`).
pub mod lp {
    pub use rpo_lp::*;
}

/// Optimal algorithms and heuristics (re-export of `rpo-algorithms`).
pub mod algorithms {
    pub use rpo_algorithms::*;
}

/// Discrete-event Monte-Carlo simulator (re-export of `rpo-sim`).
pub mod sim {
    pub use rpo_sim::*;
}

/// Workload and platform generators (re-export of `rpo-workload`).
pub mod workload {
    pub use rpo_workload::*;
}

/// Self-healing pipeline: live mapping repair under platform churn (re-export of `rpo-repair`).
pub mod repair {
    pub use rpo_repair::*;
}

/// Parallel solver-portfolio engine (re-export of `rpo-portfolio`).
pub mod portfolio {
    pub use rpo_portfolio::*;
}

/// Long-lived solver service with admission control (re-export of `rpo-serve`).
pub mod serve {
    pub use rpo_serve::*;
}

/// Experiment harness for Figures 6–15 (re-export of `rpo-experiments`).
pub mod experiments {
    pub use rpo_experiments::*;
}
