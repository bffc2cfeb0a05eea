//! Parallel solver-portfolio engine for the tri-criteria interval-mapping
//! problem.
//!
//! The paper supplies *many* solvers — the polynomial Algorithms 1–2 and the
//! period minimizer, the Section 7 Heur-L/Heur-P + allocation heuristics,
//! the Section 5.4 ILP and the exhaustive enumeration — each with its own
//! applicability envelope (homogeneous only, small instances only, bound
//! shapes). This crate races them as a **portfolio**, in the spirit of
//! parallel solver frameworks such as Bobpp: every applicable backend runs
//! on the instance, and their candidates are merged into a tri-criteria
//! **Pareto front** (reliability ↑, worst-case period ↓, worst-case
//! latency ↓).
//!
//! The moving parts:
//!
//! * [`SolverBackend`] ([`backend`]) — one uniform
//!   `solve(&ProblemInstance, &IntervalOracle, &Budget, &mut SolveContext)
//!   -> Vec<CandidateMapping>` interface with per-backend applicability
//!   checks;
//! * [`backends`] — the ten adapters over `rpo-algorithms`;
//! * [`ParetoFront`] ([`pareto`]) — dominance filtering with deterministic
//!   tie-breaking, so results are thread-schedule independent — plus the
//!   [`StreamingFront`] candidates flow into as each backend finishes,
//!   re-certified through the instance's shared oracle;
//! * [`PortfolioEngine`] ([`engine`]) — the parallel race itself: worker
//!   threads pull every applicable backend from a shared queue under a
//!   wall-clock budget;
//! * [`InstanceCache`] ([`cache`]) — an LRU keyed by the canonical hash of
//!   `(chain, platform, bounds)`, so repeated solves are O(1) — and the
//!   chain-keyed [`OracleCache`] that lets near-duplicate instances (same
//!   chain/platform, different bounds) share one [`rpo_model::IntervalOracle`];
//! * [`BatchDriver`] ([`batch`]) — streams `rpo-workload` instance batches
//!   through the engine, one instance per worker thread at a time, and
//!   reports throughput and per-backend win rates;
//!   with [`BatchConfig::bucketed`] it shape-buckets homogeneous instances
//!   through the batched SoA mega-kernel
//!   ([`rpo_algorithms::solve_batch`]), one instance per SIMD lane, and
//!   routes everything else down the per-instance remainder path;
//! * [`BatchDriver::run_churn`] ([`churn`]) — the self-healing mode: one
//!   live [`rpo_repair::RepairSession`] per instance, replaying a seeded
//!   platform-churn trace through the graded repair ladder and tallying
//!   which tier absorbed each event.
//!
//! ```
//! use rpo_model::{Platform, TaskChain};
//! use rpo_portfolio::{PortfolioEngine, ProblemInstance};
//!
//! let chain = TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0)]).unwrap();
//! let platform = Platform::homogeneous(4, 1.0, 1e-4, 1.0, 1e-5, 2).unwrap();
//! let instance = ProblemInstance::new(chain, platform, 70.0, 130.0).unwrap();
//!
//! let engine = PortfolioEngine::default();
//! let outcome = engine.solve(&instance);
//! assert!(outcome.is_feasible());
//! assert!(outcome.front.is_mutually_non_dominated());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod backends;
pub mod batch;
pub mod cache;
pub mod churn;
pub mod engine;
pub mod pareto;

pub use backend::{
    Applicability, Budget, CandidateMapping, ProblemInstance, SolveContext, SolverBackend,
};
pub use backends::default_backends;
pub use batch::{BackendStats, BatchConfig, BatchDriver, BatchReport, BoundsPolicy};
pub use cache::{CacheStats, InstanceCache, OracleCache};
pub use churn::{ChurnConfig, ChurnReport};
pub use engine::{BackendRun, PortfolioEngine, PortfolioOutcome, RunStatus};
pub use pareto::{ParetoFront, StreamingFront};
