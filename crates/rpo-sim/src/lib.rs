//! Discrete-event Monte-Carlo simulator of replicated pipelined execution
//! with transient processor and link failures.
//!
//! The paper evaluates mappings analytically (Eqs. 3–9). This crate provides
//! the corresponding *executable* model, used to validate those closed forms
//! and to experiment beyond them:
//!
//! * [`failure`] — Poisson transient-failure sampling (per-operation failure
//!   probability `1 − e^{−λ d}` and exponential time-to-failure draws);
//! * [`engine`] — a small binary-heap discrete-event engine;
//! * [`dataset`] — per-data-set failure injection through the replicated
//!   interval pipeline (reliability and latency semantics of Eqs. 3, 5, 9);
//! * [`pipeline`] — event-driven simulation of the *pipelined* execution of a
//!   stream of data sets, measuring the achieved period and per-data-set
//!   latencies;
//! * [`monte_carlo`](mod@monte_carlo) — parallel Monte-Carlo estimation
//!   (Rayon) with seeded, reproducible streams;
//! * [`fault`] — mid-run fault injection: scripted/seeded [`FaultPlan`]s fire
//!   platform deltas at chosen trial fractions and a caller-supplied repair
//!   loop keeps the simulation going on the repaired mapping.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod engine;
pub mod failure;
pub mod fault;
pub mod monte_carlo;
pub mod pipeline;

pub use dataset::{simulate_dataset, CompiledMapping, DatasetOutcome};
pub use engine::{Event, EventQueue};
pub use failure::FailureModel;
pub use fault::{monte_carlo_with_faults, FaultEvent, FaultPlan, FaultSegment, FaultSimReport};
pub use monte_carlo::{monte_carlo, MonteCarloConfig, MonteCarloEstimate};
pub use pipeline::{simulate_pipeline, PipelineConfig, PipelineReport};
