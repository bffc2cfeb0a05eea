//! Self-healing pipeline: **live mapping repair** after platform churn.
//!
//! The paper solves static instances; this crate keeps a solved instance
//! *alive* while the platform changes underneath it. A [`RepairSession`]
//! holds the `(chain, platform, mapping)` triple together with the warm
//! solver state (the [`IntervalOracle`](rpo_model::IntervalOracle) and the
//! DP boundary grid in a [`DpScratch`](rpo_algorithms::DpScratch)), and
//! [`RepairSession::apply`] walks a **graded degradation ladder** for each
//! incoming [`PlatformDelta`](rpo_model::PlatformDelta):
//!
//! 1. [`RepairTier::LocalPatch`] — touch only the intervals that used a
//!    failed/degraded processor: remap surviving processor ids and swap in a
//!    free same-class replacement, then re-certify the patched mapping
//!    against the bounds via `oracle.evaluate`. Microseconds, no DP at all.
//! 2. [`RepairTier::WarmDp`] — re-run the homogeneous DP reusing the
//!    unchanged prefix of the prior boundary grid (see below).
//! 3. [`RepairTier::FullSolve`] — cold re-solve (homogeneous DP or the
//!    heterogeneous class DP), when nothing warm survives the delta.
//!
//! The chosen tier is reported per event, and every repair's wall time feeds
//! the `repair.latency` histogram.
//!
//! # Why prefix reuse is bit-safe
//!
//! The shared DP of `algo1`/`algo2` fills a boundary grid `f[i][k]` — the
//! best reliability of tasks `1..=i` on `k` processors — row by row, and row
//! `i` reads only (a) rows `j < i` and (b) the block reliabilities of
//! intervals *ending at task `i − 1`*, which are functions of the works of
//! tasks `< i`, the class parameters, and the boundary communication data.
//! Two consequences:
//!
//! * **Work revision of task `t`**: every row `i ≤ t` reads only data from
//!   tasks `< t`, none of which changed — and the oracle's incremental
//!   update ([`IntervalOracle::apply_delta`](rpo_model::IntervalOracle::apply_delta))
//!   rebuilds its prefix sums *only from boundary `t + 1` on*, leaving the
//!   earlier entries untouched in memory. Re-sweeping rows `t + 1 ..= n`
//!   over kept rows therefore reproduces a cold solve **bit-for-bit**: the
//!   same kernel reads the same bits in the same order. The one exception is
//!   a class crossing the factored-exponent guard (`ρ·W_total` moving across
//!   40): block reliabilities then come from a different, ulp-distinct code
//!   path, `AppliedDelta::factored_changed` reports it, and the ladder falls
//!   back to a full solve.
//! * **Processor failure on a homogeneous platform**: `f[i][k]` never
//!   depends on how many processors exist beyond `k`, so the *whole* grid
//!   stays exact on the shrunken platform — repair is just re-picking the
//!   best reachable final state over `k ≤ p − 1` and retracing (the grid's
//!   row stride still remembers the old width; the traceback is told).
//!
//! The local-patch tier is *provably optimal* on homogeneous platforms: if
//! the optimal mapping used `m < p` processors, swapping the failed one for
//! a free one preserves the optimal value `R*(p)`; since `R*(p − 1) ≤
//! R*(p)` and the patched mapping achieves `R*(p)` on `p − 1` processors,
//! the patch *is* an optimal mapping of the shrunken platform. When no free
//! processor exists the ladder escalates to the warm DP, which is exact by
//! construction. On heterogeneous platforms the patch is certified against
//! the greedy baseline instead (never below it), escalating on failure.
//!
//! Closing the loop with the simulator: [`monte_carlo_with_repair`] runs
//! `rpo-sim`'s fault-injecting Monte-Carlo with this crate's ladder as the
//! repair callback — kill processors mid-run, repair live, and read the
//! recovered reliability off the per-segment report.
//!
//! At batch scale, [`replay_churn`] opens one session per `(chain,
//! platform)` pair, replays a seeded platform-churn trace through each, and
//! tallies which tier absorbed every event.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod churn;
mod fault_sim;
mod session;

pub use churn::{replay_churn, ChurnConfig, ChurnReport};
pub use fault_sim::monte_carlo_with_repair;
pub use session::{RepairReport, RepairSession, RepairTier};
