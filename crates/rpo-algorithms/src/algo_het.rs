//! `algo_het`: exact reliability optimization on heterogeneous platforms by
//! dynamic programming over processor **classes**.
//!
//! The general heterogeneous problem is NP-complete, but real platforms have
//! few distinct `(speed, failure rate)` classes — and within a class all
//! processors are interchangeable. Exploiting that symmetry, the search
//! space shrinks from concrete processor sets to class-level replica counts,
//! and an exact dynamic program over
//!
//! `F(i, b) = best reliability mapping the first i tasks with per-class
//! remaining budgets b = (b_1 … b_{K_c})`
//!
//! becomes tractable: the state space is `(n + 1) · Π_c (m_c + 1)` and each
//! transition picks the last interval `τ_{j+1} … τ_i` together with a
//! replica *pattern* `q = (q_1 … q_{K_c})`, `1 ≤ Σ q_c ≤ K`, of reliability
//! `1 − Π_c (1 − block_c)^{q_c}` (the heterogeneous Eq. 9 inner term). An
//! optional worst-case period bound restricts the admissible `(interval,
//! pattern)` pairs exactly as in Algorithm 2: incoming/outgoing
//! communication times and `W / s_slowest-used` must all fit the bound.
//!
//! The DP runs when the platform passes [`het_dp_applicable`] (class count
//! `K_c ≤` [`MAX_DP_CLASSES`], state space ≤ [`MAX_DP_STATES`]); otherwise
//! [`algo_het`] falls back to the Section 7.2 greedy pipeline
//! ([`greedy_het`]: Heur-L/Heur-P partitions swept over every
//! interval count + `alloc_het`). When the DP does run, the greedy result is
//! still computed first and used as its **upper-bound pruner**: every factor
//! of the reliability product is ≤ 1, so any DP prefix already below the
//! greedy incumbent can never catch up and is cut.
//!
//! # Kernel layout: gather / compact / sweep
//!
//! The DP body runs through one of two kernels ([`crate::DpKernel`]):
//!
//! * The **chunked kernel** ([`crate::het_kernel`], the default) mirrors
//!   the homogeneous Algorithm 1 kernel's shape. Per DP row it **gathers**
//!   each replica pattern's reliabilities `1 − Π_c (1 − block_c)^{q_c}`
//!   over every admissible interval start into one contiguous scratch row
//!   ([`IntervalOracle::fill_pattern_block_row`] — multiplication-only on
//!   classes passing the factored-exponent guard), walks the **compacted**
//!   dense predecessor-state ranges precomputed per pattern
//!   (`Pattern::runs`, replacing the per-state index-list walk that
//!   defeats vectorization), and folds each range with a fixed-width
//!   `[f64; 8]` value-only multiply-and-max **sweep**. Winning
//!   `(j, pattern)` choices are recovered post hoc by bit-exact candidate
//!   re-scan in sweep order, so its DP table and lowered mappings are
//!   identical to the scalar kernel's.
//! * The **scalar kernel** (the original per-state list walk with inline
//!   choice recording) remains the differential reference. It runs
//!   whenever a caller requests it through [`class_dp_with_kernel`].
//!
//! Both kernels preserve the greedy-incumbent pruning cut, and both gather
//! class blocks through the oracle's contiguous row fills
//! ([`IntervalOracle::fill_class_block_row`] /
//! [`IntervalOracle::fill_pattern_block_row`]). The winning class-level
//! solution is a [`rpo_model::ClassAssignment`] and lowers to a concrete
//! [`Mapping`] deterministically; the reported reliability is recomputed
//! through the oracle's exact Eq. 9 path, so it always agrees with the
//! evaluator.
//!
//! # Adding the latency criterion
//!
//! This module optimizes reliability under a **period** bound only. The
//! paper's full tri-criteria problem (a latency bound too — the case that
//! makes the heterogeneous problem NP-complete) lives in
//! [`crate::algo_het_lat`](mod@crate::algo_het_lat), which extends this DP
//! in two regimes:
//!
//! * a **latency state**: because the worst-case latency is additive over
//!   intervals with per-interval terms on the oracle's boundary-indexed
//!   compute/communication grid, the DP state grows a latency-so-far
//!   dimension, stored sparsely as per-`(boundary, budgets)` Pareto labels.
//!   Exact whenever the label population stays within
//!   [`crate::algo_het_lat::MAX_LAT_LABELS`];
//! * a **parametric (Lagrangian) sweep** as the fallback beyond that cap:
//!   the scalar DP of this module with each factor damped by
//!   `e^{−μ·latency term}`, bisected over `μ`. Exact when the
//!   latency-unconstrained optimum is already feasible or the constrained
//!   optimum lies on the (latency, log-reliability) convex hull; a
//!   heuristic between hull points — which is why the greedy pipeline's
//!   feasible incumbent is still compared at the end there.

use rpo_model::{
    assignment_from_segments, ClassView, IntervalOracle, Mapping, Platform, TaskChain,
};
use serde::{Deserialize, Serialize};

use crate::algo1::{DpKernel, OptimalMapping};
use crate::alloc_het::{algo_alloc_heterogeneous, AllocationConstraints};
use crate::heur_l::heur_l_partition;
use crate::heur_p::heur_p_partition;
use crate::{validate_bound, AlgoError, Result};

/// Largest class count the exact DP accepts; beyond it [`algo_het`] falls
/// back to the greedy pipeline.
pub const MAX_DP_CLASSES: usize = 4;

/// Largest per-boundary budget-state count `Π_c (m_c + 1)` the DP accepts.
pub const MAX_DP_STATES: usize = 4096;

/// Which strategy produced an [`algo_het`] solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HetMethod {
    /// The exact class-level dynamic program.
    ClassDp,
    /// The Section 7.2 greedy pipeline: the fallback for large class
    /// counts, or — only through floating-point ulps, since the DP is exact
    /// — when its recomputed reliability comes out *strictly* higher than
    /// the DP's. Exact ties report [`HetMethod::ClassDp`].
    Greedy,
}

/// An [`algo_het`] solution: the mapping, its exact Eq. 9 reliability, and
/// the strategy that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HetSolution {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Its reliability, recomputed exactly through the oracle.
    pub reliability: f64,
    /// Which strategy won.
    pub method: HetMethod,
    /// Exact reliability of the greedy pipeline's own best mapping, when it
    /// found one. `algo_het` always runs the greedy (as fallback and
    /// pruner), so callers comparing DP vs greedy — the experiment sweeps,
    /// the benches — read both results from one solve.
    pub greedy_reliability: Option<f64>,
}

/// Whether the exact class-level DP can run on this instance: few enough
/// classes and a bounded budget-state space.
pub fn het_dp_applicable(oracle: &IntervalOracle) -> bool {
    class_view_within_dp_limits(oracle.class_view())
}

/// [`het_dp_applicable`] from a bare [`Platform`] (no oracle yet): builds a
/// census-only [`ClassView`] over the trivial work prefix, so the class
/// grouping is the one canonical implementation. This is what backend
/// applicability checks use before any oracle exists.
pub fn het_dp_applicable_platform(platform: &Platform) -> bool {
    class_view_within_dp_limits(&ClassView::new(platform, &[0.0]))
}

fn class_view_within_dp_limits(view: &ClassView) -> bool {
    view.len() <= MAX_DP_CLASSES && budget_states(view) <= MAX_DP_STATES
}

/// The DP's per-boundary budget-state count `Π_c (m_c + 1)`.
pub(crate) fn budget_states(view: &ClassView) -> usize {
    view.classes()
        .iter()
        .map(|c| c.members + 1)
        .fold(1usize, |acc, m| acc.saturating_mul(m))
}

/// Mixed-radix strides of the per-class budget digits: state
/// `s = Σ_c b_c · stride_c` with `b_c ∈ 0 ..= m_c`.
pub(crate) fn class_strides(view: &ClassView) -> Vec<usize> {
    let mut strides = vec![1usize; view.len()];
    for c in 1..view.len() {
        strides[c] = strides[c - 1] * (view.class(c - 1).members + 1);
    }
    strides
}

/// `algo_het`: the most reliable mapping of `chain` onto the (possibly
/// heterogeneous) `platform`, under an optional worst-case period bound,
/// with every interval metric read from the shared [`IntervalOracle`].
///
/// Exact (class-level DP) whenever [`het_dp_applicable`] holds; otherwise
/// the greedy Section 7.2 pipeline. In both cases the result is never less
/// reliable than [`greedy_het`]'s on the same instance.
///
/// # Errors
///
/// * [`AlgoError::InvalidBound`] if the bound is not a positive finite
///   number;
/// * [`AlgoError::NoFeasibleMapping`] if no mapping fits the bound.
pub fn algo_het(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
) -> Result<HetSolution> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    validate_bound(period_bound)?;

    // The greedy pipeline first: it is the fallback when the DP cannot run,
    // and the DP's upper-bound pruner when it can.
    let greedy = greedy_het(oracle, chain, platform, period_bound);
    let greedy_reliability = greedy.as_ref().ok().map(|g| g.reliability);
    if !het_dp_applicable(oracle) {
        return greedy.map(|solution| HetSolution {
            mapping: solution.mapping,
            reliability: solution.reliability,
            method: HetMethod::Greedy,
            greedy_reliability,
        });
    }
    let incumbent = greedy_reliability.unwrap_or(0.0);
    let dp = class_dp(oracle, chain, platform, period_bound, incumbent);

    // The DP maximizes factored (ulp-accurate) products; both reliabilities
    // here are recomputed exactly, so picking the larger one guarantees the
    // "never below greedy" invariant bit-for-bit.
    match (dp, greedy) {
        (Some(dp), Ok(greedy)) if greedy.reliability > dp.reliability => Ok(HetSolution {
            mapping: greedy.mapping,
            reliability: greedy.reliability,
            method: HetMethod::Greedy,
            greedy_reliability,
        }),
        (Some(dp), _) => Ok(HetSolution {
            mapping: dp.mapping,
            reliability: dp.reliability,
            method: HetMethod::ClassDp,
            greedy_reliability,
        }),
        (None, Ok(greedy)) => Ok(HetSolution {
            mapping: greedy.mapping,
            reliability: greedy.reliability,
            method: HetMethod::Greedy,
            greedy_reliability,
        }),
        (None, Err(e)) => Err(e),
    }
}

/// The Section 7.2 greedy pipeline as a single entry point: Heur-L and
/// Heur-P partitions for every interval count `1 ..= min(n, p)`, each
/// allocated with `alloc_het`, keeping the most reliable mapping whose
/// worst-case period fits the bound. This is what the portfolio's heuristic
/// backends race — factored out here so [`algo_het`] can use it as fallback
/// and pruner, and the benches as the comparison baseline.
///
/// # Errors
///
/// * [`AlgoError::InvalidBound`] if the bound is not a positive finite
///   number;
/// * [`AlgoError::NoFeasibleMapping`] if no candidate fits the bound.
pub fn greedy_het(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
) -> Result<OptimalMapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    let bound = validate_bound(period_bound)?;
    greedy_het_bounded(oracle, chain, platform, bound, f64::INFINITY)
}

/// The shared greedy-pipeline core: Heur-L and Heur-P partitions for every
/// interval count, each allocated with `alloc_het`, keeping the most
/// reliable mapping whose worst-case period fits `bound` **and** worst-case
/// latency fits `latency_bound` (pass `f64::INFINITY` for the period-only
/// pipeline, or for no period bound). Bounds are the callers' responsibility
/// to validate.
pub(crate) fn greedy_het_bounded(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    bound: f64,
    latency_bound: f64,
) -> Result<OptimalMapping> {
    let constraints = AllocationConstraints::none();
    let mut best: Option<OptimalMapping> = None;
    for num_intervals in 1..=oracle.len().min(oracle.num_processors()) {
        for partition_fn in [heur_l_partition, heur_p_partition] {
            let partition = partition_fn(oracle, num_intervals);
            let Ok(mapping) =
                algo_alloc_heterogeneous(oracle, chain, platform, &partition, bound, &constraints)
            else {
                continue;
            };
            let evaluation = oracle.evaluate(&mapping);
            if evaluation.worst_case_period <= bound
                && evaluation.worst_case_latency <= latency_bound
                && best
                    .as_ref()
                    .is_none_or(|b| evaluation.reliability > b.reliability)
            {
                best = Some(OptimalMapping {
                    mapping,
                    reliability: evaluation.reliability,
                });
            }
        }
    }
    best.ok_or(AlgoError::NoFeasibleMapping)
}

/// One class-level replica pattern `q = (q_1 … q_{K_c})`.
pub(crate) struct Pattern {
    pub(crate) counts: Vec<usize>,
    /// Mixed-radix offset `Σ q_c · stride_c` — subtracting it from a budget
    /// state spends the pattern.
    pub(crate) offset: usize,
    /// Slowest speed among the classes the pattern uses (decides the
    /// pattern's period requirement on an interval).
    pub(crate) min_speed: f64,
    /// Index of a class achieving [`Pattern::min_speed`] among the used
    /// classes — the class whose boundary-indexed compute grid gives the
    /// pattern's worst-case latency term on an interval.
    pub(crate) min_speed_class: usize,
    /// Budget states with `b_c ≥ q_c` for every class (precomputed once).
    pub(crate) valid_predecessors: Vec<u32>,
    /// [`Pattern::valid_predecessors`] compacted into dense `(start, len)`
    /// ranges of consecutive states. Valid predecessors form contiguous
    /// stride-1 runs along the class-0 budget digit (one run per
    /// combination of upper digits ≥ their `q_c`, merging wherever the gaps
    /// vanish — a pattern drawing nothing from the low classes yields a few
    /// long runs), so the chunked kernel sweeps each range with contiguous
    /// loads instead of the per-state list walk that defeats vectorization.
    pub(crate) runs: Vec<(u32, u32)>,
}

/// Enumerates every replica pattern `1 ≤ Σ q_c ≤ k_max`, `q_c ≤ m_c`, in a
/// fixed (odometer) order, with its valid predecessor states.
pub(crate) fn enumerate_patterns(
    view: &ClassView,
    k_max: usize,
    strides: &[usize],
) -> Vec<Pattern> {
    let kc = view.len();
    let num_states = budget_states(view);
    // Per-state digit decode, reused by every pattern's predecessor filter.
    let digits: Vec<Vec<usize>> = (0..num_states)
        .map(|s| {
            (0..kc)
                .map(|c| s / strides[c] % (view.class(c).members + 1))
                .collect()
        })
        .collect();

    let mut patterns = Vec::new();
    let mut q = vec![0usize; kc];
    'odometer: loop {
        // Advance the odometer (q_c ≤ min(m_c, k_max)).
        let mut c = 0;
        loop {
            if c == kc {
                break 'odometer;
            }
            if q[c] < view.class(c).members.min(k_max) {
                q[c] += 1;
                break;
            }
            q[c] = 0;
            c += 1;
        }
        let total: usize = q.iter().sum();
        if total == 0 || total > k_max {
            continue;
        }
        let offset: usize = q.iter().zip(strides).map(|(&qc, &s)| qc * s).sum();
        let (min_speed_class, min_speed) = q
            .iter()
            .enumerate()
            .filter(|&(_, &qc)| qc > 0)
            .map(|(c, _)| (c, view.class(c).speed))
            .fold((usize::MAX, f64::INFINITY), |acc, cur| {
                if cur.1 < acc.1 {
                    cur
                } else {
                    acc
                }
            });
        let valid_predecessors: Vec<u32> = (0..num_states as u32)
            .filter(|&s| digits[s as usize].iter().zip(&q).all(|(&b, &qc)| b >= qc))
            .collect();
        // Coalesce the (ascending) predecessor list into dense ranges for
        // the chunked kernel's contiguous sweeps.
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &s in &valid_predecessors {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == s => *len += 1,
                _ => runs.push((s, 1)),
            }
        }
        patterns.push(Pattern {
            counts: q.clone(),
            offset,
            min_speed,
            min_speed_class,
            valid_predecessors,
            runs,
        });
    }
    patterns
}

/// No recorded choice sentinel of the DP's packed `(j, pattern)` traceback.
const NO_CHOICE: u64 = u64::MAX;

/// The exact class-level dynamic program on the chunked
/// gather/compact/sweep kernel of [`crate::het_kernel`]. Returns `None`
/// when no mapping fits the bound (or everything was pruned below the
/// greedy `incumbent` — in which case the caller's greedy solution is
/// already optimal-or-equal).
fn class_dp(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    incumbent: f64,
) -> Option<OptimalMapping> {
    class_dp_with_kernel(
        oracle,
        chain,
        platform,
        period_bound,
        incumbent,
        DpKernel::Chunked,
    )
}

/// The class-level DP with an explicit kernel choice: the measurement and
/// differential-testing entry point behind [`algo_het`]'s exact path.
///
/// Both kernels maximize over bit-identical candidate values and recover
/// bit-identical traceback choices, so their lowered mappings are equal —
/// the workspace `het` suite asserts exactly that. `incumbent` is the greedy
/// pruning cut (pass `0.0` to disable pruning).
///
/// # Panics
///
/// Panics if [`het_dp_applicable`] does not hold for the oracle, or the
/// bound is not `None` or a positive finite number (callers go through
/// [`algo_het`] in production).
pub fn class_dp_with_kernel(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    incumbent: f64,
    kernel: DpKernel,
) -> Option<OptimalMapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    assert!(
        het_dp_applicable(oracle),
        "the class-level DP requires het_dp_applicable platforms"
    );
    assert!(
        validate_bound(period_bound).is_ok(),
        "period bound must be None or a positive finite number"
    );
    match kernel {
        DpKernel::Chunked => {
            crate::het_kernel::class_dp_chunked(oracle, chain, platform, period_bound, incumbent)
        }
        DpKernel::Scalar => class_dp_scalar(oracle, chain, platform, period_bound, incumbent),
    }
}

/// The scalar reference inner loop of the class DP (the original per-state
/// list walk), kept as the chunked kernel's differential reference.
///
/// The admissibility prelude and block-row gather are mirrored by
/// `algo_het_lat`'s `label_dp` and `penalized_dp`, and by the chunked
/// kernel in [`crate::het_kernel`] — the DPs differ in their value type,
/// so a fix to the shared shape must land in all of them.
fn class_dp_scalar(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    incumbent: f64,
) -> Option<OptimalMapping> {
    let n = oracle.len();
    let view = oracle.class_view();
    let kc = view.len();
    let k_max = oracle.max_replication().min(oracle.num_processors());

    let strides = class_strides(view);
    let num_states = budget_states(view);
    let patterns = enumerate_patterns(view, k_max, &strides);
    assert!(
        patterns.len() < (1 << 32) && n < (1 << 24),
        "packed het traceback supports < 2^32 patterns and n < 2^24"
    );

    let bound = period_bound.unwrap_or(f64::INFINITY);
    // Any DP prefix strictly below the incumbent can never catch up (every
    // later factor is ≤ 1); a hair of slack keeps factored-vs-exact ulp
    // differences from over-pruning.
    let prune_below = incumbent * (1.0 - 1e-9);
    let work_prefix = oracle.work_prefix();
    let max_speed = view.max_speed();
    let in_ok: Vec<bool> = (0..n).map(|j| oracle.input_comm_time(j) <= bound).collect();

    let full = num_states - 1; // every budget digit at its maximum m_c
    let mut f = vec![f64::NEG_INFINITY; (n + 1) * num_states];
    let mut choice = vec![NO_CHOICE; (n + 1) * num_states];
    f[full] = 1.0;

    // Per-class block-row gather buffers and per-class failure powers
    // (1 − block)^q, reused across rows.
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); kc];
    let mut powers: Vec<Vec<f64>> = vec![vec![1.0; k_max + 1]; kc];

    for i in 1..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue; // no interval ending at task i−1 fits the period
        }
        // Conservative first admissible start: even the fastest class cannot
        // fit longer intervals within the bound.
        let j_lo = if bound.is_finite() {
            work_prefix[..i]
                .partition_point(|&w| w < work_prefix[i] - bound * max_speed)
                .saturating_sub(1)
        } else {
            0
        };
        for (c, row) in rows.iter_mut().enumerate() {
            oracle.fill_class_block_row(c, i - 1, j_lo, row);
        }
        let (done, rest) = f.split_at_mut(i * num_states);
        let row_i = &mut rest[..num_states];
        let choice_base = i * num_states;
        for j in (j_lo..i).rev() {
            if !in_ok[j] {
                continue;
            }
            let work = work_prefix[i] - work_prefix[j];
            if work / max_speed > bound {
                continue; // admissible for no pattern at all
            }
            for (c, row) in rows.iter().enumerate() {
                let all_fail = 1.0 - row[j - j_lo];
                let pow = &mut powers[c];
                for q in 1..=k_max {
                    pow[q] = pow[q - 1] * all_fail;
                }
            }
            let row_j = &done[j * num_states..(j + 1) * num_states];
            for (pattern_index, pattern) in patterns.iter().enumerate() {
                if work / pattern.min_speed > bound {
                    continue;
                }
                let survive: f64 = pattern
                    .counts
                    .iter()
                    .enumerate()
                    .map(|(c, &qc)| powers[c][qc])
                    .product();
                let rel = 1.0 - survive;
                let packed = (j as u64) << 32 | pattern_index as u64;
                for &s in &pattern.valid_predecessors {
                    let s = s as usize;
                    let prev = row_j[s];
                    if prev.is_finite() {
                        let cand = prev * rel;
                        let target = s - pattern.offset;
                        if cand > row_i[target] && cand >= prune_below {
                            row_i[target] = cand;
                            choice[choice_base + target] = packed;
                        }
                    }
                }
            }
        }
    }

    // Best over every remaining-budget state at the final boundary.
    let row_n = &f[n * num_states..];
    let (best_state, best_rel) = row_n
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("totally ordered reliabilities"))
        .map(|(s, &r)| (s, r))?;
    if !best_rel.is_finite() {
        return None;
    }

    // Traceback into class-level segments, then lower deterministically.
    let mut segments: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    let (mut i, mut s) = (n, best_state);
    while i > 0 {
        let packed = choice[i * num_states + s];
        debug_assert!(packed != NO_CHOICE, "reachable state has a recorded choice");
        let j = (packed >> 32) as usize;
        let pattern = &patterns[(packed & 0xFFFF_FFFF) as usize];
        segments.push((j, i - 1, pattern.counts.clone()));
        s += pattern.offset;
        i = j;
    }
    segments.reverse();
    let (partition, assignment) =
        assignment_from_segments(&segments, n).expect("DP segments form a valid partition");
    let mapping = assignment
        .lower(view, &partition, chain, platform)
        .expect("DP respects every class budget");
    // Report the exact Eq. 9 reliability of the lowered mapping (the DP
    // maximized over factored values that can differ by an ulp).
    let reliability = oracle.mapping_reliability(&mapping);
    Some(OptimalMapping {
        mapping,
        reliability,
    })
}

/// Chains longer than this are rejected by [`exhaustive_het`].
pub const MAX_EXHAUSTIVE_HET_TASKS: usize = 12;

/// Class-level segments `(first, last, per-class counts)` of a candidate.
pub(crate) type Segments = Vec<(usize, usize, Vec<usize>)>;

/// Reference brute force for heterogeneous instances: enumerates every
/// interval partition **and** every per-interval class pattern under the
/// shared class budgets, and returns the most reliable mapping fitting the
/// period bound. Exponential — only for validating [`algo_het`] on tiny
/// instances.
///
/// # Errors
///
/// Same as [`algo_het`].
///
/// # Panics
///
/// Panics if the chain exceeds [`MAX_EXHAUSTIVE_HET_TASKS`] tasks.
pub fn exhaustive_het(
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
) -> Result<OptimalMapping> {
    let bound = validate_bound(period_bound)?;
    let n = chain.len();
    assert!(
        n <= MAX_EXHAUSTIVE_HET_TASKS,
        "exhaustive het solver limited to {MAX_EXHAUSTIVE_HET_TASKS} tasks, chain has {n}"
    );
    let oracle = IntervalOracle::new(chain, platform);
    let view = oracle.class_view();
    let k_max = oracle.max_replication().min(oracle.num_processors());
    let strides = class_strides(view);
    let patterns = enumerate_patterns(view, k_max, &strides);

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        oracle: &IntervalOracle,
        patterns: &[Pattern],
        bound: f64,
        start: usize,
        budgets: &mut [usize],
        segments: &mut Segments,
        reliability: f64,
        best: &mut Option<(f64, Segments)>,
    ) {
        let n = oracle.len();
        if start == n {
            if best.as_ref().is_none_or(|(b, _)| reliability > *b) {
                *best = Some((reliability, segments.clone()));
            }
            return;
        }
        if oracle.input_comm_time(start) > bound {
            return;
        }
        for last in start..n {
            if oracle.output_comm_time(last) > bound {
                continue;
            }
            let work = oracle.work(start, last);
            for pattern in patterns {
                if work / pattern.min_speed > bound {
                    continue;
                }
                if pattern
                    .counts
                    .iter()
                    .zip(budgets.iter())
                    .any(|(&q, &b)| q > b)
                {
                    continue;
                }
                let mut survive = 1.0;
                for (c, &q) in pattern.counts.iter().enumerate() {
                    let block = oracle.class_block_reliability(c, start, last);
                    for _ in 0..q {
                        survive *= 1.0 - block;
                    }
                }
                for (b, &q) in budgets.iter_mut().zip(&pattern.counts) {
                    *b -= q;
                }
                segments.push((start, last, pattern.counts.clone()));
                recurse(
                    oracle,
                    patterns,
                    bound,
                    last + 1,
                    budgets,
                    segments,
                    reliability * (1.0 - survive),
                    best,
                );
                segments.pop();
                for (b, &q) in budgets.iter_mut().zip(&pattern.counts) {
                    *b += q;
                }
            }
        }
    }

    let mut budgets: Vec<usize> = view.classes().iter().map(|c| c.members).collect();
    let mut best = None;
    recurse(
        &oracle,
        &patterns,
        bound,
        0,
        &mut budgets,
        &mut Vec::new(),
        1.0,
        &mut best,
    );
    let (_, segments) = best.ok_or(AlgoError::NoFeasibleMapping)?;
    let (partition, assignment) = assignment_from_segments(&segments, n)?;
    let mapping = assignment.lower(view, &partition, chain, platform)?;
    let reliability = oracle.mapping_reliability(&mapping);
    Ok(OptimalMapping {
        mapping,
        reliability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap()
    }

    /// Two classes: three fast-but-flaky processors, three slow-but-reliable.
    fn class_platform() -> Platform {
        PlatformBuilder::new()
            .processor(4.0, 1e-3)
            .processor(4.0, 1e-3)
            .processor(4.0, 1e-3)
            .processor(1.0, 1e-4)
            .processor(1.0, 1e-4)
            .processor(1.0, 1e-4)
            .bandwidth(1.0)
            .link_failure_rate(1e-5)
            .max_replication(3)
            .build()
            .unwrap()
    }

    /// [`algo_het`] on a fresh oracle.
    fn solve(c: &TaskChain, p: &Platform, period_bound: Option<f64>) -> Result<HetSolution> {
        algo_het(&IntervalOracle::new(c, p), c, p, period_bound)
    }

    #[test]
    fn dp_is_exact_on_the_class_fixture() {
        let c = chain();
        let p = class_platform();
        for bound in [None, Some(15.0), Some(30.0), Some(110.0)] {
            let dp = solve(&c, &p, bound).unwrap();
            let brute = exhaustive_het(&c, &p, bound).unwrap();
            assert!(
                (dp.reliability - brute.reliability).abs()
                    <= 1e-12 * brute.reliability.max(dp.reliability),
                "bound {bound:?}: dp {} vs exhaustive {}",
                dp.reliability,
                brute.reliability
            );
        }
    }

    #[test]
    fn dp_never_loses_to_greedy() {
        let c = chain();
        let p = class_platform();
        let oracle = IntervalOracle::new(&c, &p);
        for bound in [None, Some(15.0), Some(40.0), Some(1000.0)] {
            let het = algo_het(&oracle, &c, &p, bound).unwrap();
            let greedy = greedy_het(&oracle, &c, &p, bound).unwrap();
            assert!(
                het.reliability >= greedy.reliability,
                "bound {bound:?}: algo_het {} below greedy {}",
                het.reliability,
                greedy.reliability
            );
        }
    }

    #[test]
    fn returned_mapping_respects_the_period_bound() {
        let c = chain();
        let p = class_platform();
        for bound in [15.0, 30.0, 110.0] {
            let sol = solve(&c, &p, Some(bound)).unwrap();
            let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
            assert!(
                eval.worst_case_period <= bound,
                "period {} exceeds bound {bound}",
                eval.worst_case_period
            );
            assert!((sol.reliability - eval.reliability).abs() < 1e-15);
        }
    }

    #[test]
    fn homogeneous_platform_recovers_algorithms_1_and_2() {
        let c = chain();
        let p = PlatformBuilder::new()
            .identical_processors(6, 1.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(3)
            .build()
            .unwrap();
        let het = solve(&c, &p, None).unwrap();
        let oracle = IntervalOracle::new(&c, &p);
        let algo1 =
            crate::optimize_reliability(&oracle, &c, &p, None, &mut crate::DpScratch::new())
                .unwrap();
        assert!((het.reliability - algo1.reliability).abs() < 1e-12);
        for bound in [45.0, 70.0, 105.0] {
            let het = solve(&c, &p, Some(bound)).unwrap();
            let mut scratch = crate::DpScratch::new();
            let algo2 =
                crate::optimize_reliability(&oracle, &c, &p, Some(bound), &mut scratch).unwrap();
            assert!(
                (het.reliability - algo2.reliability).abs() < 1e-12,
                "bound {bound}: {} vs {}",
                het.reliability,
                algo2.reliability
            );
        }
    }

    #[test]
    fn many_classes_fall_back_to_greedy() {
        let c = chain();
        let mut builder = PlatformBuilder::new()
            .bandwidth(1.0)
            .link_failure_rate(1e-5)
            .max_replication(2);
        for u in 0..5 {
            builder = builder.processor(1.0 + u as f64 * 0.5, 1e-4);
        }
        let p = builder.build().unwrap();
        let oracle = IntervalOracle::new(&c, &p);
        assert_eq!(oracle.classes().len(), 5);
        assert!(!het_dp_applicable(&oracle));
        let sol = algo_het(&oracle, &c, &p, Some(100.0)).unwrap();
        assert_eq!(sol.method, HetMethod::Greedy);
        let greedy = greedy_het(&oracle, &c, &p, Some(100.0)).unwrap();
        assert_eq!(sol.reliability, greedy.reliability);
    }

    #[test]
    fn infeasible_and_invalid_bounds_are_reported() {
        let c = chain(); // largest task work 40, fastest class speed 4
        let p = class_platform();
        assert_eq!(
            solve(&c, &p, Some(5.0)).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                solve(&c, &p, Some(bad)).unwrap_err(),
                AlgoError::InvalidBound("period bound")
            );
        }
    }

    #[test]
    fn solving_twice_lowers_to_the_identical_mapping() {
        let c = chain();
        let p = class_platform();
        let a = solve(&c, &p, Some(30.0)).unwrap();
        let b = solve(&c, &p, Some(30.0)).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.method, HetMethod::ClassDp);
    }
}
