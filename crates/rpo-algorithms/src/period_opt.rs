//! Converse of Algorithm 2: minimize the period under a reliability bound, on
//! fully homogeneous platforms.
//!
//! The paper observes (Section 5.2) that this problem is also polynomial: it
//! suffices to binary-search the period and repeatedly run Algorithm 2. The
//! worst-case period of any mapping is one of finitely many candidate values
//! (an interval computation time `W(i..j)/s` or a communication time
//! `o_i / b`), so the search runs over that sorted candidate set and
//! returns a certified optimum.
//!
//! [`minimize_period`] mostly skips that search. Whether *some* partition
//! fits a period at all is a chains-on-chains question (Pinar & Aykanat,
//! JPDC 64(8), 2004) that a greedy left-to-right partition answers in
//! `O(n)`, with Algorithm 2's own admissibility comparisons. Selecting on
//! the unsorted candidates finds the smallest one that fits; one Algorithm
//! 2 run at the candidate the binary search would answer then gives the
//! mapping. Every candidate below it cannot fit, so no mapping there meets
//! any reliability bound, and the answer is the binary search's, bit for
//! bit. Inputs outside that argument (non-positive works, a non-finite
//! speed or candidate), or an Algorithm 2 run that misses the bound, take
//! the binary search.

use rpo_model::{IntervalOracle, Mapping, Platform, TaskChain};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

use crate::algo1::{optimize_reliability, DpScratch, OptimalMapping};
use crate::{AlgoError, Result};

/// Result of the period minimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodOptimal {
    /// The minimal achievable worst-case period under the reliability bound.
    pub period: f64,
    /// A mapping achieving it.
    pub mapping: Mapping,
    /// The reliability of that mapping (≥ the requested bound).
    pub reliability: f64,
}

/// Relative tolerance under which two candidate periods are considered the
/// same value (an absolute tolerance would mis-merge distinct candidates on
/// instances whose periods are themselves tiny).
const CANDIDATE_REL_TOL: f64 = 1e-12;

/// Relative width of the neighbourhood above the smallest fitting candidate
/// that [`run_representative`] sorts to find the end of its merged run.
const NEIGHBOURHOOD_REL: f64 = 1e3 * CANDIDATE_REL_TOL;

/// Every value the worst-case period of a mapping can take, unsorted:
/// computation times of all intervals and all boundary communication times,
/// read from the oracle's prefix sums.
///
/// Candidates strictly below the largest single-task computation time are
/// pruned: every task belongs to some interval, so the interval holding the
/// biggest task forces `period ≥ max_i w_i / s` on every mapping — probing
/// below that can never be feasible.
fn raw_candidates(oracle: &IntervalOracle, speed: f64) -> Vec<f64> {
    let n = oracle.len();
    let min_achievable = (0..n)
        .map(|i| oracle.work(i, i) / speed)
        .fold(0.0, f64::max);
    let mut candidates = Vec::with_capacity(n * (n + 1) / 2 + n);
    for first in 0..n {
        for last in first..n {
            candidates.push(oracle.work(first, last) / speed);
        }
    }
    for i in 0..n.saturating_sub(1) {
        candidates.push(oracle.output_comm_time(i));
    }
    candidates.retain(|&c| c >= min_achievable * (1.0 - CANDIDATE_REL_TOL));
    candidates
}

/// Whether the binary search's dedup merges candidate `next` into the run
/// whose largest member so far is `top` (`next ≥ top` in sorted order).
fn merges(top: f64, next: f64) -> bool {
    (next - top).abs() <= CANDIDATE_REL_TOL * next.abs().max(top.abs())
}

/// The sorted candidate ladder the binary search runs over: the raw
/// candidates, sorted, with near-equal runs merged.
fn candidate_periods(oracle: &IntervalOracle, speed: f64) -> Vec<f64> {
    let mut candidates = raw_candidates(oracle, speed);
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite candidate periods"));
    // Merged near-equal candidates keep the *largest* member as their
    // representative: probing the representative then admits every interval
    // whose true requirement sits an ulp above the smaller members (rounding
    // of the prefix sums makes mathematically equal works differ by ulps).
    candidates.dedup_by(|a, b| {
        if merges(*b, *a) {
            *b = b.max(*a);
            true
        } else {
            false
        }
    });
    candidates
}

/// The checks shared by the cold and the repair search, then the sorted
/// candidate ladder both of them search.
fn checked_candidates(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    reliability_bound: f64,
) -> Result<Vec<f64>> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    if !valid_reliability_bound(reliability_bound) {
        return Err(AlgoError::InvalidBound("reliability bound"));
    }
    Ok(candidate_periods(oracle, platform.speed(0)))
}

fn valid_reliability_bound(bound: f64) -> bool {
    bound.is_finite() && bound > 0.0 && bound <= 1.0
}

/// One Algorithm 2 run at a candidate `period`: the optimal mapping, if it
/// reaches the reliability bound. Each run counts one `period_opt.probes`:
/// the fast path of [`minimize_period`] makes one, the binary search and
/// the repair gallop one per candidate they test (the binary search's
/// opening run at the largest candidate is not counted).
fn probe(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    reliability_bound: f64,
    period: f64,
    scratch: &mut DpScratch,
) -> Option<OptimalMapping> {
    rpo_obs::counter!("period_opt.probes").inc();
    optimize_reliability(oracle, chain, platform, Some(period), scratch)
        .ok()
        .filter(|solution| solution.reliability >= reliability_bound)
}

/// Minimizes the worst-case period of a mapping whose reliability is at least
/// `reliability_bound`, on a fully homogeneous platform.
///
/// The answer is the binary search's over the sorted candidate ladder (see
/// the [module docs](self)), usually reached by a greedy feasibility
/// search and a single Algorithm 2 run. The runs share the oracle and
/// `scratch`: the DP arenas are allocated once and, in the binary search,
/// the previous probe's admissible-interval set (`in_ok` boundary flags and
/// per-row work-prefix cuts) seeds the next probe's admissibility
/// derivation. Batch callers (the portfolio engine's scratch pool) reuse
/// the arenas across instances as well.
///
/// # Errors
///
/// * [`AlgoError::HeterogeneousPlatform`] if the platform is not homogeneous;
/// * [`AlgoError::InvalidBound`] if the reliability bound is not in `(0, 1]`;
/// * [`AlgoError::NoFeasibleMapping`] if even the unconstrained optimum of
///   Algorithm 1 does not reach the reliability bound.
pub fn minimize_period(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    reliability_bound: f64,
    scratch: &mut DpScratch,
) -> Result<PeriodOptimal> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    if oracle.is_homogeneous() && valid_reliability_bound(reliability_bound) {
        if let Some(optimum) = probed_optimum(oracle, chain, platform, reliability_bound, scratch) {
            return Ok(optimum);
        }
    }
    binary_search_period(oracle, chain, platform, reliability_bound, scratch)
}

/// The fast path of [`minimize_period`]: the smallest candidate a greedy
/// partition fits, the representative of its merged run, and one Algorithm
/// 2 run there. `None` sends the caller to the binary search: when the
/// greedy argument does not hold for this input, when no candidate fits,
/// when the run reaches past the examined neighbourhood, or when Algorithm
/// 2 does not meet the bound at the representative.
fn probed_optimum(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    reliability_bound: f64,
    scratch: &mut DpScratch,
) -> Option<PeriodOptimal> {
    let speed = platform.speed(0);
    let work_prefix = oracle.work_prefix();
    // The greedy is exact when interval works grow with the interval: a
    // finite, strictly increasing work prefix (every work > 0).
    let monotone = !oracle.is_empty()
        && work_prefix.iter().all(|w| w.is_finite())
        && work_prefix.windows(2).all(|pair| pair[0] < pair[1]);
    if !(monotone && speed.is_finite() && speed > 0.0) {
        return None;
    }
    let mut candidates = raw_candidates(oracle, speed);
    // The binary search opens with an Algorithm 2 run at the largest
    // candidate, which rejects a non-finite period bound.
    if !candidates.iter().all(|c| c.is_finite()) {
        return None;
    }
    let smallest = smallest_fitting(&mut candidates, |period| {
        partition_fits(oracle, speed, period)
    })?;
    let period = run_representative(&mut candidates, smallest)?;
    let solution = probe(oracle, chain, platform, reliability_bound, period, scratch)?;
    Some(PeriodOptimal {
        period,
        mapping: solution.mapping,
        reliability: solution.reliability,
    })
}

/// Whether some partition of the chain into at most `p` intervals meets
/// `period`, by Algorithm 2's own comparisons: an interval `j ..= e` fits
/// when `work(j, e) / speed` is not above the period, its start when
/// `input_comm_time(j)` is at most the period, and its end when
/// `output_comm_time(e)` is not above it. A cut after task `e` ends one
/// interval and starts the next, whose `input_comm_time(e + 1)` is
/// `output_comm_time(e)`: it fits when that time is at most the period.
///
/// The greedy takes each interval as far as its work allows and cuts at
/// the last fitting boundary in it. With interval works growing in both
/// directions, no partition gets further in as many intervals, so the
/// greedy needs the fewest. Each task is scanned at most twice.
fn partition_fits(oracle: &IntervalOracle, speed: f64, period: f64) -> bool {
    let not_above = |time: f64| time.partial_cmp(&period) != Some(Ordering::Greater);
    let cut_fits = |last: usize| oracle.output_comm_time(last) <= period;
    let n = oracle.len();
    let first_fits = oracle.input_comm_time(0) <= period;
    if !first_fits || !not_above(oracle.output_comm_time(n - 1)) {
        return false;
    }
    // Tasks `start..end` fit in the current interval by work; the tasks in
    // `start..scanned` were already rejected as cut points.
    let (mut start, mut end) = (0, 0);
    for _ in 0..oracle.num_processors() {
        let scanned = end.max(start);
        end = scanned;
        while end < n && not_above(oracle.work(start, end) / speed) {
            end += 1;
        }
        if end == n {
            return true;
        }
        let mut cut = end;
        while cut > scanned && !cut_fits(cut - 1) {
            cut -= 1;
        }
        if cut == scanned {
            return false;
        }
        start = cut;
    }
    false
}

/// The smallest of `candidates` that `fits`, for a `fits` monotone in the
/// period: a binary search by selection on the unsorted slice, which
/// leaves it permuted. Expected `O(len)` time, and `O(log len)` calls to
/// `fits`.
fn smallest_fitting(candidates: &mut [f64], fits: impl Fn(f64) -> bool) -> Option<f64> {
    let mut rest = candidates;
    let mut smallest = None;
    while !rest.is_empty() {
        let mid = rest.len() / 2;
        let (below, pivot, above) =
            std::mem::take(&mut rest).select_nth_unstable_by(mid, f64::total_cmp);
        if fits(*pivot) {
            smallest = Some(*pivot);
            rest = below;
        } else {
            rest = above;
        }
    }
    smallest
}

/// The representative the binary search's ladder keeps for the merged run
/// holding `smallest`: its largest member. The dedup chains consecutive
/// sorted candidates within [`CANDIDATE_REL_TOL`], so the run's top is
/// found by walking up from `smallest` through the candidates just above
/// it. Those within [`NEIGHBOURHOOD_REL`] are moved to the front of
/// `candidates` and sorted; `None` if the run would continue past them.
fn run_representative(candidates: &mut [f64], smallest: f64) -> Option<f64> {
    let edge = smallest * (1.0 + NEIGHBOURHOOD_REL);
    let mut near = 0;
    let mut beyond: Option<f64> = None;
    for i in 0..candidates.len() {
        let candidate = candidates[i];
        if candidate > edge {
            beyond = Some(beyond.map_or(candidate, |b| b.min(candidate)));
        } else if candidate >= smallest {
            candidates.swap(i, near);
            near += 1;
        }
    }
    let near = &mut candidates[..near];
    near.sort_unstable_by(f64::total_cmp);
    let mut top = smallest;
    for &next in near.iter() {
        if !merges(top, next) {
            return Some(top);
        }
        top = next;
    }
    match beyond {
        Some(next) if merges(top, next) => None,
        _ => Some(top),
    }
}

/// The binary search of Section 5.2 over the sorted candidate ladder, one
/// Algorithm 2 run per probe.
fn binary_search_period(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    reliability_bound: f64,
    scratch: &mut DpScratch,
) -> Result<PeriodOptimal> {
    let candidates = checked_candidates(oracle, chain, platform, reliability_bound)?;
    // Check feasibility at the largest candidate (equivalent to no bound).
    let largest = *candidates
        .last()
        .expect("a non-empty chain has candidate periods");
    let unconstrained = optimize_reliability(oracle, chain, platform, Some(largest), scratch)?;
    if unconstrained.reliability < reliability_bound {
        return Err(AlgoError::NoFeasibleMapping);
    }

    // Binary search the smallest candidate period meeting the bound.
    let mut feasible =
        |period: f64| probe(oracle, chain, platform, reliability_bound, period, scratch);
    let (mut lo, mut hi) = (0usize, candidates.len() - 1);
    let mut best = unconstrained;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match feasible(candidates[mid]) {
            Some(solution) => {
                best = solution;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    Ok(PeriodOptimal {
        period: candidates[hi],
        mapping: best.mapping,
        reliability: best.reliability,
    })
}

/// Warm-started period re-minimization after a platform or workload delta:
/// instead of binary-searching the full candidate ladder from cold, the
/// search **brackets around the previous optimum** `prev_period` with an
/// exponential gallop. Deltas usually move the optimum by only a few
/// candidate positions, so the common case pays `O(log Δ)` Algorithm 2
/// probes (Δ = how far the optimum moved) instead of `O(log n²)` — and each
/// probe additionally reuses `scratch`'s warm admissibility cuts, exactly
/// like the cold search.
///
/// Returns the **same certified optimum** as [`minimize_period`]:
/// feasibility is
/// monotone in the period, both searches select the smallest feasible
/// candidate, they differ only in which probes are evaluated along the way.
///
/// # Errors
///
/// Same as [`minimize_period`].
pub fn repair_minimize_period(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    reliability_bound: f64,
    prev_period: f64,
    scratch: &mut DpScratch,
) -> Result<PeriodOptimal> {
    let candidates = checked_candidates(oracle, chain, platform, reliability_bound)?;
    let len = candidates.len();
    let mut feasible =
        |period: f64| probe(oracle, chain, platform, reliability_bound, period, scratch);

    // Start at the candidate nearest the previous optimum (degenerate
    // `prev_period` just means a worse start, never a wrong answer).
    let start = if prev_period.is_finite() {
        candidates
            .partition_point(|&c| c < prev_period * (1.0 - CANDIDATE_REL_TOL))
            .min(len - 1)
    } else {
        len - 1
    };

    // Gallop up until a feasible candidate brackets the optimum from above.
    let mut hi = start;
    let mut lo_infeasible: Option<usize> = None;
    let mut solution = feasible(candidates[hi]);
    let mut step = 1;
    while solution.is_none() {
        if hi == len - 1 {
            return Err(AlgoError::NoFeasibleMapping);
        }
        lo_infeasible = Some(hi);
        hi = (hi + step).min(len - 1);
        step *= 2;
        solution = feasible(candidates[hi]);
    }
    // If the start itself was feasible, gallop down for an infeasible floor.
    if lo_infeasible.is_none() {
        let mut step = 1;
        while hi > 0 {
            let probe = hi.saturating_sub(step);
            match feasible(candidates[probe]) {
                Some(better) => {
                    solution = Some(better);
                    hi = probe;
                    step *= 2;
                }
                None => {
                    lo_infeasible = Some(probe);
                    break;
                }
            }
        }
    }
    // Close the bracket: invariant `hi` feasible, `lo` infeasible.
    if let Some(mut lo) = lo_infeasible {
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            match feasible(candidates[mid]) {
                Some(better) => {
                    solution = Some(better);
                    hi = mid;
                }
                None => lo = mid,
            }
        }
    }
    let best = solution.expect("bracket always holds a feasible candidate");
    Ok(PeriodOptimal {
        period: candidates[hi],
        mapping: best.mapping,
        reliability: best.reliability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo1::tests::solve as optimize;
    use rpo_model::{MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap()
    }

    fn platform(p: usize, k: usize) -> Platform {
        PlatformBuilder::new()
            .identical_processors(p, 1.0, 1e-3)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(k)
            .build()
            .unwrap()
    }

    /// [`minimize_period`] on a fresh oracle and scratch.
    fn minimize(c: &TaskChain, p: &Platform, reliability_bound: f64) -> Result<PeriodOptimal> {
        let oracle = IntervalOracle::new(c, p);
        minimize_period(&oracle, c, p, reliability_bound, &mut DpScratch::new())
    }

    #[test]
    fn returned_mapping_respects_both_period_and_reliability() {
        let c = chain();
        let p = platform(6, 3);
        let bound = 0.9;
        let sol = minimize(&c, &p, bound).unwrap();
        let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
        assert!(eval.reliability >= bound);
        assert!(eval.worst_case_period <= sol.period + 1e-12);
    }

    #[test]
    fn trivial_reliability_bound_gives_minimal_period() {
        let c = chain();
        let p = platform(6, 3);
        // Any mapping is acceptable reliability-wise: the optimum is the best
        // achievable period, which (with 6 processors and 4 tasks) is the
        // largest single task work = 40.
        let sol = minimize(&c, &p, 1e-12).unwrap();
        assert!((sol.period - 40.0).abs() < 1e-12);
    }

    #[test]
    fn result_is_the_smallest_feasible_candidate() {
        let c = chain();
        let p = platform(6, 3);
        let bound = 0.95;
        let sol = minimize(&c, &p, bound).unwrap();
        // Exhaustive check over a fine grid slightly below the optimum: no
        // strictly smaller period may reach the reliability bound.
        let probe = sol.period - 1e-6;
        let below = optimize(&c, &p, Some(probe));
        match below {
            Err(AlgoError::NoFeasibleMapping) => {}
            Ok(solution) => assert!(solution.reliability < bound),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn infeasible_reliability_bound_is_reported() {
        let c = chain();
        // Single processor, no replication possible: reliability is bounded
        // away from 1, so a bound of 0.999999999 is unreachable.
        let p = platform(1, 1);
        let unconstrained = optimize(&c, &p, None).unwrap();
        let impossible = (unconstrained.reliability + 1.0) / 2.0;
        assert_eq!(
            minimize(&c, &p, impossible).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn tighter_reliability_bounds_never_decrease_the_period() {
        let c = chain();
        let p = platform(6, 3);
        let relaxed = minimize(&c, &p, 0.5).unwrap();
        let max_rel = optimize(&c, &p, None).unwrap().reliability;
        let tight = minimize(&c, &p, max_rel * 0.999999).unwrap();
        assert!(tight.period >= relaxed.period - 1e-12);
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let c = chain();
        let p = platform(4, 2);
        for bad in [0.0, -1.0, 1.5, f64::NAN] {
            assert_eq!(
                minimize(&c, &p, bad).unwrap_err(),
                AlgoError::InvalidBound("reliability bound")
            );
        }
    }

    #[test]
    fn warm_started_binary_search_matches_a_fresh_linear_scan() {
        let c = chain();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        for bound in [0.5, 0.9, 0.95, 0.99] {
            let fast = minimize_period(&oracle, &c, &p, bound, &mut DpScratch::new()).unwrap();
            // Reference: probe every candidate in ascending order with a
            // fresh (cold-scratch) Algorithm 2 run and take the first hit.
            let reference = candidate_periods(&oracle, p.speed(0))
                .into_iter()
                .find_map(|period| match optimize(&c, &p, Some(period)) {
                    Ok(sol) if sol.reliability >= bound => Some((period, sol.reliability)),
                    _ => None,
                })
                .expect("the relaxed bounds are feasible");
            assert_eq!(fast.period, reference.0, "bound {bound}");
            assert!((fast.reliability - reference.1).abs() < 1e-12);
        }
    }

    #[test]
    fn candidates_below_the_single_task_floor_are_pruned() {
        let c = chain(); // largest task work = 40, unit speed
        let p = platform(4, 2);
        let oracle = IntervalOracle::new(&c, &p);
        let candidates = candidate_periods(&oracle, 1.0);
        assert!(!candidates.is_empty());
        for &candidate in &candidates {
            assert!(
                candidate >= 40.0 * (1.0 - CANDIDATE_REL_TOL),
                "candidate {candidate} is below the single-task floor"
            );
        }
    }

    #[test]
    fn tiny_periods_are_not_mis_merged_by_the_dedup() {
        // Distinct single-task computation times of order 1e-11 sit within
        // an *absolute* 1e-12 of each other; a relative tolerance keeps them
        // apart and the minimizer still resolves the true optimum.
        let scale = 1e-12;
        let c = TaskChain::from_pairs(&[
            (30.0 * scale, 2.0 * scale),
            (10.0 * scale, 8.0 * scale),
            (25.0 * scale, 1.0 * scale),
            (40.0 * scale, 3.0 * scale),
        ])
        .unwrap();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let candidates = candidate_periods(&oracle, 1.0);
        // Every distinct interval work ≥ the 40-unit floor must survive
        // (40 and 65 each occur twice and must merge to one candidate).
        let expected = [40.0, 65.0, 75.0, 105.0];
        assert_eq!(candidates.len(), expected.len());
        for (candidate, want) in candidates.iter().zip(expected) {
            assert!(
                (candidate - want * scale).abs() < 1e-9 * scale,
                "candidate {candidate} vs expected {}",
                want * scale
            );
        }
        // And the end-to-end minimizer matches the unscaled instance.
        let tiny = minimize(&c, &p, 1e-12).unwrap();
        assert!((tiny.period - 40.0 * scale).abs() < 1e-9 * scale);
    }
}
