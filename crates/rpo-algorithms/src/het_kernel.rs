//! The chunked kernel of the heterogeneous class DP: the gather/compact/
//! sweep treatment of [`crate::algo1`]'s lane-chunked kernel, applied to
//! [`crate::algo_het`](mod@crate::algo_het)'s budget-state recurrence.
//!
//! The scalar class DP walks, per `(boundary j, pattern q)` transition, the
//! pattern's `valid_predecessors` index list — a gather-scatter loop whose
//! indirect loads, per-candidate finiteness test and inline prune-and-record
//! branches defeat vectorization. Worse, its vectorizable axis is the state
//! list, which fragments into mixed-radix runs of length `m_0 + 1 − q_0`
//! (a handful of elements) — too short for SIMD. This kernel restructures
//! the recurrence around the **boundary axis** instead, in three phases:
//!
//! 1. **Gather** — per DP row `i` and pattern `q`, one call to
//!    [`IntervalOracle::fill_pattern_block_row`] fills a contiguous scratch
//!    row with the pattern's replicated reliabilities
//!    `1 − Π_c (1 − block_c(j, i−1))^{q_c}` for every start `j` from the
//!    pattern's own first admissible boundary (each pattern's `min_speed`
//!    bounds how long an interval it can fit in the period), using the same
//!    factored class-block expressions (and the same multiplication order)
//!    as the scalar DP's per-`j` power table, so every candidate value is
//!    **bit-identical** to the scalar kernel's. Boundaries cut by the input
//!    communication time are NaN-poisoned in place of the scalar kernel's
//!    per-`j` branch: a NaN candidate loses every max select.
//! 2. **Compact** — the DP table is stored **state-major** (`f[s][0..=n]`
//!    contiguous per budget state), and the valid predecessor states of
//!    each pattern are precomputed once per solve as dense `(start, len)`
//!    mixed-radix ranges (`Pattern::runs`). Together they turn every
//!    `(pattern, state)` transition into two contiguous same-length rows:
//!    the predecessor's boundary row and the pattern's gathered
//!    reliability row.
//! 3. **Sweep** — one value-only multiply-and-max *reduction* along the
//!    boundary axis per `(pattern, state)` pair (`col_max_mul`), in
//!    fixed-width `[f64; 8]` accumulator chunks (plain multiply-and-select
//!    bodies LLVM auto-vectorizes). The reduction length is the admissible
//!    boundary span — tens to hundreds of lanes-worth of work, not a
//!    run-length handful. No traceback bookkeeping, finiteness test, or
//!    prune branch survives in the hot loop: `−∞` predecessors lose every
//!    `cand > acc` select naturally (a `−∞ · 0.0 = NaN` candidate also
//!    loses), the max over the candidate multiset is order-independent, and
//!    the greedy-incumbent prune is applied as a post-hoc column filter — a
//!    state's final value is the max over its candidates whenever that max
//!    clears the cut, exactly the value the scalar per-candidate cut
//!    produces, and `−∞` otherwise.
//!
//! # Traceback
//!
//! The hot loop records no choices. After the sweep, the winning
//! `(j, pattern)` chain is recovered post hoc by re-scanning candidates in
//! the **scalar kernel's sweep order** (descending `j`, ascending pattern)
//! and taking the first bit-exact equality with the state's final value —
//! the same first-winner the scalar kernel's strict-improvement updates
//! record, so the recovered segments (and the lowered mapping) are
//! identical. The scalar path stays available through
//! [`class_dp_with_kernel`](crate::class_dp_with_kernel) as the differential
//! reference; `tests/het.rs` asserts the equivalence on seeded random
//! instances.

use rpo_model::{assignment_from_segments, IntervalOracle, Platform, TaskChain};

use crate::algo1::{OptimalMapping, LANES};
use crate::algo_het::{budget_states, class_strides, enumerate_patterns, Pattern};
use crate::validate_bound;

/// The chunked class-level DP: same contract as the scalar
/// `algo_het::class_dp_scalar` (`None` = nothing feasible under the bound
/// survived the `incumbent` cut), same DP table bit for bit, same lowered
/// mapping.
pub(crate) fn class_dp_chunked(
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
    let _span = rpo_obs::span!(
        "dp.het_kernel",
        rows = n,
        states = num_states,
        patterns = patterns.len()
    );

    let bound = validate_bound(period_bound).expect("caller validates the bound");
    // Any DP prefix strictly below the incumbent can never catch up (every
    // later factor is ≤ 1); a hair of slack keeps factored-vs-exact ulp
    // differences from over-pruning. Applied post hoc per column: a state
    // max below the cut becomes −∞, exactly as if every candidate had been
    // rejected by the scalar kernel's per-candidate test.
    let prune_below = incumbent * (1.0 - 1e-9);
    let work_prefix = oracle.work_prefix();
    let max_speed = view.max_speed();
    let in_ok: Vec<bool> = (0..n).map(|j| oracle.input_comm_time(j) <= bound).collect();

    let full = num_states - 1; // every budget digit at its maximum m_c
    let stride = n + 1; // boundary row length of the state-major table
    let mut f = vec![f64::NEG_INFINITY; num_states * stride];
    f[full * stride] = 1.0;

    // Per-pattern gathered reliability rows and per-pattern exact first
    // admissible boundaries, reused across DP rows.
    let mut prels: Vec<Vec<f64>> = vec![Vec::new(); patterns.len()];
    let mut pattern_lo = vec![0usize; patterns.len()];

    for i in 1..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue; // no interval ending at task i−1 fits the period
        }
        gather_rows(
            oracle,
            &patterns,
            work_prefix,
            bound,
            &in_ok,
            i,
            &mut prels,
            &mut pattern_lo,
        );
        for ((pattern, prow), &start) in patterns.iter().zip(&prels).zip(&pattern_lo) {
            if start >= i {
                continue; // the pattern admits no interval ending at i−1
            }
            for &(lo, len) in &pattern.runs {
                for s in lo as usize..lo as usize + len as usize {
                    let acc = col_max_mul(&f[s * stride + start..s * stride + i], prow);
                    let dst = &mut f[(s - pattern.offset) * stride + i];
                    if acc > *dst {
                        *dst = acc;
                    }
                }
            }
        }
        // Post-hoc prune filter: see the module docs for why this equals
        // the scalar kernel's per-candidate cut.
        for s in 0..num_states {
            let value = &mut f[s * stride + i];
            if *value < prune_below {
                *value = f64::NEG_INFINITY;
            }
        }
    }

    // Best over every remaining-budget state at the final boundary — the
    // same iteration (and tie resolution) as the scalar kernel's.
    let (best_state, best_rel) =
        (0..num_states)
            .map(|s| (s, f[s * stride + n]))
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("totally ordered reliabilities")
            })?;
    if !best_rel.is_finite() {
        return None;
    }

    // Post-hoc traceback: re-scan candidates in the scalar sweep order,
    // first bit-exact equality wins (= the scalar kernel's recorded
    // strict-improvement winner), then lower deterministically.
    let mut segments: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    let mut digits = vec![0usize; kc];
    let (mut i, mut s) = (n, best_state);
    while i > 0 {
        let target = f[s * stride + i];
        let j_lo = row_start(work_prefix, i, bound, max_speed);
        gather_rows(
            oracle,
            &patterns,
            work_prefix,
            bound,
            &in_ok,
            i,
            &mut prels,
            &mut pattern_lo,
        );
        // A pattern can reach state s only when spending it does not push
        // any budget digit past its class size.
        for (c, digit) in digits.iter_mut().enumerate() {
            *digit = s / strides[c] % (view.class(c).members + 1);
        }
        let mut found = None;
        'scan: for j in (j_lo..i).rev() {
            if !in_ok[j] {
                continue;
            }
            for ((pattern, prow), &lo_p) in patterns.iter().zip(&prels).zip(&pattern_lo) {
                if j < lo_p {
                    continue; // the pattern admits no interval starting at j
                }
                if digits
                    .iter()
                    .enumerate()
                    .any(|(c, &b)| b + pattern.counts[c] > view.class(c).members)
                {
                    continue; // no predecessor state spends this pattern into s
                }
                if f[(s + pattern.offset) * stride + j] * prow[j - lo_p] == target {
                    found = Some((j, pattern));
                    break 'scan;
                }
            }
        }
        let (j, pattern) = found.expect("every reachable DP state has a winning candidate");
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

/// The gather phase of DP row `i`: per pattern, the exact first admissible
/// boundary (the conservative `row_start` estimate advanced with the scalar
/// kernel's own `work / min_speed > bound` test — monotone in `j`, so the
/// scan settles in a step or two) and the contiguous replicated-reliability
/// row from that boundary, with input-communication-cut boundaries
/// NaN-poisoned so they lose every select of the sweep reduction.
#[allow(clippy::too_many_arguments)]
fn gather_rows(
    oracle: &IntervalOracle,
    patterns: &[Pattern],
    work_prefix: &[f64],
    bound: f64,
    in_ok: &[bool],
    i: usize,
    prels: &mut [Vec<f64>],
    pattern_lo: &mut [usize],
) {
    for ((pattern, prow), lo_p) in patterns
        .iter()
        .zip(prels.iter_mut())
        .zip(pattern_lo.iter_mut())
    {
        let mut start = row_start(work_prefix, i, bound, pattern.min_speed);
        while start < i && (work_prefix[i] - work_prefix[start]) / pattern.min_speed > bound {
            start += 1;
        }
        *lo_p = start;
        if start >= i {
            continue;
        }
        oracle.fill_pattern_block_row(&pattern.counts, i - 1, start, prow);
        for (slot, j) in (start..i).enumerate() {
            if !in_ok[j] {
                prow[slot] = f64::NAN;
            }
        }
    }
}

/// Conservative first admissible interval start of DP row `i` for a class
/// of the given speed (the exact per-pattern start is settled by the
/// division test in [`gather_rows`]; the scalar kernel re-checks the same
/// division per candidate).
#[inline]
fn row_start(work_prefix: &[f64], i: usize, bound: f64, speed: f64) -> usize {
    if bound.is_finite() {
        work_prefix[..i]
            .partition_point(|&w| w < work_prefix[i] - bound * speed)
            .saturating_sub(1)
    } else {
        0
    }
}

/// The value-only multiply-and-max reduction along one dense boundary row:
/// `max_t (src[t] · rel[t])` in fixed-width `[f64; LANES]` accumulator
/// chunks (plain multiply-and-select bodies LLVM auto-vectorizes), with a
/// scalar tail for the remainder. `−∞` predecessors and `NaN`-poisoned
/// boundaries (and the `NaN` a `−∞ · 0.0` candidate produces) lose every
/// select, and the max over the candidate multiset is order-independent,
/// so the result is bit-identical to the scalar kernel's sequential
/// strict-improvement fold.
#[inline]
fn col_max_mul(src: &[f64], rel: &[f64]) -> f64 {
    debug_assert_eq!(src.len(), rel.len());
    let len = src.len();
    let mut acc = [f64::NEG_INFINITY; LANES];
    let mut t = 0;
    while t + LANES <= len {
        let values: [f64; LANES] = src[t..t + LANES].try_into().expect("lane-width window");
        let rels: [f64; LANES] = rel[t..t + LANES].try_into().expect("lane-width window");
        for lane in 0..LANES {
            let cand = values[lane] * rels[lane];
            if cand > acc[lane] {
                acc[lane] = cand;
            }
        }
        t += LANES;
    }
    let mut best = f64::NEG_INFINITY;
    for lane_max in acc {
        if lane_max > best {
            best = lane_max;
        }
    }
    while t < len {
        let cand = src[t] * rel[t];
        if cand > best {
            best = cand;
        }
        t += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_max_mul_matches_the_scalar_fold_across_widths() {
        for len in [0, 1, 3, LANES - 1, LANES, LANES + 1, 3 * LANES + 2] {
            let src: Vec<f64> = (0..len)
                .map(|t| {
                    if t % 3 == 0 {
                        f64::NEG_INFINITY
                    } else {
                        0.9 - 0.01 * t as f64
                    }
                })
                .collect();
            let rel: Vec<f64> = (0..len).map(|t| 0.75 + 0.002 * t as f64).collect();
            let mut reference = f64::NEG_INFINITY;
            for (&s, &r) in src.iter().zip(&rel) {
                let cand = s * r;
                if cand > reference {
                    reference = cand;
                }
            }
            assert_eq!(col_max_mul(&src, &rel), reference, "len {len}");
        }
    }

    #[test]
    fn poisoned_candidates_lose_every_select() {
        // −∞ predecessors against rel = 0.0 produce NaN candidates, and
        // NaN-poisoned boundaries against finite predecessors do too — both
        // must leave the reduction at −∞ (the scalar kernel skips them via
        // its finiteness test and its input-communication branch).
        let poisoned = [f64::NEG_INFINITY, 1.0, f64::NEG_INFINITY, 0.5];
        let rels = [0.0, f64::NAN, 0.9, f64::NAN];
        assert_eq!(col_max_mul(&poisoned, &rels), f64::NEG_INFINITY);
        let mixed = [f64::NEG_INFINITY, 0.8, 0.9];
        let rels = [0.9, 0.5, f64::NAN];
        assert_eq!(col_max_mul(&mixed, &rels), 0.4);
    }
}
