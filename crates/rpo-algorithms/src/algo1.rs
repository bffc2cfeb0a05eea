//! Algorithms 1 and 2: optimal reliability on fully homogeneous platforms,
//! without (Algorithm 1) or under (Algorithm 2) a worst-case period bound.
//! Both are one dynamic program behind one entry, [`optimize_reliability`].
//!
//! `F(i, k)` is the optimal reliability when mapping the first `i` tasks onto
//! exactly `k` processors; the recurrence tries every possible last interval
//! and every possible replication level `q ≤ min(K, k)` for it:
//!
//! `F(i, k) = max_{j < i, 1 ≤ q ≤ min(K,k)} F(j, k−q) · (1 − (1 − r_comm,j · Π r_l · r_comm,i)^q)`
//!
//! The paper only returns the optimal reliability value; this implementation
//! additionally keeps the dynamic-programming choices and reconstructs an
//! actual [`Mapping`] achieving it.
//!
//! Algorithm 2 runs the same recurrence restricted to intervals that respect
//! the period bound: an interval `τ_{j+1} … τ_i` is admissible iff
//! `max(o_j / b, Σ w / s, o_i / b) ≤ P` (its incoming communication, its
//! computation on one processor, and its outgoing communication all fit
//! within one period). Algorithm 1 is the unbounded case `P = +∞`, where
//! every interval is admissible.
//!
//! # Kernel structure
//!
//! The dynamic program runs as a **lane-chunked kernel** ([`DpKernel::Chunked`],
//! the default): for each row `i`, the per-`j` factored replica-block
//! reliabilities are gathered into one contiguous scratch buffer
//! ([`IntervalOracle::fill_class_block_row`] — pure multiplications over the
//! oracle's `exp(−ρW_i)·exp(ρW_j)` prefixes), and the `(q, k)` max-update then
//! runs **value-only** as branch-light fixed-width chunks of [`LANES`] plain
//! `f64` arrays whose multiply-and-max bodies LLVM auto-vectorizes — no
//! `unsafe`, no nightly intrinsics, no traceback bookkeeping in the hot loop
//! (winning `(j, q)` choices are recovered afterwards along the optimal path
//! only, by bit-exact candidate re-scan). The pre-chunking scalar sweep is
//! kept as a reference implementation ([`DpKernel::Scalar`], selected
//! explicitly through [`reliability_dp_with_kernel`]); the workspace
//! property tests assert both kernels agree within `1e-12` — and
//! reconstruct identical mappings — on hundreds of seeded instances, and
//! `BENCH_kernel.json` tracks their relative speed.
//!
//! All interval metrics come from the [`IntervalOracle`]; the DP tables are
//! flat arenas indexed by `i·(p+1) + k` held in a reusable [`DpScratch`], so
//! repeated runs (the period minimizer's binary search) reuse allocations and
//! warm-start the per-row admissibility cuts. The recurrence maximizes over
//! factored (ulp-accurate) values; the *reported* reliability of the
//! reconstructed mapping is then recomputed exactly through the oracle's
//! Eq. 9 path, so it always agrees bit-for-bit with
//! [`rpo_model::MappingEvaluation`].

use rpo_model::{Interval, IntervalOracle, MappedInterval, Mapping, Platform, TaskChain};
use serde::{Deserialize, Serialize};

use crate::{AlgoError, Result};

/// A mapping together with the reliability the dynamic program computed for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimalMapping {
    /// The reconstructed mapping.
    pub mapping: Mapping,
    /// Its reliability (Eq. 9), as computed by the dynamic program.
    pub reliability: f64,
}

/// Sentinel for "no recorded choice" in the flat traceback arena. The arena
/// stores packed `(j, q)` choices as `f64` (exact: they fit in 32 bits, far
/// below 2^53) so the kernel's compare-and-select lanes are homogeneous
/// `f64` operations — mixed `f64`/`u32` selects defeat LLVM's vectorizer.
const NO_CHOICE: f64 = u32::MAX as f64;

/// Chunk width of the lane-chunked max-update: eight `f64`s, i.e. two AVX2
/// vectors or one AVX-512 vector — LLVM splits the fixed-size-array loops
/// into whatever width the target supports.
pub const LANES: usize = 8;

/// Which implementation of the DP inner sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DpKernel {
    /// The lane-chunked kernel (gather + branchless fixed-width max-update).
    #[default]
    Chunked,
    /// The scalar reference sweep (the pre-chunking implementation), kept for
    /// equivalence tests.
    Scalar,
}

/// Reusable state of the dynamic program: the flat value/traceback arenas,
/// the per-row block-reliability gather buffer, and the admissibility data
/// (`in_ok` boundary flags and per-row work-prefix cuts) that the period
/// minimizer warm-starts across its binary-search probes.
#[derive(Debug, Default)]
pub struct DpScratch {
    /// `f[i·stride + k]`: best reliability for the first `i` tasks on `k`
    /// processors (−∞ = unreachable).
    f: Vec<f64>,
    /// Packed winning `(previous boundary j, replica count q)` per state,
    /// stored as exact `f64` integers (see [`NO_CHOICE`]).
    choice: Vec<f64>,
    /// Per-row gather buffer of factored replica-block reliabilities.
    blocks: Vec<f64>,
    /// Per-row compacted admissible interval starts, descending.
    adm: Vec<u32>,
    /// Replicated reliabilities `1 − (1 − block)^q`, `q = 1..=K`, for each
    /// admissible start (parallel to `adm`, `K` entries per start).
    rels: Vec<f64>,
    /// Incoming-communication admissibility per interval start.
    in_ok: Vec<bool>,
    /// Per-row work-prefix partition points from the most recent bounded
    /// run: `pp[i]` = first index with `work_prefix ≥ work_prefix[i] − P·s`.
    /// Carried across period probes so the next run starts its cut walk
    /// from the previous answer instead of a fresh binary search.
    pp: Vec<usize>,
    /// The period bound `pp` was last derived for (`NAN` = never).
    prev_bound: f64,
    /// Shape of the last completed fill of `f`: number of rows (`n + 1`) and
    /// row stride (`p + 1`). Zero until the first sweep. The repair entry
    /// points check this before reusing the grid — a scratch whose shape does
    /// not match the pre-delta instance silently falls back to a full solve.
    dp_rows: usize,
    dp_stride: usize,
    /// Pooled label arenas of the latency-bounded heterogeneous DP
    /// (`algo_het_lat`), so a scratch shared by the portfolio backends also
    /// amortizes the per-state label vectors across latency-bounded solves.
    pub(crate) het_lat: crate::algo_het_lat::HetLatArenas,
}

impl DpScratch {
    /// Fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        DpScratch {
            prev_bound: f64::NAN,
            ..DpScratch::default()
        }
    }

    /// Clears every instance-specific datum (admissibility flags, work-prefix
    /// cuts, warm-start bound) while **keeping the allocated capacity** of
    /// all arenas. This is what makes the scratch safe to pool across
    /// *different* instances of a batch: only the allocations are reused,
    /// never another instance's admissibility data.
    pub fn reset(&mut self) {
        self.f.clear();
        self.choice.clear();
        self.blocks.clear();
        self.adm.clear();
        self.rels.clear();
        self.in_ok.clear();
        self.pp.clear();
        self.prev_bound = f64::NAN;
        self.dp_rows = 0;
        self.dp_stride = 0;
        self.het_lat.reset();
    }
}

/// Algorithms 1 and 2: a mapping of maximal reliability on a fully
/// homogeneous platform, in time `O(n² p K)`. `period_bound: None` runs
/// Algorithm 1; `Some(bound)` runs Algorithm 2, keeping only mappings whose
/// worst-case period does not exceed `bound`.
///
/// `scratch` holds the DP arenas. Repeated runs over the same oracle (the
/// period minimizer's binary search) reuse them and warm-start the
/// admissible-interval cuts from the previous bounded run; batch callers
/// (the portfolio engine's scratch pool) reuse only the allocations across
/// instances. Either way the answer equals a fresh-scratch run's.
///
/// # Errors
///
/// * [`AlgoError::HeterogeneousPlatform`] if the platform is not homogeneous
///   (the dynamic program is only optimal in the homogeneous case);
/// * [`AlgoError::InvalidBound`] if the period bound is not a positive
///   finite number;
/// * [`AlgoError::NoFeasibleMapping`] if no partition of the chain respects
///   the period bound.
pub fn optimize_reliability(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    scratch: &mut DpScratch,
) -> Result<OptimalMapping> {
    crate::debug_assert_oracle_matches(oracle, chain, platform);
    if !oracle.is_homogeneous() {
        return Err(AlgoError::HeterogeneousPlatform);
    }
    let bound = crate::validate_bound(period_bound)?;
    reliability_dp(oracle, chain, platform, bound, DpKernel::Chunked, scratch)
        .ok_or(AlgoError::NoFeasibleMapping)
}

/// Runs the shared dynamic program with an explicit kernel choice on a
/// fresh scratch. This is the measurement and equivalence-testing entry
/// point, and the only way to reach [`DpKernel::Scalar`]: `period_bound:
/// None` is Algorithm 1, `Some(bound)` is Algorithm 2. Neither the platform
/// nor the bound is checked here; use [`optimize_reliability`] for
/// validated solving.
pub fn reliability_dp_with_kernel(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    kernel: DpKernel,
) -> Option<OptimalMapping> {
    let bound = period_bound.unwrap_or(f64::INFINITY);
    reliability_dp(
        oracle,
        chain,
        platform,
        bound,
        kernel,
        &mut DpScratch::new(),
    )
}

/// How a repair DP call obtained its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmPath {
    /// The prior boundary grid was reused: re-picked directly after a
    /// platform shrink, or re-swept only above the first affected row after
    /// a work revision.
    ReusedGrid,
    /// The warm preconditions did not hold; a full cold sweep ran instead.
    Resolved,
}

/// Warm-started **repair** run of the shared dynamic program after a
/// [`rpo_model::PlatformDelta`], reusing the unchanged prefix of the
/// boundary grid left in `scratch` by the pre-delta solve.
///
/// `keep_rows` is the number of leading boundary rows of the prior grid
/// known to be bit-valid for the post-delta instance — the
/// `first_affected_task` of [`rpo_model::AppliedDelta`]:
///
/// * **Platform shrink** (a processor failed on a homogeneous platform,
///   `keep_rows = n`): every row survives. `f[i][k]` — the best reliability
///   of the first `i` tasks on `k` processors — never depends on how many
///   processors exist beyond `k`, so the whole grid remains exact for the
///   smaller platform; the repair just re-picks the best final state over
///   `k ≤ p_new` and retraces through the old (wider-stride) grid.
/// * **Work revision of task `t`** (`keep_rows = t`): row `i` only reads
///   block reliabilities of intervals ending at task `i − 1`, which involve
///   only works of tasks `< i` — so rows `≤ t` are bit-identical and only
///   rows `t + 1 ..= n` are wiped and re-swept (same kernel, same
///   evaluation order, hence bit-identical to a cold solve).
///
/// Falls back to a full cold solve — reported as [`WarmPath::Resolved`] —
/// whenever the preconditions do not hold: scratch shape mismatch (never
/// filled, or filled for a different `n`/`p`), a platform shrink combined
/// with row invalidation, or the scalar reference kernel being the crate
/// default. **The caller must pass the same `period_bound` the scratch was
/// filled under and must not reuse a grid across a factored-path flip**
/// (see `AppliedDelta::factored_changed`) — the repair ladder in
/// `rpo-repair` enforces both.
///
/// Returns `None` when no feasible mapping exists on the post-delta
/// platform (all final states unreachable), exactly like the cold DP.
pub fn repair_reliability_dp(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    period_bound: Option<f64>,
    keep_rows: usize,
    scratch: &mut DpScratch,
) -> Option<(OptimalMapping, WarmPath)> {
    let n = oracle.len();
    let p = oracle.num_processors();
    let bound = period_bound.unwrap_or(f64::INFINITY);
    let stride_prev = scratch.dp_stride;
    let shape_ok = scratch.dp_rows == n + 1
        && stride_prev > p
        && scratch.f.len() == scratch.dp_rows * stride_prev;
    if !shape_ok || (stride_prev > p + 1 && keep_rows < n) {
        return reliability_dp(oracle, chain, platform, bound, DpKernel::Chunked, scratch)
            .map(|solution| (solution, WarmPath::Resolved));
    }

    let _span = rpo_obs::span!("dp.repair", rows = n - keep_rows.min(n), procs = p);
    if stride_prev == p + 1 && keep_rows < n {
        // Wipe only the invalidated suffix of the grid and resweep it; the
        // kept rows are never touched, so they stay bit-identical.
        let row_lo = keep_rows + 1;
        for value in &mut scratch.f[row_lo * stride_prev..] {
            *value = f64::NEG_INFINITY;
        }
        rpo_obs::counter!("dp.kernel.row_sweeps").add((n - keep_rows) as u64);
        chunked_sweep(oracle, bound, scratch, row_lo);
    }

    // The traceback needs current admissibility flags (the scratch may hold
    // another probe's, and a shrink repair skips the sweep that would
    // rebuild them). Communication times are delta-invariant, so these are
    // the same comparisons the original sweep made.
    scratch.in_ok.clear();
    scratch
        .in_ok
        .extend((0..n).map(|j| oracle.input_comm_time(j) <= bound));

    let row_n = n * stride_prev;
    let (best_k, best_rel) = (1..=p).map(|k| (k, scratch.f[row_n + k])).max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("totally ordered reliabilities")
    })?;
    if !best_rel.is_finite() {
        return None;
    }

    let mut segments: Vec<(usize, usize, usize)> = Vec::new();
    let (mut i, mut k) = (n, best_k);
    while i > 0 {
        let (j, q) = recover_choice(oracle, bound, scratch, stride_prev, i, k);
        segments.push((j, i - 1, q));
        i = j;
        k -= q;
    }
    segments.reverse();

    let mut next_processor = 0;
    let mapped = segments
        .into_iter()
        .map(|(first, last, q)| {
            let processors: Vec<usize> = (next_processor..next_processor + q).collect();
            next_processor += q;
            MappedInterval::new(Interval { first, last }, processors)
        })
        .collect();
    let mapping = Mapping::new(mapped, chain, platform)
        .expect("dynamic program only builds structurally valid mappings");
    let reliability = oracle.mapping_reliability(&mapping);
    Some((
        OptimalMapping {
            mapping,
            reliability,
        },
        WarmPath::ReusedGrid,
    ))
}

/// The dynamic program shared by Algorithms 1 and 2 against caller-owned
/// scratch, admitting only intervals whose period requirement fits `bound`
/// (`+∞` admits every interval). The period minimizer passes the same
/// scratch to every binary-search probe, reusing the arenas and
/// warm-starting the admissibility cuts.
fn reliability_dp(
    oracle: &IntervalOracle,
    chain: &TaskChain,
    platform: &Platform,
    bound: f64,
    kernel: DpKernel,
    scratch: &mut DpScratch,
) -> Option<OptimalMapping> {
    let n = oracle.len();
    let p = oracle.num_processors();
    let _span = rpo_obs::span!("dp.kernel", rows = n, procs = p);
    rpo_obs::counter!("dp.kernel.row_sweeps").add(n as u64);
    assert!(
        oracle.max_replication().min(p) <= 0xFF && n < (1 << 24),
        "packed traceback supports K ≤ 255 and n < 2^24"
    );
    let stride = p + 1;
    scratch.f.clear();
    scratch.f.resize((n + 1) * stride, f64::NEG_INFINITY);
    scratch.f[0] = 1.0;
    scratch.dp_rows = n + 1;
    scratch.dp_stride = stride;

    match kernel {
        DpKernel::Chunked => chunked_sweep(oracle, bound, scratch, 1),
        DpKernel::Scalar => {
            // Only the scalar reference sweep records explicit traceback
            // choices; the chunked kernel keeps its hot loop value-only and
            // recovers winners afterwards (see `recover_choice`).
            scratch.choice.clear();
            scratch.choice.resize((n + 1) * stride, NO_CHOICE);
            scalar_sweep(oracle, bound, &mut scratch.f, &mut scratch.choice);
        }
    }

    // Best over every possible total processor count.
    let row_n = n * stride;
    let (best_k, best_rel) = (1..=p).map(|k| (k, scratch.f[row_n + k])).max_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("totally ordered reliabilities")
    })?;
    if !best_rel.is_finite() {
        return None;
    }

    // Traceback: rebuild intervals and replica counts from the end.
    let mut segments: Vec<(usize, usize, usize)> = Vec::new(); // (first, last, replicas)
    let (mut i, mut k) = (n, best_k);
    while i > 0 {
        let (j, q) = match kernel {
            DpKernel::Chunked => recover_choice(oracle, bound, scratch, stride, i, k),
            DpKernel::Scalar => {
                let packed_f = scratch.choice[i * stride + k];
                debug_assert!(
                    packed_f != NO_CHOICE,
                    "reachable state has a recorded choice"
                );
                let packed = packed_f as u32; // exact: integral and < 2^32
                ((packed >> 8) as usize, (packed & 0xFF) as usize)
            }
        };
        segments.push((j, i - 1, q));
        i = j;
        k -= q;
    }
    segments.reverse();

    // Assign concrete processor identifiers in order (the platform is
    // homogeneous, so which processors are picked does not matter).
    let mut next_processor = 0;
    let mapped = segments
        .into_iter()
        .map(|(first, last, q)| {
            let processors: Vec<usize> = (next_processor..next_processor + q).collect();
            next_processor += q;
            MappedInterval::new(Interval { first, last }, processors)
        })
        .collect();
    let mapping = Mapping::new(mapped, chain, platform)
        .expect("dynamic program only builds structurally valid mappings");
    // Report the exact Eq. 9 reliability of the reconstructed mapping (the
    // DP maximized over factored values that can differ by an ulp), so the
    // reported value always matches the evaluator and can be fed back as a
    // reliability bound without borderline misses.
    let reliability = oracle.mapping_reliability(&mapping);
    Some(OptimalMapping {
        mapping,
        reliability,
    })
}

/// The lane-chunked DP sweep. Per row `i`: derive the admissible start range
/// (warm-started work-prefix cut), gather the factored block reliabilities
/// of every candidate interval into `scratch.blocks`, compact the admissible
/// starts with their replication-level reliabilities, then run the `(q, k)`
/// max-update through the value-only [`lane_max_update`] kernel (traceback
/// winners are recovered on demand by [`recover_choice`]).
/// `row_lo` is the first row to (re)compute — 1 for a full sweep; the warm
/// repair path passes `keep_rows + 1` to resweep only the rows invalidated
/// by a task-work revision (rows below it keep their bit-identical values).
fn chunked_sweep(oracle: &IntervalOracle, bound: f64, scratch: &mut DpScratch, row_lo: usize) {
    let n = oracle.len();
    let p = oracle.num_processors();
    let k_max = oracle.max_replication().min(p);
    let speed = oracle.classes()[0].speed;
    let stride = p + 1;
    let work_prefix = oracle.work_prefix();
    let DpScratch {
        f,
        blocks,
        adm,
        rels,
        in_ok,
        pp,
        prev_bound,
        ..
    } = scratch;

    // Incoming-communication admissibility per interval start: exactly the
    // comparisons period_requirement makes (the boundary exponentials were
    // already hoisted into the oracle, so this is n comparisons).
    in_ok.clear();
    in_ok.extend((0..n).map(|j| oracle.input_comm_time(j) <= bound));
    // Warm-start the per-row work-prefix cuts from the previous bounded run
    // when its data is compatible; any stale cut is still a valid walk start,
    // so warmth affects speed only, never the result.
    let warm = prev_bound.is_finite() && pp.len() == n + 1;
    if !warm {
        pp.clear();
        pp.resize(n + 1, 0);
    }

    for i in row_lo..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue; // no interval ending at task i−1 fits the period
        }
        // Conservative first admissible start: the work prefix is strictly
        // increasing, so intervals starting before this point are too big.
        // The exact per-j division below keeps the semantics identical.
        let j_lo = if bound.is_finite() {
            let target = work_prefix[i] - bound * speed;
            let mut point = if warm {
                // Walk the previous probe's cut to the new target (the
                // neighbouring binary-search bound moved it only slightly).
                let mut point = pp[i].min(i);
                while point < i && work_prefix[point] < target {
                    point += 1;
                }
                while point > 0 && work_prefix[point - 1] >= target {
                    point -= 1;
                }
                point
            } else {
                work_prefix[..i].partition_point(|&w| w < target)
            };
            debug_assert_eq!(point, work_prefix[..i].partition_point(|&w| w < target));
            pp[i] = point;
            point = point.saturating_sub(1);
            point
        } else {
            0
        };
        // Gather phase: contiguous factored block reliabilities of every
        // interval `j ..= i−1` with `j ≥ j_lo` (pure multiplications over
        // the oracle's exponent prefixes — no transcendentals in the row),
        // then compact the admissible starts with their per-level replicated
        // reliabilities `1 − (1 − block)^q` (accumulated across q instead of
        // recomputing the power). Descending j: short last intervals (high
        // block reliability) come first, so most later candidates lose the
        // max immediately.
        oracle.fill_class_block_row(0, i - 1, j_lo, blocks);
        adm.clear();
        rels.clear();
        if bound.is_finite() {
            for j in (j_lo..i).rev() {
                if !in_ok[j] || oracle.work(j, i - 1) / speed > bound {
                    continue;
                }
                let block = blocks[j - j_lo];
                adm.push(j as u32);
                let mut all_fail = 1.0;
                for _ in 0..k_max {
                    all_fail *= 1.0 - block;
                    rels.push(1.0 - all_fail);
                }
            }
        } else {
            // Unbounded sweep (Algorithm 1): every interval is admissible —
            // no per-j comparisons or divisions in the gather at all.
            for j in (0..i).rev() {
                let block = blocks[j];
                adm.push(j as u32);
                let mut all_fail = 1.0;
                for _ in 0..k_max {
                    all_fail *= 1.0 - block;
                    rels.push(1.0 - all_fail);
                }
            }
        }
        if adm.is_empty() {
            continue;
        }
        // Split the arena so the target row and the predecessor rows can be
        // iterated as plain slices (j < i, so every predecessor is in `done`).
        let (done, rest) = f.split_at_mut(i * stride);
        let row_i = &mut rest[..stride];
        for (&j, jrels) in adm.iter().zip(rels.chunks_exact(k_max)) {
            let j = j as usize;
            let row_j = &done[j * stride..(j + 1) * stride];
            // Only k = q + prev with prev ∈ [min_prev, max_prev] can
            // improve: j tasks occupy between 1 (j > 0) and min(p, j·K)
            // processors. Inside that window the kernel relies on the −∞
            // sentinels of unreachable predecessor states instead of
            // per-level range checks.
            let min_prev = usize::from(j > 0);
            let max_prev = (j * k_max).min(p);
            lane_max_update(row_j, row_i, min_prev + 1, (max_prev + k_max).min(p), jrels);
        }
    }
    if bound.is_finite() {
        *prev_bound = bound;
    }
}

/// Branch-light chunked max-update over one predecessor boundary `j`: for
/// every state `k \u{2208} [k_lo, k_hi]` and replication level `q`,
/// `row_i[k] = max(row_i[k], row_j[k \u{2212} q]\u{b7}rels[q\u{2212}1])`.
///
/// The hot loop is **value-only** \u{2014} no traceback bookkeeping: winners are
/// recovered after the sweep by [`recover_choice`], so each lane costs one
/// multiply and one max (`vmulpd` + `vmaxpd` once vectorized) instead of a
/// compare plus two selects. The `q` levels are fused into one pass over
/// `k`: each chunk loads a fixed-width `[f64; LANES]` window of the target
/// row once, folds every replication level into it (contiguous shifted loads
/// from `row_j`, no data-dependent branches), and stores it once \u{2014} the
/// shape LLVM auto-vectorizes. Out-of-window `(k, q)` combinations read `\u{2212}\u{221e}`
/// predecessor sentinels and lose every comparison, so no per-`q` range
/// logic survives in the hot loop. The final chunk **overlaps backward**
/// instead of falling off to a scalar tail: re-folding an already-folded
/// state is a no-op under `max`, so overlap changes nothing but keeps every
/// state on the vector path.
#[inline]
fn lane_max_update(row_j: &[f64], row_i: &mut [f64], k_lo: usize, k_hi: usize, rels: &[f64]) {
    let k_max = rels.len();
    if k_lo > k_hi {
        return;
    }
    let mut k = k_lo;
    // Scalar prefix: states where some level would index before the row
    // start (replication capped at q \u{2264} k instead).
    while k <= k_hi && k < k_max {
        update_state(row_j, row_i, k, &rels[..k]);
        k += 1;
    }
    if k > k_hi {
        return;
    }
    if k_hi + 1 - k < LANES {
        // The remaining window is narrower than one lane: finish scalar.
        while k <= k_hi {
            update_state(row_j, row_i, k, rels);
            k += 1;
        }
        return;
    }
    loop {
        // Advance in full lanes; the final chunk is clamped to end exactly
        // at k_hi, overlapping states the previous chunk already folded.
        let start = k.min(k_hi + 1 - LANES);
        let mut val: [f64; LANES] = row_i[start..start + LANES]
            .try_into()
            .expect("lane-width chunk");
        for (level, &rel) in rels.iter().enumerate() {
            let lo = start - (level + 1);
            let src: [f64; LANES] = row_j[lo..lo + LANES].try_into().expect("lane-width chunk");
            for l in 0..LANES {
                let cand = src[l] * rel;
                val[l] = if cand > val[l] { cand } else { val[l] };
            }
        }
        row_i[start..start + LANES].copy_from_slice(&val);
        if start + LANES > k_hi {
            return;
        }
        k = start + LANES;
    }
}

/// One state's value-only fold across the given replication levels.
#[inline]
fn update_state(row_j: &[f64], row_i: &mut [f64], k: usize, rels: &[f64]) {
    let mut val = row_i[k];
    for (level, &rel) in rels.iter().enumerate() {
        let cand = row_j[k - (level + 1)] * rel;
        if cand > val {
            val = cand;
        }
    }
    row_i[k] = val;
}

/// Recovers the winning `(j, q)` choice of the reachable state `(i, k)` by
/// re-scanning the row's candidates **in sweep order** (descending `j`,
/// ascending `q`) for the first one equal to `f[i][k]`.
///
/// The sweep's `max` keeps the first candidate (in evaluation order)
/// attaining the maximum, and the candidate values recomputed here go
/// through the same gather (`fill_class_block_row`) and the same
/// `(1 \u{2212} block)^q` accumulation, so the comparison is bit-exact and the
/// recovered winner is identical to what an in-loop traceback record \u{2014} or
/// the scalar reference sweep \u{2014} would produce. Cost: `O(i\u{b7}K)` per segment
/// of the reconstructed mapping, paid only along the optimal path instead
/// of bookkeeping every state of the `O(n\u{b2} p K)` sweep.
///
/// `stride` is the row stride of `scratch.f` — `p + 1` on the normal path,
/// but the **pre-delta** `p_old + 1` when the shrunken-platform repair path
/// tracebacks through a grid filled before a processor failure (the grid
/// rows stay valid for any `k ≤ p_new`; only their layout remembers the old
/// platform width).
fn recover_choice(
    oracle: &IntervalOracle,
    bound: f64,
    scratch: &mut DpScratch,
    stride: usize,
    i: usize,
    k: usize,
) -> (usize, usize) {
    let p = oracle.num_processors();
    let k_max = oracle.max_replication().min(p);
    let speed = oracle.classes()[0].speed;
    let work_prefix = oracle.work_prefix();
    let j_lo = if bound.is_finite() {
        work_prefix[..i]
            .partition_point(|&w| w < work_prefix[i] - bound * speed)
            .saturating_sub(1)
    } else {
        0
    };
    oracle.fill_class_block_row(0, i - 1, j_lo, &mut scratch.blocks);
    let target = scratch.f[i * stride + k];
    for j in (j_lo..i).rev() {
        if bound.is_finite() && (!scratch.in_ok[j] || oracle.work(j, i - 1) / speed > bound) {
            continue;
        }
        let block = scratch.blocks[j - j_lo];
        let row_j = &scratch.f[j * stride..(j + 1) * stride];
        let mut all_fail = 1.0;
        for q in 1..=k_max.min(k) {
            all_fail *= 1.0 - block;
            if row_j[k - q] * (1.0 - all_fail) == target {
                return (j, q);
            }
        }
    }
    unreachable!("every reachable DP state has a winning candidate")
}

/// The scalar reference sweep: the pre-chunking implementation, preserved
/// verbatim (per-row factored exponent products computed inline, branchy
/// per-`k` max-update). Used by the equivalence tests and the kernel
/// benchmark.
fn scalar_sweep(oracle: &IntervalOracle, bound: f64, f: &mut [f64], choice: &mut [f64]) {
    let n = oracle.len();
    let p = oracle.num_processors();
    let k_max = oracle.max_replication().min(p);
    let speed = oracle.classes()[0].speed;
    let stride = p + 1;
    // Incoming-communication admissibility per interval start, shared by
    // every row (these are exactly the comparisons period_requirement makes).
    let in_ok: Vec<bool> = (0..n).map(|j| oracle.input_comm_time(j) <= bound).collect();
    let work_prefix = oracle.work_prefix();

    // Factored interval reliability: exp(−ρ(W_i − W_j)) = exp(−ρW_i)·exp(ρW_j)
    // over the log-reliability exponent prefix, turning the n²/2 per-interval
    // `exp`s into 2(n+1). Only safe while the exponents stay small (they are
    // for any instance whose reliabilities are not denormal-degenerate);
    // otherwise fall back to one exact `exp` per admissible interval.
    let class = oracle.classes()[0];
    let rho = class.failure_rate / class.speed;
    let factored = rho * oracle.total_work() <= 40.0;
    let (e_minus, e_plus): (Vec<f64>, Vec<f64>) = if factored {
        (
            work_prefix.iter().map(|&w| (-rho * w).exp()).collect(),
            work_prefix.iter().map(|&w| (rho * w).exp()).collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };

    for i in 1..=n {
        if oracle.output_comm_time(i - 1) > bound {
            continue; // no interval ending at task i−1 fits the period
        }
        let out_rel = oracle.output_comm_reliability(i - 1);
        let j_lo = if bound.is_finite() {
            work_prefix[..i]
                .partition_point(|&w| w < work_prefix[i] - bound * speed)
                .saturating_sub(1)
        } else {
            0
        };
        let (done, rest) = f.split_at_mut(i * stride);
        let row_i = &mut rest[..stride];
        let choices = i * stride;
        for j in (j_lo..i).rev() {
            if !in_ok[j] || oracle.work(j, i - 1) / speed > bound {
                continue;
            }
            let block = if factored {
                oracle.input_comm_reliability(j) * (e_minus[i] * e_plus[j]) * out_rel
            } else {
                oracle.class_block_reliability(0, j, i - 1)
            };
            let row_j = &done[j * stride..(j + 1) * stride];
            let min_prev = usize::from(j > 0);
            let max_prev = (j * k_max).min(p);
            let mut all_fail = 1.0;
            for q in 1..=k_max {
                all_fail *= 1.0 - block;
                let rel_interval = 1.0 - all_fail;
                let hi = max_prev.min(p - q);
                if min_prev > hi {
                    continue;
                }
                let base = q + min_prev;
                let packed = ((j as u32) << 8 | q as u32) as f64;
                for (offset, &prev) in row_j[min_prev..=hi].iter().enumerate() {
                    let rel = prev * rel_interval;
                    let k = base + offset;
                    if rel > row_i[k] {
                        row_i[k] = rel;
                        choice[choices + k] = packed;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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

    /// Algorithm 1 (`None`) or 2 on a fresh oracle and scratch (shared by
    /// the tests of the modules built on the dynamic program).
    pub(crate) fn solve(
        c: &TaskChain,
        p: &Platform,
        period_bound: Option<f64>,
    ) -> Result<OptimalMapping> {
        let oracle = IntervalOracle::new(c, p);
        optimize_reliability(&oracle, c, p, period_bound, &mut DpScratch::new())
    }

    #[test]
    fn rejects_heterogeneous_platform() {
        let c = chain();
        let p = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-3)
            .max_replication(2)
            .build()
            .unwrap();
        assert_eq!(
            solve(&c, &p, None).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
    }

    #[test]
    fn reported_reliability_matches_evaluation_of_returned_mapping() {
        let c = chain();
        let p = platform(6, 3);
        let sol = solve(&c, &p, None).unwrap();
        let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
        assert!((sol.reliability - eval.reliability).abs() < 1e-12);
    }

    #[test]
    fn single_processor_forces_single_unreplicated_interval() {
        let c = chain();
        let p = platform(1, 3);
        let sol = solve(&c, &p, None).unwrap();
        assert_eq!(sol.mapping.num_intervals(), 1);
        assert_eq!(sol.mapping.processors_used(), 1);
    }

    #[test]
    fn plenty_of_processors_replicates_every_interval_k_times() {
        let c = chain();
        let p = platform(12, 3);
        let sol = solve(&c, &p, None).unwrap();
        for mi in sol.mapping.intervals() {
            assert_eq!(mi.replication(), 3);
        }
    }

    #[test]
    fn optimum_matches_brute_force_on_small_instance() {
        let c = TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0)]).unwrap();
        let p = platform(4, 2);
        let sol = solve(&c, &p, None).unwrap();
        let brute = crate::exact::brute_force(&c, &p, f64::INFINITY, f64::INFINITY).unwrap();
        assert!((sol.reliability - brute.reliability).abs() < 1e-12);
    }

    #[test]
    fn more_processors_never_hurt_reliability() {
        let c = chain();
        let mut previous = 0.0;
        for p_count in 1..=8 {
            let p = platform(p_count, 3);
            let sol = solve(&c, &p, None).unwrap();
            assert!(sol.reliability >= previous - 1e-15);
            previous = sol.reliability;
        }
    }

    #[test]
    fn bound_is_respected_by_returned_mapping() {
        let c = chain();
        let p = platform(6, 3);
        for bound in [40.0, 45.0, 60.0, 105.0] {
            let sol = solve(&c, &p, Some(bound)).unwrap();
            let eval = MappingEvaluation::evaluate(&c, &p, &sol.mapping);
            assert!(
                eval.worst_case_period <= bound + 1e-12,
                "period {} exceeds bound {bound}",
                eval.worst_case_period
            );
            assert!((sol.reliability - eval.reliability).abs() < 1e-12);
        }
    }

    #[test]
    fn infeasible_when_one_task_exceeds_the_bound() {
        let c = chain(); // largest task work = 40
        let p = platform(6, 3);
        assert_eq!(
            solve(&c, &p, Some(39.0)).unwrap_err(),
            AlgoError::NoFeasibleMapping
        );
    }

    #[test]
    fn large_bound_recovers_unconstrained_optimum() {
        let c = chain();
        let p = platform(6, 3);
        let constrained = solve(&c, &p, Some(1e9)).unwrap();
        let unconstrained = solve(&c, &p, None).unwrap();
        assert!((constrained.reliability - unconstrained.reliability).abs() < 1e-15);
    }

    #[test]
    fn tighter_bounds_never_increase_reliability() {
        let c = chain();
        let p = platform(6, 3);
        let mut previous = f64::INFINITY;
        for bound in [200.0, 105.0, 70.0, 45.0, 40.0] {
            let sol = solve(&c, &p, Some(bound)).unwrap();
            assert!(sol.reliability <= previous + 1e-15);
            previous = sol.reliability;
        }
    }

    #[test]
    fn matches_brute_force_under_period_bound() {
        let c = TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0)]).unwrap();
        let p = platform(4, 2);
        for bound in [30.0, 40.0, 66.0] {
            let sol = solve(&c, &p, Some(bound)).unwrap();
            let brute = crate::exact::brute_force(&c, &p, bound, f64::INFINITY).unwrap();
            assert!(
                (sol.reliability - brute.reliability).abs() < 1e-12,
                "bound {bound}: dp {} vs brute force {}",
                sol.reliability,
                brute.reliability
            );
        }
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let c = chain();
        let p = platform(4, 2);
        assert_eq!(
            solve(&c, &p, Some(0.0)).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
        assert_eq!(
            solve(&c, &p, Some(f64::NAN)).unwrap_err(),
            AlgoError::InvalidBound("period bound")
        );
        let het = PlatformBuilder::new()
            .processor(1.0, 1e-3)
            .processor(2.0, 1e-3)
            .max_replication(2)
            .build()
            .unwrap();
        assert_eq!(
            solve(&c, &het, Some(100.0)).unwrap_err(),
            AlgoError::HeterogeneousPlatform
        );
    }

    #[test]
    fn period_bound_forces_smaller_intervals() {
        let c = chain();
        let p = platform(8, 1); // no replication, plenty of processors
        let relaxed = solve(&c, &p, Some(1000.0)).unwrap();
        let tight = solve(&c, &p, Some(40.0)).unwrap();
        assert!(tight.mapping.num_intervals() > relaxed.mapping.num_intervals());
    }

    #[test]
    fn chunked_and_scalar_kernels_agree_on_fixture() {
        let c = chain();
        for p_count in 1..=8 {
            for k in 1..=3 {
                let p = platform(p_count, k);
                let oracle = IntervalOracle::new(&c, &p);
                for bound in [None, Some(40.0), Some(45.0), Some(70.0), Some(1e6)] {
                    let chunked =
                        reliability_dp_with_kernel(&oracle, &c, &p, bound, DpKernel::Chunked);
                    let scalar =
                        reliability_dp_with_kernel(&oracle, &c, &p, bound, DpKernel::Scalar);
                    match (chunked, scalar) {
                        (Some(a), Some(b)) => {
                            assert!((a.reliability - b.reliability).abs() < 1e-12);
                            assert_eq!(a.mapping, b.mapping, "kernels picked different mappings");
                        }
                        (None, None) => {}
                        (a, b) => panic!(
                            "kernel feasibility mismatch at p={p_count} k={k} bound={bound:?}: \
                             chunked={} scalar={}",
                            a.is_some(),
                            b.is_some()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_bounds_matches_fresh_runs() {
        let c = chain();
        let p = platform(6, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let mut scratch = DpScratch::new();
        // Bounds in binary-search-like (non-monotone) order.
        for bound in [105.0, 45.0, 70.0, 40.0, 1e9, 41.0] {
            let warm = optimize_reliability(&oracle, &c, &p, Some(bound), &mut scratch);
            let fresh = reliability_dp_with_kernel(&oracle, &c, &p, Some(bound), DpKernel::Chunked);
            assert_eq!(
                warm.ok().map(|s| (s.reliability, s.mapping)),
                fresh.map(|s| (s.reliability, s.mapping)),
                "warm scratch diverged at bound {bound}"
            );
        }
    }

    #[test]
    fn oracle_replicated_reliability_includes_communications() {
        let c = chain();
        let p = platform(4, 3);
        let oracle = IntervalOracle::new(&c, &p);
        let r1 = oracle.replicated_reliability(1, 2, 1);
        // Manual: in-comm o_0 = 2, W = 35, out-comm o_2 = 1.
        let expected = (-1e-4f64 * 2.0).exp() * (-1e-3f64 * 35.0).exp() * (-1e-4f64 * 1.0).exp();
        assert!((r1 - expected).abs() < 1e-12);
        let r2 = oracle.replicated_reliability(1, 2, 2);
        assert!((r2 - (1.0 - (1.0 - expected).powi(2))).abs() < 1e-12);
        assert!(r2 > r1);
    }
}
