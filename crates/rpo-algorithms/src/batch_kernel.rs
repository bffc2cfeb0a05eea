//! Batched structure-of-arrays mega-kernel: the Algorithm 1/2 dynamic
//! program over **many same-shape instances in lockstep**.
//!
//! The lane-chunked kernel of [`crate::algo1`] vectorizes *within* one solve:
//! its fixed-width `[f64; LANES]` window holds LANES *states* of one
//! instance. At batch scale the win is vectorizing *across* solves: this
//! module runs up to [`LANES`] homogeneous instances of near-identical shape
//! (same processor count `p` and replication bound `K`, possibly differing
//! task counts `n`, differing work/failure/speed numerics) through the same
//! recurrence simultaneously, one instance per SIMD lane.
//!
//! # Near-shape lane padding
//!
//! Lanes need not share the task count: arenas are sized for the longest
//! lane (`n_max`), and a shorter lane simply stops participating past its
//! own final row. The gather NaN-poisons a finished lane's columns
//! ([`IntervalOracle::fill_class_block_row_lanes`]), its row liveness goes
//! false (so its candidates are masked exactly like a period-excluded row),
//! its DP rows past its own `n` stay at the `−∞` sentinel, and its finish
//! reads the best final state at row `n_lane`, not `n_max`. Results are
//! therefore bit-identical to the same-shape case; the only cost is the
//! dead arena slack, which the `dp.batch.padded_lanes` counter reports.
//!
//! # Lane-major layout
//!
//! Every arena of [`BatchScratch`] is **lane-major**: the values of one DP
//! state across all instances are contiguous, so the state is addressed
//! first and the instance lane second —
//!
//! * value arena: `f[(i·(p+1) + k)·LANES + lane]`,
//! * gather rows: `blocks[(first − first_lo)·LANES + lane]`
//!   ([`IntervalOracle::fill_class_block_row_lanes`], one call per row for
//!   the whole batch),
//! * replicated reliabilities: `rels[(idx·K + q−1)·LANES + lane]` for the
//!   `idx`-th admissible interval start of the row.
//!
//! The inner max-update then loads one `[f64; LANES]` window per state —
//! *one state across LANES instances* — and folds every replication level
//! into it with plain multiply-and-max bodies that LLVM auto-vectorizes,
//! exactly like the single-instance kernel but with the per-row control flow
//! (bounds checks, admissibility binary searches, gather bookkeeping) paid
//! **once per batch** instead of once per instance.
//!
//! # Masking rules
//!
//! Lanes diverge only through admissibility: a period-bounded lane can
//! exclude an interval start (or a whole row) that other lanes admit. The
//! kernel realizes the per-lane "−∞ mask" by **NaN-poisoning the masked
//! lane's replicated reliabilities**: a masked candidate `f·NaN` is `NaN`,
//! and the kernel's `cand > val` select is always false for `NaN`, so the
//! masked lane's state is left untouched. (A literal `−∞` reliability would
//! be unsafe — `(−∞ predecessor)·(−∞ rel) = +∞` would *win* the max — and a
//! `0.0` reliability would falsely mark unreachable states reachable with
//! value `0`.) Masks are computed once per `(row, start, lane)` outside the
//! hot state loop; the value arena itself never holds a `NaN`.
//!
//! Feasibility falls out of the same rule: a lane whose every candidate is
//! masked keeps its `−∞` sentinels and reports `None`, exactly as the
//! single-instance bounded DP does.
//!
//! # Traceback
//!
//! The hot loop is value-only. After the sweep, each lane's winning `(j, q)`
//! choices are recovered post hoc by bit-exact candidate re-scan **in sweep
//! order** (descending `j`, ascending `q`, first equality wins), exactly as
//! [`crate::algo1`]'s chunked kernel does — the gathered blocks and the
//! `(1 − block)^q` accumulation are reproduced operation for operation, so
//! the recovered mappings are identical to the per-instance kernel's.
//!
//! # Register-blocked fold
//!
//! The inner max-update is a register-blocked fold, chunk-outer and
//! boundary-inner: a block of [`WIDE_BLOCK`] lane-wide state accumulators
//! is loaded into vector registers once, *every* `(j, q)` candidate of the
//! row is folded into the block, and it is stored once; per boundary, the
//! `WIDE_BLOCK + 2` distinct predecessor windows are also loaded once and
//! shared across all `(state, q)` combinations, so each candidate costs
//! roughly one multiply and one max from registers instead of three memory
//! operations. Out-of-window candidates read `−∞` sentinels and lose
//! naturally, and the replication cap is monomorphized for the paper-scale
//! `K ≤ 3` so the level loop fully unrolls. The differential reference is
//! the per-instance kernel ([`crate::reliability_dp_with_kernel`]), which
//! every lane must reproduce bit for bit.

use rpo_model::{Interval, IntervalOracle, MappedInterval, Mapping, Platform, TaskChain};

use crate::algo1::{OptimalMapping, LANES};

/// One instance of a same-shape batch: its prebuilt oracle, the chain and
/// platform it was built from, and the optional Algorithm 2 period bound
/// (`None` runs the unbounded Algorithm 1 recurrence for this lane).
#[derive(Debug, Clone, Copy)]
pub struct BatchLane<'a> {
    /// The instance's prebuilt interval oracle.
    pub oracle: &'a IntervalOracle,
    /// The task chain the oracle was built from.
    pub chain: &'a TaskChain,
    /// The (homogeneous) platform the oracle was built from.
    pub platform: &'a Platform,
    /// Worst-case period bound (Algorithm 2), or `None` for Algorithm 1.
    pub period_bound: Option<f64>,
}

/// Reusable lane-major arenas of the batched DP: the SoA growth of
/// [`crate::DpScratch`]'s flat single-instance arenas. Buffers are sized
/// lazily per chunk and keep their capacity across [`Self::reset`].
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Lane-major value arena: `f[(i·stride + k)·LANES + lane]`.
    f: Vec<f64>,
    /// Lane-major per-row gather of factored replica-block reliabilities.
    blocks: Vec<f64>,
    /// Lane-major replicated reliabilities per admissible start and level
    /// (`NaN` = masked lane; see the module docs).
    rels: Vec<f64>,
    /// Per-row compacted interval starts admissible in at least one lane,
    /// descending.
    adm: Vec<u32>,
    /// Lane-major incoming-communication admissibility per interval start.
    in_ok: Vec<bool>,
    /// Single-lane gather buffer for the post-hoc traceback re-scan.
    row: Vec<f64>,
}

impl BatchScratch {
    /// Fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Clears every instance-specific datum while keeping the allocated
    /// capacity of all arenas, so one scratch can be reused across buckets.
    pub fn reset(&mut self) {
        self.f.clear();
        self.blocks.clear();
        self.rels.clear();
        self.adm.clear();
        self.in_ok.clear();
        self.row.clear();
    }
}

/// Runs the Algorithm 1/2 dynamic program over a batch of same-shape
/// homogeneous instances in lockstep, one instance per SIMD lane, returning
/// each lane's optimal mapping (`None` = infeasible under its bound) in
/// input order.
///
/// Results are bit-identical to running [`crate::reliability_dp_with_scratch`]
/// with the chunked kernel per instance: same feasibility verdicts, same DP
/// values, same reconstructed mappings (the workspace differential suite
/// asserts exactly that). Batches larger than [`LANES`] are processed in
/// chunks of `LANES`; partial chunks run with the dead lanes masked.
///
/// # Panics
///
/// Panics if any lane's platform is heterogeneous or its shape
/// `(p, k_max)` differs from the first lane's (task counts may differ:
/// shorter lanes run padded; see the module docs).
pub fn solve_batch(
    lanes: &[BatchLane<'_>],
    scratch: &mut BatchScratch,
) -> Vec<Option<OptimalMapping>> {
    let mut out = Vec::with_capacity(lanes.len());
    for chunk in lanes.chunks(LANES) {
        solve_chunk(chunk, scratch, &mut out);
    }
    out
}

/// One lockstep chunk of at most [`LANES`] instances.
fn solve_chunk(
    chunk: &[BatchLane<'_>],
    scratch: &mut BatchScratch,
    out: &mut Vec<Option<OptimalMapping>>,
) {
    let width = chunk.len();
    let lead = &chunk[0];
    let p = lead.oracle.num_processors();
    let k_max = lead.oracle.max_replication().min(p);
    let stride = p + 1;
    // Near-shape padding: lanes must agree on (p, k_max) but may differ in
    // task count. Arenas are sized for the longest lane; shorter lanes run
    // padded — their rows past their own n stay −∞ (their candidates are
    // NaN-masked), and each lane finishes at its *own* final row.
    let n_max = chunk
        .iter()
        .map(|lane| lane.oracle.len())
        .max()
        .expect("chunks are non-empty");
    let padded = chunk
        .iter()
        .filter(|lane| lane.oracle.len() < n_max)
        .count();
    let _span = rpo_obs::span!("dp.batch_kernel", rows = n_max, procs = p, lanes = width);
    rpo_obs::counter!("dp.batch.lanes_occupied").add(width as u64);
    rpo_obs::counter!("dp.batch.padded_lanes").add(padded as u64);
    rpo_obs::histogram!("batch.lane_occupancy").record_nanos(width as u64);
    assert!(
        k_max <= 0xFF && n_max < (1 << 24),
        "packed traceback supports K ≤ 255 and n < 2^24"
    );
    for lane in chunk {
        assert!(
            lane.oracle.is_homogeneous(),
            "the batch kernel requires homogeneous lanes"
        );
        assert!(
            lane.oracle.num_processors() == p && lane.oracle.max_replication().min(p) == k_max,
            "every lane of a batch must share the (p, k_max) shape"
        );
    }

    // Pad the gather set to full width with the last real lane; padded lanes
    // are masked everywhere (`active`), so their gathered values are dead.
    let oracles: Vec<&IntervalOracle> = (0..LANES)
        .map(|lane| chunk[lane.min(width - 1)].oracle)
        .collect();
    let mut bounds = [f64::INFINITY; LANES];
    let mut speeds = [1.0f64; LANES];
    let mut active = [false; LANES];
    let mut ns = [0usize; LANES];
    for (lane, instance) in chunk.iter().enumerate() {
        bounds[lane] = instance.period_bound.unwrap_or(f64::INFINITY);
        speeds[lane] = instance.oracle.classes()[0].speed;
        active[lane] = true;
        ns[lane] = instance.oracle.len();
    }

    scratch.f.clear();
    scratch
        .f
        .resize((n_max + 1) * stride * LANES, f64::NEG_INFINITY);
    for lane in 0..width {
        scratch.f[lane] = 1.0; // state (i=0, k=0), per lane
    }
    scratch.in_ok.clear();
    for j in 0..n_max {
        for lane in 0..LANES {
            scratch.in_ok.push(
                active[lane] && j < ns[lane] && oracles[lane].input_comm_time(j) <= bounds[lane],
            );
        }
    }

    // Full-width equal-length chunk with no period bound anywhere: every
    // (start, lane) candidate is admissible, so the per-row masking
    // machinery (liveness, per-lane cuts, NaN poisoning) is dead weight —
    // the compaction takes a branch-free vectorized fast path instead.
    let unmasked = width == LANES
        && chunk
            .iter()
            .all(|lane| lane.period_bound.is_none() && lane.oracle.len() == n_max);

    for i in 1..=n_max {
        // Per-lane row liveness and first admissible start (the bounded
        // lanes' work-prefix cuts, exactly as the single-instance sweep
        // derives them: a conservative binary-search point minus one, with
        // the exact per-start division re-check below).
        let mut row_live = [false; LANES];
        let mut j_lo = [0usize; LANES];
        let mut first_lo = usize::MAX;
        let mut any_live = false;
        if unmasked {
            row_live = [true; LANES];
            first_lo = 0;
            any_live = true;
        } else {
            for lane in 0..LANES {
                if !active[lane] || i > ns[lane] {
                    continue; // dead or padded-out lane: row stays −∞
                }
                let oracle = oracles[lane];
                if oracle.output_comm_time(i - 1) > bounds[lane] {
                    continue;
                }
                row_live[lane] = true;
                any_live = true;
                let lo = if bounds[lane].is_finite() {
                    let work_prefix = oracle.work_prefix();
                    let target = work_prefix[i] - bounds[lane] * speeds[lane];
                    work_prefix[..i]
                        .partition_point(|&w| w < target)
                        .saturating_sub(1)
                } else {
                    0
                };
                j_lo[lane] = lo;
                first_lo = first_lo.min(lo);
            }
        }
        if !any_live {
            continue;
        }

        // Gather phase: one lane-major call fills the row for every lane.
        IntervalOracle::fill_class_block_row_lanes(
            &oracles,
            0,
            i - 1,
            first_lo,
            &mut scratch.blocks,
        );

        // Compaction: starts admissible in at least one lane, descending,
        // with lane-major replicated reliabilities (`NaN` = masked lane).
        scratch.adm.clear();
        scratch.rels.clear();
        if unmasked {
            // Branch-free fast path: every start is admissible in every
            // lane, so the replicated reliabilities are straight-line
            // lane-wide arithmetic into a pre-sized buffer (identical
            // values, multiplication for multiplication, to the masked
            // loop below).
            scratch.adm.extend((0..i as u32).rev());
            scratch.rels.resize(i * k_max * LANES, 0.0);
            let mut idx = 0;
            for j in (0..i).rev() {
                let base = j * LANES;
                let block: [f64; LANES] = scratch.blocks[base..base + LANES]
                    .try_into()
                    .expect("lane-width gather row");
                let mut all_fail = [1.0f64; LANES];
                for _q in 0..k_max {
                    let dst = &mut scratch.rels[idx..idx + LANES];
                    for lane in 0..LANES {
                        all_fail[lane] *= 1.0 - block[lane];
                        dst[lane] = 1.0 - all_fail[lane];
                    }
                    idx += LANES;
                }
            }
        } else {
            compact_masked(
                scratch, &oracles, &bounds, &speeds, &row_live, &j_lo, first_lo, i, k_max,
            );
        }
        if scratch.adm.is_empty() {
            continue;
        }

        // Max-update: predecessor rows all live before row i in the arena.
        let (done, rest) = scratch.f.split_at_mut(i * stride * LANES);
        let row_i = &mut rest[..stride * LANES];
        blocked_update(done, row_i, &scratch.adm, &scratch.rels, stride, k_max, p);
    }

    // Per-lane finish: best final state (at the lane's *own* final row, not
    // the padded arena's), then post-hoc traceback.
    let BatchScratch { f, in_ok, row, .. } = scratch;
    for (lane, instance) in chunk.iter().enumerate() {
        out.push(finish_lane(instance, lane, f, in_ok, row, p, k_max));
    }
}

/// The masked (general-path) compaction of one DP row: starts admissible in
/// at least one lane, descending, with lane-major replicated reliabilities
/// (`NaN` = masked lane; see the module docs for why neither `−∞` nor `0.0`
/// is a safe mask).
#[allow(clippy::too_many_arguments)]
fn compact_masked(
    scratch: &mut BatchScratch,
    oracles: &[&IntervalOracle],
    bounds: &[f64; LANES],
    speeds: &[f64; LANES],
    row_live: &[bool; LANES],
    j_lo: &[usize; LANES],
    first_lo: usize,
    i: usize,
    k_max: usize,
) {
    for j in (first_lo..i).rev() {
        let mut lane_adm = [false; LANES];
        let mut any_adm = false;
        for lane in 0..LANES {
            if row_live[lane]
                && j >= j_lo[lane]
                && scratch.in_ok[j * LANES + lane]
                && (!bounds[lane].is_finite()
                    || oracles[lane].work(j, i - 1) / speeds[lane] <= bounds[lane])
            {
                lane_adm[lane] = true;
                any_adm = true;
            }
        }
        if !any_adm {
            continue;
        }
        scratch.adm.push(j as u32);
        let base = (j - first_lo) * LANES;
        let mut all_fail = [1.0f64; LANES];
        for _q in 0..k_max {
            for lane in 0..LANES {
                if lane_adm[lane] {
                    all_fail[lane] *= 1.0 - scratch.blocks[base + lane];
                    scratch.rels.push(1.0 - all_fail[lane]);
                } else {
                    scratch.rels.push(f64::NAN);
                }
            }
        }
    }
}

/// States per wide register block of the blocked fold: `WIDE_BLOCK` lane-wide
/// accumulators plus `WIDE_BLOCK + 2` shared source windows stay in vector
/// registers across the whole boundary loop (18 of 32 zmm registers on
/// AVX-512; on AVX2's 16-register file the blocks spill to L1, which the
/// runtime-dispatched generic path avoids by staying narrower).
const WIDE_BLOCK: usize = 8;

/// States per tail register block of the blocked fold, mopping up what is
/// left after the wide blocks before the final single-state sweep.
const STATE_BLOCK: usize = 4;

/// Register-blocked fold (chunk-outer/boundary-inner): a block of
/// [`STATE_BLOCK`] states' accumulators is loaded once, every `(j, q)`
/// candidate of the row is folded into the block, and it is stored once —
/// each candidate costs one load/multiply/max instead of also re-loading
/// and re-storing the target state per boundary. Out-of-window candidates
/// read `−∞` predecessor sentinels and lose naturally, so no per-boundary
/// window logic is needed. The replication cap is monomorphized for the
/// paper-scale `K ≤ 3` so the level loop fully unrolls.
#[inline]
fn blocked_update(
    done: &[f64],
    row_i: &mut [f64],
    adm: &[u32],
    rels: &[f64],
    stride: usize,
    k_max: usize,
    p: usize,
) {
    match k_max {
        1 => blocked_update_const::<1>(done, row_i, adm, rels, stride, p),
        2 => blocked_update_const::<2>(done, row_i, adm, rels, stride, p),
        3 => blocked_update_const::<3>(done, row_i, adm, rels, stride, p),
        _ => blocked_update_generic(done, row_i, adm, rels, stride, k_max, p),
    }
}

/// The blocked fold at compile-time replication cap `KMAX`: wide register
/// blocks first, then a narrower tail, then single states.
#[inline]
fn blocked_update_const<const KMAX: usize>(
    done: &[f64],
    row_i: &mut [f64],
    adm: &[u32],
    rels: &[f64],
    stride: usize,
    p: usize,
) {
    let mut k0 = 1;
    while k0 + WIDE_BLOCK <= p + 1 {
        // S = B + KMAX − 1 source windows cover every (b, q) combination.
        blocked_fold::<KMAX, WIDE_BLOCK, { WIDE_BLOCK + 2 }>(done, row_i, adm, rels, stride, k0);
        k0 += WIDE_BLOCK;
    }
    while k0 + STATE_BLOCK <= p + 1 {
        blocked_fold::<KMAX, STATE_BLOCK, { STATE_BLOCK + 2 }>(done, row_i, adm, rels, stride, k0);
        k0 += STATE_BLOCK;
    }
    while k0 <= p {
        blocked_fold::<KMAX, 1, 3>(done, row_i, adm, rels, stride, k0);
        k0 += 1;
    }
}

/// Folds every `(j, q)` candidate of the compacted row into the `B` states
/// `k0 .. k0 + B`, whose accumulators live in vector registers across the
/// whole boundary loop. Per boundary, the `S = B + KMAX_CEIL − 1` distinct
/// predecessor windows `row_j[k0 − KMAX_CEIL .. k0 + B − 1]` are loaded
/// once and shared by all `(b, q)` combinations (source index
/// `b + KMAX_CEIL − q` is compile-time after unrolling); windows below
/// state 0 stay at the `−∞` sentinel and lose every comparison, as do
/// out-of-window candidates and `NaN`-masked lanes.
#[inline]
fn blocked_fold<const KMAX: usize, const B: usize, const S: usize>(
    done: &[f64],
    row_i: &mut [f64],
    adm: &[u32],
    rels: &[f64],
    stride: usize,
    k0: usize,
) {
    // KMAX_CEIL = 3 always (S = B + 2): levels above KMAX simply don't
    // exist in `rels`, so their source slots are loaded but never used.
    debug_assert!(KMAX <= 3 && S == B + 2);
    let mut acc = [[0.0f64; LANES]; B];
    for (b, state) in acc.iter_mut().enumerate() {
        let base = (k0 + b) * LANES;
        state.copy_from_slice(&row_i[base..base + LANES]);
    }
    for (&j, jrels) in adm.iter().zip(rels.chunks_exact(KMAX * LANES)) {
        let j = j as usize;
        let row_j = &done[j * stride * LANES..(j + 1) * stride * LANES];
        let mut src = [[f64::NEG_INFINITY; LANES]; S];
        for (idx, window) in src.iter_mut().enumerate() {
            // Window `idx` holds predecessor state k0 + idx − 3.
            if k0 + idx >= 3 {
                let base = (k0 + idx - 3) * LANES;
                window.copy_from_slice(&row_j[base..base + LANES]);
            }
        }
        for q in 1..=KMAX {
            let rel = &jrels[(q - 1) * LANES..q * LANES];
            for (b, state) in acc.iter_mut().enumerate() {
                let window = &src[b + 3 - q];
                for lane in 0..LANES {
                    let cand = window[lane] * rel[lane];
                    state[lane] = if cand > state[lane] {
                        cand
                    } else {
                        state[lane]
                    };
                }
            }
        }
    }
    for (b, state) in acc.iter().enumerate() {
        let base = (k0 + b) * LANES;
        row_i[base..base + LANES].copy_from_slice(state);
    }
}

/// Runtime-`k_max` fallback of the blocked fold (replication caps beyond
/// the monomorphized paper range), two states per block.
#[inline]
fn blocked_update_generic(
    done: &[f64],
    row_i: &mut [f64],
    adm: &[u32],
    rels: &[f64],
    stride: usize,
    k_max: usize,
    p: usize,
) {
    let mut k = 1;
    while k <= p {
        let pair = k < p;
        let base0 = k * LANES;
        let mut val0: [f64; LANES] = row_i[base0..base0 + LANES]
            .try_into()
            .expect("lane-width state window");
        let mut val1 = [f64::NEG_INFINITY; LANES];
        if pair {
            let base1 = (k + 1) * LANES;
            val1 = row_i[base1..base1 + LANES]
                .try_into()
                .expect("lane-width state window");
        }
        for (&j, jrels) in adm.iter().zip(rels.chunks_exact(k_max * LANES)) {
            let j = j as usize;
            let row_j = &done[j * stride * LANES..(j + 1) * stride * LANES];
            for q in 1..=k_max {
                let rel = &jrels[(q - 1) * LANES..q * LANES];
                if q <= k {
                    let src_base = (k - q) * LANES;
                    let src: [f64; LANES] = row_j[src_base..src_base + LANES]
                        .try_into()
                        .expect("lane-width state window");
                    for lane in 0..LANES {
                        let cand = src[lane] * rel[lane];
                        val0[lane] = if cand > val0[lane] { cand } else { val0[lane] };
                    }
                }
                if pair && q <= k + 1 {
                    let src_base = (k + 1 - q) * LANES;
                    let src: [f64; LANES] = row_j[src_base..src_base + LANES]
                        .try_into()
                        .expect("lane-width state window");
                    for lane in 0..LANES {
                        let cand = src[lane] * rel[lane];
                        val1[lane] = if cand > val1[lane] { cand } else { val1[lane] };
                    }
                }
            }
        }
        row_i[base0..base0 + LANES].copy_from_slice(&val0);
        if pair {
            let base1 = (k + 1) * LANES;
            row_i[base1..base1 + LANES].copy_from_slice(&val1);
        }
        k += 2;
    }
}

/// Per-lane finish: pick the best final state and rebuild the lane's
/// mapping by post-hoc candidate re-scan, mirroring the single-instance
/// kernel's traceback tail operation for operation.
#[allow(clippy::too_many_arguments)]
fn finish_lane(
    instance: &BatchLane<'_>,
    lane: usize,
    f: &[f64],
    in_ok: &[bool],
    row: &mut Vec<f64>,
    p: usize,
    k_max: usize,
) -> Option<OptimalMapping> {
    let stride = p + 1;
    let n = instance.oracle.len(); // the lane's own n, not the padded arena's
    let row_n = n * stride * LANES;
    let (best_k, best_rel) = (1..=p)
        .map(|k| (k, f[row_n + k * LANES + lane]))
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("totally ordered reliabilities")
        })?;
    if !best_rel.is_finite() {
        return None;
    }
    let oracle = instance.oracle;
    let bound = instance.period_bound.unwrap_or(f64::INFINITY);
    let speed = oracle.classes()[0].speed;
    let work_prefix = oracle.work_prefix();

    let mut segments: Vec<(usize, usize, usize)> = Vec::new(); // (first, last, replicas)
    let (mut i, mut k) = (n, best_k);
    while i > 0 {
        let j_lo = if bound.is_finite() {
            work_prefix[..i]
                .partition_point(|&w| w < work_prefix[i] - bound * speed)
                .saturating_sub(1)
        } else {
            0
        };
        oracle.fill_class_block_row(0, i - 1, j_lo, row);
        let target = f[(i * stride + k) * LANES + lane];
        let mut found = None;
        'scan: for j in (j_lo..i).rev() {
            if bound.is_finite()
                && (!in_ok[j * LANES + lane] || oracle.work(j, i - 1) / speed > bound)
            {
                continue;
            }
            let block = row[j - j_lo];
            let mut all_fail = 1.0;
            for q in 1..=k_max.min(k) {
                all_fail *= 1.0 - block;
                if f[(j * stride + (k - q)) * LANES + lane] * (1.0 - all_fail) == target {
                    found = Some((j, q));
                    break 'scan;
                }
            }
        }
        let (j, q) = found.expect("every reachable DP state has a winning candidate");
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
    let mapping = Mapping::new(mapped, instance.chain, instance.platform)
        .expect("dynamic program only builds structurally valid mappings");
    let reliability = oracle.mapping_reliability(&mapping);
    Some(OptimalMapping {
        mapping,
        reliability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reliability_dp_with_kernel, DpKernel};
    use rpo_model::PlatformBuilder;

    fn chains() -> Vec<TaskChain> {
        vec![
            TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)]).unwrap(),
            TaskChain::from_pairs(&[(12.0, 1.0), (48.0, 4.0), (19.0, 6.0), (21.0, 2.0)]).unwrap(),
            TaskChain::from_pairs(&[(5.0, 9.0), (5.0, 9.0), (80.0, 0.5), (11.0, 7.0)]).unwrap(),
        ]
    }

    fn platform(rate: f64) -> Platform {
        PlatformBuilder::new()
            .identical_processors(5, 1.0, rate)
            .bandwidth(1.0)
            .link_failure_rate(1e-4)
            .max_replication(3)
            .build()
            .unwrap()
    }

    #[test]
    fn batched_lanes_match_the_per_instance_kernel() {
        let chains = chains();
        let platforms: Vec<Platform> = [1e-3, 2e-3, 5e-4].iter().map(|&r| platform(r)).collect();
        let oracles: Vec<IntervalOracle> = chains
            .iter()
            .zip(&platforms)
            .map(|(c, p)| IntervalOracle::new(c, p))
            .collect();
        for bounds in [
            [None, None, None],
            [Some(45.0), None, Some(90.0)],
            [Some(30.0), Some(1e9), Some(5.0)],
        ] {
            let lanes: Vec<BatchLane<'_>> = (0..3)
                .map(|idx| BatchLane {
                    oracle: &oracles[idx],
                    chain: &chains[idx],
                    platform: &platforms[idx],
                    period_bound: bounds[idx],
                })
                .collect();
            let mut scratch = BatchScratch::new();
            let batched = solve_batch(&lanes, &mut scratch);
            for (idx, lane) in lanes.iter().enumerate() {
                let solo = reliability_dp_with_kernel(
                    lane.oracle,
                    lane.chain,
                    lane.platform,
                    lane.period_bound,
                    DpKernel::Chunked,
                );
                match (&batched[idx], &solo) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.reliability, b.reliability, "lane {idx}");
                        assert_eq!(a.mapping, b.mapping, "lane {idx}");
                    }
                    (None, None) => {}
                    (a, b) => panic!(
                        "lane {idx} feasibility mismatch: batched={} solo={}",
                        a.is_some(),
                        b.is_some()
                    ),
                }
            }
        }
    }

    #[test]
    fn padded_mixed_length_lanes_match_the_per_instance_kernel() {
        // Lanes of 3, 4 and 6 tasks over the same (p, k_max) shape: the two
        // shorter lanes run padded against the 6-task lane and must still
        // reproduce the per-instance kernel bit for bit.
        let chains = [
            TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0)]).unwrap(),
            TaskChain::from_pairs(&[(12.0, 1.0), (48.0, 4.0), (19.0, 6.0), (21.0, 2.0)]).unwrap(),
            TaskChain::from_pairs(&[
                (5.0, 9.0),
                (5.0, 9.0),
                (80.0, 0.5),
                (11.0, 7.0),
                (33.0, 2.5),
                (8.0, 4.0),
            ])
            .unwrap(),
        ];
        let platforms: Vec<Platform> = [1e-3, 2e-3, 5e-4].iter().map(|&r| platform(r)).collect();
        let oracles: Vec<IntervalOracle> = chains
            .iter()
            .zip(&platforms)
            .map(|(c, p)| IntervalOracle::new(c, p))
            .collect();
        for bounds in [
            [None, None, None],
            [Some(45.0), None, Some(90.0)],
            [Some(30.0), Some(1e9), Some(5.0)],
        ] {
            let lanes: Vec<BatchLane<'_>> = (0..3)
                .map(|idx| BatchLane {
                    oracle: &oracles[idx],
                    chain: &chains[idx],
                    platform: &platforms[idx],
                    period_bound: bounds[idx],
                })
                .collect();
            let mut scratch = BatchScratch::new();
            let batched = solve_batch(&lanes, &mut scratch);
            for (idx, lane) in lanes.iter().enumerate() {
                let solo = reliability_dp_with_kernel(
                    lane.oracle,
                    lane.chain,
                    lane.platform,
                    lane.period_bound,
                    DpKernel::Chunked,
                );
                match (&batched[idx], &solo) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.reliability, b.reliability, "lane {idx}");
                        assert_eq!(a.mapping, b.mapping, "lane {idx}");
                    }
                    (None, None) => {}
                    (a, b) => panic!(
                        "lane {idx} feasibility mismatch: batched={} solo={}",
                        a.is_some(),
                        b.is_some()
                    ),
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_batches_is_clean() {
        let chains = chains();
        let p = platform(1e-3);
        let oracles: Vec<IntervalOracle> =
            chains.iter().map(|c| IntervalOracle::new(c, &p)).collect();
        let mut scratch = BatchScratch::new();
        // A bounded batch first, then an unbounded one through the same
        // scratch: no admissibility data may leak across.
        for bound in [Some(40.0), None, Some(60.0)] {
            let lanes: Vec<BatchLane<'_>> = (0..3)
                .map(|idx| BatchLane {
                    oracle: &oracles[idx],
                    chain: &chains[idx],
                    platform: &p,
                    period_bound: bound,
                })
                .collect();
            let batched = solve_batch(&lanes, &mut scratch);
            for (idx, lane) in lanes.iter().enumerate() {
                let solo = reliability_dp_with_kernel(
                    lane.oracle,
                    lane.chain,
                    lane.platform,
                    bound,
                    DpKernel::Chunked,
                );
                assert_eq!(
                    batched[idx].as_ref().map(|s| s.reliability),
                    solo.as_ref().map(|s| s.reliability),
                    "lane {idx} bound {bound:?}"
                );
            }
        }
    }
}
