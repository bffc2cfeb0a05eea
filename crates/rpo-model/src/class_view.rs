//! The [`ClassView`]: processor classes as a first-class model layer.
//!
//! Real platforms rarely have `p` *distinct* processors: they have a handful
//! of hardware generations, each contributing many identical `(speed,
//! failure rate)` processors. Every per-processor interval metric is really a
//! per-*class* metric, so solvers that reason at class granularity shrink
//! their search space from `p` processors to `K_c ≪ p` classes — this is
//! what makes an exact heterogeneous dynamic program tractable (see
//! `rpo-algorithms`' `algo_het`).
//!
//! The view owns three things:
//!
//! * the **class table**: the deduplicated [`ProcessorClass`]es of a
//!   platform, with the member processors of each class (ascending ids, so
//!   everything derived from the view is deterministic);
//! * the **per-class factored exponent prefixes** `exp(−ρ_c W_i)` /
//!   `exp(ρ_c W_j)` over the chain's work prefix, which turn per-interval
//!   reliabilities into pure multiplications (guarded by
//!   `FACTORED_EXPONENT_LIMIT`, with exact fallback);
//! * the [`ClassAssignment`]: a per-interval vector of per-class replica
//!   counts — the class-level description of a mapping — together with its
//!   deterministic lowering to a concrete [`Mapping`].
//!
//! The [`crate::IntervalOracle`] embeds a `ClassView` and exposes it via
//! [`IntervalOracle::class_view`](crate::IntervalOracle::class_view); the
//! per-class *block* tables (which also need the boundary communication
//! data) stay on the oracle
//! ([`class_block_table`](crate::IntervalOracle::class_block_table),
//! [`fill_class_block_row`](crate::IntervalOracle::fill_class_block_row)).

use crate::{
    Interval, IntervalPartition, MappedInterval, Mapping, ModelError, Platform, ProcessorId,
    Result, TaskChain,
};

/// Largest `ρ·W` exponent for which the factored prefix product
/// `exp(−ρW_i)·exp(ρW_j)` is used; beyond it `exp(ρW_j)` could overflow or
/// lose precision, so callers fall back to one exact `exp` per interval.
pub(crate) const FACTORED_EXPONENT_LIMIT: f64 = 40.0;

/// A group of processors with identical `(speed, failure rate)`.
///
/// On a homogeneous platform there is exactly one class; heterogeneous
/// platforms typically have a handful (one per hardware generation), so
/// per-class memoization covers every processor at a fraction of the cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorClass {
    /// Speed `s_u` shared by the members.
    pub speed: f64,
    /// Failure rate `λ_u` shared by the members.
    pub failure_rate: f64,
    /// Number of processors in the class.
    pub members: usize,
}

impl ProcessorClass {
    /// The class's reliability decay rate per unit of work, `ρ_c = λ_c / s_c`.
    #[inline]
    pub fn rho(&self) -> f64 {
        self.failure_rate / self.speed
    }
}

/// The class-level view of one `(chain, platform)` instance: class table,
/// member lists, and per-class factored exponent prefixes.
///
/// Built once (in `O(n·K_c + p)`) by [`ClassView::new`] — the
/// [`crate::IntervalOracle`] does this during its own construction and
/// shares the view with every solver.
#[derive(Debug, Clone)]
pub struct ClassView {
    classes: Vec<ProcessorClass>,
    /// Class index of each processor.
    class_of: Vec<u32>,
    /// Member processors of each class, ascending ids.
    members: Vec<Vec<ProcessorId>>,
    /// Per-class factored log-reliability exponent prefixes:
    /// `exp_minus[c][i] = exp(−ρ_c W_i)` and `exp_plus[c][i] = exp(ρ_c W_i)`
    /// over the work prefix `W`, so the interval reliability
    /// `exp(−ρ_c (W_i − W_j))` is the product `exp_minus[c][i]·exp_plus[c][j]`
    /// — `2(n+1)` exponentials per class instead of one per interval. Empty
    /// for classes whose `ρ_c·W_total` exceeds [`FACTORED_EXPONENT_LIMIT`]
    /// (callers fall back to exact per-interval exponentials there).
    exp_minus: Vec<Vec<f64>>,
    exp_plus: Vec<Vec<f64>>,
    /// Per-class boundary-indexed **compute grid**:
    /// `compute_prefix[c][i] = W_i / s_c` over the work prefix, so the
    /// worst-case computation time of interval `τ_{j+1} … τ_i` on class `c`
    /// replicas is a precomputed-prefix difference (no division). Backs
    /// `IntervalOracle::class_latency_term_factored`, the latency term of
    /// the solvers that re-score exactly afterwards (the Lagrangian penalty
    /// sweep of `algo_het_lat`).
    compute_prefix: Vec<Vec<f64>>,
    /// The chain's work prefix, kept so exact (evaluator-matching) per-class
    /// compute times `(W_i − W_j) / s_c` can be answered too — the prefix
    /// *difference-then-divide* order is what `timing::worst_case_cost`
    /// uses, and `W_i/s − W_j/s` can differ from it by an ulp.
    work_prefix: Vec<f64>,
}

impl ClassView {
    /// Deduplicates the platform's processors into classes and builds the
    /// per-class exponent prefixes over `work_prefix` (the chain's work
    /// prefix-sum array, `n + 1` entries starting at 0).
    pub fn new(platform: &Platform, work_prefix: &[f64]) -> Self {
        let mut classes: Vec<ProcessorClass> = Vec::new();
        let mut class_of = Vec::with_capacity(platform.num_processors());
        let mut members: Vec<Vec<ProcessorId>> = Vec::new();
        for (u, processor) in platform.processors().iter().enumerate() {
            let class = classes.iter().position(|c| {
                c.speed == processor.speed && c.failure_rate == processor.failure_rate
            });
            let class = match class {
                Some(c) => c,
                None => {
                    classes.push(ProcessorClass {
                        speed: processor.speed,
                        failure_rate: processor.failure_rate,
                        members: 0,
                    });
                    members.push(Vec::new());
                    classes.len() - 1
                }
            };
            classes[class].members += 1;
            members[class].push(u);
            class_of.push(class as u32);
        }

        let total_work = *work_prefix.last().expect("non-empty work prefix");
        let (exp_minus, exp_plus): (Vec<Vec<f64>>, Vec<Vec<f64>>) = classes
            .iter()
            .map(|c| {
                let rho = c.rho();
                if rho * total_work <= FACTORED_EXPONENT_LIMIT {
                    (
                        work_prefix.iter().map(|&w| (-rho * w).exp()).collect(),
                        work_prefix.iter().map(|&w| (rho * w).exp()).collect(),
                    )
                } else {
                    (Vec::new(), Vec::new())
                }
            })
            .unzip();

        let compute_prefix = classes
            .iter()
            .map(|c| work_prefix.iter().map(|&w| w / c.speed).collect())
            .collect();

        ClassView {
            classes,
            class_of,
            members,
            exp_minus,
            exp_plus,
            compute_prefix,
            work_prefix: work_prefix.to_vec(),
        }
    }

    /// Number of distinct classes `K_c`.
    #[inline]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// A validated platform is never empty, so neither is its class view.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The deduplicated processor classes.
    #[inline]
    pub fn classes(&self) -> &[ProcessorClass] {
        &self.classes
    }

    /// The `class`-th processor class.
    #[inline]
    pub fn class(&self, class: usize) -> &ProcessorClass {
        &self.classes[class]
    }

    /// Class index of processor `u`.
    #[inline]
    pub fn class_of(&self, u: ProcessorId) -> usize {
        self.class_of[u] as usize
    }

    /// Number of processors `p` covered by the view.
    #[inline]
    pub fn num_processors(&self) -> usize {
        self.class_of.len()
    }

    /// Member processors of `class`, in ascending id order. Deterministic:
    /// everything lowered through the view (see [`ClassAssignment::lower`])
    /// always picks the same concrete processors.
    #[inline]
    pub fn members(&self, class: usize) -> &[ProcessorId] {
        &self.members[class]
    }

    /// Whether the platform has a single processor class (the paper's
    /// definition of homogeneity).
    #[inline]
    pub fn is_homogeneous(&self) -> bool {
        self.classes.len() == 1
    }

    /// Whether the factored exponent prefixes are available for `class`
    /// (`ρ_c · W_total` within the overflow guard). When `false`, factored
    /// queries fall back to one exact `exp` per interval.
    #[inline]
    pub fn factored(&self, class: usize) -> bool {
        !self.exp_minus[class].is_empty()
    }

    /// The `exp(−ρ_c W_i)` prefix of `class` (empty when not
    /// [`factored`](Self::factored)).
    #[inline]
    pub fn exp_minus(&self, class: usize) -> &[f64] {
        &self.exp_minus[class]
    }

    /// The `exp(ρ_c W_i)` prefix of `class` (empty when not
    /// [`factored`](Self::factored)).
    #[inline]
    pub fn exp_plus(&self, class: usize) -> &[f64] {
        &self.exp_plus[class]
    }

    /// The largest class speed (used by solvers to bound the admissible
    /// interval lengths under a period bound).
    #[inline]
    pub fn max_speed(&self) -> f64 {
        self.classes.iter().map(|c| c.speed).fold(0.0, f64::max)
    }

    /// The per-boundary compute grid of `class`: `W_i / s_c` for every work
    /// prefix `W_i` (`n + 1` entries). Interval compute times are prefix
    /// differences of this grid (see
    /// `IntervalOracle::class_latency_term_factored`); the values can differ
    /// from the exact [`Self::class_compute_time`] by an ulp.
    #[inline]
    pub fn compute_prefix(&self, class: usize) -> &[f64] {
        &self.compute_prefix[class]
    }

    /// Worst-case computation time of interval `first ..= last` on replicas
    /// of `class`: `(W_{last+1} − W_first) / s_c`, in exactly the
    /// difference-then-divide operation order of
    /// [`crate::timing::worst_case_cost`] — so a latency accumulated from
    /// these terms is bit-identical to the evaluator's.
    #[inline]
    pub fn class_compute_time(&self, class: usize, first: usize, last: usize) -> f64 {
        debug_assert!(first <= last && last < self.work_prefix.len() - 1);
        (self.work_prefix[last + 1] - self.work_prefix[first]) / self.classes[class].speed
    }

    /// Incrementally rebuilds the view for a changed `platform` (same chain).
    ///
    /// The class *structure* (table, member lists, `class_of`) is re-derived
    /// in `O(p·K_c)` without a single transcendental; the expensive per-class
    /// arrays (`exp_minus`/`exp_plus`/`compute_prefix`) are **moved over**
    /// from every class whose `(speed, failure rate)` pair survives the
    /// change. The move is sound and bit-identical by construction: the
    /// arrays are pure functions of the class parameters and the unchanged
    /// work prefix, and class parameters are unique within a view (the dedup
    /// invariant), so the match is injective. Classes with genuinely new
    /// parameters get freshly computed arrays.
    ///
    /// Returns `true` when the class *table* changed (count, parameters or
    /// order of the classes) — class-indexed warm state downstream must then
    /// be discarded. Member-only changes (a processor leaving a surviving
    /// class) return `false`.
    pub(crate) fn apply_platform_change(&mut self, platform: &Platform) -> bool {
        let mut classes: Vec<ProcessorClass> = Vec::new();
        let mut class_of = Vec::with_capacity(platform.num_processors());
        let mut members: Vec<Vec<ProcessorId>> = Vec::new();
        for (u, processor) in platform.processors().iter().enumerate() {
            let class = classes.iter().position(|c| {
                c.speed == processor.speed && c.failure_rate == processor.failure_rate
            });
            let class = match class {
                Some(c) => c,
                None => {
                    classes.push(ProcessorClass {
                        speed: processor.speed,
                        failure_rate: processor.failure_rate,
                        members: 0,
                    });
                    members.push(Vec::new());
                    classes.len() - 1
                }
            };
            classes[class].members += 1;
            members[class].push(u);
            class_of.push(class as u32);
        }

        let table_changed = classes.len() != self.classes.len()
            || classes
                .iter()
                .zip(&self.classes)
                .any(|(new, old)| new.speed != old.speed || new.failure_rate != old.failure_rate);

        let total_work = *self.work_prefix.last().expect("non-empty work prefix");
        let mut exp_minus = Vec::with_capacity(classes.len());
        let mut exp_plus = Vec::with_capacity(classes.len());
        let mut compute_prefix = Vec::with_capacity(classes.len());
        for c in &classes {
            let surviving = self
                .classes
                .iter()
                .position(|old| old.speed == c.speed && old.failure_rate == c.failure_rate);
            match surviving {
                Some(old) => {
                    exp_minus.push(std::mem::take(&mut self.exp_minus[old]));
                    exp_plus.push(std::mem::take(&mut self.exp_plus[old]));
                    compute_prefix.push(std::mem::take(&mut self.compute_prefix[old]));
                }
                None => {
                    let rho = c.rho();
                    if rho * total_work <= FACTORED_EXPONENT_LIMIT {
                        exp_minus
                            .push(self.work_prefix.iter().map(|&w| (-rho * w).exp()).collect());
                        exp_plus.push(self.work_prefix.iter().map(|&w| (rho * w).exp()).collect());
                    } else {
                        exp_minus.push(Vec::new());
                        exp_plus.push(Vec::new());
                    }
                    compute_prefix.push(self.work_prefix.iter().map(|&w| w / c.speed).collect());
                }
            }
        }

        self.classes = classes;
        self.class_of = class_of;
        self.members = members;
        self.exp_minus = exp_minus;
        self.exp_plus = exp_plus;
        self.compute_prefix = compute_prefix;

        #[cfg(debug_assertions)]
        debug_assert!(
            self.bitwise_eq(&ClassView::new(platform, &self.work_prefix)),
            "incremental class view diverged from a fresh rebuild"
        );
        table_changed
    }

    /// Incrementally rebuilds the per-class prefixes after the chain's work
    /// prefix changed from index `first_changed` on (entries
    /// `0 .. first_changed` must be bit-identical — only the suffix is
    /// recomputed, which keeps the untouched prefix entries bit-identical by
    /// not touching them at all).
    ///
    /// Returns `true` when some class crossed the factored-exponent guard
    /// (`ρ_c·W_total` moved across [`FACTORED_EXPONENT_LIMIT`]): that class's
    /// arrays were rebuilt (or cleared) wholesale, and downstream consumers
    /// of *factored* block reliabilities switch code paths, so bit-exact
    /// prefix reuse in their own state is no longer sound.
    pub(crate) fn apply_work_prefix_change(
        &mut self,
        work_prefix: &[f64],
        first_changed: usize,
    ) -> bool {
        debug_assert_eq!(work_prefix.len(), self.work_prefix.len());
        debug_assert_eq!(
            &work_prefix[..first_changed],
            &self.work_prefix[..first_changed]
        );
        self.work_prefix[first_changed..].copy_from_slice(&work_prefix[first_changed..]);
        let total_work = *self.work_prefix.last().expect("non-empty work prefix");
        let len = self.work_prefix.len();
        let mut factored_changed = false;
        for c in 0..self.classes.len() {
            let class = self.classes[c];
            let rho = class.rho();
            let was_factored = !self.exp_minus[c].is_empty();
            let now_factored = rho * total_work <= FACTORED_EXPONENT_LIMIT;
            if now_factored {
                if was_factored {
                    for i in first_changed..len {
                        let w = self.work_prefix[i];
                        self.exp_minus[c][i] = (-rho * w).exp();
                        self.exp_plus[c][i] = (rho * w).exp();
                    }
                } else {
                    factored_changed = true;
                    self.exp_minus[c] =
                        self.work_prefix.iter().map(|&w| (-rho * w).exp()).collect();
                    self.exp_plus[c] = self.work_prefix.iter().map(|&w| (rho * w).exp()).collect();
                }
            } else {
                if was_factored {
                    factored_changed = true;
                }
                self.exp_minus[c].clear();
                self.exp_plus[c].clear();
            }
            for i in first_changed..len {
                self.compute_prefix[c][i] = self.work_prefix[i] / class.speed;
            }
        }
        factored_changed
    }

    /// Exact structural equality — bitwise on every float — used to assert
    /// that incremental updates reproduce a fresh rebuild.
    #[cfg(debug_assertions)]
    pub(crate) fn bitwise_eq(&self, other: &ClassView) -> bool {
        self.classes == other.classes
            && self.class_of == other.class_of
            && self.members == other.members
            && self.exp_minus == other.exp_minus
            && self.exp_plus == other.exp_plus
            && self.compute_prefix == other.compute_prefix
            && self.work_prefix == other.work_prefix
    }
}

/// A class-level mapping description: for each interval of a partition, how
/// many replicas are drawn from each processor class.
///
/// Class-level solvers (the heterogeneous dynamic program) search over these
/// instead of concrete processor sets — within a class all processors are
/// interchangeable, so nothing is lost — and [`lower`](Self::lower) converts
/// the winner into a concrete [`Mapping`] deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassAssignment {
    /// `counts[j][c]` = number of replicas of interval `j` drawn from
    /// class `c`.
    counts: Vec<Vec<usize>>,
}

impl ClassAssignment {
    /// Wraps per-interval, per-class replica counts (`counts[j][c]`).
    pub fn new(counts: Vec<Vec<usize>>) -> Self {
        ClassAssignment { counts }
    }

    /// The per-interval, per-class replica counts.
    #[inline]
    pub fn counts(&self) -> &[Vec<usize>] {
        &self.counts
    }

    /// Number of intervals described.
    #[inline]
    pub fn num_intervals(&self) -> usize {
        self.counts.len()
    }

    /// Total number of replicas of interval `j` (across all classes).
    pub fn replicas(&self, j: usize) -> usize {
        self.counts[j].iter().sum()
    }

    /// Total number of replicas drawn from class `c` across all intervals.
    pub fn class_usage(&self, c: usize) -> usize {
        self.counts.iter().map(|row| row[c]).sum()
    }

    /// Lowers the class-level assignment to a concrete [`Mapping`]
    /// **deterministically**: within each class, member processors are handed
    /// out in ascending id order to intervals in pipeline order, and each
    /// interval's replica set lists its processors in ascending id order.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ClassShapeMismatch`] if the assignment's shape does
    ///   not match the partition and class table;
    /// * [`ModelError::ClassOverSubscribed`] if some class is asked for more
    ///   replicas than it has members;
    /// * any structural error of [`Mapping::new`] (empty interval, `K`
    ///   exceeded, …).
    pub fn lower(
        &self,
        view: &ClassView,
        partition: &IntervalPartition,
        chain: &TaskChain,
        platform: &Platform,
    ) -> Result<Mapping> {
        if self.counts.len() != partition.len()
            || self.counts.iter().any(|row| row.len() != view.len())
        {
            return Err(ModelError::ClassShapeMismatch {
                expected_intervals: partition.len(),
                expected_classes: view.len(),
            });
        }
        for c in 0..view.len() {
            let requested = self.class_usage(c);
            let available = view.members(c).len();
            if requested > available {
                return Err(ModelError::ClassOverSubscribed {
                    class: c,
                    requested,
                    members: available,
                });
            }
        }
        // Per-class cursor into the ascending member list.
        let mut next = vec![0usize; view.len()];
        let mapped = partition
            .intervals()
            .iter()
            .zip(&self.counts)
            .map(|(&interval, row)| {
                let mut processors: Vec<ProcessorId> = Vec::with_capacity(row.iter().sum());
                for (c, &q) in row.iter().enumerate() {
                    let start = next[c];
                    processors.extend_from_slice(&view.members(c)[start..start + q]);
                    next[c] += q;
                }
                processors.sort_unstable();
                MappedInterval::new(interval, processors)
            })
            .collect();
        Mapping::new(mapped, chain, platform)
    }

    /// The class-level description of an existing concrete mapping.
    pub fn from_mapping(view: &ClassView, mapping: &Mapping) -> Self {
        let counts = mapping
            .intervals()
            .iter()
            .map(|mi| {
                let mut row = vec![0usize; view.len()];
                for &u in &mi.processors {
                    row[view.class_of(u)] += 1;
                }
                row
            })
            .collect();
        ClassAssignment { counts }
    }
}

/// A partition paired with its class assignment: `(first, last, counts)` per
/// interval, the usual shape produced by class-level dynamic programs.
pub fn assignment_from_segments(
    segments: &[(usize, usize, Vec<usize>)],
    chain_len: usize,
) -> Result<(IntervalPartition, ClassAssignment)> {
    let intervals: Vec<Interval> = segments
        .iter()
        .map(|&(first, last, _)| Interval { first, last })
        .collect();
    let partition = IntervalPartition::new(intervals, chain_len)?;
    let counts = segments.iter().map(|(_, _, row)| row.clone()).collect();
    Ok((partition, ClassAssignment::new(counts)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IntervalOracle, MappingEvaluation, PlatformBuilder};

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[(10.0, 2.0), (20.0, 6.0), (30.0, 4.0), (40.0, 3.0)]).unwrap()
    }

    fn het_platform() -> Platform {
        PlatformBuilder::new()
            .processor(2.0, 0.01)
            .processor(1.0, 0.02)
            .processor(2.0, 0.01)
            .processor(1.0, 0.02)
            .processor(2.0, 0.01)
            .bandwidth(2.0)
            .link_failure_rate(1e-3)
            .max_replication(3)
            .build()
            .unwrap()
    }

    #[test]
    fn member_lists_are_ascending_and_complete() {
        let c = chain();
        let p = het_platform();
        let view = ClassView::new(&p, c.work_prefix());
        assert_eq!(view.len(), 2);
        assert_eq!(view.members(0), &[0, 2, 4]);
        assert_eq!(view.members(1), &[1, 3]);
        assert_eq!(view.classes()[0].members, 3);
        assert_eq!(view.classes()[1].members, 2);
        assert_eq!(view.num_processors(), 5);
        assert!(!view.is_homogeneous());
        assert_eq!(view.max_speed(), 2.0);
        for u in 0..5 {
            assert!(view.members(view.class_of(u)).contains(&u));
        }
    }

    #[test]
    fn lowering_is_deterministic_and_valid() {
        let c = chain();
        let p = het_platform();
        let view = ClassView::new(&p, c.work_prefix());
        let partition = IntervalPartition::from_cut_points(&[1], 4).unwrap();
        let assignment = ClassAssignment::new(vec![vec![2, 1], vec![1, 1]]);
        let mapping = assignment.lower(&view, &partition, &c, &p).unwrap();
        // Class 0 members {0, 2, 4}: interval 0 takes {0, 2}, interval 1
        // takes {4}. Class 1 members {1, 3}: one each, in order.
        assert_eq!(mapping.interval(0).processors, vec![0, 1, 2]);
        assert_eq!(mapping.interval(1).processors, vec![3, 4]);
        // Round-trip: the lowered mapping describes the same assignment.
        assert_eq!(ClassAssignment::from_mapping(&view, &mapping), assignment);
    }

    #[test]
    fn lowered_mapping_evaluates_like_any_other() {
        let c = chain();
        let p = het_platform();
        let oracle = IntervalOracle::new(&c, &p);
        let partition = IntervalPartition::from_cut_points(&[2], 4).unwrap();
        let assignment = ClassAssignment::new(vec![vec![1, 2], vec![2, 0]]);
        let mapping = assignment
            .lower(oracle.class_view(), &partition, &c, &p)
            .unwrap();
        let fast = oracle.evaluate(&mapping);
        let slow = MappingEvaluation::evaluate(&c, &p, &mapping);
        assert_eq!(fast, slow);
    }

    #[test]
    fn oversubscription_and_shape_errors_are_reported() {
        let c = chain();
        let p = het_platform();
        let view = ClassView::new(&p, c.work_prefix());
        let partition = IntervalPartition::from_cut_points(&[1], 4).unwrap();
        // Class 1 has only two members.
        let over = ClassAssignment::new(vec![vec![0, 2], vec![0, 1]]);
        assert_eq!(
            over.lower(&view, &partition, &c, &p).unwrap_err(),
            ModelError::ClassOverSubscribed {
                class: 1,
                requested: 3,
                members: 2
            }
        );
        let wrong_intervals = ClassAssignment::new(vec![vec![1, 1]]);
        assert!(matches!(
            wrong_intervals
                .lower(&view, &partition, &c, &p)
                .unwrap_err(),
            ModelError::ClassShapeMismatch { .. }
        ));
        let wrong_classes = ClassAssignment::new(vec![vec![1], vec![1]]);
        assert!(matches!(
            wrong_classes.lower(&view, &partition, &c, &p).unwrap_err(),
            ModelError::ClassShapeMismatch { .. }
        ));
        // An interval with zero replicas is caught by Mapping::new.
        let empty = ClassAssignment::new(vec![vec![0, 0], vec![1, 1]]);
        assert_eq!(
            empty.lower(&view, &partition, &c, &p).unwrap_err(),
            ModelError::UnassignedInterval(0)
        );
    }

    #[test]
    fn segments_round_trip_through_the_helper() {
        let c = chain();
        let segments = vec![(0usize, 1usize, vec![1, 0]), (2, 3, vec![0, 2])];
        let (partition, assignment) = assignment_from_segments(&segments, c.len()).unwrap();
        assert_eq!(partition.len(), 2);
        assert_eq!(assignment.counts()[1], vec![0, 2]);
        assert_eq!(assignment.replicas(0), 1);
        assert_eq!(assignment.class_usage(1), 2);
    }
}
