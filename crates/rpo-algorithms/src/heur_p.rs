//! Heur-P (Algorithm 4): period-oriented interval computation.
//!
//! To split the chain into `m` intervals, Heur-P balances the work of the
//! intervals with a dynamic program minimizing the period of the partition:
//! `F(k, j)` is the best achievable period when grouping the first `j` tasks
//! into `k` intervals, where the contribution of an interval ending at task
//! `j` is `max(Σ w, o_j)` (its computation time at unit speed and its
//! outgoing communication).
//!
//! No entry `F(k, j)` depends on how many intervals the caller finally
//! wants, so [`heur_p_partitions`] fills the table once, up to the largest
//! interval count, and traces it back once per count: every partition the
//! heuristics sweep costs one `O(m·n²)` fill instead of one per `m`.

use rpo_model::{IntervalOracle, IntervalPartition};

/// The Heur-P partitions of the oracle's chain into `1, 2, …,
/// max_intervals` intervals (element `m − 1` has `m` intervals), reading
/// the interval works and boundary costs from the [`IntervalOracle`].
///
/// # Panics
///
/// Panics if `max_intervals` exceeds the number of tasks.
pub fn heur_p_partitions(oracle: &IntervalOracle, max_intervals: usize) -> Vec<IntervalPartition> {
    let n = oracle.len();
    assert!(
        max_intervals <= n,
        "number of intervals must be within 1..={n}, got {max_intervals}"
    );
    if max_intervals == 0 {
        return Vec::new();
    }
    let work_prefix = oracle.work_prefix();

    // Row k − 1 of the flat k-major tables holds `F(k, j)` for j = 0..=n
    // (∞ where fewer than k tasks cannot form k intervals) and the prefix
    // length j' realizing it, so the inner loop over j' reads one
    // contiguous row.
    let stride = n + 1;
    let mut f = vec![f64::INFINITY; max_intervals * stride];
    let mut pred = vec![0u32; max_intervals * stride];
    for (j, value) in f[..stride].iter_mut().enumerate().skip(1) {
        *value = oracle.work(0, j - 1).max(oracle.output_size(j - 1));
    }
    for k in 2..=max_intervals {
        let (done, rest) = f.split_at_mut((k - 1) * stride);
        let prev_row = &done[(k - 2) * stride..];
        let row = &mut rest[..stride];
        let pred_row = &mut pred[(k - 1) * stride..k * stride];
        for j in k..=n {
            let (end, output) = (work_prefix[j], oracle.output_size(j - 1));
            let (mut best, mut arg) = (f64::INFINITY, 0);
            for prev in (k - 1)..j {
                // `oracle.work(prev, j − 1)`, with the row's end hoisted.
                let value = prev_row[prev].max((end - work_prefix[prev]).max(output));
                if value < best {
                    best = value;
                    arg = prev;
                }
            }
            row[j] = best;
            pred_row[j] = arg as u32;
        }
    }

    (1..=max_intervals)
        .map(|m| {
            // cuts[k − 2] is the cut (after task j' − 1, 0-based) that
            // closes the first k − 1 intervals.
            let mut cuts = vec![0; m - 1];
            let mut j = n;
            for k in (2..=m).rev() {
                let prev = pred[(k - 1) * stride + j] as usize;
                cuts[k - 2] = prev - 1;
                j = prev;
            }
            IntervalPartition::from_cut_points(&cuts, n)
                .expect("dynamic-programming traceback produces a valid partition")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Platform, TaskChain};

    /// Every Heur-P partition of `c` up to `max_intervals`, on a fresh
    /// oracle (the platform does not affect the partitions).
    fn partitions(c: &TaskChain, max_intervals: usize) -> Vec<IntervalPartition> {
        let platform = Platform::homogeneous(1, 1.0, 1e-3, 1.0, 1e-4, 1).unwrap();
        heur_p_partitions(&IntervalOracle::new(c, &platform), max_intervals)
    }

    /// The period metric Heur-P minimizes: `max` over intervals of
    /// `max(Σ w, o_last)`.
    fn period(c: &TaskChain, partition: &IntervalPartition) -> f64 {
        partition
            .intervals()
            .iter()
            .map(|itv| itv.work(c).max(itv.output_size(c)))
            .fold(0.0, f64::max)
    }

    fn chain() -> TaskChain {
        TaskChain::from_pairs(&[
            (10.0, 5.0),
            (20.0, 1.0),
            (30.0, 4.0),
            (40.0, 2.0),
            (50.0, 3.0),
        ])
        .unwrap()
    }

    /// Brute-force optimal period metric over all partitions into `m` intervals.
    fn brute_force_period(c: &TaskChain, m: usize) -> f64 {
        let n = c.len();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << (n - 1)) {
            if mask.count_ones() as usize != m - 1 {
                continue;
            }
            let cuts: Vec<usize> = (0..n - 1).filter(|&i| mask & (1 << i) != 0).collect();
            let p = IntervalPartition::from_cut_points(&cuts, n).unwrap();
            best = best.min(period(c, &p));
        }
        best
    }

    #[test]
    fn one_interval_is_the_whole_chain() {
        let c = chain();
        let p = &partitions(&c, 1)[0];
        assert_eq!(p.len(), 1);
        assert_eq!(period(&c, p), 150.0);
    }

    #[test]
    fn dp_matches_brute_force_for_every_interval_count() {
        let c = chain();
        for (index, partition) in partitions(&c, c.len()).iter().enumerate() {
            let m = index + 1;
            assert_eq!(partition.len(), m);
            let brute = brute_force_period(&c, m);
            let dp = period(&c, partition);
            assert!(
                (dp - brute).abs() < 1e-12,
                "m = {m}: dp period {dp} vs brute force {brute}"
            );
        }
    }

    #[test]
    fn balanced_split_of_uniform_chain() {
        let c = TaskChain::from_pairs(&[(10.0, 1.0); 6]).unwrap();
        let p = &partitions(&c, 3)[2];
        assert_eq!(p.len(), 3);
        assert_eq!(period(&c, p), 20.0);
        for itv in p.intervals() {
            assert_eq!(itv.len(), 2);
        }
    }

    #[test]
    fn more_intervals_never_increase_the_period_metric() {
        let c = chain();
        let mut previous = f64::INFINITY;
        for partition in partitions(&c, c.len()) {
            let period = period(&c, &partition);
            assert!(period <= previous + 1e-12);
            previous = period;
        }
    }

    #[test]
    fn communication_can_dominate_the_period() {
        // A huge output communication on task 0 dominates any split that cuts there.
        let c = TaskChain::from_pairs(&[(1.0, 100.0), (1.0, 1.0), (1.0, 1.0)]).unwrap();
        let p = &partitions(&c, 2)[1];
        // Best: avoid cutting after task 0; cut after task 1 instead.
        assert_eq!(p.cut_points(), vec![1]);
        assert!((period(&c, p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn no_intervals_is_an_empty_list() {
        assert!(partitions(&chain(), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "number of intervals must be within")]
    fn too_many_intervals_panics() {
        partitions(&chain(), 6);
    }
}
