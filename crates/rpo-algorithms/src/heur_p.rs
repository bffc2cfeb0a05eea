//! Heur-P (Algorithm 4): period-oriented interval computation.
//!
//! To split the chain into `m` intervals, Heur-P balances the work of the
//! intervals with a dynamic program minimizing the period of the partition:
//! `F(j, k)` is the best achievable period when grouping the first `j` tasks
//! into `k` intervals, where the contribution of an interval ending at task
//! `j` is `max(Σ w, o_j)` (its computation time at unit speed and its
//! outgoing communication).

use rpo_model::{IntervalOracle, IntervalPartition};

/// Computes the Heur-P partition of the oracle's chain into exactly
/// `num_intervals` intervals, reading the interval works and boundary costs
/// from the [`IntervalOracle`].
///
/// # Panics
///
/// Panics if `num_intervals` is zero or exceeds the number of tasks.
pub fn heur_p_partition(oracle: &IntervalOracle, num_intervals: usize) -> IntervalPartition {
    balanced_partition(oracle, num_intervals).0
}

/// The dynamic program behind [`heur_p_partition`], also returning the
/// optimal period metric (`max` over intervals of `max(Σ w, o_last)`).
fn balanced_partition(oracle: &IntervalOracle, num_intervals: usize) -> (IntervalPartition, f64) {
    let n = oracle.len();
    let interval_cost =
        |first: usize, last: usize| oracle.work(first, last).max(oracle.output_size(last));
    assert!(
        (1..=n).contains(&num_intervals),
        "number of intervals must be within 1..={n}, got {num_intervals}"
    );

    // f[j][k]: minimal period for the first j tasks (1-based count) in k intervals.
    // pred[j][k]: value j' (task count of the prefix) realizing the optimum.
    let mut f = vec![vec![f64::INFINITY; num_intervals + 1]; n + 1];
    let mut pred = vec![vec![0usize; num_intervals + 1]; n + 1];
    for (j, row) in f.iter_mut().enumerate().take(n + 1).skip(1) {
        row[1] = interval_cost(0, j - 1);
    }
    for k in 2..=num_intervals {
        for j in k..=n {
            for prev in (k - 1)..j {
                let value = f[prev][k - 1].max(interval_cost(prev, j - 1));
                if value < f[j][k] {
                    f[j][k] = value;
                    pred[j][k] = prev;
                }
            }
        }
    }

    // Traceback the cut points.
    let mut cuts = Vec::with_capacity(num_intervals - 1);
    let mut j = n;
    let mut k = num_intervals;
    while k > 1 {
        let prev = pred[j][k];
        cuts.push(prev - 1); // cut after task index prev-1 (0-based)
        j = prev;
        k -= 1;
    }
    cuts.reverse();
    let partition = IntervalPartition::from_cut_points(&cuts, n)
        .expect("dynamic-programming traceback produces a valid partition");
    (partition, f[n][num_intervals])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Platform, TaskChain};

    /// A fresh oracle (the platform does not affect the partitions).
    fn oracle(c: &TaskChain) -> IntervalOracle {
        let platform = Platform::homogeneous(1, 1.0, 1e-3, 1.0, 1e-4, 1).unwrap();
        IntervalOracle::new(c, &platform)
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
            let period = p
                .intervals()
                .iter()
                .map(|itv| itv.work(c).max(itv.output_size(c)))
                .fold(0.0, f64::max);
            best = best.min(period);
        }
        best
    }

    #[test]
    fn one_interval_is_the_whole_chain() {
        let c = chain();
        let (p, period) = balanced_partition(&oracle(&c), 1);
        assert_eq!(p.len(), 1);
        assert_eq!(period, 150.0);
    }

    #[test]
    fn dp_matches_brute_force_for_every_interval_count() {
        let c = chain();
        for m in 1..=c.len() {
            let (partition, period) = balanced_partition(&oracle(&c), m);
            assert_eq!(partition.len(), m);
            let brute = brute_force_period(&c, m);
            assert!(
                (period - brute).abs() < 1e-12,
                "m = {m}: dp period {period} vs brute force {brute}"
            );
            // The reported period matches the partition it returns.
            let actual = partition
                .intervals()
                .iter()
                .map(|itv| itv.work(&c).max(itv.output_size(&c)))
                .fold(0.0, f64::max);
            assert!((actual - period).abs() < 1e-12);
        }
    }

    #[test]
    fn balanced_split_of_uniform_chain() {
        let c = TaskChain::from_pairs(&[(10.0, 1.0); 6]).unwrap();
        let (p, period) = balanced_partition(&oracle(&c), 3);
        assert_eq!(p.len(), 3);
        assert_eq!(period, 20.0);
        for itv in p.intervals() {
            assert_eq!(itv.len(), 2);
        }
    }

    #[test]
    fn more_intervals_never_increase_the_period_metric() {
        let c = chain();
        let mut previous = f64::INFINITY;
        for m in 1..=c.len() {
            let (_, period) = balanced_partition(&oracle(&c), m);
            assert!(period <= previous + 1e-12);
            previous = period;
        }
    }

    #[test]
    fn communication_can_dominate_the_period() {
        // A huge output communication on task 0 dominates any split that cuts there.
        let c = TaskChain::from_pairs(&[(1.0, 100.0), (1.0, 1.0), (1.0, 1.0)]).unwrap();
        let (p, period) = balanced_partition(&oracle(&c), 2);
        // Best: avoid cutting after task 0; cut after task 1 instead.
        assert_eq!(p.cut_points(), vec![1]);
        assert!((period - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "number of intervals must be within")]
    fn too_many_intervals_panics() {
        heur_p_partition(&oracle(&chain()), 6);
    }
}
