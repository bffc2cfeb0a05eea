//! Heur-L (Algorithm 3): latency-oriented interval computation.
//!
//! To split the chain into `m` intervals, Heur-L cuts the chain after the
//! `m − 1` tasks with the smallest output-communication costs, so that the
//! total communication added to the latency is as small as possible. The
//! cuts for `m` intervals are a prefix of one sorted candidate list, so
//! [`heur_l_partitions`] sorts once and grows the cut set by one per `m`.

use rpo_model::{IntervalOracle, IntervalPartition};

/// The Heur-L partitions of the oracle's chain into `1, 2, …,
/// max_intervals` intervals (element `m − 1` has `m` intervals), reading
/// the boundary communication costs from the [`IntervalOracle`].
///
/// # Panics
///
/// Panics if `max_intervals` exceeds the number of tasks.
pub fn heur_l_partitions(oracle: &IntervalOracle, max_intervals: usize) -> Vec<IntervalPartition> {
    let n = oracle.len();
    assert!(
        max_intervals <= n,
        "number of intervals must be within 1..={n}, got {max_intervals}"
    );
    if max_intervals == 0 {
        return Vec::new();
    }
    // Candidate cut points are after tasks 0 .. n-2; sort them by increasing
    // output-communication cost (ties broken by position, as in the paper's
    // "increasing order of placement in the chain").
    let mut candidates: Vec<usize> = (0..n.saturating_sub(1)).collect();
    candidates.sort_by(|&a, &b| {
        oracle
            .output_size(a)
            .partial_cmp(&oracle.output_size(b))
            .expect("finite communication costs")
            .then(a.cmp(&b))
    });
    let mut cuts: Vec<usize> = Vec::with_capacity(max_intervals - 1);
    let mut partitions = Vec::with_capacity(max_intervals);
    for m in 1..=max_intervals {
        if m > 1 {
            // The (m − 1)-th cheapest cut joins the chain-ordered cut set.
            let cut = candidates[m - 2];
            cuts.insert(cuts.partition_point(|&c| c < cut), cut);
        }
        partitions.push(
            IntervalPartition::from_cut_points(&cuts, n)
                .expect("cut points taken from 0..n-1 always form a valid partition"),
        );
    }
    partitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Platform, TaskChain};

    /// Every Heur-L partition up to `max_intervals`, on a fresh oracle (the
    /// platform does not affect the cuts).
    fn partitions(c: &TaskChain, max_intervals: usize) -> Vec<IntervalPartition> {
        let platform = Platform::homogeneous(1, 1.0, 1e-3, 1.0, 1e-4, 1).unwrap();
        heur_l_partitions(&IntervalOracle::new(c, &platform), max_intervals)
    }

    /// The Heur-L partition into exactly `num_intervals` intervals.
    fn heur_l(c: &TaskChain, num_intervals: usize) -> IntervalPartition {
        partitions(c, num_intervals).swap_remove(num_intervals - 1)
    }

    fn chain() -> TaskChain {
        // Output costs: 5, 1, 4, 2, 3 (last one unused as a cut candidate).
        TaskChain::from_pairs(&[
            (10.0, 5.0),
            (20.0, 1.0),
            (30.0, 4.0),
            (40.0, 2.0),
            (50.0, 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn one_interval_is_the_whole_chain() {
        let p = heur_l(&chain(), 1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.cut_points(), Vec::<usize>::new());
    }

    #[test]
    fn cuts_are_placed_at_smallest_communications() {
        let c = chain();
        // 2 intervals: single cut after task 1 (cost 1).
        assert_eq!(heur_l(&c, 2).cut_points(), vec![1]);
        // 3 intervals: cuts after tasks 1 and 3 (costs 1 and 2).
        assert_eq!(heur_l(&c, 3).cut_points(), vec![1, 3]);
        // 4 intervals: cuts after tasks 1, 3 and 2 (costs 1, 2, 4) in chain order.
        assert_eq!(heur_l(&c, 4).cut_points(), vec![1, 2, 3]);
    }

    #[test]
    fn n_intervals_is_the_finest_partition() {
        let c = chain();
        let p = heur_l(&c, 5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.cut_points(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn total_boundary_communication_is_minimal() {
        // Among all partitions into m intervals, Heur-L minimizes the sum of
        // boundary communications by construction; verify against brute force.
        let c = chain();
        let n = c.len();
        for m in 1..=n {
            let heur = heur_l(&c, m);
            let heur_comm = heur.total_boundary_output(&c);
            // Brute-force all partitions with m intervals.
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << (n - 1)) {
                if mask.count_ones() as usize != m - 1 {
                    continue;
                }
                let cuts: Vec<usize> = (0..n - 1).filter(|&i| mask & (1 << i) != 0).collect();
                let p = IntervalPartition::from_cut_points(&cuts, n).unwrap();
                best = best.min(p.total_boundary_output(&c));
            }
            assert!((heur_comm - best).abs() < 1e-12, "m = {m}");
        }
    }

    #[test]
    fn ties_are_broken_by_chain_position() {
        let c = TaskChain::from_pairs(&[(1.0, 2.0), (1.0, 2.0), (1.0, 2.0), (1.0, 2.0)]).unwrap();
        assert_eq!(heur_l(&c, 2).cut_points(), vec![0]);
        assert_eq!(heur_l(&c, 3).cut_points(), vec![0, 1]);
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
