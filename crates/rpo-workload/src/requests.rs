//! Seeded request streams for the serving layer: bounded instances dressed
//! up as *requests* — with Poisson arrival times, tenant labels, a
//! controllable duplicate fraction, and per-request deadlines.
//!
//! A batch stream answers "how fast can we chew through N instances"; a
//! request stream answers the serving questions: how the admission queue
//! behaves under a given offered load, how often the canonical-hash cache
//! coalesces duplicate traffic, and how many requests blow their deadline.
//! Everything is deterministic in `(generator.base_seed, spec.seed)`, so a
//! replay is reproducible bit-for-bit: request `i` of a spec is always the
//! same instance, arriving at the same offset, for the same tenant.
//!
//! Duplicates re-generate the *same unique instance* by index (the
//! generator is deterministic), so a duplicate request is canonically
//! hash-identical to its original — exactly what exercises request
//! coalescing and the admission-time cache lookup in `rpo-serve`, whatever
//! tenant label the duplicate carries.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::time::Duration;

use crate::{BoundsSpec, ExperimentInstance, InstanceGenerator};

/// Specification of a seeded request stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestSpec {
    /// The underlying instance generator (unique requests are its
    /// instances, in index order).
    pub generator: InstanceGenerator,
    /// Per-instance real-time bounds.
    pub bounds: BoundsSpec,
    /// Solve against the heterogeneous platform (`true`) or the homogeneous
    /// one (`false`).
    pub heterogeneous: bool,
    /// Mean offered load, in requests per second: inter-arrival gaps are
    /// exponential with mean `1 / rate` (a Poisson arrival process).
    /// Non-positive or non-finite rates collapse every arrival to offset 0
    /// (a single burst).
    pub arrival_rate: f64,
    /// Probability that a request repeats an earlier unique instance
    /// (clamped to `[0, 1]`; the first request is always unique).
    pub duplicate_fraction: f64,
    /// Number of tenants; each request is labelled with a tenant drawn
    /// uniformly from `0..tenants` (`0` behaves as single-tenant).
    pub tenants: u64,
    /// Per-request deadline, measured from the request's arrival.
    pub deadline: Duration,
    /// Seed of the arrival/duplicate/tenant randomness — independent of the
    /// generator's `base_seed`, so the same instances can be replayed under
    /// a different traffic shape.
    pub seed: u64,
}

impl RequestSpec {
    /// The `BENCH_serve.json` replay shape: paper-scale homogeneous
    /// instances, latency slack 2.0 with unbounded periods (the
    /// throughput-benchmark bounds), ~35% duplicate traffic across 4
    /// tenants, and an offered load far above the sustainable rate so the
    /// replay measures the service's admission behaviour, not the
    /// generator's pacing.
    pub fn serve_replay(base_seed: u64) -> Self {
        RequestSpec {
            generator: InstanceGenerator::paper_homogeneous(base_seed),
            bounds: BoundsSpec {
                period_slack: f64::INFINITY,
                latency_slack: 2.0,
            },
            heterogeneous: false,
            arrival_rate: 8_000.0,
            duplicate_fraction: 0.35,
            tenants: 4,
            deadline: Duration::from_millis(250),
            seed: base_seed ^ 0x5e7e_5e7e,
        }
    }

    /// The lazy, deterministic stream of the first `count` requests.
    pub fn stream(&self, count: usize) -> RequestStream {
        RequestStream {
            spec: *self,
            rng: ChaCha8Rng::seed_from_u64(self.seed),
            next: 0,
            count,
            unique_emitted: 0,
            elapsed: Duration::ZERO,
        }
    }
}

/// One generated request: a bounded instance plus its traffic envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedRequest {
    /// Position in the stream (0-based).
    pub index: usize,
    /// Arrival offset from the start of the replay.
    pub arrival: Duration,
    /// Tenant label in `0..spec.tenants`.
    pub tenant: u64,
    /// Deadline measured from [`Self::arrival`].
    pub deadline: Duration,
    /// `Some(original unique index)` when this request duplicates an
    /// earlier unique request's instance, `None` when it is itself unique.
    pub duplicate_of: Option<usize>,
    /// The generated chain and platforms.
    pub instance: ExperimentInstance,
    /// Worst-case period bound `P`.
    pub period_bound: f64,
    /// Worst-case latency bound `L`.
    pub latency_bound: f64,
}

/// A lazy, deterministic iterator over generated requests.
#[derive(Debug, Clone)]
pub struct RequestStream {
    spec: RequestSpec,
    rng: ChaCha8Rng,
    next: usize,
    count: usize,
    /// Unique instances emitted so far; unique request `k` is the
    /// generator's instance `k`.
    unique_emitted: usize,
    elapsed: Duration,
}

impl Iterator for RequestStream {
    type Item = GeneratedRequest;

    fn next(&mut self) -> Option<GeneratedRequest> {
        if self.next >= self.count {
            return None;
        }
        let index = self.next;
        self.next += 1;

        // Poisson arrivals: exponential inter-arrival gaps with mean
        // 1/rate. The unit draw is taken from [0, 1) and flipped so the log
        // argument stays in (0, 1] — no infinite gaps.
        if self.spec.arrival_rate.is_finite() && self.spec.arrival_rate > 0.0 {
            let unit: f64 = self.rng.gen();
            let gap = -(1.0 - unit).ln() / self.spec.arrival_rate;
            self.elapsed += Duration::from_secs_f64(gap);
        }

        let duplicate = self.unique_emitted > 0
            && self
                .rng
                .gen_bool(self.spec.duplicate_fraction.clamp(0.0, 1.0));
        let (unique_index, duplicate_of) = if duplicate {
            let original = self.rng.gen_range(0..self.unique_emitted);
            (original, Some(original))
        } else {
            let fresh = self.unique_emitted;
            self.unique_emitted += 1;
            (fresh, None)
        };
        let tenant = if self.spec.tenants > 1 {
            self.rng.gen_range(0..self.spec.tenants)
        } else {
            0
        };

        let instance = self.spec.generator.instance(unique_index);
        let platform = if self.spec.heterogeneous {
            &instance.heterogeneous
        } else {
            &instance.homogeneous
        };
        let (period_bound, latency_bound) = self.spec.bounds.bounds(&instance.chain, platform);
        rpo_obs::counter!("workload.requests_generated").inc();
        Some(GeneratedRequest {
            index,
            arrival: self.elapsed,
            tenant,
            deadline: self.spec.deadline,
            duplicate_of,
            instance,
            period_bound,
            latency_bound,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.count - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RequestStream {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_sized() {
        let spec = RequestSpec::serve_replay(42);
        let a: Vec<GeneratedRequest> = spec.stream(64).collect();
        let b: Vec<GeneratedRequest> = spec.stream(64).collect();
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
        assert_eq!(spec.stream(10).len(), 10);
    }

    #[test]
    fn arrivals_are_monotone_and_roughly_paced() {
        let spec = RequestSpec {
            arrival_rate: 1_000.0,
            ..RequestSpec::serve_replay(7)
        };
        let requests: Vec<GeneratedRequest> = spec.stream(200).collect();
        for pair in requests.windows(2) {
            assert!(pair[1].arrival >= pair[0].arrival, "arrivals out of order");
        }
        // 200 requests at 1k req/s: the mean horizon is 200 ms. Allow a
        // wide band — this checks pacing, not the exponential's tails.
        let horizon = requests.last().unwrap().arrival.as_secs_f64();
        assert!(
            (0.05..1.0).contains(&horizon),
            "horizon {horizon} off scale"
        );
    }

    #[test]
    fn duplicates_repeat_an_earlier_unique_instance_exactly() {
        let spec = RequestSpec::serve_replay(11);
        let requests: Vec<GeneratedRequest> = spec.stream(512).collect();
        let mut uniques: Vec<&GeneratedRequest> = Vec::new();
        let mut duplicates = 0usize;
        for request in &requests {
            match request.duplicate_of {
                None => uniques.push(request),
                Some(original) => {
                    duplicates += 1;
                    let original = uniques[original];
                    assert_eq!(request.instance, original.instance);
                    assert_eq!(request.period_bound, original.period_bound);
                    assert_eq!(request.latency_bound, original.latency_bound);
                }
            }
        }
        // 35% nominal duplicate fraction: the replay gate needs ≥ 30%.
        let fraction = duplicates as f64 / requests.len() as f64;
        assert!(fraction >= 0.30, "duplicate fraction {fraction} below gate");
        assert!(
            fraction <= 0.45,
            "duplicate fraction {fraction} implausible"
        );
    }

    #[test]
    fn tenants_stay_in_range_and_mix() {
        let spec = RequestSpec::serve_replay(3);
        let requests: Vec<GeneratedRequest> = spec.stream(256).collect();
        let mut seen = std::collections::BTreeSet::new();
        for request in &requests {
            assert!(request.tenant < spec.tenants);
            seen.insert(request.tenant);
        }
        assert_eq!(seen.len() as u64, spec.tenants, "all tenants hit");
    }

    #[test]
    fn zero_rate_collapses_to_a_burst() {
        let spec = RequestSpec {
            arrival_rate: 0.0,
            ..RequestSpec::serve_replay(1)
        };
        for request in spec.stream(16) {
            assert_eq!(request.arrival, Duration::ZERO);
        }
    }
}
