//! Seeded **platform-churn traces**: timed sequences of [`PlatformDelta`]s
//! drawn from the paper's own failure model.
//!
//! The paper models processor failures as exponential with rate `λ_u` but
//! only ever uses that analytically. A [`ChurnTrace`] samples the model: each
//! processor draws a time-to-failure `−ln(1−U)/λ_u`, the failures inside the
//! observation horizon fire chronologically, and an optional **adversarial
//! burst** kills several processors back-to-back at a chosen instant (the
//! worst case for a repair loop: repeated repairs with no breathing room).
//!
//! Traces speak *current* processor indices: each [`ChurnEvent`] already
//! accounts for the id shifts caused by the removals before it, so a consumer
//! can apply the deltas left-to-right without any bookkeeping. The same trace
//! drives both the fault-injecting Monte-Carlo (`rpo-sim`'s `FaultPlan`, via
//! [`ChurnTrace::fractions`]) and `rpo-repair`'s churn replay.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rpo_model::{Platform, PlatformDelta};
use serde::{Deserialize, Serialize};

/// Parameters of a seeded churn trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Observation horizon, in the failure rates' own time unit — failures
    /// sampled beyond it never fire.
    pub horizon: f64,
    /// Cap on the number of emitted events.
    pub max_events: usize,
    /// Stop failing processors once only this many remain alive (a trace
    /// never kills the platform outright; set 1 to allow going down to a
    /// single processor).
    pub min_alive: usize,
    /// Adversarial burst size: this many extra back-to-back kills strike at
    /// [`burst_at`](Self::burst_at) (0 disables the burst).
    pub burst_kills: usize,
    /// When the burst strikes, as a fraction of the horizon.
    pub burst_at: f64,
}

impl ChurnSpec {
    /// A trace matched to the paper's `λ_p = 10⁻⁸` platforms: a horizon of
    /// `10⁹` time units (an expected ~10 natural failures on 10 processors),
    /// at most 6 events, a 2-kill burst mid-horizon, and at least 2
    /// processors kept alive.
    pub fn paper() -> Self {
        ChurnSpec {
            horizon: 1e9,
            max_events: 6,
            min_alive: 2,
            burst_kills: 2,
            burst_at: 0.5,
        }
    }
}

/// One timed churn event, indices valid on the platform *after* every
/// earlier event of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the event fires (within the spec's horizon).
    pub time: f64,
    /// The platform change.
    pub delta: PlatformDelta,
}

/// A chronological sequence of platform deltas over an observation horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// The events, sorted by time.
    pub events: Vec<ChurnEvent>,
    /// The horizon the trace was sampled over.
    pub horizon: f64,
}

impl ChurnTrace {
    /// Samples a seeded trace for `platform` under `spec`.
    ///
    /// Natural failures use the paper's exponential model per processor
    /// (`−ln(1−U)/λ_u`, infinite for failure-free processors); the burst
    /// kills uniformly chosen alive processors at `burst_at · horizon`.
    /// Deterministic for a given `(platform, spec, seed)`.
    pub fn generate(platform: &Platform, spec: &ChurnSpec, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = platform.num_processors();
        // (failure time, original id), natural failures only.
        let mut natural: Vec<(f64, usize)> = (0..p)
            .map(|u| {
                let rate = platform.failure_rate(u);
                let draw: f64 = rng.gen();
                let time = if rate > 0.0 {
                    -(1.0 - draw).ln() / rate
                } else {
                    f64::INFINITY
                };
                (time, u)
            })
            .filter(|&(time, _)| time <= spec.horizon)
            .collect();
        natural.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite failure times"));

        let burst_time = (spec.burst_at.clamp(0.0, 1.0)) * spec.horizon;
        let mut burst_left = spec.burst_kills;
        let mut alive = vec![true; p];
        let mut alive_count = p;
        let mut events = Vec::new();
        let mut naturals = natural.into_iter().peekable();

        // Current index of an original id = alive originals before it.
        let current_index =
            |alive: &[bool], original: usize| alive[..original].iter().filter(|&&a| a).count();

        while events.len() < spec.max_events && alive_count > spec.min_alive.max(1) {
            let next_natural = naturals.peek().copied();
            let burst_due = burst_left > 0
                && next_natural.is_none_or(|(time, _)| burst_time <= time)
                && burst_time <= spec.horizon;
            if burst_due {
                // Kill a uniformly chosen alive processor, back-to-back.
                let nth = ((rng.gen::<f64>() * alive_count as f64) as usize).min(alive_count - 1);
                let original = alive
                    .iter()
                    .enumerate()
                    .filter(|(_, &a)| a)
                    .nth(nth)
                    .map(|(u, _)| u)
                    .expect("an alive processor exists");
                events.push(ChurnEvent {
                    time: burst_time,
                    delta: PlatformDelta::ProcessorFailed(current_index(&alive, original)),
                });
                alive[original] = false;
                alive_count -= 1;
                burst_left -= 1;
            } else if let Some((time, original)) = naturals.next() {
                if !alive[original] {
                    continue; // already taken by the burst
                }
                events.push(ChurnEvent {
                    time,
                    delta: PlatformDelta::ProcessorFailed(current_index(&alive, original)),
                });
                alive[original] = false;
                alive_count -= 1;
            } else {
                break;
            }
        }
        ChurnTrace {
            events,
            horizon: spec.horizon,
        }
    }

    /// The events as `(fraction of horizon, delta)` pairs — the shape
    /// `rpo-sim`'s fault plans and the churn bench consume.
    pub fn fractions(&self) -> Vec<(f64, PlatformDelta)> {
        self.events
            .iter()
            .map(|event| ((event.time / self.horizon).clamp(0.0, 1.0), event.delta))
            .collect()
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty (nothing failed inside the horizon).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::TaskChain;

    fn platform(p: usize, rate: f64) -> Platform {
        Platform::homogeneous(p, 1.0, rate, 1.0, 1e-5, 3).unwrap()
    }

    #[test]
    fn traces_are_reproducible_and_chronological() {
        let platform = platform(10, 1e-8);
        let spec = ChurnSpec::paper();
        let a = ChurnTrace::generate(&platform, &spec, 42);
        let b = ChurnTrace::generate(&platform, &spec, 42);
        assert_eq!(a, b);
        assert!(a.events.windows(2).all(|w| w[0].time <= w[1].time));
        assert_ne!(a, ChurnTrace::generate(&platform, &spec, 43));
    }

    #[test]
    fn indices_replay_cleanly_against_a_shrinking_platform() {
        // High rate → many natural failures; the trace must stay applicable
        // left-to-right (every index valid on the current platform).
        let mut current = platform(8, 1e-7);
        let chain = TaskChain::from_pairs(&[(10.0, 1.0), (20.0, 2.0)]).unwrap();
        let spec = ChurnSpec {
            horizon: 1e8,
            max_events: 6,
            min_alive: 1,
            burst_kills: 2,
            burst_at: 0.3,
        };
        let trace = ChurnTrace::generate(&current, &spec, 7);
        assert!(!trace.is_empty(), "expected events at this rate");
        for event in &trace.events {
            let (_, next) = event.delta.apply(&chain, &current).unwrap();
            assert_eq!(next.num_processors(), current.num_processors() - 1);
            current = next;
        }
        assert!(current.num_processors() >= spec.min_alive);
    }

    #[test]
    fn respects_min_alive_and_max_events() {
        let p = platform(5, 1e-2); // every processor fails almost immediately
        let spec = ChurnSpec {
            horizon: 1e6,
            max_events: 10,
            min_alive: 3,
            burst_kills: 0,
            burst_at: 0.0,
        };
        let trace = ChurnTrace::generate(&p, &spec, 1);
        assert_eq!(trace.len(), 2); // 5 alive → stop at 3
        let capped = ChurnTrace::generate(
            &p,
            &ChurnSpec {
                max_events: 1,
                ..spec
            },
            1,
        );
        assert_eq!(capped.len(), 1);
    }

    #[test]
    fn burst_fires_back_to_back_at_the_burst_instant() {
        let p = platform(10, 0.0); // no natural failures: burst only
        let spec = ChurnSpec {
            horizon: 1e9,
            max_events: 8,
            min_alive: 2,
            burst_kills: 3,
            burst_at: 0.5,
        };
        let trace = ChurnTrace::generate(&p, &spec, 5);
        assert_eq!(trace.len(), 3);
        assert!(trace.events.iter().all(|e| e.time == 0.5e9));
        let fractions = trace.fractions();
        assert!(fractions.iter().all(|&(f, _)| f == 0.5));
    }
}
