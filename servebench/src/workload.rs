//! The three request mixes, generated from the workload seed and
//! serialized to wire lines before any phase starts.
//!
//! Each mix is a [`RequestSpec`] stream of `rpo-workload`, so a request is a
//! paper instance with derived bounds, a tenant, a deadline and a Poisson
//! arrival offset. The server only ever sees the serialized lines.

use rpo_serve::ServeRequest;
use rpo_workload::{
    BoundsSpec, ChainSpec, GeneratedRequest, HomogeneousPlatformSpec, InstanceGenerator,
    RequestSpec,
};
use std::time::Duration;

/// One request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `serve_replay` traffic: paper homogeneous instances with 35 %
    /// duplicates over 4 tenants.
    HomDup,
    /// Class-structured heterogeneous instances under period and latency
    /// bounds: every request is a fresh heterogeneous solve.
    HetLat,
    /// Homogeneous n = 100, p = 20 instances under a binding period bound.
    HomLarge,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::HomDup, Workload::HetLat, Workload::HomLarge];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HomDup => "hom-dup",
            Workload::HetLat => "het-lat",
            Workload::HomLarge => "hom-large",
        }
    }

    /// Offered rate of the open-loop `light` phase, in requests per second:
    /// a tenth to a fifth of the closed-loop capacity measured on a 2-core
    /// host, so the server is far from saturation.
    pub fn light_rate(self) -> f64 {
        match self {
            Workload::HomDup => 500.0,
            Workload::HetLat => 250.0,
            Workload::HomLarge => 80.0,
        }
    }

    /// Requests kept in flight by the closed-loop `saturate` phase. The
    /// server writes each response in two writes without `TCP_NODELAY`, so
    /// the second waits for the client's delayed ACK whenever no other
    /// response is in flight; the window covers that stall (tens of ms of
    /// solves), and stays small enough that queueing stays far below the
    /// deadline and the server's 512-solve queue.
    pub fn window(self) -> usize {
        match self {
            Workload::HomDup => 256,
            Workload::HetLat => 128,
            Workload::HomLarge => 32,
        }
    }

    /// Whether requests target the heterogeneous platform.
    fn heterogeneous(self) -> bool {
        self == Workload::HetLat
    }

    /// The request stream of this workload for one generator base seed.
    pub fn spec(self, base_seed: u64) -> RequestSpec {
        let seed = base_seed ^ 0x5e7e_5e7e;
        match self {
            Workload::HomDup => RequestSpec {
                arrival_rate: self.light_rate(),
                ..RequestSpec::serve_replay(base_seed)
            },
            Workload::HetLat => RequestSpec {
                generator: InstanceGenerator::paper_heterogeneous_classes(base_seed),
                bounds: BoundsSpec::paper_het_lat(),
                heterogeneous: true,
                arrival_rate: self.light_rate(),
                duplicate_fraction: 0.0,
                tenants: 1,
                deadline: Duration::from_secs(1),
                seed,
            },
            Workload::HomLarge => RequestSpec {
                generator: InstanceGenerator {
                    chain: ChainSpec::paper_with_tasks(100),
                    homogeneous: HomogeneousPlatformSpec {
                        num_processors: 20,
                        ..HomogeneousPlatformSpec::paper()
                    },
                    ..InstanceGenerator::paper_homogeneous(base_seed)
                },
                bounds: BoundsSpec {
                    period_slack: 0.2,
                    latency_slack: 2.0,
                },
                heterogeneous: false,
                arrival_rate: self.light_rate(),
                duplicate_fraction: 0.0,
                tenants: 1,
                deadline: Duration::from_secs(1),
                seed,
            },
        }
    }

    /// Dresses a generated request as the wire request with id `id`.
    fn to_wire(self, generated: &GeneratedRequest, id: u64) -> ServeRequest {
        let platform = if self.heterogeneous() {
            &generated.instance.heterogeneous
        } else {
            &generated.instance.homogeneous
        };
        ServeRequest {
            id,
            tenant: generated.tenant,
            deadline_ms: Some(generated.deadline.as_secs_f64() * 1e3),
            chain: generated.instance.chain.clone(),
            platform: platform.clone(),
            period_bound: Some(generated.period_bound).filter(|b| b.is_finite()),
            latency_bound: Some(generated.latency_bound).filter(|b| b.is_finite()),
        }
    }
}

/// The generator base seeds of one run: the scored stream and the warm-up
/// stream. `InstanceGenerator` seeds instance `i` with `base + i`, so nearby
/// bases share instances; the scored base is therefore spread over the
/// whole `u64` range by a mixing function, and the warm-up base sits half
/// the range away, which no run's sessions come near.
pub fn base_seeds(seed: u64) -> (u64, u64) {
    let scored = splitmix64(seed);
    (scored, scored.wrapping_add(1 << 63))
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Requests serialized for the wire: one line per request, in send order.
pub struct Batch {
    /// Id of the first request; request `i` has id `first_id + i`.
    pub first_id: u64,
    /// The requests, as the benchmark keeps them for verification.
    pub requests: Vec<ServeRequest>,
    /// `lines[i]` is `requests[i]` as JSON plus the terminating newline.
    pub lines: Vec<Vec<u8>>,
    /// Poisson arrival offset of each request from the phase start.
    pub arrivals: Vec<Duration>,
}

impl Batch {
    /// Serializes `generated` requests with ids `first_id..`, arrivals
    /// counted from the first one.
    fn new(
        workload: Workload,
        generated: impl Iterator<Item = GeneratedRequest>,
        first_id: u64,
    ) -> Batch {
        let mut batch = Batch {
            first_id,
            requests: Vec::new(),
            lines: Vec::new(),
            arrivals: Vec::new(),
        };
        let mut origin = None;
        for (g, id) in generated.zip(first_id..) {
            let origin = *origin.get_or_insert(g.arrival);
            let request = workload.to_wire(&g, id);
            batch.lines.push(wire_line(&request));
            batch.requests.push(request);
            batch.arrivals.push(g.arrival - origin);
        }
        batch
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Splits the batch into `parts` consecutive batches: by arrival time
    /// into equal spans when `by_time`, otherwise into equal counts. Ids run
    /// on, and each part's arrivals count from its own first request.
    pub fn split(mut self, parts: usize, by_time: bool) -> Vec<Batch> {
        let span = self.arrivals.last().copied().unwrap_or_default();
        let total = self.len();
        let mut cuts: Vec<usize> = (1..parts)
            .map(|k| {
                if by_time {
                    let at = span.mul_f64(k as f64 / parts as f64);
                    self.arrivals.partition_point(|&a| a < at)
                } else {
                    total * k / parts
                }
            })
            .collect();
        let mut tails = Vec::with_capacity(parts);
        while let Some(cut) = cuts.pop() {
            let arrivals = self.arrivals.split_off(cut);
            let origin = arrivals.first().copied().unwrap_or_default();
            tails.push(Batch {
                first_id: self.first_id + cut as u64,
                requests: self.requests.split_off(cut),
                lines: self.lines.split_off(cut),
                arrivals: arrivals.into_iter().map(|a| a - origin).collect(),
            });
        }
        tails.push(self);
        tails.reverse();
        tails
    }
}

/// One request as a wire line (JSON plus `\n`).
pub fn wire_line(request: &ServeRequest) -> Vec<u8> {
    let mut line = serde_json::to_string(request)
        .expect("generated requests hold only finite numbers")
        .into_bytes();
    line.push(b'\n');
    line
}

/// Requests per session. A run's stream is a sequence of independent
/// sessions, each a `RequestSpec` replay as long as the `BENCH_serve.json`
/// one: its own instances, duplicates of its own earlier requests. Without
/// sessions, duplicates would pick among every earlier instance of the run
/// and the share a cache can answer would fall as runs get longer.
const SESSION_REQUESTS: usize = 2048;

/// The endless request stream of `workload` from generator base `base`:
/// session `k` uses base `base + k·2³²`, and arrivals run on across
/// sessions.
fn sessions(workload: Workload, base: u64) -> impl Iterator<Item = GeneratedRequest> {
    let (mut session_start, mut last) = (Duration::ZERO, Duration::ZERO);
    (0u64..)
        .flat_map(move |k| {
            workload
                .spec(base.wrapping_add(k << 32))
                .stream(SESSION_REQUESTS)
        })
        .map(move |mut generated| {
            if generated.index == 0 {
                session_start = last;
            }
            generated.arrival += session_start;
            last = generated.arrival;
            generated
        })
}

/// The request lines of one run.
pub struct Plan {
    /// Warm-up requests (not scored), from the warm-up base seed.
    pub warmup: Batch,
    /// The open-loop `light` phase: the scored stream's first requests,
    /// spanning `light_seconds` of Poisson arrivals.
    pub light: Batch,
    /// The closed-loop `saturate` phase (or, with `--trace 1`, the rest of
    /// the traced pass): the scored stream's following requests.
    pub saturate: Batch,
}

/// Request ids are unique per run: each phase draws from its own range.
const WARMUP_IDS: u64 = 1 << 40;
const SATURATE_IDS: u64 = 1 << 32;

impl Plan {
    /// Generates and serializes every request of one run.
    pub fn new(
        workload: Workload,
        seed: u64,
        warmup_count: usize,
        light_seconds: f64,
        saturate_count: usize,
    ) -> Plan {
        let (scored_base, warmup_base) = base_seeds(seed);
        let horizon = Duration::from_secs_f64(light_seconds);
        let mut scored = sessions(workload, scored_base).peekable();
        let light = std::iter::from_fn(|| scored.next_if(|g| g.arrival <= horizon));
        Plan {
            warmup: Batch::new(
                workload,
                sessions(workload, warmup_base).take(warmup_count),
                WARMUP_IDS,
            ),
            light: Batch::new(workload, light, 0),
            saturate: Batch::new(workload, scored.take(saturate_count), SATURATE_IDS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_sends_byte_identical_lines() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7, 4, 0.05, 8);
            let b = Plan::new(workload, 7, 4, 0.05, 8);
            let c = Plan::new(workload, 8, 4, 0.05, 8);
            for (x, y) in [
                (&a.warmup, &b.warmup),
                (&a.light, &b.light),
                (&a.saturate, &b.saturate),
            ] {
                assert_eq!(x.lines, y.lines, "{}", workload.name());
                assert_eq!(x.arrivals, y.arrivals);
            }
            assert_ne!(a.light.lines, c.light.lines, "another seed, other lines");
        }
    }

    #[test]
    fn batches_split_into_consecutive_parts() {
        let plan = Plan::new(Workload::HomDup, 2, 0, 0.2, 10);
        let light_ids: Vec<u64> = plan.light.requests.iter().map(|r| r.id).collect();
        let span = *plan.light.arrivals.last().unwrap();
        let halves = plan.light.split(2, true);
        assert_eq!(halves.len(), 2);
        let ids: Vec<u64> = halves
            .iter()
            .flat_map(|b| b.requests.iter().map(|r| r.id))
            .collect();
        assert_eq!(ids, light_ids);
        for half in &halves {
            assert_eq!(half.first_id, half.requests[0].id);
            assert_eq!(half.arrivals[0], Duration::ZERO);
            assert_eq!(half.lines.len(), half.len());
            assert!(*half.arrivals.last().unwrap() <= span / 2 + Duration::from_millis(50));
        }
        let thirds = plan.saturate.split(3, false);
        let sizes: Vec<usize> = thirds.iter().map(Batch::len).collect();
        assert_eq!(sizes, vec![3, 3, 4]);
        assert_eq!(thirds[2].first_id, thirds[0].first_id + 6);
    }

    #[test]
    fn warmup_and_scored_streams_share_no_instance() {
        let plan = Plan::new(Workload::HomDup, 3, 64, 0.2, 64);
        for warm in &plan.warmup.requests {
            for scored in plan.light.requests.iter().chain(&plan.saturate.requests) {
                assert_ne!(warm.chain, scored.chain);
            }
        }
    }

    #[test]
    fn sessions_repeat_only_their_own_instances_and_keep_time_running() {
        let all: Vec<GeneratedRequest> = sessions(Workload::HomDup, 9)
            .take(SESSION_REQUESTS + 512)
            .collect();
        assert!(all.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let (first, second) = all.split_at(SESSION_REQUESTS);
        let duplicates = second.iter().filter(|g| g.duplicate_of.is_some()).count();
        assert!(
            duplicates > 100,
            "the second session has its own duplicates"
        );
        for request in second {
            assert!(first
                .iter()
                .all(|f| f.instance.chain != request.instance.chain));
        }
    }

    #[test]
    fn lines_round_trip_to_the_kept_requests() {
        let plan = Plan::new(Workload::HetLat, 11, 2, 0.05, 4);
        for (request, line) in plan.light.requests.iter().zip(&plan.light.lines) {
            assert_eq!(line.last(), Some(&b'\n'));
            assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
            let text = std::str::from_utf8(line).unwrap();
            let back: ServeRequest = serde_json::from_str(text.trim_end()).unwrap();
            assert_eq!(&back, request);
        }
        // Arrivals are offsets from the phase start and never decrease.
        assert_eq!(plan.light.arrivals[0], Duration::ZERO);
        assert!(plan.light.arrivals.windows(2).all(|w| w[0] <= w[1]));
    }
}
