//! Answer verification against the reference evaluator.
//!
//! An `ok` answer is re-checked from scratch: its mapping is rebuilt through
//! [`Mapping::new`] (which enforces the model's structural constraints for
//! the request's own platform), evaluated by
//! [`MappingEvaluation::evaluate`] — the reference evaluator, not the
//! interval oracle the solvers use — and must reproduce the reported
//! reliability, period and latency and meet the request's bounds.

use rpo_model::{Mapping, MappingEvaluation};
use rpo_serve::{ResponseStatus, ServeRequest, ServeResponse};

/// Largest relative difference tolerated between a reported criterion and
/// its re-evaluation.
pub const RELATIVE_TOLERANCE: f64 = 1e-12;

/// What one response says about its request.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A verified solution, with its failure probability `1 − R` (see
    /// [`failure_probability`]).
    Solved { failure_probability: f64 },
    /// Solved to completion with no feasible mapping.
    Infeasible,
    /// A typed rejection (`shed`, `overloaded`, `draining`, `invalid`).
    Rejected(ResponseStatus),
    /// An `ok` answer that failed verification, with the reason.
    Mismatch(String),
}

/// Verifies `response` against the `request` it answers.
pub fn verify(request: &ServeRequest, response: &ServeResponse) -> Verdict {
    match response.status {
        ResponseStatus::Ok => match check_solution(request, response) {
            Ok(failure_probability) => Verdict::Solved {
                failure_probability,
            },
            Err(reason) => Verdict::Mismatch(format!("request {}: {reason}", request.id)),
        },
        ResponseStatus::Infeasible => Verdict::Infeasible,
        status => Verdict::Rejected(status),
    }
}

fn check_solution(request: &ServeRequest, response: &ServeResponse) -> Result<f64, String> {
    let (Some(mapping), Some(reliability), Some(period), Some(latency)) = (
        response.mapping.as_ref(),
        response.reliability,
        response.worst_case_period,
        response.worst_case_latency,
    ) else {
        return Err("ok answer without a complete solution".to_string());
    };
    let mapping = Mapping::new(
        mapping.intervals().to_vec(),
        &request.chain,
        &request.platform,
    )
    .map_err(|error| format!("mapping invalid for the request's platform: {error}"))?;
    let evaluation = MappingEvaluation::evaluate(&request.chain, &request.platform, &mapping);
    for (name, reported, actual) in [
        ("reliability", reliability, evaluation.reliability),
        ("worst-case period", period, evaluation.worst_case_period),
        ("worst-case latency", latency, evaluation.worst_case_latency),
    ] {
        if !close(reported, actual) {
            return Err(format!(
                "reported {name} {reported} but the mapping has {actual}"
            ));
        }
    }
    let period_bound = request.period_bound.unwrap_or(f64::INFINITY);
    let latency_bound = request.latency_bound.unwrap_or(f64::INFINITY);
    if !evaluation.meets(period_bound, latency_bound) {
        return Err(format!(
            "mapping misses the bounds (period {} > {period_bound} or latency {} > {latency_bound})",
            evaluation.worst_case_period, evaluation.worst_case_latency
        ));
    }
    Ok(failure_probability(
        &request.chain,
        &request.platform,
        &mapping,
    ))
}

/// `1 − R` of `mapping` by Eq. 9, evaluated without cancellation. With
/// `K = 3` replicas the paper instances have `R` within a few ulps of 1, so
/// `1 − R` taken from the `f64` reliability keeps about one significant
/// digit; here each replica block's failure probability is `−expm1(−x)`
/// and the product over intervals is summed in log space.
pub fn failure_probability(
    chain: &rpo_model::TaskChain,
    platform: &rpo_model::Platform,
    mapping: &Mapping,
) -> f64 {
    let mut log_reliability = 0.0;
    let mut input = 0.0;
    for mapped in mapping.intervals() {
        let output = mapped.interval.output_size(chain);
        let comm = platform.link_failure_rate() * (input + output) / platform.bandwidth();
        let work = mapped.interval.work(chain);
        let all_fail: f64 = mapped
            .processors
            .iter()
            .map(|&u| -(-(comm + platform.failure_rate(u) * work / platform.speed(u))).exp_m1())
            .product();
        log_reliability += (-all_fail).ln_1p();
        input = output;
    }
    -log_reliability.exp_m1()
}

fn close(reported: f64, actual: f64) -> bool {
    (reported - actual).abs() <= RELATIVE_TOLERANCE * actual.abs().max(f64::MIN_POSITIVE)
}

/// Verdicts of one phase, with the bookkeeping that every request gets
/// exactly one response.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Requests sent.
    pub sent: usize,
    /// Verified `ok` answers.
    pub solved: usize,
    /// `infeasible` answers.
    pub infeasible: usize,
    /// Typed rejections.
    pub rejected: usize,
    /// Requests that got no response.
    pub missing: usize,
    /// Response lines that did not parse, answered an unknown id, or
    /// answered an id a second time.
    pub stray: usize,
    /// Verification failures, with their reasons.
    pub mismatches: Vec<String>,
    /// Sum of `1 − reliability` over verified answers.
    pub failure_probability_sum: f64,
}

impl Tally {
    /// Records one verdict.
    pub fn record(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Solved {
                failure_probability,
            } => {
                self.solved += 1;
                self.failure_probability_sum += failure_probability;
            }
            Verdict::Infeasible => self.infeasible += 1,
            Verdict::Rejected(_) => self.rejected += 1,
            Verdict::Mismatch(reason) => self.mismatches.push(reason),
        }
    }

    /// Requests that count as failed: no response, a rejection, or an answer
    /// that failed verification.
    pub fn failed(&self) -> usize {
        self.missing + self.rejected + self.mismatches.len()
    }

    /// Adds another phase's tally.
    pub fn merge(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.solved += other.solved;
        self.infeasible += other.infeasible;
        self.rejected += other.rejected;
        self.missing += other.missing;
        self.stray += other.stray;
        self.mismatches.extend(other.mismatches.iter().cloned());
        self.failure_probability_sum += other.failure_probability_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Interval, MappedInterval, Platform, TaskChain};
    use rpo_portfolio::PortfolioEngine;
    use rpo_serve::{ServeConfig, SolverService};
    use std::sync::Arc;

    fn request() -> ServeRequest {
        ServeRequest {
            id: 5,
            tenant: 0,
            deadline_ms: None,
            chain: TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 3.0)])
                .unwrap(),
            platform: Platform::homogeneous(5, 1.0, 1e-6, 1.0, 1e-7, 2).unwrap(),
            period_bound: Some(70.0),
            latency_bound: Some(130.0),
        }
    }

    fn solved(request: &ServeRequest) -> ServeResponse {
        let engine = Arc::new(PortfolioEngine::default().with_threads(1));
        let service = SolverService::start(
            engine,
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
        );
        let ticket = service.submit(request.clone());
        assert!(service.process_one());
        ticket.wait()
    }

    /// Rebuilds `mapping` with `edit` applied to its intervals, skipping the
    /// validation a forged answer would also skip.
    fn forged(mapping: &Mapping, edit: impl FnOnce(&mut Vec<MappedInterval>)) -> Mapping {
        let mut intervals = mapping.intervals().to_vec();
        edit(&mut intervals);
        let json = format!(
            "{{\"intervals\": {}}}",
            serde_json::to_string(&intervals).unwrap()
        );
        serde_json::from_str(&json).unwrap()
    }

    #[test]
    fn genuine_answers_verify() {
        let request = request();
        let response = solved(&request);
        match verify(&request, &response) {
            Verdict::Solved {
                failure_probability,
            } => assert!(failure_probability > 0.0 && failure_probability < 1.0),
            other => panic!("expected a verified answer, got {other:?}"),
        }
    }

    #[test]
    fn tampered_answers_are_rejected() {
        let request = request();
        let response = solved(&request);
        let mapping = response.mapping.clone().unwrap();

        let mut inflated = response.clone();
        inflated.reliability = Some(inflated.reliability.unwrap() * (1.0 + 1e-9));
        assert!(matches!(verify(&request, &inflated), Verdict::Mismatch(_)));

        // A processor index past the platform: structurally invalid.
        let mut foreign = response.clone();
        foreign.mapping = Some(forged(&mapping, |intervals| {
            intervals[0].processors = vec![99];
        }));
        assert!(matches!(verify(&request, &foreign), Verdict::Mismatch(_)));

        // A valid mapping that is not the one whose criteria were reported.
        let mut swapped = response.clone();
        swapped.mapping = Some(forged(&mapping, |intervals| {
            *intervals = vec![MappedInterval::new(Interval { first: 0, last: 3 }, vec![0])];
        }));
        assert!(matches!(verify(&request, &swapped), Verdict::Mismatch(_)));

        let mut bare = response;
        bare.mapping = None;
        assert!(matches!(verify(&request, &bare), Verdict::Mismatch(_)));
    }

    #[test]
    fn answers_must_meet_the_request_bounds() {
        let request = request();
        let response = solved(&request);
        let latency = response.worst_case_latency.unwrap();
        let tighter = ServeRequest {
            latency_bound: Some(latency * 0.5),
            ..request
        };
        assert!(matches!(verify(&tighter, &response), Verdict::Mismatch(_)));
    }

    #[test]
    fn failure_probability_agrees_with_the_reference_evaluator() {
        // Failure rates high enough that `1 − R` survives in `f64`.
        let chain = request().chain;
        let platform = rpo_model::PlatformBuilder::new()
            .processor(2.0, 1e-3)
            .processor(1.0, 2e-3)
            .processor(3.0, 5e-4)
            .processor(1.5, 1e-3)
            .bandwidth(2.0)
            .link_failure_rate(1e-2)
            .max_replication(2)
            .build()
            .unwrap();
        let mapping = Mapping::new(
            vec![
                MappedInterval::new(Interval { first: 0, last: 1 }, vec![0, 1]),
                MappedInterval::new(Interval { first: 2, last: 3 }, vec![2, 3]),
            ],
            &chain,
            &platform,
        )
        .unwrap();
        let reference =
            MappingEvaluation::evaluate(&chain, &platform, &mapping).failure_probability();
        let stable = failure_probability(&chain, &platform, &mapping);
        assert!(reference > 1e-3);
        assert!(
            (stable - reference).abs() <= 1e-9 * reference,
            "{stable} vs {reference}"
        );

        // At paper rates `1 − R` from the `f64` reliability is a few ulps;
        // the stable value still has every digit.
        let paper = Platform::homogeneous(5, 1.0, 1e-8, 1.0, 1e-5, 3).unwrap();
        let replicated = Mapping::new(
            vec![MappedInterval::new(
                Interval { first: 0, last: 3 },
                vec![0, 1, 2],
            )],
            &chain,
            &paper,
        )
        .unwrap();
        let expected = (1.0 - (-1e-8f64 * 105.0).exp()).powi(3);
        let stable = failure_probability(&chain, &paper, &replicated);
        assert!(
            (stable - expected).abs() <= 1e-9 * expected,
            "{stable} vs {expected}"
        );
    }

    #[test]
    fn rejections_and_infeasible_answers_are_classified() {
        let request = request();
        let shed = ServeResponse::rejection(5, ResponseStatus::Shed, "late");
        assert_eq!(
            verify(&request, &shed),
            Verdict::Rejected(ResponseStatus::Shed)
        );
        let mut tally = Tally {
            sent: 3,
            missing: 1,
            ..Tally::default()
        };
        tally.record(verify(&request, &shed));
        tally.record(Verdict::Infeasible);
        assert_eq!(tally.failed(), 2);
        assert_eq!(tally.infeasible, 1);
    }
}
