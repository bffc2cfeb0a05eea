//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line in, one response per line out. Responses carry the
//! request's `id` and are *not* guaranteed to come back in submission order
//! (a cache hit answers immediately while an earlier solve is still
//! running); clients correlate by id. Bounds are `Option`s rather than
//! non-finite floats — JSON has no `Infinity` literal, so "unbounded" is
//! spelled by omitting the field (or `null`).

use rpo_model::Mapping;
use serde::{Deserialize, Serialize, Value};
use serde_json::Error;

/// One solve request, as read from a JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    #[serde(default)]
    pub id: u64,
    /// Tenant label, accepted but not used for caching: the service caches
    /// and coalesces on the instance alone, so duplicates from any tenant
    /// share one cached result.
    #[serde(default)]
    pub tenant: u64,
    /// Per-request deadline in milliseconds, measured from admission.
    /// Absent/null inherits [`crate::ServeConfig::default_deadline`]; a
    /// negative value means no deadline; a value no deadline can hold (such
    /// as `1e300`) is answered [`ResponseStatus::Invalid`].
    pub deadline_ms: Option<f64>,
    /// The task chain to map.
    pub chain: rpo_model::TaskChain,
    /// The target platform.
    pub platform: rpo_model::Platform,
    /// Worst-case period bound `P` (absent/null = unbounded).
    pub period_bound: Option<f64>,
    /// Worst-case latency bound `L` (absent/null = unbounded).
    pub latency_bound: Option<f64>,
}

/// The typed outcome class of a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Solved: at least one feasible mapping; the best-reliability point is
    /// inlined in the response.
    Ok,
    /// Solved to completion, but no mapping satisfies the bounds.
    Infeasible,
    /// Shed by admission control: the request could not start (or could not
    /// be delivered) before its deadline. It was never solved stale.
    Shed,
    /// Rejected by backpressure: the bounded ingress queue was full.
    Overloaded,
    /// Rejected because the service is draining for shutdown.
    Draining,
    /// The request was malformed (unparseable line, invalid bounds, …).
    Invalid,
    /// The solve panicked; the error carries the panic message. The worker
    /// survives and serves the next request.
    Internal,
}

impl ResponseStatus {
    /// The lowercase wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ResponseStatus::Ok => "ok",
            ResponseStatus::Infeasible => "infeasible",
            ResponseStatus::Shed => "shed",
            ResponseStatus::Overloaded => "overloaded",
            ResponseStatus::Draining => "draining",
            ResponseStatus::Invalid => "invalid",
            ResponseStatus::Internal => "internal",
        }
    }
}

impl Serialize for ResponseStatus {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for ResponseStatus {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value.as_str() {
            Some("ok") => Ok(ResponseStatus::Ok),
            Some("infeasible") => Ok(ResponseStatus::Infeasible),
            Some("shed") => Ok(ResponseStatus::Shed),
            Some("overloaded") => Ok(ResponseStatus::Overloaded),
            Some("draining") => Ok(ResponseStatus::Draining),
            Some("invalid") => Ok(ResponseStatus::Invalid),
            Some("internal") => Ok(ResponseStatus::Internal),
            Some(other) => Err(Error::unknown_variant(other, "ResponseStatus")),
            None => Err(Error::expected("string", "ResponseStatus")),
        }
    }
}

/// One response, as written to a JSON line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Outcome class; the solution fields below are populated only for
    /// [`ResponseStatus::Ok`].
    pub status: ResponseStatus,
    /// Reliability of the best-reliability feasible mapping.
    pub reliability: Option<f64>,
    /// Worst-case period of that mapping.
    pub worst_case_period: Option<f64>,
    /// Worst-case latency of that mapping.
    pub worst_case_latency: Option<f64>,
    /// The mapping itself (interval boundaries + processor allocation).
    pub mapping: Option<Mapping>,
    /// Size of the full Pareto front the solve produced.
    #[serde(default)]
    pub front_points: usize,
    /// Whether this response was coalesced onto another request's solve.
    #[serde(default)]
    pub coalesced: bool,
    /// Whether this response was answered from the engine's instance cache
    /// without a fresh solve.
    #[serde(default)]
    pub cached: bool,
    /// Time the request spent queued before its solve started, in µs
    /// (0 for immediate rejections and cache hits, and for a duplicate that
    /// joined the solve in flight).
    #[serde(default)]
    pub queue_wait_micros: u64,
    /// Wall-clock of the solve that produced this response, in µs; for a
    /// duplicate that joined it in flight, only the part it waited for.
    #[serde(default)]
    pub solve_micros: u64,
    /// Human-readable detail for rejection statuses.
    pub error: Option<String>,
}

impl ServeResponse {
    /// A solution-less response of the given status.
    pub fn rejection(id: u64, status: ResponseStatus, error: impl Into<String>) -> Self {
        ServeResponse {
            id,
            status,
            reliability: None,
            worst_case_period: None,
            worst_case_latency: None,
            mapping: None,
            front_points: 0,
            coalesced: false,
            cached: false,
            queue_wait_micros: 0,
            solve_micros: 0,
            error: Some(error.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpo_model::{Platform, TaskChain};

    fn request() -> ServeRequest {
        ServeRequest {
            id: 7,
            tenant: 2,
            deadline_ms: Some(250.0),
            chain: TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0)]).unwrap(),
            platform: Platform::homogeneous(3, 1.0, 1e-3, 1.0, 1e-4, 2).unwrap(),
            period_bound: None,
            latency_bound: Some(130.0),
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let json = serde_json::to_string(&request()).unwrap();
        let back: ServeRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request());
        // Unbounded period is spelled as null, never a non-finite float.
        assert!(!json.contains("inf"));
    }

    #[test]
    fn defaults_make_minimal_requests_valid() {
        let minimal = format!(
            "{{\"chain\": {}, \"platform\": {}}}",
            serde_json::to_string(&request().chain).unwrap(),
            serde_json::to_string(&request().platform).unwrap(),
        );
        let parsed: ServeRequest = serde_json::from_str(&minimal).unwrap();
        assert_eq!(parsed.id, 0);
        assert_eq!(parsed.tenant, 0);
        assert_eq!(parsed.deadline_ms, None);
        assert_eq!(parsed.period_bound, None);
    }

    #[test]
    fn statuses_round_trip_lowercase() {
        for status in [
            ResponseStatus::Ok,
            ResponseStatus::Infeasible,
            ResponseStatus::Shed,
            ResponseStatus::Overloaded,
            ResponseStatus::Draining,
            ResponseStatus::Invalid,
            ResponseStatus::Internal,
        ] {
            let response = ServeResponse::rejection(1, status, "x");
            let json = serde_json::to_string(&response).unwrap();
            assert!(json.contains(&format!("\"{}\"", status.as_str())));
            let back: ServeResponse = serde_json::from_str(&json).unwrap();
            assert_eq!(back.status, status);
        }
    }
}
