//! The metric names the benchmark reports, with their units. The lists
//! here and in the repository's `BENCHMARK.json` must agree; a test checks
//! that they do.

use crate::ledger::REPORTED_BACKENDS;
use std::collections::BTreeMap;

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "req/s"),
    ("fp_mean", "probability"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that do not name a backend, reported with `--trace 1`.
const LAYERS: [(&str, &str); 15] = [
    ("wire.rest_us", "us"),
    ("proto.parse_us", "us"),
    ("proto.encode_us", "us"),
    ("service.admit_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.solve_us", "us"),
    ("service.coalesced_share", "share"),
    ("service.shard_hit_share", "share"),
    ("engine.cache_hit_share", "share"),
    ("engine.solve_us", "us"),
    ("engine.overhead_us", "us"),
    ("oracle.build_us", "us"),
    ("oracle.cache_hit_share", "share"),
    ("pareto.certify_us", "us"),
    ("pareto.front_points", "count"),
];

/// Per-solve counts of the program's own `rpo-obs` counters.
const COUNTS: [(&str, &str); 4] = [
    ("period_opt.probes", "count"),
    ("dp.kernel.row_sweeps", "count"),
    ("het_lat.label_dp_share", "share"),
    ("backend.dominated_aborts", "count"),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for backend in REPORTED_BACKENDS {
        names.push((format!("backend.{backend}.us"), "us"));
        names.push((format!("backend.{backend}.win_share"), "share"));
        names.push((format!("backend.{backend}.front_share"), "share"));
    }
    names.extend(COUNTS.iter().map(|&(name, unit)| (name.to_string(), unit)));
    names
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records a value; each metric is recorded once.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            self.0.insert(name.clone(), value).is_none(),
            "metric {name} recorded twice"
        );
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The `"metrics"` object of the result line, in the order of `names`.
    /// Panics if a listed metric was not measured or an unlisted one was.
    pub fn to_json(&self, names: &[(String, &'static str)]) -> String {
        assert_eq!(
            names.len(),
            self.0.len(),
            "measured metrics != listed metrics"
        );
        let fields: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} not measured"));
                assert!(value.is_finite(), "{name} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        let entries = value.as_object().expect("an object");
        &entries.iter().find(|(k, _)| k == key).expect(key).1
    }

    fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        let text = |m: &Value, k: &str| field(m, k).as_str().expect(k).to_string();
        field(benchmark, key)
            .as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    }

    #[test]
    fn the_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let benchmark: Value = serde_json::from_str(&text).unwrap();
        let owned = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        assert_eq!(listed(&benchmark, "end_to_end"), owned(end_to_end));
        assert_eq!(listed(&benchmark, "per_layer"), owned(per_layer()));
    }

    #[test]
    fn values_serialize_in_list_order() {
        let names = vec![("b".to_string(), "us"), ("a".to_string(), "share")];
        let mut values = Values::default();
        values.set("a", 0.5);
        values.set("b", 12.25);
        assert_eq!(
            values.to_json(&names),
            "{\"b\": {\"value\": 12.25, \"unit\": \"us\"}, \"a\": {\"value\": 0.5, \"unit\": \"share\"}}"
        );
    }
}
