//! Integration tests of the observability layer as wired through the
//! portfolio engine and batch driver.
//!
//! The global registry and span recorder are shared by every test in the
//! binary (tests run in parallel threads of one process), so these tests
//! assert *presence* and *lower bounds* on the global snapshot — exact-value
//! assertions only ever go against private registries or against the
//! per-batch delta embedded in a [`BatchReport`].

use pipelined_rt::obs::{self, Registry, SpanRecorder};
use pipelined_rt::portfolio::{BatchConfig, BatchDriver, BatchReport, PortfolioEngine};
use pipelined_rt::workload::InstanceGenerator;
use std::sync::Mutex;

/// Serializes the batch-driving tests: the per-batch metrics delta is only
/// exact when no other batch increments the global registry inside its
/// start/end window.
static BATCH_LOCK: Mutex<()> = Mutex::new(());

fn run_small_batch(seed: u64, instances: usize) -> BatchReport {
    let engine = PortfolioEngine::default().with_threads(1);
    let driver = BatchDriver::new(BatchConfig::default());
    let generator = InstanceGenerator::paper_homogeneous(seed);
    driver.run(&engine, generator.stream(instances))
}

#[test]
fn batch_report_embeds_the_per_batch_metrics_delta() {
    let _guard = BATCH_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let report = run_small_batch(0x0B51, 6);
    assert_eq!(report.instances, 6);
    // The embedded snapshot is the delta across exactly this batch: the
    // batch-level counters are exact even though other tests are hammering
    // the same global registry concurrently.
    assert_eq!(report.metrics.counter_value("batch.instances"), Some(6));
    let solve = report
        .metrics
        .histogram("batch.solve")
        .expect("batch.solve histogram in the embedded delta");
    assert_eq!(solve.count, 6);
    assert!(solve.p50_nanos > 0.0);
    assert!(solve.p99_nanos >= solve.p50_nanos);
    let wait = report
        .metrics
        .histogram("batch.queue_wait")
        .expect("batch.queue_wait histogram in the embedded delta");
    // One sample per dequeued instance plus one per worker's terminating
    // empty fetch.
    assert!(wait.count >= 6, "queue_wait count {} < 6", wait.count);
    // Every backend the census says ran must have a solve-time histogram.
    for stats in report.backend_stats.iter().filter(|s| s.runs > 0) {
        let name = format!("backend.solve.{}", stats.backend);
        let histogram = report
            .metrics
            .histogram(&name)
            .unwrap_or_else(|| panic!("missing {name} in the embedded delta"));
        assert!(
            histogram.count as usize >= stats.runs,
            "{name}: {} samples < {} runs",
            histogram.count,
            stats.runs
        );
    }
}

#[test]
fn batch_report_round_trips_through_json() {
    let _guard = BATCH_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let report = run_small_batch(0x0B52, 5);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let parsed: BatchReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(parsed.instances, report.instances);
    assert_eq!(parsed.feasible_instances, report.feasible_instances);
    assert_eq!(parsed.cache_answered, report.cache_answered);
    assert_eq!(parsed.elapsed, report.elapsed);
    assert_eq!(parsed.backend_stats.len(), report.backend_stats.len());
    for (a, b) in parsed.backend_stats.iter().zip(&report.backend_stats) {
        assert_eq!(a.backend, b.backend);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.wins, b.wins);
        assert_eq!(a.front_points, b.front_points);
        assert_eq!(a.total_micros, b.total_micros);
    }
    assert_eq!(
        parsed.metrics.counter_value("batch.instances"),
        report.metrics.counter_value("batch.instances")
    );
    assert_eq!(
        parsed.metrics.histogram("batch.solve").map(|h| h.count),
        report.metrics.histogram("batch.solve").map(|h| h.count)
    );
    // A report serialized before the `metrics` field existed still parses
    // (the field is `#[serde(default)]`): truncate the JSON just before the
    // trailing metrics entry and close the object.
    let truncated = json
        .split("\"metrics\"")
        .next()
        .expect("metrics key present")
        .trim_end()
        .trim_end_matches(',')
        .to_string()
        + "\n}";
    let legacy: BatchReport =
        serde_json::from_str(&truncated).expect("metrics-less report still parses");
    assert_eq!(legacy.instances, report.instances);
    assert!(legacy.metrics.counters.is_empty());
}

#[test]
fn global_registry_sees_the_solver_stack() {
    let _guard = BATCH_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let before = obs::global().snapshot();
    let report = run_small_batch(0x0B53, 4);
    assert_eq!(report.instances, 4);
    let delta = obs::global().snapshot().delta(&before);
    // Cache counter families exist and miss at least once on fresh engines.
    assert!(delta.counter_value("cache.instance.misses").unwrap_or(0) >= 4);
    assert!(delta.counter_value("cache.oracle.misses").unwrap_or(0) >= 1);
    assert!(
        delta.counter_value("cache.scratch.hits").is_some()
            && delta.counter_value("cache.scratch.misses").is_some(),
        "scratch-pool counters missing from the global registry"
    );
    // The DP kernel ran and recorded both its span histogram and row sweeps.
    assert!(delta.counter_value("dp.kernel.row_sweeps").unwrap_or(0) > 0);
    let kernel = delta
        .histogram("span.dp.kernel")
        .expect("span.dp.kernel histogram");
    assert!(kernel.count > 0, "no dp.kernel spans recorded");
    let engine = delta
        .histogram("span.engine.solve")
        .expect("span.engine.solve histogram");
    assert!(engine.count >= 4, "one engine.solve span per instance");
}

#[test]
fn bucketed_batch_records_the_mega_kernel_metrics() {
    let _guard = BATCH_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let engine = PortfolioEngine::default().with_threads(1);
    let driver = BatchDriver::new(BatchConfig {
        workers: 2,
        bucketed: true,
        ..BatchConfig::default()
    });
    let generator = InstanceGenerator::paper_homogeneous(0x0B54);
    let report = driver.run(&engine, generator.stream(10));
    assert_eq!(report.instances, 10);
    // Every homogeneous paper instance is bucket-eligible.
    assert!(report.buckets_dispatched > 0);
    assert_eq!(report.bucketed_instances, 10);
    assert_eq!(report.remainder_solves, 0);
    let metrics = &report.metrics;
    assert_eq!(
        metrics.counter_value("dp.batch.buckets"),
        Some(report.buckets_dispatched as u64)
    );
    // One lanes_occupied sample per kernel chunk dispatch; each bucketed
    // instance occupies a lane in at least the Algo-1 pass.
    assert!(
        metrics
            .counter_value("dp.batch.lanes_occupied")
            .unwrap_or(0)
            >= report.bucketed_instances as u64
    );
    assert_eq!(
        metrics
            .counter_value("dp.batch.remainder_solves")
            .unwrap_or(0),
        0
    );
    let kernel_span = metrics
        .histogram("span.dp.batch_kernel")
        .expect("span.dp.batch_kernel histogram in the embedded delta");
    assert!(
        kernel_span.count as usize >= report.buckets_dispatched,
        "at least one mega-kernel span per dispatched bucket"
    );
    let occupancy = metrics
        .histogram("batch.lane_occupancy")
        .expect("batch.lane_occupancy histogram in the embedded delta");
    assert_eq!(kernel_span.count, occupancy.count);
}

#[test]
fn het_lat_label_arenas_are_pooled_through_the_scratch() {
    let _guard = BATCH_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let chain = pipelined_rt::model::TaskChain::from_pairs(&[
        (30.0, 2.0),
        (10.0, 8.0),
        (25.0, 1.0),
        (40.0, 3.0),
    ])
    .expect("valid chain");
    let platform = pipelined_rt::model::PlatformBuilder::new()
        .processor(4.0, 1e-3)
        .processor(2.0, 1e-3)
        .processor(1.0, 1e-3)
        .processor(3.0, 1e-3)
        .bandwidth(1.0)
        .link_failure_rate(1e-4)
        .max_replication(2)
        .build()
        .expect("valid platform");
    let oracle = pipelined_rt::model::IntervalOracle::new(&chain, &platform);

    let before = obs::global().snapshot();
    let mut scratch = pipelined_rt::algorithms::DpScratch::new();
    for _ in 0..3 {
        let solution = pipelined_rt::algorithms::algo_het_lat(
            &oracle,
            &chain,
            &platform,
            Some(50.0),
            150.0,
            &mut scratch,
        )
        .expect("tri-criteria instance is solvable");
        assert!(solution.reliability > 0.0);
    }
    let delta = obs::global().snapshot().delta(&before);
    // First solve grows the label arenas (miss); the two repeats reuse the
    // pooled allocations through the shared scratch (hits).
    assert_eq!(delta.counter_value("het_lat.label_pool.misses"), Some(1));
    assert_eq!(delta.counter_value("het_lat.label_pool.hits"), Some(2));
}

#[test]
fn span_recorder_captures_nested_solver_spans() {
    let registry = Registry::new();
    let recorder = SpanRecorder::new(registry, 1024);
    let chain = pipelined_rt::model::TaskChain::from_pairs(&[(30.0, 2.0), (20.0, 1.0)])
        .expect("valid chain");
    let platform =
        pipelined_rt::model::Platform::homogeneous(3, 1.0, 1e-5, 1.0, 1e-6, 2).expect("platform");
    {
        let _outer = recorder.span("test.outer");
        let _inner = recorder.span("test.inner");
        let _oracle = pipelined_rt::model::IntervalOracle::new(&chain, &platform);
    }
    // The private recorder only sees its own spans (oracle.build went to the
    // global recorder), but nesting and paths are attributed on this one.
    let records = recorder.records();
    assert_eq!(records.len(), 2);
    let inner = records.iter().find(|r| r.name == "test.inner").unwrap();
    let outer = records.iter().find(|r| r.name == "test.outer").unwrap();
    assert_eq!(inner.path, "test.outer;test.inner");
    assert_eq!(outer.path, "test.outer");
    assert!(outer.duration_nanos >= inner.duration_nanos);
}

#[test]
fn disabled_runtime_toggle_stops_new_samples() {
    let registry = Registry::new();
    registry.counter("toggled").inc();
    registry.set_enabled(false);
    registry.counter("toggled").inc();
    registry.set_enabled(true);
    registry.counter("toggled").inc();
    assert_eq!(registry.snapshot().counter_value("toggled"), Some(2));
}
