//! The traced in-process pass: the request lines go one at a time through
//! the entry points `solve serve` itself uses, with a benchmark span around
//! each call, and every request that needed a fresh solve is solved again
//! through the engine's parts so the engine's time can be split.
//!
//! Spans are recorded only from this file, around public entry points of
//! `rpo-serve` and `rpo-portfolio`; nothing inside the program changes.
//! They are kept in memory and written out as JSON lines at the end.

use crate::verify::{verify, Tally};
use rpo_algorithms::DpScratch;
use rpo_portfolio::{
    default_backends, Budget, PortfolioEngine, ProblemInstance, SolveContext, SolverBackend,
    StreamingFront,
};
use rpo_serve::{ResponseStatus, ServeConfig, ServeRequest, ServeResponse, SolverService};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// The portfolio backends the ledger reports, in engine order. `ILP` and
/// `Exhaustive` follow them in `default_backends()`; their size caps skip
/// them on every workload, which the pass reports as run counts.
pub const REPORTED_BACKENDS: [&str; 8] = [
    "Algo-1",
    "Algo-2",
    "Period-Opt",
    "Heur-L",
    "Heur-P",
    "Het-Dp",
    "Het-Dp-Lat",
    "Het-Sweep",
];

/// The program's own `rpo-obs` counters the pass reads as snapshot deltas.
pub const COUNTERS: [&str; 6] = [
    "period_opt.probes",
    "dp.kernel.row_sweeps",
    "het_lat.path.label_dp",
    "het_lat.path.lagrangian",
    "het_lat.path.greedy",
    "backend.dominated_aborts",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request the span belongs to.
    pub request: u64,
    /// The layer entry point it wraps.
    pub layer: &'static str,
    /// Start, in nanoseconds from the pass start.
    pub start_ns: u64,
    /// End, in nanoseconds from the pass start.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder that does nothing when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, request: u64, layer: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            request,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        if self.on {
            self.spans[span].end_ns = self.now_ns();
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per layer, in nanoseconds, with span counts. Self
    /// time is a span's duration minus the durations of its children.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = layers.entry(span.layer).or_default();
            entry.spans += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        layers
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{index},\"request\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                span.request,
                span.layer,
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
            )?;
        }
        out.flush()
    }
}

/// Time one layer spent across a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub spans: usize,
    /// Summed span durations, in nanoseconds.
    pub total_ns: u64,
    /// Summed self times, in nanoseconds.
    pub self_ns: u64,
}

/// Everything one pass produced.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Requests sent through the pass.
    pub requests: usize,
    /// Verdicts of the pass's responses.
    pub tally: Tally,
    /// The spans (empty when the pass ran with spans off).
    pub tracer: Tracer,
    /// Server-reported `solve_micros` of every fresh solve.
    pub solve_micros: Vec<u64>,
    /// Front size of every fresh solve.
    pub front_points: Vec<usize>,
    /// Per reported backend: fresh solves whose answered point it produced.
    pub wins: [usize; REPORTED_BACKENDS.len()],
    /// Per reported backend: fresh solves whose front holds one of its points.
    pub in_front: [usize; REPORTED_BACKENDS.len()],
    /// Per backend of `default_backends()`: fresh solves it ran on.
    pub runs: Vec<(&'static str, usize)>,
    /// Fresh solves whose re-run did not reproduce the served front.
    pub rerun_mismatches: usize,
    /// Requests answered from a tenant shard (`SolverService::stats`).
    pub shard_hits: u64,
    /// Requests answered from the engine's instance cache.
    pub engine_cache_hits: u64,
    /// Oracle-cache hits and lookups of the engine.
    pub oracle_cache: (u64, u64),
    /// Deltas of [`COUNTERS`] over the pass.
    pub counters: BTreeMap<&'static str, u64>,
}

impl Pass {
    /// Fresh solves in the pass.
    pub fn fresh(&self) -> usize {
        self.solve_micros.len()
    }
}

/// The span layer name of each backend, `backend.<name>`, in engine order
/// (built once per process: span layers are `&'static str`).
fn backend_layers(backends: &[Box<dyn SolverBackend>]) -> &'static [&'static str] {
    static LAYERS: OnceLock<Vec<&'static str>> = OnceLock::new();
    LAYERS.get_or_init(|| {
        backends
            .iter()
            .map(|b| &*Box::leak(format!("backend.{}", b.name()).into_boxed_str()))
            .collect()
    })
}

/// Runs `items` (request line and the request it encodes) one at a time
/// through a fresh `workers: 0` service with the CLI's other defaults, until
/// `budget` has passed. With `traced` off, no clock is read per layer.
pub fn run_pass(items: &[(&[u8], &ServeRequest)], traced: bool, budget: Duration) -> Pass {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    let service = SolverService::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        },
    );
    let backends = default_backends();
    let layers = backend_layers(&backends);
    let solve_budget = Budget::default();
    let mut scratch = DpScratch::new();
    let mut tracer = Tracer::new(traced);
    let mut pass = Pass {
        wall: Duration::ZERO,
        requests: 0,
        tally: Tally::default(),
        tracer: Tracer::new(false),
        solve_micros: Vec::new(),
        front_points: Vec::new(),
        wins: [0; REPORTED_BACKENDS.len()],
        in_front: [0; REPORTED_BACKENDS.len()],
        runs: backends.iter().map(|b| (b.name(), 0)).collect(),
        rerun_mismatches: 0,
        shard_hits: 0,
        engine_cache_hits: 0,
        oracle_cache: (0, 0),
        counters: BTreeMap::new(),
    };
    let before = rpo_obs::global().snapshot();
    let start = Instant::now();
    for &(line, request) in items {
        if start.elapsed() >= budget {
            break;
        }
        pass.requests += 1;
        pass.tally.sent += 1;
        let id = request.id;
        let text = std::str::from_utf8(line)
            .expect("request lines are UTF-8")
            .trim_end();

        let root = tracer.open(id, "request", None);
        let span = tracer.open(id, "proto.parse", Some(root));
        let parsed = serde_json::from_str::<ServeRequest>(text);
        tracer.close(span);
        let Ok(parsed) = parsed else {
            pass.tally.stray += 1;
            continue;
        };
        let (sink, answer) = mpsc::sync_channel::<ServeResponse>(1);
        let span = tracer.open(id, "service.submit_with", Some(root));
        service.submit_with(
            parsed,
            Box::new(move |response| {
                let _ = sink.send(response);
            }),
        );
        tracer.close(span);
        let mut response = answer.try_recv().ok();
        if response.is_none() {
            let span = tracer.open(id, "service.process_one", Some(root));
            service.process_one();
            tracer.close(span);
            response = answer.try_recv().ok();
        }
        let Some(response) = response else {
            tracer.close(root);
            pass.tally.missing += 1;
            continue;
        };
        let span = tracer.open(id, "proto.encode", Some(root));
        let json = serde_json::to_string(&response);
        tracer.close(span);
        std::hint::black_box(json.expect("responses serialize"));
        tracer.close(root);

        let fresh = !response.cached
            && matches!(
                response.status,
                ResponseStatus::Ok | ResponseStatus::Infeasible
            );
        pass.tally.record(verify(request, &response));
        if fresh {
            rerun(
                &mut pass,
                &mut tracer,
                request,
                &response,
                &backends,
                layers,
                &solve_budget,
                &mut scratch,
            );
        }
    }
    pass.wall = start.elapsed();
    let delta = rpo_obs::global().snapshot().delta(&before);
    for name in COUNTERS {
        pass.counters
            .insert(name, delta.counter_value(name).unwrap_or(0));
    }
    pass.shard_hits = service.stats().cache_hits;
    pass.engine_cache_hits = engine.cache_stats().hits;
    let oracle = engine.oracle_cache_stats();
    pass.oracle_cache = (oracle.hits, oracle.hits + oracle.misses);
    service.shutdown();
    pass.tracer = tracer;
    pass
}

/// Solves `request` again through the engine's parts, in engine order —
/// oracle build, each backend with a [`SolveContext`], re-certification
/// into a [`StreamingFront`] — and checks that it reproduces `served`.
#[allow(clippy::too_many_arguments)]
fn rerun(
    pass: &mut Pass,
    tracer: &mut Tracer,
    request: &ServeRequest,
    served: &ServeResponse,
    backends: &[Box<dyn SolverBackend>],
    layers: &[&'static str],
    budget: &Budget,
    scratch: &mut DpScratch,
) {
    let id = request.id;
    let instance = ProblemInstance::new(
        request.chain.clone(),
        request.platform.clone(),
        request.period_bound.unwrap_or(f64::INFINITY),
        request.latency_bound.unwrap_or(f64::INFINITY),
    )
    .expect("the service accepted these bounds");

    let root = tracer.open(id, "engine.rerun", None);
    let span = tracer.open(id, "oracle.build", Some(root));
    let oracle = instance.build_oracle();
    tracer.close(span);
    let streaming = StreamingFront::new();
    for (index, backend) in backends.iter().enumerate() {
        let span = tracer.open(id, layers[index], Some(root));
        let mut candidates = if backend.applicability(&instance, budget).is_applicable() {
            pass.runs[index].1 += 1;
            let mut ctx = SolveContext {
                scratch: &mut *scratch,
                front: Some(&streaming),
            };
            backend.solve(&instance, &oracle, budget, &mut ctx)
        } else {
            Vec::new()
        };
        tracer.close(span);
        let span = tracer.open(id, "pareto.certify", Some(root));
        for candidate in &mut candidates {
            candidate.evaluation = oracle.evaluate(&candidate.mapping);
        }
        candidates.retain(|c| instance.admits(&c.evaluation));
        for candidate in candidates {
            streaming.insert(candidate);
        }
        tracer.close(span);
    }
    let span = tracer.open(id, "pareto.certify", Some(root));
    let front = streaming.into_front();
    tracer.close(span);
    tracer.close(root);
    scratch.reset();

    pass.solve_micros.push(served.solve_micros);
    pass.front_points.push(front.len());
    let best = front.best_reliability();
    if front.len() != served.front_points
        || best.map(|b| b.evaluation.reliability) != served.reliability
    {
        pass.rerun_mismatches += 1;
    }
    let slot = |name: &str| REPORTED_BACKENDS.iter().position(|&b| b == name);
    if let Some(index) = best.and_then(|b| slot(b.backend)) {
        pass.wins[index] += 1;
    }
    for (index, name) in REPORTED_BACKENDS.iter().enumerate() {
        if front.points().iter().any(|p| p.backend == *name) {
            pass.in_front[index] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Plan, Workload};

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        let root = tracer.open(1, "request", None);
        let child = tracer.open(1, "proto.parse", Some(root));
        std::thread::sleep(Duration::from_millis(2));
        tracer.close(child);
        tracer.close(root);
        let layers = tracer.layer_times();
        let (request, parse) = (layers["request"], layers["proto.parse"]);
        assert_eq!(request.total_ns - parse.total_ns, request.self_ns);
        assert_eq!(parse.total_ns, parse.self_ns);
        assert!(parse.total_ns >= 2_000_000);

        let mut off = Tracer::new(false);
        let span = off.open(1, "request", None);
        off.close(span);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn a_short_pass_reproduces_every_fresh_solve() {
        let plan = Plan::new(Workload::HomDup, 5, 0, 0.05, 24);
        let items: Vec<(&[u8], &ServeRequest)> = plan
            .saturate
            .lines
            .iter()
            .map(Vec::as_slice)
            .zip(&plan.saturate.requests)
            .collect();
        let pass = run_pass(&items, true, Duration::from_secs(60));
        assert_eq!(pass.requests, items.len());
        assert_eq!(pass.tally.failed(), 0);
        assert_eq!(pass.rerun_mismatches, 0);
        assert!(pass.fresh() > 0);
        let layers = pass.tracer.layer_times();
        assert_eq!(layers["request"].spans, items.len());
        assert_eq!(layers["engine.rerun"].spans, pass.fresh());
        assert_eq!(layers["backend.Heur-P"].spans, pass.fresh());
    }
}
