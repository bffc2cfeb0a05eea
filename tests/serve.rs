//! The serving-layer contract: bounded-queue backpressure, deadline
//! shedding (never a stale solve), bit-identical duplicate coalescing, one
//! result cache for every tenant, responders that never stall the service,
//! the engine's deadline accounting underneath it all, a 1k-request
//! loopback replay over real TCP, and the wire layer's bounds: a peer that
//! stops reading, hostile lines, panicking solves, the TCP drain and the
//! connection cap.

use pipelined_rt::model::IntervalOracle;
use pipelined_rt::portfolio::{
    default_backends, Applicability, Budget, CandidateMapping, PortfolioEngine, ProblemInstance,
    RunStatus, SolveContext, SolverBackend,
};
use pipelined_rt::serve::wire::MAX_CONNECTIONS;
use pipelined_rt::serve::{
    serve_lines, Responder, ResponseStatus, ServeConfig, ServeRequest, ServeResponse,
    SolverService, TcpServer,
};
use pipelined_rt::workload::{GeneratedRequest, InstanceGenerator, RequestSpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Dresses a generated request as a wire request (homogeneous platform).
fn to_wire(generated: &GeneratedRequest, deadline_ms: Option<f64>) -> ServeRequest {
    ServeRequest {
        id: generated.index as u64,
        tenant: generated.tenant,
        deadline_ms,
        chain: generated.instance.chain.clone(),
        platform: generated.instance.homogeneous.clone(),
        period_bound: Some(generated.period_bound).filter(|bound| bound.is_finite()),
        latency_bound: Some(generated.latency_bound).filter(|bound| bound.is_finite()),
    }
}

/// One JSON line per request, each with `deadline_ms`.
fn wire_lines(requests: &[GeneratedRequest], deadline_ms: Option<f64>) -> Vec<u8> {
    let mut input = Vec::new();
    for request in requests {
        let line = serde_json::to_string(&to_wire(request, deadline_ms)).unwrap();
        input.extend_from_slice(line.as_bytes());
        input.push(b'\n');
    }
    input
}

/// A `Write` into a buffer the test keeps a handle to.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl SharedSink {
    fn responses(&self) -> Vec<ServeResponse> {
        let bytes = self.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("utf8 responses")
            .lines()
            .map(|line| serde_json::from_str(line).expect("response parses"))
            .collect()
    }
}

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `input` as one stdio-style connection; returns its responses in
/// the order they were written.
fn serve_input(service: &SolverService, input: &[u8]) -> Vec<ServeResponse> {
    let sink = SharedSink::default();
    serve_lines(service, input, sink.clone()).expect("serve loop");
    sink.responses()
}

/// A `workers: 0` service processed manually — fully deterministic.
fn manual_service(queue_capacity: usize) -> SolverService {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    SolverService::start(
        engine,
        ServeConfig {
            workers: 0,
            queue_capacity,
            default_deadline: None,
        },
    )
}

#[test]
fn bounded_queue_sheds_overflow_with_typed_rejections() {
    let service = manual_service(4);
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(100)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(10).collect();
    let tickets: Vec<_> = requests
        .iter()
        .map(|request| {
            let ticket = service.submit(to_wire(request, None));
            // Property: the bounded queue never exceeds its capacity, no
            // matter how many submissions pile up.
            assert!(service.queue_depth() <= 4);
            ticket
        })
        .collect();
    assert_eq!(service.queue_depth(), 4);

    let mut responses: Vec<ServeResponse> = Vec::new();
    let mut overloaded = 0;
    let mut queued = Vec::new();
    for ticket in tickets {
        match ticket.try_get() {
            // Overflow rejections are immediate and typed.
            Some(response) => {
                assert_eq!(response.status, ResponseStatus::Overloaded);
                assert!(response.error.is_some());
                overloaded += 1;
                responses.push(response);
            }
            None => queued.push(ticket),
        }
    }
    assert_eq!(overloaded, 6);
    assert_eq!(queued.len(), 4);

    // Draining the queue answers every admitted request.
    for _ in 0..4 {
        assert!(service.process_one());
    }
    assert!(!service.process_one(), "queue should be empty");
    for ticket in queued {
        let response = ticket.wait();
        assert!(matches!(
            response.status,
            ResponseStatus::Ok | ResponseStatus::Infeasible
        ));
    }
    let stats = service.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.overloaded, 6);
    assert_eq!(stats.solved, 4);
    service.shutdown();
}

#[test]
fn expired_deadlines_shed_without_solving() {
    let service = manual_service(16);
    let spec = RequestSpec::serve_replay(200);
    let requests: Vec<GeneratedRequest> = spec.stream(2).collect();

    // Already expired at admission: shed immediately, never queued.
    let dead_on_arrival = service.submit(to_wire(&requests[0], Some(0.0)));
    let response = dead_on_arrival.wait();
    assert_eq!(response.status, ResponseStatus::Shed);
    assert_eq!(service.queue_depth(), 0);
    assert_eq!(service.stats().solved, 0);

    // Expires while queued: shed at dequeue, the solve itself is skipped.
    let queued = service.submit(to_wire(&requests[1], Some(5.0)));
    assert_eq!(service.queue_depth(), 1);
    std::thread::sleep(Duration::from_millis(20));
    assert!(service.process_one());
    let response = queued.wait();
    assert_eq!(response.status, ResponseStatus::Shed);
    let stats = service.stats();
    assert_eq!(stats.solved, 0, "shed requests must never be solved");
    assert_eq!(stats.shed, 2);
    service.shutdown();
}

#[test]
fn coalesced_duplicates_are_bit_identical() {
    let service = manual_service(16);
    let spec = RequestSpec::serve_replay(300);
    let requests: Vec<GeneratedRequest> = spec.stream(1).collect();

    let first = service.submit(to_wire(&requests[0], None));
    std::thread::sleep(Duration::from_millis(20));
    let second_submitted = Instant::now();
    let second = service.submit(ServeRequest {
        id: 999,
        ..to_wire(&requests[0], None)
    });
    // The duplicate coalesces onto the queued solve: no extra queue slot.
    assert_eq!(service.queue_depth(), 1);
    let stats = service.stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.coalesced, 1);

    assert!(service.process_one());
    let a = first.wait();
    let b = second.wait();
    // Each reports its own time: the duplicate queued for less than the
    // original, and never for longer than it existed.
    assert!(a.queue_wait_micros >= 20_000);
    assert!(b.queue_wait_micros + b.solve_micros <= second_submitted.elapsed().as_micros() as u64);
    assert_eq!(service.stats().solved, 1, "one solve served both");
    assert_eq!(a.status, ResponseStatus::Ok);
    assert_eq!(b.status, ResponseStatus::Ok);
    assert!(!a.coalesced);
    assert!(b.coalesced);
    // Bit-identical: same solve, same front, same reliability bits.
    assert_eq!(
        a.reliability.unwrap().to_bits(),
        b.reliability.unwrap().to_bits()
    );
    assert_eq!(a.mapping, b.mapping);

    // A later identical request is answered from the engine's instance
    // cache at admission, without a new solve.
    let third = service.submit(ServeRequest {
        id: 1000,
        ..to_wire(&requests[0], None)
    });
    let c = third.wait();
    assert!(c.cached);
    assert_eq!(service.stats().cache_hits, 1);
    assert_eq!(service.stats().solved, 1);
    assert_eq!(
        a.reliability.unwrap().to_bits(),
        c.reliability.unwrap().to_bits()
    );
    service.shutdown();
}

#[test]
fn duplicates_from_another_tenant_are_answered_at_admission() {
    let service = manual_service(16);
    let requests: Vec<GeneratedRequest> = RequestSpec::serve_replay(350).stream(1).collect();
    let original = ServeRequest {
        tenant: 0,
        ..to_wire(&requests[0], None)
    };
    let first = service.submit(original.clone());
    assert!(service.process_one());
    let a = first.wait();
    assert_eq!(a.status, ResponseStatus::Ok);

    // The same instance from another tenant: the tenant label is no part of
    // the cache key, so the copy is answered before it takes a queue slot.
    let copy = service.submit(ServeRequest {
        id: 1,
        tenant: 1,
        ..original
    });
    assert_eq!(service.queue_depth(), 0);
    let b = copy
        .try_get()
        .expect("a cache hit is answered at admission");
    assert!(b.cached);
    let stats = service.stats();
    assert_eq!(stats.solved, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(
        a.reliability.unwrap().to_bits(),
        b.reliability.unwrap().to_bits()
    );
    assert_eq!(a.mapping, b.mapping);
    service.shutdown();
}

/// Runs `trigger`, which makes the service call the responder it is given,
/// on one thread; that responder blocks like a TCP peer that stopped
/// reading. While it blocks, `probe` is submitted from another thread and
/// must return. The gate opens before the verdict is asserted, so a service
/// that responds under its state lock fails the test instead of hanging it.
fn assert_submit_returns_while_a_responder_blocks(
    service: &SolverService,
    expected: ResponseStatus,
    trigger: impl FnOnce(Responder) + Send,
    probe: ServeRequest,
) {
    std::thread::scope(|scope| {
        let (entered_tx, entered) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel::<()>();
        scope.spawn(move || {
            trigger(Box::new(move |response| {
                let _ = entered_tx.send(response.status);
                let _ = gate_rx.recv();
            }))
        });
        let status = entered
            .recv_timeout(Duration::from_secs(10))
            .expect("the blocking responder was called");
        let (returned_tx, returned) = mpsc::channel();
        scope.spawn(move || {
            let _ticket = service.submit(probe);
            let _ = returned_tx.send(());
        });
        let verdict = returned.recv_timeout(Duration::from_secs(5));
        gate.send(())
            .expect("the blocking responder is still waiting");
        assert_eq!(status, expected);
        assert!(
            verdict.is_ok(),
            "submit stalled behind a blocked {expected:?} responder"
        );
    });
}

#[test]
fn a_blocked_responder_never_stalls_other_submitters() {
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(450)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(6).collect();

    // An `overloaded` rejection: the one-slot queue is already full.
    let service = manual_service(1);
    let _queued = service.submit(to_wire(&requests[0], None));
    assert_submit_returns_while_a_responder_blocks(
        &service,
        ResponseStatus::Overloaded,
        |respond| service.submit_with(to_wire(&requests[1], None), respond),
        to_wire(&requests[2], None),
    );
    service.shutdown();

    // A dequeue-time shed: the request's deadline passes while it is queued.
    let service = manual_service(16);
    assert_submit_returns_while_a_responder_blocks(
        &service,
        ResponseStatus::Shed,
        |respond| {
            service.submit_with(to_wire(&requests[3], Some(5.0)), respond);
            std::thread::sleep(Duration::from_millis(20));
            assert!(service.process_one());
        },
        to_wire(&requests[4], None),
    );
    service.shutdown();
}

#[test]
fn unrepresentable_deadlines_are_invalid_and_negative_ones_unbounded() {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    let service = SolverService::start(
        engine,
        ServeConfig {
            workers: 0,
            default_deadline: Some(Duration::from_millis(1)),
            ..ServeConfig::default()
        },
    );
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(550)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(2).collect();

    // No `Instant` lies 1e300 ms ahead: a typed rejection, not a panic.
    let response = service.submit(to_wire(&requests[0], Some(1e300))).wait();
    assert_eq!(response.status, ResponseStatus::Invalid);
    assert!(response.error.is_some());
    assert_eq!(service.queue_depth(), 0);

    // A negative deadline still means none at all, not even the 1 ms
    // default: the request outlives the default and is solved.
    let unbounded = service.submit(to_wire(&requests[1], Some(-1.0)));
    assert_eq!(service.queue_depth(), 1);
    std::thread::sleep(Duration::from_millis(20));
    assert!(service.process_one());
    assert!(matches!(
        unbounded.wait().status,
        ResponseStatus::Ok | ResponseStatus::Infeasible
    ));
    assert_eq!(service.stats().solved, 1);
    service.shutdown();
}

#[test]
fn draining_service_rejects_new_requests_but_finishes_queued_work() {
    let service = manual_service(16);
    // Distinct instances: a duplicate would be answered from the engine's
    // instance cache before the draining check ever fires.
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(400)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(2).collect();
    let queued = service.submit(to_wire(&requests[0], None));
    // Shutdown drains: the queued request is answered, not dropped.
    let stats = service.shutdown();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.solved, 1);
    assert!(matches!(
        queued.wait().status,
        ResponseStatus::Ok | ResponseStatus::Infeasible
    ));
    // New submissions after the drain get a typed rejection.
    let late = service.submit(to_wire(&requests[1], None));
    assert_eq!(late.wait().status, ResponseStatus::Draining);
    assert_eq!(service.stats().drained, 1);
}

#[test]
fn engine_deadline_expiry_is_reported_and_not_cached() {
    let generator = InstanceGenerator::paper_homogeneous(77);
    let generated = generator.instance(0);
    let instance = ProblemInstance::unbounded(generated.chain, generated.homogeneous);

    // A deadline in the past: every runnable backend is shed before
    // dispatch and the outcome says so.
    let engine = PortfolioEngine::default().with_threads(1);
    let expired = engine.solve_until(&instance, Some(Instant::now() - Duration::from_secs(1)));
    assert!(expired.deadline_expired);
    assert!(!expired.from_cache);
    assert!(
        expired
            .runs
            .iter()
            .filter(|run| !matches!(run.status, RunStatus::Skipped(_)))
            .all(|run| run.status == RunStatus::DeadlineExpired),
        "all runnable backends must be marked DeadlineExpired"
    );
    assert!(!expired.is_feasible(), "nothing ran, nothing found");

    // The partial (here: empty) front was not cached — the next solve runs
    // fresh and succeeds.
    let fresh = engine.solve(&instance);
    assert!(!fresh.from_cache, "expired solve must not poison the cache");
    assert!(!fresh.deadline_expired);
    assert!(fresh.is_feasible());

    // A budget-derived zero time limit behaves the same way.
    let strangled =
        PortfolioEngine::new(default_backends(), Budget::with_time_limit(Duration::ZERO))
            .with_threads(1);
    let outcome = strangled.solve(&instance);
    assert!(outcome.deadline_expired);
}

#[test]
fn loopback_replay_of_a_seeded_1k_request_stream() {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    let service = Arc::new(SolverService::start(
        engine,
        ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            default_deadline: Some(Duration::from_secs(30)),
        },
    ));
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");

    let spec = RequestSpec::serve_replay(4242);
    let requests: Vec<GeneratedRequest> = spec.stream(1000).collect();

    let stream = TcpStream::connect(server.local_addr()).expect("connect loopback");
    let mut writer = stream.try_clone().expect("clone socket");
    // Read concurrently with writing so neither side of the socket can
    // fill up and deadlock the replay.
    let reader = std::thread::spawn(move || {
        let mut responses = Vec::with_capacity(1000);
        for line in BufReader::new(stream).lines() {
            let line = line.expect("response line");
            let response: ServeResponse =
                serde_json::from_str(&line).expect("response line parses");
            responses.push(response);
            if responses.len() == 1000 {
                break;
            }
        }
        responses
    });
    for request in &requests {
        // A generous deadline: the replay asserts protocol behaviour, not
        // timing; the bench gate covers latency.
        let line = serde_json::to_string(&to_wire(request, Some(30_000.0))).unwrap();
        writeln!(writer, "{line}").expect("write request");
    }
    writer.flush().expect("flush requests");
    let responses = reader.join().expect("reader thread");
    drop(writer);

    // Exactly one response per request, correlated by id.
    assert_eq!(responses.len(), 1000);
    let mut by_id: HashMap<u64, &ServeResponse> = HashMap::new();
    for response in &responses {
        assert!(
            by_id.insert(response.id, response).is_none(),
            "duplicate response for id {}",
            response.id
        );
    }
    assert_eq!(by_id.len(), 1000);

    // With generous deadlines and a deep queue, everything resolves.
    for response in &responses {
        assert!(
            matches!(
                response.status,
                ResponseStatus::Ok | ResponseStatus::Infeasible
            ),
            "unexpected status {:?} for id {}",
            response.status,
            response.id
        );
    }

    // Duplicate requests (≥ 30% of the stream by construction) return
    // bit-identical solutions to their originals, whether they were
    // coalesced or answered from the engine's instance cache.
    let mut duplicates = 0;
    for request in &requests {
        if let Some(original_unique) = request.duplicate_of {
            duplicates += 1;
            let original = requests
                .iter()
                .find(|r| r.duplicate_of.is_none() && r.instance.index == original_unique)
                .expect("original request exists");
            let a = by_id[&(request.index as u64)];
            let b = by_id[&(original.index as u64)];
            assert_eq!(a.status, b.status);
            if let (Some(x), Some(y)) = (a.reliability, b.reliability) {
                assert_eq!(x.to_bits(), y.to_bits(), "duplicate diverged");
            }
            assert_eq!(a.mapping, b.mapping);
        }
    }
    assert!(
        duplicates >= 300,
        "stream not duplicate-heavy: {duplicates}"
    );

    // Duplicate traffic never pays for a fresh solve: it is coalesced onto
    // a queued or in-flight solve, or answered at admission from the
    // engine's instance cache — the response says which.
    let absorbed = responses
        .iter()
        .filter(|response| response.coalesced || response.cached)
        .count();
    assert!(absorbed >= 300, "only {absorbed} duplicates absorbed");

    server.stop();
    let stats = service.shutdown();
    assert_eq!(
        stats.admitted + stats.coalesced + stats.cache_hits,
        1000,
        "every request admitted, coalesced, or cache-answered"
    );
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.overloaded, 0);
}

#[test]
fn stdio_style_serve_lines_round_trip() {
    let service = SolverService::start(
        Arc::new(PortfolioEngine::default().with_threads(1)),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let spec = RequestSpec::serve_replay(888);
    let requests: Vec<GeneratedRequest> = spec.stream(8).collect();
    let mut input = wire_lines(&requests, Some(30_000.0));
    input.extend_from_slice(b"this is not json\n\n");

    let responses = serve_input(&service, &input);
    service.shutdown();
    assert_eq!(responses.len(), 9, "8 requests + 1 invalid line");
    let invalid = responses
        .iter()
        .filter(|r| r.status == ResponseStatus::Invalid)
        .count();
    assert_eq!(invalid, 1);
}

/// A `Write` whose first write blocks until the gate opens: a peer that
/// stops reading.
struct GatedSink {
    entered: Option<mpsc::Sender<()>>,
    gate: mpsc::Receiver<()>,
    sink: SharedSink,
}

impl Write for GatedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(entered) = self.entered.take() {
            let _ = entered.send(());
            let _ = self.gate.recv();
        }
        self.sink.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_peer_that_never_reads_stalls_only_itself() {
    // One worker: if workers wrote responses themselves, it would block
    // inside the stalled peer's write and nothing else would be answered.
    let service = SolverService::start(
        Arc::new(PortfolioEngine::default().with_threads(1)),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(650)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(3).collect();
    let stalled_input = wire_lines(&requests[..2], Some(30_000.0));
    let other_input = wire_lines(&requests[2..], Some(5_000.0));
    let (entered_tx, entered) = mpsc::channel();
    let (gate, gate_rx) = mpsc::channel();
    let stalled = SharedSink::default();
    let gated = GatedSink {
        entered: Some(entered_tx),
        gate: gate_rx,
        sink: stalled.clone(),
    };
    std::thread::scope(|scope| {
        let stalled_loop = scope.spawn(|| serve_lines(&service, stalled_input.as_slice(), gated));
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("the first response reached the stalled peer");
        let (answered_tx, answered) = mpsc::channel();
        let (service, other_input) = (&service, &other_input);
        scope.spawn(move || {
            let _ = answered_tx.send(serve_input(service, other_input));
        });
        let verdict = answered.recv_timeout(Duration::from_secs(5));
        gate.send(()).expect("the stalled writer is still waiting");
        let other = verdict.expect("the second connection was answered within its deadline");
        assert_eq!(other.len(), 1);
        assert_eq!(other[0].status, ResponseStatus::Ok);
        stalled_loop
            .join()
            .expect("serve thread")
            .expect("serve loop");
    });
    // Once the peer reads again, it gets both of its responses.
    let responses = stalled.responses();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(|r| r.status == ResponseStatus::Ok));
    service.shutdown();
}

#[test]
fn hostile_lines_get_typed_answers() {
    let service = SolverService::start(
        Arc::new(PortfolioEngine::default().with_threads(1)),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let requests: Vec<GeneratedRequest> = RequestSpec::serve_replay(700).stream(1).collect();
    let mut input = vec![b'['; 200_000];
    input.push(b'\n');
    input.extend_from_slice(b"\xff\xfe\n");
    // 16 MiB with no newline until its end: four times the line cap.
    input.extend_from_slice(b"{\"id\": 9, \"tenant\": \"");
    input.resize(input.len() + (16 << 20), b'a');
    input.extend_from_slice(b"\"}\n");
    input.extend(wire_lines(&requests, Some(30_000.0)));

    let responses = serve_input(&service, &input);
    let statuses: Vec<ResponseStatus> = responses.iter().map(|r| r.status).collect();
    assert_eq!(
        statuses,
        [
            ResponseStatus::Invalid,
            ResponseStatus::Invalid,
            ResponseStatus::Invalid,
            ResponseStatus::Ok
        ]
    );
    let error = |i: usize| responses[i].error.clone().unwrap_or_default();
    assert!(error(0).contains("nesting deeper than"), "{}", error(0));
    assert!(error(1).contains("UTF-8"), "{}", error(1));
    assert!(error(2).contains("longer than"), "{}", error(2));
    service.shutdown();
}

/// A backend that panics on every solve.
struct PanickingBackend;

impl SolverBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "Panics"
    }

    fn applicability(&self, _: &ProblemInstance, _: &Budget) -> Applicability {
        Applicability::Applicable
    }

    fn solve(
        &self,
        _: &ProblemInstance,
        _: &IntervalOracle,
        _: &Budget,
        _: &mut SolveContext<'_>,
    ) -> Vec<CandidateMapping> {
        panic!("injected backend failure");
    }
}

#[test]
fn a_panicking_backend_answers_internal_and_the_worker_lives() {
    let engine = PortfolioEngine::new(vec![Box::new(PanickingBackend)], Budget::default());
    let service = SolverService::start(
        Arc::new(engine.with_threads(1)),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(800)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(2).collect();
    let before = pipelined_rt::obs::global().snapshot();
    // Both answered by the one worker: the second proves it survived.
    let responses = serve_input(&service, &wire_lines(&requests, Some(30_000.0)));
    assert_eq!(responses.len(), 2);
    for response in &responses {
        assert_eq!(response.status, ResponseStatus::Internal);
        let error = response.error.as_deref().unwrap_or_default();
        assert!(error.contains("injected backend failure"), "{error}");
    }
    let delta = pipelined_rt::obs::global().snapshot().delta(&before);
    assert_eq!(delta.counter_value("serve.panics"), Some(2));
    let stats = service.shutdown();
    assert_eq!(stats.solved, 0);
}

#[test]
fn tcp_drain_delivers_every_admitted_response() {
    let service = Arc::new(SolverService::start(
        Arc::new(PortfolioEngine::default().with_threads(1)),
        ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            default_deadline: None,
        },
    ));
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let spec = RequestSpec {
        duplicate_fraction: 0.0,
        ..RequestSpec::serve_replay(750)
    };
    let requests: Vec<GeneratedRequest> = spec.stream(50).collect();
    let mut client = TcpStream::connect(server.local_addr()).expect("connect loopback");
    client
        .write_all(&wire_lines(&requests, Some(30_000.0)))
        .expect("send requests");
    // The client does not read. Wait until the server has admitted all 50.
    let started = Instant::now();
    while service.stats().admitted < 50 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "requests not admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.stop();
    service.shutdown();

    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut text = String::new();
    client
        .read_to_string(&mut text)
        .expect("every response, then EOF");
    let mut ids: Vec<u64> = text
        .lines()
        .map(|line| {
            let response: ServeResponse = serde_json::from_str(line).expect("response parses");
            assert!(matches!(
                response.status,
                ResponseStatus::Ok | ResponseStatus::Infeasible
            ));
            response.id
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..50).collect::<Vec<u64>>());
}

#[test]
fn connections_past_the_cap_get_overloaded() {
    let service = Arc::new(SolverService::start(
        Arc::new(PortfolioEngine::default().with_threads(1)),
        ServeConfig::default(),
    ));
    let server = TcpServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let open: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect loopback"))
        .collect();
    let mut extra = TcpStream::connect(server.local_addr()).expect("connect loopback");
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut text = String::new();
    extra.read_to_string(&mut text).expect("one line, then EOF");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1);
    let response: ServeResponse = serde_json::from_str(lines[0]).expect("response parses");
    assert_eq!(response.status, ResponseStatus::Overloaded);
    drop(open);
    server.stop();
    service.shutdown();
}
