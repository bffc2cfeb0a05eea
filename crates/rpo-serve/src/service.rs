//! The solver service: admission control, coalescing, and the worker loop,
//! independent of any particular wire protocol.

use crate::proto::{ResponseStatus, ServeRequest, ServeResponse};
use rpo_portfolio::{ParetoFront, PortfolioEngine, ProblemInstance};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control and sizing knobs of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Solver worker threads. `0` spawns none — requests queue up and are
    /// processed only by explicit [`SolverService::process_one`] calls (the
    /// deterministic test mode).
    pub workers: usize,
    /// Maximum number of *distinct* queued solves (coalesced joiners ride
    /// along for free). Admissions beyond this are rejected with
    /// [`ResponseStatus::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline for requests that do not carry their own `deadline_ms`
    /// (`None` = such requests never expire).
    pub default_deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 512,
            default_deadline: Some(Duration::from_millis(250)),
        }
    }
}

/// Counters the service maintains for its whole lifetime (monotone; also
/// mirrored into the global `rpo-obs` registry under `serve.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue as a fresh (non-coalesced) solve.
    pub admitted: u64,
    /// Requests that attached to an already queued or in-flight identical
    /// solve.
    pub coalesced: u64,
    /// Requests answered at admission from the engine's instance cache,
    /// whatever their tenant.
    pub cache_hits: u64,
    /// Requests shed because their deadline passed before their solve could
    /// start, or before their response could be delivered.
    pub shed: u64,
    /// Requests rejected because the ingress queue was full.
    pub overloaded: u64,
    /// Requests rejected during drain.
    pub drained: u64,
    /// Solves executed to an outcome (a solve that panicked counts in the
    /// `serve.panics` counter instead).
    pub solved: u64,
}

/// How a response leaves the service: a callback invoked exactly once, from
/// whichever thread settles the request (the submitter for immediate
/// rejections and cache hits, a worker otherwise).
pub type Responder = Box<dyn FnOnce(ServeResponse) + Send + 'static>;

/// One party waiting on a queued (possibly shared) solve.
struct Waiter {
    id: u64,
    submitted: Instant,
    deadline: Option<Instant>,
    coalesced: bool,
    respond: Responder,
}

/// One distinct queued solve and everyone waiting on it.
struct PendingSolve {
    instance: ProblemInstance,
    enqueued: Instant,
    waiters: Vec<Waiter>,
}

/// Mutable service state behind one lock: the bounded queue of canonical
/// keys plus the key → pending-solve map the coalescing path joins through.
struct State {
    queue: VecDeque<u64>,
    pending: HashMap<u64, PendingSolve>,
    draining: bool,
}

struct Core {
    engine: Arc<PortfolioEngine>,
    config: ServeConfig,
    state: Mutex<State>,
    /// Signals workers that the queue gained work or drain started.
    work: Condvar,
    admitted: AtomicU64,
    coalesced: AtomicU64,
    cache_hits: AtomicU64,
    shed: AtomicU64,
    overloaded: AtomicU64,
    drained: AtomicU64,
    solved: AtomicU64,
    /// Live queue depth mirror for lock-free inspection.
    depth: AtomicUsize,
}

/// A long-lived solver service over a shared [`PortfolioEngine`]. See the
/// crate docs for the admission-control contract.
pub struct SolverService {
    core: Arc<Core>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A waitable handle to one submitted request's response.
pub struct Ticket {
    receiver: mpsc::Receiver<ServeResponse>,
}

impl Ticket {
    /// Blocks until the response arrives.
    pub fn wait(self) -> ServeResponse {
        self.receiver
            .recv()
            .expect("service dropped a ticket without responding")
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<ServeResponse> {
        self.receiver.try_recv().ok()
    }
}

impl SolverService {
    /// Starts the service: spawns [`ServeConfig::workers`] solver threads
    /// over `engine`.
    pub fn start(engine: Arc<PortfolioEngine>, config: ServeConfig) -> Self {
        let core = Arc::new(Core {
            engine,
            config: config.clone(),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                pending: HashMap::new(),
                draining: false,
            }),
            work: Condvar::new(),
            admitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            solved: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(&core))
            })
            .collect();
        SolverService {
            core,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a request; the returned [`Ticket`] resolves to its response.
    pub fn submit(&self, request: ServeRequest) -> Ticket {
        let (sender, receiver) = mpsc::sync_channel(1);
        self.submit_with(
            request,
            Box::new(move |response| {
                // The ticket may have been dropped; responses to the void
                // are fine.
                let _ = sender.send(response);
            }),
        );
        Ticket { receiver }
    }

    /// Submits a request with an explicit response callback (the wire
    /// frontends' entry point; avoids a channel per request).
    pub fn submit_with(&self, request: ServeRequest, respond: Responder) {
        self.core.submit(request, respond);
    }

    /// Current number of distinct queued solves (in-flight solves a worker
    /// has already dequeued do not count against capacity).
    pub fn queue_depth(&self) -> usize {
        self.core.depth.load(Ordering::Acquire)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.core.stats()
    }

    /// Dequeues and processes one queued solve on the calling thread;
    /// returns `false` when the queue is empty. Only meaningful with
    /// `workers: 0` (the deterministic test mode) — with live workers it
    /// merely competes with them.
    pub fn process_one(&self) -> bool {
        process_next(&self.core)
    }

    /// Graceful drain: stops admitting (late submissions get
    /// [`ResponseStatus::Draining`]), lets the workers finish every queued
    /// solve under the usual deadline rules, and joins them. Idempotent;
    /// callable through a shared reference (e.g. an `Arc` also held by live
    /// wire connections).
    pub fn shutdown(&self) -> ServeStats {
        {
            let mut state = self.core.state.lock().expect("serve state poisoned");
            state.draining = true;
            self.core.work.notify_all();
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut guard = self.workers.lock().expect("worker handles poisoned");
            guard.drain(..).collect()
        };
        for worker in workers {
            let _ = worker.join();
        }
        // With no workers (test mode), the queue is drained here so every
        // outstanding ticket still resolves.
        while process_next(&self.core) {}
        self.core.stats()
    }
}

impl Core {
    fn stats(&self) -> ServeStats {
        ServeStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            solved: self.solved.load(Ordering::Relaxed),
        }
    }

    fn submit(&self, request: ServeRequest, respond: Responder) {
        let submitted = Instant::now();
        let deadline = match request.deadline_ms {
            // A negative deadline means none at all, not even the default.
            Some(ms) if ms < 0.0 => None,
            Some(ms) => match Duration::try_from_secs_f64(ms / 1000.0)
                .ok()
                .and_then(|after| submitted.checked_add(after))
            {
                Some(deadline) => Some(deadline),
                None => {
                    respond(ServeResponse::rejection(
                        request.id,
                        ResponseStatus::Invalid,
                        format!("deadline_ms {ms:e} is not a representable deadline"),
                    ));
                    return;
                }
            },
            // A default too far away for an `Instant` never expires.
            None => self
                .config
                .default_deadline
                .and_then(|after| submitted.checked_add(after)),
        };

        let instance = match ProblemInstance::new(
            request.chain,
            request.platform,
            request.period_bound.unwrap_or(f64::INFINITY),
            request.latency_bound.unwrap_or(f64::INFINITY),
        ) {
            Ok(instance) => instance,
            Err(error) => {
                respond(ServeResponse::rejection(
                    request.id,
                    ResponseStatus::Invalid,
                    error,
                ));
                return;
            }
        };

        // Cache fast path: a duplicate of any earlier solve, from any tenant,
        // is answered without touching the queue. The engine caches only
        // fronts whose solve ran to completion, so a hit is bit-identical to
        // the solve that produced it.
        if let Some(front) = self.engine.cached(&instance) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("serve.cache_hits").inc();
            let response = respond_from_front(request.id, &front, true);
            let late = deadline.is_some_and(|d| Instant::now() >= d);
            rpo_obs::histogram!("serve.latency").record(submitted.elapsed());
            respond(if late {
                self.shed.fetch_add(1, Ordering::Relaxed);
                rpo_obs::counter!("serve.shed").inc();
                shed_response(request.id)
            } else {
                response
            });
            return;
        }

        // Queue-time shedding, admission edition: a request whose deadline
        // has already passed can never start in time.
        if deadline.is_some_and(|d| submitted >= d) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("serve.shed").inc();
            respond(shed_response(request.id));
            return;
        }

        let key = instance.canonical_key();
        let mut state = self.state.lock().expect("serve state poisoned");
        let rejection = if state.draining {
            self.drained.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("serve.drained").inc();
            ServeResponse::rejection(request.id, ResponseStatus::Draining, "service is draining")
        } else if let Some(pending) = state
            .pending
            .get_mut(&key)
            // Canonical keys are hashes: only coalesce onto a structurally
            // identical instance. A colliding non-identical instance falls
            // through to normal admission below.
            .filter(|pending| pending.instance == instance)
        {
            pending.waiters.push(Waiter {
                id: request.id,
                submitted,
                deadline,
                coalesced: true,
                respond,
            });
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("serve.coalesced").inc();
            return;
        } else if state.queue.len() >= self.config.queue_capacity {
            self.overloaded.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("serve.overloaded").inc();
            ServeResponse::rejection(
                request.id,
                ResponseStatus::Overloaded,
                format!(
                    "ingress queue full ({} queued solves)",
                    self.config.queue_capacity
                ),
            )
        } else {
            // Hash-collision corner (astronomically rare): a distinct
            // instance under an occupied key must not clobber the pending
            // entry, so it is queued un-coalesced under the next free key.
            let mut slot = key;
            while state.pending.contains_key(&slot) {
                slot = slot.wrapping_add(1);
            }
            state.pending.insert(
                slot,
                PendingSolve {
                    instance,
                    enqueued: submitted,
                    waiters: vec![Waiter {
                        id: request.id,
                        submitted,
                        deadline,
                        coalesced: false,
                        respond,
                    }],
                },
            );
            state.queue.push_back(slot);
            self.depth.store(state.queue.len(), Ordering::Release);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("serve.admitted").inc();
            drop(state);
            self.work.notify_one();
            return;
        };
        // Responders run outside the state lock: a peer that stops reading
        // blocks its own responder, never the workers or other submitters.
        drop(state);
        respond(rejection);
    }
}

fn shed_response(id: u64) -> ServeResponse {
    ServeResponse::rejection(
        id,
        ResponseStatus::Shed,
        "deadline passed before the solve could start or deliver",
    )
}

/// Builds an `ok`/`infeasible` response from a certified front.
fn respond_from_front(id: u64, front: &ParetoFront, cached: bool) -> ServeResponse {
    match front.best_reliability() {
        Some(best) => ServeResponse {
            id,
            status: ResponseStatus::Ok,
            reliability: Some(best.evaluation.reliability),
            worst_case_period: Some(best.evaluation.worst_case_period),
            worst_case_latency: Some(best.evaluation.worst_case_latency),
            mapping: Some(best.mapping.clone()),
            front_points: front.len(),
            coalesced: false,
            cached,
            queue_wait_micros: 0,
            solve_micros: 0,
            error: None,
        },
        None => ServeResponse {
            id,
            status: ResponseStatus::Infeasible,
            reliability: None,
            worst_case_period: None,
            worst_case_latency: None,
            mapping: None,
            front_points: 0,
            coalesced: false,
            cached,
            queue_wait_micros: 0,
            solve_micros: 0,
            error: None,
        },
    }
}

/// The worker loop: block on the queue, process solves, exit when draining
/// finds the queue empty.
fn worker_loop(core: &Core) {
    loop {
        {
            let mut state = core.state.lock().expect("serve state poisoned");
            while state.queue.is_empty() && !state.draining {
                state = core
                    .work
                    .wait(state)
                    .expect("serve state poisoned while waiting");
            }
            if state.queue.is_empty() && state.draining {
                return;
            }
        }
        // Queue non-empty (or racing another worker for the last item) —
        // process_next handles the empty race benignly.
        process_next(core);
    }
}

/// Pops and runs one queued solve. Returns `false` if the queue was empty.
/// The engine call and every responder run outside the service's locks. A
/// solve that panics answers its waiters [`ResponseStatus::Internal`]; the
/// engine holds no lock across a backend call, so nothing is left poisoned
/// and the calling worker carries on.
fn process_next(core: &Core) -> bool {
    // Dequeue under the lock, with queue-time shedding, dequeue edition:
    // waiters whose deadline passed while queued are shed *before* the
    // solve; if nobody is left, the solve is skipped entirely. Waiters still
    // live keep the solve, run with the latest live deadline as the
    // engine's cutoff.
    let (key, live, enqueued, shed, latest_deadline) = {
        let mut state = core.state.lock().expect("serve state poisoned");
        let Some(key) = state.queue.pop_front() else {
            return false;
        };
        core.depth.store(state.queue.len(), Ordering::Release);
        let now = Instant::now();
        let pending = state
            .pending
            .get_mut(&key)
            .expect("queued key without pending entry");
        let (shed, kept): (Vec<Waiter>, Vec<Waiter>) = pending
            .waiters
            .drain(..)
            .partition(|waiter| waiter.deadline.is_some_and(|d| now >= d));
        let latest = if kept.iter().any(|w| w.deadline.is_none()) {
            None
        } else {
            kept.iter().filter_map(|w| w.deadline).max()
        };
        let live = (!kept.is_empty()).then(|| pending.instance.clone());
        let enqueued = pending.enqueued;
        pending.waiters = kept;
        if live.is_none() {
            state.pending.remove(&key);
        }
        (key, live, enqueued, shed, latest)
    };

    rpo_obs::histogram!("serve.queue_wait").record(enqueued.elapsed());
    for waiter in shed {
        core.shed.fetch_add(1, Ordering::Relaxed);
        rpo_obs::counter!("serve.shed").inc();
        (waiter.respond)(shed_response(waiter.id));
    }
    let Some(instance) = live else {
        return true;
    };

    let solve_start = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        core.engine.solve_until(&instance, latest_deadline)
    }));
    let solve_end = Instant::now();

    // The engine cached a completed front before the pending entry goes, so
    // a duplicate arriving from here on is answered at admission.
    let waiters = core
        .state
        .lock()
        .expect("serve state poisoned")
        .pending
        .remove(&key)
        .expect("queued key without pending entry")
        .waiters;
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(payload) => {
            rpo_obs::counter!("serve.panics").inc();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-string payload");
            for waiter in waiters {
                rpo_obs::histogram!("serve.latency").record(waiter.submitted.elapsed());
                (waiter.respond)(ServeResponse::rejection(
                    waiter.id,
                    ResponseStatus::Internal,
                    format!("the solve panicked: {message}"),
                ));
            }
            return true;
        }
    };
    core.solved.fetch_add(1, Ordering::Relaxed);

    // Delivery-time deadline check: a response is never handed out past its
    // waiter's deadline — late results are converted to sheds, structurally
    // guaranteeing "zero responses delivered past their deadline".
    let finished = Instant::now();
    for waiter in waiters {
        let response = if waiter.deadline.is_some_and(|d| finished >= d) {
            core.shed.fetch_add(1, Ordering::Relaxed);
            rpo_obs::counter!("serve.shed").inc();
            shed_response(waiter.id)
        } else {
            // `cached` is honest here: a duplicate that missed the cache at
            // admission finds the front when its original finished between
            // that lookup and this solve.
            let mut response = respond_from_front(waiter.id, &outcome.front, outcome.from_cache);
            response.coalesced = waiter.coalesced;
            // The waiter's own times: a duplicate that joined while the
            // solve was queued waited only from its arrival, and one that
            // joined mid-solve waited only for the rest of the solve.
            let joined = waiter.submitted.max(solve_start);
            response.queue_wait_micros = (joined - waiter.submitted).as_micros() as u64;
            response.solve_micros = solve_end.saturating_duration_since(joined).as_micros() as u64;
            response
        };
        rpo_obs::histogram!("serve.latency").record(waiter.submitted.elapsed());
        (waiter.respond)(response);
    }
    true
}
