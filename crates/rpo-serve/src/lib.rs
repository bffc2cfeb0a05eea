//! The serving layer: a long-lived solver service over the portfolio engine.
//!
//! Everything below `rpo-serve` is run-to-completion: the batch driver
//! streams a workload, solves it, prints a report, and the process exits.
//! This crate promotes that machinery into a *persistent service* speaking
//! newline-delimited JSON over stdin/stdout ([`wire::serve_lines`]) or TCP
//! ([`wire::TcpServer`]), with the admission-control policy a serving system
//! actually needs:
//!
//! * **Bounded ingress + backpressure** — the queue between the protocol
//!   frontend and the solver workers holds at most
//!   [`ServeConfig::queue_capacity`] distinct solves; requests arriving
//!   beyond that get an immediate typed [`ResponseStatus::Overloaded`]
//!   rejection instead of unbounded buffering.
//! * **Per-request deadlines with queue-time shedding** — a request carries
//!   its own deadline (or inherits [`ServeConfig::default_deadline`]). A
//!   request whose deadline has already passed when a worker would *start*
//!   it is shed with [`ResponseStatus::Shed`], never solved stale, and no
//!   response is ever delivered past its deadline: results that finish late
//!   are converted to sheds before delivery.
//! * **Duplicate coalescing** — requests are keyed by the same canonical
//!   structural hash the engine's [`InstanceCache`] uses; concurrent
//!   identical requests attach to the queued or in-flight solve and share
//!   its single result bit-for-bit.
//! * **One result cache** — admission asks the engine's own
//!   [`InstanceCache`] ([`PortfolioEngine::cached`]) first, so a duplicate
//!   of any finished solve is answered at once with `cached: true` and
//!   never takes a queue slot. The cache key is the instance alone: the
//!   request's `tenant` label plays no part in caching or coalescing.
//! * **Graceful drain** — [`SolverService::shutdown`] stops admitting,
//!   finishes every queued solve (still under deadline rules), answers
//!   late arrivals with [`ResponseStatus::Draining`], and joins the
//!   workers. [`TcpServer::stop`] drains the connections first: it stops
//!   reading them and returns once every admitted request's response is
//!   written.
//! * **Contained panics** — a solve that panics answers its waiters with
//!   [`ResponseStatus::Internal`] and the worker carries on.
//!
//! Each connection owns its output: a writer thread per connection drains
//! the connection's outbox, and responders only append encoded lines to
//! it. Everything queued leaves in one write (TCP sockets set
//! `TCP_NODELAY`), so a peer that stops reading stalls only its own
//! connection. Input and peers are bounded by constants in [`wire`]:
//! [`wire::MAX_LINE_BYTES`] per request line, [`wire::MAX_OUTBOX_BYTES`]
//! of unwritten responses per connection, [`wire::MAX_CONNECTIONS`] open
//! connections and a [`wire::WRITE_TIMEOUT`] per TCP write.
//!
//! The service is instrumented through `rpo-obs`: `serve.queue_wait` and
//! `serve.latency` histograms, and `serve.{admitted, shed, coalesced,
//! overloaded, panics, responses_dropped}` counters — the
//! `BENCH_serve.json` gate replays a seeded duplicate-heavy request stream
//! against these.
//!
//! [`InstanceCache`]: rpo_portfolio::InstanceCache
//! [`PortfolioEngine::cached`]: rpo_portfolio::PortfolioEngine::cached

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod proto;
pub mod service;
pub mod wire;

pub use proto::{ResponseStatus, ServeRequest, ServeResponse};
pub use service::{Responder, ServeConfig, ServeStats, SolverService, Ticket};
pub use wire::{serve_lines, TcpServer};
