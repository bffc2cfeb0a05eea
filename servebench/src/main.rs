//! `servebench`: the wire-to-wire benchmark of `solve serve`.
//!
//! ```text
//! servebench --workload <hom-dup|het-lat|hom-large> --seed N --seconds S --trace <0|1>
//!            --solve <path of the solve binary> [--spans-dir DIR]
//! ```
//!
//! With `--trace 0` one run starts the server several times (timing each
//! start until a probe is answered), warms it up with requests from a
//! disjoint seed, alternates closed-loop `saturate` and open-loop `light`
//! phases over one loopback connection, reads the server's peak RSS,
//! verifies every answer and prints the end-to-end metrics. With
//! `--trace 1` it runs one `light` phase, then the traced in-process pass
//! (and the same pass again with spans off) and prints the per-layer
//! ledger. The last stdout line is the machine-readable result; `DESIGN.md`
//! next to this crate records what each metric should move.

mod client;
mod ledger;
mod metrics;
mod server;
mod stats;
mod verify;
mod workload;

use client::Phase;
use ledger::{run_pass, Pass, REPORTED_BACKENDS};
use metrics::Values;
use rpo_model::{Platform, TaskChain};
use rpo_serve::{ServeRequest, ServeResponse};
use server::Server;
use stats::{mean, median, share, truncated_micros_median, Percentile};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verify::{verify, Tally, Verdict};
use workload::{wire_line, Batch, Plan, Workload};

/// Server starts timed per `--trace 0` run; `setup_s` is their median.
const SETUP_STARTS: usize = 5;

/// `--trace 0` runs `saturate`, then `light`, this many times, then a last
/// `saturate`: both phases are spread over the run, so a slow stretch of a
/// shared host lands on a part of each, and `max_rps` is the median over
/// the `saturate` parts.
const LIGHT_PARTS: usize = 4;

/// Ledger tolerances: the range the unattributed remainder (whole − parts)
/// may take, as shares of the whole. The engine's remainder is its own
/// per-solve cost (cache lookups and inserts, instrumentation, dispatch),
/// reported as `engine.overhead_us`, so it may be positive; parts larger
/// than the whole can only be a measurement error.
const WIRE_TOLERANCE: (f64, f64) = (-0.15, 0.15);
const REQUEST_TOLERANCE: (f64, f64) = (-0.05, 0.05);
const ENGINE_TOLERANCE: (f64, f64) = (-0.10, 0.30);

/// Closed-loop capacity on a 2-core host, in requests per second, used only
/// to size the pre-serialized `saturate` and warm-up batches (with 1.25×
/// headroom; a phase that runs out of lines ends early and still reports
/// its own rate).
fn capacity_rps(workload: Workload) -> f64 {
    match workload {
        Workload::HomDup => 5_500.0,
        Workload::HetLat => 1_300.0,
        Workload::HomLarge => 360.0,
    }
}

/// Requests per second the traced in-process pass gets through (each fresh
/// solve runs twice there).
fn pass_rps(workload: Workload) -> f64 {
    match workload {
        Workload::HomDup => 2_800.0,
        Workload::HetLat => 500.0,
        Workload::HomLarge => 110.0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    solve: PathBuf,
    spans_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: servebench --workload <hom-dup|het-lat|hom-large> --seed N \
                     --seconds S --trace <0|1> --solve <solve binary> [--spans-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut solve, mut spans_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "invalid --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "invalid --seconds")?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err("--trace is 0 or 1".to_string()),
            },
            "--solve" => solve = Some(PathBuf::from(value)),
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..600".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        solve: solve.ok_or("--solve is required")?,
        spans_dir,
    })
}

/// The probe request every server start is timed to: the 4-task example
/// problem of `solve --example`.
fn probe_request(id: u64) -> ServeRequest {
    ServeRequest {
        id,
        tenant: 0,
        deadline_ms: None,
        chain: TaskChain::from_pairs(&[(30.0, 2.0), (10.0, 8.0), (25.0, 1.0), (40.0, 0.0)])
            .expect("a valid chain"),
        platform: Platform::homogeneous(5, 1.0, 1e-6, 1.0, 1e-7, 2).expect("a valid platform"),
        period_bound: Some(70.0),
        latency_bound: Some(130.0),
    }
}

/// Matches a phase's response lines to the `batch` requests it sent and
/// verifies each answer. Returns the tally and, per sent request, what its
/// response reported and when it arrived.
fn settle(phase: &Phase, batch: &Batch) -> (Tally, Vec<Option<Answer>>) {
    let first_id = batch.first_id;
    let sent = phase.sent_at.len();
    let mut tally = Tally {
        sent,
        ..Tally::default()
    };
    let mut answers: Vec<Option<Answer>> = vec![None; sent];
    for (line, at) in phase.lines() {
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|text| serde_json::from_str::<ServeResponse>(text).ok());
        let slot = parsed.as_ref().and_then(|r| {
            let index = usize::try_from(r.id.checked_sub(first_id)?).ok()?;
            (index < sent && answers[index].is_none()).then_some(index)
        });
        match (slot, parsed) {
            (Some(index), Some(response)) => {
                tally.record(verify(&batch.requests[index], &response));
                answers[index] = Some(Answer {
                    at,
                    queue_wait_micros: response.queue_wait_micros,
                    solve_micros: response.solve_micros,
                    coalesced: response.coalesced,
                });
            }
            _ => tally.stray += 1,
        }
    }
    tally.missing = answers.iter().filter(|a| a.is_none()).count();
    (tally, answers)
}

/// What the benchmark keeps of one verified response.
#[derive(Clone, Copy)]
struct Answer {
    /// When the read that delivered the response line returned.
    at: Instant,
    queue_wait_micros: u64,
    solve_micros: u64,
    coalesced: bool,
}

/// What the `light` parts of a run measured, pooled.
#[derive(Default)]
struct Light {
    tally: Tally,
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    rest_us: Vec<f64>,
    queue_micros: Vec<u64>,
    solve_micros: Vec<u64>,
    coalesced: usize,
    wall: Duration,
}

impl Light {
    /// Runs one open-loop part over `batch` and adds what it measured.
    fn run(&mut self, stream: &TcpStream, batch: &Batch) -> Result<(), String> {
        let phase = client::open_loop(stream, &batch.lines, &batch.arrivals)
            .map_err(|e| format!("light phase: {e}"))?;
        let (tally, answers) = settle(&phase, batch);
        let due = |i: usize| phase.start + batch.arrivals[i];
        self.tally.merge(&tally);
        self.wall += phase.wall();
        for (i, &sent_at) in phase.sent_at.iter().enumerate() {
            self.lateness_ms
                .push((sent_at - due(i)).as_secs_f64() * 1e3);
        }
        for (i, answer) in answers.iter().enumerate() {
            let Some(answer) = answer else {
                continue;
            };
            let latency = answer.at.saturating_duration_since(due(i)).as_secs_f64();
            self.latency_ms.push(latency * 1e3);
            self.rest_us
                .push(latency * 1e6 - (answer.queue_wait_micros + answer.solve_micros) as f64);
            self.queue_micros.push(answer.queue_wait_micros);
            self.solve_micros.push(answer.solve_micros);
            self.coalesced += usize::from(answer.coalesced);
        }
        Ok(())
    }

    /// Prints the sender's lateness and returns whether it fell behind.
    /// Lateness includes the host's scheduling jitter (the client shares
    /// the cores with the server), which reaches a few ms at p99 on a busy
    /// host, and it is part of every measured latency. A late sender sends
    /// at once and catches up; it has fallen behind the schedule when even
    /// its median send is a whole mean inter-arrival gap late.
    fn sender_fell_behind(&self, workload: Workload) -> bool {
        let lateness = |q| Percentile::of(&self.lateness_ms, q).map_or(0.0, |p| p.value);
        let (p50, p99) = (lateness(0.5), lateness(0.99));
        let late = p50 > 1e3 / workload.light_rate();
        println!(
            "light: {} requests at {} req/s over {:.2} s; sender lateness p50 {p50:.3} ms, \
             p99 {p99:.3} ms{}",
            self.lateness_ms.len(),
            workload.light_rate(),
            self.wall.as_secs_f64(),
            if late {
                " -- the sender fell behind: this run is invalid"
            } else {
                ""
            }
        );
        late
    }
}

/// The outcome of one run: the result line's fields.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: String,
}

/// Prints how one phase's requests fared.
fn print_tally(phase: &str, tally: &Tally) {
    println!(
        "{phase}: {} sent, {} ok, {} infeasible, {} rejected, {} missing, {} stray, {} mismatched",
        tally.sent,
        tally.solved,
        tally.infeasible,
        tally.rejected,
        tally.missing,
        tally.stray,
        tally.mismatches.len()
    );
    for reason in tally.mismatches.iter().take(5) {
        println!("  MISMATCH {reason}");
    }
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<30} {value:>14.6} {unit:<12}{note}");
}

/// Whether a tally leaves the run correct: every answer verified and every
/// response line matched to a request.
fn clean(tally: &Tally) -> bool {
    tally.mismatches.is_empty() && tally.stray == 0
}

/// Starts the server `starts` times, timing each start until the probe is
/// answered; keeps the last one running with its connection.
fn start_server(args: &Args, starts: usize) -> Result<(Server, TcpStream, Vec<f64>), String> {
    let probe = probe_request(u64::MAX);
    let probe_line = wire_line(&probe);
    let mut setup_s = Vec::new();
    for start in 1..=starts {
        let (server, stream, elapsed, answer) =
            server::start_and_probe(&args.solve, &probe_line)
                .map_err(|e| format!("starting {}: {e}", args.solve.display()))?;
        let answer = std::str::from_utf8(&answer)
            .ok()
            .and_then(|text| serde_json::from_str::<ServeResponse>(text).ok())
            .ok_or("the probe answer does not parse")?;
        if !matches!(verify(&probe, &answer), Verdict::Solved { .. }) {
            return Err(format!("the probe was not solved: {answer:?}"));
        }
        setup_s.push(elapsed.as_secs_f64());
        if start == starts {
            return Ok((server, stream, setup_s));
        }
        drop(stream);
        server
            .stop()
            .map_err(|e| format!("stopping the server: {e}"))?;
    }
    Err("no server start requested".to_string())
}

/// Reads the server's peak RSS, then closes the connection and the server's
/// stdin and waits for it to exit.
fn stop_server(server: Server, stream: TcpStream) -> Result<f64, String> {
    let peak_rss_mb = server
        .peak_rss_mb()
        .map_err(|e| format!("reading the server's VmHWM: {e}"))?;
    drop(stream);
    let summary = server
        .stop()
        .map_err(|e| format!("stopping the server: {e}"))?;
    println!("server: {}", summary.trim());
    Ok(peak_rss_mb)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let seconds = args.seconds;
    let (warmup_s, light_s, saturate_s, pass_s) = if args.trace {
        (0.05 * seconds, 0.4 * seconds, 0.0, 0.25 * seconds)
    } else {
        (0.05 * seconds, 0.6 * seconds, 0.25 * seconds, 0.0)
    };
    let lines_for = |rps: f64, secs: f64| (rps * secs * 1.25).ceil() as usize;
    let plan = Plan::new(
        workload,
        args.seed,
        lines_for(capacity_rps(workload), warmup_s),
        light_s,
        if args.trace {
            lines_for(pass_rps(workload), pass_s)
        } else {
            lines_for(capacity_rps(workload), saturate_s)
        },
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "servebench {} seed={} seconds={} trace={} cores={cores}",
        workload.name(),
        args.seed,
        seconds,
        u8::from(args.trace)
    );

    // Set-up: start the server (several times for set-up time), probe it.
    let (server, stream, setup_s) = start_server(args, if args.trace { 1 } else { SETUP_STARTS })?;

    // Warm-up from the disjoint seed: verified, not scored.
    let warm = client::closed_loop(
        &stream,
        &plan.warmup.lines,
        workload.window(),
        Duration::from_secs_f64(warmup_s),
    )
    .map_err(|e| format!("warm-up: {e}"))?;
    let (warm_tally, _) = settle(&warm, &plan.warmup);
    print_tally("warm-up", &warm_tally);

    let outcome = if args.trace {
        traced_run(args, plan, server, stream, pass_s)
    } else {
        end_to_end_run(args, plan, server, stream, saturate_s, &setup_s)
    }?;
    if let Ok(client_mb) = server::peak_rss_mb("self") {
        println!("client peak RSS {client_mb:.1} MB");
    }
    Ok(Outcome {
        correct: outcome.correct && clean(&warm_tally),
        ..outcome
    })
}

/// The `--trace 0` phases and the end-to-end metrics.
fn end_to_end_run(
    args: &Args,
    plan: Plan,
    server: Server,
    stream: TcpStream,
    saturate_s: f64,
    setup_s: &[f64],
) -> Result<Outcome, String> {
    let workload = args.workload;
    let lights = plan.light.split(LIGHT_PARTS, true);
    let saturates = plan.saturate.split(LIGHT_PARTS + 1, false);
    let part_s = Duration::from_secs_f64(saturate_s / saturates.len() as f64);
    let mut light = Light::default();
    let mut saturate = Tally::default();
    let mut rates = Vec::new();
    for (part, batch) in saturates.iter().enumerate() {
        let phase = client::closed_loop(&stream, &batch.lines, workload.window(), part_s)
            .map_err(|e| format!("saturate phase: {e}"))?;
        saturate.merge(&settle(&phase, batch).0);
        rates.push(phase.steady_rate());
        if let Some(batch) = lights.get(part) {
            light.run(&stream, batch)?;
        }
    }
    let sender_late = light.sender_fell_behind(workload);
    let peak_rss_mb = stop_server(server, stream)?;

    print_tally("light", &light.tally);
    print_tally("saturate", &saturate);
    let mut scored = light.tally.clone();
    scored.merge(&saturate);
    print_metric(
        "fail_share",
        share(scored.failed(), scored.sent),
        "share",
        "",
    );
    print_metric(
        "infeasible_share",
        share(scored.infeasible, scored.sent),
        "share",
        "",
    );

    let mut values = Values::default();
    let p50 = Percentile::of(&light.latency_ms, 0.5).ok_or("no light answers")?;
    let p99 = Percentile::of(&light.latency_ms, 0.99).ok_or("no light answers")?;
    values.set("setup_s", median(setup_s));
    values.set("p50_ms", p50.value);
    values.set("p99_ms", p99.value);
    values.set("max_rps", median(&rates));
    values.set(
        "fp_mean",
        scored.failure_probability_sum / scored.solved.max(1) as f64,
    );
    values.set("peak_rss_mb", peak_rss_mb);

    let starts: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    print_metric(
        "setup_s",
        values.get("setup_s"),
        "s",
        &format!("median of {} starts [{}]", setup_s.len(), starts.join(" ")),
    );
    print_metric(
        "p50_ms",
        p50.value,
        "ms",
        &format!("light, n = {}", p50.samples),
    );
    print_metric(
        "p99_ms",
        p99.value,
        "ms",
        &format!(
            "light, n = {}, {} beyond{}",
            p99.samples,
            p99.beyond,
            if p99.is_supported() {
                ""
            } else {
                " (fewer than 10: under-sampled)"
            }
        ),
    );
    let parts: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    print_metric(
        "max_rps",
        values.get("max_rps"),
        "req/s",
        &format!(
            "saturate, W = {}, median of parts [{}]",
            workload.window(),
            parts.join(" ")
        ),
    );
    print_metric(
        "fp_mean",
        values.get("fp_mean"),
        "probability",
        &format!("mean 1 - R over {} verified answers", scored.solved),
    );
    print_metric("peak_rss_mb", peak_rss_mb, "MB", "server VmHWM");

    let names: Vec<(String, &str)> = metrics::END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    Ok(Outcome {
        correct: clean(&scored) && !sender_late,
        attempted: scored.sent,
        failed: scored.failed(),
        metrics: values.to_json(&names),
    })
}

/// The `--trace 1` phases: one `light` phase over the wire, then the traced
/// in-process pass over the run's own request lines and the same requests
/// again with spans off, and the per-layer ledger.
fn traced_run(
    args: &Args,
    plan: Plan,
    server: Server,
    stream: TcpStream,
    pass_s: f64,
) -> Result<Outcome, String> {
    let mut light = Light::default();
    light.run(&stream, &plan.light)?;
    let sender_late = light.sender_fell_behind(args.workload);
    stop_server(server, stream)?;
    print_tally("light", &light.tally);

    let items: Vec<(&[u8], &ServeRequest)> = plan
        .light
        .lines
        .iter()
        .zip(&plan.light.requests)
        .chain(plan.saturate.lines.iter().zip(&plan.saturate.requests))
        .map(|(line, request)| (line.as_slice(), request))
        .collect();
    let pass = run_pass(&items, true, Duration::from_secs_f64(pass_s));
    let plain = run_pass(&items[..pass.requests], false, Duration::MAX);
    println!(
        "traced pass: {} {} requests, {} fresh solves, {:.3} s traced vs {:.3} s with spans off",
        pass.requests,
        args.workload.name(),
        pass.fresh(),
        pass.wall.as_secs_f64(),
        plain.wall.as_secs_f64()
    );
    print_tally("traced pass", &pass.tally);
    print_tally("plain pass", &plain.tally);

    let mut values = Values::default();
    let ledger_held = ledger_report(args, &light, &pass, &plain, &mut values)?;
    let mut attempted = light.tally.clone();
    attempted.merge(&pass.tally);
    attempted.merge(&plain.tally);
    Ok(Outcome {
        correct: clean(&attempted) && !sender_late && ledger_held,
        attempted: attempted.sent,
        failed: attempted.failed(),
        metrics: values.to_json(&metrics::per_layer()),
    })
}

/// Computes the per-layer metrics, prints the ledger and its checks, and
/// writes the spans. Returns whether every check held.
fn ledger_report(
    args: &Args,
    light: &Light,
    pass: &Pass,
    plain: &Pass,
    values: &mut Values,
) -> Result<bool, String> {
    let layers = pass.tracer.layer_times();
    let requests = pass.requests.max(1) as f64;
    let fresh = pass.fresh().max(1) as f64;
    let total_us = |layer: &str| layers.get(layer).map_or(0.0, |t| t.total_ns as f64 / 1e3);

    // Wire-side layers, from the light phase's response fields.
    let rest = median(&light.rest_us);
    let queue = truncated_micros_median(&light.queue_micros);
    let solve = truncated_micros_median(&light.solve_micros);
    values.set("wire.rest_us", rest);
    values.set("service.queue_wait_us", queue);
    values.set("service.solve_us", solve);
    values.set(
        "service.coalesced_share",
        share(light.coalesced, light.latency_ms.len()),
    );

    // Request-side layers, from the traced pass.
    values.set("proto.parse_us", total_us("proto.parse") / requests);
    values.set("proto.encode_us", total_us("proto.encode") / requests);
    values.set(
        "service.admit_us",
        total_us("service.submit_with") / requests,
    );
    values.set("service.shard_hit_share", pass.shard_hits as f64 / requests);
    values.set(
        "engine.cache_hit_share",
        pass.engine_cache_hits as f64 / requests,
    );

    // Engine layers, from the re-run of every fresh solve.
    let as_f64 = |values: &[u64]| values.iter().map(|&v| v as f64).collect::<Vec<_>>();
    let engine_solve = mean(&as_f64(&pass.solve_micros));
    let oracle = total_us("oracle.build") / fresh;
    let certify = total_us("pareto.certify") / fresh;
    let backends: f64 = pass
        .runs
        .iter()
        .map(|(name, _)| total_us(&format!("backend.{name}")) / fresh)
        .sum();
    values.set("engine.solve_us", engine_solve);
    values.set(
        "engine.overhead_us",
        engine_solve - oracle - certify - backends,
    );
    values.set("oracle.build_us", oracle);
    values.set(
        "oracle.cache_hit_share",
        share(pass.oracle_cache.0 as usize, pass.oracle_cache.1 as usize),
    );
    values.set("pareto.certify_us", certify);
    let front_points: Vec<f64> = pass.front_points.iter().map(|&n| n as f64).collect();
    values.set("pareto.front_points", mean(&front_points));
    for (index, backend) in REPORTED_BACKENDS.iter().enumerate() {
        values.set(
            format!("backend.{backend}.us"),
            total_us(&format!("backend.{backend}")) / fresh,
        );
        values.set(
            format!("backend.{backend}.win_share"),
            pass.wins[index] as f64 / fresh,
        );
        values.set(
            format!("backend.{backend}.front_share"),
            pass.in_front[index] as f64 / fresh,
        );
    }
    // Every fresh solve ran its backends twice: once served, once re-run.
    let per_solve = |name: &str| pass.counters[name] as f64 / (2.0 * fresh);
    values.set("period_opt.probes", per_solve("period_opt.probes"));
    values.set("dp.kernel.row_sweeps", per_solve("dp.kernel.row_sweeps"));
    values.set(
        "backend.dominated_aborts",
        per_solve("backend.dominated_aborts"),
    );
    let paths: u64 = ["label_dp", "lagrangian", "greedy"]
        .iter()
        .map(|p| pass.counters[format!("het_lat.path.{p}").as_str()])
        .sum();
    values.set(
        "het_lat.label_dp_share",
        share(
            pass.counters["het_lat.path.label_dp"] as usize,
            paths as usize,
        ),
    );

    // The ledger, layer by layer.
    println!(
        "ledger: {} (means per request unless marked; engine parts per fresh solve)",
        args.workload.name()
    );
    for (name, unit) in metrics::per_layer() {
        print_metric(&name, values.get(&name), unit, "");
    }
    let runs: Vec<String> = pass
        .runs
        .iter()
        .map(|(name, runs)| format!("{name} {runs}"))
        .collect();
    println!(
        "  backend runs over {} fresh solves: {}",
        pass.fresh(),
        runs.join(", ")
    );
    println!("  layer self times (us per span):");
    for (layer, time) in &layers {
        println!(
            "    {layer:<24} spans {:>7}  total {:>11.3}  self {:>11.3}",
            time.spans,
            time.total_ns as f64 / 1e3 / time.spans.max(1) as f64,
            time.self_ns as f64 / 1e3 / time.spans.max(1) as f64,
        );
    }

    // The checks: the parts must add up to each whole.
    let mut ok = true;
    let mut check = |what: &str, whole: f64, parts: f64, (low, high): (f64, f64)| {
        let remainder = (whole - parts) / whole;
        let held = (low..=high).contains(&remainder);
        ok &= held;
        println!(
            "  check {what}: whole {whole:.3} us, parts {parts:.3} us, unattributed {:.3} us \
             ({:+.2} %, allowed {:+.0} % to {:+.0} %) {}",
            whole - parts,
            100.0 * remainder,
            100.0 * low,
            100.0 * high,
            if held { "ok" } else { "FAILED" }
        );
    };
    check(
        "light p50 = wire.rest + queue wait + solve (medians)",
        median(&light.latency_ms) * 1e3,
        rest + queue + solve,
        WIRE_TOLERANCE,
    );
    let request = layers.get("request").copied().unwrap_or_default();
    check(
        "request = parse + admit + process_one + encode",
        request.total_ns as f64 / 1e3 / requests,
        (request.total_ns - request.self_ns) as f64 / 1e3 / requests,
        REQUEST_TOLERANCE,
    );
    check(
        "engine.solve = oracle + backends + certify",
        engine_solve,
        oracle + backends + certify,
        ENGINE_TOLERANCE,
    );
    let negative_rest = light.rest_us.iter().filter(|&&r| r < 0.0).count();
    if negative_rest > 0 {
        ok = false;
        println!(
            "  check FAILED: {negative_rest} light requests report more server time than the \
             client saw"
        );
    }
    if pass.rerun_mismatches > 0 {
        ok = false;
        println!(
            "  check FAILED: {} re-runs did not reproduce the served front",
            pass.rerun_mismatches
        );
    }
    let overhead = pass.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0;
    println!(
        "  tracing overhead: {:+.2} % of the pass ({} spans)",
        100.0 * overhead,
        pass.tracer.spans().len()
    );

    if let Some(dir) = &args.spans_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        pass.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.correct, outcome.attempted, outcome.failed, outcome.metrics
            );
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("servebench: {message}");
            ExitCode::FAILURE
        }
    }
}
