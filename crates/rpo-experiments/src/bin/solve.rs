//! Command-line solver for one concrete problem described in JSON.
//!
//! ```text
//! solve path/to/problem.json          # read from a file
//! solve -                             # read from standard input
//! solve --example                     # print an example problem file
//! solve portfolio path/to/problem.json  # race the whole solver portfolio
//! solve portfolio -                     # ... reading from standard input
//! solve batch <count> [--seed N] [--het] [--workers N]             # drive a generated batch
//! solve repair <count> [--churn] [--seed N] [--het] [--workers N]  # replay platform churn
//! solve serve [--tcp ADDR] [--workers N] [--queue N] [--deadline-ms F]  # long-lived service
//! ```
//!
//! The default mode prints both heuristics plus, on homogeneous platforms,
//! the exact optimum. The `portfolio` subcommand instead races every
//! applicable backend in parallel and prints the merged tri-criteria Pareto
//! front (reliability, worst-case period, worst-case latency), with the
//! per-backend run/skip census. The `batch` subcommand streams `count`
//! paper-style generated instances through the batch driver and prints the
//! throughput/win-rate report; the driver sends every full bucket of
//! same-shape homogeneous instances through the batched SoA mega-kernel by
//! itself. The `repair` subcommand opens one live repair session per
//! generated instance and replays a seeded platform-churn trace through the
//! graded repair ladder (local patch → warm DP → full solve), printing the
//! per-tier census and the repair-vs-cold-solve latency; `--churn` switches
//! from the paper's natural failure model to an aggressive short-horizon
//! trace with a mid-run kill burst. The `serve`
//! subcommand starts the long-lived solver service (`rpo-serve`): one JSON
//! request per stdin line, one JSON response per stdout line (or the same
//! protocol over TCP with `--tcp ADDR`), with bounded-queue admission
//! control, per-request deadlines, and duplicate coalescing.
//!
//! Observability flags (all modes):
//!
//! * `--trace <path>` (or `--trace=<path>`) — write the recorded span trace
//!   as JSON Lines, one span object per line;
//! * `--collapse <path>` — write the collapsed-stack export (flamegraph.pl
//!   input) of the same spans;
//! * `--report-json <path>` — `batch` and `repair`: write the full
//!   serialized [`BatchReport`](rpo_portfolio::BatchReport) (embedded
//!   `MetricsSnapshot` included) or [`ChurnReport`](rpo_repair::ChurnReport),
//!   for machine-to-machine diffing.

use std::io::{ErrorKind, Read as _, Write as _};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpo_experiments::problem_io::{
    portfolio_report_to_json, report_to_json, solve, solve_portfolio, ProblemSpec,
};
use rpo_model::{Platform, TaskChain};
use rpo_portfolio::{BatchDriver, BoundsPolicy, PortfolioEngine};
use rpo_repair::{replay_churn, ChurnConfig};
use rpo_serve::{serve_lines, ServeConfig, SolverService, TcpServer};
use rpo_workload::{ChurnSpec, InstanceGenerator};

const EXAMPLE: &str = r#"{
  "tasks": [
    {"work": 30, "output_size": 2},
    {"work": 10, "output_size": 8},
    {"work": 25, "output_size": 1},
    {"work": 40}
  ],
  "platform": {
    "processors": [
      {"speed": 1, "failure_rate": 1e-6},
      {"speed": 1, "failure_rate": 1e-6},
      {"speed": 1, "failure_rate": 1e-6},
      {"speed": 1, "failure_rate": 1e-6},
      {"speed": 1, "failure_rate": 1e-6}
    ],
    "bandwidth": 1,
    "link_failure_rate": 1e-7,
    "max_replication": 2
  },
  "period_bound": 70,
  "latency_bound": 130
}"#;

const USAGE: &str = "usage: solve <problem.json | -> | solve --example \
     | solve portfolio <problem.json | -> \
     | solve batch <count> [--seed N] [--het] [--workers N] [--report-json <path>] \
     | solve repair <count> [--churn] [--seed N] [--het] [--workers N] \
     [--report-json <path>] \
     | solve serve [--tcp ADDR] [--workers N] [--queue N] [--deadline-ms F]\n\
     observability: [--trace <path>] [--collapse <path>] on any mode";

/// Observability/output options shared by every mode.
#[derive(Default)]
struct ObsArgs {
    trace: Option<String>,
    collapse: Option<String>,
    report_json: Option<String>,
    seed: u64,
    workers: Option<usize>,
    heterogeneous: bool,
    churn: bool,
    tcp: Option<String>,
    queue: Option<usize>,
    /// `--deadline-ms`: the service's default deadline (`Some(None)` turns
    /// it off).
    deadline: Option<Option<Duration>>,
}

/// Parses a `--deadline-ms` value. Zero or a negative value means no
/// default deadline; a value no deadline can hold is a usage error, the
/// same check the service applies to a request's own `deadline_ms`.
fn parse_deadline_ms(value: &str) -> Result<Option<Duration>, String> {
    let ms: f64 = value
        .parse()
        .map_err(|_| "invalid --deadline-ms".to_string())?;
    if ms <= 0.0 {
        return Ok(None);
    }
    Duration::try_from_secs_f64(ms / 1000.0)
        .ok()
        .filter(|&after| Instant::now().checked_add(after).is_some())
        .map(Some)
        .ok_or_else(|| format!("--deadline-ms {value} is out of range"))
}

/// Strips the flag arguments out of `args`, returning the remaining
/// positional arguments.
fn parse_flags(args: Vec<String>) -> Result<(Vec<String>, ObsArgs), String> {
    let mut obs = ObsArgs {
        seed: 2024,
        ..ObsArgs::default()
    };
    let mut positional = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut flag_value = |name: &str, inline: Option<&str>| -> Result<String, String> {
            match inline {
                Some(value) => Ok(value.to_string()),
                None => iter
                    .next()
                    .ok_or_else(|| format!("{name} requires a value")),
            }
        };
        match arg.split_once('=') {
            Some(("--trace", value)) => obs.trace = Some(value.to_string()),
            Some(("--collapse", value)) => obs.collapse = Some(value.to_string()),
            Some(("--report-json", value)) => obs.report_json = Some(value.to_string()),
            Some(("--seed", value)) => {
                obs.seed = value.parse().map_err(|_| "invalid --seed".to_string())?;
            }
            Some(("--workers", value)) => {
                obs.workers = Some(value.parse().map_err(|_| "invalid --workers".to_string())?);
            }
            Some(("--tcp", value)) => obs.tcp = Some(value.to_string()),
            Some(("--queue", value)) => {
                obs.queue = Some(value.parse().map_err(|_| "invalid --queue".to_string())?);
            }
            Some(("--deadline-ms", value)) => obs.deadline = Some(parse_deadline_ms(value)?),
            _ => match arg.as_str() {
                "--trace" => obs.trace = Some(flag_value("--trace", None)?),
                "--collapse" => obs.collapse = Some(flag_value("--collapse", None)?),
                "--report-json" => obs.report_json = Some(flag_value("--report-json", None)?),
                "--seed" => {
                    obs.seed = flag_value("--seed", None)?
                        .parse()
                        .map_err(|_| "invalid --seed".to_string())?;
                }
                "--workers" => {
                    obs.workers = Some(
                        flag_value("--workers", None)?
                            .parse()
                            .map_err(|_| "invalid --workers".to_string())?,
                    );
                }
                "--tcp" => obs.tcp = Some(flag_value("--tcp", None)?),
                "--queue" => {
                    obs.queue = Some(
                        flag_value("--queue", None)?
                            .parse()
                            .map_err(|_| "invalid --queue".to_string())?,
                    );
                }
                "--deadline-ms" => {
                    obs.deadline = Some(parse_deadline_ms(&flag_value("--deadline-ms", None)?)?);
                }
                "--het" => obs.heterogeneous = true,
                "--churn" => obs.churn = true,
                _ => positional.push(arg),
            },
        }
    }
    Ok((positional, obs))
}

fn read_problem(path: &str) -> Result<ProblemSpec, String> {
    let text = if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|error| format!("failed to read standard input: {error}"))?;
        buffer
    } else {
        std::fs::read_to_string(path).map_err(|error| format!("failed to read {path}: {error}"))?
    };
    ProblemSpec::from_json(&text)
}

fn run(path: &str, portfolio: bool) -> Result<String, String> {
    let spec = read_problem(path)?;
    if portfolio {
        solve_portfolio(&spec).map(|report| portfolio_report_to_json(&report))
    } else {
        solve(&spec).map(|report| report_to_json(&report))
    }
}

/// `count` generated paper-style `(chain, platform)` pairs, on the
/// heterogeneous platforms with `--het`.
fn paper_instances(
    count: usize,
    obs: &ObsArgs,
) -> impl Iterator<Item = (TaskChain, Platform)> + Send {
    let heterogeneous = obs.heterogeneous;
    let generator = if heterogeneous {
        InstanceGenerator::paper_heterogeneous(obs.seed)
    } else {
        InstanceGenerator::paper_homogeneous(obs.seed)
    };
    generator.stream(count).map(move |experiment| {
        let platform = if heterogeneous {
            experiment.heterogeneous
        } else {
            experiment.homogeneous
        };
        (experiment.chain, platform)
    })
}

/// `--workers`, or one worker per available core.
fn workers(obs: &ObsArgs) -> usize {
    obs.workers.map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |workers| workers.max(1),
    )
}

/// Writes `report` to `--report-json`, when requested.
fn write_report_json(obs: &ObsArgs, report: &impl serde::Serialize) -> Result<(), String> {
    if let Some(path) = &obs.report_json {
        let json = serde_json::to_string_pretty(report)
            .map_err(|error| format!("failed to serialize report: {error}"))?;
        std::fs::write(path, json).map_err(|error| format!("failed to write {path}: {error}"))?;
    }
    Ok(())
}

/// Streams `count` generated paper-style instances through the batch driver
/// and returns the human-readable report.
fn run_batch(count: usize, obs: &ObsArgs) -> Result<String, String> {
    let bounds = BoundsPolicy::default();
    let instances = paper_instances(count, obs)
        .map(move |(chain, platform)| bounds.instance(&chain, &platform));
    let report = BatchDriver::new(workers(obs)).run(&PortfolioEngine::default(), instances);
    write_report_json(obs, &report)?;
    Ok(report.to_string())
}

/// Opens one repair session per generated instance and replays a seeded
/// platform-churn trace through the graded repair ladder.
fn run_repair(count: usize, obs: &ObsArgs) -> Result<String, String> {
    let config = ChurnConfig {
        spec: if obs.churn {
            // Aggressive mode: a short horizon plus a 3-kill mid-run burst,
            // so every session sees back-to-back repairs.
            ChurnSpec {
                horizon: 1e6,
                max_events: 6,
                min_alive: 2,
                burst_kills: 3,
                burst_at: 0.5,
            }
        } else {
            ChurnSpec::paper()
        },
        seed: obs.seed,
        period_bound: None,
    };
    let report = replay_churn(&config, workers(obs), paper_instances(count, obs));
    write_report_json(obs, &report)?;
    Ok(report.to_string())
}

/// Runs the long-lived solver service: JSON-lines over stdin/stdout by
/// default, or over TCP with `--tcp ADDR` (stdin EOF is the stop signal:
/// every admitted request's response is written before the process exits).
/// Responses stream to stdout; the drain summary goes to stderr so stdout
/// holds nothing but response lines.
fn run_serve(obs: &ObsArgs) -> Result<(), String> {
    let engine = Arc::new(PortfolioEngine::default().with_threads(1));
    let mut config = ServeConfig::default();
    if let Some(workers) = obs.workers {
        // A connection returns only once its responses are written, and
        // with no workers nothing would answer them.
        config.workers = workers.max(1);
    }
    if let Some(queue) = obs.queue {
        config.queue_capacity = queue.max(1);
    }
    if let Some(deadline) = obs.deadline {
        config.default_deadline = deadline;
    }
    let service = Arc::new(SolverService::start(engine, config));
    match &obs.tcp {
        Some(addr) => {
            let server = TcpServer::spawn(Arc::clone(&service), addr)
                .map_err(|error| format!("failed to bind {addr}: {error}"))?;
            eprintln!("serving JSON lines on tcp://{}", server.local_addr());
            eprintln!("close standard input (ctrl-D) to stop");
            let mut sink = String::new();
            let _ = std::io::stdin().read_to_string(&mut sink);
            server.stop();
        }
        None => {
            let stdin = std::io::stdin();
            serve_lines(&service, stdin.lock(), std::io::stdout())
                .map_err(|error| format!("stdin serve loop failed: {error}"))?;
        }
    }
    let stats = service.shutdown();
    eprintln!(
        "serve: {} admitted, {} coalesced, {} cache hits, {} shed, {} overloaded, \
         {} rejected draining, {} solves",
        stats.admitted,
        stats.coalesced,
        stats.cache_hits,
        stats.shed,
        stats.overloaded,
        stats.drained,
        stats.solved,
    );
    Ok(())
}

/// Writes the requested trace exports after the work is done.
fn write_obs_outputs(obs: &ObsArgs) -> Result<(), String> {
    if let Some(path) = &obs.trace {
        rpo_obs::recorder()
            .write_jsonl_path(path)
            .map_err(|error| format!("failed to write trace {path}: {error}"))?;
    }
    if let Some(path) = &obs.collapse {
        rpo_obs::recorder()
            .write_collapsed_path(path)
            .map_err(|error| format!("failed to write collapsed stacks {path}: {error}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positional, obs) = match parse_flags(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match positional.as_slice() {
        [flag] if flag == "--example" => {
            println!("{EXAMPLE}");
            return ExitCode::SUCCESS;
        }
        [subcommand, count] if subcommand == "batch" => match count.parse::<usize>() {
            Ok(count) => run_batch(count, &obs).map(Some),
            Err(_) => Err(format!("invalid batch size {count:?}")),
        },
        [subcommand, count] if subcommand == "repair" => match count.parse::<usize>() {
            Ok(count) => run_repair(count, &obs).map(Some),
            Err(_) => Err(format!("invalid repair batch size {count:?}")),
        },
        // The service has already written its responses: no report follows.
        [subcommand] if subcommand == "serve" => run_serve(&obs).map(|()| None),
        [subcommand, path] if subcommand == "portfolio" => run(path, true).map(Some),
        [path] if path != "portfolio" && path != "batch" && path != "repair" && path != "serve" => {
            run(path, false).map(Some)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = outcome.and_then(|output| write_obs_outputs(&obs).map(|()| output));
    match outcome {
        Ok(output) => {
            let written = output.map_or(Ok(()), |output| writeln!(std::io::stdout(), "{output}"));
            match written {
                // A reader that closed stdout early (`| head`) took what it
                // wanted: that is not a failure.
                Err(error) if error.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("failed to write the report: {error}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
