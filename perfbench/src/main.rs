//! Host wall-clock benchmark of the NB-SMT serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense-closed|sysmt2-open|sim-mmpp|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A timed run (`--trace 0`) sets up the served model, checks every output
//! against its reference, and prints the workload's end-to-end metrics. A
//! traced run (`--trace 1`) prints the per-layer metrics instead. Each run
//! prints a table to stderr and one JSON object as its last stdout line.
//! `README.md` says why each workload and metric was chosen.

mod fixture;
mod host;
mod layers;
mod report;
mod sim_cell;
mod stats;
mod wall;

use nbsmt_serve::ServeError;

use crate::fixture::Fixture;
use crate::report::{Better, Report};
use crate::wall::{Phase, Wall, POOL_INPUTS, WARMUP};

const WORKLOADS: [&str; 3] = ["dense-closed", "sysmt2-open", "sim-mmpp"];
const USAGE: &str = "usage: nbsmt-perfbench --workload <dense-closed|sysmt2-open|sim-mmpp|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workloads: Vec::new(),
            seed: 2024,
            seconds: 30,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" if value == "all" => parsed.workloads = WORKLOADS.to_vec(),
                "--workload" => {
                    let name = WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or(format!("unknown workload {value}"))?;
                    parsed.workloads = vec![name];
                }
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.clamp(1, 60),
                "--trace" => parsed.trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if parsed.workloads.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(parsed)
    }
}

/// The timed run of one workload: its end-to-end metrics.
fn timed_run(workload: &str, seed: u64, seconds: u64) -> Result<Report, ServeError> {
    let mut report = Report::new();
    let fixture = match workload {
        "sim-mmpp" => {
            let fixture = Fixture::measure(&sim_cell::ladder())?;
            sim_cell::timed(&fixture, seed, seconds, &mut report)?;
            fixture
        }
        _ => {
            let wall = if workload == "dense-closed" {
                Wall::DenseClosed
            } else {
                Wall::Sysmt2Open
            };
            let fixture = Fixture::measure(&[wall.smt()])?;
            let session = fixture.session(wall.smt())?;
            let requests =
                fixture::RequestPool::new(&fixture.trained, &session, POOL_INPUTS, seed)?;
            let phase = Phase {
                warmup: WARMUP,
                windows: wall::windows_in(seconds),
                recorder: None,
            };
            wall::run_phase(wall, session, &requests, seed, &phase)?.end_to_end(&mut report);
            fixture
        }
    };
    report.metric("setup_s", fixture.times.total_s, "s", Better::Lower);
    report.metric("peak_rss_mb", host::peak_rss_mb(), "MB", Better::Lower);
    Ok(report)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A traced run measures every layer of every workload, so it runs once.
    let runs = if args.trace {
        &args.workloads[..1]
    } else {
        &args.workloads[..]
    };
    let mut all_correct = true;
    for workload in runs {
        let (result, title) = if args.trace {
            (
                layers::traced_run(args.seed, args.seconds),
                "traced run".to_string(),
            )
        } else {
            (
                timed_run(workload, args.seed, args.seconds),
                format!("{workload} timed run"),
            )
        };
        match result {
            Ok(report) => {
                all_correct &= report.correct;
                report.print(&format!("{title}, seed {}", args.seed));
            }
            Err(e) => {
                eprintln!("error: {title}: {e}");
                std::process::exit(1);
            }
        }
    }
    if !all_correct {
        std::process::exit(1);
    }
}
