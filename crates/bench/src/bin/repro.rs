//! `repro` — regenerates every table and figure of the NB-SMT paper.
//!
//! A thin driver over the experiment registry
//! ([`nbsmt_bench::experiments::registry`]): experiments, their
//! descriptions, accepted parameters and defaults all live in its one
//! table, and a run is fully described by a declarative
//! [`nbsmt_bench::RunSpec`].
//!
//! ```text
//! cargo run -p nbsmt-bench --release --bin repro -- <experiment> [flags]
//! cargo run -p nbsmt-bench --release --bin repro -- --spec examples/specs/serve_small.json
//! ```
//!
//! Run `repro -- --help` for the flags and `repro -- --list` for every
//! experiment id with a one-line description. A spec file commits a run's
//! entire configuration (scale, seed, host execution, per-experiment
//! parameters); `--set key=value` and the shorthand flags (`--full`,
//! `--threads`, `--backend`, `--requests`, `--replicas`) override it, and
//! `--dump-spec` prints the resolved spec (the experiment's defaults filled
//! in) instead of running — the way to check in a new spec file. Setting a
//! parameter the experiment does not declare (e.g. `--requests` on `fig8`)
//! or an `arrival` it does not run is a typed error with exit status 2,
//! never a silent no-op.
//!
//! By the execution layer's determinism contract, `threads`/`backend`
//! change wall-clock time only — every reproduced number is identical for
//! every setting. `serve`, `shard`, `faults`, `scale` and `control` write
//! the tracked `BENCH_*.json` summaries and only run when requested
//! explicitly (none is part of `all`, so regenerating tables never clobbers
//! them).

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use nbsmt_bench::experiments::registry::{self, ALL};
use nbsmt_bench::{ExperimentError, RunSpec, SpecError, SummarySink};

/// Everything that can go wrong in the driver, funneled to the single exit
/// point in `main`.
#[derive(Debug)]
enum CliError {
    /// Bad command line (unknown flag, missing value, unknown experiment).
    Usage(String),
    /// The spec file or an override was invalid.
    Spec(SpecError),
    /// The experiment itself failed (summary write).
    Run(ExperimentError),
    /// A spec file could not be read.
    Io { path: PathBuf, message: String },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(message) => write!(f, "{message}"),
            CliError::Spec(e) => write!(f, "{e}"),
            CliError::Run(e) => write!(f, "{e}"),
            CliError::Io { path, message } => {
                write!(f, "failed to read {}: {message}", path.display())
            }
        }
    }
}

impl CliError {
    /// Exit status: 2 for usage/spec problems (the caller's mistake), 1 for
    /// run failures.
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) | CliError::Spec(_) | CliError::Io { .. } => 2,
            CliError::Run(_) => 1,
        }
    }
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

impl From<ExperimentError> for CliError {
    fn from(e: ExperimentError) -> Self {
        match e {
            // Spec problems surfaced by the registry keep the usage exit
            // code.
            ExperimentError::Spec(spec) => CliError::Spec(spec),
            other => CliError::Run(other),
        }
    }
}

/// The parsed command line, before spec resolution.
#[derive(Debug, Default)]
struct CliOptions {
    experiment: Option<String>,
    spec_path: Option<PathBuf>,
    /// `--set` pairs and shorthand flags, in command-line order.
    sets: Vec<(String, String)>,
    dump_spec: bool,
    list: bool,
    help: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // The single error exit point: every failure funnels here as a
        // CliError.
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let options = parse_args(args)?;

    if options.help {
        print!("{}", registry::help_text());
        return Ok(());
    }
    if options.list {
        print!("{}", registry::list_text());
        return Ok(());
    }

    // Resolve before dumping: `--dump-spec` doubles as the spec validator
    // (the CI spec-smoke job runs it over every committed file) and prints
    // what the run would read. Same registry::resolve the run path applies,
    // so the two cannot drift.
    let spec = registry::resolve(read_spec(&options)?).map_err(|e| match e {
        ExperimentError::UnknownExperiment(name) => unknown_experiment_error(&name),
        other => other.into(),
    })?;

    if options.dump_spec {
        print!("{}", spec.render());
        return Ok(());
    }

    println!(
        "# NB-SMT / SySMT reproduction — experiment: {} (scale: {:?})",
        spec.experiment, spec.scale
    );
    let ctx = spec.exec.context();
    println!(
        "host execution: {} thread(s), {} backend\n",
        ctx.threads(),
        ctx.config().backend
    );

    let mut sink = SummarySink::stdout();
    registry::run(&spec, &mut sink)?;
    Ok(())
}

/// The spec the command line describes: the spec file, or the named
/// experiment (default `all`) at the global defaults, then the
/// `--set`/shorthand overrides in order. A parameter left unset takes the
/// experiment's default when the registry resolves the spec.
fn read_spec(options: &CliOptions) -> Result<RunSpec, CliError> {
    let mut spec = match &options.spec_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
                path: path.clone(),
                message: e.to_string(),
            })?;
            let spec = RunSpec::parse(&text)?;
            if let Some(requested) = options
                .experiment
                .as_ref()
                .filter(|r| **r != spec.experiment)
            {
                return Err(SpecError::ExperimentMismatch {
                    spec: spec.experiment,
                    requested: requested.clone(),
                }
                .into());
            }
            spec
        }
        None => RunSpec::defaults(options.experiment.as_deref().unwrap_or(ALL)),
    };
    for (key, value) in &options.sets {
        spec.set(key, value)?;
    }
    Ok(spec)
}

fn unknown_experiment_error(name: &str) -> CliError {
    CliError::Usage(format!(
        "unknown experiment '{name}'.\n\n{}\n(run with --list to see this at any time)",
        registry::list_text()
    ))
}

fn parse_args(args: &[String]) -> Result<CliOptions, CliError> {
    let mut options = CliOptions::default();
    let mut it = args.iter();
    let value_of = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => options.help = true,
            "--list" => options.list = true,
            "--dump-spec" => options.dump_spec = true,
            "--spec" => {
                options.spec_path = Some(PathBuf::from(value_of("--spec", &mut it)?));
            }
            "--set" => {
                let pair = value_of("--set", &mut it)?;
                let (key, value) = pair.split_once('=').ok_or_else(|| {
                    CliError::Usage(format!("--set expects key=value, got '{pair}'"))
                })?;
                options.sets.push((key.to_string(), value.to_string()));
            }
            // Shorthand flags: sugar over --set, applied in order.
            "--full" => options.sets.push(("scale".into(), "full".into())),
            "--threads" => {
                let value = value_of("--threads", &mut it)?;
                options.sets.push(("threads".into(), value));
            }
            "--backend" => {
                let value = value_of("--backend", &mut it)?;
                options.sets.push(("backend".into(), value));
            }
            "--requests" => {
                let value = value_of("--requests", &mut it)?;
                options.sets.push(("requests".into(), value));
            }
            "--replicas" => {
                let value = value_of("--replicas", &mut it)?;
                options.sets.push(("replicas".into(), value));
            }
            other if !other.starts_with("--") => {
                if let Some(first) = &options.experiment {
                    return Err(CliError::Usage(format!(
                        "unexpected extra experiment '{other}' after '{first}'"
                    )));
                }
                options.experiment = Some(other.to_string());
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag '{other}' (run with --help for usage)"
                )));
            }
        }
    }
    Ok(options)
}
