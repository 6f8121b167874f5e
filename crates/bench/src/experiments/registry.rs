//! The experiment registry: every paper table, figure, and serving sweep as
//! one row of the static [`EXPERIMENTS`] table.
//!
//! A row declares the experiment's id, its `--list` description, the
//! summary file it writes, each parameter it accepts with its default
//! ([`Param`]; for `arrival`, also the traffic models the experiment runs),
//! and the function that renders its table into a [`SummarySink`]. The
//! `repro` binary is a thin driver over this module: [`resolve`] checks a
//! spec against its row and fills the row's defaults in once, [`run`]
//! dispatches it, [`ALL_RUN_ORDER`] alone makes up the `all` composite, and
//! the `--list` / `--help` text and the ARCHITECTURE.md experiment table
//! are generated from the table — so adding a sweep is one run function
//! plus one row, with no new CLI wiring.
//!
//! Output discipline: experiments never print directly. Everything goes
//! through the sink (stdout in the binary, an in-memory buffer in tests),
//! and the tracked `BENCH_*.json` summaries are only written when the sink
//! persists — running an experiment from a test never touches them.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nbsmt_tensor::validate::Validate;

use crate::experiments::accuracy::{
    fig10_pruning, fig7_robustness, mlperf_mobilenet, table3_policies, table4_comparison,
    table5_slowdown, AccuracyBench,
};
use crate::experiments::control_exp::{self, control_sweep_with};
use crate::experiments::faults_exp::faults_sweep_with;
use crate::experiments::hw_exp::table2_rows;
use crate::experiments::obs_exp::ObsBench;
use crate::experiments::scale_exp::{self, scale_sweep_with, ScaleKnobs, ANCHOR_REQUESTS};
use crate::experiments::serve_exp::{serve_sweep_with, shard_sweep_with, ShardRow};
use crate::experiments::zoo_exp::{
    energy_savings, fig1_utilization, fig8_mse_vs_sparsity, fig9_utilization_gain, table1_inventory,
};
use crate::spec::{known_keys, ParamKey, RunSpec, SpecError};
use crate::summary::{Record, Summary};
use crate::trace_export::{render_chrome_trace, stage_summary};

/// Writes a line into the sink, ignoring the (infallible in both sink
/// variants) formatter result.
macro_rules! out {
    ($sink:expr) => { let _ = writeln!($sink); };
    ($sink:expr, $($arg:tt)*) => { let _ = writeln!($sink, $($arg)*); };
}

/// Where an experiment's rendered output and summary files go.
///
/// [`SummarySink::stdout`] streams to the terminal and persists the tracked
/// `BENCH_*.json` summaries; [`SummarySink::capture`] buffers the text and
/// suppresses all file writes (the mode tests run experiments in).
pub struct SummarySink {
    out: SinkOut,
    persist: bool,
}

enum SinkOut {
    Stdout,
    Buffer(String),
}

impl SummarySink {
    /// The binary's sink: prints to stdout, persists summary files.
    pub fn stdout() -> SummarySink {
        SummarySink {
            out: SinkOut::Stdout,
            persist: true,
        }
    }

    /// The test sink: buffers output, never writes summary files.
    pub fn capture() -> SummarySink {
        SummarySink {
            out: SinkOut::Buffer(String::new()),
            persist: false,
        }
    }

    /// Whether experiments should write their `BENCH_*.json` summaries.
    pub fn persists(&self) -> bool {
        self.persist
    }

    /// The buffered output (capture sinks only).
    pub fn captured(&self) -> Option<&str> {
        match &self.out {
            SinkOut::Stdout => None,
            SinkOut::Buffer(text) => Some(text),
        }
    }
}

impl std::fmt::Write for SummarySink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        match &mut self.out {
            SinkOut::Stdout => print!("{s}"),
            SinkOut::Buffer(text) => text.push_str(s),
        }
        Ok(())
    }
}

/// What a completed experiment run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// The experiment that ran.
    pub experiment: String,
    /// Table rows / sweep cells produced.
    pub cells: usize,
    /// Summary files written (empty for a non-persisting sink).
    pub summaries: Vec<PathBuf>,
}

/// Why an experiment run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The spec was invalid or not accepted by the experiment.
    Spec(SpecError),
    /// The requested experiment is not in the registry.
    UnknownExperiment(String),
    /// Writing a summary file failed.
    Io {
        /// The file being written.
        path: PathBuf,
        /// The underlying I/O error text.
        message: String,
    },
}

impl ExperimentError {
    fn io(path: &Path, error: &std::io::Error) -> ExperimentError {
        ExperimentError::Io {
            path: path.to_path_buf(),
            message: error.to_string(),
        }
    }
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Spec(e) => write!(f, "{e}"),
            ExperimentError::UnknownExperiment(name) => {
                write!(f, "unknown experiment '{name}'")
            }
            ExperimentError::Io { path, message } => {
                write!(f, "failed to write {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<SpecError> for ExperimentError {
    fn from(e: SpecError) -> Self {
        ExperimentError::Spec(e)
    }
}

/// A parameter an experiment accepts beyond the universal `scale` / `seed` /
/// `threads` / `backend`, with the value [`resolve`] fills in when a spec
/// leaves it unset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// `requests`, defaulting to this arrival-trace length.
    Requests(usize),
    /// `replicas`, defaulting to these replica counts.
    Replicas(&'static [usize]),
    /// `arrival`, defaulting to `all`: the experiment runs these traffic
    /// models, and `all` selects every one of them.
    Arrival(&'static [&'static str]),
    /// `trace.path`, unset by default (no trace file is written).
    Trace,
}

impl Param {
    /// The spec key the parameter is set through.
    pub fn key(self) -> ParamKey {
        match self {
            Param::Requests(_) => ParamKey::Requests,
            Param::Replicas(_) => ParamKey::Replicas,
            Param::Arrival(_) => ParamKey::Arrival,
            Param::Trace => ParamKey::Trace,
        }
    }
}

/// Renders an experiment's table into the sink and returns its cell count.
/// It reads every parameter its row declares as resolved.
type RunFn = fn(&Experiment, &RunSpec, &mut SummarySink) -> Result<usize, ExperimentError>;

/// One reproducible experiment — a paper table/figure or a serving sweep —
/// as a row of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// The registry id (`fig8`, `serve`, …).
    pub name: &'static str,
    /// One-line description (the `--list` text).
    pub description: &'static str,
    /// The tracked summary file the experiment writes, if any.
    pub writes: Option<&'static str>,
    /// The parameters the experiment accepts, with their defaults. A spec
    /// that sets any other parameter is refused with a typed error.
    pub params: &'static [Param],
    run: RunFn,
}

/// A paper table or figure: no parameters, no summary file.
const fn paper(name: &'static str, description: &'static str, run: RunFn) -> Experiment {
    Experiment {
        name,
        description,
        writes: None,
        params: &[],
        run,
    }
}

/// Every experiment, in the paper's presentation order (the `--list`
/// order).
pub static EXPERIMENTS: &[Experiment] = &[
    paper(
        "table1",
        "Table I — evaluated CNN models and their MAC counts",
        run_table1,
    ),
    paper(
        "fig1",
        "Fig. 1 — MAC utilization breakdown during CNN inference",
        run_fig1,
    ),
    paper(
        "table2",
        "Table II — design parameters, power, and area",
        run_table2,
    ),
    paper(
        "fig7",
        "Fig. 7 — whole-model robustness to precision reduction",
        run_fig7,
    ),
    paper(
        "table3",
        "Table III — 2T SySMT sharing policies",
        run_table3,
    ),
    paper(
        "table4",
        "Table IV — 2T SySMT vs post-training quantization",
        run_table4,
    ),
    paper(
        "fig8",
        "Fig. 8 — per-layer MSE vs activation sparsity",
        run_fig8,
    ),
    paper(
        "fig9",
        "Fig. 9 — utilization improvement vs sparsity",
        run_fig9,
    ),
    paper(
        "table5",
        "Table V — 4T SySMT with high-MSE layers slowed to 2T",
        run_table5,
    ),
    paper(
        "fig10",
        "Fig. 10 — accuracy vs 4T speedup for pruned models",
        run_fig10,
    ),
    paper(
        "energy",
        "§V-A — energy savings of SySMT over the baseline array",
        run_energy,
    ),
    paper(
        "mlperf",
        "§V-B — MobileNet-v1 MLPerf-style operating point",
        run_mlperf,
    ),
    Experiment {
        name: "serve",
        description:
            "serving sweep: offered load × NB-SMT config → BENCH_serve.json (explicit only)",
        writes: Some("BENCH_serve.json"),
        params: &[Param::Requests(256)],
        run: run_serve,
    },
    Experiment {
        name: "shard",
        description:
            "sharded serving sweep: replicas × route × {dense,adaptive} → BENCH_serve.json (explicit only)",
        writes: Some("BENCH_serve.json"),
        params: &[Param::Requests(256), Param::Replicas(&[1, 2, 4])],
        run: run_shard,
    },
    Experiment {
        name: "faults",
        description:
            "availability under injected failures: chaos corpus × countermeasures → BENCH_faults.json (explicit only)",
        writes: Some("BENCH_faults.json"),
        params: &[Param::Requests(64)],
        run: run_faults,
    },
    Experiment {
        name: "obs",
        description:
            "trace export check: a seeded pool run, replayed twice, must export byte-identical Chrome traces (explicit only)",
        writes: None,
        params: &[Param::Requests(96), Param::Trace],
        run: run_obs,
    },
    Experiment {
        name: "scale",
        description:
            "scale-regime sweep: traffic model × policy × replicas, stats-only at 10^6 requests → BENCH_scale.json (explicit only)",
        writes: Some("BENCH_scale.json"),
        params: &[
            Param::Requests(20_000),
            Param::Replicas(&[8, 64]),
            Param::Arrival(&scale_exp::ARRIVALS),
        ],
        run: run_scale,
    },
    Experiment {
        name: "control",
        description:
            "pool-controller sweep: {reactive, predictive, +autoscale, +steal} × traffic → BENCH_control.json (explicit only)",
        writes: Some("BENCH_control.json"),
        params: &[
            Param::Requests(20_000),
            Param::Replicas(&[8, 64]),
            Param::Arrival(&control_exp::ARRIVALS),
        ],
        run: run_control,
    },
];

/// The name of the composite experiment that runs every paper table and
/// figure (but never the explicit-only experiments).
pub const ALL: &str = "all";

const ALL_DESCRIPTION: &str =
    "every paper table and figure above (not the explicit-only experiments)";

/// The members of `all`, in the order it runs them: the cheap
/// zoo/hardware experiments first, then the five accuracy experiments,
/// which share one trained SynthNet via [`AccuracyBench::shared`].
pub const ALL_RUN_ORDER: &[&str] = &[
    "table1", "fig1", "table2", "fig8", "fig9", "energy", "mlperf", "fig7", "table3", "table4",
    "table5", "fig10",
];

/// The message of a run function reading a parameter its row declares:
/// [`resolve`] has filled it.
const RESOLVED: &str = "resolve fills every declared parameter";

/// Looks up an experiment (the composite `all` is not a row).
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Checks `spec` against its experiment's row and fills every parameter the
/// row declares but the spec leaves unset with the row's default: value
/// validation, experiment lookup, declared-parameter acceptance, and the
/// `arrival` values the experiment runs. [`run`] applies it before running
/// and the `repro` binary before `--dump-spec` — one implementation, so the
/// two cannot drift.
///
/// # Errors
///
/// [`ExperimentError::UnknownExperiment`], or a [`SpecError`]: an invalid
/// value, a parameter the experiment does not declare
/// ([`SpecError::KeyNotAccepted`]), or an `arrival` it does not run.
pub fn resolve(mut spec: RunSpec) -> Result<RunSpec, ExperimentError> {
    spec.validate()?;
    let params: &[Param] = match spec.experiment.as_str() {
        ALL => &[],
        name => {
            find(name)
                .ok_or_else(|| ExperimentError::UnknownExperiment(spec.experiment.clone()))?
                .params
        }
    };
    let accepted: Vec<ParamKey> = params.iter().map(|param| param.key()).collect();
    spec.check_params(&accepted)?;
    for param in params {
        match *param {
            Param::Requests(requests) => {
                spec.requests.get_or_insert(requests);
            }
            Param::Replicas(replicas) => {
                spec.replicas.get_or_insert_with(|| replicas.to_vec());
            }
            Param::Arrival(models) => {
                let arrival = spec.arrival.get_or_insert_with(|| "all".to_string());
                if arrival != "all" && !models.contains(&arrival.as_str()) {
                    return Err(SpecError::bad(
                        "arrival",
                        format!("'{arrival}' is not one of {}, all", models.join(", ")),
                    )
                    .into());
                }
            }
            Param::Trace => {}
        }
    }
    Ok(spec)
}

/// Resolves `spec` and runs the experiment it names — or, for `all`, every
/// [`ALL_RUN_ORDER`] member in order at the spec's scale/seed/exec.
///
/// # Errors
///
/// [`ExperimentError`] on an unknown experiment, an invalid or
/// not-accepted spec, or a failed summary write.
pub fn run(spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
    let spec = resolve(spec.clone())?;
    if let Some(experiment) = find(&spec.experiment) {
        return run_resolved(experiment, &spec, sink);
    }
    let mut report = RunReport {
        experiment: ALL.to_string(),
        ..RunReport::default()
    };
    for name in ALL_RUN_ORDER {
        let experiment = find(name).unwrap_or_else(|| panic!("'{name}' of the all-order is a row"));
        let child = resolve(RunSpec {
            experiment: name.to_string(),
            ..spec.clone()
        })?;
        let sub = run_resolved(experiment, &child, sink)?;
        report.cells += sub.cells;
        report.summaries.extend(sub.summaries);
    }
    Ok(report)
}

fn run_resolved(
    experiment: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<RunReport, ExperimentError> {
    let cells = (experiment.run)(experiment, spec, sink)?;
    Ok(RunReport {
        experiment: experiment.name.to_string(),
        cells,
        summaries: experiment
            .writes
            .filter(|_| sink.persists())
            .map(PathBuf::from)
            .into_iter()
            .collect(),
    })
}

/// When the sink persists, writes `records` into the file `experiment`
/// declares, merging by record name; returns the cell count.
fn record<R: Record>(
    experiment: &Experiment,
    sink: &mut SummarySink,
    records: Vec<R>,
) -> Result<usize, ExperimentError> {
    let cells = records.len();
    if sink.persists() {
        let path = Path::new(
            experiment
                .writes
                .expect("a recording experiment declares its file"),
        );
        Summary { records }
            .write(path)
            .map_err(|e| ExperimentError::io(path, &e))?;
        out!(sink, "\nwrote {} (merged by record name)\n", path.display());
    }
    Ok(cells)
}

/// The `--list` body: one `name description` line per experiment plus the
/// `all` composite, exactly as the binary prints it.
pub fn list_text() -> String {
    let mut text = String::from("Known experiments:\n");
    for experiment in EXPERIMENTS {
        let _ = writeln!(text, "  {:<10} {}", experiment.name, experiment.description);
    }
    let _ = writeln!(text, "  {ALL:<10} {ALL_DESCRIPTION}");
    text
}

/// The generated `--help` text: usage, flags, and the experiment list.
pub fn help_text() -> String {
    let mut text = format!(
        "repro — regenerates every table and figure of the NB-SMT paper.\n\
         \n\
         Usage:\n\
         \x20 repro [<experiment>] [flags]           run an experiment (default: all)\n\
         \x20 repro --spec <path> [flags]            run the experiment a spec file describes\n\
         \n\
         Flags:\n\
         \x20 --spec <path>        load a RunSpec JSON file (see examples/specs/)\n\
         \x20 --set <key>=<value>  override one spec key (repeatable, applied in order):\n\
         \x20                      {}\n\
         \x20 --dump-spec          print the resolved spec as JSON and exit without running\n\
         \x20 --full               shorthand for --set scale=full\n\
         \x20 --threads <n>        shorthand for --set threads=<n>\n\
         \x20 --backend <name>     shorthand for --set backend=<name> (naive, blocked, parallel, simd, packed)\n\
         \x20 --requests <n>       shorthand for --set requests=<n>\n\
         \x20 --replicas <list>    shorthand for --set replicas=<n[,n...]>\n\
         \x20 --list               list the experiments and exit\n\
         \x20 --help               this text\n\
         \n\
         A spec sets only the parameters its experiment declares; setting any\n\
         other key (e.g. --requests on fig8) is an error, not a silent no-op.\n\
         \n",
        known_keys()
    );
    text.push_str(&list_text());
    text
}

/// The experiment-harness table for ARCHITECTURE.md, generated from
/// [`EXPERIMENTS`] and [`ALL_RUN_ORDER`] so the docs cannot drift from the
/// registry.
pub fn markdown_table() -> String {
    let mut text = String::from(
        "| Experiment | Extra params | Writes | In `all` | Description |\n\
         |---|---|---|---|---|\n",
    );
    for experiment in EXPERIMENTS {
        let params = if experiment.params.is_empty() {
            "—".to_string()
        } else {
            experiment
                .params
                .iter()
                .map(|param| format!("`{}`", param.key().name()))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            text,
            "| `{}` | {} | {} | {} | {} |",
            experiment.name,
            params,
            experiment
                .writes
                .map_or("—".to_string(), |w| format!("`{w}`")),
            if ALL_RUN_ORDER.contains(&experiment.name) {
                "yes"
            } else {
                "no"
            },
            experiment.description
        );
    }
    text
}

/// The shared accuracy fixture, training it (with progress lines, as the
/// monolithic driver printed them) only on a cache miss.
fn accuracy_bench(spec: &RunSpec, sink: &mut SummarySink) -> Arc<AccuracyBench> {
    if let Some(bench) = AccuracyBench::cached(spec.scale, spec.seed, spec.exec) {
        return bench;
    }
    out!(
        sink,
        "Training SynthNet (accuracy substrate, see ARCHITECTURE.md, substitution 1)…"
    );
    let bench = AccuracyBench::shared(spec.scale, spec.seed, spec.exec);
    out!(
        sink,
        "SynthNet FP32 accuracy: {:.2}% | A8W8 accuracy: {:.2}%\n",
        bench.fp32_accuracy() * 100.0,
        bench.int8_accuracy() * 100.0
    );
    bench
}

fn run_table1(
    _: &Experiment,
    _: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    out!(
        sink,
        "## Table I — evaluated CNN models (per-image MAC operations)\n"
    );
    out!(
        sink,
        "{:<14} {:>12} {:>12}",
        "Model",
        "CONV [GMAC]",
        "FC [MMAC]"
    );
    let rows = table1_inventory();
    for row in &rows {
        out!(
            sink,
            "{:<14} {:>12.2} {:>12.1}",
            row.model,
            row.conv_gmacs,
            row.fc_mmacs
        );
    }
    out!(sink);
    Ok(rows.len())
}

fn run_fig1(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    out!(
        sink,
        "## Fig. 1 — MAC utilization breakdown during CNN inference\n"
    );
    out!(
        sink,
        "{:<14} {:>12} {:>20} {:>8}",
        "Model",
        "Utilized",
        "Partially utilized",
        "Idle"
    );
    let rows = fig1_utilization(spec.scale);
    for row in &rows {
        out!(
            sink,
            "{:<14} {:>11.1}% {:>19.1}% {:>7.1}%",
            row.model,
            row.fully_utilized * 100.0,
            row.partially_utilized * 100.0,
            row.idle * 100.0
        );
    }
    out!(sink);
    Ok(rows.len())
}

fn run_table2(
    _: &Experiment,
    _: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    out!(sink, "## Table II — design parameters, power, and area\n");
    out!(
        sink,
        "{:<10} {:>12} {:>14} {:>12} {:>10} {:>10} {:>10}",
        "Design",
        "GMAC/s",
        "P@80% [mW]",
        "Area [mm2]",
        "Area [x]",
        "PE [um2]",
        "MAC [um2]"
    );
    let rows = table2_rows();
    for row in &rows {
        out!(
            sink,
            "{:<10} {:>12.0} {:>14.0} {:>12.3} {:>10.2} {:>10.0} {:>10.0}",
            row.design,
            row.throughput_gmacs,
            row.power_mw_at_80,
            row.total_area_mm2,
            row.area_ratio,
            row.pe_area_um2,
            row.mac_area_um2
        );
    }
    out!(sink);
    Ok(rows.len())
}

fn run_fig7(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let bench = accuracy_bench(spec, sink);
    out!(
        sink,
        "## Fig. 7 — whole-model robustness to on-the-fly precision reduction\n"
    );
    out!(sink, "{:<8} {:>10}", "Point", "Top-1 [%]");
    let rows = fig7_robustness(&bench);
    for row in &rows {
        out!(sink, "{:<8} {:>10.2}", row.point, row.accuracy * 100.0);
    }
    out!(sink);
    Ok(rows.len())
}

fn run_table3(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let bench = accuracy_bench(spec, sink);
    out!(
        sink,
        "## Table III — 2T SySMT sharing policies (no reordering)\n"
    );
    out!(sink, "{:<12} {:>10}", "Policy", "Top-1 [%]");
    let rows = table3_policies(&bench);
    for row in &rows {
        out!(sink, "{:<12} {:>10.2}", row.policy, row.accuracy * 100.0);
    }
    out!(sink);
    Ok(rows.len())
}

fn run_table4(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let bench = accuracy_bench(spec, sink);
    out!(
        sink,
        "## Table IV — 2T SySMT vs post-training quantization comparators\n"
    );
    out!(sink, "{:<28} {:>10}", "Method", "Top-1 [%]");
    let rows = table4_comparison(&bench);
    for row in &rows {
        out!(sink, "{:<28} {:>10.2}", row.method, row.accuracy * 100.0);
    }
    out!(sink);
    Ok(rows.len())
}

fn run_fig8(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    out!(
        sink,
        "## Fig. 8 — per-layer MSE vs activation sparsity (GoogLeNet proxy, 2T)\n"
    );
    out!(
        sink,
        "{:<26} {:>10} {:>16} {:>16}",
        "Layer",
        "Sparsity",
        "MSE w/o reorder",
        "MSE w/ reorder"
    );
    let points = fig8_mse_vs_sparsity(spec.scale, &spec.exec.context());
    for p in &points {
        out!(
            sink,
            "{:<26} {:>9.1}% {:>16.3e} {:>16.3e}",
            p.layer,
            p.sparsity * 100.0,
            p.mse_without_reorder,
            p.mse_with_reorder
        );
    }
    out!(sink);
    Ok(points.len())
}

fn run_fig9(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    out!(
        sink,
        "## Fig. 9 — utilization improvement vs sparsity (GoogLeNet proxy, 2T)\n"
    );
    out!(
        sink,
        "{:<26} {:>10} {:>17} {:>16} {:>10}",
        "Layer",
        "Sparsity",
        "Gain w/o reorder",
        "Gain w/ reorder",
        "Eq. 8"
    );
    let points = fig9_utilization_gain(spec.scale, &spec.exec.context());
    for p in &points {
        out!(
            sink,
            "{:<26} {:>9.1}% {:>17.3} {:>16.3} {:>10.3}",
            p.layer,
            p.sparsity * 100.0,
            p.gain_without_reorder,
            p.gain_with_reorder,
            p.analytic_gain
        );
    }
    out!(sink);
    Ok(points.len())
}

fn run_table5(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let bench = accuracy_bench(spec, sink);
    out!(
        sink,
        "## Table V — 4T SySMT with high-MSE layers slowed to 2T\n"
    );
    out!(
        sink,
        "{:<14} {:>10} {:>10}",
        "Layers @2T",
        "Top-1 [%]",
        "Speedup"
    );
    let rows = table5_slowdown(&bench);
    for row in &rows {
        out!(
            sink,
            "{:<14} {:>10.2} {:>9.2}x",
            row.layers_at_2t,
            row.accuracy * 100.0,
            row.speedup
        );
    }
    out!(sink);
    Ok(rows.len())
}

fn run_fig10(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let bench = accuracy_bench(spec, sink);
    out!(
        sink,
        "## Fig. 10 — accuracy vs 4T speedup for pruned models\n"
    );
    out!(
        sink,
        "{:<10} {:>12} {:>10} {:>10}",
        "Pruned",
        "Layers @2T",
        "Top-1 [%]",
        "Speedup"
    );
    let points = fig10_pruning(&bench, spec.scale);
    for p in &points {
        out!(
            sink,
            "{:<10} {:>12} {:>10.2} {:>9.2}x",
            format!("{:.0}%", p.pruned * 100.0),
            p.layers_at_2t,
            p.accuracy * 100.0,
            p.speedup
        );
    }
    out!(sink);
    Ok(points.len())
}

fn run_energy(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    out!(
        sink,
        "## §V-A — energy savings of SySMT over the conventional array\n"
    );
    out!(
        sink,
        "{:<14} {:>10} {:>10}",
        "Model",
        "2T saving",
        "4T saving"
    );
    let rows = energy_savings(spec.scale, &spec.exec.context());
    let mut avg2 = 0.0;
    let mut avg4 = 0.0;
    for row in &rows {
        out!(
            sink,
            "{:<14} {:>9.1}% {:>9.1}%",
            row.model,
            row.saving_2t * 100.0,
            row.saving_4t * 100.0
        );
        avg2 += row.saving_2t;
        avg4 += row.saving_4t;
    }
    out!(
        sink,
        "{:<14} {:>9.1}% {:>9.1}%\n",
        "Average",
        avg2 / rows.len() as f64 * 100.0,
        avg4 / rows.len() as f64 * 100.0
    );
    Ok(rows.len())
}

fn run_mlperf(
    _: &Experiment,
    _: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    out!(
        sink,
        "## §V-B MLPerf — MobileNet-v1 operating point (pointwise @2T, depthwise @1T)\n"
    );
    let row = mlperf_mobilenet();
    out!(
        sink,
        "{}: speedup {:.2}x with {:.1}% of MACs executed at two threads\n",
        row.model,
        row.speedup,
        row.fraction_at_2t * 100.0
    );
    Ok(1)
}

fn run_serve(
    experiment: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let requests = spec.requests.expect(RESOLVED);
    out!(
        sink,
        "## serve — offered load × NB-SMT configuration ({requests} requests/cell)\n"
    );
    out!(
        sink,
        "Training SynthNet and compiling dense/2T/4T sessions…\n"
    );
    let rows = serve_sweep_with(spec.scale, &spec.exec, requests, spec.seed);
    out!(
        sink,
        "{:<6} {:<12} {:>8} {:>6} {:>6} {:>10} {:>9} {:>9} {:>9} {:>7} {:>6}",
        "SMT",
        "Arrival",
        "Offered",
        "Done",
        "Shed",
        "Thru[rps]",
        "p50[ms]",
        "p95[ms]",
        "p99[ms]",
        "Batch",
        "Depth"
    );
    for row in &rows {
        let offered = if row.arrival == "closed_loop" {
            format!("{}cl", row.offered as u64)
        } else {
            format!("{:.1}x", row.offered)
        };
        out!(
            sink,
            "{:<6} {:<12} {:>8} {:>6} {:>6} {:>10.1} {:>9.2} {:>9.2} {:>9.2} {:>7.2} {:>6}",
            row.smt,
            row.arrival,
            offered,
            row.completed,
            row.rejected,
            row.throughput_rps,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            row.mean_batch,
            row.max_queue_depth
        );
    }
    record(experiment, sink, rows)
}

fn run_shard(
    experiment: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let requests = spec.requests.expect(RESOLVED);
    let replicas = spec.replicas.as_deref().expect(RESOLVED);
    out!(
        sink,
        "## shard — replicas × route × {{dense, adaptive}} ({requests} requests/cell, replicas {replicas:?})\n"
    );
    out!(
        sink,
        "Training SynthNet and compiling the dense/2T/4T ladder…\n"
    );
    let rows = shard_sweep_with(spec.scale, &spec.exec, requests, replicas, spec.seed);
    out!(
        sink,
        "{:<4} {:<6} {:<9} {:>8} {:>6} {:>6} {:>10} {:>9} {:>9} {:>7} {:>6} {:>14}",
        "R",
        "Route",
        "Policy",
        "Offered",
        "Done",
        "Shed",
        "Thru[rps]",
        "p95[ms]",
        "p99[ms]",
        "Batch",
        "Trans",
        "Batches/mode"
    );
    for ShardRow {
        record: row,
        batches_per_mode,
    } in &rows
    {
        out!(
            sink,
            "{:<4} {:<6} {:<9} {:>7.1}x {:>6} {:>6} {:>10.1} {:>9.2} {:>9.2} {:>7.2} {:>6} {:>14}",
            row.replicas,
            row.route,
            row.smt,
            row.offered,
            row.completed,
            row.rejected,
            row.throughput_rps,
            row.p95_ms,
            row.p99_ms,
            row.mean_batch,
            row.mode_transitions,
            format!("{batches_per_mode:?}"),
        );
    }
    let records = rows.into_iter().map(|row| row.record).collect();
    record(experiment, sink, records)
}

fn run_faults(
    experiment: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let requests = spec.requests.expect(RESOLVED);
    out!(
        sink,
        "## faults — availability under injected failures ({requests} requests/cell, 2 replicas)\n"
    );
    out!(
        sink,
        "Training SynthNet and compiling the dense/2T/4T ladder…\n"
    );
    let rows = faults_sweep_with(spec.scale, &spec.exec, requests, spec.seed);
    out!(
        sink,
        "{:<26} {:<4} {:<8} {:<11} {:>6} {:>6} {:>6} {:>9} {:>9} {:>6} {:>5} {:>7} {:>6} {:>5}",
        "Schedule",
        "Mode",
        "Policy",
        "CM",
        "Done",
        "Lost",
        "Avail",
        "p95[ms]",
        "p99[ms]",
        "Crash",
        "Hand",
        "Retry",
        "Hedge",
        "Wins"
    );
    for row in &rows {
        out!(
            sink,
            "{:<26} {:<4} {:<8} {:<11} {:>6} {:>6} {:>5.1}% {:>9.2} {:>9.2} {:>6} {:>5} {:>7} {:>6} {:>5}",
            row.schedule,
            row.mode,
            row.policy,
            row.cm,
            row.completed,
            row.failed,
            row.availability * 100.0,
            row.p95_ms,
            row.p99_ms,
            row.crashes,
            row.handoffs,
            row.retries,
            row.hedges,
            row.hedge_wins
        );
    }
    record(experiment, sink, rows)
}

fn run_obs(
    _: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let requests = spec.requests.expect(RESOLVED);
    out!(
        sink,
        "## obs — trace export check ({requests} requests, 2 replicas)\n"
    );
    out!(
        sink,
        "Training SynthNet and compiling the dense/2T/4T ladder…\n"
    );
    let bench = ObsBench::prepare(spec.scale, &spec.exec, requests, spec.seed);
    // Two runs of the same seeded workload must export byte-identical
    // Chrome traces.
    let (outcome, snapshot) = bench.run_traced();
    let rendered = render_chrome_trace(&snapshot);
    let (_, again) = bench.run_traced();
    assert_eq!(
        rendered,
        render_chrome_trace(&again),
        "traced replays must export byte-identical traces"
    );
    out!(
        sink,
        "trace: {} events, {} dropped, {} requests completed; byte-identical across replays\n",
        snapshot.events.len(),
        snapshot.dropped,
        outcome.metrics.completed
    );
    out!(sink, "{}", stage_summary(&snapshot).trim_end());
    if let Some(trace_path) = spec.trace.as_ref().filter(|_| sink.persists()) {
        let path = Path::new(trace_path);
        std::fs::write(path, &rendered).map_err(|e| ExperimentError::io(path, &e))?;
        out!(
            sink,
            "\nwrote {} (Chrome trace-event format)",
            path.display()
        );
    }
    Ok(1)
}

fn run_scale(
    experiment: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let requests = spec.requests.expect(RESOLVED);
    let replicas = spec.replicas.as_deref().expect(RESOLVED);
    let knobs = ScaleKnobs {
        arrival: spec.arrival.clone().expect(RESOLVED),
        anchor_requests: ANCHOR_REQUESTS,
    };
    out!(
        sink,
        "## scale — traffic model × policy × replicas ({requests} requests/cell + 10^6-request anchor, replicas {replicas:?}, arrival {})\n",
        knobs.arrival
    );
    out!(
        sink,
        "Training SynthNet and compiling the dense/2T/4T ladder…\n"
    );
    let rows = scale_sweep_with(spec.scale, requests, replicas, spec.seed, &knobs);
    out!(
        sink,
        "{:<8} {:<9} {:>4} {:>8} {:>9} {:>8} {:>10} {:>9} {:>9} {:>9} {:>7} {:>6}",
        "Arrival",
        "Policy",
        "R",
        "Offered",
        "Done",
        "Shed",
        "Thru[rps]",
        "p50[ms]",
        "p95[ms]",
        "p99[ms]",
        "Batch",
        "Trans"
    );
    for row in &rows {
        out!(
            sink,
            "{:<8} {:<9} {:>4} {:>7.1}x {:>9} {:>8} {:>10.1} {:>9.2} {:>9.2} {:>9.2} {:>7.2} {:>6}",
            row.arrival,
            row.smt,
            row.replicas,
            row.offered,
            row.completed,
            row.rejected,
            row.throughput_rps,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            row.mean_batch,
            row.mode_transitions
        );
    }
    record(experiment, sink, rows)
}

fn run_control(
    experiment: &Experiment,
    spec: &RunSpec,
    sink: &mut SummarySink,
) -> Result<usize, ExperimentError> {
    let requests = spec.requests.expect(RESOLVED);
    let replicas = spec.replicas.as_deref().expect(RESOLVED);
    let arrival = spec.arrival.as_deref().expect(RESOLVED);
    out!(
        sink,
        "## control — controller variants × traffic model ({requests} requests/cell, replicas {replicas:?}, arrival {arrival})\n"
    );
    out!(
        sink,
        "Training SynthNet and compiling the dense/2T/4T ladder…\n"
    );
    let rows = control_sweep_with(spec.scale, requests, replicas, spec.seed, arrival);
    out!(
        sink,
        "{:<8} {:<21} {:>4} {:>8} {:>9} {:>8} {:>9} {:>9} {:>10} {:>5} {:>5} {:>6} {:>6}",
        "Arrival",
        "Controller",
        "R",
        "Offered",
        "Done",
        "Shed",
        "p95[ms]",
        "p99[ms]",
        "Repl[s]",
        "Up",
        "Down",
        "Shift",
        "Stole"
    );
    for row in &rows {
        out!(
            sink,
            "{:<8} {:<21} {:>4} {:>7.1}x {:>9} {:>8} {:>9.2} {:>9.2} {:>10.2} {:>5} {:>5} {:>6} {:>6}",
            row.arrival,
            row.controller,
            row.replicas,
            row.offered,
            row.completed,
            row.rejected,
            row.p95_ms,
            row.p99_ms,
            row.replica_seconds,
            row.scale_ups,
            row.scale_downs,
            row.predictive_shifts,
            row.stolen_requests
        );
    }
    record(experiment, sink, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExecSettings;

    #[test]
    fn standard_registry_contains_every_experiment_once() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "table1", "fig1", "table2", "fig7", "table3", "table4", "fig8", "fig9", "table5",
                "fig10", "energy", "mlperf", "serve", "shard", "faults", "obs", "scale", "control",
            ]
        );
        assert!(find(ALL).is_none(), "`all` is the composite, not a row");
        assert!(find("nope").is_none());
        // `all` runs each paper row (no parameters, no summary file) once,
        // and nothing else — otherwise `repro all` would silently skip a
        // newly added table or clobber a tracked summary file.
        for (i, name) in ALL_RUN_ORDER.iter().enumerate() {
            assert!(find(name).is_some(), "'{name}' is not a row");
            assert!(!ALL_RUN_ORDER[..i].contains(name), "'{name}' runs twice");
        }
        for experiment in EXPERIMENTS {
            let paper = experiment.params.is_empty() && experiment.writes.is_none();
            assert_eq!(
                ALL_RUN_ORDER.contains(&experiment.name),
                paper,
                "'{}' is missing from (or wrongly present in) ALL_RUN_ORDER",
                experiment.name
            );
        }
    }

    #[test]
    fn default_specs_match_the_pre_registry_cli_defaults() {
        let resolved = |name: &str| resolve(RunSpec::defaults(name)).expect("known experiment");
        assert_eq!(resolved("fig8"), RunSpec::defaults("fig8"));
        assert_eq!(resolved(ALL), RunSpec::defaults(ALL));
        let serve = resolved("serve");
        assert_eq!((serve.requests, serve.replicas), (Some(256), None));
        let shard = resolved("shard");
        assert_eq!(shard.requests, Some(256));
        assert_eq!(shard.replicas, Some(vec![1, 2, 4]));
        assert_eq!(resolved("faults").requests, Some(64));
        let obs = resolved("obs");
        assert_eq!((obs.requests, obs.trace), (Some(96), None));
        for name in ["scale", "control"] {
            let spec = resolved(name);
            assert_eq!(spec.requests, Some(20_000));
            assert_eq!(spec.replicas, Some(vec![8, 64]));
            assert_eq!(spec.arrival.as_deref(), Some("all"));
            assert_eq!(resolve(spec.clone()), Ok(spec), "resolution is idempotent");
        }
        assert_eq!(
            resolve(RunSpec::defaults("nope")),
            Err(ExperimentError::UnknownExperiment("nope".to_string()))
        );
        // What a spec sets wins, field by field; the rest is filled in.
        let mut spec = RunSpec::defaults("shard");
        spec.replicas = Some(vec![2]);
        let spec = resolve(spec).expect("valid");
        assert_eq!((spec.requests, spec.replicas), (Some(256), Some(vec![2])));
    }

    #[test]
    fn resolve_refuses_an_arrival_the_experiment_does_not_run() {
        let with_arrival = |name: &str, arrival: &str| {
            let mut spec = RunSpec::defaults(name);
            spec.arrival = Some(arrival.to_string());
            resolve(spec)
        };
        for arrival in scale_exp::ARRIVALS.into_iter().chain(["all"]) {
            assert!(with_arrival("scale", arrival).is_ok(), "scale {arrival}");
        }
        for arrival in control_exp::ARRIVALS.into_iter().chain(["all"]) {
            assert!(
                with_arrival("control", arrival).is_ok(),
                "control {arrival}"
            );
        }
        // The control sweep has no Poisson cells: accepting the value would
        // train SynthNet, run zero cells and report success.
        assert_eq!(
            with_arrival("control", "poisson"),
            Err(ExperimentError::Spec(SpecError::Bad {
                field: "arrival".to_string(),
                reason: "'poisson' is not one of mmpp, diurnal, all".to_string(),
            }))
        );
        assert!(matches!(
            with_arrival("scale", "lunar"),
            Err(ExperimentError::Spec(SpecError::Bad { .. }))
        ));
    }

    #[test]
    fn list_text_covers_every_entry_and_ends_with_all() {
        let text = list_text();
        for experiment in EXPERIMENTS {
            assert!(text.contains(experiment.name));
            assert!(text.contains(experiment.description));
        }
        assert!(text.lines().last().expect("nonempty").starts_with("  all"));
        // Help embeds the same list plus flag documentation and every key.
        let help = help_text();
        assert!(help.contains("--dump-spec"));
        assert!(help.contains(&known_keys()));
        assert!(help.contains("Known experiments:"));
    }

    #[test]
    fn markdown_table_tracks_describe() {
        let table = markdown_table();
        assert!(table.contains("| `serve` | `requests` | `BENCH_serve.json` | no |"));
        assert!(table.contains("| `shard` | `requests`, `replicas` |"));
        assert!(table.contains("| `faults` | `requests` | `BENCH_faults.json` | no |"));
        assert!(table.contains("| `obs` | `requests`, `trace.path` | — | no |"));
        assert!(table
            .contains("| `scale` | `requests`, `replicas`, `arrival` | `BENCH_scale.json` | no |"));
        assert!(table.contains(
            "| `control` | `requests`, `replicas`, `arrival` | `BENCH_control.json` | no |"
        ));
        assert!(table.contains("| `table1` | — | — | yes |"));
    }

    #[test]
    fn run_rejects_unknown_experiments_and_undeclared_params() {
        let mut sink = SummarySink::capture();
        let unknown = RunSpec::defaults("fig99");
        assert!(matches!(
            run(&unknown, &mut sink),
            Err(ExperimentError::UnknownExperiment(_))
        ));
        // `--requests` on a paper experiment is a typed error, not a silent
        // no-op (the pre-registry CLI dropped it on the floor).
        let mut table1 = RunSpec::defaults("table1");
        table1.requests = Some(64);
        assert!(matches!(
            run(&table1, &mut sink),
            Err(ExperimentError::Spec(SpecError::KeyNotAccepted { .. }))
        ));
        // Same for `all`.
        let mut all = RunSpec::defaults(ALL);
        all.replicas = Some(vec![2]);
        assert!(matches!(
            run(&all, &mut sink),
            Err(ExperimentError::Spec(SpecError::KeyNotAccepted { .. }))
        ));
        // And invalid values are rejected before any work happens.
        let mut bad = RunSpec::defaults("table1");
        bad.exec.threads = 0;
        assert!(matches!(
            run(&bad, &mut sink),
            Err(ExperimentError::Spec(SpecError::Bad { .. }))
        ));
        assert_eq!(sink.captured(), Some(""), "nothing ran");
    }

    #[test]
    fn cheap_experiments_run_through_the_registry_into_a_capture_sink() {
        // `obs` asserts its two traced replays export byte-identical traces.
        for (name, header, requests) in [
            ("table1", "## Table I", None),
            ("table2", "## Table II", None),
            ("mlperf", "## §V-B MLPerf", None),
            ("obs", "## obs", Some(24)),
        ] {
            let mut sink = SummarySink::capture();
            let mut spec = RunSpec::defaults(name);
            spec.exec = ExecSettings::sequential();
            spec.requests = requests;
            let report = run(&spec, &mut sink).expect("runs");
            assert_eq!(report.experiment, name);
            assert!(report.cells >= 1);
            assert!(
                report.summaries.is_empty(),
                "capture sinks must not write files"
            );
            let text = sink.captured().expect("capture sink buffers");
            assert!(text.contains(header), "{name} output:\n{text}");
        }
    }

    #[test]
    fn experiment_errors_display() {
        assert!(ExperimentError::UnknownExperiment("x".to_string())
            .to_string()
            .contains("'x'"));
        let io = ExperimentError::Io {
            path: PathBuf::from("BENCH_x.json"),
            message: "disk full".to_string(),
        };
        assert!(io.to_string().contains("BENCH_x.json"));
        assert!(io.to_string().contains("disk full"));
    }
}
