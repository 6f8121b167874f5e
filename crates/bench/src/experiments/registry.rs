//! The experiment registry: every paper table, figure, and serving sweep as
//! a first-class [`Experiment`] behind one trait.
//!
//! Each experiment declares its `name()`, an [`ExperimentInfo`] (description,
//! accepted [`ParamKey`]s, which summary file it writes, whether `all`
//! includes it), a [`Experiment::default_spec`], and a
//! [`Experiment::run`] that renders its table into a [`SummarySink`] and
//! returns a [`RunReport`]. The `repro` binary is a thin driver over
//! [`ExperimentRegistry`]: `--list` / `--help` text, defaults, and the
//! `all` composite are all generated from the registry, so adding a sweep is
//! one `impl Experiment` plus one `register` line — no new CLI wiring.
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
use crate::experiments::control_exp::{control_sweep_with, ControlKnobs};
use crate::experiments::faults_exp::{faults_sweep_with, FaultKnobs};
use crate::experiments::hw_exp::table2_rows;
use crate::experiments::obs_exp::ObsBench;
use crate::experiments::scale_exp::{scale_sweep_with, ScaleKnobs, ANCHOR_REQUESTS};
use crate::experiments::serve_exp::{serve_sweep_with, shard_sweep_with, ShardRow};
use crate::experiments::zoo_exp::{
    energy_savings_with, fig1_utilization, fig8_mse_vs_sparsity_with, fig9_utilization_gain_with,
    table1_inventory,
};
use crate::spec::{ParamKey, RunSpec, SpecError};
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

impl RunReport {
    fn new(experiment: &str) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            ..RunReport::default()
        }
    }

    /// The report of an experiment whose cells are `records`: when the sink
    /// persists, writes them into the file the experiment declares in
    /// [`ExperimentInfo::writes`], merging by record name.
    fn recorded<R: Record>(
        experiment: &dyn Experiment,
        sink: &mut SummarySink,
        records: Vec<R>,
    ) -> Result<RunReport, ExperimentError> {
        let mut report = RunReport::new(experiment.name());
        report.cells = records.len();
        if sink.persists() {
            let file = experiment.describe().writes;
            let path = Path::new(file.expect("a recording experiment declares its file"));
            Summary { records }
                .write(path)
                .map_err(|e| ExperimentError::io(path, &e))?;
            out!(sink, "\nwrote {} (merged by record name)\n", path.display());
            report.summaries.push(path.to_path_buf());
        }
        Ok(report)
    }
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

/// Static description of one experiment, rendered into `--list`, `--help`,
/// and the ARCHITECTURE.md experiment-harness table.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentInfo {
    /// One-line description (the `--list` text).
    pub description: &'static str,
    /// Per-experiment [`ParamKey`]s this experiment accepts beyond the
    /// universal `scale` / `seed` / `threads` / `backend`. A spec that sets
    /// any other parameter is rejected with a typed error.
    pub params: &'static [ParamKey],
    /// The tracked summary file the experiment writes, if any.
    pub writes: Option<&'static str>,
    /// Whether `repro -- all` includes this experiment.
    pub in_all: bool,
}

/// One reproducible experiment: a paper table/figure or a serving sweep.
pub trait Experiment {
    /// The registry id (`fig8`, `serve`, …).
    fn name(&self) -> &'static str;

    /// Static description: `--list` text, accepted parameters, summary file.
    fn describe(&self) -> ExperimentInfo;

    /// The spec a bare `repro -- <name>` runs: [`RunSpec::defaults`] plus
    /// the experiment's own parameter defaults.
    fn default_spec(&self) -> RunSpec {
        RunSpec::defaults(self.name())
    }

    /// Runs the experiment, rendering its table into `sink`.
    ///
    /// Callers should go through [`ExperimentRegistry::run`], which
    /// validates the spec and checks its parameters against
    /// [`Self::describe`] first.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] on an unusable spec or a failed summary write.
    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError>;
}

/// The name of the composite experiment that runs every paper table and
/// figure (but never the explicit-only experiments).
pub const ALL: &str = "all";

const ALL_DESCRIPTION: &str =
    "every paper table and figure above (not the explicit-only experiments)";

/// The order `all` executes in: the cheap zoo/hardware experiments first,
/// then the five accuracy experiments, which share one trained SynthNet via
/// [`AccuracyBench::shared`] — the same order the pre-registry driver used,
/// so `repro -- all` output is unchanged.
const ALL_RUN_ORDER: &[&str] = &[
    "table1", "fig1", "table2", "fig8", "fig9", "energy", "mlperf", "fig7", "table3", "table4",
    "table5", "fig10",
];

/// The experiment registry: name → [`Experiment`] in presentation order.
pub struct ExperimentRegistry {
    entries: Vec<Box<dyn Experiment>>,
}

impl ExperimentRegistry {
    /// An empty registry.
    pub fn new() -> ExperimentRegistry {
        ExperimentRegistry {
            entries: Vec::new(),
        }
    }

    /// The standard registry: every experiment in the repository, in the
    /// paper's presentation order.
    pub fn standard() -> ExperimentRegistry {
        let mut registry = ExperimentRegistry::new();
        registry.register(Box::new(Table1));
        registry.register(Box::new(Fig1));
        registry.register(Box::new(Table2));
        registry.register(Box::new(Fig7));
        registry.register(Box::new(Table3));
        registry.register(Box::new(Table4));
        registry.register(Box::new(Fig8));
        registry.register(Box::new(Fig9));
        registry.register(Box::new(Table5));
        registry.register(Box::new(Fig10));
        registry.register(Box::new(Energy));
        registry.register(Box::new(Mlperf));
        registry.register(Box::new(Serve));
        registry.register(Box::new(Shard));
        registry.register(Box::new(Faults));
        registry.register(Box::new(Obs));
        registry.register(Box::new(ScaleExp));
        registry.register(Box::new(Control));
        registry
    }

    /// Adds an experiment at the end of the presentation order.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered or collides with `all`.
    pub fn register(&mut self, experiment: Box<dyn Experiment>) {
        let name = experiment.name();
        assert!(
            name != ALL && self.get(name).is_none(),
            "experiment '{name}' is already registered"
        );
        self.entries.push(experiment);
    }

    /// Looks up an experiment (the composite `all` is not an entry; use
    /// [`Self::contains`] / [`Self::run`] for it).
    pub fn get(&self, name: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.name() == name)
            .map(Box::as_ref)
    }

    /// Whether `name` is runnable — a registered experiment or `all`.
    pub fn contains(&self, name: &str) -> bool {
        name == ALL || self.get(name).is_some()
    }

    /// The registered experiments in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.entries.iter().map(Box::as_ref)
    }

    /// The default spec a bare `repro -- <name>` runs (including `all`).
    pub fn default_spec(&self, name: &str) -> Option<RunSpec> {
        if name == ALL {
            return Some(RunSpec::defaults(ALL));
        }
        self.get(name).map(Experiment::default_spec)
    }

    /// The parameter keys `name` accepts (`all` accepts only the universal
    /// keys).
    pub fn accepted_params(&self, name: &str) -> Option<&'static [ParamKey]> {
        if name == ALL {
            return Some(&[]);
        }
        self.get(name).map(|e| e.describe().params)
    }

    /// The `--list` body: one `name description` line per experiment plus
    /// the `all` composite, exactly as the binary prints it.
    pub fn list_text(&self) -> String {
        let mut text = String::from("Known experiments:\n");
        for experiment in self.iter() {
            let _ = writeln!(
                text,
                "  {:<10} {}",
                experiment.name(),
                experiment.describe().description
            );
        }
        let _ = writeln!(text, "  {ALL:<10} {ALL_DESCRIPTION}");
        text
    }

    /// The generated `--help` text: usage, flags, and the experiment list.
    pub fn help_text(&self) -> String {
        let mut text = String::from(
            "repro — regenerates every table and figure of the NB-SMT paper.\n\
             \n\
             Usage:\n\
             \x20 repro [<experiment>] [flags]           run an experiment (default: all)\n\
             \x20 repro --spec <path> [flags]            run the experiment a spec file describes\n\
             \n\
             Flags:\n\
             \x20 --spec <path>        load a RunSpec JSON file (see examples/specs/)\n\
             \x20 --set <key>=<value>  override one spec key: scale, seed, threads, backend,\n\
             \x20                      requests, replicas, fault_seed, crash_per_mille,\n\
             \x20                      stall_per_mille, straggle_per_mille, hedging, trace.path,\n\
             \x20                      arrival, size_alpha_x1024, size_min_x1024, size_max_x1024\n\
             \x20                      (repeatable, applied in order)\n\
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
        );
        text.push_str(&self.list_text());
        text
    }

    /// The experiment-harness table for ARCHITECTURE.md, generated from
    /// [`Experiment::describe`] so the docs cannot drift from the registry.
    pub fn markdown_table(&self) -> String {
        let mut text = String::from(
            "| Experiment | Extra params | Writes | In `all` | Description |\n\
             |---|---|---|---|---|\n",
        );
        for experiment in self.iter() {
            let info = experiment.describe();
            let params = if info.params.is_empty() {
                "—".to_string()
            } else {
                info.params
                    .iter()
                    .map(|p| format!("`{}`", p.name()))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                text,
                "| `{}` | {} | {} | {} | {} |",
                experiment.name(),
                params,
                info.writes.map_or("—".to_string(), |w| format!("`{w}`")),
                if info.in_all { "yes" } else { "no" },
                info.description
            );
        }
        text
    }

    /// The full spec check every entry point applies: value validation,
    /// experiment lookup, and declared-parameter acceptance. [`Self::run`]
    /// calls this before running; the `repro` driver calls it before
    /// `--dump-spec` — one implementation, so the two can never drift.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] on an unknown experiment or an invalid /
    /// not-accepted spec.
    pub fn check(&self, spec: &RunSpec) -> Result<(), ExperimentError> {
        spec.validate()?;
        let accepted = self
            .accepted_params(&spec.experiment)
            .ok_or_else(|| ExperimentError::UnknownExperiment(spec.experiment.clone()))?;
        spec.check_params(accepted)?;
        Ok(())
    }

    /// Validates `spec` (values and experiment-declared parameters) and runs
    /// the experiment it names — including the `all` composite, which runs
    /// every `in_all` experiment in the canonical order with the spec's
    /// scale/seed/exec applied over each experiment's own defaults.
    ///
    /// # Errors
    ///
    /// [`ExperimentError`] on an unknown experiment, an invalid or
    /// not-accepted spec, or a failed summary write.
    pub fn run(
        &self,
        spec: &RunSpec,
        sink: &mut SummarySink,
    ) -> Result<RunReport, ExperimentError> {
        self.check(spec)?;
        if spec.experiment != ALL {
            let experiment = self.get(&spec.experiment).expect("checked above");
            return experiment.run(spec, sink);
        }
        let mut report = RunReport::new(ALL);
        for name in ALL_RUN_ORDER {
            let experiment = self
                .get(name)
                .unwrap_or_else(|| panic!("'{name}' from the all-order is registered"));
            debug_assert!(experiment.describe().in_all);
            let mut child = experiment.default_spec();
            child.scale = spec.scale;
            child.seed = spec.seed;
            child.exec = spec.exec;
            let sub = experiment.run(&child, sink)?;
            report.cells += sub.cells;
            report.summaries.extend(sub.summaries);
        }
        Ok(report)
    }
}

impl Default for ExperimentRegistry {
    fn default() -> Self {
        ExperimentRegistry::standard()
    }
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

struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Table I — evaluated CNN models and their MAC counts",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, _spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Fig1;

impl Experiment for Fig1 {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Fig. 1 — MAC utilization breakdown during CNN inference",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Table2;

impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Table II — design parameters, power, and area",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, _spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Fig7;

impl Experiment for Fig7 {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Fig. 7 — whole-model robustness to precision reduction",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Table3;

impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Table III — 2T SySMT sharing policies",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Table4;

impl Experiment for Table4 {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Table IV — 2T SySMT vs post-training quantization",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Fig8;

impl Experiment for Fig8 {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Fig. 8 — per-layer MSE vs activation sparsity",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let points = fig8_mse_vs_sparsity_with(spec.scale, &spec.exec.context());
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
        let mut report = RunReport::new(self.name());
        report.cells = points.len();
        Ok(report)
    }
}

struct Fig9;

impl Experiment for Fig9 {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Fig. 9 — utilization improvement vs sparsity",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let points = fig9_utilization_gain_with(spec.scale, &spec.exec.context());
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
        let mut report = RunReport::new(self.name());
        report.cells = points.len();
        Ok(report)
    }
}

struct Table5;

impl Experiment for Table5 {
    fn name(&self) -> &'static str {
        "table5"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Table V — 4T SySMT with high-MSE layers slowed to 2T",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Fig10;

impl Experiment for Fig10 {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "Fig. 10 — accuracy vs 4T speedup for pruned models",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = points.len();
        Ok(report)
    }
}

struct Energy;

impl Experiment for Energy {
    fn name(&self) -> &'static str {
        "energy"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "§V-A — energy savings of SySMT over the baseline array",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let rows = energy_savings_with(spec.scale, &spec.exec.context());
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
        let mut report = RunReport::new(self.name());
        report.cells = rows.len();
        Ok(report)
    }
}

struct Mlperf;

impl Experiment for Mlperf {
    fn name(&self) -> &'static str {
        "mlperf"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description: "§V-B — MobileNet-v1 MLPerf-style operating point",
            params: &[],
            writes: None,
            in_all: true,
        }
    }

    fn run(&self, _spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
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
        let mut report = RunReport::new(self.name());
        report.cells = 1;
        Ok(report)
    }
}

struct Serve;

impl Experiment for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description:
                "serving sweep: offered load × NB-SMT config → BENCH_serve.json (explicit only)",
            params: &[ParamKey::Requests],
            writes: Some("BENCH_serve.json"),
            in_all: false,
        }
    }

    fn default_spec(&self) -> RunSpec {
        let mut spec = RunSpec::defaults(self.name());
        spec.requests = Some(256);
        spec
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
        let requests = spec
            .requests
            .or(self.default_spec().requests)
            .expect("default_spec sets requests");
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
        RunReport::recorded(self, sink, rows)
    }
}

struct Shard;

impl Experiment for Shard {
    fn name(&self) -> &'static str {
        "shard"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description:
                "sharded serving sweep: replicas × route × {dense,adaptive} → BENCH_serve.json (explicit only)",
            params: &[ParamKey::Requests, ParamKey::Replicas],
            writes: Some("BENCH_serve.json"),
            in_all: false,
        }
    }

    fn default_spec(&self) -> RunSpec {
        let mut spec = RunSpec::defaults(self.name());
        spec.requests = Some(256);
        spec.replicas = Some(vec![1, 2, 4]);
        spec
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
        let defaults = self.default_spec();
        let requests = spec
            .requests
            .or(defaults.requests)
            .expect("default_spec sets requests");
        let replicas = &spec
            .replicas
            .clone()
            .or(defaults.replicas)
            .expect("default_spec sets replicas");
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
        RunReport::recorded(self, sink, records)
    }
}

struct Faults;

impl Experiment for Faults {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description:
                "availability under injected failures: chaos corpus × countermeasures → BENCH_faults.json (explicit only)",
            params: &[
                ParamKey::Requests,
                ParamKey::FaultSeed,
                ParamKey::CrashPerMille,
                ParamKey::StallPerMille,
                ParamKey::StragglePerMille,
                ParamKey::Hedging,
            ],
            writes: Some("BENCH_faults.json"),
            in_all: false,
        }
    }

    fn default_spec(&self) -> RunSpec {
        let mut spec = RunSpec::defaults(self.name());
        spec.requests = Some(64);
        spec.fault_seed = Some(7);
        spec.crash_per_mille = Some(30);
        spec.stall_per_mille = Some(60);
        spec.straggle_per_mille = Some(90);
        spec.hedging = Some(true);
        spec
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
        let defaults = self.default_spec();
        let requests = spec
            .requests
            .or(defaults.requests)
            .expect("default_spec sets requests");
        let knobs = FaultKnobs {
            fault_seed: spec
                .fault_seed
                .or(defaults.fault_seed)
                .expect("default_spec sets fault_seed"),
            crash_per_mille: spec
                .crash_per_mille
                .or(defaults.crash_per_mille)
                .expect("default_spec sets crash_per_mille"),
            stall_per_mille: spec
                .stall_per_mille
                .or(defaults.stall_per_mille)
                .expect("default_spec sets stall_per_mille"),
            straggle_per_mille: spec
                .straggle_per_mille
                .or(defaults.straggle_per_mille)
                .expect("default_spec sets straggle_per_mille"),
            hedging: spec
                .hedging
                .or(defaults.hedging)
                .expect("default_spec sets hedging"),
        };
        out!(
            sink,
            "## faults — availability under injected failures ({requests} requests/cell, 2 replicas)\n"
        );
        out!(
            sink,
            "Training SynthNet and compiling the dense/2T/4T ladder…\n"
        );
        let rows = faults_sweep_with(spec.scale, &spec.exec, requests, spec.seed, knobs);
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
        RunReport::recorded(self, sink, rows)
    }
}

struct Obs;

impl Experiment for Obs {
    fn name(&self) -> &'static str {
        "obs"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description:
                "trace export check: a seeded pool run, replayed twice, must export byte-identical Chrome traces (explicit only)",
            params: &[ParamKey::Requests, ParamKey::Trace],
            writes: None,
            in_all: false,
        }
    }

    fn default_spec(&self) -> RunSpec {
        let mut spec = RunSpec::defaults(self.name());
        spec.requests = Some(96);
        spec
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
        let defaults = self.default_spec();
        let requests = spec
            .requests
            .or(defaults.requests)
            .expect("default_spec sets requests");
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
        let mut report = RunReport::new(self.name());
        report.cells = 1;
        Ok(report)
    }
}

struct ScaleExp;

impl Experiment for ScaleExp {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description:
                "scale-regime sweep: traffic model × policy × replicas, stats-only at 10^6 requests → BENCH_scale.json (explicit only)",
            params: &[
                ParamKey::Requests,
                ParamKey::Replicas,
                ParamKey::Arrival,
                ParamKey::SizeAlpha,
                ParamKey::SizeMin,
                ParamKey::SizeMax,
            ],
            writes: Some("BENCH_scale.json"),
            in_all: false,
        }
    }

    fn default_spec(&self) -> RunSpec {
        let mut spec = RunSpec::defaults(self.name());
        spec.requests = Some(20_000);
        spec.replicas = Some(vec![8, 64]);
        spec.arrival = Some("all".to_string());
        spec.size_alpha_x1024 = Some(1536);
        spec.size_min_x1024 = Some(1024);
        spec.size_max_x1024 = Some(8192);
        spec
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
        let defaults = self.default_spec();
        let requests = spec
            .requests
            .or(defaults.requests)
            .expect("default_spec sets requests");
        let replicas = &spec
            .replicas
            .clone()
            .or(defaults.replicas)
            .expect("default_spec sets replicas");
        let knobs = ScaleKnobs {
            arrival: spec
                .arrival
                .clone()
                .or(defaults.arrival)
                .expect("default_spec sets arrival"),
            size_alpha_x1024: spec
                .size_alpha_x1024
                .or(defaults.size_alpha_x1024)
                .expect("default_spec sets size_alpha_x1024"),
            size_min_x1024: spec
                .size_min_x1024
                .or(defaults.size_min_x1024)
                .expect("default_spec sets size_min_x1024"),
            size_max_x1024: spec
                .size_max_x1024
                .or(defaults.size_max_x1024)
                .expect("default_spec sets size_max_x1024"),
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
        RunReport::recorded(self, sink, rows)
    }
}

struct Control;

impl Experiment for Control {
    fn name(&self) -> &'static str {
        "control"
    }

    fn describe(&self) -> ExperimentInfo {
        ExperimentInfo {
            description:
                "pool-controller sweep: {reactive, predictive, +autoscale, +steal} × traffic → BENCH_control.json (explicit only)",
            params: &[ParamKey::Requests, ParamKey::Replicas, ParamKey::Arrival],
            writes: Some("BENCH_control.json"),
            in_all: false,
        }
    }

    fn default_spec(&self) -> RunSpec {
        let mut spec = RunSpec::defaults(self.name());
        spec.requests = Some(20_000);
        spec.replicas = Some(vec![8, 64]);
        spec.arrival = Some("all".to_string());
        spec
    }

    fn run(&self, spec: &RunSpec, sink: &mut SummarySink) -> Result<RunReport, ExperimentError> {
        let defaults = self.default_spec();
        let requests = spec
            .requests
            .or(defaults.requests)
            .expect("default_spec sets requests");
        let replicas = &spec
            .replicas
            .clone()
            .or(defaults.replicas)
            .expect("default_spec sets replicas");
        let knobs = ControlKnobs {
            arrival: spec
                .arrival
                .clone()
                .or(defaults.arrival)
                .expect("default_spec sets arrival"),
        };
        out!(
            sink,
            "## control — controller variants × traffic model ({requests} requests/cell, replicas {replicas:?}, arrival {})\n",
            knobs.arrival
        );
        out!(
            sink,
            "Training SynthNet and compiling the dense/2T/4T ladder…\n"
        );
        let rows = control_sweep_with(spec.scale, requests, replicas, spec.seed, &knobs);
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
        RunReport::recorded(self, sink, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExecSettings;

    #[test]
    fn standard_registry_contains_every_experiment_once() {
        let registry = ExperimentRegistry::standard();
        let names: Vec<&str> = registry.iter().map(Experiment::name).collect();
        assert_eq!(
            names,
            vec![
                "table1", "fig1", "table2", "fig7", "table3", "table4", "fig8", "fig9", "table5",
                "fig10", "energy", "mlperf", "serve", "shard", "faults", "obs", "scale", "control",
            ]
        );
        assert!(registry.contains(ALL));
        assert!(!registry.contains("nope"));
        // The all-order and describe().in_all must agree in BOTH directions:
        // every ordered name is registered and in_all, and every in_all
        // experiment appears in the order — otherwise `repro all` would
        // silently skip a newly registered experiment.
        for name in ALL_RUN_ORDER {
            assert!(registry.get(name).expect("registered").describe().in_all);
        }
        for experiment in registry.iter() {
            assert_eq!(
                experiment.describe().in_all,
                ALL_RUN_ORDER.contains(&experiment.name()),
                "'{}' is missing from (or wrongly present in) ALL_RUN_ORDER",
                experiment.name()
            );
        }
        for name in ["serve", "shard", "faults", "obs", "scale", "control"] {
            assert!(!registry.get(name).expect("registered").describe().in_all);
        }
    }

    #[test]
    fn default_specs_match_the_pre_registry_cli_defaults() {
        let registry = ExperimentRegistry::standard();
        let fig8 = registry.default_spec("fig8").expect("registered");
        assert_eq!(fig8.scale, crate::Scale::Quick);
        assert_eq!(fig8.seed, 2024);
        assert_eq!(fig8.requests, None);
        let serve = registry.default_spec("serve").expect("registered");
        assert_eq!(serve.requests, Some(256));
        assert_eq!(serve.replicas, None);
        let shard = registry.default_spec("shard").expect("registered");
        assert_eq!(shard.requests, Some(256));
        assert_eq!(shard.replicas, Some(vec![1, 2, 4]));
        let faults = registry.default_spec("faults").expect("registered");
        assert_eq!(faults.requests, Some(64));
        assert_eq!(faults.fault_seed, Some(7));
        assert_eq!(faults.crash_per_mille, Some(30));
        assert_eq!(faults.hedging, Some(true));
        let obs = registry.default_spec("obs").expect("registered");
        assert_eq!(obs.requests, Some(96));
        assert_eq!(obs.trace, None);
        let scale = registry.default_spec("scale").expect("registered");
        assert_eq!(scale.requests, Some(20_000));
        assert_eq!(scale.replicas, Some(vec![8, 64]));
        assert_eq!(scale.arrival.as_deref(), Some("all"));
        assert_eq!(scale.size_alpha_x1024, Some(1536));
        assert_eq!(scale.size_min_x1024, Some(1024));
        assert_eq!(scale.size_max_x1024, Some(8192));
        let control = registry.default_spec("control").expect("registered");
        assert_eq!(control.requests, Some(20_000));
        assert_eq!(control.replicas, Some(vec![8, 64]));
        assert_eq!(control.arrival.as_deref(), Some("all"));
        assert_eq!(control.size_alpha_x1024, None);
        assert_eq!(
            registry.default_spec(ALL).expect("composite").experiment,
            ALL
        );
        assert_eq!(registry.default_spec("nope"), None);
    }

    #[test]
    fn list_text_covers_every_entry_and_ends_with_all() {
        let registry = ExperimentRegistry::standard();
        let text = registry.list_text();
        for experiment in registry.iter() {
            assert!(text.contains(experiment.name()));
            assert!(text.contains(experiment.describe().description));
        }
        assert!(text.lines().last().expect("nonempty").starts_with("  all"));
        // Help embeds the same list plus flag documentation.
        let help = registry.help_text();
        assert!(help.contains("--dump-spec"));
        assert!(help.contains("Known experiments:"));
    }

    #[test]
    fn markdown_table_tracks_describe() {
        let registry = ExperimentRegistry::standard();
        let table = registry.markdown_table();
        assert!(table.contains("| `serve` | `requests` | `BENCH_serve.json` | no |"));
        assert!(table.contains("| `shard` | `requests`, `replicas` |"));
        assert!(table.contains(
            "| `faults` | `requests`, `fault_seed`, `crash_per_mille`, `stall_per_mille`, \
             `straggle_per_mille`, `hedging` | `BENCH_faults.json` | no |"
        ));
        assert!(table.contains("| `obs` | `requests`, `trace.path` | — | no |"));
        assert!(table.contains(
            "| `scale` | `requests`, `replicas`, `arrival`, `size_alpha_x1024`, \
             `size_min_x1024`, `size_max_x1024` | `BENCH_scale.json` | no |"
        ));
        assert!(table.contains(
            "| `control` | `requests`, `replicas`, `arrival` | `BENCH_control.json` | no |"
        ));
        assert!(table.contains("| `table1` | — | — | yes |"));
    }

    #[test]
    fn run_rejects_unknown_experiments_and_undeclared_params() {
        let registry = ExperimentRegistry::standard();
        let mut sink = SummarySink::capture();
        let unknown = RunSpec::defaults("fig99");
        assert!(matches!(
            registry.run(&unknown, &mut sink),
            Err(ExperimentError::UnknownExperiment(_))
        ));
        // `--requests` on a paper experiment is a typed error, not a silent
        // no-op (the pre-registry CLI dropped it on the floor).
        let mut fig8 = RunSpec::defaults("table1");
        fig8.requests = Some(64);
        assert!(matches!(
            registry.run(&fig8, &mut sink),
            Err(ExperimentError::Spec(SpecError::KeyNotAccepted { .. }))
        ));
        // Same for `all`.
        let mut all = RunSpec::defaults(ALL);
        all.replicas = Some(vec![2]);
        assert!(matches!(
            registry.run(&all, &mut sink),
            Err(ExperimentError::Spec(SpecError::KeyNotAccepted { .. }))
        ));
        // And invalid values are rejected before any work happens.
        let mut bad = RunSpec::defaults("table1");
        bad.exec.threads = 0;
        assert!(matches!(
            registry.run(&bad, &mut sink),
            Err(ExperimentError::Spec(SpecError::Bad { .. }))
        ));
    }

    #[test]
    fn cheap_experiments_run_through_the_registry_into_a_capture_sink() {
        let registry = ExperimentRegistry::standard();
        // `obs` asserts its two traced replays export byte-identical traces.
        for (name, header, requests) in [
            ("table1", "## Table I", None),
            ("table2", "## Table II", None),
            ("mlperf", "## §V-B MLPerf", None),
            ("obs", "## obs", Some(24)),
        ] {
            let mut sink = SummarySink::capture();
            let mut spec = registry.default_spec(name).expect("registered");
            spec.exec = ExecSettings::sequential();
            spec.requests = requests;
            let report = registry.run(&spec, &mut sink).expect("runs");
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
