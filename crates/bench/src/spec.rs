//! Declarative run specification for the experiment harness.
//!
//! A [`RunSpec`] is the single value that describes one `repro` run: which
//! experiment, at what scale and seed, on which host-execution settings, and
//! any per-experiment parameters (request-trace length, replica counts). It
//! parses from and renders to JSON through [`crate::json`] — the same
//! hand-rolled writer the benchmark summaries use, since the offline serde
//! shim has no serializer — so a run is reproducible from a committed spec
//! file instead of a growing CLI flag matrix.
//!
//! Round-trip contract: `RunSpec::parse(&spec.render()) == spec`, bit-exact,
//! for every valid spec. Rendering always emits `experiment`, `scale`,
//! `seed`, and `exec`; the optional per-experiment parameters appear iff
//! they are set. All integers must stay within JSON's exactly-representable
//! range (2^53 − 1), which [`RunSpec::validate`] enforces.
//!
//! Validation is split in two:
//!
//! * [`RunSpec::validate`] (the workspace-wide [`Validate`] trait) checks
//!   *values* — a zero thread count, an empty replica list.
//! * [`RunSpec::check_params`] checks the spec *against an experiment's
//!   declared parameters* — setting `requests` on `fig8` is a typed
//!   [`SpecError::KeyNotAccepted`], never a silently dropped flag.

use nbsmt_tensor::exec::GemmBackendKind;
use nbsmt_tensor::validate::Validate;

use crate::json::{Json, JsonError};
use crate::scale::{ExecSettings, Scale};

/// The largest integer JSON (backed by f64) represents exactly: 2^53 − 1.
/// Seeds, request counts, and replica counts beyond it would not round-trip
/// through a spec file, so validation rejects them.
pub const MAX_SPEC_INT: u64 = (1 << 53) - 1;

/// A per-experiment parameter an [`crate::experiments::registry::Experiment`]
/// may declare in its [`crate::experiments::registry::ExperimentInfo`].
///
/// The universal keys (`scale`, `seed`, `threads`, `backend`) are accepted by
/// every experiment and are not listed here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKey {
    /// `requests` — length of the generated arrival trace.
    Requests,
    /// `replicas` — replica counts a sharded sweep runs at.
    Replicas,
    /// `fault_seed` — seed of the generated fault schedule.
    FaultSeed,
    /// `crash_per_mille` — per-mille crash rate of the generated schedule.
    CrashPerMille,
    /// `stall_per_mille` — per-mille stall rate of the generated schedule.
    StallPerMille,
    /// `straggle_per_mille` — per-mille straggle rate of the generated
    /// schedule.
    StragglePerMille,
    /// `hedging` — whether the countermeasure client hedges stragglers.
    Hedging,
    /// `trace.path` — file the exported Chrome-trace JSON is written to.
    Trace,
    /// `arrival` — traffic-model filter for the scale sweep (`poisson`,
    /// `mmpp`, `diurnal`, or `all`).
    Arrival,
    /// `size_alpha_x1024` — bounded-Pareto shape of the request-size model
    /// (x1024 fixed point).
    SizeAlpha,
    /// `size_min_x1024` — smallest request size (x1024; 1024 = 1.0× the
    /// model's per-request MACs).
    SizeMin,
    /// `size_max_x1024` — largest request size (x1024).
    SizeMax,
}

impl ParamKey {
    /// The spec-file / CLI key.
    pub fn name(self) -> &'static str {
        match self {
            ParamKey::Requests => "requests",
            ParamKey::Replicas => "replicas",
            ParamKey::FaultSeed => "fault_seed",
            ParamKey::CrashPerMille => "crash_per_mille",
            ParamKey::StallPerMille => "stall_per_mille",
            ParamKey::StragglePerMille => "straggle_per_mille",
            ParamKey::Hedging => "hedging",
            ParamKey::Trace => "trace.path",
            ParamKey::Arrival => "arrival",
            ParamKey::SizeAlpha => "size_alpha_x1024",
            ParamKey::SizeMin => "size_min_x1024",
            ParamKey::SizeMax => "size_max_x1024",
        }
    }
}

/// One fully-specified experiment run. See the module docs for the JSON
/// round-trip and validation contracts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Experiment id (a registry name, e.g. `fig8`, `serve`, `all`).
    pub experiment: String,
    /// Sample-count scale.
    pub scale: Scale,
    /// Master seed for training, calibration, and load generation.
    pub seed: u64,
    /// Host-execution settings (worker threads + GEMM backend). By the
    /// execution layer's determinism contract these change wall-clock time
    /// only, never the reproduced numbers.
    pub exec: ExecSettings,
    /// Arrival-trace length for the serving sweeps ([`ParamKey::Requests`]).
    pub requests: Option<usize>,
    /// Replica counts for the sharded sweep ([`ParamKey::Replicas`]).
    pub replicas: Option<Vec<usize>>,
    /// Seed of the generated fault schedule ([`ParamKey::FaultSeed`]).
    pub fault_seed: Option<u64>,
    /// Per-mille crash rate of the generated fault schedule
    /// ([`ParamKey::CrashPerMille`], ≤ 1000).
    pub crash_per_mille: Option<u64>,
    /// Per-mille stall rate of the generated fault schedule
    /// ([`ParamKey::StallPerMille`], ≤ 1000).
    pub stall_per_mille: Option<u64>,
    /// Per-mille straggle rate of the generated fault schedule
    /// ([`ParamKey::StragglePerMille`], ≤ 1000).
    pub straggle_per_mille: Option<u64>,
    /// Whether the countermeasure client hedges stragglers
    /// ([`ParamKey::Hedging`]).
    pub hedging: Option<bool>,
    /// File the exported Chrome-trace JSON is written to
    /// ([`ParamKey::Trace`]; rendered as a nested `{"trace": {"path": …}}`
    /// object, mirroring `exec`).
    pub trace: Option<String>,
    /// Traffic-model filter for the scale sweep ([`ParamKey::Arrival`]:
    /// `poisson`, `mmpp`, `diurnal`, or `all`).
    pub arrival: Option<String>,
    /// Bounded-Pareto request-size shape, x1024 ([`ParamKey::SizeAlpha`]).
    pub size_alpha_x1024: Option<u64>,
    /// Smallest request size, x1024 ([`ParamKey::SizeMin`]).
    pub size_min_x1024: Option<u64>,
    /// Largest request size, x1024 ([`ParamKey::SizeMax`]).
    pub size_max_x1024: Option<u64>,
}

impl RunSpec {
    /// The baseline spec every experiment starts from: quick scale, the
    /// repo-wide seed 2024, the default parallel execution settings, no
    /// per-experiment parameters.
    pub fn defaults(experiment: &str) -> RunSpec {
        RunSpec {
            experiment: experiment.to_string(),
            scale: Scale::Quick,
            seed: 2024,
            exec: ExecSettings::parallel(),
            requests: None,
            replicas: None,
            fault_seed: None,
            crash_per_mille: None,
            stall_per_mille: None,
            straggle_per_mille: None,
            hedging: None,
            trace: None,
            arrival: None,
            size_alpha_x1024: None,
            size_min_x1024: None,
            size_max_x1024: None,
        }
    }

    /// Renders the spec as a JSON document (ends with a newline, like every
    /// file [`crate::json`] writes).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// The spec as a [`Json`] value.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("experiment".to_string(), Json::str(&self.experiment)),
            ("scale".to_string(), Json::str(self.scale.name())),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            (
                "exec".to_string(),
                Json::obj([
                    ("threads", Json::Num(self.exec.threads as f64)),
                    ("backend", Json::str(self.exec.backend.name())),
                ]),
            ),
        ];
        if let Some(requests) = self.requests {
            fields.push(("requests".to_string(), Json::Num(requests as f64)));
        }
        if let Some(replicas) = &self.replicas {
            fields.push((
                "replicas".to_string(),
                Json::Arr(replicas.iter().map(|&r| Json::Num(r as f64)).collect()),
            ));
        }
        if let Some(fault_seed) = self.fault_seed {
            fields.push(("fault_seed".to_string(), Json::Num(fault_seed as f64)));
        }
        if let Some(rate) = self.crash_per_mille {
            fields.push(("crash_per_mille".to_string(), Json::Num(rate as f64)));
        }
        if let Some(rate) = self.stall_per_mille {
            fields.push(("stall_per_mille".to_string(), Json::Num(rate as f64)));
        }
        if let Some(rate) = self.straggle_per_mille {
            fields.push(("straggle_per_mille".to_string(), Json::Num(rate as f64)));
        }
        if let Some(hedging) = self.hedging {
            fields.push(("hedging".to_string(), Json::Bool(hedging)));
        }
        if let Some(path) = &self.trace {
            fields.push(("trace".to_string(), Json::obj([("path", Json::str(path))])));
        }
        if let Some(arrival) = &self.arrival {
            fields.push(("arrival".to_string(), Json::str(arrival)));
        }
        if let Some(alpha) = self.size_alpha_x1024 {
            fields.push(("size_alpha_x1024".to_string(), Json::Num(alpha as f64)));
        }
        if let Some(min) = self.size_min_x1024 {
            fields.push(("size_min_x1024".to_string(), Json::Num(min as f64)));
        }
        if let Some(max) = self.size_max_x1024 {
            fields.push(("size_max_x1024".to_string(), Json::Num(max as f64)));
        }
        Json::Obj(fields)
    }

    /// Parses a spec document.
    ///
    /// `experiment` is required; every other field falls back to
    /// [`RunSpec::defaults`] when absent so hand-written files stay short.
    /// Unknown fields — top-level or inside `exec` — are typed errors, not
    /// silently ignored: a misspelled key must never quietly revert a run to
    /// its defaults.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first problem found.
    pub fn parse(text: &str) -> Result<RunSpec, SpecError> {
        Self::parse_onto(text, None)
    }

    /// [`Self::parse`], but absent fields fall back to `defaults` instead of
    /// the global [`RunSpec::defaults`] — the overlay the `repro` driver
    /// uses so a minimal file (`{"experiment": "shard"}`) inherits the
    /// *experiment's* own defaults (e.g. `replicas: [1,2,4]`), field by
    /// field, whether or not the file mentions them.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first problem found.
    pub fn parse_with_defaults(text: &str, defaults: RunSpec) -> Result<RunSpec, SpecError> {
        Self::parse_onto(text, Some(defaults))
    }

    fn parse_onto(text: &str, base: Option<RunSpec>) -> Result<RunSpec, SpecError> {
        let doc = Json::parse(text)?;
        let Json::Obj(fields) = &doc else {
            return Err(SpecError::NotAnObject);
        };
        let experiment = doc
            .get("experiment")
            .ok_or(SpecError::Missing("experiment"))?
            .as_str()
            .ok_or_else(|| SpecError::bad("experiment", "expected a string"))?
            .to_string();
        let mut spec = match base {
            Some(mut base) => {
                base.experiment = experiment;
                base
            }
            None => RunSpec::defaults(&experiment),
        };
        for (key, value) in fields {
            match key.as_str() {
                "experiment" => {}
                "scale" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| SpecError::bad("scale", "expected a string"))?;
                    spec.scale = Scale::parse(name).ok_or_else(|| {
                        SpecError::bad("scale", format!("'{name}' is not one of quick, full"))
                    })?;
                }
                "seed" => spec.seed = parse_int(value, "seed")?,
                "exec" => {
                    let Json::Obj(exec_fields) = value else {
                        return Err(SpecError::bad("exec", "expected an object"));
                    };
                    for (exec_key, exec_value) in exec_fields {
                        match exec_key.as_str() {
                            "threads" => {
                                spec.exec.threads = parse_int(exec_value, "exec.threads")? as usize;
                            }
                            "backend" => {
                                let name = exec_value.as_str().ok_or_else(|| {
                                    SpecError::bad("exec.backend", "expected a string")
                                })?;
                                spec.exec.backend =
                                    GemmBackendKind::parse(name).ok_or_else(|| {
                                        SpecError::bad(
                                            "exec.backend",
                                            format!(
                                                "'{name}' is not one of naive, blocked, parallel, simd, packed"
                                            ),
                                        )
                                    })?;
                            }
                            other => return Err(SpecError::UnknownField(format!("exec.{other}"))),
                        }
                    }
                }
                "requests" => spec.requests = Some(parse_int(value, "requests")? as usize),
                "fault_seed" => spec.fault_seed = Some(parse_int(value, "fault_seed")?),
                "crash_per_mille" => {
                    spec.crash_per_mille = Some(parse_int(value, "crash_per_mille")?);
                }
                "stall_per_mille" => {
                    spec.stall_per_mille = Some(parse_int(value, "stall_per_mille")?);
                }
                "straggle_per_mille" => {
                    spec.straggle_per_mille = Some(parse_int(value, "straggle_per_mille")?);
                }
                "hedging" => {
                    spec.hedging = Some(
                        value
                            .as_bool()
                            .ok_or_else(|| SpecError::bad("hedging", "expected true or false"))?,
                    );
                }
                "trace" => {
                    let Json::Obj(trace_fields) = value else {
                        return Err(SpecError::bad("trace", "expected an object"));
                    };
                    for (trace_key, trace_value) in trace_fields {
                        match trace_key.as_str() {
                            "path" => {
                                let path = trace_value.as_str().ok_or_else(|| {
                                    SpecError::bad("trace.path", "expected a string")
                                })?;
                                spec.trace = Some(path.to_string());
                            }
                            other => return Err(SpecError::UnknownField(format!("trace.{other}"))),
                        }
                    }
                }
                "arrival" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| SpecError::bad("arrival", "expected a string"))?;
                    spec.arrival = Some(name.to_string());
                }
                "size_alpha_x1024" => {
                    spec.size_alpha_x1024 = Some(parse_int(value, "size_alpha_x1024")?);
                }
                "size_min_x1024" => {
                    spec.size_min_x1024 = Some(parse_int(value, "size_min_x1024")?);
                }
                "size_max_x1024" => {
                    spec.size_max_x1024 = Some(parse_int(value, "size_max_x1024")?);
                }
                "replicas" => {
                    let items = value
                        .as_arr()
                        .ok_or_else(|| SpecError::bad("replicas", "expected an array"))?;
                    let replicas = items
                        .iter()
                        .map(|item| parse_int(item, "replicas").map(|n| n as usize))
                        .collect::<Result<Vec<_>, _>>()?;
                    spec.replicas = Some(replicas);
                }
                other => return Err(SpecError::UnknownField(other.to_string())),
            }
        }
        Ok(spec)
    }

    /// Applies one `--set key=value` override (also the target of the legacy
    /// `--threads` / `--backend` / `--requests` / `--replicas` / `--full`
    /// flags, which are shorthands for these keys).
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] for a key that is not a spec field, or a
    /// [`SpecError::Bad`] describing an unparsable value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match key {
            "scale" => {
                self.scale = Scale::parse(value).ok_or_else(|| {
                    SpecError::bad("scale", format!("'{value}' is not one of quick, full"))
                })?;
            }
            "seed" => {
                self.seed = value
                    .parse()
                    .map_err(|_| SpecError::bad("seed", format!("'{value}' is not a seed")))?;
            }
            "threads" => {
                self.exec.threads = value.parse().map_err(|_| {
                    SpecError::bad("threads", format!("'{value}' is not a thread count"))
                })?;
            }
            "backend" => {
                self.exec.backend = GemmBackendKind::parse(value).ok_or_else(|| {
                    SpecError::bad(
                        "backend",
                        format!("'{value}' is not one of naive, blocked, parallel, simd, packed"),
                    )
                })?;
            }
            "requests" => {
                self.requests = Some(value.parse().map_err(|_| {
                    SpecError::bad("requests", format!("'{value}' is not a request count"))
                })?);
            }
            "replicas" => {
                let replicas = value
                    .split(',')
                    .map(|part| {
                        part.trim().parse::<usize>().map_err(|_| {
                            SpecError::bad("replicas", format!("'{part}' is not a replica count"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                self.replicas = Some(replicas);
            }
            "fault_seed" => {
                self.fault_seed = Some(value.parse().map_err(|_| {
                    SpecError::bad("fault_seed", format!("'{value}' is not a seed"))
                })?);
            }
            "crash_per_mille" => {
                self.crash_per_mille = Some(value.parse().map_err(|_| {
                    SpecError::bad("crash_per_mille", format!("'{value}' is not a rate"))
                })?);
            }
            "stall_per_mille" => {
                self.stall_per_mille = Some(value.parse().map_err(|_| {
                    SpecError::bad("stall_per_mille", format!("'{value}' is not a rate"))
                })?);
            }
            "straggle_per_mille" => {
                self.straggle_per_mille = Some(value.parse().map_err(|_| {
                    SpecError::bad("straggle_per_mille", format!("'{value}' is not a rate"))
                })?);
            }
            "hedging" => {
                self.hedging = Some(match value {
                    "true" => true,
                    "false" => false,
                    _ => {
                        return Err(SpecError::bad(
                            "hedging",
                            format!("'{value}' is not true or false"),
                        ))
                    }
                });
            }
            "trace.path" => {
                self.trace = Some(value.to_string());
            }
            "arrival" => {
                self.arrival = Some(value.to_string());
            }
            "size_alpha_x1024" => {
                self.size_alpha_x1024 = Some(value.parse().map_err(|_| {
                    SpecError::bad("size_alpha_x1024", format!("'{value}' is not a shape"))
                })?);
            }
            "size_min_x1024" => {
                self.size_min_x1024 = Some(value.parse().map_err(|_| {
                    SpecError::bad("size_min_x1024", format!("'{value}' is not a size"))
                })?);
            }
            "size_max_x1024" => {
                self.size_max_x1024 = Some(value.parse().map_err(|_| {
                    SpecError::bad("size_max_x1024", format!("'{value}' is not a size"))
                })?);
            }
            other => return Err(SpecError::UnknownKey(other.to_string())),
        }
        Ok(())
    }

    /// The optional per-experiment parameters this spec sets. Used by the
    /// registry to reject keys an experiment does not declare.
    pub fn params_set(&self) -> Vec<ParamKey> {
        let mut keys = Vec::new();
        if self.requests.is_some() {
            keys.push(ParamKey::Requests);
        }
        if self.replicas.is_some() {
            keys.push(ParamKey::Replicas);
        }
        if self.fault_seed.is_some() {
            keys.push(ParamKey::FaultSeed);
        }
        if self.crash_per_mille.is_some() {
            keys.push(ParamKey::CrashPerMille);
        }
        if self.stall_per_mille.is_some() {
            keys.push(ParamKey::StallPerMille);
        }
        if self.straggle_per_mille.is_some() {
            keys.push(ParamKey::StragglePerMille);
        }
        if self.hedging.is_some() {
            keys.push(ParamKey::Hedging);
        }
        if self.trace.is_some() {
            keys.push(ParamKey::Trace);
        }
        if self.arrival.is_some() {
            keys.push(ParamKey::Arrival);
        }
        if self.size_alpha_x1024.is_some() {
            keys.push(ParamKey::SizeAlpha);
        }
        if self.size_min_x1024.is_some() {
            keys.push(ParamKey::SizeMin);
        }
        if self.size_max_x1024.is_some() {
            keys.push(ParamKey::SizeMax);
        }
        keys
    }

    /// Checks this spec against an experiment's declared parameter keys:
    /// every optional parameter the spec sets must be accepted.
    ///
    /// # Errors
    ///
    /// [`SpecError::KeyNotAccepted`] naming the first undeclared key.
    pub fn check_params(&self, accepted: &[ParamKey]) -> Result<(), SpecError> {
        for key in self.params_set() {
            if !accepted.contains(&key) {
                return Err(SpecError::KeyNotAccepted {
                    experiment: self.experiment.clone(),
                    key: key.name(),
                });
            }
        }
        Ok(())
    }
}

fn parse_int(value: &Json, field: &str) -> Result<u64, SpecError> {
    value
        .as_u64()
        .ok_or_else(|| SpecError::bad(field, "expected a non-negative integer ≤ 2^53−1"))
}

impl Validate for RunSpec {
    type Error = SpecError;

    fn validate(&self) -> Result<(), SpecError> {
        if self.experiment.is_empty() {
            return Err(SpecError::Missing("experiment"));
        }
        if self.seed > MAX_SPEC_INT {
            return Err(SpecError::bad(
                "seed",
                "must be ≤ 2^53−1 to round-trip through a spec file",
            ));
        }
        if self.exec.threads == 0 {
            return Err(SpecError::bad("threads", "must be at least 1"));
        }
        if self.exec.threads as u64 > MAX_SPEC_INT {
            return Err(SpecError::bad("threads", "must be ≤ 2^53−1"));
        }
        if let Some(requests) = self.requests {
            if requests == 0 {
                return Err(SpecError::bad("requests", "must be at least 1"));
            }
            if requests as u64 > MAX_SPEC_INT {
                return Err(SpecError::bad("requests", "must be ≤ 2^53−1"));
            }
        }
        if let Some(replicas) = &self.replicas {
            if replicas.is_empty() {
                return Err(SpecError::bad("replicas", "needs at least one count"));
            }
            if let Some(&bad) = replicas.iter().find(|&&r| r == 0) {
                return Err(SpecError::bad(
                    "replicas",
                    format!("{bad} is not a replica count (must be at least 1)"),
                ));
            }
            if replicas.iter().any(|&r| r as u64 > MAX_SPEC_INT) {
                return Err(SpecError::bad("replicas", "counts must be ≤ 2^53−1"));
            }
        }
        if self.fault_seed.is_some_and(|seed| seed > MAX_SPEC_INT) {
            return Err(SpecError::bad(
                "fault_seed",
                "must be ≤ 2^53−1 to round-trip through a spec file",
            ));
        }
        // The same bound the serving layer's FaultConfig validation
        // enforces — reject at the spec boundary too, with the field named.
        for (field, rate) in [
            ("crash_per_mille", self.crash_per_mille),
            ("stall_per_mille", self.stall_per_mille),
            ("straggle_per_mille", self.straggle_per_mille),
        ] {
            if rate.is_some_and(|rate| rate > 1000) {
                return Err(SpecError::bad(
                    field,
                    "per-mille rates must be at most 1000",
                ));
            }
        }
        if self.trace.as_deref() == Some("") {
            return Err(SpecError::bad("trace.path", "must not be empty"));
        }
        if let Some(arrival) = self.arrival.as_deref() {
            if !matches!(arrival, "poisson" | "mmpp" | "diurnal" | "all") {
                return Err(SpecError::bad(
                    "arrival",
                    format!("'{arrival}' is not one of poisson, mmpp, diurnal, all"),
                ));
            }
        }
        for (field, value) in [
            ("size_alpha_x1024", self.size_alpha_x1024),
            ("size_min_x1024", self.size_min_x1024),
            ("size_max_x1024", self.size_max_x1024),
        ] {
            if value == Some(0) {
                return Err(SpecError::bad(field, "must be at least 1"));
            }
            if value.is_some_and(|v| v > MAX_SPEC_INT) {
                return Err(SpecError::bad(field, "must be ≤ 2^53−1"));
            }
        }
        if let (Some(min), Some(max)) = (self.size_min_x1024, self.size_max_x1024) {
            if max < min {
                return Err(SpecError::bad(
                    "size_max_x1024",
                    format!("{max} is below size_min_x1024 ({min})"),
                ));
            }
        }
        Ok(())
    }
}

/// Why a run spec could not be parsed, applied, or validated.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not syntactically valid JSON.
    Json(JsonError),
    /// The document's top level is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    Missing(&'static str),
    /// A field holds an unusable value.
    Bad {
        /// The offending field (dotted path for nested fields).
        field: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The document contains a field that is not part of the spec schema.
    UnknownField(String),
    /// A `--set` key that is not a spec field.
    UnknownKey(String),
    /// The spec sets a parameter the target experiment does not declare
    /// (e.g. `requests` on `fig8`).
    KeyNotAccepted {
        /// The experiment the spec addresses.
        experiment: String,
        /// The undeclared parameter key.
        key: &'static str,
    },
    /// The spec file names one experiment but another was requested on the
    /// command line.
    ExperimentMismatch {
        /// The experiment named in the spec file.
        spec: String,
        /// The experiment requested positionally.
        requested: String,
    },
}

impl SpecError {
    fn bad(field: impl Into<String>, reason: impl Into<String>) -> SpecError {
        SpecError::Bad {
            field: field.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "spec is not valid JSON: {e}"),
            SpecError::NotAnObject => write!(f, "spec must be a JSON object"),
            SpecError::Missing(field) => write!(f, "spec is missing the '{field}' field"),
            SpecError::Bad { field, reason } => write!(f, "spec field '{field}': {reason}"),
            SpecError::UnknownField(field) => {
                write!(f, "spec contains an unknown field '{field}'")
            }
            SpecError::UnknownKey(key) => {
                write!(
                    f,
                    "unknown spec key '{key}' (known keys: scale, seed, threads, backend, \
                     requests, replicas, fault_seed, crash_per_mille, stall_per_mille, \
                     straggle_per_mille, hedging, trace.path, arrival, size_alpha_x1024, \
                     size_min_x1024, size_max_x1024)"
                )
            }
            SpecError::KeyNotAccepted { experiment, key } => write!(
                f,
                "experiment '{experiment}' does not accept the '{key}' parameter"
            ),
            SpecError::ExperimentMismatch { spec, requested } => write!(
                f,
                "spec file is for experiment '{spec}' but '{requested}' was requested"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_render_and_round_trip() {
        let spec = RunSpec::defaults("fig8");
        let text = spec.render();
        assert!(text.contains("\"experiment\": \"fig8\""));
        assert!(text.contains("\"scale\": \"quick\""));
        assert!(!text.contains("requests"), "unset params are omitted");
        let back = RunSpec::parse(&text).expect("rendered spec parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn optional_params_round_trip_when_set() {
        let mut spec = RunSpec::defaults("shard");
        spec.requests = Some(64);
        spec.replicas = Some(vec![1, 2, 4]);
        spec.exec = ExecSettings::sequential();
        let back = RunSpec::parse(&spec.render()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(
            back.params_set(),
            vec![ParamKey::Requests, ParamKey::Replicas]
        );
    }

    #[test]
    fn short_files_fall_back_to_defaults() {
        let spec = RunSpec::parse(r#"{"experiment": "table3"}"#).expect("parses");
        assert_eq!(spec.scale, Scale::Quick);
        assert_eq!(spec.seed, 2024);
        assert_eq!(spec.requests, None);
        // experiment is the one required field.
        assert_eq!(
            RunSpec::parse(r#"{"scale": "full"}"#),
            Err(SpecError::Missing("experiment"))
        );
    }

    #[test]
    fn parse_with_defaults_inherits_unmentioned_fields() {
        let mut defaults = RunSpec::defaults("shard");
        defaults.scale = Scale::Full;
        defaults.requests = Some(256);
        defaults.replicas = Some(vec![1, 2, 4]);
        let spec =
            RunSpec::parse_with_defaults(r#"{"experiment": "shard", "requests": 64}"#, defaults)
                .expect("parses");
        // Fields the file sets win; everything else comes from the given
        // defaults, not the global ones.
        assert_eq!(spec.requests, Some(64));
        assert_eq!(spec.replicas, Some(vec![1, 2, 4]));
        assert_eq!(spec.scale, Scale::Full);
        assert_eq!(spec.experiment, "shard");
    }

    #[test]
    fn unknown_fields_are_typed_errors() {
        assert_eq!(
            RunSpec::parse(r#"{"experiment": "fig8", "requsts": 64}"#),
            Err(SpecError::UnknownField("requsts".to_string()))
        );
        assert_eq!(
            RunSpec::parse(r#"{"experiment": "fig8", "exec": {"treads": 1}}"#),
            Err(SpecError::UnknownField("exec.treads".to_string()))
        );
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "fig8", "scale": "medium"}"#),
            Err(SpecError::Bad { .. })
        ));
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "fig8", "seed": -3}"#),
            Err(SpecError::Bad { .. })
        ));
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "fig8", "seed": 2.5}"#),
            Err(SpecError::Bad { .. })
        ));
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "serve", "requests": [1]}"#),
            Err(SpecError::Bad { .. })
        ));
        assert!(matches!(
            RunSpec::parse("not json"),
            Err(SpecError::Json(_))
        ));
        assert_eq!(RunSpec::parse("[1, 2]"), Err(SpecError::NotAnObject));
    }

    #[test]
    fn set_applies_overrides_and_rejects_unknown_keys() {
        let mut spec = RunSpec::defaults("serve");
        spec.set("scale", "full").unwrap();
        spec.set("seed", "7").unwrap();
        spec.set("threads", "2").unwrap();
        spec.set("backend", "blocked").unwrap();
        spec.set("requests", "128").unwrap();
        spec.set("replicas", "1, 2,4").unwrap();
        assert_eq!(spec.scale, Scale::Full);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.exec.threads, 2);
        assert_eq!(spec.exec.backend, GemmBackendKind::Blocked);
        assert_eq!(spec.requests, Some(128));
        assert_eq!(spec.replicas, Some(vec![1, 2, 4]));
        assert_eq!(
            spec.set("reqests", "1"),
            Err(SpecError::UnknownKey("reqests".to_string()))
        );
        assert!(matches!(
            spec.set("requests", "many"),
            Err(SpecError::Bad { .. })
        ));
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut spec = RunSpec::defaults("serve");
        assert_eq!(spec.validate(), Ok(()));
        spec.exec.threads = 0;
        assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
        let mut spec = RunSpec::defaults("serve");
        spec.requests = Some(0);
        assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
        let mut spec = RunSpec::defaults("shard");
        spec.replicas = Some(vec![]);
        assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
        let mut spec = RunSpec::defaults("shard");
        spec.replicas = Some(vec![2, 0]);
        assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
        let mut spec = RunSpec::defaults("fig8");
        spec.seed = MAX_SPEC_INT + 1;
        assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
    }

    #[test]
    fn check_params_rejects_undeclared_keys() {
        let mut spec = RunSpec::defaults("fig8");
        assert_eq!(spec.check_params(&[]), Ok(()));
        spec.requests = Some(64);
        assert_eq!(
            spec.check_params(&[]),
            Err(SpecError::KeyNotAccepted {
                experiment: "fig8".to_string(),
                key: "requests",
            })
        );
        assert_eq!(spec.check_params(&[ParamKey::Requests]), Ok(()));
    }

    #[test]
    fn fault_params_round_trip_and_validate() {
        let mut spec = RunSpec::defaults("faults");
        spec.fault_seed = Some(7);
        spec.crash_per_mille = Some(40);
        spec.stall_per_mille = Some(80);
        spec.straggle_per_mille = Some(120);
        spec.hedging = Some(true);
        assert_eq!(spec.validate(), Ok(()));
        let back = RunSpec::parse(&spec.render()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(
            back.params_set(),
            vec![
                ParamKey::FaultSeed,
                ParamKey::CrashPerMille,
                ParamKey::StallPerMille,
                ParamKey::StragglePerMille,
                ParamKey::Hedging,
            ]
        );
        // --set accepts the same keys…
        let mut from_set = RunSpec::defaults("faults");
        from_set.set("fault_seed", "7").unwrap();
        from_set.set("crash_per_mille", "40").unwrap();
        from_set.set("stall_per_mille", "80").unwrap();
        from_set.set("straggle_per_mille", "120").unwrap();
        from_set.set("hedging", "true").unwrap();
        assert_eq!(from_set, spec);
        // …and rejects malformed values with typed errors.
        assert!(matches!(
            from_set.set("hedging", "yes"),
            Err(SpecError::Bad { .. })
        ));
        assert!(matches!(
            from_set.set("crash_per_mille", "often"),
            Err(SpecError::Bad { .. })
        ));
        // Out-of-range rates are rejected at validation, mirroring the
        // serving layer's FaultConfig bound.
        let mut bad = RunSpec::defaults("faults");
        bad.stall_per_mille = Some(1001);
        assert!(matches!(bad.validate(), Err(SpecError::Bad { .. })));
        // A non-boolean hedging value in a file is a typed parse error.
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "faults", "hedging": 1}"#),
            Err(SpecError::Bad { .. })
        ));
    }

    #[test]
    fn trace_param_round_trips_and_validates() {
        let mut spec = RunSpec::defaults("obs");
        spec.trace = Some("out/trace.json".to_string());
        assert_eq!(spec.validate(), Ok(()));
        // Renders as a nested object, mirroring exec.
        let text = spec.render();
        assert!(text.contains("\"trace\""));
        assert!(text.contains("\"path\": \"out/trace.json\""));
        let back = RunSpec::parse(&text).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.params_set(), vec![ParamKey::Trace]);
        // --set reaches the same field through the dotted key.
        let mut from_set = RunSpec::defaults("obs");
        from_set.set("trace.path", "out/trace.json").unwrap();
        assert_eq!(from_set, spec);
        // Unknown nested fields and non-string paths are typed errors.
        assert_eq!(
            RunSpec::parse(r#"{"experiment": "obs", "trace": {"pth": "x"}}"#),
            Err(SpecError::UnknownField("trace.pth".to_string()))
        );
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "obs", "trace": {"path": 3}}"#),
            Err(SpecError::Bad { .. })
        ));
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "obs", "trace": "x"}"#),
            Err(SpecError::Bad { .. })
        ));
        // An empty path is rejected at validation.
        let mut bad = RunSpec::defaults("obs");
        bad.trace = Some(String::new());
        assert!(matches!(bad.validate(), Err(SpecError::Bad { .. })));
    }

    #[test]
    fn traffic_params_round_trip_and_validate() {
        let mut spec = RunSpec::defaults("scale");
        spec.arrival = Some("mmpp".to_string());
        spec.size_alpha_x1024 = Some(1536);
        spec.size_min_x1024 = Some(1024);
        spec.size_max_x1024 = Some(8192);
        assert_eq!(spec.validate(), Ok(()));
        // Bit-exact render→parse round trip (everything is a string or an
        // integer ≤ 2^53−1, so the JSON f64 path is lossless).
        let back = RunSpec::parse(&spec.render()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.render(), spec.render());
        assert_eq!(
            back.params_set(),
            vec![
                ParamKey::Arrival,
                ParamKey::SizeAlpha,
                ParamKey::SizeMin,
                ParamKey::SizeMax,
            ]
        );
        // --set reaches the same fields…
        let mut from_set = RunSpec::defaults("scale");
        from_set.set("arrival", "mmpp").unwrap();
        from_set.set("size_alpha_x1024", "1536").unwrap();
        from_set.set("size_min_x1024", "1024").unwrap();
        from_set.set("size_max_x1024", "8192").unwrap();
        assert_eq!(from_set, spec);
        // …and malformed values are typed errors.
        assert!(matches!(
            from_set.set("size_alpha_x1024", "steep"),
            Err(SpecError::Bad { .. })
        ));
        // Validation rejects unknown traffic models, zero sizes, and an
        // inverted size range.
        let mut bad = RunSpec::defaults("scale");
        bad.arrival = Some("lunar".to_string());
        assert!(matches!(bad.validate(), Err(SpecError::Bad { .. })));
        let mut bad = RunSpec::defaults("scale");
        bad.size_min_x1024 = Some(0);
        assert!(matches!(bad.validate(), Err(SpecError::Bad { .. })));
        let mut bad = RunSpec::defaults("scale");
        bad.size_min_x1024 = Some(4096);
        bad.size_max_x1024 = Some(1024);
        assert!(matches!(bad.validate(), Err(SpecError::Bad { .. })));
        // A non-string arrival in a file is a typed parse error.
        assert!(matches!(
            RunSpec::parse(r#"{"experiment": "scale", "arrival": 3}"#),
            Err(SpecError::Bad { .. })
        ));
    }

    #[test]
    fn spec_errors_display_usefully() {
        assert!(SpecError::Missing("experiment")
            .to_string()
            .contains("experiment"));
        assert!(SpecError::UnknownKey("x".into())
            .to_string()
            .contains("'x'"));
        assert!(SpecError::KeyNotAccepted {
            experiment: "fig8".into(),
            key: "requests"
        }
        .to_string()
        .contains("fig8"));
        assert!(SpecError::ExperimentMismatch {
            spec: "serve".into(),
            requested: "fig8".into()
        }
        .to_string()
        .contains("serve"));
    }
}
