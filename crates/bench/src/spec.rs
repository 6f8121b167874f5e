//! Declarative run specification for the experiment harness.
//!
//! A [`RunSpec`] is the single value that describes one `repro` run: which
//! experiment, at what scale and seed, on which host-execution settings, and
//! the per-experiment parameters it sets ([`ParamKey`]: request-trace length,
//! replica counts, traffic model, trace file). It parses from and renders to
//! JSON through [`crate::json`] — the same hand-rolled writer the benchmark
//! summaries use, since the offline serde shim has no serializer — so a run
//! is reproducible from a committed spec file instead of a growing CLI flag
//! matrix.
//!
//! Round-trip contract: `RunSpec::parse(&spec.render()) == spec`, bit-exact,
//! for every valid spec. Rendering always emits `experiment`, `scale`,
//! `seed`, and `exec`; the optional per-experiment parameters appear iff
//! they are set. All integers must stay within JSON's exactly-representable
//! range (2^53 − 1), which [`RunSpec::validate`] enforces.
//!
//! Checking is split in two:
//!
//! * [`RunSpec::validate`] (the workspace-wide [`Validate`] trait) checks
//!   *values* — a zero thread count, an empty replica list.
//! * [`crate::experiments::registry::resolve`] checks the spec *against its
//!   experiment's row of the registry table* — setting `requests` on `fig8`
//!   is a typed [`SpecError::KeyNotAccepted`], never a silently dropped
//!   flag, and an `arrival` the experiment does not run is a typed
//!   [`SpecError::Bad`] — and fills every declared parameter the spec leaves
//!   unset with the table's default.

use nbsmt_tensor::exec::GemmBackendKind;
use nbsmt_tensor::validate::Validate;

use crate::json::{Json, JsonError};
use crate::scale::{ExecSettings, Scale};

/// The largest integer JSON (backed by f64) represents exactly: 2^53 − 1.
/// Seeds, request counts, and replica counts beyond it would not round-trip
/// through a spec file, so validation rejects them.
pub const MAX_SPEC_INT: u64 = (1 << 53) - 1;

/// A per-experiment parameter key. Each experiment's row of
/// [`crate::experiments::registry::EXPERIMENTS`] declares the keys it
/// accepts.
///
/// The universal keys (`scale`, `seed`, `threads`, `backend`) are accepted by
/// every experiment and are not listed here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKey {
    /// `requests` — length of the generated arrival trace.
    Requests,
    /// `replicas` — replica counts a sharded sweep runs at.
    Replicas,
    /// `arrival` — the traffic model a regime sweep runs: one of the models
    /// its registry row lists, or `all`.
    Arrival,
    /// `trace.path` — file the exported Chrome-trace JSON is written to.
    Trace,
}

impl ParamKey {
    /// Every per-experiment key, in the order a spec renders them.
    pub const ALL: [ParamKey; 4] = [
        ParamKey::Requests,
        ParamKey::Replicas,
        ParamKey::Arrival,
        ParamKey::Trace,
    ];

    /// The spec-file / CLI key.
    pub fn name(self) -> &'static str {
        match self {
            ParamKey::Requests => "requests",
            ParamKey::Replicas => "replicas",
            ParamKey::Arrival => "arrival",
            ParamKey::Trace => "trace.path",
        }
    }
}

/// Every key [`RunSpec::set`] accepts, comma-separated: the universal keys,
/// then each [`ParamKey`]. `--help` and [`SpecError::UnknownKey`] print it.
pub fn known_keys() -> String {
    ["scale", "seed", "threads", "backend"]
        .into_iter()
        .chain(ParamKey::ALL.map(ParamKey::name))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every [`GemmBackendKind`] name, comma-separated. `--help` and the
/// bad-backend [`SpecError`] print it.
pub(crate) fn backend_names() -> String {
    GemmBackendKind::ALL.map(|kind| kind.name()).join(", ")
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
    /// Replica counts for the sharded sweeps ([`ParamKey::Replicas`]).
    pub replicas: Option<Vec<usize>>,
    /// Traffic model of the regime sweeps ([`ParamKey::Arrival`]).
    pub arrival: Option<String>,
    /// File the exported Chrome-trace JSON is written to
    /// ([`ParamKey::Trace`]; rendered as a nested `{"trace": {"path": …}}`
    /// object, mirroring `exec`).
    pub trace: Option<String>,
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
            arrival: None,
            trace: None,
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
        if let Some(arrival) = &self.arrival {
            fields.push(("arrival".to_string(), Json::str(arrival)));
        }
        if let Some(path) = &self.trace {
            fields.push(("trace".to_string(), Json::obj([("path", Json::str(path))])));
        }
        Json::Obj(fields)
    }

    /// Parses a spec document.
    ///
    /// `experiment` is required; every other field falls back to
    /// [`RunSpec::defaults`] when absent so hand-written files stay short,
    /// and the registry fills the experiment's own parameter defaults.
    /// Unknown fields — top-level or inside `exec` or `trace` — are typed
    /// errors, not silently ignored: a misspelled key must never quietly
    /// revert a run to its defaults. So is a key given twice in one object,
    /// which would otherwise silently keep the last value.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first problem found.
    pub fn parse(text: &str) -> Result<RunSpec, SpecError> {
        let doc = Json::parse(text)?;
        let Json::Obj(fields) = &doc else {
            return Err(SpecError::NotAnObject);
        };
        refuse_repeats(fields, "")?;
        let experiment = doc
            .get("experiment")
            .ok_or(SpecError::Missing("experiment"))?
            .as_str()
            .ok_or_else(|| SpecError::bad("experiment", "expected a string"))?;
        let mut spec = RunSpec::defaults(experiment);
        for (key, value) in fields {
            match key.as_str() {
                "experiment" => {}
                "scale" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| SpecError::bad("scale", "expected a string"))?;
                    spec.scale = scale_named(name)?;
                }
                "seed" => spec.seed = parse_int(value, "seed")?,
                "exec" => {
                    for (exec_key, exec_value) in nested(value, "exec")? {
                        match exec_key.as_str() {
                            "threads" => {
                                spec.exec.threads = parse_int(exec_value, "exec.threads")? as usize;
                            }
                            "backend" => {
                                let name = exec_value.as_str().ok_or_else(|| {
                                    SpecError::bad("exec.backend", "expected a string")
                                })?;
                                spec.exec.backend = backend_named("exec.backend", name)?;
                            }
                            other => return Err(SpecError::UnknownField(format!("exec.{other}"))),
                        }
                    }
                }
                "requests" => spec.requests = Some(parse_int(value, "requests")? as usize),
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
                "arrival" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| SpecError::bad("arrival", "expected a string"))?;
                    spec.arrival = Some(name.to_string());
                }
                "trace" => {
                    for (trace_key, trace_value) in nested(value, "trace")? {
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
                other => return Err(SpecError::UnknownField(other.to_string())),
            }
        }
        Ok(spec)
    }

    /// Applies one `--set key=value` override (also the target of the
    /// `--threads` / `--backend` / `--requests` / `--replicas` / `--full`
    /// flags, which are shorthands for these keys). The keys are
    /// [`known_keys`].
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] for a key that is not a spec field, or a
    /// [`SpecError::Bad`] describing an unparsable value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        match key {
            "scale" => self.scale = scale_named(value)?,
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
            "backend" => self.exec.backend = backend_named("backend", value)?,
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
            "arrival" => self.arrival = Some(value.to_string()),
            "trace.path" => self.trace = Some(value.to_string()),
            other => return Err(SpecError::UnknownKey(other.to_string())),
        }
        Ok(())
    }

    /// The per-experiment parameters this spec sets, in [`ParamKey::ALL`]
    /// order. Used by the registry to reject keys an experiment does not
    /// declare.
    pub fn params_set(&self) -> Vec<ParamKey> {
        ParamKey::ALL
            .into_iter()
            .filter(|key| match key {
                ParamKey::Requests => self.requests.is_some(),
                ParamKey::Replicas => self.replicas.is_some(),
                ParamKey::Arrival => self.arrival.is_some(),
                ParamKey::Trace => self.trace.is_some(),
            })
            .collect()
    }

    /// Checks this spec against an experiment's declared parameter keys:
    /// every parameter the spec sets must be accepted.
    ///
    /// # Errors
    ///
    /// [`SpecError::KeyNotAccepted`] naming the first undeclared key.
    pub fn check_params(&self, accepted: &[ParamKey]) -> Result<(), SpecError> {
        match self
            .params_set()
            .into_iter()
            .find(|key| !accepted.contains(key))
        {
            Some(key) => Err(SpecError::KeyNotAccepted {
                experiment: self.experiment.clone(),
                key: key.name(),
            }),
            None => Ok(()),
        }
    }
}

fn parse_int(value: &Json, field: &str) -> Result<u64, SpecError> {
    value
        .as_u64()
        .ok_or_else(|| SpecError::bad(field, "expected a non-negative integer ≤ 2^53−1"))
}

fn scale_named(name: &str) -> Result<Scale, SpecError> {
    Scale::parse(name)
        .ok_or_else(|| SpecError::bad("scale", format!("'{name}' is not one of quick, full")))
}

fn backend_named(field: &str, name: &str) -> Result<GemmBackendKind, SpecError> {
    GemmBackendKind::parse(name)
        .ok_or_else(|| SpecError::bad(field, format!("'{name}' is not one of {}", backend_names())))
}

/// The fields of the object-valued key `field` (`exec`, `trace`).
fn nested<'a>(value: &'a Json, field: &str) -> Result<&'a [(String, Json)], SpecError> {
    let Json::Obj(fields) = value else {
        return Err(SpecError::bad(field, "expected an object"));
    };
    refuse_repeats(fields, &format!("{field}."))?;
    Ok(fields)
}

/// Refuses a key given twice in one object, naming it (dotted, after
/// `prefix`): the JSON layer keeps every pair, and applying them in order
/// would silently keep the last value.
fn refuse_repeats(fields: &[(String, Json)], prefix: &str) -> Result<(), SpecError> {
    for (i, (key, _)) in fields.iter().enumerate() {
        if fields[..i].iter().any(|(seen, _)| seen == key) {
            return Err(SpecError::RepeatedField(format!("{prefix}{key}")));
        }
    }
    Ok(())
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
        if self.trace.as_deref() == Some("") {
            return Err(SpecError::bad("trace.path", "must not be empty"));
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
    /// The document gives one field twice in the same object (dotted path
    /// for nested fields).
    RepeatedField(String),
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
    pub(crate) fn bad(field: impl Into<String>, reason: impl Into<String>) -> SpecError {
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
            SpecError::RepeatedField(field) => {
                write!(f, "spec gives the field '{field}' more than once")
            }
            SpecError::UnknownKey(key) => {
                write!(f, "unknown spec key '{key}' (known keys: {})", known_keys())
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
    fn repeated_fields_are_typed_errors() {
        // Applying fields in order would keep the last value (128) and run.
        assert_eq!(
            RunSpec::parse(r#"{"experiment": "serve", "requests": 64, "requests": 128}"#),
            Err(SpecError::RepeatedField("requests".to_string()))
        );
        assert_eq!(
            RunSpec::parse(r#"{"experiment": "serve", "experiment": "fig8"}"#),
            Err(SpecError::RepeatedField("experiment".to_string()))
        );
        assert_eq!(
            RunSpec::parse(
                r#"{"experiment": "fig8", "exec": {"threads": 1, "backend": "naive", "threads": 2}}"#
            ),
            Err(SpecError::RepeatedField("exec.threads".to_string()))
        );
        assert_eq!(
            RunSpec::parse(
                r#"{"experiment": "obs", "trace": {"path": "a.json", "path": "b.json"}}"#
            ),
            Err(SpecError::RepeatedField("trace.path".to_string()))
        );
        assert!(SpecError::RepeatedField("exec.threads".to_string())
            .to_string()
            .contains("'exec.threads'"));
    }

    /// The fault-schedule and request-size knobs are constants of their
    /// sweeps: neither a spec file nor `--set` can name them.
    #[test]
    fn removed_keys_are_unknown() {
        for key in [
            "fault_seed",
            "crash_per_mille",
            "stall_per_mille",
            "straggle_per_mille",
            "hedging",
            "size_alpha_x1024",
            "size_min_x1024",
            "size_max_x1024",
        ] {
            let file = format!(r#"{{"experiment": "faults", "{key}": 7}}"#);
            assert_eq!(
                RunSpec::parse(&file),
                Err(SpecError::UnknownField(key.to_string()))
            );
            assert_eq!(
                RunSpec::defaults("scale").set(key, "7"),
                Err(SpecError::UnknownKey(key.to_string()))
            );
        }
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
        // A bad backend names every backend there is.
        let err = RunSpec::parse(r#"{"experiment": "fig8", "exec": {"backend": "avx512"}}"#)
            .expect_err("unknown backend");
        assert!(matches!(err, SpecError::Bad { .. }));
        let text = err.to_string();
        for kind in GemmBackendKind::ALL {
            assert!(text.contains(kind.name()), "{text}");
        }
    }

    #[test]
    fn set_applies_overrides_and_rejects_unknown_keys() {
        let mut spec = RunSpec::defaults("serve");
        let overrides = [
            ("scale", "full"),
            ("seed", "7"),
            ("threads", "2"),
            ("backend", "blocked"),
            ("requests", "128"),
            ("replicas", "1, 2,4"),
            ("arrival", "mmpp"),
            ("trace.path", "t.json"),
        ];
        for (key, value) in overrides {
            spec.set(key, value).unwrap();
        }
        // Exactly these eight keys are settable, and they are the keys the
        // help and error text list.
        let keys: Vec<&str> = overrides.iter().map(|&(key, _)| key).collect();
        assert_eq!(keys.join(", "), known_keys());
        assert_eq!(spec.scale, Scale::Full);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.exec.threads, 2);
        assert_eq!(spec.exec.backend, GemmBackendKind::Blocked);
        assert_eq!(spec.requests, Some(128));
        assert_eq!(spec.replicas, Some(vec![1, 2, 4]));
        assert_eq!(spec.arrival.as_deref(), Some("mmpp"));
        assert_eq!(spec.trace.as_deref(), Some("t.json"));
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

    /// `arrival` round-trips like every other key; which values an
    /// experiment runs is its registry row's to say (see the registry's
    /// `resolve_refuses_an_arrival_the_experiment_does_not_run`).
    #[test]
    fn traffic_params_round_trip_and_validate() {
        let mut spec = RunSpec::defaults("scale");
        spec.arrival = Some("mmpp".to_string());
        assert_eq!(spec.validate(), Ok(()));
        // Bit-exact render→parse round trip.
        let back = RunSpec::parse(&spec.render()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.render(), spec.render());
        assert_eq!(back.params_set(), vec![ParamKey::Arrival]);
        // --set reaches the same field.
        let mut from_set = RunSpec::defaults("scale");
        from_set.set("arrival", "mmpp").unwrap();
        assert_eq!(from_set, spec);
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
        let unknown = SpecError::UnknownKey("x".into()).to_string();
        assert!(unknown.contains("'x'"));
        assert!(unknown.contains(&known_keys()));
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
