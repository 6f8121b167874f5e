//! Machine-readable benchmark record files.
//!
//! Four `BENCH_*.json` files track the repository's evidence commit over
//! commit. Each is one [`Summary`] of one [`Record`] type:
//!
//! | File | Record | Written by |
//! |---|---|---|
//! | `BENCH_serve.json` | [`ServeRecord`] | `repro serve` and `repro shard`: serving cells |
//! | `BENCH_scale.json` | [`ServeRecord`] | `repro scale`: the scale-regime curves |
//! | `BENCH_faults.json` | [`FaultRecord`] | `repro faults`: availability under failure |
//! | `BENCH_control.json` | [`ControlRecord`] | `repro control`: pool-controller cells |
//!
//! All JSON goes through [`crate::json`]. [`Summary::write`] **merges by
//! record name** into an existing file instead of overwriting it, so
//! re-running one experiment never discards another experiment's records.
//! A record renders its floats at the precision the file keeps, so
//! parse → render of a written file gives back the same bytes.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::json::Json;

/// One row of a `BENCH_*.json` file.
pub trait Record: Clone {
    /// The key of the document's record array (`records` or `runs`).
    const KEY: &'static str;

    /// The merge key: a written record replaces the file's record of the
    /// same name.
    fn name(&self) -> &str;

    /// The record as one JSON object, fields in file order, floats rounded
    /// to the precision the file keeps.
    fn to_json(&self) -> Json;

    /// Reads a record back; `None` when a required field is missing or has
    /// the wrong type (a count must be an integer, see [`Json::as_u64`]).
    fn from_json(value: &Json) -> Option<Self>;
}

/// A `BENCH_*.json` document: records of one type, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary<R> {
    /// The records, in file order.
    pub records: Vec<R>,
}

impl<R: Record> Summary<R> {
    /// Renders the document, one record per line.
    pub fn to_json(&self) -> String {
        Json::obj([(
            R::KEY,
            Json::Arr(self.records.iter().map(R::to_json).collect()),
        )])
        .render()
    }

    /// Parses a document previously written by [`Self::write`]. Returns
    /// `None` when the document *or any single record* fails to convert —
    /// a partially-understood file must take the merging write's `.bak`
    /// path rather than silently losing the records we couldn't read.
    pub fn parse(text: &str) -> Option<Summary<R>> {
        let doc = Json::parse(text).ok()?;
        let records = doc
            .get(R::KEY)?
            .as_arr()?
            .iter()
            .map(R::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(Summary { records })
    }

    /// Writes the summary to `path`, **merging** into an existing file:
    /// records already present keep their position and are replaced when a
    /// new record shares their name; new names append. An existing file
    /// that fails to parse is preserved next to the new one as
    /// `<path>.bak` rather than silently discarded.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut merged = read_existing::<R>(path)?.map_or_else(Vec::new, |s| s.records);
        for record in &self.records {
            match merged.iter().position(|r| r.name() == record.name()) {
                Some(i) => merged[i] = record.clone(),
                None => merged.push(record.clone()),
            }
        }
        std::fs::write(path, Summary { records: merged }.to_json())
    }
}

/// Reads and parses an existing summary file. A present-but-unparsable file
/// is moved aside to `<path>.bak` (returning `None`) so the caller's fresh
/// write never destroys the only copy of unknown content.
fn read_existing<R: Record>(path: &Path) -> std::io::Result<Option<Summary<R>>> {
    match std::fs::read_to_string(path) {
        Ok(text) => match Summary::parse(&text) {
            Some(parsed) => Ok(Some(parsed)),
            None => {
                // Pick the first free backup name (`.bak`, `.bak1`, …) so a
                // repeated corrupt-file event never overwrites an earlier
                // backup.
                let mut n = 0u32;
                let backup = loop {
                    let suffix = if n == 0 {
                        ".bak".to_string()
                    } else {
                        format!(".bak{n}")
                    };
                    let mut candidate = path.as_os_str().to_owned();
                    candidate.push(&suffix);
                    let candidate = std::path::PathBuf::from(candidate);
                    if !candidate.exists() {
                        break candidate;
                    }
                    n += 1;
                };
                std::fs::rename(path, &backup)?;
                Ok(None)
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Rounds to the three decimals the serving, fault and control files keep.
fn r3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

/// One serving cell (`BENCH_serve.json`, `BENCH_scale.json`): a (session
/// configuration or mode policy, arrival process, replicas, offered load)
/// cell of the `serve`, `shard` or `scale` sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRecord {
    /// Record id, e.g. `serve_synthnet_2t_open_x2.0_n256`.
    pub name: String,
    /// NB-SMT design point (`dense`, `2t`, `4t`) for `serve`; the mode
    /// policy (`dense` pinned or `adaptive`) for `shard` and `scale`.
    pub smt: String,
    /// Arrival process (`open_poisson`, `closed_loop`, or a traffic model:
    /// `poisson`, `mmpp`, `diurnal`).
    pub arrival: String,
    /// Offered load: for open loop, the multiplier of the (aggregate,
    /// size-adjusted for `scale`) dense service rate; for closed loop, the
    /// client count.
    pub offered: f64,
    /// Requests issued.
    pub requests: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Completed requests per second over the run.
    pub throughput_rps: f64,
    /// Median latency in ms.
    pub p50_ms: f64,
    /// 95th-percentile latency in ms.
    pub p95_ms: f64,
    /// 99th-percentile latency in ms.
    pub p99_ms: f64,
    /// Mean launched batch size.
    pub mean_batch: f64,
    /// Deepest per-replica queue observed.
    pub max_queue_depth: u64,
    /// Replica count the cell ran with (1 for the unsharded sweep).
    pub replicas: u64,
    /// Route policy label (`rr`, `lo`, `hash`; `-` for the unsharded sweep).
    pub route: String,
    /// Adaptive mode switches over the run (0 for fixed design points).
    pub mode_transitions: u64,
}

impl Record for ServeRecord {
    const KEY: &'static str = "runs";

    fn name(&self) -> &str {
        &self.name
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("smt", Json::str(&self.smt)),
            ("arrival", Json::str(&self.arrival)),
            ("offered", Json::Num(r3(self.offered))),
            ("requests", Json::Num(self.requests as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("throughput_rps", Json::Num(r3(self.throughput_rps))),
            ("p50_ms", Json::Num(r3(self.p50_ms))),
            ("p95_ms", Json::Num(r3(self.p95_ms))),
            ("p99_ms", Json::Num(r3(self.p99_ms))),
            ("mean_batch", Json::Num(r3(self.mean_batch))),
            ("max_queue_depth", Json::Num(self.max_queue_depth as f64)),
            ("replicas", Json::Num(self.replicas as f64)),
            ("route", Json::str(&self.route)),
            ("mode_transitions", Json::Num(self.mode_transitions as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<ServeRecord> {
        Some(ServeRecord {
            name: value.get("name")?.as_str()?.to_string(),
            smt: value.get("smt")?.as_str()?.to_string(),
            arrival: value.get("arrival")?.as_str()?.to_string(),
            offered: value.get("offered")?.as_f64()?,
            requests: value.get("requests")?.as_u64()?,
            completed: value.get("completed")?.as_u64()?,
            rejected: value.get("rejected")?.as_u64()?,
            throughput_rps: value.get("throughput_rps")?.as_f64()?,
            p50_ms: value.get("p50_ms")?.as_f64()?,
            p95_ms: value.get("p95_ms")?.as_f64()?,
            p99_ms: value.get("p99_ms")?.as_f64()?,
            mean_batch: value.get("mean_batch")?.as_f64()?,
            max_queue_depth: value.get("max_queue_depth")?.as_u64()?,
            // Sharding fields postdate the original schema: records written
            // before the shard sweep existed parse with the unsharded
            // defaults instead of failing the whole document to `.bak`.
            replicas: value.get("replicas").and_then(Json::as_u64).unwrap_or(1),
            route: value
                .get("route")
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_string(),
            mode_transitions: value
                .get("mode_transitions")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        })
    }
}

/// One availability-under-failure entry (`BENCH_faults.json`): a (fault
/// schedule, execution mode, design-point policy, countermeasure) cell of
/// the `repro faults` experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Record id, e.g. `faults_crash-during-drain_live_adaptive_retry+hedge_n64`.
    pub name: String,
    /// Fault schedule: a chaos-corpus name or `gen-x<intensity>`.
    pub schedule: String,
    /// `sim` (virtual clock, bit-reproducible) or `live` (threaded pool,
    /// wall clock).
    pub mode: String,
    /// Design-point selection (`pinned` dense rung 0, or `adaptive`).
    pub policy: String,
    /// Client countermeasures (`none`, `retry`, `retry+hedge`; `-` for sim
    /// rows, which have no client loop).
    pub cm: String,
    /// Requests issued.
    pub requests: u64,
    /// Requests that received a response.
    pub completed: u64,
    /// Requests lost: shed by admission control, cancelled by a crash, or
    /// abandoned by the client after its retry budget.
    pub failed: u64,
    /// completed / requests.
    pub availability: f64,
    /// 95th-percentile latency in ms (virtual for sim, wall for live).
    pub p95_ms: f64,
    /// 99th-percentile latency in ms.
    pub p99_ms: f64,
    /// Injected replica crashes.
    pub crashes: u64,
    /// Requests handed off from crashed replicas to survivors.
    pub handoffs: u64,
    /// Client re-submissions (live rows).
    pub retries: u64,
    /// Hedge duplicates submitted (live rows).
    pub hedges: u64,
    /// Calls won by the hedge leg (live rows).
    pub hedge_wins: u64,
}

impl Record for FaultRecord {
    const KEY: &'static str = "runs";

    fn name(&self) -> &str {
        &self.name
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("schedule", Json::str(&self.schedule)),
            ("mode", Json::str(&self.mode)),
            ("policy", Json::str(&self.policy)),
            ("cm", Json::str(&self.cm)),
            ("requests", Json::Num(self.requests as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("availability", Json::Num(r3(self.availability))),
            ("p95_ms", Json::Num(r3(self.p95_ms))),
            ("p99_ms", Json::Num(r3(self.p99_ms))),
            ("crashes", Json::Num(self.crashes as f64)),
            ("handoffs", Json::Num(self.handoffs as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("hedges", Json::Num(self.hedges as f64)),
            ("hedge_wins", Json::Num(self.hedge_wins as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<FaultRecord> {
        Some(FaultRecord {
            name: value.get("name")?.as_str()?.to_string(),
            schedule: value.get("schedule")?.as_str()?.to_string(),
            mode: value.get("mode")?.as_str()?.to_string(),
            policy: value.get("policy")?.as_str()?.to_string(),
            cm: value.get("cm")?.as_str()?.to_string(),
            requests: value.get("requests")?.as_u64()?,
            completed: value.get("completed")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
            availability: value.get("availability")?.as_f64()?,
            p95_ms: value.get("p95_ms")?.as_f64()?,
            p99_ms: value.get("p99_ms")?.as_f64()?,
            crashes: value.get("crashes")?.as_u64()?,
            handoffs: value.get("handoffs")?.as_u64()?,
            retries: value.get("retries")?.as_u64()?,
            hedges: value.get("hedges")?.as_u64()?,
            hedge_wins: value.get("hedge_wins")?.as_u64()?,
        })
    }
}

/// One pool-controller entry (`BENCH_control.json`): a (controller variant,
/// traffic model, replica count, offered load) cell of the `repro control`
/// experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlRecord {
    /// Record id, e.g. `control_synthnet_mmpp_predictive-autoscale_r8_x1.5_n20000`.
    pub name: String,
    /// Controller variant (`reactive`, `predictive`, `predictive-autoscale`,
    /// `predictive-steal`).
    pub controller: String,
    /// Traffic model (`mmpp` or `diurnal`).
    pub arrival: String,
    /// Offered load as a multiple of the size-adjusted aggregate dense rate.
    pub offered: f64,
    /// Requests issued.
    pub requests: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Completed requests per second of virtual time.
    pub throughput_rps: f64,
    /// Median latency in ms.
    pub p50_ms: f64,
    /// 95th-percentile latency in ms.
    pub p95_ms: f64,
    /// 99th-percentile latency in ms.
    pub p99_ms: f64,
    /// Allocated replica count of the pool (the autoscale ceiling).
    pub replicas: u64,
    /// Integrated live-replica time over the run in seconds — the resource axis
    /// autoscaling optimizes. Uncontrolled cells charge every allocated
    /// replica for the whole makespan.
    pub replica_seconds: f64,
    /// Autoscale up events.
    pub scale_ups: u64,
    /// Autoscale down events (each reuses the drain/handoff machinery).
    pub scale_downs: u64,
    /// Predictive ladder-floor changes.
    pub predictive_shifts: u64,
    /// Work-stealing events.
    pub steals: u64,
    /// Requests moved by stealing.
    pub stolen_requests: u64,
    /// Reactive adaptive mode switches over the run.
    pub mode_transitions: u64,
}

impl ControlRecord {
    /// Shed fraction of the offered trace.
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.rejected as f64 / self.requests as f64
        }
    }

    /// Whether this cell dominates `baseline` on at least one of the three
    /// axes the controller optimizes: shed rate, p99 latency,
    /// replica-seconds. (A small relative margin keeps rounding noise from
    /// counting as a win.)
    pub fn dominates_on_one_axis(&self, baseline: &ControlRecord) -> bool {
        let better = |c: f64, b: f64| c < b * 0.999;
        better(self.shed_rate(), baseline.shed_rate())
            || better(self.p99_ms, baseline.p99_ms)
            || better(self.replica_seconds, baseline.replica_seconds)
    }
}

impl Record for ControlRecord {
    const KEY: &'static str = "runs";

    fn name(&self) -> &str {
        &self.name
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("controller", Json::str(&self.controller)),
            ("arrival", Json::str(&self.arrival)),
            ("offered", Json::Num(r3(self.offered))),
            ("requests", Json::Num(self.requests as f64)),
            ("completed", Json::Num(self.completed as f64)),
            ("rejected", Json::Num(self.rejected as f64)),
            ("throughput_rps", Json::Num(r3(self.throughput_rps))),
            ("p50_ms", Json::Num(r3(self.p50_ms))),
            ("p95_ms", Json::Num(r3(self.p95_ms))),
            ("p99_ms", Json::Num(r3(self.p99_ms))),
            ("replicas", Json::Num(self.replicas as f64)),
            ("replica_seconds", Json::Num(r3(self.replica_seconds))),
            ("scale_ups", Json::Num(self.scale_ups as f64)),
            ("scale_downs", Json::Num(self.scale_downs as f64)),
            (
                "predictive_shifts",
                Json::Num(self.predictive_shifts as f64),
            ),
            ("steals", Json::Num(self.steals as f64)),
            ("stolen_requests", Json::Num(self.stolen_requests as f64)),
            ("mode_transitions", Json::Num(self.mode_transitions as f64)),
        ])
    }

    fn from_json(value: &Json) -> Option<ControlRecord> {
        Some(ControlRecord {
            name: value.get("name")?.as_str()?.to_string(),
            controller: value.get("controller")?.as_str()?.to_string(),
            arrival: value.get("arrival")?.as_str()?.to_string(),
            offered: value.get("offered")?.as_f64()?,
            requests: value.get("requests")?.as_u64()?,
            completed: value.get("completed")?.as_u64()?,
            rejected: value.get("rejected")?.as_u64()?,
            throughput_rps: value.get("throughput_rps")?.as_f64()?,
            p50_ms: value.get("p50_ms")?.as_f64()?,
            p95_ms: value.get("p95_ms")?.as_f64()?,
            p99_ms: value.get("p99_ms")?.as_f64()?,
            replicas: value.get("replicas")?.as_u64()?,
            replica_seconds: value.get("replica_seconds")?.as_f64()?,
            scale_ups: value.get("scale_ups")?.as_u64()?,
            scale_downs: value.get("scale_downs")?.as_u64()?,
            predictive_shifts: value.get("predictive_shifts")?.as_u64()?,
            steals: value.get("steals")?.as_u64()?,
            stolen_requests: value.get("stolen_requests")?.as_u64()?,
            mode_transitions: value.get("mode_transitions")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(names: &[&str]) -> Summary<ServeRecord> {
        let records = names.iter().map(|&name| serve_record(name)).collect();
        Summary { records }
    }

    #[test]
    fn write_merges_instead_of_overwriting() {
        let path = std::env::temp_dir().join("nbsmt_bench_summary_merge_test.json");
        let _ = std::fs::remove_file(&path);

        named(&["keep_me", "replace_me"]).write(&path).unwrap();
        let mut second = named(&["replace_me", "new_record"]);
        second.records[0].replicas = 4;
        second.write(&path).unwrap();

        let merged =
            Summary::<ServeRecord>::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let names: Vec<&str> = merged.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["keep_me", "replace_me", "new_record"]);
        assert_eq!(merged.records[1].replicas, 4, "replaced in place");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unparsable_existing_file_is_backed_up() {
        let path = std::env::temp_dir().join("nbsmt_bench_summary_bak_test.json");
        let backup = std::env::temp_dir().join("nbsmt_bench_summary_bak_test.json.bak");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
        std::fs::write(&path, "this is not json").unwrap();

        let summary = named(&["x"]);
        summary.write(&path).unwrap();

        assert_eq!(
            std::fs::read_to_string(&backup).unwrap(),
            "this is not json"
        );
        assert!(
            Summary::<ServeRecord>::parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap()
                .records
                .iter()
                .any(|r| r.name == "x")
        );

        // A second corrupt-file event backs up to `.bak1` instead of
        // destroying the first backup.
        let backup1 = std::env::temp_dir().join("nbsmt_bench_summary_bak_test.json.bak1");
        let _ = std::fs::remove_file(&backup1);
        std::fs::write(&path, "also not json").unwrap();
        summary.write(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&backup).unwrap(),
            "this is not json"
        );
        assert_eq!(std::fs::read_to_string(&backup1).unwrap(), "also not json");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
        let _ = std::fs::remove_file(&backup1);
    }

    #[test]
    fn partially_understood_document_is_backed_up_not_truncated() {
        // Valid JSON whose second record is missing fields (schema drift):
        // parse must fail as a whole so the merging write preserves the
        // file as a backup instead of silently dropping that record.
        let body = r#"{"runs": [
            {"name": "ok", "smt": "2t", "arrival": "open_poisson", "offered": 2.0,
             "requests": 10, "completed": 9, "rejected": 1, "throughput_rps": 5.0,
             "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0, "mean_batch": 2.5,
             "max_queue_depth": 4},
            {"name": "from_the_future", "wall_ps": 17}
        ]}"#;
        assert!(Summary::<ServeRecord>::parse(body).is_none());

        let path = std::env::temp_dir().join("nbsmt_bench_summary_drift_test.json");
        let backup = std::env::temp_dir().join("nbsmt_bench_summary_drift_test.json.bak");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
        std::fs::write(&path, body).unwrap();
        named(&["x"]).write(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&backup).unwrap(), body);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&backup);
    }

    /// A pre-shard `BENCH_serve.json` record, with `requests` as given.
    fn legacy_serve_doc(requests: &str) -> String {
        format!(
            r#"{{"runs": [
            {{"name": "serve_old", "smt": "2t", "arrival": "open_poisson",
             "offered": 2.0, "requests": {requests}, "completed": 9, "rejected": 1,
             "throughput_rps": 5.0, "p50_ms": 1.0, "p95_ms": 2.0,
             "p99_ms": 3.0, "mean_batch": 2.5, "max_queue_depth": 4}}
        ]}}"#
        )
    }

    #[test]
    fn serve_records_without_shard_fields_parse_with_defaults() {
        // A record written before the shard sweep existed: the new fields
        // fall back to unsharded defaults instead of failing the document.
        let parsed =
            Summary::<ServeRecord>::parse(&legacy_serve_doc("10")).expect("legacy schema parses");
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.records[0].replicas, 1);
        assert_eq!(parsed.records[0].route, "-");
        assert_eq!(parsed.records[0].mode_transitions, 0);
        // A record missing a *required* field still fails the whole parse.
        let broken = r#"{"runs": [{"name": "x", "smt": "2t"}]}"#;
        assert!(Summary::<ServeRecord>::parse(broken).is_none());
    }

    #[test]
    fn a_fractional_or_out_of_range_count_fails_the_whole_parse() {
        // A count that is not an exact integer must not be truncated or
        // saturated into a plausible record: the document takes the `.bak`
        // path instead.
        for requests in ["10.5", "-1", "1e30", "9007199254740992"] {
            assert!(
                Summary::<ServeRecord>::parse(&legacy_serve_doc(requests)).is_none(),
                "requests {requests} must fail the parse"
            );
        }
    }

    /// Render → parse is exact for a record at file precision; a merging
    /// write replaces the same-name record in place and appends a new name;
    /// and a record missing a required field fails the whole parse (→ .bak).
    fn round_trips_and_merges<R: Record + PartialEq + std::fmt::Debug>(a: R, changed: R, b: R) {
        let summary = Summary {
            records: vec![a.clone()],
        };
        assert_eq!(Summary::parse(&summary.to_json()), Some(summary.clone()));

        let path = std::env::temp_dir().join(format!("nbsmt_summary_{}_test.json", a.name()));
        let _ = std::fs::remove_file(&path);
        summary.write(&path).unwrap();
        let update = Summary {
            records: vec![changed.clone(), b.clone()],
        };
        update.write(&path).unwrap();
        let merged = Summary::<R>::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(merged, update, "replaced in place, new name appended");
        let _ = std::fs::remove_file(&path);

        let broken = format!(r#"{{"{}": [{{"name": "x"}}]}}"#, R::KEY);
        assert!(Summary::<R>::parse(&broken).is_none());
    }

    fn serve_record(name: &str) -> ServeRecord {
        ServeRecord {
            name: name.to_string(),
            smt: "2t".to_string(),
            arrival: "open_poisson".to_string(),
            offered: 120.5,
            requests: 256,
            completed: 250,
            rejected: 6,
            throughput_rps: 118.2,
            p50_ms: 4.25,
            p95_ms: 9.5,
            p99_ms: 14.0,
            mean_batch: 3.2,
            max_queue_depth: 17,
            replicas: 2,
            route: "rr".to_string(),
            mode_transitions: 4,
        }
    }

    #[test]
    fn serve_summary_round_trips_and_merges() {
        let changed = ServeRecord {
            completed: 999,
            ..serve_record("serve_a")
        };
        round_trips_and_merges(serve_record("serve_a"), changed, serve_record("serve_b"));
    }

    fn fault_record(name: &str) -> FaultRecord {
        FaultRecord {
            name: name.to_string(),
            schedule: "crash-during-drain".to_string(),
            mode: "live".to_string(),
            policy: "adaptive".to_string(),
            cm: "retry+hedge".to_string(),
            requests: 64,
            completed: 64,
            failed: 0,
            availability: 1.0,
            p95_ms: 3.125,
            p99_ms: 5.5,
            crashes: 1,
            handoffs: 3,
            retries: 4,
            hedges: 2,
            hedge_wins: 1,
        }
    }

    #[test]
    fn fault_summary_round_trips_and_merges() {
        let changed = FaultRecord {
            completed: 63,
            failed: 1,
            ..fault_record("faults_a")
        };
        round_trips_and_merges(fault_record("faults_a"), changed, fault_record("faults_b"));
    }

    fn control_record(name: &str) -> ControlRecord {
        ControlRecord {
            name: name.to_string(),
            controller: "predictive-autoscale".to_string(),
            arrival: "mmpp".to_string(),
            offered: 1.5,
            requests: 20_000,
            completed: 19_000,
            rejected: 1_000,
            throughput_rps: 512.5,
            p50_ms: 2.25,
            p95_ms: 7.0,
            p99_ms: 11.5,
            replicas: 8,
            replica_seconds: 123.456,
            scale_ups: 3,
            scale_downs: 5,
            predictive_shifts: 9,
            steals: 0,
            stolen_requests: 0,
            mode_transitions: 40,
        }
    }

    #[test]
    fn control_summary_round_trips_and_merges() {
        let changed = ControlRecord {
            scale_downs: 7,
            ..control_record("control_a")
        };
        round_trips_and_merges(
            control_record("control_a"),
            changed,
            control_record("control_b"),
        );
    }
}
