//! Property and golden tests for the declarative run-spec API.
//!
//! Three contracts the `repro` driver and the committed `examples/specs/`
//! files depend on:
//!
//! * **Round trip**: `RunSpec::parse(&spec.render()) == spec`, bit-exact,
//!   for arbitrary valid specs (seeds up to 2^53−1, every scale/backend,
//!   each per-experiment key present or absent).
//! * **Validation**: bad values — zero thread counts, zero queue
//!   capacities, inverted adaptive thresholds, zero tile sizes — are typed
//!   errors through the workspace-wide `Validate` trait, never clamps.
//! * **Golden `--list`**: the binary's experiment list is generated from
//!   the registry table, so the two can never drift apart; so are `--help`
//!   and the ARCHITECTURE.md experiment table.

use proptest::prelude::*;

use nbsmt_bench::experiments::registry::{self, ALL, EXPERIMENTS};
use nbsmt_bench::spec::MAX_SPEC_INT;
use nbsmt_bench::{ExperimentError, Param, ParamKey, RunSpec, Scale, SpecError};
use nbsmt_serve::config::{AdaptivePolicy, BatchPolicy, ConfigError, PoolConfig, SchedulerConfig};
use nbsmt_serve::faults::FaultConfig;
use nbsmt_tensor::exec::{ExecConfig, GemmBackendKind};
use nbsmt_tensor::validate::{ExecConfigError, Validate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every `arrival` value some experiment runs, plus `all`, from the
/// registry table.
fn arrival_values() -> Vec<&'static str> {
    let mut values = vec!["all"];
    for param in EXPERIMENTS.iter().flat_map(|e| e.params) {
        if let Param::Arrival(models) = param {
            values.extend(models.iter());
        }
    }
    values.sort_unstable();
    values.dedup();
    values
}

/// Grows an arbitrary *valid* spec from a seed: every experiment name the
/// registry knows (plus free-form names — round-tripping does not require
/// registration), both scales, all backends, seeds across the full
/// JSON-exact range, and each of the four per-experiment keys present or
/// absent — `arrival` over every value some experiment runs.
fn gen_spec(rng: &mut StdRng) -> RunSpec {
    let names: Vec<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    let experiment = match rng.gen_range(0..names.len() + 2) {
        i if i < names.len() => names[i].clone(),
        i if i == names.len() => "all".to_string(),
        _ => format!("custom_{}", rng.gen_range(0..100)),
    };
    let mut spec = RunSpec::defaults(&experiment);
    spec.scale = if rng.gen::<u64>() & 1 == 0 {
        Scale::Quick
    } else {
        Scale::Full
    };
    spec.seed = match rng.gen_range(0..3) {
        0 => rng.gen_range(0..1024),
        1 => MAX_SPEC_INT - rng.gen_range(0..1024u64),
        _ => rng.gen_range(0..MAX_SPEC_INT),
    };
    spec.exec.threads = rng.gen_range(1..=64);
    spec.exec.backend = [
        GemmBackendKind::Naive,
        GemmBackendKind::Blocked,
        GemmBackendKind::Parallel,
        GemmBackendKind::Simd,
        GemmBackendKind::Packed,
    ][rng.gen_range(0..5usize)];
    if rng.gen::<u64>() & 1 == 0 {
        spec.requests = Some(rng.gen_range(1..100_000));
    }
    if rng.gen::<u64>() & 1 == 0 {
        let n = rng.gen_range(1..5usize);
        spec.replicas = Some((0..n).map(|_| rng.gen_range(1..64)).collect());
    }
    if rng.gen::<u64>() & 1 == 0 {
        let values = arrival_values();
        spec.arrival = Some(values[rng.gen_range(0..values.len())].to_string());
    }
    if rng.gen::<u64>() & 1 == 0 {
        // Paths with separators, dots, and spaces must survive the JSON
        // string escaping round trip.
        spec.trace = Some(
            [
                "trace.json",
                "out/trace.json",
                "deep/nested/dir/t.json",
                "with space.json",
            ][rng.gen_range(0..4usize)]
            .to_string(),
        );
    }
    spec
}

proptest! {
    #[test]
    fn run_spec_render_parse_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = gen_spec(&mut rng);
        prop_assert_eq!(spec.validate(), Ok(()));
        let text = spec.render();
        let back = RunSpec::parse(&text);
        prop_assert!(back.is_ok(), "rendered spec failed to parse: {:?}\n{}", back, text);
        prop_assert_eq!(back.unwrap(), spec, "round trip changed the spec\n{}", text);
    }

    #[test]
    fn render_is_a_fixed_point(seed in any::<u64>()) {
        // parse(render(s)) == s implies render(parse(render(s))) ==
        // render(s); check it directly so a future lossy field is caught
        // even if equality were weakened.
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = gen_spec(&mut rng);
        let once = spec.render();
        let twice = RunSpec::parse(&once).unwrap().render();
        prop_assert_eq!(once, twice);
    }
}

#[test]
fn default_specs_of_every_experiment_round_trip() {
    for name in EXPERIMENTS.iter().map(|e| e.name).chain([ALL]) {
        let spec = registry::resolve(RunSpec::defaults(name)).expect("known experiment");
        assert_eq!(spec.validate(), Ok(()), "{name} default must be valid");
        let back = RunSpec::parse(&spec.render()).expect("default spec parses");
        assert_eq!(back, spec, "{name} default must round-trip");
    }
}

#[test]
fn validation_rejects_zero_capacity_queue() {
    let zero_capacity = SchedulerConfig {
        batch: BatchPolicy::default(),
        queue_capacity: 0,
    };
    assert_eq!(
        zero_capacity.validate(),
        Err(ConfigError::ZeroQueueCapacity)
    );
    let zero_batch = SchedulerConfig {
        batch: BatchPolicy {
            max_batch: 0,
            max_wait_ns: 0,
        },
        queue_capacity: 8,
    };
    assert_eq!(zero_batch.validate(), Err(ConfigError::ZeroBatch));
    let too_small = SchedulerConfig {
        batch: BatchPolicy {
            max_batch: 16,
            max_wait_ns: 0,
        },
        queue_capacity: 8,
    };
    assert_eq!(
        too_small.validate(),
        Err(ConfigError::QueueSmallerThanBatch {
            capacity: 8,
            max_batch: 16
        })
    );
}

#[test]
fn validation_rejects_inverted_adaptive_thresholds() {
    let inverted = AdaptivePolicy {
        depth_high: 1,
        depth_low: 8,
        p95_high_ns: 0,
        eval_every_batches: 1,
    };
    assert_eq!(
        inverted.validate(),
        Err(ConfigError::InvertedDepthThresholds { low: 8, high: 1 })
    );
    let no_cadence = AdaptivePolicy {
        eval_every_batches: 0,
        ..AdaptivePolicy::default()
    };
    assert_eq!(no_cadence.validate(), Err(ConfigError::ZeroEvalCadence));
    // The nested errors surface identically through the pool config — the
    // same rejection every scheduler entry point applies.
    let pool = PoolConfig {
        adaptive: inverted,
        ..PoolConfig::default()
    };
    assert_eq!(
        pool.validate(),
        Err(ConfigError::InvertedDepthThresholds { low: 8, high: 1 })
    );
}

/// Bad fault-schedule values are typed [`ConfigError`]s through the same
/// `Validate` trait.
#[test]
fn validation_rejects_bad_fault_configs() {
    let hot = FaultConfig {
        crash_per_mille: 1001,
        ..FaultConfig::default()
    };
    assert_eq!(
        hot.validate(),
        Err(ConfigError::FaultRateOutOfRange { rate: 1001 })
    );
    let no_horizon = FaultConfig {
        horizon_batches: 0,
        ..FaultConfig::default()
    };
    assert_eq!(no_horizon.validate(), Err(ConfigError::ZeroFaultHorizon));
    let frozen_forever = FaultConfig {
        stall_per_mille: 1,
        stall_ns: 0,
        ..FaultConfig::default()
    };
    assert_eq!(
        frozen_forever.validate(),
        Err(ConfigError::ZeroStallDuration)
    );
    let speedup = FaultConfig {
        straggle_per_mille: 1,
        straggle_factor_x1024: 512,
        ..FaultConfig::default()
    };
    assert_eq!(
        speedup.validate(),
        Err(ConfigError::StraggleFactorBelowUnit { factor_x1024: 512 })
    );
}

#[test]
fn validation_rejects_zero_tile_sizes() {
    let no_rows = ExecConfig {
        tile_rows: 0,
        ..ExecConfig::default()
    };
    assert_eq!(no_rows.validate(), Err(ExecConfigError::ZeroTileRows));
    let no_k = ExecConfig {
        tile_k: 0,
        ..ExecConfig::default()
    };
    assert_eq!(no_k.validate(), Err(ExecConfigError::ZeroTileK));
    let no_threads = ExecConfig {
        threads: 0,
        ..ExecConfig::default()
    };
    assert_eq!(no_threads.validate(), Err(ExecConfigError::ZeroThreads));
}

#[test]
fn spec_validation_rejects_zero_and_oversized_values() {
    let mut spec = RunSpec::defaults("serve");
    spec.requests = Some(0);
    assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
    let mut spec = RunSpec::defaults("shard");
    spec.replicas = Some(vec![1, 0]);
    assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
    let mut spec = RunSpec::defaults("fig8");
    spec.exec.threads = 0;
    assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
    let mut spec = RunSpec::defaults("fig8");
    spec.seed = MAX_SPEC_INT + 1;
    assert!(matches!(spec.validate(), Err(SpecError::Bad { .. })));
}

#[test]
fn undeclared_params_are_typed_errors_per_experiment() {
    // Every key against every experiment and `all`: a spec setting it
    // resolves iff the experiment's row declares it, and is otherwise
    // refused by name.
    let rows = EXPERIMENTS.iter().map(|e| (e.name, e.params));
    for (name, params) in rows.chain([(ALL, &[][..])]) {
        for key in ParamKey::ALL {
            let mut spec = RunSpec::defaults(name);
            let value = if key == ParamKey::Arrival { "all" } else { "1" };
            spec.set(key.name(), value).expect("a settable key");
            let declared = params.iter().any(|param| param.key() == key);
            match registry::resolve(spec) {
                Ok(_) => assert!(declared, "{name} accepted the undeclared '{}'", key.name()),
                Err(e) => {
                    assert!(
                        !declared,
                        "{name} refused its declared '{}': {e}",
                        key.name()
                    );
                    assert_eq!(
                        e,
                        ExperimentError::Spec(SpecError::KeyNotAccepted {
                            experiment: name.to_string(),
                            key: key.name(),
                        })
                    );
                }
            }
        }
    }
}

/// Golden test: the binary's `--list` output is exactly the registry's
/// generated text — the driver cannot drift from the registry contents.
#[test]
fn repro_list_output_matches_the_registry() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("repro binary runs");
    assert!(output.status.success(), "--list must exit 0");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert_eq!(
        stdout,
        registry::list_text(),
        "--list must be generated from the registry"
    );
    // And every registered experiment appears by name.
    for experiment in EXPERIMENTS {
        assert!(stdout.contains(experiment.name));
    }
}

#[test]
fn repro_help_mentions_spec_flags_and_experiments() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("repro binary runs");
    assert!(output.status.success(), "--help must exit 0");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert_eq!(stdout, registry::help_text());
    for flag in ["--spec", "--set", "--dump-spec", "--list"] {
        assert!(stdout.contains(flag), "help must document {flag}");
    }
}

#[test]
fn repro_dump_spec_round_trips_through_the_binary() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--dump-spec",
            "--threads",
            "1",
            "--backend",
            "naive",
        ])
        .output()
        .expect("repro binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let spec = RunSpec::parse(&stdout).expect("dumped spec parses");
    assert_eq!(spec.experiment, "serve");
    assert_eq!(spec.exec.threads, 1);
    assert_eq!(spec.requests, Some(256), "serve defaults fill in");
    // Bit-exact fixed point: dumping what was dumped changes nothing.
    assert_eq!(spec.render(), stdout);
}

#[test]
fn repro_rejects_undeclared_params_with_exit_2() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig8", "--requests", "64"])
        .output()
        .expect("repro binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 output");
    assert!(
        stderr.contains("does not accept the 'requests' parameter"),
        "stderr was: {stderr}"
    );
    // Unknown experiments keep the descriptive list in the error.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig99")
        .output()
        .expect("repro binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 output");
    assert!(stderr.contains("unknown experiment 'fig99'"));
    assert!(stderr.contains("Known experiments:"));
}

/// `control` runs no Poisson cells: the value is refused before any
/// training, with the usage exit status.
#[test]
fn repro_refuses_an_arrival_the_experiment_does_not_run_with_exit_2() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["control", "--set", "arrival=poisson", "--dump-spec"])
        .output()
        .expect("repro binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "nothing is dumped");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 output");
    assert!(
        stderr.contains("'poisson' is not one of mmpp, diurnal, all"),
        "stderr was: {stderr}"
    );
}

/// The fault-schedule and request-size knobs are constants of their
/// sweeps: naming one, from `--set` or from a spec file, exits 2.
#[test]
fn repro_refuses_removed_keys_with_exit_2() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
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
        let experiment = if key.starts_with("size") {
            "scale"
        } else {
            "faults"
        };
        let set = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([experiment, "--set", &format!("{key}=7"), "--dump-spec"])
            .output()
            .expect("repro binary runs");
        assert_eq!(set.status.code(), Some(2), "--set {key}");
        let stderr = String::from_utf8(set.stderr).expect("utf-8 output");
        assert!(
            stderr.contains(&format!("unknown spec key '{key}'")),
            "{stderr}"
        );

        let path = dir.join(format!("removed_{key}.json"));
        std::fs::write(
            &path,
            format!(r#"{{"experiment": "{experiment}", "{key}": 7}}"#),
        )
        .expect("spec file writes");
        let file = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--spec")
            .arg(&path)
            .arg("--dump-spec")
            .output()
            .expect("repro binary runs");
        assert_eq!(file.status.code(), Some(2), "spec file with {key}");
        let stderr = String::from_utf8(file.stderr).expect("utf-8 output");
        assert!(
            stderr.contains(&format!("unknown field '{key}'")),
            "{stderr}"
        );
    }
}

/// The ARCHITECTURE.md experiment-harness table is the registry's generated
/// markdown, verbatim — editing one without the other fails here.
#[test]
fn architecture_doc_table_is_generated_from_the_registry() {
    let doc_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ARCHITECTURE.md");
    let doc = std::fs::read_to_string(doc_path).expect("ARCHITECTURE.md exists");
    let table = registry::markdown_table();
    assert!(
        doc.contains(&table),
        "ARCHITECTURE.md experiment table is stale; regenerate it with \
         registry::markdown_table():\n{table}"
    );
}

#[test]
fn every_committed_example_spec_parses_and_is_accepted() {
    let specs_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut found = 0;
    for entry in std::fs::read_dir(&specs_dir).expect("examples/specs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        found += 1;
        let text = std::fs::read_to_string(&path).expect("spec file reads");
        let spec = RunSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let resolved = registry::resolve(spec)
            .unwrap_or_else(|e| panic!("{} is not accepted: {e}", path.display()));
        // What `--dump-spec` prints for the file resolves to itself.
        let dumped = RunSpec::parse(&resolved.render()).expect("a dump parses");
        assert_eq!(registry::resolve(dumped), Ok(resolved));
    }
    assert!(
        found >= 5,
        "expected committed example specs, found {found}"
    );
}
